//! # ssr-graph — directed-graph substrate for the SimRank\* reproduction
//!
//! This crate provides the graph machinery every other crate in the workspace
//! builds on:
//!
//! * [`DiGraph`] — an immutable directed graph in compressed-sparse-row form
//!   with **both** out- and in-adjacency, because link-based similarity
//!   measures (SimRank, SimRank\*, P-Rank, RWR) are defined over in-neighbor
//!   sets `I(v)` and out-neighbor sets `O(v)`.
//! * [`GraphBuilder`] — incremental construction with deduplication and
//!   self-loop policies.
//! * [`io`] — plain-text edge-list parsing/writing (the format used by SNAP
//!   datasets the paper evaluates on).
//! * [`bipartite`] — the *induced bigraph* `G̃ = (T ∪ B, Ẽ)` of Definition 2,
//!   the input to edge-concentration compression.
//! * [`paths`] — in-link path machinery (Section 3.1 of the paper): level
//!   sets, symmetric/dissymmetric in-link path oracles, and the exact
//!   pair-graph reachability oracle for the "zero-SimRank" predicate of
//!   Theorem 1.
//! * [`stats`] — degree/density summaries (used to regenerate the paper's
//!   Figure 5 dataset table).
//! * [`components`] — weakly/strongly connected components (floors for the
//!   zero-similarity census; DAG detection).
//!
//! Node identifiers are `u32` ([`NodeId`]); graphs in the paper's evaluation
//! top out at 3.6M nodes, comfortably within range, and the narrower id type
//! halves adjacency-array memory traffic versus `usize`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod bipartite;
mod builder;
pub mod components;
mod digraph;
mod error;
pub mod io;
pub mod paths;
pub mod perm;
pub mod stats;

pub use access::NeighborAccess;
pub use bipartite::InducedBigraph;
pub use builder::GraphBuilder;
pub use digraph::{edge_digest, DiGraph};
pub use error::GraphError;
pub use perm::Permutation;

/// Node identifier. Dense in `0..graph.node_count()`.
pub type NodeId = u32;
