//! # simrank-star — SimRank\* node-pair similarity
//!
//! Implementation of **"More is Simpler: Effectively and Efficiently
//! Assessing Node-Pair Similarities Based on Hyperlinks"** (Yu, Lin, Zhang,
//! Chang, Pei — PVLDB 2013).
//!
//! SimRank\* revises SimRank to fix its *zero-similarity* problem: SimRank
//! only aggregates **symmetric** in-link paths (equal-length arms from a
//! common in-link "source"), so node pairs without such a source score zero
//! and every dissymmetric path's contribution is dropped. SimRank\* weights a
//! length-`l` in-link path with `θ` forward edges by `binom(l, θ)/2^l` and
//! aggregates *all* in-link paths (Eq. 7):
//!
//! ```text
//! Ŝ = (1−C) Σ_l (C^l / 2^l) Σ_θ binom(l, θ) · Q^θ (Qᵀ)^{l−θ}
//! ```
//!
//! The crate implements every form and algorithm of the paper:
//!
//! | Paper artifact | Here |
//! |---|---|
//! | geometric series, Eq. (7)/(9) | [`series::geometric_partial_sum`] |
//! | exponential series, Eq. (11)/(18) | [`series::exponential_partial_sum`] |
//! | recursive form, Theorem 2 / Eq. (13)–(14) | [`geometric::iterate`] (*iter-gSR\**) |
//! | fine-grained memoization, Algorithm 1 | [`geometric::Memoized`] (*memo-gSR\**) |
//! | closed exponential form, Theorem 3 / Eq. (15)+(19) | [`exponential::closed_form`] (*eSR\**) |
//! | memoized exponential | [`exponential::Memoized`] (*memo-eSR\**) |
//! | convergence bounds, Lemma 3 / Eq. (12) | [`convergence`] |
//! | per-path contribution rates (§3.2 examples) | [`series::path_contribution`] |
//! | single-source queries (the evaluation's workload) | [`single_source`] — `O(K²m)` per query |
//! | amortized query serving (this repo's extension) | [`QueryEngine`] — precomputed state, sparse-frontier sweeps, batched lanes, top-k |
//! | block-parallel all-pairs (this repo's extension) | [`AllPairsEngine`] — threaded row-block sweeps, partial pairs, streaming top-k |
//! | exact fixed point (Sylvester solve, ground truth) | [`exact::solve_exact`] |
//! | per-path score decomposition (§3.2 rates) | [`explain::explain_pair`] |
//!
//! ## Quickstart
//!
//! ```
//! use simrank_star::{geometric, SimStarParams};
//! use ssr_graph::DiGraph;
//!
//! // A tiny "citation" diamond: 0 cites nothing, 1 and 2 cite 0, 3 cites both.
//! let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
//! let sim = geometric::iterate(&g, &SimStarParams::default());
//! // 1 and 2 share the citer 3 -> similar; and unlike SimRank, 0 and 1 get a
//! // non-zero score from the dissymmetric path 1 -> 0.
//! assert!(sim.score(1, 2) > 0.0);
//! assert!(sim.score(0, 1) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod all_pairs;
pub mod convergence;
pub mod exact;
pub mod explain;
pub mod exponential;
pub mod geometric;
mod kernel;
mod params;
pub mod query_engine;
pub mod series;
mod sim_matrix;
pub mod single_source;

pub use all_pairs::{AllPairsEngine, AllPairsOptions};
pub use kernel::{CompressedRightMultiplier, PlainRightMultiplier, RightMultiplier};
pub use params::{fnv1a, Fnv1a, SimStarParams};
pub use query_engine::{
    EngineStats, EngineStatsSnapshot, EngineStep, EngineTrace, QueryEngine, QueryEngineOptions,
    SeriesKind,
};
pub use sim_matrix::SimilarityMatrix;
