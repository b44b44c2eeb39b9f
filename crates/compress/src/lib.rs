//! # ssr-compress — bipartite compression via edge concentration
//!
//! Section 4.3 of the paper: the per-iteration cost of SimRank\*'s
//! fine-grained memoization equals the edge count of the induced bigraph
//! `G̃ = (T ∪ B, Ẽ)` (Definition 2: `T` holds the nodes with out-edges, `B`
//! those with in-edges, and each edge `u → v` is a bigraph edge, so bottom
//! node `v`'s neighborhood is its in-neighbor set `I(v)`). So we compress
//! `G̃`, mining the in-neighbor sets directly, by replacing each
//! **biclique** `(X, Y)` (`|X|·|Y|` edges) with a *concentrator node*
//! (`|X| + |Y|` edges). Minimum edge concentration is NP-hard (X. Lin, DAM
//! 2000); following the paper we use a frequent-itemset–flavoured greedy
//! heuristic in the spirit of Buehrer & Chellapilla (WSDM'08):
//!
//! 1. **Duplicate grouping** — bottom nodes with identical in-neighbor sets
//!    immediately form a biclique (hash-group, `O(m)`).
//! 2. **Greedy itemset growth** — seed with the most frequent remaining top
//!    node `t`, then greedily add the top node that maximises the *saving*
//!    `|X|·|Y| − |X| − |Y|` of the grown biclique, shrinking the supporting
//!    bottom set as items are added; extract when the saving is positive.
//!
//! The result is a [`CompressedGraph`] `Ĝ = (T ∪ B ∪ V̂, Ê)` that reproduces
//! every in-neighbor set *exactly* (tested by round-trip property tests) and
//! exposes the access pattern the memoized SimRank\* algorithms need:
//! per-concentrator fan-in lists and per-node `direct ∪ via` in-lists.
//!
//! ```
//! use ssr_compress::{compress, CompressOptions};
//! use ssr_graph::DiGraph;
//! // K_{2,3}: one biclique, 6 edges -> 5.
//! let g = DiGraph::from_edges(5, &[(0,2),(0,3),(0,4),(1,2),(1,3),(1,4)]).unwrap();
//! let cg = compress(&g, &CompressOptions::default());
//! assert_eq!(cg.compressed_edge_count(), 5);
//! assert_eq!(cg.concentrator_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compressed;
mod mining;

pub use compressed::{CompressedGraph, SizeReport};
pub use mining::{compress, compress_with_bicliques, Biclique, CompressOptions};
