//! Property tests pinning the query engine's execution paths
//! (sparse-frontier, dense fallback, one-lane and 8-lane sweeps) to the
//! dense reference sweep and — via Lemma 4 — to the corresponding row of
//! the all-pairs geometric iteration, plus every form of top-k against the
//! full sort of the swept rows and every lane against its solo answer,
//! bit for bit.

use proptest::prelude::*;
use simrank_star::single_source::{single_source_dense, single_source_exponential_dense};
use simrank_star::{geometric, QueryEngine, QueryEngineOptions, SeriesKind, SimStarParams};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use std::sync::Arc;

fn arb_graph_and_query(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>, u32)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        (proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m), 0..n as u32)
            .prop_map(move |(edges, q)| (n, edges, q))
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> DiGraph {
    DiGraph::from_edges(n, edges).unwrap()
}

/// `len` queries cycling through the nodes from `shift` in steps of 5, so
/// chunks mix repeats and neighbours.
fn chunk_of(len: usize, n: usize, shift: usize) -> Vec<NodeId> {
    (0..len).map(|i| ((i * 5 + shift) % n) as NodeId).collect()
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// A graph with exact score ties: random edges inside two components of
/// `half` nodes each; for every entry of `twins`, a pair of leaves that
/// copy that node's in-neighbours (the pair scores alike from every
/// query); then `isolated` nodes (score 0 from every other query).
fn tied_graph(half: usize, edges: &[(u32, u32, u32)], twins: &[u32], isolated: usize) -> DiGraph {
    let h = half as u32;
    let mut e: Vec<(u32, u32)> =
        edges.iter().map(|&(a, b, side)| (a % h + side * h, b % h + side * h)).collect();
    let base = build(2 * half, &e);
    let mut n = 2 * h;
    for &t in twins {
        for _ in 0..2 {
            e.extend(base.in_neighbors(t % (2 * h)).iter().map(|&s| (s, n)));
            n += 1;
        }
    }
    build(n as usize + isolated, &e)
}

/// A top-k list as `(id, score bits)`.
fn ranked_bits(list: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    list.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

/// Every `(node, score)` of `row` but `q`, by descending score and then
/// ascending id: a full sort, which every top-k list must be a head of.
fn sorted_row(row: &[f64], q: NodeId) -> Vec<(NodeId, u64)> {
    let mut all: Vec<(NodeId, f64)> =
        (0..).zip(row.iter().copied()).filter(|&(v, _)| v != q).collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    ranked_bits(&all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse-frontier sweep == dense sweep == all-pairs row (Lemma 4 pin).
    #[test]
    fn sparse_matches_dense_and_matrix((n, edges, q) in arb_graph_and_query(18, 60)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let engine = QueryEngine::new(&g, p);
        let sparse = engine.query(q);
        let dense = single_source_dense(&g, q, &p);
        let full = geometric::iterate(&g, &p);
        for v in 0..n {
            prop_assert!((sparse[v] - dense[v]).abs() < 1e-10, "v={v}");
            prop_assert!((sparse[v] - full.score(q, v as NodeId)).abs() < 1e-10, "v={v}");
        }
    }

    /// Exponential-kind engine == exponential dense sweep.
    #[test]
    fn exponential_sparse_matches_dense((n, edges, q) in arb_graph_and_query(14, 50)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.6, iterations: 5 };
        let opts = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
        let engine = QueryEngine::with_options(&g, p, opts);
        let sparse = engine.query(q);
        let dense = single_source_exponential_dense(&g, q, &p);
        for v in 0..n {
            prop_assert!((sparse[v] - dense[v]).abs() < 1e-10, "v={v}");
        }
    }

    /// Batched rows (one-lane and 8-lane chunks) == dense sweep ==
    /// all-pairs rows.
    #[test]
    fn batched_matches_dense_and_matrix(
        (n, edges, _q) in arb_graph_and_query(14, 50),
        shift in 0usize..14,
    ) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 5 };
        let full = geometric::iterate(&g, &p);
        let engine = QueryEngine::new(&g, p);
        for len in [1, n, 16, 17] {
            let queries = chunk_of(len, n, shift);
            let batch = engine.query_batch(&queries);
            for (i, &q) in queries.iter().enumerate() {
                let dense = single_source_dense(&g, q, &p);
                let row = batch.row(i);
                for v in 0..n {
                    prop_assert!((row[v] - dense[v]).abs() < 1e-10, "len={len}, q={q}, v={v}");
                    prop_assert!((row[v] - full.score(q, v as NodeId)).abs() < 1e-10,
                        "len={len}, q={q}, v={v}");
                }
            }
        }
    }

    /// At every chunk size 1..=17 (so at both lane widths, alone and next
    /// to other lanes), on both backings, and whether the in-memory sweep
    /// densifies or not, every lane's row and top-k are bit-identical to
    /// the solo one-lane answer of a sweep that never densifies.
    #[test]
    fn deterministic_lanes_match_solo_at_every_chunk_size(
        (n, edges, _q) in arb_graph_and_query(14, 50),
        shift in 0usize..14,
    ) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let mem = QueryEngine::new(&g, p);
        let never = QueryEngineOptions {
            density_cutoff: 1.0,
            batch_density_cutoff: 1.0,
            ..Default::default()
        };
        let sparse = QueryEngine::with_options(&g, p, never);
        let src: Arc<dyn NeighborAccess> = Arc::new(g.clone());
        let acc = QueryEngine::with_access(src, p, Default::default());
        let solo: Vec<Vec<u64>> = (0..n as NodeId).map(|q| bits(&sparse.query(q))).collect();
        for (backing, engine) in [("memory", &mem), ("access", &acc), ("sparse", &sparse)] {
            for len in 1..=17 {
                let queries = chunk_of(len, n, shift);
                let rows = engine.query_batch(&queries);
                let ranked = engine.top_k_batch(&queries, 3);
                for (i, &q) in queries.iter().enumerate() {
                    prop_assert_eq!(&bits(rows.row(i)), &solo[q as usize],
                        "{} len={} lane {} (q={})", backing, len, i, q);
                    prop_assert_eq!(&ranked[i], &sparse.top_k(q, 3),
                        "{} len={} lane {} (q={}) top-k", backing, len, i, q);
                }
            }
        }
    }

    /// Forcing the dense fallback (cutoff 0) changes nothing.
    #[test]
    fn dense_fallback_matches_sparse((n, edges, q) in arb_graph_and_query(14, 50)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.8, iterations: 5 };
        let sparse = QueryEngine::new(&g, p).query(q);
        let forced = QueryEngine::with_options(
            &g,
            p,
            QueryEngineOptions { density_cutoff: 0.0, ..Default::default() },
        )
        .query(q);
        for v in 0..n {
            prop_assert!((sparse[v] - forced[v]).abs() < 1e-10, "v={v}");
        }
    }

    /// Every top-k form equals the head of a full sort of the rows its
    /// lanes hold, in ids and score bits, on graphs with exact ties, for
    /// 1–20 queries (duplicates too) and `k` from 0 past `n`. The rows:
    /// `query_batch` of the same queries for `top_k_batch` (the same
    /// chunks and widths) and, since lanes are width-independent, for 8
    /// forced lanes too; `query_batch` of each query alone for one forced
    /// lane.
    #[test]
    fn top_k_matches_full_sort(
        half in 1usize..=8,
        edges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..2), 0..=40),
        twins in proptest::collection::vec(0u32..16, 0..=3),
        isolated in 0usize..=3,
        picks in proptest::collection::vec(0u32..64, 1..=20),
    ) {
        let g = tied_graph(half, &edges, &twins, isolated);
        let n = g.node_count();
        let queries: Vec<NodeId> = picks.iter().map(|&v| v % n as NodeId).collect();
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let engine = QueryEngine::new(&g, p);
        let rows = engine.query_batch(&queries);
        let batch: Vec<_> =
            queries.iter().enumerate().map(|(i, &q)| sorted_row(rows.row(i), q)).collect();
        let solo: Vec<_> =
            queries.iter().map(|&q| sorted_row(engine.query_batch(&[q]).row(0), q)).collect();
        for k in [0, 1, 3, n - 1, n, usize::MAX] {
            for (form, got, want) in [
                ("batch", engine.top_k_batch(&queries, k), &batch),
                ("w1", engine.top_k_batch_at_width(&queries, k, 1), &solo),
                ("w8", engine.top_k_batch_at_width(&queries, k, 8), &batch),
            ] {
                prop_assert_eq!(got.len(), queries.len());
                for (i, list) in got.iter().enumerate() {
                    let head = &want[i][..k.min(n - 1)];
                    prop_assert_eq!(&ranked_bits(list)[..], head,
                        "{} k={} lane {} (q={})", form, k, i, queries[i]);
                }
            }
        }
    }
}
