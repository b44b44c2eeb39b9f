//! Property tests pinning the query engine's execution paths
//! (sparse-frontier, dense fallback, one-lane and 16-lane sweeps) to the
//! dense reference sweep and — via Lemma 4 — to the corresponding row of
//! the all-pairs geometric iteration, plus top-k against the full-row sort
//! and deterministic lanes against the solo answer, bit for bit.

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

    /// Batched rows (plain and compressed kernels, one-lane and 16-lane
    /// chunks) == dense sweep == all-pairs rows.
    #[test]
    fn batched_matches_dense_and_matrix(
        (n, edges, _q) in arb_graph_and_query(14, 50),
        shift in 0usize..14,
    ) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 5 };
        let full = geometric::iterate(&g, &p);
        for compress in [false, true] {
            let opts = QueryEngineOptions { compress, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            for len in [1, n, 16, 17] {
                let queries = chunk_of(len, n, shift);
                let batch = engine.query_batch(&queries);
                for (i, &q) in queries.iter().enumerate() {
                    let dense = single_source_dense(&g, q, &p);
                    let row = batch.row(i);
                    for v in 0..n {
                        prop_assert!((row[v] - dense[v]).abs() < 1e-10,
                            "compress={compress}, len={len}, q={q}, v={v}");
                        prop_assert!((row[v] - full.score(q, v as NodeId)).abs() < 1e-10,
                            "compress={compress}, len={len}, q={q}, v={v}");
                    }
                }
            }
        }
    }

    /// Deterministic mode: at every chunk size 1..=17 (so at both lane
    /// widths, alone and next to other lanes), on both backings, and
    /// whether the in-memory sweep densifies or not, every lane's row and
    /// top-k are bit-identical to the solo one-lane answer of a sweep that
    /// never densifies.
    #[test]
    fn deterministic_lanes_match_solo_at_every_chunk_size(
        (n, edges, _q) in arb_graph_and_query(14, 50),
        shift in 0usize..14,
    ) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
        let mem = QueryEngine::with_options(&g, p, opts.clone());
        let never = QueryEngineOptions {
            density_cutoff: 1.0,
            batch_density_cutoff: 1.0,
            ..opts.clone()
        };
        let sparse = QueryEngine::with_options(&g, p, never);
        let src: Arc<dyn NeighborAccess> = Arc::new(g.clone());
        let acc = QueryEngine::with_access(src, p, opts);
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

    /// Top-k by partial selection == full-row sort on ties-free scores.
    /// (The shared descending-score / ascending-id comparator is a total
    /// order, so the equality in fact holds with ties too; the filter to
    /// ties-free rows keeps the property's claim independent of that rule.)
    #[test]
    fn top_k_matches_full_sort((n, edges, q) in arb_graph_and_query(16, 60)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let engine = QueryEngine::new(&g, p);
        let row = engine.query(q);
        let mut sorted: Vec<(NodeId, f64)> = row
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != q as usize)
            .map(|(v, &s)| (v as NodeId, s))
            .collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [1usize, 3, n / 2, n] {
            let fast = engine.top_k(q, k);
            let want = &sorted[..k.min(sorted.len())];
            prop_assert_eq!(fast.len(), want.len());
            for (got, exp) in fast.iter().zip(want) {
                prop_assert_eq!(got.0, exp.0, "k={}", k);
                prop_assert!((got.1 - exp.1).abs() < 1e-12);
            }
        }
    }
}
