//! Property tests pinning the block-parallel [`AllPairsEngine`] — blocked
//! full sweep, partial-pairs rows, any thread count — and the memoized
//! full sweep ([`geometric::iterate_memo`]) to the serial textbook
//! reference [`geometric::iterate_serial`] within `1e-10`, plus streaming
//! top-k agreement against the materialized matrix and, bit for bit,
//! against a full sort of the engine's own rows.

use proptest::prelude::*;
use simrank_star::{geometric, AllPairsEngine, AllPairsOptions, SimStarParams};
use ssr_compress::CompressOptions;
use ssr_graph::{DiGraph, NodeId};

fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| (n, edges))
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> DiGraph {
    DiGraph::from_edges(n, edges).unwrap()
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

/// Every `(node, score bits)` of `row` but `q`, by descending score and
/// then ascending id: a full sort, which every top-k list must be a head
/// of.
fn sorted_row(row: &[f64], q: NodeId) -> Vec<(NodeId, u64)> {
    let mut all: Vec<(NodeId, f64)> =
        (0..).zip(row.iter().copied()).filter(|&(v, _)| v != q).collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    all.into_iter().map(|(v, s)| (v, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Blocked full sweep == serial textbook loop, for any worker-thread
    /// count and block size (blocking changes scheduling, never scores).
    #[test]
    fn blocked_full_matches_serial(
        (n, edges) in arb_graph(18, 60),
        threads in 1usize..=4,
        block_sel in 0usize..4,
    ) {
        let block_rows = [0usize, 1, 16, 40][block_sel];
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let serial = geometric::iterate_serial(&g, &p);
        let opts = AllPairsOptions { threads, block_rows, ..Default::default() };
        let blocked = AllPairsEngine::with_options(&g, p, opts).full();
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    (blocked.score(i as NodeId, j as NodeId) - serial.score(i as NodeId, j as NodeId)).abs() < 1e-10,
                    "threads={}, block_rows={}, i={}, j={}", threads, block_rows, i, j
                );
            }
        }
    }

    /// Memoized (edge-concentrated) full sweep == serial textbook loop.
    #[test]
    fn memoized_full_matches_serial((n, edges) in arb_graph(16, 50)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.6, iterations: 5 };
        let serial = geometric::iterate_serial(&g, &p);
        let memo = geometric::iterate_memo(&g, &p, &CompressOptions::default());
        for i in 0..n {
            for j in 0..n {
                prop_assert!(
                    (memo.score(i as NodeId, j as NodeId) - serial.score(i as NodeId, j as NodeId)).abs() < 1e-10,
                    "i={}, j={}", i, j
                );
            }
        }
    }

    /// Partial-pairs rows (the Horner path) == the matching serial rows,
    /// for an arbitrary subset in arbitrary order.
    #[test]
    fn partial_pairs_match_serial_rows(
        (n, edges) in arb_graph(16, 50),
        subset in proptest::collection::vec(0u32..16, 1..8),
        threads in 1usize..=3,
    ) {
        let g = build(n, &edges);
        let subset: Vec<NodeId> = subset.into_iter().map(|q| q % n as u32).collect();
        let p = SimStarParams { c: 0.7, iterations: 5 };
        let serial = geometric::iterate_serial(&g, &p);
        let opts = AllPairsOptions { threads, ..Default::default() };
        let rows = AllPairsEngine::with_options(&g, p, opts).rows(&subset);
        for (i, &q) in subset.iter().enumerate() {
            for v in 0..n {
                prop_assert!(
                    (rows.get(i, v) - serial.score(q, v as NodeId)).abs() < 1e-10,
                    "q={}, v={}", q, v
                );
            }
        }
    }

    /// Streaming top-k agreement: per-rank scores match the materialized
    /// matrix's sort-based top-k within 1e-10 (ids may legitimately swap
    /// only under score ties at that tolerance, so scores are the pin).
    #[test]
    fn streaming_top_k_agrees_with_matrix(
        (n, edges) in arb_graph(16, 50),
        k in 1usize..6,
        threads in 1usize..=3,
    ) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.8, iterations: 6 };
        let opts = AllPairsOptions { threads, ..Default::default() };
        let engine = AllPairsEngine::with_options(&g, p, opts);
        let matrix = geometric::iterate_serial(&g, &p);
        let ranked = engine.top_k_all(k);
        prop_assert_eq!(ranked.len(), n);
        for (q, rows) in ranked.iter().enumerate() {
            let want = matrix.top_k(q as NodeId, k);
            prop_assert_eq!(rows.len(), want.len(), "q={}", q);
            for (rank, ((got_v, got_s), &(_, want_s))) in rows.iter().zip(&want).enumerate() {
                // Same score at every rank…
                prop_assert!((got_s - want_s).abs() < 1e-10, "q={}, rank={}", q, rank);
                // …and every picked id is a genuine top-k item: its matrix
                // score can't be worse than the reference cut-off.
                let cutoff = want.last().map(|&(_, s)| s).unwrap_or(0.0);
                prop_assert!(
                    matrix.score(q as NodeId, *got_v) >= cutoff - 1e-10,
                    "q={}, rank={}: picked id below the top-k cut-off", q, rank
                );
            }
        }
    }

    /// Streaming top-k equals the head of a full sort of
    /// [`AllPairsEngine::rows`] (the same chunks, so the same bits), in ids
    /// and score bits, at 1 and 2 threads, on graphs with exact ties, for
    /// 1–20 rows (duplicates too) and `k` from 0 past `n`.
    #[test]
    fn streaming_top_k_equals_full_sort_of_rows(
        half in 1usize..=8,
        edges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..2), 0..=40),
        twins in proptest::collection::vec(0u32..16, 0..=3),
        isolated in 0usize..=3,
        picks in proptest::collection::vec(0u32..64, 1..=20),
    ) {
        let g = tied_graph(half, &edges, &twins, isolated);
        let n = g.node_count();
        let subset: Vec<NodeId> = picks.iter().map(|&v| v % n as NodeId).collect();
        let p = SimStarParams { c: 0.7, iterations: 6 };
        for threads in [1, 2] {
            let opts = AllPairsOptions { threads, ..Default::default() };
            let engine = AllPairsEngine::with_options(&g, p, opts);
            let rows = engine.rows(&subset);
            for k in [0, 1, 3, n - 1, n, usize::MAX] {
                let ranked = engine.top_k(&subset, k);
                prop_assert_eq!(ranked.len(), subset.len());
                for (i, (&q, list)) in subset.iter().zip(&ranked).enumerate() {
                    let got: Vec<(NodeId, u64)> =
                        list.iter().map(|&(v, s)| (v, s.to_bits())).collect();
                    let want = sorted_row(rows.row(i), q);
                    prop_assert_eq!(&got[..], &want[..k.min(n - 1)],
                        "threads={} k={} row {} (q={})", threads, k, i, q);
                }
            }
        }
    }
}
