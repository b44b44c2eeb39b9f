//! Property-based tests of the graph substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use ssr_graph::components::{strongly_connected_components, weakly_connected_components};
use ssr_graph::{io, paths, CsrBuffers, DiGraph, GraphBuilder, GraphError};
use std::collections::BTreeSet;

type Edge = (u32, u32);

fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(move |edges| (n, edges))
    })
}

/// An edge list in one of three orders: as drawn (unsorted, with
/// duplicates), sorted with its duplicates, or sorted and deduplicated.
fn arb_ordered_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (arb_edges(max_n, max_m), 0..3u32).prop_map(|((n, mut edges), order)| {
        if order > 0 {
            edges.sort_unstable();
        }
        if order > 1 {
            edges.dedup();
        }
        (n, edges)
    })
}

/// A graph and one edit of it, as `(n, edges, add, remove)`. Fresh pairs
/// use ids up to `n + 3`, so adds may grow the node range with gaps (or
/// past the growth bound) and removals name ids `>= n`. Both lists also
/// draw edges the graph has, repeat their own first half, and share
/// edges with each other; either may be empty.
fn arb_delta() -> impl Strategy<Value = (usize, Vec<Edge>, Vec<Edge>, Vec<Edge>)> {
    arb_edges(24, 90).prop_flat_map(|(n, edges)| {
        let fresh = move || vec((0..n as u32 + 4, 0..n as u32 + 4), 0..6);
        let picks = || vec(0usize..1 << 16, 0..6);
        ((Just(n), Just(edges)), (fresh(), fresh()), (picks(), picks(), picks())).prop_map(
            |((n, edges), (mut add, mut remove), (add_present, remove_present, both))| {
                let pick = |i: usize, from: &[Edge]| from.get(i % from.len().max(1)).copied();
                add.extend(add_present.iter().filter_map(|&i| pick(i, &edges)));
                remove.extend(remove_present.iter().filter_map(|&i| pick(i, &edges)));
                let pool: Vec<Edge> = edges.iter().chain(&add).copied().collect();
                for e in both.iter().filter_map(|&i| pick(i, &pool)) {
                    add.push(e);
                    remove.push(e);
                }
                add.extend(add[..add.len() / 2].to_vec());
                remove.extend(remove[..remove.len() / 2].to_vec());
                (n, edges, add, remove)
            },
        )
    })
}

/// Spare CSR arrays as a retired graph of another size leaves them:
/// any lengths, any contents, and room to spare in some.
fn arb_spare() -> impl Strategy<Value = CsrBuffers> {
    let offsets = || vec(0usize..1 << 20, 0..40);
    let ids = || vec(0u32..1 << 20, 0..120);
    ((offsets(), ids(), offsets(), ids()), 0usize..100).prop_map(
        |((out_offsets, out_targets, in_offsets, in_sources), room)| {
            let mut spare = CsrBuffers { out_offsets, out_targets, in_offsets, in_sources };
            spare.out_targets.reserve_exact(room);
            spare.in_offsets.reserve_exact(room / 2);
            spare
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The counting sort builds exactly the sorted, deduplicated input in
    /// both directions, with every vector sized exactly.
    #[test]
    fn from_edges_matches_sorted_reference((n, edges) in arb_ordered_edges(24, 90)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let reference: Vec<Edge> = edges.iter().copied().collect::<BTreeSet<_>>().into_iter().collect();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), reference.clone());
        let mut reversed: Vec<Edge> = reference.iter().map(|&(u, v)| (v, u)).collect();
        reversed.sort_unstable();
        let in_edges: Vec<Edge> =
            g.nodes().flat_map(|v| g.in_neighbors(v).iter().map(move |&u| (v, u))).collect();
        prop_assert_eq!(in_edges, reversed);
        let (words, ids) = (std::mem::size_of::<usize>(), std::mem::size_of::<u32>());
        prop_assert_eq!(g.estimated_bytes(), 2 * (n + 1) * words + 2 * reference.len() * ids);
    }

    /// A patched graph equals `from_edges` on the edited edge list, array
    /// for array, and reports the edges the edit really added and removed.
    /// Adds win over removes; growth past the bound is refused.
    #[test]
    fn with_delta_matches_rebuild((n, edges, add, remove) in arb_delta()) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.with_delta(&[], &[]).unwrap(), (g.clone(), 0, 0));
        let before: BTreeSet<Edge> = g.edges().collect();
        let adds: BTreeSet<Edge> = add.iter().copied().collect();
        let removes: BTreeSet<Edge> = remove.iter().copied().collect();
        let top = adds.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        let limit = n + 2 * adds.len();
        match g.with_delta(&add, &remove) {
            Err(refused) => {
                prop_assert!(top > limit, "refused a delta within the bound: {refused}");
                prop_assert_eq!(refused, GraphError::NodeGrowth { node: top as u32 - 1, limit });
            }
            Ok((patched, added, removed)) => {
                prop_assert!(top <= limit, "accepted node {} past the bound {limit}", top - 1);
                let kept: BTreeSet<Edge> = before.difference(&removes).copied().collect();
                let after: Vec<Edge> = kept.union(&adds).copied().collect();
                let rebuilt = DiGraph::from_edges(n.max(top), &after).unwrap();
                prop_assert_eq!(patched.estimated_bytes(), rebuilt.estimated_bytes());
                prop_assert_eq!(&patched, &rebuilt);
                prop_assert_eq!(removed, before.intersection(&removes).count());
                prop_assert_eq!(added, adds.difference(&kept).count());
            }
        }
    }

    /// A delta built into spare arrays, whatever they held, equals the
    /// fresh build, counts and node growth included, and takes all four
    /// arrays; a refused delta leaves the spares exactly as they were.
    #[test]
    fn with_delta_into_spares_matches_fresh(
        (n, edges, add, remove) in arb_delta(),
        spare in arb_spare(),
    ) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let mut spare = spare;
        let held = format!("{spare:?}");
        let held_bytes = spare.capacity_bytes();
        match (g.with_delta(&add, &remove), g.with_delta_into(&add, &remove, &mut spare)) {
            (Ok(fresh), Ok(reused)) => {
                prop_assert_eq!(reused.0.node_count(), fresh.0.node_count());
                prop_assert_eq!(reused, fresh);
                prop_assert_eq!(spare.capacity_bytes(), 0);
            }
            (Err(fresh), Err(reused)) => {
                prop_assert_eq!(reused, fresh);
                prop_assert_eq!(format!("{spare:?}"), held);
                prop_assert_eq!(spare.capacity_bytes(), held_bytes);
            }
            (fresh, reused) => {
                prop_assert!(false, "fresh {:?} but into spares {:?}", fresh, reused);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Degree sums: Σ out-degree = Σ in-degree = |E|.
    #[test]
    fn degree_sums_match_edge_count((n, edges) in arb_edges(20, 60)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    /// in_neighbors/out_neighbors are mutually consistent.
    #[test]
    fn adjacency_consistency((n, edges) in arb_edges(16, 50)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        for (u, v) in g.edges() {
            prop_assert!(g.in_neighbors(v).contains(&u));
            prop_assert!(g.out_neighbors(u).contains(&v));
        }
    }

    /// Transpose swaps in- and out-adjacency exactly.
    #[test]
    fn transpose_swaps_adjacency((n, edges) in arb_edges(16, 50)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let t = g.transpose();
        for v in g.nodes() {
            prop_assert_eq!(g.in_neighbors(v), t.out_neighbors(v));
            prop_assert_eq!(g.out_neighbors(v), t.in_neighbors(v));
        }
    }

    /// Edge-list text round-trips the graph exactly.
    #[test]
    fn io_round_trip((n, edges) in arb_edges(16, 50)) {
        let mut b = GraphBuilder::with_capacity(edges.len())
            .allow_self_loops(true)
            .reserve_nodes(n);
        b.extend_edges(edges.iter().copied());
        let g = b.build().unwrap();
        let text = io::to_edge_list_string(&g);
        let mut g2 = io::graph_from_edge_list(&text).unwrap();
        // reserve_nodes information is not in the text; compare up to
        // trailing isolated nodes by re-reserving.
        if g2.node_count() < g.node_count() {
            let mut b = GraphBuilder::with_capacity(g2.edge_count())
                .allow_self_loops(true)
                .reserve_nodes(g.node_count());
            b.extend_edges(g2.edges());
            g2 = b.build().unwrap();
        }
        prop_assert_eq!(g, g2);
    }

    /// Symmetrised graphs are symmetric and preserve reachability.
    #[test]
    fn symmetrize_idempotent((n, edges) in arb_edges(12, 40)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let s = g.symmetrized();
        prop_assert!(s.is_symmetric());
        prop_assert_eq!(s.symmetrized(), s.clone());
    }

    /// WCC is coarser than SCC: same SCC ⇒ same WCC, and counts order.
    #[test]
    fn wcc_coarser_than_scc((n, edges) in arb_edges(14, 40)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let wcc = weakly_connected_components(&g);
        let scc = strongly_connected_components(&g);
        prop_assert!(wcc.count <= scc.count);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if scc.same(a, b) {
                    prop_assert!(wcc.same(a, b));
                }
            }
        }
    }

    /// SCC is correct against a reachability oracle: same SCC ⟺ mutually
    /// reachable.
    #[test]
    fn scc_matches_mutual_reachability((n, edges) in arb_edges(10, 26)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let scc = strongly_connected_components(&g);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a == b { continue; }
                let fwd = paths::has_directed_path(&g, a, b, n);
                let back = paths::has_directed_path(&g, b, a, n);
                prop_assert_eq!(scc.same(a, b), fwd && back, "({}, {})", a, b);
            }
        }
    }

    /// Symmetric in-link path probing is symmetric in its arguments.
    #[test]
    fn symmetric_probe_commutes((n, edges) in arb_edges(10, 26)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(
                    paths::has_symmetric_inlink_path(&g, a, b, 4),
                    paths::has_symmetric_inlink_path(&g, b, a, 4)
                );
            }
        }
    }

    /// Level sets: every node in level d actually has a path of length d.
    #[test]
    fn level_sets_sound((n, edges) in arb_edges(10, 26)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        for v in 0..n as u32 {
            let levels = paths::backward_level_sets(&g, v, 3);
            for (d, level) in levels.iter().enumerate().skip(1) {
                for &src in level {
                    // src reaches v in exactly d steps: verify by forward
                    // level sets from src.
                    let fwd = paths::forward_level_sets(&g, src, d);
                    prop_assert!(fwd[d].contains(&v), "src={src} v={v} d={d}");
                }
            }
        }
    }
}
