//! Deterministic answers pinned across commits. The property tests check
//! that the engine's bits agree across lane widths, batches, backings
//! and codecs within one commit; these committed FNV-1a digests of
//! the query engine's answers on a seeded citation graph catch a change
//! to the bits themselves. A change that alters them on
//! purpose must say why and commit the new values, which the failure
//! messages print.

use simrank_star::{fnv1a, Fnv1a, QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_eval::queries::select_queries;
use ssr_gen::citation::{citation_graph, CitationParams};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use std::sync::Arc;

/// Top-10 `(node, score bits)` of the 256 stratified queries, in query
/// order.
const TOP_K_DIGEST: u64 = 0xa75d_d087_dfca_177f;
/// Full-row score bits of every 16th stratified query.
const ROW_DIGEST: u64 = 0x41d3_5c91_b5ed_a202;

/// About 2,000 nodes at 12 edges per node, so the frontiers of a `K = 5`
/// sweep grow past both density cutoffs mid-sweep.
fn graph() -> DiGraph {
    let params = CitationParams { nodes: 2000, avg_out_degree: 12.0, ..Default::default() };
    citation_graph(params, 41)
}

fn queries(g: &DiGraph) -> Vec<NodeId> {
    let q = select_queries(g, 4, 64, 7);
    assert_eq!(q.len(), 256, "four in-degree strata of 64 queries");
    q
}

/// The default engine on the in-memory and the access backing.
fn engines(g: &DiGraph) -> [(&'static str, QueryEngine); 2] {
    let p = SimStarParams { c: 0.6, iterations: 5 };
    let opts = QueryEngineOptions::default();
    let src: Arc<dyn NeighborAccess> = Arc::new(g.clone());
    [
        ("memory", QueryEngine::with_options(g, p, opts.clone())),
        ("access", QueryEngine::with_access(src, p, opts)),
    ]
}

fn digest_top_k(lists: &[Vec<(NodeId, f64)>]) -> u64 {
    let mut h = fnv1a(Fnv1a::BASIS);
    for list in lists {
        h = h.push(list.len() as u64);
        for &(v, s) in list {
            h = h.push(v as u64).push(s.to_bits());
        }
    }
    h.0
}

fn digest_rows<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> u64 {
    let mut h = fnv1a(Fnv1a::BASIS);
    for row in rows {
        h = h.push(row.len() as u64);
        for s in row {
            h = h.push(s.to_bits());
        }
    }
    h.0
}

#[test]
fn deterministic_top_k_digest_is_pinned() {
    let g = graph();
    let queries = queries(&g);
    for (backing, engine) in engines(&g) {
        // One query per call sweeps one lane at a time; 16 per call fills
        // two 8-lane sweeps per call.
        for per_call in [1, 16] {
            let lists: Vec<_> =
                queries.chunks(per_call).flat_map(|c| engine.top_k_batch(c, 10)).collect();
            let got = digest_top_k(&lists);
            assert_eq!(got, TOP_K_DIGEST, "{backing}, {per_call} per call: got {got:#018x}");
        }
    }
}

#[test]
fn deterministic_row_digest_is_pinned() {
    let g = graph();
    let sample: Vec<NodeId> = queries(&g).into_iter().step_by(16).collect();
    assert_eq!(sample.len(), 16);
    for (backing, engine) in engines(&g) {
        let solo: Vec<Vec<f64>> = sample.iter().map(|&q| engine.query(q)).collect();
        let got = digest_rows(solo.iter().map(Vec::as_slice));
        assert_eq!(got, ROW_DIGEST, "{backing}, one lane: got {got:#018x}");
        let batch = engine.query_batch(&sample);
        let got = digest_rows((0..sample.len()).map(|i| batch.row(i)));
        assert_eq!(got, ROW_DIGEST, "{backing}, 8 lanes: got {got:#018x}");
    }
}
