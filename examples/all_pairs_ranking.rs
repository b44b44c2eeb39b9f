//! All-pairs ranking through the block-parallel `AllPairsEngine`:
//! full-matrix sweep, partial-pairs rows, and streaming top-k — plus the
//! paper's memoized (edge-concentrated) full sweep — on a synthetic
//! citation graph.
//!
//! Run with: `cargo run --release --example all_pairs_ranking`

use simrank_star::{geometric, AllPairsEngine, SimStarParams};
use ssr_compress::CompressOptions;
use ssr_gen::citation::{citation_graph, CitationParams};

fn main() {
    let g =
        citation_graph(CitationParams { nodes: 400, avg_out_degree: 6.0, ..Default::default() }, 7);
    let params = SimStarParams { c: 0.6, iterations: 8 };

    // Full matrix, blocked over the plain kernel.
    let engine = AllPairsEngine::new(&g, params);
    let full = engine.full();
    println!("full sweep: n = {}, s(0, 1) = {:.6}", full.node_count(), full.score(0, 1));

    // The same scores through the paper's memoized kernel (memo-gSR*,
    // Algorithm 1), with the compression report of its preprocessing phase.
    let memoized = geometric::Memoized::new(&g, &CompressOptions::default());
    let memo = memoized.run(&params);
    let stats = memoized.kernel().compressed().size_report();
    let diff = full.max_diff(&memo);
    assert!(diff < 1e-10, "memoized sweep drifted from the plain one: {diff:.2e}");
    println!(
        "memoized sweep: max diff = {:.2e}, compression {:.1}% (m {} -> m~ {}, {} concentrators, {} bytes)",
        diff,
        100.0 * stats.ratio,
        stats.original_edges,
        stats.compressed_edges,
        stats.concentrators,
        stats.estimated_bytes,
    );

    // Partial pairs: three rows, never paying for n².
    let rows = engine.rows(&[5, 17, 42]);
    println!("partial pairs: rows(5, 17, 42) -> {}x{} block", rows.rows(), rows.cols());

    // Streaming top-k for every node (the ranking workload) — the full
    // matrix is never materialized.
    let ranked = engine.top_k_all(3);
    let (node, best) = ranked
        .iter()
        .enumerate()
        .filter_map(|(q, matches)| matches.first().map(|&(v, s)| ((q, v), s)))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
        .expect("non-empty graph");
    println!("strongest pair: s({}, {}) = {:.6}", node.0, node.1, best);

    // Everything agrees with the textbook serial reference.
    let reference = geometric::iterate_serial(&g, &params);
    assert!(full.matrix().approx_eq(reference.matrix(), 1e-10));
    println!("matches iterate_serial within 1e-10");
}
