//! Block-parallel all-pairs SimRank\* engine.
//!
//! The paper's headline experiments are *all-pairs*: the full `n × n`
//! similarity matrix. This module gives that workload the same scale
//! treatment the single-source [`QueryEngine`] got:
//!
//! * **Block-parallel full sweep** — [`AllPairsEngine::full`] runs the
//!   geometric recurrence `Ŝ_{k+1} = (C/2)(Ŝ_k Qᵀ + (Ŝ_k Qᵀ)ᵀ) + (1−C)·I`
//!   with every `O(n²)` phase split into row blocks dispatched over scoped
//!   worker threads ([`ssr_linalg::dispatch_row_blocks`]): the kernel
//!   application `P = Ŝ·Qᵀ` runs through the 16-lane blocked kernels
//!   behind [`RightMultiplier`], and the transpose/scale/diagonal update is **fused**
//!   into one parallel pass (the seed path ran it as three serial sweeps
//!   plus a fresh `n×n` allocation per iteration; here two ping-pong
//!   buffers live for the whole run). The kernel is packed from the
//!   engine's graph inside each call, an `O(m)` step next to the
//!   `O(K·n·m)` sweep, so the engine holds no second copy of the
//!   adjacency for workloads that never ask for the full matrix.
//! * **Partial pairs** — [`AllPairsEngine::rows`] computes an arbitrary
//!   row subset without paying for `n²`: requested rows are dispatched in
//!   parallel in 16-row blocks, and each block runs the [`QueryEngine`]'s
//!   two-pass Horner sweep as [`QueryEngine::query_batch`] does (8-query
//!   chunks, the same lane widths, sparse frontiers, dense fallback) over
//!   pooled scratch. Blocks stay at 16 rows, so a call of 16 rows still
//!   runs on its caller's thread alone.
//! * **Streaming top-k** — [`AllPairsEngine::top_k`] ranks each chunk
//!   as its sweep folds, all lanes in one pass over the folded
//!   frontier (see [`QueryEngine::top_k_batch`]), so ranking workloads
//!   never materialize the full matrix or copy out a row: peak memory is
//!   one scratch set per worker plus the `n·k` result, not `n²`.
//!
//! [`crate::geometric::iterate`], [`crate::geometric::iterate_memo`] and
//! [`crate::geometric::Memoized::run`] are thin exact-compatible wrappers
//! over the full sweep; the pre-blocking textbook loop survives as
//! [`crate::geometric::iterate_serial`] — the benchmark baseline and the
//! property-test oracle. The engine itself always applies the plain kernel:
//! the paper's memoized kernel (Algorithm 1 over the edge-concentrated
//! graph) runs only through the two `Memoized` types,
//! [`crate::geometric::Memoized`] and [`crate::exponential::Memoized`].
//!
//! ```text
//! full(): one iteration, T worker threads, row blocks of `block_rows`
//!
//!         S (n×n)                 P = S·Qᵀ              S' = (C/2)(P+Pᵀ)+(1−C)I
//!   ┌──────────────┐  kernel   ┌──────────────┐  fused   ┌──────────────┐
//!   │ block 0      │ ───────▶  │ block 0      │ ───────▶ │ block 0      │
//!   │ block 1      │  16-lane  │ block 1      │  P+Pᵀ,   │ block 1      │
//!   │   ⋮          │  blocked  │   ⋮          │  scale,  │   ⋮          │
//!   │ block B−1    │  X·Qᵀ     │ block B−1    │  +diag   │ block B−1    │
//!   └──────────────┘           └──────────────┘          └──────────────┘
//!    blocks pulled from a shared queue by T scoped threads; one barrier
//!    between the two phases (Pᵀ reads cross block boundaries)
//! ```

use crate::kernel::{transpose_into, PlainRightMultiplier, RightMultiplier, BLOCK};
use crate::query_engine::{LaneSink, QueryEngineOptions, SeriesKind};
use crate::{QueryEngine, SimStarParams, SimilarityMatrix};
use ssr_graph::{DiGraph, NodeId};
use ssr_linalg::{available_threads, dispatch_row_blocks, Dense};

/// Tuning knobs of the [`AllPairsEngine`].
#[derive(Debug, Clone)]
pub struct AllPairsOptions {
    /// Series the engine evaluates. `Geometric` (the default) computes the
    /// Eq. (14) fixed-point iterate; `Exponential` evaluates the Eq. (18)
    /// partial sum (the lattice form, like
    /// [`crate::series::exponential_partial_sum`]).
    pub kind: SeriesKind,
    /// Worker threads for the block dispatch. `0` (the default) uses
    /// [`ssr_linalg::available_threads`]; an explicit count overrides it
    /// (the property tests pin results across arbitrary counts — blocking
    /// never changes scores, only wall-clock).
    pub threads: usize,
    /// Rows per dispatched block in [`AllPairsEngine::full`]. `0` (the
    /// default) picks ~4 blocks per worker rounded to a multiple of the
    /// lane width, which keeps the shared work queue self-balancing
    /// without drowning it in tiny blocks.
    pub block_rows: usize,
}

impl Default for AllPairsOptions {
    fn default() -> Self {
        AllPairsOptions { kind: SeriesKind::Geometric, threads: 0, block_rows: 0 }
    }
}

/// Block-parallel all-pairs SimRank\* engine. See the module docs.
///
/// ```
/// use simrank_star::{geometric, AllPairsEngine, SimStarParams};
/// use ssr_graph::DiGraph;
/// let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
/// let p = SimStarParams::default();
/// let engine = AllPairsEngine::new(&g, p);
/// let full = engine.full();
/// let reference = geometric::iterate_serial(&g, &p);
/// assert!(full.matrix().approx_eq(reference.matrix(), 1e-10));
/// // Partial pairs: only rows 1 and 3, never paying for n².
/// let rows = engine.rows(&[1, 3]);
/// assert!((rows.get(0, 2) - full.score(1, 2)).abs() < 1e-10);
/// ```
pub struct AllPairsEngine {
    qe: QueryEngine,
    opts: AllPairsOptions,
}

impl AllPairsEngine {
    /// Builds an engine with default options.
    pub fn new(g: &DiGraph, params: SimStarParams) -> Self {
        Self::with_options(g, params, AllPairsOptions::default())
    }

    /// Builds an engine: copies the graph's adjacency and precomputes the
    /// `1/|I(v)|` weights and the lattice coefficient table, shared by
    /// every subsequent sweep. The full sweep's kernel is packed from that
    /// copy inside each [`Self::full`] call, so [`Self::rows`] and
    /// [`Self::top_k`] never pay for it.
    pub fn with_options(g: &DiGraph, params: SimStarParams, opts: AllPairsOptions) -> Self {
        let qe_opts = QueryEngineOptions { kind: opts.kind, ..QueryEngineOptions::default() };
        let qe = QueryEngine::with_options(g, params, qe_opts);
        AllPairsEngine { qe, opts }
    }

    /// Builds an engine over a random-access backing (e.g. an on-disk
    /// `.ssg` store) without materialising the CSR. Subset [`Self::rows`]
    /// and [`Self::top_k`] work as usual; the Geometric [`Self::full`]
    /// sweep packs its kernel from an in-memory graph and panics here —
    /// load the graph fully for the full matrix.
    pub fn with_access(
        src: std::sync::Arc<dyn ssr_graph::NeighborAccess>,
        params: SimStarParams,
        opts: AllPairsOptions,
    ) -> Self {
        let qe_opts = QueryEngineOptions { kind: opts.kind, ..QueryEngineOptions::default() };
        let qe = QueryEngine::with_access(src, params, qe_opts);
        AllPairsEngine { qe, opts }
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.qe.node_count()
    }

    /// The parameters the engine was built with.
    pub fn params(&self) -> &SimStarParams {
        self.qe.params()
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &AllPairsOptions {
        &self.opts
    }

    /// Approximate resident bytes of the engine: its query engine's, see
    /// [`QueryEngine::resident_bytes`]. The full sweep's kernel lives only
    /// for the duration of a [`Self::full`] call.
    pub fn resident_bytes(&self) -> usize {
        self.qe.resident_bytes()
    }

    /// The full `n × n` similarity matrix.
    ///
    /// `Geometric` runs the block-parallel fixed-point recurrence (exactly
    /// the scores of [`crate::geometric::iterate`] — bit-compatible, the
    /// blocking only changes scheduling) over a plain kernel packed from
    /// the engine's graph for this call; it needs the in-memory backing and
    /// panics on an access one. `Exponential` evaluates the Eq. (18)
    /// partial sum row-block-parallel through the Horner sweep.
    pub fn full(&self) -> SimilarityMatrix {
        match self.opts.kind {
            SeriesKind::Geometric => {
                let g = self.qe.graph().expect(
                    "the all-pairs full sweep needs an in-memory graph backing; \
                     load the graph fully (or use rows()/top_k(), which stream)",
                );
                SimilarityMatrix::from_dense(sweep_full(
                    &PlainRightMultiplier::new(g),
                    self.qe.params(),
                    self.opts.threads,
                    self.opts.block_rows,
                ))
            }
            SeriesKind::Exponential => {
                let all: Vec<NodeId> = (0..self.node_count() as NodeId).collect();
                SimilarityMatrix::from_dense(self.rows(&all))
            }
        }
    }

    /// Partial pairs: row `i` of the result is `ŝ(subset[i], ·)` — computed
    /// through per-chunk Horner sweeps without ever touching the rows that
    /// were not asked for. Cost scales with `|subset|`, not `n²`.
    pub fn rows(&self, subset: &[NodeId]) -> Dense {
        let n = self.node_count();
        for &q in subset {
            assert!((q as usize) < n, "row node out of range");
        }
        let mut out = Dense::zeros(subset.len(), n);
        if subset.is_empty() || n == 0 {
            return out;
        }
        let threads = self.worker_count(subset.len());
        dispatch_row_blocks(out.as_mut_slice(), n, BLOCK, threads, |start_row, slab| {
            let chunk = &subset[start_row..start_row + slab.len() / n];
            let mut copy = |lane: usize, row: &[f64]| slab[lane * n..][..n].copy_from_slice(row);
            self.qe.sweep_lanes(chunk, None, None, LaneSink::Rows(&mut copy));
        });
        out
    }

    /// Streaming top-`k`: for every node of `subset`, its `k` best matches,
    /// exactly as [`QueryEngine::top_k`] ranks them (itself excluded, ties
    /// broken by ascending id, `k` clamped to `n − 1`). Each chunk's lanes
    /// are ranked in one pass as its sweep folds, so the full matrix is
    /// never materialized. Peak memory is one scratch set per worker plus
    /// the result, not `n²`.
    pub fn top_k(&self, subset: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f64)>> {
        let n = self.node_count();
        for &q in subset {
            assert!((q as usize) < n, "row node out of range");
        }
        let mut results: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); subset.len()];
        if subset.is_empty() || n == 0 {
            return results;
        }
        let threads = self.worker_count(subset.len());
        dispatch_row_blocks(&mut results, 1, BLOCK, threads, |start_row, res_chunk| {
            let chunk = &subset[start_row..start_row + res_chunk.len()];
            let mut keep = |lane: usize, list| res_chunk[lane] = list;
            self.qe.sweep_lanes(chunk, None, None, LaneSink::TopK(k, &mut keep));
        });
        results
    }

    /// [`Self::top_k`] over every node — the full ranking workload.
    pub fn top_k_all(&self, k: usize) -> Vec<Vec<(NodeId, f64)>> {
        let all: Vec<NodeId> = (0..self.node_count() as NodeId).collect();
        self.top_k(&all, k)
    }

    /// Worker threads for a Horner-mode dispatch over `rows` rows.
    fn worker_count(&self, rows: usize) -> usize {
        effective_threads(self.opts.threads).min(rows.div_ceil(BLOCK))
    }
}

fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Rows per block for the full sweep: explicit request, or ~4 blocks per
/// worker rounded up to the wide lane width (self-balancing without
/// drowning the queue in tiny blocks or ragged lane tails).
fn pick_block_rows(rows: usize, threads: usize, requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    rows.div_ceil(threads.max(1) * 4).div_ceil(LANES).max(1) * LANES
}

/// The block-parallel geometric fixed point over an arbitrary kernel:
/// `K` iterations of `Ŝ ← (C/2)(Ŝ Qᵀ + (Ŝ Qᵀ)ᵀ) + (1−C)·I` from
/// `Ŝ₀ = (1−C)·I`, with both the kernel application and the fused
/// transpose/scale/diagonal update dispatched as row blocks over scoped
/// threads. Scores are bit-identical to the serial step loop: every output
/// row depends only on whole input rows, so the block partition changes
/// scheduling, never arithmetic.
///
/// `threads = 0` uses [`ssr_linalg::available_threads`]; `block_rows = 0`
/// picks the default split. Backs [`crate::geometric::iterate_with_kernel`]
/// (and through it `iterate` / `iterate_memo` / `Memoized::run`).
pub(crate) fn sweep_full(
    kernel: &dyn RightMultiplier,
    params: &SimStarParams,
    threads: usize,
    block_rows: usize,
) -> Dense {
    params.validate();
    let n = kernel.node_count();
    let mut s = Dense::scaled_identity(n, 1.0 - params.c);
    if n == 0 || params.iterations == 0 {
        return s;
    }
    let threads = effective_threads(threads).min(n.div_ceil(BLOCK));
    let block = pick_block_rows(n, threads, block_rows);
    let mut p = Dense::zeros(n, n);
    let c2 = params.c / 2.0;
    let diag = 1.0 - params.c;
    // Pool of per-worker lane buffers (`(xb, yb)`, each `n × LANES` f64):
    // above the allocator's mmap threshold a fresh pair per block would
    // cost a map + fault + unmap cycle each, repeated K·blocks times.
    let lane_bufs: std::sync::Mutex<Vec<(Vec<f64>, Vec<f64>)>> = std::sync::Mutex::new(Vec::new());
    for _ in 0..params.iterations {
        // Phase 1: P = Ŝ·Qᵀ, row-block-parallel through the lane kernel.
        let s_ref = &s;
        let bufs = &lane_bufs;
        dispatch_row_blocks(p.as_mut_slice(), n, block, threads, |start_row, chunk| {
            let (mut xb, mut yb) = bufs
                .lock()
                .expect("lane buffer pool poisoned")
                .pop()
                .unwrap_or_else(|| (vec![0.0; n * LANES], vec![0.0; n * LANES]));
            apply_rows(kernel, s_ref, start_row, chunk, &mut xb, &mut yb);
            bufs.lock().expect("lane buffer pool poisoned").push((xb, yb));
        });
        // Phase 2 (the scope above is the barrier — Pᵀ reads cross blocks):
        // Ŝ[i][j] = (P[i][j] + P[j][i])·(C/2), plus (1−C) on the diagonal.
        let p_ref = &p;
        dispatch_row_blocks(s.as_mut_slice(), n, block, threads, |start_row, chunk| {
            fused_update_rows(p_ref, start_row, chunk, c2, diag);
        });
    }
    s
}

/// Lane width of the full sweep's kernel blocks. The transposed input
/// block (`n × lanes` f64) must stay L2-resident — the kernel reads it at
/// random per edge — which rules out wider blocks at realistic `n`
/// (measured: 64 lanes at `n = 8k` is a 2× slowdown, not a win).
const LANES: usize = BLOCK;

/// Computes rows `[start_row, start_row + chunk_rows)` of `X·Qᵀ` into
/// `chunk`, [`LANES`] lanes at a time (transpose in, kernel, transpose
/// out — the same lane layout as the query paths). `xb`/`yb` are pooled
/// `n × LANES` scratch buffers with arbitrary prior contents.
fn apply_rows(
    kernel: &dyn RightMultiplier,
    x: &Dense,
    start_row: usize,
    chunk: &mut [f64],
    xb: &mut [f64],
    yb: &mut [f64],
) {
    let n = x.cols();
    let rows = chunk.len() / n;
    let mut r = 0;
    while r < rows {
        let lanes = LANES.min(rows - r);
        transpose_into(x, start_row + r, lanes, xb);
        for v in yb[..n * lanes].iter_mut() {
            *v = 0.0;
        }
        kernel.apply_block(xb, yb, lanes);
        for i in 0..lanes {
            let row = &mut chunk[(r + i) * n..(r + i + 1) * n];
            for (xnode, o) in row.iter_mut().enumerate() {
                *o = yb[xnode * lanes + i];
            }
        }
        r += lanes;
    }
}

/// Edge length of the square tiles the fused update reads `Pᵀ` through
/// (64 × 64 f64 = 32 KiB, L1-resident).
const TILE: usize = 64;

/// The fused update for rows `[start_row, …)` of `Ŝ`:
/// `Ŝ[i][j] = (P[i][j] + P[j][i])·c2`, then `+ diag` on the diagonal —
/// one pass instead of the seed's separate transpose-add, scale, and
/// diagonal sweeps (each serial and `O(n²)`).
///
/// The `P[j][i]` accesses walk `P` column-wise — one cache line per
/// element at matrix sizes — so they are staged through an L1-resident
/// [`TILE`]`²` buffer first (a blocked transpose): every `P` element is
/// then read exactly once, sequentially. Same arithmetic per entry, so
/// scores are unchanged to the bit.
fn fused_update_rows(p: &Dense, start_row: usize, chunk: &mut [f64], c2: f64, diag: f64) {
    let n = p.cols();
    let rows = chunk.len() / n;
    let mut tile = vec![0.0f64; TILE * TILE];
    for i0 in (0..rows).step_by(TILE) {
        let ih = TILE.min(rows - i0);
        for j0 in (0..n).step_by(TILE) {
            let jh = TILE.min(n - j0);
            // Gather the Pᵀ tile: tile[i][j] = P[j0+j][start_row+i0+i].
            for j in 0..jh {
                let p_col = &p.row(j0 + j)[start_row + i0..start_row + i0 + ih];
                for (i, &v) in p_col.iter().enumerate() {
                    tile[i * TILE + j] = v;
                }
            }
            // Emit: Ŝ[i][j] = (P[i][j] + tile[i][j]) · c2, all sequential.
            for i in 0..ih {
                let p_row = &p.row(start_row + i0 + i)[j0..j0 + jh];
                let out = &mut chunk[(i0 + i) * n + j0..(i0 + i) * n + j0 + jh];
                let t_row = &tile[i * TILE..i * TILE + jh];
                for ((o, &pv), &tv) in out.iter_mut().zip(p_row).zip(t_row) {
                    *o = (pv + tv) * c2;
                }
            }
        }
    }
    for i in 0..rows {
        chunk[i * n + start_row + i] += diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{geometric, series};

    fn graphs() -> Vec<DiGraph> {
        vec![
            DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2), (0, 3)]).unwrap(),
            DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap(),
            DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 4)])
                .unwrap(),
            // K_{2,3} plus a tail: has an isolated node.
            DiGraph::from_edges(7, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (4, 5)])
                .unwrap(),
        ]
    }

    #[test]
    fn full_is_bit_identical_to_step_recurrence() {
        // `iterate_with_trace` still runs the original step()-based loop
        // (kernel apply + add_transpose + scale + diagonal), so this pins
        // the blocked/fused sweep bitwise against an independent
        // implementation — not against itself via the rewired `iterate`.
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let blocked = AllPairsEngine::new(&g, p).full();
            let (reference, _) = geometric::iterate_with_trace(&g, &p);
            assert!(blocked.matrix().approx_eq(reference.matrix(), 0.0));
        }
    }

    #[test]
    fn full_matches_serial_reference() {
        for g in graphs() {
            let p = SimStarParams { c: 0.6, iterations: 7 };
            let serial = geometric::iterate_serial(&g, &p);
            for threads in [1, 2, 5] {
                for block_rows in [0, 1, BLOCK, 3 * BLOCK] {
                    let opts = AllPairsOptions { threads, block_rows, ..Default::default() };
                    let full = AllPairsEngine::with_options(&g, p, opts).full();
                    assert!(
                        full.matrix().approx_eq(serial.matrix(), 1e-10),
                        "threads={threads}, block_rows={block_rows}, diff={}",
                        full.matrix().max_diff(serial.matrix())
                    );
                }
            }
        }
    }

    #[test]
    fn rows_match_full_matrix() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let engine = AllPairsEngine::new(&g, p);
            let full = engine.full();
            let n = g.node_count() as NodeId;
            let subset: Vec<NodeId> = (0..n).rev().collect();
            let rows = engine.rows(&subset);
            for (i, &q) in subset.iter().enumerate() {
                for v in 0..n {
                    assert!(
                        (rows.get(i, v as usize) - full.score(q, v)).abs() < 1e-10,
                        "q={q}, v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn subset_with_duplicates_and_single_row() {
        let g = &graphs()[0];
        let p = SimStarParams::default();
        let engine = AllPairsEngine::new(g, p);
        let full = engine.full();
        let rows = engine.rows(&[2, 2, 0]);
        assert_eq!(rows.rows(), 3);
        for v in 0..g.node_count() {
            assert!((rows.get(0, v) - rows.get(1, v)).abs() == 0.0);
            assert!((rows.get(2, v) - full.score(0, v as NodeId)).abs() < 1e-10);
        }
    }

    #[test]
    fn top_k_agrees_with_materialized_matrix() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = AllPairsOptions { threads: 2, ..Default::default() };
            let engine = AllPairsEngine::with_options(&g, p, opts);
            let full = engine.full();
            let k = 3;
            for (q, ranked) in engine.top_k_all(k).into_iter().enumerate() {
                let want = full.top_k(q as NodeId, k);
                assert_eq!(ranked.len(), want.len(), "q={q}");
                for (rank, ((_, s_got), (_, s_want))) in ranked.iter().zip(&want).enumerate() {
                    assert!((s_got - s_want).abs() < 1e-10, "q={q}, rank={rank}");
                }
            }
        }
    }

    #[test]
    fn exponential_rows_match_series_partial_sum() {
        for g in graphs() {
            let p = SimStarParams { c: 0.6, iterations: 6 };
            let opts = AllPairsOptions { kind: SeriesKind::Exponential, ..Default::default() };
            let engine = AllPairsEngine::with_options(&g, p, opts);
            let full = engine.full();
            let brute = series::exponential_partial_sum(&g, &p);
            assert!(
                full.matrix().approx_eq(&brute, 1e-10),
                "diff={}",
                full.matrix().max_diff(&brute)
            );
        }
    }

    #[test]
    fn empty_graph_and_empty_subset() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        let engine = AllPairsEngine::new(&g, SimStarParams::default());
        assert_eq!(engine.full().node_count(), 0);
        assert_eq!(engine.top_k_all(5).len(), 0);
        let g = &graphs()[0];
        let engine = AllPairsEngine::new(g, SimStarParams::default());
        assert_eq!(engine.rows(&[]).rows(), 0);
        assert!(engine.top_k(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rows_bounds_checked() {
        let g = &graphs()[0];
        AllPairsEngine::new(g, SimStarParams::default()).rows(&[99]);
    }

    #[test]
    fn zero_iterations_is_scaled_identity() {
        let g = &graphs()[1];
        let p = SimStarParams { c: 0.6, iterations: 0 };
        let full = AllPairsEngine::new(g, p).full();
        assert!(full.matrix().approx_eq(&Dense::scaled_identity(5, 0.4), 0.0));
    }

    #[test]
    fn access_backed_rows_and_top_k_match_memory() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let mem = AllPairsEngine::new(&g, p);
            let acc = AllPairsEngine::with_access(
                std::sync::Arc::new(g.clone()),
                p,
                AllPairsOptions::default(),
            );
            let subset: Vec<NodeId> = (0..g.node_count() as NodeId).step_by(2).collect();
            let (rm, ra) = (mem.rows(&subset), acc.rows(&subset));
            for i in 0..rm.rows() {
                for j in 0..rm.cols() {
                    assert!((rm.get(i, j) - ra.get(i, j)).abs() < 1e-10, "({i}, {j})");
                }
            }
            assert_eq!(mem.top_k(&subset, 3).len(), acc.top_k(&subset, 3).len());
            assert!(acc.resident_bytes() > 0);
        }
    }

    #[test]
    fn resident_bytes_are_the_query_engines() {
        for g in graphs() {
            let p = SimStarParams::default();
            let engine = AllPairsEngine::new(&g, p);
            assert_eq!(engine.resident_bytes(), QueryEngine::new(&g, p).resident_bytes());
        }
    }

    #[test]
    fn access_backed_exponential_full_works() {
        let g = &graphs()[0];
        let p = SimStarParams { c: 0.6, iterations: 5 };
        let opts = AllPairsOptions { kind: SeriesKind::Exponential, ..Default::default() };
        let mem = AllPairsEngine::with_options(g, p, opts.clone()).full();
        let acc = AllPairsEngine::with_access(std::sync::Arc::new(g.clone()), p, opts).full();
        assert!(mem.matrix().approx_eq(acc.matrix(), 1e-10));
    }

    #[test]
    #[should_panic(expected = "in-memory graph backing")]
    fn access_backed_geometric_full_panics() {
        let g = &graphs()[0];
        let acc = AllPairsEngine::with_access(
            std::sync::Arc::new(g.clone()),
            SimStarParams::default(),
            AllPairsOptions::default(),
        );
        let _ = acc.full();
    }
}
