//! The per-iteration kernel shared by every SimRank\* algorithm:
//! right-multiplication by `Qᵀ`,
//!
//! ```text
//! Y = X · Qᵀ,   Y[a, x] = (1/|I(x)|) · Σ_{y ∈ I(x)} X[a, y]
//! ```
//!
//! Theorem 2 needs exactly one such product per iteration (`Q Ŝ` is then
//! obtained as its transpose because `Ŝ` is symmetric), and Eq. (19)'s
//! `R_{k+1} = Q R_k` is the same kernel on transposed state.
//!
//! Two implementations share the [`RightMultiplier`] trait:
//!
//! * [`PlainRightMultiplier`] walks raw in-neighbor lists — `O(n(m+n))` per
//!   application (*iter-gSR\**);
//! * [`CompressedRightMultiplier`] walks the edge-concentrated graph,
//!   memoizing one partial sum per concentrator per lane — `O(n(m̃+n))`
//!   (*memo-gSR\** / *memo-eSR\**, the fine-grained memoization of
//!   Algorithm 1: `Partial^{s_k}_{π(v)}(a)` is computed once and reused by
//!   every node `x` whose in-set routes through concentrator `v`).
//!
//! ## Blocked execution
//!
//! Both kernels are *index-bound*: per output entry they read one adjacency
//! index and do one add. Processing input rows one at a time would re-read
//! the whole index structure `n` times. Instead rows are processed in blocks
//! of [`BLOCK`] *lanes*: the block is transposed into an `n × B` buffer so
//! each adjacency index is read once per block and the inner loop becomes a
//! contiguous `B`-wide vector add — the standard blocked-SpMM layout. Blocks
//! are independent and are distributed over std scoped threads.

use ssr_compress::{compress, CompressOptions, CompressedGraph};
use ssr_graph::DiGraph;
use ssr_linalg::{available_threads, Dense};

/// Lanes per block. 16 f64 = two cache lines per accumulator row; large
/// enough to amortise index reads, small enough to keep the transposed
/// block in L2.
pub const BLOCK: usize = 16;

/// Abstraction over the two `X · Qᵀ` kernels.
pub trait RightMultiplier: Sync {
    /// Number of nodes `n` (the kernel maps `r×n` to `r×n`).
    fn node_count(&self) -> usize;

    /// Processes one transposed block: `xb` is `n × lanes` (lane-contiguous
    /// per node), `yb` receives the same layout.
    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize);

    /// Additions+assignments per row — `m + n` plain, `m̃ + n` compressed
    /// (the cost model of §4.3).
    fn work_per_row(&self) -> usize;

    /// Computes `Y = X · Qᵀ`.
    fn apply(&self, x: &Dense) -> Dense {
        let mut out = Dense::zeros(x.rows(), self.node_count());
        self.apply_into(x, &mut out);
        out
    }

    /// Computes `Y = X · Qᵀ` into a caller-owned buffer. Every entry of
    /// `out` is overwritten (the buffer may hold stale data), so the query
    /// engine can ping-pong two batch buffers with no allocation on the hot
    /// path.
    fn apply_into(&self, x: &Dense, out: &mut Dense) {
        assert_eq!(x.cols(), self.node_count(), "dimension mismatch");
        assert_eq!((out.rows(), out.cols()), (x.rows(), self.node_count()), "output shape");
        let rows = x.rows();
        let n = self.node_count();
        let threads = available_threads();
        let n_blocks = rows.div_ceil(BLOCK).max(1);
        if rows == 0 || n == 0 {
            return;
        }
        if threads == 1 || n_blocks == 1 || rows * self.work_per_row() < 1 << 20 {
            let mut xb = vec![0.0; n * BLOCK];
            let mut yb = vec![0.0; n * BLOCK];
            let mut r0 = 0;
            while r0 < rows {
                let lanes = BLOCK.min(rows - r0);
                self.run_block(x, out, r0, lanes, &mut xb, &mut yb);
                r0 += lanes;
            }
            return;
        }
        // Parallel: hand each worker a contiguous range of blocks.
        let blocks_per = n_blocks.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, chunk) in out.as_mut_slice().chunks_mut(blocks_per * BLOCK * n).enumerate() {
                let start_row = t * blocks_per * BLOCK;
                scope.spawn(move || {
                    let mut xb = vec![0.0; n * BLOCK];
                    let mut yb = vec![0.0; n * BLOCK];
                    let chunk_rows = chunk.len() / n;
                    let mut local = ChunkOut { data: chunk, n };
                    let mut r = 0;
                    while r < chunk_rows {
                        let lanes = BLOCK.min(chunk_rows - r);
                        transpose_into(x, start_row + r, lanes, &mut xb);
                        for v in yb[..n * lanes].iter_mut() {
                            *v = 0.0;
                        }
                        self.apply_block(&xb, &mut yb, lanes);
                        local.write_back(&yb, r, lanes);
                        r += lanes;
                    }
                });
            }
        });
    }
}

struct ChunkOut<'a> {
    data: &'a mut [f64],
    n: usize,
}

impl ChunkOut<'_> {
    /// Writes the `n × lanes` transposed block back as rows `r..r+lanes` of
    /// the chunk.
    fn write_back(&mut self, yb: &[f64], r: usize, lanes: usize) {
        for i in 0..lanes {
            let row = &mut self.data[(r + i) * self.n..(r + i + 1) * self.n];
            for (xnode, out) in row.iter_mut().enumerate() {
                *out = yb[xnode * lanes + i];
            }
        }
    }
}

/// Helper available to implementors: run one block serially.
trait BlockRunner: RightMultiplier {
    fn run_block(
        &self,
        x: &Dense,
        out: &mut Dense,
        r0: usize,
        lanes: usize,
        xb: &mut [f64],
        yb: &mut [f64],
    ) {
        let n = self.node_count();
        transpose_into(x, r0, lanes, xb);
        for v in yb[..n * lanes].iter_mut() {
            *v = 0.0;
        }
        self.apply_block(xb, yb, lanes);
        for i in 0..lanes {
            let row = out.row_mut(r0 + i);
            for (xnode, o) in row.iter_mut().enumerate() {
                *o = yb[xnode * lanes + i];
            }
        }
    }
}

impl<T: RightMultiplier + ?Sized> BlockRunner for T {}

/// `xb[y·lanes + i] = x[r0+i][y]` — gathers `lanes` rows lane-contiguously.
/// Shared with the all-pairs engine's own block dispatch.
pub(crate) fn transpose_into(x: &Dense, r0: usize, lanes: usize, xb: &mut [f64]) {
    for i in 0..lanes {
        let row = x.row(r0 + i);
        for (y, &v) in row.iter().enumerate() {
            xb[y * lanes + i] = v;
        }
    }
}

/// Adds `src` into `dst`, `lanes`-wide.
#[inline]
fn lane_add(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Scales `dst` by `f`, `lanes`-wide.
#[inline]
fn lane_scale(dst: &mut [f64], f: f64) {
    for d in dst.iter_mut() {
        *d *= f;
    }
}

/// Uncompressed kernel over raw in-neighbor lists (CSR-packed).
pub struct PlainRightMultiplier {
    n: usize,
    offsets: Vec<usize>,
    sources: Vec<u32>,
    inv_deg: Vec<f64>,
}

impl PlainRightMultiplier {
    /// Builds from a graph (packs the in-adjacency).
    pub fn new(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut sources = Vec::with_capacity(g.edge_count());
        let mut inv_deg = Vec::with_capacity(n);
        offsets.push(0);
        for v in g.nodes() {
            let nb = g.in_neighbors(v);
            sources.extend_from_slice(nb);
            offsets.push(sources.len());
            inv_deg.push(if nb.is_empty() { 0.0 } else { 1.0 / nb.len() as f64 });
        }
        PlainRightMultiplier { n, offsets, sources, inv_deg }
    }
}

impl PlainRightMultiplier {
    /// Fixed-width fast path: accumulate in an `L`-lane register block so
    /// the per-edge inner loop compiles to wide vector adds with no bounds
    /// checks and no per-edge stores to `yb` — the hot kernel of the
    /// all-pairs sweep.
    fn apply_block_fixed<const L: usize>(&self, xb: &[f64], yb: &mut [f64]) {
        // `yb` may be an over-sized scratch buffer; only the first `n·L`
        // entries are this block's output.
        for (xnode, dst) in yb[..self.n * L].chunks_exact_mut(L).enumerate() {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue; // yb already zeroed
            }
            let mut acc = [0.0f64; L];
            for &y in &self.sources[self.offsets[xnode]..self.offsets[xnode + 1]] {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            for (d, a) in dst.iter_mut().zip(acc) {
                *d = a * inv;
            }
        }
    }
}

impl RightMultiplier for PlainRightMultiplier {
    fn node_count(&self) -> usize {
        self.n
    }

    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize) {
        if lanes == BLOCK {
            return self.apply_block_fixed::<BLOCK>(xb, yb);
        }
        for xnode in 0..self.n {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue; // yb already zeroed
            }
            let acc = &mut yb[xnode * lanes..(xnode + 1) * lanes];
            for &y in &self.sources[self.offsets[xnode]..self.offsets[xnode + 1]] {
                lane_add(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
            }
            lane_scale(acc, inv);
        }
    }

    fn work_per_row(&self) -> usize {
        self.sources.len() + self.n
    }
}

/// Memoized kernel over an edge-concentrated graph (Algorithm 1's
/// fine-grained partial sums, lanes-wide).
pub struct CompressedRightMultiplier {
    cg: CompressedGraph,
    inv_deg: Vec<f64>,
    /// Pool of per-block concentrator buffers (`|V̂| × BLOCK` f64 each).
    /// At realistic concentrator counts the buffer crosses the allocator's
    /// mmap threshold, and a fresh map + fault + unmap per block call costs
    /// more than the memoization saves — pooling keeps one warm buffer per
    /// concurrent caller.
    conc_pool: std::sync::Mutex<Vec<Vec<f64>>>,
}

impl CompressedRightMultiplier {
    /// Compresses `g` with `opts` and builds the kernel. Compression is the
    /// preprocessing phase the paper times separately in Figure 6(f); use
    /// [`CompressedRightMultiplier::from_compressed`] to split the phases.
    pub fn new(g: &DiGraph, opts: &CompressOptions) -> Self {
        Self::from_compressed(compress(g, opts))
    }

    /// Builds the kernel from an already-compressed graph.
    pub fn from_compressed(cg: CompressedGraph) -> Self {
        let n = cg.node_count();
        let mut inv_deg = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let d = cg.in_degree(v);
            inv_deg.push(if d == 0 { 0.0 } else { 1.0 / d as f64 });
        }
        CompressedRightMultiplier { cg, inv_deg, conc_pool: std::sync::Mutex::new(Vec::new()) }
    }

    /// The underlying compressed graph.
    pub fn compressed(&self) -> &CompressedGraph {
        &self.cg
    }

    /// Compression ratio achieved (paper footnote 15).
    pub fn compression_ratio(&self) -> f64 {
        self.cg.compression_ratio()
    }
}

impl CompressedRightMultiplier {
    /// Fixed-width fast path (see
    /// [`PlainRightMultiplier::apply_block_fixed`]): both the concentrator
    /// memoization and the assembly accumulate in `L`-lane register blocks.
    fn apply_block_fixed<const L: usize>(&self, xb: &[f64], yb: &mut [f64]) {
        let nc = self.cg.concentrator_count();
        // Pooled buffer; no zeroing needed — every slot is overwritten by
        // the memoization pass below (`copy_from_slice`, unconditionally).
        let mut conc = self.conc_pool.lock().expect("conc pool poisoned").pop().unwrap_or_default();
        conc.resize(nc * L, 0.0);
        for (v, dst) in conc.chunks_exact_mut(L).enumerate() {
            let mut acc = [0.0f64; L];
            for &y in self.cg.fanin(v as u32) {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            dst.copy_from_slice(&acc);
        }
        // `yb` may be an over-sized scratch buffer; only the first `n·L`
        // entries are this block's output.
        for (xnode, dst) in yb[..self.cg.node_count() * L].chunks_exact_mut(L).enumerate() {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue;
            }
            let mut acc = [0.0f64; L];
            for &y in self.cg.direct_in(xnode as u32) {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            for &c in self.cg.via(xnode as u32) {
                let src: &[f64; L] = conc[c as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            for (d, a) in dst.iter_mut().zip(acc) {
                *d = a * inv;
            }
        }
        self.conc_pool.lock().expect("conc pool poisoned").push(conc);
    }
}

impl RightMultiplier for CompressedRightMultiplier {
    fn node_count(&self) -> usize {
        self.cg.node_count()
    }

    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize) {
        if lanes == BLOCK {
            return self.apply_block_fixed::<BLOCK>(xb, yb);
        }
        // Algorithm 1 lines 5–7, lanes-wide: memoize Partial_{π(v)} for all
        // concentrators.
        let nc = self.cg.concentrator_count();
        let mut conc = vec![0.0; nc * lanes];
        for v in 0..nc {
            let acc = &mut conc[v * lanes..(v + 1) * lanes];
            for &y in self.cg.fanin(v as u32) {
                lane_add(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
            }
        }
        // Lines 8–10: assemble Partial_{I(x)} from direct + memoized parts.
        for xnode in 0..self.cg.node_count() {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue;
            }
            let acc = &mut yb[xnode * lanes..(xnode + 1) * lanes];
            for &y in self.cg.direct_in(xnode as u32) {
                lane_add(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
            }
            for &c in self.cg.via(xnode as u32) {
                lane_add(acc, &conc[c as usize * lanes..(c as usize + 1) * lanes]);
            }
            lane_scale(acc, inv);
        }
    }

    fn work_per_row(&self) -> usize {
        self.cg.compressed_edge_count() + self.cg.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_linalg::Csr;

    fn fig1_like() -> DiGraph {
        DiGraph::from_edges(
            11,
            &[
                (0, 1),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 5),
                (1, 6),
                (1, 8),
                (3, 2),
                (3, 6),
                (3, 8),
                (4, 7),
                (4, 8),
                (5, 3),
                (7, 8),
                (9, 7),
                (9, 8),
                (10, 7),
                (10, 8),
            ],
        )
        .unwrap()
    }

    fn random_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut d = Dense::zeros(rows, cols);
        let mut s = seed;
        for i in 0..rows {
            for j in 0..cols {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                d.set(i, j, ((s >> 33) as f64) / (u32::MAX as f64));
            }
        }
        d
    }

    #[test]
    fn plain_kernel_matches_csr() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 1);
        let kernel = PlainRightMultiplier::new(&g);
        let y = kernel.apply(&x);
        // Reference: X · Qᵀ via explicit sparse transpose.
        let q = Csr::backward_transition(&g);
        let reference = q.mul_dense(&x.transpose()).transpose();
        assert!(y.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn compressed_kernel_matches_plain() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 2);
        let plain = PlainRightMultiplier::new(&g);
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        assert!(memo.apply(&x).approx_eq(&plain.apply(&x), 1e-12));
    }

    #[test]
    fn compressed_work_is_smaller_on_fig1() {
        let g = fig1_like();
        let plain = PlainRightMultiplier::new(&g);
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        assert!(memo.work_per_row() < plain.work_per_row());
        // Paper: m̃ = m - 2 on the Figure 4 example.
        assert_eq!(memo.work_per_row(), plain.work_per_row() - 2);
    }

    #[test]
    fn empty_in_set_rows_are_zero() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 3);
        let kernel = PlainRightMultiplier::new(&g);
        let y = kernel.apply(&x);
        // Node 0 (= a), 9 (= j), 10 (= k) have no in-neighbors.
        for a in 0..n {
            for &src in &[0usize, 9, 10] {
                assert_eq!(y.get(a, src), 0.0);
            }
        }
    }

    #[test]
    fn non_square_and_non_block_multiple_inputs() {
        // Eq. (19) applies the kernel to rectangular blocks; row counts that
        // are not multiples of BLOCK must work too.
        let g = fig1_like();
        let plain = PlainRightMultiplier::new(&g);
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        for rows in [1usize, 3, BLOCK, BLOCK + 1, 2 * BLOCK + 5] {
            let x = random_dense(rows, g.node_count(), 4 + rows as u64);
            assert!(memo.apply(&x).approx_eq(&plain.apply(&x), 1e-12), "rows = {rows}");
        }
    }

    #[test]
    fn apply_into_overwrites_dirty_buffers() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 6);
        let kernel = PlainRightMultiplier::new(&g);
        let clean = kernel.apply(&x);
        let mut dirty = random_dense(n, n, 7);
        kernel.apply_into(&x, &mut dirty);
        assert!(dirty.approx_eq(&clean, 0.0));
    }

    #[test]
    fn larger_graph_parallel_path_consistent() {
        // Enough rows*work to trip the parallel path; result must equal the
        // CSR reference exactly.
        let mut edges = Vec::new();
        let mut s = 7u64;
        for _ in 0..3000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((s >> 33) % 300) as u32;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((s >> 33) % 300) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        let g = DiGraph::from_edges(300, &edges).unwrap();
        let x = random_dense(300, 300, 11);
        let plain = PlainRightMultiplier::new(&g);
        let q = Csr::backward_transition(&g);
        let reference = q.mul_dense(&x.transpose()).transpose();
        assert!(plain.apply(&x).approx_eq(&reference, 1e-10));
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        assert!(memo.apply(&x).approx_eq(&reference, 1e-10));
    }
}
