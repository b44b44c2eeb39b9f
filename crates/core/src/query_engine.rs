//! Amortized single-source query engine — the serving path of the repo.
//!
//! The paper's evaluation is query-driven (500 single-node queries per
//! graph), but [`crate::single_source`]'s original sweep rebuilt the CSR
//! transition `Q` on every call, swept the full `(θ, λ)` lattice with
//! dense `n`-vectors, and allocated fresh buffers per step.
//! [`QueryEngine`] amortizes and restructures all of that:
//!
//! * **Precomputed state** — the engine keeps the graph's own sorted
//!   adjacency (or reads it on demand through a [`NeighborAccess`]
//!   backing) plus `inv_in[v] = 1/|I(v)|`, built once per graph and shared
//!   by every query. `Q`'s row `x` is `I(x)` at weight `inv_in[x]` and
//!   `Qᵀ`'s row `i` is `O(i)` at weight `inv_in[j]` per entry `j`, so
//!   neither is materialised as a matrix. The edge-concentrated kernel
//!   from `ssr-compress` is built only on request.
//! * **Two-pass Horner sweep** — the lattice
//!   `Σ_θ Σ_λ c[θ][λ]·u_θ(Qᵀ)^λ` is re-associated as `Σ_λ V_λ(Qᵀ)^λ`
//!   with `V_λ = Σ_θ c[θ][λ]·u_θ`: a forward pass advances
//!   `u_θ = e_qᵀQ^θ` and accumulates the `V_λ`, a Horner pass folds
//!   `r ← r·Qᵀ + V_λ`. At most `2K` advances per query instead of the
//!   lattice's `O(K²)`.
//! * **Sparse frontiers** — every advance propagates only the active
//!   support (push-style over adjacency rows) with an epsilon threshold,
//!   falling back to a dense scatter or gather step once the frontier
//!   saturates past a density cutoff. Scratch lives in per-width pools;
//!   the hot path allocates nothing after warmup.
//! * **One sweep, two lane widths** — the sweep is generic over a lane
//!   width `W`: every frontier stores `W` queries lane-major over their
//!   union support, so each adjacency index is read once per `W` queries.
//!   It runs at `W = 1` (a solo query) and `W = 16` (a full chunk).
//!   Batches are cut into 16-query chunks grouped by weakly-connected
//!   component so lanes overlap; a chunk of more than `SOLO_CROSSOVER` (4)
//!   queries runs as one 16-lane sweep, a smaller one as one-lane sweeps,
//!   so a lone query never pays for fifteen idle lanes.
//! * **Top-k** — [`QueryEngine::top_k`] selects the `k` best matches by
//!   partial selection (`select_nth_unstable`) instead of sorting the full
//!   row, reading each lane's row straight from the folded sweep.
//!
//! Every path returns the same scores as the dense reference sweep
//! ([`crate::single_source::single_source_dense`]) within `1e-10` — the
//! Horner form is a pure re-association of the same non-negative terms —
//! which the property tests pin against `geometric::iterate` rows
//! (Lemma 4). In deterministic mode every lane's bits are independent of
//! the lane width, of the other lanes and of the backing: every product is
//! `inv_in · x` on the same `f64`s, added in ascending source order,
//! whether the step is a sorted sparse push or, on the in-memory backing,
//! a dense scatter or gather.

use crate::kernel::{CompressedRightMultiplier, RightMultiplier, BLOCK};
use crate::series::{exponential_weights, geometric_weights, lattice_coeffs};
use crate::SimStarParams;
use ssr_compress::CompressOptions;
use ssr_graph::components::{weakly_connected_components, weakly_connected_components_from_edges};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use ssr_linalg::Dense;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chunks of at most this many queries run as that many one-lane sweeps;
/// larger chunks run as one [`BLOCK`]-lane sweep, which touches all its
/// lanes however few are occupied. Measured on the `lane_width` axis of
/// `BENCH_query_engine.json` (`K = 8`, CPU ms per query, three graphs in
/// two modes): at 4 queries per call one lane wins all six cases, by
/// 1.53–2.31×. At 8 the 16-lane sweep wins CitHepTh in both modes (2.26
/// against 2.72 ms, 2.20 against 2.75 ms deterministic) and loses the
/// other four by 1.18–1.58×.
const SOLO_CROSSOVER: usize = 4;

/// Which SimRank\* series the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeriesKind {
    /// Geometric length weight `(1−C)·C^l/2^l` (Eq. 9).
    #[default]
    Geometric,
    /// Exponential length weight `e^{−C}·C^l/(l!·2^l)` (Eq. 18).
    Exponential,
}

/// Tuning knobs of the [`QueryEngine`].
#[derive(Debug, Clone)]
pub struct QueryEngineOptions {
    /// Series the engine evaluates (geometric by default).
    pub kind: SeriesKind,
    /// Frontier entries below this magnitude are dropped during sparse
    /// propagation, and lattice cells whose remaining coefficient mass is
    /// below it are skipped. Since every propagated value is non-negative
    /// and bounded by 1, the per-entry output error is bounded by a small
    /// multiple of this threshold — the default `1e-13` keeps results well
    /// within the `1e-10` exactness the tests pin. `0.0` disables pruning.
    pub frontier_epsilon: f64,
    /// Once a one-lane sweep's frontier holds more than this fraction of
    /// all nodes, the sweep switches that vector to the dense path (sparse
    /// bookkeeping only pays while the support is genuinely small). Applies
    /// in deterministic mode too, except on an access backing
    /// ([`QueryEngine::with_access`]), whose deterministic sweeps stay
    /// sparse. `1.0` never densifies.
    pub density_cutoff: f64,
    /// The 16-lane sweep's density cutoff. A dense step's cost is
    /// amortized over `BLOCK` lanes, so the union frontier profits from
    /// staying sparse longer — the default (0.25) is higher than the
    /// one-lane `density_cutoff`.
    pub batch_density_cutoff: f64,
    /// Run the 16-lane sweep's dense Horner steps over the
    /// edge-concentrated graph (Algorithm 1's memoization) instead of raw
    /// adjacency. Compression is a preprocessing phase — the paper times it
    /// separately — so it runs eagerly at engine construction. Deterministic
    /// mode turns it off: the kernel regroups sums, so its bits differ from
    /// the sparse push's.
    pub compress: bool,
    /// Compression options used when `compress` is set.
    pub compress_options: CompressOptions,
    /// Batch-composition-independent arithmetic: every query produces the
    /// same bits whether it runs alone, in any batch, at either lane width,
    /// next to any other lanes, or on either backing. Sparse active lists
    /// are sorted before every advance, so each output adds its products
    /// in ascending source order — the order the in-memory backing's dense
    /// steps use too, so those sweeps still densify past the cutoffs. The
    /// access backing's dense gather adds before it scales, so its
    /// deterministic sweeps stay sparse. `frontier_epsilon` is forced to
    /// `0` (the union-support pruning rule would let one lane's magnitude
    /// decide another lane's support) and `compress` is turned off.
    /// Serving layers that cache results keyed by `(node, params)` need
    /// this — otherwise a cache hit and a recompute can disagree in the
    /// last ulps. Costs the pruning speedup; off by default.
    pub deterministic: bool,
}

impl Default for QueryEngineOptions {
    fn default() -> Self {
        QueryEngineOptions {
            kind: SeriesKind::Geometric,
            frontier_epsilon: 1e-13,
            density_cutoff: 0.125,
            batch_density_cutoff: 0.25,
            compress: false,
            compress_options: CompressOptions::default(),
            deterministic: false,
        }
    }
}

impl QueryEngineOptions {
    /// A stable 64-bit key over every option that can change query
    /// *results* (series kind, epsilon, cutoffs, compression, determinism).
    /// Unlike `Hash`, the value is fixed across processes and releases of
    /// the standard library, so it is safe to persist or to key a result
    /// cache shared between runs. Combine with
    /// [`SimStarParams::stable_key`] for a full result-identity key.
    pub fn stable_key(&self) -> u64 {
        let mut h = crate::params::fnv1a(crate::params::Fnv1a::BASIS);
        h = h.push(match self.kind {
            SeriesKind::Geometric => 1,
            SeriesKind::Exponential => 2,
        });
        h = h.push(self.frontier_epsilon.to_bits());
        h = h.push(self.density_cutoff.to_bits());
        h = h.push(self.batch_density_cutoff.to_bits());
        h = h.push(self.compress as u64);
        h = h.push(self.deterministic as u64);
        h.0
    }
}

/// A `W`-lane sparse-or-dense frontier: lane-major storage
/// (`vals[node][lane]`) and one active list for the **union** support
/// of all lanes. While `dense` is false only the active nodes hold
/// nonzeros, so propagation touches only the support. At `W = 1`, `vals`
/// is the plain score row, and since everything propagated is
/// non-negative, "still zero" means "not yet active"; wider frontiers keep
/// a membership bitmap instead (another lane may already hold the node).
struct BlockFrontier<const W: usize> {
    vals: Vec<[f64; W]>,
    active: Vec<u32>,
    /// Membership bitmap of the active list (empty at `W = 1`).
    member: Vec<bool>,
    dense: bool,
}

impl<const W: usize> BlockFrontier<W> {
    fn new(n: usize) -> Self {
        BlockFrontier {
            vals: vec![[0.0; W]; n],
            active: Vec::new(),
            member: vec![false; if W == 1 { 0 } else { n }],
            dense: false,
        }
    }

    /// Sets lane `lane` of `node` to `1` — a query's seed.
    fn seed(&mut self, node: u32, lane: usize) {
        let mut unit = [0.0; W];
        unit[lane] = 1.0;
        self.add_scaled(node, 1.0, &unit);
    }

    /// `node += f·src` lane-wise, activating `node` if needed. The
    /// fixed-size lanes keep the per-edge axpy vectorizable.
    #[inline]
    fn add_scaled(&mut self, node: u32, f: f64, src: &[f64; W]) {
        let i = node as usize;
        let dst = &mut self.vals[i];
        let was_zero = W == 1 && dst[0] == 0.0;
        for (d, s) in dst.iter_mut().zip(src) {
            *d += f * s;
        }
        if self.dense {
            return;
        }
        if W == 1 {
            if was_zero && dst[0] != 0.0 {
                self.active.push(node);
            }
        } else if !self.member[i] {
            self.member[i] = true;
            self.active.push(node);
        }
    }

    /// Removes active node `i`'s membership mark (a no-op at `W = 1`).
    fn unmark(member: &mut [bool], i: u32) {
        if W > 1 {
            member[i as usize] = false;
        }
    }

    /// Resets to the all-zero sparse state.
    fn clear(&mut self) {
        if self.dense {
            self.vals.fill([0.0; W]);
        } else {
            for &i in &self.active {
                self.vals[i as usize] = [0.0; W];
                Self::unmark(&mut self.member, i);
            }
        }
        self.active.clear();
        self.dense = false;
    }

    /// Drops the sparse bookkeeping, keeping `vals` as-is.
    fn densify(&mut self) {
        for &i in &self.active {
            Self::unmark(&mut self.member, i);
        }
        self.active.clear();
        self.dense = true;
    }

    fn is_zero(&self) -> bool {
        if self.dense {
            self.vals.as_flattened().iter().all(|&v| v == 0.0)
        } else {
            self.active.is_empty()
        }
    }

    /// Nodes the frontier holds: the active support, or `n` when dense.
    fn support(&self) -> usize {
        if self.dense {
            self.vals.len()
        } else {
            self.active.len()
        }
    }

    /// `self += c·src`, lane-wise, maintaining the active list.
    fn axpy_from(&mut self, src: &Self, c: f64) {
        if c == 0.0 || src.is_zero() {
            return;
        }
        if src.dense {
            if !self.dense {
                self.densify();
            }
            for (d, &sv) in self.vals.as_flattened_mut().iter_mut().zip(src.vals.as_flattened()) {
                *d += c * sv;
            }
        } else {
            for &i in &src.active {
                self.add_scaled(i, c, &src.vals[i as usize]);
            }
        }
    }
}

/// Reusable state of one `W`-lane sweep (four frontiers plus the `K + 1`
/// accumulators, ≈ `(K+5)·8·W·n` bytes) and the buffers its lanes are
/// ranked through. Pooled per width by the engine: no allocation on the
/// hot path after warmup.
struct BlockScratch<const W: usize> {
    u: BlockFrontier<W>,
    u_next: BlockFrontier<W>,
    /// `r` of the Horner pass; holds the folded result until
    /// [`Self::emit_lanes`] hands it out and clears it.
    w: BlockFrontier<W>,
    w_next: BlockFrontier<W>,
    /// `vs[λ]` accumulates `V_λ = Σ_θ c[θ][λ]·u_θ` during the forward
    /// pass; cleared (cost proportional to support) by the Horner pass
    /// that consumes them.
    vs: Vec<BlockFrontier<W>>,
    /// All-zero `n`-row that a `W > 1` result's lanes are copied through
    /// one at a time (unused at `W = 1`, where `w.vals` is the row).
    row: Vec<f64>,
    /// Partial-selection index buffer for top-k ranking.
    idx: Vec<u32>,
}

impl<const W: usize> BlockScratch<W> {
    fn new(n: usize, k: usize) -> Self {
        BlockScratch {
            u: BlockFrontier::new(n),
            u_next: BlockFrontier::new(n),
            w: BlockFrontier::new(n),
            w_next: BlockFrontier::new(n),
            vs: (0..=k).map(|_| BlockFrontier::new(n)).collect(),
            row: if W == 1 { Vec::new() } else { vec![0.0; n] },
            idx: Vec::new(),
        }
    }

    /// Hands lane `i < lanes` of the folded result to `emit(i, row, idx)`
    /// as a full `n`-row that is zero off the support, then clears `w`.
    fn emit_lanes(&mut self, lanes: usize, mut emit: impl FnMut(usize, &[f64], &mut Vec<u32>)) {
        let BlockScratch { w, row, idx, .. } = self;
        if W == 1 {
            emit(0, w.vals.as_flattened(), idx);
        } else {
            for lane in 0..lanes {
                // Every lane shares the union support, so each copy
                // overwrites all of the previous lane's entries.
                copy_lane_into(w, lane, row);
                emit(lane, row, idx);
            }
            if w.dense {
                row.fill(0.0);
            } else {
                for &i in &w.active {
                    row[i as usize] = 0.0;
                }
            }
        }
        w.clear();
    }
}

/// Copies lane `lane` of a folded frontier into a full row: every node
/// when dense, only the support otherwise.
fn copy_lane_into<const W: usize>(w: &BlockFrontier<W>, lane: usize, out: &mut [f64]) {
    if w.dense {
        for (rv, node) in out.iter_mut().zip(&w.vals) {
            *rv = node[lane];
        }
    } else {
        for &i in &w.active {
            out[i as usize] = w.vals[i as usize][lane];
        }
    }
}

/// How the engine reaches the graph's adjacency. Either way `Q`'s row `x`
/// is `I(x)` at weight `inv_in[x]`, and `Qᵀ`'s row `i` is `O(i)` with
/// entry `j` at weight `inv_in[j]` — no matrix is materialised.
enum Backing {
    /// The graph's own sorted adjacency, resident — the in-memory path.
    Memory(DiGraph),
    /// On-demand neighbor lists (e.g. a random-access `.ssg` store
    /// decoding adjacency off compressed bytes).
    Access(Arc<dyn NeighborAccess>),
}

/// Row view of a sparse operator: `f(col, weight)` for every entry of
/// row `i`, columns strictly ascending (the order every backing's contract
/// guarantees, which is what makes deterministic-mode results independent
/// of the backing). A sparse advance pushes the rows of its operator; a
/// dense step pushes them for every nonzero node ([`scatter`]) or gathers
/// the rows of the transpose ([`gather`]).
trait PushRows {
    /// Whether [`Self::gather_row`] multiplies every entry before adding
    /// it, in column order. Then every dense step, scatter or gather, adds
    /// each output's products in the ascending source order of a sorted
    /// sparse push, so a deterministic sweep may densify, and a sweep may
    /// pick either form, without changing a bit.
    const GATHER_MATCHES_PUSH: bool = true;

    fn push_row(&self, i: u32, f: impl FnMut(u32, f64));

    /// Row `i` applied to the lane-major `x`: `Σ_j A[i][j]·x[j]` per lane,
    /// accumulated in column order — one node of a dense gather step.
    #[inline]
    fn gather_row<const W: usize>(&self, i: u32, x: &[[f64; W]]) -> [f64; W] {
        let mut acc = [0.0; W];
        self.push_row(i, |j, v| {
            for (a, s) in acc.iter_mut().zip(&x[j as usize]) {
                *a += v * s;
            }
        });
        acc
    }
}

/// `Q` rows over adjacency `A`: row `x` is `I(x)`, every entry weighted
/// `inv_in[x]` — exactly [`ssr_linalg::Csr::backward_transition`]'s rows.
struct QRows<'a, A: ?Sized> {
    adj: &'a A,
    inv_in: &'a [f64],
}

/// `Qᵀ` rows over adjacency `A`: row `i` is `O(i)`, entry `j` weighted
/// `inv_in[j]` (every out-neighbor has in-degree ≥ 1).
struct QtRows<'a, A: ?Sized> {
    adj: &'a A,
    inv_in: &'a [f64],
}

impl PushRows for QRows<'_, DiGraph> {
    #[inline]
    fn push_row(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        let w = self.inv_in[i as usize];
        for &y in self.adj.in_neighbors(i) {
            f(y, w);
        }
    }
}

impl PushRows for QtRows<'_, DiGraph> {
    #[inline]
    fn push_row(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        for &j in self.adj.out_neighbors(i) {
            f(j, self.inv_in[j as usize]);
        }
    }
}

impl PushRows for QRows<'_, dyn NeighborAccess> {
    /// The gather below adds before it scales.
    const GATHER_MATCHES_PUSH: bool = false;

    #[inline]
    fn push_row(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        let w = self.inv_in[i as usize];
        if w != 0.0 {
            self.adj.for_each_in(i, &mut |y| f(y, w));
        }
    }

    /// Every entry of the row has the same weight, so the gather adds
    /// first and scales once.
    #[inline]
    fn gather_row<const W: usize>(&self, i: u32, x: &[[f64; W]]) -> [f64; W] {
        let mut acc = [0.0; W];
        let w = self.inv_in[i as usize];
        if w != 0.0 {
            self.adj.for_each_in(i, &mut |y| {
                for (a, s) in acc.iter_mut().zip(&x[y as usize]) {
                    *a += s;
                }
            });
            for a in &mut acc {
                *a *= w;
            }
        }
        acc
    }
}

impl PushRows for QtRows<'_, dyn NeighborAccess> {
    #[inline]
    fn push_row(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        self.adj.for_each_out(i, &mut |j| f(j, self.inv_in[j as usize]));
    }
}

/// `inv_in[v] = 1/|I(v)|`, or `0` for a node without in-neighbors: the
/// weight of every entry in `Q`'s row `v`, computed exactly as
/// [`ssr_linalg::Csr::backward_transition`] computes it. Shared by both
/// backings, so both push the same bits.
fn inv_in_degrees(src: &dyn NeighborAccess) -> Vec<f64> {
    (0..src.node_count() as u32)
        .map(|v| match src.in_degree(v) {
            0 => 0.0,
            d => 1.0 / d as f64,
        })
        .collect()
}

/// Lifetime work counters an engine accumulates across every sweep it
/// runs — the raw material for the serve layer's engine gauges. Sweeps
/// keep plain local tallies on the hot path and flush them here with a
/// few `Relaxed` adds per sweep, so instrumentation cost is independent
/// of iteration count and frontier size.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Logical single-source sweeps executed (a sweep counts one per
    /// occupied lane).
    sweeps: AtomicU64,
    /// Frontier advances across both passes (forward + Horner).
    iterations: AtomicU64,
    /// Advances that ended in the dense fallback representation.
    dense_steps: AtomicU64,
    /// Occupied lanes across sweeps.
    lanes_used: AtomicU64,
    /// Lane capacity across sweeps (the width `W` per sweep: 1 for a
    /// one-lane sweep, `BLOCK` for a 16-lane one).
    lane_slots: AtomicU64,
    /// Frontier support (active nodes, or `n` when dense) summed over
    /// advances.
    frontier_active: AtomicU64,
    /// `n` summed over the same advances — the density denominator.
    frontier_slots: AtomicU64,
}

impl EngineStats {
    /// Adds one sweep's tallies: `lanes` occupied of `width`.
    fn flush(&self, lanes: u64, width: u64, t: &Tally) {
        self.sweeps.fetch_add(lanes, Ordering::Relaxed);
        self.iterations.fetch_add(t.iters, Ordering::Relaxed);
        if t.dense > 0 {
            self.dense_steps.fetch_add(t.dense, Ordering::Relaxed);
        }
        self.frontier_active.fetch_add(t.active, Ordering::Relaxed);
        self.frontier_slots.fetch_add(t.slots, Ordering::Relaxed);
        self.lanes_used.fetch_add(lanes, Ordering::Relaxed);
        self.lane_slots.fetch_add(width, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            sweeps: self.sweeps.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            dense_steps: self.dense_steps.load(Ordering::Relaxed),
            lanes_used: self.lanes_used.load(Ordering::Relaxed),
            lane_slots: self.lane_slots.load(Ordering::Relaxed),
            frontier_active: self.frontier_active.load(Ordering::Relaxed),
            frontier_slots: self.frontier_slots.load(Ordering::Relaxed),
        }
    }
}

/// One sweep's work tallies, kept in locals on the hot path and flushed
/// to the shared [`EngineStats`] once per sweep.
#[derive(Default)]
struct Tally {
    iters: u64,
    dense: u64,
    active: u64,
    slots: u64,
}

/// Frozen [`EngineStats`] values. Ratios worth watching:
/// `lanes_used / lane_slots` is lane occupancy,
/// `frontier_active / frontier_slots` is mean frontier density, and
/// `dense_steps / iterations` is the dense-fallback rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStatsSnapshot {
    /// Logical single-source sweeps executed.
    pub sweeps: u64,
    /// Frontier advances across both sweep passes.
    pub iterations: u64,
    /// Advances that ended dense.
    pub dense_steps: u64,
    /// Occupied lanes across sweeps.
    pub lanes_used: u64,
    /// Lane capacity across sweeps.
    pub lane_slots: u64,
    /// Frontier support summed over advances.
    pub frontier_active: u64,
    /// Frontier capacity (`n`) summed over the same advances.
    pub frontier_slots: u64,
}

/// One frontier advance observed by a traced sweep — the engine's
/// per-request introspection record, collected only on the explicitly
/// traced entry points ([`QueryEngine::top_k_batch_traced`]). The
/// untraced hot path never constructs these (no timing calls, no
/// allocation), so sampling-off serving cost is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStep {
    /// Which sweep pass advanced: `0` = forward (θ), `1` = Horner (λ).
    pub pass: u8,
    /// The θ (or λ) term the advance computed.
    pub index: usize,
    /// Active frontier support after the advance (`n` when dense).
    pub frontier: usize,
    /// Whether the advance ended in the dense-fallback representation.
    pub dense: bool,
    /// Wall time of the advance in nanoseconds.
    pub dur_ns: u64,
}

/// Per-advance records accumulated by one traced batch call, in
/// execution order (sweep by sweep, forward pass then Horner pass).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineTrace {
    /// Every frontier advance the batch ran.
    pub steps: Vec<EngineStep>,
}

impl EngineTrace {
    /// Advances that ended dense — the dense-fallback trigger count.
    pub fn dense_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.dense).count()
    }
}

/// The engine's scratch pool for one lane width.
trait Pooled: Sized {
    fn pool(engine: &QueryEngine) -> &Mutex<Vec<Self>>;
}

impl Pooled for BlockScratch<1> {
    fn pool(engine: &QueryEngine) -> &Mutex<Vec<Self>> {
        &engine.solo_scratch
    }
}

impl Pooled for BlockScratch<BLOCK> {
    fn pool(engine: &QueryEngine) -> &Mutex<Vec<Self>> {
        &engine.block_scratch
    }
}

/// Amortized single-source SimRank\* query engine. See the module docs.
///
/// ```
/// use simrank_star::{geometric, QueryEngine, SimStarParams};
/// use ssr_graph::DiGraph;
/// let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
/// let p = SimStarParams::default();
/// let engine = QueryEngine::new(&g, p);
/// let full = geometric::iterate(&g, &p);
/// let row = engine.query(1);
/// for v in 0..4u32 {
///     assert!((row[v as usize] - full.score(1, v)).abs() < 1e-10);
/// }
/// ```
pub struct QueryEngine {
    n: usize,
    backing: Backing,
    /// `inv_in[v] = 1/|I(v)|`: the weight of `Q`'s row `v` (see
    /// [`Backing`]).
    inv_in: Vec<f64>,
    /// `coeffs[θ][λ] = weight(θ+λ) · binom(θ+λ, θ)` — the Pascal rows and
    /// length weights are computed once per engine, not per lattice cell.
    coeffs: Vec<Vec<f64>>,
    /// `theta_tail[θ] = Σ_{θ' ≥ θ} Σ_λ coeffs[θ'][λ]` — remaining
    /// coefficient mass from row `θ` on; since propagated values are
    /// bounded by 1, a tail below epsilon can be skipped.
    theta_tail: Vec<f64>,
    params: SimStarParams,
    opts: QueryEngineOptions,
    /// The edge-concentrated `X·Qᵀ` kernel (`opts.compress`), built
    /// eagerly; 16-lane sweeps run their dense Horner steps through it.
    compressed: Option<CompressedRightMultiplier>,
    /// Weakly-connected component label per node: batches are chunked by
    /// component so the lanes of a chunk share frontier support (lanes
    /// outside a node's component are provably zero — packing unrelated
    /// queries together wastes 15/16 of every lane operation).
    component: Vec<u32>,
    /// Scratch pools of one-lane and 16-lane sweeps.
    solo_scratch: Mutex<Vec<BlockScratch<1>>>,
    block_scratch: Mutex<Vec<BlockScratch<BLOCK>>>,
    /// Lifetime work counters (sweeps, advances, lane occupancy, frontier
    /// density); sweeps flush local tallies here.
    stats: EngineStats,
}

impl QueryEngine {
    /// Builds an engine with default options.
    pub fn new(g: &DiGraph, params: SimStarParams) -> Self {
        Self::with_options(g, params, QueryEngineOptions::default())
    }

    /// Builds an engine over a copy of `g`'s adjacency, precomputing the
    /// `1/|I(v)|` weights, the lattice coefficient table, and (if
    /// `opts.compress`) the edge-concentrated lane kernel.
    pub fn with_options(g: &DiGraph, params: SimStarParams, opts: QueryEngineOptions) -> Self {
        let opts = validate_options(params, opts);
        let compressed =
            opts.compress.then(|| CompressedRightMultiplier::new(g, &opts.compress_options));
        let component = weakly_connected_components(g).label;
        let inv_in = inv_in_degrees(g);
        Self::build(Backing::Memory(g.clone()), inv_in, component, compressed, params, opts)
    }

    /// Builds an engine over a [`NeighborAccess`] backing instead of an
    /// in-memory [`DiGraph`] — the memory-bounded serving path: adjacency
    /// is decoded on demand (e.g. straight off a compressed `.ssg`
    /// mapping) and the engine's own resident state is `O(n)` (the
    /// `1/|I(v)|` weights and component labels), never `O(m)`.
    ///
    /// Results match the in-memory engine to the usual `1e-10`, and in
    /// deterministic mode ([`QueryEngineOptions::deterministic`]) they are
    /// **bit-identical** to it: both backings push the same weights in the
    /// same ascending-id order, so the floating-point accumulation order
    /// coincides exactly. A deterministic sweep on this backing stays
    /// sparse (its dense Horner gather adds before it scales, which is not
    /// the sparse push's arithmetic); the in-memory engine densifies.
    ///
    /// `opts.compress` is incompatible with access backings (edge
    /// concentration needs the materialised graph) and panics, unless
    /// deterministic mode has already turned it off.
    pub fn with_access(
        src: Arc<dyn NeighborAccess>,
        params: SimStarParams,
        opts: QueryEngineOptions,
    ) -> Self {
        let opts = validate_options(params, opts);
        assert!(
            !opts.compress,
            "edge concentration needs an in-memory graph; load the graph fully to compress"
        );
        let n = src.node_count();
        let inv_in = inv_in_degrees(&*src);
        // Component labels from the edge stream (no DiGraph materialised;
        // one transient out-list at a time). The union-find keeps the
        // smaller root, so labels are edge-order-independent and equal to
        // the in-memory engine's.
        let component = weakly_connected_components_from_edges(
            n,
            (0..n as u32).flat_map(|v| {
                src.out_neighbors_vec(v).into_iter().map(move |w| (v, w)).collect::<Vec<_>>()
            }),
        )
        .label;
        Self::build(Backing::Access(src), inv_in, component, None, params, opts)
    }

    fn build(
        backing: Backing,
        inv_in: Vec<f64>,
        component: Vec<u32>,
        compressed: Option<CompressedRightMultiplier>,
        params: SimStarParams,
        opts: QueryEngineOptions,
    ) -> Self {
        let (coeffs, theta_tail) = coeff_table(&params, &opts);
        QueryEngine {
            n: component.len(),
            backing,
            inv_in,
            coeffs,
            theta_tail,
            params,
            opts,
            compressed,
            component,
            solo_scratch: Mutex::new(Vec::new()),
            block_scratch: Mutex::new(Vec::new()),
            stats: EngineStats::default(),
        }
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Whether the engine computes over an on-demand [`NeighborAccess`]
    /// backing rather than its own copy of the graph.
    pub fn is_access_backed(&self) -> bool {
        matches!(self.backing, Backing::Access(_))
    }

    /// Bytes of graph-proportional state this engine holds resident: the
    /// backing (the graph copy's adjacency in both directions, or the
    /// access source's own accounting), the `O(n)` weight vector and
    /// component labels, and the edge-concentrated kernel if built.
    /// Scratch pools and coefficient tables (`O(K²)`) are excluded — they
    /// are query-, not graph-, proportional.
    pub fn resident_bytes(&self) -> usize {
        let backing = match &self.backing {
            Backing::Memory(g) => g.estimated_bytes(),
            Backing::Access(src) => src.resident_bytes(),
        };
        let kernel = self.compressed.as_ref().map_or(0, |k| k.compressed().estimated_bytes());
        backing
            + kernel
            + self.inv_in.len() * std::mem::size_of::<f64>()
            + self.component.len() * std::mem::size_of::<u32>()
    }

    /// The parameters the engine was built with.
    pub fn params(&self) -> &SimStarParams {
        &self.params
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &QueryEngineOptions {
        &self.opts
    }

    /// Frozen lifetime work counters — see [`EngineStatsSnapshot`].
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
    }

    /// Compression ratio of the edge-concentrated kernel (0 when not
    /// compressed).
    pub fn compression_ratio(&self) -> f64 {
        self.compressed.as_ref().map_or(0.0, |k| k.compression_ratio())
    }

    /// Single-source scores `ŝ(q, ·)` as a fresh vector.
    pub fn query(&self, q: NodeId) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.query_into(q, &mut out);
        out
    }

    /// Single-source scores written into a caller-owned buffer — the
    /// zero-allocation hot path (after scratch warmup).
    pub fn query_into(&self, q: NodeId, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "output buffer size");
        self.for_each_row(&[q], None, None, |_, row, _| out.copy_from_slice(row));
    }

    /// Top-`k` most-similar nodes to `q` (excluding `q`, ties broken by
    /// ascending id) by partial selection — no full-row sort.
    pub fn top_k(&self, q: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.top_k_batch_inner(&[q], k, None, None).remove(0)
    }

    /// Batched single-source scores: row `i` of the result is
    /// `ŝ(queries[i], ·)`. Queries run in chunks of up to 16 (see the
    /// module docs for how a chunk's lane width is picked), so a full
    /// chunk reads each adjacency index once for all its queries — sparse
    /// pushes and dense gathers alike.
    pub fn query_batch(&self, queries: &[NodeId]) -> Dense {
        self.query_batch_inner(queries, None)
    }

    /// [`Self::query_batch`] with per-advance introspection appended to
    /// `trace`. Results are bitwise identical to the untraced call — the
    /// only difference is timing capture around each frontier advance.
    pub fn query_batch_traced(&self, queries: &[NodeId], trace: &mut EngineTrace) -> Dense {
        self.query_batch_inner(queries, Some(trace))
    }

    fn query_batch_inner(&self, queries: &[NodeId], trace: Option<&mut EngineTrace>) -> Dense {
        let mut out = Dense::zeros(queries.len(), self.n);
        self.for_each_row(queries, None, trace, |i, row, _| out.row_mut(i).copy_from_slice(row));
        out
    }

    /// Batched top-`k`: one partial selection per query, read straight
    /// from each chunk's folded sweep (no `queries × n` matrix).
    pub fn top_k_batch(&self, queries: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_inner(queries, k, None, None)
    }

    /// [`Self::top_k_batch`] with per-advance introspection appended to
    /// `trace`. The ranked lists are bitwise identical to the untraced
    /// call (selection is a pure function of the swept rows).
    pub fn top_k_batch_traced(
        &self,
        queries: &[NodeId],
        k: usize,
        trace: &mut EngineTrace,
    ) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_inner(queries, k, None, Some(trace))
    }

    /// [`Self::top_k_batch`] with every chunk swept at `width` lanes
    /// (`1` or `BLOCK`) whatever its size — the hook behind the
    /// `lane_width` axis of the query-engine benchmark, which measures
    /// where the widths cross over.
    #[doc(hidden)]
    pub fn top_k_batch_at_width(
        &self,
        queries: &[NodeId],
        k: usize,
        width: usize,
    ) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_inner(queries, k, Some(width), None)
    }

    fn top_k_batch_inner(
        &self,
        queries: &[NodeId],
        k: usize,
        width: Option<usize>,
        trace: Option<&mut EngineTrace>,
    ) -> Vec<Vec<(NodeId, f64)>> {
        let mut ranked = vec![Vec::new(); queries.len()];
        self.for_each_row(queries, width, trace, |i, row, idx| {
            ranked[i] = partial_top_k(row, queries[i], k, idx);
        });
        ranked
    }

    /// Sweeps `queries` chunk by chunk and hands query `i`'s row to
    /// `emit(i, row, idx)` (see [`Self::sweep_chunk`]). Chunks are cut
    /// after grouping the queries by weakly-connected component, so the
    /// lanes of each chunk overlap in support. Each lane's sweep is
    /// independent, so the grouping changes execution only — never which
    /// row belongs to which query.
    fn for_each_row(
        &self,
        queries: &[NodeId],
        width: Option<usize>,
        mut trace: Option<&mut EngineTrace>,
        mut emit: impl FnMut(usize, &[f64], &mut Vec<u32>),
    ) {
        for &q in queries {
            assert!((q as usize) < self.n, "query node out of range");
        }
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| (self.component[queries[i] as usize], queries[i], i));
        let mut chunk = Vec::with_capacity(BLOCK);
        for idxs in order.chunks(BLOCK) {
            chunk.clear();
            chunk.extend(idxs.iter().map(|&i| queries[i]));
            self.sweep_chunk(&chunk, width, trace.as_deref_mut(), |lane, row, idx| {
                emit(idxs[lane], row, idx)
            });
        }
    }

    /// Sweeps one chunk of at most [`BLOCK`] queries and hands lane `i`'s
    /// folded row (a full `n`-row, zero off the support) to
    /// `emit(i, row, idx)`, `idx` being a reusable selection buffer. The
    /// chunk runs at `width` lanes if given, else by its size alone: one
    /// 16-lane sweep above [`SOLO_CROSSOVER`] queries, one one-lane sweep
    /// per query otherwise. Shared by every entry point of this engine and
    /// by the all-pairs engine's parallel workers (`&self` only touches
    /// shared immutable state; each call takes its own pooled scratch).
    pub(crate) fn sweep_chunk(
        &self,
        chunk: &[NodeId],
        width: Option<usize>,
        mut trace: Option<&mut EngineTrace>,
        mut emit: impl FnMut(usize, &[f64], &mut Vec<u32>),
    ) {
        debug_assert!(chunk.len() <= BLOCK);
        match width.unwrap_or(if chunk.len() > SOLO_CROSSOVER { BLOCK } else { 1 }) {
            1 => self.with_scratch::<1, _>(|s| {
                for (i, q) in chunk.iter().enumerate() {
                    self.sweep(std::slice::from_ref(q), s, trace.as_deref_mut());
                    s.emit_lanes(1, |_, row, idx| emit(i, row, idx));
                }
            }),
            BLOCK => self.with_scratch::<BLOCK, _>(|s| {
                self.sweep(chunk, s, trace);
                s.emit_lanes(chunk.len(), emit);
            }),
            w => panic!("lane width {w} is not built; use 1 or {BLOCK}"),
        }
    }

    /// Runs `f` on a scratch from the width's pool, returning it after.
    fn with_scratch<const W: usize, R>(&self, f: impl FnOnce(&mut BlockScratch<W>) -> R) -> R
    where
        BlockScratch<W>: Pooled,
    {
        let pool = BlockScratch::<W>::pool(self);
        let mut s = pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| BlockScratch::new(self.n, self.params.iterations));
        let out = f(&mut s);
        pool.lock().expect("scratch pool poisoned").push(s);
        out
    }

    /// The sweep behind every query, for one lane per query (at most `W`),
    /// over the backing's row views.
    fn sweep<const W: usize>(
        &self,
        queries: &[NodeId],
        s: &mut BlockScratch<W>,
        trace: Option<&mut EngineTrace>,
    ) {
        let inv_in = &self.inv_in;
        match &self.backing {
            Backing::Memory(g) => self.sweep_with(
                queries,
                s,
                &QRows { adj: g, inv_in },
                &QtRows { adj: g, inv_in },
                trace,
            ),
            Backing::Access(src) => self.sweep_with(
                queries,
                s,
                &QRows { adj: &**src, inv_in },
                &QtRows { adj: &**src, inv_in },
                trace,
            ),
        }
    }

    /// The two-pass Horner sweep. The `(θ, λ)` lattice
    /// `Σ_θ Σ_{λ≤K−θ} c[θ][λ]·u_θ(Qᵀ)^λ` is re-associated as
    /// `Σ_λ V_λ(Qᵀ)^λ` with `V_λ = Σ_{θ≤K−λ} c[θ][λ]·u_θ`: a forward pass
    /// advances `u_θ = e_qᵀQ^θ` and accumulates the `V_λ`, then a Horner
    /// pass folds `r ← r·Qᵀ + V_λ` (λ descending). That is at most `2K`
    /// frontier advances instead of the lattice's `O(K²)` — each sparse
    /// with automatic dense fallback — and a pure re-association of the
    /// same non-negative terms, so results match the dense lattice
    /// reference ([`crate::single_source::single_source_dense`]) to a few
    /// ulps per entry.
    ///
    /// `q_rows` pushes `Q` rows (u-advance) and `qt_rows` pushes `Qᵀ` rows
    /// (Horner advance). Once dense, the u-advance pushes the `Q` row of
    /// every nonzero node, and the Horner advance gathers `Q` rows (or, for
    /// 16-lane sweeps of a compressed engine, runs the edge-concentrated
    /// kernel) — the arithmetic the 16-lane sweep always had, lane for
    /// lane. Where that gather gives the push's bits
    /// ([`PushRows::GATHER_MATCHES_PUSH`]), a one-lane Horner advance
    /// pushes the `Qᵀ` row of every nonzero node instead: a frontier just
    /// past the cutoff is still mostly zero, and a gather would read every
    /// edge. A deterministic sweep densifies only on those backings, where
    /// every dense step reproduces the sorted sparse push's bits; the
    /// kernel is never built in deterministic mode. Leaves the folded
    /// result in `s.w` (lane-major) for [`BlockScratch::emit_lanes`]; every
    /// other scratch frontier is left cleared. With `trace` set, every
    /// advance is individually timed and recorded — strictly between
    /// advances, so traced results stay bitwise identical to untraced ones.
    fn sweep_with<const W: usize, Q: PushRows, Qt: PushRows>(
        &self,
        queries: &[NodeId],
        s: &mut BlockScratch<W>,
        q_rows: &Q,
        qt_rows: &Qt,
        mut trace: Option<&mut EngineTrace>,
    ) {
        debug_assert!(queries.len() <= W);
        let k = self.params.iterations;
        let eps = self.opts.frontier_epsilon;
        let det = self.opts.deterministic;
        let cutoff = if W == 1 { self.opts.density_cutoff } else { self.opts.batch_density_cutoff };
        // A frontier never holds more than `n` nodes, so cutoff `n` keeps
        // the sweep sparse.
        let cutoff =
            if det && !Q::GATHER_MATCHES_PUSH { self.n } else { (cutoff * self.n as f64) as usize };
        let kernel = self.compressed.as_ref().filter(|_| W == BLOCK);
        let timed = trace.is_some();
        let mut tally = Tally::default();
        let mut record =
            |f: &BlockFrontier<W>, pass: u8, index: usize, started: Option<Instant>| {
                tally.iters += 1;
                tally.dense += f.dense as u64;
                tally.active += f.support() as u64;
                tally.slots += self.n as u64;
                if let (Some(t), Some(at)) = (trace.as_deref_mut(), started) {
                    t.steps.push(EngineStep {
                        pass,
                        index,
                        frontier: f.support(),
                        dense: f.dense,
                        dur_ns: at.elapsed().as_nanos() as u64,
                    });
                }
            };
        // Forward pass: u_θ = e_qᵀQ^θ; V_λ += c[θ][λ]·u_θ for λ ≤ K−θ.
        for (lane, &q) in queries.iter().enumerate() {
            s.u.seed(q, lane);
        }
        for theta in 0..=k {
            if eps > 0.0 && self.theta_tail[theta] < eps {
                break;
            }
            for (lambda, vl) in s.vs[..=(k - theta)].iter_mut().enumerate() {
                vl.axpy_from(&s.u, self.coeffs[theta][lambda]);
            }
            if theta == k {
                break;
            }
            // u ← u·Q: push over the active Q rows, or over every nonzero
            // node's Q row once dense.
            let started = timed.then(Instant::now);
            advance(q_rows, &mut s.u, &mut s.u_next, eps, cutoff, det, |x, y| {
                scatter::<W>(q_rows, x, y)
            });
            record(&s.u, 0, theta, started);
            if s.u.is_zero() {
                break;
            }
        }
        s.u.clear();
        // Horner pass (λ descending): r ← r·Qᵀ + V_λ, with r living in the
        // w scratch. Skipping the advance while r is still zero makes the
        // top-of-range V's (empty when the forward pass stopped early)
        // free.
        for lambda in (0..=k).rev() {
            if !s.w.is_zero() {
                // r ← r·Qᵀ: push over Qᵀ rows, or gather over Q rows.
                let started = timed.then(Instant::now);
                advance(qt_rows, &mut s.w, &mut s.w_next, eps, cutoff, det, |x, y| match kernel {
                    Some(kernel) => kernel.apply_block(x.as_flattened(), y.as_flattened_mut(), W),
                    None if W == 1 && Q::GATHER_MATCHES_PUSH => scatter::<W>(qt_rows, x, y),
                    None => gather::<W>(q_rows, x, y),
                });
                record(&s.w, 1, lambda, started);
            }
            s.w.axpy_from(&s.vs[lambda], 1.0);
            s.vs[lambda].clear();
        }
        self.stats.flush(queries.len() as u64, W as u64, &tally);
    }

    /// The edge-concentrated lane kernel, when the engine was built with
    /// `compress` (shared with the all-pairs engine so compression runs
    /// once per graph).
    pub(crate) fn compressed_kernel(&self) -> Option<&CompressedRightMultiplier> {
        self.compressed.as_ref()
    }
}

/// Length weights `weight(l)` for `l ≤ K` of the selected series.
fn length_weights(params: &SimStarParams, kind: SeriesKind) -> Vec<f64> {
    match kind {
        SeriesKind::Geometric => geometric_weights(params.c, params.iterations),
        SeriesKind::Exponential => exponential_weights(params.c, params.iterations),
    }
}

/// Shared constructor validation (both backings): parameter checks plus
/// deterministic mode forcing `frontier_epsilon = 0` and `compress` off
/// (see the option docs).
fn validate_options(params: SimStarParams, mut opts: QueryEngineOptions) -> QueryEngineOptions {
    params.validate();
    if opts.deterministic {
        // Pruning couples lanes and the edge-concentrated kernel regroups
        // sums (see the option docs); everything else deterministic mode
        // needs is handled in the sweep and the advance function.
        opts.frontier_epsilon = 0.0;
        opts.compress = false;
    }
    assert!(opts.frontier_epsilon >= 0.0, "epsilon must be non-negative");
    assert!(
        (0.0..=1.0).contains(&opts.density_cutoff),
        "density cutoff must be a fraction in [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&opts.batch_density_cutoff),
        "batch density cutoff must be a fraction in [0, 1]"
    );
    opts
}

/// The lattice coefficient table and its θ-suffix mass (see the
/// [`QueryEngine`] field docs).
fn coeff_table(params: &SimStarParams, opts: &QueryEngineOptions) -> (Vec<Vec<f64>>, Vec<f64>) {
    let k = params.iterations;
    let weights = length_weights(params, opts.kind);
    let coeffs = lattice_coeffs(&weights);
    let mut theta_tail = vec![0.0; k + 2];
    for theta in (0..=k).rev() {
        theta_tail[theta] = theta_tail[theta + 1] + coeffs[theta].iter().sum::<f64>();
    }
    (coeffs, theta_tail)
}

/// A dense step in gather form: `y[i] = Σ_j A[i][j]·x[j]` lane-wise for
/// every node `i`, over `rows` of `A`. Every entry of `y` is overwritten.
fn gather<const W: usize>(rows: &impl PushRows, x: &[[f64; W]], y: &mut [[f64; W]]) {
    for (i, dst) in y.iter_mut().enumerate() {
        *dst = rows.gather_row(i as u32, x);
    }
}

/// A dense step in scatter form: `y += x·A` lane-wise, pushing row `i`
/// of `A` for every node `i` whose lanes are not all zero. Each output
/// node receives its products in ascending source order, exactly as the
/// gather form over the rows of `Aᵀ` sums them, so both forms give the
/// same bits; skipping the zero rows makes a just-densified frontier cost
/// only its support's edges.
fn scatter<const W: usize>(rows: &impl PushRows, x: &[[f64; W]], y: &mut [[f64; W]]) {
    for (i, src) in x.iter().enumerate() {
        if src.iter().all(|&v| v == 0.0) {
            continue;
        }
        rows.push_row(i as u32, |j, v| {
            for (d, s) in y[j as usize].iter_mut().zip(src) {
                *d += v * s;
            }
        });
    }
}

/// Advances `cur` one step lane-wise: a sparse push over `rows` (each
/// adjacency index read once per `W` lanes) while the union support is
/// small, switching to `dense_step` once it saturates past `cutoff` active
/// nodes (and staying dense from then on). `next` must be cleared on
/// entry and is left cleared on exit. With `det` set, a sparse frontier's
/// active list is sorted before the push, so every slot accumulates its
/// products in ascending source order — the order the dense steps use
/// too — and lane results become independent of what the other lanes
/// hold and of the width (see [`QueryEngineOptions::deterministic`]).
fn advance<const W: usize>(
    rows: &impl PushRows,
    cur: &mut BlockFrontier<W>,
    next: &mut BlockFrontier<W>,
    eps: f64,
    cutoff: usize,
    det: bool,
    dense_step: impl Fn(&[[f64; W]], &mut [[f64; W]]),
) {
    if cur.dense {
        // `next` is cleared ⇒ all-zero, which a kernel may accumulate into.
        dense_step(&cur.vals, &mut next.vals);
        next.dense = true;
    } else {
        debug_assert!(!next.dense && next.active.is_empty());
        if det {
            cur.active.sort_unstable();
        }
        for &i in &cur.active {
            let src = cur.vals[i as usize];
            rows.push_row(i, |j, v| next.add_scaled(j, v, &src));
        }
        if eps > 0.0 {
            let BlockFrontier { vals, active, member, .. } = next;
            active.retain(|&j| {
                let node = &mut vals[j as usize];
                if node.iter().any(|&v| v >= eps) {
                    true
                } else {
                    *node = [0.0; W];
                    BlockFrontier::<W>::unmark(member, j);
                    false
                }
            });
        }
        if next.active.len() > cutoff {
            next.densify();
        }
    }
    std::mem::swap(cur, next);
    next.clear();
}

/// Top-`k` of `row` excluding `q`, by partial selection: `O(n + k log k)`
/// instead of the `O(n log n)` full sort. The comparator (descending score,
/// ascending id) is a total order, so the result is deterministic even with
/// tied scores and matches the sort-based reference exactly.
pub(crate) fn partial_top_k(
    row: &[f64],
    q: NodeId,
    k: usize,
    idx: &mut Vec<u32>,
) -> Vec<(NodeId, f64)> {
    idx.clear();
    idx.extend((0..row.len() as u32).filter(|&v| v != q));
    let cmp = |a: &u32, b: &u32| {
        row[*b as usize].partial_cmp(&row[*a as usize]).expect("finite scores").then(a.cmp(b))
    };
    let k = k.min(idx.len());
    if k == 0 {
        return Vec::new();
    }
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
    }
    idx[..k].sort_unstable_by(cmp);
    idx[..k].iter().map(|&v| (v, row[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_source::{single_source_dense, single_source_exponential_dense};
    use crate::{geometric, series};

    fn graphs() -> Vec<DiGraph> {
        vec![
            DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2), (0, 3)]).unwrap(),
            DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap(),
            DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 4)])
                .unwrap(),
        ]
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_rows_close(a: &[f64], b: &[f64], tol: f64, tag: &str) {
        for (v, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{tag}: v={v}: {x} vs {y}");
        }
    }

    #[test]
    fn engine_stats_count_sweeps_iterations_and_lane_occupancy() {
        let g = &graphs()[0];
        let engine = QueryEngine::new(g, SimStarParams::default());
        assert_eq!(engine.stats(), EngineStatsSnapshot::default(), "fresh engine is zeroed");
        engine.query(1);
        let after_one = engine.stats();
        assert_eq!(after_one.sweeps, 1);
        assert!(after_one.iterations > 0, "a sweep advances the frontier");
        assert!(after_one.frontier_active <= after_one.frontier_slots);
        assert_eq!((after_one.lanes_used, after_one.lane_slots), (1, 1), "one one-lane sweep");
        // A 3-query batch is below the crossover: three one-lane sweeps.
        engine.top_k_batch(&[0, 1, 2], 2);
        let after_small = engine.stats();
        assert_eq!(after_small.sweeps, 4);
        assert_eq!((after_small.lanes_used, after_small.lane_slots), (4, 4));
        assert!(after_small.iterations > after_one.iterations);
        // 17 queries: one full 16-lane chunk plus a one-lane remainder.
        let queries: Vec<NodeId> = (0..17).map(|i| i % 4).collect();
        engine.top_k_batch(&queries, 2);
        let after_wide = engine.stats();
        assert_eq!(after_wide.sweeps, 21);
        assert_eq!(after_wide.lanes_used, 4 + 17);
        assert_eq!(after_wide.lane_slots, 4 + BLOCK as u64 + 1);
        // One query past the crossover runs as one 16-lane chunk.
        engine.top_k_batch(&queries[..SOLO_CROSSOVER + 1], 2);
        let after_cross = engine.stats();
        assert_eq!(after_cross.lanes_used - after_wide.lanes_used, SOLO_CROSSOVER as u64 + 1);
        assert_eq!(after_cross.lane_slots - after_wide.lane_slots, BLOCK as u64);
    }

    #[test]
    fn engine_matches_dense_sweep_and_matrix_row() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let engine = QueryEngine::new(&g, p);
            let full = geometric::iterate(&g, &p);
            for q in 0..g.node_count() as NodeId {
                let row = engine.query(q);
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&row, &dense, 1e-10, "vs dense");
                for (v, &rv) in row.iter().enumerate() {
                    assert!((rv - full.score(q, v as NodeId)).abs() < 1e-10, "q={q}, v={v}");
                }
            }
        }
    }

    #[test]
    fn exponential_engine_matches_series() {
        for g in graphs() {
            let p = SimStarParams { c: 0.6, iterations: 6 };
            let opts = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            let brute = series::exponential_partial_sum(&g, &p);
            for q in 0..g.node_count() as NodeId {
                let row = engine.query(q);
                let dense = single_source_exponential_dense(&g, q, &p);
                assert_rows_close(&row, &dense, 1e-10, "vs dense");
                for (v, &rv) in row.iter().enumerate() {
                    assert!((rv - brute.get(q as usize, v)).abs() < 1e-10, "q={q}, v={v}");
                }
            }
        }
    }

    #[test]
    fn forced_dense_fallback_is_exact() {
        // cutoff 0 densifies after the first sparse step; eps 0 disables
        // pruning — both paths must still match the reference exactly.
        for g in graphs() {
            let p = SimStarParams { c: 0.8, iterations: 5 };
            let opts = QueryEngineOptions {
                frontier_epsilon: 0.0,
                density_cutoff: 0.0,
                ..Default::default()
            };
            let engine = QueryEngine::with_options(&g, p, opts);
            for q in 0..g.node_count() as NodeId {
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&engine.query(q), &dense, 1e-12, "forced dense");
            }
        }
    }

    #[test]
    fn batched_rows_match_single_queries() {
        for compress in [false, true] {
            for g in graphs() {
                let p = SimStarParams { c: 0.7, iterations: 5 };
                let opts = QueryEngineOptions { compress, ..Default::default() };
                let engine = QueryEngine::with_options(&g, p, opts);
                // Every node, then every node again up to a full chunk:
                // both lane widths.
                let n = g.node_count() as NodeId;
                for len in [n as usize, BLOCK] {
                    let queries: Vec<NodeId> = (0..len as NodeId).map(|i| n - 1 - i % n).collect();
                    let batch = engine.query_batch(&queries);
                    for (i, &q) in queries.iter().enumerate() {
                        let dense = single_source_dense(&g, q, &p);
                        assert_rows_close(batch.row(i), &dense, 1e-10, "batch");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_wider_than_block_is_consistent() {
        // More rows than one 16-lane block, with repeated query ids.
        let g = &graphs()[0];
        let p = SimStarParams::default();
        let engine = QueryEngine::new(g, p);
        let queries: Vec<NodeId> = (0..40).map(|i| (i % g.node_count()) as NodeId).collect();
        let batch = engine.query_batch(&queries);
        for (i, &q) in queries.iter().enumerate() {
            assert_rows_close(batch.row(i), &engine.query(q), 1e-10, "wide batch");
        }
    }

    #[test]
    fn top_k_matches_sorted_reference() {
        for g in graphs() {
            let p = SimStarParams { c: 0.8, iterations: 8 };
            let engine = QueryEngine::new(&g, p);
            for q in 0..g.node_count() as NodeId {
                for k in [0, 1, 3, g.node_count(), g.node_count() + 5] {
                    let fast = engine.top_k(q, k);
                    let row = engine.query(q);
                    let mut slow: Vec<(NodeId, f64)> = row
                        .iter()
                        .enumerate()
                        .filter(|&(v, _)| v != q as usize)
                        .map(|(v, &s)| (v as NodeId, s))
                        .collect();
                    slow.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                    slow.truncate(k);
                    assert_eq!(fast.len(), slow.len());
                    for ((v1, s1), (v2, s2)) in fast.iter().zip(&slow) {
                        assert_eq!(v1, v2, "q={q}, k={k}");
                        assert!((s1 - s2).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_batch_matches_top_k() {
        let g = &graphs()[1];
        let engine = QueryEngine::new(g, SimStarParams::default());
        let queries: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let batched = engine.top_k_batch(&queries, 3);
        for (&q, rows) in queries.iter().zip(&batched) {
            let single = engine.top_k(q, 3);
            assert_eq!(rows.len(), single.len());
            for ((v1, s1), (v2, s2)) in rows.iter().zip(&single) {
                assert_eq!(v1, v2, "q={q}");
                assert!((s1 - s2).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn scratch_pools_are_reused_per_width() {
        let g = &graphs()[0];
        let engine = QueryEngine::new(g, SimStarParams::default());
        let first = engine.query(0);
        for _ in 0..5 {
            assert_eq!(engine.query(0), first);
        }
        // One sequential caller ⇒ exactly one pooled one-lane scratch, and
        // no 16-lane scratch until a chunk crosses over.
        assert_eq!(engine.solo_scratch.lock().unwrap().len(), 1);
        assert_eq!(engine.block_scratch.lock().unwrap().len(), 0);
        engine.top_k_batch(&[0; BLOCK], 2);
        engine.top_k_batch(&[1; BLOCK], 2);
        assert_eq!(engine.block_scratch.lock().unwrap().len(), 1);
    }

    #[test]
    fn empty_batch_and_isolated_nodes() {
        let g = DiGraph::from_edges(3, &[(0, 1)]).unwrap();
        let engine = QueryEngine::new(&g, SimStarParams::default());
        assert_eq!(engine.query_batch(&[]).rows(), 0);
        let row = engine.query(2); // isolated: only scores itself
        assert!(row[2] > 0.0);
        assert_eq!(row[0], 0.0);
        assert_eq!(row[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_bounds_checked() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let _ = QueryEngine::new(&g, SimStarParams::default()).query(5);
    }

    #[test]
    fn engine_is_a_shareable_snapshot_handle() {
        // Serving layers publish engines behind `Arc` and query them from
        // many threads at once; this pins the auto-traits that makes legal.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
    }

    #[test]
    fn deterministic_engine_matches_reference() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            for q in 0..g.node_count() as NodeId {
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&engine.query(q), &dense, 1e-10, "deterministic");
            }
        }
    }

    #[test]
    fn deterministic_results_are_batch_composition_independent() {
        // The same query must produce the same bits alone, batched with
        // itself, and batched next to arbitrary other queries, at every
        // chunk size and so at both lane widths, on both backings — the
        // property result caches in front of the engine rely on.
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
            let mem = QueryEngine::with_options(&g, p, opts.clone());
            let acc = QueryEngine::with_access(access_of(&g), p, opts);
            let n = g.node_count() as NodeId;
            let solo: Vec<Vec<f64>> = (0..n).map(|q| mem.query(q)).collect();
            for engine in [&mem, &acc] {
                for len in 1..=BLOCK + 1 {
                    for shift in 0..n {
                        let batch: Vec<NodeId> =
                            (0..len as NodeId).map(|i| (i * 3 + shift) % n).collect();
                        let rows = engine.query_batch(&batch);
                        let ranked = engine.top_k_batch(&batch, 4);
                        for (i, &q) in batch.iter().enumerate() {
                            let want = bits(&solo[q as usize]);
                            assert_eq!(want, bits(rows.row(i)), "q={q} len={len} lane {i}");
                            // Top-k is a pure selection over those bits.
                            assert_eq!(ranked[i], mem.top_k(q, 4), "q={q} len={len} top-k");
                        }
                    }
                }
            }
        }
    }

    /// Three hundred nodes with four pseudo-random out-links each: a
    /// sweep's frontiers start sparse and cross both density cutoffs a few
    /// advances in.
    fn mid_density_graph() -> DiGraph {
        let n = 300u32;
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut edges = Vec::new();
        for v in 0..n {
            for _ in 0..4 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                edges.push((v, (x % n as u64) as u32));
            }
        }
        DiGraph::from_edges(n as usize, &edges).unwrap()
    }

    #[test]
    fn densified_deterministic_sweeps_match_sparse_ones_bit_for_bit() {
        let g = mid_density_graph();
        let p = SimStarParams { c: 0.6, iterations: 5 };
        let det = QueryEngineOptions { deterministic: true, ..Default::default() };
        let dense = QueryEngine::with_options(&g, p, det.clone());
        let never =
            QueryEngineOptions { density_cutoff: 1.0, batch_density_cutoff: 1.0, ..det.clone() };
        let sparse = QueryEngine::with_options(&g, p, never);
        let acc = QueryEngine::with_access(access_of(&g), p, det);
        // The default engine's first advance is sparse, a later one dense.
        let mut trace = EngineTrace::default();
        dense.top_k_batch_traced(&[7], 5, &mut trace);
        assert!(!trace.steps[0].dense && trace.dense_steps() > 0, "{trace:?}");
        let n = g.node_count() as NodeId;
        for (name, engine) in [("dense", &dense), ("sparse", &sparse), ("access", &acc)] {
            for len in 1..=BLOCK + 1 {
                let batch: Vec<NodeId> =
                    (0..len as NodeId).map(|i| (i * 37 + len as NodeId) % n).collect();
                let rows = engine.query_batch(&batch);
                let ranked = engine.top_k_batch(&batch, 5);
                for (i, &q) in batch.iter().enumerate() {
                    let want = bits(&sparse.query(q));
                    assert_eq!(bits(rows.row(i)), want, "{name} len={len} lane {i} (q={q})");
                    assert_eq!(ranked[i], sparse.top_k(q, 5), "{name} len={len} lane {i} top-k");
                }
            }
        }
        assert!(dense.stats().dense_steps > 0, "the default cutoffs densify");
        assert_eq!(sparse.stats().dense_steps, 0, "cutoffs at 1.0 never densify");
        assert_eq!(acc.stats().dense_steps, 0, "deterministic access sweeps stay sparse");
    }

    #[test]
    fn deterministic_mode_forces_zero_epsilon() {
        // ... and turns compression off, so the access backing accepts
        // the same options.
        let g = &graphs()[0];
        let opts = QueryEngineOptions {
            deterministic: true,
            frontier_epsilon: 1e-6,
            compress: true,
            ..Default::default()
        };
        let engine = QueryEngine::with_options(g, SimStarParams::default(), opts.clone());
        assert_eq!(engine.options().frontier_epsilon, 0.0);
        assert!(!engine.options().compress && engine.compressed_kernel().is_none());
        let acc = QueryEngine::with_access(access_of(g), SimStarParams::default(), opts);
        assert!(!acc.options().compress);
    }

    #[test]
    fn stable_keys_separate_result_identities() {
        let a = QueryEngineOptions::default();
        assert_eq!(a.stable_key(), QueryEngineOptions::default().stable_key());
        let det = QueryEngineOptions { deterministic: true, ..Default::default() };
        let exp = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
        assert_ne!(a.stable_key(), det.stable_key());
        assert_ne!(a.stable_key(), exp.stable_key());
        assert_ne!(det.stable_key(), exp.stable_key());
    }

    #[test]
    fn compression_ratio_reported() {
        // K_{2,3} compresses; the plain engine reports zero.
        let g = DiGraph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
        let p = SimStarParams::default();
        assert_eq!(QueryEngine::new(&g, p).compression_ratio(), 0.0);
        let opts = QueryEngineOptions { compress: true, ..Default::default() };
        assert!(QueryEngine::with_options(&g, p, opts).compression_ratio() > 0.0);
    }

    fn access_of(g: &DiGraph) -> Arc<dyn NeighborAccess> {
        Arc::new(g.clone())
    }

    #[test]
    fn access_backing_bit_identical_in_deterministic_mode() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
            let mem = QueryEngine::with_options(&g, p, opts.clone());
            let acc = QueryEngine::with_access(access_of(&g), p, opts);
            assert!(acc.is_access_backed() && !mem.is_access_backed());
            let all: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
            for q in &all {
                assert_eq!(mem.query(*q), acc.query(*q), "q={q}");
                assert_eq!(mem.top_k(*q, 3), acc.top_k(*q, 3), "q={q}");
            }
            assert_eq!(mem.query_batch(&all).as_slice(), acc.query_batch(&all).as_slice());
        }
    }

    #[test]
    fn access_backing_matches_on_sparse_and_dense_paths() {
        for g in graphs() {
            let p = SimStarParams { c: 0.6, iterations: 6 };
            for opts in [
                QueryEngineOptions::default(),
                // Cutoff 0 forces the dense fallback from the first step.
                QueryEngineOptions {
                    density_cutoff: 0.0,
                    batch_density_cutoff: 0.0,
                    ..Default::default()
                },
                QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() },
            ] {
                let mem = QueryEngine::with_options(&g, p, opts.clone());
                let acc = QueryEngine::with_access(access_of(&g), p, opts);
                let n = g.node_count();
                for q in 0..n as NodeId {
                    assert_rows_close(&mem.query(q), &acc.query(q), 1e-10, "access row");
                }
                // A full chunk, so the 16-lane dense steps run too.
                let wide: Vec<NodeId> = (0..BLOCK).map(|i| (i % n) as NodeId).collect();
                let (bm, ba) = (mem.query_batch(&wide), acc.query_batch(&wide));
                for (i, &q) in wide.iter().enumerate() {
                    assert_rows_close(bm.row(i), ba.row(i), 1e-10, "access batch");
                    assert_rows_close(bm.row(i), &mem.query(q), 1e-10, "batch vs solo");
                }
            }
        }
    }

    #[test]
    fn access_backing_reports_resident_bytes() {
        let g = graphs().remove(0);
        let p = SimStarParams::default();
        let acc = QueryEngine::with_access(access_of(&g), p, Default::default());
        let mem = QueryEngine::new(&g, p);
        assert!(acc.resident_bytes() > 0);
        assert!(mem.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "edge concentration")]
    fn access_backing_rejects_compression() {
        let g = graphs().remove(0);
        let opts = QueryEngineOptions { compress: true, ..Default::default() };
        let _ = QueryEngine::with_access(access_of(&g), SimStarParams::default(), opts);
    }
}
