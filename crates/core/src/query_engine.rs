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
//!   neither is materialised as a matrix.
//! * **Two-pass Horner sweep** — the lattice
//!   `Σ_θ Σ_λ c[θ][λ]·u_θ(Qᵀ)^λ` is re-associated as `Σ_λ V_λ(Qᵀ)^λ`
//!   with `V_λ = Σ_θ c[θ][λ]·u_θ`: a forward pass advances
//!   `u_θ = e_qᵀQ^θ` and accumulates the `V_λ`, a Horner pass folds
//!   `r ← r·Qᵀ + V_λ`. At most `2K` advances per query instead of the
//!   lattice's `O(K²)`. Both passes advance in the same two frontiers,
//!   and `V_K = c[0][K]·e_q` is seeded rather than stored, so a sweep's
//!   scratch set is `K + 2` frontiers.
//! * **Sparse frontiers** — every advance propagates only the active
//!   support (push-style over adjacency rows, nothing pruned), falling
//!   back on the in-memory backing to a dense scatter or gather step once
//!   the frontier saturates past a density cutoff. Scratch lives in a
//!   pool of sets per width; the hot path allocates nothing after warmup,
//!   and an engine built for a new graph version can share its
//!   predecessor's pool ([`QueryEngine::sharing_scratch_with`]) instead of
//!   faulting in sets of its own.
//! * **One sweep, two lane widths** — the sweep is generic over a lane
//!   width `W`: every frontier stores `W` queries lane-major over their
//!   union support, so each adjacency index is read once per `W` queries.
//!   It runs at `W = 1` (a solo query) and `W = 8` (a full chunk).
//!   Batches are cut into 8-query chunks; a batch of more than 8 queries
//!   is first grouped by weakly-connected component so lanes overlap. The
//!   component labels are computed on the first such call, so building an
//!   engine never pays for them. A chunk of more than `SOLO_CROSSOVER`
//!   queries runs as one 8-lane sweep, a smaller one as one-lane sweeps,
//!   so a lone query never pays for seven idle lanes.
//! * **Top-k** — [`QueryEngine::top_k`] and its batch forms rank every
//!   occupied lane at once, in one ascending pass over the folded sweep:
//!   a node that beats no lane's current `k`-th best score costs one
//!   `W`-wide compare, and only winners touch a lane's `k`-entry heap. No
//!   lane is copied out and no full row is sorted.
//!
//! Every path returns the same scores as the dense reference sweep
//! ([`crate::single_source::single_source_dense`]) within `1e-10` — the
//! Horner form is a pure re-association of the same non-negative terms —
//! which the property tests pin against `geometric::iterate` rows
//! (Lemma 4). Every lane's bits are independent of the lane width, of the
//! other lanes, of the density cutoffs and of the backing: every product
//! is `inv_in · x` on the same `f64`s, added in ascending source order,
//! whether the step is a sorted sparse push or, on the in-memory backing,
//! a dense scatter or gather. An access backing never densifies.

use crate::series::{exponential_weights, geometric_weights, lattice_coeffs};
use crate::SimStarParams;
use ssr_graph::components::{weakly_connected_components, weakly_connected_components_from_edges};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use ssr_linalg::Dense;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Lanes of a multi-lane sweep: the width batches are chunked at. One
/// frontier holds `n·LANES·8` bytes, 1.06 MB at `n = 16,500`, which fits
/// a 2 MiB per-core L2 cache that a 16-lane frontier (2.1 MB) overflows;
/// a sweep's scratch set holds `K + 2` frontiers.
const LANES: usize = 8;

/// Chunks of at most this many queries run as that many one-lane sweeps;
/// larger chunks run as one [`LANES`]-lane sweep, which touches all its
/// lanes however few are occupied. Measured on the `lane_width` axis of
/// `BENCH_query_engine.json` (`K = 8`, thread CPU ms per query, each cell
/// the median of seven windows measured round-robin, one lane against
/// eight):
///
/// | per call | CitHepTh     | DBLP         | Web-Google   |
/// |----------|--------------|--------------|--------------|
/// | 2        | 2.49 vs 3.05 | 0.32 vs 0.60 | 1.63 vs 2.63 |
/// | 3        | 2.16 vs 2.27 | 0.36 vs 0.45 | 1.62 vs 2.18 |
/// | 4        | 2.26 vs 1.79 | 0.33 vs 0.37 | 1.56 vs 1.72 |
/// | 5        | 2.02 vs 1.49 | 0.34 vs 0.35 | 1.82 vs 1.41 |
/// | 6        | 2.04 vs 1.28 | 0.36 vs 0.36 | 1.81 vs 1.16 |
///
/// At 3 queries per call one lane wins on all three graphs (by 1.05× on
/// CitHepTh, 1.23× on DBLP, 1.35× on Web-Google). At 4 the 8-lane sweep
/// wins on CitHepTh (by 1.26×) while one lane stays ahead on Web-Google
/// (by 1.10×), and at 5 the 8-lane sweep wins there too (by 1.29×). DBLP
/// keeps one lane ahead through 5 (by 1.04×), breaks even at 6 and 8, and
/// the 8-lane sweep wins at 16 (by 1.26×). So CitHepTh alone would choose
/// 3, Web-Google 4 and DBLP 5. The one-lane column does not depend on call
/// size; its spread (±10% on CitHepTh, ±9% on DBLP, ±8% on Web-Google) is
/// the run's noise.
const SOLO_CROSSOVER: usize = 3;

/// Which SimRank\* series the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeriesKind {
    /// Geometric length weight `(1−C)·C^l/2^l` (Eq. 9).
    #[default]
    Geometric,
    /// Exponential length weight `e^{−C}·C^l/(l!·2^l)` (Eq. 18).
    Exponential,
}

/// Tuning knobs of the [`QueryEngine`]. Only `kind` can change a result;
/// the cutoffs decide where the in-memory backing's sweeps densify, which
/// costs time, not bits.
#[derive(Debug, Clone)]
pub struct QueryEngineOptions {
    /// Series the engine evaluates (geometric by default).
    pub kind: SeriesKind,
    /// Once a one-lane sweep's frontier holds more than this fraction of
    /// all nodes, the sweep switches that vector to the dense path (sparse
    /// bookkeeping only pays while the support is genuinely small). An
    /// access backing ([`QueryEngine::with_access`]) never densifies.
    /// `1.0` never densifies.
    pub density_cutoff: f64,
    /// The 8-lane sweep's density cutoff. A dense step's cost is
    /// amortized over 8 lanes, so the union frontier profits from staying
    /// sparse longer — the default (0.25) is higher than the one-lane
    /// `density_cutoff`.
    pub batch_density_cutoff: f64,
    /// Ignored: every sweep gives a query the same bits alone, in any
    /// batch, at either lane width and on either backing. Kept only so
    /// existing struct literals that name it still build.
    pub deterministic: bool,
}

impl Default for QueryEngineOptions {
    fn default() -> Self {
        QueryEngineOptions {
            kind: SeriesKind::Geometric,
            density_cutoff: 0.125,
            batch_density_cutoff: 0.25,
            deterministic: false,
        }
    }
}

impl QueryEngineOptions {
    /// A stable 64-bit key over every option that can change query
    /// *results*: the series kind (the cutoffs change no bit).
    /// Unlike `Hash`, the value is fixed across processes and releases of
    /// the standard library, so it is safe to persist or to key a result
    /// cache shared between runs. Combine with
    /// [`SimStarParams::stable_key`] for a full result-identity key.
    pub fn stable_key(&self) -> u64 {
        let h = crate::params::fnv1a(crate::params::Fnv1a::BASIS);
        h.push(match self.kind {
            SeriesKind::Geometric => 1,
            SeriesKind::Exponential => 2,
        })
        .0
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

    /// Adds `c` to lane `lane` of `node` — a query's seed at weight `c`,
    /// skipped at `c = 0` as [`Self::axpy_from`] skips it.
    fn seed(&mut self, node: u32, lane: usize, c: f64) {
        if c != 0.0 {
            let mut unit = [0.0; W];
            unit[lane] = 1.0;
            self.add_scaled(node, c, &unit);
        }
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

    /// Resizes a cleared frontier to `n` nodes.
    fn resize(&mut self, n: usize) {
        debug_assert!(!self.dense && self.active.is_empty(), "pooled frontiers are cleared");
        resize_exact(&mut self.vals, n, [0.0; W]);
        if W > 1 {
            resize_exact(&mut self.member, n, false);
        }
    }

    /// Bytes allocated for the values, the active list and the bitmap.
    fn bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<[f64; W]>()
            + self.active.capacity() * std::mem::size_of::<u32>()
            + self.member.capacity()
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

/// Reusable state of one `W`-lane sweep, `K + 2` frontiers (≈
/// `(K+2)·8·W·n` bytes), and the row its lanes are copied out through.
/// Pooled per width: no allocation on the hot path after warmup.
struct BlockScratch<const W: usize> {
    /// The forward pass's iterate `u_θ`, then `r` of the Horner pass; holds
    /// the folded result until [`Self::emit`] hands it out and clears it.
    w: BlockFrontier<W>,
    /// What each advance of `w` writes, swapped into `w` after it.
    w_next: BlockFrontier<W>,
    /// `vs[λ]` accumulates `V_λ = Σ_θ c[θ][λ]·u_θ` for `λ < K` during the
    /// forward pass; cleared (cost proportional to support) by the Horner
    /// pass that consumes them. `V_K = c[0][K]·e_q` is seeded into `w`
    /// instead.
    vs: Vec<BlockFrontier<W>>,
    /// All-zero `n`-row that a `W > 1` result's lanes are copied through
    /// one at a time (unused at `W = 1`, where `w.vals` is the row).
    row: Vec<f64>,
}

impl<const W: usize> BlockScratch<W> {
    fn new(n: usize, k: usize) -> Self {
        BlockScratch {
            w: BlockFrontier::new(n),
            w_next: BlockFrontier::new(n),
            vs: (0..k).map(|_| BlockFrontier::new(n)).collect(),
            row: if W == 1 { Vec::new() } else { vec![0.0; n] },
        }
    }

    /// Fits a pooled (so cleared) set to `n` nodes and `k` iterations: a
    /// no-op for a set that already fits.
    fn resize(&mut self, n: usize, k: usize) {
        self.vs.truncate(k);
        for f in [&mut self.w, &mut self.w_next].into_iter().chain(&mut self.vs) {
            f.resize(n);
        }
        self.vs.resize_with(k, || BlockFrontier::new(n));
        if W > 1 {
            resize_exact(&mut self.row, n, 0.0);
        }
    }

    /// Bytes the set holds: every frontier plus the copy-out row.
    fn bytes(&self) -> usize {
        [&self.w, &self.w_next].into_iter().chain(&self.vs).map(BlockFrontier::bytes).sum::<usize>()
            + self.row.capacity() * std::mem::size_of::<f64>()
    }

    /// Hands the folded result of `queries` (lane `i` holds `queries[i]`)
    /// to `sink` as lanes `first + i`, then clears `w`.
    fn emit(&mut self, queries: &[NodeId], first: usize, sink: &mut LaneSink<'_>) {
        let BlockScratch { w, row, .. } = self;
        match sink {
            LaneSink::TopK(k, f) => {
                for (lane, ranked) in rank_lanes(&w.vals, queries, *k).into_iter().enumerate() {
                    f(first + lane, ranked);
                }
            }
            LaneSink::Rows(f) if W == 1 => f(first, w.vals.as_flattened()),
            LaneSink::Rows(f) => {
                for lane in 0..queries.len() {
                    // Every lane shares the union support, so each copy
                    // overwrites all of the previous lane's entries.
                    copy_lane_into(w, lane, row);
                    f(first + lane, row);
                }
                if w.dense {
                    row.fill(0.0);
                } else {
                    for &i in &w.active {
                        row[i as usize] = 0.0;
                    }
                }
            }
        }
        w.clear();
    }
}

/// `v.resize(n, fill)` with growth reserved exactly: a plain resize may
/// double the allocation to add the few nodes of an edge delta.
fn resize_exact<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.reserve_exact(n.saturating_sub(v.len()));
    v.resize(n, fill);
}

/// Where a sweep hands each occupied lane's result: lane `i` is the `i`-th
/// query of the call.
pub(crate) enum LaneSink<'a> {
    /// `f(i, row)`: the full `n`-row, zero off the support.
    Rows(&'a mut dyn FnMut(usize, &[f64])),
    /// `f(i, ranked)`: the top-`k` matches ([`rank_lanes`]).
    TopK(usize, &'a mut dyn FnMut(usize, Vec<(NodeId, f64)>)),
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
/// guarantees, which is what makes results independent of the backing).
/// A sparse advance pushes the rows of its operator; a dense step pushes
/// them for every nonzero node ([`scatter`]) or gathers the rows of the
/// transpose ([`gather`]).
trait PushRows {
    fn push_row(&self, i: u32, f: impl FnMut(u32, f64));
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
    #[inline]
    fn push_row(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        let w = self.inv_in[i as usize];
        if w != 0.0 {
            self.adj.for_each_in(i, &mut |y| f(y, w));
        }
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
/// [`ssr_linalg::Csr::backward_transition`] computes it, written over
/// `into`. Shared by both backings, so both push the same bits.
fn inv_in_degrees(src: &dyn NeighborAccess, mut into: Vec<f64>) -> Vec<f64> {
    into.clear();
    into.reserve_exact(src.node_count());
    into.extend((0..src.node_count() as u32).map(|v| match src.in_degree(v) {
        0 => 0.0,
        d => 1.0 / d as f64,
    }));
    into
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
    /// one-lane sweep, 8 for a multi-lane one).
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

/// Idle sweep sets of one-lane and 8-lane sweeps, shared by every engine
/// built with [`QueryEngine::sharing_scratch_with`]. A set fits the engine
/// that last checked it out; the next checkout resizes it if its node or
/// iteration count differs.
#[derive(Default)]
struct ScratchPool {
    solo: Mutex<Vec<BlockScratch<1>>>,
    block: Mutex<Vec<BlockScratch<LANES>>>,
}

/// The [`ScratchPool`]'s sets of one lane width.
trait Pooled: Sized {
    fn sets(pool: &ScratchPool) -> &Mutex<Vec<Self>>;
}

impl Pooled for BlockScratch<1> {
    fn sets(pool: &ScratchPool) -> &Mutex<Vec<Self>> {
        &pool.solo
    }
}

impl Pooled for BlockScratch<LANES> {
    fn sets(pool: &ScratchPool) -> &Mutex<Vec<Self>> {
        &pool.block
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
    params: SimStarParams,
    opts: QueryEngineOptions,
    /// Weakly-connected component label per node: batches are chunked by
    /// component so the lanes of a chunk share frontier support (lanes
    /// outside a node's component are provably zero — packing unrelated
    /// queries together wastes 7/8 of every lane operation). Filled by
    /// the first call of more than [`LANES`] queries, the only calls whose
    /// chunks grouping can change ([`Self::components`]).
    component: OnceLock<Vec<u32>>,
    /// Scratch sets of one-lane and 8-lane sweeps, possibly shared with
    /// the engines of other graph versions.
    scratch: Arc<ScratchPool>,
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
    /// `1/|I(v)|` weights and the lattice coefficient table.
    pub fn with_options(g: &DiGraph, params: SimStarParams, opts: QueryEngineOptions) -> Self {
        Self::from_graph(g.clone(), params, opts)
    }

    /// Builds an engine like [`QueryEngine::with_options`], but moves `g`
    /// in instead of copying it.
    pub fn from_graph(g: DiGraph, params: SimStarParams, opts: QueryEngineOptions) -> Self {
        Self::from_graph_into(g, params, opts, Vec::new())
    }

    /// [`QueryEngine::from_graph`], with the `1/|I(v)|` weights written
    /// over `spare_weights` (whatever it holds), which grows only if its
    /// capacity is below the node count. Handed the weights of a retired
    /// engine ([`QueryEngine::into_graph_parts`]) and a graph built in its
    /// arrays, the build of an engine over a same-sized graph allocates
    /// nothing `O(n)`.
    pub fn from_graph_into(
        g: DiGraph,
        params: SimStarParams,
        opts: QueryEngineOptions,
        spare_weights: Vec<f64>,
    ) -> Self {
        let inv_in = inv_in_degrees(&g, spare_weights);
        Self::build(Backing::Memory(g), inv_in, params, opts)
    }

    /// This engine, drawing its sweep scratch from `other`'s pool instead
    /// of its own, so neither faults in a set the other left idle: a set
    /// `other` returns from a sweep still running lands where this engine
    /// looks, and dropping `other` frees no scratch this engine can use. A
    /// checkout resizes a set made for a different node or iteration
    /// count. Pooled frontiers are always left cleared, so a shared set
    /// gives the same bits as a fresh one.
    pub fn sharing_scratch_with(mut self, other: &QueryEngine) -> Self {
        self.scratch = Arc::clone(&other.scratch);
        self
    }

    /// Takes an in-memory engine apart into its graph and its `1/|I(v)|`
    /// weights, for a later build to reuse; `None` on an access backing.
    /// The rest is dropped, scratch included unless another engine shares
    /// the pool ([`QueryEngine::sharing_scratch_with`]).
    pub fn into_graph_parts(self) -> Option<(DiGraph, Vec<f64>)> {
        match self.backing {
            Backing::Memory(g) => Some((g, self.inv_in)),
            Backing::Access(_) => None,
        }
    }

    /// Builds an engine over a [`NeighborAccess`] backing instead of an
    /// in-memory [`DiGraph`] — the memory-bounded serving path: adjacency
    /// is decoded on demand (e.g. straight off a compressed `.ssg`
    /// mapping) and the engine's own resident state is `O(n)` (the
    /// `1/|I(v)|` weights, plus the component labels once a call of more
    /// than 8 queries has built them), never `O(m)`. The build reads the
    /// in-degrees only: no out-list is decoded until a query needs it.
    ///
    /// Results are **bit-identical** to the in-memory engine's: both
    /// backings push the same weights in the same ascending-id order, so
    /// the floating-point accumulation order coincides exactly. Sweeps on
    /// this backing never densify (the density cutoffs are ignored): a
    /// dense step would decode every adjacency list, and measured slower
    /// than staying sparse.
    pub fn with_access(
        src: Arc<dyn NeighborAccess>,
        params: SimStarParams,
        opts: QueryEngineOptions,
    ) -> Self {
        let inv_in = inv_in_degrees(&*src, Vec::new());
        Self::build(Backing::Access(src), inv_in, params, opts)
    }

    fn build(
        backing: Backing,
        inv_in: Vec<f64>,
        params: SimStarParams,
        opts: QueryEngineOptions,
    ) -> Self {
        params.validate();
        for cutoff in [opts.density_cutoff, opts.batch_density_cutoff] {
            assert!((0.0..=1.0).contains(&cutoff), "density cutoffs must be fractions in [0, 1]");
        }
        QueryEngine {
            n: inv_in.len(),
            backing,
            inv_in,
            coeffs: lattice_coeffs(&length_weights(&params, opts.kind)),
            params,
            opts,
            component: OnceLock::new(),
            scratch: Arc::default(),
            stats: EngineStats::default(),
        }
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The graph the engine sweeps, or `None` when it computes over an
    /// on-demand [`NeighborAccess`] backing.
    pub fn graph(&self) -> Option<&DiGraph> {
        match &self.backing {
            Backing::Memory(g) => Some(g),
            Backing::Access(_) => None,
        }
    }

    /// Bytes of graph-proportional state this engine holds resident: the
    /// backing (the graph copy's adjacency in both directions, or the
    /// access source's own accounting), the `O(n)` weight vector, and the
    /// component labels once a call of more than 8 queries has built
    /// them. Scratch pools ([`Self::scratch_bytes`]) and coefficient tables
    /// (`O(K²)`) are excluded — they are query-, not graph-, proportional.
    pub fn resident_bytes(&self) -> usize {
        let backing = match &self.backing {
            Backing::Memory(g) => g.estimated_bytes(),
            Backing::Access(src) => src.resident_bytes(),
        };
        backing
            + self.inv_in.len() * std::mem::size_of::<f64>()
            + self.component.get().map_or(0, |c| c.len() * std::mem::size_of::<u32>())
    }

    /// Bytes held by the idle sweep sets in this engine's scratch pool
    /// (shared with [`Self::sharing_scratch_with`]), at their allocated
    /// capacity; a set a running sweep holds is not counted. A `W`-lane
    /// set is `K + 2` frontiers of `n·W·8` bytes plus their active lists:
    /// at `n = 16,500` and `K = 5`, about 7.8 MB for an 8-lane set and
    /// 1.1 MB for a one-lane one.
    pub fn scratch_bytes(&self) -> usize {
        fn idle<const W: usize>(pool: &ScratchPool) -> usize
        where
            BlockScratch<W>: Pooled,
        {
            let sets = BlockScratch::<W>::sets(pool).lock().expect("scratch pool poisoned");
            sets.iter().map(BlockScratch::bytes).sum()
        }
        idle::<1>(&self.scratch) + idle::<LANES>(&self.scratch)
    }

    /// The parameters the engine was built with.
    pub fn params(&self) -> &SimStarParams {
        &self.params
    }

    /// Frozen lifetime work counters — see [`EngineStatsSnapshot`].
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
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
        let mut copy = |_, row: &[f64]| out.copy_from_slice(row);
        self.for_each_lane(&[q], None, None, LaneSink::Rows(&mut copy));
    }

    /// Top-`k` most-similar nodes to `q`: descending score, ties broken by
    /// ascending id, `q` itself excluded, `k` clamped to `n − 1`. Ranked in
    /// one pass over the folded sweep (see the module docs), no row sort.
    /// Panics if a score is NaN.
    pub fn top_k(&self, q: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.top_k_batch_inner(&[q], k, None, None).remove(0)
    }

    /// Batched single-source scores: row `i` of the result is
    /// `ŝ(queries[i], ·)`. Queries run in chunks of up to 8 (see the
    /// module docs for how a chunk's lane width is picked), so a full
    /// chunk reads each adjacency index once for all its queries — sparse
    /// pushes and dense gathers alike.
    pub fn query_batch(&self, queries: &[NodeId]) -> Dense {
        let mut out = Dense::zeros(queries.len(), self.n);
        let mut copy = |i: usize, row: &[f64]| out.row_mut(i).copy_from_slice(row);
        self.for_each_lane(queries, None, None, LaneSink::Rows(&mut copy));
        out
    }

    /// Batched top-`k`: entry `i` is [`Self::top_k`]`(queries[i], k)`.
    /// Each chunk ranks all its lanes in one pass over its folded sweep, so
    /// no lane is copied out and no `queries × n` matrix is built.
    pub fn top_k_batch(&self, queries: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_inner(queries, k, None, None)
    }

    /// [`Self::top_k_batch`] with per-advance introspection appended to
    /// `trace`. The ranked lists are bitwise identical to the untraced
    /// call (ranking is a pure function of the swept rows).
    pub fn top_k_batch_traced(
        &self,
        queries: &[NodeId],
        k: usize,
        trace: &mut EngineTrace,
    ) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_inner(queries, k, None, Some(trace))
    }

    /// [`Self::top_k_batch`] with every chunk swept at `width` lanes
    /// (`1` or `8`) whatever its size — the hook behind the
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
        let mut keep = |i: usize, list| ranked[i] = list;
        self.for_each_lane(queries, width, trace, LaneSink::TopK(k, &mut keep));
        ranked
    }

    /// Sweeps `queries` and hands query `i`'s result to `sink` as lane `i`
    /// (see [`Self::sweep_lanes`]). Lanes run in `(node, i)` order. A call
    /// of more than [`LANES`] queries first groups them by
    /// weakly-connected component, so the lanes of each chunk overlap in
    /// support; a smaller call is one chunk either way. Both orders agree
    /// within a component, and a frontier node only ever holds values for
    /// lanes of its own component, so the grouping changes execution only —
    /// never a result's bits, nor which result belongs to which query.
    fn for_each_lane(
        &self,
        queries: &[NodeId],
        width: Option<usize>,
        trace: Option<&mut EngineTrace>,
        mut sink: LaneSink<'_>,
    ) {
        for &q in queries {
            assert!((q as usize) < self.n, "query node out of range");
        }
        let component = (queries.len() > LANES).then(|| self.components());
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| {
            let q = queries[i];
            (component.map_or(0, |c| c[q as usize]), q, i)
        });
        let lanes: Vec<NodeId> = order.iter().map(|&i| queries[i]).collect();
        match &mut sink {
            LaneSink::Rows(f) => self.sweep_lanes(
                &lanes,
                width,
                trace,
                LaneSink::Rows(&mut |lane, row| f(order[lane], row)),
            ),
            LaneSink::TopK(k, f) => self.sweep_lanes(
                &lanes,
                width,
                trace,
                LaneSink::TopK(*k, &mut |lane, list| f(order[lane], list)),
            ),
        }
    }

    /// The weakly-connected component label of every node, computed on
    /// first use. An access backing streams its out-lists one at a time;
    /// the union-find keeps the smaller root, so labels are
    /// edge-order-independent and equal to the in-memory engine's.
    fn components(&self) -> &[u32] {
        self.component.get_or_init(|| {
            let wcc = match &self.backing {
                Backing::Memory(g) => weakly_connected_components(g),
                Backing::Access(src) => weakly_connected_components_from_edges(
                    self.n,
                    (0..self.n as u32)
                        .flat_map(|v| src.out_neighbors_vec(v).into_iter().map(move |w| (v, w))),
                ),
            };
            wcc.label
        })
    }

    /// Sweeps `queries` and hands lane `i`'s result, for `queries[i]`, to
    /// `sink`. The queries are cut in order into chunks of [`LANES`]; a
    /// chunk runs at `width` lanes if given, else by its size alone: one
    /// 8-lane sweep above [`SOLO_CROSSOVER`] queries, one one-lane sweep
    /// per query otherwise. Shared by every entry point of this engine and
    /// by the all-pairs engine's parallel workers (`&self` only touches
    /// shared immutable state; each chunk takes its own pooled scratch).
    pub(crate) fn sweep_lanes(
        &self,
        queries: &[NodeId],
        width: Option<usize>,
        mut trace: Option<&mut EngineTrace>,
        mut sink: LaneSink<'_>,
    ) {
        for (first, chunk) in (0..).step_by(LANES).zip(queries.chunks(LANES)) {
            match width.unwrap_or(if chunk.len() > SOLO_CROSSOVER { LANES } else { 1 }) {
                1 => self.with_scratch::<1, _>(|s| {
                    for (i, q) in chunk.iter().enumerate() {
                        let q = std::slice::from_ref(q);
                        self.sweep(q, s, trace.as_deref_mut());
                        s.emit(q, first + i, &mut sink);
                    }
                }),
                LANES => self.with_scratch::<LANES, _>(|s| {
                    self.sweep(chunk, s, trace.as_deref_mut());
                    s.emit(chunk, first, &mut sink);
                }),
                w => panic!("lane width {w} is not built; use 1 or {LANES}"),
            }
        }
    }

    /// Runs `f` on a scratch set from the width's pool, fitted to this
    /// engine (see [`ScratchPool`]), returning it after.
    fn with_scratch<const W: usize, R>(&self, f: impl FnOnce(&mut BlockScratch<W>) -> R) -> R
    where
        BlockScratch<W>: Pooled,
    {
        let (n, k) = (self.n, self.params.iterations);
        let sets = BlockScratch::<W>::sets(&self.scratch);
        let idle = sets.lock().expect("scratch pool poisoned").pop();
        let mut s = idle.unwrap_or_else(|| BlockScratch::new(n, k));
        s.resize(n, k);
        let out = f(&mut s);
        sets.lock().expect("scratch pool poisoned").push(s);
        out
    }

    /// The sweep behind every query, for one lane per query (at most `W`),
    /// over the backing's row views. The in-memory backing densifies a
    /// frontier past the width's density cutoff; an access backing passes
    /// a cutoff of `n`, which no frontier exceeds, so it never does.
    fn sweep<const W: usize>(
        &self,
        queries: &[NodeId],
        s: &mut BlockScratch<W>,
        trace: Option<&mut EngineTrace>,
    ) {
        let inv_in = &self.inv_in;
        match &self.backing {
            Backing::Memory(g) => {
                let cutoff =
                    if W == 1 { self.opts.density_cutoff } else { self.opts.batch_density_cutoff };
                self.sweep_with(
                    queries,
                    s,
                    &QRows { adj: g, inv_in },
                    &QtRows { adj: g, inv_in },
                    (cutoff * self.n as f64) as usize,
                    trace,
                )
            }
            Backing::Access(src) => self.sweep_with(
                queries,
                s,
                &QRows { adj: &**src, inv_in },
                &QtRows { adj: &**src, inv_in },
                self.n,
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
    /// ulps per entry. Both passes advance in `s.w` and `s.w_next`, and
    /// the Horner pass starts from `V_K = c[0][K]·e_q` seeded into `s.w`,
    /// so only `V_0 … V_{K−1}` are stored.
    ///
    /// `q_rows` pushes `Q` rows (u-advance) and `qt_rows` pushes `Qᵀ` rows
    /// (Horner advance). A frontier past `cutoff` active nodes turns dense.
    /// Once dense, the u-advance pushes the `Q` row of every nonzero node;
    /// the multi-lane Horner advance gathers `Q` rows, while the one-lane
    /// one pushes the `Qᵀ` row of every nonzero node (a frontier just past
    /// the cutoff is still mostly zero, and a gather would read every
    /// edge). Every dense step adds each output's products in the ascending
    /// source order of the sorted sparse push, so where a sweep densifies
    /// changes no bit. Leaves the folded result in `s.w` (lane-major) for
    /// [`BlockScratch::emit`]; every other scratch frontier is left
    /// cleared. With `trace` set, every advance is individually timed and
    /// recorded — strictly between advances, so traced results stay bitwise
    /// identical to untraced ones.
    fn sweep_with<const W: usize, Q: PushRows, Qt: PushRows>(
        &self,
        queries: &[NodeId],
        s: &mut BlockScratch<W>,
        q_rows: &Q,
        qt_rows: &Qt,
        cutoff: usize,
        mut trace: Option<&mut EngineTrace>,
    ) {
        debug_assert!(queries.len() <= W);
        let k = self.params.iterations;
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
        // Forward pass, u_θ = e_qᵀQ^θ living in the w scratch:
        // V_λ += c[θ][λ]·u_θ for λ ≤ K−θ, except V_K = c[0][K]·u_0.
        for (lane, &q) in queries.iter().enumerate() {
            s.w.seed(q, lane, 1.0);
        }
        for theta in 0..=k {
            for (lambda, vl) in s.vs.iter_mut().take(k + 1 - theta).enumerate() {
                vl.axpy_from(&s.w, self.coeffs[theta][lambda]);
            }
            if theta == k {
                break;
            }
            // u ← u·Q: push over the active Q rows, or over every nonzero
            // node's Q row once dense.
            let started = timed.then(Instant::now);
            advance(q_rows, &mut s.w, &mut s.w_next, cutoff, |x, y| scatter::<W>(q_rows, x, y));
            record(&s.w, 0, theta, started);
            if s.w.is_zero() {
                break;
            }
        }
        s.w.clear();
        // Horner pass (λ descending): r ← r·Qᵀ + V_λ in the w scratch,
        // from r = V_K seeded at each lane's query node (0 + c·1, the bits
        // a stored V_K would add). An all-zero r skips its advance.
        for (lane, &q) in queries.iter().enumerate() {
            s.w.seed(q, lane, self.coeffs[0][k]);
        }
        for lambda in (0..k).rev() {
            if !s.w.is_zero() {
                // r ← r·Qᵀ: push over Qᵀ rows, or gather over Q rows.
                let started = timed.then(Instant::now);
                advance(qt_rows, &mut s.w, &mut s.w_next, cutoff, |x, y| {
                    if W == 1 {
                        scatter::<W>(qt_rows, x, y)
                    } else {
                        gather::<W>(q_rows, x, y)
                    }
                });
                record(&s.w, 1, lambda, started);
            }
            s.w.axpy_from(&s.vs[lambda], 1.0);
            s.vs[lambda].clear();
        }
        self.stats.flush(queries.len() as u64, W as u64, &tally);
    }
}

/// Length weights `weight(l)` for `l ≤ K` of the selected series.
fn length_weights(params: &SimStarParams, kind: SeriesKind) -> Vec<f64> {
    match kind {
        SeriesKind::Geometric => geometric_weights(params.c, params.iterations),
        SeriesKind::Exponential => exponential_weights(params.c, params.iterations),
    }
}

/// A dense step in gather form: `y[i] = Σ_j A[i][j]·x[j]` lane-wise for
/// every node `i`, over `rows` of `A`. Every entry of `y` is overwritten.
fn gather<const W: usize>(rows: &impl PushRows, x: &[[f64; W]], y: &mut [[f64; W]]) {
    for (i, dst) in (0..).zip(y) {
        let mut acc = [0.0; W];
        rows.push_row(i, |j, v| {
            for (a, s) in acc.iter_mut().zip(&x[j as usize]) {
                *a += v * s;
            }
        });
        *dst = acc;
    }
}

/// A dense step in scatter form: `y += x·A` lane-wise, pushing row `i`
/// of `A` for every node `i` whose lanes are not all zero. Each output
/// node receives its products in ascending source order, exactly as the
/// gather form over the rows of `Aᵀ` sums them and as a sorted sparse push
/// adds them, so every form gives the same bits; skipping the zero rows
/// makes a just-densified frontier cost only its support's edges.
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
/// entry and is left cleared on exit. A sparse frontier's active list is
/// sorted before the push, so every slot accumulates its products in
/// ascending source order — the order the dense steps use too — and lane
/// results are independent of what the other lanes hold and of the width.
fn advance<const W: usize>(
    rows: &impl PushRows,
    cur: &mut BlockFrontier<W>,
    next: &mut BlockFrontier<W>,
    cutoff: usize,
    dense_step: impl Fn(&[[f64; W]], &mut [[f64; W]]),
) {
    if cur.dense {
        // `next` is cleared ⇒ all-zero, which a kernel may accumulate into.
        dense_step(&cur.vals, &mut next.vals);
        next.dense = true;
    } else {
        debug_assert!(!next.dense && next.active.is_empty());
        cur.active.sort_unstable();
        for &i in &cur.active {
            let src = cur.vals[i as usize];
            rows.push_row(i, |j, v| next.add_scaled(j, v, &src));
        }
        if next.active.len() > cutoff {
            next.densify();
        }
    }
    std::mem::swap(cur, next);
    next.clear();
}

/// Ranks every lane of a folded frontier in one ascending pass over its
/// nodes: entry `i` holds the `k` best `(node, score)` pairs of lane `i`,
/// skipping `queries[i]` itself, by descending score and then ascending
/// id — exactly the head of a full sort of that lane. `k` is clamped to
/// `n − 1` before anything is allocated.
///
/// Each lane keeps a threshold: its `k`-th best score so far, `−∞` until it
/// holds `k` entries, `+∞` for an unoccupied lane. A node that beats no
/// threshold costs one `W`-wide compare. A winner enters its lane's
/// buffer, which fills unsorted to `k` entries, is then heapified once
/// with the lowest-ranked entry on top, and from then on swaps out its
/// top; the survivors are sorted once at the end. The pass runs in
/// ascending id, so a node that only ties the `k`-th score ranks below
/// every entry held and never enters. Panics if a score is NaN.
// `!(v <= t)` rather than `v > t`: a NaN then counts as a winner, which
// sends it to the check below at no cost to the compare.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn rank_lanes<const W: usize>(
    vals: &[[f64; W]],
    queries: &[NodeId],
    k: usize,
) -> Vec<Vec<(NodeId, f64)>> {
    debug_assert!(queries.len() <= W);
    let k = k.min(vals.len().saturating_sub(1));
    let mut ranked: Vec<Vec<(NodeId, f64)>> =
        queries.iter().map(|_| Vec::with_capacity(k)).collect();
    if k == 0 {
        return ranked;
    }
    let mut thr = [f64::INFINITY; W];
    thr[..queries.len()].fill(f64::NEG_INFINITY);
    for (node, x) in (0..).zip(vals) {
        if !x.iter().zip(&thr).fold(false, |hit, (v, t)| hit | !(v <= t)) {
            continue;
        }
        for (lane, list) in ranked.iter_mut().enumerate() {
            let v = x[lane];
            if v <= thr[lane] || node == queries[lane] {
                continue;
            }
            assert!(!v.is_nan(), "finite scores");
            if list.len() < k {
                list.push((node, v));
                if list.len() < k {
                    continue;
                }
                for i in (0..k / 2).rev() {
                    sift_down(list, i);
                }
            } else {
                list[0] = (node, v);
                sift_down(list, 0);
            }
            thr[lane] = list[0].1;
        }
    }
    for list in &mut ranked {
        list.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).expect("finite scores").then(a.0.cmp(&b.0))
        });
    }
    ranked
}

/// Restores the heap below `i`: every entry ranks at or above its parent,
/// so the lowest-ranked entry (lowest score, then highest id) is on top.
fn sift_down(heap: &mut [(NodeId, f64)], mut i: usize) {
    let below = |a: (NodeId, f64), b: (NodeId, f64)| a.1 < b.1 || (a.1 == b.1 && a.0 > b.0);
    loop {
        let mut low = i;
        for c in [2 * i + 1, 2 * i + 2] {
            if c < heap.len() && below(heap[c], heap[low]) {
                low = c;
            }
        }
        if low == i {
            return;
        }
        heap.swap(i, low);
        i = low;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::BLOCK;
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
        // A 3-query batch is at the crossover: three one-lane sweeps.
        engine.top_k_batch(&[0, 1, 2], 2);
        let after_small = engine.stats();
        assert_eq!(after_small.sweeps, 4);
        assert_eq!((after_small.lanes_used, after_small.lane_slots), (4, 4));
        assert!(after_small.iterations > after_one.iterations);
        // 9 queries: one full 8-lane chunk plus a one-lane remainder.
        let queries: Vec<NodeId> = (0..=LANES as NodeId).map(|i| i % 4).collect();
        engine.top_k_batch(&queries, 2);
        let after_wide = engine.stats();
        assert_eq!(after_wide.sweeps, 4 + 9);
        assert_eq!(after_wide.lanes_used, 4 + 9);
        assert_eq!(after_wide.lane_slots, 4 + LANES as u64 + 1);
        // One query past the crossover runs as one 8-lane chunk.
        engine.top_k_batch(&queries[..SOLO_CROSSOVER + 1], 2);
        let after_cross = engine.stats();
        assert_eq!(after_cross.lanes_used - after_wide.lanes_used, SOLO_CROSSOVER as u64 + 1);
        assert_eq!(after_cross.lane_slots - after_wide.lane_slots, LANES as u64);
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
        // cutoff 0 densifies after the first sparse step — the dense path
        // must still match the reference exactly.
        for g in graphs() {
            let p = SimStarParams { c: 0.8, iterations: 5 };
            let opts = QueryEngineOptions { density_cutoff: 0.0, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            for q in 0..g.node_count() as NodeId {
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&engine.query(q), &dense, 1e-12, "forced dense");
            }
        }
    }

    #[test]
    fn batched_rows_match_single_queries() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 5 };
            let engine = QueryEngine::new(&g, p);
            // Every node, then every node again up to a full chunk: both
            // lane widths.
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

    #[test]
    fn batch_wider_than_block_is_consistent() {
        // More rows than two chunks, with repeated query ids.
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
    #[should_panic(expected = "finite scores")]
    fn nan_lane_value_panics() {
        // Lane 1 holds its k = 1 entry (node 0) before the NaN at node 3.
        let mut vals = vec![[0.5; BLOCK]; 4];
        vals[3][1] = f64::NAN;
        rank_lanes(&vals, &[0, 1, 2], 1);
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
        // no 8-lane scratch until a chunk crosses over.
        assert_eq!(pooled(&engine), (1, 0));
        engine.top_k_batch(&[0; BLOCK], 2);
        engine.top_k_batch(&[1; BLOCK], 2);
        assert_eq!(pooled(&engine), (1, 1));
    }

    /// Idle one-lane and 8-lane sets in an engine's pool.
    fn pooled(e: &QueryEngine) -> (usize, usize) {
        (e.scratch.solo.lock().unwrap().len(), e.scratch.block.lock().unwrap().len())
    }

    #[test]
    fn scratch_sets_hold_k_plus_two_frontiers() {
        // A 1,000-node cycle: every iterate's support is one node, so the
        // frontiers' values are nearly all of a set's bytes.
        let n = 1000;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let k = 5;
        let engine = QueryEngine::new(&g, SimStarParams { c: 0.6, iterations: k });
        engine.query(3);
        engine.top_k_batch_at_width(&[0, 100, 200, 300, 400, 500, 600, 700], 3, LANES);
        assert_eq!(pooled(&engine), (1, 1));
        // `w`, `w_next` and the stored `V_0 … V_{K−1}`.
        assert_eq!(engine.scratch.solo.lock().unwrap()[0].vs.len(), k);
        assert_eq!(engine.scratch.block.lock().unwrap()[0].vs.len(), k);
        let frontiers = |count: usize| count * n * 8 * (1 + LANES);
        let bytes = engine.scratch_bytes();
        assert!((frontiers(k + 2)..frontiers(k + 3)).contains(&bytes), "{bytes}");
    }

    #[test]
    fn adopted_scratch_is_resized_and_gives_fresh_engine_bits() {
        let g = mid_density_graph();
        let p = SimStarParams { c: 0.6, iterations: 5 };
        // An edge delta that grows the node range from 300 to 302.
        let (grown, _, _) = g.with_delta(&[(300, 7), (301, 300), (12, 301)], &[]).unwrap();
        let queries: Vec<NodeId> = vec![300, 301, 7, 12, 40, 99, 150, 299];
        let old = QueryEngine::new(&g, p);
        old.top_k_batch_at_width(&queries[2..], 5, LANES);
        old.query(3);
        let held = old.scratch_bytes();
        assert_eq!(pooled(&old), (1, 1));
        let new = QueryEngine::new(&grown, p).sharing_scratch_with(&old);
        assert_eq!((pooled(&new), new.scratch_bytes()), ((1, 1), held), "one pool");
        // Each width's first checkout on the new engine resizes the set.
        new.with_scratch::<1, _>(|s| assert_eq!(s.w.vals.len(), 302));
        new.with_scratch::<LANES, _>(|s| {
            let mut frontiers = s.vs.iter().chain([&s.w, &s.w_next]);
            assert!(frontiers.all(|f| f.vals.len() == 302 && f.member.len() == 302));
            assert_eq!(s.row.len(), 302);
        });
        // Two more nodes grow the sets by under 1%, not by a doubling.
        let grown_bytes = new.scratch_bytes();
        assert!((held + 1..held * 101 / 100).contains(&grown_bytes), "{grown_bytes} vs {held}");
        // The resized sets reach the new nodes and give a fresh engine's
        // bits, at both widths.
        let fresh = QueryEngine::new(&grown, p);
        let rows = |e: &QueryEngine| bits(e.query_batch(&queries).as_slice());
        assert_eq!(rows(&new), rows(&fresh));
        assert_eq!(new.top_k_batch(&queries, 5), fresh.top_k_batch(&queries, 5));
        assert_eq!(bits(&new.query(301)), bits(&fresh.query(301)));
        assert_eq!(pooled(&new), (1, 1), "no set was allocated after the swap");
        // The old engine fits a set back to its own graph, with its bits.
        assert_eq!(bits(&old.query(3)), bits(&QueryEngine::new(&g, p).query(3)));
        assert_eq!(pooled(&old), (1, 1));
    }

    #[test]
    fn a_set_checked_out_across_a_successors_build_lands_in_its_pool() {
        let g = mid_density_graph();
        let p = SimStarParams { c: 0.6, iterations: 5 };
        let (grown, _, _) = g.with_delta(&[(300, 7), (301, 300)], &[]).unwrap();
        let queries: Vec<NodeId> = (0..LANES as NodeId).map(|i| i * 37).collect();
        let a = QueryEngine::new(&g, p);
        // A's 8-lane sweep still holds its set, ranking, when B is built.
        let mut b = None;
        let mut build = |lane: usize, _: Vec<(NodeId, f64)>| {
            if lane == 0 {
                b = Some(QueryEngine::new(&grown, p).sharing_scratch_with(&a));
            }
        };
        a.sweep_lanes(&queries, Some(LANES), None, LaneSink::TopK(5, &mut build));
        let b = b.expect("the sink ran");
        assert_eq!(pooled(&b), (0, 1), "A's set went back to the shared pool");
        let fresh = QueryEngine::new(&grown, p);
        let ranked = |e: &QueryEngine| e.top_k_batch_at_width(&queries, 5, LANES);
        assert_eq!(ranked(&b), ranked(&fresh));
        assert_eq!(pooled(&b), (0, 1), "B's call reused A's set");
        let held = b.scratch_bytes();
        drop(a);
        assert_eq!(b.scratch_bytes(), held, "dropping A freed none of B's scratch");
    }

    /// Every node's row, swept at `width` lanes.
    fn rows_at_width(e: &QueryEngine, width: usize) -> Vec<Vec<u64>> {
        let queries: Vec<NodeId> = (0..e.node_count() as NodeId).collect();
        let mut rows = vec![Vec::new(); queries.len()];
        let mut keep = |i: usize, row: &[f64]| rows[i] = bits(row);
        e.sweep_lanes(&queries, Some(width), None, LaneSink::Rows(&mut keep));
        rows
    }

    #[test]
    fn small_k_and_dying_frontiers_match_the_dense_reference() {
        // On a path, and on graphs()[1], the forward frontier of every
        // query dies within five steps, before K = 6.
        let path = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let dying = [path, graphs().remove(1)];
        let cases = graphs()
            .into_iter()
            .flat_map(|g| [0, 1, 2].map(|k| (g.clone(), k)))
            .chain(dying.into_iter().flat_map(|g| [0, 1, 2, 6].map(|k| (g.clone(), k))));
        for (g, k) in cases {
            for kind in [SeriesKind::Geometric, SeriesKind::Exponential] {
                let p = SimStarParams { c: 0.6, iterations: k };
                let opts = QueryEngineOptions { kind, ..Default::default() };
                let mem = QueryEngine::with_options(&g, p, opts.clone());
                let acc = QueryEngine::with_access(access_of(&g), p, opts);
                let want = rows_at_width(&mem, 1);
                for (q, row) in (0..).zip(&want) {
                    let dense = match kind {
                        SeriesKind::Geometric => single_source_dense(&g, q, &p),
                        SeriesKind::Exponential => single_source_exponential_dense(&g, q, &p),
                    };
                    let row: Vec<f64> = row.iter().map(|&b| f64::from_bits(b)).collect();
                    assert_rows_close(&row, &dense, 1e-10, &format!("{kind:?} K={k} q={q}"));
                    if k == 0 {
                        // The whole answer is the seeded V_K = c[0][0]·e_q.
                        let mut seed = vec![0.0; g.node_count()];
                        seed[q as usize] = mem.coeffs[0][0];
                        assert_eq!(bits(&row), bits(&seed), "{kind:?} q={q}");
                    }
                }
                for (e, width) in [(&mem, LANES), (&acc, 1), (&acc, LANES)] {
                    assert_eq!(rows_at_width(e, width), want, "{kind:?} K={k} width {width}");
                }
            }
        }
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
        // The access backing never densifies: its rows are the pure sparse
        // push's.
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let engine = QueryEngine::with_access(access_of(&g), p, Default::default());
            for q in 0..g.node_count() as NodeId {
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&engine.query(q), &dense, 1e-10, "access");
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
            let mem = QueryEngine::new(&g, p);
            let acc = QueryEngine::with_access(access_of(&g), p, Default::default());
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
        let dense = QueryEngine::new(&g, p);
        let never = QueryEngineOptions {
            density_cutoff: 1.0,
            batch_density_cutoff: 1.0,
            ..Default::default()
        };
        let sparse = QueryEngine::with_options(&g, p, never);
        let acc = QueryEngine::with_access(access_of(&g), p, Default::default());
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
        assert_eq!(acc.stats().dense_steps, 0, "access sweeps never densify");
    }

    #[test]
    fn stable_keys_separate_result_identities() {
        let a = QueryEngineOptions::default();
        assert_eq!(a.stable_key(), QueryEngineOptions::default().stable_key());
        let exp = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
        assert_ne!(a.stable_key(), exp.stable_key());
        // The cutoffs only move where the sweep densifies: same key, same
        // bits.
        let g = mid_density_graph();
        let p = SimStarParams { c: 0.6, iterations: 5 };
        // Two 8-lane chunks and two one-lane sweeps.
        let queries: Vec<NodeId> = (0..2 * LANES as NodeId + 2).map(|i| i * 11).collect();
        let want = bits(QueryEngine::new(&g, p).query_batch(&queries).as_slice());
        for (density_cutoff, batch_density_cutoff) in [(0.0, 0.0), (0.5, 0.05), (1.0, 1.0)] {
            let cut = QueryEngineOptions { density_cutoff, batch_density_cutoff, ..a.clone() };
            assert_eq!(a.stable_key(), cut.stable_key(), "{cut:?}");
            let engine = QueryEngine::with_options(&g, p, cut);
            assert_eq!(bits(engine.query_batch(&queries).as_slice()), want);
        }
    }

    fn access_of(g: &DiGraph) -> Arc<dyn NeighborAccess> {
        Arc::new(g.clone())
    }

    #[test]
    fn access_backing_bit_identical_in_deterministic_mode() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            for opts in [
                QueryEngineOptions::default(),
                // Cutoff 0 densifies the in-memory sweeps from the first
                // step; the access backing's stay sparse.
                QueryEngineOptions {
                    density_cutoff: 0.0,
                    batch_density_cutoff: 0.0,
                    ..Default::default()
                },
                QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() },
            ] {
                let mem = QueryEngine::with_options(&g, p, opts.clone());
                let acc = QueryEngine::with_access(access_of(&g), p, opts);
                assert!(acc.graph().is_none() && mem.graph() == Some(&g));
                let n = g.node_count();
                for q in 0..n as NodeId {
                    assert_eq!(bits(&mem.query(q)), bits(&acc.query(q)), "q={q}");
                    assert_eq!(mem.top_k(q, 3), acc.top_k(q, 3), "q={q}");
                }
                // Two full chunks, so the 8-lane dense steps run too.
                let wide: Vec<NodeId> = (0..BLOCK).map(|i| (i % n) as NodeId).collect();
                let (bm, ba) = (mem.query_batch(&wide), acc.query_batch(&wide));
                assert_eq!(bits(bm.as_slice()), bits(ba.as_slice()));
            }
        }
    }

    #[test]
    fn component_labels_are_built_by_the_first_call_that_can_use_them() {
        let g = mid_density_graph();
        let (n, graph_bytes) = (g.node_count(), g.estimated_bytes());
        let engine = QueryEngine::from_graph(g, SimStarParams::default(), Default::default());
        assert_eq!(engine.resident_bytes(), graph_bytes + 8 * n, "weights only");
        let queries: Vec<NodeId> = (0..=LANES as NodeId).map(|i| i * 7).collect();
        engine.top_k_batch(&queries[..LANES], 3);
        assert_eq!(engine.resident_bytes(), graph_bytes + 8 * n, "one chunk needs no labels");
        engine.top_k_batch(&queries, 3);
        assert_eq!(engine.resident_bytes(), graph_bytes + 12 * n, "labels, 4 bytes a node");
    }

    /// A [`DiGraph`] behind [`NeighborAccess`] that counts out-list reads.
    struct CountingAccess {
        g: DiGraph,
        out_reads: AtomicU64,
    }

    impl NeighborAccess for CountingAccess {
        fn node_count(&self) -> usize {
            self.g.node_count()
        }
        fn edge_count(&self) -> usize {
            self.g.edge_count()
        }
        fn out_degree(&self, v: NodeId) -> usize {
            self.g.out_degree(v)
        }
        fn in_degree(&self, v: NodeId) -> usize {
            self.g.in_degree(v)
        }
        fn for_each_out(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
            self.out_reads.fetch_add(1, Ordering::Relaxed);
            NeighborAccess::for_each_out(&self.g, v, f)
        }
        fn for_each_in(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
            NeighborAccess::for_each_in(&self.g, v, f)
        }
        fn resident_bytes(&self) -> usize {
            self.g.estimated_bytes()
        }
    }

    #[test]
    fn access_build_reads_no_out_list() {
        let g = mid_density_graph();
        let src = Arc::new(CountingAccess { g: g.clone(), out_reads: AtomicU64::new(0) });
        let p = SimStarParams::default();
        let engine = QueryEngine::with_access(src.clone(), p, Default::default());
        assert_eq!(src.out_reads.load(Ordering::Relaxed), 0);
        assert_rows_close(&engine.query(5), &QueryEngine::new(&g, p).query(5), 1e-10, "access");
    }

    #[test]
    fn batches_past_one_chunk_still_group_by_component() {
        // Two components interleaved by id (the even and the odd nodes),
        // each a circulant graph, so one query's support spreads through
        // its own component only. Cutoffs at 1.0 keep every frontier
        // sparse, so `frontier_active` counts the union support of a chunk.
        let n = 96u32;
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|v| [2, 6, 10].map(|d| (v, (v + d) % n))).collect();
        let g = DiGraph::from_edges(n as usize, &edges).unwrap();
        let p = SimStarParams::default();
        let opts = QueryEngineOptions {
            density_cutoff: 1.0,
            batch_density_cutoff: 1.0,
            ..Default::default()
        };
        let frontier = |calls: &[&[NodeId]]| {
            let engine = QueryEngine::with_options(&g, p, opts.clone());
            for queries in calls {
                engine.top_k_batch(queries, 3);
            }
            engine.stats().frontier_active
        };
        let alternating: Vec<NodeId> = (0..2 * LANES as NodeId).collect();
        let (even, odd): (Vec<NodeId>, Vec<NodeId>) =
            alternating.iter().partition(|&&q| q % 2 == 0);
        let grouped = frontier(&[&even, &odd]);
        assert_eq!(frontier(&[&alternating]), grouped);
        // Without the grouping, both chunks would span both components.
        let mixed = frontier(&[&alternating[..LANES], &alternating[LANES..]]);
        assert!(mixed > grouped, "{mixed} vs {grouped}");
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
}
