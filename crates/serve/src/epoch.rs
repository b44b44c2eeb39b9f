//! Epoch snapshots: the server's graph + prepared [`QueryEngine`] state
//! behind an atomically swappable handle.
//!
//! A [`Snapshot`] is immutable once published; queries clone the `Arc` and
//! keep computing on it even while an admin `reload`/`edge-delta` builds
//! and publishes a successor — the HTAP-style separation (update path vs
//! read-optimized serving path) that lets graph swaps happen with zero
//! read downtime. A `reload` decodes its file into the new engine's graph
//! ([`EpochStore::reload`]); an `edge-delta` patches the rows it touches
//! in the current engine's graph ([`DiGraph::with_delta_into`]) instead of
//! rebuilding every edge. Either way the new engine shares the current
//! one's sweep scratch pool ([`QueryEngine::sharing_scratch_with`]), as
//! every engine the store builds shares its predecessor's: a flush that
//! straddles a swap returns its set to the pool the successor draws from,
//! and a checkout resizes a set when a delta grew the node range. So a
//! swap neither faults in fresh scratch on the next flush nor frees sets
//! with the retired engine.
//!
//! Writes also reuse the replaced epoch's graph memory. At a swap where no
//! reader still holds the replaced snapshot (`Arc::into_inner` succeeds on
//! it and on its engine), the store keeps that graph's four CSR arrays and
//! its engine's `1/|I(v)|` vector as spares ([`CsrBuffers`],
//! [`QueryEngine::into_graph_parts`]); the engine itself is dropped, its
//! scratch pool living on in its successor. The next write builds into the
//! spares: a delta patches the current graph's rows into them, a `.ssg`
//! reload decodes both directions into them through one section buffer
//! the store keeps, and the new engine fills the spare weight vector. So
//! on an idle server a write of a same-sized graph allocates, faults and
//! frees nothing large; the spares are one graph's arrays, which a write
//! needed at its peak anyway. A write whose replaced snapshot a reader
//! still held at the swap leaves no spares, so the write after it
//! allocates as every write did before; the reader keeps its snapshot
//! untouched and frees it when done. Text-list reloads, permuted stores
//! and [`EpochStore::publish`] build in fresh arrays, as before. Swaps
//! whose graph was built into spares are counted
//! ([`EpochStore::recycled_swaps`]).
//!
//! The epoch counter is part of every result-cache key and every query
//! response, so answers are always attributable to the exact graph
//! version that produced them.

use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::{CsrBuffers, DiGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published graph version: engine state shared by every query that
/// started while it was current. The engine holds the only copy of the
/// graph ([`Snapshot::graph`]), which the next `edge-delta` patches.
pub struct Snapshot {
    /// Monotonically increasing version number, starting at 0.
    pub epoch: u64,
    /// The prepared engine (cheap to share: queries only touch immutable
    /// state plus internal scratch pools).
    engine: Arc<QueryEngine>,
    /// Node count of the snapshot's graph.
    pub nodes: usize,
    /// Stable result-identity key: params ⊕ engine options (see
    /// [`SimStarParams::stable_key`]); part of every cache key so entries
    /// from one configuration are never served for another.
    pub params_key: u64,
}

impl Snapshot {
    /// The engine every query on this snapshot runs on.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// The graph this snapshot serves: the engine's own adjacency.
    pub fn graph(&self) -> &DiGraph {
        self.engine.graph().expect("snapshot engines are built over an in-memory graph")
    }
}

/// The swappable current-snapshot cell plus the serialized admin path.
pub struct EpochStore {
    /// Readers take the lock only long enough to clone the `Arc`.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes mutations so concurrent deltas can't lose updates; held
    /// across the (potentially slow) engine build, while readers keep
    /// going on the old snapshot. Guards what the next build writes into.
    admin: Mutex<Spares>,
    swaps: AtomicU64,
    recycled: AtomicU64,
    params: SimStarParams,
    opts: QueryEngineOptions,
}

/// What the admin path keeps from one write to the next for the next
/// build to write into (see the module docs).
#[derive(Default)]
struct Spares {
    /// The CSR arrays of the last graph retired with no reader left.
    graph: CsrBuffers,
    /// That graph's engine's `1/|I(v)|` vector.
    weights: Vec<f64>,
    /// The buffer every `.ssg` reload reads its adjacency sections through.
    section: Vec<u8>,
}

impl EpochStore {
    /// Builds epoch 0 from `graph`. Every snapshot's engine is built with
    /// `params` and `opts`; its answers do not depend on how requests are
    /// batched, which the result cache's coherence relies on.
    pub fn new(graph: DiGraph, params: SimStarParams, opts: QueryEngineOptions) -> Self {
        let engine = QueryEngine::from_graph(graph, params, opts.clone());
        let snapshot = build_snapshot(0, engine, &opts);
        EpochStore {
            current: RwLock::new(Arc::new(snapshot)),
            admin: Mutex::new(Spares::default()),
            swaps: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            params,
            opts,
        }
    }

    /// The current snapshot (an `Arc` clone; never blocks on publishes
    /// beyond the brief pointer swap).
    pub fn current(&self) -> Arc<Snapshot> {
        self.current.read().expect("epoch cell poisoned").clone()
    }

    /// Number of epoch swaps published so far.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Number of those swaps whose graph was built into the arrays a
    /// retired graph left as spares (see the module docs).
    pub fn recycled_swaps(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// The parameters every snapshot is built with.
    pub fn params(&self) -> SimStarParams {
        self.params
    }

    /// Builds a snapshot from `graph` and publishes it as the next epoch.
    /// In-flight queries keep their old snapshot; new queries see the new
    /// one as soon as this returns.
    pub fn publish(&self, graph: DiGraph) -> Arc<Snapshot> {
        let mut spares = self.admin.lock().expect("admin lock poisoned");
        self.succeed(&mut spares, graph, false)
    }

    /// Loads the graph at `path`, a `.ssg` store or a text edge list told
    /// apart by content ([`ssr_store::load_graph_auto`]), and publishes it
    /// as the next epoch. An unpermuted store decodes into the spare
    /// arrays, with every check the loader makes.
    ///
    /// # Errors
    /// A file that does not load is refused with the loader's message. The
    /// current epoch stays published, and the spares stay for the next
    /// write.
    pub fn reload(&self, path: &str) -> Result<Arc<Snapshot>, String> {
        let mut spares = self.admin.lock().expect("admin lock poisoned");
        let Spares { graph: spare, section, .. } = &mut *spares;
        let held = spare.capacity_bytes() > 0;
        let graph = ssr_store::load_graph_auto_into(path, spare, section)
            .map_err(|e| format!("reading `{path}`: {e}"))?;
        // A load that built into the spares took all their arrays.
        let recycled = held && spare.capacity_bytes() == 0;
        Ok(self.succeed(&mut spares, graph, recycled))
    }

    /// Applies an edge delta to the current snapshot's graph and publishes
    /// the result. The new graph patches only the rows the delta names
    /// into the spare arrays ([`DiGraph::with_delta_into`]). An edge both
    /// added and removed ends present; adds of present edges and removals
    /// of absent ones are ignored. Added edges may grow the node range by
    /// at most two ids per distinct added edge. Returns the new snapshot
    /// and the number of edges actually added/removed.
    ///
    /// # Errors
    /// A delta past the growth bound is refused before anything is built,
    /// and the current epoch stays published.
    pub fn apply_delta(
        &self,
        add: &[(NodeId, NodeId)],
        remove: &[(NodeId, NodeId)],
    ) -> Result<(Arc<Snapshot>, usize, usize), String> {
        let mut spares = self.admin.lock().expect("admin lock poisoned");
        // An accepted delta always builds into the spares.
        let recycled = spares.graph.capacity_bytes() > 0;
        let (graph, added, removed) = self
            .current()
            .graph()
            .with_delta_into(add, remove, &mut spares.graph)
            .map_err(|e| format!("bad delta: {e}"))?;
        Ok((self.succeed(&mut spares, graph, recycled), added, removed))
    }

    /// Builds the epoch after the current one from `graph` over the spare
    /// weights, sharing the current engine's scratch pool, and publishes
    /// it. If no reader holds the replaced snapshot any more, its graph
    /// arrays and weights become the spares. The caller holds the admin
    /// lock, and says whether `graph` was built into the spares.
    fn succeed(&self, spares: &mut Spares, graph: DiGraph, recycled: bool) -> Arc<Snapshot> {
        let base = self.current();
        let weights = std::mem::take(&mut spares.weights);
        let engine = QueryEngine::from_graph_into(graph, self.params, self.opts.clone(), weights)
            .sharing_scratch_with(&base.engine);
        let snapshot = Arc::new(build_snapshot(base.epoch + 1, engine, &self.opts));
        let replaced = std::mem::replace(
            &mut *self.current.write().expect("epoch cell poisoned"),
            snapshot.clone(),
        );
        self.swaps.fetch_add(1, Ordering::Relaxed);
        if recycled {
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
        drop(base);
        // Fails, and leaves the freeing to the last reader, while anyone
        // still holds the snapshot or its engine.
        if let Some((graph, weights)) = Arc::into_inner(replaced)
            .and_then(|old| Arc::into_inner(old.engine))
            .and_then(QueryEngine::into_graph_parts)
        {
            spares.graph = graph.into_buffers();
            spares.weights = weights;
        }
        snapshot
    }
}

fn build_snapshot(epoch: u64, engine: QueryEngine, opts: &QueryEngineOptions) -> Snapshot {
    let params_key = combine_keys(engine.params().stable_key(), opts.stable_key());
    Snapshot { epoch, nodes: engine.node_count(), engine: Arc::new(engine), params_key }
}

/// Mixes the two stable keys into one (boost-style combine; both halves
/// are already FNV digests).
fn combine_keys(a: u64, b: u64) -> u64 {
    a ^ (b.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(a << 6).wrapping_add(a >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EpochStore {
        let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
        EpochStore::new(g, SimStarParams::default(), QueryEngineOptions::default())
    }

    #[test]
    fn epochs_start_at_zero_and_increase() {
        let s = store();
        assert_eq!(s.current().epoch, 0);
        let g2 = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let snap = s.publish(g2);
        assert_eq!(snap.epoch, 1);
        assert_eq!(s.current().epoch, 1);
        assert_eq!(s.current().nodes, 3);
        assert_eq!(s.swap_count(), 1);
    }

    #[test]
    fn old_snapshot_survives_a_publish() {
        let s = store();
        let old = s.current();
        let g2 = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        s.publish(g2);
        // The retained handle still answers queries on the old graph.
        assert_eq!(old.epoch, 0);
        assert_eq!(old.engine().node_count(), 4);
        assert!(old.engine().query(1)[2] > 0.0);
    }

    #[test]
    fn delta_adds_removes_and_grows_node_range() {
        let s = store();
        let (snap, added, removed) = s.apply_delta(&[(4, 0), (5, 0)], &[(3, 2)]).unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.nodes, 6);
        assert_eq!(added, 2);
        assert_eq!(removed, 1);
        assert!(snap.graph().has_edge(4, 0));
        assert!(!snap.graph().has_edge(3, 2));
        // Removing an absent edge is a no-op, not an error.
        let (_, added, removed) = s.apply_delta(&[], &[(9, 9)]).unwrap();
        assert_eq!((added, removed), (0, 0));
        // Re-adding a present edge adds nothing; a removal named twice
        // removes once; an edge both added and removed stays, counted
        // once each way.
        let (snap, added, removed) =
            s.apply_delta(&[(4, 0), (1, 0)], &[(2, 0), (2, 0), (1, 0)]).unwrap();
        assert_eq!((added, removed), (1, 2));
        assert!(snap.graph().has_edge(4, 0) && snap.graph().has_edge(1, 0));
        assert!(!snap.graph().has_edge(2, 0));
        assert_eq!(snap.graph().edge_count(), 4);
    }

    #[test]
    fn delta_past_the_growth_bound_is_refused() {
        let s = store();
        let Err(err) = s.apply_delta(&[(u32::MAX, 0)], &[]) else { panic!("huge id accepted") };
        assert!(err.contains("4294967295"), "{err}");
        // Two distinct adds may grow 4 nodes to at most 8.
        assert!(s.apply_delta(&[(8, 0), (1, 2)], &[]).is_err());
        assert_eq!((s.current().epoch, s.swap_count()), (0, 0));
        let (snap, added, _) = s.apply_delta(&[(7, 0), (1, 2)], &[]).unwrap();
        assert_eq!((snap.nodes, added), (8, 2));
    }

    #[test]
    fn swaps_hand_the_idle_scratch_to_the_new_engine() {
        let s = store();
        let old = s.current();
        let next = s.publish(DiGraph::from_edges(4, &[(1, 0), (2, 1), (3, 2)]).unwrap());
        // Sweeps on the replaced engine that finish after the swap, as a
        // flush straddling it would, return their sets to the pool the new
        // engine draws from: a one-lane set and an 8-lane one.
        let sweep = |engine: &QueryEngine, nodes: &[NodeId]| {
            (engine.top_k(nodes[0], 2), engine.top_k_batch_at_width(nodes, 2, 8))
        };
        sweep(old.engine(), &[1, 0, 2, 3]);
        let held = next.engine().scratch_bytes();
        assert!(held > 0 && held == old.engine().scratch_bytes(), "one pool");
        sweep(next.engine(), &[1, 0, 2, 3]);
        assert_eq!(next.engine().scratch_bytes(), held, "same n, same sets");
        drop(old);
        assert_eq!(next.engine().scratch_bytes(), held, "retiring an engine frees no scratch");
        // A delta that grows the node range resizes each set on its first
        // checkout, which gives a fresh engine's bits.
        let (grown, _, _) = s.apply_delta(&[(5, 0)], &[]).unwrap();
        assert_eq!(grown.engine().scratch_bytes(), held, "nothing resized before a checkout");
        let fresh = QueryEngine::new(grown.graph(), s.params());
        assert_eq!(sweep(grown.engine(), &[5, 0, 1, 4]), sweep(&fresh, &[5, 0, 1, 4]));
        assert!(grown.engine().scratch_bytes() > held);
    }

    /// A `.ssg` file of `g` in the temp dir, for reloads.
    fn store_file(name: &str, g: &DiGraph) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssr_epoch_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_{name}.ssg", std::process::id()));
        ssr_store::StoreWriter::new(g).write_file(&path).unwrap();
        path
    }

    /// Where a snapshot's out-adjacency array starts.
    fn out_array(snap: &Snapshot) -> usize {
        snap.graph().out_neighbors(0).as_ptr() as usize
    }

    fn answer_bits(engine: &QueryEngine) -> Vec<Vec<(NodeId, u64)>> {
        let nodes: Vec<NodeId> = (0..engine.node_count() as NodeId).collect();
        let ranked = [engine.top_k_batch_at_width(&nodes, 3, 1), engine.top_k_batch(&nodes, 3)];
        ranked.concat().iter().map(|l| l.iter().map(|&(v, s)| (v, s.to_bits())).collect()).collect()
    }

    #[test]
    fn idle_writes_build_into_the_replaced_epochs_arrays() {
        let s = store();
        // Write 1 builds fresh arrays (5 edges); epoch 0's become spares.
        let first = s.apply_delta(&[(0, 3)], &[]).unwrap().0;
        let first_arrays = out_array(&first);
        drop(first);
        // Write 2 patches into epoch 0's arrays; epoch 1's become spares.
        s.apply_delta(&[], &[(0, 3)]).unwrap();
        // Write 3 decodes a store of no more edges into epoch 1's arrays.
        let reloaded = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
        let path = store_file("recycled", &reloaded);
        let third = s.reload(path.to_str().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out_array(&third), first_arrays);
        assert_eq!((third.epoch, s.swap_count(), s.recycled_swaps()), (3, 3, 2));
        assert_eq!(*third.graph(), reloaded);
        let fresh = QueryEngine::new(&reloaded, s.params());
        assert_eq!(answer_bits(third.engine()), answer_bits(&fresh));
    }

    #[test]
    fn a_held_snapshot_keeps_its_answers_and_the_next_write_allocates() {
        let s = store();
        let held = s.current();
        let before = answer_bits(held.engine());
        // Epoch 0 is held across write 1's swap, so it leaves no spares
        // and write 2 allocates.
        s.apply_delta(&[(0, 3)], &[]).unwrap();
        let second = s.apply_delta(&[(1, 2)], &[]).unwrap().0;
        assert_eq!(s.recycled_swaps(), 0);
        assert_ne!(out_array(&second), out_array(&held));
        assert_eq!(answer_bits(held.engine()), before);
        assert_eq!(held.graph().edge_count(), 4);
        drop((held, second));
        // Epoch 1 was free at write 2's swap: write 3 builds into it.
        s.apply_delta(&[(2, 1)], &[]).unwrap();
        assert_eq!(s.recycled_swaps(), 1);
    }

    #[test]
    fn a_failed_reload_keeps_the_epoch_and_the_spares() {
        let s = store();
        let epoch0_arrays = out_array(&s.current());
        s.apply_delta(&[], &[(3, 2)]).unwrap();
        // A store whose in-section fails its checksum after the out-section
        // has decoded into the spares.
        let path = store_file("failing", &DiGraph::from_edges(4, &[(1, 0), (2, 0)]).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let reader = ssr_store::StoreReader::open(&path).unwrap();
        let in_section = reader.sections().iter().find(|s| s.id == ssr_store::format::SECTION_IN);
        bytes[in_section.unwrap().offset as usize] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let Err(err) = s.reload(path.to_str().unwrap()) else { panic!("corrupt store loaded") };
        std::fs::remove_file(&path).ok();
        assert!(err.contains("checksum"), "{err}");
        assert_eq!((s.current().epoch, s.swap_count()), (1, 1));
        assert!(s.reload("/nonexistent/graph.ssg").is_err());
        // The next write still builds into epoch 0's arrays.
        let next = s.apply_delta(&[(0, 3)], &[]).unwrap().0;
        assert_eq!(out_array(&next), epoch0_arrays);
        assert_eq!((next.epoch, s.recycled_swaps()), (2, 1));
    }

    #[test]
    fn params_key_changes_with_params() {
        let g = || DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let a = EpochStore::new(g(), SimStarParams::default(), QueryEngineOptions::default());
        let b = EpochStore::new(
            g(),
            SimStarParams { c: 0.8, iterations: 7 },
            QueryEngineOptions::default(),
        );
        assert_ne!(a.current().params_key, b.current().params_key);
        // Same config ⇒ same key across epochs (cache keys stay valid
        // modulo the epoch component).
        let before = a.current().params_key;
        a.publish(g());
        assert_eq!(a.current().params_key, before);
    }
}
