//! Epoch snapshots: the server's graph + prepared [`QueryEngine`] state
//! behind an atomically swappable handle.
//!
//! A [`Snapshot`] is immutable once published; queries clone the `Arc` and
//! keep computing on it even while an admin `reload`/`edge-delta` builds
//! and publishes a successor — the HTAP-style separation (update path vs
//! read-optimized serving path) that lets graph swaps happen with zero
//! read downtime. The epoch counter is part of every result-cache key and
//! every query response, so answers are always attributable to the exact
//! graph version that produced them.

use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::{DiGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One published graph version: engine state shared by every query that
/// started while it was current.
pub struct Snapshot {
    /// Monotonically increasing version number, starting at 0.
    pub epoch: u64,
    /// The prepared deterministic engine (cheap to share: queries only
    /// touch immutable state plus internal scratch pools).
    engine: Arc<QueryEngine>,
    /// The snapshot's edge list (deduplicated, as built), kept so
    /// `edge-delta` can derive the successor graph without re-reading
    /// files.
    pub edges: Arc<Vec<(NodeId, NodeId)>>,
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
}

/// The swappable current-snapshot cell plus the serialized admin path.
pub struct EpochStore {
    /// Readers take the lock only long enough to clone the `Arc`.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes mutations so concurrent deltas can't lose updates; held
    /// across the (potentially slow) engine build, while readers keep
    /// going on the old snapshot.
    admin: Mutex<()>,
    swaps: AtomicU64,
    params: SimStarParams,
    opts: QueryEngineOptions,
}

impl EpochStore {
    /// Builds epoch 0 from `graph`. `opts.deterministic` is forced on:
    /// the serving layer's cache coherence depends on batch-composition
    /// independence (see [`QueryEngineOptions::deterministic`]).
    pub fn new(graph: DiGraph, params: SimStarParams, mut opts: QueryEngineOptions) -> Self {
        opts.deterministic = true;
        let snapshot = build_snapshot(0, graph, params, &opts);
        EpochStore {
            current: RwLock::new(Arc::new(snapshot)),
            admin: Mutex::new(()),
            swaps: AtomicU64::new(0),
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

    /// The parameters every snapshot is built with.
    pub fn params(&self) -> SimStarParams {
        self.params
    }

    /// Builds a snapshot from `graph` and publishes it as the next epoch.
    /// In-flight queries keep their old snapshot; new queries see the new
    /// one as soon as this returns.
    pub fn publish(&self, graph: DiGraph) -> Arc<Snapshot> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let next_epoch = self.current().epoch + 1;
        let snapshot = Arc::new(build_snapshot(next_epoch, graph, self.params, &self.opts));
        *self.current.write().expect("epoch cell poisoned") = snapshot.clone();
        self.swaps.fetch_add(1, Ordering::Relaxed);
        snapshot
    }

    /// Applies an edge delta to the current snapshot's graph and publishes
    /// the result. Added edges may grow the node range; removals of absent
    /// edges are ignored. Returns the new snapshot and the number of edges
    /// actually added/removed.
    pub fn apply_delta(
        &self,
        add: &[(NodeId, NodeId)],
        remove: &[(NodeId, NodeId)],
    ) -> Result<(Arc<Snapshot>, usize, usize), String> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let base = self.current();
        let removals: std::collections::HashSet<(NodeId, NodeId)> =
            remove.iter().copied().collect();
        let mut edges: Vec<(NodeId, NodeId)> =
            base.edges.iter().copied().filter(|e| !removals.contains(e)).collect();
        let removed = base.edges.len() - edges.len();
        edges.extend(add.iter().copied());
        let n = edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .map(|v| v as usize + 1)
            .max()
            .unwrap_or(0)
            .max(base.nodes);
        let graph = DiGraph::from_edges(n, &edges).map_err(|e| format!("bad delta: {e}"))?;
        let snapshot = Arc::new(build_snapshot(base.epoch + 1, graph, self.params, &self.opts));
        // `from_edges` deduplicates, so the net addition count comes from
        // the built snapshot, not from `add.len()`.
        let added = (snapshot.edges.len() + removed).saturating_sub(base.edges.len());
        *self.current.write().expect("epoch cell poisoned") = snapshot.clone();
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok((snapshot, added, removed))
    }
}

fn build_snapshot(
    epoch: u64,
    graph: DiGraph,
    params: SimStarParams,
    opts: &QueryEngineOptions,
) -> Snapshot {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let params_key = combine_keys(params.stable_key(), opts.stable_key());
    let nodes = graph.node_count();
    let engine = Arc::new(QueryEngine::with_options(&graph, params, opts.clone()));
    Snapshot { epoch, engine, edges: Arc::new(edges), nodes, params_key }
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
        assert!(snap.edges.contains(&(4, 0)));
        assert!(!snap.edges.contains(&(3, 2)));
        // Removing an absent edge is a no-op, not an error.
        let (_, added, removed) = s.apply_delta(&[], &[(9, 9)]).unwrap();
        assert_eq!((added, removed), (0, 0));
    }

    #[test]
    fn snapshots_use_deterministic_engines() {
        let s = store();
        assert!(s.current().engine().options().deterministic);
        assert_eq!(s.current().engine().options().frontier_epsilon, 0.0);
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
