//! Sharded LRU result cache keyed by `(epoch, node, params, k)`.
//!
//! Shards are selected by a stable hash of the key, so concurrent
//! connections contend on `shards` independent locks instead of one.
//! Eviction inside a shard is lazy LRU: each `get`/`insert` stamps the key
//! with a fresh sequence number and appends a `(seq, key)` marker to a
//! recency queue; eviction pops markers, skipping stale ones (a marker is
//! stale when the map holds a newer stamp for its key). Every operation is
//! amortized `O(1)` — no linked-list juggling, no full scans.
//!
//! Epoch swaps need no invalidation sweep: keys embed the epoch, so stale
//! entries simply stop being requested and age out through LRU pressure.
//! Hit/miss/insert/eviction counters are process-lifetime atomics surfaced
//! by the `stats` op.

use ssr_graph::NodeId;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Full identity of one cached result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Epoch of the snapshot the result was computed on.
    pub epoch: u64,
    /// Query node.
    pub node: NodeId,
    /// Requested `k`, saturated at `u32::MAX` (see [`CacheKey::new`]).
    pub k: u32,
    /// Stable params ⊕ options key ([`crate::epoch::Snapshot::params_key`]).
    pub params_key: u64,
}

impl CacheKey {
    /// The key of a top-`k` answer. A `k` of `u32::MAX` or more keys as
    /// `u32::MAX`: node ids are `u32`, so every such `k` asks for all of a
    /// node's matches, and none aliases a smaller `k`.
    pub fn new(epoch: u64, node: NodeId, k: usize, params_key: u64) -> Self {
        CacheKey { epoch, node, k: u32::try_from(k).unwrap_or(u32::MAX), params_key }
    }

    /// Stable shard/spread hash: [`simrank_star::Fnv1a`] over the key
    /// words (the same digest behind the `stable_key`s it contains).
    fn stable_hash(&self) -> u64 {
        simrank_star::fnv1a(simrank_star::Fnv1a::BASIS)
            .push(self.epoch)
            .push(self.node as u64)
            .push(self.k as u64)
            .push(self.params_key)
            .0
    }
}

/// A ranked top-k result, shared by the cache, the batcher, and responses.
pub type CachedMatches = Arc<Vec<(NodeId, f64)>>;

struct Shard {
    map: HashMap<CacheKey, (CachedMatches, u64)>,
    recency: VecDeque<(u64, CacheKey)>,
    seq: u64,
    capacity: usize,
}

impl Shard {
    /// Pops recency markers until the map is back under capacity. Stale
    /// markers (key re-stamped since) are discarded without evicting.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let Some((seq, key)) = self.recency.pop_front() else { break };
            if self.map.get(&key).is_some_and(|&(_, cur)| cur == seq) {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        evicted
    }

    /// Records `key` as most-recently used with (already-stamped)
    /// sequence number `seq`.
    fn note_recency(&mut self, seq: u64, key: CacheKey) {
        self.recency.push_back((seq, key));
        // Bound the marker queue: with heavy re-touching it can outgrow the
        // map; compacting when it exceeds 4× capacity keeps memory linear.
        if self.recency.len() > self.capacity.saturating_mul(4).max(64) {
            let map = &self.map;
            self.recency.retain(|&(seq, ref k)| map.get(k).is_some_and(|&(_, cur)| cur == seq));
        }
    }
}

/// Counter snapshot of one [`ShardedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached result.
    pub hits: u64,
    /// Lookups that missed (including while disabled).
    pub misses: u64,
    /// Entries written.
    pub inserts: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, `0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded LRU cache. Capacity 0 disables storage entirely (every
/// lookup is a miss, inserts are dropped); the `enabled` switch does the
/// same reversibly at runtime (admin `config` op).
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    enabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// Builds a cache of `capacity` total entries spread over `shards`
    /// locks (both clamped to sane minimums; capacity 0 disables).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, 512).min(capacity.max(1));
        let per_shard = capacity.div_ceil(shards);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        recency: VecDeque::new(),
                        seq: 0,
                        capacity: per_shard,
                    })
                })
                .collect(),
            enabled: AtomicBool::new(capacity > 0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The lock `key` maps to.
    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks up `key`, refreshing its recency on a hit. The hot path: one
    /// map probe under the shard lock (clone + restamp through the same
    /// `get_mut`), recency bookkeeping after the map borrow ends.
    pub fn get(&self, key: &CacheKey) -> Option<CachedMatches> {
        if !self.enabled.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        // Stamping before the probe wastes a sequence number on misses,
        // which is harmless — the counter only needs to be monotonic.
        shard.seq += 1;
        let seq = shard.seq;
        let hit = shard.map.get_mut(key).map(|(v, stamp)| {
            *stamp = seq;
            v.clone()
        });
        match hit {
            Some(v) => {
                shard.note_recency(seq, *key);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting LRU entries past capacity.
    pub fn insert(&self, key: CacheKey, value: CachedMatches) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.capacity == 0 {
            return;
        }
        shard.seq += 1;
        let seq = shard.seq;
        shard.map.insert(key, (value, seq));
        shard.note_recency(seq, key);
        let evicted = shard.evict_to_capacity();
        drop(shard);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops every resident entry (counters keep accumulating).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().expect("cache shard poisoned");
            s.map.clear();
            s.recency.clear();
        }
    }

    /// Runtime enable/disable (admin `config` op). Disabling also clears,
    /// so re-enabling starts cold rather than serving arbitrarily old
    /// entries.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.clear();
        }
    }

    /// Whether lookups currently hit storage.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The shard index `key` maps to — the lock [`ShardedCache::get`]
    /// takes, exposed so traces can tag a lookup with the lock it
    /// contended on.
    pub fn shard_index(&self, key: &CacheKey) -> usize {
        (key.stable_hash() % self.shards.len() as u64) as usize
    }

    /// Per-shard occupancy: `(entries, estimated bytes)` for each shard,
    /// in shard order. Bytes count the match vectors plus fixed per-entry
    /// map overhead — an estimate for capacity-planning gauges, not an
    /// allocator measurement.
    pub fn per_shard_occupancy(&self) -> Vec<(usize, usize)> {
        let entry_overhead = std::mem::size_of::<CacheKey>()
            + std::mem::size_of::<(CachedMatches, u64)>()
            + std::mem::size_of::<(u64, CacheKey)>();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard poisoned");
                let bytes: usize = shard
                    .map
                    .values()
                    .map(|(v, _)| entry_overhead + v.len() * std::mem::size_of::<(NodeId, f64)>())
                    .sum();
                (shard.map.len(), bytes)
            })
            .collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").map.len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(node: NodeId) -> CacheKey {
        CacheKey { epoch: 0, node, k: 10, params_key: 42 }
    }

    fn val(node: NodeId) -> CachedMatches {
        Arc::new(vec![(node, 0.5)])
    }

    #[test]
    fn get_after_insert_hits() {
        let c = ShardedCache::new(8, 2);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), val(1));
        assert_eq!(c.get(&key(1)).unwrap()[0].0, 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.entries), (1, 1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_key_components_miss() {
        let c = ShardedCache::new(8, 2);
        c.insert(key(1), val(1));
        assert!(c.get(&CacheKey { epoch: 1, ..key(1) }).is_none());
        assert!(c.get(&CacheKey { k: 5, ..key(1) }).is_none());
        assert!(c.get(&CacheKey { params_key: 7, ..key(1) }).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard so the eviction order is fully observable.
        let c = ShardedCache::new(2, 1);
        c.insert(key(1), val(1));
        c.insert(key(2), val(2));
        assert!(c.get(&key(1)).is_some()); // refresh 1 ⇒ 2 is now LRU
        c.insert(key(3), val(3));
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none(), "LRU entry should have been evicted");
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn reinserting_same_key_does_not_evict_others() {
        let c = ShardedCache::new(2, 1);
        c.insert(key(1), val(1));
        for _ in 0..20 {
            c.insert(key(2), val(2));
        }
        assert!(c.get(&key(1)).is_some());
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn recency_queue_stays_bounded_under_retouching() {
        let c = ShardedCache::new(4, 1);
        for i in 0..10_000u32 {
            c.insert(key(i % 4), val(0));
            let _ = c.get(&key(i % 4));
        }
        let markers = c.shards[0].lock().unwrap().recency.len();
        assert!(markers <= 64 + 4, "recency queue grew unbounded: {markers}");
        assert_eq!(c.stats().entries, 4);
    }

    #[test]
    fn capacity_zero_disables() {
        let c = ShardedCache::new(0, 4);
        c.insert(key(1), val(1));
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.stats().inserts, 0);
        assert!(!c.is_enabled());
    }

    #[test]
    fn runtime_disable_clears_and_reenable_starts_cold() {
        let c = ShardedCache::new(8, 2);
        c.insert(key(1), val(1));
        c.set_enabled(false);
        assert!(c.get(&key(1)).is_none());
        c.set_enabled(true);
        assert!(c.get(&key(1)).is_none(), "re-enable must start cold");
        c.insert(key(1), val(1));
        assert!(c.get(&key(1)).is_some());
    }

    #[test]
    fn shards_spread_keys() {
        let c = ShardedCache::new(256, 8);
        for i in 0..256u32 {
            c.insert(key(i), val(i));
        }
        let populated = c.shards.iter().filter(|s| !s.lock().unwrap().map.is_empty()).count();
        assert!(populated >= 4, "keys landed in only {populated} shards");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(ShardedCache::new(64, 4));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let k = key(t * 1000 + i % 80);
                        if c.get(&k).is_none() {
                            c.insert(k, val(i));
                        }
                    }
                });
            }
        });
        let s = c.stats();
        assert!(s.entries <= 64 + 4); // per-shard rounding slack
        assert_eq!(s.hits + s.misses, 2000);
    }
}
