//! The coalescing micro-batcher: the server's single execution pipeline.
//!
//! Every cache-missing query is submitted as a job into one bounded queue
//! (the admission-control point — a full queue sheds instead of building
//! unbounded backlog) and executed by one flush worker. When it finds the
//! queue non-empty, the worker parks for a tiny window (`window_us`)
//! collecting whatever concurrent requests arrive, then flushes the whole
//! batch through one
//! [`simrank_star::QueryEngine::top_k_batch`] call. The engine cuts the
//! flush into 8-query chunks: a full chunk runs as one 8-lane sweep, so
//! adjacency indices are read once per chunk instead of once per request,
//! and a remainder of at most 3 queries (a solo request, say) runs as
//! one-lane sweeps that pay for no idle lanes. Duplicate nodes in a flush
//! collapse into a single lane. With `window_us = 0` coalescing is off and
//! each job flushes alone through the identical code path: the serial
//! baseline the serve benchmark compares against is the same server minus
//! the window.
//!
//! Routing *everything* through the pipeline (instead of executing on
//! connection threads) also bounds engine concurrency: each in-flight
//! sweep owns one scratch set, `K + 2` frontiers of at most `8·n` values,
//! and the one worker runs one sweep at a time, whatever the connection
//! count. (A second worker measured slower and costlier per request on a
//! 2-vCPU machine whose load generator shared the cores.)
//!
//! The batcher records nothing into the server's metrics: each answer
//! carries its [`QueryTrace`], the instants and durations of its cache
//! probe, queue wait and engine call, and the event loop derives the
//! stage histograms and traces from it when the reply is encoded.
//!
//! Results are bit-identical however requests get coalesced because every
//! engine lane's bits are independent of the other lanes and of the lane
//! width (see [`simrank_star::query_engine`]) — which is what lets the
//! cache serve a batched result for a solo request and vice versa.

use crate::cache::{CacheKey, CachedMatches, ShardedCache};
use crate::epoch::EpochStore;
use crate::metrics::QueryTrace;
use simrank_star::EngineTrace;
use ssr_graph::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of the [`Batcher`].
#[derive(Debug, Clone)]
pub struct BatcherOptions {
    /// Coalescing window: how long the first job of a flush waits for
    /// company, in microseconds. `0` disables coalescing (serial flushes).
    pub window_us: u64,
    /// Flush-size cap (clamped to ≥ 1).
    pub max_batch: usize,
    /// Bounded queue depth — the admission-control limit. Submissions
    /// beyond it are shed.
    pub queue_capacity: usize,
}

impl Default for BatcherOptions {
    fn default() -> Self {
        BatcherOptions { window_us: 500, max_batch: 64, queue_capacity: 1024 }
    }
}

/// One completed query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Epoch of the snapshot that computed (or cached) the result.
    pub epoch: u64,
    /// Whether the result came from the cache without entering the queue.
    pub cached: bool,
    /// Ranked `(node, score)` matches.
    pub matches: CachedMatches,
    /// The query's record on the way to this answer: cache hits carry
    /// only the probe; flushed answers add queue wait, engine compute and
    /// the flush's context.
    pub trace: QueryTrace,
}

/// Why a submission did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the queue is at capacity.
    Shed,
    /// The batcher is shutting down.
    Closed,
    /// The query node is out of range for the current snapshot.
    BadNode {
        /// Node count of the snapshot the request was validated against.
        nodes: usize,
    },
}

/// Where a completed (or failed) asynchronous submission is delivered.
///
/// The event-driven runtime implements this with its completion queue +
/// poller waker: a flush worker calls [`CompletionSink::complete`] from
/// its own thread, and the sink hands the result back to the event loop.
/// `tag` is the caller's correlation value from [`Batcher::submit`].
pub trait CompletionSink: Send + Sync {
    /// Delivers the outcome of the submission tagged `tag`. Called from a
    /// flush-worker thread (or from [`Batcher::shutdown`]); must not block.
    fn complete(&self, tag: u64, result: Result<QueryAnswer, SubmitError>);
}

struct Job {
    node: NodeId,
    k: usize,
    /// The request is trace-sampled: its flush captures the engine trace.
    traced: bool,
    /// Where the outcome goes, and the caller's correlation tag for it.
    sink: Arc<dyn CompletionSink>,
    tag: u64,
    /// The query's record so far: admission's cache probe and enqueue.
    trace: QueryTrace,
}

impl Job {
    fn reply(&self, r: Result<QueryAnswer, SubmitError>) {
        self.sink.complete(self.tag, r);
    }
}

/// Counter snapshot of one [`Batcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs turned away by admission control.
    pub shed: u64,
    /// Flushes executed.
    pub flushes: u64,
    /// Jobs executed across all flushes.
    pub flushed_jobs: u64,
    /// Largest flush seen.
    pub max_flush: u64,
    /// Unique engine lanes across all flushes (≤ `flushed_jobs`; the gap
    /// is work saved by in-flush duplicate collapsing).
    pub unique_lanes: u64,
}

impl BatcherStats {
    /// Mean jobs per flush (`0` before the first flush).
    pub fn mean_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flushed_jobs as f64 / self.flushes as f64
        }
    }
}

struct Inner {
    queue: Mutex<VecDeque<Job>>,
    nonempty: Condvar,
    open: AtomicBool,
    window_us: AtomicU64,
    max_batch: AtomicUsize,
    queue_capacity: usize,
    store: Arc<EpochStore>,
    cache: Arc<ShardedCache>,
    submitted: AtomicU64,
    shed: AtomicU64,
    flushes: AtomicU64,
    flushed_jobs: AtomicU64,
    max_flush: AtomicU64,
    unique_lanes: AtomicU64,
    /// Deepest the bounded queue has ever been (occupancy gauge).
    queue_high_water: AtomicU64,
}

/// The micro-batcher: bounded queue + one flush worker. See the module
/// docs.
pub struct Batcher {
    inner: Arc<Inner>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the flush worker.
    pub fn start(store: Arc<EpochStore>, cache: Arc<ShardedCache>, opts: BatcherOptions) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            open: AtomicBool::new(true),
            window_us: AtomicU64::new(opts.window_us),
            max_batch: AtomicUsize::new(opts.max_batch.max(1)),
            queue_capacity: opts.queue_capacity.max(1),
            store,
            cache,
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flushed_jobs: AtomicU64::new(0),
            max_flush: AtomicU64::new(0),
            unique_lanes: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
        });
        let worker = {
            let inner = inner.clone();
            std::thread::spawn(move || worker_loop(&inner))
        };
        Batcher { inner, worker: Mutex::new(Some(worker)) }
    }

    /// Submits one query: snapshot range check, cache lookup, bounded
    /// queue entry. A cache hit is returned inline as `Ok(Some(answer))`
    /// without entering the queue; `Ok(None)` means the job was queued and
    /// its outcome will arrive at `sink` (tagged `tag`) from a flush-worker
    /// thread. Admission errors surface immediately as `Err` — nothing is
    /// delivered to the sink for them.
    pub fn submit(
        &self,
        node: NodeId,
        k: usize,
        traced: bool,
        sink: &Arc<dyn CompletionSink>,
        tag: u64,
    ) -> Result<Option<QueryAnswer>, SubmitError> {
        let snapshot = self.inner.store.current();
        if (node as usize) >= snapshot.nodes {
            return Err(SubmitError::BadNode { nodes: snapshot.nodes });
        }
        let key = CacheKey::new(snapshot.epoch, node, k, snapshot.params_key);
        let shard = self.inner.cache.shard_index(&key);
        let cache_at = Instant::now();
        let hit = self.inner.cache.get(&key);
        let mut trace = QueryTrace {
            cache_at: Some(cache_at),
            cache_ns: cache_at.elapsed().as_nanos() as u64,
            shard,
            ..QueryTrace::default()
        };
        if let Some(matches) = hit {
            return Ok(Some(QueryAnswer { epoch: snapshot.epoch, cached: true, matches, trace }));
        }
        drop(snapshot);
        {
            let mut queue = self.inner.queue.lock().expect("batch queue poisoned");
            if !self.inner.open.load(Ordering::Relaxed) {
                return Err(SubmitError::Closed);
            }
            if queue.len() >= self.inner.queue_capacity {
                drop(queue);
                self.inner.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Shed);
            }
            trace.queue_depth = queue.len();
            trace.queued_at = Some(Instant::now());
            queue.push_back(Job { node, k, traced, sink: sink.clone(), tag, trace });
            self.inner.queue_high_water.fetch_max(queue.len() as u64, Ordering::Relaxed);
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.nonempty.notify_all();
        Ok(None)
    }

    /// Runtime window override (admin `config` op).
    pub fn set_window_us(&self, window_us: u64) {
        self.inner.window_us.store(window_us, Ordering::Relaxed);
    }

    /// Runtime flush-size cap override (admin `config` op).
    pub fn set_max_batch(&self, max_batch: usize) {
        self.inner.max_batch.store(max_batch.max(1), Ordering::Relaxed);
    }

    /// Current `(window_us, max_batch)` configuration.
    pub fn config(&self) -> (u64, usize) {
        (self.inner.window_us.load(Ordering::Relaxed), self.inner.max_batch.load(Ordering::Relaxed))
    }

    /// Deepest the bounded queue has ever been (occupancy high-water).
    pub fn queue_high_water(&self) -> u64 {
        self.inner.queue_high_water.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            flushes: self.inner.flushes.load(Ordering::Relaxed),
            flushed_jobs: self.inner.flushed_jobs.load(Ordering::Relaxed),
            max_flush: self.inner.max_flush.load(Ordering::Relaxed),
            unique_lanes: self.inner.unique_lanes.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting jobs, lets the worker finish its flush, and joins
    /// it. Queued jobs are failed with [`SubmitError::Closed`].
    pub fn shutdown(&self) {
        self.inner.open.store(false, Ordering::Relaxed);
        self.inner.nonempty.notify_all();
        if let Some(worker) = self.worker.lock().expect("worker poisoned").take() {
            let _ = worker.join();
        }
        // Fail anything the worker left behind.
        for job in self.inner.queue.lock().expect("batch queue poisoned").drain(..) {
            job.reply(Err(SubmitError::Closed));
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let mut queue = inner.queue.lock().expect("batch queue poisoned");
        // Wait for work (or shutdown).
        loop {
            if !queue.is_empty() {
                break;
            }
            if !inner.open.load(Ordering::Relaxed) {
                return;
            }
            queue = inner.nonempty.wait(queue).expect("batch queue poisoned");
        }
        // Coalesce: the flush leader parks for the window while the queue
        // fills, then drains up to `max_batch` jobs.
        let window = inner.window_us.load(Ordering::Relaxed);
        let max_batch = inner.max_batch.load(Ordering::Relaxed).max(1);
        if window > 0 {
            let deadline = Instant::now() + Duration::from_micros(window);
            while queue.len() < max_batch && inner.open.load(Ordering::Relaxed) {
                let now = Instant::now();
                let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (q, timeout) =
                    inner.nonempty.wait_timeout(queue, left).expect("batch queue poisoned");
                queue = q;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let take = queue.len().min(if window > 0 { max_batch } else { 1 });
        let batch: Vec<Job> = queue.drain(..take).collect();
        drop(queue);
        if !batch.is_empty() {
            flush(inner, batch);
        }
    }
}

/// Executes one flush: dedupes nodes, runs the blocked top-k batch on the
/// current snapshot's engine, replies to every job, and populates the
/// cache.
fn flush(inner: &Inner, batch: Vec<Job>) {
    // Queue-wait ends here for every job in the batch.
    let drained = Instant::now();
    let snapshot = inner.store.current();
    // Jobs validated against an older snapshot can be out of range now.
    let (runnable, stale): (Vec<&Job>, Vec<&Job>) =
        batch.iter().partition(|j| (j.node as usize) < snapshot.nodes);
    for job in stale {
        job.reply(Err(SubmitError::BadNode { nodes: snapshot.nodes }));
    }
    if runnable.is_empty() {
        return;
    }
    // Unique lanes, canonically ordered; `k` is the flush-wide max — the
    // ranking comparator is a total order, so any job's top-k is a prefix
    // of the lane's top-k_max.
    let mut nodes: Vec<NodeId> = runnable.iter().map(|j| j.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let k_max = runnable.iter().map(|j| j.k).max().unwrap_or(0);
    let engine = snapshot.engine();
    let engine_at = Instant::now();
    // Only a flush carrying a sampled job builds an engine trace; the
    // untraced path allocates nothing for tracing.
    let (ranked, engine_trace) = if runnable.iter().any(|j| j.traced) {
        let mut trace = EngineTrace::default();
        let ranked = engine.top_k_batch_traced(&nodes, k_max, &mut trace);
        (ranked, Some(Arc::new(trace)))
    } else {
        (engine.top_k_batch(&nodes, k_max), None)
    };
    let engine_ns = engine_at.elapsed().as_nanos() as u64;
    inner.flushes.fetch_add(1, Ordering::Relaxed);
    inner.flushed_jobs.fetch_add(runnable.len() as u64, Ordering::Relaxed);
    inner.unique_lanes.fetch_add(nodes.len() as u64, Ordering::Relaxed);
    inner.max_flush.fetch_max(runnable.len() as u64, Ordering::Relaxed);
    let flush_size = runnable.len();
    let waited = |queued_at: Instant| drained.duration_since(queued_at).as_nanos() as u64;
    for job in runnable {
        let lane = nodes.binary_search(&job.node).expect("node came from this batch");
        let full = &ranked[lane];
        let matches: CachedMatches = if job.k >= full.len() {
            Arc::new(full.clone())
        } else {
            Arc::new(full[..job.k].to_vec())
        };
        let key = CacheKey::new(snapshot.epoch, job.node, job.k, snapshot.params_key);
        inner.cache.insert(key, matches.clone());
        let trace = QueryTrace {
            queue_ns: job.trace.queued_at.map_or(0, waited),
            engine_at: Some(engine_at),
            engine_ns,
            flush_size,
            dedup: flush_size - nodes.len(),
            engine: engine_trace.clone(),
            ..job.trace
        };
        job.reply(Ok(QueryAnswer { epoch: snapshot.epoch, cached: false, matches, trace }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_star::{QueryEngineOptions, SimStarParams};
    use ssr_graph::DiGraph;
    use std::sync::mpsc;

    /// Delivers each queued job's tag and outcome over a channel.
    struct ChannelSink(mpsc::Sender<(u64, Result<QueryAnswer, SubmitError>)>);

    impl CompletionSink for ChannelSink {
        fn complete(&self, tag: u64, result: Result<QueryAnswer, SubmitError>) {
            let _ = self.0.send((tag, result));
        }
    }

    /// Submits one query and blocks for its answer: a cache hit inline, a
    /// queued job through a channel-backed sink.
    fn serve(b: &Batcher, node: NodeId, k: usize) -> Result<QueryAnswer, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let sink: Arc<dyn CompletionSink> = Arc::new(ChannelSink(tx));
        if let Some(hit) = b.submit(node, k, false, &sink, 0)? {
            return Ok(hit);
        }
        // Only the queued job holds the sink now: were it dropped
        // unanswered, `recv` would fail instead of hanging the test.
        drop(sink);
        rx.recv().expect("job dropped without a reply").1
    }

    fn setup(opts: BatcherOptions) -> (Arc<EpochStore>, Arc<ShardedCache>, Batcher) {
        let g = DiGraph::from_edges(6, &[(1, 0), (2, 0), (3, 1), (3, 2), (4, 3), (5, 4)]).unwrap();
        let store =
            Arc::new(EpochStore::new(g, SimStarParams::default(), QueryEngineOptions::default()));
        let cache = Arc::new(ShardedCache::new(64, 2));
        let batcher = Batcher::start(store.clone(), cache.clone(), opts);
        (store, cache, batcher)
    }

    #[test]
    fn serves_correct_answers_and_caches() {
        let (store, _, b) = setup(BatcherOptions { window_us: 0, ..Default::default() });
        let expect = store.current().engine().top_k(1, 3);
        let first = serve(&b, 1, 3).unwrap();
        assert!(!first.cached);
        assert_eq!(*first.matches, expect);
        let second = serve(&b, 1, 3).unwrap();
        assert!(second.cached);
        assert_eq!(*second.matches, expect);
        assert_eq!(b.stats().flushed_jobs, 1, "the cached hit must not flush");
    }

    #[test]
    fn concurrent_submissions_coalesce_and_agree_with_solo() {
        let (store, cache, b) =
            setup(BatcherOptions { window_us: 20_000, max_batch: 16, ..Default::default() });
        let engine = store.current().engine().clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..6u32)
                .map(|node| {
                    let b = &b;
                    scope.spawn(move || serve(b, node, 4).unwrap())
                })
                .collect();
            for (node, h) in handles.into_iter().enumerate() {
                let answer = h.join().unwrap();
                assert_eq!(*answer.matches, engine.top_k(node as u32, 4), "node {node}");
            }
        });
        let stats = b.stats();
        assert_eq!(stats.flushed_jobs, 6);
        assert!(stats.flushes < 6, "expected coalescing, got {} flushes", stats.flushes);
        assert!(stats.max_flush >= 2);
        assert!(cache.stats().inserts >= 6);
    }

    #[test]
    fn duplicate_nodes_collapse_into_one_lane() {
        let (_, _, b) =
            setup(BatcherOptions { window_us: 20_000, max_batch: 16, ..Default::default() });
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let b = &b;
                    scope.spawn(move || serve(b, 2, 2 + (i % 2)).unwrap())
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let stats = b.stats();
        assert!(
            stats.unique_lanes < stats.flushed_jobs,
            "8 duplicate jobs should share lanes: {stats:?}"
        );
    }

    #[test]
    fn mixed_k_jobs_get_prefix_consistent_answers() {
        let (store, _, b) = setup(BatcherOptions { window_us: 20_000, ..Default::default() });
        let engine = store.current().engine().clone();
        std::thread::scope(|scope| {
            let small = scope.spawn(|| serve(&b, 3, 1).unwrap());
            let large = scope.spawn(|| serve(&b, 3, 5).unwrap());
            let (small, large) = (small.join().unwrap(), large.join().unwrap());
            assert_eq!(*small.matches, engine.top_k(3, 1));
            assert_eq!(*large.matches, engine.top_k(3, 5));
            assert_eq!(small.matches[..], large.matches[..1]);
        });
    }

    #[test]
    fn bad_node_rejected_without_flushing() {
        let (_, _, b) = setup(BatcherOptions::default());
        assert_eq!(serve(&b, 99, 3), Err(SubmitError::BadNode { nodes: 6 }));
        assert_eq!(b.stats().submitted, 0);
    }

    #[test]
    fn window_zero_flushes_serially() {
        let (_, _, b) = setup(BatcherOptions { window_us: 0, ..Default::default() });
        for node in 0..4 {
            serve(&b, node, 2).unwrap();
        }
        let stats = b.stats();
        assert_eq!(stats.flushes, 4);
        assert_eq!(stats.max_flush, 1);
    }

    #[test]
    fn shutdown_closes_submissions() {
        let (_, _, b) = setup(BatcherOptions::default());
        b.shutdown();
        assert_eq!(serve(&b, 1, 3), Err(SubmitError::Closed));
    }

    #[test]
    fn async_submit_completes_through_the_sink() {
        let (store, _, b) = setup(BatcherOptions { window_us: 0, ..Default::default() });
        let (tx, rx) = mpsc::channel();
        let sink: Arc<dyn CompletionSink> = Arc::new(ChannelSink(tx));
        // Miss: queued, completed asynchronously with the engine's answer.
        assert_eq!(b.submit(1, 3, false, &sink, 77).unwrap(), None);
        let (tag, result) = rx.recv_timeout(Duration::from_secs(10)).expect("sink never completed");
        assert_eq!(tag, 77);
        let answer = result.unwrap();
        assert!(!answer.cached);
        assert_eq!(*answer.matches, store.current().engine().top_k(1, 3));
        // Hit: returned inline, nothing more reaches the sink.
        let hit = b.submit(1, 3, false, &sink, 78).unwrap().expect("cache hit");
        assert!(hit.cached);
        assert_eq!(hit.matches, answer.matches);
        assert!(rx.try_recv().is_err());
        // Admission errors surface immediately, not via the sink.
        assert_eq!(b.submit(99, 3, false, &sink, 79), Err(SubmitError::BadNode { nodes: 6 }));
        // Shutdown fails queued jobs through their sink.
        b.shutdown();
        assert_eq!(b.submit(2, 3, false, &sink, 80), Err(SubmitError::Closed));
    }
}
