//! The coalescing micro-batcher: the server's single execution pipeline.
//!
//! Every cache-missing query is submitted as a job into one bounded queue
//! (the admission-control point — a full queue sheds instead of building
//! unbounded backlog) and executed by a small pool of flush workers. A
//! worker that finds the queue non-empty parks for a tiny window
//! (`window_us`) collecting whatever concurrent requests arrive, then
//! flushes the whole batch through one
//! [`simrank_star::QueryEngine::top_k_batch`] call. The engine cuts the
//! flush into 16-query chunks: a full chunk runs as one 16-lane sweep, so
//! adjacency indices are read once per chunk instead of once per request,
//! and a remainder of at most 4 queries (a solo request, say) runs as
//! one-lane sweeps that pay for no idle lanes. Duplicate nodes in a flush
//! collapse into a single lane. With `window_us = 0` coalescing is off and
//! each job flushes alone through the identical code path: the serial
//! baseline the serve benchmark compares against is the same server minus
//! the window.
//!
//! Routing *everything* through the pipeline (instead of executing on
//! connection threads) also bounds engine concurrency: each in-flight
//! sweep owns at most `O(16·n)` scratch, so `workers`, not the connection
//! count, caps peak memory.
//!
//! Results are bit-identical however requests get coalesced because
//! snapshots force [`simrank_star::QueryEngineOptions::deterministic`]
//! (batch-composition-independent lanes) — which is what lets the cache
//! serve a batched result for a solo request and vice versa.

use crate::cache::{CacheKey, CachedMatches, ShardedCache};
use crate::epoch::EpochStore;
use crate::metrics::{QueryTrace, ServeMetrics};
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
    /// Number of flush workers (clamped to ≥ 1).
    pub workers: usize,
}

impl Default for BatcherOptions {
    fn default() -> Self {
        BatcherOptions { window_us: 500, max_batch: 64, queue_capacity: 1024, workers: 1 }
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
    /// Server-side per-stage timings accumulated on the way to this
    /// answer. Cache hits carry only `cache_ns`; flushed answers add
    /// queue wait and engine compute.
    pub trace: QueryTrace,
    /// Pipeline context captured for sampled requests only (`None` on the
    /// untraced fast path — tracing costs nothing when off).
    pub detail: Option<Box<TraceDetail>>,
}

/// What a sampled request saw on its way through the pipeline; attached
/// to [`QueryAnswer::detail`] and flattened into span attributes by the
/// runtime's trace assembly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDetail {
    /// Result-cache shard the admission probe touched.
    pub cache_shard: usize,
    /// Whether that probe hit.
    pub cache_hit: bool,
    /// Jobs already waiting in the bounded queue at admission.
    pub queue_depth: usize,
    /// Jobs in the flush that executed this query (`0` for cache hits).
    pub batch_size: usize,
    /// Duplicate jobs the flush collapsed into shared engine lanes.
    pub dedup: usize,
    /// The flush's per-step engine trace, shared by every traced job of
    /// the flush.
    pub engine: Arc<EngineTrace>,
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

/// How a queued job reports back: a blocking slot ([`Batcher::serve`]) or
/// an asynchronous sink ([`Batcher::submit`]).
enum JobReply {
    Slot(Arc<Slot>),
    Sink { sink: Arc<dyn CompletionSink>, tag: u64 },
}

impl JobReply {
    fn fill(&self, r: Result<QueryAnswer, SubmitError>) {
        match self {
            JobReply::Slot(slot) => slot.fill(r),
            JobReply::Sink { sink, tag } => sink.complete(*tag, r),
        }
    }
}

struct Job {
    node: NodeId,
    k: usize,
    reply: JobReply,
    /// Cache-probe time spent at admission, carried into the trace.
    cache_ns: u64,
    /// When the job entered the bounded queue (queue-wait stage start).
    queued_at: Instant,
    /// The request is trace-sampled: the flush captures engine traces
    /// and attaches a [`TraceDetail`] to the answer.
    traced: bool,
    /// Result-cache shard probed at admission (trace context).
    cache_shard: usize,
    /// Queue depth observed at admission (trace context).
    queue_depth: usize,
}

struct Slot {
    result: Mutex<Option<Result<QueryAnswer, SubmitError>>>,
    done: Condvar,
}

impl Slot {
    fn fill(&self, r: Result<QueryAnswer, SubmitError>) {
        *self.result.lock().expect("slot poisoned") = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<QueryAnswer, SubmitError> {
        let mut guard = self.result.lock().expect("slot poisoned");
        loop {
            match guard.take() {
                Some(r) => return r,
                None => guard = self.done.wait(guard).expect("slot poisoned"),
            }
        }
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
    metrics: Arc<ServeMetrics>,
    submitted: AtomicU64,
    shed: AtomicU64,
    flushes: AtomicU64,
    flushed_jobs: AtomicU64,
    max_flush: AtomicU64,
    unique_lanes: AtomicU64,
    /// Deepest the bounded queue has ever been (occupancy gauge).
    queue_high_water: AtomicU64,
}

/// The micro-batcher: bounded queue + flush workers. See the module docs.
pub struct Batcher {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the flush workers with a private metric registry.
    pub fn start(store: Arc<EpochStore>, cache: Arc<ShardedCache>, opts: BatcherOptions) -> Self {
        Self::start_instrumented(store, cache, opts, Arc::new(ServeMetrics::new()))
    }

    /// Starts the flush workers recording into the server's shared
    /// [`ServeMetrics`] (cache/queue/engine stage histograms).
    pub(crate) fn start_instrumented(
        store: Arc<EpochStore>,
        cache: Arc<ShardedCache>,
        opts: BatcherOptions,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            open: AtomicBool::new(true),
            window_us: AtomicU64::new(opts.window_us),
            max_batch: AtomicUsize::new(opts.max_batch.max(1)),
            queue_capacity: opts.queue_capacity.max(1),
            store,
            cache,
            metrics,
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flushed_jobs: AtomicU64::new(0),
            max_flush: AtomicU64::new(0),
            unique_lanes: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
        });
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Batcher { inner, workers: Mutex::new(workers) }
    }

    /// Serves one query: cache lookup first (hits never enter the queue),
    /// then a blocking submission through the flush pipeline. The direct
    /// path for library users and tests; the event-driven server uses
    /// [`Batcher::submit`] instead.
    pub fn serve(&self, node: NodeId, k: usize) -> Result<QueryAnswer, SubmitError> {
        let slot = Arc::new(Slot { result: Mutex::new(None), done: Condvar::new() });
        match self.enqueue(node, k, false, JobReply::Slot(slot.clone()))? {
            Some(hit) => Ok(hit),
            None => slot.wait(),
        }
    }

    /// Submits one query asynchronously. A cache hit is returned inline as
    /// `Ok(Some(answer))` without entering the queue; `Ok(None)` means the
    /// job was queued and its outcome will arrive at `sink` (tagged `tag`)
    /// from a flush-worker thread. Admission errors surface immediately as
    /// `Err` — nothing is delivered to the sink for them.
    pub fn submit(
        &self,
        node: NodeId,
        k: usize,
        traced: bool,
        sink: &Arc<dyn CompletionSink>,
        tag: u64,
    ) -> Result<Option<QueryAnswer>, SubmitError> {
        self.enqueue(node, k, traced, JobReply::Sink { sink: sink.clone(), tag })
    }

    /// Shared admission path: snapshot range check, cache lookup, bounded
    /// queue entry. `Ok(Some)` is a cache hit (the reply is dropped
    /// unused); `Ok(None)` means queued.
    fn enqueue(
        &self,
        node: NodeId,
        k: usize,
        traced: bool,
        reply: JobReply,
    ) -> Result<Option<QueryAnswer>, SubmitError> {
        let snapshot = self.inner.store.current();
        if (node as usize) >= snapshot.nodes {
            return Err(SubmitError::BadNode { nodes: snapshot.nodes });
        }
        let key =
            CacheKey { epoch: snapshot.epoch, node, k: k as u32, params_key: snapshot.params_key };
        let cache_shard = self.inner.cache.shard_index(&key);
        let cache_started = Instant::now();
        let hit = self.inner.cache.get(&key);
        let cache_ns = cache_started.elapsed().as_nanos() as u64;
        self.inner.metrics.stage_cache.record(cache_ns / 1_000);
        if let Some(matches) = hit {
            self.inner.metrics.inline_cache_hits.inc();
            let detail = traced.then(|| {
                Box::new(TraceDetail { cache_shard, cache_hit: true, ..TraceDetail::default() })
            });
            return Ok(Some(QueryAnswer {
                epoch: snapshot.epoch,
                cached: true,
                matches,
                trace: QueryTrace { cache_ns, ..QueryTrace::default() },
                detail,
            }));
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
            let queue_depth = queue.len();
            queue.push_back(Job {
                node,
                k,
                reply,
                cache_ns,
                queued_at: Instant::now(),
                traced,
                cache_shard,
                queue_depth,
            });
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

    /// Stops accepting jobs, drains the workers, and joins them. Queued
    /// jobs are failed with [`SubmitError::Closed`].
    pub fn shutdown(&self) {
        self.inner.open.store(false, Ordering::Relaxed);
        self.inner.nonempty.notify_all();
        let workers: Vec<_> = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for w in workers {
            let _ = w.join();
        }
        // Fail anything the workers left behind.
        for job in self.inner.queue.lock().expect("batch queue poisoned").drain(..) {
            job.reply.fill(Err(SubmitError::Closed));
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
/// current snapshot's engine, fills every job's slot, and populates the
/// cache.
fn flush(inner: &Inner, batch: Vec<Job>) {
    // Queue-wait ends here for every job in the batch.
    let drained = Instant::now();
    let snapshot = inner.store.current();
    // Jobs validated against an older snapshot can be out of range now.
    let (runnable, stale): (Vec<&Job>, Vec<&Job>) =
        batch.iter().partition(|j| (j.node as usize) < snapshot.nodes);
    for job in stale {
        job.reply.fill(Err(SubmitError::BadNode { nodes: snapshot.nodes }));
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
    let engine_started = Instant::now();
    // Only a flush carrying a sampled job builds an engine trace; the
    // untraced path allocates nothing for tracing.
    let (ranked, engine_trace) = if runnable.iter().any(|j| j.traced) {
        let mut trace = EngineTrace::default();
        let ranked = engine.top_k_batch_traced(&nodes, k_max, &mut trace);
        (ranked, Some(Arc::new(trace)))
    } else {
        (engine.top_k_batch(&nodes, k_max), None)
    };
    let engine_ns = engine_started.elapsed().as_nanos() as u64;
    inner.flushes.fetch_add(1, Ordering::Relaxed);
    inner.flushed_jobs.fetch_add(runnable.len() as u64, Ordering::Relaxed);
    inner.unique_lanes.fetch_add(nodes.len() as u64, Ordering::Relaxed);
    inner.max_flush.fetch_max(runnable.len() as u64, Ordering::Relaxed);
    let batch_size_total = runnable.len();
    for job in runnable {
        let lane = nodes.binary_search(&job.node).expect("node came from this batch");
        let full = &ranked[lane];
        let matches: CachedMatches = if job.k >= full.len() {
            Arc::new(full.clone())
        } else {
            Arc::new(full[..job.k].to_vec())
        };
        let key = CacheKey {
            epoch: snapshot.epoch,
            node: job.node,
            k: job.k as u32,
            params_key: snapshot.params_key,
        };
        inner.cache.insert(key, matches.clone());
        // Both stages record once per job, so their histograms count
        // requests, not flushes.
        let queue_ns = drained.duration_since(job.queued_at).as_nanos() as u64;
        inner.metrics.stage_queue.record(queue_ns / 1_000);
        inner.metrics.stage_engine.record(engine_ns / 1_000);
        let trace = QueryTrace { cache_ns: job.cache_ns, queue_ns, engine_ns };
        let detail = job.traced.then(|| {
            Box::new(TraceDetail {
                cache_shard: job.cache_shard,
                cache_hit: false,
                queue_depth: job.queue_depth,
                batch_size: batch_size_total,
                dedup: batch_size_total - nodes.len(),
                engine: engine_trace.clone().unwrap_or_default(),
            })
        });
        job.reply.fill(Ok(QueryAnswer {
            epoch: snapshot.epoch,
            cached: false,
            matches,
            trace,
            detail,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrank_star::{QueryEngineOptions, SimStarParams};
    use ssr_graph::DiGraph;

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
        let first = b.serve(1, 3).unwrap();
        assert!(!first.cached);
        assert_eq!(*first.matches, expect);
        let second = b.serve(1, 3).unwrap();
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
                    scope.spawn(move || b.serve(node, 4).unwrap())
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
                    scope.spawn(move || b.serve(2, 2 + (i % 2)).unwrap())
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
            let small = scope.spawn(|| b.serve(3, 1).unwrap());
            let large = scope.spawn(|| b.serve(3, 5).unwrap());
            let (small, large) = (small.join().unwrap(), large.join().unwrap());
            assert_eq!(*small.matches, engine.top_k(3, 1));
            assert_eq!(*large.matches, engine.top_k(3, 5));
            assert_eq!(small.matches[..], large.matches[..1]);
        });
    }

    #[test]
    fn bad_node_rejected_without_flushing() {
        let (_, _, b) = setup(BatcherOptions::default());
        assert_eq!(b.serve(99, 3), Err(SubmitError::BadNode { nodes: 6 }));
        assert_eq!(b.stats().submitted, 0);
    }

    #[test]
    fn window_zero_flushes_serially() {
        let (_, _, b) = setup(BatcherOptions { window_us: 0, ..Default::default() });
        for node in 0..4 {
            b.serve(node, 2).unwrap();
        }
        let stats = b.stats();
        assert_eq!(stats.flushes, 4);
        assert_eq!(stats.max_flush, 1);
    }

    #[test]
    fn shutdown_closes_submissions() {
        let (_, _, b) = setup(BatcherOptions::default());
        b.shutdown();
        assert_eq!(b.serve(1, 3), Err(SubmitError::Closed));
    }

    struct TestSink {
        got: Mutex<Vec<(u64, Result<QueryAnswer, SubmitError>)>>,
        ready: Condvar,
    }

    impl CompletionSink for TestSink {
        fn complete(&self, tag: u64, result: Result<QueryAnswer, SubmitError>) {
            self.got.lock().unwrap().push((tag, result));
            self.ready.notify_all();
        }
    }

    impl TestSink {
        fn wait_for(&self, n: usize) -> Vec<(u64, Result<QueryAnswer, SubmitError>)> {
            let mut guard = self.got.lock().unwrap();
            while guard.len() < n {
                let (g, t) = self.ready.wait_timeout(guard, Duration::from_secs(10)).unwrap();
                guard = g;
                assert!(!t.timed_out(), "sink never completed");
            }
            guard.clone()
        }
    }

    #[test]
    fn async_submit_completes_through_the_sink() {
        let (store, _, b) = setup(BatcherOptions { window_us: 0, ..Default::default() });
        let sink = Arc::new(TestSink { got: Mutex::new(Vec::new()), ready: Condvar::new() });
        let dyn_sink: Arc<dyn CompletionSink> = sink.clone();
        // Miss: queued, completed asynchronously with the engine's answer.
        assert_eq!(b.submit(1, 3, false, &dyn_sink, 77).unwrap(), None);
        let got = sink.wait_for(1);
        let (tag, result) = &got[0];
        assert_eq!(*tag, 77);
        let answer = result.as_ref().unwrap();
        assert!(!answer.cached);
        assert_eq!(*answer.matches, store.current().engine().top_k(1, 3));
        // Hit: returned inline, nothing more reaches the sink.
        let hit = b.submit(1, 3, false, &dyn_sink, 78).unwrap().expect("cache hit");
        assert!(hit.cached);
        assert_eq!(hit.matches, answer.matches);
        assert_eq!(sink.got.lock().unwrap().len(), 1);
        // Admission errors surface immediately, not via the sink.
        assert_eq!(b.submit(99, 3, false, &dyn_sink, 79), Err(SubmitError::BadNode { nodes: 6 }));
        // Shutdown fails queued jobs through their sink.
        b.shutdown();
        assert_eq!(b.submit(2, 3, false, &dyn_sink, 80), Err(SubmitError::Closed));
    }
}
