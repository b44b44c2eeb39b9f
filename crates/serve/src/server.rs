//! The TCP server: lifecycle, shared state, and the two helper threads
//! behind the event-driven runtime.
//!
//! [`Server::start`] binds the listener and spawns exactly one event-loop
//! thread (the `runtime` module) plus one admin-executor thread; query
//! execution runs in the batcher's flush worker. That fixed budget of
//! three threads — surfaced as `worker_threads` in `stats` — holds at any
//! connection count: ten thousand idle sockets are ten thousand buffer
//! pairs in the loop's map, not ten thousand parked threads. Admission
//! control is layered as before: a connection cap sheds new sockets, the
//! batcher's bounded queue sheds individual requests.
//!
//! Threads meet in two places: the completion queue (the flush worker and
//! the admin executor push results, the loop drains after a waker nudge)
//! and the epoch store. Everything else — buffers, parser state, pending
//! FIFOs — is owned by the loop thread and never locked.

use crate::batcher::{Batcher, BatcherOptions, CompletionSink, QueryAnswer, SubmitError};
use crate::cache::ShardedCache;
use crate::epoch::EpochStore;
use crate::metrics::ServeMetrics;
use crate::poller::{self, Waker};
use crate::protocol::{MetricsReply, Response};
use crate::runtime::EventLoop;
use crate::tracing::TraceCollector;
use simrank_star::{QueryEngineOptions, SimStarParams};
use ssr_graph::{DiGraph, NodeId};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Threads a server runs: the event loop, the batcher's flush worker and
/// the admin executor, at any connection count.
pub(crate) const WORKER_THREADS: u64 = 3;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// SimRank\* parameters every snapshot is built with.
    pub params: SimStarParams,
    /// Engine options every snapshot is built with (see
    /// [`EpochStore::new`]).
    pub engine: QueryEngineOptions,
    /// Total result-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Number of cache shards.
    pub cache_shards: usize,
    /// Micro-batcher configuration.
    pub batch: BatcherOptions,
    /// Concurrent-connection cap; sockets beyond it receive one shed
    /// line and are closed.
    pub max_connections: usize,
    /// Initial slow-query-log threshold in microseconds; 0 disables the
    /// log. Retunable at runtime through the admin `config` op.
    pub slow_query_us: u64,
    /// Trace-sample 1-in-N requests (0 = off). Retunable at runtime
    /// through the admin `config` op.
    pub trace_sample: u64,
    /// Stream every recorded trace as JSONL to this file.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            params: SimStarParams::default(),
            engine: QueryEngineOptions::default(),
            cache_capacity: 4096,
            cache_shards: 8,
            batch: BatcherOptions::default(),
            max_connections: 256,
            slow_query_us: 0,
            trace_sample: 0,
            trace_out: None,
        }
    }
}

/// A batcher or admin result delivered back to the event loop.
pub(crate) struct Completion {
    /// The tag the loop issued at submission time.
    pub(crate) tag: u64,
    pub(crate) payload: CompletionPayload,
}

pub(crate) enum CompletionPayload {
    /// Outcome of an asynchronous batcher submission.
    Query(Result<QueryAnswer, SubmitError>),
    /// Finished admin op, already shaped as its response.
    Admin(Response),
}

/// The cross-thread completion queue: the flush worker and the admin
/// executor push, the event loop drains after each waker nudge.
pub(crate) struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl CompletionQueue {
    pub(crate) fn push(&self, c: Completion) {
        self.queue.lock().expect("completion queue poisoned").push(c);
        self.waker.wake();
    }

    /// Takes everything queued so far.
    pub(crate) fn take(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

impl CompletionSink for CompletionQueue {
    fn complete(&self, tag: u64, result: Result<QueryAnswer, SubmitError>) {
        self.push(Completion { tag, payload: CompletionPayload::Query(result) });
    }
}

/// A reload / edge-delta handed to the admin executor thread.
pub(crate) struct AdminJob {
    pub(crate) tag: u64,
    pub(crate) op: AdminOp,
}

pub(crate) enum AdminOp {
    Reload { path: String },
    EdgeDelta { add: Vec<(NodeId, NodeId)>, remove: Vec<(NodeId, NodeId)> },
}

/// State shared between the server handle, the event loop, and the helper
/// threads.
pub(crate) struct Inner {
    pub(crate) store: Arc<EpochStore>,
    pub(crate) cache: Arc<ShardedCache>,
    pub(crate) batcher: Batcher,
    /// The server-lifetime metric registry every stage records into.
    /// Never reset by epoch swaps — see [`crate::metrics`].
    pub(crate) metrics: Arc<ServeMetrics>,
    /// The trace sampler + ring + JSONL exporter.
    pub(crate) tracer: Arc<TraceCollector>,
    pub(crate) completions: Arc<CompletionQueue>,
    /// The completion queue as the batcher's sink type, cloned per submit.
    pub(crate) completion_sink: Arc<dyn CompletionSink>,
    pub(crate) running: AtomicBool,
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
    waker: Waker,
    pub(crate) max_connections: usize,
    pub(crate) started: Instant,
}

impl Inner {
    /// Flips the running flag, wakes the event loop out of its wait, and
    /// signals anyone parked in [`Server::wait`]. Idempotent; called by
    /// both the `shutdown` op and the owning handle.
    pub(crate) fn signal_stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.waker.wake();
        *self.stopped.lock().expect("stop flag poisoned") = true;
        self.stopped_cv.notify_all();
    }

    /// Assembles the versioned `metrics` payload: the live registry plus
    /// values *pulled* at snapshot time from the cache, the batcher, and
    /// the current epoch's engine. The split is deliberate —
    /// lifetime counters live in server-lifetime structures and survive
    /// epoch swaps; the `ssr_engine_*` gauges are epoch-scoped because
    /// engines are rebuilt per epoch.
    pub(crate) fn metrics_reply(&self) -> MetricsReply {
        let snapshot = self.store.current();
        let cache = self.cache.stats();
        let batcher = self.batcher.stats();
        let pulled_counters = vec![
            ("ssr_batch_flushed_jobs_total".to_string(), batcher.flushed_jobs),
            ("ssr_batch_flushes_total".to_string(), batcher.flushes),
            ("ssr_batch_shed_total".to_string(), batcher.shed),
            ("ssr_batch_submitted_total".to_string(), batcher.submitted),
            ("ssr_batch_unique_lanes_total".to_string(), batcher.unique_lanes),
            ("ssr_cache_evictions_total".to_string(), cache.evictions),
            ("ssr_cache_hits_total".to_string(), cache.hits),
            ("ssr_cache_inserts_total".to_string(), cache.inserts),
            ("ssr_cache_misses_total".to_string(), cache.misses),
            ("ssr_epoch_recycled_swaps_total".to_string(), self.store.recycled_swaps()),
            ("ssr_epoch_swaps_total".to_string(), self.store.swap_count()),
        ];
        let mut pulled_gauges = vec![
            ("ssr_batch_max_flush".to_string(), batcher.max_flush),
            ("ssr_batch_queue_depth_high_water".to_string(), self.batcher.queue_high_water()),
            ("ssr_cache_entries".to_string(), cache.entries as u64),
            ("ssr_epoch".to_string(), snapshot.epoch),
        ];
        for (shard, (entries, bytes)) in self.cache.per_shard_occupancy().into_iter().enumerate() {
            pulled_gauges.push((format!("ssr_cache_entries{{shard=\"{shard}\"}}"), entries as u64));
            pulled_gauges.push((format!("ssr_cache_bytes{{shard=\"{shard}\"}}"), bytes as u64));
        }
        let engine = snapshot.engine();
        let stats = engine.stats();
        for (name, value) in [
            ("sweeps", stats.sweeps),
            ("iterations", stats.iterations),
            ("dense_steps", stats.dense_steps),
            ("lanes_used", stats.lanes_used),
            ("lane_slots", stats.lane_slots),
            ("frontier_active", stats.frontier_active),
            ("frontier_slots", stats.frontier_slots),
            ("resident_bytes", engine.resident_bytes() as u64),
            ("scratch_bytes", engine.scratch_bytes() as u64),
        ] {
            pulled_gauges.push((format!("ssr_engine_{name}"), value));
        }
        self.metrics.reply(pulled_counters, pulled_gauges)
    }
}

/// A running serve instance. Dropping it (or calling [`Server::shutdown`])
/// stops the event loop, closes live connections, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    admin_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `host:port` (port 0 ⇒ ephemeral) and starts serving `graph`.
    pub fn start(
        graph: DiGraph,
        host: &str,
        port: u16,
        opts: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind((host, port))?;
        let addr = listener.local_addr()?;
        let store = Arc::new(EpochStore::new(graph, opts.params, opts.engine.clone()));
        let cache = Arc::new(ShardedCache::new(opts.cache_capacity, opts.cache_shards));
        let metrics = Arc::new(ServeMetrics::new());
        metrics.set_slow_query_us(opts.slow_query_us);
        let tracer = Arc::new(TraceCollector::new(opts.trace_sample, opts.trace_out.as_deref())?);
        let batcher = Batcher::start(store.clone(), cache.clone(), opts.batch.clone());
        let (waker, wake_rx) = poller::waker()?;
        let completions =
            Arc::new(CompletionQueue { queue: Mutex::new(Vec::new()), waker: waker.clone() });
        let completion_sink: Arc<dyn CompletionSink> = completions.clone();
        let inner = Arc::new(Inner {
            store: store.clone(),
            cache,
            batcher,
            metrics,
            tracer,
            completions: completions.clone(),
            completion_sink,
            running: AtomicBool::new(true),
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
            waker,
            max_connections: opts.max_connections.max(1),
            started: Instant::now(),
        });
        let (admin_tx, admin_rx) = mpsc::channel::<AdminJob>();
        let event_loop = EventLoop::new(inner.clone(), listener, wake_rx, admin_tx)?;
        let loop_thread = std::thread::spawn(move || event_loop.run());
        let admin_thread = std::thread::spawn(move || admin_loop(&admin_rx, &store, &completions));
        Ok(Server { addr, inner, loop_thread: Some(loop_thread), admin_thread: Some(admin_thread) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total server threads: the event loop, the flush worker and the
    /// admin executor. Constant at any connection count.
    pub fn worker_threads(&self) -> u64 {
        WORKER_THREADS
    }

    /// The current `metrics` payload, exactly as the `metrics` admin op
    /// would return it over either codec. The CLI's `--metrics-dump` and
    /// the e2e suite read it in-process through this.
    pub fn metrics(&self) -> MetricsReply {
        self.inner.metrics_reply()
    }

    /// Prometheus text exposition of [`Server::metrics`].
    pub fn metrics_prometheus(&self) -> String {
        self.inner.metrics_reply().snapshot.render_prometheus()
    }

    /// The retained slow-query log lines (oldest first). Populated only
    /// while a non-zero threshold is armed via the admin `config` op.
    pub fn slow_query_lines(&self) -> Vec<String> {
        self.inner.metrics.slow_lines()
    }

    /// Blocks until the server is asked to stop (a client `shutdown` op or
    /// [`Server::shutdown`] from another thread/handle). The CLI parks its
    /// main thread here.
    pub fn wait(&self) {
        let mut stopped = self.inner.stopped.lock().expect("stop flag poisoned");
        while !*stopped {
            stopped = self.inner.stopped_cv.wait(stopped).expect("stop flag poisoned");
        }
    }

    /// Stops the event loop, closes live connections, joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.signal_stop();
        // The loop closes every connection as it unwinds; dropping it also
        // drops the admin sender, which ends the admin executor.
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        self.inner.batcher.shutdown();
        if let Some(t) = self.admin_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The admin executor: runs reloads and edge-deltas (seconds of graph
/// build + engine precompute) off the event loop, delivering results
/// through the completion queue. One job at a time, FIFO.
fn admin_loop(
    rx: &mpsc::Receiver<AdminJob>,
    store: &Arc<EpochStore>,
    completions: &Arc<CompletionQueue>,
) {
    while let Ok(job) = rx.recv() {
        let response = match job.op {
            // Content-sniffing loader: a reload path may point at a text
            // edge list or a binary `.ssg` store — large-graph deployments
            // publish epochs from the store so swaps skip parsing.
            AdminOp::Reload { path } => match store.reload(&path) {
                Err(message) => Response::Error { message },
                Ok(snap) => Response::Reloaded {
                    epoch: snap.epoch,
                    nodes: snap.nodes as u64,
                    edges: snap.graph().edge_count() as u64,
                },
            },
            AdminOp::EdgeDelta { add, remove } => match store.apply_delta(&add, &remove) {
                Err(e) => Response::Error { message: e },
                Ok((snap, added, removed)) => Response::DeltaApplied {
                    epoch: snap.epoch,
                    nodes: snap.nodes as u64,
                    added: added as u64,
                    removed: removed as u64,
                },
            },
        };
        completions.push(Completion { tag: job.tag, payload: CompletionPayload::Admin(response) });
    }
}
