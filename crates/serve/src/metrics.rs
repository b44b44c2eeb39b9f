//! Serve-side observability: the registry every pipeline stage records
//! into, the one record a query carries from accept to encode, and the
//! structured slow-query log.
//!
//! One `ServeMetrics` (crate-internal) per server, owned by the event
//! loop's shared state. All hot-path handles ([`ssr_obs::Counter`] /
//! [`ssr_obs::Histogram`]) are registered once at server start, so
//! recording is lock-free throughout. Stage histograms are in
//! **microseconds**; the per-query record carries **nanoseconds** and
//! [`Instant`]s, so sub-microsecond stages (a cache probe) still sum
//! correctly before flooring and every span sits at its measured offset.
//!
//! The stage decomposition of a query (see README "Observability"):
//!
//! ```text
//! accepted ──decode──►─cache──►─queue──►─engine──►─encode──► done
//! ```
//!
//! The batcher fills a [`QueryTrace`] per query (cache probe, queue wait
//! and engine call, each with the instant it began); the event loop wraps
//! it in a `RequestRecord` (accept instant, decode and encode times, trace
//! id). When the reply is encoded, `ServeMetrics::observe_query` records
//! the six `ssr_stage_us` histograms, the inline-hit counter and the
//! slow-query line from that record, and [`crate::tracing`] projects a
//! sampled query's span tree from it. `decode`, `cache`, `encode` and
//! `total` take one sample per query reply, `queue` and `engine` one per
//! cache miss. Stages are disjoint sub-intervals of
//! `[accepted, encode done]`, so `Σ floor(stage_us) ≤ floor(total_us)`
//! holds for every request — the invariant the e2e suite asserts.
//! Lifetime counters live here (or in the cache/batcher, also
//! server-lifetime) and **never** reset on epoch swaps; only the engine
//! gauges are epoch-scoped, because the engine is rebuilt per epoch.

use crate::codec::WireFormat;
use crate::protocol::{MetricsReply, QueryReply, Response, METRICS_VERSION};
use simrank_star::EngineTrace;
use ssr_obs::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Ring-buffer capacity of retained slow-query lines.
const SLOW_LOG_CAP: usize = 256;

/// The batcher's record of one query: when each of its stages began, how
/// long it took, and the pipeline context a trace shows. Filled at
/// admission (cache probe, enqueue) and by the flush (queue wait, engine
/// call), and delivered back to the event loop inside the answer. A cache
/// hit never enters the queue, so its `queued_at` and `engine_at` stay
/// `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// When the result-cache probe began.
    pub cache_at: Option<Instant>,
    /// Result-cache probe.
    pub cache_ns: u64,
    /// Result-cache shard the probe touched.
    pub shard: usize,
    /// When the job entered the bounded queue.
    pub queued_at: Option<Instant>,
    /// Bounded-queue wait (enqueue to flush drain).
    pub queue_ns: u64,
    /// Jobs already waiting in the queue when this one entered.
    pub queue_depth: usize,
    /// When the flush called the engine.
    pub engine_at: Option<Instant>,
    /// Engine compute: the flush's `top_k_batch` call.
    pub engine_ns: u64,
    /// Jobs in the flush that answered this query.
    pub flush_size: usize,
    /// Jobs of that flush that shared another job's engine lane.
    pub dedup: usize,
    /// The flush's per-step engine trace, set only when the flush carried
    /// a sampled job (the untraced path allocates nothing for tracing).
    pub engine: Option<Arc<EngineTrace>>,
}

/// The event loop's record of one request: the runtime's timings around
/// the batcher's [`QueryTrace`]. Decode fills the first fields, a query's
/// answer its `query`, and the reply's encode the last two; then
/// [`ServeMetrics::observe_query`] and [`crate::tracing::assemble_trace`]
/// read it.
pub(crate) struct RequestRecord {
    /// When decoding of the request frame began: offset 0 of every span.
    pub(crate) accepted: Instant,
    /// Decode time of the frame.
    pub(crate) decode_ns: u64,
    /// The request's trace id when the sampler kept it.
    pub(crate) trace_id: Option<u64>,
    /// The batcher's record, joined when a query's answer lands.
    pub(crate) query: QueryTrace,
    /// Encode time of the reply.
    pub(crate) encode_ns: u64,
    /// Accept to the end of the reply's encode: the `total` stage.
    pub(crate) total_ns: u64,
}

impl RequestRecord {
    /// The record of a request decoded from `accepted` on in `decode_ns`.
    pub(crate) fn new(accepted: Instant, decode_ns: u64, trace_id: Option<u64>) -> RequestRecord {
        RequestRecord {
            accepted,
            decode_ns,
            trace_id,
            query: QueryTrace::default(),
            encode_ns: 0,
            total_ns: 0,
        }
    }
}

/// The codec label both counters and histograms are keyed by.
pub(crate) fn codec_label(fmt: WireFormat) -> &'static str {
    match fmt {
        WireFormat::Jsonl => "json",
        WireFormat::Ssb => "ssb",
    }
}

/// The server's metric registry plus every pre-registered handle the
/// pipeline records into. See the module docs for the stage model.
pub(crate) struct ServeMetrics {
    registry: Registry,
    /// Requests decoded, per codec.
    requests_json: Counter,
    requests_ssb: Counter,
    /// Responses encoded, by outcome kind.
    responses_ok: Counter,
    responses_shed: Counter,
    responses_error: Counter,
    /// Malformed frames answered with a typed error.
    pub(crate) malformed: Counter,
    /// Connections accepted / shed by the cap.
    pub(crate) connections_opened: Counter,
    pub(crate) connections_shed: Counter,
    /// Currently open connections (maintained by the event loop).
    pub(crate) connections: Gauge,
    /// Queries answered from the cache without entering the queue.
    inline_cache_hits: Counter,
    /// Queries that crossed the slow-query threshold.
    slow_queries: Counter,
    /// Per-stage latency histograms (µs), one sample per query reply.
    stage_decode: Histogram,
    stage_cache: Histogram,
    stage_queue: Histogram,
    stage_engine: Histogram,
    stage_encode: Histogram,
    stage_total: Histogram,
    /// Decode/encode keyed per codec (µs), one sample per frame.
    decode_json: Histogram,
    decode_ssb: Histogram,
    encode_json: Histogram,
    encode_ssb: Histogram,
    /// Slow-query threshold, µs; 0 disables the log.
    slow_threshold_us: AtomicU64,
    /// Retained slow-query lines (newest last).
    slow_lines: Mutex<VecDeque<String>>,
}

impl ServeMetrics {
    /// Registers every serve metric against a fresh live registry.
    pub(crate) fn new() -> ServeMetrics {
        let registry = Registry::new();
        let stage = |name: &str| registry.histogram("ssr_stage_us", &[("stage", name)]);
        // Info-style metric: the value is always 1, the payload is the
        // labels — crate version, wire protocols, readable .ssg versions.
        let store_versions =
            format!("ssg/{} ssg/{}", ssr_store::FORMAT_VERSION_V1, ssr_store::FORMAT_VERSION);
        registry
            .gauge(
                "ssr_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("protocols", "json/1 ssb/1"),
                    ("store_versions", &store_versions),
                ],
            )
            .set(1);
        ServeMetrics {
            requests_json: registry.counter("ssr_requests_total", &[("codec", "json")]),
            requests_ssb: registry.counter("ssr_requests_total", &[("codec", "ssb")]),
            responses_ok: registry.counter("ssr_responses_total", &[("kind", "ok")]),
            responses_shed: registry.counter("ssr_responses_total", &[("kind", "shed")]),
            responses_error: registry.counter("ssr_responses_total", &[("kind", "error")]),
            malformed: registry.counter("ssr_malformed_total", &[]),
            connections_opened: registry.counter("ssr_connections_opened_total", &[]),
            connections_shed: registry.counter("ssr_connections_shed_total", &[]),
            connections: registry.gauge("ssr_connections", &[]),
            inline_cache_hits: registry.counter("ssr_inline_cache_hits_total", &[]),
            slow_queries: registry.counter("ssr_slow_queries_total", &[]),
            stage_decode: stage("decode"),
            stage_cache: stage("cache"),
            stage_queue: stage("queue"),
            stage_engine: stage("engine"),
            stage_encode: stage("encode"),
            stage_total: stage("total"),
            decode_json: registry.histogram("ssr_codec_decode_us", &[("codec", "json")]),
            decode_ssb: registry.histogram("ssr_codec_decode_us", &[("codec", "ssb")]),
            encode_json: registry.histogram("ssr_codec_encode_us", &[("codec", "json")]),
            encode_ssb: registry.histogram("ssr_codec_encode_us", &[("codec", "ssb")]),
            slow_threshold_us: AtomicU64::new(0),
            slow_lines: Mutex::new(VecDeque::new()),
            registry,
        }
    }

    /// The decoded-requests counter for `fmt`.
    pub(crate) fn requests(&self, fmt: WireFormat) -> &Counter {
        match fmt {
            WireFormat::Jsonl => &self.requests_json,
            WireFormat::Ssb => &self.requests_ssb,
        }
    }

    /// The per-codec decode histogram.
    pub(crate) fn decode_hist(&self, fmt: WireFormat) -> &Histogram {
        match fmt {
            WireFormat::Jsonl => &self.decode_json,
            WireFormat::Ssb => &self.decode_ssb,
        }
    }

    /// The per-codec encode histogram.
    pub(crate) fn encode_hist(&self, fmt: WireFormat) -> &Histogram {
        match fmt {
            WireFormat::Jsonl => &self.encode_json,
            WireFormat::Ssb => &self.encode_ssb,
        }
    }

    /// Counts an encoded response by outcome kind.
    pub(crate) fn count_response(&self, resp: &Response) {
        match resp {
            Response::Shed { .. } => self.responses_shed.inc(),
            Response::Error { .. } => self.responses_error.inc(),
            _ => self.responses_ok.inc(),
        }
    }

    /// Current slow-query threshold, µs (0 = disabled).
    pub(crate) fn slow_query_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Sets the slow-query threshold (admin `config` op).
    pub(crate) fn set_slow_query_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// Observes one query at the end of its reply's encode: records every
    /// stage histogram the query went through and the inline-hit counter
    /// from its record and, when the threshold is armed and crossed, emits
    /// one structured slow-query line (stderr + retained ring). Stage
    /// values are floored to µs, so their sum never exceeds `total_us`.
    pub(crate) fn observe_query(&self, fmt: WireFormat, reply: &QueryReply, rec: &RequestRecord) {
        let q = &rec.query;
        self.stage_decode.record(rec.decode_ns / 1_000);
        self.stage_cache.record(q.cache_ns / 1_000);
        if reply.cached {
            self.inline_cache_hits.inc();
        } else {
            self.stage_queue.record(q.queue_ns / 1_000);
            self.stage_engine.record(q.engine_ns / 1_000);
        }
        self.stage_encode.record(rec.encode_ns / 1_000);
        let total_us = rec.total_ns / 1_000;
        self.stage_total.record(total_us);
        let threshold = self.slow_query_us();
        if threshold == 0 || total_us < threshold {
            return;
        }
        self.slow_queries.inc();
        let mut line = format!(
            "slow-query total_us={total_us} node={} k={} epoch={} cached={} codec={} \
             decode_us={} cache_us={} queue_us={} engine_us={} encode_us={}",
            reply.node,
            reply.k,
            reply.epoch,
            reply.cached,
            codec_label(fmt),
            rec.decode_ns / 1_000,
            q.cache_ns / 1_000,
            q.queue_ns / 1_000,
            q.engine_ns / 1_000,
            rec.encode_ns / 1_000,
        );
        // Sampled queries cross-reference their span tree by trace id.
        if let Some(t) = rec.trace_id {
            line.push_str(&format!(" trace={t}"));
        }
        eprintln!("{line}");
        let mut lines = self.slow_lines.lock().expect("slow log poisoned");
        if lines.len() >= SLOW_LOG_CAP {
            lines.pop_front();
        }
        lines.push_back(line);
    }

    /// The retained slow-query lines, oldest first.
    pub(crate) fn slow_lines(&self) -> Vec<String> {
        self.slow_lines.lock().expect("slow log poisoned").iter().cloned().collect()
    }

    /// Freezes the registry and splices in the pulled values (counters
    /// owned by the cache/batcher/store, epoch-scoped engine gauges),
    /// producing the versioned `metrics` payload.
    pub(crate) fn reply(
        &self,
        pulled_counters: Vec<(String, u64)>,
        pulled_gauges: Vec<(String, u64)>,
    ) -> MetricsReply {
        let mut snapshot: RegistrySnapshot = self.registry.snapshot();
        snapshot.counters.extend(pulled_counters);
        snapshot.gauges.extend(pulled_gauges);
        snapshot.counters.sort();
        snapshot.gauges.sort();
        MetricsReply { version: METRICS_VERSION, snapshot }
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("enabled", &self.registry.enabled())
            .field("slow_query_us", &self.slow_query_us())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_reply() -> QueryReply {
        QueryReply {
            epoch: 1,
            node: 3,
            k: 2,
            cached: false,
            matches: Arc::new(vec![(1, 0.5)]),
            trace_id: Some(6),
        }
    }

    /// A miss's record: decoded in `decode_ns`, answered with the given
    /// stage times, encoded in `encode_ns`, `total_ns` after accept.
    fn record(decode_ns: u64, encode_ns: u64, total_ns: u64) -> RequestRecord {
        let mut rec = RequestRecord::new(Instant::now(), decode_ns, Some(6));
        rec.query =
            QueryTrace { cache_ns: 800, queue_ns: 2_000, engine_ns: 5_000, ..Default::default() };
        rec.encode_ns = encode_ns;
        rec.total_ns = total_ns;
        rec
    }

    #[test]
    fn slow_log_is_threshold_gated_and_bounded() {
        let m = ServeMetrics::new();
        // Disarmed: nothing retained.
        m.observe_query(WireFormat::Jsonl, &query_reply(), &record(1_500, 900, 12_000));
        assert!(m.slow_lines().is_empty());
        // Armed at 10µs: a 12µs query logs with its breakdown.
        m.set_slow_query_us(10);
        m.observe_query(WireFormat::Ssb, &query_reply(), &record(1_500, 900, 12_000));
        let lines = m.slow_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("total_us=12"), "{}", lines[0]);
        assert!(lines[0].contains("codec=ssb"));
        assert!(lines[0].contains("engine_us=5"));
        assert!(lines[0].contains("trace=6"));
        assert_eq!(m.slow_queries.get(), 1);
        // Below threshold: not logged.
        m.observe_query(WireFormat::Ssb, &query_reply(), &record(100, 100, 9_000));
        assert_eq!(m.slow_lines().len(), 1);
        // The ring stays bounded.
        for _ in 0..(2 * SLOW_LOG_CAP) {
            m.observe_query(WireFormat::Jsonl, &query_reply(), &record(0, 0, 50_000));
        }
        assert_eq!(m.slow_lines().len(), SLOW_LOG_CAP);
    }

    #[test]
    fn reply_splices_pulled_values_sorted() {
        let m = ServeMetrics::new();
        m.requests(WireFormat::Jsonl).inc();
        let reply =
            m.reply(vec![("ssr_cache_hits_total".into(), 5)], vec![("ssr_epoch".into(), 3)]);
        assert_eq!(reply.version, METRICS_VERSION);
        let counters: Vec<&str> = reply.snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert!(counters.windows(2).all(|w| w[0] <= w[1]), "sorted: {counters:?}");
        assert!(counters.contains(&"ssr_cache_hits_total"));
        assert!(reply.snapshot.gauges.iter().any(|(n, v)| n == "ssr_epoch" && *v == 3));
    }
}
