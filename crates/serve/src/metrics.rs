//! Serve-side observability: the registry every pipeline stage records
//! into, the per-request trace that rides a query through the batcher,
//! and the structured slow-query log.
//!
//! One `ServeMetrics` (crate-internal) per server, shared by the event
//! loop and the batcher's flush workers. All hot-path handles
//! ([`ssr_obs::Counter`] / [`ssr_obs::Histogram`]) are registered once
//! at server start, so recording is lock-free throughout. Stage
//! histograms are in **microseconds**; the per-request [`QueryTrace`]
//! carries **nanoseconds** so sub-microsecond stages (a cache probe)
//! still sum correctly before flooring.
//!
//! The stage decomposition of a query (see README "Observability"):
//!
//! ```text
//! accepted ──decode──►─cache──►─queue──►─engine──►─encode──► done
//! ```
//!
//! Stages are disjoint sub-intervals of `[accepted, encode done]`, so
//! `Σ floor(stage_us) ≤ floor(total_us)` holds for every request — the
//! invariant the e2e suite asserts. Every stage histogram records one
//! sample per request that reached the stage. Lifetime counters live
//! here (or in the cache/batcher, also server-lifetime) and **never**
//! reset on epoch swaps; only the engine gauges are epoch-scoped,
//! because the engine is rebuilt per epoch.

use crate::codec::WireFormat;
use crate::protocol::{MetricsReply, QueryReply, Response, METRICS_VERSION};
use ssr_obs::{Counter, Gauge, Histogram, Registry, RegistrySnapshot};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ring-buffer capacity of retained slow-query lines.
const SLOW_LOG_CAP: usize = 256;

/// Per-request stage timings in nanoseconds, accumulated as a query
/// moves through the batcher pipeline and delivered back to the event
/// loop inside the answer. Decode/encode/total are measured by the loop
/// itself and never ride here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Result-cache probe.
    pub cache_ns: u64,
    /// Bounded-queue wait (submission to flush drain).
    pub queue_ns: u64,
    /// Engine compute: the flush's `top_k_batch` call.
    pub engine_ns: u64,
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
    pub(crate) inline_cache_hits: Counter,
    /// Queries that crossed the slow-query threshold.
    pub(crate) slow_queries: Counter,
    /// Per-stage latency histograms (µs).
    pub(crate) stage_decode: Histogram,
    pub(crate) stage_cache: Histogram,
    pub(crate) stage_queue: Histogram,
    pub(crate) stage_engine: Histogram,
    pub(crate) stage_encode: Histogram,
    pub(crate) stage_total: Histogram,
    /// Decode/encode keyed per codec (µs).
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
    /// Registers every serve metric against a fresh registry (honoring
    /// the `SSR_OBS_DISABLE=1` kill switch).
    pub(crate) fn new() -> ServeMetrics {
        let registry = Registry::from_env();
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

    /// Observes one finished query at encode time: records the total
    /// histogram and, when the threshold is armed and crossed, emits one
    /// structured slow-query line (stderr + retained ring). Stage values
    /// are floored to µs, so their sum never exceeds `total_us`.
    pub(crate) fn observe_query(
        &self,
        fmt: WireFormat,
        reply: &QueryReply,
        decode_ns: u64,
        trace: QueryTrace,
        encode_ns: u64,
        total_ns: u64,
    ) {
        let total_us = total_ns / 1_000;
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
            decode_ns / 1_000,
            trace.cache_ns / 1_000,
            trace.queue_ns / 1_000,
            trace.engine_ns / 1_000,
            encode_ns / 1_000,
        );
        // Sampled queries cross-reference their span tree by trace id.
        if let Some(t) = reply.trace_id {
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
    use std::sync::Arc;

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

    #[test]
    fn slow_log_is_threshold_gated_and_bounded() {
        let m = ServeMetrics::new();
        let trace = QueryTrace { cache_ns: 800, queue_ns: 2_000, engine_ns: 5_000 };
        // Disarmed: nothing retained.
        m.observe_query(WireFormat::Jsonl, &query_reply(), 1_500, trace, 900, 12_000);
        assert!(m.slow_lines().is_empty());
        // Armed at 10µs: a 12µs query logs with its breakdown.
        m.set_slow_query_us(10);
        m.observe_query(WireFormat::Ssb, &query_reply(), 1_500, trace, 900, 12_000);
        let lines = m.slow_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("total_us=12"), "{}", lines[0]);
        assert!(lines[0].contains("codec=ssb"));
        assert!(lines[0].contains("engine_us=5"));
        assert!(lines[0].contains("trace=6"));
        assert_eq!(m.slow_queries.get(), 1);
        // Below threshold: not logged.
        m.observe_query(WireFormat::Ssb, &query_reply(), 100, trace, 100, 9_000);
        assert_eq!(m.slow_lines().len(), 1);
        // The ring stays bounded.
        for _ in 0..(2 * SLOW_LOG_CAP) {
            m.observe_query(WireFormat::Jsonl, &query_reply(), 0, trace, 0, 50_000);
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
