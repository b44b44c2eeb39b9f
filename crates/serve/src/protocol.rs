//! The transport-agnostic typed protocol: what clients ask and servers
//! answer, with no serialization attached.
//!
//! [`Request`] and [`Response`] are plain data. How they travel over a
//! socket is the business of the [`crate::codec`] module, which provides
//! two interchangeable wire encodings behind one API: the original
//! newline-delimited JSON (unchanged on the wire) and the length-prefixed
//! binary `ssb/1` format. Server handlers and clients speak these types
//! only, so adding a codec never touches a handler.
//!
//! Responses are paired to requests by a per-connection *request id*. The
//! binary codec carries the id on the wire (which is what makes pipelining
//! safe); the JSON codec has no id field, so ids are implicit — responses
//! arrive in request order, and both peers count.

use crate::batcher::BatcherStats;
use crate::cache::{CacheStats, CachedMatches};
use ssr_graph::NodeId;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Top-`k` single-source query for `node`.
    Query {
        /// Query node id.
        node: NodeId,
        /// Number of ranked matches to return.
        k: usize,
    },
    /// Liveness probe; echoes the current epoch.
    Ping,
    /// Cache / batcher / epoch metric snapshot.
    Stats,
    /// Full observability snapshot: every registry counter, gauge, and
    /// per-stage latency histogram (see [`MetricsReply`]).
    Metrics,
    /// The server's in-process trace ring: the last sampled request
    /// traces, newest last (see [`TraceReply`]).
    Trace,
    /// Admin: load a new graph from an edge-list or `.ssg` file and
    /// publish it as a new epoch. In-flight queries finish on the old
    /// snapshot.
    Reload {
        /// Path (as seen by the server process) of the graph file.
        path: String,
    },
    /// Admin: apply an edge delta to the current graph and publish the
    /// result as a new epoch.
    EdgeDelta {
        /// Edges to add.
        add: Vec<(NodeId, NodeId)>,
        /// Edges to remove (absent edges are ignored).
        remove: Vec<(NodeId, NodeId)>,
    },
    /// Admin: reconfigure the batcher / cache at runtime.
    Config {
        /// New coalescing window in microseconds (`0` disables coalescing).
        window_us: Option<u64>,
        /// New flush-size cap.
        max_batch: Option<usize>,
        /// Result-cache directive, if any.
        cache: Option<CacheDirective>,
        /// New slow-query-log threshold in microseconds (`0` disables the
        /// log; any query whose end-to-end latency reaches the threshold
        /// is logged with its per-stage breakdown).
        slow_query_us: Option<u64>,
        /// New trace sampling rate: sample 1-in-N requests (`0` disables
        /// tracing).
        trace_sample: Option<u64>,
    },
    /// Admin: stop accepting connections and shut the server down.
    Shutdown,
}

/// What a `config` request may do to the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDirective {
    /// Enable the cache.
    On,
    /// Disable (and clear) the cache.
    Off,
    /// Keep the current enabled state but drop every entry.
    Clear,
}

impl CacheDirective {
    /// The wire spelling shared by both codecs (`on`/`off`/`clear`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDirective::On => "on",
            CacheDirective::Off => "off",
            CacheDirective::Clear => "clear",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<CacheDirective> {
        match s {
            "on" => Some(CacheDirective::On),
            "off" => Some(CacheDirective::Off),
            "clear" => Some(CacheDirective::Clear),
            _ => None,
        }
    }
}

/// A successful query answer, as it appears on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Epoch of the snapshot that produced the scores.
    pub epoch: u64,
    /// The query node (echoed).
    pub node: NodeId,
    /// The requested `k` (echoed; `matches` may be shorter).
    pub k: u64,
    /// Whether the server answered from its result cache.
    pub cached: bool,
    /// Ranked `(node, score)` matches. Scores travel bit-exactly through
    /// both codecs (shortest-round-trip decimal in JSON, raw IEEE-754
    /// bits in `ssb/1`).
    pub matches: CachedMatches,
    /// The request's trace id, present when the request was sampled —
    /// the key into the trace ring / JSONL export and the `trace=` field
    /// of slow-query-log lines.
    pub trace_id: Option<u64>,
}

/// A typed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Query result.
    Query(QueryReply),
    /// `ping` acknowledgement with the current epoch — what a readiness
    /// probe reports.
    Pong {
        /// Current epoch.
        epoch: u64,
    },
    /// `stats` snapshot.
    Stats(Box<StatsReply>),
    /// `metrics` snapshot.
    Metrics(Box<MetricsReply>),
    /// `trace` ring snapshot.
    Trace(Box<TraceReply>),
    /// `reload` acknowledgement.
    Reloaded {
        /// Epoch of the newly published snapshot.
        epoch: u64,
        /// Node count of the new graph.
        nodes: u64,
        /// Edge count of the new graph.
        edges: u64,
    },
    /// `edge-delta` acknowledgement.
    DeltaApplied {
        /// Epoch of the newly published snapshot.
        epoch: u64,
        /// Node count of the new graph.
        nodes: u64,
        /// Edges actually added (post-dedup).
        added: u64,
        /// Edges actually removed.
        removed: u64,
    },
    /// `config` acknowledgement echoing the effective configuration.
    Config {
        /// Effective coalescing window, µs.
        window_us: u64,
        /// Effective flush-size cap.
        max_batch: u64,
        /// Whether the result cache is enabled.
        cache_enabled: bool,
        /// Effective slow-query-log threshold, µs (`0` = disabled).
        slow_query_us: u64,
        /// Effective trace sampling rate (1-in-N; `0` = off).
        trace_sample: u64,
    },
    /// `shutdown` acknowledgement — the last frame on the connection.
    ShuttingDown,
    /// Admission control turned the request away; back off and retry.
    Shed {
        /// Human-readable shed reason.
        reason: String,
    },
    /// The request failed.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// The full `stats` payload: epoch/graph identity plus every serving
/// counter. Field names match the JSON stats document in README
/// ("Serving layer").
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// Current epoch.
    pub epoch: u64,
    /// Epoch swaps published so far.
    pub epoch_swaps: u64,
    /// Node count of the current snapshot.
    pub nodes: u64,
    /// Edge count of the current snapshot.
    pub edges: u64,
    /// Damping factor every snapshot is built with.
    pub c: f64,
    /// Iteration count every snapshot is built with.
    pub iterations: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: f64,
    /// Requests decoded across all connections.
    pub requests: u64,
    /// Currently open connections.
    pub connections: u64,
    /// Connections shed by the connection cap.
    pub shed_connections: u64,
    /// Threads the server runs in total (event loop + flush workers +
    /// admin executor) — the bound that holds however many connections
    /// are open.
    pub worker_threads: u64,
    /// Whether the result cache is enabled.
    pub cache_enabled: bool,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Effective coalescing window, µs.
    pub window_us: u64,
    /// Effective flush-size cap.
    pub max_batch: u64,
    /// Micro-batcher counters.
    pub batcher: BatcherStats,
}

/// Version of the `metrics` payload both codecs carry. Bumped whenever
/// the snapshot's field layout changes.
pub const METRICS_VERSION: u64 = 1;

/// The full `metrics` payload: a versioned [`ssr_obs::RegistrySnapshot`]
/// — every counter and gauge as pre-rendered `(name, value)` pairs and
/// every latency histogram as a quantile summary. Names and labels are
/// cataloged in README ("Observability").
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReply {
    /// Payload version ([`METRICS_VERSION`]).
    pub version: u64,
    /// The frozen registry.
    pub snapshot: ssr_obs::RegistrySnapshot,
}

/// The `trace` payload: the server's in-process trace ring, oldest
/// first, versioned with the trace schema both exports share
/// ([`ssr_obs::TRACE_SCHEMA_VERSION`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReply {
    /// Trace schema version.
    pub version: u64,
    /// Current sampling rate (1-in-N; `0` = off).
    pub sample_every: u64,
    /// The ring's traces, oldest first.
    pub traces: Vec<ssr_obs::Trace>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn cache_directive_round_trips_its_spelling() {
        for d in [CacheDirective::On, CacheDirective::Off, CacheDirective::Clear] {
            assert_eq!(CacheDirective::parse(d.as_str()), Some(d));
        }
        assert_eq!(CacheDirective::parse("purge"), None);
    }

    #[test]
    fn typed_values_compare_structurally() {
        let reply = |cached| {
            Response::Query(QueryReply {
                epoch: 3,
                node: 7,
                k: 2,
                cached,
                matches: Arc::new(vec![(1, 0.5), (2, 0.25)]),
                trace_id: None,
            })
        };
        assert_eq!(reply(true), reply(true));
        assert_ne!(reply(true), reply(false));
        assert_ne!(
            Response::Shed { reason: "queue full".into() },
            Response::Error { message: "queue full".into() }
        );
    }
}
