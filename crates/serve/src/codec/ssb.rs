//! The `ssb/1` binary codec: length-prefixed frames over LEB128 varints.
//!
//! ## Framing
//!
//! After connecting, a client sends the 4-byte magic [`super::SSB_MAGIC`]
//! (`"SSB1"`) once; everything after it is frames in both directions:
//!
//! ```text
//! frame    := varint(body_len) body
//! request  := varint(id) u8(opcode) fields...
//! response := varint(id) u8(kind)   fields...
//! ```
//!
//! Integers are `ssr-store` LEB128 varints (one implementation across disk
//! and wire); floats are 8 raw little-endian IEEE-754 bytes, so scores are
//! bit-identical to the JSON path by construction; strings are
//! `varint(len)` + UTF-8 bytes. The `id` is chosen by the client and
//! echoed verbatim in the response — that is what makes pipelining safe.
//! Responses still arrive in request order per connection (the server is
//! FIFO), so epoch monotonicity guarantees carry over from the JSON path.
//!
//! ## Robustness
//!
//! The decoder never panics on hostile bytes. Truncated buffers come back
//! [`Decoded::Incomplete`]; a frame whose declared length exceeds
//! [`super::MAX_FRAME_BYTES`] (a *length lie*) or whose length prefix
//! cannot terminate is [`Malformed`] and unrecoverable (the stream has
//! lost framing); a complete frame with a bad opcode, truncated fields, or
//! trailing bytes is [`Malformed`] but recoverable — the length prefix
//! still frames the stream, so the connection survives with an error
//! response. The corruption battery in `tests/protocol_props.rs` drives
//! truncations, bit flips, and length lies through this decoder.

use super::{Decoded, Malformed, MAX_FRAME_BYTES};
use crate::batcher::BatcherStats;
use crate::cache::CacheStats;
use crate::protocol::{
    CacheDirective, MetricsReply, QueryReply, Request, Response, StatsReply, TraceReply,
};
use ssr_graph::NodeId;
use ssr_obs::{HistSnap, RegistrySnapshot, Trace, TraceSpan};
use ssr_store::varint::{read_varint, write_varint};
use std::sync::Arc;

/// Request opcodes (third wire byte group of a request frame).
mod op {
    pub const QUERY: u8 = 0x01;
    pub const PING: u8 = 0x02;
    pub const STATS: u8 = 0x03;
    pub const RELOAD: u8 = 0x04;
    pub const EDGE_DELTA: u8 = 0x05;
    pub const CONFIG: u8 = 0x06;
    pub const SHUTDOWN: u8 = 0x07;
    pub const METRICS: u8 = 0x08;
    pub const TRACE: u8 = 0x09;
}

/// Response kinds.
mod kind {
    pub const QUERY: u8 = 0x00;
    pub const PONG: u8 = 0x01;
    pub const STATS: u8 = 0x02;
    pub const RELOADED: u8 = 0x03;
    pub const DELTA: u8 = 0x04;
    pub const CONFIG: u8 = 0x05;
    pub const SHUTTING_DOWN: u8 = 0x06;
    pub const SHED: u8 = 0x07;
    pub const ERROR: u8 = 0x08;
    pub const METRICS: u8 = 0x09;
    pub const TRACE: u8 = 0x0A;
}

/// Presence flags of the `config` request body.
mod cfg {
    pub const WINDOW: u8 = 0x01;
    pub const MAX_BATCH: u8 = 0x02;
    pub const CACHE: u8 = 0x04;
    pub const SLOW_QUERY: u8 = 0x08;
    pub const TRACE_SAMPLE: u8 = 0x10;
}

/// The `ssb/1` codec. Stateless; see the module docs.
pub struct SsbCodec;

impl super::Codec for SsbCodec {
    fn name(&self) -> &'static str {
        "ssb/1"
    }

    fn encode_request(&self, id: u64, req: &Request, out: &mut Vec<u8>) {
        frame(out, |body| {
            write_varint(body, id);
            match req {
                Request::Query { node, k } => {
                    body.push(op::QUERY);
                    write_varint(body, u64::from(*node));
                    write_varint(body, *k as u64);
                }
                Request::Ping => body.push(op::PING),
                Request::Stats => body.push(op::STATS),
                Request::Metrics => body.push(op::METRICS),
                Request::Trace => body.push(op::TRACE),
                Request::Reload { path } => {
                    body.push(op::RELOAD);
                    put_str(body, path);
                }
                Request::EdgeDelta { add, remove } => {
                    body.push(op::EDGE_DELTA);
                    put_edges(body, add);
                    put_edges(body, remove);
                }
                Request::Config { window_us, max_batch, cache, slow_query_us, trace_sample } => {
                    body.push(op::CONFIG);
                    let mut flags = 0u8;
                    if window_us.is_some() {
                        flags |= cfg::WINDOW;
                    }
                    if max_batch.is_some() {
                        flags |= cfg::MAX_BATCH;
                    }
                    if cache.is_some() {
                        flags |= cfg::CACHE;
                    }
                    if slow_query_us.is_some() {
                        flags |= cfg::SLOW_QUERY;
                    }
                    if trace_sample.is_some() {
                        flags |= cfg::TRACE_SAMPLE;
                    }
                    body.push(flags);
                    if let Some(w) = window_us {
                        write_varint(body, *w);
                    }
                    if let Some(m) = max_batch {
                        write_varint(body, *m as u64);
                    }
                    if let Some(c) = cache {
                        body.push(match c {
                            CacheDirective::Off => 0,
                            CacheDirective::On => 1,
                            CacheDirective::Clear => 2,
                        });
                    }
                    if let Some(t) = slow_query_us {
                        write_varint(body, *t);
                    }
                    if let Some(t) = trace_sample {
                        write_varint(body, *t);
                    }
                }
                Request::Shutdown => body.push(op::SHUTDOWN),
            }
        });
    }

    fn decode_request(&self, buf: &[u8]) -> Decoded<Request> {
        decode_frame(buf, decode_request_body)
    }

    fn encode_response(&self, id: u64, resp: &Response, out: &mut Vec<u8>) {
        frame(out, |body| {
            write_varint(body, id);
            match resp {
                Response::Query(r) => {
                    body.push(kind::QUERY);
                    write_varint(body, r.epoch);
                    write_varint(body, u64::from(r.node));
                    write_varint(body, r.k);
                    body.push(u8::from(r.cached));
                    // Trace id: one presence byte, then the id when sampled.
                    body.push(u8::from(r.trace_id.is_some()));
                    if let Some(t) = r.trace_id {
                        write_varint(body, t);
                    }
                    write_varint(body, r.matches.len() as u64);
                    for &(node, score) in r.matches.iter() {
                        write_varint(body, u64::from(node));
                        put_f64(body, score);
                    }
                }
                Response::Pong { epoch } => {
                    body.push(kind::PONG);
                    write_varint(body, *epoch);
                }
                Response::Stats(s) => {
                    body.push(kind::STATS);
                    put_stats(body, s);
                }
                Response::Metrics(m) => {
                    body.push(kind::METRICS);
                    put_metrics(body, m);
                }
                Response::Trace(t) => {
                    body.push(kind::TRACE);
                    put_traces(body, t);
                }
                Response::Reloaded { epoch, nodes, edges } => {
                    body.push(kind::RELOADED);
                    write_varint(body, *epoch);
                    write_varint(body, *nodes);
                    write_varint(body, *edges);
                }
                Response::DeltaApplied { epoch, nodes, added, removed } => {
                    body.push(kind::DELTA);
                    write_varint(body, *epoch);
                    write_varint(body, *nodes);
                    write_varint(body, *added);
                    write_varint(body, *removed);
                }
                Response::Config {
                    window_us,
                    max_batch,
                    cache_enabled,
                    slow_query_us,
                    trace_sample,
                } => {
                    body.push(kind::CONFIG);
                    write_varint(body, *window_us);
                    write_varint(body, *max_batch);
                    body.push(u8::from(*cache_enabled));
                    write_varint(body, *slow_query_us);
                    write_varint(body, *trace_sample);
                }
                Response::ShuttingDown => body.push(kind::SHUTTING_DOWN),
                Response::Shed { reason } => {
                    body.push(kind::SHED);
                    put_str(body, reason);
                }
                Response::Error { message } => {
                    body.push(kind::ERROR);
                    put_str(body, message);
                }
            }
        });
    }

    fn decode_response(&self, buf: &[u8]) -> Decoded<Response> {
        decode_frame(buf, decode_response_body)
    }
}

/// Appends one frame to `out`: builds the body, then splices the varint
/// length prefix in front of it.
fn frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let mut body = Vec::with_capacity(32);
    fill(&mut body);
    write_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_edges(out: &mut Vec<u8>, edges: &[(NodeId, NodeId)]) {
    write_varint(out, edges.len() as u64);
    for &(a, b) in edges {
        write_varint(out, u64::from(a));
        write_varint(out, u64::from(b));
    }
}

fn put_metrics(out: &mut Vec<u8>, m: &MetricsReply) {
    write_varint(out, m.version);
    for pairs in [&m.snapshot.counters, &m.snapshot.gauges] {
        write_varint(out, pairs.len() as u64);
        for (name, v) in pairs {
            put_str(out, name);
            write_varint(out, *v);
        }
    }
    write_varint(out, m.snapshot.hists.len() as u64);
    for h in &m.snapshot.hists {
        put_str(out, &h.name);
        for v in [h.count, h.sum, h.max, h.p50, h.p90, h.p99, h.p999] {
            write_varint(out, v);
        }
    }
}

fn put_attrs(out: &mut Vec<u8>, attrs: &[(String, String)]) {
    write_varint(out, attrs.len() as u64);
    for (k, v) in attrs {
        put_str(out, k);
        put_str(out, v);
    }
}

fn put_traces(out: &mut Vec<u8>, t: &TraceReply) {
    write_varint(out, t.version);
    write_varint(out, t.sample_every);
    write_varint(out, t.traces.len() as u64);
    for trace in &t.traces {
        write_varint(out, trace.id);
        write_varint(out, trace.total_ns);
        put_attrs(out, &trace.attrs);
        write_varint(out, trace.spans.len() as u64);
        for span in &trace.spans {
            put_str(out, &span.name);
            // `parent` is ≥ −1 (−1 = root), so shift by one to stay in
            // unsigned varint territory.
            write_varint(out, (span.parent + 1) as u64);
            write_varint(out, span.start_ns);
            write_varint(out, span.dur_ns);
            put_attrs(out, &span.attrs);
        }
    }
}

fn put_stats(out: &mut Vec<u8>, s: &StatsReply) {
    write_varint(out, s.epoch);
    write_varint(out, s.epoch_swaps);
    write_varint(out, s.nodes);
    write_varint(out, s.edges);
    put_f64(out, s.c);
    write_varint(out, s.iterations);
    put_f64(out, s.uptime_ms);
    write_varint(out, s.requests);
    write_varint(out, s.connections);
    write_varint(out, s.shed_connections);
    write_varint(out, s.worker_threads);
    out.push(u8::from(s.cache_enabled));
    write_varint(out, s.cache.hits);
    write_varint(out, s.cache.misses);
    write_varint(out, s.cache.inserts);
    write_varint(out, s.cache.evictions);
    write_varint(out, s.cache.entries as u64);
    write_varint(out, s.window_us);
    write_varint(out, s.max_batch);
    write_varint(out, s.batcher.submitted);
    write_varint(out, s.batcher.shed);
    write_varint(out, s.batcher.flushes);
    write_varint(out, s.batcher.flushed_jobs);
    write_varint(out, s.batcher.unique_lanes);
    write_varint(out, s.batcher.max_flush);
}

/// Splits one length-prefixed frame off `buf` and decodes its body.
fn decode_frame<T>(
    buf: &[u8],
    decode_body: impl FnOnce(&mut Reader) -> Result<T, String>,
) -> Decoded<T> {
    let mut pos = 0usize;
    let Some(len) = read_varint(buf, &mut pos) else {
        // A length prefix is at most 10 bytes: if that many are buffered
        // and the varint still does not terminate, the stream has lost
        // framing — more bytes will never help.
        if buf.len() >= 10 {
            return Decoded::Malformed(Malformed {
                consumed: 0,
                id: None,
                recoverable: false,
                error: "unterminated frame length prefix".into(),
            });
        }
        return Decoded::Incomplete;
    };
    if len > MAX_FRAME_BYTES {
        return Decoded::Malformed(Malformed {
            consumed: 0,
            id: None,
            recoverable: false,
            error: format!("declared frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        });
    }
    let len = len as usize;
    let Some(body) = buf.get(pos..pos + len) else {
        return Decoded::Incomplete;
    };
    let consumed = pos + len;
    let mut r = Reader { buf: body, pos: 0 };
    // The id comes first so even a frame that goes bad later can be
    // answered with an addressed error response.
    let id = match r.varint("request id") {
        Ok(id) => id,
        Err(error) => {
            return Decoded::Malformed(Malformed { consumed, id: None, recoverable: true, error })
        }
    };
    match decode_body(&mut r).and_then(|v| r.finish().map(|()| v)) {
        Ok(value) => Decoded::Frame { consumed, id: Some(id), value },
        Err(error) => {
            Decoded::Malformed(Malformed { consumed, id: Some(id), recoverable: true, error })
        }
    }
}

fn decode_request_body(r: &mut Reader) -> Result<Request, String> {
    match r.byte("opcode")? {
        op::QUERY => {
            let node = r.node_id()?;
            let k = r.varint("k")? as usize;
            Ok(Request::Query { node, k })
        }
        op::PING => Ok(Request::Ping),
        op::STATS => Ok(Request::Stats),
        op::RELOAD => Ok(Request::Reload { path: r.string("path")? }),
        op::EDGE_DELTA => {
            let add = r.edges("add")?;
            let remove = r.edges("remove")?;
            Ok(Request::EdgeDelta { add, remove })
        }
        op::CONFIG => {
            let flags = r.byte("config flags")?;
            let known =
                cfg::WINDOW | cfg::MAX_BATCH | cfg::CACHE | cfg::SLOW_QUERY | cfg::TRACE_SAMPLE;
            if flags & !known != 0 {
                return Err(format!("unknown config flags {flags:#04x}"));
            }
            let window_us =
                if flags & cfg::WINDOW != 0 { Some(r.varint("window_us")?) } else { None };
            let max_batch = if flags & cfg::MAX_BATCH != 0 {
                Some(r.varint("max_batch")? as usize)
            } else {
                None
            };
            let cache = if flags & cfg::CACHE != 0 {
                Some(match r.byte("cache directive")? {
                    0 => CacheDirective::Off,
                    1 => CacheDirective::On,
                    2 => CacheDirective::Clear,
                    other => return Err(format!("bad cache directive {other}")),
                })
            } else {
                None
            };
            let slow_query_us =
                if flags & cfg::SLOW_QUERY != 0 { Some(r.varint("slow_query_us")?) } else { None };
            let trace_sample =
                if flags & cfg::TRACE_SAMPLE != 0 { Some(r.varint("trace_sample")?) } else { None };
            Ok(Request::Config { window_us, max_batch, cache, slow_query_us, trace_sample })
        }
        op::SHUTDOWN => Ok(Request::Shutdown),
        op::METRICS => Ok(Request::Metrics),
        op::TRACE => Ok(Request::Trace),
        other => Err(format!("unknown request opcode {other:#04x}")),
    }
}

fn decode_response_body(r: &mut Reader) -> Result<Response, String> {
    match r.byte("response kind")? {
        kind::QUERY => {
            let epoch = r.varint("epoch")?;
            let node = r.node_id()?;
            let k = r.varint("k")?;
            let cached = r.flag("cached")?;
            let trace_id =
                if r.flag("trace_id present")? { Some(r.varint("trace_id")?) } else { None };
            let n = r.varint("match count")? as usize;
            // Cap the pre-allocation by what the body could possibly hold
            // (9 bytes minimum per match) so a lying count cannot balloon
            // memory before the truncation error surfaces.
            let mut matches = Vec::with_capacity(n.min(r.remaining() / 9 + 1));
            for _ in 0..n {
                let node = r.node_id()?;
                let score = r.f64("score")?;
                matches.push((node, score));
            }
            Ok(Response::Query(QueryReply {
                epoch,
                node,
                k,
                cached,
                matches: Arc::new(matches),
                trace_id,
            }))
        }
        kind::PONG => Ok(Response::Pong { epoch: r.varint("epoch")? }),
        kind::STATS => Ok(Response::Stats(Box::new(decode_stats(r)?))),
        kind::METRICS => Ok(Response::Metrics(Box::new(decode_metrics(r)?))),
        kind::TRACE => Ok(Response::Trace(Box::new(decode_traces(r)?))),
        kind::RELOADED => Ok(Response::Reloaded {
            epoch: r.varint("epoch")?,
            nodes: r.varint("nodes")?,
            edges: r.varint("edges")?,
        }),
        kind::DELTA => Ok(Response::DeltaApplied {
            epoch: r.varint("epoch")?,
            nodes: r.varint("nodes")?,
            added: r.varint("added")?,
            removed: r.varint("removed")?,
        }),
        kind::CONFIG => Ok(Response::Config {
            window_us: r.varint("window_us")?,
            max_batch: r.varint("max_batch")?,
            cache_enabled: r.flag("cache_enabled")?,
            slow_query_us: r.varint("slow_query_us")?,
            trace_sample: r.varint("trace_sample")?,
        }),
        kind::SHUTTING_DOWN => Ok(Response::ShuttingDown),
        kind::SHED => Ok(Response::Shed { reason: r.string("reason")? }),
        kind::ERROR => Ok(Response::Error { message: r.string("message")? }),
        other => Err(format!("unknown response kind {other:#04x}")),
    }
}

fn decode_metrics(r: &mut Reader) -> Result<MetricsReply, String> {
    fn pairs(r: &mut Reader, what: &str) -> Result<Vec<(String, u64)>, String> {
        let n = r.varint(what)? as usize;
        // ≥2 bytes per honest pair bounds the pre-allocation.
        let mut out = Vec::with_capacity(n.min(r.remaining() / 2 + 1));
        for _ in 0..n {
            let name = r.string(what)?;
            let v = r.varint(what)?;
            out.push((name, v));
        }
        Ok(out)
    }
    let version = r.varint("metrics version")?;
    let counters = pairs(r, "counters")?;
    let gauges = pairs(r, "gauges")?;
    let n = r.varint("histograms")? as usize;
    let mut hists = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
    for _ in 0..n {
        let name = r.string("histogram name")?;
        hists.push(HistSnap {
            name,
            count: r.varint("count")?,
            sum: r.varint("sum")?,
            max: r.varint("max")?,
            p50: r.varint("p50")?,
            p90: r.varint("p90")?,
            p99: r.varint("p99")?,
            p999: r.varint("p999")?,
        });
    }
    Ok(MetricsReply { version, snapshot: RegistrySnapshot { counters, gauges, hists } })
}

fn decode_attrs(r: &mut Reader, what: &str) -> Result<Vec<(String, String)>, String> {
    let n = r.varint(what)? as usize;
    // ≥2 bytes per honest key/value pair bounds the pre-allocation.
    let mut attrs = Vec::with_capacity(n.min(r.remaining() / 2 + 1));
    for _ in 0..n {
        let k = r.string(what)?;
        let v = r.string(what)?;
        attrs.push((k, v));
    }
    Ok(attrs)
}

fn decode_traces(r: &mut Reader) -> Result<TraceReply, String> {
    let version = r.varint("trace version")?;
    let sample_every = r.varint("sample_every")?;
    let n = r.varint("trace count")? as usize;
    let mut traces = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
    for _ in 0..n {
        let id = r.varint("trace id")?;
        let total_ns = r.varint("total_ns")?;
        let attrs = decode_attrs(r, "trace attrs")?;
        let m = r.varint("span count")? as usize;
        let mut spans = Vec::with_capacity(m.min(r.remaining() / 5 + 1));
        for _ in 0..m {
            let name = r.string("span name")?;
            // Shifted by one on the wire so the root's −1 fits a varint.
            let parent = r.varint("span parent")? as i64 - 1;
            let start_ns = r.varint("start_ns")?;
            let dur_ns = r.varint("dur_ns")?;
            let attrs = decode_attrs(r, "span attrs")?;
            spans.push(TraceSpan { name, parent, start_ns, dur_ns, attrs });
        }
        traces.push(Trace { id, total_ns, attrs, spans });
    }
    Ok(TraceReply { version, sample_every, traces })
}

fn decode_stats(r: &mut Reader) -> Result<StatsReply, String> {
    Ok(StatsReply {
        epoch: r.varint("epoch")?,
        epoch_swaps: r.varint("epoch_swaps")?,
        nodes: r.varint("nodes")?,
        edges: r.varint("edges")?,
        c: r.f64("c")?,
        iterations: r.varint("iterations")?,
        uptime_ms: r.f64("uptime_ms")?,
        requests: r.varint("requests")?,
        connections: r.varint("connections")?,
        shed_connections: r.varint("shed_connections")?,
        worker_threads: r.varint("worker_threads")?,
        cache_enabled: r.flag("cache_enabled")?,
        cache: CacheStats {
            hits: r.varint("hits")?,
            misses: r.varint("misses")?,
            inserts: r.varint("inserts")?,
            evictions: r.varint("evictions")?,
            entries: r.varint("entries")? as usize,
        },
        window_us: r.varint("window_us")?,
        max_batch: r.varint("max_batch")?,
        batcher: BatcherStats {
            submitted: r.varint("submitted")?,
            shed: r.varint("shed")?,
            flushes: r.varint("flushes")?,
            flushed_jobs: r.varint("flushed_jobs")?,
            unique_lanes: r.varint("unique_lanes")?,
            max_flush: r.varint("max_flush")?,
        },
    })
}

/// Cursor over one frame body. Every accessor returns a typed error on
/// truncation; [`Reader::finish`] rejects trailing bytes so a frame must
/// be *exactly* its fields — no silent slack for corruption to hide in.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn varint(&mut self, what: &str) -> Result<u64, String> {
        read_varint(self.buf, &mut self.pos).ok_or_else(|| format!("bad varint for {what}"))
    }

    fn byte(&mut self, what: &str) -> Result<u8, String> {
        let b = self.buf.get(self.pos).copied().ok_or_else(|| format!("missing {what}"))?;
        self.pos += 1;
        Ok(b)
    }

    fn flag(&mut self, what: &str) -> Result<bool, String> {
        match self.byte(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad boolean {other} for {what}")),
        }
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or_else(|| format!("truncated f64 for {what}"))?;
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))))
    }

    fn node_id(&mut self) -> Result<NodeId, String> {
        let raw = self.varint("node id")?;
        NodeId::try_from(raw).map_err(|_| format!("node id {raw} is out of range"))
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.varint(what)? as usize;
        if len > self.remaining() {
            return Err(format!("string length {len} for {what} exceeds frame"));
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| format!("{what} is not UTF-8"))
    }

    fn edges(&mut self, what: &str) -> Result<Vec<(NodeId, NodeId)>, String> {
        let n = self.varint(what)? as usize;
        // ≥2 bytes per edge on the wire bounds the honest pre-allocation.
        let mut edges = Vec::with_capacity(n.min(self.remaining() / 2 + 1));
        for _ in 0..n {
            let a = self.node_id()?;
            let b = self.node_id()?;
            edges.push((a, b));
        }
        Ok(edges)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after frame body", self.buf.len() - self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Query { node: 0, k: 0 },
            Request::Query { node: u32::MAX, k: 1 << 20 },
            Request::Ping,
            Request::Stats,
            Request::Reload { path: "π/graph.ssg".into() },
            Request::EdgeDelta { add: vec![(1, 2), (300, 70_000)], remove: vec![] },
            Request::EdgeDelta { add: vec![], remove: vec![(0, 0)] },
            Request::Config {
                window_us: None,
                max_batch: None,
                cache: None,
                slow_query_us: None,
                trace_sample: None,
            },
            Request::Config {
                window_us: Some(800),
                max_batch: Some(64),
                cache: Some(CacheDirective::Clear),
                slow_query_us: Some(2_500),
                trace_sample: Some(16),
            },
            Request::Metrics,
            Request::Trace,
            Request::Shutdown,
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Query(QueryReply {
                epoch: 3,
                node: 7,
                k: 10,
                cached: true,
                matches: Arc::new(vec![(1, 0.5), (2, f64::MIN_POSITIVE), (3, -0.0)]),
                trace_id: None,
            }),
            Response::Query(QueryReply {
                epoch: 4,
                node: 8,
                k: 1,
                cached: false,
                matches: Arc::new(vec![(9, 0.125)]),
                trace_id: Some(42),
            }),
            Response::Pong { epoch: u64::MAX },
            Response::Stats(Box::new(StatsReply {
                epoch: 1,
                epoch_swaps: 2,
                nodes: 3,
                edges: 4,
                c: 0.6,
                iterations: 10,
                uptime_ms: 1234.5,
                requests: 6,
                connections: 7,
                shed_connections: 8,
                worker_threads: 3,
                cache_enabled: true,
                cache: CacheStats { hits: 1, misses: 2, inserts: 3, evictions: 4, entries: 5 },
                window_us: 800,
                max_batch: 64,
                batcher: BatcherStats {
                    submitted: 9,
                    shed: 0,
                    flushes: 4,
                    flushed_jobs: 9,
                    max_flush: 5,
                    unique_lanes: 7,
                },
            })),
            Response::Metrics(Box::new(MetricsReply {
                version: 1,
                snapshot: RegistrySnapshot {
                    counters: vec![
                        ("ssr_malformed_total".into(), 0),
                        ("ssr_requests_total{codec=\"ssb\"}".into(), u64::MAX),
                    ],
                    gauges: vec![("ssr_connections".into(), 3)],
                    hists: vec![HistSnap {
                        name: "ssr_stage_us{stage=\"engine\"}".into(),
                        count: 2,
                        sum: 300,
                        max: 200,
                        p50: 100,
                        p90: 200,
                        p99: 200,
                        p999: 200,
                    }],
                },
            })),
            Response::Trace(Box::new(TraceReply {
                version: 1,
                sample_every: 8,
                traces: vec![Trace {
                    id: 24,
                    total_ns: 9_000,
                    attrs: vec![("codec".into(), "ssb".into()), ("node".into(), "7".into())],
                    spans: vec![
                        TraceSpan::new("request", ssr_obs::NO_PARENT, 0, 9_000),
                        TraceSpan::new("decode", 0, 0, 300).attr("bytes", 12),
                        TraceSpan::new("engine", 0, 300, 8_000).attr("batch_size", 2),
                        TraceSpan::new("theta-0", 2, 300, 7_500).attr("frontier", 40),
                    ],
                }],
            })),
            Response::Reloaded { epoch: 2, nodes: 100, edges: 400 },
            Response::DeltaApplied { epoch: 3, nodes: 100, added: 2, removed: 1 },
            Response::Config {
                window_us: 0,
                max_batch: 1,
                cache_enabled: false,
                slow_query_us: 0,
                trace_sample: 32,
            },
            Response::ShuttingDown,
            Response::Shed { reason: "queue full".into() },
            Response::Error { message: "node 9 out of range".into() },
        ]
    }

    #[test]
    fn requests_round_trip_with_ids() {
        let c = SsbCodec;
        for (i, req) in all_requests().iter().enumerate() {
            let id = (i as u64) * 1_000_003;
            let mut buf = Vec::new();
            c.encode_request(id, req, &mut buf);
            match c.decode_request(&buf) {
                Decoded::Frame { consumed, id: got, value } => {
                    assert_eq!(consumed, buf.len());
                    assert_eq!(got, Some(id));
                    assert_eq!(&value, req);
                }
                other => panic!("{req:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let c = SsbCodec;
        for resp in &all_responses() {
            let mut buf = Vec::new();
            c.encode_response(42, resp, &mut buf);
            match c.decode_response(&buf) {
                Decoded::Frame { consumed, id, value } => {
                    assert_eq!(consumed, buf.len());
                    assert_eq!(id, Some(42));
                    assert_eq!(&value, resp);
                }
                other => panic!("{resp:?} → {other:?}"),
            }
        }
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let c = SsbCodec;
        let reqs = all_requests();
        let mut buf = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            c.encode_request(i as u64, req, &mut buf);
        }
        let mut rest: &[u8] = &buf;
        for (i, req) in reqs.iter().enumerate() {
            match c.decode_request(rest) {
                Decoded::Frame { consumed, id, value } => {
                    assert_eq!(id, Some(i as u64));
                    assert_eq!(&value, req);
                    rest = &rest[consumed..];
                }
                other => panic!("frame {i}: {other:?}"),
            }
        }
        assert!(rest.is_empty());
        assert_eq!(c.decode_request(rest), Decoded::Incomplete);
    }

    #[test]
    fn every_truncation_is_incomplete_never_panic() {
        let c = SsbCodec;
        let mut buf = Vec::new();
        c.encode_request(
            7,
            &Request::EdgeDelta { add: vec![(1, 2)], remove: vec![(3, 4)] },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(c.decode_request(&buf[..cut]), Decoded::Incomplete, "cut={cut}");
        }
    }

    #[test]
    fn length_lies_are_unrecoverable() {
        let c = SsbCodec;
        // Declared length beyond the cap.
        let mut buf = Vec::new();
        write_varint(&mut buf, MAX_FRAME_BYTES + 1);
        match c.decode_request(&buf) {
            Decoded::Malformed(m) => assert!(!m.recoverable),
            other => panic!("{other:?}"),
        }
        // A length prefix that never terminates.
        let buf = [0xFFu8; 10];
        match c.decode_request(&buf) {
            Decoded::Malformed(m) => assert!(!m.recoverable),
            other => panic!("{other:?}"),
        }
        // ...but fewer than 10 continuation bytes might still terminate.
        assert_eq!(c.decode_request(&[0xFFu8; 9]), Decoded::Incomplete);
    }

    #[test]
    fn bad_bodies_are_recoverable_with_the_id() {
        let c = SsbCodec;
        // Unknown opcode.
        let mut buf = Vec::new();
        frame(&mut buf, |body| {
            write_varint(body, 5);
            body.push(0x7F);
        });
        match c.decode_request(&buf) {
            Decoded::Malformed(m) => {
                assert_eq!(m.consumed, buf.len());
                assert_eq!(m.id, Some(5));
                assert!(m.recoverable);
            }
            other => panic!("{other:?}"),
        }
        // Trailing garbage after a valid body.
        let mut buf = Vec::new();
        frame(&mut buf, |body| {
            write_varint(body, 6);
            body.push(op::PING);
            body.push(0xAA);
        });
        match c.decode_request(&buf) {
            Decoded::Malformed(m) => {
                assert_eq!(m.id, Some(6));
                assert!(m.recoverable);
                assert!(m.error.contains("trailing"));
            }
            other => panic!("{other:?}"),
        }
        // Field truncated *inside* a complete frame.
        let mut buf = Vec::new();
        frame(&mut buf, |body| {
            write_varint(body, 8);
            body.push(op::QUERY);
            write_varint(body, 3); // node, but no k
        });
        match c.decode_request(&buf) {
            Decoded::Malformed(m) => {
                assert_eq!(m.id, Some(8));
                assert!(m.recoverable);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_ids_past_u32_are_rejected_not_truncated() {
        let c = SsbCodec;
        let mut buf = Vec::new();
        frame(&mut buf, |body| {
            write_varint(body, 1);
            body.push(op::QUERY);
            write_varint(body, u64::from(u32::MAX) + 2);
            write_varint(body, 10);
        });
        match c.decode_request(&buf) {
            Decoded::Malformed(m) => assert!(m.error.contains("out of range")),
            other => panic!("{other:?}"),
        }
    }
}
