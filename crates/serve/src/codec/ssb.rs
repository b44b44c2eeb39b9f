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
//! ## One encoding per message
//!
//! Only the hot path is coded field by field: the `query` and `ping`
//! requests, and the query-reply, pong, shed and error responses. Every
//! other message — the admin ops and their replies — travels as one
//! frame holding its `json/1` line (request opcode `0x0A`, response kind
//! `0x0B`, then `string(line)`), rendered and parsed by [`super::jsonl`].
//! An admin value therefore reads the same on both wires, integers
//! included: past 2⁵³ both carry JSON's f64 precision. Request opcodes
//! `0x03`–`0x09` and response kinds `0x02`–`0x06`, `0x09` and `0x0A`
//! once coded admin messages field by field; they are retired, never
//! reused, and decode as unknown, so an old peer gets a typed error.
//!
//! ## Robustness
//!
//! The decoder never panics on hostile bytes. Truncated buffers come back
//! [`Decoded::Incomplete`]; a frame whose declared length exceeds
//! [`super::MAX_FRAME_BYTES`] (a *length lie*) or whose length prefix
//! cannot terminate is [`Malformed`] and unrecoverable (the stream has
//! lost framing); a complete frame with a bad opcode, truncated fields, a
//! JSON line that does not parse, or trailing bytes is [`Malformed`] but
//! recoverable — the length prefix still frames the stream, so the
//! connection survives with an error response. The corruption battery in
//! `tests/protocol_props.rs` drives truncations, bit flips, and length
//! lies through this decoder.

use super::{jsonl, Decoded, Malformed, MAX_FRAME_BYTES};
use crate::protocol::{QueryReply, Request, Response};
use ssr_graph::NodeId;
use ssr_store::varint::{read_varint, write_varint};
use std::sync::Arc;

/// Request opcodes (the byte after a request frame's id).
mod op {
    pub const QUERY: u8 = 0x01;
    pub const PING: u8 = 0x02;
    /// Any other request, as its `json/1` line.
    pub const JSON: u8 = 0x0A;
}

/// Response kinds.
mod kind {
    pub const QUERY: u8 = 0x00;
    pub const PONG: u8 = 0x01;
    pub const SHED: u8 = 0x07;
    pub const ERROR: u8 = 0x08;
    /// Any other response, as its `json/1` line.
    pub const JSON: u8 = 0x0B;
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
                admin => {
                    body.push(op::JSON);
                    put_str(body, &jsonl::render_request(admin));
                }
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
                Response::Shed { reason } => {
                    body.push(kind::SHED);
                    put_str(body, reason);
                }
                Response::Error { message } => {
                    body.push(kind::ERROR);
                    put_str(body, message);
                }
                admin => {
                    body.push(kind::JSON);
                    put_str(body, &jsonl::render_response(admin));
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
        op::JSON => jsonl::parse_request(&r.string("json/1 request")?),
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
        kind::SHED => Ok(Response::Shed { reason: r.string("reason")? }),
        kind::ERROR => Ok(Response::Error { message: r.string("message")? }),
        kind::JSON => jsonl::parse_response(&r.string("json/1 response")?),
        other => Err(format!("unknown response kind {other:#04x}")),
    }
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
    use crate::batcher::BatcherStats;
    use crate::cache::CacheStats;
    use crate::codec::Codec;
    use crate::protocol::{CacheDirective, MetricsReply, StatsReply, TraceReply};
    use ssr_obs::{HistSnap, RegistrySnapshot, Trace, TraceSpan};

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
        // A JSON frame whose line is not JSON, one whose line is not
        // UTF-8, and a retired admin opcode.
        let bodies: [(u64, &[u8]); 3] = [
            (9, &[op::JSON, 3, b'{', b'o', b'p']),
            (10, &[op::JSON, 2, 0xC3, 0x28]),
            (11, &[0x03]),
        ];
        for (id, rest) in bodies {
            let mut buf = Vec::new();
            frame(&mut buf, |body| {
                write_varint(body, id);
                body.extend_from_slice(rest);
            });
            match c.decode_request(&buf) {
                Decoded::Malformed(m) => {
                    assert_eq!(m.consumed, buf.len(), "id {id}");
                    assert_eq!(m.id, Some(id));
                    assert!(m.recoverable, "id {id}");
                }
                other => panic!("id {id}: {other:?}"),
            }
        }
    }

    /// Hand-written frames of every field-coded message. They pin the hot
    /// path's wire layout: these bytes must never move.
    #[test]
    fn hot_path_frames_match_golden_bytes() {
        let c = SsbCodec;
        // Query reply, id 128, epoch 3, node 7, k 2, cached, trace id 200,
        // matches [(4, 0.5), (300, -0.0)]; scores are little-endian bits.
        let reply = [
            vec![30, 0x80, 0x01, 0x00, 3, 7, 2, 1, 1, 0xC8, 0x01, 2],
            vec![4, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F],
            vec![0xAC, 0x02, 0, 0, 0, 0, 0, 0, 0, 0x80],
        ]
        .concat();
        let requests: [(u64, Request, Vec<u8>); 2] = [
            (5, Request::Query { node: 300, k: 10 }, vec![5, 5, 0x01, 0xAC, 0x02, 10]),
            (7, Request::Ping, vec![2, 7, 0x02]),
        ];
        for (id, req, golden) in requests {
            let mut buf = Vec::new();
            c.encode_request(id, &req, &mut buf);
            assert_eq!(buf, golden, "{req:?}");
            assert_eq!(
                c.decode_request(&golden),
                Decoded::Frame { consumed: buf.len(), id: Some(id), value: req }
            );
        }
        let responses: [(u64, Response, Vec<u8>); 4] = [
            (
                128,
                Response::Query(QueryReply {
                    epoch: 3,
                    node: 7,
                    k: 2,
                    cached: true,
                    matches: Arc::new(vec![(4, 0.5), (300, -0.0)]),
                    trace_id: Some(200),
                }),
                reply,
            ),
            (1, Response::Pong { epoch: 300 }, vec![4, 1, 0x01, 0xAC, 0x02]),
            (
                2,
                Response::Shed { reason: "full".into() },
                vec![7, 2, 0x07, 4, b'f', b'u', b'l', b'l'],
            ),
            (3, Response::Error { message: "bad".into() }, vec![6, 3, 0x08, 3, b'b', b'a', b'd']),
        ];
        for (id, resp, golden) in responses {
            let mut buf = Vec::new();
            c.encode_response(id, &resp, &mut buf);
            assert_eq!(buf, golden, "{resp:?}");
            assert_eq!(
                c.decode_response(&golden),
                Decoded::Frame { consumed: buf.len(), id: Some(id), value: resp }
            );
        }
    }

    /// Every message without a field-by-field coding is one frame holding
    /// exactly its `json/1` line: `varint(id) u8(JSON) string(line)`.
    #[test]
    fn admin_messages_travel_as_their_json_line() {
        fn expected(id: u64, code: u8, line: &str) -> Vec<u8> {
            let mut body = Vec::new();
            write_varint(&mut body, id);
            body.push(code);
            write_varint(&mut body, line.len() as u64);
            body.extend_from_slice(line.as_bytes());
            let mut buf = Vec::new();
            write_varint(&mut buf, body.len() as u64);
            buf.extend_from_slice(&body);
            buf
        }
        let c = SsbCodec;
        let admin_requests: Vec<Request> = all_requests()
            .into_iter()
            .filter(|r| !matches!(r, Request::Query { .. } | Request::Ping))
            .collect();
        assert_eq!(admin_requests.len(), 9);
        for (id, req) in admin_requests.iter().enumerate() {
            let id = 300 + id as u64;
            let mut buf = Vec::new();
            c.encode_request(id, req, &mut buf);
            assert_eq!(buf, expected(id, 0x0A, &jsonl::render_request(req)), "{req:?}");
        }
        let admin_responses: Vec<Response> = all_responses()
            .into_iter()
            .filter(|r| {
                !matches!(
                    r,
                    Response::Query(_)
                        | Response::Pong { .. }
                        | Response::Shed { .. }
                        | Response::Error { .. }
                )
            })
            .collect();
        assert_eq!(admin_responses.len(), 7);
        for (id, resp) in admin_responses.iter().enumerate() {
            let id = 300 + id as u64;
            let mut buf = Vec::new();
            c.encode_response(id, resp, &mut buf);
            assert_eq!(buf, expected(id, 0x0B, &jsonl::render_response(resp)), "{resp:?}");
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
