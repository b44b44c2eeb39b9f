//! Property tests of the wire layer: the two codecs (newline-JSON and
//! binary `ssb/1`) are interchangeable encodings of the same typed
//! protocol, and the binary decoder survives arbitrary corruption —
//! truncations, bit flips, length lies, raw garbage — with typed errors,
//! never a panic and never an over-consume.

use proptest::prelude::*;
use ssr_obs::{HistSnap, RegistrySnapshot, Trace, TraceSpan, NO_PARENT, TRACE_SCHEMA_VERSION};
use ssr_serve::codec::{Decoded, WireFormat, MAX_FRAME_BYTES};
use ssr_serve::protocol::{
    CacheDirective, MetricsReply, QueryReply, Request, Response, StatsReply, TraceReply,
};
use ssr_serve::{parse_trace_line, render_trace};
use std::sync::Arc;

/// JSON carries counters as f64, so round-trip equality holds for
/// integers below 2^53 — the protocol's actual counter range.
const MAX_SAFE: u64 = 1 << 53;

/// Characters that exercise every JSON escape path plus multi-byte UTF-8.
const CHARS: &[char] =
    &['a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '{', ':', 'é', '\u{1F600}'];

/// Finite doubles with awkward shortest-round-trip renderings; index 0
/// selects a uniform draw instead.
const SCORES: &[f64] =
    &[0.0, 0.0, -0.0, 1.0, f64::MIN_POSITIVE, 5e-324, 1.0 / 3.0, 0.1, std::f64::consts::PI, 1e300];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..CHARS.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_score() -> impl Strategy<Value = f64> {
    (0usize..SCORES.len(), 0.0..1.0).prop_map(|(i, r)| if i == 0 { r } else { SCORES[i] })
}

fn arb_request() -> impl Strategy<Value = Request> {
    let pairs = || proptest::collection::vec((0u32..5000, 0u32..5000), 0..8);
    (
        0usize..9,
        (0u32..1_000_000, 0u64..MAX_SAFE, arb_string()),
        (pairs(), pairs()),
        ((0usize..2, 0u64..MAX_SAFE, 0usize..2, 0u64..MAX_SAFE), (0usize..4, 0usize..2, 0usize..2)),
    )
        .prop_map(
            |(
                variant,
                (node, k, path),
                (add, remove),
                ((wopt, w, bopt, b), (copt, sopt, topt)),
            )| {
                match variant {
                    0 => Request::Query { node, k: k as usize },
                    1 => Request::Ping,
                    2 => Request::Stats,
                    3 => Request::Reload { path },
                    4 => Request::EdgeDelta { add, remove },
                    5 => Request::Config {
                        window_us: (wopt > 0).then_some(w),
                        max_batch: (bopt > 0).then_some(b as usize),
                        cache: match copt {
                            0 => None,
                            1 => Some(CacheDirective::On),
                            2 => Some(CacheDirective::Off),
                            _ => Some(CacheDirective::Clear),
                        },
                        slow_query_us: (sopt > 0).then_some(w),
                        trace_sample: (topt > 0).then_some(b),
                    },
                    6 => Request::Metrics,
                    7 => Request::Trace,
                    _ => Request::Shutdown,
                }
            },
        )
}

fn arb_stats() -> impl Strategy<Value = StatsReply> {
    (
        proptest::collection::vec(0u64..MAX_SAFE, 11),
        proptest::collection::vec(0u64..MAX_SAFE, 5),
        (0.0..1.0, 0.0..1e12, 0usize..2),
    )
        .prop_map(|(a, b, (c, uptime_ms, cache_on))| StatsReply {
            epoch: a[0],
            epoch_swaps: a[1],
            nodes: a[2],
            edges: a[3],
            c,
            iterations: a[4],
            uptime_ms,
            requests: a[5],
            connections: a[6],
            shed_connections: a[7],
            worker_threads: a[8],
            cache_enabled: cache_on > 0,
            cache: ssr_serve::cache::CacheStats {
                hits: a[9],
                misses: a[10],
                inserts: b[0],
                evictions: b[1],
                entries: b[2] as usize,
            },
            window_us: b[3],
            max_batch: b[4],
            batcher: ssr_serve::BatcherStats {
                submitted: b[0],
                shed: b[1],
                flushes: b[2],
                flushed_jobs: b[3],
                max_flush: b[4],
                unique_lanes: a[9],
            },
        })
}

/// Metric names exercise the `name{label="value"}` shape the registry
/// pre-renders; values stay below 2^53 so the JSON wire (f64 numbers)
/// round-trips them exactly.
fn metric_name(base: usize, label: usize) -> String {
    let base = ["ssr_requests_total", "ssr_stage_us", "ssr_connections", "ssr_epoch"][base % 4];
    match label % 4 {
        0 => base.to_string(),
        1 => format!("{base}{{codec=\"json\"}}"),
        2 => format!("{base}{{stage=\"engine\"}}"),
        _ => format!("{base}{{shard=\"1\"}}"),
    }
}

fn arb_metrics() -> impl Strategy<Value = MetricsReply> {
    let pairs = || proptest::collection::vec((0usize..4, 0usize..4, 0u64..MAX_SAFE), 0..3);
    let hists = proptest::collection::vec(
        ((0usize..4, 0usize..4), proptest::collection::vec(0u64..MAX_SAFE, 7)),
        0..3,
    );
    (pairs(), pairs(), hists).prop_map(|(counters, gauges, hists)| {
        let pair = |(b, l, v): (usize, usize, u64)| (metric_name(b, l), v);
        MetricsReply {
            version: ssr_serve::protocol::METRICS_VERSION,
            snapshot: RegistrySnapshot {
                counters: counters.into_iter().map(pair).collect(),
                gauges: gauges.into_iter().map(pair).collect(),
                hists: hists
                    .into_iter()
                    .map(|((b, l), v)| HistSnap {
                        name: metric_name(b, l),
                        count: v[0],
                        sum: v[1],
                        max: v[2],
                        p50: v[3],
                        p90: v[4],
                        p99: v[5],
                        p999: v[6],
                    })
                    .collect(),
            },
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    let matches = proptest::collection::vec((0u32..10_000, arb_score()), 0..12);
    (
        0usize..11,
        (0u64..MAX_SAFE, 0u32..1_000_000, 0u64..MAX_SAFE, 0usize..3, matches),
        (0u64..MAX_SAFE, 0u64..MAX_SAFE, 0u64..MAX_SAFE),
        (arb_stats(), arb_string()),
        arb_metrics(),
        arb_trace(),
    )
        .prop_map(
            |(variant, (epoch, node, k, cached, m), (x, y, z), (stats, text), metrics, trace)| {
                match variant {
                    0 => Response::Query(QueryReply {
                        epoch,
                        node,
                        k,
                        cached: cached > 0,
                        matches: Arc::new(m),
                        trace_id: (cached > 1).then_some(x),
                    }),
                    1 => Response::Pong { epoch },
                    2 => Response::Stats(Box::new(stats)),
                    3 => Response::Reloaded { epoch, nodes: x, edges: y },
                    4 => Response::DeltaApplied { epoch, nodes: x, added: y, removed: z },
                    5 => Response::Config {
                        window_us: x,
                        max_batch: y,
                        cache_enabled: cached > 0,
                        slow_query_us: z,
                        trace_sample: epoch,
                    },
                    6 => Response::ShuttingDown,
                    7 => Response::Shed { reason: text },
                    8 => Response::Metrics(Box::new(metrics)),
                    9 => Response::Trace(Box::new(TraceReply {
                        version: TRACE_SCHEMA_VERSION,
                        sample_every: x,
                        traces: vec![trace],
                    })),
                    _ => Response::Error { message: text },
                }
            },
        )
}

/// Valid-by-construction span trees: a root covering `[0, total]`,
/// disjoint sequential stage children, and a nested grandchild inside
/// every stage wide enough to hold one — so each draw also witnesses the
/// nesting invariants ([`Trace::validate`]) the analyzer relies on.
/// Attribute keys/values reuse [`arb_string`], which exercises every
/// JSON escape path on the JSONL wire.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        0u64..MAX_SAFE,
        proptest::collection::vec(0u64..100_000, 1..6),
        proptest::collection::vec((arb_string(), arb_string()), 0..3),
        0u64..1_000,
    )
        .prop_map(|(id, durs, attrs, slack)| {
            let total: u64 = durs.iter().sum::<u64>() + slack;
            let mut spans = vec![TraceSpan::new("request", NO_PARENT, 0, total)];
            let mut cur = 0u64;
            for (i, &d) in durs.iter().enumerate() {
                let mut stage = TraceSpan::new(&format!("stage-{i}"), 0, cur, d);
                for (key, value) in &attrs {
                    stage = stage.attr(key, value);
                }
                let parent = spans.len() as i64;
                spans.push(stage);
                if d > 1 {
                    spans.push(TraceSpan::new(&format!("sub-{i}"), parent, cur, d / 2));
                }
                cur += d;
            }
            Trace { id, total_ns: total, attrs, spans }
        })
}

/// Drives a full single-frame decode and asserts clean framing.
fn roundtrip_request(
    format: WireFormat,
    id: u64,
    req: &Request,
) -> Result<(Option<u64>, Request), String> {
    let codec = format.codec();
    let mut buf = Vec::new();
    codec.encode_request(id, req, &mut buf);
    match codec.decode_request(&buf) {
        Decoded::Frame { consumed, id, value } if consumed == buf.len() => Ok((id, value)),
        other => Err(format!("{format:?}: {other:?} (buf {} bytes)", buf.len())),
    }
}

fn roundtrip_response(
    format: WireFormat,
    id: u64,
    resp: &Response,
) -> Result<(Option<u64>, Response), String> {
    let codec = format.codec();
    let mut buf = Vec::new();
    codec.encode_response(id, resp, &mut buf);
    match codec.decode_response(&buf) {
        Decoded::Frame { consumed, id, value } if consumed == buf.len() => Ok((id, value)),
        other => Err(format!("{format:?}: {other:?} (buf {} bytes)", buf.len())),
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Codec equivalence: any request encodes and decodes to the same
    /// typed value on both wires; `ssb/1` preserves the id, JSON is
    /// positional (no id on the wire).
    #[test]
    fn requests_round_trip_identically_on_both_codecs(
        req in arb_request(),
        id in 0u64..u64::MAX,
    ) {
        let (jid, jval) = roundtrip_request(WireFormat::Jsonl, id, &req).unwrap();
        let (bid, bval) = roundtrip_request(WireFormat::Ssb, id, &req).unwrap();
        prop_assert_eq!(jid, None);
        prop_assert_eq!(bid, Some(id));
        prop_assert_eq!(&jval, &req, "JSON changed the request");
        prop_assert_eq!(&bval, &req, "ssb/1 changed the request");
    }

    /// Same for responses — including f64 scores, which must round-trip
    /// *bit-exactly* through both decimal JSON and binary `ssb/1`.
    #[test]
    fn responses_round_trip_identically_on_both_codecs(
        resp in arb_response(),
        id in 0u64..u64::MAX,
    ) {
        let (jid, jval) = roundtrip_response(WireFormat::Jsonl, id, &resp).unwrap();
        let (bid, bval) = roundtrip_response(WireFormat::Ssb, id, &resp).unwrap();
        prop_assert_eq!(jid, None);
        prop_assert_eq!(bid, Some(id));
        // PartialEq on f64 is value equality; pin the bits explicitly.
        for (got, name) in [(&jval, "json"), (&bval, "ssb")] {
            if let (Response::Query(a), Response::Query(b)) = (&resp, got) {
                for (&(_, s0), &(_, s1)) in a.matches.iter().zip(b.matches.iter()) {
                    prop_assert_eq!(s0.to_bits(), s1.to_bits(), "{}: score bits moved", name);
                }
            }
        }
        prop_assert_eq!(&jval, &resp, "JSON changed the response");
        prop_assert_eq!(&bval, &resp, "ssb/1 changed the response");
    }

    /// The trace schema: every generated span tree satisfies the nesting
    /// invariants, round-trips bit-exactly through one JSONL line (the
    /// `--trace-out` export format), and a full `trace` reply carrying
    /// the same trees is identical through both codecs.
    #[test]
    fn traces_round_trip_through_jsonl_and_both_codecs(
        traces in proptest::collection::vec(arb_trace(), 0..4),
        every in 0u64..MAX_SAFE,
        id in 0u64..u64::MAX,
    ) {
        for t in &traces {
            t.validate().unwrap();
            let line = render_trace(t).render();
            prop_assert!(!line.contains('\n'), "JSONL line must be one line");
            let back = parse_trace_line(&line).unwrap();
            prop_assert_eq!(&back, t, "JSONL changed the trace");
            back.validate().unwrap();
        }
        let resp = Response::Trace(Box::new(TraceReply {
            version: TRACE_SCHEMA_VERSION,
            sample_every: every,
            traces,
        }));
        let (_, jval) = roundtrip_response(WireFormat::Jsonl, id, &resp).unwrap();
        let (_, bval) = roundtrip_response(WireFormat::Ssb, id, &resp).unwrap();
        prop_assert_eq!(&jval, &resp, "JSON changed the trace reply");
        prop_assert_eq!(&bval, &resp, "ssb/1 changed the trace reply");
    }

    /// Pipelining: N frames concatenated into one buffer decode back in
    /// order on both codecs, with `ssb/1` preserving every id.
    #[test]
    fn concatenated_frames_decode_in_order(
        reqs in proptest::collection::vec(arb_request(), 1..8),
        base_id in 0u64..MAX_SAFE,
    ) {
        for format in [WireFormat::Jsonl, WireFormat::Ssb] {
            let codec = format.codec();
            let mut buf = Vec::new();
            for (i, req) in reqs.iter().enumerate() {
                codec.encode_request(base_id + i as u64, req, &mut buf);
            }
            let mut off = 0usize;
            for (i, req) in reqs.iter().enumerate() {
                match codec.decode_request(&buf[off..]) {
                    Decoded::Frame { consumed, id, value } => {
                        prop_assert_eq!(&value, req, "{:?}: frame {} changed", format, i);
                        if format == WireFormat::Ssb {
                            prop_assert_eq!(id, Some(base_id + i as u64));
                        }
                        off += consumed;
                    }
                    other => panic!("{format:?}: frame {i}: {other:?}"),
                }
            }
            prop_assert_eq!(off, buf.len(), "{:?}: trailing bytes", format);
        }
    }

    /// Every strict prefix of a valid `ssb/1` frame is `Incomplete` —
    /// never a bogus frame, never a panic. This is what lets the event
    /// loop feed the decoder whatever partial bytes the socket delivered.
    #[test]
    fn ssb_truncations_are_incomplete(resp in arb_response(), frac in 0.0..1.0) {
        let codec = WireFormat::Ssb.codec();
        let mut buf = Vec::new();
        codec.encode_response(7, &resp, &mut buf);
        let cut = ((buf.len() as f64) * frac) as usize; // < len: frac < 1
        prop_assert_eq!(
            codec.decode_response(&buf[..cut]),
            Decoded::Incomplete,
            "prefix {} of {} must be incomplete", cut, buf.len()
        );
    }

    /// A single flipped bit anywhere in a frame decodes to *something
    /// typed* — a frame, incomplete, or a malformed report — without
    /// panicking and without consuming past the buffer.
    #[test]
    fn ssb_bit_flips_never_panic_or_overconsume(
        resp in arb_response(),
        req in arb_request(),
        pos in 0.0..1.0,
        bit in 0usize..8,
    ) {
        let codec = WireFormat::Ssb.codec();
        for (is_resp, mut buf) in [(true, Vec::new()), (false, Vec::new())].map(|(r, mut b)| {
            if r { codec.encode_response(3, &resp, &mut b) }
            else { codec.encode_request(3, &req, &mut b) }
            (r, b)
        }) {
            let i = ((buf.len() as f64) * pos) as usize % buf.len();
            buf[i] ^= 1 << bit;
            let consumed = if is_resp {
                match codec.decode_response(&buf) {
                    Decoded::Frame { consumed, .. } | Decoded::Skip { consumed } => consumed,
                    Decoded::Malformed(m) => m.consumed,
                    Decoded::Incomplete => 0,
                }
            } else {
                match codec.decode_request(&buf) {
                    Decoded::Frame { consumed, .. } | Decoded::Skip { consumed } => consumed,
                    Decoded::Malformed(m) => m.consumed,
                    Decoded::Incomplete => 0,
                }
            };
            prop_assert!(consumed <= buf.len(), "consumed {} > {}", consumed, buf.len());
        }
    }

    /// A length prefix claiming more than the frame cap is a *length lie*:
    /// rejected as unrecoverable immediately, not buffered for gigabytes.
    #[test]
    fn ssb_length_lies_are_rejected_unrecoverably(
        excess in 1u64..(1 << 40),
        junk in proptest::collection::vec(0u8..=255u8, 0..16),
    ) {
        let codec = WireFormat::Ssb.codec();
        let mut buf = Vec::new();
        write_varint(&mut buf, MAX_FRAME_BYTES + excess);
        buf.extend_from_slice(&junk);
        match codec.decode_response(&buf) {
            Decoded::Malformed(m) => prop_assert!(!m.recoverable, "length lie must kill the stream"),
            other => panic!("length lie accepted: {other:?}"),
        }
    }

    /// Raw garbage — arbitrary bytes, not even a frame — never panics
    /// either codec in either direction, and never over-consumes.
    #[test]
    fn garbage_never_panics_either_codec(bytes in proptest::collection::vec(0u8..=255u8, 0..64)) {
        for format in [WireFormat::Jsonl, WireFormat::Ssb] {
            let codec = format.codec();
            let outcomes = [
                match codec.decode_request(&bytes) {
                    Decoded::Frame { consumed, .. } | Decoded::Skip { consumed } => consumed,
                    Decoded::Malformed(m) => m.consumed,
                    Decoded::Incomplete => 0,
                },
                match codec.decode_response(&bytes) {
                    Decoded::Frame { consumed, .. } | Decoded::Skip { consumed } => consumed,
                    Decoded::Malformed(m) => m.consumed,
                    Decoded::Incomplete => 0,
                },
            ];
            for consumed in outcomes {
                prop_assert!(consumed <= bytes.len(), "{:?} over-consumed", format);
            }
        }
    }
}
