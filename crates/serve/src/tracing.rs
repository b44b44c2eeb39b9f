//! Request tracing: the deterministic sampler, the in-process trace
//! ring, the JSONL exporter, and the trace wire schema shared by the
//! `--trace-out` stream, the `trace` admin op's JSON rendering, and the
//! offline `simstar trace` analyzer.
//!
//! Every decoded request draws a **trace id** from a server-wide
//! monotonic counter; the sampler keeps ids where
//! `id % every == 0` (`--trace-sample N` = 1-in-N, `0` = off,
//! retunable at runtime through the admin `config` op). Sampling is a
//! pure function of the id, so reruns with the same request order
//! sample the same requests, and the id also appears in slow-query-log
//! lines — the two systems cross-reference.
//!
//! A sampled query's span tree is projected from the same record that
//! feeds its stage histograms and slow-query line (`assemble_trace`):
//! each stage span starts at its measured offset from accept, so the
//! gaps between stages stay visible as time that no stage names.
//!
//! A recorded [`Trace`] lands in a bounded ring (last
//! [`TRACE_RING_CAP`] traces, fetched via the admin `trace` op) and,
//! when `--trace-out` is set, as one JSON document per line in the
//! export file. Both carry [`ssr_obs::TRACE_SCHEMA_VERSION`].

use crate::json::{parse_json, Json};
use crate::metrics::RequestRecord;
use crate::protocol::QueryReply;
use ssr_obs::{Trace, TraceSpan, NO_PARENT, TRACE_SCHEMA_VERSION};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Capacity of the in-process trace ring the `trace` admin op drains.
pub const TRACE_RING_CAP: usize = 512;

/// The per-server trace sampler + sink.
pub struct TraceCollector {
    /// Sample 1-in-`every` requests; `0` disables sampling.
    every: AtomicU64,
    /// Next trace id (assigned to every decoded request, sampled or not).
    next_id: AtomicU64,
    /// Last [`TRACE_RING_CAP`] recorded traces, oldest first.
    ring: Mutex<VecDeque<Trace>>,
    /// Optional JSONL export stream (`--trace-out`).
    out: Option<Mutex<BufWriter<File>>>,
}

impl TraceCollector {
    /// A collector sampling 1-in-`every` (0 = off), optionally streaming
    /// JSONL to `out`.
    pub fn new(every: u64, out: Option<&Path>) -> std::io::Result<TraceCollector> {
        let out = match out {
            Some(path) => Some(Mutex::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        Ok(TraceCollector {
            every: AtomicU64::new(every),
            next_id: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(16)),
            out,
        })
    }

    /// Draws the next trace id and decides whether it is sampled. Called
    /// once per decoded request frame; the off path is one relaxed
    /// fetch-add and one relaxed load.
    pub fn issue(&self) -> (u64, bool) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let every = self.every.load(Ordering::Relaxed);
        (id, every > 0 && id % every == 0)
    }

    /// Current sampling rate (1-in-N; 0 = off).
    pub fn every(&self) -> u64 {
        self.every.load(Ordering::Relaxed)
    }

    /// Retunes the sampling rate (admin `config` op).
    pub fn set_every(&self, every: u64) {
        self.every.store(every, Ordering::Relaxed);
    }

    /// Records one completed trace: pushes it into the ring (evicting
    /// the oldest past capacity) and appends a JSONL line to the export
    /// stream if one is configured.
    pub fn record(&self, trace: Trace) {
        if let Some(out) = &self.out {
            let mut line = render_trace(&trace).render();
            line.push('\n');
            let mut w = out.lock().expect("trace writer poisoned");
            // Export is best-effort: a full disk must not fail queries.
            let _ = w.write_all(line.as_bytes());
            let _ = w.flush();
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == TRACE_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The ring's current contents, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        self.ring.lock().expect("trace ring poisoned").iter().cloned().collect()
    }
}

/// Projects one finished query's record onto its span tree, or `None`
/// when the sampler did not keep the request. Root is `request`, from
/// accept to the end of the reply's encode (`total_ns`); its children are
/// the stage spans (`decode`/`cache`/`queue`/`engine`/`encode`), each at
/// its measured offset from accept. The `engine` span nests the sweep's
/// per-step (`theta-i`/`lambda-i`) frontier/dense trace, laid end to end
/// from the engine call's start.
pub(crate) fn assemble_trace(
    codec: &str,
    reply: &QueryReply,
    rec: &RequestRecord,
) -> Option<Trace> {
    let id = rec.trace_id?;
    let q = &rec.query;
    let offset = |at: Instant| at.saturating_duration_since(rec.accepted).as_nanos() as u64;
    let mut spans = vec![
        TraceSpan::new("request", NO_PARENT, 0, rec.total_ns),
        TraceSpan::new("decode", 0, 0, rec.decode_ns),
    ];
    if let Some(at) = q.cache_at {
        spans.push(
            TraceSpan::new("cache", 0, offset(at), q.cache_ns)
                .attr("shard", q.shard)
                .attr("hit", reply.cached),
        );
    }
    if let Some(at) = q.queued_at {
        spans.push(TraceSpan::new("queue", 0, offset(at), q.queue_ns).attr("depth", q.queue_depth));
    }
    if let Some(at) = q.engine_at {
        let steps = q.engine.as_deref().map_or(&[][..], |e| &e.steps[..]);
        let parent = spans.len() as i64;
        let mut start = offset(at);
        spans.push(
            TraceSpan::new("engine", 0, start, q.engine_ns)
                .attr("batch_size", q.flush_size)
                .attr("dedup", q.dedup)
                .attr("dense_steps", q.engine.as_ref().map_or(0, |e| e.dense_steps())),
        );
        for step in steps {
            let kind = if step.pass == 0 { "theta" } else { "lambda" };
            spans.push(
                TraceSpan::new(&format!("{kind}-{}", step.index), parent, start, step.dur_ns)
                    .attr("frontier", step.frontier)
                    .attr("dense", step.dense),
            );
            start += step.dur_ns;
        }
    }
    let encode_start = rec.total_ns.saturating_sub(rec.encode_ns);
    spans.push(TraceSpan::new("encode", 0, encode_start, rec.encode_ns));
    Some(Trace {
        id,
        total_ns: rec.total_ns,
        attrs: vec![
            ("codec".into(), codec.into()),
            ("node".into(), reply.node.to_string()),
            ("k".into(), reply.k.to_string()),
            ("epoch".into(), reply.epoch.to_string()),
            ("cached".into(), reply.cached.to_string()),
        ],
        spans,
    })
}

fn attrs_json(attrs: &[(String, String)]) -> Json {
    Json::Obj(attrs.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect())
}

fn parse_attrs(v: Option<&Json>) -> Result<Vec<(String, String)>, String> {
    let Some(obj) = v else { return Ok(Vec::new()) };
    let pairs = obj.as_obj().ok_or("attrs is not an object")?;
    pairs
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_str().ok_or("attr value is not a string")?.to_string())))
        .collect()
}

/// Renders one trace as the versioned JSON document shared by the JSONL
/// export and the `json/1` codec's `trace` reply.
pub fn render_trace(trace: &Trace) -> Json {
    Json::Obj(vec![
        ("v".into(), Json::Num(TRACE_SCHEMA_VERSION as f64)),
        ("id".into(), Json::Num(trace.id as f64)),
        ("total_ns".into(), Json::Num(trace.total_ns as f64)),
        ("attrs".into(), attrs_json(&trace.attrs)),
        (
            "spans".into(),
            Json::Arr(
                trace
                    .spans
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            ("parent".into(), Json::Num(s.parent as f64)),
                            ("start_ns".into(), Json::Num(s.start_ns as f64)),
                            ("dur_ns".into(), Json::Num(s.dur_ns as f64)),
                            ("attrs".into(), attrs_json(&s.attrs)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn num_field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key).and_then(Json::as_num).ok_or_else(|| format!("missing numeric `{key}`"))
}

/// Parses one trace document ([`render_trace`]'s inverse). Rejects
/// unknown schema versions — the analyzer must not misread a future
/// layout as version 1.
pub fn parse_trace(doc: &Json) -> Result<Trace, String> {
    let v = num_field(doc, "v")? as u64;
    if v != TRACE_SCHEMA_VERSION {
        return Err(format!("unsupported trace schema version {v}"));
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing `spans`")?
        .iter()
        .map(|s| {
            Ok(TraceSpan {
                name: s.get("name").and_then(Json::as_str).ok_or("span missing `name`")?.into(),
                parent: num_field(s, "parent")? as i64,
                start_ns: num_field(s, "start_ns")? as u64,
                dur_ns: num_field(s, "dur_ns")? as u64,
                attrs: parse_attrs(s.get("attrs"))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Trace {
        id: num_field(doc, "id")? as u64,
        total_ns: num_field(doc, "total_ns")? as u64,
        attrs: parse_attrs(doc.get("attrs"))?,
        spans,
    })
}

/// Parses one JSONL export line.
pub fn parse_trace_line(line: &str) -> Result<Trace, String> {
    parse_trace(&parse_json(line.trim())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::QueryTrace;
    use ssr_obs::NO_PARENT;
    use std::sync::Arc;
    use std::time::Duration;

    fn sample(id: u64) -> Trace {
        Trace {
            id,
            total_ns: 1000,
            attrs: vec![("codec".into(), "ssb".into()), ("node".into(), "7".into())],
            spans: vec![
                TraceSpan::new("request", NO_PARENT, 0, 1000),
                TraceSpan::new("decode", 0, 0, 50),
                TraceSpan::new("engine", 0, 50, 800).attr("batch_size", 3),
                TraceSpan::new("theta-1", 2, 50, 700).attr("frontier", 12),
            ],
        }
    }

    #[test]
    fn trace_json_round_trips() {
        let t = sample(9);
        let line = render_trace(&t).render();
        assert_eq!(parse_trace_line(&line).unwrap(), t);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut doc = render_trace(&sample(0));
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::Num(99.0);
        }
        assert!(parse_trace(&doc).unwrap_err().contains("version"));
    }

    #[test]
    fn sampler_is_deterministic_one_in_n() {
        let c = TraceCollector::new(3, None).unwrap();
        let sampled: Vec<bool> = (0..9).map(|_| c.issue().1).collect();
        assert_eq!(sampled, [true, false, false, true, false, false, true, false, false]);
        c.set_every(0);
        assert!(!c.issue().1, "sampling off");
        assert_eq!(c.every(), 0);
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let c = TraceCollector::new(1, None).unwrap();
        for id in 0..(TRACE_RING_CAP as u64 + 10) {
            c.record(sample(id));
        }
        let snap = c.snapshot();
        assert_eq!(snap.len(), TRACE_RING_CAP);
        assert_eq!(snap.first().unwrap().id, 10);
        assert_eq!(snap.last().unwrap().id, TRACE_RING_CAP as u64 + 9);
    }

    fn reply(cached: bool) -> QueryReply {
        QueryReply {
            epoch: 2,
            node: 5,
            k: 4,
            cached,
            matches: std::sync::Arc::new(Vec::new()),
            trace_id: Some(12),
        }
    }

    /// A sampled request accepted at `accepted`, decoded in 250 ns, its
    /// reply encoded in 80 ns and done 5 µs after accept.
    fn record(accepted: Instant, query: QueryTrace) -> RequestRecord {
        let mut rec = RequestRecord::new(accepted, 250, Some(12));
        rec.query = query;
        rec.encode_ns = 80;
        rec.total_ns = 5_000;
        rec
    }

    #[test]
    fn assembled_traces_validate_with_engine_steps() {
        use simrank_star::{EngineStep, EngineTrace};
        let t0 = Instant::now();
        let at = |ns: u64| Some(t0 + Duration::from_nanos(ns));
        let steps = vec![
            EngineStep { pass: 0, index: 0, frontier: 9, dense: false, dur_ns: 700 },
            EngineStep { pass: 1, index: 2, frontier: 20, dense: true, dur_ns: 900 },
        ];
        let query = QueryTrace {
            cache_at: at(300),
            cache_ns: 100,
            shard: 1,
            queued_at: at(500),
            queue_ns: 400,
            queue_depth: 3,
            engine_at: at(1_000),
            engine_ns: 3_000,
            flush_size: 4,
            dedup: 1,
            engine: Some(Arc::new(EngineTrace { steps })),
        };
        let t = assemble_trace("ssb", &reply(false), &record(t0, query)).unwrap();
        t.validate().unwrap();
        assert_eq!(t.attr("codec"), Some("ssb"));
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["request", "decode", "cache", "queue", "engine", "theta-0", "lambda-2", "encode"]
        );
        // Steps nest directly under `engine`, which carries the dense-step
        // count.
        let engine = names.iter().position(|&n| n == "engine").unwrap();
        assert_eq!(t.spans[engine].attrs.iter().find(|(k, _)| k == "dense_steps").unwrap().1, "1");
        for step in ["theta-0", "lambda-2"] {
            let idx = names.iter().position(|&n| n == step).unwrap();
            assert_eq!(t.spans[idx].parent, engine as i64, "{step}");
        }
    }

    #[test]
    fn cache_hit_assembly_is_minimal_and_valid() {
        let t0 = Instant::now();
        let query = QueryTrace {
            cache_at: Some(t0 + Duration::from_nanos(400)),
            cache_ns: 30,
            ..QueryTrace::default()
        };
        let t = assemble_trace("json", &reply(true), &record(t0, query)).unwrap();
        t.validate().unwrap();
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["request", "decode", "cache", "encode"]);
        // An unsampled request has no span tree.
        let unsampled = RequestRecord { trace_id: None, ..record(t0, QueryTrace::default()) };
        assert_eq!(assemble_trace("json", &reply(true), &unsampled), None);
    }

    #[test]
    fn stage_spans_sit_at_their_measured_offsets() {
        // Every stage leaves a gap before the next one starts: dispatch
        // before the cache probe, the flush's set-up before the engine
        // call, the hand-back before the encode.
        let t0 = Instant::now();
        let at = |ns: u64| Some(t0 + Duration::from_nanos(ns));
        let query = QueryTrace {
            cache_at: at(600),
            cache_ns: 150,
            queued_at: at(900),
            queue_ns: 1_100,
            engine_at: at(2_300),
            engine_ns: 1_700,
            ..QueryTrace::default()
        };
        let t = assemble_trace("json", &reply(false), &record(t0, query)).unwrap();
        t.validate().unwrap();
        let span = |name: &str| {
            let s = t.spans.iter().find(|s| s.name == name).unwrap();
            (s.start_ns, s.end_ns())
        };
        assert_eq!(span("request"), (0, 5_000));
        assert_eq!(span("decode"), (0, 250));
        assert_eq!(span("cache"), (600, 750));
        assert_eq!(span("queue"), (900, 2_000));
        assert_eq!(span("engine"), (2_300, 4_000));
        assert_eq!(span("encode"), (4_920, 5_000));
        assert_eq!(t.total_ns, 5_000, "encode ends at the request's total");
        let staged: u64 = t.children(0).map(|(_, s)| s.dur_ns).sum();
        assert_eq!(t.total_ns - staged, 1_720, "the gaps are time no stage names");
    }

    #[test]
    fn jsonl_export_streams_lines() {
        let dir = std::env::temp_dir().join(format!("ssr-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let c = TraceCollector::new(1, Some(&path)).unwrap();
        c.record(sample(0));
        c.record(sample(1));
        let text = std::fs::read_to_string(&path).unwrap();
        let traces: Vec<Trace> = text.lines().map(|l| parse_trace_line(l).unwrap()).collect();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[1], sample(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
