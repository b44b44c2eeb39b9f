//! The newline-delimited JSON codec (`json/1`) — the original serve wire
//! format, unchanged: one request and one response per line, exactly the
//! bytes the pre-codec server produced, so existing clients keep working.
//!
//! JSON frames carry no request id; pairing is positional (responses
//! arrive in request order). Scores render with shortest-round-trip
//! formatting, so the parsed value reproduces the computed bits exactly —
//! the property the codec-equivalence suite asserts against `ssb/1`.

use super::{Decoded, Malformed, MAX_JSON_LINE_BYTES};
use crate::batcher::BatcherStats;
use crate::cache::CacheStats;
use crate::json::{parse_json, Json};
use crate::protocol::{
    CacheDirective, MetricsReply, QueryReply, Request, Response, StatsReply, TraceReply,
};
use crate::tracing::{parse_trace, render_trace};
use ssr_graph::NodeId;
use ssr_obs::{HistSnap, RegistrySnapshot};
use std::sync::Arc;

/// The `json/1` codec. Stateless; see the module docs.
pub struct JsonlCodec;

impl super::Codec for JsonlCodec {
    fn name(&self) -> &'static str {
        "json/1"
    }

    fn encode_request(&self, _id: u64, req: &Request, out: &mut Vec<u8>) {
        out.extend_from_slice(render_request(req).as_bytes());
        out.push(b'\n');
    }

    fn decode_request(&self, buf: &[u8]) -> Decoded<Request> {
        decode_line(buf, |line| parse_request(line).map_err(|e| e.to_string()))
    }

    fn encode_response(&self, _id: u64, resp: &Response, out: &mut Vec<u8>) {
        out.extend_from_slice(render_response(resp).as_bytes());
        out.push(b'\n');
    }

    fn decode_response(&self, buf: &[u8]) -> Decoded<Response> {
        decode_line(buf, parse_response)
    }
}

/// Splits one `\n`-terminated line off `buf` and runs `parse` on it.
fn decode_line<T>(buf: &[u8], parse: impl Fn(&str) -> Result<T, String>) -> Decoded<T> {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        if buf.len() > MAX_JSON_LINE_BYTES {
            return Decoded::Malformed(Malformed {
                consumed: 0,
                id: None,
                recoverable: false,
                error: format!("request line exceeds {MAX_JSON_LINE_BYTES} bytes"),
            });
        }
        return Decoded::Incomplete;
    };
    let consumed = nl + 1;
    let malformed = |error: String| {
        // The newline still frames the stream: skip the bad line, keep
        // the connection.
        Decoded::Malformed(Malformed { consumed, id: None, recoverable: true, error })
    };
    let Ok(line) = std::str::from_utf8(&buf[..nl]) else {
        return malformed("request line is not UTF-8".into());
    };
    if line.trim().is_empty() {
        return Decoded::Skip { consumed };
    }
    match parse(line) {
        Ok(value) => Decoded::Frame { consumed, id: None, value },
        Err(e) => malformed(e),
    }
}

/// Parses one request line. Errors are user-facing protocol messages.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse_json(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `op`".to_string())?;
    match op {
        "query" => {
            let node = node_id(field_u64(&doc, "node")?, "node")?;
            let k = doc.get("k").map(|v| num_field(v, "k")).transpose()?.unwrap_or(10.0) as usize;
            Ok(Request::Query { node, k })
        }
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "trace" => Ok(Request::Trace),
        "reload" => {
            let path = doc
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| "reload needs a string field `path`".to_string())?;
            Ok(Request::Reload { path: path.to_string() })
        }
        "edge-delta" => Ok(Request::EdgeDelta {
            add: edge_list(&doc, "add")?,
            remove: edge_list(&doc, "remove")?,
        }),
        "config" => {
            let cache =
                match doc.get("cache") {
                    None => None,
                    Some(v) => {
                        let s = v.as_str().ok_or("config field `cache` must be a string")?;
                        Some(CacheDirective::parse(s).ok_or_else(|| {
                            format!("config `cache` must be on|off|clear, got `{s}`")
                        })?)
                    }
                };
            Ok(Request::Config {
                window_us: doc
                    .get("window_us")
                    .map(|v| num_field(v, "window_us"))
                    .transpose()?
                    .map(|v| v as u64),
                max_batch: doc
                    .get("max_batch")
                    .map(|v| num_field(v, "max_batch"))
                    .transpose()?
                    .map(|v| v as usize),
                cache,
                slow_query_us: doc
                    .get("slow_query_us")
                    .map(|v| num_field(v, "slow_query_us"))
                    .transpose()?
                    .map(|v| v as u64),
                trace_sample: doc
                    .get("trace_sample")
                    .map(|v| num_field(v, "trace_sample"))
                    .transpose()?
                    .map(|v| v as u64),
            })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))
        .and_then(|v| num_field(v, key))
        .map(|v| v as u64)
}

/// Narrows a parsed integer to a [`NodeId`], rejecting (instead of
/// truncating) values past `u32::MAX` — a wrapped id would silently pass
/// the node-range check and serve a *different* node's results.
fn node_id(raw: u64, key: &str) -> Result<NodeId, String> {
    NodeId::try_from(raw).map_err(|_| format!("field `{key}`: node id {raw} is out of range"))
}

fn num_field(v: &Json, key: &str) -> Result<f64, String> {
    let n = v.as_num().ok_or_else(|| format!("field `{key}` must be a number"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("field `{key}` must be a non-negative integer"));
    }
    Ok(n)
}

fn edge_list(doc: &Json, key: &str) -> Result<Vec<(NodeId, NodeId)>, String> {
    let Some(v) = doc.get(key) else { return Ok(Vec::new()) };
    let items = v.as_arr().ok_or_else(|| format!("field `{key}` must be an array of pairs"))?;
    items
        .iter()
        .map(|pair| {
            let p = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("field `{key}` must contain [from, to] pairs"))?;
            let a = node_id(num_field(&p[0], key)? as u64, key)?;
            let b = node_id(num_field(&p[1], key)? as u64, key)?;
            Ok((a, b))
        })
        .collect()
}

/// Renders one request as the JSON line the pre-codec client sent.
pub fn render_request(req: &Request) -> String {
    let num = Json::Num;
    let obj = |mut fields: Vec<(String, Json)>, op: &str| {
        fields.insert(0, ("op".into(), Json::Str(op.into())));
        Json::Obj(fields).render()
    };
    match req {
        Request::Query { node, k } => {
            obj(vec![("node".into(), num(*node as f64)), ("k".into(), num(*k as f64))], "query")
        }
        Request::Ping => obj(vec![], "ping"),
        Request::Stats => obj(vec![], "stats"),
        Request::Metrics => obj(vec![], "metrics"),
        Request::Trace => obj(vec![], "trace"),
        Request::Shutdown => obj(vec![], "shutdown"),
        Request::Reload { path } => obj(vec![("path".into(), Json::Str(path.clone()))], "reload"),
        Request::EdgeDelta { add, remove } => {
            let pairs = |edges: &[(NodeId, NodeId)]| {
                Json::Arr(
                    edges
                        .iter()
                        .map(|&(a, b)| Json::Arr(vec![num(a as f64), num(b as f64)]))
                        .collect(),
                )
            };
            obj(vec![("add".into(), pairs(add)), ("remove".into(), pairs(remove))], "edge-delta")
        }
        Request::Config { window_us, max_batch, cache, slow_query_us, trace_sample } => {
            let mut fields = Vec::new();
            if let Some(w) = window_us {
                fields.push(("window_us".into(), num(*w as f64)));
            }
            if let Some(m) = max_batch {
                fields.push(("max_batch".into(), num(*m as f64)));
            }
            if let Some(c) = cache {
                fields.push(("cache".into(), Json::Str(c.as_str().into())));
            }
            if let Some(t) = slow_query_us {
                fields.push(("slow_query_us".into(), num(*t as f64)));
            }
            if let Some(t) = trace_sample {
                fields.push(("trace_sample".into(), num(*t as f64)));
            }
            obj(fields, "config")
        }
    }
}

/// Renders one response as the JSON line the pre-codec server sent.
pub fn render_response(resp: &Response) -> String {
    let num = Json::Num;
    match resp {
        Response::Query(r) => {
            let mut fields = vec![
                ("status".into(), Json::Str("ok".into())),
                ("epoch".into(), num(r.epoch as f64)),
                ("node".into(), num(r.node as f64)),
                ("k".into(), num(r.k as f64)),
                ("cached".into(), Json::Bool(r.cached)),
            ];
            if let Some(id) = r.trace_id {
                fields.push(("trace_id".into(), num(id as f64)));
            }
            fields.push(("matches".into(), matches_json(&r.matches)));
            Json::Obj(fields).render()
        }
        Response::Pong { epoch } => ok_response(vec![
            ("op".into(), Json::Str("ping".into())),
            ("epoch".into(), num(*epoch as f64)),
        ]),
        Response::Stats(s) => render_stats(s),
        Response::Metrics(m) => render_metrics(m),
        Response::Reloaded { epoch, nodes, edges } => ok_response(vec![
            ("op".into(), Json::Str("reload".into())),
            ("epoch".into(), num(*epoch as f64)),
            ("nodes".into(), num(*nodes as f64)),
            ("edges".into(), num(*edges as f64)),
        ]),
        Response::DeltaApplied { epoch, nodes, added, removed } => ok_response(vec![
            ("op".into(), Json::Str("edge-delta".into())),
            ("epoch".into(), num(*epoch as f64)),
            ("nodes".into(), num(*nodes as f64)),
            ("added".into(), num(*added as f64)),
            ("removed".into(), num(*removed as f64)),
        ]),
        Response::Config { window_us, max_batch, cache_enabled, slow_query_us, trace_sample } => {
            ok_response(vec![
                ("op".into(), Json::Str("config".into())),
                ("window_us".into(), num(*window_us as f64)),
                ("max_batch".into(), num(*max_batch as f64)),
                ("cache_enabled".into(), Json::Bool(*cache_enabled)),
                ("slow_query_us".into(), num(*slow_query_us as f64)),
                ("trace_sample".into(), num(*trace_sample as f64)),
            ])
        }
        Response::Trace(t) => ok_response(vec![
            ("op".into(), Json::Str("trace".into())),
            ("version".into(), num(t.version as f64)),
            ("sample_every".into(), num(t.sample_every as f64)),
            ("traces".into(), Json::Arr(t.traces.iter().map(render_trace).collect())),
        ]),
        Response::ShuttingDown => ok_response(vec![("op".into(), Json::Str("shutdown".into()))]),
        Response::Shed { reason } => Json::Obj(vec![
            ("status".into(), Json::Str("shed".into())),
            ("reason".into(), Json::Str(reason.clone())),
        ])
        .render(),
        Response::Error { message } => Json::Obj(vec![
            ("status".into(), Json::Str("error".into())),
            ("error".into(), Json::Str(message.clone())),
        ])
        .render(),
    }
}

fn render_stats(s: &StatsReply) -> String {
    let num = Json::Num;
    ok_response(vec![
        ("op".into(), Json::Str("stats".into())),
        ("epoch".into(), num(s.epoch as f64)),
        ("epoch_swaps".into(), num(s.epoch_swaps as f64)),
        ("nodes".into(), num(s.nodes as f64)),
        ("edges".into(), num(s.edges as f64)),
        (
            "params".into(),
            Json::Obj(vec![("c".into(), num(s.c)), ("k".into(), num(s.iterations as f64))]),
        ),
        ("uptime_ms".into(), num(s.uptime_ms)),
        ("requests".into(), num(s.requests as f64)),
        ("connections".into(), num(s.connections as f64)),
        ("shed_connections".into(), num(s.shed_connections as f64)),
        ("worker_threads".into(), num(s.worker_threads as f64)),
        (
            "cache".into(),
            Json::Obj(vec![
                ("enabled".into(), Json::Bool(s.cache_enabled)),
                ("hits".into(), num(s.cache.hits as f64)),
                ("misses".into(), num(s.cache.misses as f64)),
                ("hit_rate".into(), num(s.cache.hit_rate())),
                ("inserts".into(), num(s.cache.inserts as f64)),
                ("evictions".into(), num(s.cache.evictions as f64)),
                ("entries".into(), num(s.cache.entries as f64)),
            ]),
        ),
        (
            "batcher".into(),
            Json::Obj(vec![
                ("window_us".into(), num(s.window_us as f64)),
                ("max_batch".into(), num(s.max_batch as f64)),
                ("submitted".into(), num(s.batcher.submitted as f64)),
                ("shed".into(), num(s.batcher.shed as f64)),
                ("flushes".into(), num(s.batcher.flushes as f64)),
                ("flushed_jobs".into(), num(s.batcher.flushed_jobs as f64)),
                ("unique_lanes".into(), num(s.batcher.unique_lanes as f64)),
                ("max_flush".into(), num(s.batcher.max_flush as f64)),
                ("mean_flush".into(), num(s.batcher.mean_flush())),
            ]),
        ),
    ])
}

/// Renders the `metrics` payload: `(name, value)` pair arrays for
/// counters and gauges, one object per histogram (count/sum/max plus the
/// quantile summary). Values stay within 2^53, so the f64 JSON number
/// space round-trips them exactly.
fn render_metrics(m: &MetricsReply) -> String {
    let num = Json::Num;
    let pairs = |items: &[(String, u64)]| {
        Json::Arr(
            items
                .iter()
                .map(|(name, v)| Json::Arr(vec![Json::Str(name.clone()), num(*v as f64)]))
                .collect(),
        )
    };
    let hists = Json::Arr(
        m.snapshot
            .hists
            .iter()
            .map(|h| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(h.name.clone())),
                    ("count".into(), num(h.count as f64)),
                    ("sum".into(), num(h.sum as f64)),
                    ("max".into(), num(h.max as f64)),
                    ("p50".into(), num(h.p50 as f64)),
                    ("p90".into(), num(h.p90 as f64)),
                    ("p99".into(), num(h.p99 as f64)),
                    ("p999".into(), num(h.p999 as f64)),
                ])
            })
            .collect(),
    );
    ok_response(vec![
        ("op".into(), Json::Str("metrics".into())),
        ("version".into(), num(m.version as f64)),
        ("counters".into(), pairs(&m.snapshot.counters)),
        ("gauges".into(), pairs(&m.snapshot.gauges)),
        ("histograms".into(), hists),
    ])
}

fn parse_metrics(doc: &Json) -> MetricsReply {
    let u = |v: Option<&Json>| v.and_then(Json::as_num).unwrap_or(0.0) as u64;
    let pairs = |key: &str| -> Vec<(String, u64)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|pair| {
                        let p = pair.as_arr()?;
                        Some((p.first()?.as_str()?.to_string(), p.get(1)?.as_num()? as u64))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let hists = doc
        .get("histograms")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .map(|h| HistSnap {
                    name: h.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
                    count: u(h.get("count")),
                    sum: u(h.get("sum")),
                    max: u(h.get("max")),
                    p50: u(h.get("p50")),
                    p90: u(h.get("p90")),
                    p99: u(h.get("p99")),
                    p999: u(h.get("p999")),
                })
                .collect()
        })
        .unwrap_or_default();
    MetricsReply {
        version: u(doc.get("version")),
        snapshot: RegistrySnapshot { counters: pairs("counters"), gauges: pairs("gauges"), hists },
    }
}

/// Parses one response line into the typed [`Response`].
pub fn parse_response(line: &str) -> Result<Response, String> {
    let doc = parse_json(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field `status`".to_string())?;
    let u = |v: Option<&Json>| v.and_then(Json::as_num).unwrap_or(0.0) as u64;
    match status {
        "shed" => Ok(Response::Shed {
            reason: doc.get("reason").and_then(Json::as_str).unwrap_or("").to_string(),
        }),
        "error" => Ok(Response::Error {
            message: doc.get("error").and_then(Json::as_str).unwrap_or("").to_string(),
        }),
        "ok" => match doc.get("op").and_then(Json::as_str) {
            None => Ok(Response::Query(QueryReply {
                epoch: u(doc.get("epoch")),
                node: u(doc.get("node")) as NodeId,
                k: u(doc.get("k")),
                cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
                matches: Arc::new(parse_matches(doc.get("matches"))),
                trace_id: doc.get("trace_id").and_then(Json::as_num).map(|v| v as u64),
            })),
            Some("ping") => Ok(Response::Pong { epoch: u(doc.get("epoch")) }),
            Some("stats") => Ok(Response::Stats(Box::new(parse_stats(&doc)))),
            Some("metrics") => Ok(Response::Metrics(Box::new(parse_metrics(&doc)))),
            Some("trace") => Ok(Response::Trace(Box::new(TraceReply {
                version: u(doc.get("version")),
                sample_every: u(doc.get("sample_every")),
                traces: doc
                    .get("traces")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .map(parse_trace)
                    .collect::<Result<Vec<_>, String>>()?,
            }))),
            Some("reload") => Ok(Response::Reloaded {
                epoch: u(doc.get("epoch")),
                nodes: u(doc.get("nodes")),
                edges: u(doc.get("edges")),
            }),
            Some("edge-delta") => Ok(Response::DeltaApplied {
                epoch: u(doc.get("epoch")),
                nodes: u(doc.get("nodes")),
                added: u(doc.get("added")),
                removed: u(doc.get("removed")),
            }),
            Some("config") => Ok(Response::Config {
                window_us: u(doc.get("window_us")),
                max_batch: u(doc.get("max_batch")),
                cache_enabled: doc.get("cache_enabled").and_then(Json::as_bool).unwrap_or(false),
                slow_query_us: u(doc.get("slow_query_us")),
                trace_sample: u(doc.get("trace_sample")),
            }),
            Some("shutdown") => Ok(Response::ShuttingDown),
            Some(other) => Err(format!("unknown response op `{other}`")),
        },
        other => Err(format!("unknown status `{other}`")),
    }
}

fn parse_stats(doc: &Json) -> StatsReply {
    let u = |v: Option<&Json>| v.and_then(Json::as_num).unwrap_or(0.0) as u64;
    let f = |v: Option<&Json>| v.and_then(Json::as_num).unwrap_or(0.0);
    let cache = doc.get("cache");
    let batcher = doc.get("batcher");
    let c = |key: &str| u(cache.and_then(|o| o.get(key)));
    let b = |key: &str| u(batcher.and_then(|o| o.get(key)));
    StatsReply {
        epoch: u(doc.get("epoch")),
        epoch_swaps: u(doc.get("epoch_swaps")),
        nodes: u(doc.get("nodes")),
        edges: u(doc.get("edges")),
        c: f(doc.get("params").and_then(|p| p.get("c"))),
        iterations: u(doc.get("params").and_then(|p| p.get("k"))),
        uptime_ms: f(doc.get("uptime_ms")),
        requests: u(doc.get("requests")),
        connections: u(doc.get("connections")),
        shed_connections: u(doc.get("shed_connections")),
        worker_threads: u(doc.get("worker_threads")),
        cache_enabled: cache
            .and_then(|o| o.get("enabled"))
            .and_then(Json::as_bool)
            .unwrap_or(false),
        cache: CacheStats {
            hits: c("hits"),
            misses: c("misses"),
            inserts: c("inserts"),
            evictions: c("evictions"),
            entries: c("entries") as usize,
        },
        window_us: b("window_us"),
        max_batch: b("max_batch"),
        batcher: BatcherStats {
            submitted: b("submitted"),
            shed: b("shed"),
            flushes: b("flushes"),
            flushed_jobs: b("flushed_jobs"),
            max_flush: b("max_flush"),
            unique_lanes: b("unique_lanes"),
        },
    }
}

fn parse_matches(v: Option<&Json>) -> Vec<(NodeId, f64)> {
    v.and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let p = pair.as_arr()?;
                    Some((p.first()?.as_num()? as NodeId, p.get(1)?.as_num()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The `matches` value shared by serve responses and the CLI's JSON
/// output: `[[node, score], ...]`, ranked. Scores use shortest-round-trip
/// formatting, so the parsed value reproduces the computed bits exactly.
pub fn matches_json(matches: &[(NodeId, f64)]) -> Json {
    Json::Arr(
        matches.iter().map(|&(v, s)| Json::Arr(vec![Json::Num(v as f64), Json::Num(s)])).collect(),
    )
}

/// Renders a generic `status: ok` response line from extra fields.
fn ok_response(fields: Vec<(String, Json)>) -> String {
    let mut pairs = vec![("status".to_string(), Json::Str("ok".into()))];
    pairs.extend(fields);
    Json::Obj(pairs).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;

    #[test]
    fn parses_query_with_default_k() {
        assert_eq!(
            parse_request(r#"{"op":"query","node":5}"#).unwrap(),
            Request::Query { node: 5, k: 10 }
        );
        assert_eq!(
            parse_request(r#"{"op":"query","node":0,"k":3}"#).unwrap(),
            Request::Query { node: 0, k: 3 }
        );
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"node":5}"#).is_err());
        assert!(parse_request(r#"{"op":"query"}"#).is_err());
        assert!(parse_request(r#"{"op":"query","node":-1}"#).is_err());
        assert!(parse_request(r#"{"op":"query","node":1.5}"#).is_err());
        assert!(parse_request(r#"{"op":"frobnicate"}"#).is_err());
    }

    #[test]
    fn node_ids_past_u32_are_rejected_not_truncated() {
        // 2^32 + 1 would wrap to node 1 under a bare `as u32` cast and
        // silently serve the wrong node's results.
        assert!(parse_request(r#"{"op":"query","node":4294967297}"#).is_err());
        assert!(parse_request(r#"{"op":"edge-delta","add":[[4294967297,0]]}"#).is_err());
        // The exact boundary still parses.
        assert_eq!(
            parse_request(r#"{"op":"query","node":4294967295}"#).unwrap(),
            Request::Query { node: u32::MAX, k: 10 }
        );
    }

    #[test]
    fn parses_admin_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request(r#"{"op":"reload","path":"g.txt"}"#).unwrap(),
            Request::Reload { path: "g.txt".into() }
        );
        assert_eq!(
            parse_request(r#"{"op":"edge-delta","add":[[1,2]],"remove":[[3,4],[5,6]]}"#).unwrap(),
            Request::EdgeDelta { add: vec![(1, 2)], remove: vec![(3, 4), (5, 6)] }
        );
        assert_eq!(
            parse_request(r#"{"op":"config","window_us":250,"max_batch":32,"cache":"clear"}"#)
                .unwrap(),
            Request::Config {
                window_us: Some(250),
                max_batch: Some(32),
                cache: Some(CacheDirective::Clear),
                slow_query_us: None,
                trace_sample: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"config","slow_query_us":1500}"#).unwrap(),
            Request::Config {
                window_us: None,
                max_batch: None,
                cache: None,
                slow_query_us: Some(1500),
                trace_sample: None
            }
        );
        assert_eq!(parse_request(r#"{"op":"metrics"}"#).unwrap(), Request::Metrics);
        assert_eq!(parse_request(r#"{"op":"trace"}"#).unwrap(), Request::Trace);
        assert_eq!(
            parse_request(r#"{"op":"config","trace_sample":8}"#).unwrap(),
            Request::Config {
                window_us: None,
                max_batch: None,
                cache: None,
                slow_query_us: None,
                trace_sample: Some(8)
            }
        );
        assert!(parse_request(r#"{"op":"config","cache":"purge"}"#).is_err());
        assert!(parse_request(r#"{"op":"edge-delta","add":[[1]]}"#).is_err());
    }

    #[test]
    fn query_response_round_trips_scores() {
        let matches = [(3u32, 0.12345678901234567), (1u32, 2.0 / 3.0)];
        let line = render_response(&Response::Query(QueryReply {
            epoch: 7,
            node: 5,
            k: 2,
            cached: true,
            matches: Arc::new(matches.to_vec()),
            trace_id: Some(17),
        }));
        let doc = crate::json::parse_json(&line).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("epoch").and_then(Json::as_num), Some(7.0));
        assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("trace_id").and_then(Json::as_num), Some(17.0));
        let parsed = doc.get("matches").and_then(Json::as_arr).unwrap();
        for (&(v, s), m) in matches.iter().zip(parsed) {
            let pair = m.as_arr().unwrap();
            assert_eq!(pair[0].as_num(), Some(v as f64));
            assert_eq!(pair[1].as_num().unwrap().to_bits(), s.to_bits());
        }
    }

    #[test]
    fn shed_and_error_responses_carry_status() {
        let shed = crate::json::parse_json(&render_response(&Response::Shed {
            reason: "queue full".into(),
        }))
        .unwrap();
        assert_eq!(shed.get("status").and_then(Json::as_str), Some("shed"));
        let err =
            crate::json::parse_json(&render_response(&Response::Error { message: "nope".into() }))
                .unwrap();
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(err.get("error").and_then(Json::as_str), Some("nope"));
    }

    #[test]
    fn incremental_decode_frames_on_newlines() {
        let c = JsonlCodec;
        let mut buf = Vec::new();
        c.encode_request(0, &Request::Ping, &mut buf);
        let full = buf.clone();
        // Every strict prefix is incomplete; the full buffer is a frame.
        for cut in 0..full.len() {
            assert_eq!(c.decode_request(&full[..cut]), Decoded::Incomplete, "cut={cut}");
        }
        match c.decode_request(&full) {
            Decoded::Frame { consumed, id: None, value: Request::Ping } => {
                assert_eq!(consumed, full.len());
            }
            other => panic!("{other:?}"),
        }
        // Blank lines are skipped, not errors.
        assert_eq!(c.decode_request(b"  \n"), Decoded::Skip { consumed: 3 });
        // A bad line is malformed but recoverable.
        match c.decode_request(b"not json\n{\"op\":\"ping\"}\n") {
            Decoded::Malformed(m) => {
                assert_eq!(m.consumed, 9);
                assert!(m.recoverable);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requests_and_responses_round_trip_typed() {
        let c = JsonlCodec;
        let reqs = [
            Request::Query { node: 4, k: 3 },
            Request::Ping,
            Request::Stats,
            Request::Reload { path: "π/graph.ssg".into() },
            Request::EdgeDelta { add: vec![(1, 2)], remove: vec![] },
            Request::Config {
                window_us: Some(250),
                max_batch: None,
                cache: Some(CacheDirective::On),
                slow_query_us: Some(2_000),
                trace_sample: Some(4),
            },
            Request::Trace,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in &reqs {
            let mut buf = Vec::new();
            c.encode_request(9, req, &mut buf);
            match c.decode_request(&buf) {
                Decoded::Frame { consumed, value, .. } => {
                    assert_eq!(consumed, buf.len());
                    assert_eq!(&value, req);
                }
                other => panic!("{req:?} → {other:?}"),
            }
        }
        let resps = [
            Response::Pong { epoch: 3 },
            Response::Reloaded { epoch: 1, nodes: 10, edges: 20 },
            Response::DeltaApplied { epoch: 2, nodes: 10, added: 1, removed: 0 },
            Response::Config {
                window_us: 800,
                max_batch: 64,
                cache_enabled: true,
                slow_query_us: 1_000,
                trace_sample: 16,
            },
            Response::Trace(Box::new(TraceReply {
                version: 1,
                sample_every: 4,
                traces: vec![ssr_obs::Trace {
                    id: 12,
                    total_ns: 500,
                    attrs: vec![("codec".into(), "json".into())],
                    spans: vec![
                        ssr_obs::TraceSpan::new("request", ssr_obs::NO_PARENT, 0, 500),
                        ssr_obs::TraceSpan::new("decode", 0, 0, 40).attr("bytes", 21),
                    ],
                }],
            })),
            Response::Metrics(Box::new(MetricsReply {
                version: 1,
                snapshot: RegistrySnapshot {
                    counters: vec![("ssr_requests_total{codec=\"json\"}".into(), 12)],
                    gauges: vec![("ssr_epoch".into(), 3)],
                    hists: vec![HistSnap {
                        name: "ssr_stage_us{stage=\"total\"}".into(),
                        count: 4,
                        sum: 900,
                        max: 400,
                        p50: 200,
                        p90: 380,
                        p99: 400,
                        p999: 400,
                    }],
                },
            })),
            Response::ShuttingDown,
            Response::Shed { reason: "queue full".into() },
            Response::Error { message: "node 9 out of range".into() },
        ];
        for resp in &resps {
            let mut buf = Vec::new();
            c.encode_response(9, resp, &mut buf);
            match c.decode_response(&buf) {
                Decoded::Frame { value, .. } => assert_eq!(&value, resp),
                other => panic!("{resp:?} → {other:?}"),
            }
        }
    }
}
