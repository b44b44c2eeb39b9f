//! Per-layer probes for the traced run. Each is timed from outside,
//! around a call into the layer's public API, on the workload's own
//! seeded inputs, with one span per call.

use crate::load::{Matches, Write};
use crate::trace::Spans;
use crate::util::{median, percentile};
use simrank_star::{
    AllPairsEngine, AllPairsOptions, QueryEngine, QueryEngineOptions, SimStarParams,
};
use ssr_graph::{DiGraph, NodeId};
use ssr_serve::{Batcher, EpochStore};
use ssr_serve::{
    BatcherOptions, CacheKey, CompletionSink, QueryAnswer, QueryReply, Request, Response,
    ShardedCache, SubmitError, WireFormat,
};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Most frames / keys a probe replays.
const PROBE_CAP: usize = 20_000;

pub struct CodecProbe {
    pub decode_req_ns: f64,
    pub encode_reply_ns: f64,
    pub reply_bytes: f64,
}

/// `Codec::decode_request` over the phase's request frames and
/// `Codec::encode_response` over its captured replies, in `format`.
pub fn codec(
    format: WireFormat,
    nodes: &[NodeId],
    replies: &[QueryReply],
    k: usize,
    spans: &mut Spans,
) -> Result<CodecProbe, String> {
    let codec = format.codec();
    let (decode_span, encode_span) = match format {
        WireFormat::Jsonl => ("codec.json.decode_request", "codec.json.encode_response"),
        WireFormat::Ssb => ("codec.ssb.decode_request", "codec.ssb.encode_response"),
    };
    let frames: Vec<Vec<u8>> = nodes
        .iter()
        .take(PROBE_CAP)
        .enumerate()
        .map(|(i, &node)| {
            let mut out = Vec::new();
            codec.encode_request(i as u64, &Request::Query { node, k }, &mut out);
            out
        })
        .collect();
    for (i, frame) in frames.iter().enumerate() {
        let decoded = spans.time(decode_span, i as u64, || codec.decode_request(frame));
        if !matches!(decoded, ssr_serve::Decoded::Frame { .. }) {
            return Err(format!("frame {i} did not decode: {decoded:?}"));
        }
    }
    let mut out = Vec::with_capacity(4096);
    let mut bytes = 0usize;
    for (i, reply) in replies.iter().take(PROBE_CAP).enumerate() {
        let resp = Response::Query(reply.clone());
        out.clear();
        spans.time(encode_span, i as u64, || codec.encode_response(i as u64, &resp, &mut out));
        bytes += out.len();
    }
    Ok(CodecProbe {
        decode_req_ns: median(&spans.durations_ns(decode_span)),
        encode_reply_ns: median(&spans.durations_ns(encode_span)),
        reply_bytes: bytes as f64 / replies.len().clamp(1, PROBE_CAP) as f64,
    })
}

/// `ShardedCache::get` over the phase's key stream, with the server's
/// default geometry (4096 entries, 8 shards); misses insert, as the
/// server does, so the stream sees the same hit/evict pattern.
pub fn cache_lookup_ns(warm: &[NodeId], stream: &[NodeId], k: usize, spans: &mut Spans) -> f64 {
    lookups(warm, stream, k, "cache.get", spans)
}

/// `ShardedCache::get` over the same key stream after every key in it
/// was inserted, so each call takes the hit path.
pub fn cache_hit_lookup_ns(stream: &[NodeId], k: usize, spans: &mut Spans) -> f64 {
    let mut keys: Vec<NodeId> = stream.iter().take(PROBE_CAP).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(4096);
    let stream: Vec<NodeId> =
        stream.iter().copied().filter(|v| keys.binary_search(v).is_ok()).collect();
    lookups(&keys, &stream, k, "cache.get_hit", spans)
}

fn lookups(
    warm: &[NodeId],
    stream: &[NodeId],
    k: usize,
    span: &'static str,
    spans: &mut Spans,
) -> f64 {
    let cache = ShardedCache::new(4096, 8);
    let value: Matches = Arc::new(Vec::new());
    let key = |node| CacheKey { epoch: 0, node, k: k as u32, params_key: 1 };
    for &v in warm {
        cache.insert(key(v), value.clone());
    }
    for (i, &v) in stream.iter().take(PROBE_CAP).enumerate() {
        let hit = spans.time(span, i as u64, || cache.get(&key(v)));
        if hit.is_none() {
            cache.insert(key(v), value.clone());
        }
    }
    median(&spans.durations_ns(span))
}

/// One replayed request: due → answer, with the batcher's stage split.
#[derive(Debug, Clone, Copy)]
pub struct ReplayRecord {
    pub node: NodeId,
    pub total_us: f64,
    pub cache_us: f64,
    pub queue_us: f64,
    pub engine_us: f64,
    pub queued: bool,
}

pub struct Replay {
    pub records: Vec<ReplayRecord>,
    pub lag_ms: Vec<f64>,
    pub shed: u64,
    pub mean_flush: f64,
    pub dedup_ratio: f64,
    pub hit_ratio: f64,
    pub evictions_per_1k: f64,
}

/// A finished replayed request: tag, completion offset, outcome.
type Completion = (u64, Duration, Result<QueryAnswer, SubmitError>);

struct Sink {
    start: Instant,
    done: Mutex<Vec<Completion>>,
}

impl CompletionSink for Sink {
    fn complete(&self, tag: u64, result: Result<QueryAnswer, SubmitError>) {
        let at = self.start.elapsed();
        self.done.lock().expect("sink poisoned").push((tag, at, result));
    }
}

/// Replays an open-loop schedule through an in-process `Batcher` with the
/// server's defaults (`Batcher::submit` → answer), timing each request
/// from when it was due. `warm` nodes are put in the cache first, with
/// their true answers, as the workload's warm-up does on the server.
pub fn batcher_replay(
    g: &DiGraph,
    params: SimStarParams,
    warm: &[(NodeId, Matches)],
    schedule: &[(f64, NodeId)],
    k: usize,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let store = Arc::new(EpochStore::new(g.clone(), params, QueryEngineOptions::default()));
    let snapshot = store.current();
    let cache = Arc::new(ShardedCache::new(4096, 8));
    for (node, m) in warm {
        let key = CacheKey { epoch: 0, node: *node, k: k as u32, params_key: snapshot.params_key };
        cache.insert(key, m.clone());
    }
    // Lazy kernel set-up happens on the first sweep; keep it out of the timings.
    snapshot.engine().top_k_batch(&[schedule.first().map_or(0, |s| s.1)], k);
    drop(snapshot);
    let before = cache.stats();
    let batcher = Batcher::start(store, cache.clone(), BatcherOptions::default());
    let start = Instant::now() + Duration::from_millis(2);
    let sink = Arc::new(Sink { start, done: Mutex::new(Vec::new()) });
    let dyn_sink: Arc<dyn CompletionSink> = sink.clone();
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut shed = 0;
    for (tag, &(off, node)) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(off);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        lag_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        match batcher.submit(node, k, false, &dyn_sink, tag as u64) {
            Ok(Some(hit)) => dyn_sink.complete(tag as u64, Ok(hit)),
            Ok(None) => {}
            Err(SubmitError::Shed) => shed += 1,
            Err(e) => return Err(format!("replay submit of node {node}: {e:?}")),
        }
    }
    let expected = schedule.len() - shed as usize;
    let deadline = Instant::now() + Duration::from_secs(30);
    while sink.done.lock().expect("sink poisoned").len() < expected {
        if Instant::now() > deadline {
            return Err("in-process replay did not drain within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = batcher.stats();
    batcher.shutdown();
    let after = cache.stats();
    let done = std::mem::take(&mut *sink.done.lock().expect("sink poisoned"));
    let mut records = Vec::with_capacity(done.len());
    for (tag, at, result) in done {
        let answer = result.map_err(|e| format!("replayed request {tag} failed: {e:?}"))?;
        let (off, node) = schedule[tag as usize];
        let due = Duration::from_secs_f64(off);
        let t = answer.trace;
        let rec = ReplayRecord {
            node,
            total_us: at.saturating_sub(due).as_secs_f64() * 1e6,
            cache_us: t.cache_ns as f64 / 1e3,
            queue_us: t.queue_ns as f64 / 1e3,
            engine_us: t.engine_ns as f64 / 1e3,
            queued: !answer.cached,
        };
        let due_at = start + due;
        spans.record("batcher.submit", tag, None, due_at, start + at);
        records.push(rec);
    }
    let lookups = (after.hits + after.misses - before.hits - before.misses).max(1) as f64;
    Ok(Replay {
        records,
        lag_ms,
        shed,
        mean_flush: stats.mean_flush(),
        dedup_ratio: if stats.flushed_jobs == 0 {
            0.0
        } else {
            1.0 - stats.unique_lanes as f64 / stats.flushed_jobs as f64
        },
        hit_ratio: (after.hits - before.hits) as f64 / lookups,
        evictions_per_1k: (after.evictions - before.evictions) as f64 * 1000.0 / lookups,
    })
}

pub struct EngineProbe {
    pub solo_ms: f64,
    pub lane16_ms_per_query: f64,
    pub at_flush_ms_per_query: f64,
    pub lane_occupancy: f64,
    pub frontier_density: f64,
    pub dense_step_share: f64,
    pub resident_mib: f64,
}

/// `QueryEngine::top_k_batch` (deterministic, as the server runs it) at
/// one lane, at 16 lanes, and at the flush size the batcher was seen to
/// form, plus the engine's own counters over those calls.
pub fn engine(
    engine: &QueryEngine,
    nodes: &[NodeId],
    mean_flush: f64,
    k: usize,
    spans: &mut Spans,
) -> EngineProbe {
    let before = engine.stats();
    let mut solo = Vec::new();
    for (i, &q) in nodes.iter().take(16).enumerate() {
        let t = Instant::now();
        std::hint::black_box(engine.top_k_batch(&[q], k));
        spans.record("engine.solo", i as u64, None, t, Instant::now());
        solo.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let per_query = |width: usize, name: &'static str, spans: &mut Spans| {
        let mut v = Vec::new();
        for (i, chunk) in nodes.chunks_exact(width).take(4).enumerate() {
            let t = Instant::now();
            std::hint::black_box(engine.top_k_batch(chunk, k));
            spans.record(name, i as u64, None, t, Instant::now());
            v.push(t.elapsed().as_secs_f64() * 1e3 / width as f64);
        }
        median(&v)
    };
    let lane16 = per_query(16, "engine.lane16", spans);
    let at_flush = per_query((mean_flush.round() as usize).clamp(1, 64), "engine.at_flush", spans);
    let after = engine.stats();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    EngineProbe {
        solo_ms: median(&solo),
        lane16_ms_per_query: lane16,
        at_flush_ms_per_query: at_flush,
        lane_occupancy: ratio(
            after.lanes_used - before.lanes_used,
            after.lane_slots - before.lane_slots,
        ),
        frontier_density: ratio(
            after.frontier_active - before.frontier_active,
            after.frontier_slots - before.frontier_slots,
        ),
        dense_step_share: ratio(
            after.dense_steps - before.dense_steps,
            after.iterations - before.iterations,
        ),
        resident_mib: engine.resident_bytes() as f64 / (1u64 << 20) as f64,
    }
}

/// `EpochStore::apply_delta` and `EpochStore::publish`, three times each.
pub fn epoch(
    g: &DiGraph,
    params: SimStarParams,
    deltas: &[Write],
    reload: &DiGraph,
    spans: &mut Spans,
) -> Result<(f64, f64), String> {
    let store = EpochStore::new(g.clone(), params, QueryEngineOptions::default());
    let mut delta_ms = Vec::new();
    for (i, w) in deltas.iter().filter(|w| matches!(w, Write::Delta { .. })).take(3).enumerate() {
        let Write::Delta { add, remove } = w else { unreachable!("filtered to deltas") };
        let t = Instant::now();
        store.apply_delta(add, remove)?;
        spans.record("epoch.apply_delta", i as u64, None, t, Instant::now());
        delta_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut publish_ms = Vec::new();
    for i in 0..3 {
        let graph = reload.clone();
        let t = Instant::now();
        store.publish(graph);
        spans.record("epoch.publish", i, None, t, Instant::now());
        publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&delta_ms), median(&publish_ms)))
}

/// `ssr_store::load_graph_auto`, three times.
pub fn store_load_ms(path: &Path, spans: &mut Spans) -> Result<f64, String> {
    let mut v = Vec::new();
    for i in 0..3 {
        let t = Instant::now();
        let g = ssr_store::load_graph_auto(path)
            .map_err(|e| format!("loading {}: {e}", path.display()))?;
        spans.record("store.load_graph_auto", i, None, t, Instant::now());
        v.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(g);
    }
    Ok(median(&v))
}

pub struct AllPairsProbe {
    pub build_ms: f64,
    pub rows_per_s_1t: f64,
    pub rows_per_s_nt: f64,
    pub parallel_efficiency: f64,
}

/// `AllPairsEngine::new`, then `top_k` over `rows` at one thread and at
/// `nproc` threads.
pub fn all_pairs(
    g: &DiGraph,
    params: SimStarParams,
    rows: &[NodeId],
    k: usize,
    nproc: usize,
    spans: &mut Spans,
) -> AllPairsProbe {
    let rate = |threads: usize, spans: &mut Spans| {
        let t = Instant::now();
        let engine = AllPairsEngine::with_options(
            g,
            params,
            AllPairsOptions { threads, ..AllPairsOptions::default() },
        );
        let built = Instant::now();
        spans.record("allpairs.new", threads as u64, None, t, built);
        std::hint::black_box(engine.top_k(rows, k));
        spans.record("allpairs.top_k", threads as u64, None, built, Instant::now());
        (
            built.duration_since(t).as_secs_f64() * 1e3,
            rows.len() as f64 / built.elapsed().as_secs_f64(),
        )
    };
    let (build_ms, one) = rate(1, spans);
    let (_, many) = rate(nproc, spans);
    AllPairsProbe {
        build_ms,
        rows_per_s_1t: one,
        rows_per_s_nt: many,
        parallel_efficiency: many / (one * nproc as f64),
    }
}

/// p50/p99 of the replayed requests that went through the queue.
pub fn queue_wait_us(replay: &Replay) -> (f64, f64) {
    let q: Vec<f64> = replay.records.iter().filter(|r| r.queued).map(|r| r.queue_us).collect();
    if q.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&q, 0.5), percentile(&q, 0.99))
    }
}
