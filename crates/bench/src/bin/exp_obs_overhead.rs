//! CI gate: instrumentation overhead of the `ssr-obs` registry — plus
//! the trace sampler's sampling-off draw — versus the serve smoke
//! benchmark, asserted at ≤3% of the measured p50.
//!
//! The serve runtime records a fixed bundle of metrics per request
//! (stage histograms, codec histograms, counters).
//! This binary replays that exact bundle against a live registry and
//! against [`ssr_obs::Registry::disabled`] — the kill switch where
//! every handle early-returns — and takes the difference as the
//! per-request instrumentation cost. That cost is then compared to the
//! `p50_us` of a mode in a `ssr-bench/serve/v1` document (typically
//! `BENCH_serve.current.json` freshly produced by `exp_serve --smoke`
//! in the same CI run), failing if it exceeds `--limit` (default 0.03)
//! of the p50.
//!
//! Usage: `exp_obs_overhead [--bench PATH] [--mode NAME] [--limit FRAC]
//! [--iters N]`

use ssr_obs::{Counter, Histogram, Registry};
use std::hint::black_box;
use std::time::Instant;

/// The per-request record bundle, mirroring `ssr-serve`'s runtime: one
/// histogram record per pipeline stage (decode, cache, queue, engine,
/// encode, total), one per codec direction, plus the request/response
/// counters.
struct Bundle {
    stages: Vec<Histogram>,
    codec_decode: Histogram,
    codec_encode: Histogram,
    requests: Counter,
    responses: Counter,
}

impl Bundle {
    fn new(reg: &Registry) -> Bundle {
        let stages = ["decode", "cache", "queue", "engine", "encode", "total"]
            .iter()
            .map(|s| reg.histogram("ssr_stage_us", &[("stage", s)]))
            .collect();
        Bundle {
            stages,
            codec_decode: reg.histogram("ssr_codec_decode_us", &[("codec", "ssb")]),
            codec_encode: reg.histogram("ssr_codec_encode_us", &[("codec", "ssb")]),
            requests: reg.counter("ssr_requests_total", &[("codec", "ssb")]),
            responses: reg.counter("ssr_responses_total", &[("kind", "ok")]),
        }
    }

    #[inline]
    fn record_request(&self, v: u64) {
        self.requests.inc();
        for h in &self.stages {
            h.record(v);
        }
        self.codec_decode.record(v);
        self.codec_encode.record(v);
        self.responses.inc();
    }
}

/// Mean nanoseconds per request bundle, best of five trials (the
/// minimum is the least contaminated by scheduler noise on shared CI
/// runners).
fn measure(reg: &Registry, iters: u64) -> f64 {
    let bundle = Bundle::new(reg);
    // Warm-up pass so page faults and branch predictors settle outside
    // the timed region.
    for i in 0..iters / 10 {
        bundle.record_request(black_box(i & 0xFFFF));
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let started = Instant::now();
        for i in 0..iters {
            bundle.record_request(black_box(i & 0xFFFF));
        }
        let ns = started.elapsed().as_secs_f64() * 1e9 / iters as f64;
        best = best.min(ns);
    }
    best
}

/// Mean nanoseconds per sampler draw — the only tracing cost every
/// request pays when span sampling is off (`--trace-sample 0`): one
/// relaxed fetch-add for the id plus one relaxed load of the rate.
/// Measured the same way as the registry bundle and charged against the
/// same budget, so turning tracing *off* provably keeps the serve path
/// inside the overhead gate.
fn measure_sampler_off(iters: u64) -> f64 {
    let tracer = ssr_serve::TraceCollector::new(0, None).expect("ring-only collector");
    for _ in 0..iters / 10 {
        black_box(tracer.issue());
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..iters {
            black_box(tracer.issue());
        }
        let ns = started.elapsed().as_secs_f64() * 1e9 / iters as f64;
        best = best.min(ns);
    }
    best
}

fn p50_from_bench(path: &str, mode: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading bench file `{path}`: {e}"))?;
    let doc = ssr_serve::json::parse_json(&text).map_err(|e| format!("parsing `{path}`: {e}"))?;
    let datasets =
        doc.get("datasets").and_then(|d| d.as_arr()).ok_or("bench file has no `datasets` array")?;
    let first = datasets.first().ok_or("bench file has an empty `datasets` array")?;
    first
        .get("modes")
        .and_then(|m| m.get(mode))
        .and_then(|m| m.get("p50_us"))
        .and_then(|v| v.as_num())
        .ok_or_else(|| format!("no `p50_us` for mode `{mode}` in `{path}`"))
}

fn main() {
    let mut bench_path = String::from("BENCH_serve.current.json");
    let mut mode = String::from("batched");
    let mut limit = 0.03f64;
    let mut iters = 2_000_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => die(&format!("{flag} is missing its value")),
        };
        match a.as_str() {
            "--bench" => bench_path = value("--bench"),
            "--mode" => mode = value("--mode"),
            "--limit" => match value("--limit").parse() {
                Ok(v) if v > 0.0 => limit = v,
                _ => die("--limit must be a positive fraction like 0.03"),
            },
            "--iters" => match value("--iters").parse() {
                Ok(v) if v > 0 => iters = v,
                _ => die("--iters must be a positive integer"),
            },
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let p50_us = match p50_from_bench(&bench_path, &mode) {
        Ok(v) => v,
        Err(e) => die(&e),
    };

    let enabled = measure(&Registry::new(), iters);
    let disabled = measure(&Registry::disabled(), iters);
    let sampler_off = measure_sampler_off(iters);
    let overhead_us = ((enabled - disabled).max(0.0) + sampler_off) / 1000.0;
    let budget_us = limit * p50_us;

    println!("obs-overhead: bundle enabled {enabled:.1} ns, disabled {disabled:.1} ns");
    println!("obs-overhead: trace sampler (sampling off) {sampler_off:.1} ns/request");
    println!(
        "obs-overhead: {overhead_us:.3} us/request vs {budget_us:.3} us budget \
         ({:.1}% of {mode} p50 {p50_us:.1} us, limit {:.1}%)",
        100.0 * overhead_us / p50_us,
        100.0 * limit,
    );
    if overhead_us > budget_us {
        eprintln!(
            "obs-overhead: FAIL — instrumentation costs {overhead_us:.3} us/request, \
             over the {budget_us:.3} us budget"
        );
        std::process::exit(2);
    }
    println!("obs-overhead: OK");
}

fn die(msg: &str) -> ! {
    eprintln!(
        "exp_obs_overhead: {msg}\n\
         usage: exp_obs_overhead [--bench PATH] [--mode NAME] [--limit FRAC] [--iters N]"
    );
    std::process::exit(1);
}
