//! The four workloads. Three drive a `simstar serve` process over TCP;
//! `allpairs_topk` runs the paper's all-pairs ranking in-process.

use crate::layers;
use crate::load::{
    closed_loop, open_loop, same_matches, Admin, Checker, Matches, NodeStream, PhaseOut, Write,
};
use crate::server::{Conn, ServerProc};
use crate::trace::Spans;
use crate::util::{
    cpu_seconds, distinct_sample, mean, median, peak_rss_mib, percentile, steal_seconds,
    stratified_pool, Rng, Zipf,
};
use simrank_star::{
    AllPairsEngine, AllPairsOptions, QueryEngine, QueryEngineOptions, SimStarParams,
};
use ssr_graph::{DiGraph, NodeId};
use ssr_serve::{EpochStore, Request, Response, StatsReply, WireFormat};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Top-k every request asks for.
pub const TOP_K: usize = 10;
/// The server's default SimRank* parameters (c = 0.6, k = 5).
pub const PARAMS: SimStarParams = SimStarParams { c: 0.6, iterations: 5 };
/// Distinct answers the oracle recomputes per run (all, when fewer).
const ORACLE_SAMPLE: usize = 1000;
/// Closed-loop saturation depth.
const SATURATION_DEPTH: usize = 64;
/// A run whose generator's p99 lag exceeds this is invalid. The host of a
/// shared virtual machine takes its CPUs away for tens of milliseconds at
/// a time, which delays sends without the generator falling behind.
pub const LAG_LIMIT_MS: f64 = 100.0;
/// Edges added and removed by one `edge-delta` write.
const DELTA_EDGES: usize = 64;

/// Everything a workload needs, made from the seed before it starts.
pub struct Ctx {
    pub seconds: f64,
    pub nproc: usize,
    pub simstar: PathBuf,
    pub work: PathBuf,
    pub graph_path: PathBuf,
    pub reload_path: PathBuf,
    pub graph: DiGraph,
    pub reload_graph: DiGraph,
    pub spans: Spans,
    pub rng: Rng,
}

/// A workload's results: metrics by name, request counts, and verdict.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub lines: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push((name, value, unit));
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push((name, value, unit));
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn fail(&mut self, what: String) {
        self.errors.push(what);
    }
}

/// How one server workload loads the server.
struct ServerSpec {
    format: WireFormat,
    light_rate: f64,
    /// Heavy rate as a share of the saturation rate measured just before.
    heavy_share: f64,
    /// Nodes put in the result cache before the measured phases.
    warm: Vec<NodeId>,
    stream: NodeStream,
    /// Writes every second through the measured phases (`churn`).
    churn: bool,
}

/// Measurement rounds per run. The machine's speed drifts over seconds,
/// so set-ups and writes, which take milliseconds, follow each of several
/// rounds to sample the whole run.
const ROUNDS: usize = 8;
/// Share of each round given to the light, heavy and saturation segments.
const PHASE_SHARE: [f64; 3] = [0.25, 0.45, 0.3];
/// Set-ups after each round, besides the one whose server the rounds
/// load; `setup_s` is the median of all their CPU times.
const SETUPS_PER_ROUND: usize = 2;
/// Writes made one at a time on the idle server after each round, whose
/// CPU cost is `write_cpu_ms` (half `edge-delta`, half `reload`).
const WRITES_PER_ROUND: usize = 4;
/// Spacing of those writes.
const IDLE_WRITE_GAP: Duration = Duration::from_millis(50);

pub fn cold_misses(ctx: &mut Ctx) -> Result<Report, String> {
    let pool = stratified_pool(&ctx.graph, &mut ctx.rng);
    let spec = ServerSpec {
        format: WireFormat::Jsonl,
        light_rate: 40.0,
        heavy_share: 0.2,
        warm: Vec::new(),
        stream: NodeStream::Cycle { pool, pos: 0 },
        churn: false,
    };
    serve_workload(ctx, spec)
}

pub fn hot_hits(ctx: &mut Ctx) -> Result<Report, String> {
    let hot = distinct_sample(ctx.graph.node_count(), 1024, &mut ctx.rng);
    let spec = ServerSpec {
        format: WireFormat::Ssb,
        light_rate: 2000.0,
        heavy_share: 0.05,
        warm: hot.clone(),
        stream: NodeStream::Zipf { zipf: Zipf::new(hot), rng: Rng::new(ctx.rng.next_u64()) },
        churn: false,
    };
    serve_workload(ctx, spec)
}

pub fn churn(ctx: &mut Ctx) -> Result<Report, String> {
    let reads = distinct_sample(ctx.graph.node_count(), 8192, &mut ctx.rng);
    let spec = ServerSpec {
        format: WireFormat::Jsonl,
        light_rate: 40.0,
        heavy_share: 0.2,
        warm: Vec::new(),
        stream: NodeStream::Uniform { nodes: reads, rng: Rng::new(ctx.rng.next_u64()) },
        churn: true,
    };
    serve_workload(ctx, spec)
}

/// The deterministic engine the server runs, built in-process.
fn oracle_engine(g: &DiGraph) -> QueryEngine {
    QueryEngine::with_options(
        g,
        PARAMS,
        QueryEngineOptions { deterministic: true, ..Default::default() },
    )
}

/// Seeded writes: `edge-delta` (64 adds of absent edges, 64 removes of
/// present ones) alternating with a `reload` of the second graph (`churn`)
/// or of the seed graph itself (the read-only workloads, so every round
/// reads the graph the query pool was drawn from). The plan tracks the
/// edge set each write leaves behind, so every delta is valid against the
/// graph it lands on.
fn write_plan(ctx: &mut Ctx, count: usize, reload_second: bool) -> Vec<Write> {
    let n = ctx.graph.node_count() as NodeId;
    let (target, path) = if reload_second {
        (&ctx.reload_graph, &ctx.reload_path)
    } else {
        (&ctx.graph, &ctx.graph_path)
    };
    let reload_edges: Vec<(NodeId, NodeId)> = target.edges().collect();
    let mut edges: Vec<(NodeId, NodeId)> = ctx.graph.edges().collect();
    let mut present: HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
    let rng = &mut ctx.rng;
    (0..count)
        .map(|i| {
            if i % 2 == 1 {
                edges = reload_edges.clone();
                present = edges.iter().copied().collect();
                return Write::Reload { path: path.display().to_string() };
            }
            let mut remove = Vec::with_capacity(DELTA_EDGES);
            for _ in 0..DELTA_EDGES {
                let e = edges.swap_remove(rng.below(edges.len()));
                present.remove(&e);
                remove.push(e);
            }
            let mut add = Vec::with_capacity(DELTA_EDGES);
            while add.len() < DELTA_EDGES {
                let e = (rng.below(n as usize) as NodeId, rng.below(n as usize) as NodeId);
                if e.0 != e.1 && !remove.contains(&e) && present.insert(e) {
                    edges.push(e);
                    add.push(e);
                }
            }
            Write::Delta { add, remove }
        })
        .collect()
}

/// Spawns the server and measures spawn → first correct reply: returns
/// the server, the wall-clock seconds, and the server's CPU seconds.
fn start_server(
    ctx: &Ctx,
    probe: NodeId,
    expected: &[(NodeId, f64)],
) -> Result<(ServerProc, f64, f64), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(&ctx.simstar, &ctx.graph_path, &ctx.work.join("announce"))?;
    let mut conn = Conn::connect(server.addr, WireFormat::Jsonl)?;
    match conn.call(&Request::Query { node: probe, k: TOP_K })? {
        Response::Query(r) if r.epoch == 0 && same_matches(&r.matches, expected) => {}
        other => return Err(format!("first reply for node {probe} is wrong: {other:?}")),
    }
    let wall = t.elapsed().as_secs_f64();
    let cpu = server.cpu_seconds()?;
    Ok((server, wall, cpu))
}

/// CPU seconds used and requests answered, summed over one phase's
/// segments.
#[derive(Default, Clone, Copy)]
struct CpuUse {
    seconds: f64,
    answered: u64,
}

impl CpuUse {
    fn add(&mut self, seconds: f64, answered: u64) {
        self.seconds += seconds;
        self.answered += answered;
    }

    fn us_per_request(&self) -> f64 {
        1e6 * self.seconds / self.answered.max(1) as f64
    }
}

/// Runs one load segment and charges the server's CPU time over it to `acc`.
fn metered(
    server: &ServerProc,
    acc: &mut CpuUse,
    segment: impl FnOnce() -> Result<PhaseOut, String>,
) -> Result<PhaseOut, String> {
    let before = server.cpu_seconds()?;
    let out = segment()?;
    acc.add(server.cpu_seconds()? - before, out.ok);
    Ok(out)
}

/// Server counters summed over the heavy segments (`stats` op diffs).
#[derive(Default)]
struct Counters {
    requests: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    flushes: u64,
    flushed_jobs: u64,
    unique_lanes: u64,
    submitted: u64,
    shed: u64,
}

impl Counters {
    fn add(&mut self, a: &StatsReply, b: &StatsReply) {
        self.requests += b.requests - a.requests;
        self.hits += b.cache.hits - a.cache.hits;
        self.misses += b.cache.misses - a.cache.misses;
        self.evictions += b.cache.evictions - a.cache.evictions;
        self.flushes += b.batcher.flushes - a.batcher.flushes;
        self.flushed_jobs += b.batcher.flushed_jobs - a.batcher.flushed_jobs;
        self.unique_lanes += b.batcher.unique_lanes - a.batcher.unique_lanes;
        self.submitted += b.batcher.submitted - a.batcher.submitted;
        self.shed += b.batcher.shed - a.batcher.shed;
    }

    fn mean_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flushed_jobs as f64 / self.flushes as f64
        }
    }

    fn line(&self, name: &str) -> String {
        format!(
            "# stats {name}: requests={} cache_hits={} cache_misses={} evictions={} flushes={} \
             mean_flush={:.2} shed={}",
            self.requests,
            self.hits,
            self.misses,
            self.evictions,
            self.flushes,
            self.mean_flush(),
            self.shed
        )
    }
}

/// What the per-layer metrics need from the heavy segments.
struct HeavyRun<'a> {
    /// The first round's heavy segment (schedule, frames, replies).
    first: &'a PhaseOut,
    /// The client's heavy p50 over every round, in ms.
    p50_ms: f64,
    counts: &'a Counters,
}

/// The client's wall-clock view of a run. On a shared machine these move
/// with the CPU time the hypervisor takes, so they are printed with every
/// run and reported by the traced run, but carry no bound.
struct ClientView {
    setup_s: f64,
    sat_qps: f64,
    light_p50_ms: f64,
    heavy_p50_ms: f64,
    heavy_p99_ms: f64,
    write_p50_ms: f64,
    steal_pct: f64,
    /// Heavy-phase samples behind the two heavy percentiles.
    heavy_samples: usize,
}

impl ClientView {
    fn note(&self, report: &mut Report) {
        report.note(format!(
            "# client (wall clock): setup {:.4}s, saturation {:.1}/s, light p50 {:.3}ms, heavy p50 \
             {:.3}ms, heavy p99 {:.3}ms over {} samples, write p50 {:.1}ms; steal {:.1}% of the \
             machine's CPU time",
            self.setup_s,
            self.sat_qps,
            self.light_p50_ms,
            self.heavy_p50_ms,
            self.heavy_p99_ms,
            self.heavy_samples,
            self.write_p50_ms,
            self.steal_pct
        ));
    }

    fn layers(&self, report: &mut Report) {
        report.layer("client.setup_s", self.setup_s, "s");
        report.layer("client.sat_qps", self.sat_qps, "1/s");
        report.layer("client.light_p50_ms", self.light_p50_ms, "ms");
        report.layer("client.heavy_p50_ms", self.heavy_p50_ms, "ms");
        report.layer("client.heavy_p99_ms", self.heavy_p99_ms, "ms");
        report.layer("client.write_p50_ms", self.write_p50_ms, "ms");
        report.layer("loadgen.steal_pct", self.steal_pct, "%");
    }
}

/// Share of the machine's CPU time taken by the hypervisor since `steal0`
/// (read `wall` seconds ago), in percent.
fn steal_pct(steal0: f64, wall: f64, nproc: usize) -> f64 {
    100.0 * (steal_seconds() - steal0) / (wall * nproc as f64)
}

/// Every sample of every segment, pooled.
fn pooled(segments: &[PhaseOut], f: impl Fn(&PhaseOut) -> &[f64]) -> Vec<f64> {
    segments.iter().flat_map(|p| f(p).iter().copied()).collect()
}

fn phase_line(name: &str, rate: Option<f64>, depth: Option<usize>, p: &PhaseOut) -> String {
    let load = match (rate, depth) {
        (Some(r), _) => format!("open loop {r}/s"),
        (_, Some(d)) => format!("closed loop {d} in flight"),
        _ => String::new(),
    };
    format!(
        "# phase {name}: {load}, attempted={} ok={} failed={} ok/s={:.1} p50={:.3}ms p99={:.3}ms \
         lag_p99={:.3}ms samples={}",
        p.attempted,
        p.ok,
        p.failed(),
        p.ok_per_s,
        percentile(&p.lat_ms, 0.5),
        percentile(&p.lat_ms, 0.99),
        percentile(&p.lag_ms, 0.99),
        p.lat_ms.len(),
    )
}

/// Asks for every `pool` node once, 64 in flight (untimed).
fn warm_up(
    conn: &mut Conn,
    pool: &[NodeId],
    checker: &mut Checker,
    quiet: &mut Spans,
) -> Result<(), String> {
    for burst in pool.chunks(SATURATION_DEPTH) {
        let mut once = NodeStream::Cycle { pool: burst.to_vec(), pos: 0 };
        closed_loop(conn, &mut once, burst.len(), Duration::ZERO, TOP_K, None, checker, quiet)?;
    }
    Ok(())
}

/// The CPU cost of one write: the mean of the mean `edge-delta` and the
/// mean `reload`, so the mix of kinds in the sample cannot move it. Means,
/// like the phases' pooled costs: a median of writes that cluster by round
/// jumps with the machine's speed in a few rounds.
fn write_cost_ms(writes: &[(bool, f64)]) -> f64 {
    let of_kind = |delta: bool| {
        mean(&writes.iter().filter(|w| w.0 == delta).map(|w| w.1).collect::<Vec<_>>())
    };
    (of_kind(true) + of_kind(false)) / 2.0
}

/// Makes the next `count` planned writes on the idle server, `IDLE_WRITE_GAP`
/// apart, one at a time; returns (is it a delta, the server's CPU
/// milliseconds) per write.
fn idle_writes(
    server: &ServerProc,
    admin: &mut Admin,
    count: usize,
) -> Result<Vec<(bool, f64)>, String> {
    admin.settle()?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        std::thread::sleep(IDLE_WRITE_GAP);
        let before = server.cpu_seconds()?;
        let delta = admin.write_now()?;
        out.push((delta, (server.cpu_seconds()? - before) * 1e3));
    }
    Ok(out)
}

fn serve_workload(ctx: &mut Ctx, mut spec: ServerSpec) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = ctx.spans.enabled();
    let engine = oracle_engine(&ctx.graph);
    let probe = spec.stream.next();
    let expected = engine.top_k_batch(&[probe], TOP_K).remove(0);
    let churn = spec.churn;
    let under_load = if churn { 2 * ctx.seconds.ceil() as usize + 4 } else { 0 };
    let writes = write_plan(ctx, under_load + ROUNDS * WRITES_PER_ROUND, churn);

    // Set-up: spawn → first correct reply. More set-ups follow each round.
    let (server, wall, cpu) = start_server(ctx, probe, &expected)?;
    let (mut setup_wall, mut setup_cpu) = (vec![wall], vec![cpu]);

    let mut conn = Conn::connect(server.addr, spec.format)?;
    let mut admin = Admin::new(
        Conn::connect(server.addr, WireFormat::Jsonl)?,
        writes.clone(),
        Duration::from_secs(1),
        ctx.spans.fork(),
    )?;
    let mut checker = Checker::default();
    let mut quiet = Spans::new(false, Instant::now());

    // Warm-up (untimed): fill the cache with the hot set, or run a few
    // misses so lazy engine state is built before the measured window.
    let warm_pool = if spec.warm.is_empty() {
        (0..64).map(|_| spec.stream.next()).collect()
    } else {
        spec.warm.clone()
    };
    warm_up(&mut conn, &warm_pool, &mut checker, &mut quiet)?;

    // Rounds of saturation → light → heavy, then set-ups and writes on the
    // idle server. Each phase's numbers pool its segments from every round,
    // so a slow spell of the machine is spread over all phases alike.
    let round = ctx.seconds / ROUNDS as f64;
    let [light_s, heavy_s, sat_s] = PHASE_SHARE.map(|f| Duration::from_secs_f64(f * round));
    let mut phase_rng = Rng::new(ctx.rng.next_u64());
    let (mut light, mut heavy, mut sat, mut sat_untraced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut light_cpu, mut heavy_cpu, mut sat_cpu) =
        (CpuUse::default(), CpuUse::default(), CpuUse::default());
    let mut heavy_counts = Counters::default();
    let (steal0, rounds_start) = (steal_seconds(), Instant::now());
    if churn {
        admin.restart(Duration::from_secs(1));
    }
    let mut heavy_rates = Vec::new();
    let mut write_cpu = Vec::new();
    for _ in 0..ROUNDS {
        // The traced run measures saturation twice, untraced then traced,
        // and reports the difference as the tracing overhead.
        let sat_len = if traced { sat_s / 2 } else { sat_s };
        if traced {
            let a = churn.then_some(&mut admin);
            sat_untraced.push(metered(&server, &mut sat_cpu, || {
                closed_loop(
                    &mut conn,
                    &mut spec.stream,
                    SATURATION_DEPTH,
                    sat_len,
                    TOP_K,
                    a,
                    &mut checker,
                    &mut quiet,
                )
            })?);
        }
        let a = churn.then_some(&mut admin);
        let s = metered(&server, &mut sat_cpu, || {
            closed_loop(
                &mut conn,
                &mut spec.stream,
                SATURATION_DEPTH,
                sat_len,
                TOP_K,
                a,
                &mut checker,
                &mut ctx.spans,
            )
        })?;
        let heavy_rate = spec.heavy_share * s.ok_per_s;
        sat.push(s);
        let a = churn.then_some(&mut admin);
        light.push(metered(&server, &mut light_cpu, || {
            open_loop(
                &mut conn,
                &mut spec.stream,
                spec.light_rate,
                light_s,
                TOP_K,
                &mut phase_rng,
                a,
                &mut checker,
                &mut ctx.spans,
            )
        })?);
        admin.settle()?;
        let before = admin.conn.stats()?;
        let a = churn.then_some(&mut admin);
        heavy.push(metered(&server, &mut heavy_cpu, || {
            open_loop(
                &mut conn,
                &mut spec.stream,
                heavy_rate,
                heavy_s,
                TOP_K,
                &mut phase_rng,
                a,
                &mut checker,
                &mut ctx.spans,
            )
        })?);
        heavy_rates.push(heavy_rate);
        admin.settle()?;
        heavy_counts.add(&before, &admin.conn.stats()?);

        // On the idle server: more set-ups, then writes (for churn these
        // continue the plan it writes under load, once a second).
        for _ in 0..SETUPS_PER_ROUND {
            let (extra, wall, cpu) = start_server(ctx, probe, &expected)?;
            extra.shutdown()?;
            setup_wall.push(wall);
            setup_cpu.push(cpu);
        }
        write_cpu.extend(idle_writes(&server, &mut admin, WRITES_PER_ROUND)?);
        if churn {
            admin.restart(Duration::from_secs(1));
        }
        // A write strands the cache, so the hot set is warmed again (untimed).
        if !spec.warm.is_empty() {
            warm_up(&mut conn, &spec.warm, &mut checker, &mut quiet)?;
        }
    }
    let steal = steal_pct(steal0, rounds_start.elapsed().as_secs_f64(), ctx.nproc);
    let under_load_writes = admin.write_ms.len() - write_cpu.len();
    let rss = server.peak_rss_mib()?;
    let (user_s, system_s) = server.user_system_seconds()?;
    report
        .note(format!("# server CPU over the whole run: user {user_s:.2}s, system {system_s:.2}s"));
    let issued: Vec<Write> = admin.issued().to_vec();
    let write_ms = admin.write_ms.clone();
    ctx.spans.absorb(admin.into_spans());
    drop(conn);
    server.shutdown()?;

    for (r, p) in sat.iter().enumerate() {
        report.note(phase_line(&format!("saturation[{r}]"), None, Some(SATURATION_DEPTH), p));
    }
    for (r, p) in light.iter().enumerate() {
        report.note(phase_line(&format!("light[{r}]"), Some(spec.light_rate), None, p));
    }
    for (r, p) in heavy.iter().enumerate() {
        let rate = (heavy_rates[r] * 10.0).round() / 10.0;
        report.note(phase_line(&format!("heavy[{r}]"), Some(rate), None, p));
    }
    for p in light.iter().chain(&heavy).chain(&sat).chain(&sat_untraced) {
        report.attempted += p.attempted;
        report.failed += p.failed();
    }
    report.note(heavy_counts.line("heavy"));
    report.note(format!(
        "# server CPU per request (us): saturation {:.1} over {}, light {:.1} over {}, heavy {:.1} over {}",
        sat_cpu.us_per_request(),
        sat_cpu.answered,
        light_cpu.us_per_request(),
        light_cpu.answered,
        heavy_cpu.us_per_request(),
        heavy_cpu.answered,
    ));
    report.note(format!(
        "# writes: {under_load_writes} under load (every 1 s), {} on the idle server ({} after each \
         round, {} ms apart): server CPU mean {:.2}ms p50 {:.2}ms; all {} acknowledged, wall p50 \
         {:.1}ms",
        write_cpu.len(),
        WRITES_PER_ROUND,
        IDLE_WRITE_GAP.as_millis(),
        mean(&write_cpu.iter().map(|w| w.1).collect::<Vec<_>>()),
        median(&write_cpu.iter().map(|w| w.1).collect::<Vec<_>>()),
        write_ms.len(),
        median(&write_ms)
    ));
    report.attempted += write_ms.len() as u64;
    let lags: Vec<f64> =
        light.iter().chain(&heavy).flat_map(|p| p.lag_ms.iter().copied()).collect();
    let lag_p99 = percentile(&lags, 0.99);
    if lag_p99 > LAG_LIMIT_MS {
        report.fail(format!("generator fell behind: lag p99 {lag_p99:.2} ms > {LAG_LIMIT_MS} ms"));
    }
    let failed_pct = 100.0 * report.failed as f64 / report.attempted.max(1) as f64;
    let heavy_lat = pooled(&heavy, |p| &p.lat_ms);
    let client = ClientView {
        setup_s: median(&setup_wall),
        sat_qps: mean(&sat.iter().map(|p| p.ok_per_s).collect::<Vec<_>>()),
        light_p50_ms: percentile(&pooled(&light, |p| &p.lat_ms), 0.5),
        heavy_p50_ms: percentile(&heavy_lat, 0.5),
        heavy_p99_ms: percentile(&heavy_lat, 0.99),
        write_p50_ms: median(&write_ms),
        steal_pct: steal,
        heavy_samples: heavy_lat.len(),
    };
    client.note(&mut report);

    report.e2e("setup_s", median(&setup_cpu), "s");
    report.e2e("sat_cpu_us_per_req", sat_cpu.us_per_request(), "us");
    report.e2e("light_cpu_us_per_req", light_cpu.us_per_request(), "us");
    report.e2e("heavy_cpu_us_per_req", heavy_cpu.us_per_request(), "us");
    report.e2e("write_cpu_ms", write_cost_ms(&write_cpu), "ms");
    report.e2e("peak_rss_mib", rss, "MiB");

    verify_served(ctx, &engine, &checker, &issued, &mut report)?;

    if traced {
        let qps = |v: &[PhaseOut]| mean(&v.iter().map(|p| p.ok_per_s).collect::<Vec<_>>());
        let (untraced, traced_qps) = (qps(&sat_untraced), qps(&sat));
        let ctx_heavy =
            HeavyRun { first: &heavy[0], p50_ms: client.heavy_p50_ms, counts: &heavy_counts };
        layer_metrics(ctx, &mut report, &engine, &spec, &ctx_heavy, &writes, failed_pct)?;
        client.layers(&mut report);
        report.layer("loadgen.lag_p99_ms", lag_p99, "ms");
        report.layer("trace.overhead_pct", 100.0 * (untraced - traced_qps) / untraced, "%");
    }
    Ok(report)
}

/// Recomputes a seeded sample of the distinct `(epoch, node)` answers with
/// an in-process deterministic engine, replaying the acknowledged writes
/// through an in-process `EpochStore` to rebuild each epoch.
fn verify_served(
    ctx: &mut Ctx,
    epoch0: &QueryEngine,
    checker: &Checker,
    writes: &[Write],
    report: &mut Report,
) -> Result<(), String> {
    if checker.failures() > 0 {
        report.fail(format!(
            "{} inconsistent, {} stale, {} wrong-node replies",
            checker.inconsistent, checker.stale, checker.wrong_node
        ));
    }
    let mut keys: Vec<(u64, NodeId)> = checker.seen.keys().copied().collect();
    keys.sort_unstable();
    ctx.rng.shuffle(&mut keys);
    keys.truncate(ORACLE_SAMPLE);
    let mut by_epoch: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    for (e, v) in keys.iter().copied() {
        by_epoch.entry(e).or_default().push(v);
    }
    let mut checked = 0;
    let mut wrong = 0;
    let mut compare = |engine: &QueryEngine, epoch: u64, nodes: &[NodeId]| {
        let answers = engine.top_k_batch(nodes, TOP_K);
        for (v, a) in nodes.iter().zip(answers) {
            checked += 1;
            if !same_matches(&checker.seen[&(epoch, *v)], &a) {
                wrong += 1;
            }
        }
    };
    if let Some(nodes) = by_epoch.get(&0) {
        compare(epoch0, 0, nodes);
    }
    if by_epoch.keys().any(|&e| e > 0) {
        let store = EpochStore::new(ctx.graph.clone(), PARAMS, QueryEngineOptions::default());
        for (i, w) in writes.iter().enumerate() {
            let snapshot = match w {
                Write::Delta { add, remove } => store.apply_delta(add, remove)?.0,
                Write::Reload { path } if *path == ctx.reload_path.display().to_string() => {
                    store.publish(ctx.reload_graph.clone())
                }
                Write::Reload { .. } => store.publish(ctx.graph.clone()),
            };
            if snapshot.epoch != i as u64 + 1 {
                return Err(format!("replayed write {i} made epoch {}", snapshot.epoch));
            }
            if let Some(nodes) = by_epoch.get(&snapshot.epoch) {
                compare(snapshot.engine(), snapshot.epoch, nodes);
            }
        }
        if let Some(&e) = by_epoch.keys().find(|&&e| e > writes.len() as u64) {
            report
                .fail(format!("answer from epoch {e}, but only {} writes were made", writes.len()));
        }
    }
    report.note(format!(
        "# oracle: {checked} of {} distinct (epoch, node) answers recomputed in-process, {wrong} differ",
        checker.seen.len()
    ));
    if wrong > 0 {
        report.fail(format!("{wrong} answers differ from the in-process engine"));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &mut Ctx,
    report: &mut Report,
    engine: &QueryEngine,
    spec: &ServerSpec,
    heavy_run: &HeavyRun,
    writes: &[Write],
    failed_pct: f64,
) -> Result<(), String> {
    let (heavy, n) = (heavy_run.first, heavy_run.counts);
    let spans = &mut ctx.spans;
    let nodes: Vec<NodeId> = heavy.schedule.iter().map(|s| s.1).collect();
    let json = layers::codec(WireFormat::Jsonl, &nodes, &heavy.replies, TOP_K, spans)?;
    let ssb = layers::codec(WireFormat::Ssb, &nodes, &heavy.replies, TOP_K, spans)?;
    let lookup_ns = layers::cache_lookup_ns(&spec.warm, &nodes, TOP_K, spans);
    let hit_lookup_ns = layers::cache_hit_lookup_ns(&nodes, TOP_K, spans);
    let warm: Vec<(NodeId, Matches)> = if spec.warm.is_empty() {
        Vec::new()
    } else {
        let answers = engine.top_k_batch(&spec.warm, TOP_K);
        spec.warm.iter().copied().zip(answers.into_iter().map(Matches::new)).collect()
    };
    let cut = heavy.schedule.partition_point(|s| s.0 < 2.0);
    let replay =
        layers::batcher_replay(&ctx.graph, PARAMS, &warm, &heavy.schedule[..cut], TOP_K, spans)?;
    let (qw50, qw99) = layers::queue_wait_us(&replay);
    let replay_total: Vec<f64> = replay.records.iter().map(|r| r.total_us).collect();
    let client_p50_us = heavy_run.p50_ms * 1e3;
    let residual = client_p50_us - percentile(&replay_total, 0.5);
    let lookups = (n.hits + n.misses).max(1);
    let mean_flush = n.mean_flush();
    let e = layers::engine(engine, &nodes, mean_flush, TOP_K, spans);
    let (delta_ms, publish_ms) =
        layers::epoch(&ctx.graph, PARAMS, writes, &ctx.reload_graph, spans)?;
    let load_ms = layers::store_load_ms(&ctx.graph_path, spans)?;
    let ap = layers::all_pairs(
        &ctx.graph,
        PARAMS,
        &nodes[..nodes.len().min(128)],
        TOP_K,
        ctx.nproc,
        spans,
    );

    push_codecs(report, &json, &ssb);
    report.layer("runtime.residual_p50_us", residual, "us");
    report.layer("cache.hit_ratio", n.hits as f64 / lookups as f64, "ratio");
    report.layer("cache.lookup_ns", lookup_ns, "ns");
    report.layer("cache.hit_lookup_ns", hit_lookup_ns, "ns");
    report.layer("cache.evictions_per_1k", n.evictions as f64 * 1000.0 / lookups as f64, "count");
    report.layer("batch.mean_flush", mean_flush, "jobs");
    let dedup =
        if n.flushed_jobs == 0 { 0.0 } else { 1.0 - n.unique_lanes as f64 / n.flushed_jobs as f64 };
    report.layer("batch.dedup_ratio", dedup, "ratio");
    report.layer("batch.queue_wait_p50_us", qw50, "us");
    report.layer("batch.queue_wait_p99_us", qw99, "us");
    report.layer(
        "batch.shed_pct",
        100.0 * n.shed as f64 / (n.submitted + n.shed).max(1) as f64,
        "%",
    );
    push_engine(report, &e);
    report.layer("epoch.delta_ms", delta_ms, "ms");
    report.layer("epoch.publish_ms", publish_ms, "ms");
    report.layer("store.load_ms", load_ms, "ms");
    push_all_pairs(report, &ap);
    report.layer("failed_pct", failed_pct, "%");
    let served = if spec.format == WireFormat::Ssb { &ssb } else { &json };
    accounting(report, client_p50_us, served, lookup_ns, &replay);
    Ok(())
}

fn push_codecs(report: &mut Report, json: &layers::CodecProbe, ssb: &layers::CodecProbe) {
    report.layer("codec.json.decode_req_ns", json.decode_req_ns, "ns");
    report.layer("codec.json.encode_reply_ns", json.encode_reply_ns, "ns");
    report.layer("codec.json.reply_bytes", json.reply_bytes, "bytes");
    report.layer("codec.ssb.decode_req_ns", ssb.decode_req_ns, "ns");
    report.layer("codec.ssb.encode_reply_ns", ssb.encode_reply_ns, "ns");
    report.layer("codec.ssb.reply_bytes", ssb.reply_bytes, "bytes");
}

fn push_engine(report: &mut Report, e: &layers::EngineProbe) {
    report.layer("engine.solo_ms", e.solo_ms, "ms");
    report.layer("engine.lane16_ms_per_query", e.lane16_ms_per_query, "ms");
    report.layer("engine.at_flush_ms_per_query", e.at_flush_ms_per_query, "ms");
    report.layer("engine.lane_occupancy", e.lane_occupancy, "ratio");
    report.layer("engine.frontier_density", e.frontier_density, "ratio");
    report.layer("engine.dense_step_share", e.dense_step_share, "ratio");
    report.layer("engine.resident_mib", e.resident_mib, "MiB");
}

fn push_all_pairs(report: &mut Report, ap: &layers::AllPairsProbe) {
    report.layer("allpairs.build_ms", ap.build_ms, "ms");
    report.layer("allpairs.rows_per_s_1t", ap.rows_per_s_1t, "1/s");
    report.layer("allpairs.rows_per_s_nt", ap.rows_per_s_nt, "1/s");
    report.layer("allpairs.parallel_efficiency", ap.parallel_efficiency, "ratio");
}

/// Latency accounting: the heavy-phase p50 split into codec + cache +
/// queue + engine + runtime residual, and the five slowest replayed
/// requests with their splits.
fn accounting(
    report: &mut Report,
    client_p50_us: f64,
    c: &layers::CodecProbe,
    lookup_ns: f64,
    replay: &layers::Replay,
) {
    let queued: Vec<&layers::ReplayRecord> = replay.records.iter().filter(|r| r.queued).collect();
    let p50 = |f: &dyn Fn(&layers::ReplayRecord) -> f64| {
        if queued.is_empty() {
            0.0
        } else {
            percentile(&queued.iter().map(|r| f(r)).collect::<Vec<_>>(), 0.5)
        }
    };
    let total: Vec<f64> = replay.records.iter().map(|r| r.total_us).collect();
    let codec_us = (c.decode_req_ns + c.encode_reply_ns) / 1e3;
    let cache_us = lookup_ns / 1e3;
    let queue_us = p50(&|r| r.queue_us);
    let engine_us = p50(&|r| r.engine_us);
    let residual = client_p50_us - percentile(&total, 0.5);
    report.note(format!(
        "# heavy p50 split (us): codec {codec_us:.2} + cache {cache_us:.2} + queue {queue_us:.1} + engine \
         {engine_us:.1} + runtime residual {residual:.1} = {:.1}; client p50 {client_p50_us:.1}",
        codec_us + cache_us + queue_us + engine_us + residual
    ));
    let mut slow: Vec<&layers::ReplayRecord> = replay.records.iter().collect();
    slow.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    for r in slow.iter().take(5) {
        let mut line = String::new();
        let _ = write!(
            line,
            "# slow replay: node={} total={:.1}us cache={:.1}us queue={:.1}us engine={:.1}us other={:.1}us",
            r.node,
            r.total_us,
            r.cache_us,
            r.queue_us,
            r.engine_us,
            r.total_us - r.cache_us - r.queue_us - r.engine_us
        );
        report.note(line);
    }
}

/// Rows per all-pairs dispatch block (the engine's lane width).
const BLOCK: usize = 16;
/// Rows in the seeded all-pairs subset.
const ALLPAIRS_ROWS: usize = 2048;
/// Rows per `top_k` call in the saturation phase.
const SATURATION_ROWS: usize = 256;
/// Rounds of an `allpairs_topk` run. The machine's speed drifts over
/// seconds, and a set-up or a delta absorb takes milliseconds, so they
/// follow each of many short rounds and sample the whole run, as the
/// phases' pooled CPU costs do.
const ALLPAIRS_ROUNDS: usize = 32;
/// Set-ups after each `allpairs_topk` round.
const ALLPAIRS_SETUPS_PER_ROUND: usize = 1;
/// Delta absorbs after each `allpairs_topk` round.
const ALLPAIRS_WRITES_PER_ROUND: usize = 3;

type Ranked = Vec<Vec<(NodeId, f64)>>;

pub fn allpairs_topk(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let traced = ctx.spans.enabled();
    let opts = AllPairsOptions { threads: ctx.nproc, ..AllPairsOptions::default() };
    // This process's CPU clock: the engine runs in-process.
    let cpu = || cpu_seconds(0);

    // Set-up: load the store and build the engine. More set-ups follow
    // each round.
    let (mut setup_wall, mut setup_cpu) = (Vec::new(), Vec::new());
    let graph_path = ctx.graph_path.clone();
    let mut set_up = |spans: &mut Spans| -> Result<AllPairsEngine, String> {
        let (t, c) = (Instant::now(), cpu()?);
        let g = ssr_store::load_graph_auto(&graph_path).map_err(|e| e.to_string())?;
        let e = AllPairsEngine::with_options(&g, PARAMS, opts.clone());
        setup_cpu.push(cpu()? - c);
        setup_wall.push(t.elapsed().as_secs_f64());
        spans.record("setup", setup_cpu.len() as u64, None, t, Instant::now());
        Ok(e)
    };
    let engine = set_up(&mut ctx.spans)?;

    let mut rows: Vec<NodeId> = stratified_pool(&ctx.graph, &mut ctx.rng);
    rows.truncate(ALLPAIRS_ROWS);
    rows.sort_unstable();
    let blocks: Vec<&[NodeId]> = rows.chunks(BLOCK).collect();
    let results: Mutex<BTreeMap<usize, Ranked>> = Mutex::new(BTreeMap::new());
    let inconsistent = AtomicUsize::new(0);
    let keep = |b: usize, ranked: Ranked| {
        let mut map = results.lock().expect("results poisoned");
        match map.get(&b) {
            Some(first) if first.iter().zip(&ranked).any(|(x, y)| !same_matches(x, y)) => {
                inconsistent.fetch_add(1, Ordering::Relaxed);
            }
            Some(_) => {}
            None => {
                map.insert(b, ranked);
            }
        }
    };
    let round = ctx.seconds / ALLPAIRS_ROUNDS as f64;
    let [light_s, heavy_s, sat_s] = PHASE_SHARE.map(|f| Duration::from_secs_f64(f * round));
    let next = AtomicUsize::new(ctx.rng.below(blocks.len()));
    let chunks: Vec<(usize, &[NodeId])> = rows
        .chunks(SATURATION_ROWS)
        .enumerate()
        .map(|(i, c)| (i * SATURATION_ROWS / BLOCK, c))
        .collect();
    let mut next_chunk = 0;
    // Writes: absorb a 64+64 edge delta into the seed graph by rebuilding
    // the engine (the plan reloads the seed graph between deltas).
    let plan = write_plan(ctx, 2 * ALLPAIRS_ROUNDS * ALLPAIRS_WRITES_PER_ROUND, false);
    let mut deltas = plan.iter().filter_map(|w| match w {
        Write::Delta { add, remove } => Some((add, remove)),
        Write::Reload { .. } => None,
    });
    let seed_edges: Vec<(NodeId, NodeId)> = ctx.graph.edges().collect();
    let (mut light, mut heavy, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    let (mut light_cpu, mut heavy_cpu, mut sat_cpu) =
        (CpuUse::default(), CpuUse::default(), CpuUse::default());
    let (steal0, rounds_start) = (steal_seconds(), Instant::now());
    let (mut write_ms, mut write_cpu_ms) = (Vec::new(), Vec::new());
    for _ in 0..ALLPAIRS_ROUNDS {
        // Light: one caller ranks one block at a time.
        let mut lat = Vec::new();
        let c = cpu()?;
        let end = Instant::now() + light_s;
        while Instant::now() < end {
            let b = next.fetch_add(1, Ordering::Relaxed) % blocks.len();
            let t = Instant::now();
            let ranked = engine.top_k(blocks[b], TOP_K);
            ctx.spans.record("allpairs.top_k.block", b as u64, None, t, Instant::now());
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            keep(b, ranked);
        }
        light_cpu.add(cpu()? - c, (lat.len() * BLOCK) as u64);
        light.push(lat);

        // Heavy: nproc callers rank blocks concurrently.
        let c = cpu()?;
        let end = Instant::now() + heavy_s;
        let lat = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..ctx.nproc)
                .map(|_| {
                    scope.spawn(|| {
                        let mut lat = Vec::new();
                        while Instant::now() < end {
                            let b = next.fetch_add(1, Ordering::Relaxed) % blocks.len();
                            let t = Instant::now();
                            let ranked = engine.top_k(blocks[b], TOP_K);
                            lat.push(t.elapsed().as_secs_f64() * 1e3);
                            keep(b, ranked);
                        }
                        lat
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("block worker panicked"))
                .collect::<Vec<f64>>()
        });
        heavy_cpu.add(cpu()? - c, (lat.len() * BLOCK) as u64);
        heavy.push(lat);

        // Saturation: the engine's own parallel top_k over 256-row chunks.
        let mut rows_done = 0usize;
        let c = cpu()?;
        let start = Instant::now();
        while start.elapsed() < sat_s {
            let (first_block, chunk) = chunks[next_chunk % chunks.len()];
            next_chunk += 1;
            let t = Instant::now();
            let ranked = engine.top_k(chunk, TOP_K);
            ctx.spans.record("allpairs.top_k", next_chunk as u64, None, t, Instant::now());
            rows_done += chunk.len();
            for (j, part) in ranked.chunks(BLOCK).enumerate() {
                keep(first_block + j, part.to_vec());
            }
        }
        sat_cpu.add(cpu()? - c, rows_done as u64);
        sat.push(rows_done as f64 / start.elapsed().as_secs_f64());

        // Between rounds: more set-ups, then delta absorbs.
        for _ in 0..ALLPAIRS_SETUPS_PER_ROUND {
            std::hint::black_box(set_up(&mut ctx.spans)?);
        }
        for (add, remove) in deltas.by_ref().take(ALLPAIRS_WRITES_PER_ROUND) {
            // The edge list is the harness's own work; the absorb is the
            // graph and engine build from it.
            let gone: HashSet<&(NodeId, NodeId)> = remove.iter().collect();
            let mut edges: Vec<(NodeId, NodeId)> =
                seed_edges.iter().copied().filter(|e| !gone.contains(e)).collect();
            edges.extend(add);
            let (t, c) = (Instant::now(), cpu()?);
            let g =
                DiGraph::from_edges(ctx.graph.node_count(), &edges).map_err(|e| e.to_string())?;
            std::hint::black_box(AllPairsEngine::with_options(&g, PARAMS, opts.clone()));
            write_cpu_ms.push((cpu()? - c) * 1e3);
            let id = write_ms.len() as u64;
            ctx.spans.record("allpairs.absorb_delta", id, None, t, Instant::now());
            write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let steal = steal_pct(steal0, rounds_start.elapsed().as_secs_f64(), ctx.nproc);
    let rss = peak_rss_mib("self")?;
    for r in 0..ALLPAIRS_ROUNDS {
        report.note(format!(
            "# round {r}: light 1 caller blocks={} p50={:.3}ms; heavy {} callers blocks={} p50={:.3}ms \
             p99={:.3}ms; saturation top_k over {SATURATION_ROWS}-row chunks at threads={} rows/s={:.1}",
            light[r].len(),
            percentile(&light[r], 0.5),
            ctx.nproc,
            heavy[r].len(),
            percentile(&heavy[r], 0.5),
            percentile(&heavy[r], 0.99),
            ctx.nproc,
            sat[r]
        ));
    }
    report.note(format!(
        "# CPU per row (us): saturation {:.1} over {}, light {:.1} over {}, heavy {:.1} over {}",
        sat_cpu.us_per_request(),
        sat_cpu.answered,
        light_cpu.us_per_request(),
        light_cpu.answered,
        heavy_cpu.us_per_request(),
        heavy_cpu.answered,
    ));
    report.note(format!(
        "# writes: {} delta absorbs (rebuild), CPU mean {:.2}ms p50 {:.2}ms, wall p50 {:.1}ms",
        write_ms.len(),
        mean(&write_cpu_ms),
        median(&write_cpu_ms),
        median(&write_ms)
    ));
    let light: Vec<f64> = light.concat();
    let heavy: Vec<f64> = heavy.concat();
    let client = ClientView {
        setup_s: median(&setup_wall),
        sat_qps: mean(&sat),
        light_p50_ms: percentile(&light, 0.5),
        heavy_p50_ms: percentile(&heavy, 0.5),
        heavy_p99_ms: percentile(&heavy, 0.99),
        write_p50_ms: median(&write_ms),
        steal_pct: steal,
        heavy_samples: heavy.len(),
    };
    client.note(&mut report);
    report.attempted =
        light_cpu.answered + heavy_cpu.answered + sat_cpu.answered + write_ms.len() as u64;

    report.e2e("setup_s", median(&setup_cpu), "s");
    report.e2e("sat_cpu_us_per_req", sat_cpu.us_per_request(), "us");
    report.e2e("light_cpu_us_per_req", light_cpu.us_per_request(), "us");
    report.e2e("heavy_cpu_us_per_req", heavy_cpu.us_per_request(), "us");
    // The mean, as for the server's writes.
    report.e2e("write_cpu_ms", mean(&write_cpu_ms), "ms");
    report.e2e("peak_rss_mib", rss, "MiB");

    // Oracle: every block ranked must equal QueryEngine::top_k_batch on
    // the same 16 rows (same options as the all-pairs engine's own).
    let results = results.into_inner().expect("results poisoned");
    if inconsistent.load(Ordering::Relaxed) > 0 {
        report.fail(format!(
            "{} blocks ranked differently on repeat",
            inconsistent.load(Ordering::Relaxed)
        ));
    }
    let mut sample: Vec<usize> = results.keys().copied().collect();
    ctx.rng.shuffle(&mut sample);
    sample.truncate(ORACLE_SAMPLE.div_ceil(BLOCK));
    let qe = QueryEngine::with_options(&ctx.graph, PARAMS, QueryEngineOptions::default());
    let wrong = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..ctx.nproc {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&b) = sample.get(i) else { break };
                let expect = qe.top_k_batch(blocks[b], TOP_K);
                if expect.iter().zip(&results[&b]).any(|(x, y)| !same_matches(x, y)) {
                    wrong.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let wrong = wrong.into_inner();
    report.note(format!(
        "# oracle: {} of {} ranked blocks ({} rows) recomputed with QueryEngine::top_k_batch, {wrong} differ",
        sample.len(),
        results.len(),
        sample.len() * BLOCK
    ));
    if wrong > 0 {
        report.fail(format!("{wrong} blocks differ from QueryEngine::top_k_batch"));
    }

    if traced {
        allpairs_layers(ctx, &mut report, &rows, &plan, &light, &heavy)?;
        client.layers(&mut report);
    }
    Ok(report)
}

/// Per-layer metrics for `allpairs_topk`. The serving layers have no
/// server here, so they are probed in-process on the workload's rows,
/// submitted at `cold_misses`' heavy rate.
fn allpairs_layers(
    ctx: &mut Ctx,
    report: &mut Report,
    rows: &[NodeId],
    writes: &[Write],
    light: &[f64],
    heavy: &[f64],
) -> Result<(), String> {
    let mut rng = Rng::new(ctx.rng.next_u64());
    let mut stream: Vec<NodeId> = rows.to_vec();
    rng.shuffle(&mut stream);
    let mut schedule = Vec::new();
    let mut t = rng.exp_gap(500.0);
    let mut it = stream.iter().cycle();
    while t < 2.0 {
        schedule.push((t, *it.next().expect("non-empty rows")));
        t += rng.exp_gap(500.0);
    }
    let nodes: Vec<NodeId> = schedule.iter().map(|s| s.1).collect();
    let engine = oracle_engine(&ctx.graph);
    let spans = &mut ctx.spans;
    let replay = layers::batcher_replay(&ctx.graph, PARAMS, &[], &schedule, TOP_K, spans)?;
    let replies: Vec<ssr_serve::QueryReply> = nodes
        .iter()
        .take(256)
        .zip(engine.top_k_batch(&nodes[..nodes.len().min(256)], TOP_K))
        .map(|(&node, m)| ssr_serve::QueryReply {
            epoch: 0,
            node,
            k: TOP_K as u64,
            cached: false,
            matches: Matches::new(m),
            trace_id: None,
        })
        .collect();
    let json = layers::codec(WireFormat::Jsonl, &nodes, &replies, TOP_K, spans)?;
    let ssb = layers::codec(WireFormat::Ssb, &nodes, &replies, TOP_K, spans)?;
    let lookup_ns = layers::cache_lookup_ns(&[], &nodes, TOP_K, spans);
    let hit_lookup_ns = layers::cache_hit_lookup_ns(&nodes, TOP_K, spans);
    let (qw50, qw99) = layers::queue_wait_us(&replay);
    let e = layers::engine(&engine, &nodes, replay.mean_flush, TOP_K, spans);
    let (delta_ms, publish_ms) =
        layers::epoch(&ctx.graph, PARAMS, writes, &ctx.reload_graph, spans)?;
    let load_ms = layers::store_load_ms(&ctx.graph_path, spans)?;
    let ap = layers::all_pairs(&ctx.graph, PARAMS, &rows[..128], TOP_K, ctx.nproc, spans);
    let shed_pct = 100.0 * replay.shed as f64 / schedule.len().max(1) as f64;

    push_codecs(report, &json, &ssb);
    // No server: the residual is what concurrent callers add per block.
    report.layer(
        "runtime.residual_p50_us",
        (percentile(heavy, 0.5) - percentile(light, 0.5)) * 1e3,
        "us",
    );
    report.layer("cache.hit_ratio", replay.hit_ratio, "ratio");
    report.layer("cache.lookup_ns", lookup_ns, "ns");
    report.layer("cache.hit_lookup_ns", hit_lookup_ns, "ns");
    report.layer("cache.evictions_per_1k", replay.evictions_per_1k, "count");
    report.layer("batch.mean_flush", replay.mean_flush, "jobs");
    report.layer("batch.dedup_ratio", replay.dedup_ratio, "ratio");
    report.layer("batch.queue_wait_p50_us", qw50, "us");
    report.layer("batch.queue_wait_p99_us", qw99, "us");
    report.layer("batch.shed_pct", shed_pct, "%");
    push_engine(report, &e);
    report.layer("epoch.delta_ms", delta_ms, "ms");
    report.layer("epoch.publish_ms", publish_ms, "ms");
    report.layer("store.load_ms", load_ms, "ms");
    push_all_pairs(report, &ap);
    report.layer("failed_pct", 0.0, "%");
    report.layer("loadgen.lag_p99_ms", percentile(&replay.lag_ms, 0.99), "ms");
    // No load loop to run twice here: the overhead is the measured cost
    // of recording one span, per block ranked in the light phase.
    let mut scratch = spans.fork();
    let t = Instant::now();
    for i in 0..10_000 {
        scratch.record("probe", i, None, t, t);
    }
    let per_span_ms = t.elapsed().as_secs_f64() * 1e3 / 10_000.0;
    report.layer("trace.overhead_pct", 100.0 * per_span_ms / percentile(light, 0.5), "%");
    Ok(())
}
