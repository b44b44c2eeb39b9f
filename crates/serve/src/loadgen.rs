//! Closed-loop load generation against a running server, plus the
//! `ssr-bench/serve/v1` report and phase-table renderers.
//!
//! One thread per simulated client, each with its own connection. With
//! `pipeline == 1` a client sends its next request as soon as the
//! previous response lands (closed loop: offered load tracks server
//! capacity, the standard way to compare throughput of two server
//! configurations). With `pipeline > 1` each client keeps up to that
//! many requests in flight on one connection — the `ssb/1` pipelining
//! mode — with per-request latency measured from send to its in-order
//! response. Shared by `simstar bench-serve` (external server) and
//! `ssr-bench`'s `exp_serve` (in-process server) so both emit the exact
//! same schema — which is what lets `bench_check` gate either against
//! committed baselines.
//!
//! Failures are reported in separate columns, never folded together:
//! protocol-level `error` responses count as `errors` and the client
//! continues; a socket timeout counts the timed-out request (and any
//! others in flight on that connection) as `timeouts` and retires that
//! client — its completed work still lands in the report. Other
//! transport failures (closed connection, undecodable bytes) abort the
//! whole run with a typed [`ClientError`] instead of hanging or skewing
//! the numbers.
//!
//! Latency percentiles come from an [`ssr_obs::Histogram`] — each client
//! records into its own unregistered histogram, merged bucket-wise into
//! the report — so `BENCH_serve.json` carries the same quantile
//! semantics (bucket upper bounds, ~3% relative error) as the server's
//! own `metrics` op.

use crate::client::{Client, ClientError, Reply};
use crate::codec::WireFormat;
use crate::json::Json;
use crate::protocol::CacheDirective;
use ssr_graph::NodeId;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Polls `path` until a `serve --announce` file appears with a parseable
/// `host:port` line, or `timeout` elapses. The structured replacement for
/// the shell `sleep`-loop wrappers used to need around `--announce`.
pub fn wait_for_announce(path: &str, timeout: Duration) -> Result<SocketAddr, String> {
    use std::net::ToSocketAddrs;
    let started = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let line = text.trim();
            if line.contains(':') {
                return line
                    .to_socket_addrs()
                    .map_err(|e| format!("announce file `{path}`: bad address `{line}`: {e}"))?
                    .next()
                    .ok_or_else(|| {
                        format!("announce file `{path}`: `{line}` resolved to no address")
                    });
            }
        }
        if started.elapsed() >= timeout {
            return Err(format!(
                "no server announced in `{path}` within {:.1}s",
                timeout.as_secs_f64()
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One load phase: how many clients, how many requests each, which nodes,
/// which wire format, how deep the pipeline.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// `k` for every query.
    pub top_k: usize,
    /// Query-node pool; client `c` cycles through
    /// `nodes[c], nodes[c + clients], ...` so concurrent requests hit
    /// distinct nodes (unless the pool is smaller than the client count —
    /// the cache-phase setup).
    pub nodes: Vec<NodeId>,
    /// Wire format every client speaks.
    pub protocol: WireFormat,
    /// Requests each client keeps in flight (1 = strict closed loop).
    pub pipeline: usize,
}

impl LoadPlan {
    /// A JSON, serial plan — the historical default.
    pub fn new(
        clients: usize,
        requests_per_client: usize,
        top_k: usize,
        nodes: Vec<NodeId>,
    ) -> Self {
        LoadPlan {
            clients,
            requests_per_client,
            top_k,
            nodes,
            protocol: WireFormat::Jsonl,
            pipeline: 1,
        }
    }

    /// Same plan on a different wire format / pipeline depth.
    pub fn with_protocol(mut self, protocol: WireFormat, pipeline: usize) -> Self {
        self.protocol = protocol;
        self.pipeline = pipeline.max(1);
        self
    }
}

/// Aggregated result of one load phase.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent (ok + shed + error + timeouts).
    pub requests: usize,
    /// `status: ok` responses.
    pub ok: usize,
    /// Responses served from the result cache.
    pub cached: usize,
    /// `status: shed` responses.
    pub shed: usize,
    /// Protocol-level `status: error` responses — the server answered,
    /// the answer was a typed error. Reported separately from
    /// `timeouts`.
    pub errors: usize,
    /// Requests whose response never arrived before the socket timeout
    /// (including any still in flight when their connection timed out).
    pub timeouts: usize,
    /// Wall-clock of the whole phase.
    pub elapsed_ms: f64,
    /// Per-request latencies in µs, sorted ascending (raw samples; the
    /// percentiles reported come from `hist`).
    pub lat_us: Vec<f64>,
    /// Registry-style latency histogram (µs), merged across clients —
    /// the source of the report's percentiles.
    pub hist: ssr_obs::Histogram,
    /// Distinct epochs observed in ok responses.
    pub epochs: Vec<u64>,
}

impl LoadReport {
    /// Completed requests per second (ok responses only).
    pub fn qps(&self) -> f64 {
        self.ok as f64 / (self.elapsed_ms / 1e3).max(1e-9)
    }

    /// Nearest-rank percentile of the latency samples, reported as the
    /// registry histogram's bucket upper bound (≤ ~3% relative error) —
    /// identical semantics to the server's `metrics` op quantiles.
    pub fn percentile_us(&self, p: f64) -> f64 {
        self.hist.quantile(p) as f64
    }
}

/// One client thread's tally, merged into the [`LoadReport`].
struct ClientTally {
    ok: usize,
    cached: usize,
    shed: usize,
    errors: usize,
    timeouts: usize,
    lat_us: Vec<f64>,
    hist: ssr_obs::Histogram,
    epochs: Vec<u64>,
}

impl Default for ClientTally {
    fn default() -> ClientTally {
        ClientTally {
            ok: 0,
            cached: 0,
            shed: 0,
            errors: 0,
            timeouts: 0,
            lat_us: Vec::new(),
            hist: ssr_obs::Histogram::unregistered(),
            epochs: Vec::new(),
        }
    }
}

impl ClientTally {
    fn absorb(&mut self, reply: Reply) {
        match reply {
            Reply::Ok(reply) => {
                self.ok += 1;
                self.cached += reply.cached as usize;
                if self.epochs.last() != Some(&reply.epoch) {
                    self.epochs.push(reply.epoch);
                }
            }
            Reply::Shed => self.shed += 1,
            Reply::Error(_) => self.errors += 1,
        }
    }
}

/// One client's run: a sliding window of up to `plan.pipeline` requests
/// in flight, latency measured per request from its send to its in-order
/// response (depth 1 degenerates to the strict closed loop). A socket
/// timeout retires the client — every request still in flight counts as
/// a timeout, and the completed work is kept.
fn run_client(addr: SocketAddr, plan: &LoadPlan, c: usize) -> Result<ClientTally, ClientError> {
    let mut client =
        Client::builder().protocol(plan.protocol).pipeline(plan.pipeline).connect(addr)?;
    let depth = plan.pipeline.max(1);
    let mut tally = ClientTally::default();
    let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(depth);
    let mut sent = 0;
    while sent < plan.requests_per_client || !in_flight.is_empty() {
        if sent < plan.requests_per_client && in_flight.len() < depth {
            let node = plan.nodes[(c + sent * plan.clients) % plan.nodes.len()];
            match client.send_query(node, plan.top_k) {
                Ok(_) => {}
                Err(ClientError::TimedOut) => {
                    tally.timeouts += 1 + in_flight.len();
                    return Ok(tally);
                }
                Err(e) => return Err(e),
            }
            in_flight.push_back(Instant::now());
            sent += 1;
            continue;
        }
        let reply = match client.recv_reply() {
            Ok(reply) => reply,
            Err(ClientError::TimedOut) => {
                // The head-of-line response never came; everything behind
                // it on this connection is unanswerable too.
                tally.timeouts += in_flight.len();
                return Ok(tally);
            }
            Err(e) => return Err(e),
        };
        let t = in_flight.pop_front().expect("response without a request in flight");
        let us = t.elapsed().as_secs_f64() * 1e6;
        tally.lat_us.push(us);
        tally.hist.record(us as u64);
        tally.absorb(reply);
    }
    Ok(tally)
}

/// Runs one load phase against `addr`. Transport errors abort the whole
/// run — a dead server is a typed failure, not a hang or a skewed report.
pub fn run_load(addr: SocketAddr, plan: &LoadPlan) -> Result<LoadReport, ClientError> {
    assert!(plan.clients > 0 && !plan.nodes.is_empty(), "empty load plan");
    let started = Instant::now();
    let mut per_client: Vec<ClientTally> = Vec::new();
    std::thread::scope(|scope| -> Result<(), ClientError> {
        let handles: Vec<_> =
            (0..plan.clients).map(|c| scope.spawn(move || run_client(addr, plan, c))).collect();
        for h in handles {
            per_client.push(h.join().expect("load client panicked")?);
        }
        Ok(())
    })?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut report = LoadReport {
        requests: 0,
        ok: 0,
        cached: 0,
        shed: 0,
        errors: 0,
        timeouts: 0,
        elapsed_ms,
        lat_us: Vec::new(),
        hist: ssr_obs::Histogram::unregistered(),
        epochs: Vec::new(),
    };
    for tally in per_client {
        report.ok += tally.ok;
        report.cached += tally.cached;
        report.shed += tally.shed;
        report.errors += tally.errors;
        report.timeouts += tally.timeouts;
        report.requests += tally.lat_us.len() + tally.timeouts;
        report.lat_us.extend(tally.lat_us);
        report.hist.merge_from(&tally.hist);
        report.epochs.extend(tally.epochs);
    }
    report.lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    report.epochs.sort_unstable();
    report.epochs.dedup();
    Ok(report)
}

/// One benchmarked phase: its name (the `modes` key in the JSON), the load
/// result, and the server-side counter deltas observed across it.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Mode name (`serial`, `batched`, `cached`, `json_serial`,
    /// `ssb_serial`, `ssb_pipelined`, `conns_1k`).
    pub name: String,
    /// Wire format the phase ran on (`json/1` or `ssb/1`).
    pub protocol: &'static str,
    /// Pipelining depth of the phase.
    pub pipeline: usize,
    /// Server-reported connection gauge while the phase's sockets (and
    /// any held idle ones) were open; 0 when not sampled.
    pub connections: u64,
    /// Client-side load report.
    pub report: LoadReport,
    /// Server-side cache hits − before-phase hits.
    pub cache_hits: u64,
    /// Server-side cache misses − before-phase misses.
    pub cache_misses: u64,
    /// Server-side load-shed count − before-phase count.
    pub shed: u64,
    /// Server-side flushes − before-phase flushes.
    pub flushes: u64,
    /// Server-side flushed jobs − before-phase flushed jobs.
    pub flushed_jobs: u64,
}

impl PhaseResult {
    /// Server-observed cache hit rate across the phase.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean flush size across the phase.
    pub fn mean_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flushed_jobs as f64 / self.flushes as f64
        }
    }
}

/// `(cache hits, cache misses, batcher shed, flushes, flushed jobs)`.
struct Counters(u64, u64, u64, u64, u64);

fn server_counters(admin: &mut Client) -> Result<Counters, ClientError> {
    let s = admin.stats()?;
    Ok(Counters(
        s.cache.hits,
        s.cache.misses,
        s.batcher.shed,
        s.batcher.flushes,
        s.batcher.flushed_jobs,
    ))
}

/// Runs `plan` bracketed by counter snapshots and folds both into a
/// [`PhaseResult`]. `connections` samples the server's gauge mid-phase
/// only when asked (the connection-hold phase).
fn run_phase(
    addr: SocketAddr,
    admin: &mut Client,
    name: &str,
    plan: &LoadPlan,
    connections: u64,
) -> Result<PhaseResult, ClientError> {
    let before = server_counters(admin)?;
    let report = run_load(addr, plan)?;
    let after = server_counters(admin)?;
    Ok(PhaseResult {
        name: name.to_string(),
        protocol: plan.protocol.name(),
        pipeline: plan.pipeline.max(1),
        connections,
        report,
        cache_hits: after.0 - before.0,
        cache_misses: after.1 - before.1,
        shed: after.2 - before.2,
        flushes: after.3 - before.3,
        flushed_jobs: after.4 - before.4,
    })
}

/// The three standard phases every serve benchmark runs, in order, against
/// one server (reconfigured between phases through the admin `config` op):
///
/// 1. `serial` — window 0 (no coalescing), cache off: the baseline.
/// 2. `batched` — window `window_us`, cache off: isolates the micro-
///    batching win.
/// 3. `cached` — window `window_us`, cache on, hot node pool: adds the
///    result cache.
pub fn run_standard_phases(
    addr: SocketAddr,
    plan: &LoadPlan,
    hot_nodes: Vec<NodeId>,
    window_us: u64,
) -> Result<Vec<PhaseResult>, ClientError> {
    let mut admin = Client::connect(addr)?;
    let mut results = Vec::new();
    let phases: [(&str, u64, CacheDirective, Option<Vec<NodeId>>); 3] = [
        ("serial", 0, CacheDirective::Off, None),
        ("batched", window_us, CacheDirective::Off, None),
        ("cached", window_us, CacheDirective::On, Some(hot_nodes)),
    ];
    for (name, window, cache, nodes) in phases {
        admin.config(Some(window), None, Some(cache), None, None)?;
        admin.config(None, None, Some(CacheDirective::Clear), None, None)?;
        let mut phase_plan = plan.clone().with_protocol(WireFormat::Jsonl, 1);
        if let Some(nodes) = nodes {
            phase_plan.nodes = nodes;
        }
        results.push(run_phase(addr, &mut admin, name, &phase_plan, 0)?);
    }
    Ok(results)
}

/// The protocol-comparison phases: same load, same hot node pool, result
/// cache on and pre-warmed — the engine is out of the loop, so the only
/// axis that moves is the wire (codec cost, framing, syscalls per
/// request). On an engine-bound graph a cache-off comparison would
/// measure compute, not the protocol.
///
/// 1. `json_serial` — newline JSON, one request in flight per client.
/// 2. `ssb_serial` — binary `ssb/1`, still serial: isolates codec cost.
/// 3. `ssb_pipelined` — `ssb/1` with `pipeline` requests in flight per
///    client: requests share syscalls and coalescing windows.
pub fn run_protocol_phases(
    addr: SocketAddr,
    plan: &LoadPlan,
    hot_nodes: Vec<NodeId>,
    window_us: u64,
    pipeline: usize,
) -> Result<Vec<PhaseResult>, ClientError> {
    let mut admin = Client::connect(addr)?;
    admin.config(Some(window_us), None, Some(CacheDirective::On), None, None)?;
    admin.config(None, None, Some(CacheDirective::Clear), None, None)?;
    // One warm-up pass: every timed request in every phase is then a
    // cache hit, so the phases compare wires, not engine runs.
    let mut warm = Client::connect(addr)?;
    for &node in &hot_nodes {
        warm.query(node, plan.top_k)?;
    }
    let mut results = Vec::new();
    let phases: [(&str, WireFormat, usize); 3] = [
        ("json_serial", WireFormat::Jsonl, 1),
        ("ssb_serial", WireFormat::Ssb, 1),
        ("ssb_pipelined", WireFormat::Ssb, pipeline.max(2)),
    ];
    for (name, protocol, depth) in phases {
        let mut phase_plan = plan.clone().with_protocol(protocol, depth);
        phase_plan.nodes = hot_nodes.clone();
        results.push(run_phase(addr, &mut admin, name, &phase_plan, 0)?);
    }
    Ok(results)
}

/// The connection-scaling phase: holds `idle_conns` open-but-silent
/// sockets, runs a pipelined `ssb/1` load through them, and samples the
/// server's connection gauge while everything is connected — proving the
/// event loop carries the idle mass without a thread per socket.
pub fn run_connections_phase(
    addr: SocketAddr,
    plan: &LoadPlan,
    hot_nodes: Vec<NodeId>,
    window_us: u64,
    pipeline: usize,
    idle_conns: usize,
) -> Result<PhaseResult, ClientError> {
    let mut admin = Client::connect(addr)?;
    // Same wire-bound regime as the protocol phases (cache on, hot pool):
    // the axis under test here is the idle-connection mass.
    admin.config(Some(window_us), None, Some(CacheDirective::On), None, None)?;
    let mut warm = Client::connect(addr)?;
    for &node in &hot_nodes {
        warm.query(node, plan.top_k)?;
    }
    let mut idle = Vec::with_capacity(idle_conns);
    for _ in 0..idle_conns {
        idle.push(Client::builder().protocol(WireFormat::Ssb).connect(addr)?);
    }
    // Prove the held sockets are live server-side, not just queued in the
    // kernel: the gauge must cover every idle socket plus the admin.
    let gauge = admin.stats()?.connections;
    let mut phase_plan = plan.clone().with_protocol(WireFormat::Ssb, pipeline.max(2));
    phase_plan.nodes = hot_nodes;
    let mut result = run_phase(addr, &mut admin, "conns_1k", &phase_plan, gauge)?;
    // Each held connection still answers after carrying load around it.
    if let Some(probe) = idle.last_mut() {
        probe.ping()?;
    }
    result.connections = result.connections.max(admin.stats()?.connections);
    drop(idle);
    Ok(result)
}

/// Metadata of one serve bench run, for the JSON header.
#[derive(Debug, Clone)]
pub struct ServeBenchMeta {
    /// Whether this was the CI smoke variant.
    pub smoke: bool,
    /// Dataset name (the `datasets[].name` key `bench_check` compares on).
    pub dataset: String,
    /// Node count of the served graph.
    pub nodes: usize,
    /// Edge count of the served graph.
    pub edges: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Coalescing window of the batched/cached phases, µs.
    pub window_us: u64,
    /// Pipelining depth of the `ssb_pipelined` phase.
    pub pipeline: usize,
    /// Idle connections held through the `conns_1k` phase.
    pub idle_conns: usize,
    /// Server thread budget (event loop + flush worker + admin).
    pub worker_threads: u64,
    /// `k` of every query.
    pub top_k: usize,
    /// Damping factor.
    pub c: f64,
    /// Iteration count.
    pub k: usize,
}

/// Renders the `ssr-bench/serve/v1` document. Modes carry `p50_us` so
/// `bench_check`'s median gate applies unchanged; the headline ratios are
/// `speedup_batched_vs_serial` and
/// `speedup_ssb_pipelined_vs_json_serial` (throughput), plus per-mode
/// protocol/pipeline/connection axes, hit-rate and shed counters — the
/// serving-layer acceptance metrics.
pub fn render_serve_json(meta: &ServeBenchMeta, phases: &[PhaseResult]) -> String {
    let mode = |p: &PhaseResult| {
        Json::Obj(vec![
            ("protocol".into(), Json::Str(p.protocol.into())),
            ("pipeline".into(), Json::Num(p.pipeline as f64)),
            ("connections".into(), Json::Num(p.connections as f64)),
            ("requests".into(), Json::Num(p.report.requests as f64)),
            ("ok".into(), Json::Num(p.report.ok as f64)),
            ("total_ms".into(), Json::Num(round3(p.report.elapsed_ms))),
            ("qps".into(), Json::Num(round1(p.report.qps()))),
            ("p50_us".into(), Json::Num(round1(p.report.percentile_us(0.50)))),
            ("p99_us".into(), Json::Num(round1(p.report.percentile_us(0.99)))),
            ("cached_responses".into(), Json::Num(p.report.cached as f64)),
            ("protocol_errors".into(), Json::Num(p.report.errors as f64)),
            ("timeouts".into(), Json::Num(p.report.timeouts as f64)),
            ("shed".into(), Json::Num(p.shed as f64)),
            ("cache_hit_rate".into(), Json::Num(round3(p.hit_rate()))),
            ("flushes".into(), Json::Num(p.flushes as f64)),
            ("mean_flush".into(), Json::Num(round3(p.mean_flush()))),
        ])
    };
    let qps_of = |name: &str| phase_qps(phases, name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let speedup = ratio(qps_of("batched"), qps_of("serial"));
    let speedup_ssb = ratio(qps_of("ssb_pipelined"), qps_of("json_serial"));
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("ssr-bench/serve/v1".into())),
        ("smoke".into(), Json::Bool(meta.smoke)),
        (
            "params".into(),
            Json::Obj(vec![
                ("c".into(), Json::Num(meta.c)),
                ("k".into(), Json::Num(meta.k as f64)),
                ("top_k".into(), Json::Num(meta.top_k as f64)),
                ("clients".into(), Json::Num(meta.clients as f64)),
                ("window_us".into(), Json::Num(meta.window_us as f64)),
                ("pipeline".into(), Json::Num(meta.pipeline as f64)),
                ("idle_conns".into(), Json::Num(meta.idle_conns as f64)),
            ]),
        ),
        ("threads".into(), Json::Num(ssr_linalg::available_threads() as f64)),
        ("worker_threads".into(), Json::Num(meta.worker_threads as f64)),
        (
            "datasets".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str(meta.dataset.clone())),
                ("nodes".into(), Json::Num(meta.nodes as f64)),
                ("edges".into(), Json::Num(meta.edges as f64)),
                (
                    "modes".into(),
                    Json::Obj(phases.iter().map(|p| (p.name.clone(), mode(p))).collect()),
                ),
                ("speedup_batched_vs_serial".into(), Json::Num(round2(speedup))),
                ("speedup_ssb_pipelined_vs_json_serial".into(), Json::Num(round2(speedup_ssb))),
            ])]),
        ),
    ]);
    doc.render() + "\n"
}

/// Renders the phase table `simstar bench-serve` and `exp_serve` print:
/// one row per phase, then the headline speedups, each omitted when its
/// serial baseline did not run.
pub fn render_phase_table(phases: &[PhaseResult]) -> String {
    let mut out = format!(
        "{:<14} {:>7} {:>4} {:>9} {:>10} {:>10} {:>8} {:>6} {:>6}\n",
        "mode", "proto", "pipe", "qps", "p50_us", "p99_us", "hit_rate", "shed", "conns"
    );
    for p in phases {
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>4} {:>9.1} {:>10.1} {:>10.1} {:>7.1}% {:>6} {:>6}",
            p.name,
            p.protocol,
            p.pipeline,
            p.report.qps(),
            p.report.percentile_us(0.50),
            p.report.percentile_us(0.99),
            100.0 * p.hit_rate(),
            p.shed,
            p.connections,
        );
    }
    let qps = |name: &str| phase_qps(phases, name);
    if qps("serial") > 0.0 {
        let _ = writeln!(out, "speedup batched vs serial: {:.2}x", qps("batched") / qps("serial"));
    }
    if qps("json_serial") > 0.0 {
        let _ = writeln!(
            out,
            "speedup ssb pipelined vs json serial: {:.2}x",
            qps("ssb_pipelined") / qps("json_serial")
        );
    }
    out
}

/// Throughput of the phase called `name`; 0 when it did not run.
fn phase_qps(phases: &[PhaseResult], name: &str) -> f64 {
    phases.iter().find(|p| p.name == name).map_or(0.0, |p| p.report.qps())
}

fn round1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, qps_scale: f64) -> PhaseResult {
        let hist = ssr_obs::Histogram::unregistered();
        for i in 1..=100u64 {
            hist.record(i);
        }
        PhaseResult {
            name: name.into(),
            protocol: if name.starts_with("ssb") { "ssb/1" } else { "json/1" },
            pipeline: if name.ends_with("pipelined") { 8 } else { 1 },
            connections: 0,
            report: LoadReport {
                requests: 100,
                ok: 100,
                cached: 0,
                shed: 0,
                errors: 3,
                timeouts: 2,
                elapsed_ms: 1000.0 / qps_scale,
                lat_us: (1..=100).map(|i| i as f64).collect(),
                hist,
                epochs: vec![0],
            },
            cache_hits: 30,
            cache_misses: 70,
            shed: 2,
            flushes: 10,
            flushed_jobs: 70,
        }
    }

    #[test]
    fn report_percentiles_and_qps() {
        let p = phase("serial", 1.0);
        assert!((p.report.qps() - 100.0).abs() < 1e-9);
        assert!((p.report.percentile_us(0.5) - 50.0).abs() < 1e-9);
        assert!((p.report.percentile_us(0.99) - 99.0).abs() < 1e-9);
        assert!((p.hit_rate() - 0.3).abs() < 1e-12);
        assert!((p.mean_flush() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rendered_json_is_bench_check_compatible() {
        let meta = ServeBenchMeta {
            smoke: true,
            dataset: "D05".into(),
            nodes: 100,
            edges: 400,
            clients: 16,
            window_us: 500,
            pipeline: 8,
            idle_conns: 256,
            worker_threads: 3,
            top_k: 10,
            c: 0.6,
            k: 8,
        };
        let phases = [
            phase("serial", 1.0),
            phase("batched", 2.5),
            phase("cached", 4.0),
            phase("json_serial", 1.0),
            phase("ssb_serial", 1.2),
            phase("ssb_pipelined", 3.0),
        ];
        let text = render_serve_json(&meta, &phases);
        let doc = crate::json::parse_json(text.trim()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ssr-bench/serve/v1"));
        assert!(doc.get("worker_threads").and_then(Json::as_num).is_some());
        let ds = &doc.get("datasets").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(ds.get("name").and_then(Json::as_str), Some("D05"));
        let modes = ds.get("modes").unwrap();
        for m in ["serial", "batched", "cached", "json_serial", "ssb_serial", "ssb_pipelined"] {
            let mode = modes.get(m).unwrap();
            assert!(mode.get("p50_us").and_then(Json::as_num).is_some(), "{m}");
            assert!(mode.get("shed").and_then(Json::as_num).is_some(), "{m}");
            assert!(mode.get("protocol").and_then(Json::as_str).is_some(), "{m}");
            // Failure modes are separate columns, never folded together.
            assert_eq!(mode.get("protocol_errors").and_then(Json::as_num), Some(3.0), "{m}");
            assert_eq!(mode.get("timeouts").and_then(Json::as_num), Some(2.0), "{m}");
        }
        assert_eq!(
            modes.get("ssb_pipelined").unwrap().get("protocol").and_then(Json::as_str),
            Some("ssb/1")
        );
        let speedup = ds.get("speedup_batched_vs_serial").and_then(Json::as_num).unwrap();
        assert!((speedup - 2.5).abs() < 1e-9);
        let sp = ds.get("speedup_ssb_pipelined_vs_json_serial").and_then(Json::as_num).unwrap();
        assert!((sp - 3.0).abs() < 1e-9);
    }

    #[test]
    fn phase_table_has_a_row_per_phase_and_guarded_speedups() {
        let phases = [phase("serial", 1.0), phase("batched", 2.5), phase("ssb_pipelined", 3.0)];
        let table = render_phase_table(&phases);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5, "{table}");
        assert!(lines[0].starts_with("mode ") && lines[0].contains(" hit_rate "));
        assert!(lines[3].starts_with("ssb_pipelined") && lines[3].contains("  30.0% "));
        assert_eq!(lines[0].len(), lines[1].len(), "header and rows align");
        assert_eq!(lines[4], "speedup batched vs serial: 2.50x");
        // No json_serial phase ran, so its speedup line is left out.
        assert!(!table.contains("json serial"));
    }
}
