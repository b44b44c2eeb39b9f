//! Serving-layer throughput benchmark (`exp_serve`), emitted as
//! `BENCH_serve.json`.
//!
//! Starts a real [`ssr_serve::Server`] on an ephemeral loopback port and
//! drives it with the closed-loop load generator (one server,
//! reconfigured between phases through the admin `config` op — exactly
//! what `simstar bench-serve` does against an external server) through
//! two phase groups:
//!
//! The **batching** group (16 clients, newline JSON):
//!
//! * **serial** — batch window disabled, cache off: every request flushes
//!   alone through the engine. The baseline.
//! * **batched** — the coalescing window on, cache off: concurrent
//!   requests ride the 16-lane blocked path together. The acceptance
//!   metric is `speedup_batched_vs_serial ≥ 2×` at 16 concurrent clients
//!   on CitHepTh.
//! * **cached** — window on, cache on, hot node pool: adds the result
//!   cache (hit-rate reported).
//!
//! The **protocol** group (64 clients, window on, cache off — only the
//! wire moves):
//!
//! * **json_serial** / **ssb_serial** — one request in flight per client
//!   on each codec: isolates per-frame codec cost.
//! * **ssb_pipelined** — binary `ssb/1` with 8 requests in flight per
//!   client: the depth that actually fills a coalescing window. The
//!   acceptance metric is `speedup_ssb_pipelined_vs_json_serial ≥ 2×`.
//! * **conns_1k** — the pipelined load while 1024 idle connections are
//!   held open (256 in smoke, under CI's fd limit), with the
//!   server-reported connection gauge: the event loop carries the idle
//!   mass on its fixed thread budget.
//!
//! Queries come from the in-degree-stratified sample the paper's §5
//! protocol uses. The JSON schema (`ssr-bench/serve/v1`) is rendered by
//! [`ssr_serve::loadgen::render_serve_json`] and carries `p50_us` per
//! mode, so `bench_check`'s median gate applies unchanged — now across
//! both protocols.

use simrank_star::SimStarParams;
use ssr_datasets::{load, DatasetId};
use ssr_eval::queries::select_queries;
use ssr_serve::batcher::BatcherOptions;
use ssr_serve::loadgen::{
    run_connections_phase, run_protocol_phases, run_standard_phases, LoadPlan, ServeBenchMeta,
};
use ssr_serve::server::{Server, ServerOptions};

/// Configuration of one serve-bench run.
pub struct ServeBenchOptions {
    /// Tiny dataset + few requests (the CI mode).
    pub smoke: bool,
    /// Where to write the JSON report.
    pub out_path: std::path::PathBuf,
}

const C: f64 = 0.6;
/// Serving depth, matching the query-engine bench (see its rationale).
const K: usize = 8;
const TOP_K: usize = 10;
const CLIENTS: usize = 16;
const WINDOW_US: u64 = 800;
/// Requests each `ssb_pipelined` client keeps in flight.
const PIPELINE: usize = 8;
const SEED: u64 = 0x0BE7_C0DE;

/// Runs the benchmark, prints a summary table, and writes the JSON report.
pub fn run_serve_bench(opts: &ServeBenchOptions) {
    // (dataset, divisor, requests per client). 16 clients × 140 requests
    // = 2240 requests per phase on CitHepTh — enough for stable medians
    // at ~ms-scale serial latency without a multi-minute run.
    let (id, divisor, requests_per_client) =
        if opts.smoke { (DatasetId::D05, 2, 25) } else { (DatasetId::CitHepTh, 2, 140) };
    // Protocol group: (clients, requests per client, idle connections).
    // Smoke stays at 256 held sockets — GitHub runners cap fds at 1024.
    let (p_clients, p_requests, idle_conns) =
        if opts.smoke { (32, 12, 256) } else { (64, 50, 1024) };
    let d = load(id, divisor);
    let g = &d.graph;
    let params = SimStarParams { c: C, iterations: K };
    let n_pool = (CLIENTS * requests_per_client).max(p_clients * p_requests).min(g.node_count());
    let pool = {
        let mut q = select_queries(g, 5, n_pool.div_ceil(5), SEED);
        q.truncate(n_pool);
        q
    };
    let hot: Vec<u32> = pool.iter().copied().take(64).collect();
    // Standard phases warm `hot` through the cached phase; the protocol
    // phases then reuse it with the cache on, so they time the wire.

    let server = Server::start(
        g.clone(),
        "127.0.0.1",
        0,
        ServerOptions {
            params,
            cache_capacity: 4096,
            cache_shards: 8,
            batch: BatcherOptions {
                window_us: WINDOW_US,
                max_batch: 64,
                queue_capacity: 1024,
                workers: 1,
            },
            max_connections: idle_conns + p_clients + 32,
            ..Default::default()
        },
    )
    .expect("bind ephemeral loopback port");
    let addr = server.addr();

    println!(
        "SERVE BENCH {} (n={}, m={}, c={C}, k={K}, top-k={TOP_K}, {CLIENTS} clients, \
         window={WINDOW_US}us, {} threads)",
        id.name(),
        g.node_count(),
        g.edge_count(),
        server.worker_threads(),
    );
    let plan = LoadPlan::new(CLIENTS, requests_per_client, TOP_K, pool.clone());
    let mut phases = run_standard_phases(addr, &plan, hot.clone(), WINDOW_US).expect("load run");
    let p_plan = LoadPlan::new(p_clients, p_requests, TOP_K, pool);
    phases.extend(
        run_protocol_phases(addr, &p_plan, hot.clone(), WINDOW_US, PIPELINE).expect("protocol run"),
    );
    let conns_plan =
        LoadPlan::new(p_clients, p_requests.div_ceil(2).max(5), TOP_K, p_plan.nodes.clone());
    phases.push(
        run_connections_phase(addr, &conns_plan, hot.clone(), WINDOW_US, PIPELINE, idle_conns)
            .expect("connection-scaling run"),
    );
    println!(
        "{:<14} {:>7} {:>4} {:>9} {:>10} {:>10} {:>9} {:>6} {:>6}",
        "mode", "proto", "pipe", "qps", "p50_us", "p99_us", "hit_rate", "shed", "conns"
    );
    for p in &phases {
        println!(
            "{:<14} {:>7} {:>4} {:>9.1} {:>10.1} {:>10.1} {:>8.1}% {:>6} {:>6}",
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
    let qps = |name: &str| phases.iter().find(|p| p.name == name).map_or(0.0, |p| p.report.qps());
    println!("speedup batched vs serial: {:.2}x", qps("batched") / qps("serial").max(1e-12));
    println!(
        "speedup ssb pipelined vs json serial: {:.2}x",
        qps("ssb_pipelined") / qps("json_serial").max(1e-12)
    );

    let meta = ServeBenchMeta {
        smoke: opts.smoke,
        dataset: id.name().to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        clients: CLIENTS,
        window_us: WINDOW_US,
        pipeline: PIPELINE,
        idle_conns,
        worker_threads: server.worker_threads(),
        top_k: TOP_K,
        c: C,
        k: K,
    };
    let json = ssr_serve::loadgen::render_serve_json(&meta, &phases);
    std::fs::write(&opts.out_path, json).expect("write bench JSON");
    println!("wrote {}", opts.out_path.display());
    server.shutdown();
}
