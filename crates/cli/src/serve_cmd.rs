//! The `simstar serve` and `simstar bench-serve` subcommands: the serving
//! layer's process entry point and its closed-loop load generator.

use crate::args::{ArgError, Args};
use simrank_star::{QueryEngineOptions, SimStarParams};
use ssr_serve::batcher::BatcherOptions;
use ssr_serve::client::{Client, Reply};
use ssr_serve::loadgen::{
    render_phase_table, run_connections_phase, run_protocol_phases, run_standard_phases, LoadPlan,
    ServeBenchMeta,
};
use ssr_serve::server::{Server, ServerOptions};
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::ToSocketAddrs;

/// `simstar serve`: bind, announce, block until a `shutdown` op arrives.
pub fn cmd_serve(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(
        rest,
        &[
            "input",
            "host",
            "port",
            "announce",
            "c",
            "k",
            "window-us",
            "max-batch",
            "queue",
            "cache",
            "cache-shards",
            "max-conns",
            "slow-query-us",
            "metrics-dump",
            "trace-sample",
            "trace-out",
        ],
    )?;
    let g = crate::commands::load_graph(&args)?;
    let params = SimStarParams { c: args.get("c", 0.6)?, iterations: args.get("k", 5usize)? };
    if !(0.0..1.0).contains(&params.c) || params.c == 0.0 {
        return Err(ArgError(format!("--c must be in (0,1), got {}", params.c)));
    }
    let opts = ServerOptions {
        params,
        engine: QueryEngineOptions::default(),
        cache_capacity: args.get("cache", 4096usize)?,
        cache_shards: args.get("cache-shards", 8usize)?,
        batch: BatcherOptions {
            window_us: args.get("window-us", 500u64)?,
            max_batch: args.get("max-batch", 64usize)?,
            queue_capacity: args.get("queue", 1024usize)?,
        },
        max_connections: args.get("max-conns", 256usize)?,
        slow_query_us: args.get("slow-query-us", 0u64)?,
        trace_sample: args.get("trace-sample", 0u64)?,
        trace_out: if args.has("trace-out") {
            Some(std::path::PathBuf::from(args.req("trace-out")?))
        } else {
            None
        },
    };
    let host = args.opt("host", "127.0.0.1").to_string();
    let port = args.get("port", 0u16)?;
    let (nodes, edges) = (g.node_count(), g.edge_count());
    let server = Server::start(g, &host, port, opts)
        .map_err(|e| ArgError(format!("binding {host}:{port}: {e}")))?;
    let addr = server.addr();
    // The listening line goes out immediately (not via the returned
    // string) so wrappers can scrape the ephemeral port while we block.
    println!(
        "serving SimRank* on {addr} (n={nodes}, m={edges}, c={}, k={}) — \
         newline-JSON by default, binary ssb/1 after the `SSB1` magic; \
         send {{\"op\":\"shutdown\"}} to stop",
        params.c, params.iterations
    );
    let _ = std::io::stdout().flush();
    if args.has("announce") {
        let path = args.req("announce")?;
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| ArgError(format!("writing `{path}`: {e}")))?;
    }
    server.wait();
    // Final registry scrape before teardown: `--metrics-dump PATH` leaves
    // the Prometheus text exposition behind for CI artifacts.
    let dump = if args.has("metrics-dump") {
        let path = args.req("metrics-dump")?.to_string();
        std::fs::write(&path, server.metrics_prometheus())
            .map_err(|e| ArgError(format!("writing `{path}`: {e}")))?;
        format!("metrics written to {path}\n")
    } else {
        String::new()
    };
    server.shutdown();
    Ok(format!("server on {addr} stopped\n{dump}"))
}

/// Resolves the target server address from `--addr HOST:PORT`, or from a
/// `serve --announce` file via `--announce FILE [--wait-announce SECS]` —
/// the structured replacement for shell wait loops around announce files.
fn resolve_server_addr(args: &Args) -> Result<std::net::SocketAddr, ArgError> {
    if args.has("addr") {
        if args.has("announce") {
            return Err(ArgError("give either --addr or --announce, not both".into()));
        }
        let addr_str = args.req("addr")?;
        return addr_str
            .to_socket_addrs()
            .map_err(|e| ArgError(format!("resolving `{addr_str}`: {e}")))?
            .next()
            .ok_or_else(|| ArgError(format!("`{addr_str}` resolved to no address")));
    }
    if args.has("announce") {
        let path = args.req("announce")?;
        let secs = args.get("wait-announce", 10u64)?;
        return ssr_serve::loadgen::wait_for_announce(
            path,
            std::time::Duration::from_secs(secs.max(1)),
        )
        .map_err(ArgError);
    }
    Err(ArgError("one of --addr HOST:PORT or --announce FILE is required".into()))
}

/// `simstar bench-serve`: drive a running server through the standard
/// batching phases (serial / batched / cached), the protocol-comparison
/// phases (json_serial / ssb_serial / ssb_pipelined), and the
/// connection-scaling phase (conns_1k), emitting the
/// `ssr-bench/serve/v1` JSON that `bench_check` gates.
pub fn cmd_bench_serve(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(
        rest,
        &[
            "addr",
            "announce",
            "wait-announce",
            "clients",
            "requests",
            "top-k",
            "window-us",
            "pipeline",
            "idle-conns",
            "name",
            "out",
            "smoke",
            "shutdown",
        ],
    )?;
    let smoke = args.get("smoke", false)?;
    let clients = args.get("clients", 16usize)?;
    let requests = args.get("requests", if smoke { 30usize } else { 125 })?;
    let top_k = args.get("top-k", 10usize)?;
    let window_us = args.get("window-us", 800u64)?;
    let pipeline = args.get("pipeline", 8usize)?;
    let idle_conns = args.get("idle-conns", if smoke { 256usize } else { 1024 })?;
    let name = args.opt("name", "serve").to_string();
    let out_path = args.opt("out", "BENCH_serve.json").to_string();
    if clients == 0 || requests == 0 {
        return Err(ArgError("--clients and --requests must be at least 1".into()));
    }
    let addr = resolve_server_addr(&args)?;
    let mut admin =
        Client::connect(addr).map_err(|e| ArgError(format!("connecting to `{addr}`: {e}")))?;
    let stats = admin.stats().map_err(|e| ArgError(format!("stats op failed: {e}")))?;
    let nodes = stats.nodes as usize;
    let edges = stats.edges as usize;
    if nodes == 0 {
        return Err(ArgError("server reports an empty graph".into()));
    }

    // Cache-off phases cycle every node (concurrent requests hit distinct
    // nodes); the cached phase hammers a small hot set.
    let pool: Vec<u32> = (0..nodes as u32).collect();
    let hot: Vec<u32> = (0..nodes.min(64) as u32).collect();
    let plan = LoadPlan::new(clients, requests, top_k, pool);
    let mut phases = run_standard_phases(addr, &plan, hot.clone(), window_us)
        .map_err(|e| ArgError(format!("load run failed: {e}")))?;
    phases.extend(
        run_protocol_phases(addr, &plan, hot.clone(), window_us, pipeline)
            .map_err(|e| ArgError(format!("protocol load run failed: {e}")))?,
    );
    if idle_conns > 0 {
        let conns_plan =
            LoadPlan::new(clients, requests.div_ceil(2).max(5), top_k, plan.nodes.clone());
        phases.push(
            run_connections_phase(addr, &conns_plan, hot, window_us, pipeline, idle_conns)
                .map_err(|e| ArgError(format!("connection-scaling run failed: {e}")))?,
        );
    }

    let meta = ServeBenchMeta {
        smoke,
        dataset: name,
        nodes,
        edges,
        clients,
        window_us,
        pipeline,
        idle_conns,
        worker_threads: stats.worker_threads,
        top_k,
        c: stats.c,
        k: stats.iterations as usize,
    };
    let json = ssr_serve::loadgen::render_serve_json(&meta, &phases);
    std::fs::write(&out_path, &json).map_err(|e| ArgError(format!("writing `{out_path}`: {e}")))?;

    let mut out = format!(
        "# bench-serve: {addr} n={nodes} m={edges} clients={clients} \
         requests/client={requests} top-k={top_k} window={window_us}us pipeline={pipeline}\n"
    );
    out.push_str(&render_phase_table(&phases));
    // When the server samples traces, surface the slowest sampled
    // requests (by end-to-end time) with their trace ids, so a slow run
    // can be cross-referenced against `trace` dumps / `--trace-out` files.
    if let Ok(dump) = admin.trace_dump() {
        if dump.sample_every > 0 && !dump.traces.is_empty() {
            let mut traces = dump.traces;
            traces.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
            let show = traces.len().min(5);
            let _ = writeln!(
                out,
                "slowest sampled requests (1-in-{} sampling, {} trace(s) in ring):",
                dump.sample_every,
                traces.len()
            );
            for t in traces.iter().take(show) {
                let stage = |name: &str| {
                    t.spans
                        .iter()
                        .find(|s| s.name == name)
                        .map_or(0.0, |s| s.dur_ns as f64 / 1000.0)
                };
                let _ = writeln!(
                    out,
                    "  trace={} total={:.1}us decode={:.1}us cache={:.1}us queue={:.1}us \
                     engine={:.1}us encode={:.1}us",
                    t.id,
                    t.total_ns as f64 / 1000.0,
                    stage("decode"),
                    stage("cache"),
                    stage("queue"),
                    stage("engine"),
                    stage("encode"),
                );
            }
        }
    }
    let _ = writeln!(out, "wrote {out_path}");
    if args.get("shutdown", false)? {
        admin.shutdown().map_err(|e| ArgError(format!("shutdown op failed: {e}")))?;
        let _ = writeln!(out, "server asked to shut down");
    }
    Ok(out)
}

/// `simstar serve-probe`: print a running server's top-k answer for every
/// probed query node, one `query\tnode\tscore` line per match, scores in
/// shortest-round-trip decimal. Diffing two probes (or a probe against
/// lines rendered from an in-process engine) therefore
/// proves or refutes bit identity of the served answers.
///
/// With `--metrics true` it instead fetches the server's observability
/// registry through the `metrics` op, validates it, and prints it as
/// Prometheus text exposition — the CI scrape path. `--shutdown true`
/// asks the server to stop afterwards (which is what lets CI collect a
/// `serve --metrics-dump` file from a gracefully exiting server).
///
/// With `--healthz true` it is a readiness check: one `ping` round-trip,
/// printing the served epoch. Any failure (can't connect, timeout,
/// protocol error) surfaces as the usual nonzero process exit, so
/// wrappers can gate on it directly.
pub fn cmd_serve_probe(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(
        rest,
        &["addr", "announce", "wait-announce", "top-k", "count", "metrics", "shutdown", "healthz"],
    )?;
    let addr = resolve_server_addr(&args)?;
    let mut client =
        Client::connect(addr).map_err(|e| ArgError(format!("connecting to `{addr}`: {e}")))?;
    if args.get("healthz", false)? {
        let epoch = client.ping().map_err(|e| ArgError(format!("ping failed: {e}")))?;
        return Ok(format!("ok epoch={epoch}\n"));
    }
    if args.get("metrics", false)? {
        let reply = client.metrics().map_err(|e| ArgError(format!("metrics op failed: {e}")))?;
        let text = reply.snapshot.render_prometheus();
        // Self-check before printing: a scrape that does not parse as
        // exposition text is a bug here, not downstream in CI.
        ssr_obs::validate_exposition(&text)
            .map_err(|e| ArgError(format!("metrics exposition invalid: {e}")))?;
        if args.get("shutdown", false)? {
            client.shutdown().map_err(|e| ArgError(format!("shutdown op failed: {e}")))?;
        }
        return Ok(text);
    }
    let stats = client.stats().map_err(|e| ArgError(format!("stats op failed: {e}")))?;
    let nodes = stats.nodes as usize;
    if nodes == 0 {
        return Err(ArgError("server reports an empty graph".into()));
    }
    let top_k = args.get("top-k", 10usize)?;
    let count = args.get("count", nodes)?.min(nodes);
    if count == 0 {
        return Err(ArgError("--count must be at least 1".into()));
    }
    let mut out = format!(
        "# serve-probe: n={nodes} m={} top-k={top_k} probed={count} (query\tnode\tscore)\n",
        stats.edges
    );
    for q in 0..count as u32 {
        match client.query(q, top_k).map_err(|e| ArgError(format!("query {q}: {e}")))? {
            Reply::Ok(r) => {
                for &(v, s) in r.matches.iter() {
                    let _ = writeln!(out, "{q}\t{v}\t{s}");
                }
            }
            Reply::Shed => {
                return Err(ArgError(format!(
                    "query {q} was shed — probe the server without competing load"
                )))
            }
            Reply::Error(e) => return Err(ArgError(format!("query {q}: {e}"))),
        }
    }
    Ok(out)
}
