//! `simbench`: runs one seeded workload against the SimRank* system and
//! prints every metric by name with its unit, then one JSON result line.
//!
//! ```text
//! simbench --workload cold_misses|hot_hits|churn|allpairs_topk --seed N
//!          --seconds S --trace 0|1 --simstar PATH --work DIR [--commit ID]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded around every layer call and reports the
//! per-layer metrics (spans are written to `DIR/spans-<workload>.jsonl`).
//! The exit code is non-zero on any wrong or stale answer, or when the
//! load generator fell behind its schedule.

mod layers;
mod load;
mod server;
mod trace;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workloads::{Ctx, Report};

/// Threads and connections the load generator uses at most.
const LOAD_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    simstar: PathBuf,
    work: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        simstar: PathBuf::from(get("--simstar")?),
        work: PathBuf::from(get("--work")?),
        commit: get("--commit").unwrap_or_else(|_| "unknown".into()),
    })
}

/// `simstar generate --kind citation`: the CitHepTh-sized stand-in graph.
fn generate(simstar: &Path, seed: u64, out: &Path) -> Result<(), String> {
    let status = Command::new(simstar)
        .args(["generate", "--kind", "citation", "--nodes", "16500", "--edges", "206000"])
        .args(["--seed", &seed.to_string(), "--store"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running {} generate: {e}", simstar.display()))?;
    if !status.success() {
        return Err(format!("simstar generate failed: {status}"));
    }
    Ok(())
}

fn load(path: &Path) -> Result<ssr_graph::DiGraph, String> {
    ssr_store::load_graph_auto(path).map_err(|e| format!("loading {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if LOAD_THREADS > nproc {
        return Err(format!(
            "the load generator needs {LOAD_THREADS} threads and connections, but nproc is {nproc}"
        ));
    }
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("creating {}: {e}", args.work.display()))?;
    let graph_path = args.work.join("graph.ssg");
    let reload_path = args.work.join("reload.ssg");
    generate(&args.simstar, args.seed, &graph_path)?;
    generate(&args.simstar, args.seed ^ 0x9E37_79B9_7F4A_7C15, &reload_path)?;
    let graph = load(&graph_path)?;
    let reload_graph = load(&reload_path)?;
    let wcc = ssr_graph::components::weakly_connected_components(&graph).count;
    println!(
        "# simbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.commit
    );
    println!(
        "# graph: citation n={} m={} wcc={wcc}; reload graph n={} m={}",
        graph.node_count(),
        graph.edge_count(),
        reload_graph.node_count(),
        reload_graph.edge_count()
    );
    let mut ctx = Ctx {
        seconds: args.seconds,
        nproc,
        simstar: args.simstar.clone(),
        work: args.work.clone(),
        graph_path: std::fs::canonicalize(&graph_path).map_err(|e| e.to_string())?,
        reload_path: std::fs::canonicalize(&reload_path).map_err(|e| e.to_string())?,
        graph,
        reload_graph,
        spans: trace::Spans::new(args.trace, Instant::now()),
        rng: util::Rng::new(args.seed),
    };
    let report = match args.workload.as_str() {
        "cold_misses" => workloads::cold_misses(&mut ctx)?,
        "hot_hits" => workloads::hot_hits(&mut ctx)?,
        "churn" => workloads::churn(&mut ctx)?,
        "allpairs_topk" => workloads::allpairs_topk(&mut ctx)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if args.trace {
        let path = args.work.join(format!("spans-{}.jsonl", args.workload));
        ctx.spans.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans: {} written to {}", ctx.spans.len(), path.display());
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    let metrics = if args.trace { &report.per_layer } else { &report.end_to_end };
    let mut json = String::new();
    for (name, value, unit) in metrics {
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            report.errors.push(format!("metric {name} is not finite"));
            continue;
        }
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    for e in &report.errors {
        eprintln!("simbench: FAILED: {e}");
    }
    let correct = report.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.attempted.max(1),
        report.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}
