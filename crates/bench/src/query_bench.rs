//! Query-engine throughput/latency benchmark — the repo's first *perf
//! trajectory* point, emitted as `BENCH_query_engine.json`.
//!
//! Three execution modes over the same in-degree-stratified query sample
//! (the paper's §5 test-query protocol):
//!
//! * **naive** — the pre-engine single-source path: the dense lattice sweep
//!   that rebuilds the CSR transition on every call
//!   ([`simrank_star::single_source::single_source_dense`]);
//! * **engine** — [`simrank_star::QueryEngine::query_into`]: amortized
//!   state, sparse-frontier sweep, pooled scratch;
//! * **batched** — [`simrank_star::QueryEngine::query_batch`] over
//!   fixed-size batches from [`ssr_eval::queries::select_query_batches`],
//!   swept as 8-lane chunks;
//!
//! plus **engine_topk** ([`simrank_star::QueryEngine::top_k`], the ranked
//! result mode), and a
//! **lane_width** axis: CPU ms per query of
//! [`simrank_star::QueryEngine::top_k_batch`] with every chunk forced to one
//! lane or to 8, at 1–6, 8 and 16 queries per call, each cell the median
//! of seven windows measured round-robin across all cells — the table
//! behind the
//! engine's choice of lane width. The emitted JSON schema is documented in
//! `README.md` ("Perf trajectory"); CI's scheduled bench job runs the
//! `--smoke` variant and uploads the file as an artifact so the trajectory
//! accumulates per week.

use crate::timed;
use simrank_star::single_source::single_source_dense;
use simrank_star::{QueryEngine, SimStarParams};
use ssr_datasets::{load, DatasetId};
use ssr_eval::queries::{select_queries, select_query_batches};
use ssr_graph::NodeId;
use ssr_obs::thread_cpu_time;
use std::fmt::Write as _;
use std::time::Duration;

/// Configuration of one bench run.
pub struct QueryBenchOptions {
    /// Tiny dataset + few queries: seconds, not minutes (the CI mode).
    pub smoke: bool,
    /// Where to write the JSON report.
    pub out_path: std::path::PathBuf,
}

const C: f64 = 0.6;
/// Truncation depth: at `C = 0.6` the remaining series mass past `K = 8`
/// is `Σ_{l>8} 0.4·0.3^l ≈ 4e-5` — close to converged, and representative
/// of a serving configuration (deeper than the quick-look `K = 5`).
const K: usize = 8;
const TOP_K: usize = 20;
const SEED: u64 = 0x0BE7_C0DE;
/// Queries per call on the `lane_width` axis.
const CALL_SIZES: [usize; 8] = [1, 2, 3, 4, 5, 6, 8, 16];
/// The lane widths the engine builds.
const WIDTHS: [usize; 2] = [1, 8];

/// Per-mode timing: one latency sample per timed unit (query or batch),
/// `queries_per_unit` queries amortized over each sample.
struct ModeStats {
    queries: usize,
    total: Duration,
    /// Per-query amortized latency samples, sorted ascending.
    lat_us: Vec<f64>,
}

impl ModeStats {
    fn collect(samples: Vec<(Duration, usize)>) -> Self {
        let queries = samples.iter().map(|&(_, q)| q).sum();
        let total = samples.iter().map(|&(d, _)| d).sum();
        let mut lat_us: Vec<f64> =
            samples.iter().map(|&(d, q)| d.as_secs_f64() * 1e6 / q.max(1) as f64).collect();
        lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ModeStats { queries, total, lat_us }
    }

    fn qps(&self) -> f64 {
        self.queries as f64 / self.total.as_secs_f64().max(1e-12)
    }

    /// Nearest-rank percentile: the `⌈p·len⌉`-th smallest sample.
    fn percentile_us(&self, p: f64) -> f64 {
        if self.lat_us.is_empty() {
            return 0.0;
        }
        let rank = (self.lat_us.len() as f64 * p).ceil() as usize;
        self.lat_us[rank.saturating_sub(1).min(self.lat_us.len() - 1)]
    }

    fn json(&self) -> String {
        format!(
            "{{\"queries\": {}, \"total_ms\": {:.3}, \"qps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            self.queries,
            self.total.as_secs_f64() * 1e3,
            self.qps(),
            self.percentile_us(0.50),
            self.percentile_us(0.99),
        )
    }
}

struct DatasetReport {
    name: &'static str,
    divisor: usize,
    nodes: usize,
    edges: usize,
    engine_build_ms: f64,
    naive: ModeStats,
    engine: ModeStats,
    topk: ModeStats,
    batched: ModeStats,
    /// `lanes[width][size]`: CPU ms per query on the `lane_width` axis,
    /// indexed like [`WIDTHS`] and [`CALL_SIZES`].
    lanes: [[f64; CALL_SIZES.len()]; WIDTHS.len()],
}

impl DatasetReport {
    fn speedup_engine_vs_naive(&self) -> f64 {
        self.engine.qps() / self.naive.qps().max(1e-12)
    }

    fn speedup_batched_vs_engine(&self) -> f64 {
        self.batched.qps() / self.engine.qps().max(1e-12)
    }
}

/// Runs `reps` passes of one mode's full workload and keeps the fastest
/// pass by total time.
fn best_of(reps: usize, mut pass: impl FnMut() -> Vec<(Duration, usize)>) -> ModeStats {
    (0..reps.max(1))
        .map(|_| ModeStats::collect(pass()))
        .min_by(|a, b| a.total.cmp(&b.total))
        .expect("at least one pass")
}

/// Which clock the `lane_width` axis reads: thread CPU time where
/// available, wall clock otherwise.
fn lane_clock() -> &'static str {
    if thread_cpu_time().is_some() {
        "thread_cpu"
    } else {
        "wall"
    }
}

/// Time of `f` on the `lane_width` clock.
fn lane_timed(f: impl FnOnce()) -> Duration {
    let Some(start) = thread_cpu_time() else { return timed(f).1 };
    f();
    thread_cpu_time().map_or(Duration::ZERO, |end| end.saturating_sub(start))
}

/// Shortest measured window on the `lane_width` axis, so each cell
/// averages many calls.
const LANE_WINDOW: Duration = Duration::from_millis(100);

/// Windows per `lane_width` cell; the cell reports their median.
const LANE_WINDOWS: usize = 7;

/// The `lane_width` axis for one engine: for each width and call size,
/// the median of [`LANE_WINDOWS`] windows, each running whole passes over
/// `queries` (cut into calls of that size) for at least [`LANE_WINDOW`],
/// in ms per query. Each round measures one window of every cell, in an
/// order rotated by one cell per round, so a drift in machine speed lands
/// on every cell alike instead of on the call sizes measured during it.
fn lane_axis(engine: &QueryEngine, queries: &[NodeId]) -> [[f64; CALL_SIZES.len()]; WIDTHS.len()] {
    let cells: Vec<(usize, usize)> =
        (0..WIDTHS.len()).flat_map(|w| (0..CALL_SIZES.len()).map(move |s| (w, s))).collect();
    let pass = |(w, s): (usize, usize)| {
        for call in queries.chunks(CALL_SIZES[s]) {
            std::hint::black_box(engine.top_k_batch_at_width(call, TOP_K, WIDTHS[w]));
        }
    };
    // A warm-up pass per cell sizes its windows.
    let passes: Vec<usize> = cells
        .iter()
        .map(|&cell| {
            let once = timed(|| pass(cell)).1.as_secs_f64().max(1e-9);
            (LANE_WINDOW.as_secs_f64() / once).ceil().max(1.0) as usize
        })
        .collect();
    let mut windows = vec![Vec::with_capacity(LANE_WINDOWS); cells.len()];
    for round in 0..LANE_WINDOWS {
        for i in (0..cells.len()).map(|i| (i + round) % cells.len()) {
            let t = lane_timed(|| (0..passes[i]).for_each(|_| pass(cells[i])));
            windows[i].push(t.as_secs_f64() * 1e3 / (passes[i] * queries.len()) as f64);
        }
    }
    let mut axis = [[0.0; CALL_SIZES.len()]; WIDTHS.len()];
    for (&(w, s), mut ms) in cells.iter().zip(windows) {
        ms.sort_by(f64::total_cmp);
        axis[w][s] = ms[ms.len() / 2];
    }
    axis
}

/// Runs the benchmark, prints a summary table, and writes the JSON report.
pub fn run_query_bench(opts: &QueryBenchOptions) {
    // (dataset, divisor, total queries, batch size): full mode uses the
    // paper's 500 queries per graph on stand-ins with n ≥ 10k; smoke mode
    // uses one tiny slice so CI pays seconds.
    // Smoke needs enough queries (and batches) per pass for stable
    // medians: the CI regression gate compares p50s across runs, and a
    // 3-batch sample's median drifts far more than the 25% threshold.
    let plan: Vec<(DatasetId, usize, usize, usize)> = if opts.smoke {
        vec![(DatasetId::D05, 2, 120, 16)]
    } else {
        vec![
            (DatasetId::CitHepTh, 2, 500, 64),
            (DatasetId::Dblp, 1, 500, 64),
            (DatasetId::WebGoogle, 64, 500, 64),
        ]
    };
    let params = SimStarParams { c: C, iterations: K };
    let mut reports = Vec::new();
    println!(
        "QUERY ENGINE BENCH (c={C}, k={K}, top-k={TOP_K}, threads={})",
        ssr_linalg::available_threads()
    );
    println!(
        "{:<11} {:>7} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "dataset", "n", "m", "naive", "engine", "topk", "batched", "eng/nv", "bat/eng"
    );
    for &(id, divisor, n_queries, batch_size) in &plan {
        let d = load(id, divisor);
        let g = &d.graph;
        let queries = {
            let mut q = select_queries(g, 5, n_queries.div_ceil(5), SEED);
            q.truncate(n_queries);
            q
        };
        let batches = {
            let mut b = select_query_batches(g, 5, n_queries.div_ceil(5), batch_size, SEED);
            let mut kept = 0usize;
            b.retain(|batch| {
                let keep = kept < queries.len();
                kept += batch.len();
                keep
            });
            b
        };

        // Each mode runs `reps` passes over the full workload and keeps
        // the fastest pass (criterion-style: the minimum is the least
        // noise-contaminated estimate of the true cost; the first pass
        // doubles as warmup).
        let reps = 3;
        let (engine, build) = timed(|| QueryEngine::new(g, params));

        // naive: the pre-engine cost — CSR rebuild + dense sweep per call.
        let naive = best_of(reps, || {
            queries.iter().map(|&q| (timed(|| single_source_dense(g, q, &params)).1, 1)).collect()
        });

        // engine: amortized sparse-frontier queries into a reused buffer.
        let mut row = vec![0.0; g.node_count()];
        engine.query_into(queries[0], &mut row); // scratch warmup
        let engine_stats = best_of(reps, || {
            queries.iter().map(|&q| (timed(|| engine.query_into(q, &mut row)).1, 1)).collect()
        });

        // engine top-k: the sweep ranked in one pass over its lane.
        let topk = best_of(reps, || {
            queries.iter().map(|&q| (timed(|| engine.top_k(q, TOP_K)).1, 1)).collect()
        });

        // batched: blocked lanes; warm the θ-direction kernel first.
        drop(engine.query_batch(&batches[0]));
        let batched = best_of(reps, || {
            batches.iter().map(|b| (timed(|| engine.query_batch(b)).1, b.len())).collect()
        });

        // lane_width: the same queries, every chunk forced to each width.
        let lanes = lane_axis(&engine, &queries);

        let report = DatasetReport {
            name: id.name(),
            divisor,
            nodes: g.node_count(),
            edges: g.edge_count(),
            engine_build_ms: build.as_secs_f64() * 1e3,
            naive,
            engine: engine_stats,
            topk,
            batched,
            lanes,
        };
        println!(
            "{:<11} {:>7} {:>8} {:>8.0}/s {:>8.0}/s {:>8.0}/s {:>8.0}/s {:>7.1}x {:>7.1}x",
            report.name,
            report.nodes,
            report.edges,
            report.naive.qps(),
            report.engine.qps(),
            report.topk.qps(),
            report.batched.qps(),
            report.speedup_engine_vs_naive(),
            report.speedup_batched_vs_engine(),
        );
        for (width, row) in WIDTHS.iter().zip(&report.lanes) {
            let cells: Vec<String> = row.iter().map(|ms| format!("{ms:.3}")).collect();
            println!(
                "  lane_width {width:>2} ms/query at {CALL_SIZES:?} queries/call: {}",
                cells.join(" ")
            );
        }
        reports.push((report, batch_size));
    }
    let json = render_json(opts.smoke, &reports);
    std::fs::write(&opts.out_path, json).expect("write bench JSON");
    println!("wrote {}", opts.out_path.display());
}

fn render_json(smoke: bool, reports: &[(DatasetReport, usize)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ssr-bench/query_engine/v1\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(
        s,
        "  \"params\": {{\"c\": {C}, \"k\": {K}, \"top_k\": {TOP_K}, \"seed\": {SEED}}},"
    );
    let _ = writeln!(s, "  \"threads\": {},", ssr_linalg::available_threads());
    s.push_str("  \"datasets\": [\n");
    for (i, (r, batch_size)) in reports.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"divisor\": {},", r.divisor);
        let _ = writeln!(s, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(s, "      \"edges\": {},", r.edges);
        let _ = writeln!(s, "      \"batch_size\": {batch_size},");
        let _ = writeln!(s, "      \"engine_build_ms\": {:.3},", r.engine_build_ms);
        s.push_str("      \"modes\": {\n");
        let _ = writeln!(s, "        \"naive\": {},", r.naive.json());
        let _ = writeln!(s, "        \"engine\": {},", r.engine.json());
        let _ = writeln!(s, "        \"engine_topk\": {},", r.topk.json());
        let _ = writeln!(s, "        \"batched\": {}", r.batched.json());
        s.push_str("      },\n");
        let _ =
            writeln!(s, "      \"speedup_engine_vs_naive\": {:.2},", r.speedup_engine_vs_naive());
        let _ = writeln!(
            s,
            "      \"speedup_batched_vs_engine\": {:.2},",
            r.speedup_batched_vs_engine()
        );
        s.push_str(&lane_json(&r.lanes));
        s.push_str(if i + 1 < reports.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `lane_width` object of one dataset: CPU ms per query by width
/// (`w1`/`w8`), one entry per call size.
fn lane_json(lanes: &[[f64; CALL_SIZES.len()]; WIDTHS.len()]) -> String {
    let mut s = String::new();
    s.push_str("      \"lane_width\": {\n");
    let _ = writeln!(s, "        \"unit\": \"ms_per_query\", \"clock\": \"{}\",", lane_clock());
    let _ = writeln!(s, "        \"queries_per_call\": {CALL_SIZES:?},");
    let rows: Vec<String> = WIDTHS
        .iter()
        .zip(lanes)
        .map(|(w, row)| {
            let cells: Vec<String> = row.iter().map(|ms| format!("{ms:.3}")).collect();
            format!("\"w{w}\": [{}]", cells.join(", "))
        })
        .collect();
    let _ = writeln!(s, "        {}", rows.join(",\n        "));
    s.push_str("      }\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_stats_percentiles_and_qps() {
        let s = ModeStats::collect(vec![
            (Duration::from_micros(100), 1),
            (Duration::from_micros(300), 1),
            (Duration::from_micros(200), 1),
            (Duration::from_micros(400), 1),
        ]);
        assert_eq!(s.queries, 4);
        // Nearest-rank: p50 of 4 samples is the 2nd smallest.
        assert!((s.percentile_us(0.5) - 200.0).abs() < 1e-9);
        assert!((s.percentile_us(0.99) - 400.0).abs() < 1e-9);
        assert!((s.qps() - 4000.0).abs() < 1.0);
    }

    #[test]
    fn lane_json_is_valid_json() {
        let mut lanes = [[0.0; CALL_SIZES.len()]; WIDTHS.len()];
        lanes[1][4] = 1.25;
        let doc = format!("{{\n{}}}", lane_json(&lanes).trim_end());
        let parsed = crate::check::parse_json(&doc).expect("valid JSON");
        let axis = parsed.get("lane_width").expect("lane_width object");
        let w8 = axis.get("w8").and_then(|w| w.as_arr());
        assert_eq!(w8.map(|w| w.len()), Some(CALL_SIZES.len()));
        assert_eq!(w8.and_then(|w| w[4].as_num()), Some(1.25));
    }

    #[test]
    fn batch_latency_amortizes_per_query() {
        let s = ModeStats::collect(vec![(Duration::from_micros(640), 64)]);
        assert_eq!(s.queries, 64);
        assert!((s.percentile_us(0.5) - 10.0).abs() < 1e-9);
    }
}
