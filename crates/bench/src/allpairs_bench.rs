//! All-pairs perf trajectory — `BENCH_allpairs.json`, the sibling of the
//! query-engine benchmark ([`crate::query_bench`]).
//!
//! Five execution modes per dataset:
//!
//! * **serial** — [`simrank_star::geometric::iterate_serial`]: the textbook
//!   single-threaded row-at-a-time sweep (the pre-blocking baseline);
//! * **blocked** — [`simrank_star::AllPairsEngine::full`] over the plain
//!   kernel: 16-lane blocked kernel application + fused update, row blocks
//!   dispatched over worker threads;
//! * **memo** — [`simrank_star::geometric::Memoized::run`]: the same
//!   sweep over the edge-concentrated kernel (Algorithm 1's memoization),
//!   compression time ([`simrank_star::geometric::Memoized::new`])
//!   reported separately;
//! * **topk** — [`simrank_star::AllPairsEngine::top_k_all`]: streaming
//!   per-block ranking that never materializes the `n²` matrix;
//! * **subset** — [`simrank_star::AllPairsEngine::rows`] on an
//!   in-degree-stratified row sample (the partial-pairs path).
//!
//! Each mode runs its workload `reps` times; the JSON reports the
//! minimum, median, and p95 pass time (nearest-rank over passes). The
//! regression gate compares **medians**; the headline speedup fields use
//! the **minimum** (criterion-style: the least noise-contaminated
//! estimate of true cost, the same convention as `exp_query_engine`'s
//! best-pass). The emitted schema mirrors `BENCH_query_engine.json` (see
//! README "Perf trajectory"); CI's scheduled job re-runs `--smoke` and
//! gates it against the committed baseline with `bench_check`.

use crate::timed;
use simrank_star::{geometric, AllPairsEngine, SimStarParams};
use ssr_compress::CompressOptions;
use ssr_datasets::{load, DatasetId};
use ssr_eval::metrics::top_k_overlap;
use ssr_eval::queries::select_queries;
use std::fmt::Write as _;
use std::time::Duration;

/// Configuration of one bench run.
pub struct AllPairsBenchOptions {
    /// Tiny dataset + fewer reps: seconds, not minutes (the CI mode).
    pub smoke: bool,
    /// Where to write the JSON report.
    pub out_path: std::path::PathBuf,
}

const C: f64 = 0.6;
/// Same truncation depth as the query-engine trajectory.
const K: usize = 8;
const TOP_K: usize = 20;
const SUBSET_ROWS: usize = 64;
const SEED: u64 = 0x0BE7_C0DE;

/// Per-mode pass times, sorted ascending.
struct ModeStats {
    runs: Vec<Duration>,
}

impl ModeStats {
    fn collect(mut runs: Vec<Duration>) -> Self {
        runs.sort();
        ModeStats { runs }
    }

    fn total_ms(&self) -> f64 {
        self.runs.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3
    }

    /// Nearest-rank percentile over the pass times.
    fn percentile_ms(&self, p: f64) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let rank = (self.runs.len() as f64 * p).ceil() as usize;
        self.runs[rank.saturating_sub(1).min(self.runs.len() - 1)].as_secs_f64() * 1e3
    }

    fn median_ms(&self) -> f64 {
        self.percentile_ms(0.50)
    }

    /// Fastest pass — the least noise-contaminated estimate of true cost.
    fn min_ms(&self) -> f64 {
        self.runs.first().map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    fn json(&self) -> String {
        format!(
            "{{\"runs\": {}, \"total_ms\": {:.3}, \"min_ms\": {:.3}, \"median_ms\": {:.3}, \"p95_ms\": {:.3}}}",
            self.runs.len(),
            self.total_ms(),
            self.min_ms(),
            self.median_ms(),
            self.percentile_ms(0.95),
        )
    }
}

/// Runs `reps` timed passes of `f` (first pass doubles as warmup — it is
/// kept: the median absorbs it).
fn passes(reps: usize, mut f: impl FnMut()) -> ModeStats {
    ModeStats::collect((0..reps.max(1)).map(|_| timed(&mut f).1).collect())
}

struct DatasetReport {
    name: &'static str,
    divisor: usize,
    nodes: usize,
    edges: usize,
    engine_build_ms: f64,
    memo_build_ms: f64,
    compression_ratio: f64,
    compression_bytes: usize,
    concentrators: usize,
    topk_agreement: f64,
    serial: ModeStats,
    blocked: ModeStats,
    memo: ModeStats,
    topk: ModeStats,
    subset: ModeStats,
}

impl DatasetReport {
    fn speedup_blocked_vs_serial(&self) -> f64 {
        self.serial.min_ms() / self.blocked.min_ms().max(1e-9)
    }

    fn speedup_memo_vs_blocked(&self) -> f64 {
        self.blocked.min_ms() / self.memo.min_ms().max(1e-9)
    }
}

/// Runs the benchmark, prints a summary table, and writes the JSON report.
pub fn run_allpairs_bench(opts: &AllPairsBenchOptions) {
    // (dataset, divisor, reps): sizes chosen so the serial baseline stays
    // in seconds; Web-Google's stand-in compresses hardest (R-MAT shares
    // in-sets), the memoized kernel's best case.
    // Smoke needs enough work per pass (hundreds of ms) and enough passes
    // for a stable median: the regression gate compares medians across
    // runs, and a tiny workload's median drifts far more than 25% on a
    // busy runner.
    let plan: Vec<(DatasetId, usize, usize)> = if opts.smoke {
        vec![(DatasetId::D05, 2, 5)]
    } else {
        vec![(DatasetId::CitHepTh, 8, 7), (DatasetId::WebGoogle, 213, 3)]
    };
    let params = SimStarParams { c: C, iterations: K };
    let mut reports = Vec::new();
    println!(
        "ALL-PAIRS BENCH (c={C}, k={K}, top-k={TOP_K}, subset={SUBSET_ROWS}, threads={})",
        ssr_linalg::available_threads()
    );
    println!(
        "{:<11} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "dataset", "n", "m", "serial", "blocked", "memo", "topk", "subset", "blk/ser", "mem/blk"
    );
    for &(id, divisor, reps) in &plan {
        let d = load(id, divisor);
        let g = &d.graph;
        let n = g.node_count();

        let (engine, build) = timed(|| AllPairsEngine::new(g, params));
        let (memoized, memo_build) =
            timed(|| geometric::Memoized::new(g, &CompressOptions::default()));
        let report_comp = memoized.kernel().compressed().size_report();

        let serial = passes(reps, || {
            std::hint::black_box(geometric::iterate_serial(g, &params));
        });
        let blocked = passes(reps, || {
            std::hint::black_box(engine.full());
        });
        let memo = passes(reps, || {
            std::hint::black_box(memoized.run(&params));
        });
        let topk = passes(reps, || {
            std::hint::black_box(engine.top_k_all(TOP_K));
        });
        let subset_rows = {
            let mut q = select_queries(g, 5, SUBSET_ROWS.div_ceil(5), SEED);
            q.truncate(SUBSET_ROWS.min(n));
            q
        };
        let subset = passes(reps, || {
            std::hint::black_box(engine.rows(&subset_rows));
        });

        // Sanity: the streaming ranking names the same items as the
        // materialized matrix (up to near-ties); recorded in the JSON so a
        // silent ranking regression is visible in the trajectory.
        let full = engine.full();
        let streamed = engine.top_k_all(TOP_K);
        let probe = (0..n).step_by((n / 16).max(1));
        let mut agreement = 0.0;
        let mut probed = 0usize;
        for q in probe {
            let a: Vec<u32> = streamed[q].iter().map(|&(v, _)| v).collect();
            let b: Vec<u32> = full.top_k(q as u32, TOP_K).iter().map(|&(v, _)| v).collect();
            agreement += top_k_overlap(&a, &b);
            probed += 1;
        }
        let topk_agreement = agreement / probed.max(1) as f64;

        let report = DatasetReport {
            name: id.name(),
            divisor,
            nodes: n,
            edges: g.edge_count(),
            engine_build_ms: build.as_secs_f64() * 1e3,
            memo_build_ms: memo_build.as_secs_f64() * 1e3,
            compression_ratio: report_comp.ratio,
            compression_bytes: report_comp.estimated_bytes,
            concentrators: report_comp.concentrators,
            topk_agreement,
            serial,
            blocked,
            memo,
            topk,
            subset,
        };
        println!(
            "{:<11} {:>6} {:>8} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.1}ms {:>7.2}x {:>7.2}x",
            report.name,
            report.nodes,
            report.edges,
            report.serial.min_ms(),
            report.blocked.min_ms(),
            report.memo.min_ms(),
            report.topk.min_ms(),
            report.subset.min_ms(),
            report.speedup_blocked_vs_serial(),
            report.speedup_memo_vs_blocked(),
        );
        reports.push(report);
    }
    let json = render_json(opts.smoke, &reports);
    std::fs::write(&opts.out_path, json).expect("write bench JSON");
    println!("wrote {}", opts.out_path.display());
}

fn render_json(smoke: bool, reports: &[DatasetReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ssr-bench/allpairs/v1\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(
        s,
        "  \"params\": {{\"c\": {C}, \"k\": {K}, \"top_k\": {TOP_K}, \"subset_rows\": {SUBSET_ROWS}, \"seed\": {SEED}}},"
    );
    let _ = writeln!(s, "  \"threads\": {},", ssr_linalg::available_threads());
    s.push_str("  \"datasets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"divisor\": {},", r.divisor);
        let _ = writeln!(s, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(s, "      \"edges\": {},", r.edges);
        let _ = writeln!(s, "      \"engine_build_ms\": {:.3},", r.engine_build_ms);
        let _ = writeln!(s, "      \"memo_build_ms\": {:.3},", r.memo_build_ms);
        let _ = writeln!(
            s,
            "      \"compression\": {{\"ratio\": {:.4}, \"bytes\": {}, \"concentrators\": {}}},",
            r.compression_ratio, r.compression_bytes, r.concentrators
        );
        let _ = writeln!(s, "      \"topk_agreement\": {:.4},", r.topk_agreement);
        s.push_str("      \"modes\": {\n");
        let _ = writeln!(s, "        \"serial\": {},", r.serial.json());
        let _ = writeln!(s, "        \"blocked\": {},", r.blocked.json());
        let _ = writeln!(s, "        \"memo\": {},", r.memo.json());
        let _ = writeln!(s, "        \"topk\": {},", r.topk.json());
        let _ = writeln!(s, "        \"subset\": {}", r.subset.json());
        s.push_str("      },\n");
        let _ = writeln!(
            s,
            "      \"speedup_blocked_vs_serial\": {:.2},",
            r.speedup_blocked_vs_serial()
        );
        let _ =
            writeln!(s, "      \"speedup_memo_vs_blocked\": {:.2}", r.speedup_memo_vs_blocked());
        s.push_str(if i + 1 < reports.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_stats_median_and_p95() {
        let s = ModeStats::collect(vec![
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(20),
        ]);
        assert!((s.median_ms() - 20.0).abs() < 1e-9);
        assert!((s.percentile_ms(0.95) - 30.0).abs() < 1e-9);
        assert!((s.total_ms() - 60.0).abs() < 1e-6);
        assert!((s.min_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn json_shape_has_schema_and_modes() {
        let stats = || ModeStats::collect(vec![Duration::from_millis(5)]);
        let r = DatasetReport {
            name: "D05",
            divisor: 4,
            nodes: 10,
            edges: 20,
            engine_build_ms: 1.0,
            memo_build_ms: 2.0,
            compression_ratio: 0.25,
            compression_bytes: 1024,
            concentrators: 3,
            topk_agreement: 1.0,
            serial: stats(),
            blocked: stats(),
            memo: stats(),
            topk: stats(),
            subset: stats(),
        };
        let json = render_json(true, &[r]);
        for needle in [
            "ssr-bench/allpairs/v1",
            "\"serial\"",
            "\"blocked\"",
            "\"memo\"",
            "\"topk\"",
            "\"subset\"",
            "\"min_ms\"",
            "\"median_ms\"",
            "\"speedup_blocked_vs_serial\"",
            "\"speedup_memo_vs_blocked\"",
            "\"compression\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
