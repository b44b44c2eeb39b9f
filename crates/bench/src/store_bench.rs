//! Graph-store load trajectory — `BENCH_store.json`.
//!
//! The question this benchmark answers: how much faster does a graph get
//! into memory from the `.ssg` binary store than from the text edge list
//! every layer used to parse? Three load modes per dataset:
//!
//! * **text_parse** — [`ssr_graph::io::read_edge_list_file`]: the
//!   streaming tokenizer + builder sort (the pre-store ingest path);
//! * **store_full** — [`ssr_store::StoreReader::open`] +
//!   [`ssr_store::StoreReader::load_full`]: header + checksummed section
//!   reads + gap decode straight into CSR (no parse, no sort);
//! * **store_out** — [`ssr_store::StoreReader::load_out_only`]: the
//!   section-skipping variant for forward-only workloads;
//! * **random_open** — [`ssr_store::RandomAccessStore::open`] on a
//!   BFS-permuted v2 store: the streaming validation scan that never
//!   materializes a CSR;
//! * **query_csr / query_mmap** — deterministic single-source top-k
//!   through [`simrank_star::QueryEngine`] over the full in-memory CSR vs
//!   the mmap-backed random-access store (results are asserted
//!   bit-identical; the access backing's resident bytes are asserted
//!   under half the CSR footprint).
//!
//! Alongside wall times the JSON records the size story: text bytes vs
//! store bytes, stored adjacency bits per id vs the 32-bit in-memory id,
//! and the in-memory CSR footprint ([`ssr_graph::DiGraph::estimated_bytes`]).
//! The schema follows `BENCH_allpairs.json` (`median_ms`-keyed modes), so
//! `bench_check` gates it with no new code; the headline field is
//! `speedup_store_vs_text` (minimum-based, criterion-style, like the
//! other trajectories' speedups).

use crate::timed;
use simrank_star::{QueryEngine, SimStarParams};
use ssr_datasets::{load, DatasetId};
use ssr_graph::DiGraph;
use ssr_store::{RandomAccessStore, StoreReader, StoreWriter};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one bench run.
pub struct StoreBenchOptions {
    /// Tiny dataset + fewer reps: seconds, not minutes (the CI mode).
    pub smoke: bool,
    /// Where to write the JSON report.
    pub out_path: PathBuf,
}

const SMOKE_PLAN: &[(DatasetId, usize, usize)] = &[(DatasetId::CitHepTh, 4, 9)];
const FULL_PLAN: &[(DatasetId, usize, usize)] =
    &[(DatasetId::CitHepTh, 1, 7), (DatasetId::WebGoogle, 16, 5)];

/// Per-mode pass times, sorted ascending (same statistics as the
/// all-pairs trajectory: the gate reads medians, headlines use minima).
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

    fn percentile_ms(&self, p: f64) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let rank = (self.runs.len() as f64 * p).ceil() as usize;
        self.runs[rank.saturating_sub(1).min(self.runs.len() - 1)].as_secs_f64() * 1e3
    }

    fn min_ms(&self) -> f64 {
        self.runs.first().map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    fn json(&self) -> String {
        format!(
            "{{\"runs\": {}, \"total_ms\": {:.3}, \"min_ms\": {:.3}, \"median_ms\": {:.3}, \"p95_ms\": {:.3}}}",
            self.runs.len(),
            self.total_ms(),
            self.min_ms(),
            self.percentile_ms(0.50),
            self.percentile_ms(0.95),
        )
    }
}

fn passes(reps: usize, mut f: impl FnMut()) -> ModeStats {
    ModeStats::collect((0..reps.max(1)).map(|_| timed(&mut f).1).collect())
}

struct DatasetReport {
    name: &'static str,
    divisor: usize,
    nodes: usize,
    edges: usize,
    text_bytes: u64,
    store_bytes: u64,
    memory_bytes: usize,
    bits_per_id: f64,
    v1_bytes: u64,
    v1_bits_per_id: f64,
    perm_bytes: u64,
    perm_bits_per_id: f64,
    store_resident_bytes: usize,
    text_parse: ModeStats,
    store_full: ModeStats,
    store_out: ModeStats,
    random_open: ModeStats,
    query_csr: ModeStats,
    query_mmap: ModeStats,
}

impl DatasetReport {
    fn speedup_store_vs_text(&self) -> f64 {
        self.text_parse.min_ms() / self.store_full.min_ms().max(1e-9)
    }

    fn size_ratio(&self) -> f64 {
        self.store_bytes as f64 / self.text_bytes.max(1) as f64
    }

    /// Resident graph bytes of the random-access backing relative to the
    /// full in-memory CSR — the memory-bounded-serving headline.
    fn resident_ratio(&self) -> f64 {
        self.store_resident_bytes as f64 / self.memory_bytes.max(1) as f64
    }
}

/// Runs the benchmark, prints a summary table, and writes the JSON report.
pub fn run_store_bench(opts: &StoreBenchOptions) {
    let plan = if opts.smoke { SMOKE_PLAN } else { FULL_PLAN };
    let dir = std::env::temp_dir().join(format!("ssr_store_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let mut reports = Vec::new();
    println!("STORE BENCH (text parse vs .ssg load, v1 vs v2 vs permuted v2)");
    println!(
        "{:<11} {:>7} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "dataset",
        "n",
        "m",
        "text",
        "store",
        "store_out",
        "spd",
        "v1 b/id",
        "v2 b/id",
        "perm",
        "resid"
    );
    for &(id, divisor, reps) in plan {
        let d = load(id, divisor);
        let g = &d.graph;
        let text_path = dir.join(format!("{}-div{divisor}.txt", id.name()));
        ssr_graph::io::write_edge_list_file(g, &text_path).expect("write text edge list");
        let ssg_path = dir.join(format!("{}-div{divisor}.ssg", id.name()));
        StoreWriter::new(g)
            .meta(ssr_store::meta_keys::DATASET, id.name())
            .meta(ssr_store::meta_keys::DIVISOR, divisor.to_string())
            .write_file(&ssg_path)
            .expect("write store");
        let v1_path = dir.join(format!("{}-div{divisor}.v1.ssg", id.name()));
        StoreWriter::new(g)
            .version(ssr_store::FORMAT_VERSION_V1)
            .write_file(&v1_path)
            .expect("write v1 store");
        let perm_path = dir.join(format!("{}-div{divisor}.perm.ssg", id.name()));
        StoreWriter::new(g)
            .permutation(ssr_graph::perm::bfs_order(g), "bfs")
            .write_file(&perm_path)
            .expect("write permuted store");

        let text_parse = passes(reps, || {
            std::hint::black_box(load_text(&text_path));
        });
        let store_full = passes(reps, || {
            std::hint::black_box(load_store(&ssg_path));
        });
        let store_out = passes(reps, || {
            std::hint::black_box(
                StoreReader::open(&ssg_path)
                    .expect("open store")
                    .load_out_only()
                    .expect("decode out section"),
            );
        });
        // Random-access open: the streaming validation scan over the
        // permuted store — no CSR is ever materialized.
        let random_open = passes(reps, || {
            std::hint::black_box(RandomAccessStore::open(&perm_path).expect("open random-access"));
        });

        // Sanity: both paths hand the engines the identical graph, and the
        // permuted store maps ids back to the original labels.
        assert_eq!(&load_store(&ssg_path), g, "store round-trip must be exact");
        assert_eq!(&load_text(&text_path), g, "text round-trip must be exact");
        assert_eq!(&load_store(&perm_path), g, "permuted store must map ids back");

        // Single-source queries: full-CSR engine vs the mmap-backed engine
        // over the permuted store. Top-k must agree bit for bit; the access
        // backing must hold well under half the CSR.
        let queries = ssr_eval::queries::select_queries(g, 4, 1, 7);
        let query_csr = passes(reps, || {
            let qe = QueryEngine::new(g, SimStarParams::default());
            for &q in &queries {
                std::hint::black_box(qe.top_k(q, 10));
            }
        });
        let query_mmap = passes(reps, || {
            let store = RandomAccessStore::open(&perm_path).expect("open random-access");
            let qe = QueryEngine::with_access(
                Arc::new(store),
                SimStarParams::default(),
                Default::default(),
            );
            for &q in &queries {
                std::hint::black_box(qe.top_k(q, 10));
            }
        });
        let store = Arc::new(RandomAccessStore::open(&perm_path).expect("open random-access"));
        let store_resident_bytes = store.resident_bytes();
        let mem_engine = QueryEngine::new(g, SimStarParams::default());
        let acc_engine =
            QueryEngine::with_access(store, SimStarParams::default(), Default::default());
        for &q in &queries {
            assert_eq!(
                mem_engine.top_k(q, 10),
                acc_engine.top_k(q, 10),
                "top-k must be bit-identical across backings (query {q})"
            );
        }

        let reader = StoreReader::open(&ssg_path).expect("reopen store");
        let v1_reader = StoreReader::open(&v1_path).expect("reopen v1 store");
        let perm_reader = StoreReader::open(&perm_path).expect("reopen permuted store");
        let report = DatasetReport {
            name: id.name(),
            divisor,
            nodes: g.node_count(),
            edges: g.edge_count(),
            text_bytes: std::fs::metadata(&text_path).expect("stat text").len(),
            store_bytes: reader.file_len(),
            memory_bytes: g.estimated_bytes(),
            bits_per_id: reader.bits_per_edge(),
            v1_bytes: v1_reader.file_len(),
            v1_bits_per_id: v1_reader.bits_per_edge(),
            perm_bytes: perm_reader.file_len(),
            perm_bits_per_id: perm_reader.bits_per_edge(),
            store_resident_bytes,
            text_parse,
            store_full,
            store_out,
            random_open,
            query_csr,
            query_mmap,
        };
        assert!(
            report.resident_ratio() < 0.5,
            "random-access backing must stay under half the CSR: {} vs {}",
            report.store_resident_bytes,
            report.memory_bytes
        );
        println!(
            "{:<11} {:>7} {:>8} {:>8.1}ms {:>8.1}ms {:>8.1}ms {:>7.1}x {:>8.2} {:>8.2} {:>8.2} {:>7.1}%",
            report.name,
            report.nodes,
            report.edges,
            report.text_parse.min_ms(),
            report.store_full.min_ms(),
            report.store_out.min_ms(),
            report.speedup_store_vs_text(),
            report.v1_bits_per_id,
            report.bits_per_id,
            report.perm_bits_per_id,
            100.0 * report.resident_ratio(),
        );
        reports.push(report);
    }
    let json = render_json(opts.smoke, &reports);
    std::fs::write(&opts.out_path, json).expect("write bench JSON");
    println!("wrote {}", opts.out_path.display());
    std::fs::remove_dir_all(&dir).ok();
}

fn load_text(path: &Path) -> DiGraph {
    ssr_graph::io::read_edge_list_file(path).expect("parse text edge list")
}

fn load_store(path: &Path) -> DiGraph {
    StoreReader::open(path).expect("open store").load_full().expect("decode store")
}

fn render_json(smoke: bool, reports: &[DatasetReport]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"ssr-bench/store/v1\",\n");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    s.push_str("  \"datasets\": [\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"divisor\": {},", r.divisor);
        let _ = writeln!(s, "      \"nodes\": {},", r.nodes);
        let _ = writeln!(s, "      \"edges\": {},", r.edges);
        let _ = writeln!(
            s,
            "      \"sizes\": {{\"text_bytes\": {}, \"store_bytes\": {}, \"memory_bytes\": {}, \"bits_per_id\": {:.2}, \"store_vs_text\": {:.4}}},",
            r.text_bytes, r.store_bytes, r.memory_bytes, r.bits_per_id, r.size_ratio()
        );
        let _ = writeln!(
            s,
            "      \"versions\": {{\"v1_bytes\": {}, \"v1_bits_per_id\": {:.2}, \"v2_bytes\": {}, \"v2_bits_per_id\": {:.2}, \"perm_bytes\": {}, \"perm_bits_per_id\": {:.2}}},",
            r.v1_bytes, r.v1_bits_per_id, r.store_bytes, r.bits_per_id, r.perm_bytes, r.perm_bits_per_id
        );
        let _ = writeln!(
            s,
            "      \"memory\": {{\"csr_bytes\": {}, \"store_resident_bytes\": {}, \"resident_ratio\": {:.4}, \"query_topk_identical\": true}},",
            r.memory_bytes, r.store_resident_bytes, r.resident_ratio()
        );
        s.push_str("      \"modes\": {\n");
        let _ = writeln!(s, "        \"text_parse\": {},", r.text_parse.json());
        let _ = writeln!(s, "        \"store_full\": {},", r.store_full.json());
        let _ = writeln!(s, "        \"store_out\": {},", r.store_out.json());
        let _ = writeln!(s, "        \"random_open\": {},", r.random_open.json());
        let _ = writeln!(s, "        \"query_csr\": {},", r.query_csr.json());
        let _ = writeln!(s, "        \"query_mmap\": {}", r.query_mmap.json());
        s.push_str("      },\n");
        let _ = writeln!(s, "      \"speedup_store_vs_text\": {:.2}", r.speedup_store_vs_text());
        s.push_str(if i + 1 < reports.len() { "    },\n" } else { "    }\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_has_schema_modes_and_sizes() {
        let stats = || ModeStats::collect(vec![Duration::from_millis(5)]);
        let r = DatasetReport {
            name: "CitHepTh",
            divisor: 4,
            nodes: 10,
            edges: 20,
            text_bytes: 200,
            store_bytes: 50,
            memory_bytes: 400,
            bits_per_id: 7.5,
            v1_bytes: 60,
            v1_bits_per_id: 9.0,
            perm_bytes: 45,
            perm_bits_per_id: 6.5,
            store_resident_bytes: 120,
            text_parse: stats(),
            store_full: stats(),
            store_out: stats(),
            random_open: stats(),
            query_csr: stats(),
            query_mmap: stats(),
        };
        let json = render_json(true, &[r]);
        for needle in [
            "ssr-bench/store/v1",
            "\"text_parse\"",
            "\"store_full\"",
            "\"store_out\"",
            "\"random_open\"",
            "\"query_csr\"",
            "\"query_mmap\"",
            "\"median_ms\"",
            "\"bits_per_id\"",
            "\"store_vs_text\"",
            "\"v1_bits_per_id\"",
            "\"perm_bits_per_id\"",
            "\"store_resident_bytes\"",
            "\"resident_ratio\"",
            "\"query_topk_identical\"",
            "\"speedup_store_vs_text\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // bench_check can gate it: datasets[].modes.*.median_ms present.
        let doc = crate::check::parse_json(&json).unwrap();
        let rows = crate::check::compare(&doc, &doc, 0.25);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| !r.regressed));
    }

    #[test]
    fn speedup_and_ratio_use_min_and_bytes() {
        let ms =
            |v: &[u64]| ModeStats::collect(v.iter().map(|&x| Duration::from_millis(x)).collect());
        let r = DatasetReport {
            name: "X",
            divisor: 1,
            nodes: 1,
            edges: 1,
            text_bytes: 1000,
            store_bytes: 250,
            memory_bytes: 1000,
            bits_per_id: 8.0,
            v1_bytes: 300,
            v1_bits_per_id: 10.0,
            perm_bytes: 200,
            perm_bits_per_id: 7.0,
            store_resident_bytes: 250,
            text_parse: ms(&[50, 40, 60]),
            store_full: ms(&[10, 8, 12]),
            store_out: ms(&[5]),
            random_open: ms(&[2]),
            query_csr: ms(&[20]),
            query_mmap: ms(&[25]),
        };
        assert!((r.speedup_store_vs_text() - 5.0).abs() < 1e-9);
        assert!((r.size_ratio() - 0.25).abs() < 1e-12);
        assert!((r.resident_ratio() - 0.25).abs() < 1e-12);
    }
}
