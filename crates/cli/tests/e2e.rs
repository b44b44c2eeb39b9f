//! End-to-end tests of the `simstar` binary: spawn the real executable and
//! drive a full generate → stats → query → audit → compute pipeline through
//! temp files.

use std::path::PathBuf;
use std::process::Command;

fn simstar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simstar"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("simstar_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run_ok(args: &[&str]) -> String {
    let out = simstar().args(args).output().expect("spawn simstar");
    assert!(
        out.status.success(),
        "simstar {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn full_pipeline() {
    let graph_path = tmp("pipeline.txt");
    let graph = graph_path.to_str().unwrap();

    // generate
    let msg = run_ok(&[
        "generate", "--kind", "citation", "--nodes", "200", "--edges", "800", "--seed", "7",
        "--output", graph,
    ]);
    assert!(msg.contains("wrote"));

    // stats
    let stats = run_ok(&["stats", "--input", graph]);
    assert!(stats.contains("nodes"));
    assert!(stats.contains("DAG-like"), "citation graph must be a DAG:\n{stats}");

    // query
    let q = run_ok(&["query", "--input", graph, "--node", "50", "--top", "5"]);
    let rows = q.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(rows, 5);

    // audit
    let audit = run_ok(&["audit", "--input", graph, "--samples", "300"]);
    assert!(audit.contains("completely dissimilar"));

    // compute with threshold to a file
    let sims_path = tmp("sims.txt");
    let sims = sims_path.to_str().unwrap();
    run_ok(&[
        "compute",
        "--input",
        graph,
        "--algo",
        "memo-gsr",
        "--k",
        "5",
        "--threshold",
        "1e-4",
        "--output",
        sims,
    ]);
    let content = std::fs::read_to_string(&sims_path).unwrap();
    assert!(content.contains("simstar compute"));
    assert!(content.lines().filter(|l| !l.starts_with('#')).count() > 0);
}

#[test]
fn allpairs_pipeline() {
    let graph_path = tmp("allpairs.txt");
    let graph = graph_path.to_str().unwrap();
    run_ok(&[
        "generate", "--kind", "citation", "--nodes", "120", "--edges", "500", "--seed", "3",
        "--output", graph,
    ]);

    // Streaming top-k.
    let ranked = run_ok(&["allpairs", "--input", graph, "--top-k", "3", "--threads", "2"]);
    assert!(ranked.lines().filter(|l| !l.starts_with('#')).count() > 0);

    // Partial pairs for two rows must match the full matrix's rows.
    let partial = run_ok(&["allpairs", "--input", graph, "--subset", "5,9", "--k", "4"]);
    let full = run_ok(&["allpairs", "--input", graph, "--k", "4"]);
    let rows_of = |text: &str, prefix: &str| {
        text.lines()
            .filter(|l| !l.starts_with('#') && l.starts_with(prefix))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    for q in ["5\t", "9\t"] {
        assert_eq!(rows_of(&partial, q), rows_of(&full, q), "rows for {q}");
    }
}

#[test]
fn no_args_prints_usage_and_exits_2() {
    let out = simstar().output().expect("spawn simstar");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn bad_flag_exits_1_with_message() {
    let out = simstar().args(["stats", "--bogus", "x"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn serve_has_no_workers_flag() {
    // The batcher's one flush worker is a constant, not an option.
    let out =
        simstar().args(["serve", "--input", "g.txt", "--workers", "2"]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--workers`"));
}

#[test]
fn help_via_subcommand() {
    let h = run_ok(&["help"]);
    assert!(h.contains("COMMANDS"));
}

#[test]
fn deterministic_generation() {
    let a = run_ok(&["generate", "--kind", "er", "--nodes", "64", "--edges", "128", "--seed", "5"]);
    let b = run_ok(&["generate", "--kind", "er", "--nodes", "64", "--edges", "128", "--seed", "5"]);
    assert_eq!(a, b);
}
