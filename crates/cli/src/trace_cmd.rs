//! The `simstar trace` subcommand family: offline analysis of trace
//! JSONL exports (`serve --trace-out` files, or `trace` admin-op dumps
//! written one document per line).
//!
//! Three views over the same span trees:
//!
//! * `summarize` — validates every trace (schema version, nesting
//!   invariants, required stages), then reports per-stage latency
//!   percentiles, a queue-delay vs batch-size table, and the
//!   critical-path breakdown (which stage dominated each request).
//! * `slowest` — the N slowest requests as full indented span trees.
//! * `folded` — flamegraph folded-stack lines (`path;to;span self_ns`),
//!   aggregated across traces, ready for standard flamegraph tooling.

use crate::args::{ArgError, Args};
use ssr_obs::Trace;
use ssr_serve::parse_trace_line;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The pipeline stages in execution order. Cache hits legitimately skip
/// `queue`/`engine`, so only the first/last two are mandatory.
const STAGES: &[&str] = &["decode", "cache", "queue", "engine", "encode"];

/// Dispatches `simstar trace <action>`.
pub fn cmd_trace(rest: &[String]) -> Result<String, ArgError> {
    let Some((action, rest)) = rest.split_first() else {
        return Err(ArgError(
            "trace needs an action: `trace summarize|slowest|folded --input FILE ...`".into(),
        ));
    };
    match action.as_str() {
        "summarize" => cmd_summarize(rest),
        "slowest" => cmd_slowest(rest),
        "folded" => cmd_folded(rest),
        other => {
            Err(ArgError(format!("unknown trace action `{other}` (summarize|slowest|folded)")))
        }
    }
}

/// Reads and parses a JSONL export; any unparsable line is an error with
/// its line number (a truncated export should fail loudly, not shrink).
fn load_traces(args: &Args) -> Result<(String, Vec<Trace>), ArgError> {
    let path = args.req("input")?.to_string();
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("reading `{path}`: {e}")))?;
    let traces = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_trace_line(l).map_err(|e| ArgError(format!("{path}:{}: {e}", i + 1))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((path, traces))
}

/// Checks the invariants `summarize` promises about every trace it
/// reports on: the span tree nests correctly, the root is `request`,
/// and the stages a request of its kind must have are present.
fn check_trace(t: &Trace) -> Result<(), String> {
    t.validate()?;
    if t.spans[0].name != "request" {
        return Err(format!("root span is `{}`, expected `request`", t.spans[0].name));
    }
    let has = |name: &str| t.spans.iter().any(|s| s.name == name);
    for required in ["decode", "cache", "encode"] {
        if !has(required) {
            return Err(format!("missing `{required}` stage"));
        }
    }
    if t.attr("cached") == Some("false") {
        for required in ["queue", "engine"] {
            if !has(required) {
                return Err(format!("uncached request missing `{required}` stage"));
            }
        }
    }
    Ok(())
}

/// Nearest-rank percentile of a sorted slice, in microseconds.
fn pctl_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1000.0
}

/// `trace summarize`: validate everything, then aggregate.
fn cmd_summarize(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(rest, &["input", "min"])?;
    let (path, traces) = load_traces(&args)?;
    let min = args.get("min", 1usize)?;
    if traces.len() < min {
        return Err(ArgError(format!(
            "`{path}` holds {} trace(s), expected at least {min}",
            traces.len()
        )));
    }
    for t in &traces {
        check_trace(t).map_err(|e| ArgError(format!("trace {}: {e}", t.id)))?;
    }

    let mut out = format!("# trace summarize: {path} ({} trace(s), all valid)\n", traces.len());

    // Per-stage percentiles: one sample per trace per present stage
    // (root children only — engine step sub-spans aggregate elsewhere),
    // plus the end-to-end total.
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50_us", "p90_us", "p99_us", "max_us"
    );
    let stage_rows: Vec<(&str, Vec<u64>)> = STAGES
        .iter()
        .map(|&stage| {
            let durs: Vec<u64> = traces
                .iter()
                .flat_map(|t| t.children(0).filter(|(_, s)| s.name == stage))
                .map(|(_, s)| s.dur_ns)
                .collect();
            (stage, durs)
        })
        .chain(std::iter::once(("total", traces.iter().map(|t| t.total_ns).collect::<Vec<_>>())))
        .collect();
    for (stage, mut durs) in stage_rows {
        durs.sort_unstable();
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            stage,
            durs.len(),
            pctl_us(&durs, 0.50),
            pctl_us(&durs, 0.90),
            pctl_us(&durs, 0.99),
            durs.last().map_or(0.0, |&ns| ns as f64 / 1000.0),
        );
    }

    // Queue delay vs batch size: does coalescing harder (bigger batches)
    // cost admission latency? One row per observed batch size.
    let mut by_batch: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for t in &traces {
        let engine = t.spans.iter().find(|s| s.name == "engine");
        let queue = t.spans.iter().find(|s| s.name == "queue");
        if let (Some(engine), Some(queue)) = (engine, queue) {
            if let Some(size) = engine
                .attrs
                .iter()
                .find(|(k, _)| k == "batch_size")
                .and_then(|(_, v)| v.parse().ok())
            {
                by_batch.entry(size).or_default().push(queue.dur_ns);
            }
        }
    }
    if !by_batch.is_empty() {
        let _ = writeln!(out, "\nqueue delay by batch size:");
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>14} {:>14}",
            "batch_size", "count", "queue_p50_us", "queue_p90_us"
        );
        for (size, mut durs) in by_batch {
            durs.sort_unstable();
            let _ = writeln!(
                out,
                "{:<12} {:>7} {:>14.1} {:>14.1}",
                size,
                durs.len(),
                pctl_us(&durs, 0.50),
                pctl_us(&durs, 0.90),
            );
        }
    }

    // Critical path: per stage, how often it was the single largest
    // stage of its request, and its share of all traced wall time.
    let total_ns: u64 = traces.iter().map(|t| t.total_ns).sum();
    let _ = writeln!(out, "\ncritical path:");
    let _ = writeln!(out, "{:<8} {:>10} {:>12}", "stage", "dominant", "time_share");
    for &stage in STAGES {
        let dominant = traces
            .iter()
            .filter(|t| {
                t.children(0).max_by_key(|(_, s)| s.dur_ns).is_some_and(|(_, s)| s.name == stage)
            })
            .count();
        let stage_ns: u64 = traces
            .iter()
            .flat_map(|t| t.children(0).filter(|(_, s)| s.name == stage))
            .map(|(_, s)| s.dur_ns)
            .sum();
        let share = if total_ns == 0 { 0.0 } else { 100.0 * stage_ns as f64 / total_ns as f64 };
        let _ = writeln!(out, "{:<8} {:>10} {:>11.1}%", stage, dominant, share);
    }
    Ok(out)
}

/// `trace slowest`: the N slowest requests, each as a full span tree.
fn cmd_slowest(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(rest, &["input", "n"])?;
    let (path, mut traces) = load_traces(&args)?;
    let n = args.get("n", 5usize)?.max(1);
    traces.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
    let mut out =
        format!("# trace slowest: {path} (top {} of {})\n", n.min(traces.len()), traces.len());
    for t in traces.iter().take(n) {
        let attrs: Vec<String> = t.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "trace={} total={:.1}us {}",
            t.id,
            t.total_ns as f64 / 1000.0,
            attrs.join(" ")
        );
        // Depth via the parent chain; parents always precede children.
        let mut depth = vec![0usize; t.spans.len()];
        for (i, span) in t.spans.iter().enumerate() {
            if span.parent >= 0 {
                depth[i] = depth[span.parent as usize] + 1;
            }
            let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "{}{} [{:.1}us +{:.1}us] {}",
                "  ".repeat(depth[i] + 1),
                span.name,
                span.start_ns as f64 / 1000.0,
                span.dur_ns as f64 / 1000.0,
                attrs.join(" ")
            );
        }
    }
    Ok(out)
}

/// `trace folded`: aggregated folded stacks for flamegraph tooling.
fn cmd_folded(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(rest, &["input"])?;
    let (_, traces) = load_traces(&args)?;
    // Sum self time per path across all traces (flamegraph tools accept
    // duplicate lines, but one aggregated line per path diffs cleaner).
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    let mut lines = String::new();
    for t in &traces {
        lines.clear();
        t.folded_into(&mut lines);
        for line in lines.lines() {
            let Some((path, value)) = line.rsplit_once(' ') else { continue };
            let value: u64 = value.parse().unwrap_or(0);
            *agg.entry(path.to_string()).or_insert(0) += value;
        }
    }
    let mut out = String::new();
    for (p, ns) in agg {
        let _ = writeln!(out, "{p} {ns}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_obs::{TraceSpan, NO_PARENT};
    use ssr_serve::render_trace;

    fn sample(id: u64, total: u64, batch: usize) -> Trace {
        Trace {
            id,
            total_ns: total,
            attrs: vec![("codec".into(), "ssb".into()), ("cached".into(), "false".into())],
            spans: vec![
                TraceSpan::new("request", NO_PARENT, 0, total),
                TraceSpan::new("decode", 0, 0, total / 10),
                TraceSpan::new("cache", 0, total / 10, total / 10),
                TraceSpan::new("queue", 0, total / 5, total / 10).attr("depth", 2),
                TraceSpan::new("engine", 0, total * 3 / 10, total / 2).attr("batch_size", batch),
                TraceSpan::new("theta-0", 4, total * 3 / 10, total / 4),
                TraceSpan::new("encode", 0, total * 9 / 10, total / 10),
            ],
        }
    }

    fn write_jsonl(traces: &[Trace]) -> std::path::PathBuf {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "ssr-trace-cmd-{}-{}.jsonl",
            std::process::id(),
            traces.first().map_or(0, |t| t.id)
        ));
        let text: String = traces.iter().map(|t| render_trace(t).render() + "\n").collect();
        std::fs::write(&path, text).unwrap();
        path
    }

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn summarize_reports_stages_batches_and_critical_path() {
        let path =
            write_jsonl(&[sample(0, 10_000, 4), sample(8, 50_000, 4), sample(16, 20_000, 2)]);
        let out =
            cmd_trace(&toks(&format!("summarize --input {} --min 3", path.display()))).unwrap();
        assert!(out.contains("3 trace(s), all valid"), "{out}");
        assert!(out.contains("engine"), "{out}");
        assert!(out.contains("queue delay by batch size"), "{out}");
        assert!(out.contains("critical path"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn summarize_gates_on_min_and_invariants() {
        let path = write_jsonl(&[sample(1, 10_000, 1)]);
        let err =
            cmd_trace(&toks(&format!("summarize --input {} --min 5", path.display()))).unwrap_err();
        assert!(err.0.contains("expected at least 5"), "{err}");
        std::fs::remove_file(path).ok();

        let mut bad = sample(2, 10_000, 1);
        bad.spans.retain(|s| s.name != "engine" && s.parent != 4);
        let path = write_jsonl(&[bad]);
        let err = cmd_trace(&toks(&format!("summarize --input {}", path.display()))).unwrap_err();
        assert!(err.0.contains("missing `engine` stage"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn slowest_orders_by_total_and_prints_trees() {
        let path = write_jsonl(&[sample(3, 10_000, 1), sample(4, 90_000, 1)]);
        let out = cmd_trace(&toks(&format!("slowest --input {} --n 1", path.display()))).unwrap();
        assert!(out.contains("trace=4 total=90.0us"), "{out}");
        assert!(!out.contains("trace=3"), "{out}");
        assert!(out.contains("theta-0"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn folded_aggregates_self_time_across_traces() {
        let path = write_jsonl(&[sample(5, 10_000, 1), sample(6, 10_000, 1)]);
        let out = cmd_trace(&toks(&format!("folded --input {}", path.display()))).unwrap();
        // Two traces, each theta-0 has 2500ns self time.
        assert!(out.contains("request;engine;theta-0 5000"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_lines_fail_with_line_numbers() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ssr-trace-cmd-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "not json\n").unwrap();
        let err = cmd_trace(&toks(&format!("summarize --input {}", path.display()))).unwrap_err();
        assert!(err.0.contains(":1:"), "{err}");
        std::fs::remove_file(path).ok();
    }
}
