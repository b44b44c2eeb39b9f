//! The `simstar` subcommands.

use crate::args::{ArgError, Args};
use simrank_star::{
    exponential, geometric, AllPairsEngine, AllPairsOptions, QueryEngine, SimStarParams,
};
use ssr_baselines::{prank, rwr, simrank};
use ssr_compress::{compress, CompressOptions};
use ssr_graph::components::{strongly_connected_components, weakly_connected_components};
use ssr_graph::stats::graph_stats;
use ssr_graph::{io as gio, DiGraph};
use std::io::Write;

/// Top-level usage text.
pub const USAGE: &str = "\
simstar — SimRank* similarity toolkit (reproduction of Yu et al., VLDB 2013)

USAGE:
  simstar <command> [--flag value ...]

COMMANDS:
  compute   all-pairs similarities from an edge list
            --input FILE [--algo gsr|esr|memo-gsr|memo-esr|sr|prank|rwr]
            [--c 0.6] [--k 5] [--threshold 0] [--format text|json]
            [--output FILE] [--load-full false]
  allpairs  block-parallel all-pairs SimRank* through the AllPairsEngine
            --input FILE [--top-k K] [--subset ID,ID,...]
            [--threads 0] [--blocks 0] [--c 0.6] [--k 5] [--threshold 0]
            [--format text|json] [--output FILE] [--load-full false]
            [--memory false]
            --subset computes only those rows (partial pairs); --top-k
            streams per-row rankings without materializing the matrix —
            both run straight off a v2 .ssg store (bounded memory); the
            full matrix needs the in-memory CSR (--load-full true on v2
            input); compute --algo memo-gsr gives the same matrix through
            the memoized (edge-concentrated) kernel; --format json emits
            machine-readable output (rankings share the serve protocol's
            matches shape)
  query     single-source SimRank* through the amortized QueryEngine
            --input FILE (--node ID | --nodes ID,ID,... | --batch N)
            [--top-k 10] [--c 0.6] [--k 5] [--seed 0]
            [--format text|json] [--load-full false] [--memory false]
            --nodes/--batch run the batched lane kernel; --batch samples N
            in-degree-stratified queries (the paper's test-query protocol);
            a v2 .ssg input streams adjacency off the mmap-backed store
            (no full CSR in memory) unless --load-full true; --memory
            prints a resident-bytes accounting line; results are bit for
            bit the same however the queries are batched, on either
            backing, and as `serve` answers them; --format json emits the
            serve protocol's machine-readable result shape
  serve     concurrent query server (newline-JSON and binary ssb/1 over
            TCP; see the README's Serving layer section for both wire
            formats)
            --input FILE [--host 127.0.0.1] [--port 0] [--announce FILE]
            [--c 0.6] [--k 5] [--window-us 500] [--max-batch 64]
            [--queue 1024] [--cache 4096] [--cache-shards 8]
            [--max-conns 256] [--slow-query-us 0] [--metrics-dump FILE]
            [--trace-sample 0] [--trace-out FILE]
            port 0 binds an ephemeral port; --announce writes the bound
            address to FILE once listening; one flush worker runs every
            engine call; --trace-sample N records a span trace for 1 in N
            requests (0 = off, retunable via the admin config op), fetched
            through the trace op or streamed as JSONL with --trace-out
  bench-serve  closed-loop load generator against a running serve instance
            (--addr HOST:PORT | --announce FILE [--wait-announce 10])
            [--clients 16] [--requests 125] [--top-k 10]
            [--window-us 800] [--pipeline 8] [--idle-conns 1024]
            [--name serve] [--out BENCH_serve.json]
            [--smoke false] [--shutdown false]
            runs the serial / batched / cached phases, the json/ssb
            protocol comparison (serial + pipelined), and a connection-
            scaling phase holding --idle-conns open sockets, then writes
            the ssr-bench/serve/v1 JSON; --announce waits for a serve
            --announce file instead of a fixed address
  serve-probe  dump a server's top-k answers for diffing
            (--addr HOST:PORT | --announce FILE [--wait-announce 10])
            [--top-k 10] [--count n] [--metrics false] [--healthz false]
            one query\\tnode\\tscore line per match with shortest-round-
            trip scores: diff two probes to prove bit-identical serving;
            --healthz is a readiness check: one ping, prints the epoch,
            nonzero exit on any failure
  trace     offline analyzer for trace JSONL exports (serve --trace-out
            files, one document per line)
            trace summarize --input FILE [--min 1]
                         validate every trace, then per-stage latency
                         percentiles, queue delay by batch size, and the
                         critical-path breakdown; fails if fewer than
                         --min traces parse
            trace slowest --input FILE [--n 5]
                         the N slowest requests as full span trees
            trace folded --input FILE
                         flamegraph folded-stack lines (self time)
  stats     graph statistics + compression summary
            --input FILE [--format text|json] [--memory false]
            [--load-full false]
            --memory adds engine + graph resident-bytes accounting
  audit     zero-similarity census (Fig. 6(d) style)
            --input FILE [--samples 2000] [--radius 6] [--seed 0]
            [--format text|json] [--load-full false]
  generate  synthetic graphs
            --kind er|rmat|web|citation|coauthor --nodes N [--edges M]
            [--seed 0] [--output FILE] [--store FILE.ssg]
            --store writes the binary graph store directly (no text
            round-trip); both flags may be given together
  store     binary graph store (.ssg) tools — every command above also
            accepts .ssg files for --input (format sniffed by content);
            v2 stores stream through query/allpairs row paths, while
            full-CSR paths (compute, stats, audit, the all-pairs full
            matrix, --batch) refuse them unless --load-full true decodes
            the whole graph
            store build  --input FILE --output FILE.ssg
                         [--dataset NAME] [--divisor N] [--build-params S]
                         [--store-version 2]
            store perm   --input FILE --output FILE.ssg --order bfs|degree
                         (cache-locality relabeling; ids map back on read)
            store info   --input FILE.ssg
            store verify --input FILE.ssg   (checksums + full decode)
";

/// Runs one subcommand; returns the text to print.
pub fn run(command: &str, rest: &[String]) -> Result<String, ArgError> {
    match command {
        "compute" => cmd_compute(rest),
        "allpairs" => cmd_allpairs(rest),
        "query" => cmd_query(rest),
        "serve" => crate::serve_cmd::cmd_serve(rest),
        "bench-serve" => crate::serve_cmd::cmd_bench_serve(rest),
        "serve-probe" => crate::serve_cmd::cmd_serve_probe(rest),
        "stats" => cmd_stats(rest),
        "audit" => cmd_audit(rest),
        "generate" => cmd_generate(rest),
        "store" => crate::store_cmd::cmd_store(rest),
        "trace" => crate::trace_cmd::cmd_trace(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(ArgError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// How a command renders its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputFormat {
    /// Human-readable text (the default).
    Text,
    /// Machine-readable JSON.
    Json,
}

/// Resolves `--format {text,json}`, honoring the deprecated `--json BOOL`
/// alias (hidden from usage; warns on stderr so scripts comparing stdout
/// keep working).
pub(crate) fn output_format(args: &Args) -> Result<OutputFormat, ArgError> {
    if args.has("format") {
        if args.has("json") {
            return Err(ArgError(
                "`--json` is a deprecated alias of `--format`; give only `--format`".into(),
            ));
        }
        return Ok(match args.one_of("format", &["text", "json"])? {
            "json" => OutputFormat::Json,
            _ => OutputFormat::Text,
        });
    }
    if args.has("json") {
        eprintln!("warning: `--json BOOL` is deprecated; use `--format {{text,json}}`");
        return Ok(if args.get("json", false)? { OutputFormat::Json } else { OutputFormat::Text });
    }
    Ok(OutputFormat::Text)
}

pub(crate) fn load_graph(args: &Args) -> Result<DiGraph, ArgError> {
    let path = args.req("input")?;
    // Content-sniffing loader: `.ssg` binary stores and text edge lists
    // are interchangeable for every `--input` in the tool.
    ssr_store::load_graph_auto(path).map_err(|e| ArgError(format!("reading `{path}`: {e}")))
}

/// Whether `--input` names a random-access-capable (v2) `.ssg` store.
fn input_is_v2_store(args: &Args) -> Result<bool, ArgError> {
    let path = args.req("input")?;
    if !ssr_store::is_store_file(path).map_err(|e| ArgError(format!("reading `{path}`: {e}")))? {
        return Ok(false);
    }
    let r = ssr_store::StoreReader::open(path)
        .map_err(|e| ArgError(format!("opening `{path}`: {e}")))?;
    Ok(r.version() >= ssr_store::FORMAT_VERSION)
}

/// The graph behind `--input`, either fully decoded or served straight
/// off the compressed store bytes.
pub(crate) enum GraphSource {
    /// In-memory CSR (text edge lists, v1 stores, or `--load-full true`).
    Memory(DiGraph),
    /// mmap-backed random access into a v2 store; only O(n) state plus a
    /// bounded row cache stays resident.
    Access(std::sync::Arc<ssr_store::RandomAccessStore>),
}

impl GraphSource {
    pub(crate) fn node_count(&self) -> usize {
        match self {
            GraphSource::Memory(g) => g.node_count(),
            GraphSource::Access(s) => ssr_graph::NeighborAccess::node_count(&**s),
        }
    }

    fn query_engine(&self, params: SimStarParams) -> QueryEngine {
        match self {
            GraphSource::Memory(g) => QueryEngine::new(g, params),
            GraphSource::Access(s) => {
                QueryEngine::with_access(s.clone(), params, Default::default())
            }
        }
    }

    fn all_pairs_engine(&self, params: SimStarParams, opts: AllPairsOptions) -> AllPairsEngine {
        match self {
            GraphSource::Memory(g) => AllPairsEngine::with_options(g, params, opts),
            GraphSource::Access(s) => AllPairsEngine::with_access(s.clone(), params, opts),
        }
    }

    /// Resident graph/backing bytes: the CSR footprint, or the store's
    /// O(n) state plus currently cached rows.
    fn graph_bytes(&self) -> usize {
        match self {
            GraphSource::Memory(g) => g.estimated_bytes(),
            GraphSource::Access(s) => s.resident_bytes(),
        }
    }
}

/// Loads `--input` for commands that can compute over the random-access
/// store: a v2 `.ssg` opens mmap-backed unless `--load-full true` asks
/// for the in-memory CSR; text edge lists and v1 stores always decode
/// fully (they have no random-access index).
pub(crate) fn load_graph_source(args: &Args) -> Result<GraphSource, ArgError> {
    if !args.get("load-full", false)? && input_is_v2_store(args)? {
        let path = args.req("input")?;
        let store = ssr_store::RandomAccessStore::open(path)
            .map_err(|e| ArgError(format!("opening `{path}`: {e}")))?;
        return Ok(GraphSource::Access(std::sync::Arc::new(store)));
    }
    load_graph(args).map(GraphSource::Memory)
}

/// Loads `--input` for code paths that genuinely require the full CSR.
/// A v2 store is refused unless `--load-full true` makes the memory cost
/// explicit — silently decoding a random-access store would defeat the
/// memory budget the format exists for.
pub(crate) fn load_graph_full_required(args: &Args, what: &str) -> Result<DiGraph, ArgError> {
    if !args.get("load-full", false)? && input_is_v2_store(args)? {
        return Err(ArgError(format!(
            "`{}` is a random-access (v2) store, but {what} needs the full in-memory CSR; \
             pass `--load-full true` to decode it anyway",
            args.req("input")?
        )));
    }
    load_graph(args)
}

/// The `# memory:` accounting line (engine kernels + graph backing +
/// store row cache), printed when `--memory true` is given.
fn memory_line(engine_bytes: usize, source: &GraphSource) -> String {
    let (backing, cache) = match source {
        GraphSource::Memory(_) => ("csr", 0),
        GraphSource::Access(s) => ("store", s.cache_budget_bytes()),
    };
    format!(
        "# memory: backing={backing} engine_bytes={engine_bytes} graph_bytes={} \
         cache_budget_bytes={cache}\n",
        source.graph_bytes()
    )
}

fn cmd_compute(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(
        rest,
        &["input", "algo", "c", "k", "threshold", "format", "output", "load-full"],
    )?;
    let format = output_format(&args)?;
    let g = load_graph_full_required(&args, "compute (all-pairs matrices)")?;
    let c = args.get("c", 0.6)?;
    let k = args.get("k", 5usize)?;
    let threshold = args.get("threshold", 0.0)?;
    if !(0.0..1.0).contains(&c) || c == 0.0 {
        return Err(ArgError(format!("--c must be in (0,1), got {c}")));
    }
    let algo = args.opt("algo", "gsr");
    let params = SimStarParams { c, iterations: k };
    let mut sim = match algo {
        "gsr" => geometric::iterate(&g, &params),
        "esr" => exponential::closed_form(&g, &params),
        "memo-gsr" => geometric::iterate_memo(&g, &params, &CompressOptions::default()),
        "memo-esr" => exponential::closed_form_memo(&g, &params, &CompressOptions::default()),
        "sr" => simrank::simrank(&g, c, k),
        "prank" => prank::prank_default(&g, c, k),
        "rwr" => rwr::rwr_matrix(&g, c, k),
        other => {
            return Err(ArgError(format!(
                "unknown --algo `{other}` (gsr|esr|memo-gsr|memo-esr|sr|prank|rwr)"
            )))
        }
    };
    let kept = if threshold > 0.0 { sim.clip_below(threshold) } else { 0 };
    let n = sim.node_count();
    if format == OutputFormat::Json {
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b && sim.score(a, b) > 0.0 {
                    entries.push((a, b, sim.score(a, b)));
                }
            }
        }
        return write_or_return(
            &args,
            entries_json("simstar/compute/v1", &params, threshold, &entries),
        );
    }
    let mut out = String::new();
    out.push_str(&format!("# simstar compute: algo={algo} c={c} k={k} n={n}\n"));
    if threshold > 0.0 {
        out.push_str(&format!("# threshold={threshold} kept={kept}\n"));
    }
    out.push_str("# a b score (off-diagonal, score > 0)\n");
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if a != b && sim.score(a, b) > 0.0 {
                out.push_str(&format!("{a}\t{b}\t{:.6e}\n", sim.score(a, b)));
            }
        }
    }
    write_or_return(&args, out)
}

fn cmd_allpairs(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(
        rest,
        &[
            "input",
            "c",
            "k",
            "top-k",
            "subset",
            "threads",
            "blocks",
            "threshold",
            "format",
            "json",
            "output",
            "load-full",
            "memory",
        ],
    )?;
    let format = output_format(&args)?;
    let params = SimStarParams { c: args.get("c", 0.6)?, iterations: args.get("k", 5usize)? };
    if !(0.0..1.0).contains(&params.c) || params.c == 0.0 {
        return Err(ArgError(format!("--c must be in (0,1), got {}", params.c)));
    }
    let threshold = args.get("threshold", 0.0)?;
    let top = args.get("top-k", 0usize)?;
    if top > 0 && args.has("threshold") {
        return Err(ArgError(
            "--threshold does not apply to --top-k output (rankings are score-ordered already)"
                .into(),
        ));
    }
    let opts = AllPairsOptions {
        threads: args.get("threads", 0usize)?,
        block_rows: args.get("blocks", 0usize)?,
        ..Default::default()
    };
    let subset: Option<Vec<u32>> = if args.has("subset") {
        Some(
            args.req("subset")?
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<u32>()
                        .map_err(|_| ArgError(format!("--subset: cannot parse `{t}`")))
                })
                .collect::<Result<_, _>>()?,
        )
    } else {
        None
    };
    // Only the full-matrix path (neither --top-k nor --subset) requires
    // the whole CSR; rankings and partial rows stream off a v2 store.
    let source = if top == 0 && subset.is_none() {
        GraphSource::Memory(load_graph_full_required(&args, "the all-pairs full matrix")?)
    } else {
        load_graph_source(&args)?
    };
    let n = source.node_count();
    if let Some(rows) = &subset {
        if rows.is_empty() {
            return Err(ArgError("--subset needs at least one node id".into()));
        }
        for &q in rows {
            if q as usize >= n {
                return Err(ArgError(format!(
                    "subset node {q} out of range (graph has {n} nodes)"
                )));
            }
        }
    }
    let engine = source.all_pairs_engine(params, opts);
    let mut out = format!(
        "# simstar allpairs: c={} k={} n={} threads={}\n",
        params.c,
        params.iterations,
        n,
        if engine.options().threads == 0 {
            ssr_linalg::available_threads()
        } else {
            engine.options().threads
        },
    );
    if args.get("memory", false)? {
        out.push_str(&memory_line(engine.resident_bytes(), &source));
    }
    let json_mode = format == OutputFormat::Json;
    if top > 0 {
        // Streaming top-k: ranked rows, never materializing the matrix.
        let rows: Vec<u32> = match &subset {
            Some(r) => r.clone(),
            None => (0..n as u32).collect(),
        };
        let ranked = engine.top_k(&rows, top);
        if json_mode {
            return write_or_return(
                &args,
                query_results_json("simstar/allpairs/v1", &params, top, &rows, &ranked),
            );
        }
        out.push_str(&format!("# top-{top} per row (query\tnode\tscore)\n"));
        for (q, matches) in rows.iter().zip(&ranked) {
            for (v, s) in matches {
                out.push_str(&format!("{q}\t{v}\t{s:.6}\n"));
            }
        }
    } else if let Some(rows) = &subset {
        // Partial pairs: the requested rows of the matrix.
        let m = engine.rows(rows);
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();
        for (i, &a) in rows.iter().enumerate() {
            for b in 0..n as u32 {
                let s = m.get(i, b as usize);
                // Same boundary semantics as the full-matrix path (which
                // clips below the threshold, keeping equality): emit
                // scores >= threshold, and only positive ones.
                if a != b && s > 0.0 && (threshold <= 0.0 || s >= threshold) {
                    entries.push((a, b, s));
                }
            }
        }
        if json_mode {
            return write_or_return(
                &args,
                entries_json("simstar/allpairs/v1", &params, threshold, &entries),
            );
        }
        out.push_str("# partial pairs (a b score, off-diagonal)\n");
        for (a, b, s) in entries {
            out.push_str(&format!("{a}\t{b}\t{s:.6e}\n"));
        }
    } else {
        let mut sim = engine.full();
        let kept = if threshold > 0.0 { sim.clip_below(threshold) } else { 0 };
        let n = sim.node_count();
        if json_mode {
            let mut entries: Vec<(u32, u32, f64)> = Vec::new();
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    if a != b && sim.score(a, b) > 0.0 {
                        entries.push((a, b, sim.score(a, b)));
                    }
                }
            }
            return write_or_return(
                &args,
                entries_json("simstar/allpairs/v1", &params, threshold, &entries),
            );
        }
        if threshold > 0.0 {
            out.push_str(&format!("# threshold={threshold} kept={kept}\n"));
        }
        out.push_str("# a b score (off-diagonal, score > 0)\n");
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b && sim.score(a, b) > 0.0 {
                    out.push_str(&format!("{a}\t{b}\t{:.6e}\n", sim.score(a, b)));
                }
            }
        }
    }
    write_or_return(&args, out)
}

/// Machine-readable matrix output: `{"entries": [[a, b, score], ...]}`.
fn entries_json(
    schema: &str,
    params: &SimStarParams,
    threshold: f64,
    entries: &[(u32, u32, f64)],
) -> String {
    use ssr_serve::json::Json;
    Json::Obj(vec![
        ("schema".into(), Json::Str(schema.into())),
        ("c".into(), Json::Num(params.c)),
        ("k".into(), Json::Num(params.iterations as f64)),
        ("threshold".into(), Json::Num(threshold)),
        (
            "entries".into(),
            Json::Arr(
                entries
                    .iter()
                    .map(|&(a, b, s)| {
                        Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64), Json::Num(s)])
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
        + "\n"
}

fn cmd_query(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(
        rest,
        &[
            "input",
            "node",
            "nodes",
            "batch",
            "top",
            "top-k",
            "c",
            "k",
            "seed",
            "format",
            "json",
            "load-full",
            "memory",
        ],
    )?;
    let format = output_format(&args)?;
    let source = load_graph_source(&args)?;
    let modes = ["node", "nodes", "batch"].iter().filter(|m| args.has(m)).count();
    if modes != 1 {
        return Err(ArgError(
            "exactly one of `--node ID`, `--nodes ID,ID,...`, `--batch N` is required".into(),
        ));
    }
    // `--top` is kept as an alias of `--top-k`.
    let top =
        if args.has("top-k") { args.get("top-k", 10usize)? } else { args.get("top", 10usize)? };
    let params = SimStarParams { c: args.get("c", 0.6)?, iterations: args.get("k", 5usize)? };
    if !(0.0..1.0).contains(&params.c) || params.c == 0.0 {
        return Err(ArgError(format!("--c must be in (0,1), got {}", params.c)));
    }
    let queries: Vec<u32> = if args.has("node") {
        vec![args.get("node", 0u32)?]
    } else if args.has("nodes") {
        args.req("nodes")?
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|_| ArgError(format!("--nodes: cannot parse `{t}`")))
            })
            .collect::<Result<_, _>>()?
    } else {
        let n = args.get("batch", 64usize)?;
        if n == 0 {
            return Err(ArgError("--batch must be at least 1".into()));
        }
        let GraphSource::Memory(g) = &source else {
            return Err(ArgError(
                "--batch samples in-degree-stratified queries over the full graph; pass \
                 `--load-full true` (or name queries with `--nodes`)"
                    .into(),
            ));
        };
        let seed = args.get("seed", 0u64)?;
        let mut sampled = ssr_eval::queries::select_queries(g, 5, n.div_ceil(5), seed);
        sampled.truncate(n);
        sampled
    };
    for &q in &queries {
        if q as usize >= source.node_count() {
            return Err(ArgError(format!(
                "query node {q} out of range (graph has {} nodes)",
                source.node_count()
            )));
        }
    }
    let engine = source.query_engine(params);
    let memory = if args.get("memory", false)? {
        memory_line(engine.resident_bytes(), &source)
    } else {
        String::new()
    };
    let ranked = engine.top_k_batch(&queries, top);
    if format == OutputFormat::Json {
        return Ok(query_results_json("simstar/query/v1", &params, top, &queries, &ranked));
    }
    // The output format follows the flag, not the list arity: `--nodes 5`
    // must emit the same 3-column batched format as `--nodes 5,6`.
    if args.has("node") {
        let node = queries[0];
        let mut out = format!("# top-{top} SimRank* matches for node {node}\n{memory}");
        for (v, s) in &ranked[0] {
            out.push_str(&format!("{v}\t{s:.6}\n"));
        }
        Ok(out)
    } else {
        let mut out = format!(
            "# batched top-{top} SimRank* matches for {} queries (query\tnode\tscore)\n{memory}",
            queries.len()
        );
        for (q, rows) in queries.iter().zip(&ranked) {
            for (v, s) in rows {
                out.push_str(&format!("{q}\t{v}\t{s:.6}\n"));
            }
        }
        Ok(out)
    }
}

/// Machine-readable ranking output: the serve protocol's `matches` shape
/// (`[[node, score], ...]` with shortest-round-trip scores), one result
/// object per query. Shared by `query --json` and `allpairs --json
/// --top-k`.
fn query_results_json(
    schema: &str,
    params: &SimStarParams,
    top: usize,
    queries: &[u32],
    ranked: &[Vec<(u32, f64)>],
) -> String {
    use ssr_serve::json::Json;
    let results = Json::Arr(
        queries
            .iter()
            .zip(ranked)
            .map(|(&q, rows)| {
                Json::Obj(vec![
                    ("node".into(), Json::Num(q as f64)),
                    ("matches".into(), ssr_serve::codec::jsonl::matches_json(rows)),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("schema".into(), Json::Str(schema.into())),
        ("c".into(), Json::Num(params.c)),
        ("k".into(), Json::Num(params.iterations as f64)),
        ("top_k".into(), Json::Num(top as f64)),
        ("results".into(), results),
    ])
    .render()
        + "\n"
}

fn cmd_stats(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(rest, &["input", "format", "memory", "load-full"])?;
    let format = output_format(&args)?;
    let g = load_graph_full_required(&args, "stats (degree/component census)")?;
    let s = graph_stats(&g);
    let wcc = weakly_connected_components(&g);
    let scc = strongly_connected_components(&g);
    let cg = compress(&g, &CompressOptions::default());
    // `--memory true`: measured resident bytes of the graph, a default
    // query engine over it, and the store row-cache budget a v2 store
    // would hold — so memory claims in BENCH files trace to a command.
    let memory = if args.get("memory", false)? {
        let engine = QueryEngine::new(&g, SimStarParams::default());
        Some((engine.resident_bytes(), g.estimated_bytes()))
    } else {
        None
    };
    if format == OutputFormat::Json {
        use ssr_serve::json::Json;
        let n = |v: f64| Json::Num(v);
        let mut pairs = vec![
            ("schema".into(), Json::Str("simstar/stats/v1".into())),
            ("nodes".into(), n(s.nodes as f64)),
            ("edges".into(), n(s.edges as f64)),
            ("density".into(), n(s.density)),
            ("max_in_degree".into(), n(s.max_in_degree as f64)),
            ("max_out_degree".into(), n(s.max_out_degree as f64)),
            ("sources".into(), n(s.sources as f64)),
            ("sinks".into(), n(s.sinks as f64)),
            ("isolated".into(), n(s.isolated as f64)),
            ("wcc".into(), n(wcc.count as f64)),
            ("scc".into(), n(scc.count as f64)),
            ("disconnected_pair_fraction".into(), n(wcc.disconnected_pair_fraction())),
            ("compressed_edges".into(), n(cg.compressed_edge_count() as f64)),
            ("compression_ratio".into(), n(cg.compression_ratio())),
            ("concentrators".into(), n(cg.concentrator_count() as f64)),
        ];
        if let Some((engine_bytes, graph_bytes)) = memory {
            pairs.push(("engine_bytes".into(), n(engine_bytes as f64)));
            pairs.push(("graph_bytes".into(), n(graph_bytes as f64)));
        }
        return Ok(Json::Obj(pairs).render() + "\n");
    }
    let mut out = format!(
        "nodes                 {}\n\
         edges                 {}\n\
         density |E|/|V|       {:.2}\n\
         max in/out degree     {} / {}\n\
         sources/sinks/isolated {} / {} / {}\n\
         weakly connected comp {}\n\
         strongly connected comp {} ({})\n\
         disconnected pairs    {:.1}%\n\
         compressed edges m~   {} (ratio {:.1}%, {} concentrators)\n",
        s.nodes,
        s.edges,
        s.density,
        s.max_in_degree,
        s.max_out_degree,
        s.sources,
        s.sinks,
        s.isolated,
        wcc.count,
        scc.count,
        if scc.count == s.nodes { "DAG-like: all singletons" } else { "has cycles" },
        100.0 * wcc.disconnected_pair_fraction(),
        cg.compressed_edge_count(),
        100.0 * cg.compression_ratio(),
        cg.concentrator_count(),
    );
    if let Some((engine_bytes, graph_bytes)) = memory {
        out.push_str(&format!(
            "memory                engine {engine_bytes} B, graph {graph_bytes} B (CSR)\n"
        ));
    }
    Ok(out)
}

fn cmd_audit(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(rest, &["input", "samples", "radius", "seed", "format", "load-full"])?;
    let format = output_format(&args)?;
    let g = load_graph_full_required(&args, "audit (random-walk probing)")?;
    if g.node_count() < 2 {
        return Err(ArgError("graph needs at least 2 nodes to audit".into()));
    }
    let samples = args.get("samples", 2000usize)?;
    let radius = args.get("radius", 6usize)?;
    let seed = args.get("seed", 0u64)?;
    let sr = ssr_eval::zero_sim::simrank_census(&g, samples, radius, seed);
    let rw = ssr_eval::zero_sim::rwr_census(&g, samples, radius, seed);
    if format == OutputFormat::Json {
        use ssr_serve::json::Json;
        let census = |c: &ssr_eval::zero_sim::ZeroSimCensus| {
            Json::Obj(vec![
                ("completely_dissimilar".into(), Json::Num(c.completely_dissimilar)),
                ("partially_missing".into(), Json::Num(c.partially_missing)),
                ("affected".into(), Json::Num(c.any_issue())),
            ])
        };
        return Ok(Json::Obj(vec![
            ("schema".into(), Json::Str("simstar/audit/v1".into())),
            ("samples".into(), Json::Num(samples as f64)),
            ("radius".into(), Json::Num(radius as f64)),
            ("simrank".into(), census(&sr)),
            ("rwr".into(), census(&rw)),
        ])
        .render()
            + "\n");
    }
    Ok(format!(
        "zero-similarity audit ({samples} sampled pairs, probe radius {radius})\n\
         SimRank : {:5.1}% completely dissimilar, {:5.1}% partially missing => {:5.1}% affected\n\
         RWR     : {:5.1}% completely dissimilar, {:5.1}% partially missing => {:5.1}% affected\n",
        100.0 * sr.completely_dissimilar,
        100.0 * sr.partially_missing,
        100.0 * sr.any_issue(),
        100.0 * rw.completely_dissimilar,
        100.0 * rw.partially_missing,
        100.0 * rw.any_issue(),
    ))
}

fn cmd_generate(rest: &[String]) -> Result<String, ArgError> {
    let args = Args::parse(rest, &["kind", "nodes", "edges", "seed", "output", "store"])?;
    let kind = args.req("kind")?;
    let nodes = args.get("nodes", 1000usize)?;
    let edges = args.get("edges", nodes * 8)?;
    let seed = args.get("seed", 0u64)?;
    let g = match kind {
        "er" => ssr_gen::random::erdos_renyi_gnm(nodes, edges, seed),
        "rmat" | "web" => {
            let scale = usize::BITS - nodes.saturating_sub(1).leading_zeros();
            if kind == "rmat" {
                ssr_gen::random::rmat(scale, edges, ssr_gen::random::RmatParams::default(), seed)
            } else {
                ssr_gen::random::webgraph(scale, edges, 0.5, seed)
            }
        }
        "citation" => ssr_gen::citation::citation_graph(
            ssr_gen::citation::CitationParams {
                nodes,
                avg_out_degree: edges as f64 / nodes as f64,
                ..Default::default()
            },
            seed,
        ),
        "coauthor" => {
            ssr_gen::community::community_graph(
                ssr_gen::community::CommunityParams {
                    nodes,
                    papers: (edges / 8).max(nodes / 2),
                    communities: (nodes / 40).max(4),
                    ..Default::default()
                },
                seed,
            )
            .graph
        }
        other => {
            return Err(ArgError(format!(
                "unknown --kind `{other}` (er|rmat|web|citation|coauthor)"
            )))
        }
    };
    if args.has("store") {
        // Straight to the binary store: no text round-trip, and the build
        // provenance rides along as metadata.
        let path = args.req("store")?;
        let bytes = ssr_store::StoreWriter::new(&g)
            .meta(ssr_store::meta_keys::BUILD, format!("kind={kind} seed={seed}"))
            .write_file(path)
            .map_err(|e| ArgError(format!("writing store `{path}`: {e}")))?;
        let mut out = format!(
            "wrote store {path}: n={} m={} ({bytes} bytes)\n",
            g.node_count(),
            g.edge_count()
        );
        if args.has("output") {
            out.push_str(&write_or_return(&args, gio::to_edge_list_string(&g))?);
        }
        return Ok(out);
    }
    let text = gio::to_edge_list_string(&g);
    write_or_return(&args, text)
}

fn write_or_return(args: &Args, content: String) -> Result<String, ArgError> {
    match args.opt("output", "") {
        "" => Ok(content),
        path => {
            let mut f = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("creating `{path}`: {e}")))?;
            f.write_all(content.as_bytes())
                .map_err(|e| ArgError(format!("writing `{path}`: {e}")))?;
            Ok(format!("wrote {} bytes to {path}\n", content.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn tmp_graph() -> String {
        // Written once per test process: tests run in parallel, and one
        // rewriting the file while another reads it hands the reader a
        // truncated graph.
        static PATH: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        PATH.get_or_init(|| {
            let dir = std::env::temp_dir().join("simstar_cli_test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("fig1_{}.txt", std::process::id()));
            let g = ssr_gen::fixtures::figure1_graph();
            std::fs::write(&path, gio::to_edge_list_string(&g)).unwrap();
            path.to_string_lossy().into_owned()
        })
        .clone()
    }

    #[test]
    fn help_prints_usage() {
        assert!(run("help", &[]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run("frobnicate", &[]).is_err());
    }

    #[test]
    fn stats_on_generated_graph() {
        let p = tmp_graph();
        let out = run("stats", &toks(&format!("--input {p}"))).unwrap();
        assert!(out.contains("nodes"));
        assert!(out.contains("compressed edges"));
    }

    #[test]
    fn compute_all_algos() {
        let p = tmp_graph();
        for algo in ["gsr", "esr", "memo-gsr", "memo-esr", "sr", "prank", "rwr"] {
            let out = run("compute", &toks(&format!("--input {p} --algo {algo} --k 3"))).unwrap();
            assert!(out.contains("simstar compute"), "{algo}");
        }
    }

    #[test]
    fn compute_rejects_bad_c() {
        let p = tmp_graph();
        assert!(run("compute", &toks(&format!("--input {p} --c 1.5"))).is_err());
    }

    #[test]
    fn allpairs_full_matches_compute_gsr() {
        let p = tmp_graph();
        let full = run("allpairs", &toks(&format!("--input {p} --k 4"))).unwrap();
        let compute = run("compute", &toks(&format!("--input {p} --algo gsr --k 4"))).unwrap();
        let strip = |s: &str| {
            s.lines().filter(|l| !l.starts_with('#')).map(String::from).collect::<Vec<_>>()
        };
        assert_eq!(strip(&full), strip(&compute));
    }

    #[test]
    fn allpairs_subset_rows_only() {
        let p = tmp_graph();
        let out = run("allpairs", &toks(&format!("--input {p} --subset 8,3 --k 4"))).unwrap();
        assert!(out.contains("partial pairs"));
        for l in out.lines().filter(|l| !l.starts_with('#')) {
            let a = l.split('\t').next().unwrap();
            assert!(a == "8" || a == "3", "unexpected row {l}");
        }
    }

    #[test]
    fn allpairs_top_k_streams_rankings() {
        let p = tmp_graph();
        let out = run("allpairs", &toks(&format!("--input {p} --top-k 3 --threads 2 --blocks 8")))
            .unwrap();
        let rows = out.lines().filter(|l| !l.starts_with('#')).count();
        // Figure-1 graph has 11 nodes; ≤ 3 matches per node.
        assert!(rows > 11 && rows <= 33, "{rows}");
        // Per-row rankings agree with the single-source query path.
        let q = run("query", &toks(&format!("--input {p} --node 8 --top-k 3"))).unwrap();
        let want: Vec<String> =
            q.lines().filter(|l| !l.starts_with('#')).map(|l| format!("8\t{l}")).collect();
        let got: Vec<&str> = out.lines().filter(|l| l.starts_with("8\t")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn compute_memo_gsr_matches_allpairs_full() {
        use ssr_serve::json::{parse_json, Json};
        // The memoized full matrix and the engine's plain one name the same
        // pairs with scores within 1e-10. JSON carries shortest-round-trip
        // scores: the 7-digit text can differ in its last digit.
        let p = tmp_graph();
        let entries = |cmd: &str, extra: &str| {
            let out = run(cmd, &toks(&format!("--input {p} --k 4 --format json{extra}"))).unwrap();
            let doc = parse_json(out.trim()).unwrap();
            doc.get("entries")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let e = e.as_arr().unwrap();
                    let num = |i: usize| e[i].as_num().unwrap();
                    (num(0) as u32, num(1) as u32, num(2))
                })
                .collect::<Vec<_>>()
        };
        let memo = entries("compute", " --algo memo-gsr");
        let full = entries("allpairs", "");
        assert!(!memo.is_empty());
        assert_eq!(memo.len(), full.len());
        for (&(a, b, s), &(fa, fb, fs)) in memo.iter().zip(&full) {
            assert_eq!((a, b), (fa, fb));
            assert!((s - fs).abs() < 1e-10, "({a}, {b}): memo {s} vs plain {fs}");
        }
    }

    #[test]
    fn allpairs_threshold_consistent_between_full_and_subset() {
        let p = tmp_graph();
        // Same rows survive the same threshold through both paths.
        let full = run("allpairs", &toks(&format!("--input {p} --k 4 --threshold 1e-3"))).unwrap();
        let part =
            run("allpairs", &toks(&format!("--input {p} --k 4 --threshold 1e-3 --subset 8")))
                .unwrap();
        let rows_of = |s: &str| {
            s.lines().filter(|l| l.starts_with("8\t")).map(String::from).collect::<Vec<_>>()
        };
        assert_eq!(rows_of(&full), rows_of(&part));
        // Threshold is meaningless for rankings and is rejected.
        assert!(run("allpairs", &toks(&format!("--input {p} --top-k 3 --threshold 0.5"))).is_err());
    }

    #[test]
    fn allpairs_rejects_bad_subset() {
        let p = tmp_graph();
        assert!(run("allpairs", &toks(&format!("--input {p} --subset 999"))).is_err());
        assert!(run("allpairs", &toks(&format!("--input {p} --subset x"))).is_err());
    }

    #[test]
    fn query_returns_ranked_rows() {
        let p = tmp_graph();
        let out = run("query", &toks(&format!("--input {p} --node 8 --top 3"))).unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn query_requires_node() {
        let p = tmp_graph();
        assert!(run("query", &toks(&format!("--input {p}"))).is_err());
    }

    #[test]
    fn query_mode_flags_are_exclusive() {
        let p = tmp_graph();
        assert!(run("query", &toks(&format!("--input {p} --node 1 --batch 4"))).is_err());
    }

    #[test]
    fn query_top_k_flag_matches_top_alias() {
        let p = tmp_graph();
        let a = run("query", &toks(&format!("--input {p} --node 8 --top 3"))).unwrap();
        let b = run("query", &toks(&format!("--input {p} --node 8 --top-k 3"))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn query_single_nodes_entry_keeps_batched_format() {
        let p = tmp_graph();
        let out = run("query", &toks(&format!("--input {p} --nodes 8 --top-k 2"))).unwrap();
        assert!(out.contains("batched top-2"));
        assert!(out.lines().skip(1).all(|l| l.starts_with("8\t")));
    }

    #[test]
    fn query_nodes_runs_batched_and_matches_single() {
        let p = tmp_graph();
        let batched = run("query", &toks(&format!("--input {p} --nodes 8,3 --top-k 2"))).unwrap();
        let rows: Vec<&str> = batched.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(rows.len(), 4);
        // Batched rows for node 8 equal the single-query ranking.
        let single = run("query", &toks(&format!("--input {p} --node 8 --top-k 2"))).unwrap();
        let single_rows: Vec<&str> = single.lines().filter(|l| !l.starts_with('#')).collect();
        for (b, s) in rows.iter().take(2).zip(&single_rows) {
            assert_eq!(b.strip_prefix("8\t").unwrap(), *s);
        }
    }

    #[test]
    fn query_batch_samples_stratified_queries() {
        let p = tmp_graph();
        let out =
            run("query", &toks(&format!("--input {p} --batch 4 --top-k 3 --seed 1"))).unwrap();
        assert!(out.contains("batched top-3"));
        let rows = out.lines().filter(|l| !l.starts_with('#')).count();
        assert!(rows > 0 && rows <= 12, "{rows}");
    }

    #[test]
    fn query_bounds_checked() {
        let p = tmp_graph();
        assert!(run("query", &toks(&format!("--input {p} --node 999"))).is_err());
    }

    #[test]
    fn query_json_parses_and_matches_text_output() {
        use ssr_serve::json::{parse_json, Json};
        let p = tmp_graph();
        let text = run("query", &toks(&format!("--input {p} --nodes 8,3 --top-k 2"))).unwrap();
        let json = run("query", &toks(&format!("--input {p} --nodes 8,3 --top-k 2 --format json")))
            .unwrap();
        let doc = parse_json(json.trim()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("simstar/query/v1"));
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        // Every (query, node, score) row of the text output appears in the
        // JSON with at least the text format's precision.
        let mut text_rows = text.lines().filter(|l| !l.starts_with('#'));
        for r in results {
            let q = r.get("node").and_then(Json::as_num).unwrap() as u32;
            for m in r.get("matches").and_then(Json::as_arr).unwrap() {
                let pair = m.as_arr().unwrap();
                let (v, s) = (pair[0].as_num().unwrap() as u32, pair[1].as_num().unwrap());
                assert_eq!(text_rows.next().unwrap(), format!("{q}\t{v}\t{s:.6}"));
            }
        }
        assert!(text_rows.next().is_none());
    }

    #[test]
    fn query_json_single_node_keeps_shape() {
        use ssr_serve::json::{parse_json, Json};
        let p = tmp_graph();
        let json =
            run("query", &toks(&format!("--input {p} --node 8 --top-k 3 --format json"))).unwrap();
        let doc = parse_json(json.trim()).unwrap();
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("node").and_then(Json::as_num), Some(8.0));
        assert_eq!(results[0].get("matches").and_then(Json::as_arr).unwrap().len(), 3);
    }

    #[test]
    fn allpairs_json_topk_and_entries_modes() {
        use ssr_serve::json::{parse_json, Json};
        let p = tmp_graph();
        let ranked =
            run("allpairs", &toks(&format!("--input {p} --top-k 2 --format json"))).unwrap();
        let doc = parse_json(ranked.trim()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("simstar/allpairs/v1"));
        assert_eq!(doc.get("results").and_then(Json::as_arr).unwrap().len(), 11);
        let matrix = run(
            "allpairs",
            &toks(&format!("--input {p} --subset 8 --threshold 1e-3 --format json")),
        )
        .unwrap();
        let doc = parse_json(matrix.trim()).unwrap();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert!(!entries.is_empty());
        // Entries agree with the text output rows.
        let text =
            run("allpairs", &toks(&format!("--input {p} --subset 8 --threshold 1e-3"))).unwrap();
        assert_eq!(entries.len(), text.lines().filter(|l| !l.starts_with('#')).count());
        for e in entries {
            let t = e.as_arr().unwrap();
            assert_eq!(t[0].as_num(), Some(8.0));
            assert!(t[2].as_num().unwrap() >= 1e-3);
        }
    }

    #[test]
    fn serve_round_trip_via_announce_file() {
        use ssr_serve::client::{Client, Reply};
        let p = tmp_graph();
        let dir = std::env::temp_dir().join("simstar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let announce = dir.join(format!("addr_{}.txt", std::process::id()));
        std::fs::remove_file(&announce).ok();
        let announce_str = announce.to_string_lossy().into_owned();
        let serve_args =
            toks(&format!("--input {p} --port 0 --announce {announce_str} --window-us 200"));
        let server = std::thread::spawn(move || run("serve", &serve_args));
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&announce) {
                    if s.trim().contains(':') {
                        break s.trim().to_string();
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 1;
                assert!(waited < 500, "server never announced");
            }
        };
        let mut client = Client::connect(&addr).unwrap();
        let Reply::Ok(reply) = client.query(8, 3).unwrap() else { panic!("query failed") };
        assert_eq!(reply.epoch, 0);
        assert_eq!(reply.matches.len(), 3);
        // The ranked ids agree with the offline query command.
        let text = run("query", &toks(&format!("--input {p} --node 8 --top-k 3"))).unwrap();
        let offline: Vec<u32> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split('\t').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(reply.matches.iter().map(|&(v, _)| v).collect::<Vec<_>>(), offline);
        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("stopped"));
        std::fs::remove_file(&announce).ok();
    }

    #[test]
    fn bench_serve_runs_phases_and_writes_json() {
        use ssr_serve::json::{parse_json, Json};
        let p = tmp_graph();
        let dir = std::env::temp_dir().join("simstar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let announce = dir.join(format!("bench_addr_{}.txt", std::process::id()));
        std::fs::remove_file(&announce).ok();
        let out_path = dir.join(format!("bench_serve_{}.json", std::process::id()));
        let announce_str = announce.to_string_lossy().into_owned();
        let serve_args = toks(&format!("--input {p} --port 0 --announce {announce_str}"));
        let server = std::thread::spawn(move || run("serve", &serve_args));
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&announce) {
                    if s.trim().contains(':') {
                        break s.trim().to_string();
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                waited += 1;
                assert!(waited < 500, "server never announced");
            }
        };
        let out = run(
            "bench-serve",
            &toks(&format!(
                "--addr {addr} --clients 3 --requests 4 --top-k 3 --window-us 300 \
                 --idle-conns 8 --name fig1 --out {} --shutdown true",
                out_path.to_string_lossy()
            )),
        )
        .unwrap();
        assert!(out.contains("speedup batched vs serial"), "{out}");
        assert!(out.contains("server asked to shut down"));
        let doc = parse_json(std::fs::read_to_string(&out_path).unwrap().trim()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ssr-bench/serve/v1"));
        let ds = &doc.get("datasets").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(ds.get("name").and_then(Json::as_str), Some("fig1"));
        let modes = ds.get("modes").unwrap();
        for m in ["serial", "batched", "cached"] {
            let mode = modes.get(m).unwrap();
            assert_eq!(mode.get("requests").and_then(Json::as_num), Some(12.0), "{m}");
            assert!(mode.get("p50_us").and_then(Json::as_num).unwrap() > 0.0, "{m}");
        }
        for m in ["json_serial", "ssb_serial", "ssb_pipelined", "conns_1k"] {
            assert!(modes.get(m).is_some(), "{m} mode missing from the report");
        }
        let pipelined = modes.get("ssb_pipelined").unwrap();
        assert_eq!(pipelined.get("protocol").and_then(Json::as_str), Some("ssb/1"));
        assert!(pipelined.get("pipeline").and_then(Json::as_num).unwrap() > 1.0);
        assert!(
            modes.get("conns_1k").unwrap().get("connections").and_then(Json::as_num).unwrap()
                >= 8.0
        );
        // The cached phase's hot pool (min(64, n) = all 11 nodes here)
        // repeats nodes across 12 requests ⇒ hits are guaranteed.
        assert!(
            modes.get("cached").unwrap().get("cache_hit_rate").and_then(Json::as_num).unwrap()
                > 0.0
        );
        server.join().unwrap().unwrap();
        std::fs::remove_file(&announce).ok();
        std::fs::remove_file(&out_path).ok();
    }

    /// `serve-probe` against a live `serve --announce` process: its lines
    /// are, bit for bit, the `q\tv\tscore` lines of an in-process engine
    /// on the same graph, and `--healthz` reports the served epoch.
    #[test]
    fn serve_probe_matches_engine_bits_and_healthz_reports_epoch() {
        let p = tmp_graph();
        let dir = std::env::temp_dir().join("simstar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let announce = dir.join(format!("probe_addr_{}.txt", std::process::id()));
        std::fs::remove_file(&announce).ok();
        let announce_str = announce.to_string_lossy().into_owned();
        let serve_args = toks(&format!("--input {p} --port 0 --announce {announce_str}"));
        let server = std::thread::spawn(move || run("serve", &serve_args));
        let probe = run(
            "serve-probe",
            &toks(&format!("--announce {announce_str} --wait-announce 10 --top-k 4")),
        )
        .unwrap();
        let served: Vec<&str> = probe.lines().filter(|l| !l.starts_with('#')).collect();
        // `serve`'s defaults: c = 0.6, K = 5.
        let g = ssr_store::load_graph_auto(&p).unwrap();
        let engine = QueryEngine::new(&g, SimStarParams { c: 0.6, iterations: 5 });
        let expected: Vec<String> = (0..g.node_count() as u32)
            .flat_map(|q| {
                engine.top_k(q, 4).into_iter().map(move |(v, s)| format!("{q}\t{v}\t{s}"))
            })
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(served, expected, "served answers must be the engine's bits");
        let health =
            run("serve-probe", &toks(&format!("--announce {announce_str} --healthz true")))
                .unwrap();
        assert_eq!(health, "ok epoch=0\n");
        let addr = std::fs::read_to_string(&announce).unwrap().trim().to_string();
        ssr_serve::client::Client::connect(&addr).unwrap().shutdown().unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_file(&announce).ok();
    }

    #[test]
    fn audit_reports_percentages() {
        let p = tmp_graph();
        let out = run("audit", &toks(&format!("--input {p} --samples 200"))).unwrap();
        assert!(out.contains("SimRank"));
        assert!(out.contains("RWR"));
    }

    #[test]
    fn generate_round_trips() {
        for kind in ["er", "rmat", "web", "citation", "coauthor"] {
            let out =
                run("generate", &toks(&format!("--kind {kind} --nodes 64 --edges 256 --seed 1")))
                    .unwrap();
            let g = ssr_graph::io::graph_from_edge_list(&out).unwrap();
            assert!(g.edge_count() > 0, "{kind}");
        }
    }

    #[test]
    fn generate_to_file() {
        let dir = std::env::temp_dir().join("simstar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.txt");
        let out = run(
            "generate",
            &toks(&format!("--kind er --nodes 32 --edges 64 --output {}", path.to_string_lossy())),
        )
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(path.exists());
    }

    #[test]
    fn generate_store_emits_loadable_ssg() {
        let dir = std::env::temp_dir().join("simstar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let pid = std::process::id();
        let ssg = dir.join(format!("gen_{pid}.ssg"));
        let txt = dir.join(format!("gen_{pid}.txt"));
        let out = run(
            "generate",
            &toks(&format!(
                "--kind er --nodes 32 --edges 64 --seed 3 --store {} --output {}",
                ssg.to_string_lossy(),
                txt.to_string_lossy()
            )),
        )
        .unwrap();
        assert!(out.contains("wrote store"), "{out}");
        // The store and the text output describe the identical graph, and
        // build provenance rides along as metadata.
        let from_store = ssr_store::load_graph_auto(&ssg).unwrap();
        let from_text = ssr_store::load_graph_auto(&txt).unwrap();
        assert_eq!(from_store, from_text);
        let r = ssr_store::StoreReader::open(&ssg).unwrap();
        assert_eq!(r.meta(ssr_store::meta_keys::BUILD), Some("kind=er seed=3"));
        // Store-only mode works too (no text dumped to stdout).
        let only = run(
            "generate",
            &toks(&format!(
                "--kind er --nodes 32 --edges 64 --seed 3 --store {}",
                ssg.to_string_lossy()
            )),
        )
        .unwrap();
        assert!(only.starts_with("wrote store"));
        std::fs::remove_file(&ssg).ok();
        std::fs::remove_file(&txt).ok();
    }

    #[test]
    fn missing_input_file_errors() {
        assert!(run("stats", &toks("--input /nonexistent/graph.txt")).is_err());
    }

    /// Builds a v2 `.ssg` store of the Figure 1 graph and returns its path.
    fn tmp_store(tag: &str) -> String {
        let text = tmp_graph();
        let dir = std::env::temp_dir().join("simstar_cli_test");
        let ssg = dir.join(format!("{}_{tag}.ssg", std::process::id()));
        let ssg = ssg.to_string_lossy().into_owned();
        run("store", &toks(&format!("build --input {text} --output {ssg}"))).unwrap();
        ssg
    }

    #[test]
    fn v2_store_streams_query_but_refuses_full_csr_paths() {
        let text = tmp_graph();
        let ssg = tmp_store("stream");
        // Row-streaming paths run off the store and answer identically.
        let q_text = run("query", &toks(&format!("--input {text} --node 8 --top-k 3"))).unwrap();
        let q_ssg = run("query", &toks(&format!("--input {ssg} --node 8 --top-k 3"))).unwrap();
        assert_eq!(q_text, q_ssg);
        let a_text = run("allpairs", &toks(&format!("--input {text} --top-k 2"))).unwrap();
        let a_ssg = run("allpairs", &toks(&format!("--input {ssg} --top-k 2"))).unwrap();
        assert_eq!(a_text, a_ssg);
        // Paths that genuinely need the full CSR refuse the v2 store...
        for (cmd, args) in [
            ("compute", format!("--input {ssg} --k 3")),
            ("stats", format!("--input {ssg}")),
            ("audit", format!("--input {ssg} --samples 10 --radius 2")),
            ("allpairs", format!("--input {ssg} --k 3")),
        ] {
            let err = run(cmd, &toks(&args)).unwrap_err();
            assert!(err.0.contains("random-access (v2) store"), "{cmd}: {err}");
            assert!(err.0.contains("--load-full"), "{cmd}: {err}");
            // ...and --load-full true decodes the graph and proceeds.
            let out = run(cmd, &toks(&format!("{args} --load-full true"))).unwrap();
            let reference = run(cmd, &toks(&args.replacen(&ssg, &text, 1))).unwrap();
            assert_eq!(out, reference, "{cmd}");
        }
        // Batched sampling also needs the CSR.
        let err = run("query", &toks(&format!("--input {ssg} --batch 3"))).unwrap_err();
        assert!(err.0.contains("--load-full"), "{err}");
        std::fs::remove_file(&ssg).ok();
    }

    #[test]
    fn memory_flag_reports_backing() {
        let text = tmp_graph();
        let ssg = tmp_store("mem");
        let on_store =
            run("query", &toks(&format!("--input {ssg} --node 8 --memory true"))).unwrap();
        assert!(on_store.contains("# memory: backing=store"), "{on_store}");
        assert!(on_store.contains("cache_budget_bytes="), "{on_store}");
        let on_text =
            run("query", &toks(&format!("--input {text} --node 8 --memory true"))).unwrap();
        assert!(on_text.contains("# memory: backing=csr"), "{on_text}");
        let ap = run("allpairs", &toks(&format!("--input {ssg} --top-k 2 --memory true"))).unwrap();
        assert!(ap.contains("# memory: backing=store"), "{ap}");
        let st = run("stats", &toks(&format!("--input {text} --memory true"))).unwrap();
        assert!(st.contains("memory"), "{st}");
        assert!(st.contains("engine"), "{st}");
        let sj =
            run("stats", &toks(&format!("--input {text} --memory true --format json"))).unwrap();
        assert!(sj.contains("engine_bytes"), "{sj}");
        assert!(sj.contains("graph_bytes"), "{sj}");
        std::fs::remove_file(&ssg).ok();
    }

    #[test]
    fn deterministic_query_identical_across_backings() {
        let text = tmp_graph();
        let ssg = tmp_store("det");
        let dir = std::env::temp_dir().join("simstar_cli_test");
        let perm = dir.join(format!("{}_det_perm.ssg", std::process::id()));
        let perm = perm.to_string_lossy().into_owned();
        run("store", &toks(&format!("perm --input {ssg} --output {perm} --order bfs"))).unwrap();
        let args = "--nodes 2,5,8 --top-k 4 --format json";
        let from_text = run("query", &toks(&format!("--input {text} {args}"))).unwrap();
        let from_store = run("query", &toks(&format!("--input {ssg} {args}"))).unwrap();
        let from_perm = run("query", &toks(&format!("--input {perm} {args}"))).unwrap();
        // In-memory CSR, mmap store, and permuted store answer bit for bit alike.
        assert_eq!(from_text, from_store);
        assert_eq!(from_text, from_perm);
        std::fs::remove_file(&ssg).ok();
        std::fs::remove_file(&perm).ok();
    }
}
