//! Seeded randomness, node pools, order statistics and process probes.

use ssr_graph::{DiGraph, NodeId};

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// draws is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap (seconds) of a Poisson process.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Every node, in-degree-stratified (the paper's §5 query protocol):
/// nodes are split into four equal in-degree quartiles, each quartile is
/// shuffled, and the quartiles are interleaved round-robin, so any prefix
/// of the pool draws evenly from every degree stratum.
pub fn stratified_pool(g: &DiGraph, rng: &mut Rng) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
    let tiebreak: Vec<u64> = by_degree.iter().map(|_| rng.next_u64()).collect();
    by_degree.sort_by_key(|&v| (g.in_degree(v), tiebreak[v as usize]));
    let quarter = by_degree.len().div_ceil(4).max(1);
    let mut strata: Vec<Vec<NodeId>> = by_degree.chunks(quarter).map(<[NodeId]>::to_vec).collect();
    for s in &mut strata {
        rng.shuffle(s);
    }
    let longest = strata.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|i| strata.iter().filter_map(move |s| s.get(i).copied())).collect()
}

/// Zipf(1.0) popularity over a fixed node set: rank `r` is drawn with
/// weight `1/(r+1)`.
pub struct Zipf {
    nodes: Vec<NodeId>,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(nodes: Vec<NodeId>) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..nodes.len())
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { nodes, cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> NodeId {
        let u = rng.unit();
        let r = self.cdf.partition_point(|&c| c < u).min(self.nodes.len() - 1);
        self.nodes[r]
    }
}

/// `count` distinct nodes drawn uniformly.
pub fn distinct_sample(n: usize, count: usize, rng: &mut Rng) -> Vec<NodeId> {
    let mut all: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut all);
    all.truncate(count.min(n));
    all
}

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 1]`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time (user + system, every thread) that process `pid` has used so
/// far, in seconds; `0` is this process. The kernel leaves out time the
/// hypervisor took from the virtual CPU (steal), so on a shared machine
/// this stays put while wall-clock times stretch.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let mut clock = 0i32;
    // SAFETY: `clock` is a valid out-pointer for the duration of the call.
    let err = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
    if err != 0 {
        return Err(format!("no CPU clock for pid {pid} (error {err})"));
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "reading the CPU clock of pid {pid}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time the hypervisor has taken from this machine's virtual CPUs
/// (`steal` in `/proc/stat`, summed over CPUs), in seconds; 0 where the
/// kernel does not report it.
pub fn steal_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux ABI.
    ticks / 100.0
}

/// User and system CPU seconds of process `pid` (`/proc/<pid>/stat`).
pub fn user_system_seconds(pid: u32) -> Result<(f64, f64), String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100) ticks.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<f64> = rest.split_whitespace().map(|f| f.parse().unwrap_or(0.0)).collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => Ok((u / 100.0, s / 100.0)),
        _ => Err(format!("unparseable {path}")),
    }
}

/// Mean of a sample (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable `{line}`"))?;
    Ok(kib / 1024.0)
}
