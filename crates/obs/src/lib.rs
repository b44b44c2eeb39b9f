//! # ssr-obs — lock-free metrics for the serve stack
//!
//! Observability primitives shared by `ssr-serve`, the CLI, and the
//! bench runners: a [`Registry`] of monotonic [`Counter`]s, [`Gauge`]s,
//! and log-bucketed latency [`Histogram`]s, plus a lightweight [`Span`]
//! API for timing pipeline stages. Design constraints, in order:
//!
//! * **Lock-free hot path.** Recording a value is a handful of `Relaxed`
//!   atomic adds — no locks, no allocation, no branches beyond the
//!   enabled check. The registry's single mutex guards only metric
//!   *registration* (startup) and *snapshotting* (an admin op).
//! * **HDR-style bucketing.** A histogram covers the full `u64` range in
//!   1920 fixed buckets: values below 32 map exactly, larger values land
//!   in a power-of-two group split into 32 linear sub-buckets
//!   ([`SUB_BITS`] = 5), bounding relative quantile error at ~3%. A
//!   histogram is ~15 KiB of atomics; merging two is bucket-wise adds.
//! * **Pre-rendered names.** Labels are rendered into the metric's full
//!   exposition name (`name{k="v"}`) once at registration, so a
//!   [`RegistrySnapshot`] is a flat list of `(String, u64)` pairs —
//!   trivially wire-encodable and directly renderable as
//!   Prometheus-compatible text ([`RegistrySnapshot::render_prometheus`]).
//! * **Kill switch.** A registry built with [`Registry::disabled`] hands
//!   out no-op handles: the same code paths run, every record is an early
//!   return. This is what the CI overhead gate compares against.
//!
//! Quantiles are nearest-rank over the frozen bucket counts and report
//! each bucket's inclusive upper bound, so `p50 <= p90 <= p99 <= p999`
//! always holds and every reported quantile is a value the histogram
//! could actually have seen.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod trace;

pub use trace::{Trace, TraceSpan, NO_PARENT, TRACE_SCHEMA_VERSION};

/// CPU time the calling thread has run so far, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`; `None` where that clock
/// cannot be read. The kernel brings it up to date at every read, so a
/// short section reads its own cost, which a counter updated only at
/// scheduler ticks does not.
pub fn thread_cpu_time() -> Option<std::time::Duration> {
    cpu_clock::thread()
}

#[allow(unsafe_code)]
mod cpu_clock {
    //! The `clock_gettime` FFI shim: the only unsafe code in the crate.

    use std::time::Duration;

    #[cfg(target_os = "linux")]
    pub fn thread() -> Option<Duration> {
        use std::ffi::{c_int, c_long};

        /// `struct timespec` (`time_t` is a C `long` on Linux).
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }

        const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

        extern "C" {
            fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        }

        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, writable `timespec` for the whole call.
        let ret = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (ret == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    #[cfg(not(target_os = "linux"))]
    pub fn thread() -> Option<Duration> {
        None
    }
}

/// Sub-bucket resolution: each power-of-two group is split into
/// `2^SUB_BITS = 32` linear sub-buckets, bounding relative error at
/// `2^-SUB_BITS` (~3%).
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per power-of-two group.
const SUB: usize = 1 << SUB_BITS;

/// Total buckets: group 0 holds the exact values `0..32`; groups
/// `1..=59` cover the exponents `5..=63`, 32 sub-buckets each.
pub const NUM_BUCKETS: usize = 60 * SUB;

/// The bucket index a value lands in. Exact below `SUB`; log-bucketed
/// with `SUB` linear sub-buckets per octave above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // highest set bit, >= SUB_BITS
        let group = (h - SUB_BITS + 1) as usize;
        let sub = ((v >> (h - SUB_BITS)) as usize) & (SUB - 1);
        group * SUB + sub
    }
}

/// The largest value that maps to bucket `i` — the inclusive upper bound
/// quantiles report.
#[inline]
pub fn bucket_high(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i < SUB {
        i as u64
    } else {
        let group = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let h = group + SUB_BITS - 1;
        let width = 1u64 << (h - SUB_BITS);
        (1u64 << h) + sub * width + (width - 1)
    }
}

/// A monotonically increasing counter. Cheap to clone; clones share the
/// same underlying atomic.
#[derive(Clone, Debug)]
pub struct Counter {
    v: Arc<AtomicU64>,
    on: bool,
}

impl Counter {
    /// A standalone counter not attached to any registry.
    pub fn unregistered() -> Counter {
        Counter { v: Arc::new(AtomicU64::new(0)), on: true }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can be set to anything at any time. Clones
/// share the underlying atomic.
#[derive(Clone, Debug)]
pub struct Gauge {
    v: Arc<AtomicU64>,
    on: bool,
}

impl Gauge {
    /// A standalone gauge not attached to any registry.
    pub fn unregistered() -> Gauge {
        Gauge { v: Arc::new(AtomicU64::new(0)), on: true }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, n: u64) {
        if self.on {
            self.v.store(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Shared histogram storage: atomic buckets plus running count/sum/max.
#[derive(Debug)]
struct HistStore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistStore {
    fn new() -> HistStore {
        HistStore {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed histogram of `u64` samples (the serve stack records
/// microseconds). Recording is four `Relaxed` atomic operations; clones
/// share the underlying buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    store: Arc<HistStore>,
    on: bool,
}

impl Histogram {
    /// A standalone histogram not attached to any registry (the load
    /// generator uses these per client thread, then merges).
    pub fn unregistered() -> Histogram {
        Histogram { store: Arc::new(HistStore::new()), on: true }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.on {
            return;
        }
        let s = &*self.store;
        s.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(v, Ordering::Relaxed);
        s.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Bucket-wise merges `other` into `self` — equivalent to having
    /// recorded `other`'s samples here (same buckets, so lossless).
    pub fn merge_from(&self, other: &Histogram) {
        if !self.on {
            return;
        }
        let (a, b) = (&*self.store, &*other.store);
        for (dst, src) in a.buckets.iter().zip(&b.buckets) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        a.count.fetch_add(b.count.load(Ordering::Relaxed), Ordering::Relaxed);
        a.sum.fetch_add(b.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        a.max.fetch_max(b.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.store.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.store.sum.load(Ordering::Relaxed)
    }

    /// The nearest-rank `q`-quantile (`0.0..=1.0`), reported as the
    /// containing bucket's inclusive upper bound; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> =
            self.store.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        quantile_from(&counts, q)
    }

    /// Freezes the histogram into a plain snapshot under `name`.
    pub fn snapshot(&self, name: &str) -> HistSnap {
        let s = &*self.store;
        let counts: Vec<u64> = s.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        HistSnap {
            name: name.to_string(),
            count,
            sum: s.sum.load(Ordering::Relaxed),
            max: s.max.load(Ordering::Relaxed),
            p50: quantile_from(&counts, 0.50),
            p90: quantile_from(&counts, 0.90),
            p99: quantile_from(&counts, 0.99),
            p999: quantile_from(&counts, 0.999),
        }
    }
}

/// Nearest-rank quantile over frozen bucket counts.
fn quantile_from(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_high(i);
        }
    }
    bucket_high(NUM_BUCKETS - 1)
}

/// A stage timer: captures `Instant::now()` on entry and records the
/// elapsed **microseconds** into its histogram on [`Span::exit_us`] or
/// drop. No allocation; the histogram handle is borrowed.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing against `hist`.
    #[inline]
    pub fn enter(hist: &'a Histogram) -> Span<'a> {
        Span { hist, start: Instant::now() }
    }

    /// Stops the span, records, and returns the elapsed microseconds.
    #[inline]
    pub fn exit_us(self) -> u64 {
        let us = self.start.elapsed().as_micros() as u64;
        self.hist.record(us);
        std::mem::forget(self);
        us
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
    }
}

/// A frozen histogram: identity plus the summary the wire protocol and
/// the exposition carry. Quantile fields are bucket upper bounds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnap {
    /// Full exposition name, labels included.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// A frozen registry: every metric's pre-rendered name and value, sorted
/// by name. This is what the `metrics` admin op returns on the wire and
/// what the Prometheus renderer consumes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Monotonic counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries.
    pub hists: Vec<HistSnap>,
}

/// Splits a pre-rendered name into `(base, labels)` where `labels` is
/// the `{...}` suffix or empty.
fn split_name(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Splices an extra label into a pre-rendered name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    let (base, labels) = split_name(name);
    if labels.is_empty() {
        format!("{base}{{{key}=\"{value}\"}}")
    } else {
        format!("{base}{{{key}=\"{value}\",{}", &labels[1..])
    }
}

impl RegistrySnapshot {
    /// Renders the snapshot as Prometheus text exposition: counters and
    /// gauges as single samples, histograms as `summary` families with
    /// `quantile` labels plus `_sum` / `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        let type_line = |out: &mut String, last: &mut String, name: &str, kind: &str| {
            let (base, _) = split_name(name);
            if *last != base {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                *last = base.to_string();
            }
        };
        for (name, v) in &self.counters {
            type_line(&mut out, &mut last_base, name, "counter");
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            type_line(&mut out, &mut last_base, name, "gauge");
            out.push_str(&format!("{name} {v}\n"));
        }
        for h in &self.hists {
            type_line(&mut out, &mut last_base, &h.name, "summary");
            let (base, labels) = split_name(&h.name);
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99), ("0.999", h.p999)] {
                out.push_str(&format!("{} {v}\n", with_label(&h.name, "quantile", q)));
            }
            out.push_str(&format!("{base}_sum{labels} {}\n", h.sum));
            out.push_str(&format!("{base}_count{labels} {}\n", h.count));
        }
        out
    }
}

/// Checks that `text` parses as Prometheus text exposition (the dialect
/// [`RegistrySnapshot::render_prometheus`] emits) and returns the set of
/// base metric names seen. CI scrapes a live server and gates on this.
pub fn validate_exposition(text: &str) -> Result<std::collections::BTreeSet<String>, String> {
    let mut names = std::collections::BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: `{line}`", lineno + 1);
        // `name{labels} value` or `name value`.
        let (name_part, value_part) = match line.rfind(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => return Err(err("no value")),
        };
        let (base, labels) = split_name(name_part);
        if base.is_empty()
            || !base.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || base.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(err("bad metric name"));
        }
        if !labels.is_empty() {
            if !labels.starts_with('{') || !labels.ends_with('}') {
                return Err(err("unbalanced label braces"));
            }
            for pair in labels[1..labels.len() - 1].split(',') {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(err("label without `=`"));
                };
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(err("label value not quoted"));
                }
            }
        }
        if value_part.parse::<f64>().is_err() {
            return Err(err("value not numeric"));
        }
        // Summary series all belong to one family.
        let base = base.strip_suffix("_sum").unwrap_or(base);
        let base = base.strip_suffix("_count").unwrap_or(base);
        names.insert(base.to_string());
    }
    Ok(names)
}

/// The registration table behind the registry mutex. Linear lookup —
/// registration happens at startup, not per request.
#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    hists: Vec<(String, Histogram)>,
}

/// The metric registry: hands out shared handles keyed by pre-rendered
/// name, and freezes into a [`RegistrySnapshot`] on demand. Registering
/// the same `(name, labels)` twice returns the same underlying metric.
pub struct Registry {
    on: bool,
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Registry {
        Registry { on: true, inner: Mutex::new(RegistryInner::default()) }
    }

    /// A no-op registry: handles are handed out but never record — the
    /// baseline the overhead gate measures against.
    pub fn disabled() -> Registry {
        Registry { on: false, inner: Mutex::new(RegistryInner::default()) }
    }

    /// Whether handles from this registry record.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Renders `base{labels}` — the exposition name used as the key.
    pub fn render_name(base: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return base.to_string();
        }
        let mut s = String::with_capacity(base.len() + 16 * labels.len());
        s.push_str(base);
        s.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{k}=\"{v}\""));
        }
        s.push('}');
        s
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, base: &str, labels: &[(&str, &str)]) -> Counter {
        let name = Self::render_name(base, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| *n == name) {
            return c.clone();
        }
        let c = Counter { v: Arc::new(AtomicU64::new(0)), on: self.on };
        inner.counters.push((name, c.clone()));
        c
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, base: &str, labels: &[(&str, &str)]) -> Gauge {
        let name = Self::render_name(base, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| *n == name) {
            return g.clone();
        }
        let g = Gauge { v: Arc::new(AtomicU64::new(0)), on: self.on };
        inner.gauges.push((name, g.clone()));
        g
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, base: &str, labels: &[(&str, &str)]) -> Histogram {
        let name = Self::render_name(base, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, h)) = inner.hists.iter().find(|(n, _)| *n == name) {
            return h.clone();
        }
        let h = Histogram { store: Arc::new(HistStore::new()), on: self.on };
        inner.hists.push((name, h.clone()));
        h
    }

    /// Freezes every registered metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut snap = RegistrySnapshot {
            counters: inner.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            hists: inner.hists.iter().map(|(n, h)| h.snapshot(n)).collect(),
        };
        snap.counters.sort();
        snap.gauges.sort();
        snap.hists.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.on).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn thread_cpu_time_advances_under_a_spin_and_never_outruns_wall_time() {
        use std::time::Duration;
        let wall = Instant::now();
        let start = thread_cpu_time().expect("the thread CPU clock reads on Linux");
        let spent = loop {
            let spent = thread_cpu_time().expect("clock still reads") - start;
            if spent >= Duration::from_millis(2) || wall.elapsed() > Duration::from_secs(10) {
                break spent;
            }
        };
        assert!(spent >= Duration::from_millis(2), "a 10 s spin ran {spent:?} on this thread");
        assert!(spent <= wall.elapsed(), "{spent:?} of CPU in {:?}", wall.elapsed());
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_the_value_within_3_percent() {
        for &v in &[32u64, 33, 63, 64, 100, 1000, 1 << 20, (1 << 40) + 12345, u64::MAX] {
            let i = bucket_index(v);
            let high = bucket_high(i);
            assert!(high >= v, "high {high} < v {v}");
            // Bucket width is at most v / 32.
            assert!(high - v <= v / 32, "v {v} high {high}");
            // Index is the last one whose upper bound reaches v.
            if i > 0 {
                assert!(bucket_high(i - 1) < v);
            }
        }
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::unregistered();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        let snap = h.snapshot("t");
        // Values <= 63 are near-exact (exact below 32, width <= 2 below 64).
        assert!((49..=51).contains(&snap.p50), "p50 {}", snap.p50);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.p999);
        assert_eq!(snap.max, 100);
    }

    #[test]
    fn registry_dedups_and_snapshots_sorted() {
        let r = Registry::new();
        let a = r.counter("ssr_x_total", &[("codec", "json")]);
        let b = r.counter("ssr_x_total", &[("codec", "json")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same handle");
        r.counter("ssr_a_total", &[]).add(7);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("ssr_a_total".to_string(), 7), ("ssr_x_total{codec=\"json\"}".to_string(), 2)]
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let c = r.counter("ssr_x_total", &[]);
        let h = r.histogram("ssr_h_us", &[]);
        c.add(5);
        h.record(123);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn exposition_round_trips_through_the_validator() {
        let r = Registry::new();
        r.counter("ssr_requests_total", &[("codec", "json")]).add(3);
        r.gauge("ssr_epoch", &[]).set(2);
        let h = r.histogram("ssr_stage_us", &[("stage", "decode")]);
        h.record(10);
        h.record(1000);
        let text = r.snapshot().render_prometheus();
        let names = validate_exposition(&text).expect("valid exposition");
        assert!(names.contains("ssr_requests_total"), "{text}");
        assert!(names.contains("ssr_epoch"));
        assert!(names.contains("ssr_stage_us"));
        // Summary family: quantile series plus _sum/_count share the base.
        assert!(text.contains("ssr_stage_us{quantile=\"0.5\",stage=\"decode\"}"), "{text}");
        assert!(text.contains("ssr_stage_us_sum{stage=\"decode\"}"));
        assert!(text.contains("ssr_stage_us_count{stage=\"decode\"} 2"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("no_value_here").is_err());
        assert!(validate_exposition("1bad_name 3").is_err());
        assert!(validate_exposition("name{k=unquoted} 3").is_err());
        assert!(validate_exposition("name notanumber").is_err());
        assert!(validate_exposition("# just a comment\n").unwrap().is_empty());
    }

    #[test]
    fn span_records_microseconds() {
        let h = Histogram::unregistered();
        let span = Span::enter(&h);
        let us = span.exit_us();
        assert_eq!(h.count(), 1);
        assert!(us < 1_000_000, "a span that took {us}us");
        {
            let _implicit = Span::enter(&h);
        }
        assert_eq!(h.count(), 2, "drop records too");
    }
}
