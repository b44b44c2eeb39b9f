//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (the program itself is not instrumented). A span has a name, a
//! start and an end relative to the recorder's origin, a request id, and
//! an optional parent: the name of the enclosing span with the same id
//! (`client.send` sits inside `client.request`). Request ids come from one
//! counter shared by a recorder and its forks, so they are unique per run.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    enabled: bool,
    next_id: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Spans { origin, enabled, next_id: Arc::new(AtomicU64::new(0)), spans: Vec::new() }
    }

    /// A recorder sharing this one's origin, switch and id counter (for
    /// another thread).
    pub fn fork(&self) -> Self {
        Spans {
            origin: self.origin,
            enabled: self.enabled,
            next_id: self.next_id.clone(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves `n` consecutive request ids; returns the first.
    pub fn reserve_ids(&self, n: u64) -> u64 {
        self.next_id.fetch_add(n, Ordering::Relaxed)
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span (nothing when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let span =
                Span { name, id, parent, start_ns: self.offset(start), end_ns: self.offset(end) };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, id, None, start, Instant::now());
        out
    }

    pub fn absorb(&mut self, other: Spans) {
        if self.enabled {
            self.spans.extend(other.spans);
        }
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
