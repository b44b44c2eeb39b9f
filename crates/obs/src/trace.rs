//! Span-tree traces: the per-request counterpart to the registry's
//! aggregate histograms.
//!
//! A [`Trace`] is one sampled request: a trace id, the request's total
//! wall time, request-level attributes (codec, node, k, …), and a flat
//! list of [`TraceSpan`]s encoding a tree via parent indices. Spans
//! carry *relative* start offsets (nanoseconds since the request was
//! accepted), so a trace is self-contained and comparable across
//! processes without clock agreement. The serve crate measures each stage
//! span's offset rather than laying durations end to end, so a gap
//! between two stage spans is time that no stage names.
//!
//! The flat-list-with-parent-index layout (rather than nested
//! structures) keeps the wire encoding trivial — the JSONL export and
//! the `trace` admin op, on either codec, serialize the list in order —
//! and makes the
//! nesting invariant checkable in one pass: a span's interval must lie
//! within its parent's (see [`Trace::validate`]).
//!
//! This module owns only the data model and its invariants. Building
//! traces (samplers, rings, JSONL writers) lives in the serve crate;
//! analyzing them lives in the CLI.

use std::fmt::Write as _;

/// Version of the trace schema carried by the JSONL export and the
/// `trace` admin op. Bumped whenever field layout or span semantics
/// change.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Parent index marking a root span.
pub const NO_PARENT: i64 = -1;

/// One timed interval inside a trace, positioned relative to the
/// request's accept time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSpan {
    /// Stage name (`request`, `decode`, `cache`, `queue`, `engine`,
    /// `theta-i`, `lambda-i`, `encode`, …).
    pub name: String,
    /// Index of the parent span in [`Trace::spans`], or [`NO_PARENT`]
    /// for the root. Parents always precede children in the list.
    pub parent: i64,
    /// Start offset in nanoseconds since the request was accepted.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Span-level attributes as ordered key/value pairs.
    pub attrs: Vec<(String, String)>,
}

impl TraceSpan {
    /// A span with no attributes.
    pub fn new(name: &str, parent: i64, start_ns: u64, dur_ns: u64) -> TraceSpan {
        TraceSpan { name: name.to_string(), parent, start_ns, dur_ns, attrs: Vec::new() }
    }

    /// Appends one attribute, returning `self` for chaining.
    pub fn attr(mut self, key: &str, value: impl ToString) -> TraceSpan {
        self.attrs.push((key.to_string(), value.to_string()));
        self
    }

    /// End offset (`start_ns + dur_ns`, saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// One sampled request's span tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The request's trace id — the server-wide decode sequence number,
    /// so ids are unique per server run and cross-reference the
    /// slow-query log.
    pub id: u64,
    /// End-to-end wall time in nanoseconds (accept → encode done).
    pub total_ns: u64,
    /// Request-level attributes (codec, node, k, …).
    pub attrs: Vec<(String, String)>,
    /// Spans in parent-before-child order; `spans[0]` is the root.
    pub spans: Vec<TraceSpan>,
}

impl Trace {
    /// Looks up a request-level attribute.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The direct children of span `parent` (or roots for
    /// [`NO_PARENT`]), in list order.
    pub fn children(&self, parent: i64) -> impl Iterator<Item = (usize, &TraceSpan)> {
        self.spans.iter().enumerate().filter(move |(_, s)| s.parent == parent)
    }

    /// Checks the structural invariants every well-formed trace holds:
    ///
    /// * there is exactly one root span, at index 0, covering
    ///   `[0, total_ns]`;
    /// * every other span's parent index points at an *earlier* span;
    /// * every child's interval lies within its parent's;
    /// * the root's direct children (the pipeline stages) are disjoint
    ///   and their durations sum to at most `total_ns`.
    ///
    /// Returns the first violation as a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        let root = self.spans.first().ok_or("trace has no spans")?;
        if root.parent != NO_PARENT {
            return Err(format!("span 0 `{}` is not a root", root.name));
        }
        if root.start_ns != 0 || root.dur_ns != self.total_ns {
            return Err(format!(
                "root `{}` covers [{}, {}] not [0, {}]",
                root.name,
                root.start_ns,
                root.end_ns(),
                self.total_ns
            ));
        }
        for (i, span) in self.spans.iter().enumerate().skip(1) {
            if span.parent < 0 || span.parent as usize >= i {
                return Err(format!("span {i} `{}` has bad parent {}", span.name, span.parent));
            }
            let parent = &self.spans[span.parent as usize];
            if span.start_ns < parent.start_ns || span.end_ns() > parent.end_ns() {
                return Err(format!(
                    "span {i} `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                    span.name,
                    span.start_ns,
                    span.end_ns(),
                    parent.name,
                    parent.start_ns,
                    parent.end_ns()
                ));
            }
        }
        // Stage spans (the root's direct children) must be disjoint and
        // sum to at most the total — the trace-level mirror of the
        // per-stage histogram invariant.
        let mut stages: Vec<(u64, u64, &str)> =
            self.children(0).map(|(_, s)| (s.start_ns, s.end_ns(), s.name.as_str())).collect();
        stages.sort_unstable();
        let mut sum = 0u64;
        for w in 0..stages.len() {
            let (start, end, name) = stages[w];
            sum = sum.saturating_add(end - start);
            if w > 0 {
                let (_, prev_end, prev_name) = stages[w - 1];
                if start < prev_end {
                    return Err(format!("stage `{name}` overlaps stage `{prev_name}`"));
                }
            }
        }
        if sum > self.total_ns {
            return Err(format!("stage durations sum to {sum} > total {}", self.total_ns));
        }
        Ok(())
    }

    /// Folded-stack lines (`root;child;leaf value`) for flamegraph
    /// tooling: one line per span, path is the name chain from the root,
    /// value is the span's *self* time (duration minus its children's).
    pub fn folded_into(&self, out: &mut String) {
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        let mut child_ns: Vec<u64> = vec![0; self.spans.len()];
        for span in &self.spans {
            let path = if span.parent == NO_PARENT {
                span.name.clone()
            } else {
                child_ns[span.parent as usize] =
                    child_ns[span.parent as usize].saturating_add(span.dur_ns);
                format!("{};{}", paths[span.parent as usize], span.name)
            };
            paths.push(path);
        }
        for (i, span) in self.spans.iter().enumerate() {
            let self_ns = span.dur_ns.saturating_sub(child_ns[i]);
            let _ = writeln!(out, "{} {}", paths[i], self_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            id: 42,
            total_ns: 1000,
            attrs: vec![("codec".into(), "json".into())],
            spans: vec![
                TraceSpan::new("request", NO_PARENT, 0, 1000),
                TraceSpan::new("decode", 0, 0, 100),
                TraceSpan::new("engine", 0, 100, 700).attr("batch_size", 4),
                TraceSpan::new("theta-0", 2, 100, 600),
                TraceSpan::new("encode", 0, 900, 100),
            ],
        }
    }

    #[test]
    fn valid_trace_validates() {
        sample().validate().unwrap();
    }

    #[test]
    fn child_escaping_parent_is_rejected() {
        let mut t = sample();
        t.spans[3].dur_ns = 5000;
        assert!(t.validate().unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn overlapping_stages_are_rejected() {
        let mut t = sample();
        t.spans[1].dur_ns = 200; // decode now overlaps engine
        assert!(t.validate().unwrap_err().contains("overlaps"));
    }

    #[test]
    fn root_must_cover_total() {
        let mut t = sample();
        t.total_ns = 900;
        assert!(t.validate().is_err());
    }

    #[test]
    fn forward_parent_reference_is_rejected() {
        let mut t = sample();
        t.spans[1].parent = 3;
        assert!(t.validate().unwrap_err().contains("bad parent"));
    }

    #[test]
    fn folded_reports_self_time() {
        let mut out = String::new();
        sample().folded_into(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "request 100"); // 1000 - (100 + 700 + 100)
        assert_eq!(lines[2], "request;engine 100"); // 700 - 600
        assert_eq!(lines[3], "request;engine;theta-0 600");
    }

    #[test]
    fn attr_lookup_and_children() {
        let t = sample();
        assert_eq!(t.attr("codec"), Some("json"));
        assert_eq!(t.children(0).count(), 3);
        assert_eq!(t.children(2).next().unwrap().1.name, "theta-0");
    }
}
