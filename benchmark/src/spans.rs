//! In-memory spans recorded by the harness around its calls into each
//! layer. Nothing here reaches into the product: its own `TraceConfig`
//! stays `Off`, and a span is two clock reads and one `Vec::push`.
//!
//! Spans are kept in memory and written out once, at exit, as CSV
//! (`name,start_ns,end_ns,parent,request`).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is an index into the same log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log with a fixed time origin. Each generator
/// thread owns one (no lock on the measured path); logs that share an
/// origin are merged after the threads have joined.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end]`; returns the span's index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns, parent, request)
    }

    /// Record a span from offsets already relative to the origin (used for
    /// the server-clock child, which is known only as a duration).
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Append another log recorded against the same origin, re-basing its
    /// parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover. Children may overlap each other or
    /// stick out of the parent; both are clipped, so self time is never
    /// negative and never counts an instant twice.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let parent = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = parent.start_ns;
        for (start, end) in kids {
            let from = start.max(cursor);
            if end > from {
                covered += end - from;
                cursor = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Write the log as CSV.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,parent,request")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        for &(name, s, e, p) in spans {
            log.record_ns(name, s, e, p, 0);
        }
        log
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let log = log_with(&[("a", 10, 110, None)]);
        assert_eq!(log.self_time_ns(0), 100);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let log = log_with(&[
            ("a", 0, 100, None),
            ("b", 10, 30, Some(0)),
            ("c", 50, 60, Some(0)),
        ]);
        assert_eq!(log.self_time_ns(0), 70);
        assert_eq!(log.self_time_ns(1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let log = log_with(&[
            ("a", 0, 100, None),
            ("b", 10, 50, Some(0)),
            ("c", 40, 70, Some(0)),
            ("d", 45, 48, Some(0)),
        ]);
        assert_eq!(log.self_time_ns(0), 40);
    }

    #[test]
    fn children_sticking_out_are_clipped_to_the_parent() {
        let log = log_with(&[
            ("a", 100, 200, None),
            ("b", 50, 120, Some(0)),
            ("c", 190, 400, Some(0)),
            ("grandchild", 0, 1000, Some(1)),
        ]);
        // Only direct children count: [100,120] and [190,200].
        assert_eq!(log.self_time_ns(0), 70);
        // A child longer than its parent leaves no self time, not a
        // negative one.
        assert_eq!(log.self_time_ns(1), 0);
    }

    #[test]
    fn absorb_rebases_parent_indices() {
        let mut a = log_with(&[("a", 0, 10, None)]);
        let b = log_with(&[("b", 0, 10, None), ("c", 2, 4, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_time_ns(1), 8);
        assert_eq!(a.self_time_ns(0), 10);
    }
}
