//! In-memory spans around every call the benchmark makes into a layer.
//!
//! [`Spans::enter`] / [`Spans::exit`] are the benchmark's only clock: `exit`
//! returns the elapsed seconds, so measured (untraced) runs and the traced
//! run time the same calls the same way, and only the traced run keeps the
//! span records. Spans are written to `trace.json` when the run ends.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name (`transport.harness.build`, `sim.run`, …).
    pub name: &'static str,
    /// Index of the cell the call served, if any.
    pub cell: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug)]
pub struct Open {
    at: Instant,
    index: Option<usize>,
}

/// Span recorder with a parent stack.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    record: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; with `record` false it only times (measured runs).
    pub fn new(record: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            record,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Open a span; spans opened before it is closed become its children.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> Open {
        let at = Instant::now();
        let index = self.record.then(|| {
            let start_ns = at.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                cell,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { at, index }
    }

    /// Close a span and return its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let elapsed = open.at.elapsed();
        if let Some(i) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "spans must close innermost-first"
            );
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time per span name, seconds, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += ns as f64 * 1e-9,
            None => out.push((s.name, ns as f64 * 1e-9)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cell: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("cell", None, 0, 100),
            span("build", Some(0), 0, 10),
            span("run", Some(0), 10, 90),
            span("inner", Some(2), 20, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 10, 50, 30]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_by_name_sums_repeats() {
        let spans = [
            span("cell", None, 0, 40),
            span("run", Some(0), 0, 30),
            span("cell", None, 40, 100),
            span("run", Some(2), 40, 90),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].0, "cell");
        assert!((by[0].1 - 20e-9).abs() < 1e-15);
        assert!((by[1].1 - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer", Some(3));
        let inner = s.enter("inner", Some(3));
        let d_inner = s.exit(inner);
        let d_outer = s.exit(outer);
        assert!(d_outer >= d_inner);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[0].parent, None);
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
    }

    #[test]
    fn disabled_recorder_only_times() {
        let mut s = Spans::new(false);
        let o = s.enter("x", None);
        assert!(s.exit(o) >= 0.0);
        assert!(s.spans().is_empty());
    }
}
