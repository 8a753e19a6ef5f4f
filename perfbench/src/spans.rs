//! In-memory spans around the benchmark's calls into the program.
//!
//! A span has a name, a layer, start and end times, the span that
//! caused it and the request it belongs to. Spans are kept in memory
//! and written as JSON lines when the run ends. A layer's self time is
//! its spans' time minus the part covered by their children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the recorder began).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Which layer the call enters.
    pub layer: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span serves.
    pub request: u64,
}

/// A span recorder; disabled recorders cost one branch per call.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder that keeps spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let ix = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(ix);
        Open(Some(ix))
    }

    /// Closes a span (and any still-open children).
    pub fn exit(&mut self, span: Open) {
        let Some(ix) = span.0 else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == ix {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn wrap<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.enter(layer, name, request);
        let out = f();
        self.exit(s);
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// JSON lines, one span each.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{ix},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.layer, s.start, s.end, s.request
            );
        }
        out
    }
}

/// Self time per layer, ns: each span's duration minus the union of its
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end.saturating_sub(s.start);
        let covered = covered_within(kids, s.start, s.end);
        *out.entry(s.layer).or_insert(0) += total - covered.min(total);
    }
    out
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_partitions_the_root() {
        // A 100 ns request with two children (10..40 and 40..60) and a
        // grandchild inside the first.
        let spans = vec![
            span("bench", 0, 100, None),
            span("net", 10, 40, Some(0)),
            span("net", 40, 60, Some(0)),
            span("core", 15, 25, Some(1)),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 50);
        assert_eq!(t["net"], 20 + 20);
        assert_eq!(t["core"], 10);
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Children 10..40 and 30..60 cover 50 ns of the parent, not 60.
        let spans = vec![
            span("bench", 0, 100, None),
            span("net", 10, 40, Some(0)),
            span("net", 30, 60, Some(0)),
        ];
        assert_eq!(self_time_by_layer(&spans)["bench"], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("bench", 10, 20, None), span("net", 5, 15, Some(0))];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 5);
    }

    #[test]
    fn recorder_nests_and_closes_open_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("bench", "request", 7);
        let _inner = s.enter("net", "send", 7);
        s.exit(outer);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans().iter().all(|x| x.end >= x.start && x.request == 7));
        assert!(s.to_jsonl().lines().count() == 2);
        let mut off = Spans::new(false);
        let o = off.enter("bench", "request", 1);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
