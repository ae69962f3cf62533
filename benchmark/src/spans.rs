//! In-memory span recorder for the traced runs.
//!
//! A span is `{name, start, end, parent, trace_id}`: one call from the
//! benchmark into a layer's public function (or a group of such calls).
//! Spans are recorded from the benchmark's own files, kept in memory and
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The operation (trace index within the workload's input) the span
    /// belongs to; spans of one operation share it.
    pub trace_id: u32,
}

impl Span {
    /// Inclusive duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. The clock is read last,
    /// after the slot is reserved, so bookkeeping stays outside the span.
    pub fn enter(&mut self, name: &'static str, trace_id: u32) -> usize {
        self.spans.reserve(1);
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
        id
    }

    /// Close span `id` (and anything left open inside it). The clock is
    /// read first.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, trace_id: u32, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, trace_id);
        let out = f();
        self.exit(id);
        out
    }

    /// Record a span the caller clocked itself (the monitor loop learns
    /// only afterwards whether an `observe` call flushed an epoch).
    pub fn record(&mut self, name: &'static str, trace_id: u32, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
            parent,
            trace_id,
        });
    }

    /// All spans in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed inclusive duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Inclusive durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The spans as a JSON array, one object per span, with each span's
    /// self time alongside the recorded fields.
    pub fn to_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"trace_id\": {}, \"self_ns\": {own}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children recorded through one [`Recorder`] never
/// overlap each other (one thread, strictly nested), so the covered part
/// is the sum of their durations, clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| spans.get(p).map(|ps| (p, ps))) else {
            continue;
        };
        let (p, ps) = parent;
        let start = s.start_ns.max(ps.start_ns);
        let end = s.end_ns.min(ps.end_ns);
        if let Some(c) = covered.get_mut(p) {
            *c += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, 100, None),     // root: children cover 20 + 20
            span(10, 30, Some(0)),  // child with a grandchild covering 5
            span(15, 20, Some(1)),  // grandchild
            span(40, 60, Some(0)),  // second child, a leaf
            span(90, 120, Some(0)), // child overrunning its parent: clipped to 10
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 15, 5, 20, 30]);
    }

    #[test]
    fn recorder_nests_and_sums() {
        let mut rec = Recorder::new();
        let root = rec.enter("root", 7);
        let x = rec.time("leaf", 7, || 41 + 1);
        rec.time("leaf", 7, || ());
        rec.exit(root);
        rec.time("after", 8, || ());
        assert_eq!(x, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!(s[3].trace_id, 8);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(
            rec.total_ns("leaf"),
            s[1].duration_ns() + s[2].duration_ns()
        );
        assert_eq!(rec.durations_ns("leaf").len(), 2);
        // The root's self time is what its two leaves do not cover.
        let own = self_times_ns(s);
        assert_eq!(own[0], s[0].duration_ns() - rec.total_ns("leaf"));
    }
}
