//! The benchmark's own spans: recorded around calls into each layer's public
//! functions, kept in memory, dumped when the run ends.
//!
//! Two kinds of span share one table. A *live* span brackets a phase while
//! the epoch's wall clock runs. An *attributed* span times a leaf's public
//! function standalone, after the epoch and outside its wall clock, on the
//! data that epoch produced; its cost is its duration times the number of
//! calls the epoch made. Both name the span that caused them, so self time
//! is the same arithmetic for either kind.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one epoch share this identifier.
    pub epoch: u64,
    /// Calls per epoch this span's duration stands for (1 for a live span).
    pub calls: u64,
    /// Timed standalone, outside the epoch's wall clock.
    pub attributed: bool,
}

impl Span {
    /// Seconds this span accounts for in its epoch.
    pub fn cost_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9 * self.calls as f64
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a live span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, epoch: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            epoch,
            calls: 1,
            attributed: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a live span under `parent`; returns the span's id.
    pub fn live<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, Some(parent), self.spans[parent].epoch);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Times `f` standalone and attributes `calls` times its duration to
    /// `parent`. Returns the new span's id so deeper leaves can hang off it.
    pub fn attribute<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let (id, out) = self.live(name, parent, f);
        self.spans[id].calls = calls;
        self.spans[id].attributed = true;
        (id, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its cost minus the cost of its direct children.
/// Negative when attributed children, timed standalone, cost more than the
/// live parent did.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::cost_s).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.cost_s();
        }
    }
    own
}

/// Total cost of the spans called `name` in `epoch`.
pub fn cost_of(spans: &[Span], name: &str, epoch: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.epoch == epoch)
        .map(Span::cost_s)
        .sum()
}

/// Total self time of the spans called `name` in `epoch`.
pub fn self_of(spans: &[Span], name: &str, epoch: u64) -> f64 {
    let own = self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name && s.epoch == epoch)
        .map(|(_, t)| t)
        .sum()
}

/// One JSON object per line: `{name,start,end,parent,epoch,calls,attributed}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"epoch\":{},\"calls\":{},\"attributed\":{}}}",
            s.name, s.start_ns, s.end_ns, s.epoch, s.calls, s.attributed
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        calls: u64,
        attributed: bool,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 1,
            calls,
            attributed,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = 1_000_000_000;
        let spans = vec![
            span("epoch", 0, 10 * s, None, 1, false),
            span("phase", s, 7 * s, Some(0), 1, false),
            span("leaf", 2 * s, 4 * s, Some(1), 1, false),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![4.0, 4.0, 2.0]);
        assert_eq!(own.iter().sum::<f64>(), spans[0].cost_s());
    }

    #[test]
    fn attributed_leaf_counts_duration_times_calls() {
        let s = 1_000_000_000;
        let spans = vec![
            span("phase", 0, 10 * s, None, 1, false),
            // Timed after the phase ended: 2 s standalone, 3 calls per epoch.
            span("leaf", 20 * s, 22 * s, Some(0), 3, true),
        ];
        assert_eq!(spans[1].cost_s(), 6.0);
        assert_eq!(self_times(&spans), vec![4.0, 6.0]);
    }

    #[test]
    fn overattributed_parent_has_negative_self_time() {
        let s = 1_000_000_000;
        let spans = vec![
            span("phase", 0, s, None, 1, false),
            span("leaf", 2 * s, 4 * s, Some(0), 1, true),
        ];
        assert_eq!(self_times(&spans)[0], -1.0);
    }

    #[test]
    fn cost_and_self_sum_by_name_within_one_epoch() {
        let s = 1_000_000_000;
        let mut spans = vec![
            span("worker", 0, 2 * s, None, 1, false),
            span("worker", 2 * s, 5 * s, None, 1, false),
            span("train", 9 * s, 10 * s, Some(1), 1, true),
        ];
        spans.push(Span {
            epoch: 2,
            ..span("worker", 0, 100 * s, None, 1, false)
        });
        assert_eq!(cost_of(&spans, "worker", 1), 5.0);
        assert_eq!(self_of(&spans, "worker", 1), 4.0);
        assert_eq!(cost_of(&spans, "worker", 2), 100.0);
    }

    #[test]
    fn tracer_records_nesting_and_dumps_one_line_per_span() {
        let mut t = Tracer::new();
        let root = t.open("epoch", None, 7);
        let (_, v) = t.live("phase", root, || 41 + 1);
        t.close(root);
        let (leaf, ()) = t.attribute("leaf", root, 5, || ());
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].epoch, 7);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans[leaf].attributed && spans[leaf].calls == 5);
        let dump = to_jsonl(spans);
        assert_eq!(dump.lines().count(), 3);
        for line in dump.lines() {
            rpol_json::parse(line).expect("each span line is valid JSON");
        }
    }
}
