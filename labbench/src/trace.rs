//! The benchmark's own spans, recorded around its calls into the lab.
//!
//! Each span records a name, start, end, parent and the id of the
//! pass it belongs to. Spans stay in memory and are written out once,
//! when the run ends. A disabled tracer records nothing and costs one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`lab.campaign.noise_robustness`, `analysis.finish`).
    pub name: String,
    /// Pass id shared by every span of one pass.
    pub pass: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over all recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child
    /// spans), ns.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            pass: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (between passes).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the pass id stamped on the spans that follow.
    pub fn set_pass(&mut self, pass: u64) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`. Spans opened by `f`
    /// become its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.total_ns += span.ns();
            t.self_ns += span.ns().saturating_sub(child);
        }
        out
    }

    /// Total duration of the spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Renders every span, then the per-name totals, as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"pass\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.pass, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{{\"totals\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
