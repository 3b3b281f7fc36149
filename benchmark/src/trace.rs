//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start and end, the span that caused it
//! and the id of the op it belongs to; a layer's self time is its span
//! time minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// The root span name of one timed op; its self time is the op's
/// unattributed time.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// Span recorder. When disabled, `enter`/`exit` record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// Handle of an open span.
#[must_use]
#[derive(Debug)]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// Sets the op id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Total self time (ns) and span count per name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(child);
            entry.1 += 1;
        }
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time (ns) per name of the spans recorded since the tracer
    /// held `from` spans, and the total time of the roots among them.
    /// Spans opened inside an outer span that was already open are not
    /// supported.
    pub fn self_times_since(&self, from: usize) -> (BTreeMap<&'static str, u64>, u64) {
        let spans = &self.spans[from.min(self.spans.len())..];
        let mut child_ns = vec![0u64; spans.len()];
        let mut roots_ns = 0;
        for span in spans {
            let d = span.end_ns - span.start_ns;
            match (span.parent as usize).checked_sub(from) {
                Some(p) if span.parent != NO_PARENT => child_ns[p] += d,
                _ => roots_ns += d,
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, child) in spans.iter().zip(child_ns) {
            *out.entry(span.name).or_default() +=
                (span.end_ns - span.start_ns).saturating_sub(child);
        }
        (out, roots_ns)
    }

    /// Total time (ns) and count of root spans named `name`.
    pub fn root_total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT && s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.end_ns - s.start_ns, n + 1))
    }

    /// The first `limit` spans as JSON lines: name, start/end in ns since
    /// the tracer started, parent index (-1 for a root) and op id.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::with_capacity(self.spans.len().min(limit) * 80);
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let root = t.enter(OP);
        let child = t.enter("engine.power");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        let times = t.self_times();
        let (power, n) = times["engine.power"];
        let (op_self, _) = times[OP];
        assert_eq!(n, 1);
        assert!(power >= 2_000_000);
        assert!(op_self < power);
        assert_eq!(t.root_total(OP).1, 1);
        let (since, roots) = t.self_times_since(0);
        assert_eq!(since[OP] + since["engine.power"], roots);
        let from = t.len();
        t.span("codec.parse", || ());
        let (since, roots) = t.self_times_since(from);
        assert_eq!(since.len(), 1);
        assert_eq!(since["codec.parse"], roots);
        assert!(t.to_jsonl(10).contains("\"parent\":0,\"op\":3"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 5);
        assert_eq!(v, 5);
        assert!(t.self_times().is_empty());
    }
}
