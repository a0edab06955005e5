//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library (pass → run/apply → start/step/result, and the
//! generate/snapshot/bound probes), never inside the library. Each span
//! keeps its name, start, end, parent and the id of the operation it
//! belongs to. They stay in memory until the run ends and are then
//! written out as JSON lines; a span's id is its line number, from 0. A
//! disabled tracer records nothing: every call is one branch.

use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Operation (request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (0 while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their durations minus the time their child spans cover.
    pub self_s: f64,
}

/// Records spans when enabled; shared by reference (interior
/// mutability) so a search wrapper can record while its caller holds an
/// open span.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, op: Option<u64>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        let mut stack = self.stack.borrow_mut();
        let parent = stack.last().copied();
        let op = op.unwrap_or_else(|| parent.map_or(0, |p| spans[p].op));
        let id = spans.len();
        spans.push(Span { name, op, parent, start_ns: self.now(), end_ns: 0 });
        stack.push(id);
        Some(id)
    }

    /// Opens a span that starts a new operation (one request).
    pub fn begin_op(&self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let op = self.next_op.get() + 1;
        self.next_op.set(op);
        self.open(name, Some(op))
    }

    /// Opens a span inside the current operation.
    pub fn enter(&self, name: &'static str) -> Option<usize> {
        self.open(name, None)
    }

    /// Closes the span `id` returned by [`enter`](Self::enter) or
    /// [`begin_op`](Self::begin_op).
    pub fn exit(&self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now();
        self.spans.borrow_mut()[id].end_ns = end;
        let popped = self.stack.borrow_mut().pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Index the next span will get; spans recorded after this call
    /// are `spans()[mark..]`.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// A copy of the spans recorded since `mark`, with parents
    /// re-indexed into the copy (a parent recorded before `mark`
    /// becomes `None`).
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.borrow()[mark..]
            .iter()
            .map(|s| Span { parent: s.parent.and_then(|p| p.checked_sub(mark)), ..s.clone() })
            .collect()
    }

    /// Durations in seconds of the spans named `name` recorded since
    /// `mark`.
    pub fn durations(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans.borrow()[mark..].iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Total and self time per span name over every recorded span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans.borrow())
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.borrow().iter() {
            let line = serde_json::to_string(span).map_err(std::io::Error::other)?;
            writeln!(file, "{line}")?;
        }
        file.flush()
    }
}

/// Total seconds of the spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Durations in seconds of the spans named `child` whose parent is
/// named `parent`.
pub fn child_secs(spans: &[Span], parent: &str, child: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == child && s.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::secs)
        .collect()
}

/// Seconds each span's direct children cover. Children of one span
/// never overlap (the client is single-threaded), so their sum is the
/// part of the parent's interval they cover.
pub fn child_secs_by_span(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.secs();
        }
    }
    covered
}

/// Total and self time per span name; a span's self time is its
/// duration minus the time its children cover.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_secs_by_span(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.secs();
        t.self_s += (s.secs() - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span { name: "apply", op: 1, parent: None, start_ns: 0, end_ns: 10_000 },
            Span { name: "step", op: 1, parent: Some(0), start_ns: 1_000, end_ns: 7_000 },
            Span { name: "result", op: 1, parent: Some(0), start_ns: 7_000, end_ns: 8_000 },
        ];
        let t = layer_times(&spans);
        assert_eq!(t["apply"].count, 1);
        assert!((t["apply"].self_s - 3e-6).abs() < 1e-12);
        assert!((t["step"].self_s - 6e-6).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let id = tr.begin_op("run");
        tr.exit(id);
        assert_eq!(tr.mark(), 0);
    }

    #[test]
    fn children_inherit_the_operation() {
        let tr = Tracer::new(true);
        let run = tr.begin_op("run");
        tr.time("step", || ());
        tr.exit(run);
        let spans = tr.since(0);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, spans[0].op);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
