//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans. A span records its name, start, end, parent span and the
//! operation it belongs to. Spans stay in memory until the run ends;
//! then they are checked (children inside parents), reduced to per-layer
//! self times and written out as JSON lines.
//!
//! With recording off, [`Tracer::span`] is a load, a branch and a call:
//! end-to-end metrics are measured that way.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer boundary name, e.g. `construct.build`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// A fresh operation id, unique within the process.
pub fn fresh_op() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any thread. A tracer of an untraced run never
/// records; a traced run's tracer can pause recording, so one process
/// measures the same operations with and without tracing.
pub struct Tracer {
    available: bool,
    recording: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer for a traced (`available`) or untraced run; a traced
    /// run's tracer starts out recording.
    pub fn new(available: bool) -> Tracer {
        Tracer {
            available,
            recording: AtomicBool::new(available),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn available(&self) -> bool {
        self.available
    }

    /// Pause (`false`) or resume recording; a no-op on untraced runs.
    pub fn set_recording(&self, on: bool) {
        self.recording
            .store(on && self.available, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` of operation `op`; it closes when the
    /// guard drops. Its parent is the innermost span open on this thread.
    /// `None` while not recording.
    pub fn enter(&self, name: &'static str, op: u64) -> Option<SpanGuard<'_>> {
        if !self.recording.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Some(SpanGuard {
            tracer: self,
            span: Span {
                id,
                parent,
                op,
                name,
                start: self.now(),
                end: 0,
            },
        })
    }

    /// Run `f` inside a span (see [`Self::enter`]).
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name, op);
        f()
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap().clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    span: Span,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end = self.tracer.now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.tracer.spans.lock().unwrap().push(self.span.clone());
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The analysed span tree of one run.
pub struct SpanTree {
    spans: Vec<Span>,
    /// Self time (ns) per span, parallel to `spans`.
    self_ns: Vec<u64>,
}

impl SpanTree {
    /// Check the tree and compute self times. Fails when a span ends
    /// before it starts, names an unknown parent, belongs to another
    /// operation than its parent, or lies outside its parent.
    pub fn build(spans: Vec<Span>) -> Result<SpanTree, String> {
        let index: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if s.end < s.start {
                return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
            }
            let Some(pid) = s.parent else { continue };
            let &pi = index
                .get(&pid)
                .ok_or_else(|| format!("span {} ({}) has unknown parent {pid}", s.id, s.name))?;
            let p = &spans[pi];
            if p.op != s.op {
                return Err(format!(
                    "span {} ({}) is in operation {} but its parent {} is in {}",
                    s.id, s.name, s.op, p.name, p.op
                ));
            }
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "span {} ({}) [{}, {}] lies outside its parent {} ({}) [{}, {}]",
                    s.id, s.name, s.start, s.end, p.id, p.name, p.start, p.end
                ));
            }
            children[pi].push((s.start, s.end));
        }
        let self_ns = spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end - s.start) - covered(kids))
            .collect();
        Ok(SpanTree { spans, self_ns })
    }

    /// The spans, ordered by id.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (seconds) of every span named `name`.
    pub fn self_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e9)
            .collect()
    }

    /// Share of the operations' time that no layer span covers. An
    /// operation span is a root span with children (a set-up, a round, a
    /// request); its self time is time no layer accounts for. 0 when no
    /// operation was recorded.
    pub fn uncovered_share(&self) -> f64 {
        let mut has_children = vec![false; self.spans.len()];
        let index: BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        for s in &self.spans {
            if let Some(i) = s.parent.and_then(|p| index.get(&p)) {
                has_children[*i] = true;
            }
        }
        let (mut uncovered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && has_children[i] {
                uncovered += self.self_ns[i];
                total += s.end - s.start;
            }
        }
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }

    /// JSON lines, one span per line, for the run's span file.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (s, &self_ns) in self.spans.iter().zip(&self.self_ns) {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.name,
                s.start,
                s.end,
                self_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, op: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = SpanTree::build(vec![
            span(1, None, 0, 0, 100),
            span(2, Some(1), 0, 10, 40),
            span(3, Some(1), 0, 30, 50),
            span(4, Some(1), 0, 60, 70),
        ])
        .unwrap();
        assert_eq!(tree.self_ns, vec![50, 30, 20, 10]);
        assert!((tree.uncovered_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn children_outside_parents_are_rejected() {
        let err = SpanTree::build(vec![span(1, None, 0, 10, 20), span(2, Some(1), 0, 5, 15)]);
        assert!(err.is_err());
        let err = SpanTree::build(vec![span(1, None, 0, 10, 20), span(2, Some(1), 1, 12, 15)]);
        assert!(err.is_err());
    }

    #[test]
    fn recorded_spans_nest_per_thread() {
        let tracer = Tracer::new(true);
        tracer.span("outer", 7, || {
            tracer.span("inner", 7, || std::hint::black_box(1 + 1));
        });
        let tree = SpanTree::build(tracer.spans()).unwrap();
        let outer = tree.spans().iter().find(|s| s.name == "outer").unwrap();
        let inner = tree.spans().iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(tree.self_secs("inner").len(), 1);
        let off = Tracer::new(false);
        off.set_recording(true);
        off.span("outer", 0, || ());
        assert!(off.spans().is_empty());
        tracer.set_recording(false);
        tracer.span("paused", 8, || ());
        assert!(tracer.spans().iter().all(|s| s.name != "paused"));
    }
}
