//! In-memory spans, recorded from outside the library around the calls
//! into each layer, written out when the benchmark ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one unit of work share `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`run`, `round`, `fl.local_update`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one unit of work.
    pub run: u32,
}

/// Span collector: a stack of open spans over one monotonic clock.
/// Single-threaded by construction (`Rc`), like the tape it sits beside.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    run: Cell<u32>,
}

impl Tracer {
    /// A fresh collector; its clock starts now.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            run: Cell::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stamp every span opened from now on with `run`.
    pub fn set_run(&self, run: u32) {
        self.run.set(run);
    }

    /// Open a span under the innermost open one and return its index.
    pub fn open(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let start = self.now_ns();
        spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: open.last().copied(),
            run: self.run.get(),
        });
        open.push(spans.len() - 1);
        spans.len() - 1
    }

    /// Close span `id`.
    ///
    /// # Panics
    /// Panics unless `id` is the innermost open span: spans nest.
    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.borrow_mut().pop(), Some(id), "spans must close innermost-first");
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Record `f` as one span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Write one JSON object per span: name, start_ns, end_ns, parent
    /// (index or null), run, self_ns.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let own = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"run\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run, own[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Σ of `ns[i]` over the spans of `run`, by span name, in seconds.
fn seconds_of(spans: &[Span], run: u32, ns: &[u64]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (s, ns) in spans.iter().zip(ns).filter(|(s, _)| s.run == run) {
        *totals.entry(s.name).or_insert(0.0) += *ns as f64 / 1e9;
    }
    totals
}

/// Total duration (seconds) of the spans of `run`, by name.
pub fn seconds_by_name(spans: &[Span], run: u32) -> BTreeMap<&'static str, f64> {
    let durations: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    seconds_of(spans, run, &durations)
}

/// Total *self* time (seconds) of the spans of `run`, by name.
pub fn self_seconds_by_name(spans: &[Span], run: u32) -> BTreeMap<&'static str, f64> {
    seconds_of(spans, run, &self_times(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, run: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps `a` by 10
            span("c", 90, 120, Some(0)), // sticks out of the parent by 20
            span("leaf", 12, 20, Some(1)),
        ];
        // round: 100 − (10..60 = 50) − (90..100 = 10) = 40
        assert_eq!(self_times(&spans), vec![40, 22, 30, 30, 8]);
    }

    #[test]
    fn self_times_of_a_round_add_up_to_the_round() {
        let spans = vec![
            span("round", 0, 1000, None),
            span("fl.local_update", 100, 400, Some(0)),
            span("fl.server_update", 400, 900, Some(0)),
        ];
        let own = self_seconds_by_name(&spans, 0);
        let total: f64 = own.values().sum();
        assert!((total - 1e-6).abs() < 1e-15);
        assert!((own["round"] - 2e-7).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_stamps_runs() {
        let tracer = Tracer::new();
        tracer.set_run(3);
        let outer = tracer.open("run");
        let value = tracer.span("fl.local_update", || 42);
        tracer.close(outer);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(seconds_by_name(&spans, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let tracer = Tracer::new();
        let outer = tracer.open("run");
        let _inner = tracer.open("round");
        tracer.close(outer);
    }
}
