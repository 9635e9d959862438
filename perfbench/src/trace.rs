//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the program, and a `Distance` wrapper that times the metric.
//!
//! Spans stay in memory and are written out when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spb_metric::Distance;

/// One recorded interval. `parent` indexes the span list; `req` is the
/// index of the operation the span belongs to (setup spans use
/// `u64::MAX`).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Marks setup spans, which belong to no operation.
pub const SETUP_REQ: u64 = u64::MAX;

/// Span recorder. When disabled, `span` only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Total duration and number of the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, c), s| (d + s.dur_ns(), c + 1))
    }

    /// Writes the spans, each with its self time, as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let req = if s.req == SETUP_REQ {
                "null".to_owned()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"req\":{req}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap each other (parallel
/// work) or stick out of the parent; only the covered part of the
/// parent's own interval counts, once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Counters shared by every clone of a [`Probe`].
#[derive(Default)]
pub struct ProbeCounters {
    pub calls: AtomicU64,
    pub nanos: AtomicU64,
    timing: AtomicBool,
}

impl ProbeCounters {
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }

    /// Starts or stops timing each call (counting goes on regardless).
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }
}

/// A `Distance` that counts and times every evaluation of the metric it
/// wraps, wherever the program calls it (in-process, on server threads,
/// inside shard nodes).
#[derive(Clone)]
pub struct Probe<D> {
    inner: D,
    pub counters: Arc<ProbeCounters>,
}

impl<D> Probe<D> {
    pub fn new(inner: D) -> Probe<D> {
        Probe {
            inner,
            counters: Arc::default(),
        }
    }
}

impl<O, D: Distance<O>> Distance<O> for Probe<D> {
    fn distance(&self, a: &O, b: &O) -> f64 {
        let c = &self.counters;
        c.calls.fetch_add(1, Ordering::Relaxed);
        if !c.timing.load(Ordering::Relaxed) {
            return self.inner.distance(a, b);
        }
        let t = Instant::now();
        let d = self.inner.distance(a, b);
        c.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        d
    }

    fn max_distance(&self) -> f64 {
        self.inner.max_distance()
    }

    fn is_discrete(&self) -> bool {
        self.inner.is_discrete()
    }
}

/// Mean cost of reading the clock twice, subtracted from timed calls.
pub fn clock_pair_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("client", 10, 90, Some(0)),
            span("decode", 70, 85, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 65, 15]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two parallel shard calls overlapping in 30..50, one sticking out
        // past the parent's end.
        let spans = vec![
            span("router", 0, 100, None),
            span("shard0", 10, 50, Some(0)),
            span("shard1", 30, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10);
        // Disjoint children add up.
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 0, 10, Some(0)),
            span("b", 40, 60, Some(0)),
            span("c", 55, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 10 - 30);
    }

    #[test]
    fn tracer_records_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", 3, |t| t.span("inner", 3, |_| ()));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let (dur, count) = t.totals("outer");
        assert_eq!(count, 1);
        assert!(dur >= t.spans[1].dur_ns());

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |_| 7), 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn probe_counts_every_call() {
        let p = Probe::new(spb_metric::EditDistance::default());
        let w = |s: &str| spb_metric::Word(s.to_owned());
        assert_eq!(p.distance(&w("abc"), &w("abd")), 1.0);
        p.counters.set_timing(true);
        p.clone().distance(&w("abc"), &w("xyz"));
        assert_eq!(p.counters.snapshot().0, 2);
    }
}
