//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written out as JSON lines.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span that made this call, if any.
    pub parent: Option<u64>,
    /// `<layer>.<operation>`, e.g. `engine.run`.
    pub name: &'static str,
    /// The served job or sweep series the span belongs to; spans of one
    /// job share it.
    pub group: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans and named counters from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        group: &str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, group, start, Instant::now());
        out
    }

    /// Records a span timed by the caller; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        group: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, group, start, end);
        id
    }

    /// A fresh span id, for a span recorded later with
    /// [`Tracer::record_as`] whose children are recorded first.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under an id from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        group: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            group: group.to_owned(),
            start: start.saturating_duration_since(self.origin).as_secs_f64(),
            end: end.saturating_duration_since(self.origin).as_secs_f64(),
        };
        self.spans.lock().expect("tracer poisoned").push(span);
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .counters
            .lock()
            .expect("tracer poisoned")
            .entry(name)
            .or_insert(0.0) += value;
    }

    /// The counter `name` (0 if never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("tracer poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        // Adding 0.0 turns the empty sum's -0.0 into 0.0.
        self.durations(name).iter().sum::<f64>() + 0.0
    }

    /// The durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("tracer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span, then every counter, as one JSON object per
    /// line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"group\":\"{}\",\"start\":{},\"end\":{}}}",
                s.id,
                s.name,
                s.group.replace(['"', '\\'], "_"),
                s.start,
                s.end
            )?;
        }
        for (name, value) in self.counters.lock().expect("tracer poisoned").iter() {
            writeln!(out, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it covered by its child spans (children running in parallel on
/// several threads are counted once, as the union of their intervals).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |iv| union_within(iv, s.start, s.end));
        *out.entry(s.layer()).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            group: String::new(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "exec.run", 0.0, 10.0),
            // Two parallel cells overlapping on [2, 4]: union is [1, 6].
            span(2, Some(1), "engine.run", 1.0, 4.0),
            span(3, Some(1), "engine.run", 2.0, 6.0),
            span(4, Some(3), "core.route", 3.0, 4.0),
        ];
        let st = self_times(&spans);
        assert!((st["exec"] - 5.0).abs() < 1e-12);
        assert!((st["engine"] - 6.0).abs() < 1e-12);
        assert!((st["core"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_counters_add() {
        let t = Tracer::new();
        let outer = t.span("exec.run", None, "j1", |id| {
            t.span("engine.run", Some(id), "j1", |_| ());
            id
        });
        t.add("engine.header_moves", 2.0);
        t.add("engine.header_moves", 3.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(outer));
        assert!(spans.iter().all(|s| s.group == "j1" && s.end >= s.start));
        assert_eq!(t.counter("engine.header_moves"), 5.0);
        assert_eq!(t.counter("missing"), 0.0);
    }
}
