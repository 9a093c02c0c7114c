//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public function; the program itself is not instrumented. Each span
//! carries a name, start and end (microseconds since the tracer's epoch),
//! the span that caused it, the run (traced iteration) it belongs to and
//! the recording thread. Spans stay in memory until the run ends, then
//! are written out as Chrome trace-event JSON plus a self-time table.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (never 0; 0 means "no parent").
pub type SpanId = u64;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub run: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Collects spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_NO: Cell<u64> = const { Cell::new(0) };
}
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_no() -> u64 {
    THREAD_NO.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id; spans recorded afterwards carry it.
    pub fn begin_run(&self, run: u64) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can open children.
    pub fn span<R>(&self, parent: SpanId, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            name,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            tid: thread_no(),
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// All spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Total duration in milliseconds of the spans named `name` in `run`.
pub fn total_ms(spans: &[Span], run: u64, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .map(Span::dur_ms)
        .sum()
}

/// Self time of every span in milliseconds: its duration minus the part
/// of its interval that the union of its children covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cur: Option<(f64, f64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_us), b.min(s.end_us));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, ((s.end_us - s.start_us) - covered) / 1000.0)
        })
        .collect()
}

/// Per-name table: count, total and self time (ms), over all runs.
pub fn self_time_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ms();
        row.2 += selfs[&s.id];
    }
    let mut out = format!(
        "{:<26} {:>7} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in rows {
        let _ = writeln!(out, "{name:<26} {count:>7} {total:>12.3} {own:>12.3}");
    }
    out
}

/// Chrome trace-event JSON ("X" complete events) for `chrome://tracing`
/// or Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"run\":{}}}}}",
            s.name,
            s.tid,
            s.start_us,
            s.end_us - s.start_us,
            s.id,
            s.parent,
            s.run
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "x",
            start_us: start,
            end_us: end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0.0, 10_000.0),
            span(2, 1, 1_000.0, 4_000.0),
            span(3, 1, 3_000.0, 5_000.0),
            span(4, 1, 8_000.0, 9_000.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&1] - 5.0).abs() < 1e-9);
        assert!((selfs[&2] - 3.0).abs() < 1e-9);
    }
}
