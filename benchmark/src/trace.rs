//! In-memory span recorder for the traced run, written out as a
//! chrome://tracing JSON file when the run ends.
//!
//! Spans are recorded around calls into the program's public functions
//! from the benchmark's own code; nothing inside the program is
//! instrumented. The recorder is single-threaded: the traced run replays
//! requests in-process on the calling thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span, in microseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Records spans and counters when enabled; a disabled recorder only runs
/// the closures, so the same replay code measures its own overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, tagged with request id `req`;
    /// the innermost open span is its parent.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let start_us = self.now_us();
            spans.push(Span { name, start_us, end_us: start_us, parent, req });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.now_us();
        out
    }

    /// Records an already-measured interval as a span (for timings taken
    /// on another thread, such as live wire round trips).
    pub fn record(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let parent = self.stack.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            req,
        });
    }

    /// Adds `v` to counter `name`.
    pub fn count(&self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.borrow_mut().entry(name).or_insert(0.0) += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.borrow().get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect()
    }

    /// Writes the spans and counters as a chrome://tracing JSON object.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let selfs = self_times_us(&spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"req\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.parent.map_or(-1, |p| p as i64),
                s.req,
                selfs[i],
            )
            .expect("writing to String cannot fail");
        }
        out.push_str("],\"otherData\":{");
        for (i, (k, v)) in self.counters.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{k}\":{v}").expect("writing to String cannot fail");
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the part of it that its
/// children's intervals cover (overlapping children are merged first).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name: "x", start_us, end_us, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(20.0, 50.0, Some(0)), // overlaps the first child
            span(60.0, 70.0, Some(0)),
            span(12.0, 14.0, Some(1)),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs, vec![100.0 - 40.0 - 10.0, 18.0, 30.0, 10.0, 2.0]);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("outer", 7, || t.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].req), ("inner", Some(0), 7));
        assert!(spans[0].end_us >= spans[1].end_us);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, || 1), 1);
        off.count("c", 1.0);
        assert!(off.spans().is_empty());
        assert_eq!(off.counter("c"), 0.0);
    }
}
