//! RAII wall-clock spans aggregated by slash-joined path.
//!
//! [`enter`] pushes a segment onto the calling thread's path and returns a
//! guard; dropping the guard pops the segment and folds the elapsed time
//! into a global table keyed by the **full path**, so
//! `explain_db/predict/gnn.forward` and a bare `gnn.forward` aggregate
//! separately. Worker threads spawned by the rayon stand-in [`adopt`] the
//! caller's path, so spans opened inside parallel closures nest under the
//! phase that launched them.
//!
//! Aggregation happens only at guard drop (one mutex acquisition); the
//! computation being observed is never reordered or blocked mid-flight,
//! preserving bitwise thread-count determinism.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One aggregated span path: every completed guard with this full path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-joined path, e.g. `explain_db/predict`.
    pub path: String,
    /// Completed guards aggregated here.
    pub count: u64,
    /// Total wall-clock across all completions, in nanoseconds.
    pub total_ns: u128,
    /// Fastest single completion.
    pub min_ns: u128,
    /// Slowest single completion.
    pub max_ns: u128,
    /// Per-completion latency distribution (p50/p90/p99/p999 source).
    pub latency: crate::latency::Hist,
}

#[derive(Clone, Default)]
struct Stat {
    count: u64,
    total_ns: u128,
    min_ns: u128,
    max_ns: u128,
    latency: crate::latency::Hist,
}

static REGISTRY: Mutex<BTreeMap<String, Stat>> = Mutex::new(BTreeMap::new());
/// Guards entered but not yet dropped, across all threads. A non-zero
/// value in a final report means a span leaked (guard forgotten or a
/// thread exited mid-span).
static OPEN: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// This thread's slash-joined span path.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// RAII span guard; see [`enter`].
#[must_use = "a span measures until dropped; binding it to _ drops immediately"]
pub struct SpanGuard {
    /// `None` when observation was off at entry (inert guard).
    armed: Option<(usize, Instant)>,
}

/// Opens a span named `name` under the current thread path. Inert (no
/// clock read, no path change) when observation is off. Accepts any
/// `&str` (the request layer pushes formatted names); nothing outlives
/// the call but the path bytes.
pub fn enter(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { armed: None };
    }
    // Fix the trace epoch before reading the clock, so the very first
    // span's begin timestamp can never precede the epoch.
    let _ = crate::trace::active();
    let prev_len = PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev_len = p.len();
        if !p.is_empty() {
            p.push('/');
        }
        p.push_str(name);
        prev_len
    });
    OPEN.fetch_add(1, Ordering::Relaxed);
    SpanGuard { armed: Some((prev_len, Instant::now())) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((prev_len, start)) = self.armed.take() else { return };
        let end = Instant::now();
        let elapsed = end.duration_since(start).as_nanos();
        let path = PATH.with(|p| {
            let mut p = p.borrow_mut();
            let full = p.clone();
            p.truncate(prev_len);
            full
        });
        {
            let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            // get_mut first: the steady state must not clone the path
            match reg.get_mut(&path) {
                Some(stat) => fold(stat, elapsed),
                None => {
                    let mut stat = Stat::default();
                    fold(&mut stat, elapsed);
                    reg.insert(path.clone(), stat);
                }
            }
        }
        OPEN.fetch_sub(1, Ordering::Relaxed);
        // request attribution and trace events happen outside the
        // registry lock; both only read the clock values captured above
        if let Some(tag) = crate::context::current() {
            crate::context::attribute_span(tag, &path, elapsed);
        }
        if crate::trace::active() {
            crate::trace::record_pair(&path, start, end);
        }
    }
}

fn fold(stat: &mut Stat, elapsed: u128) {
    stat.count += 1;
    stat.total_ns += elapsed;
    stat.min_ns = if stat.count == 1 { elapsed } else { stat.min_ns.min(elapsed) };
    stat.max_ns = stat.max_ns.max(elapsed);
    stat.latency.record(elapsed.min(u64::MAX as u128) as u64);
}

/// The calling thread's current span path (empty when off or at root).
pub fn current_path() -> String {
    if !crate::enabled() {
        return String::new();
    }
    PATH.with(|p| p.borrow().clone())
}

/// Replaces this thread's path with `path` until the guard drops —
/// worker threads call this with the launching thread's
/// [`current_path`] so their spans nest under the launching phase.
#[must_use = "the adopted path reverts when the guard drops"]
pub fn adopt(path: &str) -> AdoptGuard {
    if !crate::enabled() {
        return AdoptGuard { prev: None };
    }
    let prev = PATH.with(|p| std::mem::replace(&mut *p.borrow_mut(), path.to_string()));
    AdoptGuard { prev: Some(prev) }
}

/// Restores the pre-[`adopt`] path on drop.
pub struct AdoptGuard {
    prev: Option<String>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            PATH.with(|p| *p.borrow_mut() = prev);
        }
    }
}

/// All aggregated spans, sorted by path (parents before children).
pub fn snapshot() -> Vec<SpanRecord> {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .map(|(path, s)| SpanRecord {
            path: path.clone(),
            count: s.count,
            total_ns: s.total_ns,
            min_ns: s.min_ns,
            max_ns: s.max_ns,
            latency: s.latency.clone(),
        })
        .collect()
}

/// Number of guards currently open across all threads.
pub fn open_spans() -> i64 {
    OPEN.load(Ordering::Relaxed)
}

/// Clears aggregated spans (open-guard accounting is untouched).
pub fn reset() {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests only ever *enable* observation (never disable), because the
    // toggle is process-global and tests run concurrently.

    #[test]
    fn nested_spans_aggregate_by_full_path() {
        crate::set_enabled(true);
        {
            let _outer = enter("span_test.outer");
            let _inner = enter("span_test.inner");
        }
        let snap = snapshot();
        assert!(snap.iter().any(|s| s.path == "span_test.outer"), "{snap:?}");
        let inner = snap
            .iter()
            .find(|s| s.path == "span_test.outer/span_test.inner")
            .expect("nested path recorded");
        assert!(inner.count >= 1);
        assert!(inner.min_ns <= inner.max_ns);
        assert!(inner.total_ns >= inner.max_ns);
    }

    #[test]
    fn adopt_prefixes_worker_spans() {
        crate::set_enabled(true);
        let base = {
            let _phase = enter("span_test.phase");
            current_path()
        };
        assert!(base.ends_with("span_test.phase"));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _adopted = adopt(&base);
                let _w = enter("span_test.worker");
            });
        });
        let snap = snapshot();
        let want = format!("{base}/span_test.worker");
        assert!(snap.iter().any(|s| s.path == want), "missing {want:?} in {snap:?}");
    }

    #[test]
    fn guard_balance_restores_path() {
        crate::set_enabled(true);
        let before = current_path();
        {
            let _a = enter("span_test.balance");
        }
        assert_eq!(current_path(), before);
    }
}
