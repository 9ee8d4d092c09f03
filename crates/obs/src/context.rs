//! Request-scoped attribution: tagging spans and counters per request.
//!
//! The span tree answers "where did this *process* spend its time"; a
//! serving daemon needs "where did this *request* spend its time". A
//! [`ReqScope`] is an explicit RAII handle opened at a request boundary —
//! an `ExplainSession` call, a batched prediction, a bench iteration — that
//! tags everything recorded while it is active:
//!
//! * the request itself is counted and its wall-clock recorded into a
//!   per-request-name latency histogram ([`crate::latency::Hist`], so the
//!   report can state p50/p90/p99/p999 per request kind);
//! * every span completing under the scope folds its elapsed time into the
//!   request's own span table (in addition to the global one);
//! * every counter incremented under the scope is mirrored into the
//!   request's counter table.
//!
//! **Propagation rules** (DESIGN.md §13):
//!
//! 1. The active tag is thread-local, layered on the same pattern as the
//!    span path stack. The rayon stand-in captures [`current`] on the
//!    launching thread and [`adopt`]s it in every worker, exactly like span
//!    paths — so work fanned out under a request stays attributed to it.
//! 2. Scopes nest innermost-wins: `ReqScope::begin` replaces the tag and
//!    the guard restores the previous one on drop. A nested request owns
//!    its own spans/counters; the outer request still owns the nested
//!    request's *total* wall-clock (its own guard keeps timing).
//! 3. Everything is inert when observation is off — begin reads one atomic
//!    and returns an unarmed guard; attribution never alters computation.
//!
//! Request names are `&'static str` by design: attribution sits on the span
//! drop path and a static tag keeps the hot check to a `Cell` read.

use crate::latency::Hist;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Aggregated telemetry for one request name, as reported.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// The tag passed to [`ReqScope::begin`].
    pub name: String,
    /// Completed requests under this name.
    pub count: u64,
    /// Total request wall-clock, nanoseconds.
    pub total_ns: u128,
    /// Per-request latency distribution (p50/p90/p99/p999 source).
    pub latency: Hist,
    /// Span paths completed under this request: `(path, count, total_ns)`.
    pub spans: Vec<(String, u64, u128)>,
    /// Counters incremented under this request: `(name, total)`.
    pub counters: Vec<(String, u64)>,
}

#[derive(Default)]
struct ReqStat {
    count: u64,
    total_ns: u128,
    latency: Hist,
    spans: BTreeMap<String, (u64, u128)>,
    counters: BTreeMap<String, u64>,
}

static REQUESTS: Mutex<BTreeMap<&'static str, ReqStat>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The innermost active request tag on this thread.
    static CURRENT: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// RAII request scope; see [`begin`].
#[must_use = "a request scope measures until dropped; binding it to _ drops immediately"]
pub struct ReqScope {
    /// `None` when observation was off at entry (inert guard).
    armed: Option<(&'static str, Option<&'static str>, Instant)>,
}

impl ReqScope {
    /// Alias for [`begin`], so call sites read
    /// `gvex_obs::context::ReqScope::begin("session.explain")`.
    pub fn begin(name: &'static str) -> ReqScope {
        begin(name)
    }
}

/// Opens a request scope named `name`: the calling thread's (and, via
/// rayon adoption, its workers') spans and counters are attributed to
/// it until the guard drops. Inert when observation is off.
pub fn begin(name: &'static str) -> ReqScope {
    if !crate::enabled() {
        return ReqScope { armed: None };
    }
    let prev = CURRENT.with(|c| c.replace(Some(name)));
    ReqScope { armed: Some((name, prev, Instant::now())) }
}

impl Drop for ReqScope {
    fn drop(&mut self) {
        let Some((name, prev, start)) = self.armed.take() else { return };
        let end = Instant::now();
        CURRENT.with(|c| c.set(prev));
        let elapsed = end.duration_since(start).as_nanos();
        {
            let mut reqs = REQUESTS.lock().unwrap_or_else(|e| e.into_inner());
            let stat = reqs.entry(name).or_default();
            stat.count += 1;
            stat.total_ns += elapsed;
            stat.latency.record(elapsed.min(u64::MAX as u128) as u64);
        }
        if crate::trace::active() {
            crate::trace::record_pair(&format!("req:{name}"), start, end);
        }
    }
}

/// The innermost active request tag on the calling thread — what the
/// rayon stand-in captures before fanning out.
#[inline]
pub fn current() -> Option<&'static str> {
    CURRENT.with(|c| c.get())
}

/// Installs `tag` as this thread's active request until the guard
/// drops — worker threads call this with the launching thread's
/// [`current`], mirroring `span::adopt`.
#[must_use = "the adopted request tag reverts when the guard drops"]
pub fn adopt(tag: Option<&'static str>) -> ReqAdoptGuard {
    if !crate::enabled() {
        return ReqAdoptGuard { prev: None };
    }
    ReqAdoptGuard { prev: Some(CURRENT.with(|c| c.replace(tag))) }
}

/// Restores the pre-[`adopt`] tag on drop.
pub struct ReqAdoptGuard {
    prev: Option<Option<&'static str>>,
}

impl Drop for ReqAdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// Folds a completed span into the active request's span table (called
/// by the span guard on drop when a tag is active).
pub(crate) fn attribute_span(tag: &'static str, path: &str, elapsed_ns: u128) {
    let mut reqs = REQUESTS.lock().unwrap_or_else(|e| e.into_inner());
    let stat = reqs.entry(tag).or_default();
    let (count, total) = stat.spans.entry(path.to_string()).or_default();
    *count += 1;
    *total += elapsed_ns;
}

/// Mirrors a counter increment into the active request's counter table
/// (called by `metrics::counter_add` when a tag is active).
pub(crate) fn attribute_counter(tag: &'static str, name: &str, n: u64) {
    let mut reqs = REQUESTS.lock().unwrap_or_else(|e| e.into_inner());
    let stat = reqs.entry(tag).or_default();
    let total = stat.counters.entry(name.to_string()).or_default();
    *total = total.saturating_add(n);
}

/// All request records, sorted by name.
pub fn snapshot() -> Vec<RequestRecord> {
    let reqs = REQUESTS.lock().unwrap_or_else(|e| e.into_inner());
    reqs.iter()
        .map(|(name, s)| RequestRecord {
            name: name.to_string(),
            count: s.count,
            total_ns: s.total_ns,
            latency: s.latency.clone(),
            spans: s.spans.iter().map(|(p, &(c, t))| (p.clone(), c, t)).collect(),
            counters: s.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
        })
        .collect()
}

/// Clears all request records (active tags are untouched).
pub fn reset() {
    REQUESTS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests only ever *enable* observation; unique request names per test
    // (the registry is process-global and tests run concurrently).

    #[test]
    fn scope_counts_and_times_requests() {
        crate::set_enabled(true);
        {
            let _req = ReqScope::begin("ctx_test.basic");
            std::hint::black_box(0u64);
        }
        {
            let _req = ReqScope::begin("ctx_test.basic");
        }
        let rec = snapshot().into_iter().find(|r| r.name == "ctx_test.basic").unwrap();
        assert_eq!(rec.count, 2);
        assert_eq!(rec.latency.count(), 2);
        assert!(rec.latency.quantile(0.99) as u128 * 2 >= rec.total_ns / 2);
    }

    #[test]
    fn spans_and_counters_attribute_to_the_active_request() {
        crate::set_enabled(true);
        {
            let _req = ReqScope::begin("ctx_test.attr");
            {
                let _s = crate::span::enter("ctx_test.attr_span");
            }
            crate::metrics::counter_add("ctx_test.attr_counter", 3);
        }
        let rec = snapshot().into_iter().find(|r| r.name == "ctx_test.attr").unwrap();
        assert!(
            rec.spans.iter().any(|(p, c, _)| p.ends_with("ctx_test.attr_span") && *c == 1),
            "{:?}",
            rec.spans
        );
        assert!(
            rec.counters.iter().any(|(n, v)| n == "ctx_test.attr_counter" && *v == 3),
            "{:?}",
            rec.counters
        );
    }

    #[test]
    fn nesting_is_innermost_wins_and_restores() {
        crate::set_enabled(true);
        let _outer = ReqScope::begin("ctx_test.outer");
        assert_eq!(current(), Some("ctx_test.outer"));
        {
            let _inner = ReqScope::begin("ctx_test.inner");
            assert_eq!(current(), Some("ctx_test.inner"));
            crate::metrics::counter_add("ctx_test.nested_counter", 1);
        }
        assert_eq!(current(), Some("ctx_test.outer"));
        let recs = snapshot();
        let inner = recs.iter().find(|r| r.name == "ctx_test.inner").unwrap();
        assert!(inner.counters.iter().any(|(n, _)| n == "ctx_test.nested_counter"));
        if let Some(outer) = recs.iter().find(|r| r.name == "ctx_test.outer") {
            assert!(
                !outer.counters.iter().any(|(n, _)| n == "ctx_test.nested_counter"),
                "nested counter must attribute to the innermost scope only"
            );
        }
    }

    #[test]
    fn workers_adopt_the_launching_tag() {
        crate::set_enabled(true);
        let _req = ReqScope::begin("ctx_test.adopt");
        let tag = current();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _adopted = adopt(tag);
                crate::metrics::counter_add("ctx_test.adopted_counter", 1);
            });
        });
        // the scope is still open; the worker's attribution already landed
        let rec = snapshot()
            .into_iter()
            .find(|r| r.name == "ctx_test.adopt")
            .expect("attribution creates the record before the scope closes");
        assert!(
            rec.counters.iter().any(|(n, v)| n == "ctx_test.adopted_counter" && *v == 1),
            "{:?}",
            rec.counters
        );
    }
}
