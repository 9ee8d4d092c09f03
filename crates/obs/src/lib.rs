//! `gvex-obs`: tracing, metrics, and run reports.
//!
//! The explain pipeline is instrumented with three primitives:
//!
//! - [`span!`] — an RAII guard recording nested wall-clock under a
//!   slash-joined path (`explain_db/predict/gnn.forward`), aggregated
//!   thread-safely by full path;
//! - [`counter!`] — a named monotonic counter;
//! - [`histogram!`] — a named HDR histogram ([`latency::Hist`]) reported
//!   as count and p50/p90/p99/p999 in the recorded unit.
//!
//! Observation never alters computation: guards only read the clock and
//! update side tables, so the bitwise thread-count determinism guarantee of
//! the pipeline is preserved (pinned by `tests/determinism.rs`).
//!
//! One switch gates the machinery: the `GVEX_OBS` environment variable (or
//! [`set_enabled`] in process). With it off, each primitive costs one
//! relaxed atomic load.
//!
//! At the end of a run, [`report::emit`] renders the span tree to stderr and
//! writes machine-readable `OBS_report.json` (path override: `GVEX_OBS_JSON`).
//!
//! On top of the primitives sit four telemetry layers (all inert when
//! observation is off):
//!
//! - [`context`] — explicit [`context::ReqScope`] request handles tagging
//!   every span/counter recorded under them, propagated across the rayon
//!   stand-in like span paths, reported with per-request p50/p90/p99/p999;
//! - [`latency`] — the hand-rolled HDR-style histogram behind every
//!   percentile: spans, requests, and [`histogram!`] metrics;
//! - [`trace`] — a bounded ring of span begin/end events, flushed to a
//!   `chrome://tracing` JSON when `GVEX_OBS_TRACE=path` is set;
//! - [`diff`] — a backward-compatible `OBS_report.json` reader and the
//!   regression comparison behind `gvex obs diff`.
//!
//! Reports are read and written through the vendored `serde_json` value
//! tree, the workspace's one JSON codec.

pub mod context;
pub mod diff;
pub mod env;
pub mod latency;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialised (consult `GVEX_OBS`), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether observation is active right now. The first call reads
/// `GVEX_OBS`; afterwards it is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = env::flag("GVEX_OBS");
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the `GVEX_OBS` toggle in process — used by tests and benches
/// that must observe one run and not another without re-execing.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears all recorded spans, counters, histograms, and request records
/// (the enable state and the trace ring are untouched — see
/// [`trace::clear`]). Benches call this between measured and instrumented
/// runs.
pub fn reset() {
    span::reset();
    metrics::reset();
    context::reset();
}

/// Opens a wall-clock span until the end of the enclosing scope:
/// `gvex_obs::span!("mining.pgen");`. Nested spans extend the thread's
/// slash-joined path. Inert while observation is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _gvex_obs_span_guard = $crate::span::enter($name);
    };
}

/// Increments a named counter: `counter!("gnn.trace_cache.hits")` adds 1,
/// `counter!("mining.pgen.occurrences", n)` adds `n`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::metrics::counter_add($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::metrics::counter_add($name, $n)
    };
}

/// Records a value into a named HDR histogram:
/// `histogram!("rayon.chunk_items", len)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::metrics::histogram_record($name, $value)
    };
}
