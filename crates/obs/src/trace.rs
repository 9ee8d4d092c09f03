//! Chrome-trace export: a bounded ring of span begin/end events.
//!
//! With `GVEX_OBS_TRACE=/path/to/trace.json` set (and observation on), every
//! completed span additionally appends a begin/end event pair to a global
//! ring buffer; [`crate::report::emit`] flushes the ring to a JSON file
//! loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
//! with one track per thread.
//!
//! Design constraints, in order:
//!
//! 1. **Never perturb the computation.** Slot indices are claimed with a
//!    single `fetch_add` (lock-free); each claimed slot is written exactly
//!    once through its own uncontended per-slot lock, so writers never wait
//!    on each other.
//! 2. **Bounded.** The ring holds `GVEX_OBS_TRACE_CAP` events (default
//!    65 536, rounded down to even); once full, further pairs are *dropped
//!    and counted* rather than overwriting — the head of a run matters more
//!    than its tail for startup analysis, and dropping keeps every retained
//!    begin matched with its end.
//! 3. **Matched by construction.** Both events of a span are claimed with
//!    one `fetch_add(2)` at guard drop, so a pair lands entirely or not at
//!    all; the flushed file never contains an unmatched begin/end.
//!
//! Timestamps are nanoseconds since a process-local epoch (first trace
//! activation), emitted as microseconds in the JSON as the format requires.

use serde_json::{json, Value};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One span boundary held in the ring.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Stable per-thread track id (small integers from 1).
    pub tid: u64,
    /// `true` for the begin ("B") event, `false` for the end ("E").
    pub begin: bool,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Span duration — carried on both events for nesting-stable sorting.
    pub dur_ns: u64,
    /// Full slash-joined span path (shared between the B and E event).
    pub name: Arc<str>,
}

/// Default ring capacity in events (two per span).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// 0 = uninitialised (consult `GVEX_OBS_TRACE`), 1 = off, 2 = on.
static MODE: AtomicU8 = AtomicU8::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static RING: OnceLock<Ring> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's track id (0 = unassigned).
    static TID: Cell<u64> = const { Cell::new(0) };
}

struct Ring {
    /// Write-once slots; each is locked only by its single claimant
    /// (tickets are unique) and by the flush/clear paths.
    slots: Vec<Mutex<Option<TraceEvent>>>,
    /// Next free slot index; grows past `slots.len()` once full.
    next: AtomicUsize,
    /// Events that found no slot (always incremented in pairs).
    dropped: AtomicU64,
}

fn ring() -> &'static Ring {
    RING.get_or_init(|| {
        let cap = match crate::env::parse_usize("GVEX_OBS_TRACE_CAP") {
            Ok(Some(n)) if n >= 2 => n & !1, // even, so B/E pairs never straddle the end
            _ => DEFAULT_CAPACITY,
        };
        Ring {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    })
}

/// The process-local trace epoch, fixed at first use. Called by
/// `span::enter` before reading the clock so event timestamps are never
/// earlier than the epoch.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Whether trace recording is on: `GVEX_OBS_TRACE` is set (first call)
/// or [`force_active`] was used. One relaxed atomic load afterwards.
#[inline]
pub fn active() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = crate::env::string("GVEX_OBS_TRACE").is_some();
            if on {
                let _ = epoch();
            }
            MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the `GVEX_OBS_TRACE` toggle in process — tests and benches
/// trace one run and not another without re-execing.
pub fn force_active(on: bool) {
    if on {
        let _ = epoch();
    }
    MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Appends the begin/end pair for one completed span. Both events land
/// or neither does (two tickets, one claim), keeping the ring matched.
pub fn record_pair(name: &str, start: Instant, end: Instant) {
    let r = ring();
    let i = r.next.fetch_add(2, Ordering::Relaxed);
    if i + 1 >= r.slots.len() {
        r.dropped.fetch_add(2, Ordering::Relaxed);
        return;
    }
    let e = epoch();
    let ts = start.saturating_duration_since(e).as_nanos().min(u64::MAX as u128) as u64;
    let te = end.saturating_duration_since(e).as_nanos().min(u64::MAX as u128) as u64;
    let dur = te.saturating_sub(ts);
    let name: Arc<str> = Arc::from(name);
    let t = tid();
    *r.slots[i].lock().unwrap_or_else(|e| e.into_inner()) =
        Some(TraceEvent { tid: t, begin: true, ts_ns: ts, dur_ns: dur, name: Arc::clone(&name) });
    *r.slots[i + 1].lock().unwrap_or_else(|e| e.into_inner()) =
        Some(TraceEvent { tid: t, begin: false, ts_ns: te, dur_ns: dur, name });
}

/// All retained events, sorted for proper nesting: by timestamp, begins
/// before ends at a tie, outer (longer) begins before inner ones.
pub fn events() -> Vec<TraceEvent> {
    let Some(r) = RING.get() else { return Vec::new() };
    let used = r.next.load(Ordering::Relaxed).min(r.slots.len());
    let mut evs: Vec<TraceEvent> = r.slots[..used]
        .iter()
        .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
        .collect();
    evs.sort_by_key(|e| (e.ts_ns, !e.begin, if e.begin { u64::MAX - e.dur_ns } else { e.dur_ns }));
    evs
}

/// Events dropped because the ring was full (counted in pairs).
pub fn dropped() -> u64 {
    RING.get().map_or(0, |r| r.dropped.load(Ordering::Relaxed))
}

/// Ring capacity in events (0 before the first record).
pub fn capacity() -> usize {
    RING.get().map_or(0, |r| r.slots.len())
}

/// Empties the ring and zeroes the drop counter. For tests and benches
/// only — concurrent recorders would interleave with the wipe.
pub fn clear() {
    if let Some(r) = RING.get() {
        for s in &r.slots {
            *s.lock().unwrap_or_else(|e| e.into_inner()) = None;
        }
        r.next.store(0, Ordering::Relaxed);
        r.dropped.store(0, Ordering::Relaxed);
    }
}

/// Writes the ring as a `chrome://tracing` JSON document to `path`.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<()> {
    let events: Vec<Value> = events()
        .iter()
        .map(|e| {
            json!({
                "name": &*e.name,
                "cat": "span",
                "ph": if e.begin { "B" } else { "E" },
                "pid": 1u64,
                "tid": e.tid,
                "ts": e.ts_ns as f64 / 1e3,
            })
        })
        .collect();
    let doc = json!({
        "displayTimeUnit": "ms",
        "otherData": json!({ "dropped_events": dropped(), "capacity": capacity() }),
        "traceEvents": events,
    });
    let text = serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(path, text)
}
