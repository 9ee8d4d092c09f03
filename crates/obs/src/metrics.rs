//! Named counters and histograms.
//!
//! Both registries are global `Mutex<BTreeMap>`s keyed by metric name; the
//! stable name table lives in DESIGN.md §8. Histograms are the same HDR
//! [`Hist`] that backs span and request percentiles, so a value is read
//! back within 12.5% at any magnitude. Recording is a no-op unless the
//! runtime toggle is on.

use crate::latency::Hist;
use std::collections::BTreeMap;
use std::sync::Mutex;

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<String, Hist>> = Mutex::new(BTreeMap::new());

/// Adds `n` to the counter `name` (no-op when observation is off). When a
/// request scope is active on this thread, the increment is also mirrored
/// into that request's counter table.
pub fn counter_add(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    {
        let mut counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        // `get_mut` first: the common case must not allocate a key String.
        if let Some(total) = counters.get_mut(name) {
            *total = total.saturating_add(n);
        } else {
            counters.insert(name.to_string(), n);
        }
    }
    if let Some(tag) = crate::context::current() {
        crate::context::attribute_counter(tag, name, n);
    }
}

/// Records `value` into the histogram `name` (no-op when observation is
/// off).
pub fn histogram_record(name: &str, value: u64) {
    if !crate::enabled() {
        return;
    }
    let mut hists = HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
    match hists.get_mut(name) {
        Some(hist) => hist.record(value),
        None => {
            let mut hist = Hist::new();
            hist.record(value);
            hists.insert(name.to_string(), hist);
        }
    }
}

/// All counters, sorted by name.
pub fn counters() -> Vec<(String, u64)> {
    let counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    counters.iter().map(|(k, &v)| (k.clone(), v)).collect()
}

/// All histograms, sorted by name.
pub fn histograms() -> Vec<(String, Hist)> {
    let hists = HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner());
    hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// Clears both registries.
pub fn reset() {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    HISTOGRAMS.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unique metric names per test: the registries are process-global and
    // tests run concurrently. Tests only enable, never disable.

    #[test]
    fn counter_accumulates() {
        crate::set_enabled(true);
        counter_add("metrics_test.counter", 2);
        counter_add("metrics_test.counter", 3);
        let total = counters()
            .into_iter()
            .find(|(name, _)| name == "metrics_test.counter")
            .map(|(_, v)| v)
            .unwrap();
        assert_eq!(total, 5);
    }

    #[test]
    fn histogram_keeps_zero_and_the_full_u64_range() {
        crate::set_enabled(true);
        histogram_record("metrics_test.hist", 0);
        histogram_record("metrics_test.hist", 7);
        histogram_record("metrics_test.hist", u64::MAX);
        let (_, hist) =
            histograms().into_iter().find(|(name, _)| name == "metrics_test.hist").unwrap();
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.quantile(0.0), 0, "zero is exact");
        assert_eq!(hist.quantile(0.5), 7, "small values are exact");
        assert_eq!(hist.quantile(1.0), u64::MAX, "nothing overflows");
    }
}
