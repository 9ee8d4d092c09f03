//! Integration tests for the `gvex-obs` observability layer through the
//! facade crate: histogram edge cases, counters hammered from the rayon
//! pool, the machine-readable report schema, and env-var fallback.
//!
//! The obs registries and the enable toggle are process-global and tests
//! run concurrently, so every test uses unique metric / variable names and
//! only ever *enables* observation.

use gvex::obs;
use rayon::prelude::*;

/// The named histogram from the global registry.
fn histogram(name: &str) -> obs::latency::Hist {
    obs::metrics::histograms()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h)
        .unwrap_or_else(|| panic!("histogram {name:?} not registered"))
}

#[test]
fn histogram_bucketing_edges() {
    obs::set_enabled(true);
    // Zero, the exact unit buckets, an octave edge, the first value past
    // the old fixed-bucket overflow bound (262 144), and u64::MAX.
    for v in [0, 7, 8, 262_145, u64::MAX] {
        obs::metrics::histogram_record("obs_it.hist_edges", v);
    }
    let h = histogram("obs_it.hist_edges");
    assert_eq!(h.count(), 5);
    assert_eq!(h.quantile(0.2), 0, "zero is exact");
    assert_eq!(h.quantile(0.4), 7, "values below 8 are exact");
    assert_eq!(h.quantile(0.6), 8, "an octave's first value is its own bucket bound");
    let p80 = h.quantile(0.8);
    assert!((262_145..=294_913).contains(&p80), "p80 {p80} outside the 12.5% HDR bound");
    assert_eq!(h.quantile(1.0), u64::MAX, "nothing overflows");

    // A daemon-shaped tail in microseconds, 1 ms .. 1 s uniform: every
    // percentile reads back within the HDR bound, including the seconds
    // range the fixed buckets used to lose to overflow.
    for ms in 1..=1000u64 {
        obs::metrics::histogram_record("obs_it.hist_tail_us", ms * 1000);
    }
    let (p50, p90, p99, p999) = histogram("obs_it.hist_tail_us").percentiles();
    for (q, got) in [(0.5, p50), (0.9, p90), (0.99, p99), (0.999, p999)] {
        let exact = (q * 1000.0) as u64 * 1000;
        assert!(got >= exact && got as f64 <= exact as f64 * 1.125, "p{q}: {got} vs {exact}");
    }
}

#[test]
fn concurrent_counter_increments_from_rayon_pool() {
    obs::set_enabled(true);
    const WORKERS: usize = 4;
    const PER_ITEM: u64 = 250;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(WORKERS).build().unwrap();
    let items: Vec<usize> = (0..64).collect();
    pool.install(|| {
        items.par_iter().for_each(|_| {
            for _ in 0..PER_ITEM {
                obs::metrics::counter_add("obs_it.concurrent", 1);
            }
            obs::metrics::histogram_record("obs_it.concurrent_hist", PER_ITEM);
        });
    });
    let total = obs::metrics::counters()
        .into_iter()
        .find(|(name, _)| name == "obs_it.concurrent")
        .map(|(_, v)| v)
        .expect("counter registered");
    assert_eq!(total, items.len() as u64 * PER_ITEM, "increments lost under contention");
    assert_eq!(histogram("obs_it.concurrent_hist").count(), items.len() as u64);
}

#[test]
fn report_json_parses_and_carries_schema() {
    obs::set_enabled(true);
    // Seed at least one span, counter, and histogram so every section of
    // the document is non-trivial.
    {
        let _s = obs::span::enter("obs_it.report_span");
    }
    obs::metrics::counter_add("obs_it.report_counter", 7);
    obs::metrics::histogram_record("obs_it.report_hist", 3);

    let text = obs::report::render_json();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("report is valid JSON");
    let field = |key: &str| doc.get_field(key).unwrap_or_else(|| panic!("missing field {key:?}"));
    assert_eq!(field("schema_version").as_u64(), Some(obs::report::SCHEMA_VERSION));
    assert!(field("threads").as_u64().unwrap() >= 1);
    assert!(field("open_spans").as_i64().is_some());
    let serde_json::Value::Array(spans) = field("spans") else { panic!("spans is not an array") };
    assert!(
        spans.iter().any(|s| {
            s.get_field("path") == Some(&serde_json::Value::Str("obs_it.report_span".into()))
        }),
        "seeded span missing from {spans:?}"
    );
    assert_eq!(
        field("counters").get_field("obs_it.report_counter").and_then(|v| v.as_u64()),
        Some(7)
    );
    // Schema v3: a histogram is its count plus HDR percentiles in the
    // recorded unit (3 sits in an exact unit bucket).
    let hist = field("histograms").get_field("obs_it.report_hist").expect("histogram in report");
    assert_eq!(hist.get_field("count").and_then(|v| v.as_u64()), Some(1));
    for key in ["p50", "p90", "p99", "p999"] {
        assert_eq!(hist.get_field(key).and_then(|v| v.as_u64()), Some(3), "histogram {key}");
    }
    assert!(hist.get_field("bounds").is_none(), "v2 bucket arrays are gone");

    // Since v2: every span row carries latency percentiles, and the
    // document has the requests and trace sections.
    let seeded = spans
        .iter()
        .find(|s| s.get_field("path") == Some(&serde_json::Value::Str("obs_it.report_span".into())))
        .unwrap();
    for key in ["p50_ms", "p90_ms", "p99_ms", "p999_ms"] {
        assert!(seeded.get_field(key).is_some(), "span row missing v2 field {key}");
    }
    let _requests = field("requests"); // present even when no scope closed yet
    let trace = field("trace");
    for key in ["active", "events", "dropped", "capacity"] {
        assert!(trace.get_field(key).is_some(), "trace section missing {key}");
    }
}

/// A request scope tags the spans and counters recorded under it — on the
/// opening thread and across the rayon stand-in's workers — and the
/// report carries the attribution.
#[test]
fn request_scope_attributes_across_the_pool() {
    obs::set_enabled(true);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    {
        let _req = obs::context::ReqScope::begin("obs_it.request");
        let _outer = obs::span::enter("obs_it.req_outer");
        let items: Vec<usize> = (0..24).collect();
        pool.install(|| {
            items.par_iter().for_each(|_| {
                let _s = obs::span::enter("obs_it.req_worker");
                obs::metrics::counter_add("obs_it.req_counter", 1);
            });
        });
    }
    let req = obs::context::snapshot()
        .into_iter()
        .find(|r| r.name == "obs_it.request")
        .expect("request recorded at scope close");
    assert_eq!(req.count, 1);
    assert!(req.total_ns > 0);
    assert!(
        req.spans.iter().any(|(path, _, _)| path.ends_with("obs_it.req_outer")),
        "opening thread's span attributed: {:?}",
        req.spans
    );
    assert!(
        req.spans.iter().any(|(path, count, _)| path.ends_with("obs_it.req_worker") && *count > 0),
        "worker spans attributed across the fan-out: {:?}",
        req.spans
    );
    let (_, attributed) = req
        .counters
        .iter()
        .find(|(name, _)| name == "obs_it.req_counter")
        .expect("counter attributed to the request");
    assert_eq!(*attributed, 24, "every worker increment tagged to the request");

    // The same numbers appear in the report's requests section.
    let text = obs::report::render_json();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("report is valid JSON");
    let entry = doc
        .get_field("requests")
        .and_then(|r| r.get_field("obs_it.request"))
        .expect("request in report");
    assert_eq!(entry.get_field("count").and_then(|v| v.as_u64()), Some(1));
    assert!(entry.get_field("p99_ms").is_some());
    assert_eq!(
        entry
            .get_field("counters")
            .and_then(|c| c.get_field("obs_it.req_counter"))
            .and_then(|v| v.as_u64()),
        Some(24)
    );
}

#[test]
fn env_threads_survives_garbage() {
    // `threads()` reads the real GVEX_THREADS; in this test binary nothing
    // else depends on it (pools are built with explicit num_threads).
    std::env::set_var("GVEX_THREADS", "not-a-number");
    assert!(obs::env::threads() >= 1, "garbage must fall back, not abort");
    std::env::set_var("GVEX_THREADS", "3");
    assert_eq!(obs::env::threads(), 3);
    std::env::remove_var("GVEX_THREADS");
    assert!(obs::env::threads() >= 1);

    assert_eq!(obs::env::parse_usize("GVEX_OBS_IT_UNSET_USIZE"), Ok(None));
    std::env::set_var("GVEX_OBS_IT_BAD_USIZE", "twelve");
    let err = obs::env::parse_usize("GVEX_OBS_IT_BAD_USIZE").unwrap_err();
    assert_eq!(err.var, "GVEX_OBS_IT_BAD_USIZE");
    assert!(err.to_string().contains("unsigned integer"));
}
