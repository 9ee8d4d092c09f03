//! The trace ring in a dedicated process: capacity comes from
//! `GVEX_OBS_TRACE_CAP` at first use, a full ring drops whole begin/end
//! pairs, and the flushed `chrome://tracing` document is balanced.
//!
//! One test only — the ring is process-global, its capacity latches on
//! first use, and the strict matched-pair assertions need a process where
//! no sibling test has a pair mid-write.

use gvex::obs;

#[test]
fn tiny_ring_drops_pairs_and_flushes_balanced_json() {
    // Before anything touches the ring in this process.
    std::env::set_var("GVEX_OBS_TRACE_CAP", "9"); // odd: rounds down to 8
    obs::set_enabled(true);
    obs::trace::force_active(true);
    for i in 0..16 {
        let _s = obs::span::enter(&format!("obs_trace.span{i}"));
    }
    assert_eq!(obs::trace::capacity(), 8, "capacity from env, rounded down to even");
    let events = obs::trace::events();
    assert_eq!(events.len(), 8, "ring filled exactly to capacity");
    let begins = events.iter().filter(|e| e.begin).count();
    assert_eq!(begins * 2, events.len(), "only whole pairs are retained");
    // 16 spans = 32 events; 8 retained, the rest dropped in pairs.
    assert_eq!(obs::trace::dropped(), 24);
    for e in &events {
        assert_eq!(e.tid, events[0].tid, "single-threaded run stays on one track");
    }

    // The flushed document parses, carries the drop counter, and every
    // begin has its end.
    let path = std::env::temp_dir().join("gvex_obs_trace_test.json");
    obs::trace::write_chrome_trace(&path).expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    assert_eq!(
        doc.get_field("otherData")
            .and_then(|o| o.get_field("dropped_events"))
            .and_then(|v| v.as_u64()),
        Some(24)
    );
    let serde_json::Value::Array(rows) = doc.get_field("traceEvents").expect("traceEvents") else {
        panic!("traceEvents is not an array");
    };
    assert_eq!(rows.len(), 8);
    let mut depth: i64 = 0;
    for row in rows {
        match row.get_field("ph") {
            Some(serde_json::Value::Str(ph)) if ph == "B" => depth += 1,
            Some(serde_json::Value::Str(ph)) if ph == "E" => depth -= 1,
            other => panic!("unexpected ph {other:?}"),
        }
        assert!(depth >= 0, "end before begin in sorted event order");
    }
    assert_eq!(depth, 0, "unmatched begin/end events in the flushed trace");
    std::fs::remove_file(&path).ok();

    // clear() resets the ring for the next measured run.
    obs::trace::clear();
    assert!(obs::trace::events().is_empty());
    assert_eq!(obs::trace::dropped(), 0);
    {
        let _s = obs::span::enter("obs_trace.after_clear");
    }
    assert_eq!(obs::trace::events().len(), 2, "one span, one pair");
}
