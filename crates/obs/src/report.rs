//! End-of-run report: span tree to stderr, `OBS_report.json` to disk.
//!
//! The JSON document is built as a `serde_json::Value` tree and rendered by
//! the vendored `serde_json` — the same codec [`crate::diff`] reads it back
//! with. The schema is documented in DESIGN.md §8; `schema_version` bumps on
//! any incompatible change.

use crate::latency::Hist;
use serde_json::{json, Value};
use std::path::PathBuf;

/// Schema version stamped into `OBS_report.json`.
///
/// v3 (this version) reports each histogram as HDR percentiles,
/// `{count, p50, p90, p99, p999}` in the recorded unit, replacing v1/v2's
/// fixed `bounds`/`counts`/`overflow`/`sum` shape. v2 added per-span
/// `p50_ms`/`p90_ms`/`p99_ms`/`p999_ms` fields, a top-level `requests`
/// object (per-[`crate::context`] ReqScope counts, latency percentiles,
/// attributed spans/counters), and a top-level `trace` object (ring
/// occupancy and drop counter). Spans and counters are unchanged since v1;
/// [`crate::diff`] reads all three versions.
pub const SCHEMA_VERSION: u64 = 3;

/// Default report file name, relative to the working directory; override
/// with `GVEX_OBS_JSON=/path/to/file.json`.
pub const DEFAULT_JSON_PATH: &str = "OBS_report.json";

/// Renders the report to stderr and writes the JSON file, returning its
/// path. Does nothing (returns `None`) unless observation is enabled, so
/// every binary can call it unconditionally at exit.
pub fn emit() -> Option<PathBuf> {
    if !crate::enabled() {
        return None;
    }
    eprint!("{}", render_text());
    let path = PathBuf::from(
        crate::env::string("GVEX_OBS_JSON").unwrap_or_else(|| DEFAULT_JSON_PATH.into()),
    );
    let written = match std::fs::write(&path, render_json()) {
        Ok(()) => {
            eprintln!("[gvex-obs] wrote {}", path.display());
            Some(path)
        }
        Err(err) => {
            eprintln!("[gvex-obs] failed to write {}: {err}", path.display());
            None
        }
    };
    // With GVEX_OBS_TRACE=path set, flush the span event ring as a
    // chrome://tracing document alongside the report.
    if crate::trace::active() {
        if let Some(trace_path) = crate::env::string("GVEX_OBS_TRACE") {
            let trace_path = PathBuf::from(trace_path);
            match crate::trace::write_chrome_trace(&trace_path) {
                Ok(()) => eprintln!(
                    "[gvex-obs] wrote {} ({} events, {} dropped)",
                    trace_path.display(),
                    crate::trace::events().len(),
                    crate::trace::dropped()
                ),
                Err(err) => {
                    eprintln!("[gvex-obs] failed to write {}: {err}", trace_path.display())
                }
            }
        }
    }
    written
}

/// The human-readable report: an indented span tree (count, total, mean per
/// path) followed by counters and histograms.
pub fn render_text() -> String {
    let mut out = String::new();
    out.push_str("[gvex-obs] ──────────────────────── run report ────────────────────────\n");
    let spans = crate::span::snapshot();
    if spans.is_empty() {
        out.push_str("[gvex-obs] no spans recorded\n");
    } else {
        out.push_str("[gvex-obs] spans (count · total · mean · p50 · p99):\n");
        for s in &spans {
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let total = s.total_ns as f64 / 1e6;
            let mean = total / s.count.max(1) as f64;
            let p50 = s.latency.quantile(0.50) as f64 / 1e6;
            let p99 = s.latency.quantile(0.99) as f64 / 1e6;
            out.push_str(&format!(
                "[gvex-obs]   {label:<40} {:>7} · {total:>10.2}ms · {mean:>9.3}ms · {p50:>8.3}ms · {p99:>8.3}ms\n",
                s.count
            ));
        }
    }
    let requests = crate::context::snapshot();
    if !requests.is_empty() {
        out.push_str("[gvex-obs] requests (count · total · p50 · p99):\n");
        for r in &requests {
            let total = r.total_ns as f64 / 1e6;
            let p50 = r.latency.quantile(0.50) as f64 / 1e6;
            let p99 = r.latency.quantile(0.99) as f64 / 1e6;
            out.push_str(&format!(
                "[gvex-obs]   {:<40} {:>7} · {total:>10.2}ms · {p50:>8.3}ms · {p99:>8.3}ms\n",
                r.name, r.count
            ));
        }
    }
    let counters = crate::metrics::counters();
    if !counters.is_empty() {
        out.push_str("[gvex-obs] counters:\n");
        for (name, value) in &counters {
            out.push_str(&format!("[gvex-obs]   {name} = {value}\n"));
        }
    }
    let histograms = crate::metrics::histograms();
    if !histograms.is_empty() {
        out.push_str("[gvex-obs] histograms (count · p50 · p99):\n");
        for (name, h) in &histograms {
            out.push_str(&format!(
                "[gvex-obs]   {name}: {} · {} · {}\n",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.99)
            ));
        }
    }
    let open = crate::span::open_spans();
    if open != 0 {
        out.push_str(&format!("[gvex-obs] WARNING: {open} span(s) still open\n"));
    }
    out
}

/// The machine-readable report as a JSON document (see DESIGN.md §8 for the
/// schema).
pub fn render_json() -> String {
    let spans: Vec<Value> = crate::span::snapshot()
        .iter()
        .map(|s| {
            let (p50, p90, p99, p999) = s.latency.percentiles();
            json!({
                "path": s.path,
                "count": s.count,
                "total_ms": ms(s.total_ns),
                "min_ms": ms(s.min_ns),
                "max_ms": ms(s.max_ns),
                "p50_ms": ms(p50.into()),
                "p90_ms": ms(p90.into()),
                "p99_ms": ms(p99.into()),
                "p999_ms": ms(p999.into()),
            })
        })
        .collect();
    let requests = object(crate::context::snapshot().into_iter().map(|r| {
        let (p50, p90, p99, p999) = r.latency.percentiles();
        let spans = object(r.spans.iter().map(|(path, count, total_ns)| {
            (path.clone(), json!({ "count": count, "total_ms": ms(*total_ns) }))
        }));
        let counters = object(r.counters.iter().map(|(name, v)| (name.clone(), json!(v))));
        let entry = json!({
            "count": r.count,
            "total_ms": ms(r.total_ns),
            "p50_ms": ms(p50.into()),
            "p90_ms": ms(p90.into()),
            "p99_ms": ms(p99.into()),
            "p999_ms": ms(p999.into()),
            "spans": spans,
            "counters": counters,
        });
        (r.name, entry)
    }));
    let trace = json!({
        "active": crate::trace::active(),
        "events": crate::trace::events().len(),
        "dropped": crate::trace::dropped(),
        "capacity": crate::trace::capacity(),
    });
    let counters = object(crate::metrics::counters().into_iter().map(|(name, v)| (name, json!(v))));
    let histograms = object(
        crate::metrics::histograms().into_iter().map(|(name, h)| (name, histogram_json(&h))),
    );
    let doc = json!({
        "schema_version": SCHEMA_VERSION,
        "threads": crate::env::threads(),
        "open_spans": crate::span::open_spans(),
        "spans": spans,
        "requests": requests,
        "trace": trace,
        "counters": counters,
        "histograms": histograms,
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("a value tree always renders");
    text.push('\n');
    text
}

/// One v3 histogram entry: count plus HDR percentiles in the recorded unit.
fn histogram_json(h: &Hist) -> Value {
    let (p50, p90, p99, p999) = h.percentiles();
    json!({ "count": h.count(), "p50": p50, "p90": p90, "p99": p99, "p999": p999 })
}

/// A JSON object from `(key, value)` pairs, in iteration order.
fn object(fields: impl Iterator<Item = (String, Value)>) -> Value {
    Value::Object(fields.collect())
}

/// Nanoseconds as fractional milliseconds.
fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_even_when_empty() {
        // With nothing recorded the document must still be well-formed.
        let json = render_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"requests\""));
        assert!(json.contains("\"trace\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn rendered_report_round_trips_through_the_diff_reader() {
        crate::set_enabled(true);
        {
            let _s = crate::span::enter("report_test.\"quoted\"\nspan");
        }
        crate::metrics::counter_add("report_test.counter", 4);
        crate::metrics::histogram_record("report_test.hist", 1_000_000);
        let text = render_json();
        let data = crate::diff::parse_report(&text).expect("own report parses");
        assert_eq!(data.schema_version, SCHEMA_VERSION);
        assert!(data.spans.keys().any(|p| p.ends_with("report_test.\"quoted\"\nspan")));
        assert_eq!(data.counters["report_test.counter"], 4);
        let doc: Value = serde_json::from_str(&text).unwrap();
        let hist = doc.get_field("histograms").and_then(|h| h.get_field("report_test.hist"));
        let p99 = hist.and_then(|h| h.get_field("p99")).and_then(Value::as_u64).unwrap();
        assert!((1_000_000..=1_125_000).contains(&p99), "p99 {p99} outside the HDR bound");
    }
}
