//! Comparing two `OBS_report.json` files: the perf-regression gate behind
//! `gvex obs diff`.
//!
//! The reader goes through the vendored `serde_json` (the codec the writer
//! in [`crate::report`] uses) and is **backward-compatible**: it accepts
//! schema v1 reports (no percentiles, no requests), v2, and v3 (HDR
//! histograms — which the diff does not read), so a freshly built binary
//! can gate against a baseline committed before a schema bump. Hostile
//! input — truncated, nested past the parser's depth limit, or of the
//! wrong shape — is an `Err`, never a panic.
//!
//! Comparison is asymmetric by design — it looks for *regressions* in `new`
//! relative to `old`:
//!
//! * **span totals** — `new.total_ms > old.total_ms × (1 + span_pct/100)`,
//!   skipping spans whose old total is below `min_span_ms` (noise floor)
//!   and spans present in only one report (a renamed span is not a
//!   slowdown);
//! * **counters** — same ratio test with `counter_pct`, skipping counters
//!   whose old value is below `min_counter` (a 1→3 jitter is not a
//!   regression);
//! * **p99 latency** — same ratio test with `p99_pct`, only where both
//!   reports carry percentiles (v2) and the span passes the noise floor.
//!
//! Thresholds are percentages of allowed growth: `span_pct = 50` tolerates
//! up to 1.5× the old total. CI uses deliberately generous values — the
//! gate exists to catch *gross* regressions, not machine jitter.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Allowed growth before a metric counts as regressed. See module docs.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Max span total_ms growth, percent (50 ⇒ 1.5× allowed).
    pub span_pct: f64,
    /// Max counter growth, percent.
    pub counter_pct: f64,
    /// Max span p99 growth, percent.
    pub p99_pct: f64,
    /// Spans with an old total below this (ms) are never compared.
    pub min_span_ms: f64,
    /// Counters with an old value below this are never compared.
    pub min_counter: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            span_pct: 50.0,
            counter_pct: 50.0,
            p99_pct: 100.0,
            min_span_ms: 1.0,
            min_counter: 100,
        }
    }
}

/// What regressed and by how much.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// `"span"`, `"counter"`, or `"p99"`.
    pub kind: &'static str,
    /// Span path or counter name.
    pub name: String,
    /// Old value (ms for spans/p99, count for counters).
    pub old: f64,
    /// New value.
    pub new: f64,
    /// The limit that was breached, as a ratio (e.g. 1.5).
    pub limit: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:<44} {:>12.3} -> {:>12.3}  ({:.2}x, limit {:.2}x)",
            self.kind,
            self.name,
            self.old,
            self.new,
            if self.old > 0.0 { self.new / self.old } else { f64::INFINITY },
            self.limit
        )
    }
}

/// One span row as read from a report (v1 fields always present, v2
/// percentile fields optional).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEntry {
    /// Completed guards.
    pub count: u64,
    /// Total wall-clock, milliseconds.
    pub total_ms: f64,
    /// p50 (v2 reports only).
    pub p50_ms: Option<f64>,
    /// p99 (v2 reports only).
    pub p99_ms: Option<f64>,
}

/// The slice of a report the diff needs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportData {
    /// `schema_version` field.
    pub schema_version: u64,
    /// Spans keyed by path.
    pub spans: BTreeMap<String, SpanEntry>,
    /// Counters keyed by name.
    pub counters: BTreeMap<String, u64>,
}

/// Parses an `OBS_report.json` document (schema v1, v2 or v3).
///
/// Span fields a v1 report lacks default to `None`/0; a counter that is not
/// a non-negative integer is an error.
pub fn parse_report(text: &str) -> Result<ReportData, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Value::Object(_) = root else { return Err("report root is not an object".into()) };
    let mut data = ReportData {
        schema_version: root
            .get_field("schema_version")
            .and_then(Value::as_u64)
            .ok_or("missing schema_version")?,
        ..ReportData::default()
    };
    let Some(Value::Array(spans)) = root.get_field("spans") else {
        return Err("missing spans array".into());
    };
    for span in spans {
        let Some(Value::Str(path)) = span.get_field("path") else {
            return Err("span entry without a path".into());
        };
        let num = |key: &str| span.get_field(key).and_then(Value::as_f64);
        data.spans.insert(
            path.clone(),
            SpanEntry {
                count: span.get_field("count").and_then(Value::as_u64).unwrap_or(0),
                total_ms: num("total_ms").unwrap_or(0.0),
                p50_ms: num("p50_ms"),
                p99_ms: num("p99_ms"),
            },
        );
    }
    let Some(Value::Object(counters)) = root.get_field("counters") else {
        return Err("missing counters object".into());
    };
    for (name, v) in counters {
        let n = v.as_u64().ok_or_else(|| format!("counter {name:?} is not a count: {v:?}"))?;
        data.counters.insert(name.clone(), n);
    }
    Ok(data)
}

/// All regressions of `new` against `old` under `thr`, sorted worst-first
/// within each kind (spans, then p99, then counters).
pub fn compare(old: &ReportData, new: &ReportData, thr: &Thresholds) -> Vec<Regression> {
    let mut out = Vec::new();
    for (path, o) in &old.spans {
        let Some(n) = new.spans.get(path) else { continue };
        if o.total_ms < thr.min_span_ms {
            continue;
        }
        let limit = 1.0 + thr.span_pct / 100.0;
        if n.total_ms > o.total_ms * limit {
            out.push(Regression {
                kind: "span",
                name: path.clone(),
                old: o.total_ms,
                new: n.total_ms,
                limit,
            });
        }
        if let (Some(op99), Some(np99)) = (o.p99_ms, n.p99_ms) {
            let limit = 1.0 + thr.p99_pct / 100.0;
            if op99 > 0.0 && np99 > op99 * limit {
                out.push(Regression {
                    kind: "p99",
                    name: path.clone(),
                    old: op99,
                    new: np99,
                    limit,
                });
            }
        }
    }
    for (name, &o) in &old.counters {
        let Some(&n) = new.counters.get(name) else { continue };
        if o < thr.min_counter {
            continue;
        }
        let limit = 1.0 + thr.counter_pct / 100.0;
        if n as f64 > o as f64 * limit {
            out.push(Regression {
                kind: "counter",
                name: name.clone(),
                old: o as f64,
                new: n as f64,
                limit,
            });
        }
    }
    out.sort_by(|a, b| {
        let rank = |k: &str| match k {
            "span" => 0,
            "p99" => 1,
            _ => 2,
        };
        let ra = if a.old > 0.0 { a.new / a.old } else { f64::INFINITY };
        let rb = if b.old > 0.0 { b.new / b.old } else { f64::INFINITY };
        rank(a.kind).cmp(&rank(b.kind)).then(rb.total_cmp(&ra))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1: &str = r#"{
      "schema_version": 1,
      "threads": 4,
      "open_spans": 0,
      "spans": [
        {"path": "explain_db", "count": 1, "total_ms": 120.5, "min_ms": 120.5, "max_ms": 120.5},
        {"path": "explain_db/predict", "count": 2, "total_ms": 30.0, "min_ms": 10.0, "max_ms": 20.0}
      ],
      "counters": {"gnn.trace_cache.hits": 500, "tiny": 2},
      "histograms": {}
    }"#;

    fn v2_with(total: f64, p99: f64, hits: u64) -> String {
        format!(
            r#"{{
              "schema_version": 2,
              "spans": [
                {{"path": "explain_db", "count": 1, "total_ms": {total}, "min_ms": 1.0,
                  "max_ms": 2.0, "p50_ms": 1.0, "p90_ms": 1.5, "p99_ms": {p99}, "p999_ms": {p99}}}
              ],
              "counters": {{"gnn.trace_cache.hits": {hits}, "tiny": 2}}
            }}"#
        )
    }

    #[test]
    fn reads_v1_reports_without_percentiles() {
        let r = parse_report(V1).unwrap();
        assert_eq!(r.schema_version, 1);
        assert_eq!(r.spans["explain_db"].total_ms, 120.5);
        assert_eq!(r.spans["explain_db"].p99_ms, None);
        assert_eq!(r.counters["gnn.trace_cache.hits"], 500);
    }

    #[test]
    fn reads_v2_percentiles() {
        let r = parse_report(&v2_with(100.0, 5.0, 500)).unwrap();
        assert_eq!(r.schema_version, 2);
        assert_eq!(r.spans["explain_db"].p99_ms, Some(5.0));
    }

    #[test]
    fn flags_span_counter_and_p99_regressions() {
        let old = parse_report(&v2_with(100.0, 5.0, 500)).unwrap();
        let new = parse_report(&v2_with(400.0, 25.0, 2000)).unwrap();
        let regs = compare(&old, &new, &Thresholds::default());
        let kinds: Vec<&str> = regs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&"span"), "{regs:?}");
        assert!(kinds.contains(&"p99"), "{regs:?}");
        assert!(kinds.contains(&"counter"), "{regs:?}");
        // the 2->2 "tiny" counter sits under min_counter and never fires
        assert!(!regs.iter().any(|r| r.name == "tiny"));
    }

    #[test]
    fn within_threshold_passes_and_improvements_never_fire() {
        let old = parse_report(&v2_with(100.0, 5.0, 500)).unwrap();
        let same = compare(&old, &old, &Thresholds::default());
        assert!(same.is_empty(), "{same:?}");
        let better = parse_report(&v2_with(50.0, 2.0, 100)).unwrap();
        assert!(compare(&old, &better, &Thresholds::default()).is_empty());
    }

    #[test]
    fn v1_vs_v2_skips_percentiles_but_compares_totals() {
        let old = parse_report(V1).unwrap();
        let new = parse_report(&v2_with(500.0, 9.0, 200)).unwrap();
        let regs = compare(&old, &new, &Thresholds::default());
        assert!(regs.iter().any(|r| r.kind == "span" && r.name == "explain_db"));
        assert!(!regs.iter().any(|r| r.kind == "p99"), "v1 has no percentiles to compare");
        // hits shrank 500 -> 200: an improvement, not a regression
        assert!(!regs.iter().any(|r| r.kind == "counter"));
    }

    #[test]
    fn missing_entries_are_skipped() {
        let old = parse_report(V1).unwrap();
        let mut new = old.clone();
        new.spans.remove("explain_db");
        new.counters.remove("gnn.trace_cache.hits");
        assert!(compare(&old, &new, &Thresholds::default()).is_empty());
    }

    const V3: &str = r#"{
      "schema_version": 3,
      "threads": 2,
      "open_spans": 0,
      "spans": [
        {"path": "explain_db", "count": 1, "total_ms": 80.25, "min_ms": 80.25, "max_ms": 80.25,
         "p50_ms": 80.5, "p90_ms": 80.5, "p99_ms": 80.5, "p999_ms": 80.5}
      ],
      "requests": {},
      "trace": {"active": false, "events": 0, "dropped": 0, "capacity": 0},
      "counters": {"gnn.trace_cache.hits": 500},
      "histograms": {
        "serve.request_us": {"count": 3, "p50": 120, "p90": 900, "p99": 950000, "p999": 950000}
      }
    }"#;

    #[test]
    fn reads_v3_reports_with_hdr_histograms() {
        let r = parse_report(V3).unwrap();
        assert_eq!(r.schema_version, 3);
        assert_eq!(r.spans["explain_db"].p99_ms, Some(80.5));
        assert_eq!(r.counters["gnn.trace_cache.hits"], 500);
        let old = parse_report(&v2_with(80.0, 80.0, 500)).unwrap();
        assert!(compare(&old, &r, &Thresholds::default()).is_empty(), "v2 vs v3 compares");
    }

    #[test]
    fn span_paths_keep_their_escapes() {
        let text = r#"{"schema_version": 2, "spans": [{"path": "a\n\"b\"", "total_ms": 1}],
                       "counters": {}}"#;
        let r = parse_report(text).unwrap();
        assert!(r.spans.contains_key("a\n\"b\""));
    }

    #[test]
    fn truncated_reports_are_errors() {
        let full = v2_with(100.0, 5.0, 500);
        assert!(parse_report(&full).is_ok());
        let body = full.trim_end();
        for end in 0..body.len() {
            if body.is_char_boundary(end) {
                assert!(parse_report(&body[..end]).is_err(), "prefix of {end} bytes parsed");
            }
        }
    }

    #[test]
    fn deep_nesting_is_an_error() {
        for depth in [200, 200_000] {
            assert!(parse_report(&"[".repeat(depth)).is_err());
            let nested = format!(
                r#"{{"schema_version": 2, "spans": [], "counters": {{"x": {}1{}}}}}"#,
                "[".repeat(depth),
                "]".repeat(depth)
            );
            assert!(parse_report(&nested).is_err());
        }
    }

    #[test]
    fn non_object_roots_are_errors() {
        for text in ["[]", "3", "\"report\"", "null", "true"] {
            let err = parse_report(text).unwrap_err();
            assert!(err.contains("not an object"), "{text}: {err}");
        }
        assert!(parse_report(r#"{"schema_version": 2, "spans": {}, "counters": {}}"#).is_err());
        assert!(parse_report(r#"{"schema_version": 2, "spans": [], "counters": []}"#).is_err());
        assert!(parse_report(r#"{"schema_version": 2, "spans": [3], "counters": {}}"#).is_err());
    }

    #[test]
    fn negative_or_fractional_counters_are_errors() {
        for bad in ["-5", "2.5", "-0.5", "1e400", "\"7\""] {
            let text =
                format!(r#"{{"schema_version": 2, "spans": [], "counters": {{"c": {bad}}}}}"#);
            assert!(parse_report(&text).is_err(), "counter {bad} accepted");
        }
        // integral floats are counts; a negative span count reads as zero
        let text = r#"{"schema_version": 2, "spans": [{"path": "s", "count": -3}],
                       "counters": {"c": 4.0}}"#;
        let r = parse_report(text).unwrap();
        assert_eq!(r.counters["c"], 4);
        assert_eq!(r.spans["s"].count, 0);
    }
}
