//! The traced run (`--trace 1`): the workload's set-up and a short live
//! phase against the daemon, then an in-process replay of its requests
//! through the calls a daemon worker makes, with a span around every
//! call into the program. Spans go to a chrome://tracing file under
//! `benchmark/.work/traces/`; every per-layer metric is derived from them.
//! Layers the workload does not reach are measured by a short sweep of
//! the other workloads' traced parts on the same inputs, written to its
//! own trace file.

use crate::batch::{self, Totals};
use crate::inputs::{self, HitMix, MissMix};
use crate::loadgen::Limits;
use crate::replay::replay_requests;
use crate::serve::{self, Check, Daemon, HitSource, Inputs, Source, Warm, WORKERS};
use crate::stats::{median, windowed, Summary, WINDOW};
use crate::trace::Tracer;
use crate::Report;
use gvex_ingest::{GenProfile, IngestEngine};
use gvex_serve::{AnswerCache, Request, ServeState, ServerConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("store.build_ms", "ms"),
    ("store.open_ms", "ms"),
    ("serve.state_open_ms", "ms"),
    ("core.mine_views_ms", "ms"),
    ("serve.decode_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.wire_queue_us", "us"),
    ("serve.body_bytes", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.answer_explain_ms", "ms"),
    ("serve.answer_node_ms", "ms"),
    ("core.pool.warm_ratio", "ratio"),
    ("core.influence_ms", "ms"),
    ("core.influence_hit_ratio", "ratio"),
    ("gnn.trace_ms", "ms"),
    ("core.predict_all_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.summarize_ms", "ms"),
    ("core.explain_node_ms", "ms"),
    ("core.parallel_speedup.mut", "ratio"),
    ("core.parallel_speedup.red", "ratio"),
    ("ingest.apply_ms", "ms"),
    ("ingest.publish_ms", "ms"),
    ("ingest.patched_ratio", "ratio"),
    ("serve.state_from_parts_ms", "ms"),
    ("serve.invalidated_per_epoch", "count"),
    ("ingest.dirty_classes_per_epoch", "count"),
    ("loadgen.late_ms", "ms"),
    ("requests.sent", "count"),
    ("requests.ok", "count"),
    ("requests.failed", "count"),
    ("requests.busy", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Span medians that become per-layer metrics: `(metric, span, scale)`.
const SPAN_MEDIANS: [(&str, &str, f64); 17] = [
    ("store.build_ms", "store.build", 1.0),
    ("store.open_ms", "store.open", 1.0),
    ("serve.state_open_ms", "serve.state_open", 1.0),
    ("core.mine_views_ms", "core.mine_views", 1.0),
    ("serve.decode_us", "serve.decode", 1e3),
    ("serve.cache_lookup_us", "serve.cache_lookup", 1e3),
    ("serve.encode_us", "serve.encode", 1e3),
    ("serve.answer_explain_ms", "serve.answer_explain", 1.0),
    ("serve.answer_node_ms", "serve.answer_node", 1.0),
    ("core.influence_ms", "core.influence", 1.0),
    ("gnn.trace_ms", "gnn.trace", 1.0),
    ("core.predict_all_ms", "core.predict_all", 1.0),
    ("core.select_ms", "core.select", 1.0),
    ("core.summarize_ms", "core.summarize", 1.0),
    ("core.explain_node_ms", "core.explain_node", 1.0),
    ("ingest.apply_ms", "ingest.apply", 1.0),
    ("ingest.publish_ms", "ingest.publish", 1.0),
];

/// Metrics measured outside the span medians.
type Extra = BTreeMap<&'static str, f64>;

/// The parts of a traced run. Each workload traces its own part; the
/// layer sweep then traces, briefly, every other part that measures a
/// layer the workload does not reach.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    ServeHit,
    ServeMiss,
    Ingest,
    Batch,
}

impl Part {
    fn of(workload: &str) -> Self {
        match workload {
            "serve-hit" => Part::ServeHit,
            "serve-miss" => Part::ServeMiss,
            "ingest-mixed" => Part::Ingest,
            _ => Part::Batch,
        }
    }

    /// Metrics only this part (among the sweep's parts) measures.
    fn fills(self) -> &'static [&'static str] {
        match self {
            Part::ServeHit => &[],
            Part::ServeMiss => &[
                "store.build_ms",
                "serve.wire_queue_us",
                "serve.answer_explain_ms",
                "serve.answer_node_ms",
                "core.explain_node_ms",
            ],
            Part::Ingest => &["ingest.apply_ms", "ingest.publish_ms", "serve.state_from_parts_ms"],
            Part::Batch => &["core.parallel_speedup.mut", "core.parallel_speedup.red"],
        }
    }

    fn trace(
        self,
        seed: u64,
        secs: f64,
        t: &Tracer,
        extra: &mut Extra,
        report: &mut Report,
    ) -> Result<(), String> {
        match self {
            Part::ServeHit => trace_serve(false, seed, secs, t, extra, report),
            Part::ServeMiss => trace_serve(true, seed, secs, t, extra, report),
            Part::Ingest => trace_ingest(seed, secs, t, extra, report),
            Part::Batch => trace_batch(seed, t, extra, report),
        }
    }
}

/// `--seconds` the layer sweep gives each part it runs.
const SWEEP_SECS: f64 = 2.0;

/// Adds the span-median metrics of `t` that `extra` does not hold yet.
fn span_medians(t: &Tracer, extra: &mut Extra) {
    for (name, span, scale) in SPAN_MEDIANS {
        let d = t.durations_ms(span);
        if !d.is_empty() {
            extra.entry(name).or_insert(median(&d) * scale);
        }
    }
}

fn write_trace(t: &Tracer, file: &str, report: &mut Report) -> Result<(), String> {
    let dir = inputs::work_dir().join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    t.write_chrome(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    report.line(format!("{} spans written to {}", t.spans().len(), path.display()));
    Ok(())
}

pub fn run(workload: &str, seed: u64, secs: f64, report: &mut Report) -> Result<(), String> {
    let own = Part::of(workload);
    let t = Tracer::new(true);
    let mut extra = Extra::new();
    own.trace(seed, secs, &t, &mut extra, report)?;
    span_medians(&t, &mut extra);
    write_trace(&t, &format!("{workload}-seed{seed}.json"), report)?;

    // the layer sweep: layers this workload does not reach, measured on
    // the same inputs so that every per-layer metric is a measurement
    let sweep = Tracer::new(true);
    let mut swept = Extra::new();
    let mut quiet = Report::new(workload);
    for part in [Part::ServeMiss, Part::Ingest, Part::Batch] {
        if part != own && part.fills().iter().any(|m| !extra.contains_key(m)) {
            part.trace(seed, SWEEP_SECS, &sweep, &mut swept, &mut quiet)?;
        }
    }
    if !quiet.correct {
        report.mismatch(1);
    }
    span_medians(&sweep, &mut swept);
    let mut from_sweep = Vec::new();
    for (name, v) in swept {
        if !extra.contains_key(name) {
            extra.insert(name, v);
            from_sweep.push(name);
        }
    }
    if !from_sweep.is_empty() {
        write_trace(&sweep, &format!("{workload}-seed{seed}-sweep.json"), report)?;
        report.line(format!("from the layer sweep: {}", from_sweep.join(" ")));
    }
    for (name, unit) in PER_LAYER {
        report.metric(name, extra.get(name).copied().unwrap_or(0.0), unit);
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Wall-clock seconds of `f`.
fn wall(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Set-up with spans, then a live open-loop phase whose request outcomes
/// and generator lateness become the `requests.*` and `loadgen.late_ms`
/// metrics.
fn live_phase(
    d: &mut Daemon,
    lanes: &[serve::Lane<'_>],
    checks: &[Check<'_>],
    poll: bool,
    extra: &mut Extra,
    report: &mut Report,
) -> Result<(), String> {
    let before = d.server.cache_stats();
    let limits = Limits { give_up: Duration::from_secs(10), grace: Duration::from_secs(10), poll };
    let phase = serve::run_lanes(&mut d.conns, lanes, checks, limits)?;
    let after = d.server.cache_stats();
    let lookups = (after.hits + after.misses - before.hits - before.misses) as f64;
    if let Some(r) = ratio((after.hits - before.hits) as f64, lookups) {
        extra.insert("serve.cache_hit_ratio", r);
    }
    report.phase("live", &phase.tally, Summary::of(&phase.latencies()), &phase.lateness());
    extra.insert("requests.sent", phase.tally.sent as f64);
    extra.insert("requests.ok", phase.tally.ok as f64);
    extra.insert("requests.failed", phase.tally.failed as f64);
    extra.insert("requests.busy", phase.tally.busy as f64);
    if let Some(late) = windowed(&phase.lateness(), WINDOW) {
        extra.insert("loadgen.late_ms", late.tail);
    }
    Ok(())
}

/// Pool and influence-memo observations from a replay's counters.
fn pool_ratios(t: &Tracer, extra: &mut Extra) {
    if let Some(r) = ratio(t.counter("core.pool.warm"), t.counter("core.pool.checkouts")) {
        extra.insert("core.pool.warm_ratio", r);
    }
    let hits = t.counter("core.influence_hits");
    if let Some(r) = ratio(hits, hits + t.counter("core.influence_misses")) {
        extra.insert("core.influence_hit_ratio", r);
    }
}

fn trace_serve(
    miss: bool,
    seed: u64,
    secs: f64,
    t: &Tracer,
    extra: &mut Extra,
    report: &mut Report,
) -> Result<(), String> {
    let inp = Inputs::new()?;
    let templates = inputs::hit_templates(&inp.db, seed);
    let hits = HitSource { templates: &templates, mix: HitMix::new(templates.len(), seed) };
    let misses = MissMix::new(&inp.db, seed, serve::MISS_CLASS_EVERY);
    let warm_req = serve::miss_warm_request();
    let warm = if miss { Warm::PerWorker(&warm_req) } else { Warm::Requests(&templates) };
    let (mut d, setups) = serve::setup(&inp, &warm, t)?;
    report.line(format!("traced set-up {:.4} s", setups[0]));
    let (src, rate): (&dyn Source, f64) =
        if miss { (&misses, serve::MISS_NOMINAL) } else { (&hits, serve::HIT_NOMINAL) };
    let expected = if miss {
        Vec::new()
    } else {
        let reference = ServeState::open(&d.store).map_err(|e| format!("reference state: {e}"))?;
        serve::expected_frames(&reference, &templates)
    };
    let check = if miss {
        Check::Sample { every: usize::MAX }
    } else {
        Check::Frames { expected: &expected, mix: &hits.mix }
    };

    let n_live = (rate * 0.3 * secs) as usize;
    let lanes = serve::open_lanes(src, 0, n_live, rate);
    live_phase(&mut d, &lanes, &[check; WORKERS], !miss, extra, report)?;

    // the same requests one at a time over the wire, then replayed in
    // process: the difference of the medians is the wire and queue cost
    // (on the miss path: two class-explain periods, so the class explains
    // are replayed beside the node explains)
    let (first, n) = if miss {
        (n_live.next_multiple_of(serve::MISS_CLASS_EVERY), 2 * serve::MISS_CLASS_EVERY)
    } else {
        (n_live, 400)
    };
    let reqs: Vec<Request> = (first..first + n).map(|g| src.request(g)).collect();
    for (i, req) in reqs.iter().enumerate() {
        let t0 = Instant::now();
        let resp = d.conns[0].call(req).map_err(|e| format!("wire call: {e}"))?;
        t.record("serve.wire_call", (first + i) as u64, t0, Instant::now());
        if !resp.ok {
            report.mismatch(1);
        }
    }
    let store = d.store.clone();
    let replay = |tr: &Tracer| -> Result<f64, String> {
        let state = ServeState::open(&store).map_err(|e| format!("replay state: {e}"))?;
        let defaults = ServerConfig::default();
        let cache = AnswerCache::new(defaults.cache_shards, defaults.cache_capacity);
        if !miss {
            replay_requests(&state, &cache, &templates, 0, &Tracer::new(false));
        }
        Ok(wall(|| {
            replay_requests(&state, &cache, &reqs, first as u64, tr);
        }))
    };
    let untraced = replay(&Tracer::new(false))?;
    let traced = replay(t)?;
    d.stop();
    extra.insert("bench.trace_overhead_ratio", traced / untraced);
    let wire = t.durations_ms("serve.wire_call");
    let local = t.durations_ms("serve.request");
    if !wire.is_empty() && !local.is_empty() {
        extra.insert("serve.wire_queue_us", (median(&wire) - median(&local)) * 1e3);
    }
    if let Some(b) = ratio(t.counter("serve.body_bytes"), t.counter("serve.replies")) {
        extra.insert("serve.body_bytes", b);
    }
    pool_ratios(t, extra);
    Ok(())
}

fn trace_ingest(
    seed: u64,
    secs: f64,
    t: &Tracer,
    extra: &mut Extra,
    report: &mut Report,
) -> Result<(), String> {
    let inp = Inputs::new()?;
    let templates = inputs::hit_templates(&inp.db, seed);
    let mut warm = templates.clone();
    warm.push(inputs::engine_start_request());
    let (mut d, setups) = serve::setup(&inp, &Warm::Requests(&warm), t)?;
    report.line(format!("traced set-up {:.4} s", setups[0]));
    let k = serve::INGEST_COMMIT_EVERY;
    let live_secs = 0.3 * secs;
    let n_writes = ((serve::INGEST_WRITES * live_secs) as usize / k).max(1) * k;
    let replay_writes = 6 * k;
    let muts =
        gvex_ingest::generate(&inp.db, n_writes + replay_writes, seed, GenProfile::Localized);
    let writes = serve::MutationSource { muts: &muts };
    let reads = HitSource { templates: &templates, mix: HitMix::new(templates.len(), seed) };
    let n_reads = (serve::INGEST_READS * live_secs) as usize;
    let lanes = [
        serve::one_lane(&writes, 0, n_writes, serve::INGEST_WRITES),
        serve::one_lane(&reads, 0, n_reads, serve::INGEST_READS),
    ];
    live_phase(&mut d, &lanes, &[Check::Generations, Check::Generations], false, extra, report)?;
    let store = d.store.clone();

    // in process: the daemon's mutate path (apply, publish, re-materialize,
    // invalidate) over the next mutations, with reads between them
    let reads_per_write = (serve::INGEST_READS / serve::INGEST_WRITES) as usize / 5;
    let replay = |tr: &Tracer| -> Result<(f64, IngestEngine), String> {
        let mut state = ServeState::open(&store).map_err(|e| format!("replay state: {e}"))?;
        let defaults = ServerConfig::default();
        let cache = AnswerCache::new(defaults.cache_shards, defaults.cache_capacity);
        replay_requests(&state, &cache, &templates, 0, &Tracer::new(false));
        let mut engine = IngestEngine::new(
            state.dataset(),
            0,
            state.db().clone(),
            state.model().clone(),
            serve::cfg(),
            state.views().clone(),
            0,
        )
        .map_err(|e| format!("replay engine: {e}"))?;
        let mut next_read = n_reads;
        let secs = wall(|| {
            for (i, m) in muts[n_writes..].iter().enumerate() {
                let op = m.parse().expect("generated mutations parse");
                tr.span("ingest.apply", i as u64, || engine.apply(&op))
                    .expect("generated mutations apply in order");
                if (i + 1) % k == 0 {
                    let summary = tr.span("ingest.publish", i as u64, || engine.publish_epoch());
                    let next = tr.span("serve.state_from_parts", i as u64, || {
                        ServeState::from_parts(
                            state.dataset(),
                            engine.db().clone(),
                            engine.model().clone(),
                            engine.views_set(),
                        )
                    });
                    let gone = tr.span("serve.cache_invalidate", i as u64, || {
                        summary
                            .dirty_classes
                            .iter()
                            .map(|&c| cache.invalidate(state.fingerprint(), c))
                            .sum::<usize>()
                    });
                    tr.count("epochs", 1.0);
                    tr.count("invalidated", gone as f64);
                    tr.count("dirty_classes", summary.dirty_classes.len() as f64);
                    state = next;
                }
                let batch: Vec<Request> =
                    (next_read..next_read + reads_per_write).map(|g| reads.request(g)).collect();
                replay_requests(&state, &cache, &batch, next_read as u64, tr);
                next_read += reads_per_write;
            }
        });
        Ok((secs, engine))
    };
    let (untraced, _) = replay(&Tracer::new(false))?;
    let (traced, engine) = replay(t)?;
    d.stop();
    extra.insert("bench.trace_overhead_ratio", traced / untraced);
    let stats = engine.stats();
    if let Some(r) =
        ratio(stats.views_patched as f64, (stats.views_patched + stats.views_recomputed) as f64)
    {
        extra.insert("ingest.patched_ratio", r);
    }
    let epochs = t.counter("epochs");
    if let Some(r) = ratio(t.counter("invalidated"), epochs) {
        extra.insert("serve.invalidated_per_epoch", r);
    }
    if let Some(r) = ratio(t.counter("dirty_classes"), epochs) {
        extra.insert("ingest.dirty_classes_per_epoch", r);
    }
    let from_parts = t.durations_ms("serve.state_from_parts");
    if !from_parts.is_empty() {
        extra.insert("serve.state_from_parts_ms", median(&from_parts));
    }
    if let Some(b) = ratio(t.counter("serve.body_bytes"), t.counter("serve.replies")) {
        extra.insert("serve.body_bytes", b);
    }
    pool_ratios(t, extra);
    Ok(())
}

fn trace_batch(
    seed: u64,
    t: &Tracer,
    extra: &mut Extra,
    report: &mut Report,
) -> Result<(), String> {
    let (parts, _) = t.span("store.open_input", 0, || batch::load_corpus(seed, 1))?;
    let mut sink = Vec::new();
    let mut totals = vec![Totals::default(); parts.len()];
    let untraced = wall(|| {
        batch::round(&parts, &mut totals, &mut sink, &Tracer::new(false));
    });
    let mut totals = vec![Totals::default(); parts.len()];
    let mut same = true;
    let traced = wall(|| same = batch::round(&parts, &mut totals, &mut sink, t));
    let graphs: usize = totals.iter().map(|x| x.graphs).sum();
    report.attempted(graphs as u64 * 4);
    extra.insert("bench.trace_overhead_ratio", traced / untraced);
    report.mismatch(u64::from(!same));
    for (p, x) in parts.iter().zip(&totals) {
        let name = match p.name {
            "MUT" => "core.parallel_speedup.mut",
            _ => "core.parallel_speedup.red",
        };
        extra.insert(name, x.par1_s / x.par2_s);
    }
    Ok(())
}
