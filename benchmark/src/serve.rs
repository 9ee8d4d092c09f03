//! The daemon workloads: `serve-hit`, `serve-miss` and `ingest-mixed`.
//!
//! Each starts an in-process `gvex_serve::Server` with two workers over a
//! `.gvex` store built from the cached MUT dataset, opens one connection
//! per worker, and drives it with the open-loop generator in
//! [`crate::loadgen`]. The daemon serves each connection on one worker
//! until the connection closes, so the benchmark uses exactly as many
//! connections as workers and never leaves one idle: it does not exercise
//! (and says nothing about) the daemon's behaviour with idle clients.

use crate::inputs::{self, HitMix, MissMix, STORE_UPPER};
use crate::loadgen::{run_closed, run_phase, Closed, Conn, Limits, PhaseResult};
use crate::replay;
use crate::stats::{fixed_rate, freshness_ms, PerSecond, Timing};
use crate::trace::Tracer;
use crate::{Report, Tally};
use gvex_core::{explain_database, Configuration};
use gvex_datasets::DatasetKind;
use gvex_gnn::GcnModel;
use gvex_graph::GraphDatabase;
use gvex_ingest::{check_equivalent, rebuild_views, GenProfile, IngestEngine, Mutation};
use gvex_serve::{answer, Request, Response, ServeState, Server, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Daemon workers, load threads and connections: one each per core of the
/// two-core machine the benchmark was sized on.
pub const WORKERS: usize = 2;

/// Set-ups per untraced run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

/// Shares of `--seconds` the serve workloads spend warming up at the
/// nominal rate (not reported), at the nominal rate, and saturated.
const WARM_SHARE: f64 = 0.1;
const NOMINAL_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.4;

/// serve-hit: nominal rate (requests/s), requests per tail window, and
/// requests kept outstanding per connection when saturated.
pub const HIT_NOMINAL: f64 = 8000.0;
const HIT_WINDOW: usize = 1000;
const HIT_DEPTH: usize = 4;

/// serve-miss: one class explain in every `MISS_CLASS_EVERY` requests;
/// the nominal phase is one tail window, so its tail averages over every
/// class explain in it.
pub const MISS_CLASS_EVERY: usize = 120;
pub const MISS_NOMINAL: f64 = 60.0;
const MISS_DEPTH: usize = 2;
/// Every `MISS_SAMPLE`-th miss reply is checked against the reference.
const MISS_SAMPLE: usize = 16;

/// ingest-mixed: read rate, mutation rate, mutations per commit, shares
/// of `--seconds` at the nominal rates and writing back to back, and the
/// most mutations the back-to-back phase may use.
pub const INGEST_READS: f64 = 2000.0;
pub const INGEST_WRITES: f64 = 0.5;
pub const INGEST_COMMIT_EVERY: usize = 3;
const INGEST_NOMINAL_SHARE: f64 = 0.7;
const INGEST_CAPACITY_SHARE: f64 = 0.3;
const INGEST_CAPACITY_MAX: usize = 4000;
/// Reads per tail window: one epoch's worth, so every window holds the
/// cache refills that follow one epoch.
const INGEST_WINDOW: usize = INGEST_COMMIT_EVERY * (INGEST_READS / INGEST_WRITES) as usize;
/// Mutations the writer keeps outstanding when writing back to back.
const INGEST_DEPTH: usize = 4;

pub fn cfg() -> Configuration {
    gvex_bench::harness::gvex_config(STORE_UPPER)
}

/// A running daemon with one open connection per worker. Fields drop in
/// order: the connections close before the server shuts down, because a
/// worker serves its connection until the peer hangs up.
pub struct Daemon {
    pub conns: Vec<Conn>,
    pub server: Server,
    pub store: PathBuf,
}

impl Daemon {
    pub fn stop(self) {
        let Daemon { conns, mut server, store } = self;
        drop(conns);
        server.shutdown();
        let _ = std::fs::remove_file(store);
    }
}

/// The cached MUT dataset and model, and a scratch directory for this
/// run's store files.
pub struct Inputs {
    pub cache: PathBuf,
    pub db: GraphDatabase,
    pub model: GcnModel,
    pub dir: PathBuf,
}

impl Inputs {
    pub fn new() -> Result<Self, String> {
        let cache = inputs::ensure_cached(DatasetKind::Mutagenicity)?;
        let (db, model) = inputs::load_cached(&cache)?;
        let dir = inputs::work_dir().join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self { cache, db, model, dir })
    }
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How a workload warms a fresh daemon before timing.
pub enum Warm<'a> {
    /// Send each request once: the answer cache holds them afterwards.
    Requests(&'a [Request]),
    /// Send one request on every connection at once, so each worker
    /// checks out and warms its own session caches.
    PerWorker(&'a Request),
}

/// One set-up: from the cached dataset and model on disk to a warmed
/// daemon whose connections can issue the first timed request.
pub fn start(inp: &Inputs, tag: usize, warm: &Warm<'_>, t: &Tracer) -> Result<Daemon, String> {
    let (db, model) = t.span("store.open_input", 0, || inputs::load_cached(&inp.cache))?;
    let labels: Vec<usize> = (0..db.num_classes()).collect();
    let views = t.span("core.mine_views", 0, || {
        if t.enabled() {
            replay::explain_traced(&model, &db, &labels, &cfg(), t)
        } else {
            explain_database(&model, &db, &labels, &cfg(), 1)
        }
    });
    let json = views.to_json();
    let store = inp.dir.join(format!("serve-{tag}.gvex"));
    t.span("store.build", 0, || {
        inputs::write_store_file(&store, &db, &model, Some(&json), "MUT", inputs::DATASET_SEED)
    })?;
    drop((db, model, views, json));
    if t.enabled() {
        t.span("store.open", 0, || gvex_store::Store::open(&store).map(drop))
            .map_err(|e| format!("open store: {e}"))?;
    }
    let state = t
        .span("serve.state_open", 0, || ServeState::open(&store))
        .map_err(|e| format!("open serving state: {e}"))?;
    let server_cfg = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let server = t
        .span("serve.bind", 0, || Server::bind(state, "127.0.0.1:0", server_cfg))
        .map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::with_capacity(WORKERS);
    for _ in 0..WORKERS {
        conns.push(Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let mut daemon = Daemon { conns, server, store };
    t.span("serve.warm", 0, || warm_up(&mut daemon, warm))?;
    Ok(daemon)
}

fn warm_up(d: &mut Daemon, warm: &Warm<'_>) -> Result<(), String> {
    let check = |r: std::io::Result<Response>| match r {
        Ok(resp) if resp.ok => Ok(()),
        Ok(resp) => Err(format!("warm-up request failed: {}", resp.error)),
        Err(e) => Err(format!("warm-up request failed: {e}")),
    };
    match warm {
        Warm::Requests(reqs) => {
            for (i, req) in reqs.iter().enumerate() {
                check(d.conns[i % WORKERS].call(req))?;
            }
        }
        Warm::PerWorker(req) => {
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> =
                    d.conns.iter_mut().map(|c| s.spawn(move || c.call(req))).collect();
                handles.into_iter().map(|h| h.join().expect("warm-up thread panicked")).collect()
            });
            for r in results {
                check(r)?;
            }
        }
    }
    Ok(())
}

/// Sets up `SETUPS` times (once when tracing) and keeps the last daemon.
/// Returns it with every set-up time in seconds.
pub fn setup(inp: &Inputs, warm: &Warm<'_>, t: &Tracer) -> Result<(Daemon, Vec<f64>), String> {
    let rounds = if t.enabled() { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(rounds);
    let mut last: Option<Daemon> = None;
    for k in 0..rounds {
        if let Some(d) = last.take() {
            d.stop();
        }
        let t0 = Instant::now();
        last = Some(start(inp, k, warm, t)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Peak resident memory of this process (daemon and load generator), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A workload's request sequence: request `gid` of a run, on demand.
pub trait Source: Sync {
    fn request(&self, gid: usize) -> Request;
}

/// serve-hit: the templates drawn by the Zipf mix.
pub struct HitSource<'a> {
    pub templates: &'a [Request],
    pub mix: HitMix,
}

impl Source for HitSource<'_> {
    fn request(&self, gid: usize) -> Request {
        self.templates[self.mix.at(gid)].clone()
    }
}

impl Source for MissMix {
    fn request(&self, gid: usize) -> Request {
        self.at(gid)
    }
}

/// How replies are checked.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Byte-compare against the expected reply frame of the request's
    /// template (`(cached, uncached)` encodings).
    Frames { expected: &'a [(Vec<u8>, Vec<u8>)], mix: &'a HitMix },
    /// Decode every reply; keep every `every`-th for a later reference check.
    Sample { every: usize },
    /// Decode every reply and record its generation.
    Generations,
}

/// `(request, arrival, generation, published)` of decoded successful
/// replies.
type Generations = Vec<(usize, Instant, u64, bool)>;

/// Replies kept for a later check: `(global id, payload)`.
type Kept = Vec<(usize, Vec<u8>)>;

/// Per-connection reply bookkeeping. The connection's `i`-th request has
/// global id `base + i * stride`.
struct Collector<'a> {
    check: Check<'a>,
    base: usize,
    stride: usize,
    tally: Tally,
    kept: Kept,
    gens: Generations,
}

impl<'a> Collector<'a> {
    fn new(check: Check<'a>, base: usize, stride: usize) -> Self {
        Self { check, base, stride, tally: Tally::default(), kept: Vec::new(), gens: Vec::new() }
    }

    fn reply(&mut self, local: usize, payload: &[u8], at: Instant) {
        let gid = self.base + local * self.stride;
        match self.check {
            Check::Frames { expected, mix } => {
                let (hit, miss) = &expected[mix.at(gid)];
                if payload == hit.as_slice() || payload == miss.as_slice() {
                    self.tally.ok += 1;
                } else {
                    self.classify_bad(payload);
                }
            }
            Check::Sample { every } => {
                if self.decode_ok(payload).is_some() && gid.is_multiple_of(every) {
                    self.kept.push((gid, payload.to_vec()));
                }
            }
            Check::Generations => {
                if let Some(resp) = self.decode_ok(payload) {
                    let published = resp.body.contains("\"published\":true");
                    self.gens.push((local, at, resp.generation, published));
                }
            }
        }
    }

    /// Counts a decoded reply; returns it when it is a success.
    fn decode_ok(&mut self, payload: &[u8]) -> Option<Response> {
        match Response::decode(payload) {
            Ok(resp) if resp.ok => {
                self.tally.ok += 1;
                Some(resp)
            }
            _ => {
                self.classify_bad(payload);
                None
            }
        }
    }

    fn classify_bad(&mut self, payload: &[u8]) {
        match Response::decode(payload) {
            Ok(resp) if !resp.ok && resp.error == "busy" => self.tally.busy += 1,
            Ok(resp) if !resp.ok => self.tally.failed += 1,
            _ => {
                // answered successfully but with the wrong bytes
                self.tally.failed += 1;
                self.tally.mismatched += 1;
            }
        }
    }
}

/// One connection's share of an open-loop phase: the send offsets of the
/// requests of `src` with global ids `base + i * stride`. Frames are
/// encoded as they are sent, so the schedule costs no memory per request.
pub struct Lane<'a> {
    src: &'a dyn Source,
    offsets: Vec<Duration>,
    base: usize,
    stride: usize,
}

/// Requests `first..first + count` of `src` at `rate` in total, dealt
/// round-robin over the connections so the combined schedule is evenly
/// spaced.
pub fn open_lanes(src: &dyn Source, first: usize, count: usize, rate: f64) -> Vec<Lane<'_>> {
    (0..WORKERS)
        .map(|c| {
            let n = (first + c..first + count).step_by(WORKERS).len();
            Lane {
                src,
                offsets: fixed_rate(rate / WORKERS as f64, n, c as f64 / WORKERS as f64),
                base: first + c,
                stride: WORKERS,
            }
        })
        .collect()
}

/// What one open-loop phase over all connections produced.
pub struct Phase {
    timings: Vec<Timing>,
    pub tally: Tally,
    kept: Kept,
    /// Per connection: request timings, decoded generations and tally.
    lanes: Vec<(Vec<Timing>, Generations, Tally)>,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.timings.iter().filter_map(Timing::latency_ms).collect()
    }

    pub fn lateness(&self) -> Vec<f64> {
        self.timings.iter().map(Timing::late_ms).collect()
    }
}

/// Runs lanes concurrently, one load thread per connection, then drains
/// late replies so the connections can be reused.
pub fn run_lanes(
    conns: &mut [Conn],
    lanes: &[Lane<'_>],
    checks: &[Check<'_>],
    limits: Limits,
) -> Result<Phase, String> {
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<(PhaseResult, Collector<'_>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(lanes)
            .zip(checks)
            .map(|((conn, lane), &check)| {
                s.spawn(move || {
                    let mut col = Collector::new(check, lane.base, lane.stride);
                    let mut on = |i: usize, p: &[u8], at: Instant| col.reply(i, p, at);
                    let frame = |i: usize| lane.src.request(lane.base + i * lane.stride).encode();
                    let r = run_phase(conn, start, &lane.offsets, &frame, limits, &mut on);
                    (r, col)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut phase =
        Phase { timings: Vec::new(), tally: Tally::default(), kept: Vec::new(), lanes: Vec::new() };
    for ((r, col), conn) in results.into_iter().zip(conns.iter_mut()) {
        let mut tally = col.tally;
        tally.sent = r.timings.len() as u64;
        // unanswered by the deadline, or never sent because the phase gave up
        tally.failed += r.timings.iter().filter(|t| t.done.is_none()).count() as u64;
        tally.failed += r.unsent as u64;
        if r.broken || !conn.drain(r.pending, Instant::now() + GRACE) {
            return Err("a connection broke or fell out of step".into());
        }
        phase.tally.add(&tally);
        phase.timings.extend_from_slice(&r.timings);
        phase.kept.extend(col.kept);
        phase.lanes.push((r.timings, col.gens, tally));
    }
    phase.timings.sort_by_key(|t| t.due);
    Ok(phase)
}

/// How long after a closed-loop phase ends its outstanding replies may
/// still arrive, and how long late replies of any phase are drained for;
/// requests unanswered by then count as failed.
const GRACE: Duration = Duration::from_secs(10);

/// Accounts one connection's closed-loop phase into `tally` and drains
/// its unanswered requests (counted as failed) so the connection can be
/// reused.
fn close_phase(
    conn: &mut Conn,
    r: std::io::Result<Closed>,
    col: Collector<'_>,
    tally: &mut Tally,
) -> Result<Closed, String> {
    let r = r.map_err(|e| format!("closed-loop phase: {e}"))?;
    let mut t = col.tally;
    t.sent = (r.done + r.pending) as u64;
    t.failed += r.pending as u64;
    tally.add(&t);
    if !conn.drain(r.pending, Instant::now() + GRACE) {
        return Err("a connection broke or fell out of step".into());
    }
    Ok(r)
}

/// Saturation: every connection keeps `depth` requests outstanding for
/// `secs`, using global ids from `first`. Returns the median of the
/// phase's per-second reply counts, its tally, and the replies kept for
/// checking.
fn saturate(
    conns: &mut [Conn],
    src: &dyn Source,
    first: usize,
    depth: usize,
    secs: f64,
    check: Check<'_>,
) -> Result<(f64, Tally, Kept), String> {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut col = Collector::new(check, first + c, WORKERS);
                    let mut per_second = PerSecond::new(start);
                    let mut frame = |i: usize| Some(src.request(first + c + i * WORKERS).encode());
                    let mut on = |i: usize, p: &[u8], at: Instant| {
                        per_second.add(at);
                        col.reply(i, p, at)
                    };
                    let r = run_closed(conn, &mut frame, depth, until, GRACE, &mut on);
                    (r, col, per_second)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut tally = Tally::default();
    let mut kept = Vec::new();
    let mut replies = PerSecond::new(start);
    for ((r, mut col, per_second), conn) in results.into_iter().zip(conns.iter_mut()) {
        kept.append(&mut col.kept);
        close_phase(conn, r, col, &mut tally)?;
        replies.merge(&per_second);
    }
    Ok((replies.median_rate(), tally, kept))
}

/// The reply frames a correct daemon sends for each template: the body a
/// sequential `answer` over a fresh state computes, served from the cache
/// or computed.
pub fn expected_frames(state: &ServeState, templates: &[Request]) -> Vec<(Vec<u8>, Vec<u8>)> {
    templates
        .iter()
        .map(|req| {
            let body = answer(state, req).body;
            let hit =
                Response { ok: true, cached: true, body: body.clone(), ..Response::default() };
            let miss = Response { ok: true, cached: false, body, ..Response::default() };
            (hit.encode(), miss.encode())
        })
        .collect()
}

/// Checks kept replies against a sequential `answer` over a fresh state
/// opened from the same store.
fn check_sampled(
    d: &Daemon,
    src: &dyn Source,
    kept: &[(usize, Vec<u8>)],
    report: &mut Report,
) -> Result<(), String> {
    let reference = ServeState::open(&d.store).map_err(|e| format!("reference state: {e}"))?;
    let bad = kept
        .iter()
        .filter(|(gid, payload)| {
            let got = Response::decode(payload).map(|r| r.body).unwrap_or_default();
            got != answer(&reference, &src.request(*gid)).body
        })
        .count() as u64;
    report.line(format!(
        "checked {} sampled replies against the reference: {bad} differ",
        kept.len()
    ));
    report.mismatch(bad);
    Ok(())
}

/// The serve-miss warm-up: StreamGVEX over every class under a bound no
/// timed request uses, sent on both workers at once.
pub fn miss_warm_request() -> Request {
    Request {
        kind: "explain".into(),
        upper: Some(inputs::MISS_UPPER_BASE - 1),
        stream: true,
        ..Request::default()
    }
}

/// One connection's lane: requests `first..first + count` of `src` at
/// `rate`.
pub fn one_lane(src: &dyn Source, first: usize, count: usize, rate: f64) -> Lane<'_> {
    Lane { src, offsets: fixed_rate(rate, count, 0.0), base: first, stride: 1 }
}

/// `serve-hit` (`miss == false`): the Zipf template mix answered from the
/// warmed cache. `serve-miss`: every request a distinct cache key.
pub fn serve(miss: bool, seed: u64, secs: f64, report: &mut Report) -> Result<(), String> {
    let inp = Inputs::new()?;
    let templates = inputs::hit_templates(&inp.db, seed);
    let hits = HitSource { templates: &templates, mix: HitMix::new(templates.len(), seed) };
    let misses = MissMix::new(&inp.db, seed, MISS_CLASS_EVERY);
    let warm_req = miss_warm_request();
    let warm = if miss { Warm::PerWorker(&warm_req) } else { Warm::Requests(&templates) };
    let (mut d, setups) = setup(&inp, &warm, &Tracer::new(false))?;
    report.setups(&setups);

    let expected = if miss {
        Vec::new()
    } else {
        let reference = ServeState::open(&d.store).map_err(|e| format!("reference state: {e}"))?;
        expected_frames(&reference, &templates)
    };
    let (src, check, nominal, window, depth): (&dyn Source, Check<'_>, f64, usize, usize) = if miss
    {
        (&misses, Check::Sample { every: MISS_SAMPLE }, MISS_NOMINAL, usize::MAX, MISS_DEPTH)
    } else {
        let check = Check::Frames { expected: &expected, mix: &hits.mix };
        (&hits, check, HIT_NOMINAL, HIT_WINDOW, HIT_DEPTH)
    };
    // serve-hit's requests take tens of microseconds; serve-miss holds a
    // worker for up to ~0.4 s per class explain, which a polling load
    // thread would slow
    let limits =
        Limits { give_up: Duration::from_secs(5), grace: Duration::from_secs(10), poll: !miss };
    let checks = [check; WORKERS];
    let mut kept = Vec::new();

    let n_warm = (nominal * WARM_SHARE * secs) as usize;
    let warm_phase =
        run_lanes(&mut d.conns, &open_lanes(src, 0, n_warm, nominal), &checks, limits)?;
    report.phase("warm-up at the nominal rate", &warm_phase.tally, None, &[]);
    kept.extend(warm_phase.kept);

    let n = (nominal * NOMINAL_SHARE * secs) as usize;
    let before = d.server.cache_stats();
    let phase = run_lanes(&mut d.conns, &open_lanes(src, n_warm, n, nominal), &checks, limits)?;
    let after = d.server.cache_stats();
    report.nominal(nominal, &phase.tally, &phase.latencies(), &phase.lateness(), window);
    report.hit_share(after.hits - before.hits, after.misses - before.misses);
    kept.extend(phase.kept);

    let (rate, tally, more) =
        saturate(&mut d.conns, src, n_warm + n, depth, SATURATION_SHARE * secs, check)?;
    report.phase(&format!("saturated, {depth} outstanding per connection"), &tally, None, &[]);
    report.throughput(rate, "saturation_rps", "req/s");
    kept.extend(more);
    if miss {
        check_sampled(&d, src, &kept, report)?;
    }
    d.stop();
    report.metric("rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Pairs each mutation's due time with the generation of the epoch that
/// published it, from the writer's replies (`published` marks a commit).
fn write_generations(
    timings: &[Timing],
    gens: &[(usize, Instant, u64, bool)],
) -> Vec<(Instant, u64)> {
    let mut out = Vec::new();
    let mut waiting: Vec<Instant> = Vec::new();
    let mut replies = gens.iter().peekable();
    for (i, t) in timings.iter().enumerate() {
        waiting.push(t.due);
        while let Some(&&(idx, _, generation, published)) = replies.peek() {
            if idx > i {
                break;
            }
            replies.next();
            if idx == i && published {
                out.extend(waiting.drain(..).map(|due| (due, generation)));
            }
        }
    }
    out
}

/// `ingest-mixed`: one connection streams mutations open-loop and commits
/// every few; the other replays the serve-hit read mix.
pub fn ingest_mixed(seed: u64, secs: f64, report: &mut Report) -> Result<(), String> {
    let inp = Inputs::new()?;
    let templates = inputs::hit_templates(&inp.db, seed);
    let mut warm = templates.clone();
    warm.push(inputs::engine_start_request());
    let (mut d, setups) = setup(&inp, &Warm::Requests(&warm), &Tracer::new(false))?;
    report.setups(&setups);
    let store_views =
        ServeState::open(&d.store).map_err(|e| format!("reference state: {e}"))?.views().clone();

    let k = INGEST_COMMIT_EVERY;
    let nominal_secs = INGEST_NOMINAL_SHARE * secs;
    let n_writes = ((INGEST_WRITES * nominal_secs) as usize / k).max(1) * k;
    let muts =
        gvex_ingest::generate(&inp.db, n_writes + INGEST_CAPACITY_MAX, seed, GenProfile::Localized);
    let writes = MutationSource { muts: &muts };
    let reads = HitSource { templates: &templates, mix: HitMix::new(templates.len(), seed) };
    let limits =
        Limits { give_up: Duration::from_secs(10), grace: Duration::from_secs(10), poll: false };
    let gens = Check::Generations;

    // nominal: writes and reads at fixed rates; reads go on half a second
    // past the last write so its epoch can be seen
    let n_reads = (INGEST_READS * (nominal_secs + 0.5)) as usize;
    let lanes =
        [one_lane(&writes, 0, n_writes, INGEST_WRITES), one_lane(&reads, 0, n_reads, INGEST_READS)];
    let phase = run_lanes(&mut d.conns, &lanes, &[gens, gens], limits)?;
    let (w_timings, w_gens, w_tally) = &phase.lanes[0];
    let (r_timings, r_gens, r_tally) = &phase.lanes[1];
    let late = |t: &[Timing]| t.iter().map(Timing::late_ms).collect::<Vec<_>>();
    report.phase(
        &format!("writes at {INGEST_WRITES}/s, commit every {k}"),
        w_tally,
        None,
        &late(w_timings),
    );
    let read_lat: Vec<f64> = r_timings.iter().filter_map(Timing::latency_ms).collect();
    report.nominal(INGEST_READS, r_tally, &read_lat, &late(r_timings), INGEST_WINDOW);
    let published = write_generations(w_timings, w_gens);
    let read_gens: Vec<(Instant, u64)> = r_gens.iter().map(|&(_, at, g, _)| (at, g)).collect();
    let fresh: Vec<f64> = freshness_ms(&published, &read_gens).into_iter().flatten().collect();
    report.freshness(&fresh, published.len(), n_writes);
    report.line(format!("epochs published: {}", w_gens.iter().filter(|g| g.3).count()));

    // capacity: the writer keeps `INGEST_DEPTH` mutations outstanding,
    // with no reads beside it, so the figure is the ingest path's alone
    let cap_secs = INGEST_CAPACITY_SHARE * secs;
    let start = Instant::now();
    let mut col = Collector::new(gens, n_writes, 1);
    let mut frame =
        |i: usize| muts.get(n_writes + i).map(|_| writes.request(n_writes + i).encode());
    let mut replies = PerSecond::new(start);
    let mut on = |i: usize, p: &[u8], at: Instant| {
        replies.add(at);
        col.reply(i, p, at)
    };
    let until = start + Duration::from_secs_f64(cap_secs);
    let r = run_closed(&mut d.conns[0], &mut frame, INGEST_DEPTH, until, GRACE, &mut on);
    let mut wt = Tally::default();
    let closed = close_phase(&mut d.conns[0], r, col, &mut wt)?;
    let cap_rate = replies.median_rate();
    report.phase("writes back to back", &wt, None, &[]);
    report.throughput(cap_rate, "ingest_capacity", "mutations/s");

    // output check: the daemon's final answers equal a mirror engine fed
    // the same mutations, and the mirror equals a from-scratch rebuild
    // (requests drained after the deadline were applied too)
    let applied = n_writes + closed.done + closed.pending;
    // publish whatever the last commit boundary left pending
    d.conns[0].call(&inputs::engine_start_request()).map_err(|e| format!("final commit: {e}"))?;
    let ok = check_ingest(&inp, store_views, &muts[..applied], &templates, &mut d, report)?;
    report.mismatch(u64::from(!ok));
    d.stop();
    report.metric("rss_mb", peak_rss_mb(), "MB");
    Ok(())
}

/// Mutation `i` of the stream as a mutate request, committing every
/// `INGEST_COMMIT_EVERY`-th.
pub struct MutationSource<'a> {
    pub muts: &'a [Mutation],
}

impl Source for MutationSource<'_> {
    fn request(&self, gid: usize) -> Request {
        inputs::mutate_request(&self.muts[gid], (gid + 1).is_multiple_of(INGEST_COMMIT_EVERY))
    }
}

fn check_ingest(
    inp: &Inputs,
    views: gvex_core::ExplanationViewSet,
    muts: &[Mutation],
    templates: &[Request],
    d: &mut Daemon,
    report: &mut Report,
) -> Result<bool, String> {
    let mut mirror =
        IngestEngine::new("MUT", 0, inp.db.clone(), inp.model.clone(), cfg(), views, 0)
            .map_err(|e| format!("mirror engine: {e}"))?;
    for m in muts {
        let op = m.parse().map_err(|e| format!("generated mutation: {e}"))?;
        mirror.apply(&op).map_err(|e| format!("mirror apply: {e}"))?;
    }
    mirror.publish_epoch();
    let full = rebuild_views(mirror.model(), mirror.db(), mirror.cfg(), 1);
    let eq = check_equivalent(&mirror.views_set(), &full, mirror.cfg());
    let state = ServeState::from_parts(
        "MUT",
        mirror.db().clone(),
        mirror.model().clone(),
        mirror.views_set(),
    );
    let mut differ = 0;
    for req in templates {
        let got = d.conns[0].call(req).map_err(|e| format!("final read: {e}"))?;
        if !got.ok || got.body != answer(&state, req).body {
            differ += 1;
        }
    }
    report.line(format!(
        "{} mutations: incremental views equal a rebuild: {}{}; {differ} of {} final answers \
         differ from the mirror engine's",
        muts.len(),
        eq.ok,
        if eq.ok { String::new() } else { format!(" ({})", eq.detail) },
        templates.len()
    ));
    Ok(eq.ok && differ == 0)
}
