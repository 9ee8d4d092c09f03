//! The GVEX benchmark: one command per workload, run from the repository
//! root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-hit --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It prints one line per measured phase, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones from a traced in-process replay, whose spans are also
//! written as a chrome://tracing file. The exit code is 0 only when every
//! output check passed. See README.md for the workloads and metrics.

mod batch;
mod inputs;
mod loadgen;
mod replay;
mod serve;
mod stats;
mod trace;
mod traced;

use gvex_datasets::DatasetKind;
use stats::Summary;
use std::fmt::Write as _;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["serve-hit", "serve-miss", "ingest-mixed", "batch-explain"];

/// Request outcomes of one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Failed or unanswered (busy and mismatched replies are counted
    /// separately and also here when they are failures).
    pub failed: u64,
    pub busy: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.busy += o.busy;
        self.mismatched += o.mismatched;
    }
}

/// Everything a run prints.
pub struct Report {
    workload: String,
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    lines: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.line(format!("{name} {value:.6} {unit}"));
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` wrong outputs as failed operations.
    pub fn mismatch(&mut self, n: u64) {
        if n > 0 {
            self.correct = false;
            self.failed += n;
        }
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setups(&mut self, times: &[f64]) {
        let list: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
        self.line(format!("set-ups (s): {}", list.join(" ")));
        self.metric("setup_s", stats::median(times), "s");
    }

    /// Accounts one phase's requests and prints its line.
    pub fn phase(&mut self, name: &str, t: &Tally, lat: Option<Summary>, late_ms: &[f64]) {
        self.attempted += t.sent;
        self.failed += t.failed + t.busy;
        if t.mismatched > 0 {
            self.correct = false;
        }
        let mut s = format!(
            "{name}: sent {} ok {} failed {} busy {} mismatched {}",
            t.sent, t.ok, t.failed, t.busy, t.mismatched
        );
        if let Some(l) = lat {
            write!(
                s,
                "; latency p50 {:.3} ms, p{} {:.3} ms (n={})",
                l.p50, l.tail_pct, l.tail, l.n
            )
            .expect("writing to String cannot fail");
        }
        if let Some(late) = Summary::of(late_ms) {
            write!(s, "; generator late p50 {:.3} ms, max {:.3} ms", late.p50, late.max)
                .expect("writing to String cannot fail");
        }
        self.line(s);
    }

    /// The nominal-rate phase: its latency is the workload's latency.
    pub fn nominal(
        &mut self,
        rate: f64,
        t: &Tally,
        lat_ms: &[f64],
        late_ms: &[f64],
        window: usize,
    ) {
        let lat = Summary::of(lat_ms);
        self.phase(&format!("nominal {rate} req/s"), t, lat, late_ms);
        let failed_frac = (t.failed + t.busy) as f64 / t.sent.max(1) as f64;
        self.line(format!("failed_frac {failed_frac:.6} ratio"));
        if lat.is_none() {
            self.mismatch(1);
        }
        self.latency(lat_ms, window, &format!("reads at {rate} req/s"));
    }

    /// `latency_p50_ms` and `latency_tail_ms` as medians over windows of
    /// `window` samples (in send order). They are printed, not gated: on
    /// the machine the benchmark was sized on, the hit latencies moved
    /// with the host's load by more than the largest bound allowed.
    pub fn latency(&mut self, samples: &[f64], window: usize, what: &str) {
        let Some(w) = stats::windowed(samples, window) else {
            return;
        };
        self.line(format!(
            "latency over {} samples of {what}: medians over {} window(s) of {} of each \
             window's p50 and p{}",
            samples.len(),
            w.windows,
            samples.len() / w.windows,
            w.pct
        ));
        self.line(format!("latency_p50_ms {:.6} ms", w.p50));
        self.line(format!("latency_tail_ms {:.6} ms", w.tail));
    }

    pub fn hit_share(&mut self, hits: u64, misses: u64) {
        let share = hits as f64 / (hits + misses).max(1) as f64;
        self.line(format!("answer-cache hit share {share:.4} ({hits} hits, {misses} misses)"));
    }

    /// `throughput_per_s`, also printed under the workload's own name.
    pub fn throughput(&mut self, value: f64, name: &str, unit: &str) {
        self.line(format!("{name} {value:.3} {unit}"));
        self.metric("throughput_per_s", value, "1/s");
    }

    pub fn freshness(&mut self, seen_ms: &[f64], published: usize, writes: usize) {
        match Summary::of(seen_ms) {
            Some(f) => {
                self.line(format!(
                    "freshness_p50_ms {:.3} ms; freshness_tail_ms {:.3} ms (p{}, {} of {writes} \
                     mutations seen fresh, {published} published)",
                    f.p50, f.tail, f.tail_pct, f.n
                ));
            }
            None => self.line(format!("freshness: none of {writes} mutations seen fresh")),
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?} or all"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Pins the program's runtime settings for this process: none of the
/// caller's `GVEX_*` variables apply, and the daemon workloads run each
/// request on one thread (two workers on a two-core machine; the cost of
/// parallelism inside one explain is what batch-explain measures).
fn pin_environment(workload: &str) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GVEX_") {
            std::env::remove_var(key);
        }
    }
    if workload != "batch-explain" {
        std::env::set_var("GVEX_THREADS", "1");
    }
}

fn run(workload: &str, seed: u64, secs: f64, trace: bool) -> Result<Report, String> {
    pin_environment(workload);
    let mut report = Report::new(workload);
    if trace {
        traced::run(workload, seed, secs, &mut report)?;
    } else {
        match workload {
            "serve-hit" => serve::serve(false, seed, secs, &mut report)?,
            "serve-miss" => serve::serve(true, seed, secs, &mut report)?,
            "ingest-mixed" => serve::ingest_mixed(seed, secs, &mut report)?,
            "batch-explain" => batch::batch_explain(seed, secs, &mut report)?,
            _ => unreachable!("workload validated by parse_args"),
        }
    }
    if let Some((name, ..)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(report)
}

/// Runs every workload, each in its own process so memory and caches do
/// not carry over, and prints their lines and one combined JSON object.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all = Report::new("all");
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            all.correct = false;
        }
        let last = text.lines().last().unwrap_or_default();
        all.attempted += json_count(last, "attempted").unwrap_or(0);
        all.failed += json_count(last, "failed").unwrap_or(0);
    }
    Ok(all)
}

/// The whole-number field `key` of a result line.
fn json_count(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("prepare") {
        // child-process entry: prepare <dataset> <dataset seed>
        let kind = argv.get(1).and_then(|s| DatasetKind::from_short_name(s));
        let seed = argv.get(2).and_then(|s| s.parse().ok());
        let (Some(kind), Some(seed)) = (kind, seed) else {
            eprintln!("usage: prepare <MUT|RED> <dataset seed>");
            return ExitCode::from(2);
        };
        return match inputs::prepare_into_cache(kind, seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("prepare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run(&args.workload, args.seed, args.seconds, args.trace)
    };
    match result {
        Ok(report) => {
            println!(
                "# workload {} seed {} dataset seed {} seconds {}",
                report.workload,
                args.seed,
                inputs::DATASET_SEED,
                args.seconds
            );
            for l in &report.lines {
                println!("{l}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
