//! `batch-explain`: the paper's offline flow (Fig. 9). No daemon, store
//! reads or wire: ApproxGVEX over the MUT + RED corpus through the
//! parallel driver at two threads and at one, StreamGVEX through the
//! sequential driver, and a one-thread pass that times every graph.

use crate::inputs;
use crate::replay::explain_decomposed;
use crate::serve::cfg;
use crate::stats::{median, medians_by_item};
use crate::trace::Tracer;
use crate::Report;
use gvex_core::{ExplainSession, ExplanationViewSet, GreedyStrategy, StreamStrategy};
use gvex_datasets::DatasetKind;
use gvex_gnn::GcnModel;
use gvex_graph::GraphDatabase;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Corpus loads before the first round. Every later round explains a
/// corpus loaded afresh, so the loads sample the whole run; the reported
/// `setup_s` is the median of all of them.
const SETUPS: usize = 5;

pub const CORPUS: [DatasetKind; 2] = [DatasetKind::Mutagenicity, DatasetKind::RedditBinary];

/// One dataset of the corpus, ready to explain.
pub struct Part {
    pub name: &'static str,
    pub db: GraphDatabase,
    pub model: GcnModel,
    pub labels: Vec<usize>,
}

/// The database with its graphs in a seeded order: the same graphs, but
/// each at another index, so the per-graph random choices the explain
/// configuration derives from the index differ by seed.
fn permuted(db: GraphDatabase, seed: u64) -> GraphDatabase {
    let mut order: Vec<usize> = (0..db.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x4241));
    let mut out = GraphDatabase::new(db.class_names.clone());
    out.node_types = db.node_types.clone();
    out.edge_types = db.edge_types.clone();
    for i in order {
        out.push(db.graph(i).clone(), db.truth()[i]);
    }
    out
}

/// Loads the corpus from the input cache and orders it by `seed`,
/// `rounds` times; returns the last load and every load time in seconds.
pub fn load_corpus(seed: u64, rounds: usize) -> Result<(Vec<Part>, Vec<f64>), String> {
    let paths: Vec<_> =
        CORPUS.iter().map(|&k| inputs::ensure_cached(k)).collect::<Result<_, _>>()?;
    let mut times = Vec::new();
    let mut parts = Vec::new();
    for _ in 0..rounds {
        let t0 = Instant::now();
        parts = CORPUS
            .iter()
            .zip(&paths)
            .map(|(k, p)| {
                let (db, model) = inputs::load_cached(p)?;
                let db = permuted(db, seed);
                let labels = (0..db.num_classes()).collect();
                Ok(Part { name: k.short_name(), db, model, labels })
            })
            .collect::<Result<_, String>>()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((parts, times))
}

fn session(model: &GcnModel) -> ExplainSession<'_> {
    ExplainSession::new(model, cfg()).expect("the benchmark configuration is valid")
}

/// Seconds taken by `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-dataset totals over a run.
#[derive(Default, Clone)]
pub struct Totals {
    pub graphs: usize,
    pub par2_s: f64,
    pub par1_s: f64,
    pub stream_s: f64,
}

/// One round over the corpus: parallel at 2 and 1 threads, the timed
/// one-thread pass, and StreamGVEX, each on a fresh (cold) session.
/// Returns whether every driver produced the same ApproxGVEX views.
pub fn round(
    parts: &[Part],
    totals: &mut [Totals],
    per_graph_ms: &mut Vec<f64>,
    t: &Tracer,
) -> bool {
    let mut same = true;
    for (part, tot) in parts.iter().zip(totals.iter_mut()) {
        let (p2, s2) = timed(|| {
            t.span("core.explain_parallel.2t", 0, || {
                session(&part.model).explain_parallel(&GreedyStrategy, &part.db, &part.labels, 2)
            })
        });
        let (p1, s1) = timed(|| {
            t.span("core.explain_parallel.1t", 0, || {
                session(&part.model).explain_parallel(&GreedyStrategy, &part.db, &part.labels, 1)
            })
        });
        let seq: ExplanationViewSet = one_thread(|| {
            explain_decomposed(&session(&part.model), &part.db, &part.labels, t, per_graph_ms)
        });
        let (_, ss) = timed(|| {
            t.span("core.explain_stream", 0, || {
                session(&part.model).explain(&StreamStrategy, &part.db, &part.labels)
            })
        });
        let json = p2.to_json();
        same &= json == p1.to_json() && json == seq.to_json();
        tot.graphs += part.db.len();
        tot.par2_s += s2;
        tot.par1_s += s1;
        tot.stream_s += ss;
    }
    same
}

/// Runs `f` on a one-thread pool, as the sequential reference.
pub fn one_thread<T>(f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool builds")
        .install(f)
}

pub fn batch_explain(seed: u64, secs: f64, report: &mut Report) -> Result<(), String> {
    let (mut parts, mut setups) = load_corpus(seed, SETUPS)?;
    let t = Tracer::new(false);
    // one warm-up round, checked but not timed: the first round also pays
    // for the process's first page faults and allocator growth
    let mut same = round(&parts, &mut vec![Totals::default(); parts.len()], &mut Vec::new(), &t);
    let mut totals = vec![Totals::default(); parts.len()];
    let mut per_graph = Vec::new();
    let t0 = Instant::now();
    let mut rounds = 0usize;
    // graphs per second of each round at 2 and 1 threads; the figures are
    // their medians
    let (mut rates2, mut rates1) = (Vec::new(), Vec::new());
    let corpus: usize = parts.iter().map(|p| p.db.len()).sum();
    while rounds == 0 || t0.elapsed().as_secs_f64() < secs {
        if rounds > 0 {
            // drop the old corpus first, so peak memory holds one
            parts.clear();
            let (fresh, t) = load_corpus(seed, 1)?;
            parts = fresh;
            setups.extend(t);
        }
        let spent = |totals: &[Totals]| -> (f64, f64) {
            totals.iter().fold((0.0, 0.0), |(a, b), x| (a + x.par2_s, b + x.par1_s))
        };
        let (two, one) = spent(&totals);
        same &= round(&parts, &mut totals, &mut per_graph, &t);
        let (two_after, one_after) = spent(&totals);
        rates2.push(corpus as f64 / (two_after - two));
        rates1.push(corpus as f64 / (one_after - one));
        rounds += 1;
    }
    report.setups(&setups);
    summarize(&parts, &totals, rounds, report);
    report.line(format!("graphs_per_s {:.3} graphs/s (median over rounds)", median(&rates2)));
    // the gated rate is the one-thread one: on a two-vCPU virtual machine
    // the 2-thread driver stalls whenever the host busies either vCPU
    report.throughput(median(&rates1), "graphs_per_s_1t", "graphs/s (median over rounds)");
    let graphs: usize = totals.iter().map(|x| x.graphs).sum();
    report.attempted(graphs as u64 * 4);
    report.line(format!("views identical across drivers and thread counts: {same}"));
    report.mismatch(u64::from(!same));
    // every round explains the same graphs in the same order
    let medians = medians_by_item(&per_graph, per_graph.len() / rounds);
    let what = format!("per-graph medians of one-thread ApproxGVEX explain over {rounds} rounds");
    report.latency(&medians, medians.len(), &what);
    report.metric("rss_mb", crate::serve::peak_rss_mb(), "MB");
    Ok(())
}

/// Throughput lines over all rounds.
fn summarize(parts: &[Part], totals: &[Totals], rounds: usize, report: &mut Report) {
    let graphs: usize = totals.iter().map(|x| x.graphs).sum();
    let sum = |f: fn(&Totals) -> f64| totals.iter().map(f).sum::<f64>();
    report.line(format!("rounds: {rounds} over {} graphs each", graphs / rounds));
    report.line(format!("2-thread {:.3} graphs/s overall", graphs as f64 / sum(|x| x.par2_s)));
    report.line(format!("1-thread {:.3} graphs/s overall", graphs as f64 / sum(|x| x.par1_s)));
    report.line(format!("stream_graphs_per_s {:.3} graphs/s", graphs as f64 / sum(|x| x.stream_s)));
    for (p, x) in parts.iter().zip(totals) {
        report.line(format!(
            "{}: {} graphs, 2-thread {:.3} s, 1-thread {:.3} s, parallel speedup {:.3}",
            p.name,
            x.graphs / rounds,
            x.par2_s / rounds as f64,
            x.par1_s / rounds as f64,
            x.par1_s / x.par2_s
        ));
    }
}
