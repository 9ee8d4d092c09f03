//! Figure 9 — efficiency, scalability, and parallelization:
//!
//! * (a, b) runtime per explainer on MUT and ENZ (paper: GVEX 1–2 orders of
//!   magnitude faster),
//! * (c) GVEX runtime across all seven datasets (competitors absent on MAL),
//! * (d) runtime vs. number of graphs on PCQ (paper: competitors > 24h at
//!   100k graphs, GVEX ≈ 8h; here everything scales down, the *shape* —
//!   near-linear growth, constant-factor gap — is the target),
//! * (e) parallel speedup of ApproxGVEX with 1/2/4/8 threads (paper: ~2×),
//! * (f) StreamGVEX runtime vs. the processed fraction of the node stream
//!   (paper: linear growth in batch size).

use gvex_bench::harness::{fidelity_grid, gvex_config, prepare, roster, timed, write_json};
use gvex_core::{explain_database, StreamGvex};
use gvex_datasets::{DatasetKind, Scale};
use gvex_gnn::GcnModel;
use gvex_graph::GraphDatabase;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize, Default)]
struct Fig9 {
    ab_runtime: Vec<(String, String, f64, bool)>, // (dataset, method, secs, timeout)
    c_runtime_all: Vec<(String, String, f64, bool)>,
    d_scaling: Vec<(usize, f64, f64)>, // (#graphs, AG secs, SG secs)
    e_parallel: Vec<(String, usize, f64)>, // (dataset, threads, secs)
    f_stream_batches: Vec<(f64, f64)>, // (fraction, secs)
}

fn main() {
    let mut out = Fig9::default();
    let uls = [5usize, 10, 15, 20];

    // Each figure section gets its own top-level span so a GVEX_OBS=1 run
    // reports a per-section phase breakdown alongside the printed timings.
    // The previous guard must drop *before* the next `enter`, otherwise the
    // sections would nest instead of forming siblings.
    let section = gvex_obs::span::enter("fig9.ab_grid");

    // (a, b): runtimes from the shared grid at u_l = 10
    let grid_sets = [
        DatasetKind::Mutagenicity,
        DatasetKind::Enzymes,
        DatasetKind::RedditBinary,
        DatasetKind::MalnetTiny,
    ];
    let cells = fidelity_grid(&grid_sets, &uls, Scale::Bench, Duration::from_secs(120));
    println!("\nFigure 9(a,b) — runtime (s) on MUT / ENZ (u_l = 10)\n");
    println!("{:<14} {:>8} {:>8}", "method", "MUT", "ENZ");
    for method in
        ["ApproxGVEX", "StreamGVEX", "GNNExplainer", "SubgraphX", "GStarX", "GCFExplainer"]
    {
        let mut line = format!("{method:<14}");
        for ds in ["MUT", "ENZ"] {
            if let Some(c) =
                cells.iter().find(|c| c.dataset == ds && c.method == method && c.u_l == 10)
            {
                line.push_str(&format!(" {:>8.2}", c.seconds));
                out.ab_runtime.push((ds.into(), method.into(), c.seconds, c.timed_out));
            }
        }
        println!("{line}");
    }

    drop(section);
    let section = gvex_obs::span::enter("fig9.c_all_datasets");

    // (c): all seven datasets; budget marks the paper's ">24h" dropouts
    println!("\nFigure 9(c) — runtime (s) across datasets (u_l = 10)\n");
    let budget = Duration::from_secs(60);
    for kind in DatasetKind::all() {
        let prep = prepare(kind, Scale::Bench, 42);
        for ex in roster(10) {
            // competitors only on the smaller datasets (mirrors the paper's
            // absent bars); GVEX runs everywhere
            let is_gvex = ex.name().contains("GVEX");
            let big = matches!(
                kind,
                DatasetKind::MalnetTiny | DatasetKind::Products | DatasetKind::Synthetic
            );
            if big && !is_gvex {
                continue;
            }
            let cell = gvex_bench::harness::eval_method(&prep, ex.as_ref(), 10, budget);
            println!(
                "{:<6} {:<14} {:>8.2}s{}",
                kind.short_name(),
                cell.method,
                cell.seconds,
                if cell.timed_out { "  TIMEOUT" } else { "" }
            );
            out.c_runtime_all.push((
                kind.short_name().into(),
                cell.method,
                cell.seconds,
                cell.timed_out,
            ));
        }
    }

    drop(section);
    let section = gvex_obs::span::enter("fig9.d_scaling");

    // (d): scaling in #graphs on PCQ-like data
    println!("\nFigure 9(d) — scaling with #graphs (PCQ)\n");
    println!("{:>8} {:>10} {:>10}", "#graphs", "AG (s)", "SG (s)");
    for &n in &[100usize, 200, 400, 800] {
        let db = gvex_datasets::molecules::PcqParams { num_graphs: n }.generate(42);
        let prep = prepare_from(DatasetKind::Pcqm4m, db);
        let labels: Vec<usize> = (0..prep.db.num_classes()).collect();
        let (_, ag_secs) = timed(|| {
            gvex_core::ApproxGvex::new(gvex_config(10)).explain(&prep.model, &prep.db, &labels)
        });
        let (_, sg_secs) =
            timed(|| StreamGvex::new(gvex_config(10)).explain(&prep.model, &prep.db, &labels));
        println!("{n:>8} {ag_secs:>10.2} {sg_secs:>10.2}");
        out.d_scaling.push((n, ag_secs, sg_secs));
    }

    drop(section);
    let section = gvex_obs::span::enter("fig9.e_parallel");

    // (e): parallel speedup on PRO and SYN at a scale where per-graph
    // influence analysis dominates (the paper's big-graph setting; the
    // classifier is trained briefly since only explanation time is
    // measured).
    println!("\nFigure 9(e) — parallel ApproxGVEX (s)\n");
    println!("{:<6} {:>4} {:>10}", "data", "p", "secs");
    let big_pro = gvex_datasets::products::ProductsParams {
        categories: 8,
        community_size: 120,
        samples: 120,
        feature_dim: 16,
    }
    .generate(42);
    let big_syn =
        gvex_datasets::synthetic::SyntheticParams { num_graphs: 16, base_nodes: 1200, motifs: 8 }
            .generate(42);
    for (kind, db) in [(DatasetKind::Products, big_pro), (DatasetKind::Synthetic, big_syn)] {
        let prep = prepare_from_with_epochs(kind, db, 30);
        let labels: Vec<usize> = (0..prep.db.num_classes()).collect();
        for &threads in &[1usize, 2, 4, 8] {
            let (_, secs) = timed(|| {
                explain_database(&prep.model, &prep.db, &labels, &gvex_config(10), threads)
            });
            println!("{:<6} {threads:>4} {secs:>10.2}", kind.short_name());
            out.e_parallel.push((kind.short_name().into(), threads, secs));
        }
    }

    drop(section);
    let section = gvex_obs::span::enter("fig9.f_stream");

    // (f): StreamGVEX vs processed stream fraction on MUT
    println!("\nFigure 9(f) — StreamGVEX runtime vs batch fraction (MUT)\n");
    println!("{:>8} {:>10}", "%stream", "secs");
    let prep = prepare(DatasetKind::Mutagenicity, Scale::Bench, 42);
    let sg = StreamGvex::new(gvex_config(10));
    for &frac in &[0.2_f64, 0.4, 0.6, 0.8, 1.0] {
        let (_, secs) = timed(|| {
            for &gi in &prep.split.test {
                let g = prep.db.graph(gi);
                let upto = ((g.num_nodes() as f64) * frac).ceil() as usize;
                let order: Vec<usize> = (0..upto.min(g.num_nodes())).collect();
                let _ = sg.explain_graph_stream(&prep.model, g, gi, Some(&order));
            }
        });
        println!("{:>7.0}% {secs:>10.3}", frac * 100.0);
        out.f_stream_batches.push((frac, secs));
    }

    drop(section);
    write_json("fig9_efficiency.json", &out);
    // with GVEX_OBS=1: per-section span tree to stderr + OBS_report.json
    gvex_obs::report::emit();
}

/// Wraps an externally generated database in a [`Prepared`](gvex_bench::harness::Prepared) by training the
/// standard classifier on it.
fn prepare_from(kind: DatasetKind, db: GraphDatabase) -> gvex_bench::harness::Prepared {
    prepare_from_with_epochs(kind, db, 150)
}

fn prepare_from_with_epochs(
    kind: DatasetKind,
    db: GraphDatabase,
    epochs: usize,
) -> gvex_bench::harness::Prepared {
    use gvex_gnn::{train, trainer::TrainOptions, GcnConfig, Split};
    let split = Split::paper(&db, 42);
    let cfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden: 16,
        layers: 3,
        num_classes: db.num_classes(),
    };
    let opts = TrainOptions { epochs, lr: 0.01, seed: 42, patience: 0, ..Default::default() };
    let (model, _): (GcnModel, _) = train(&db, cfg, &split, opts);
    let all: Vec<usize> = (0..db.len()).collect();
    let acc = gvex_gnn::trainer::accuracy(&model, &db, &all);
    gvex_bench::harness::Prepared { kind, db, model, split, accuracy: acc }
}
