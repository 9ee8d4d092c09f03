//! The `gvex` command-line tool: generate data, train the classifier,
//! produce explanation views, and query them — the full §1 workflow from a
//! terminal.
//!
//! ```text
//! gvex stats    --dataset MUT --scale bench
//! gvex export   --dataset MUT --scale bench --out ./mut-tu
//! gvex train    --dataset MUT --scale bench --model-out model.json
//! gvex explain  --dataset MUT --scale bench --model model.json \
//!               --labels 0,1 --upper 10 --views-out views.json
//! gvex query    --views views.json --discriminative 1
//! ```
//!
//! `--tu-dir <dir> --tu-name <DS>` may replace `--dataset` everywhere to run
//! on a real TUDataset download instead of a synthetic stand-in.

use gvex::core::{
    index_views, Configuration, ExplainSession, ExplanationViewSet, GreedyStrategy,
    SelectionStrategy, StreamStrategy, ViewIndex,
};
use gvex::datasets::{dataset_stats, read_tu_dataset, write_tu_dataset, DatasetKind, Scale};
use gvex::gnn::{train, trainer::TrainOptions, GcnConfig, GcnModel, Split};
use gvex::graph::GraphDatabase;
use gvex::ingest::{generate, read_log, to_jsonl, write_log, GenProfile, IngestEngine};
use gvex::serve::{Client, Request, ServeState, Server, ServerConfig};
use gvex::store::{BuildInput, SectionId, Store};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: gvex <stats|export|train|explain|query|serve|request|ingest|db|obs> [options]\n\
         \n\
         common options:\n\
           --dataset <MUT|RED|ENZ|MAL|PCQ|PRO|SYN>   synthetic stand-in\n\
           --scale <small|bench|full>                 generation scale (default bench)\n\
           --seed <u64>                               generation/training seed (default 42)\n\
           --tu-dir <dir> --tu-name <DS>              read a TU-format dataset instead\n\
           --db <file.gvex>                           serve dataset/model/views from a\n\
                                                      built store instead of regenerating\n\
         \n\
         stats    print the Table-3 row for the dataset\n\
         export   --out <dir>: write the dataset in TU format\n\
         train    --model-out <file>: train the GCN and save it as JSON\n\
                  [--batch-size <n>]: graphs per optimizer step; n > 1 packs\n\
                  each step into one block-diagonal batched forward/backward\n\
         explain  --model <file> --labels <l0,l1,..> --upper <n>\n\
                  [--stream] [--views-out <file>]: generate explanation views\n\
         query    --views <file> | --db <file.gvex>\n\
                  [--label <l>] [--discriminative <l>]\n\
         serve    --db <file.gvex> [--addr <host:port>] [--workers <n>]\n\
                  [--queue <n>] [--cache-capacity <n>] [--epoch-interval <n>]:\n\
                  answer explain/node/query/mutate requests over TCP until\n\
                  a shutdown request arrives\n\
         request  --addr <host:port> --kind <ping|stats|explain|node|query|mutate|reload|shutdown>\n\
                  [--label <l>] [--graph <i>] [--target <v>] [--upper <n>]\n\
                  [--stream] [--discriminative <l>] [--path <file.gvex>]\n\
                  [--mutations <file.jsonl>] [--commit]:\n\
                  send one request to a running daemon, print the answer\n\
         ingest   gen --db <file.gvex> --out <file.jsonl> [--count <n>]\n\
                  [--seed <u64>] [--profile <localized|churn>]: synthesize a\n\
                  replayable mutation log against a built store\n\
                  replay --db <file.gvex> --mutations <file.jsonl>\n\
                  [--upper <n>] [--epoch-interval <n>] [--threads <n>]\n\
                  [--snapshot-out <file.gvex>] [--verify]: apply the log\n\
                  with incremental view maintenance; --verify diffs the\n\
                  result against a full recompute, --snapshot-out writes\n\
                  the post-ingest epoch as a servable store\n\
                  send --addr <host:port> --mutations <file.jsonl>\n\
                  [--batch <n>] [--upper <n>] [--commit]: stream the log\n\
                  to a running daemon as mutate requests\n\
         db       build --out <file.gvex>: materialize dataset + trained model\n\
                  + mined views into one mmap-servable store\n\
                  [--upper <n>] [--stream] [--no-views] + train/dataset flags\n\
                  inspect <file.gvex>: dump the section table and stats\n\
         obs      diff <old.json> <new.json>: compare two OBS_report.json\n\
                  files (schema v1, v2 or v3) and exit 1 on a perf regression\n\
                  [--span-pct <n>] [--counter-pct <n>] [--p99-pct <n>]\n\
                  [--min-span-ms <x>] [--min-counter <n>]"
    );
    std::process::exit(2)
}

fn open_store(path: &str) -> Store {
    Store::open(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("failed to open store {path}: {e}");
        std::process::exit(1);
    })
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                flags.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), String::from("true"));
                i += 1;
            }
        } else {
            eprintln!("unexpected argument: {a}");
            usage();
        }
    }
    flags
}

fn load_db(flags: &HashMap<String, String>) -> GraphDatabase {
    if let Some(path) = flags.get("db") {
        return open_store(path).database();
    }
    if let (Some(dir), Some(name)) = (flags.get("tu-dir"), flags.get("tu-name")) {
        return read_tu_dataset(Path::new(dir), name).unwrap_or_else(|e| {
            eprintln!("failed to read TU dataset: {e}");
            std::process::exit(1);
        });
    }
    let kind = match flags.get("dataset").map(String::as_str) {
        Some("MUT") => DatasetKind::Mutagenicity,
        Some("RED") => DatasetKind::RedditBinary,
        Some("ENZ") => DatasetKind::Enzymes,
        Some("MAL") => DatasetKind::MalnetTiny,
        Some("PCQ") => DatasetKind::Pcqm4m,
        Some("PRO") => DatasetKind::Products,
        Some("SYN") => DatasetKind::Synthetic,
        other => {
            eprintln!("missing or unknown --dataset {other:?}");
            usage();
        }
    };
    let scale = match flags.get("scale").map(String::as_str) {
        None | Some("bench") => Scale::Bench,
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        Some(s) => {
            eprintln!("unknown --scale {s}");
            usage();
        }
    };
    let seed: u64 = flags.get("seed").map_or(42, |s| s.parse().unwrap_or(42));
    kind.generate(scale, seed)
}

fn cmd_stats(flags: &HashMap<String, String>) {
    let db = load_db(flags);
    let s = dataset_stats(&db);
    println!(
        "graphs: {}\nclasses: {}\navg nodes: {:.1}\navg edges: {:.1}\nfeature dim: {}\nmax |V|: {}",
        s.num_graphs, s.num_classes, s.avg_nodes, s.avg_edges, s.feature_dim, s.max_nodes
    );
}

fn cmd_export(flags: &HashMap<String, String>) {
    let db = load_db(flags);
    let out = flags.get("out").unwrap_or_else(|| usage());
    let name = flags.get("tu-name").map(String::as_str).unwrap_or("GVEX");
    write_tu_dataset(&db, Path::new(out), name).unwrap_or_else(|e| {
        eprintln!("export failed: {e}");
        std::process::exit(1);
    });
    println!("wrote TU dataset '{name}' to {out}");
}

fn trained_model(flags: &HashMap<String, String>, db: &GraphDatabase) -> (GcnModel, Split) {
    let seed: u64 = flags.get("seed").map_or(42, |s| s.parse().unwrap_or(42));
    let split = Split::paper(db, seed);
    if let Some(path) = flags.get("model") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read model {path}: {e}");
            std::process::exit(1);
        });
        let model = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("failed to parse model {path}: {e}");
            std::process::exit(1);
        });
        return (model, split);
    }
    let epochs: usize = flags.get("epochs").map_or(150, |s| s.parse().unwrap_or(150));
    let lr: f32 = flags.get("lr").map_or(0.01, |s| s.parse().unwrap_or(0.01));
    let batch_size: usize = flags.get("batch-size").map_or(1, |s| s.parse().unwrap_or(1));
    let cfg = GcnConfig {
        input_dim: db.feature_dim().max(1),
        hidden: flags.get("hidden").map_or(16, |s| s.parse().unwrap_or(16)),
        layers: 3,
        num_classes: db.num_classes(),
    };
    let (model, report) =
        train(db, cfg, &split, TrainOptions { epochs, lr, seed, patience: 0, batch_size });
    eprintln!(
        "trained: val accuracy {:.3}, test accuracy {:.3} ({} epochs)",
        report.best_val_accuracy, report.test_accuracy, report.epochs
    );
    (model, split)
}

fn cmd_train(flags: &HashMap<String, String>) {
    let db = load_db(flags);
    let (model, _) = trained_model(flags, &db);
    let out = flags.get("model-out").unwrap_or_else(|| usage());
    let json = serde_json::to_string(&model).expect("model serializes");
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    println!("saved model to {out}");
}

/// The per-run serving bundle, shared by `explain`, `query`, `serve`, and
/// the `--db`-less fallbacks: one [`ServeState`] instead of each command
/// re-opening the store and re-materializing database/model/views its own
/// way.
fn serve_state(flags: &HashMap<String, String>) -> ServeState {
    if let Some(path) = flags.get("db") {
        let state = ServeState::open(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("failed to open store {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "[gvex] serving from {path}: {} graphs, {} views, fingerprint {:016x}",
            state.db().len(),
            state.views().views.len(),
            state.fingerprint()
        );
        state
    } else {
        let db = load_db(flags);
        let (model, _) = trained_model(flags, &db);
        let dataset =
            flags.get("dataset").or_else(|| flags.get("tu-name")).map_or("TU", String::as_str);
        ServeState::from_parts(dataset, db, model, ExplanationViewSet::default())
    }
}

fn cmd_explain(flags: &HashMap<String, String>) {
    // `--db` serves database AND model straight from the store: no
    // regeneration, no retraining — the open-and-serve hot path.
    let state = serve_state(flags);
    let db = state.db();
    let labels: Vec<usize> = flags
        .get("labels")
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| (0..db.num_classes()).collect());
    let upper: usize = flags.get("upper").map_or(10, |s| s.parse().unwrap_or(10));
    let cfg = Configuration::paper_mut(upper);

    // One pooled session owns the model handle, forward-trace cache, and
    // influence memo; generation and verification below share it, so no
    // graph is forwarded or differentiated twice.
    let lease = state.pool().checkout();
    let session = lease.session(state.model(), cfg).unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        std::process::exit(1);
    });
    let strategy: &dyn SelectionStrategy =
        if flags.contains_key("stream") { &StreamStrategy } else { &GreedyStrategy };
    let views = session.explain(strategy, db, &labels);

    // Verify every view against C1–C3 through the session's trace cache:
    // the member graphs repeat across views, so their full forward passes
    // are memoized (and the hit/miss counters land in the obs report).
    for view in &views.views {
        let report = session.verify(db, view);
        println!(
            "label {}: verification C1={} C2={} C3={} -> {}",
            view.label,
            report.is_graph_view,
            report.is_explanation_view,
            report.properly_covers,
            if report.is_valid() { "valid" } else { "INVALID" }
        );
    }
    let (hits, misses) = session.trace_cache().stats();
    eprintln!("[gvex] verification trace cache: {hits} hits, {misses} misses");

    for view in &views.views {
        println!(
            "label {} ({}): {} subgraphs, {} patterns, compression {:.1}%, edge loss {:.2}%, f = {:.3}",
            view.label,
            db.class_names.get(view.label).cloned().unwrap_or_default(),
            view.subgraphs.len(),
            view.patterns.len(),
            view.compression() * 100.0,
            view.edge_loss * 100.0,
            view.explainability
        );
        for (i, p) in view.patterns.iter().enumerate() {
            let desc: Vec<String> = if p.num_edges() == 0 {
                (0..p.num_nodes()).map(|v| db.node_types.name(p.node_type(v))).collect()
            } else {
                p.edges()
                    .map(|(u, v, _)| {
                        format!(
                            "{}-{}",
                            db.node_types.name(p.node_type(u)),
                            db.node_types.name(p.node_type(v))
                        )
                    })
                    .collect()
            };
            println!("  P{i}: {}", desc.join(", "));
        }
    }
    if let Some(out) = flags.get("views-out") {
        let json = serde_json::to_string(&views).expect("views serialize");
        std::fs::write(out, json).unwrap_or_else(|e| {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        });
        println!("saved views to {out}");
    }
}

fn cmd_query(flags: &HashMap<String, String>) {
    // `--db` goes through the shared serving state, which deserializes the
    // views and builds the query index exactly once — the same bundle
    // `gvex serve` answers from, so CLI queries and served queries read
    // identical indexes.
    let state;
    let local;
    let (views, idx): (&ExplanationViewSet, &ViewIndex) = if let Some(db_path) = flags.get("db") {
        state = serve_state(flags);
        if state.views().views.is_empty() {
            eprintln!("store {db_path} carries no views (built with --no-views?)");
            std::process::exit(1);
        }
        (state.views(), state.index())
    } else {
        let path = flags.get("views").unwrap_or_else(|| usage());
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        });
        local = {
            let v: ExplanationViewSet = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("failed to parse {path}: {e}");
                std::process::exit(1);
            });
            let idx = index_views(&v);
            (v, idx)
        };
        (&local.0, &local.1)
    };
    println!("{} distinct patterns across {} views", idx.patterns().len(), views.views.len());

    if let Some(l) = flags.get("label").and_then(|s| s.parse::<usize>().ok()) {
        let pids = idx.patterns_of_label(l);
        println!("label {l} uses {} patterns: {pids:?}", pids.len());
        for pid in pids {
            println!("  P{pid} occurs in graphs {:?}", idx.graphs_matching(pid));
        }
    }
    if let Some(l) = flags.get("discriminative").and_then(|s| s.parse::<usize>().ok()) {
        let pids = idx.discriminative_patterns(l);
        println!("discriminative patterns of label {l}: {pids:?}");
        for pid in pids {
            let p = &idx.patterns()[pid];
            println!("  P{pid}: {} nodes, {} edges", p.num_nodes(), p.num_edges());
        }
    }
}

/// `gvex serve --db <file.gvex>` — run the explanation-serving daemon
/// until a `shutdown` request arrives.
fn cmd_serve(flags: &HashMap<String, String>) {
    if !flags.contains_key("db") {
        eprintln!("serve requires --db <file.gvex>");
        usage();
    }
    let state = serve_state(flags);
    let cfg = ServerConfig {
        workers: flags.get("workers").and_then(|s| s.parse().ok()).unwrap_or(4),
        queue_depth: flags.get("queue").and_then(|s| s.parse().ok()).unwrap_or(64),
        // One shard per class by default: the cache's isolation unit
        // matches the answer space's natural partition.
        cache_shards: flags
            .get("cache-shards")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| state.db().num_classes().max(1)),
        cache_capacity: flags.get("cache-capacity").and_then(|s| s.parse().ok()).unwrap_or(32),
        epoch_interval: flags.get("epoch-interval").and_then(|s| s.parse().ok()).unwrap_or(8),
    };
    let addr = flags.get("addr").map_or("127.0.0.1:0", String::as_str);
    let server = Server::bind(state, addr, cfg).unwrap_or_else(|e| {
        eprintln!("failed to bind {addr}: {e}");
        std::process::exit(1);
    });
    // Parsed by scripts (and humans) to find the resolved ephemeral port.
    println!("gvex serve: listening on {} ({} workers)", server.addr(), cfg.workers);
    server.join();
    println!("gvex serve: stopped");
}

/// `gvex request --addr <host:port> --kind <..>` — one-shot client: send a
/// single request, print the answer body to stdout.
fn cmd_request(flags: &HashMap<String, String>) {
    let addr = flags.get("addr").unwrap_or_else(|| usage());
    let req = Request {
        kind: flags.get("kind").cloned().unwrap_or_else(|| "ping".to_string()),
        graph: flags.get("graph").and_then(|s| s.parse().ok()),
        target: flags.get("target").and_then(|s| s.parse().ok()),
        label: flags.get("label").and_then(|s| s.parse().ok()),
        discriminative: flags.get("discriminative").and_then(|s| s.parse().ok()),
        upper: flags.get("upper").and_then(|s| s.parse().ok()),
        stream: flags.contains_key("stream"),
        path: flags.get("path").cloned().unwrap_or_default(),
        mutation: flags.get("mutations").map_or_else(String::new, |p| read_mutation_file(p)),
        commit: flags.contains_key("commit"),
    };
    let resp = gvex::serve::client::request_once(addr.as_str(), &req).unwrap_or_else(|e| {
        eprintln!("request to {addr} failed: {e}");
        std::process::exit(1);
    });
    if !resp.ok {
        eprintln!("server error: {}", resp.error);
        std::process::exit(1);
    }
    eprintln!("[gvex] cached={} generation={}", resp.cached, resp.generation);
    println!("{}", resp.body);
}

fn read_mutation_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read mutation log {path}: {e}");
        std::process::exit(1);
    })
}

/// `gvex ingest gen --db <store> --out <log.jsonl>` — synthesize a
/// mutation log whose records are valid against the store's database when
/// applied in order (the generator replays its own ops on scratch state).
fn cmd_ingest_gen(flags: &HashMap<String, String>) {
    let db_path = flags.get("db").unwrap_or_else(|| usage());
    let out = flags.get("out").unwrap_or_else(|| usage());
    let count: usize = flags.get("count").map_or(64, |s| s.parse().unwrap_or(64));
    let seed: u64 = flags.get("seed").map_or(42, |s| s.parse().unwrap_or(42));
    let profile = match flags.get("profile") {
        None => GenProfile::Localized,
        Some(s) => GenProfile::parse(s).unwrap_or_else(|| {
            eprintln!("unknown --profile {s} (want localized|churn)");
            usage();
        }),
    };
    let db = open_store(db_path).database();
    let muts = generate(&db, count, seed, profile);
    write_log(Path::new(out), &muts).unwrap_or_else(|e| {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out}: {} mutations ({profile:?} profile, seed {seed})", muts.len());
}

/// `gvex ingest replay --db <store> --mutations <log.jsonl>` — apply a
/// mutation log offline with incremental view maintenance, publishing an
/// epoch every `--epoch-interval` mutations. `--verify` diffs the
/// incremental result against a full recompute and exits non-zero on any
/// divergence; `--snapshot-out` writes the final epoch as a servable store.
fn cmd_ingest_replay(flags: &HashMap<String, String>) {
    let db_path = flags.get("db").unwrap_or_else(|| usage());
    let log_path = flags.get("mutations").unwrap_or_else(|| usage());
    let upper: usize = flags.get("upper").map_or(10, |s| s.parse().unwrap_or(10));
    let interval: usize = flags.get("epoch-interval").map_or(8, |s| s.parse().unwrap_or(8)).max(1);
    let threads: usize = flags.get("threads").map_or(1, |s| s.parse().unwrap_or(1)).max(1);
    let store = open_store(db_path);
    let db = store.database();
    let model = store.model();
    let cfg = Configuration::paper_mut(upper);
    let views = match store.views_json() {
        Some(json) => ExplanationViewSet::from_json(json).unwrap_or_else(|e| {
            eprintln!("store views are corrupt: {e}");
            std::process::exit(1);
        }),
        None => {
            eprintln!("store has no views; mining them first (upper {upper})");
            gvex::ingest::rebuild_views(&model, &db, &cfg, threads)
        }
    };
    let meta = store.meta();
    let (dataset, seed, epoch0) = (meta.dataset.clone(), meta.seed, meta.epoch);
    let muts = read_log(Path::new(log_path)).unwrap_or_else(|e| {
        eprintln!("failed to read mutation log {log_path}: {e}");
        std::process::exit(1);
    });
    let mut engine = IngestEngine::new(&dataset, seed, db, model, cfg, views, epoch0)
        .unwrap_or_else(|e| {
            eprintln!("cannot start ingest: {e}");
            std::process::exit(1);
        });
    let t0 = std::time::Instant::now();
    for (i, m) in muts.iter().enumerate() {
        let op = m.parse().unwrap_or_else(|e| {
            eprintln!("mutation {}: {e}", i + 1);
            std::process::exit(1);
        });
        engine.apply(&op).unwrap_or_else(|e| {
            eprintln!("mutation {} rejected: {e}", i + 1);
            std::process::exit(1);
        });
        if engine.pending() >= interval {
            let s = engine.publish_epoch();
            println!(
                "epoch {}: {} mutations folded, {} dirty cache classes",
                s.epoch,
                s.mutations,
                s.dirty_classes.len()
            );
        }
    }
    if engine.pending() > 0 {
        let s = engine.publish_epoch();
        println!(
            "epoch {}: {} mutations folded, {} dirty cache classes",
            s.epoch,
            s.mutations,
            s.dirty_classes.len()
        );
    }
    let elapsed = t0.elapsed();
    if flags.contains_key("verify") {
        let full = engine.rebuilt(threads);
        let eq = gvex::ingest::check_equivalent(&engine.views_set(), &full, engine.cfg());
        if eq.ok {
            println!("verify: incremental views equivalent to full recompute");
        } else {
            eprintln!("verify FAILED: {}", eq.detail);
            std::process::exit(1);
        }
    }
    if let Some(out) = flags.get("snapshot-out") {
        let bytes = engine.snapshot(Path::new(out)).unwrap_or_else(|e| {
            eprintln!("failed to write snapshot {out}: {e}");
            std::process::exit(1);
        });
        println!("snapshot {out}: {bytes} bytes at epoch {}", engine.epoch());
    }
    let st = engine.stats();
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "applied {} mutations in {:.1} ms ({:.0} updates/s): {} epochs, {} views patched, {} recomputed",
        st.mutations_applied,
        elapsed.as_secs_f64() * 1e3,
        st.mutations_applied as f64 / secs,
        st.epochs_published,
        st.views_patched,
        st.views_recomputed
    );
}

/// `gvex ingest send --addr <host:port> --mutations <log.jsonl>` — stream
/// a mutation log to a running daemon as `mutate` requests, `--batch`
/// records per frame. With `--commit` each batch publishes an epoch;
/// without, publishing is left to the daemon's epoch interval.
fn cmd_ingest_send(flags: &HashMap<String, String>) {
    let addr = flags.get("addr").unwrap_or_else(|| usage());
    let log_path = flags.get("mutations").unwrap_or_else(|| usage());
    let batch: usize = flags.get("batch").map_or(16, |s| s.parse().unwrap_or(16)).max(1);
    let upper = flags.get("upper").and_then(|s| s.parse().ok());
    let commit = flags.contains_key("commit");
    let muts = read_log(Path::new(log_path)).unwrap_or_else(|e| {
        eprintln!("failed to read mutation log {log_path}: {e}");
        std::process::exit(1);
    });
    let mut client = Client::connect(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    for (i, chunk) in muts.chunks(batch).enumerate() {
        let req = Request { upper, ..Request::mutate(&to_jsonl(chunk), commit) };
        let resp = client.call(&req).unwrap_or_else(|e| {
            eprintln!("send to {addr} failed: {e}");
            std::process::exit(1);
        });
        if !resp.ok {
            eprintln!("server rejected batch {}: {}", i + 1, resp.error);
            std::process::exit(1);
        }
        println!("batch {}: {}", i + 1, resp.body);
    }
}

/// `gvex ingest <gen|replay|send>` — takes a positional subcommand, so it
/// dispatches before [`parse_flags`].
fn cmd_ingest(rest: &[String]) -> ExitCode {
    let Some((sub, rest)) = rest.split_first() else {
        usage();
    };
    match sub.as_str() {
        "gen" => cmd_ingest_gen(&parse_flags(rest)),
        "replay" => cmd_ingest_replay(&parse_flags(rest)),
        "send" => cmd_ingest_send(&parse_flags(rest)),
        other => {
            eprintln!("unknown ingest subcommand: {other}");
            usage();
        }
    }
    gvex::obs::report::emit();
    ExitCode::SUCCESS
}

/// `gvex db build --out <file.gvex> [dataset/train/mining flags]` —
/// materialize one dataset, its trained model, and the mined views into a
/// single mmap-servable store file.
fn cmd_db_build(flags: &HashMap<String, String>) {
    let out = flags.get("out").unwrap_or_else(|| usage());
    let db = load_db(flags);
    let (model, _) = trained_model(flags, &db);
    let upper: usize = flags.get("upper").map_or(10, |s| s.parse().unwrap_or(10));
    let cfg = Configuration::paper_mut(upper);
    let views_json = if flags.contains_key("no-views") {
        None
    } else {
        let session = ExplainSession::new(&model, cfg.clone()).unwrap_or_else(|e| {
            eprintln!("invalid configuration: {e}");
            std::process::exit(1);
        });
        let strategy: &dyn SelectionStrategy =
            if flags.contains_key("stream") { &StreamStrategy } else { &GreedyStrategy };
        let labels: Vec<usize> = (0..db.num_classes()).collect();
        Some(session.explain(strategy, &db, &labels).to_json())
    };
    let dataset =
        flags.get("dataset").or_else(|| flags.get("tu-name")).map(String::as_str).unwrap_or("TU");
    let seed: u64 = flags.get("seed").map_or(42, |s| s.parse().unwrap_or(42));
    let input = BuildInput {
        db: &db,
        model: &model,
        views_json: views_json.as_deref(),
        dataset,
        seed,
        mining: Some(cfg.mining),
        epoch: 0,
    };
    let bytes = gvex::store::write_store(Path::new(out), &input).unwrap_or_else(|e| {
        eprintln!("failed to write store {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "wrote {out}: {bytes} bytes, {} graphs, views {}",
        db.len(),
        if views_json.is_some() { "included" } else { "omitted" }
    );
}

/// `gvex db inspect <file.gvex>` — dump header, metadata, and the section
/// table of a built store.
fn cmd_db_inspect(path: &str) {
    let store = open_store(path);
    let m = store.meta();
    println!(
        "{path}: format v{}, {} bytes via {}",
        gvex::store::VERSION,
        store.mapped_len(),
        store.mapping_kind()
    );
    println!(
        "dataset {} (seed {}, epoch {}): {} graphs, {} classes, feature dim {}, {}",
        m.dataset,
        m.seed,
        m.epoch,
        m.num_graphs,
        m.class_names.len(),
        m.feature_dim,
        if m.directed { "directed" } else { "undirected" }
    );
    let c = m.model.config;
    println!(
        "model: {} layers x {} hidden -> {} classes, {:?}/{:?}, edge gates: {}",
        c.layers,
        c.hidden,
        c.num_classes,
        m.model.aggregation,
        m.model.readout,
        if m.model.edge_gate_types > 0 {
            format!("{} types", m.model.edge_gate_types)
        } else {
            "off".to_string()
        }
    );
    let mut total_nodes = 0usize;
    let mut adjacency_entries = 0usize;
    println!("{:<12} {:>10} {:>12} {:>10}", "section", "offset", "bytes", "crc32");
    for e in store.sections() {
        println!(
            "{:<12} {:>10} {:>12} {:>10}",
            e.name(),
            e.offset,
            e.len,
            format!("{:08x}", e.crc)
        );
        if e.id == SectionId::NodeTypes as u32 {
            total_nodes = e.len as usize / 4;
        }
        if e.id == SectionId::OutTargets as u32 {
            adjacency_entries = e.len as usize / 4;
        }
    }
    let edges = if m.directed { adjacency_entries } else { adjacency_entries / 2 };
    println!(
        "totals: {total_nodes} nodes, {edges} edges, views {}",
        store.views_json().map_or("absent".to_string(), |v| format!("{} bytes", v.len()))
    );
}

/// `gvex db <build|inspect>` — takes a positional subcommand (and for
/// `inspect` a positional file), so it dispatches before [`parse_flags`].
fn cmd_db(rest: &[String]) -> ExitCode {
    let Some((sub, rest)) = rest.split_first() else {
        usage();
    };
    match sub.as_str() {
        "build" => cmd_db_build(&parse_flags(rest)),
        "inspect" => {
            let path = rest.first().unwrap_or_else(|| usage());
            cmd_db_inspect(path);
        }
        other => {
            eprintln!("unknown db subcommand: {other}");
            usage();
        }
    }
    gvex::obs::report::emit();
    ExitCode::SUCCESS
}

/// `gvex obs diff old.json new.json [threshold flags]` — the perf-regression
/// gate. Takes positional file arguments, so it parses its own argv instead
/// of going through [`parse_flags`].
fn cmd_obs(rest: &[String]) -> ExitCode {
    use gvex::obs::diff::{compare, parse_report, Thresholds};
    let Some((sub, rest)) = rest.split_first() else {
        usage();
    };
    if sub != "diff" {
        eprintln!("unknown obs subcommand: {sub}");
        usage();
    }
    let (files, flag_args): (Vec<&String>, Vec<&String>) = {
        let mut files = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            if rest[i].starts_with("--") {
                flags.push(&rest[i]);
                if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                    flags.push(&rest[i + 1]);
                    i += 1;
                }
            } else {
                files.push(&rest[i]);
            }
            i += 1;
        }
        (files, flags)
    };
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("obs diff takes exactly two report files");
        usage();
    };
    let mut thr = Thresholds::default();
    let mut i = 0;
    while i < flag_args.len() {
        let key = flag_args[i].as_str();
        let val = flag_args.get(i + 1).map(|s| s.as_str());
        let parsed_f64 = val.and_then(|v| v.parse::<f64>().ok());
        match key {
            "--span-pct" => thr.span_pct = parsed_f64.unwrap_or_else(|| usage()),
            "--counter-pct" => thr.counter_pct = parsed_f64.unwrap_or_else(|| usage()),
            "--p99-pct" => thr.p99_pct = parsed_f64.unwrap_or_else(|| usage()),
            "--min-span-ms" => thr.min_span_ms = parsed_f64.unwrap_or_else(|| usage()),
            "--min-counter" => {
                thr.min_counter = val.and_then(|v| v.parse::<u64>().ok()).unwrap_or_else(|| usage())
            }
            other => {
                eprintln!("unknown obs diff flag: {other}");
                usage();
            }
        }
        i += 2;
    }
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(2);
        });
        parse_report(&text).unwrap_or_else(|e| {
            eprintln!("failed to parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    println!(
        "comparing {old_path} (schema v{}) -> {new_path} (schema v{})",
        old.schema_version, new.schema_version
    );
    let regressions = compare(&old, &new, &thr);
    if regressions.is_empty() {
        println!(
            "no regressions ({} spans, {} counters compared)",
            old.spans.len(),
            old.counters.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("{} regression(s):", regressions.len());
        for r in &regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    // `obs` takes positional arguments; dispatch it before the flag parser
    // (which rejects positionals) sees them.
    if cmd == "obs" {
        return cmd_obs(rest);
    }
    // `db` also takes positionals (the subcommand, inspect's file).
    if cmd == "db" {
        return cmd_db(rest);
    }
    // so does `ingest` (the subcommand).
    if cmd == "ingest" {
        return cmd_ingest(rest);
    }
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "stats" => cmd_stats(&flags),
        "export" => cmd_export(&flags),
        "train" => cmd_train(&flags),
        "explain" => cmd_explain(&flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "request" => cmd_request(&flags),
        _ => usage(),
    }
    // With GVEX_OBS=1: span tree to stderr, OBS_report.json to disk.
    gvex::obs::report::emit();
    ExitCode::SUCCESS
}
