//! Generated inputs: datasets and trained models cached per
//! (dataset, scale, seed), request mixes, and mutation streams. Everything
//! is a pure function of the workload seed.

use gvex_datasets::{DatasetKind, Scale};
use gvex_gnn::GcnModel;
use gvex_graph::GraphDatabase;
use gvex_serve::Request;
use gvex_store::{write_store, BuildInput, Store};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Coverage upper bound the serving store's views are mined at.
pub const STORE_UPPER: usize = 4;

/// Class explains on the miss path use bounds at or above this, larger
/// than any MUT graph, so every such explain costs the same and each
/// bound is a distinct cache key.
pub const MISS_UPPER_BASE: u64 = 64;

/// Seed the MUT and RED datasets are generated (and their models
/// trained) from. The workload seed drives what is asked of the data, not
/// the data itself: across datasets the program's costs differ by more
/// than the benchmark's bounds.
pub const DATASET_SEED: u64 = 42;

/// The benchmark's scratch directory inside the checkout: cached inputs,
/// per-run store files, and trace output.
pub fn work_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"))
}

fn cache_path(kind: DatasetKind, seed: u64) -> PathBuf {
    work_dir().join("cache").join(format!("{}-bench-{seed}.gvex", kind.short_name()))
}

/// Makes sure the cached dataset + model for `(kind, Bench, dataset
/// seed)` exists, generating and training it in a child process when it
/// does not — so training never runs inside a timed region or inflates
/// this process's peak memory.
pub fn ensure_cached(kind: DatasetKind) -> Result<PathBuf, String> {
    let seed = DATASET_SEED;
    let path = cache_path(kind, seed);
    if path.exists() {
        return Ok(path);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["prepare", kind.short_name(), &seed.to_string()])
        .status()
        .map_err(|e| format!("spawn prepare: {e}"))?;
    if !status.success() || !path.exists() {
        return Err(format!("preparing {} seed {seed} failed: {status}", kind.short_name()));
    }
    Ok(path)
}

/// Child-process entry: generate `kind` at bench scale, train the
/// classifier, and store both (without views) in the cache.
pub fn prepare_into_cache(kind: DatasetKind, seed: u64) -> Result<(), String> {
    let prep = gvex_bench::harness::prepare(kind, Scale::Bench, seed);
    let path = cache_path(kind, seed);
    let dir = path.parent().expect("cache path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    write_store_file(&tmp, &prep.db, &prep.model, None, kind.short_name(), seed)?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("rename into cache: {e}"))
}

/// Writes a `.gvex` store.
pub fn write_store_file(
    path: &Path,
    db: &GraphDatabase,
    model: &GcnModel,
    views_json: Option<&str>,
    dataset: &str,
    seed: u64,
) -> Result<u64, String> {
    let input = BuildInput {
        db,
        model,
        views_json,
        dataset,
        seed,
        mining: views_json.map(|_| gvex_bench::harness::gvex_config(STORE_UPPER).mining),
        epoch: 0,
    };
    write_store(path, &input).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Materializes a cached dataset and its model.
pub fn load_cached(path: &Path) -> Result<(GraphDatabase, GcnModel), String> {
    let store = Store::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok((store.database(), store.model()))
}

/// Zipf(1) weights over `n` items, as a cumulative distribution.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

fn query_discriminative(label: usize) -> Request {
    Request { kind: "query".into(), discriminative: Some(label as u64), ..Request::default() }
}

/// The serve-hit templates, most popular first: class explains (both
/// algorithms), label and discriminative queries, and four node explains
/// at seeded `(graph, target)` pairs. The popularity order is fixed by
/// kind, so every seed's mix moves about the same bytes per request.
pub fn hit_templates(db: &GraphDatabase, seed: u64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4854);
    let mut node = || {
        let g = rng.gen_range(0..db.len());
        Request::node(g, rng.gen_range(0..db.graph(g).num_nodes().max(1)), STORE_UPPER)
    };
    let mut t = Vec::new();
    for l in 0..db.num_classes() {
        t.push(Request::explain(l, STORE_UPPER, false));
        t.push(Request::query_label(l));
    }
    t.push(node());
    for l in 0..db.num_classes() {
        t.push(query_discriminative(l));
        t.push(Request::explain(l, STORE_UPPER, true));
        t.push(node());
    }
    t.push(node());
    t
}

/// Length of the serve-hit draw sequence before it repeats: more
/// requests than a run of the longest listed length sends.
const MIX_LEN: usize = 1 << 20;

/// The serve-hit mix: request `i` of a run asks for template `at(i)`,
/// drawn Zipf(1) over the templates from the seed. The draws are made
/// once, before set-up, so any stretch of the sequence is a lookup.
pub struct HitMix {
    draws: Vec<u8>,
}

impl HitMix {
    pub fn new(templates: usize, seed: u64) -> Self {
        assert!(templates <= usize::from(u8::MAX) + 1, "template index fits a byte");
        let cdf = zipf_cdf(templates);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4D49);
        let draws = (0..MIX_LEN)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                cdf.iter().position(|&c| u < c).unwrap_or(templates - 1) as u8
            })
            .collect();
        Self { draws }
    }

    pub fn at(&self, i: usize) -> usize {
        usize::from(self.draws[i % MIX_LEN])
    }
}

/// The serve-miss sequence, in which every request is a distinct cache
/// key: node explains over distinct `(graph, target)` pairs (a new bound
/// once every pair has been used), and every `class_every`-th request a
/// StreamGVEX class explain, alternating labels, with a bound that rises
/// by one per round of labels.
pub struct MissMix {
    pairs: Vec<(usize, usize)>,
    classes: usize,
    class_every: usize,
}

impl MissMix {
    pub fn new(db: &GraphDatabase, seed: u64, class_every: usize) -> Self {
        let mut pairs: Vec<(usize, usize)> =
            (0..db.len()).flat_map(|g| (0..db.graph(g).num_nodes()).map(move |v| (g, v))).collect();
        pairs.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ 0x4D53));
        Self { pairs, classes: db.num_classes(), class_every }
    }

    /// Request `i` of the sequence.
    pub fn at(&self, i: usize) -> Request {
        if (i + 1).is_multiple_of(self.class_every) {
            let k = i / self.class_every;
            let upper = MISS_UPPER_BASE as usize + k / self.classes;
            return Request::explain(k % self.classes, upper, true);
        }
        let j = i - i / self.class_every;
        let (g, v) = self.pairs[j % self.pairs.len()];
        Request::node(g, v, STORE_UPPER + j / self.pairs.len())
    }
}

/// A mutate request carrying one mutation; the engine runs at the store's
/// mining bound.
pub fn mutate_request(m: &gvex_ingest::Mutation, commit: bool) -> Request {
    let mut req = Request::mutate(&gvex_ingest::to_jsonl(std::slice::from_ref(m)), commit);
    req.upper = Some(STORE_UPPER as u64);
    req
}

/// The commit that creates the daemon's ingest engine without publishing.
pub fn engine_start_request() -> Request {
    let mut req = Request::commit();
    req.upper = Some(STORE_UPPER as u64);
    req
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_mix_never_repeats_a_request() {
        let db = gvex_datasets::DatasetKind::Mutagenicity.generate(Scale::Small, 1);
        let mix = MissMix::new(&db, 1, 5);
        let n = 3 * db.graphs().iter().map(|g| g.num_nodes()).sum::<usize>();
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let r = mix.at(i);
            let key = (r.kind.clone(), r.label, r.graph, r.target, r.upper, r.stream);
            assert!(seen.insert(key), "request {i} repeats");
        }
        assert_eq!(mix.at(4).kind, "explain");
        assert_eq!(mix.at(5).kind, "node");
    }

    #[test]
    fn zipf_mix_prefers_low_ranks() {
        let mix = HitMix::new(12, 1);
        let draws: Vec<usize> = (0..20_000).map(|i| mix.at(i)).collect();
        let first = draws.iter().filter(|&&i| i == 0).count();
        let last = draws.iter().filter(|&&i| i == 11).count();
        assert!(first > 5 * last, "{first} vs {last}");
        assert!(draws.iter().all(|&i| i < 12));
        assert_eq!(mix.at(17), HitMix::new(12, 1).at(17));
        assert_eq!(mix.at(17), mix.at(17 + MIX_LEN));
    }
}
