//! In-process replays through the same public calls the daemon's workers
//! and the explain drivers make, with a span around each call.

use crate::batch::one_thread;
use crate::trace::Tracer;
use gvex_core::parallel::predict_all;
use gvex_core::{
    Configuration, ExplainSession, ExplanationSubgraph, ExplanationViewSet, GreedyStrategy,
    SelectionStrategy,
};
use gvex_gnn::GcnModel;
use gvex_graph::GraphDatabase;
use gvex_serve::state::cache_key;
use gvex_serve::{answer, AnswerCache, Request, Response, ServeState};
use std::time::Instant;

/// ApproxGVEX through the sequential driver's steps, called one by one:
/// classify the database, explain each graph of each label group, then
/// summarize. Produces the same views as `ExplainSession::explain` with
/// `GreedyStrategy`, and appends each graph's explain time (ms) to
/// `per_graph_ms`. With tracing on, the forward trace and the influence
/// analysis are requested before selection so each shows as its own
/// span (selection then finds both memoized).
pub fn explain_decomposed(
    sess: &ExplainSession<'_>,
    db: &GraphDatabase,
    labels: &[usize],
    t: &Tracer,
    per_graph_ms: &mut Vec<f64>,
) -> ExplanationViewSet {
    let assigned = t.span("core.predict_all", 0, || predict_all(sess.model(), db));
    let groups = db.label_groups(&assigned);
    let views = labels
        .iter()
        .map(|&l| {
            let subs: Vec<ExplanationSubgraph> = groups
                .group(l)
                .iter()
                .filter_map(|&gi| {
                    let g = db.graph(gi);
                    let t0 = Instant::now();
                    if t.enabled() {
                        t.span("gnn.trace", gi as u64, || sess.trace(g));
                        t.span("core.influence", gi as u64, || sess.influence(g, gi));
                    }
                    let sub = t.span("core.select", gi as u64, || {
                        GreedyStrategy.explain_graph(sess, g, gi)
                    });
                    per_graph_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    sub
                })
                .collect();
            t.span("core.summarize", l as u64, || sess.summarize(l, subs))
        })
        .collect();
    ExplanationViewSet { views }
}

/// View mining with spans, on one thread like `explain_database(.., 1)`.
pub fn explain_traced(
    model: &GcnModel,
    db: &GraphDatabase,
    labels: &[usize],
    cfg: &Configuration,
    t: &Tracer,
) -> ExplanationViewSet {
    let sess =
        ExplainSession::new(model, cfg.clone()).expect("the benchmark configuration is valid");
    one_thread(|| explain_decomposed(&sess, db, labels, t, &mut Vec::new()))
}

/// Replays requests through a worker's steps: decode, cache lookup,
/// answer on a miss (then cache insert), encode. Request ids start at
/// `first_id`. Returns the encoded replies.
pub fn replay_requests(
    state: &ServeState,
    cache: &AnswerCache,
    reqs: &[Request],
    first_id: u64,
    t: &Tracer,
) -> Vec<Vec<u8>> {
    reqs.iter()
        .enumerate()
        .map(|(i, req)| {
            let id = first_id + i as u64;
            let frame = req.encode();
            let mut missed_node = false;
            let reply = t.span("serve.request", id, || {
                let req = t
                    .span("serve.decode", id, || Request::decode(&frame))
                    .expect("replayed requests decode");
                let key = t.span("serve.cache_lookup", id, || {
                    let key = cache_key(state, &req);
                    let hit = key.as_ref().and_then(|k| cache.get(k));
                    (key, hit)
                });
                let resp = match key {
                    (_, Some(body)) => {
                        t.count("serve.replay_hits", 1.0);
                        Response { ok: true, cached: true, body, ..Response::default() }
                    }
                    (key, None) => {
                        t.count("serve.replay_misses", 1.0);
                        missed_node = req.kind == "node";
                        let resp = answer_traced(state, &req, id, t);
                        if let (Some(k), true) = (key, resp.ok) {
                            cache.put(k, resp.body.clone());
                        }
                        resp
                    }
                };
                t.count("serve.body_bytes", resp.body.len() as f64);
                t.count("serve.replies", 1.0);
                t.span("serve.encode", id, || resp.encode())
            });
            if missed_node && t.enabled() {
                explain_node_traced(state, req, id, t);
            }
            reply
        })
        .collect()
}

/// `ExplainSession::explain_node` on its own, for the node-explain share
/// of `answer` (called after the request, outside its span).
fn explain_node_traced(state: &ServeState, req: &Request, id: u64, t: &Tracer) {
    if let (Some(g), Some(v)) = (req.graph, req.target) {
        let lease = state.pool().checkout();
        let cfg = gvex_bench::harness::gvex_config(req.upper.unwrap_or(0) as usize);
        let sess = lease.session(state.model(), cfg).expect("valid configuration");
        t.span("core.explain_node", id, || {
            sess.explain_node(state.db().graph(g as usize), v as usize)
        });
    }
}

/// The program's own influence-memo counters: `(hits, misses)` of
/// `ExplainSession::influence`.
fn influence_counts() -> (u64, u64) {
    let counters = gvex_obs::metrics::counters();
    let get = |name: &str| counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v);
    (get("core.session.influence_hits"), get("core.session.influence_misses"))
}

/// `answer` on a miss, timed by kind. When tracing, the session pool is
/// observed around it (whether the checkout was warm), and for ApproxGVEX
/// class explains, the only requests that consult the influence memo, the
/// program's own counters are switched on for the call so its memo hits
/// and misses are counted. They stay off for every other request, so
/// they cost the other spans nothing.
fn answer_traced(state: &ServeState, req: &Request, id: u64, t: &Tracer) -> Response {
    let name = match req.kind.as_str() {
        "explain" => "serve.answer_explain",
        "node" => "serve.answer_node",
        _ => "serve.answer_query",
    };
    if !t.enabled() || !(req.kind == "explain" || req.kind == "node") {
        return t.span(name, id, || answer(state, req));
    }
    // the pool is a stack and the replay is single-threaded, so `answer`
    // checks out the same cache set this peek sees
    let warm = state.pool().checkout().was_warm();
    t.count("core.pool.checkouts", 1.0);
    t.count("core.pool.warm", f64::from(u8::from(warm)));
    if req.kind == "node" || req.stream {
        return t.span(name, id, || answer(state, req));
    }
    let (hits0, misses0) = influence_counts();
    gvex_obs::set_enabled(true);
    let resp = t.span(name, id, || answer(state, req));
    gvex_obs::set_enabled(false);
    let (hits1, misses1) = influence_counts();
    t.count("core.influence_hits", (hits1 - hits0) as f64);
    t.count("core.influence_misses", (misses1 - misses0) as f64);
    resp
}
