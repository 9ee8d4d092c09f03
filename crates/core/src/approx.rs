//! **ApproxGVEX** — Algorithm 1: the explain-and-summarize ½-approximation.
//!
//! Per graph, the *explain* phase greedily selects nodes with maximal
//! marginal gain of the (monotone submodular, Lemma 3.3) explainability
//! `I(V_s) + γ·D(V_s)`, gated by the `VpExtend` verifier and the coverage
//! bound `[b_l, u_l]`; greedy selection under the range cardinality
//! constraint inherits the ½-approximation of fair submodular maximization
//! (§4, "Correctness & Approximability"). The *summarize* phase hands the
//! induced explanation subgraphs of a label group to `Psum`.
//!
//! The algorithm lives in [`GreedyStrategy`], a
//! [`SelectionStrategy`] over a shared [`ExplainSession`]: the forward
//! trace and influence analysis come from the session's memos, and every
//! candidate probe runs on a zero-copy [`gvex_graph::GraphRef`] view
//! instead of an allocated subgraph clone. [`ApproxGvex`] remains as the
//! configuration-carrying entry point; its methods are thin wrappers that
//! build a one-shot session.
//!
//! One deliberate refinement over the paper's pseudo-code: Procedure 2
//! (`VpExtend`) rejects a candidate unless the extended subgraph is already
//! consistent *and* counterfactual. A prefix of one or two nodes often
//! cannot yet flip the complement's label, so a literal reading can stall at
//! `V_S = ∅`. The growth loop therefore works in two tiers per round:
//! first it looks (lazily, best-gain-first) for a candidate passing the
//! *full* Procedure 2 check; only while the selection is not yet
//! counterfactual does it fall back to a consistency-preserving candidate so
//! the greedy can bootstrap — after which growth continues strictly under
//! the full check, exactly as in the paper's Example 4.2. Both property
//! flags are reported on the final subgraph.

use crate::config::Configuration;
use crate::session::{ExplainSession, SelectionStrategy};
use crate::view::{ExplanationSubgraph, ExplanationView, ExplanationViewSet};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, GraphDatabase, NodeId};

/// Algorithm 1's greedy node selection as a session strategy.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyStrategy;

impl SelectionStrategy for GreedyStrategy {
    fn name(&self) -> &'static str {
        "approx-greedy"
    }

    fn explain_graph(
        &self,
        sess: &ExplainSession<'_>,
        g: &Graph,
        graph_index: usize,
    ) -> Option<ExplanationSubgraph> {
        gvex_obs::span!("explain_graph");
        let n = g.num_nodes();
        if n == 0 {
            return None;
        }
        let model = sess.model();
        let cfg = sess.config();
        // One memoized forward pass serves the label, the Jacobian gates,
        // and the embeddings below.
        let trace = sess.trace(g);
        let label = trace.label();
        let bound = cfg.bound(label);
        let upper = bound.upper.min(n);

        // Line 2: EVerify precomputation — Jacobian + embeddings, memoized
        // per (graph, index) on the session.
        let analysis = sess.influence(g, graph_index);

        let mut selected: Vec<NodeId> = Vec::with_capacity(upper);
        let mut in_selected = vec![false; n];
        let mut state = analysis.empty_state();
        // Nodes that failed the consistency check at some size; they become
        // the paper's backup candidate set V_u for the lower-bound phase.
        let mut backup: Vec<NodeId> = Vec::new();

        // Explanation phase (lines 3–9): lazy greedy with VpExtend
        // verification, in three candidate tiers per round:
        //
        //   tier 1 — the extension passes full Procedure 2 (consistent AND
        //            counterfactual); always preferred,
        //   tier 2 — the extension is consistent; accepted only while the
        //            selection is not yet counterfactual (bootstrap),
        //   tier 3 — pure best-gain; accepted only while even consistency
        //            has not been reached (multi-class cold start: a 1–2
        //            node prefix rarely classifies as the target label).
        //
        // Once a property is established, growth never regresses it. The
        // expensive complement inference (counterfactual check) is capped
        // per round, the standard lazy-greedy trick that keeps VpExtend at
        // the paper's O(k·u_l·(dD + D²)) cost instead of O(|V|) full
        // inferences per round.
        const FULL_TRIALS: usize = 12;
        let mut is_consistent = false;
        let mut is_counterfactual = false;
        let mut in_backup = vec![false; n];
        'round: while selected.len() < upper {
            // Candidate pool: first the frontier (neighbors of V_S) — the
            // paper's explanation subgraphs are connected (Fig. 3) — then,
            // if no frontier candidate passes the tier policy, all
            // remaining nodes: growth may start a new component rather than
            // stall on a frontier dead end (footnote 1 permits disconnected
            // explanations).
            for attempt in 0..2 {
                let frontier: Vec<NodeId> = (0..n)
                    .filter(|&v| !in_selected[v] && is_adjacent_to(g, v, &in_selected))
                    .collect();
                let frontier_only = attempt == 0 && !selected.is_empty() && !frontier.is_empty();
                let pool: Vec<NodeId> = if frontier_only {
                    frontier
                } else {
                    (0..n).filter(|&v| !in_selected[v]).collect()
                };
                let mut cands: Vec<(f64, NodeId)> =
                    pool.into_iter().map(|v| (analysis.gain(&state, v), v)).collect();
                cands.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

                let mut tier1 = None;
                let mut tier2 = None;
                // tier 3 tracks the extension with the highest probability
                // of the target label, steering the cold start toward
                // consistency.
                let mut tier3: Option<(f32, NodeId)> = None;
                let mut full_checks = 0;
                for &(_, v) in &cands {
                    selected.push(v);
                    // probe the extension on zero-copy views: induced
                    // subgraph for consistency, complement for the
                    // counterfactual
                    let proba = model.predict_proba(g.view_of(&selected));
                    let consistent = gvex_linalg::ops::argmax(&proba) == label;
                    let mut counterfactual = false;
                    if consistent && full_checks < FULL_TRIALS {
                        full_checks += 1;
                        counterfactual =
                            crate::session::selection_counterfactual(model, g, label, &selected);
                    }
                    selected.pop();
                    if consistent && counterfactual {
                        tier1 = Some(v);
                        break;
                    }
                    if consistent && tier2.is_none() {
                        tier2 = Some(v);
                    }
                    let p = proba[label];
                    if tier3.is_none_or(|(bp, _)| p > bp) {
                        tier3 = Some((p, v));
                    }
                    if !consistent && !in_backup[v] {
                        in_backup[v] = true;
                        backup.push(v);
                    }
                    if tier2.is_some() && full_checks >= FULL_TRIALS {
                        break;
                    }
                }

                let chosen = if tier1.is_some() {
                    tier1
                } else if !is_counterfactual && tier2.is_some() {
                    tier2
                } else if !is_consistent {
                    tier3.map(|(_, v)| v)
                } else {
                    None // never degrade an established property
                };
                match chosen {
                    Some(v) => {
                        if tier1 == Some(v) {
                            is_consistent = true;
                            is_counterfactual = true;
                        } else if tier2 == Some(v) {
                            is_consistent = true;
                        }
                        selected.push(v);
                        in_selected[v] = true;
                        analysis.add(&mut state, v);
                        if in_backup[v] {
                            in_backup[v] = false;
                            backup.retain(|&b| b != v);
                        }
                        continue 'round;
                    }
                    None if frontier_only => continue, // widen to the full pool
                    None => break 'round,
                }
            }
        }

        // Lower-bound phase (lines 10–17): top up from the backup set V_u,
        // best-gain first, dropping the consistency gate (monotonicity of f
        // means this cannot reduce explainability).
        while selected.len() < bound.lower && !backup.is_empty() {
            backup.sort_by(|&a, &b| {
                analysis
                    .gain(&state, b)
                    .partial_cmp(&analysis.gain(&state, a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let v = backup.remove(0);
            if in_selected[v] {
                continue;
            }
            selected.push(v);
            in_selected[v] = true;
            analysis.add(&mut state, v);
        }
        if selected.len() < bound.lower {
            return None; // lines 16–17: no large-enough explanation exists
        }
        if selected.is_empty() {
            return None;
        }

        selected.sort_unstable();
        let sub = g.induced_subgraph(&selected);
        let verdict = crate::verify::everify_with_label(model, g, label, &selected);
        Some(ExplanationSubgraph {
            graph_index,
            nodes: selected,
            subgraph: sub.graph,
            consistent: verdict.consistent,
            counterfactual: verdict.counterfactual,
            explainability: analysis.score(&state) / n as f64,
        })
    }
}

/// The ApproxGVEX explainer (§4): a configuration plus the
/// [`GreedyStrategy`]. Each call builds a one-shot [`ExplainSession`];
/// construct a session directly to share caches across calls and
/// algorithms.
#[derive(Clone, Debug)]
pub struct ApproxGvex {
    cfg: Configuration,
}

impl ApproxGvex {
    /// Creates the explainer with a configuration.
    pub fn new(cfg: Configuration) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Configuration {
        &self.cfg
    }

    fn session<'m>(&self, model: &'m GcnModel) -> ExplainSession<'m> {
        ExplainSession::new(model, self.cfg.clone()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Algorithm 1 for a single graph: selects `V_S`, induces the
    /// explanation subgraph, and reports the §2.2 property flags.
    ///
    /// Returns `None` when the graph is empty or no selection satisfying
    /// the lower coverage bound exists (the paper's `return ∅`).
    pub fn explain_graph(
        &self,
        model: &GcnModel,
        g: &Graph,
        graph_index: usize,
    ) -> Option<ExplanationSubgraph> {
        GreedyStrategy.explain_graph(&self.session(model), g, graph_index)
    }

    /// Builds one explanation view for label `l` over the given label group
    /// (graph indices): explain each graph, then summarize with `Psum`.
    pub fn explain_label_group(
        &self,
        model: &GcnModel,
        db: &GraphDatabase,
        label: usize,
        group: &[usize],
    ) -> ExplanationView {
        GreedyStrategy.explain_label_group(&self.session(model), db, label, group)
    }

    /// Solves the full EVG instance: one view per label of interest
    /// (Problem 1). Labels are the classifier's *assigned* labels on `db`.
    pub fn explain(
        &self,
        model: &GcnModel,
        db: &GraphDatabase,
        labels_of_interest: &[usize],
    ) -> ExplanationViewSet {
        self.session(model).explain(&GreedyStrategy, db, labels_of_interest)
    }
}

fn is_adjacent_to(g: &Graph, v: NodeId, selected: &[bool]) -> bool {
    g.neighbors(v).chain(g.in_neighbors(v)).any(|(u, _)| selected[u])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::{trainer, GcnConfig};
    use gvex_graph::GraphDatabase;

    /// A tiny planted-motif database: class 1 graphs contain a type-1/type-2
    /// edge ("toxicophore"), class 0 graphs are plain type-0 chains.
    fn motif_db() -> GraphDatabase {
        let mut db = GraphDatabase::new(vec!["plain".into(), "motif".into()]);
        for i in 0..8 {
            // plain chain
            let mut b = Graph::builder(false);
            for _ in 0..5 + (i % 2) {
                b.add_node(0, &[1.0, 0.0, 0.0]);
            }
            for v in 1..b.num_nodes() {
                b.add_edge(v - 1, v, 0);
            }
            db.push(b.build(), 0);
            // chain with motif at the end
            let mut b = Graph::builder(false);
            for _ in 0..4 {
                b.add_node(0, &[1.0, 0.0, 0.0]);
            }
            let m1 = b.add_node(1, &[0.0, 1.0, 0.0]);
            let m2 = b.add_node(2, &[0.0, 0.0, 1.0]);
            for v in 1..4 {
                b.add_edge(v - 1, v, 0);
            }
            b.add_edge(3, m1, 0);
            b.add_edge(m1, m2, 0);
            db.push(b.build(), 1);
        }
        db
    }

    fn trained_model(db: &GraphDatabase) -> GcnModel {
        let split = trainer::Split {
            train: (0..db.len()).collect(),
            val: (0..db.len()).collect(),
            test: vec![],
        };
        let cfg = GcnConfig { input_dim: 3, hidden: 8, layers: 2, num_classes: 2 };
        let opts = trainer::TrainOptions {
            epochs: 80,
            lr: 0.01,
            seed: 1,
            patience: 0,
            ..Default::default()
        };
        let (model, report) = trainer::train(db, cfg, &split, opts);
        assert!(report.best_val_accuracy >= 0.99, "toy model failed to train");
        model
    }

    #[test]
    fn explain_graph_respects_upper_bound() {
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 3);
        let ag = ApproxGvex::new(cfg);
        let sub = ag.explain_graph(&model, db.graph(1), 1).expect("explanation exists");
        assert!(sub.len() <= 3);
        assert!(!sub.is_empty());
    }

    #[test]
    fn explanation_is_consistent() {
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);
        let ag = ApproxGvex::new(cfg);
        // explain a motif graph: subgraph prediction should match
        let sub = ag.explain_graph(&model, db.graph(1), 1).unwrap();
        assert!(sub.consistent, "greedy should maintain consistency");
    }

    #[test]
    fn motif_nodes_get_selected_for_motif_class() {
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 3);
        let ag = ApproxGvex::new(cfg);
        let g = db.graph(1); // motif graph: nodes 4 and 5 are the motif
        let sub = ag.explain_graph(&model, g, 1).unwrap();
        assert!(
            sub.nodes.iter().any(|&v| g.node_type(v) != 0),
            "expected at least one motif node in {:?}",
            sub.nodes
        );
    }

    #[test]
    fn lower_bound_unsatisfiable_returns_none() {
        let db = motif_db();
        let model = trained_model(&db);
        // lower bound larger than the graph: impossible
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 100, 200);
        let ag = ApproxGvex::new(cfg);
        assert!(ag.explain_graph(&model, db.graph(0), 0).is_none());
    }

    #[test]
    fn empty_graph_returns_none() {
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 5);
        let ag = ApproxGvex::new(cfg);
        let empty = Graph::builder(false).build();
        assert!(ag.explain_graph(&model, &empty, 0).is_none());
    }

    #[test]
    fn full_explain_builds_views_with_covering_patterns() {
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 4);
        let ag = ApproxGvex::new(cfg.clone());
        let set = ag.explain(&model, &db, &[0, 1]);
        assert_eq!(set.views.len(), 2);
        for view in &set.views {
            assert!(!view.subgraphs.is_empty(), "label {} got no subgraphs", view.label);
            assert!(!view.patterns.is_empty());
            // C1: patterns cover all subgraph nodes
            for s in &view.subgraphs {
                assert!(
                    crate::verify::pmatch(&view.patterns, &s.subgraph, &cfg),
                    "patterns fail to cover subgraph of graph {}",
                    s.graph_index
                );
            }
        }
        assert!(set.total_explainability() > 0.0);
    }

    #[test]
    fn larger_upper_bound_never_decreases_explainability() {
        let db = motif_db();
        let model = trained_model(&db);
        let small = ApproxGvex::new(Configuration::uniform(0.05, 0.3, 0.5, 0, 2))
            .explain_graph(&model, db.graph(1), 1)
            .unwrap();
        let large = ApproxGvex::new(Configuration::uniform(0.05, 0.3, 0.5, 0, 5))
            .explain_graph(&model, db.graph(1), 1)
            .unwrap();
        assert!(large.explainability >= small.explainability - 1e-9);
    }

    #[test]
    fn wrapper_matches_shared_session() {
        // the thin wrapper (one-shot session) and a long-lived session with
        // warm caches must agree bitwise
        let db = motif_db();
        let model = trained_model(&db);
        let cfg = Configuration::uniform(0.05, 0.3, 0.5, 0, 3);
        let sess = ExplainSession::new(&model, cfg.clone()).unwrap();
        // warm the memos with a first pass
        let warm = GreedyStrategy.explain_graph(&sess, db.graph(1), 1).unwrap();
        let memoized = GreedyStrategy.explain_graph(&sess, db.graph(1), 1).unwrap();
        let one_shot = ApproxGvex::new(cfg).explain_graph(&model, db.graph(1), 1).unwrap();
        let json = |s: &ExplanationSubgraph| serde_json::to_string(s).unwrap();
        assert_eq!(json(&warm), json(&one_shot));
        assert_eq!(json(&memoized), json(&one_shot));
    }
}
