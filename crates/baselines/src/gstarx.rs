//! GStarX (Zhang et al., NeurIPS'22).
//!
//! Scores nodes with a *structure-aware* cooperative-game value: instead of
//! Shapley's order-uniform coalitions, contributions are averaged over
//! random **connected** coalitions (the Hamiache–Navarro surplus idea:
//! only structurally coherent coalitions generate value in a graph game).
//! The explanation is the top-k nodes' induced subgraph.

use gvex_core::{Explainer, NodeExplanation};
use gvex_gnn::GcnModel;
use gvex_graph::{Graph, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Sampling budget for the coalition game.
#[derive(Clone, Copy, Debug)]
pub struct GStarX {
    /// Connected coalitions sampled per node.
    pub samples_per_node: usize,
    /// Maximum coalition size (locality of the game).
    pub max_coalition: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GStarX {
    fn default() -> Self {
        Self { samples_per_node: 24, max_coalition: 8, seed: 0 }
    }
}

impl GStarX {
    /// Samples a random connected coalition containing `v` by a random BFS
    /// growth of size ≤ `max_coalition`.
    fn sample_coalition(&self, g: &Graph, v: NodeId, rng: &mut impl Rng) -> Vec<NodeId> {
        let target = rng.gen_range(1..=self.max_coalition);
        let mut coalition = vec![v];
        let mut frontier: Vec<NodeId> = neighbors(g, v);
        while coalition.len() < target && !frontier.is_empty() {
            let pick = rng.gen_range(0..frontier.len());
            let u = frontier.swap_remove(pick);
            if coalition.contains(&u) {
                continue;
            }
            coalition.push(u);
            frontier.extend(neighbors(g, u).into_iter().filter(|w| !coalition.contains(w)));
        }
        coalition
    }

    /// The structure-aware score of every node: mean marginal contribution
    /// of `v` to random connected coalitions around it,
    /// `E_C [p(C) − p(C \ v)]`.
    #[allow(clippy::needless_range_loop)] // index parallels a second structure
    pub fn node_scores(&self, model: &GcnModel, g: &Graph) -> Vec<f64> {
        let n = g.num_nodes();
        let label = model.predict(g);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut scores = vec![0.0_f64; n];
        for v in 0..n {
            // draw all of v's coalitions first (same RNG stream as the old
            // one-at-a-time loop), then classify every with/without pair in
            // one block-diagonal batch of coalition views
            let samples = self.samples_per_node.max(1);
            let coalitions: Vec<Vec<NodeId>> =
                (0..samples).map(|_| self.sample_coalition(g, v, &mut rng)).collect();
            let mut views = Vec::with_capacity(2 * samples);
            for coalition in &coalitions {
                views.push(coalition_view(g, coalition));
                let without: Vec<NodeId> = coalition.iter().copied().filter(|&u| u != v).collect();
                views.push(coalition_view(g, &without));
            }
            let probs = model.predict_proba_batch(&views);
            let total: f64 = probs
                .chunks_exact(2)
                .map(|pair| pair[0][label] as f64 - pair[1][label] as f64)
                .sum();
            scores[v] = total / samples as f64;
        }
        scores
    }
}

fn neighbors(g: &Graph, v: NodeId) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = g.neighbors(v).map(|(u, _)| u).collect();
    if g.is_directed() {
        out.extend(g.in_neighbors(v).map(|(u, _)| u));
        out.sort_unstable();
        out.dedup();
    }
    out
}

/// Zero-copy view of the coalition's induced subgraph (sorted + deduped
/// selection, matching what `induced_subgraph` would materialize).
fn coalition_view<'g>(g: &'g Graph, nodes: &[NodeId]) -> gvex_graph::GraphRef<'g> {
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    g.view_of(&sorted)
}

impl Explainer for GStarX {
    fn name(&self) -> &'static str {
        "GStarX"
    }

    fn explain(&self, model: &GcnModel, g: &Graph, max_nodes: usize) -> NodeExplanation {
        if g.num_nodes() == 0 || max_nodes == 0 {
            return NodeExplanation::default();
        }
        let scores = self.node_scores(model, g);
        let mut ranked: Vec<NodeId> = (0..g.num_nodes()).collect();
        ranked.sort_by(|&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        ranked.truncate(max_nodes);
        NodeExplanation::new(ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::GcnConfig;

    fn graph(n: usize) -> Graph {
        let mut b = Graph::builder(false);
        for i in 0..n {
            b.add_node(0, &[(i % 2) as f32, 1.0]);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, 0);
        }
        b.build()
    }

    fn model() -> GcnModel {
        GcnModel::new(
            GcnConfig { input_dim: 2, hidden: 4, layers: 2, num_classes: 2 },
            &mut ChaCha8Rng::seed_from_u64(8),
        )
    }

    #[test]
    fn coalitions_are_connected_and_contain_seed() {
        let g = graph(8);
        let gx = GStarX::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for v in 0..8 {
            for _ in 0..5 {
                let c = gx.sample_coalition(&g, v, &mut rng);
                assert!(c.contains(&v));
                assert!(c.len() <= gx.max_coalition);
                let sub = g.induced_subgraph(&c);
                assert!(sub.graph.is_connected(), "coalition {c:?} disconnected");
            }
        }
    }

    #[test]
    fn scores_are_finite() {
        let g = graph(6);
        let m = model();
        let gx = GStarX { samples_per_node: 8, ..Default::default() };
        let scores = gx.node_scores(&m, &g);
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn respects_budget_and_deterministic() {
        let g = graph(7);
        let m = model();
        let gx = GStarX { samples_per_node: 6, seed: 3, ..Default::default() };
        let a = gx.explain(&m, &g, 3);
        let b = gx.explain(&m, &g, 3);
        assert_eq!(a, b);
        assert!(a.len() <= 3 && !a.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let m = model();
        let empty = Graph::builder(false).build();
        assert!(GStarX::default().explain(&m, &empty, 3).is_empty());
        let g = graph(3);
        assert!(GStarX::default().explain(&m, &g, 0).is_empty());
    }
}
