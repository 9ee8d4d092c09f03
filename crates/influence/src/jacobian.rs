//! Influence-matrix construction: three routes to `I₂` (Eqs. 3–4).

use gvex_gnn::propagation::NormAdj;
use gvex_gnn::{ForwardTrace, GcnModel};
use gvex_graph::{Graph, GraphRef};
use gvex_linalg::kernels::accumulate_row_sum;
use gvex_linalg::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// How to estimate the expected-Jacobian influence scores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum InfluenceMode {
    /// Row-normalized `Ã^k` — exactly the expected Jacobian of a `k`-layer
    /// ReLU GCN up to a per-row constant that `I₂`'s normalization cancels
    /// (Xu et al., ICML'18). Cost `O(k·|E|·|V|)`; the default.
    Expected,
    /// The realized Jacobian under the trained weights and actual ReLU
    /// gates, via forward-mode propagation of per-(node, feature) seeds.
    /// Cost `O(|V|·D·k·(|E|·h + |V|·h²))` — the expensive exact option used
    /// for validation and the ablation bench. Seeds propagate in batches
    /// ([`realized`]) rather than one at a time.
    Realized,
    /// Monte-Carlo random-walk estimate with the given number of walks per
    /// node — the paper's technique for its largest graphs (§6.2).
    MonteCarlo {
        /// Walks sampled per source node.
        walks: u32,
    },
    /// The paper's overall strategy: the exact Jacobian where affordable
    /// (it is the `O(|V|³)` precompute of Theorem 4.1), falling back to the
    /// walk-based surrogate on large graphs (§6.2's optimization for
    /// PRO/SYN). The switch happens at `|V|·D` forward-mode seeds > 2048 or
    /// `|V|` > 256.
    #[default]
    Auto,
}

/// Computes the row-stochastic influence matrix `I₂`, with `I₂[(v, u)]`
/// the normalized influence of `u` on `v` (Eq. 4). Every row sums to 1
/// (rows of isolated nodes concentrate on the self-loop).
///
/// `rng` is only consulted in [`InfluenceMode::MonteCarlo`].
///
/// `g` is a `&Graph` or a borrowed [`GraphRef`] view; the expected and
/// realized routes consume the view zero-copy.
pub fn influence_matrix<'a>(
    model: &GcnModel,
    g: impl Into<GraphRef<'a>>,
    mode: InfluenceMode,
    rng: &mut impl Rng,
) -> Matrix {
    let g = g.into();
    let k = model.config().layers;
    match mode {
        InfluenceMode::Expected => expected(&g, k),
        InfluenceMode::Realized => realized(model, &g),
        InfluenceMode::MonteCarlo { walks } => monte_carlo(&g.as_graph(), k, walks, rng),
        InfluenceMode::Auto => {
            if auto_prefers_realized(model, &g) {
                realized(model, &g)
            } else {
                expected(&g, k)
            }
        }
    }
}

/// Like [`influence_matrix`] but reusing an existing forward `trace` of `g`
/// (its propagation operator and ReLU gates), so call sites that already
/// ran inference — the explain pipeline always has — don't pay for another
/// forward pass in the realized-Jacobian modes.
pub fn influence_matrix_with_trace<'a>(
    model: &GcnModel,
    g: impl Into<GraphRef<'a>>,
    trace: &ForwardTrace,
    mode: InfluenceMode,
    rng: &mut impl Rng,
) -> Matrix {
    let g = g.into();
    let k = model.config().layers;
    match mode {
        InfluenceMode::Expected => expected(&g, k),
        InfluenceMode::Realized => realized_with_trace(model, &g, trace),
        InfluenceMode::MonteCarlo { walks } => monte_carlo(&g.as_graph(), k, walks, rng),
        InfluenceMode::Auto => {
            if auto_prefers_realized(model, &g) {
                realized_with_trace(model, &g, trace)
            } else {
                expected(&g, k)
            }
        }
    }
}

/// [`InfluenceMode::Auto`]'s switch: the exact Jacobian where affordable.
fn auto_prefers_realized(model: &GcnModel, g: &GraphRef<'_>) -> bool {
    let seeds = g.num_nodes() * model.config().input_dim;
    g.num_nodes() <= 256 && seeds <= 2048
}

/// Row-normalizes `m` in place; all-zero rows become the indicator of the
/// diagonal entry (a node always influences itself).
fn normalize_rows(mut m: Matrix) -> Matrix {
    for v in 0..m.rows() {
        let sum: f32 = m.row(v).iter().map(|x| x.abs()).sum();
        if sum > 0.0 {
            for x in m.row_mut(v) {
                *x = x.abs() / sum;
            }
        } else {
            m[(v, v)] = 1.0;
        }
    }
    m
}

fn expected(g: &GraphRef<'_>, k: usize) -> Matrix {
    let n = g.num_nodes();
    let adj = NormAdj::new(g);
    // R = Ã^k computed as k sparse-dense products against I.
    let mut r = Matrix::identity(n);
    for _ in 0..k {
        r = adj.matmul(&r);
    }
    normalize_rows(r)
}

/// Seeds propagated per batch by [`realized`]. Bounds peak memory at
/// `SEED_BATCH · |V| · max(D, h)` floats and keeps each batch's working set
/// cache-sized regardless of `|V|·D`.
const SEED_BATCH: usize = 32;

/// Realized-Jacobian influence via **batched** forward-mode propagation.
///
/// All `|V|·D` seeds — or [`SEED_BATCH`] of them at a time — are stacked as
/// consecutive `n`-row blocks of one tall matrix, so each GCN layer becomes
/// one dense product against the shared layer weight, one blocked sparse
/// product, and one ReLU-gating sweep, instead of `|V|·D` separate small
/// propagations. A seed's derivative block is moreover zero outside the
/// seed node's `l`-hop neighbourhood after `l` layers, and those
/// neighbourhoods are precomputed once per call ([`hop_supports`]), so
/// every stage touches only its live rows — no per-call sparsity census,
/// no zeroing of rows that stay dead. Numerically this agrees with
/// [`realized_reference`] to FMA/reassociation rounding (≪ 1e-5; pinned by
/// the differential property tests), and the result is independent of the
/// rayon thread count (blocks are single-writer with a fixed per-row
/// accumulation order).
pub fn realized<'a>(model: &GcnModel, g: impl Into<GraphRef<'a>>) -> Matrix {
    let g = g.into();
    let trace = model.forward(&g);
    realized_with_trace(model, &g, &trace)
}

/// Per-node hop neighbourhoods of the propagation operator:
/// `out[l][u]` is the sorted list of nodes reachable from `u` in at most
/// `l` steps of `adj` (self-loops included), for `l = 0 ..= k`. This is the
/// exact support of `∂X^l/∂X_u` — the rows the batched Jacobian computes.
fn hop_supports(adj: &NormAdj, k: usize) -> Vec<Vec<Vec<usize>>> {
    let n = adj.len();
    let mut hops: Vec<Vec<Vec<usize>>> = Vec::with_capacity(k + 1);
    hops.push((0..n).map(|u| vec![u]).collect());
    let mut seen = vec![false; n];
    for l in 0..k {
        let next: Vec<Vec<usize>> = (0..n)
            .map(|u| {
                let mut grown = Vec::new();
                for &w in &hops[l][u] {
                    for &(v, _) in adj.row(w) {
                        if !seen[v] {
                            seen[v] = true;
                            grown.push(v);
                        }
                    }
                }
                grown.sort_unstable();
                for &v in &grown {
                    seen[v] = false;
                }
                grown
            })
            .collect();
        hops.push(next);
    }
    hops
}

/// [`realized`] reusing a precomputed forward trace of `g`.
pub fn realized_with_trace<'a>(
    model: &GcnModel,
    g: impl Into<GraphRef<'a>>,
    trace: &ForwardTrace,
) -> Matrix {
    gvex_obs::span!("influence.realized");
    let n = g.into().num_nodes();
    let d = model.config().input_dim;
    if n == 0 || d == 0 {
        return normalize_rows(Matrix::zeros(n, n));
    }
    let adj = &*trace.adj;
    let k = model.config().layers;
    let hops = hop_supports(adj, k);
    // membership[l][u] = bool mask of hops[l][u]; filters neighbour gathers
    // so rows of the unzeroed scratch that layer `l` never computed are
    // never read.
    let membership: Vec<Vec<Vec<bool>>> = hops[..k]
        .iter()
        .map(|per_node| {
            per_node
                .iter()
                .map(|sup| {
                    let mut mask = vec![false; n];
                    for &v in sup {
                        mask[v] = true;
                    }
                    mask
                })
                .collect()
        })
        .collect();

    // ReLU gate masks per layer.
    let gates: Vec<Matrix> =
        trace.pre.iter().map(|z| z.map(|x| if x > 0.0 { 1.0 } else { 0.0 })).collect();

    let mut i1 = Matrix::zeros(n, n); // i1[(v, u)] = ‖∂X_v^k/∂X_u^0‖₁
    let total_seeds = n * d;
    // One adaptive decision for every stage of every batch: a full batch
    // touches ~ batch · n · h² scalars per layer. Tiny graphs run all
    // stages on the calling thread; the per-block kernels are identical
    // either way, so the choice cannot change any bit of the result.
    let h_max = (0..k).map(|l| model.conv_weight(l).cols()).max().unwrap_or(1);
    let fan_out = rayon::should_fan_out(SEED_BATCH.min(total_seeds) * n * h_max * h_max * k);
    let mut first_seed = 0;
    // Three scratch matrices ping-pong across every layer of every batch,
    // reusing their allocations. Entries outside each block's hop support
    // are stale garbage from earlier batches — the support lists and
    // membership masks guarantee they are never read.
    let mut t = Matrix::zeros(0, 0);
    let mut propagated = Matrix::zeros(0, 0);
    let mut z = Matrix::zeros(0, 0);
    while first_seed < total_seeds {
        let batch = SEED_BATCH.min(total_seeds - first_seed);
        gvex_obs::counter!("influence.jacobian.seed_batches");
        gvex_obs::counter!("influence.jacobian.seeds", batch as u64);
        gvex_obs::histogram!("influence.jacobian.batch_seeds", batch as u64);
        let seed_node = |b: usize| (first_seed + b) / d;
        // seed s = u·d + dim starts as the block e_u e_dimᵀ; only the seed
        // row needs defined contents at layer 0.
        t.reset_reused(batch * n, d);
        for b in 0..batch {
            let s = first_seed + b;
            let row = t.row_mut(b * n + s / d);
            row.fill(0.0);
            row[s % d] = 1.0;
        }
        for layer in 0..k {
            let w = model.conv_weight(layer);
            let h = w.cols();
            // Dense stage: Z = T·W on each block's l-hop support rows,
            // with the reference kernel's per-element zero skip (gating
            // zeroes about half of every live row).
            z.reset_reused(batch * n, h);
            {
                let t_src = t.as_slice();
                let t_cols = t.cols();
                let dense_stage = |(b, chunk): (usize, &mut [f32])| {
                    let mut terms: Vec<(usize, f32)> = Vec::new();
                    for &u in &hops[layer][seed_node(b)] {
                        let t_row = &t_src[(b * n + u) * t_cols..(b * n + u + 1) * t_cols];
                        // gating zeroes about half of every live row; skip
                        // the dead entries exactly like the reference kernel
                        terms.clear();
                        terms.extend(
                            t_row
                                .iter()
                                .enumerate()
                                .filter(|&(_, &a)| a != 0.0)
                                .map(|(kk, &a)| (kk, a)),
                        );
                        accumulate_row_sum(&mut chunk[u * h..(u + 1) * h], w.as_slice(), &terms, h);
                    }
                };
                if fan_out {
                    z.as_mut_slice().par_chunks_mut(n * h).enumerate().for_each(dense_stage);
                } else {
                    for pair in z.as_mut_slice().chunks_mut(n * h).enumerate() {
                        dense_stage(pair);
                    }
                }
            }
            // Sparse + gate stage: P = gate ⊙ (Ã·Z), computed only on the
            // (l+1)-hop support rows, gathering only in-support neighbours.
            propagated.reset_reused(batch * n, h);
            {
                let z_src = z.as_slice();
                let gate = &gates[layer];
                let sparse_stage = |(b, chunk): (usize, &mut [f32])| {
                    let node = seed_node(b);
                    let mask = &membership[layer][node];
                    let z_block = &z_src[b * n * h..(b + 1) * n * h];
                    let mut terms: Vec<(usize, f32)> = Vec::new();
                    for &u in &hops[layer + 1][node] {
                        terms.clear();
                        terms.extend(adj.row(u).iter().filter(|&&(v, _)| mask[v]));
                        let out_row = &mut chunk[u * h..(u + 1) * h];
                        accumulate_row_sum(out_row, z_block, &terms, h);
                        for (o, &gv) in out_row.iter_mut().zip(gate.row(u)) {
                            *o *= gv;
                        }
                    }
                };
                if fan_out {
                    propagated
                        .as_mut_slice()
                        .par_chunks_mut(n * h)
                        .enumerate()
                        .for_each(sparse_stage);
                } else {
                    for pair in propagated.as_mut_slice().chunks_mut(n * h).enumerate() {
                        sparse_stage(pair);
                    }
                }
            }
            std::mem::swap(&mut t, &mut propagated);
        }
        for b in 0..batch {
            let u = seed_node(b);
            for &v in &hops[k][u] {
                i1[(v, u)] += t.row_l1(b * n + v);
            }
        }
        first_seed += batch;
    }
    normalize_rows(i1)
}

/// The original seed-at-a-time realized Jacobian, kept as the reference
/// implementation the batched [`realized`] is differentially tested and
/// benchmarked against. Its dense products are pinned to the retained
/// [`Matrix::matmul_reference`] kernel so this function keeps measuring the
/// seed implementation as it was, regardless of how `Matrix::matmul`
/// evolves.
#[allow(clippy::needless_range_loop)] // layer index parallels gates/pre/weights
pub fn realized_reference(model: &GcnModel, g: &Graph) -> Matrix {
    let n = g.num_nodes();
    let d = model.config().input_dim;
    let trace = model.forward(g);
    let adj = &*trace.adj;
    let k = model.config().layers;

    // ReLU gate masks per layer.
    let gates: Vec<Matrix> =
        trace.pre.iter().map(|z| z.map(|x| if x > 0.0 { 1.0 } else { 0.0 })).collect();

    let mut i1 = Matrix::zeros(n, n); // i1[(v, u)] = ‖∂X_v^k/∂X_u^0‖₁
                                      // forward-mode: seed ∂X/∂X_u[d] = e_u e_dᵀ and push through the layers.
    for u in 0..n {
        for dim in 0..d {
            let mut t = Matrix::zeros(n, d);
            t[(u, dim)] = 1.0;
            for layer in 0..k {
                let propagated = adj.matmul(&t);
                let z = propagated.matmul_reference(model.conv_weight(layer));
                t = z.hadamard(&gates[layer]);
            }
            for v in 0..n {
                i1[(v, u)] += t.row_l1(v);
            }
        }
    }
    normalize_rows(i1)
}

fn monte_carlo(g: &Graph, k: usize, walks: u32, rng: &mut impl Rng) -> Matrix {
    let n = g.num_nodes();
    // One independently seeded stream per source node, derived serially from
    // the caller's RNG: source nodes then fan out across rayon workers
    // without contending for (or reordering draws from) a shared generator,
    // and the result is identical for any thread count.
    let streams: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let walk_rows = |(v, stream): (usize, u64)| {
        let mut rng = SmallRng::seed_from_u64(stream);
        let mut row = vec![0.0f32; n];
        // Walk on the self-looped, symmetrized graph (the GCN's
        // receptive field).
        for _ in 0..walks.max(1) {
            let mut cur = v;
            for _ in 0..k {
                // neighbors + self loop, uniform choice
                // (degree-proportional approximation of Ã's support).
                let out = g.neighbors(cur);
                let inn = if g.is_directed() { g.in_neighbors(cur) } else { &[] };
                let deg = out.len() + inn.len();
                let pick = rng.gen_range(0..=deg);
                cur = if pick == deg {
                    cur // self loop
                } else if pick < out.len() {
                    out[pick].0
                } else {
                    inn[pick - out.len()].0
                };
            }
            row[cur] += 1.0;
        }
        row
    };
    // ~ one RNG draw + one neighbor index per walk step, per source node
    let rows: Vec<Vec<f32>> = if rayon::should_fan_out(n * walks.max(1) as usize * k * 8) {
        streams.into_par_iter().enumerate().map(walk_rows).collect()
    } else {
        streams.into_iter().enumerate().map(walk_rows).collect()
    };
    let mut counts = Matrix::zeros(n, n);
    for (v, row) in rows.iter().enumerate() {
        counts.set_row(v, row);
    }
    normalize_rows(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvex_gnn::GcnConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn path(n: usize, d: usize) -> Graph {
        let mut b = Graph::builder(false);
        for i in 0..n {
            let mut f = vec![0.0; d];
            f[i % d] = 1.0;
            b.add_node(0, &f);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, 0);
        }
        b.build()
    }

    fn model(layers: usize, d: usize) -> GcnModel {
        let cfg = GcnConfig { input_dim: d, hidden: 6, layers, num_classes: 2 };
        GcnModel::new(cfg, &mut ChaCha8Rng::seed_from_u64(5))
    }

    #[test]
    fn expected_rows_are_stochastic() {
        let g = path(6, 2);
        let m = model(3, 2);
        let inf =
            influence_matrix(&m, &g, InfluenceMode::Expected, &mut ChaCha8Rng::seed_from_u64(0));
        for v in 0..6 {
            let s: f32 = inf.row(v).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {v} sums to {s}");
            assert!(inf.row(v).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn expected_influence_decays_with_distance() {
        let g = path(7, 2);
        let m = model(2, 2);
        let inf =
            influence_matrix(&m, &g, InfluenceMode::Expected, &mut ChaCha8Rng::seed_from_u64(0));
        // node 0's influence on node 3 (distance 3 > k=2) must be zero,
        // on node 1 positive and larger than on node 2.
        assert_eq!(inf[(3, 0)], 0.0);
        assert!(inf[(1, 0)] > inf[(2, 0)]);
        assert!(inf[(2, 0)] > 0.0);
    }

    #[test]
    fn realized_agrees_with_expected_support() {
        // realized Jacobian must vanish outside the k-hop neighborhood too
        let g = path(7, 2);
        let m = model(2, 2);
        let inf =
            influence_matrix(&m, &g, InfluenceMode::Realized, &mut ChaCha8Rng::seed_from_u64(0));
        assert_eq!(inf[(4, 0)], 0.0);
        for v in 0..7 {
            let s: f32 = inf.row(v).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    /// The batched propagation must reproduce the seed-at-a-time reference
    /// on shapes that exercise partial batches and uneven dims.
    #[test]
    fn batched_realized_matches_reference() {
        for &(n, d, layers) in &[(1, 1, 1), (5, 3, 2), (9, 2, 3)] {
            let g = path(n, d);
            let m = model(layers, d);
            let batched = realized(&m, &g);
            let per_seed = realized_reference(&m, &g);
            assert_eq!(batched.shape(), per_seed.shape());
            for (x, y) in batched.as_slice().iter().zip(per_seed.as_slice()) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "batched Jacobian diverged at n={n} d={d} k={layers}: {x} vs {y}"
                );
            }
        }
    }

    /// The realized Jacobian must match central finite differences of the
    /// actual network output w.r.t. an input feature entry (up to the L1
    /// aggregation): spot-check one (v, u) pair's sensitivity ordering.
    #[test]
    fn realized_matches_finite_difference() {
        let g = path(4, 2);
        let m = model(2, 2);
        // analytic: unnormalized L1 via realized(); recompute here directly
        let inf = realized(&m, &g);
        // finite difference of sum|X_v^k| wrt X_u feature 0:
        let eps = 1e-2_f32;
        let u = 0usize;
        let v = 1usize;
        let adj = gvex_gnn::propagation::NormAdj::new(&g);
        let perturb = |delta: f32| {
            let mut x = g.features().clone();
            x[(u, 0)] += delta;
            let t = m.forward_from_features(x, adj.clone());
            t.embeddings().row(v).to_vec()
        };
        let plus = perturb(eps);
        let minus = perturb(-eps);
        let fd: f32 = plus.iter().zip(&minus).map(|(p, q)| ((p - q) / (2.0 * eps)).abs()).sum();
        // realized() normalizes rows, so compare *signs of presence* only:
        assert_eq!(fd > 1e-4, inf[(v, u)] > 1e-6, "fd {fd} vs inf {}", inf[(v, u)]);
    }

    #[test]
    fn monte_carlo_rows_stochastic_and_local() {
        let g = path(8, 2);
        let m = model(2, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let inf = influence_matrix(&m, &g, InfluenceMode::MonteCarlo { walks: 200 }, &mut rng);
        for v in 0..8 {
            let s: f32 = inf.row(v).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        // walks of length 2 cannot reach distance 3+
        assert_eq!(inf[(0, 5)], 0.0);
    }

    #[test]
    fn isolated_node_self_influence() {
        let mut b = Graph::builder(false);
        b.add_node(0, &[1.0]);
        b.add_node(0, &[1.0]);
        let g = b.build();
        let m = model(2, 1);
        let inf =
            influence_matrix(&m, &g, InfluenceMode::Expected, &mut ChaCha8Rng::seed_from_u64(0));
        assert!((inf[(0, 0)] - 1.0).abs() < 1e-6);
        assert_eq!(inf[(0, 1)], 0.0);
    }
}
