//! Enumeration of connected node subsets (the ESU algorithm of Wernicke,
//! adapted to arbitrary subset sizes).
//!
//! Every connected subset of size `1..=max_size` is produced exactly once,
//! which makes support counting well-defined: the support of a pattern is
//! the number of enumerated subsets whose induced subgraph is isomorphic to
//! it.

use gvex_graph::{Graph, NodeId};
use std::ops::ControlFlow;

/// Calls `cb` once per connected node subset of `g` with `1..=max_size`
/// nodes. Subsets are emitted in sorted order. `cb` may break to stop early.
pub fn connected_subsets(
    g: &Graph,
    max_size: usize,
    mut cb: impl FnMut(&[NodeId]) -> ControlFlow<()>,
) {
    if max_size == 0 {
        return;
    }
    let n = g.num_nodes();
    let mut current: Vec<NodeId> = Vec::with_capacity(max_size);
    for v in 0..n {
        current.push(v);
        // extension: neighbors of v greater than v
        let ext: Vec<NodeId> = undirected_neighbors(g, v).into_iter().filter(|&u| u > v).collect();
        let flow = extend(g, v, &mut current, ext, max_size, &mut cb);
        current.pop();
        if flow.is_break() {
            return;
        }
    }
}

fn undirected_neighbors(g: &Graph, v: NodeId) -> Vec<NodeId> {
    // For undirected graphs out- and in-lists are identical, so chaining
    // them would double every neighbor; only directed graphs need both.
    let mut nbrs: Vec<NodeId> = g.neighbors(v).map(|(u, _)| u).collect();
    if g.is_directed() {
        nbrs.extend(g.in_neighbors(v).map(|(u, _)| u));
        nbrs.sort_unstable();
        nbrs.dedup();
    }
    nbrs
}

fn extend(
    g: &Graph,
    root: NodeId,
    current: &mut Vec<NodeId>,
    ext: Vec<NodeId>,
    max_size: usize,
    cb: &mut impl FnMut(&[NodeId]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    {
        let mut sorted = current.clone();
        sorted.sort_unstable();
        cb(&sorted)?;
    }
    if current.len() == max_size {
        return ControlFlow::Continue(());
    }
    // ESU: pick each extension node w; the new extension set keeps the
    // remaining candidates beyond w plus *exclusive* new neighbors of w
    // (those > root and not adjacent to / part of the current subset).
    for (i, &w) in ext.iter().enumerate() {
        let mut new_ext: Vec<NodeId> = ext[i + 1..].to_vec();
        for u in undirected_neighbors(g, w) {
            if u > root
                && !current.contains(&u)
                && !ext.contains(&u)
                && !new_ext.contains(&u)
                && current.iter().all(|&c| !is_adjacent(g, u, c) || c == w)
            {
                // u is an exclusive neighbor: adjacent to w but to no other
                // current member (otherwise it was already in some ext set).
                if is_adjacent(g, u, w) {
                    new_ext.push(u);
                }
            }
        }
        current.push(w);
        extend(g, root, current, new_ext, max_size, cb)?;
        current.pop();
    }
    ControlFlow::Continue(())
}

fn is_adjacent(g: &Graph, a: NodeId, b: NodeId) -> bool {
    g.has_edge(a, b) || g.has_edge(b, a)
}

/// Convenience wrapper collecting all subsets (tests, small inputs).
pub fn collect_connected_subsets(g: &Graph, max_size: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    connected_subsets(g, max_size, |s| {
        out.push(s.to_vec());
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn g(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut b = Graph::builder(false);
        for _ in 0..n {
            b.add_node(0, &[]);
        }
        for &(u, v) in edges {
            b.add_edge(u, v, 0);
        }
        b.build()
    }

    /// Brute-force reference: all connected subsets via powerset check.
    fn brute(gr: &Graph, max: usize) -> HashSet<Vec<usize>> {
        let n = gr.num_nodes();
        let mut out = HashSet::new();
        for mask in 1u32..(1 << n) {
            let set: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            if set.len() > max {
                continue;
            }
            if gr.induced_subgraph(&set).graph.is_connected() {
                out.insert(set);
            }
        }
        out
    }

    #[test]
    fn matches_bruteforce_on_path() {
        let gr = g(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for max in 1..=5 {
            let got: HashSet<Vec<usize>> =
                collect_connected_subsets(&gr, max).into_iter().collect();
            assert_eq!(got, brute(&gr, max), "max={max}");
        }
    }

    #[test]
    fn matches_bruteforce_on_triangle_plus_tail() {
        let gr = g(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        for max in 1..=5 {
            let got: HashSet<Vec<usize>> =
                collect_connected_subsets(&gr, max).into_iter().collect();
            assert_eq!(got, brute(&gr, max), "max={max}");
        }
    }

    #[test]
    fn matches_bruteforce_on_star() {
        let gr = g(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        for max in 1..=4 {
            let got: HashSet<Vec<usize>> =
                collect_connected_subsets(&gr, max).into_iter().collect();
            assert_eq!(got, brute(&gr, max), "max={max}");
        }
    }

    #[test]
    fn no_duplicates_emitted() {
        let gr = g(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let all = collect_connected_subsets(&gr, 4);
        let set: HashSet<Vec<usize>> = all.iter().cloned().collect();
        assert_eq!(all.len(), set.len(), "duplicate subsets found");
    }

    #[test]
    fn disconnected_graph_subsets_stay_within_components() {
        let gr = g(4, &[(0, 1), (2, 3)]);
        let all = collect_connected_subsets(&gr, 4);
        assert!(all.iter().all(|s| {
            !(s.contains(&0) || s.contains(&1)) || !(s.contains(&2) || s.contains(&3))
        }));
        // singletons + 2 edges
        assert_eq!(all.len(), 4 + 2);
    }

    #[test]
    fn early_break_stops_enumeration() {
        let gr = g(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut count = 0;
        connected_subsets(&gr, 3, |_| {
            count += 1;
            if count == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn max_size_zero_emits_nothing() {
        let gr = g(3, &[(0, 1)]);
        assert!(collect_connected_subsets(&gr, 0).is_empty());
    }
}
