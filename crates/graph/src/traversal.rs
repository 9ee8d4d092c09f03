//! Traversal helpers shared by the explainers: BFS with distances, shortest
//! paths, and connectivity-preserving node orderings.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// BFS distances from `start`, ignoring edge direction.
/// Unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &Graph, start: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u).chain(g.in_neighbors(u)) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// A BFS order over the whole graph starting from `start` and restarting at
/// the lowest unvisited id at each new component. Every prefix of the order
/// that stays within one component induces a connected subgraph — the
/// property the streaming algorithm's node stream (§5) relies on for
/// building connected explanation subgraphs early.
pub fn bfs_order(g: &Graph, start: NodeId) -> Vec<NodeId> {
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let push = |v: NodeId, seen: &mut Vec<bool>, queue: &mut VecDeque<NodeId>| {
        if !seen[v] {
            seen[v] = true;
            queue.push_back(v);
        }
    };
    if n == 0 {
        return order;
    }
    push(start.min(n - 1), &mut seen, &mut queue);
    let mut next_restart = 0;
    loop {
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for (v, _) in g.neighbors(u).chain(g.in_neighbors(u)) {
                push(v, &mut seen, &mut queue);
            }
        }
        while next_restart < n && seen[next_restart] {
            next_restart += 1;
        }
        if next_restart == n {
            break;
        }
        push(next_restart, &mut seen, &mut queue);
    }
    order
}

/// Eccentricity-ish diameter estimate: the largest BFS distance found from a
/// small sample of start nodes. Exact on trees from a double-sweep; good
/// enough for dataset statistics.
pub fn approx_diameter(g: &Graph) -> usize {
    if g.is_empty() {
        return 0;
    }
    let d0 = bfs_distances(g, 0);
    let (far, best) = d0
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != usize::MAX)
        .max_by_key(|&(_, &d)| d)
        .map(|(i, &d)| (i, d))
        .unwrap_or((0, 0));
    let d1 = bfs_distances(g, far);
    d1.iter().filter(|&&d| d != usize::MAX).max().copied().unwrap_or(0).max(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path(n: usize) -> Graph {
        let mut b = Graph::builder(false);
        for _ in 0..n {
            b.add_node(0, &[]);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, 0);
        }
        b.build()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(4);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_distance_unreachable() {
        let mut b = Graph::builder(false);
        b.add_node(0, &[]);
        b.add_node(0, &[]);
        let g = b.build();
        assert_eq!(bfs_distances(&g, 0), vec![0, usize::MAX]);
    }

    #[test]
    fn bfs_order_visits_all_nodes_once() {
        let g = path(5);
        let order = bfs_order(&g, 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_eq!(order[0], 2);
    }

    #[test]
    fn bfs_order_covers_disconnected_components() {
        let mut b = Graph::builder(false);
        for _ in 0..4 {
            b.add_node(0, &[]);
        }
        b.add_edge(0, 1, 0);
        b.add_edge(2, 3, 0);
        let g = b.build();
        let order = bfs_order(&g, 3);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], 3);
    }

    #[test]
    fn bfs_order_empty_graph() {
        let g = Graph::builder(false).build();
        assert!(bfs_order(&g, 0).is_empty());
    }

    #[test]
    fn diameter_of_path() {
        assert_eq!(approx_diameter(&path(6)), 5);
        assert_eq!(approx_diameter(&path(1)), 0);
        assert_eq!(approx_diameter(&Graph::builder(false).build()), 0);
    }
}
