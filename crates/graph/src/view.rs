//! Borrowed, zero-copy views over a parent graph's node subset.
//!
//! The explanation hot loops repeatedly score candidate selections by
//! running inference on the induced subgraph `G[Vs]` and its complement
//! `G \ Gs`. Materializing each of those as an owned [`Graph`] copies the
//! adjacency and the feature matrix per candidate; a [`GraphRef`] instead
//! carries the parent's borrowed [`CsrGraph`] plus an id remapping (two
//! `Vec`s of node ids), and consumers — GCN propagation, the Jacobian entry
//! points, the match targets — iterate the parent's adjacency through the
//! mapping.
//!
//! The parent is always a [`CsrGraph`]: an owned [`Graph`] lends one through
//! [`Graph::csr`], a memory-mapped `.gvex` store lends one per stored graph,
//! and both reach every consumer through the very same code paths.
//!
//! Ownership rules:
//!
//! * a `GraphRef` never outlives its parent (`'a` is the lifetime of the
//!   borrowed CSR slices — the owned graph, or the mapped bytes);
//! * the node table is *interned at construction*: duplicates collapse to
//!   their first occurrence and the selection order defines the view's node
//!   ids;
//! * [`GraphRef::to_graph`] is the one induction path: it builds the owned
//!   subgraph's CSR rows straight from the parent's rows, and
//!   [`Graph::induced_subgraph`] / [`Graph::remove_nodes`] are this
//!   materialization of [`Graph::view_of`] / [`Graph::view_without`].

use crate::csr::{CsrAdjacency, CsrGraph, CsrNeighbors};
use crate::graph::{EdgeTypeId, Graph, InducedSubgraph, NodeId, NodeTypeId, Rows};
use gvex_linalg::Matrix;

/// A borrowed view of a (sub)set of a parent graph's nodes, with edges
/// restricted to the retained nodes. Cheap to construct and clone: the
/// full-graph view holds nothing but the parent's slices, and a subset
/// view adds two id-mapping vectors.
#[derive(Clone, Debug)]
pub struct GraphRef<'a> {
    parent: CsrGraph<'a>,
    sel: Selection,
}

#[derive(Clone, Debug)]
enum Selection {
    /// Every node of the parent, ids unchanged.
    Full,
    /// A node subset; selection order defines the view's node ids.
    Induced {
        /// `old_of_new[new_id] = old_id` in the parent graph.
        old_of_new: Vec<NodeId>,
        /// `new_of_old[old_id] = new_id`, or `usize::MAX` for dropped nodes.
        new_of_old: Vec<NodeId>,
    },
}

impl Selection {
    /// Interns `nodes` against a parent of `parent_nodes` nodes:
    /// duplicates collapse to their first occurrence, order defines the
    /// new ids.
    fn induced(parent_nodes: usize, nodes: &[NodeId]) -> Self {
        let mut old_of_new = Vec::with_capacity(nodes.len());
        let mut new_of_old = vec![usize::MAX; parent_nodes];
        for &v in nodes {
            assert!(v < parent_nodes, "node {v} out of range");
            if new_of_old[v] == usize::MAX {
                new_of_old[v] = old_of_new.len();
                old_of_new.push(v);
            }
        }
        Selection::Induced { old_of_new, new_of_old }
    }

    /// Every parent node *not* in `removed`, in ascending id order.
    fn complement(parent_nodes: usize, removed: &[NodeId]) -> Self {
        let mut keep = vec![true; parent_nodes];
        for &v in removed {
            assert!(v < parent_nodes, "node {v} out of range");
            keep[v] = false;
        }
        let kept: Vec<NodeId> = (0..parent_nodes).filter(|&v| keep[v]).collect();
        Self::induced(parent_nodes, &kept)
    }
}

impl<'a> GraphRef<'a> {
    /// The full-graph view (identity mapping, allocation-free) over an
    /// owned `&Graph` or a borrowed [`CsrGraph`] — the latter is how a
    /// memory-mapped database graph enters the inference pipeline.
    pub fn full(parent: impl Into<CsrGraph<'a>>) -> Self {
        Self { parent: parent.into(), sel: Selection::Full }
    }

    /// The view induced by `nodes` (order defines the view's ids;
    /// duplicates are ignored after the first occurrence).
    pub fn induced(parent: impl Into<CsrGraph<'a>>, nodes: &[NodeId]) -> Self {
        let parent = parent.into();
        Self { sel: Selection::induced(parent.num_nodes(), nodes), parent }
    }

    /// The complement view `G \ Gs`: every node *not* in `removed`, in
    /// ascending id order (the counterfactual test input).
    pub fn complement(parent: impl Into<CsrGraph<'a>>, removed: &[NodeId]) -> Self {
        let parent = parent.into();
        Self { sel: Selection::complement(parent.num_nodes(), removed), parent }
    }

    /// True when the view covers every parent node with unchanged ids.
    #[inline]
    pub fn is_full(&self) -> bool {
        matches!(self.sel, Selection::Full)
    }

    /// Number of nodes in the view.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        match &self.sel {
            Selection::Full => self.parent.num_nodes(),
            Selection::Induced { old_of_new, .. } => old_of_new.len(),
        }
    }

    /// True when the view has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes() == 0
    }

    /// Whether edges are directed (inherited from the parent).
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.parent.is_directed()
    }

    /// Feature dimensionality `D` (inherited from the parent).
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.parent.feature_dim()
    }

    /// Maps a view node id to the parent graph.
    #[inline]
    pub fn to_parent(&self, v: NodeId) -> NodeId {
        match &self.sel {
            Selection::Full => v,
            Selection::Induced { old_of_new, .. } => old_of_new[v],
        }
    }

    /// Maps a parent node id into the view, if retained.
    #[inline]
    pub fn from_parent(&self, old: NodeId) -> Option<NodeId> {
        match &self.sel {
            Selection::Full => (old < self.parent.num_nodes()).then_some(old),
            Selection::Induced { new_of_old, .. } => match new_of_old.get(old) {
                Some(&v) if v != usize::MAX => Some(v),
                _ => None,
            },
        }
    }

    /// The type `L(v)` of a view node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.parent.node_type(self.to_parent(v))
    }

    /// The feature row of a view node (borrowed from the parent's storage).
    #[inline]
    pub fn feature_row(&self, v: NodeId) -> &'a [f32] {
        self.parent.feature_row(self.to_parent(v))
    }

    /// Out-neighbors of view node `v` in view id space, with edge types.
    /// For subset views, parent neighbors outside the view are skipped;
    /// order follows the parent's (old-id-sorted) adjacency.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors { iter: self.parent.neighbors(self.to_parent(v)), view: self }
    }

    /// In-neighbors of view node `v` in view id space, with edge types.
    pub fn in_neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors { iter: self.parent.in_neighbors(self.to_parent(v)), view: self }
    }

    /// Returns the type of the edge `u → v` (view ids) if present.
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeTypeId> {
        self.parent.edge_type(self.to_parent(u), self.to_parent(v))
    }

    /// The view's feature matrix as an owned `|view| × D` gather of the
    /// parent rows (a plain copy for the full view). Row contents are
    /// bitwise copies, so inference over the view reproduces inference over
    /// the materialized subgraph exactly.
    pub fn features_matrix(&self) -> Matrix {
        let p = self.parent;
        match &self.sel {
            Selection::Full => {
                Matrix::from_vec(p.num_nodes(), p.feature_dim(), p.features().to_vec())
            }
            Selection::Induced { old_of_new, .. } => {
                let mut m = Matrix::zeros(old_of_new.len(), p.feature_dim());
                for (new, &old) in old_of_new.iter().enumerate() {
                    m.set_row(new, p.feature_row(old));
                }
                m
            }
        }
    }

    /// Materializes the view as an owned [`Graph`]: slice copies for the
    /// full view; for a subset view, each retained node's parent row is
    /// filtered, renumbered and re-sorted — the one induction path.
    pub fn to_graph(&self) -> Graph {
        let Selection::Induced { old_of_new, new_of_old } = &self.sel else {
            return self.parent.to_graph();
        };
        let rows = |adj: CsrAdjacency<'_>| {
            let mut entries = Vec::new();
            for (new_u, &old_u) in old_of_new.iter().enumerate() {
                let (targets, etypes) = adj.row(old_u);
                for (&old_v, &t) in targets.iter().zip(etypes) {
                    let new_v = new_of_old[old_v as usize];
                    if new_v != usize::MAX {
                        entries.push((new_u as u32, new_v as u32, t));
                    }
                }
            }
            Rows::from_entries(old_of_new.len(), entries)
        };
        let p = self.parent;
        Graph {
            directed: p.directed,
            node_types: old_of_new.iter().map(|&old| p.node_type(old)).collect(),
            features: self.features_matrix(),
            out: rows(p.out),
            inn: if p.directed { rows(p.inn) } else { Rows::default() },
        }
    }

    /// Materializes a subset view together with its id mappings.
    pub(crate) fn into_induced(self) -> InducedSubgraph {
        let graph = self.to_graph();
        let Selection::Induced { old_of_new, new_of_old } = self.sel else {
            unreachable!("only subset views are induced")
        };
        InducedSubgraph { graph, old_of_new, new_of_old }
    }

    /// Runs `f` over the view as a plain [`CsrGraph`]: the parent itself for
    /// the full view (free), a materialized copy for a subset view. For code
    /// that needs random access to whole rows (VF2 targets, random walks).
    pub fn with_csr<R>(&self, f: impl FnOnce(CsrGraph<'_>) -> R) -> R {
        match self.sel {
            Selection::Full => f(self.parent),
            Selection::Induced { .. } => f(self.to_graph().csr()),
        }
    }
}

impl<'a> From<&'a Graph> for GraphRef<'a> {
    fn from(g: &'a Graph) -> Self {
        GraphRef::full(g)
    }
}

impl<'a> From<CsrGraph<'a>> for GraphRef<'a> {
    fn from(c: CsrGraph<'a>) -> Self {
        GraphRef::full(c)
    }
}

impl<'a> From<&GraphRef<'a>> for GraphRef<'a> {
    fn from(v: &GraphRef<'a>) -> Self {
        v.clone()
    }
}

/// Iterator over a view node's neighbors, filtering and remapping the
/// parent adjacency on the fly.
pub struct Neighbors<'v> {
    iter: CsrNeighbors<'v>,
    view: &'v GraphRef<'v>,
}

impl Iterator for Neighbors<'_> {
    type Item = (NodeId, EdgeTypeId);

    fn next(&mut self) -> Option<Self::Item> {
        for (old, t) in self.iter.by_ref() {
            if let Some(new) = self.view.from_parent(old) {
                return Some((new, t));
            }
        }
        None
    }
}

impl Graph {
    /// The full-graph zero-copy view of `self`.
    pub fn view(&self) -> GraphRef<'_> {
        GraphRef::full(self)
    }

    /// The zero-copy view induced by `nodes` (see [`GraphRef::induced`]).
    pub fn view_of(&self, nodes: &[NodeId]) -> GraphRef<'_> {
        GraphRef::induced(self, nodes)
    }

    /// The zero-copy complement view `G \ Gs` (see [`GraphRef::complement`]).
    pub fn view_without(&self, removed: &[NodeId]) -> GraphRef<'_> {
        GraphRef::complement(self, removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrColumns;

    fn diamond() -> Graph {
        // 0-1, 0-2, 1-3, 2-3, types 0,1,1,0
        let mut b = Graph::builder(false);
        b.add_node(0, &[1.0, 0.0]);
        b.add_node(1, &[0.0, 1.0]);
        b.add_node(1, &[0.5, 0.5]);
        b.add_node(0, &[2.0, 2.0]);
        b.add_edge(0, 1, 0);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 3, 0);
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn full_view_is_identity() {
        let g = diamond();
        let v = g.view();
        assert!(v.is_full());
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.to_parent(2), 2);
        assert_eq!(v.from_parent(3), Some(3));
        let nbrs: Vec<_> = v.neighbors(0).collect();
        assert_eq!(nbrs, g.neighbors(0).collect::<Vec<_>>());
        assert_eq!(v.features_matrix(), g.features().clone());
    }

    #[test]
    fn induced_view_matches_induced_subgraph() {
        let g = diamond();
        for sel in [vec![1, 3, 2], vec![0], vec![3, 0], vec![1, 1, 2]] {
            let view = g.view_of(&sel);
            let sub = g.induced_subgraph(&sel);
            assert_eq!(view.num_nodes(), sub.graph.num_nodes());
            assert_eq!(view.to_graph(), sub.graph, "materialized view differs for {sel:?}");
            for v in 0..view.num_nodes() {
                assert_eq!(view.node_type(v), sub.graph.node_type(v));
                assert_eq!(view.feature_row(v), sub.graph.features().row(v));
                let mut nbrs: Vec<_> = view.neighbors(v).collect();
                nbrs.sort_unstable();
                assert_eq!(nbrs, sub.graph.neighbors(v).collect::<Vec<_>>(), "node {v} of {sel:?}");
            }
        }
    }

    /// The one induction path reproduces the builder-based induction:
    /// add the selected nodes in order, add every retained edge, build.
    #[test]
    fn induction_matches_builder_reference() {
        let reference = |g: &Graph, nodes: &[NodeId]| {
            let sel = g.view_of(nodes);
            let mut b = Graph::builder(g.is_directed());
            for v in 0..sel.num_nodes() {
                b.add_node(sel.node_type(v), sel.feature_row(v));
            }
            for new_u in 0..sel.num_nodes() {
                for (old_v, t) in g.neighbors(sel.to_parent(new_u)) {
                    match sel.from_parent(old_v) {
                        Some(new_v) if g.is_directed() || new_u < new_v => {
                            b.add_edge(new_u, new_v, t)
                        }
                        _ => {}
                    }
                }
            }
            b.build()
        };
        let mut b = Graph::builder(true);
        for i in 0..5 {
            b.add_node(i % 2, &[i as f32]);
        }
        for (u, v, t) in [(0, 1, 2), (1, 0, 1), (1, 3, 0), (4, 2, 3), (3, 4, 1), (2, 0, 0)] {
            b.add_edge(u, v, t);
        }
        for g in [diamond(), b.build()] {
            for sel in [vec![3, 1, 0, 2], vec![2, 0], vec![4, 3, 2, 1, 0], vec![1, 1, 4]] {
                let sel: Vec<_> = sel.into_iter().filter(|&v| v < g.num_nodes()).collect();
                assert_eq!(g.view_of(&sel).to_graph(), reference(&g, &sel), "selection {sel:?}");
            }
        }
    }

    #[test]
    fn complement_view_matches_remove_nodes() {
        let g = diamond();
        for removed in [vec![], vec![1], vec![0, 3], vec![0, 1, 2, 3]] {
            let view = g.view_without(&removed);
            let rest = g.remove_nodes(&removed);
            assert_eq!(view.to_graph(), rest.graph, "complement differs for {removed:?}");
            assert_eq!(
                (0..view.num_nodes()).map(|v| view.to_parent(v)).collect::<Vec<_>>(),
                rest.old_of_new
            );
        }
    }

    #[test]
    fn edge_type_goes_through_parent() {
        let g = diamond();
        let v = g.view_of(&[0, 2]);
        assert_eq!(v.edge_type(0, 1), Some(1)); // old edge 0-2 has type 1
        assert_eq!(v.edge_type(1, 0), Some(1));
        let lone = g.view_of(&[0, 3]);
        assert_eq!(lone.edge_type(0, 1), None); // 0-3 not adjacent
    }

    #[test]
    fn from_graph_builds_full_view() {
        let g = diamond();
        let v: GraphRef = (&g).into();
        assert!(v.is_full());
        assert!(v.with_csr(|c| std::ptr::eq(c.node_types(), g.node_types())));
        assert!(!g.view_of(&[1]).with_csr(|c| std::ptr::eq(c.node_types(), g.node_types())));
    }

    #[test]
    fn empty_selection_is_well_defined() {
        let g = diamond();
        let v = g.view_of(&[]);
        assert!(v.is_empty());
        assert_eq!(v.to_graph().num_nodes(), 0);
        assert_eq!(v.features_matrix().rows(), 0);
    }

    /// A view over a columnar parent behaves exactly like the same view
    /// over the owned graph: full, induced, and complement selections.
    #[test]
    fn csr_parent_matches_owned_parent() {
        let g = diamond();
        let mut cols = CsrColumns::new(false, 2);
        cols.push(&g);
        let csr = cols.graph(0);

        let full: GraphRef = csr.into();
        assert!(full.is_full());
        assert_eq!(full.to_graph(), g);
        assert_eq!(full.features_matrix(), g.features().clone());
        assert!(full.with_csr(|c| std::ptr::eq(c.node_types(), csr.node_types())));
        for v in 0..4 {
            assert_eq!(full.node_type(v), g.node_type(v));
            assert_eq!(full.feature_row(v), g.features().row(v));
            let a: Vec<_> = full.neighbors(v).collect();
            assert_eq!(a, g.neighbors(v).collect::<Vec<_>>(), "node {v}");
        }

        for sel in [vec![1, 3, 2], vec![0], vec![3, 0]] {
            let over_csr = GraphRef::induced(csr, &sel);
            let over_owned = g.view_of(&sel);
            assert_eq!(over_csr.to_graph(), over_owned.to_graph(), "selection {sel:?}");
            assert_eq!(over_csr.features_matrix(), over_owned.features_matrix());
            for v in 0..over_csr.num_nodes() {
                let a: Vec<_> = over_csr.neighbors(v).collect();
                let b: Vec<_> = over_owned.neighbors(v).collect();
                assert_eq!(a, b, "node {v} of {sel:?}");
            }
        }
    }
}
