//! Compressed-sparse-row graphs: the one adjacency layout of the workspace.
//!
//! Per direction, an `indptr` of `num_nodes + 1` edge offsets windows into
//! parallel `u32` `targets` / `etypes` arrays. An owned [`Graph`] keeps them
//! in its own vectors; the `.gvex` store (crate `gvex-store`) keeps them as
//! database-wide sections of a memory-mapped file. [`CsrGraph`] is the one
//! borrowed form over either ([`Graph::csr`], `Store::graph`): a handful of
//! pointer/length pairs, never a copy. Consumers take it through a
//! [`GraphRef`](crate::GraphRef) view, and [`CsrGraph::to_graph`] copies
//! the slices back into an owned, bitwise-identical [`Graph`].
//!
//! The invariants, enforced by [`CsrGraph::validate`] (run by the store per
//! graph at open, and by [`Graph`]'s JSON decoder):
//!
//! * `indptr` is non-decreasing and spans `targets` / `etypes` exactly,
//!   which are parallel;
//! * each row holds graph-local ids `< num_nodes`, strictly increasing
//!   (sorted, one entry per neighbor), never the row's own node;
//! * every out-entry `u → v` of type `t` has its mirror `(u, t)` in the
//!   in-row of `v`, and in- and out-entries are equally many (undirected
//!   in-slices alias the out-slices, so this is row symmetry);
//! * `features.len() == num_nodes * feature_dim`.

use crate::graph::{EdgeTypeId, Graph, NodeId, NodeTypeId, Rows};
use gvex_linalg::Matrix;

/// One direction of CSR adjacency: `indptr` windows into parallel
/// `targets` / `etypes` arrays. `indptr` values may be *global* (file-wide)
/// edge offsets; the slice's first entry is the base the local ranges are
/// measured from, so a per-graph view is three subslices and no arithmetic
/// at construction time.
#[derive(Clone, Copy, Debug)]
pub struct CsrAdjacency<'a> {
    /// `num_nodes + 1` non-decreasing edge offsets.
    pub indptr: &'a [u64],
    /// Neighbor node ids (graph-local), concatenated per node.
    pub targets: &'a [u32],
    /// Edge type of each target, parallel to `targets`.
    pub etypes: &'a [u32],
}

impl<'a> CsrAdjacency<'a> {
    /// The local `targets`/`etypes` range of node `v`.
    #[inline]
    fn range(&self, v: NodeId) -> std::ops::Range<usize> {
        let base = self.indptr[0];
        (self.indptr[v] - base) as usize..(self.indptr[v + 1] - base) as usize
    }

    /// Neighbor ids and edge types of `v` as parallel slices.
    #[inline]
    pub fn row(&self, v: NodeId) -> (&'a [u32], &'a [u32]) {
        let r = self.range(v);
        (&self.targets[r.clone()], &self.etypes[r])
    }

    /// Total adjacency entries (each undirected edge appears twice).
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.targets.len()
    }

    /// Checks the per-row invariants for a graph of `n` nodes: geometry,
    /// monotone offsets, in-range targets, strictly increasing rows, no
    /// self-loops.
    fn validate(&self, n: usize) -> Result<(), GraphError> {
        if self.indptr.len() != n + 1 {
            return Err(GraphError::Shape("indptr must have num_nodes + 1 entries"));
        }
        if self.targets.len() != self.etypes.len() {
            return Err(GraphError::Shape("targets and etypes must be parallel"));
        }
        if let Some(node) = self.indptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(GraphError::Indptr(node));
        }
        if self.indptr[n] - self.indptr[0] != self.targets.len() as u64 {
            return Err(GraphError::Shape("indptr must span targets exactly"));
        }
        for u in 0..n {
            let (targets, _) = self.row(u);
            if let Some(&v) = targets.iter().find(|&&v| v as usize >= n) {
                return Err(GraphError::TargetOutOfRange(u, v as usize));
            }
            if targets.contains(&(u as u32)) {
                return Err(GraphError::SelfLoop(u));
            }
            if targets.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GraphError::UnsortedRow(u));
            }
        }
        Ok(())
    }
}

/// Why a set of CSR arrays is not a valid graph — the typed result of
/// [`CsrGraph::validate`]. Node ids are graph-local.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Array lengths disagree with each other or with the node count.
    Shape(&'static str),
    /// `indptr` decreases after this node.
    Indptr(NodeId),
    /// This node (first field) lists a neighbor id `>= num_nodes` (second).
    TargetOutOfRange(NodeId, NodeId),
    /// This node's row is not strictly increasing (unsorted or duplicate).
    UnsortedRow(NodeId),
    /// This node lists itself as a neighbor.
    SelfLoop(NodeId),
    /// The edge `from → to` lacks its mirror entry (the reverse edge of an
    /// undirected graph, the in-row entry of a directed one).
    Unmirrored(NodeId, NodeId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Shape(what) => write!(f, "bad shape: {what}"),
            GraphError::Indptr(u) => write!(f, "indptr decreases at node {u}"),
            GraphError::TargetOutOfRange(u, v) => {
                write!(f, "node {u} lists neighbor {v}, out of range")
            }
            GraphError::UnsortedRow(u) => {
                write!(f, "neighbors of node {u} are not strictly increasing")
            }
            GraphError::SelfLoop(u) => write!(f, "self-loop at node {u}"),
            GraphError::Unmirrored(u, v) => write!(f, "edge {u}->{v} has no mirror entry"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A borrowed CSR graph: every field is a slice into storage owned
/// elsewhere (an owned [`Graph`] or a memory-mapped `.gvex` file). `Copy` —
/// passing one around costs a few pointer/length pairs.
#[derive(Clone, Copy, Debug)]
pub struct CsrGraph<'a> {
    pub(crate) directed: bool,
    pub(crate) feature_dim: usize,
    pub(crate) node_types: &'a [NodeTypeId],
    /// Row-major `num_nodes × feature_dim` feature matrix.
    pub(crate) features: &'a [f32],
    pub(crate) out: CsrAdjacency<'a>,
    /// Aliases `out` for undirected graphs.
    pub(crate) inn: CsrAdjacency<'a>,
}

impl<'a> CsrGraph<'a> {
    /// Assembles a borrowed graph from raw columnar slices.
    ///
    /// # Panics
    /// If the slice lengths are mutually inconsistent (`indptr` length,
    /// feature matrix size, targets/etypes parallelism). Deeper properties
    /// (sortedness, target range, mirroring) are checked by
    /// [`Self::validate`], which the storage layer runs at open.
    pub fn new(
        directed: bool,
        node_types: &'a [NodeTypeId],
        features: &'a [f32],
        feature_dim: usize,
        out: CsrAdjacency<'a>,
        inn: CsrAdjacency<'a>,
    ) -> Self {
        let n = node_types.len();
        assert_eq!(out.indptr.len(), n + 1, "out indptr must have n+1 entries");
        assert_eq!(inn.indptr.len(), n + 1, "in indptr must have n+1 entries");
        assert_eq!(out.targets.len(), out.etypes.len(), "targets/etypes must be parallel");
        assert_eq!(inn.targets.len(), inn.etypes.len(), "targets/etypes must be parallel");
        assert_eq!(features.len(), n * feature_dim, "feature matrix size mismatch");
        Self { directed, feature_dim, node_types, features, out, inn }
    }

    /// Checks every invariant listed in the [module docs](self), so that
    /// no accessor can index out of bounds afterwards. Cost is
    /// O(entries · log degree).
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_nodes();
        if n.checked_mul(self.feature_dim) != Some(self.features.len()) {
            return Err(GraphError::Shape("features must hold num_nodes * feature_dim values"));
        }
        self.out.validate(n)?;
        self.inn.validate(n)?;
        if self.out.num_entries() != self.inn.num_entries() {
            return Err(GraphError::Shape("in- and out-adjacency differ in size"));
        }
        // Rows are strictly increasing, so distinct out-entries mirror to
        // distinct in-entries; with equal counts the in-rows are exactly
        // the transpose (for undirected graphs: the rows are symmetric).
        for u in 0..n {
            for (v, t) in self.neighbors(u) {
                let (sources, etypes) = self.inn.row(v);
                match sources.binary_search(&(u as u32)) {
                    Ok(i) if etypes[i] == t => {}
                    _ => return Err(GraphError::Unmirrored(u, v)),
                }
            }
        }
        Ok(())
    }

    /// Whether edges are directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edges `|E|` (each undirected edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.out.num_entries()
        } else {
            self.out.num_entries() / 2
        }
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_types.is_empty()
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The type `L(v)` of a node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v]
    }

    /// All node types, indexed by node id.
    #[inline]
    pub fn node_types(&self) -> &'a [NodeTypeId] {
        self.node_types
    }

    /// The whole feature matrix as one row-major slice.
    #[inline]
    pub fn features(&self) -> &'a [f32] {
        self.features
    }

    /// The feature row of node `v`, borrowed from the underlying storage.
    #[inline]
    pub fn feature_row(&self, v: NodeId) -> &'a [f32] {
        &self.features[v * self.feature_dim..(v + 1) * self.feature_dim]
    }

    /// Out-neighbors of `v` with edge types, sorted by neighbor id. For
    /// undirected graphs this is simply the neighbor list.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> CsrNeighbors<'a> {
        let (t, e) = self.out.row(v);
        CsrNeighbors { targets: t.iter(), etypes: e.iter() }
    }

    /// In-neighbors of `v` with edge types (equals [`Self::neighbors`] for
    /// undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> CsrNeighbors<'a> {
        let (t, e) = self.inn.row(v);
        CsrNeighbors { targets: t.iter(), etypes: e.iter() }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.out.range(v).len()
    }

    /// The type of the edge `u → v` if present (binary search in `u`'s row).
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeTypeId> {
        let (targets, etypes) = self.out.row(u);
        targets.binary_search(&(v as u32)).ok().map(|i| etypes[i])
    }

    /// True if the edge `u → v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_type(u, v).is_some()
    }

    /// Materializes an owned [`Graph`] by copying the slices (offsets
    /// rebased to 0) — bitwise identical to the graph that was stored.
    pub fn to_graph(&self) -> Graph {
        Graph {
            directed: self.directed,
            node_types: self.node_types.to_vec(),
            features: Matrix::from_vec(self.num_nodes(), self.feature_dim, self.features.to_vec()),
            out: Rows::copy_of(self.out),
            inn: if self.directed { Rows::copy_of(self.inn) } else { Rows::default() },
        }
    }
}

impl<'a> From<&'a Graph> for CsrGraph<'a> {
    fn from(g: &'a Graph) -> Self {
        g.csr()
    }
}

/// Iterator over a CSR node's neighbors, zipping the parallel target and
/// edge-type slices.
#[derive(Clone, Debug)]
pub struct CsrNeighbors<'a> {
    targets: std::slice::Iter<'a, u32>,
    etypes: std::slice::Iter<'a, u32>,
}

impl Iterator for CsrNeighbors<'_> {
    type Item = (NodeId, EdgeTypeId);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let v = self.targets.next()?;
        let t = self.etypes.next()?;
        Some((*v as NodeId, *t))
    }

    /// Random access in O(1) (the random-walk sampler picks by index).
    #[inline]
    fn nth(&mut self, n: usize) -> Option<Self::Item> {
        let v = self.targets.nth(n)?;
        let t = self.etypes.nth(n)?;
        Some((*v as NodeId, *t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
    }
}

impl ExactSizeIterator for CsrNeighbors<'_> {}

/// Owned columnar CSR arrays for a whole graph database, in exactly the
/// layout the `.gvex` sections use — the store's write-side encoder:
/// [`CsrColumns::push`] appends a built [`Graph`] by slice copies.
#[derive(Clone, Debug, Default)]
pub struct CsrColumns {
    /// Cumulative node counts, one entry per graph plus the leading 0.
    pub node_ptr: Vec<u64>,
    /// Node types, concatenated across graphs.
    pub node_types: Vec<u32>,
    /// Row-major features, concatenated across graphs.
    pub features: Vec<f32>,
    /// Global out-edge offsets, `total_nodes + 1` entries.
    pub out_indptr: Vec<u64>,
    /// Graph-local out-neighbor ids.
    pub out_targets: Vec<u32>,
    /// Out-edge types, parallel to `out_targets`.
    pub out_etypes: Vec<u32>,
    /// Global in-edge offsets (empty for undirected databases).
    pub in_indptr: Vec<u64>,
    /// Graph-local in-neighbor ids (empty for undirected databases).
    pub in_targets: Vec<u32>,
    /// In-edge types (empty for undirected databases).
    pub in_etypes: Vec<u32>,
    /// Whether the graphs are directed (must be uniform per database).
    pub directed: bool,
    /// Feature dimensionality (uniform per database).
    pub feature_dim: usize,
}

impl CsrColumns {
    /// Starts an empty column set for graphs of the given directedness and
    /// feature dimensionality.
    pub fn new(directed: bool, feature_dim: usize) -> Self {
        let mut c = Self { directed, feature_dim, ..Self::default() };
        c.node_ptr.push(0);
        c.out_indptr.push(0);
        if directed {
            c.in_indptr.push(0);
        }
        c
    }

    /// Appends one built graph's columns (slice copies, offsets shifted to
    /// the database-wide position).
    ///
    /// # Panics
    /// If the graph's directedness or feature dimensionality differs from
    /// the column set's.
    pub fn push(&mut self, g: &Graph) {
        assert_eq!(g.is_directed(), self.directed, "mixed directedness in one database");
        assert_eq!(g.feature_dim(), self.feature_dim, "mixed feature dims in one database");
        let c = g.csr();
        self.node_types.extend_from_slice(c.node_types);
        self.features.extend_from_slice(c.features);
        append_rows(&mut self.out_indptr, &mut self.out_targets, &mut self.out_etypes, c.out);
        if self.directed {
            append_rows(&mut self.in_indptr, &mut self.in_targets, &mut self.in_etypes, c.inn);
        }
        self.node_ptr.push(self.node_types.len() as u64);
    }
}

/// Appends one graph's rows to database-wide arrays, shifting its offsets
/// past the entries already there.
fn append_rows(
    indptr: &mut Vec<u64>,
    targets: &mut Vec<u32>,
    etypes: &mut Vec<u32>,
    rows: CsrAdjacency<'_>,
) {
    let shift = targets.len() as u64;
    indptr.extend(rows.indptr[1..].iter().map(|&p| p - rows.indptr[0] + shift));
    targets.extend_from_slice(rows.targets);
    etypes.extend_from_slice(rows.etypes);
}

/// Carves one graph's adjacency out of database-wide CSR arrays: the
/// `indptr` window keeps its global values (the first entry is the base),
/// while `targets`/`etypes` are cut down to the graph's own range. Used by
/// the `.gvex` store reader.
pub fn slice_adjacency<'a>(
    indptr: &'a [u64],
    targets: &'a [u32],
    etypes: &'a [u32],
    n0: usize,
    n1: usize,
) -> CsrAdjacency<'a> {
    let window = &indptr[n0..=n1];
    let e0 = window[0] as usize;
    let e1 = window[n1 - n0] as usize;
    CsrAdjacency { indptr: window, targets: &targets[e0..e1], etypes: &etypes[e0..e1] }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CsrColumns {
        /// The borrowed [`CsrGraph`] over graph `i`'s slices, carved the
        /// way the store reader carves its mapped columns.
        pub(crate) fn graph(&self, i: usize) -> CsrGraph<'_> {
            let n0 = self.node_ptr[i] as usize;
            let n1 = self.node_ptr[i + 1] as usize;
            let out =
                slice_adjacency(&self.out_indptr, &self.out_targets, &self.out_etypes, n0, n1);
            let inn = if self.directed {
                slice_adjacency(&self.in_indptr, &self.in_targets, &self.in_etypes, n0, n1)
            } else {
                out
            };
            CsrGraph::new(
                self.directed,
                &self.node_types[n0..n1],
                &self.features[n0 * self.feature_dim..n1 * self.feature_dim],
                self.feature_dim,
                out,
                inn,
            )
        }
    }

    fn diamond() -> Graph {
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

    fn chain_directed(n: usize) -> Graph {
        let mut b = Graph::builder(true);
        for i in 0..n {
            b.add_node(i as u32 % 3, &[i as f32]);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, (i % 2) as u32);
        }
        b.build()
    }

    #[test]
    fn round_trip_is_bitwise_identical() {
        for g in [diamond(), chain_directed(5), Graph::builder(false).build()] {
            let mut cols = CsrColumns::new(g.is_directed(), g.feature_dim());
            cols.push(&g);
            let back = cols.graph(0).to_graph();
            assert_eq!(back, g, "CSR round trip changed the graph");
        }
    }

    #[test]
    fn accessors_match_owned_graph() {
        let g = diamond();
        let mut cols = CsrColumns::new(false, 2);
        cols.push(&g);
        let c = cols.graph(0);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.feature_dim(), g.feature_dim());
        for v in 0..g.num_nodes() {
            assert_eq!(c.node_type(v), g.node_type(v));
            assert_eq!(c.feature_row(v), g.features().row(v));
            assert_eq!(c.degree(v), g.degree(v));
            let nbrs: Vec<_> = c.neighbors(v).collect();
            assert_eq!(nbrs, g.neighbors(v).collect::<Vec<_>>(), "node {v}");
            let inn: Vec<_> = c.in_neighbors(v).collect();
            assert_eq!(inn, g.in_neighbors(v).collect::<Vec<_>>(), "node {v} (in)");
        }
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert_eq!(c.edge_type(u, v), g.edge_type(u, v), "edge {u}->{v}");
            }
        }
    }

    #[test]
    fn directed_in_adjacency_is_separate() {
        let g = chain_directed(4);
        let mut cols = CsrColumns::new(true, 1);
        cols.push(&g);
        let c = cols.graph(0);
        assert!(c.has_edge(0, 1));
        assert!(!c.has_edge(1, 0));
        for v in 0..4 {
            let inn: Vec<_> = c.in_neighbors(v).collect();
            assert_eq!(inn, g.in_neighbors(v).collect::<Vec<_>>());
        }
        assert_eq!(c.to_graph(), g);
    }

    #[test]
    fn multiple_graphs_share_columns() {
        let a = diamond();
        let b = {
            let mut bb = Graph::builder(false);
            bb.add_node(2, &[9.0, 9.0]);
            bb.add_node(2, &[8.0, 8.0]);
            bb.add_edge(0, 1, 3);
            bb.build()
        };
        let mut cols = CsrColumns::new(false, 2);
        cols.push(&a);
        cols.push(&b);
        assert_eq!(cols.node_ptr.len() - 1, 2);
        assert_eq!(cols.graph(0).to_graph(), a);
        assert_eq!(cols.graph(1).to_graph(), b);
        // the second graph's targets are graph-local
        let nbrs: Vec<_> = cols.graph(1).neighbors(0).collect();
        assert_eq!(nbrs, vec![(1, 3)]);
    }

    #[test]
    fn empty_graph_columns() {
        let g = Graph::builder(false).build();
        let mut cols = CsrColumns::new(false, 0);
        cols.push(&g);
        let c = cols.graph(0);
        assert!(c.is_empty());
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn built_graphs_validate() {
        for g in [diamond(), chain_directed(5), Graph::builder(true).build()] {
            assert_eq!(g.csr().validate(), Ok(()));
        }
    }

    /// Each documented invariant, broken once, yields its typed error.
    #[test]
    fn validator_names_each_broken_invariant() {
        let g = chain_directed(3); // 0 -> 1 -> 2
        let c = g.csr();
        let check =
            |out: CsrAdjacency<'_>, inn: CsrAdjacency<'_>| CsrGraph { out, inn, ..c }.validate();
        let adj = |indptr, targets, etypes| CsrAdjacency { indptr, targets, etypes };
        assert_eq!(
            check(adj(&[0, 1, 2], &[1, 2], &[1, 0]), c.inn),
            Err(GraphError::Shape("indptr must have num_nodes + 1 entries"))
        );
        assert_eq!(check(adj(&[0, 2, 1, 2], &[1, 2], &[1, 0]), c.inn), Err(GraphError::Indptr(1)));
        assert_eq!(
            check(adj(&[0, 1, 2, 2], &[1, 9], &[1, 0]), c.inn),
            Err(GraphError::TargetOutOfRange(1, 9))
        );
        assert_eq!(
            check(adj(&[0, 1, 2, 2], &[1, 1], &[1, 0]), c.inn),
            Err(GraphError::SelfLoop(1))
        );
        assert_eq!(
            check(adj(&[0, 2, 2, 2], &[2, 1], &[1, 0]), c.inn),
            Err(GraphError::UnsortedRow(0))
        );
        assert_eq!(
            check(adj(&[0, 1, 2, 2], &[1, 2], &[0, 0]), c.inn),
            Err(GraphError::Unmirrored(0, 1))
        );
        let short = CsrGraph { features: &c.features[1..], ..c };
        assert!(matches!(short.validate(), Err(GraphError::Shape(_))));
    }
}
