//! The owned attributed graph: typed nodes and edges, a dense feature
//! matrix, and CSR adjacency in exactly the layout the `.gvex` store maps
//! (see [`crate::csr`]; an undirected graph stores one copy, which its
//! in-rows alias). [`Graph::csr`] is the one borrowed form, and every
//! adjacency accessor delegates to it. Graphs come from [`GraphBuilder`],
//! from views ([`Graph::induced_subgraph`]), from [`CsrGraph::to_graph`],
//! or from JSON — the historical `{directed, node_types, features, out_adj,
//! in_adj, num_edges}` object, decoded through [`CsrGraph::validate`].

use crate::csr::{CsrAdjacency, CsrGraph, CsrNeighbors, GraphError};
use gvex_linalg::Matrix;
use serde::{Deserialize, Serialize, Value};

/// Index of a node within one [`Graph`].
pub type NodeId = usize;
/// Interned node type (`L(v)` in the paper, e.g. an atom symbol).
pub type NodeTypeId = u32;
/// Interned edge type (`L(e)` in the paper, e.g. a bond kind).
pub type EdgeTypeId = u32;

/// A connected or disconnected attributed graph `G = (V, E, T, L)`.
///
/// Nodes are dense indices `0..n`. Adjacency is CSR, sorted by neighbor id;
/// for undirected graphs every edge appears in both endpoints' rows and is
/// counted once in [`Graph::num_edges`].
///
/// Node features `T(v)` live in a dense `|V| × D` matrix (`D` may be zero for
/// datasets without features, mirroring REDDIT-BINARY / MALNET in Table 3).
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    pub(crate) directed: bool,
    pub(crate) node_types: Vec<NodeTypeId>,
    pub(crate) features: Matrix,
    pub(crate) out: Rows,
    /// In-rows of a directed graph; empty when undirected (the in-rows
    /// alias `out`).
    pub(crate) inn: Rows,
}

/// One direction of owned CSR adjacency; `indptr` starts at 0.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Rows {
    indptr: Vec<u64>,
    targets: Vec<u32>,
    etypes: Vec<u32>,
}

impl Rows {
    fn as_adjacency(&self) -> CsrAdjacency<'_> {
        CsrAdjacency { indptr: &self.indptr, targets: &self.targets, etypes: &self.etypes }
    }

    /// Copies borrowed rows, rebasing their offsets to 0.
    pub(crate) fn copy_of(a: CsrAdjacency<'_>) -> Self {
        let base = a.indptr[0];
        Rows {
            indptr: a.indptr.iter().map(|&p| p - base).collect(),
            targets: a.targets.to_vec(),
            etypes: a.etypes.to_vec(),
        }
    }

    /// Rows of an `n`-node graph from `(row, target, type)` entries in any
    /// order: sorted by target within each row, and of duplicate
    /// `(row, target)` entries the smallest type is kept.
    pub(crate) fn from_entries(n: usize, mut entries: Vec<(u32, u32, u32)>) -> Self {
        entries.sort_unstable();
        entries.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
        let mut indptr = vec![0u64; n + 1];
        for &(u, _, _) in &entries {
            indptr[u as usize + 1] += 1;
        }
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }
        Rows {
            indptr,
            targets: entries.iter().map(|e| e.1).collect(),
            etypes: entries.iter().map(|e| e.2).collect(),
        }
    }

    /// Rows from per-node `(target, type)` lists, kept as given (the JSON
    /// decoder validates them afterwards).
    fn from_lists(lists: Vec<Vec<(u32, u32)>>) -> Self {
        let mut rows = Rows { indptr: vec![0], ..Rows::default() };
        for list in lists {
            for (v, t) in list {
                rows.targets.push(v);
                rows.etypes.push(t);
            }
            rows.indptr.push(rows.targets.len() as u64);
        }
        rows
    }
}

impl Graph {
    /// Starts building a graph. See [`GraphBuilder`].
    pub fn builder(directed: bool) -> GraphBuilder {
        GraphBuilder::new(directed)
    }

    /// The borrowed CSR form of this graph — the one view every consumer
    /// reads (see [`crate::csr`]).
    #[inline]
    pub fn csr(&self) -> CsrGraph<'_> {
        let out = self.out.as_adjacency();
        CsrGraph {
            directed: self.directed,
            feature_dim: self.features.cols(),
            node_types: &self.node_types,
            features: self.features.as_slice(),
            out,
            inn: if self.directed { self.inn.as_adjacency() } else { out },
        }
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
        self.csr().num_edges()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_types.is_empty()
    }

    /// The type `L(v)` of a node.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v]
    }

    /// All node types, indexed by node id.
    #[inline]
    pub fn node_types(&self) -> &[NodeTypeId] {
        &self.node_types
    }

    /// The dense `|V| × D` feature matrix.
    #[inline]
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Feature dimensionality `D`.
    #[inline]
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Out-neighbors of `v` with edge types, sorted by neighbor id.
    /// For undirected graphs this is simply the neighbor list.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> CsrNeighbors<'_> {
        self.csr().neighbors(v)
    }

    /// In-neighbors of `v` with edge types (equals [`Self::neighbors`] for
    /// undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> CsrNeighbors<'_> {
        self.csr().in_neighbors(v)
    }

    /// Degree of `v` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr().degree(v)
    }

    /// Returns the type of the edge `u → v` if present.
    pub fn edge_type(&self, u: NodeId, v: NodeId) -> Option<EdgeTypeId> {
        self.csr().edge_type(u, v)
    }

    /// True if the edge `u → v` exists (`u — v` for undirected graphs).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_type(u, v).is_some()
    }

    /// Iterates over every edge once as `(u, v, type)`. For undirected
    /// graphs, yields each edge with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeTypeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| self.directed || u < v)
                .map(move |(v, t)| (u, v, t))
        })
    }

    /// Average degree (2|E| / |V| for undirected graphs; |E| / |V| directed).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.out.targets.len() as f64 / self.num_nodes() as f64
    }

    /// The node-induced subgraph on `nodes` (order defines the new ids).
    ///
    /// Duplicates in `nodes` are ignored after the first occurrence. The
    /// result keeps features and all edges between retained nodes, and
    /// records the old↔new id mapping (needed to map explanations back onto
    /// the original graph). Materializes [`Graph::view_of`].
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> InducedSubgraph {
        self.view_of(nodes).into_induced()
    }

    /// The remainder `G \ Gs`: the subgraph induced by all nodes *not* in
    /// `removed` (the paper's counterfactual test input, §2.2).
    /// Materializes [`Graph::view_without`].
    pub fn remove_nodes(&self, removed: &[NodeId]) -> InducedSubgraph {
        self.view_without(removed).into_induced()
    }

    /// Connected components (ignoring edge direction), each sorted by id.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let id = comps.len();
            comps.push(Vec::new());
            comp[start] = id;
            stack.push(start);
            while let Some(u) = stack.pop() {
                comps[id].push(u);
                for (v, _) in self.neighbors(u).chain(self.in_neighbors(u)) {
                    if comp[v] == usize::MAX {
                        comp[v] = id;
                        stack.push(v);
                    }
                }
            }
        }
        for c in &mut comps {
            c.sort_unstable();
        }
        comps
    }

    /// True if the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// Nodes within `k` hops of `v` (ignoring direction), including `v`,
    /// sorted by id.
    pub fn k_hop_neighborhood(&self, v: NodeId, k: usize) -> Vec<NodeId> {
        let dist = crate::traversal::bfs_distances(self, v);
        (0..self.num_nodes()).filter(|&u| dist[u] <= k).collect()
    }
}

/// Per-node `(neighbor, edge type)` lists, the JSON adjacency shape.
fn adjacency_value<'a>(n: usize, row: impl Fn(NodeId) -> CsrNeighbors<'a>) -> Value {
    Value::Array((0..n).map(|v| Value::Array(row(v).map(|e| e.to_value()).collect())).collect())
}

impl Serialize for Graph {
    fn to_value(&self) -> Value {
        let c = self.csr();
        let n = self.num_nodes();
        Value::Object(vec![
            ("directed".into(), self.directed.to_value()),
            ("node_types".into(), self.node_types.to_value()),
            ("features".into(), self.features.to_value()),
            ("out_adj".into(), adjacency_value(n, |v| c.neighbors(v))),
            ("in_adj".into(), adjacency_value(n, |v| c.in_neighbors(v))),
            ("num_edges".into(), self.num_edges().to_value()),
        ])
    }
}

impl Deserialize for Graph {
    /// Decodes the JSON form and validates it like the store does at open:
    /// any broken invariant is an `Err`, never a graph that panics later.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, serde::Error> {
            T::from_value(v.get_field(key).ok_or_else(|| serde::Error::missing_field(key))?)
        }
        let invalid = |e: GraphError| serde::Error::custom(format!("invalid graph: {e}"));
        let directed: bool = field(v, "directed")?;
        let out = Rows::from_lists(field(v, "out_adj")?);
        let inn = Rows::from_lists(field(v, "in_adj")?);
        if !directed && inn != out {
            return Err(invalid(GraphError::Shape("undirected in_adj must equal out_adj")));
        }
        let g = Graph {
            directed,
            node_types: field(v, "node_types")?,
            features: field(v, "features")?,
            out,
            inn: if directed { inn } else { Rows::default() },
        };
        if g.features.rows() != g.num_nodes() {
            return Err(invalid(GraphError::Shape("features must have one row per node")));
        }
        g.csr().validate().map_err(invalid)?;
        if field::<usize>(v, "num_edges")? != g.num_edges() {
            return Err(invalid(GraphError::Shape("num_edges disagrees with the adjacency")));
        }
        Ok(g)
    }
}

/// A node-induced subgraph together with its id mappings.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The extracted subgraph (ids are `0..k`).
    pub graph: Graph,
    /// `old_of_new[new_id] = old_id` in the parent graph.
    pub old_of_new: Vec<NodeId>,
    /// `new_of_old[old_id] = new_id`, or `usize::MAX` for dropped nodes.
    pub new_of_old: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Maps a node id of the subgraph back to the parent graph.
    #[inline]
    pub fn to_parent(&self, new_id: NodeId) -> NodeId {
        self.old_of_new[new_id]
    }

    /// Maps a parent node id into the subgraph, if retained.
    #[inline]
    pub fn from_parent(&self, old_id: NodeId) -> Option<NodeId> {
        match self.new_of_old.get(old_id) {
            Some(&v) if v != usize::MAX => Some(v),
            _ => None,
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use gvex_graph::Graph;
/// let mut b = Graph::builder(false);
/// let a = b.add_node(0, &[1.0]);
/// let c = b.add_node(1, &[0.0]);
/// b.add_edge(a, c, 0);
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 2);
/// assert!(g.has_edge(a, c) && g.has_edge(c, a));
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    directed: bool,
    node_types: Vec<NodeTypeId>,
    /// Row-major features of the nodes added so far.
    features: Vec<f32>,
    feature_dim: Option<usize>,
    edges: Vec<(NodeId, NodeId, EdgeTypeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new(directed: bool) -> Self {
        Self {
            directed,
            node_types: Vec::new(),
            features: Vec::new(),
            feature_dim: None,
            edges: Vec::new(),
        }
    }

    /// Adds a node with type `t` and feature vector `feat`, returning its id.
    ///
    /// # Panics
    /// If `feat`'s length differs from previously added nodes'.
    pub fn add_node(&mut self, t: NodeTypeId, feat: &[f32]) -> NodeId {
        match self.feature_dim {
            None => self.feature_dim = Some(feat.len()),
            Some(d) => assert_eq!(d, feat.len(), "inconsistent feature dimension"),
        }
        self.node_types.push(t);
        self.features.extend_from_slice(feat);
        self.node_types.len() - 1
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Adds an edge `u → v` (`u — v` when undirected) with type `t`.
    /// Self-loops and duplicate edges are ignored at [`Self::build`] time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, t: EdgeTypeId) {
        assert!(
            u < self.node_types.len() && v < self.node_types.len(),
            "edge endpoint out of range"
        );
        self.edges.push((u, v, t));
    }

    /// Finalizes the graph: deduplicates edges (keeping the smallest type),
    /// drops self-loops, sorts neighbor rows.
    ///
    /// # Panics
    /// If the graph has more nodes than `u32` ids can address.
    pub fn build(self) -> Graph {
        let n = self.node_types.len();
        assert!(n <= u32::MAX as usize, "graph too large for u32 node ids");
        let features = Matrix::from_vec(n, self.feature_dim.unwrap_or(0), self.features);
        let mut out = Vec::with_capacity(self.edges.len() * 2);
        let mut inn = Vec::new();
        for (u, v, t) in self.edges {
            if u == v {
                continue;
            }
            let (u, v) = (u as u32, v as u32);
            out.push((u, v, t));
            if self.directed {
                inn.push((v, u, t));
            } else {
                out.push((v, u, t));
            }
        }
        Graph {
            directed: self.directed,
            node_types: self.node_types,
            features,
            out: Rows::from_entries(n, out),
            inn: if self.directed { Rows::from_entries(n, inn) } else { Rows::default() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2, types a,b,a
        let mut b = Graph::builder(false);
        let v0 = b.add_node(0, &[1.0, 0.0]);
        let v1 = b.add_node(1, &[0.0, 1.0]);
        let v2 = b.add_node(0, &[1.0, 0.0]);
        b.add_edge(v0, v1, 0);
        b.add_edge(v1, v2, 0);
        b.build()
    }

    #[test]
    fn builder_counts() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.feature_dim(), 2);
        assert!(!g.is_directed());
    }

    #[test]
    fn undirected_edges_are_symmetric() {
        let g = path3();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn duplicate_edges_and_self_loops_dropped() {
        let mut b = Graph::builder(false);
        let v0 = b.add_node(0, &[]);
        let v1 = b.add_node(0, &[]);
        b.add_edge(v0, v1, 0);
        b.add_edge(v1, v0, 0);
        b.add_edge(v0, v0, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn directed_adjacency() {
        let mut b = Graph::builder(true);
        let v0 = b.add_node(0, &[]);
        let v1 = b.add_node(0, &[]);
        b.add_edge(v0, v1, 3);
        let g = b.build();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_type(0, 1), Some(3));
        assert_eq!(g.in_neighbors(1).collect::<Vec<_>>(), vec![(0, 3)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0) + g.in_neighbors(0).len(), 1);
    }

    #[test]
    fn edges_iterator_yields_each_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0), (1, 2, 0)]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = path3();
        let sub = g.induced_subgraph(&[1, 2]);
        assert_eq!(sub.graph.num_nodes(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
        assert_eq!(sub.graph.node_type(0), 1); // old node 1 had type b=1
        assert_eq!(sub.to_parent(1), 2);
        assert_eq!(sub.from_parent(0), None);
        assert_eq!(sub.from_parent(2), Some(1));
        // features carried over
        assert_eq!(sub.graph.features().row(0), &[0.0, 1.0]);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = path3();
        let sub = g.induced_subgraph(&[1, 1, 2]);
        assert_eq!(sub.graph.num_nodes(), 2);
    }

    #[test]
    fn remove_nodes_is_complement() {
        let g = path3();
        let rest = g.remove_nodes(&[1]);
        assert_eq!(rest.graph.num_nodes(), 2);
        assert_eq!(rest.graph.num_edges(), 0); // removing center disconnects
        assert_eq!(rest.old_of_new, vec![0, 2]);
    }

    #[test]
    fn connected_components_found() {
        let g = path3();
        assert!(g.is_connected());
        let rest = g.remove_nodes(&[1]).graph;
        let comps = rest.connected_components();
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::builder(false).build();
        assert!(g.is_connected());
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn k_hop_neighborhood_radii() {
        let g = path3();
        assert_eq!(g.k_hop_neighborhood(0, 0), vec![0]);
        assert_eq!(g.k_hop_neighborhood(0, 1), vec![0, 1]);
        assert_eq!(g.k_hop_neighborhood(0, 2), vec![0, 1, 2]);
    }

    #[test]
    fn avg_degree_undirected() {
        let g = path3();
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-9);
    }
    /// Decodes `g`'s JSON value after `edit` has doctored it.
    fn decode_edited(g: &Graph, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let Value::Object(mut fields) = g.to_value() else { panic!("graphs encode as objects") };
        edit(&mut fields);
        match Graph::from_value(&Value::Object(fields)) {
            Ok(_) => "ok".into(),
            Err(e) => e.to_string(),
        }
    }

    fn set(fields: &mut [(String, Value)], key: &str, v: Value) {
        fields.iter_mut().find(|(k, _)| k == key).expect("field present").1 = v;
    }

    fn adj(rows: &[&[(u64, u64)]]) -> Value {
        Value::Array(
            rows.iter()
                .map(|r| Value::Array(r.iter().map(|&(v, t)| (v, t).to_value()).collect()))
                .collect(),
        )
    }

    #[test]
    fn json_round_trips_and_validates() {
        let mut b = Graph::builder(true);
        b.add_node(0, &[]);
        b.add_node(1, &[]);
        b.add_edge(1, 0, 4);
        for g in [path3(), b.build()] {
            assert_eq!(Graph::from_value(&g.to_value()).unwrap(), g);
            assert_eq!(decode_edited(&g, |_| {}), "ok");
        }
    }

    /// Every hostile payload is a decode error, never a graph that panics
    /// on first use.
    #[test]
    fn hostile_json_is_rejected() {
        let g = path3();
        let far: &[&[(u64, u64)]] = &[&[(99, 0)], &[(0, 0), (2, 0)], &[(1, 0)]];
        let err = decode_edited(&g, |f| {
            set(f, "out_adj", adj(far));
            set(f, "in_adj", adj(far));
        });
        assert!(err.contains("out of range"), "{err}");
        let one_way: &[&[(u64, u64)]] = &[&[(1, 0)], &[(2, 0)], &[(1, 0)]];
        let err = decode_edited(&g, |f| {
            set(f, "out_adj", adj(one_way));
            set(f, "in_adj", adj(one_way));
        });
        assert!(err.contains("no mirror"), "{err}");
        let unsorted: &[&[(u64, u64)]] = &[&[(1, 0)], &[(2, 0), (0, 0)], &[(1, 0)]];
        let err = decode_edited(&g, |f| {
            set(f, "out_adj", adj(unsorted));
            set(f, "in_adj", adj(unsorted));
        });
        assert!(err.contains("strictly increasing"), "{err}");
        let err = decode_edited(&g, |f| set(f, "in_adj", adj(&[&[], &[], &[]])));
        assert!(err.contains("in_adj must equal out_adj"), "{err}");
        let err = decode_edited(&g, |f| set(f, "num_edges", Value::U64(7)));
        assert!(err.contains("num_edges"), "{err}");
        let err = decode_edited(&g, |f| set(f, "node_types", Value::Array(vec![Value::U64(0)])));
        assert!(err.contains("bad shape"), "{err}");
        // 2 · 2^63 wraps to 0 = data.len() in unchecked arithmetic
        let mut b = Graph::builder(false);
        b.add_node(0, &[]);
        b.add_node(0, &[]);
        let huge = Value::Object(vec![
            ("rows".into(), Value::U64(2)),
            ("cols".into(), Value::U64(1 << 63)),
            ("data".into(), Value::Array(Vec::new())),
        ]);
        let err = decode_edited(&b.build(), |f| set(f, "features", huge));
        assert!(err.contains("bad shape"), "{err}");
        let err = decode_edited(&g, |f| set(f, "out_adj", Value::Null));
        assert!(err.contains("expected array"), "{err}");
    }
}
