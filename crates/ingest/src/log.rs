//! The append-only mutation log: the `ΔG` stream of the paper's dynamic
//! setting (§5), durable and replayable.
//!
//! One mutation per line, JSON-encoded ([`Mutation`] is the wire form —
//! a flat struct with every field `#[serde(default)]`, the same
//! forward/backward tolerance the serve protocol uses). [`Mutation::parse`]
//! validates a wire record into the typed [`Op`] the engine applies;
//! malformed records are typed [`LogError`]s, never panics, so a daemon
//! fed a bad log line keeps serving.

use gvex_graph::Graph;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One mutation in wire form. Unknown ops and missing fields surface as
/// [`LogError`] at [`Mutation::parse`] time; extra fields are ignored and
/// absent ones default, so old logs replay against newer binaries.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Mutation {
    /// Operation name: `add_graph`, `remove_graph`, `add_edge`,
    /// `remove_edge`, `add_node`, or `remove_node`.
    pub op: String,
    /// Target graph index (all ops except `add_graph`).
    #[serde(default)]
    pub graph: Option<u64>,
    /// Ground-truth class for `add_graph`.
    #[serde(default)]
    pub truth: Option<u64>,
    /// The new graph for `add_graph`.
    #[serde(default)]
    pub payload: Option<Graph>,
    /// First endpoint (`add_edge`/`remove_edge`) or the node id
    /// (`remove_node`).
    #[serde(default)]
    pub u: Option<u64>,
    /// Second endpoint (`add_edge`/`remove_edge`).
    #[serde(default)]
    pub v: Option<u64>,
    /// Edge type for `add_edge` and for the attachment edges of
    /// `add_node` (defaults to type 0).
    #[serde(default)]
    pub etype: Option<u64>,
    /// Node type for `add_node` (defaults to type 0).
    #[serde(default)]
    pub ntype: Option<u64>,
    /// Feature vector of the new node for `add_node`.
    #[serde(default)]
    pub features: Vec<f32>,
    /// Existing nodes the new node attaches to for `add_node`.
    #[serde(default)]
    pub attach: Vec<u64>,
}

/// A validated mutation, ready for [`crate::engine::IngestEngine::apply`].
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Append a new graph with its ground-truth class.
    AddGraph {
        /// The graph to append.
        graph: Graph,
        /// Its ground-truth class label.
        truth: usize,
    },
    /// Remove the graph at `index`; later graphs shift down by one.
    RemoveGraph {
        /// Database index of the doomed graph.
        index: usize,
    },
    /// Insert one edge into an existing graph.
    AddEdge {
        /// Database index of the edited graph.
        graph: usize,
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
        /// Edge type id.
        etype: u32,
    },
    /// Delete one edge from an existing graph.
    RemoveEdge {
        /// Database index of the edited graph.
        graph: usize,
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Append one node to an existing graph, attached to `attach`.
    AddNode {
        /// Database index of the edited graph.
        graph: usize,
        /// Node type of the newcomer.
        ntype: u32,
        /// Its feature vector.
        features: Vec<f32>,
        /// Existing node ids the newcomer links to.
        attach: Vec<usize>,
        /// Edge type of those attachment edges.
        etype: u32,
    },
    /// Delete one node (and its incident edges); later node ids in that
    /// graph shift down by one.
    RemoveNode {
        /// Database index of the edited graph.
        graph: usize,
        /// Node id of the doomed node.
        node: usize,
    },
}

/// Why a log record could not be read or validated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// Filesystem failure, stringified.
    Io(String),
    /// A line failed to decode as a [`Mutation`].
    Parse {
        /// 1-based line number in the log file.
        line: usize,
        /// Decoder message.
        msg: String,
    },
    /// The `op` field names no known operation.
    UnknownOp(String),
    /// A field required by this `op` was absent.
    MissingField {
        /// The operation being validated.
        op: &'static str,
        /// The absent field.
        field: &'static str,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "mutation log io error: {e}"),
            LogError::Parse { line, msg } => write!(f, "mutation log line {line}: {msg}"),
            LogError::UnknownOp(op) => write!(f, "unknown mutation op '{op}'"),
            LogError::MissingField { op, field } => {
                write!(f, "mutation '{op}' is missing required field '{field}'")
            }
        }
    }
}

impl std::error::Error for LogError {}

fn need(op: &'static str, field: &'static str, v: Option<u64>) -> Result<usize, LogError> {
    v.map(|x| x as usize).ok_or(LogError::MissingField { op, field })
}

impl Mutation {
    /// Validates the wire record into a typed [`Op`].
    pub fn parse(&self) -> Result<Op, LogError> {
        match self.op.as_str() {
            "add_graph" => Ok(Op::AddGraph {
                graph: self
                    .payload
                    .clone()
                    .ok_or(LogError::MissingField { op: "add_graph", field: "payload" })?,
                truth: need("add_graph", "truth", self.truth)?,
            }),
            "remove_graph" => {
                Ok(Op::RemoveGraph { index: need("remove_graph", "graph", self.graph)? })
            }
            "add_edge" => Ok(Op::AddEdge {
                graph: need("add_edge", "graph", self.graph)?,
                u: need("add_edge", "u", self.u)?,
                v: need("add_edge", "v", self.v)?,
                etype: self.etype.unwrap_or(0) as u32,
            }),
            "remove_edge" => Ok(Op::RemoveEdge {
                graph: need("remove_edge", "graph", self.graph)?,
                u: need("remove_edge", "u", self.u)?,
                v: need("remove_edge", "v", self.v)?,
            }),
            "add_node" => Ok(Op::AddNode {
                graph: need("add_node", "graph", self.graph)?,
                ntype: self.ntype.unwrap_or(0) as u32,
                features: self.features.clone(),
                attach: self.attach.iter().map(|&a| a as usize).collect(),
                etype: self.etype.unwrap_or(0) as u32,
            }),
            "remove_node" => Ok(Op::RemoveNode {
                graph: need("remove_node", "graph", self.graph)?,
                node: need("remove_node", "u", self.u)?,
            }),
            other => Err(LogError::UnknownOp(other.to_string())),
        }
    }
}

impl Op {
    /// The wire form of this op — `parse` of the result round-trips.
    pub fn to_wire(&self) -> Mutation {
        match self {
            Op::AddGraph { graph, truth } => Mutation {
                op: "add_graph".into(),
                payload: Some(graph.clone()),
                truth: Some(*truth as u64),
                ..Mutation::default()
            },
            Op::RemoveGraph { index } => Mutation {
                op: "remove_graph".into(),
                graph: Some(*index as u64),
                ..Mutation::default()
            },
            Op::AddEdge { graph, u, v, etype } => Mutation {
                op: "add_edge".into(),
                graph: Some(*graph as u64),
                u: Some(*u as u64),
                v: Some(*v as u64),
                etype: Some(u64::from(*etype)),
                ..Mutation::default()
            },
            Op::RemoveEdge { graph, u, v } => Mutation {
                op: "remove_edge".into(),
                graph: Some(*graph as u64),
                u: Some(*u as u64),
                v: Some(*v as u64),
                ..Mutation::default()
            },
            Op::AddNode { graph, ntype, features, attach, etype } => Mutation {
                op: "add_node".into(),
                graph: Some(*graph as u64),
                ntype: Some(u64::from(*ntype)),
                features: features.clone(),
                attach: attach.iter().map(|&a| a as u64).collect(),
                etype: Some(u64::from(*etype)),
                ..Mutation::default()
            },
            Op::RemoveNode { graph, node } => Mutation {
                op: "remove_node".into(),
                graph: Some(*graph as u64),
                u: Some(*node as u64),
                ..Mutation::default()
            },
        }
    }
}

/// Serializes mutations as JSON Lines (one record per line, trailing
/// newline) — the append-friendly on-disk format.
pub fn to_jsonl(muts: &[Mutation]) -> String {
    let mut out = String::new();
    for m in muts {
        out.push_str(&serde_json::to_string(m).expect("mutations always serialize"));
        out.push('\n');
    }
    out
}

/// Writes a mutation log to `path` (overwriting).
pub fn write_log(path: &Path, muts: &[Mutation]) -> Result<(), LogError> {
    std::fs::write(path, to_jsonl(muts)).map_err(|e| LogError::Io(e.to_string()))
}

/// Reads a JSON Lines mutation log; blank lines are skipped, a malformed
/// line is a typed error naming its line number.
pub fn read_log(path: &Path) -> Result<Vec<Mutation>, LogError> {
    let text = std::fs::read_to_string(path).map_err(|e| LogError::Io(e.to_string()))?;
    parse_jsonl(&text)
}

/// Parses JSON Lines text into mutations (the in-memory half of
/// [`read_log`], shared by the serve `mutate` handler).
pub fn parse_jsonl(text: &str) -> Result<Vec<Mutation>, LogError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let m: Mutation = serde_json::from_str(line)
            .map_err(|e| LogError::Parse { line: i + 1, msg: format!("{e:?}") })?;
        out.push(m);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut b = Graph::builder(false);
        b.add_node(0, &[1.0, 2.0]);
        b.add_node(1, &[3.0, 4.0]);
        b.add_edge(0, 1, 0);
        b.build()
    }

    #[test]
    fn ops_round_trip_through_wire_and_jsonl() {
        let ops = [
            Op::AddGraph { graph: tiny(), truth: 1 },
            Op::RemoveGraph { index: 3 },
            Op::AddEdge { graph: 0, u: 1, v: 2, etype: 1 },
            Op::RemoveEdge { graph: 2, u: 0, v: 1 },
            Op::AddNode { graph: 1, ntype: 2, features: vec![0.5], attach: vec![0, 3], etype: 1 },
            Op::RemoveNode { graph: 1, node: 4 },
        ];
        let wire: Vec<Mutation> = ops.iter().map(Op::to_wire).collect();
        let text = to_jsonl(&wire);
        assert_eq!(text.lines().count(), ops.len());
        let back = parse_jsonl(&text).expect("log parses");
        for (op, m) in ops.iter().zip(&back) {
            assert_eq!(&m.parse().expect("wire validates"), op);
        }
    }

    #[test]
    fn unknown_op_and_missing_fields_are_typed() {
        let m = Mutation { op: "explode".into(), ..Mutation::default() };
        assert_eq!(m.parse(), Err(LogError::UnknownOp("explode".into())));
        let m =
            Mutation { op: "add_edge".into(), graph: Some(0), u: Some(1), ..Default::default() };
        assert_eq!(m.parse(), Err(LogError::MissingField { op: "add_edge", field: "v" }));
        let m = Mutation { op: "add_graph".into(), truth: Some(0), ..Default::default() };
        assert_eq!(m.parse(), Err(LogError::MissingField { op: "add_graph", field: "payload" }));
    }

    #[test]
    fn blank_lines_skipped_and_bad_lines_located() {
        let good = serde_json::to_string(&Op::RemoveGraph { index: 1 }.to_wire()).unwrap();
        let text = format!("{good}\n\n{good}\n");
        assert_eq!(parse_jsonl(&text).unwrap().len(), 2);
        let bad = format!("{good}\nnot json\n");
        match parse_jsonl(&bad) {
            Err(LogError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn defaults_tolerate_extra_and_absent_fields() {
        let m: Mutation =
            serde_json::from_str("{\"op\":\"add_edge\",\"graph\":1,\"u\":0,\"v\":2,\"future\":9}")
                .expect("extra fields ignored");
        assert_eq!(m.parse(), Ok(Op::AddEdge { graph: 1, u: 0, v: 2, etype: 0 }));
    }

    /// An `add_graph` payload whose adjacency names a node the graph does
    /// not have is a typed parse error, not an engine panic later.
    #[test]
    fn hostile_add_graph_payload_is_a_parse_error() {
        let mut b = Graph::builder(false);
        for _ in 0..6 {
            b.add_node(0, &[1.0]);
        }
        for v in 1..6 {
            b.add_edge(v - 1, v, 0);
        }
        let line = to_jsonl(&[Op::AddGraph { graph: b.build(), truth: 0 }.to_wire()]);
        assert!(parse_jsonl(&line).is_ok());
        let out_only = line.replacen("\"out_adj\":[[[1,0]]", "\"out_adj\":[[[99,0]]", 1);
        let both = out_only.replacen("\"in_adj\":[[[1,0]]", "\"in_adj\":[[[99,0]]", 1);
        for (hostile, why) in [(out_only, "in_adj must equal out_adj"), (both, "out of range")] {
            match parse_jsonl(&hostile) {
                Err(LogError::Parse { line: 1, msg }) => assert!(msg.contains(why), "{msg}"),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }
}
