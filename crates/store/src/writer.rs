//! Building `.gvex` files: `gvex db build`'s serialization side.
//!
//! The writer is the *cold* path — it runs once per database, so it favors
//! clarity over speed: columns are encoded through
//! [`gvex_graph::CsrColumns`] (the same structure the borrowed reader view
//! is tested against), integers are emitted via `to_le_bytes`, and the
//! whole file is laid out section by section with explicit zero padding to
//! every 64-byte boundary. What must be exact is the *round trip*: columns
//! come from built graphs (sorted, deduped adjacency) and weights are
//! stored as raw `f32` bits, so reopening the file reproduces the database
//! and model bitwise.

use crate::error::StoreError;
use crate::format::{align_up, encode_header, SectionEntry, SectionId, ENTRY_LEN, HEADER_LEN};
use crate::{crc::crc32, ModelMeta, StoreMeta};
use gvex_gnn::GcnModel;
use gvex_graph::{CsrColumns, GraphDatabase};
use gvex_mining::MiningConfig;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Everything that goes into one `.gvex` file.
pub struct BuildInput<'a> {
    /// The graph database (graphs + truth labels + type registries).
    pub db: &'a GraphDatabase,
    /// The trained classifier whose weights are embedded.
    pub model: &'a GcnModel,
    /// Serialized `ExplanationViewSet` JSON, if views were mined.
    pub views_json: Option<&'a str>,
    /// Dataset label recorded in the metadata (e.g. `"MUT"`).
    pub dataset: &'a str,
    /// Seed the dataset/split were generated from (lets consumers
    /// reconstruct the paper split deterministically).
    pub seed: u64,
    /// Mining bounds the views were produced under, if any.
    pub mining: Option<MiningConfig>,
    /// Ingest epoch this snapshot captures (0 for batch builds).
    pub epoch: u64,
}

fn le_bytes_u32(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_bytes_u64(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn le_bytes_f32(vals: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The model's weight blob: conv layers in order, then `fc_w`, `fc_b`,
/// and the edge gates if present. Shapes are reconstructed from the
/// metadata's model config, so only the raw `f32` payload is stored.
fn model_blob(model: &GcnModel) -> Vec<f32> {
    let mut out = Vec::new();
    for i in 0..model.config().layers {
        out.extend_from_slice(model.conv_weight(i).as_slice());
    }
    out.extend_from_slice(model.fc_weight().as_slice());
    out.extend_from_slice(model.fc_bias().as_slice());
    if let Some(g) = model.edge_gates() {
        out.extend_from_slice(g.as_slice());
    }
    out
}

/// Derives the JSON metadata for `input` (registry names in id order, so
/// the reader re-interns them into identical registries).
fn build_meta(input: &BuildInput) -> StoreMeta {
    let db = input.db;
    let node_type_names = (0..db.node_types.len() as u32).map(|i| db.node_types.name(i)).collect();
    let edge_type_names = (0..db.edge_types.len() as u32).map(|i| db.edge_types.name(i)).collect();
    StoreMeta {
        dataset: input.dataset.to_string(),
        directed: db.graphs().first().is_some_and(|g| g.is_directed()),
        num_graphs: db.len(),
        feature_dim: db.feature_dim(),
        class_names: db.class_names.clone(),
        node_type_names,
        edge_type_names,
        seed: input.seed,
        model: ModelMeta {
            config: *input.model.config(),
            aggregation: input.model.aggregation(),
            readout: input.model.readout(),
            edge_gate_types: input.model.edge_gates().map_or(0, |g| g.cols()),
        },
        mining: input.mining,
        epoch: input.epoch,
    }
}

/// Writes `input` as a `.gvex` file at `path`, returning the file length
/// in bytes. The output is byte-for-byte deterministic for identical
/// inputs (fixed section order, fixed padding).
pub fn write_store(path: &Path, input: &BuildInput) -> Result<u64, StoreError> {
    gvex_obs::span!("store.build");
    let db = input.db;
    let meta = build_meta(input);
    let meta_json = serde_json::to_string(&meta)
        .map_err(|e| StoreError::Malformed(format!("metadata serialization failed: {e:?}")))?;

    let mut cols = CsrColumns::new(meta.directed, meta.feature_dim);
    for g in db.graphs() {
        cols.push(g);
    }
    let labels: Vec<u32> = db
        .truth()
        .iter()
        .map(|&t| u32::try_from(t).expect("class label exceeds u32 range"))
        .collect();

    let mut sections: Vec<(SectionId, Vec<u8>)> = vec![
        (SectionId::Meta, meta_json.into_bytes()),
        (SectionId::NodePtr, le_bytes_u64(&cols.node_ptr)),
        (SectionId::NodeTypes, le_bytes_u32(&cols.node_types)),
        (SectionId::Features, le_bytes_f32(&cols.features)),
        (SectionId::OutIndptr, le_bytes_u64(&cols.out_indptr)),
        (SectionId::OutTargets, le_bytes_u32(&cols.out_targets)),
        (SectionId::OutEtypes, le_bytes_u32(&cols.out_etypes)),
    ];
    if meta.directed {
        sections.push((SectionId::InIndptr, le_bytes_u64(&cols.in_indptr)));
        sections.push((SectionId::InTargets, le_bytes_u32(&cols.in_targets)));
        sections.push((SectionId::InEtypes, le_bytes_u32(&cols.in_etypes)));
    }
    sections.push((SectionId::Labels, le_bytes_u32(&labels)));
    sections.push((SectionId::Model, le_bytes_f32(&model_blob(input.model))));
    if let Some(views) = input.views_json {
        sections.push((SectionId::Views, views.as_bytes().to_vec()));
    }

    // Lay out: header, table, then each payload at the next 64-byte
    // boundary, in table order.
    let table_len = sections.len() * ENTRY_LEN;
    let mut cursor = align_up(HEADER_LEN + table_len);
    let mut entries = Vec::with_capacity(sections.len());
    for (id, bytes) in &sections {
        entries.push(SectionEntry {
            id: *id as u32,
            flags: 0,
            offset: cursor as u64,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        cursor = align_up(cursor + bytes.len());
    }
    let file_len = cursor as u64;

    let mut table = Vec::with_capacity(table_len);
    for e in &entries {
        table.extend_from_slice(&e.encode());
    }
    let header = encode_header(sections.len() as u32, file_len, crc32(&table));

    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&header)?;
    w.write_all(&table)?;
    let mut written = HEADER_LEN + table.len();
    for (e, (_, bytes)) in entries.iter().zip(&sections) {
        let pad = e.offset as usize - written;
        w.write_all(&vec![0u8; pad])?;
        w.write_all(bytes)?;
        written = e.offset as usize + bytes.len();
    }
    // Trailing pad so the recorded file_len is exact.
    w.write_all(&vec![0u8; file_len as usize - written])?;
    w.flush()?;
    gvex_obs::metrics::counter_add("store.build.bytes", file_len);
    Ok(file_len)
}
