//! Opening and serving `.gvex` files: the zero-copy hot path.
//!
//! [`Store::open`] maps the file, validates the header, table, and every
//! section CRC, type-checks the column geometry, and checks every graph's
//! CSR invariants ([`CsrGraph::validate`]) — all without a single
//! allocation proportional to data size (the only heap use is the decoded
//! table, the parsed metadata, and — in the portability fallback — the
//! aligned file buffer itself). After a successful open, every accessor is
//! infallible: [`Store::graph`] hands out a [`CsrGraph`] borrowing the
//! mapped bytes directly, [`Store::model_weights`] is the raw `f32` column,
//! and the materializing conveniences ([`Store::database`],
//! [`Store::model`], [`Store::views_json`]) exist for consumers that need
//! owned values — those cost O(data), but only when called, never at open.

use crate::error::StoreError;
use crate::format::{
    cast_slice, decode_header, SectionEntry, SectionId, ENTRY_LEN, HEADER_LEN, SECTION_ALIGN,
};
use crate::mmap::Mapping;
use crate::{crc::crc32, StoreMeta};
use gvex_gnn::GcnModel;
use gvex_graph::csr::slice_adjacency;
use gvex_graph::{CsrGraph, GraphDatabase};
use gvex_linalg::Matrix;
use std::path::Path;

/// An opened `.gvex` container. Holds the mapping for its whole lifetime;
/// every borrowed accessor ties its lifetime to `&self`.
pub struct Store {
    map: Mapping,
    entries: Vec<SectionEntry>,
    meta: StoreMeta,
}

impl Store {
    /// Opens and fully validates a `.gvex` file.
    ///
    /// Validation covers the magic, version, declared length, table CRC,
    /// per-section CRCs, 64-byte section alignment, the mutual
    /// consistency of the column lengths with the metadata, and the CSR
    /// invariants of every graph ([`CsrGraph::validate`]). Corruption is
    /// an `Err`, never a panic. Allocation on this path is O(sections),
    /// independent of data size.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        gvex_obs::span!("store.open");
        let t0 = std::time::Instant::now();
        if cfg!(not(target_endian = "little")) {
            return Err(StoreError::UnsupportedPlatform);
        }
        let map = Mapping::open(path)?;
        let header = decode_header(&map)?;
        if header.file_len != map.len() as u64 {
            return Err(StoreError::Truncated {
                needed: header.file_len,
                actual: map.len() as u64,
            });
        }
        let table_end = HEADER_LEN + header.section_count as usize * ENTRY_LEN;
        if table_end > map.len() {
            return Err(StoreError::Truncated {
                needed: table_end as u64,
                actual: map.len() as u64,
            });
        }
        let table = &map[HEADER_LEN..table_end];
        if crc32(table) != header.table_crc {
            return Err(StoreError::ChecksumMismatch { section: "table" });
        }
        let entries: Vec<SectionEntry> =
            table.chunks_exact(ENTRY_LEN).map(SectionEntry::decode).collect();
        for e in &entries {
            if !e.offset.is_multiple_of(SECTION_ALIGN as u64) {
                return Err(StoreError::Misaligned { section: e.name(), offset: e.offset });
            }
            let end = e.offset.checked_add(e.len).ok_or_else(|| {
                StoreError::Malformed(format!("section '{}' overflows", e.name()))
            })?;
            if end > map.len() as u64 {
                return Err(StoreError::Truncated { needed: end, actual: map.len() as u64 });
            }
            let payload = &map[e.offset as usize..end as usize];
            if crc32(payload) != e.crc {
                return Err(StoreError::ChecksumMismatch { section: e.name() });
            }
        }

        let meta_bytes = section_bytes(&map, &entries, SectionId::Meta)
            .ok_or(StoreError::MissingSection("meta"))?;
        let meta_str = std::str::from_utf8(meta_bytes)
            .map_err(|_| StoreError::Malformed("metadata is not UTF-8".into()))?;
        let meta: StoreMeta = serde_json::from_str(meta_str)
            .map_err(|e| StoreError::Malformed(format!("metadata does not decode: {e:?}")))?;

        let store = Self { map, entries, meta };
        store.validate_columns()?;

        if gvex_obs::enabled() {
            let open_us = t0.elapsed().as_micros() as u64;
            gvex_obs::metrics::counter_add("store.opens", 1);
            gvex_obs::metrics::counter_add("store.open_ms", open_us.div_ceil(1000));
            gvex_obs::metrics::counter_add("store.mapped_bytes", store.map.len() as u64);
            for e in &store.entries {
                gvex_obs::metrics::counter_add(&format!("store.section.{}.bytes", e.name()), e.len);
            }
        }
        Ok(store)
    }

    /// Checks that every typed column casts cleanly and that the lengths
    /// agree with the metadata, so the accessors below can be infallible.
    fn validate_columns(&self) -> Result<(), StoreError> {
        let m = &self.meta;
        let node_ptr = self.typed::<u64>(SectionId::NodePtr)?;
        if node_ptr.len() != m.num_graphs + 1 {
            return Err(StoreError::Malformed(format!(
                "node_ptr has {} entries for {} graphs",
                node_ptr.len(),
                m.num_graphs
            )));
        }
        if node_ptr.windows(2).any(|w| w[0] > w[1]) || node_ptr[0] != 0 {
            return Err(StoreError::Malformed("node_ptr is not a cumulative count".into()));
        }
        let total_nodes = *node_ptr.last().expect("node_ptr nonempty") as usize;
        let node_types = self.typed::<u32>(SectionId::NodeTypes)?;
        if node_types.len() != total_nodes {
            return Err(StoreError::Malformed("node_types length mismatch".into()));
        }
        let features = self.typed::<f32>(SectionId::Features)?;
        if total_nodes.checked_mul(m.feature_dim) != Some(features.len()) {
            return Err(StoreError::Malformed("feature matrix size mismatch".into()));
        }
        let dirs: &[SectionId] = if m.directed {
            &[SectionId::OutIndptr, SectionId::InIndptr]
        } else {
            &[SectionId::OutIndptr]
        };
        for &ind in dirs {
            let (targets_id, etypes_id) = if ind == SectionId::OutIndptr {
                (SectionId::OutTargets, SectionId::OutEtypes)
            } else {
                (SectionId::InTargets, SectionId::InEtypes)
            };
            let indptr = self.typed::<u64>(ind)?;
            if indptr.len() != total_nodes + 1 {
                return Err(StoreError::Malformed(format!(
                    "{} has {} entries for {total_nodes} nodes",
                    ind.name(),
                    indptr.len()
                )));
            }
            if indptr.windows(2).any(|w| w[0] > w[1]) || indptr[0] != 0 {
                return Err(StoreError::Malformed(format!(
                    "{} is not non-decreasing from 0",
                    ind.name()
                )));
            }
            let entries = *indptr.last().expect("indptr nonempty") as usize;
            let targets = self.typed::<u32>(targets_id)?;
            let etypes = self.typed::<u32>(etypes_id)?;
            if targets.len() != entries || etypes.len() != entries {
                return Err(StoreError::Malformed(format!(
                    "{}/{} length disagrees with {}",
                    targets_id.name(),
                    etypes_id.name(),
                    ind.name()
                )));
            }
        }
        // The geometry above makes every per-graph carve in-bounds; now the
        // per-row invariants, so no accessor can index out of range later.
        for i in 0..m.num_graphs {
            self.graph(i)
                .validate()
                .map_err(|e| StoreError::Malformed(format!("graph {i}: {e}")))?;
        }
        let labels = self.typed::<u32>(SectionId::Labels)?;
        if labels.len() != m.num_graphs {
            return Err(StoreError::Malformed("one label per graph required".into()));
        }
        if labels.iter().any(|&l| l as usize >= m.class_names.len()) {
            return Err(StoreError::Malformed("label out of class range".into()));
        }
        let weights = self.typed::<f32>(SectionId::Model)?;
        if weights.len() != model_f32_len(m) {
            return Err(StoreError::Malformed(format!(
                "model blob has {} f32s, config requires {}",
                weights.len(),
                model_f32_len(m)
            )));
        }
        if let Some(v) = section_bytes(&self.map, &self.entries, SectionId::Views) {
            std::str::from_utf8(v)
                .map_err(|_| StoreError::Malformed("views payload is not UTF-8".into()))?;
        }
        Ok(())
    }

    fn typed<T: Copy>(&self, id: SectionId) -> Result<&[T], StoreError> {
        let e = self
            .entries
            .iter()
            .find(|e| e.id == id as u32)
            .ok_or(StoreError::MissingSection(id.name()))?;
        let bytes = &self.map[e.offset as usize..(e.offset + e.len) as usize];
        cast_slice(bytes, id.name(), e.offset)
    }

    fn column<T: Copy>(&self, id: SectionId) -> &[T] {
        self.typed(id).expect("validated at open")
    }

    /// The parsed metadata.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The decoded section table (for `db inspect`).
    pub fn sections(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Total mapped bytes (the file length).
    pub fn mapped_len(&self) -> usize {
        self.map.len()
    }

    /// How the bytes are served: `"mmap"` or `"read"`.
    pub fn mapping_kind(&self) -> &'static str {
        self.map.kind()
    }

    /// Number of graphs in the database.
    pub fn num_graphs(&self) -> usize {
        self.meta.num_graphs
    }

    /// Ground-truth class labels, one per graph, borrowing the mapping.
    pub fn labels(&self) -> &[u32] {
        self.column::<u32>(SectionId::Labels)
    }

    /// Graph `i` as a borrowed [`CsrGraph`] over the mapped columns —
    /// the zero-copy read path. Construction is a handful of slice carves.
    pub fn graph(&self, i: usize) -> CsrGraph<'_> {
        let node_ptr = self.column::<u64>(SectionId::NodePtr);
        let n0 = node_ptr[i] as usize;
        let n1 = node_ptr[i + 1] as usize;
        let out = slice_adjacency(
            self.column::<u64>(SectionId::OutIndptr),
            self.column::<u32>(SectionId::OutTargets),
            self.column::<u32>(SectionId::OutEtypes),
            n0,
            n1,
        );
        let inn = if self.meta.directed {
            slice_adjacency(
                self.column::<u64>(SectionId::InIndptr),
                self.column::<u32>(SectionId::InTargets),
                self.column::<u32>(SectionId::InEtypes),
                n0,
                n1,
            )
        } else {
            out
        };
        let d = self.meta.feature_dim;
        CsrGraph::new(
            self.meta.directed,
            &self.column::<u32>(SectionId::NodeTypes)[n0..n1],
            &self.column::<f32>(SectionId::Features)[n0 * d..n1 * d],
            d,
            out,
            inn,
        )
    }

    /// The raw model weight column (zero-copy; layout documented at
    /// [`SectionId::Model`]).
    pub fn model_weights(&self) -> &[f32] {
        self.column::<f32>(SectionId::Model)
    }

    /// Reassembles the trained model (copies the weights into owned
    /// matrices — bitwise identical to the model that was stored).
    pub fn model(&self) -> GcnModel {
        let m = &self.meta.model;
        let cfg = m.config;
        let w = self.model_weights();
        let mut at = 0usize;
        let mut take = |rows: usize, cols: usize| {
            let v = w[at..at + rows * cols].to_vec();
            at += rows * cols;
            Matrix::from_vec(rows, cols, v)
        };
        let mut conv = Vec::with_capacity(cfg.layers);
        let mut in_dim = cfg.input_dim;
        for _ in 0..cfg.layers {
            conv.push(take(in_dim, cfg.hidden));
            in_dim = cfg.hidden;
        }
        let fc_w = take(cfg.hidden, cfg.num_classes);
        let fc_b = take(1, cfg.num_classes);
        let gates = (m.edge_gate_types > 0).then(|| take(1, m.edge_gate_types));
        GcnModel::from_parts(cfg, conv, fc_w, fc_b, m.aggregation, m.readout, gates)
    }

    /// The serialized explanation views, if the file carries any.
    pub fn views_json(&self) -> Option<&str> {
        let bytes = section_bytes(&self.map, &self.entries, SectionId::Views)?;
        Some(std::str::from_utf8(bytes).expect("validated at open"))
    }

    /// Materializes the full owned [`GraphDatabase`] — registries rebuilt
    /// by interning the stored names in id order, graphs copied out of the
    /// mapped columns ([`CsrGraph::to_graph`]). Bitwise identical to the
    /// database that was stored; costs O(data), deliberately *not* part of
    /// the open path.
    pub fn database(&self) -> GraphDatabase {
        gvex_obs::span!("store.materialize_db");
        let mut db = GraphDatabase::new(self.meta.class_names.clone());
        for name in &self.meta.node_type_names {
            db.node_types.intern(name);
        }
        for name in &self.meta.edge_type_names {
            db.edge_types.intern(name);
        }
        for (i, &label) in self.labels().iter().enumerate() {
            db.push(self.graph(i).to_graph(), label as usize);
        }
        db
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dataset", &self.meta.dataset)
            .field("graphs", &self.num_graphs())
            .field("sections", &self.entries.len())
            .field("mapped_bytes", &self.mapped_len())
            .field("mapping", &self.mapping_kind())
            .finish()
    }
}

fn section_bytes<'a>(map: &'a [u8], entries: &[SectionEntry], id: SectionId) -> Option<&'a [u8]> {
    let e = entries.iter().find(|e| e.id == id as u32)?;
    Some(&map[e.offset as usize..(e.offset + e.len) as usize])
}

/// Expected `f32` count of the model section under `meta`'s config.
fn model_f32_len(meta: &StoreMeta) -> usize {
    let c = meta.model.config;
    let mut n = 0;
    let mut in_dim = c.input_dim;
    for _ in 0..c.layers {
        n += in_dim * c.hidden;
        in_dim = c.hidden;
    }
    n + c.hidden * c.num_classes + c.num_classes + meta.model.edge_gate_types
}
