//! Streamed `.gtpq` snapshot writer for the big generated tiers.
//!
//! [`write_arxiv_snapshot`] produces exactly the file that
//! `GraphSnapshot::save` would produce for `generate_arxiv(config)` —
//! byte for byte — without ever materializing the graph: no
//! [`DataGraph`](gtpq_graph::DataGraph), no `GraphBuilder`, no per-node
//! attribute tuples with heap-allocated strings, no hash-map inverted
//! index.  Peak state is a handful of flat primitive columns (one `u32`
//! per node, one `i64` per paper, 8 bytes per edge plus the two CSR
//! copies) — tens of bytes per edge instead of the hundreds of bytes per
//! node a built graph costs — which is what makes the 100× tier writable
//! on the same machine that later maps it in O(page-fault).
//!
//! The columns fill a [`SnapshotColumns`] set — the format itself (section
//! ids, order, counts, tags) is `gtpq_graph::snap`'s business — and
//! reproduce the canonical layout the in-memory path builds
//! (first-use string dictionary, value postings in `(symbol, value)` order,
//! node-sorted posting lists), the generator itself is shared with
//! [`generate_arxiv`](crate::arxiv::generate_arxiv) (same emitter, same RNG
//! sequence), and the condensation comes from
//! [`Condensation::identity_dag`] — the generated citation graph is a DAG
//! by construction (citations only point to earlier papers, authors are
//! sinks), and `identity_dag` *verifies* that claim with a Kahn pass
//! rather than trusting it.

use std::collections::HashMap;
use std::path::Path;

use gtpq_graph::csr::Csr;
use gtpq_graph::{Condensation, NodeId, SnapshotColumns, SnapshotError, Symbol, ValueColumns};

use crate::arxiv::{emit_arxiv, ArxivConfig, ArxivSink};

/// Shape summary of a written snapshot, for logs and benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotStats {
    /// Nodes in the written graph.
    pub nodes: usize,
    /// De-duplicated directed edges.
    pub edges: usize,
    /// Distinct label strings.
    pub labels: usize,
}

/// Columnar sink: per-node label dictionary ids, per-paper years, and the
/// raw edge list.  Everything is a flat primitive column.
#[derive(Default)]
struct Columns {
    /// First-use-order dictionary of label strings (papers scan first).
    dict: Vec<String>,
    dict_ids: HashMap<(bool, u32), u32>,
    /// Dictionary id of every node's label, in node order.
    label_of: Vec<u32>,
    /// Year of every paper (papers are nodes `0..years.len()`).
    years: Vec<i64>,
    edges: Vec<(u32, u32)>,
}

impl Columns {
    fn label_id(&mut self, author: bool, label: u32) -> u32 {
        *self.dict_ids.entry((author, label)).or_insert_with(|| {
            self.dict.push(if author {
                format!("auth{label}")
            } else {
                format!("paper{label}")
            });
            (self.dict.len() - 1) as u32
        })
    }
}

impl ArxivSink for Columns {
    fn paper(&mut self, label: u32, year: i64) {
        let id = self.label_id(false, label);
        self.label_of.push(id);
        self.years.push(year);
    }
    fn author(&mut self, label: u32) {
        let id = self.label_id(true, label);
        self.label_of.push(id);
    }
    fn edge(&mut self, from: u32, to: u32) {
        self.edges.push((from, to));
    }
}

/// Generates the arXiv tier described by `config` and writes it straight to
/// `path` as a `.gtpq` snapshot (epoch 0), byte-identical to
/// `GraphSnapshot::save` over `generate_arxiv(config)`.
pub fn write_arxiv_snapshot<P: AsRef<Path>>(
    config: &ArxivConfig,
    path: P,
) -> Result<SnapshotStats, SnapshotError> {
    let mut cols = Columns::default();
    emit_arxiv(config, &mut cols);
    let papers = cols.years.len();
    let n = cols.label_of.len();

    // Adjacency, de-duplicated exactly as `GraphBuilder::build` does.
    let mut fwd_pairs: Vec<(u32, NodeId)> =
        cols.edges.iter().map(|&(u, v)| (u, NodeId(v))).collect();
    fwd_pairs.sort_unstable();
    fwd_pairs.dedup();
    let edge_count = fwd_pairs.len();
    let mut rev_pairs: Vec<(u32, NodeId)> =
        fwd_pairs.iter().map(|&(u, v)| (v.0, NodeId(u))).collect();
    rev_pairs.sort_unstable();
    let fwd = Csr::from_sorted_pairs(n, &fwd_pairs);
    let rev = Csr::from_sorted_pairs(n, &rev_pairs);
    drop(fwd_pairs);
    drop(rev_pairs);
    cols.edges = Vec::new();

    // The DAG check: citations only point backwards and authors are sinks,
    // so the condensation must be the identity.  `identity_dag` verifies
    // acyclicity with its Kahn pass instead of trusting the generator.
    let condensation =
        Condensation::identity_dag(&fwd, &rev).ok_or_else(|| SnapshotError::Malformed {
            what: "generated arXiv graph is not a DAG (generator invariant broken)".to_owned(),
        })?;

    // Symbols in builder interning order: papers intern `label` then
    // `year`; author-only graphs know just `label`.
    let mut symbols: Vec<&str> = Vec::new();
    if n > 0 {
        symbols.push("label");
    }
    if papers > 0 {
        symbols.push("year");
    }
    let label_sym = Symbol(0);
    let year_sym = Symbol(1);
    let strings: Vec<&str> = cols.dict.iter().map(String::as_str).collect();

    // Attribute columns in node order: papers carry (label, year), authors
    // just (label) — the same tuple order `add_node_with_attrs` produces.
    let attr_entries = 2 * papers + (n - papers);
    let mut attr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut attr_names: Vec<Symbol> = Vec::with_capacity(attr_entries);
    let mut attr_values = ValueColumns::with_capacity(attr_entries);
    attr_offsets.push(0);
    for v in 0..n {
        attr_names.push(label_sym);
        attr_values.push_str(cols.label_of[v] as usize);
        if v < papers {
            attr_names.push(year_sym);
            attr_values.push_int(cols.years[v]);
        }
        attr_offsets.push(attr_names.len() as u32);
    }

    // Value postings in canonical slot order: `(symbol, value)` with ints
    // before strings per symbol — here all `label` values are strings
    // (sorted lexicographically) and all `year` values are ints (sorted
    // numerically), and `label < year` in symbol order.  Scanning nodes in
    // id order makes every posting list sorted for free.
    let mut label_postings: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for (v, &id) in cols.label_of.iter().enumerate() {
        label_postings.entry(id).or_default().push(NodeId(v as u32));
    }
    let mut label_order: Vec<u32> = label_postings.keys().copied().collect();
    label_order.sort_unstable_by(|&a, &b| cols.dict[a as usize].cmp(&cols.dict[b as usize]));
    // Years are non-decreasing in paper id, so distinct years in first-seen
    // order are already value-sorted and each posting is id-sorted.
    let mut year_order: Vec<i64> = Vec::new();
    let mut year_postings: HashMap<i64, Vec<NodeId>> = HashMap::new();
    for (v, &year) in cols.years.iter().enumerate() {
        year_postings.entry(year).or_insert_with(|| {
            year_order.push(year);
            Vec::new()
        });
        year_postings
            .get_mut(&year)
            .expect("just inserted")
            .push(NodeId(v as u32));
    }
    debug_assert!(year_order.windows(2).all(|w| w[0] < w[1]));

    let slot_count = label_order.len() + year_order.len();
    let mut val_syms: Vec<Symbol> = Vec::with_capacity(slot_count);
    let mut val_values = ValueColumns::with_capacity(slot_count);
    let mut val_offsets: Vec<u32> = Vec::with_capacity(slot_count + 1);
    let mut val_nodes: Vec<NodeId> = Vec::new();
    val_offsets.push(0);
    for &id in &label_order {
        val_syms.push(label_sym);
        val_values.push_str(id as usize);
        val_nodes.extend_from_slice(&label_postings[&id]);
        val_offsets.push(val_nodes.len() as u32);
    }
    for &year in &year_order {
        val_syms.push(year_sym);
        val_values.push_int(year);
        val_nodes.extend_from_slice(&year_postings[&year]);
        val_offsets.push(val_nodes.len() as u32);
    }

    // Name postings in symbol order: every node carries `label`, every
    // paper carries `year`.
    let mut name_syms: Vec<Symbol> = Vec::new();
    let mut name_offsets: Vec<u32> = vec![0];
    let mut name_nodes: Vec<NodeId> = Vec::with_capacity(n + papers);
    if n > 0 {
        name_syms.push(label_sym);
        name_nodes.extend((0..n as u32).map(NodeId));
        name_offsets.push(name_nodes.len() as u32);
    }
    if papers > 0 {
        name_syms.push(year_sym);
        name_nodes.extend((0..papers as u32).map(NodeId));
        name_offsets.push(name_nodes.len() as u32);
    }

    // Integer runs: `year` only.  Years are non-decreasing in paper id, so
    // the `(year, paper)` pairs are already `(value, node)`-sorted.
    let int_syms: Vec<Symbol> = if papers > 0 {
        vec![year_sym]
    } else {
        Vec::new()
    };
    let int_offsets: Vec<u32> = if papers > 0 {
        vec![0, papers as u32]
    } else {
        vec![0]
    };
    let int_nodes: Vec<NodeId> = (0..papers as u32).map(NodeId).collect();

    // The arXiv schema has no vector attributes and no `sim(...)` tables:
    // those column groups keep their canonical empty defaults.
    SnapshotColumns {
        fwd_offsets: fwd.offsets_raw(),
        fwd_targets: fwd.targets_raw(),
        rev_offsets: rev.offsets_raw(),
        rev_targets: rev.targets_raw(),
        symbols: &symbols,
        strings: &strings,
        attr_offsets: &attr_offsets,
        attr_names: &attr_names,
        attr_tags: &attr_values.tags,
        attr_payloads: &attr_values.payloads,
        val_syms: &val_syms,
        val_tags: &val_values.tags,
        val_payloads: &val_values.payloads,
        val_offsets: &val_offsets,
        val_nodes: &val_nodes,
        name_syms: &name_syms,
        name_offsets: &name_offsets,
        name_nodes: &name_nodes,
        int_syms: &int_syms,
        int_offsets: &int_offsets,
        int_values: &cols.years,
        int_nodes: &int_nodes,
        ..SnapshotColumns::default()
    }
    .with_condensation(&condensation)
    .write(path, 0)?;

    Ok(SnapshotStats {
        nodes: n,
        edges: edge_count,
        labels: cols.dict.len(),
    })
}

#[cfg(test)]
mod tests {
    use gtpq_graph::{GraphHandle, GraphSnapshot};

    use super::*;
    use crate::arxiv::generate_arxiv;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gtpq-stream-{tag}-{}.gtpq", std::process::id()))
    }

    #[test]
    fn streamed_file_is_byte_identical_to_saving_the_built_graph() {
        // The degenerate shapes reach the symbol-table special cases: no
        // nodes at all, authors only (no `year`), papers only, one of each.
        let shapes = [(600, 250), (0, 0), (0, 5), (5, 0), (1, 1)];
        for (papers, authors) in shapes {
            let config = ArxivConfig {
                papers,
                authors,
                ..ArxivConfig::small()
            };
            let streamed = temp(&format!("streamed-{papers}-{authors}"));
            let saved = temp(&format!("saved-{papers}-{authors}"));
            let stats = write_arxiv_snapshot(&config, &streamed).expect("streamed write");

            let g = generate_arxiv(&config);
            assert_eq!(stats.nodes, g.node_count());
            assert_eq!(stats.edges, g.edge_count());
            GraphHandle::new(g).snapshot().save(&saved).expect("save");

            let a = std::fs::read(&streamed).unwrap();
            let b = std::fs::read(&saved).unwrap();
            assert!(
                a == b,
                "streamed writer diverged from the canonical save path \
                 at {papers} papers, {authors} authors"
            );
            std::fs::remove_file(&streamed).ok();
            std::fs::remove_file(&saved).ok();
        }
    }

    #[test]
    fn streamed_snapshot_loads_to_the_generated_graph() {
        let config = ArxivConfig {
            papers: 180,
            authors: 70,
            paper_labels: 30,
            author_labels: 10,
            ..ArxivConfig::default()
        };
        let path = temp("load");
        write_arxiv_snapshot(&config, &path).expect("streamed write");
        let snap = GraphSnapshot::open_heap(&path).expect("verified load");
        let expected = generate_arxiv(&config);
        assert_eq!(*snap.graph().as_ref(), expected);
        assert_eq!(
            *snap.condensation().as_ref(),
            Condensation::new(&expected),
            "identity condensation must match Tarjan on the DAG"
        );
        assert!(snap.condensation().input_was_dag());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tier_scales_linearly_in_nodes() {
        let t1 = ArxivConfig::tier(1);
        let t10 = ArxivConfig::tier(10);
        assert_eq!(t10.papers, 10 * t1.papers);
        assert_eq!(t10.authors, 10 * t1.authors);
        assert!(t10.paper_labels > t1.paper_labels);
        assert!(t10.paper_labels < 10 * t1.paper_labels);
    }
}
