//! The immutable attributed data graph.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::attr::{AttrValue, Attribute};
use crate::condensation::Condensation;
use crate::csr::Csr;
use crate::index::AttrIndex;
use crate::sim_index::{SimCatalog, SimTable};
use crate::symbol::{Symbol, SymbolTable};
use crate::tuples::AttrTuples;

/// Identifier of a node in a [`DataGraph`]. Dense, starting at zero.
///
/// `repr(transparent)` over the raw `u32` so node-id runs can live directly
/// inside mapped snapshot sections (see `IntRun`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable directed graph whose nodes carry attribute tuples.
///
/// Built through [`GraphBuilder`](crate::GraphBuilder).  Adjacency is stored
/// as two flat CSR arrays (forward and reverse), so [`children`](Self::children)
/// and [`parents`](Self::parents) hand out contiguous sorted slices of one
/// shared allocation — neighbourhood scans are cache friendly, membership
/// tests binary-search, and reachability backends borrow the slices directly
/// during index construction.  A build-time [`AttrIndex`] maps every
/// `(attribute, value)` pair to its sorted posting list, which is how the
/// engines select candidates without scanning all nodes (see
/// [`nodes_with`](Self::nodes_with)).
///
/// The graph also carries its SCC [`Condensation`] — what every
/// set-at-a-time reachability question is answered on (see
/// [`condensation`](Self::condensation)).  It is derived data: equality
/// ignores it, and a clone shares it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataGraph {
    pub(crate) symbols: SymbolTable,
    /// Forward CSR: `fwd.neighbors(v)` = children of `v`, sorted.
    pub(crate) fwd: Csr<NodeId>,
    /// Reverse CSR: `rev.neighbors(v)` = parents of `v`, sorted.
    pub(crate) rev: Csr<NodeId>,
    pub(crate) attrs: AttrTuples,
    pub(crate) index: AttrIndex,
    pub(crate) sims: SimCatalog,
    pub(crate) edge_count: usize,
    /// The canonical condensation of `fwd`: empty until first asked for,
    /// unless whoever assembled the graph already had it (a snapshot file
    /// stores it).
    #[serde(skip)]
    pub(crate) condensation: OnceLock<Arc<Condensation>>,
}

impl PartialEq for DataGraph {
    /// Compares what defines the graph; the condensation follows from it.
    fn eq(&self, other: &Self) -> bool {
        // Destructured so that a new field has to be placed here.
        let Self {
            symbols,
            fwd,
            rev,
            attrs,
            index,
            sims,
            edge_count,
            condensation: _,
        } = self;
        *symbols == other.symbols
            && *fwd == other.fwd
            && *rev == other.rev
            && *attrs == other.attrs
            && *index == other.index
            && *sims == other.sims
            && *edge_count == other.edge_count
    }
}

impl DataGraph {
    /// The SCC condensation of this graph, computed (one Tarjan pass) on
    /// first use and shared afterwards.  Graphs published by
    /// [`GraphHandle::commit`](crate::GraphHandle::commit) arrive with theirs
    /// computed, and graphs decoded from a `.gtpq` snapshot with the stored
    /// one installed, so no query pays for it.
    pub fn condensation(&self) -> &Arc<Condensation> {
        self.condensation
            .get_or_init(|| Arc::new(Condensation::new(self)))
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.attrs.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The `(device, inode)` of the `.gtpq` file any of this graph's runs
    /// borrow, when the graph is a mapped snapshot view (see
    /// [`crate::snap`]); `None` for graphs built in memory or loaded into a
    /// heap buffer.
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.fwd
            .backing_file_id()
            .or_else(|| self.rev.backing_file_id())
            .or_else(|| self.attrs.backing_file_id())
            .or_else(|| self.index.backing_file_id())
            .or_else(|| self.sims.backing_file_id())
    }

    /// Children (direct successors) of `v`, sorted by id.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        self.fwd.neighbors(v.index())
    }

    /// Parents (direct predecessors) of `v`, sorted by id.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        self.rev.neighbors(v.index())
    }

    /// Whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.fwd.contains(u.index(), v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.fwd.degree(v.index())
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.rev.degree(v.index())
    }

    /// The attribute tuple `f(v)` of node `v`.
    ///
    /// On a snapshot-loaded graph the first per-node attribute access
    /// materializes the whole tuple table from the mapped columns (see
    /// `AttrTuples`); index-served predicate evaluation never needs it.
    #[inline]
    pub fn attributes(&self, v: NodeId) -> &[Attribute] {
        &self.attrs.tuples()[v.index()]
    }

    /// Looks up the value of the attribute named `name` on node `v`.
    pub fn attribute_value(&self, v: NodeId, name: &str) -> Option<&AttrValue> {
        let sym = self.symbols.get(name)?;
        self.attribute_value_sym(v, sym)
    }

    /// Looks up the value of the attribute with interned name `name` on `v`.
    pub(crate) fn attribute_value_sym(&self, v: NodeId, name: Symbol) -> Option<&AttrValue> {
        self.attrs.tuples()[v.index()]
            .iter()
            .find(|a| a.name == name)
            .map(|a| &a.value)
    }

    /// The symbol table interning attribute names.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The attribute inverted index built alongside the graph.
    #[inline]
    pub fn attr_index(&self) -> &AttrIndex {
        &self.index
    }

    /// The sorted posting list of nodes whose attribute `name` equals `value`
    /// — an O(1) dictionary probe plus a borrowed slice, no node scan.
    pub fn nodes_with(&self, name: &str, value: &AttrValue) -> &[NodeId] {
        match self.symbols.get(name) {
            Some(sym) => self.index.nodes_eq(sym, value),
            None => &[],
        }
    }

    /// The sorted posting list of nodes carrying attribute `name` at all.
    pub fn nodes_with_attr_name(&self, name: &str) -> &[NodeId] {
        match self.symbols.get(name) {
            Some(sym) => self.index.nodes_with_name(sym),
            None => &[],
        }
    }

    /// Nodes whose integer attribute `name` lies in `[lo, hi]`, sorted by id.
    pub fn nodes_with_int_range(&self, name: &str, lo: i64, hi: i64) -> Vec<NodeId> {
        match self.symbols.get(name) {
            Some(sym) => self.index.nodes_int_range(sym, lo, hi),
            None => Vec::new(),
        }
    }

    /// The similarity tables built alongside the graph (one per attribute
    /// carrying embedding values).
    #[inline]
    pub fn sim_catalog(&self) -> &SimCatalog {
        &self.sims
    }

    /// The similarity table for attribute `name`, when one exists.  The
    /// pivot-filter access path is complete only for query vectors of the
    /// table's [`dim`](SimTable::dim); callers with another dimensionality
    /// fall back to [`nodes_with_attr_name`](Self::nodes_with_attr_name) plus
    /// exact verification.
    pub fn sim_table(&self, name: &str) -> Option<&SimTable> {
        self.sims.get(self.symbols.get(name)?)
    }

    /// Total number of attribute entries across all nodes (O(1)).
    pub(crate) fn attribute_count(&self) -> usize {
        self.attrs.entry_count()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::LABEL_ATTR;

    use super::*;

    fn sample() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("A");
        let c = b.add_node_with_label("B");
        let d = b.add_node_with_label("B");
        b.add_edge(a, c);
        b.add_edge(a, d);
        b.add_edge(c, d);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = sample();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(2)), 2);
    }

    #[test]
    fn the_condensation_is_computed_once_shared_by_clones_and_ignored_by_equality() {
        let g = sample();
        let first = Arc::clone(g.condensation());
        assert!(Arc::ptr_eq(&first, g.condensation()));
        assert!(Arc::ptr_eq(&first, g.clone().condensation()));
        assert!(Arc::ptr_eq(
            &first,
            crate::GraphSnapshot::freeze(Arc::new(g.clone())).condensation()
        ));
        // A twin that was never asked for its condensation is the same graph.
        let twin = sample();
        assert_eq!(g, twin);
        assert_eq!(*first, Condensation::new(&twin));
    }

    #[test]
    fn adjacency_is_sorted_and_queried() {
        let g = sample();
        assert_eq!(g.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(2), NodeId(0)));
    }

    #[test]
    fn attribute_lookup() {
        let g = sample();
        assert_eq!(
            g.attribute_value(NodeId(0), LABEL_ATTR),
            Some(&AttrValue::str("A"))
        );
        assert_eq!(g.attribute_value(NodeId(0), "missing"), None);
        assert_eq!(
            g.nodes_with(LABEL_ATTR, &AttrValue::str("B")),
            &[NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn posting_lists_answer_without_scanning() {
        let g = sample();
        assert_eq!(
            g.nodes_with(LABEL_ATTR, &AttrValue::str("B")),
            &[NodeId(1), NodeId(2)]
        );
        assert_eq!(g.nodes_with(LABEL_ATTR, &AttrValue::str("Z")), &[]);
        assert_eq!(g.nodes_with("missing", &AttrValue::str("B")), &[]);
        assert_eq!(g.nodes_with_attr_name(LABEL_ATTR).len(), 3);
        assert_eq!(g.nodes_with_attr_name("missing"), &[]);
        assert!(g.attr_index().entry_count() > 0);
    }
}
