//! Mutable builder producing immutable [`DataGraph`]s.

use crate::attr::{AttrValue, Attribute};
use crate::graph::{DataGraph, NodeId};
use crate::symbol::SymbolTable;
use crate::LABEL_ATTR;

/// Incrementally constructs a [`DataGraph`].
///
/// Nodes receive dense ids in insertion order.  Duplicate edges are removed
/// at [`build`](GraphBuilder::build) time; self-loops are kept (they make the
/// node its own descendant, which the reachability layer handles through the
/// SCC condensation).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    symbols: SymbolTable,
    attrs: Vec<Vec<Attribute>>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder expecting roughly `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            symbols: SymbolTable::new(),
            attrs: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node with no attributes and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.attrs.len() as u32);
        self.attrs.push(Vec::new());
        id
    }

    /// Adds a node carrying only a `label` attribute.
    pub fn add_node_with_label(&mut self, label: &str) -> NodeId {
        let id = self.add_node();
        self.set_attr(id, LABEL_ATTR, AttrValue::str(label));
        id
    }

    /// Adds a node with the given `(name, value)` attribute pairs.
    pub fn add_node_with_attrs<'a, I>(&mut self, attrs: I) -> NodeId
    where
        I: IntoIterator<Item = (&'a str, AttrValue)>,
    {
        let id = self.add_node();
        let attrs = attrs.into_iter();
        self.attrs[id.index()].reserve_exact(attrs.size_hint().0);
        for (name, value) in attrs {
            self.set_attr(id, name, value);
        }
        id
    }

    /// Sets (or overwrites) attribute `name` on node `v`.
    pub fn set_attr(&mut self, v: NodeId, name: &str, value: AttrValue) {
        let sym = self.symbols.intern(name);
        let attrs = &mut self.attrs[v.index()];
        if let Some(existing) = attrs.iter_mut().find(|a| a.name == sym) {
            existing.value = value;
        } else {
            // The graph keeps each tuple as built: grown one slot at a time,
            // it holds no spare capacity (a plain `push` would leave three
            // of four slots empty on a node with one attribute).
            attrs.reserve_exact(1);
            attrs.push(Attribute::new(sym, value));
        }
    }

    /// Adds a directed edge from `u` to `v`.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added yet.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.attrs.len() && v.index() < self.attrs.len(),
            "edge endpoints must be existing nodes"
        );
        self.edges.push((u, v));
    }

    /// Finalizes the graph: sorts and de-duplicates the edge list, packs it
    /// into forward and reverse CSR arrays, and builds the attribute inverted
    /// index.
    pub fn build(self) -> DataGraph {
        let n = self.attrs.len();
        let mut fwd_pairs: Vec<(u32, NodeId)> = self.edges.iter().map(|&(u, v)| (u.0, v)).collect();
        fwd_pairs.sort_unstable();
        fwd_pairs.dedup();
        let edge_count = fwd_pairs.len();
        let mut rev_pairs: Vec<(u32, NodeId)> =
            fwd_pairs.iter().map(|&(u, v)| (v.0, NodeId(u))).collect();
        rev_pairs.sort_unstable();
        let fwd = crate::csr::Csr::from_sorted_pairs(n, &fwd_pairs);
        let rev = crate::csr::Csr::from_sorted_pairs(n, &rev_pairs);
        let index = crate::index::AttrIndex::build(&self.attrs);
        let sims = crate::sim_index::SimCatalog::build(&self.attrs);
        DataGraph {
            symbols: self.symbols,
            fwd,
            rev,
            attrs: self.attrs.into(),
            index,
            sims,
            edge_count,
            condensation: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_are_removed() {
        let mut b = GraphBuilder::new();
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c);
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.children(a), &[c]);
        assert_eq!(g.parents(c), &[a]);
    }

    #[test]
    fn set_attr_overwrites() {
        let mut b = GraphBuilder::new();
        let a = b.add_node_with_label("X");
        b.set_attr(a, LABEL_ATTR, AttrValue::str("Y"));
        let g = b.build();
        assert_eq!(g.attribute_value(a, LABEL_ATTR), Some(&AttrValue::str("Y")));
        assert_eq!(g.attributes(a).len(), 1);
    }

    #[test]
    #[should_panic(expected = "existing nodes")]
    fn edge_to_missing_node_panics() {
        let mut b = GraphBuilder::new();
        let a = b.add_node();
        b.add_edge(a, NodeId(99));
    }

    #[test]
    fn with_capacity_and_attr_list() {
        let mut b = GraphBuilder::with_capacity(4, 4);
        let v = b.add_node_with_attrs([
            ("label", AttrValue::str("person")),
            ("age", AttrValue::int(30)),
        ]);
        let g = b.build();
        assert_eq!(g.attribute_value(v, "age"), Some(&AttrValue::int(30)));
        assert_eq!(g.attributes(v).len(), 2);
    }
}
