//! Query nodes and edges.

use gtpq_logic::VarId;
use serde::{Deserialize, Serialize};

use crate::predicate::AttrPredicate;

/// Identifier of a query node.  Dense, starting at zero; the root is always
/// node 0.  The propositional variable associated with a query node is
/// `VarId(id.0)` — the mapping is the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryNodeId(pub u32);

impl QueryNodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The propositional variable `p_u` associated with this query node.
    #[inline]
    pub fn var(self) -> VarId {
        VarId(self.0)
    }

    /// The query node associated with a propositional variable.
    #[inline]
    pub fn from_var(var: VarId) -> Self {
        QueryNodeId(var.0)
    }
}

impl std::fmt::Display for QueryNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Kind of a query node (paper §2: `Vb` vs `Vp`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Backbone node: guaranteed an image in every match; output nodes are
    /// backbone nodes; its variable may not be negated or disjoined.
    Backbone,
    /// Predicate node: only constrains matches through the structural
    /// predicate of its parent.
    Predicate,
}

/// Kind of a query edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Parent-child (PC): the data images must be connected by one edge.
    Child,
    /// Ancestor-descendant (AD): the data images must be connected by a
    /// non-empty path.
    Descendant,
}

impl std::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeKind::Child => f.write_str("/"),
            EdgeKind::Descendant => f.write_str("//"),
        }
    }
}

/// One node of a GTPQ.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryNode {
    /// Backbone or predicate.
    pub kind: NodeKind,
    /// Attribute predicate `fa(u)`.
    pub attr: AttrPredicate,
    /// Structural predicate `fs(u)` over the variables of predicate children.
    pub structural: gtpq_logic::BoolExpr,
    /// Parent node (None for the root).
    pub parent: Option<QueryNodeId>,
    /// Kind of the incoming edge from the parent (None for the root).
    pub(crate) incoming: Option<EdgeKind>,
    /// Children, in insertion order.
    pub(crate) children: Vec<QueryNodeId>,
    /// Optional human-readable name used for display and the query DSL.
    pub name: Option<String>,
}

impl QueryNode {
    /// Whether this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_mapping_is_identity() {
        let u = QueryNodeId(7);
        assert_eq!(u.var(), VarId(7));
        assert_eq!(QueryNodeId::from_var(VarId(7)), u);
        assert_eq!(u.to_string(), "u7");
    }

    #[test]
    fn edge_kind_display() {
        assert_eq!(EdgeKind::Child.to_string(), "/");
        assert_eq!(EdgeKind::Descendant.to_string(), "//");
    }
}
