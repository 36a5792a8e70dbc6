//! Builder and validation of GTPQs.

use gtpq_logic::{BoolExpr, VarId};

use crate::node::{EdgeKind, NodeKind, QueryNode, QueryNodeId};
use crate::predicate::AttrPredicate;
use crate::query::Gtpq;

/// Validation errors raised by [`GtpqBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A backbone node was attached under a predicate node, violating the
    /// edge restriction of Definition §2.
    BackboneUnderPredicate {
        /// The offending backbone node.
        node: QueryNodeId,
    },
    /// An output node is not a backbone node.
    OutputNotBackbone {
        /// The offending output node.
        node: QueryNodeId,
    },
    /// A structural predicate mentions a variable that is not a predicate
    /// child of its node.
    ForeignVariable {
        /// The node whose structural predicate is invalid.
        node: QueryNodeId,
        /// The variable that does not correspond to a predicate child.
        var: QueryNodeId,
    },
    /// The query has no output nodes.
    NoOutputNodes,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BackboneUnderPredicate { node } => {
                write!(f, "backbone node {node} cannot be the child of a predicate node")
            }
            QueryError::OutputNotBackbone { node } => {
                write!(f, "output node {node} must be a backbone node")
            }
            QueryError::ForeignVariable { node, var } => write!(
                f,
                "structural predicate of {node} mentions {var}, which is not one of its predicate children"
            ),
            QueryError::NoOutputNodes => f.write_str("a GTPQ needs at least one output node"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Incrementally constructs a [`Gtpq`].
///
/// The root is created by [`GtpqBuilder::new`] and is always a backbone node
/// with id 0.  Children are numbered in the order they are added, so node ids
/// form a pre-order-compatible numbering (a child always has a larger id than
/// its parent).
#[derive(Clone, Debug)]
pub struct GtpqBuilder {
    nodes: Vec<QueryNode>,
    output: Vec<QueryNodeId>,
}

impl GtpqBuilder {
    /// Starts a query whose root has the given attribute predicate.
    pub fn new(root_attr: AttrPredicate) -> Self {
        Self {
            nodes: vec![QueryNode {
                kind: NodeKind::Backbone,
                attr: root_attr,
                structural: BoolExpr::True,
                parent: None,
                incoming: None,
                children: Vec::new(),
                name: None,
            }],
            output: Vec::new(),
        }
    }

    /// The id of the root node.
    pub fn root_id(&self) -> QueryNodeId {
        QueryNodeId(0)
    }

    /// Adds a backbone child under `parent` connected by `edge`.
    pub fn backbone_child(
        &mut self,
        parent: QueryNodeId,
        edge: EdgeKind,
        attr: AttrPredicate,
    ) -> QueryNodeId {
        self.add_child(parent, edge, attr, NodeKind::Backbone)
    }

    /// Adds a predicate child under `parent` connected by `edge`.
    pub fn predicate_child(
        &mut self,
        parent: QueryNodeId,
        edge: EdgeKind,
        attr: AttrPredicate,
    ) -> QueryNodeId {
        self.add_child(parent, edge, attr, NodeKind::Predicate)
    }

    fn add_child(
        &mut self,
        parent: QueryNodeId,
        edge: EdgeKind,
        attr: AttrPredicate,
        kind: NodeKind,
    ) -> QueryNodeId {
        assert!(parent.index() < self.nodes.len(), "parent must exist");
        let id = QueryNodeId(self.nodes.len() as u32);
        self.nodes.push(QueryNode {
            kind,
            attr,
            structural: BoolExpr::True,
            parent: Some(parent),
            incoming: Some(edge),
            children: Vec::new(),
            name: None,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Sets the structural predicate `fs(u)` of a node.
    pub fn set_structural(&mut self, u: QueryNodeId, fs: BoolExpr) {
        self.nodes[u.index()].structural = fs;
    }

    /// Sets a display name for a node.
    pub fn set_name(&mut self, u: QueryNodeId, name: &str) {
        self.nodes[u.index()].name = Some(name.to_owned());
    }

    /// Marks a node as an output node.
    pub fn mark_output(&mut self, u: QueryNodeId) {
        if !self.output.contains(&u) {
            self.output.push(u);
        }
    }

    /// Marks every backbone node as an output node (the traditional TPQ case
    /// used throughout the paper's §5.1 experiments).
    pub fn mark_all_backbone_output(&mut self) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].kind == NodeKind::Backbone {
                self.mark_output(QueryNodeId(i as u32));
            }
        }
    }

    /// Validates and finalizes the query.
    pub fn build(self) -> Result<Gtpq, QueryError> {
        // Edge restriction: predicate nodes only have predicate children.
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind == NodeKind::Backbone {
                if let Some(parent) = node.parent {
                    if self.nodes[parent.index()].kind == NodeKind::Predicate {
                        return Err(QueryError::BackboneUnderPredicate {
                            node: QueryNodeId(i as u32),
                        });
                    }
                }
            }
        }
        // Output nodes are backbone nodes.
        for &o in &self.output {
            if self.nodes[o.index()].kind != NodeKind::Backbone {
                return Err(QueryError::OutputNotBackbone { node: o });
            }
        }
        if self.output.is_empty() {
            return Err(QueryError::NoOutputNodes);
        }
        // Structural predicates mention only predicate children.
        for (i, node) in self.nodes.iter().enumerate() {
            let u = QueryNodeId(i as u32);
            let is_pred_child = |child: QueryNodeId| {
                child.index() < self.nodes.len()
                    && self.nodes[child.index()].parent == Some(u)
                    && self.nodes[child.index()].kind == NodeKind::Predicate
            };
            if let Some(var) = first_var_where(&node.structural, &mut |v| {
                !is_pred_child(QueryNodeId::from_var(v))
            }) {
                return Err(QueryError::ForeignVariable {
                    node: u,
                    var: QueryNodeId::from_var(var),
                });
            }
        }
        Ok(Gtpq {
            nodes: self.nodes,
            output: self.output,
        })
    }
}

/// The smallest variable of `e` that `bad` holds for.
fn first_var_where(e: &BoolExpr, bad: &mut impl FnMut(VarId) -> bool) -> Option<VarId> {
    match e {
        BoolExpr::True | BoolExpr::False => None,
        BoolExpr::Var(v) => bad(*v).then_some(*v),
        BoolExpr::Not(inner) => first_var_where(inner, bad),
        BoolExpr::And(items) | BoolExpr::Or(items) => items
            .iter()
            .filter_map(|item| first_var_where(item, bad))
            .min(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_conjunctive_query_builds() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let child = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.mark_output(child);
        b.set_name(child, "b-node");
        let q = b.build().unwrap();
        assert_eq!(q.size(), 2);
        assert!(q.is_conjunctive());
        assert_eq!(q.display_name(child), "b-node");
    }

    #[test]
    fn output_must_be_backbone() {
        let mut b = GtpqBuilder::new(AttrPredicate::any());
        let root = b.root_id();
        let p = b.predicate_child(root, EdgeKind::Child, AttrPredicate::label("x"));
        b.set_structural(root, BoolExpr::Var(p.var()));
        b.mark_output(p);
        assert_eq!(
            b.build().unwrap_err(),
            QueryError::OutputNotBackbone { node: p }
        );
    }

    #[test]
    fn needs_an_output_node() {
        let b = GtpqBuilder::new(AttrPredicate::any());
        assert_eq!(b.build().unwrap_err(), QueryError::NoOutputNodes);
    }

    #[test]
    fn backbone_under_predicate_is_rejected() {
        let mut b = GtpqBuilder::new(AttrPredicate::any());
        let root = b.root_id();
        let p = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("x"));
        let bad = b.backbone_child(p, EdgeKind::Descendant, AttrPredicate::label("y"));
        b.set_structural(root, BoolExpr::Var(p.var()));
        b.mark_output(root);
        assert_eq!(
            b.build().unwrap_err(),
            QueryError::BackboneUnderPredicate { node: bad }
        );
    }

    #[test]
    fn structural_predicate_must_use_predicate_children() {
        let mut b = GtpqBuilder::new(AttrPredicate::any());
        let root = b.root_id();
        let bb = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("x"));
        // Using the backbone child's variable in fs(root) is rejected: backbone
        // variables are implicitly conjoined by fext and may not be negated or
        // disjoined.
        b.set_structural(root, BoolExpr::Var(bb.var()));
        b.mark_output(bb);
        assert!(matches!(
            b.build().unwrap_err(),
            QueryError::ForeignVariable { .. }
        ));
    }

    #[test]
    fn mark_all_backbone_output() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let c1 = b.backbone_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        let _p = b.predicate_child(c1, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.mark_all_backbone_output();
        let q = b.build().unwrap();
        assert_eq!(q.output_nodes().len(), 2);
    }

    #[test]
    fn error_messages_are_informative() {
        let err = QueryError::NoOutputNodes;
        assert!(err.to_string().contains("output"));
        let err = QueryError::ForeignVariable {
            node: QueryNodeId(1),
            var: QueryNodeId(2),
        };
        assert!(err.to_string().contains("u1"));
    }
}
