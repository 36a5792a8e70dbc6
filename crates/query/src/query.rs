//! The GTPQ query tree.

use gtpq_graph::{DataGraph, NodeId};
use gtpq_logic::valuation::eval_with;
use gtpq_logic::BoolExpr;
use serde::{Deserialize, Serialize};

use crate::node::{EdgeKind, NodeKind, QueryNode, QueryNodeId};
use crate::predicate::CandidateSelection;

/// A generalized tree pattern query `Q = (Vb, Vp, Vo, Eq, fa, fe, fs)`.
///
/// Construct through [`GtpqBuilder`](crate::GtpqBuilder), which enforces the
/// structural restrictions of the definition (tree shape, predicate nodes may
/// only have predicate children, output nodes are backbone nodes, structural
/// predicates only mention predicate children) and drops each predicate
/// child that its parent's structural predicate does not read.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Gtpq {
    pub(crate) nodes: Vec<QueryNode>,
    pub(crate) output: Vec<QueryNodeId>,
}

impl Gtpq {
    /// The root query node (always node 0).
    pub fn root(&self) -> QueryNodeId {
        QueryNodeId(0)
    }

    /// Number of query nodes `|Q|`.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over all query node ids in id order (which is a pre-order of
    /// the tree because the builder numbers nodes as they are added under
    /// their parent).
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = QueryNodeId> + '_ {
        (0..self.nodes.len() as u32).map(QueryNodeId)
    }

    /// Access to a query node.
    pub fn node(&self, u: QueryNodeId) -> &QueryNode {
        &self.nodes[u.index()]
    }

    /// The output nodes `Vo`, in the order they were marked.
    pub fn output_nodes(&self) -> &[QueryNodeId] {
        &self.output
    }

    /// Whether `u` is a backbone node.
    pub fn is_backbone(&self, u: QueryNodeId) -> bool {
        self.nodes[u.index()].kind == NodeKind::Backbone
    }

    /// Whether `u` is an output node.
    pub fn is_output(&self, u: QueryNodeId) -> bool {
        self.output.contains(&u)
    }

    /// The children of `u`.
    pub fn children(&self, u: QueryNodeId) -> &[QueryNodeId] {
        &self.nodes[u.index()].children
    }

    /// The backbone children of `u`.
    pub(crate) fn backbone_children(&self, u: QueryNodeId) -> Vec<QueryNodeId> {
        self.children(u)
            .iter()
            .copied()
            .filter(|&c| self.is_backbone(c))
            .collect()
    }

    /// The predicate children of `u`.
    #[cfg(test)]
    pub(crate) fn predicate_children(&self, u: QueryNodeId) -> Vec<QueryNodeId> {
        self.children(u)
            .iter()
            .copied()
            .filter(|&c| !self.is_backbone(c))
            .collect()
    }

    /// The parent of `u`, or `None` for the root.
    pub fn parent(&self, u: QueryNodeId) -> Option<QueryNodeId> {
        self.nodes[u.index()].parent
    }

    /// The kind of the edge entering `u` from its parent.
    pub fn incoming_edge(&self, u: QueryNodeId) -> Option<EdgeKind> {
        self.nodes[u.index()].incoming
    }

    /// The structural predicate `fs(u)`.
    pub fn fs(&self, u: QueryNodeId) -> &BoolExpr {
        &self.nodes[u.index()].structural
    }

    /// The extended structural predicate `fext(u)`: the conjunction of the
    /// variables of all backbone children with `fs(u)`.
    pub fn fext(&self, u: QueryNodeId) -> BoolExpr {
        let backbone_vars = self
            .backbone_children(u)
            .into_iter()
            .map(|c| BoolExpr::Var(c.var()));
        BoolExpr::and(backbone_vars.chain([self.fs(u).clone()]))
    }

    /// The query nodes of the subtree rooted at `u`, in pre-order (including `u`).
    pub fn subtree(&self, u: QueryNodeId) -> Vec<QueryNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![u];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &c in self.children(x).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The proper descendants of `u` (subtree minus `u`).
    pub fn descendants(&self, u: QueryNodeId) -> Vec<QueryNodeId> {
        self.subtree(u)[1..].to_vec()
    }

    /// Whether `anc` is a proper ancestor of `desc` in the query tree.
    pub fn is_ancestor(&self, anc: QueryNodeId, desc: QueryNodeId) -> bool {
        let mut cursor = self.parent(desc);
        while let Some(p) = cursor {
            if p == anc {
                return true;
            }
            cursor = self.parent(p);
        }
        false
    }

    /// The lowest common ancestor of two query nodes.
    pub fn lowest_common_ancestor(&self, a: QueryNodeId, b: QueryNodeId) -> QueryNodeId {
        let mut ancestors_a = vec![a];
        let mut cursor = self.parent(a);
        while let Some(p) = cursor {
            ancestors_a.push(p);
            cursor = self.parent(p);
        }
        let mut cursor = Some(b);
        while let Some(x) = cursor {
            if ancestors_a.contains(&x) {
                return x;
            }
            cursor = self.parent(x);
        }
        self.root()
    }

    /// The internal (non-leaf) query nodes.
    pub fn internal_nodes(&self) -> Vec<QueryNodeId> {
        self.node_ids()
            .filter(|&u| !self.node(u).is_leaf())
            .collect()
    }

    /// The nodes in bottom-up order (children before parents).
    pub fn bottom_up_order(&self) -> Vec<QueryNodeId> {
        let mut order = self.subtree(self.root());
        order.reverse();
        order
    }

    /// Whether every structural predicate only uses conjunction
    /// (a *conjunctive GTPQ*, i.e. a traditional tree pattern query).
    pub fn is_conjunctive(&self) -> bool {
        self.node_ids().all(|u| self.fs(u).is_conjunctive())
    }

    /// Whether every structural predicate is negation free
    /// (a *union-conjunctive GTPQ*).
    pub fn is_union_conjunctive(&self) -> bool {
        self.node_ids().all(|u| self.fs(u).is_negation_free())
    }

    /// Whether data node `v` satisfies the attribute predicate of `u` (`v ∼ u`).
    pub(crate) fn matches_attr(&self, g: &DataGraph, v: NodeId, u: QueryNodeId) -> bool {
        self.nodes[u.index()].attr.matches(g, v)
    }

    /// Whether `u` is a leaf whose formula is `0`.  A leaf's `fs` names no
    /// variable, so it is a constant; at `0` no data node matches the leaf.
    /// (An inner node's formula is evaluated per candidate by the prune
    /// rounds, so only a leaf's needs deciding here.)
    pub(crate) fn is_false_leaf(&self, u: QueryNodeId) -> bool {
        self.node(u).is_leaf() && !eval_with(self.fs(u), &mut |_| false)
    }

    /// The candidate matching nodes `mat(u) = {v | v ∼ u}` of a query node,
    /// computed by a full node scan; none for a leaf whose formula is `0`.
    ///
    /// Kept as the oracle for the index-backed path and for benchmarking;
    /// the engines call [`candidates_indexed`](Self::candidates_indexed).
    pub fn candidates(&self, g: &DataGraph, u: QueryNodeId) -> Vec<NodeId> {
        if self.is_false_leaf(u) {
            return Vec::new();
        }
        g.nodes().filter(|&v| self.matches_attr(g, v, u)).collect()
    }

    /// The candidate matching nodes of a query node, served through the
    /// graph's attribute inverted index (posting-list intersection with a
    /// per-node verification fallback for non-indexable comparisons).
    ///
    /// Returns the same node set as [`candidates`](Self::candidates), sorted
    /// by id, plus selection statistics.
    pub fn candidates_indexed(&self, g: &DataGraph, u: QueryNodeId) -> CandidateSelection {
        if self.is_false_leaf(u) {
            return CandidateSelection::default();
        }
        self.nodes[u.index()].attr.select_candidates(g)
    }

    /// Estimated candidate count of a query node, from inverted-index
    /// posting lengths.  An
    /// upper bound on `|mat(u)|`; never touches node attribute data.
    pub fn estimate_candidates(&self, g: &DataGraph, u: QueryNodeId) -> usize {
        self.nodes[u.index()].attr.estimate_candidates(g)
    }

    /// Display name of a node: its explicit name, or `u<i>`.
    pub fn display_name(&self, u: QueryNodeId) -> String {
        self.node(u).name.clone().unwrap_or_else(|| u.to_string())
    }

    /// A compact multi-line description of the query (for logs and examples).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for u in self.node_ids() {
            let node = self.node(u);
            let indent = {
                let mut depth = 0;
                let mut cursor = node.parent;
                while let Some(p) = cursor {
                    depth += 1;
                    cursor = self.node(p).parent;
                }
                "  ".repeat(depth)
            };
            let edge = node.incoming.map(|e| e.to_string()).unwrap_or_default();
            let kind = match node.kind {
                NodeKind::Backbone => "B",
                NodeKind::Predicate => "P",
            };
            let star = if self.is_output(u) { "*" } else { "" };
            let _ = writeln!(
                out,
                "{indent}{edge}{name}{star} [{kind}] fa: {attr} fs: {fs}",
                name = self.display_name(u),
                attr = node.attr,
                fs = node.structural,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GtpqBuilder;
    use crate::predicate::AttrPredicate;
    use crate::EdgeKind;

    use super::*;

    /// Builds the query of the paper's Fig. 2(b).
    pub(crate) fn figure2_query() -> Gtpq {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let u1 = b.root_id();
        let u2 = b.backbone_child(u1, EdgeKind::Descendant, AttrPredicate::label("b"));
        let u3 = b.backbone_child(u1, EdgeKind::Descendant, AttrPredicate::label("c"));
        let u4 = b.backbone_child(u3, EdgeKind::Descendant, AttrPredicate::label("d"));
        let u5 = b.predicate_child(u2, EdgeKind::Descendant, AttrPredicate::label("e"));
        let u6 = b.predicate_child(u3, EdgeKind::Descendant, AttrPredicate::label("g"));
        let u7 = b.predicate_child(u3, EdgeKind::Descendant, AttrPredicate::label("b"));
        let u8 = b.predicate_child(u3, EdgeKind::Descendant, AttrPredicate::label("d"));
        let u9 = b.predicate_child(u7, EdgeKind::Descendant, AttrPredicate::label("e"));
        let u10 = b.predicate_child(u7, EdgeKind::Descendant, AttrPredicate::label("e"));
        // fs(u2) = p_u5 ; fs(u3) = !p_u6 | (p_u7 & p_u8) ; fs(u7) = p_u9 | p_u10
        b.set_structural(u2, BoolExpr::Var(u5.var()));
        b.set_structural(
            u3,
            BoolExpr::or2(
                BoolExpr::not(BoolExpr::Var(u6.var())),
                BoolExpr::and2(BoolExpr::Var(u7.var()), BoolExpr::Var(u8.var())),
            ),
        );
        b.set_structural(
            u7,
            BoolExpr::or2(BoolExpr::Var(u9.var()), BoolExpr::Var(u10.var())),
        );
        b.mark_output(u2);
        b.mark_output(u4);
        b.build().expect("figure 2 query is well formed")
    }

    #[test]
    fn accessors_on_figure2() {
        let q = figure2_query();
        assert_eq!(q.size(), 10);
        assert_eq!(q.root(), QueryNodeId(0));
        assert_eq!(q.output_nodes(), &[QueryNodeId(1), QueryNodeId(3)]);
        assert!(q.is_backbone(QueryNodeId(1)));
        assert!(!q.is_backbone(QueryNodeId(4)));
        assert_eq!(
            q.backbone_children(q.root()),
            vec![QueryNodeId(1), QueryNodeId(2)]
        );
        assert_eq!(q.predicate_children(QueryNodeId(2)).len(), 3);
        assert!(!q.is_conjunctive());
        assert!(!q.is_union_conjunctive());
        assert_eq!(q.parent(QueryNodeId(3)), Some(QueryNodeId(2)));
        assert_eq!(q.incoming_edge(QueryNodeId(1)), Some(EdgeKind::Descendant));
        assert!(q.is_ancestor(q.root(), QueryNodeId(9)));
        assert!(!q.is_ancestor(QueryNodeId(1), QueryNodeId(9)));
        assert_eq!(
            q.lowest_common_ancestor(QueryNodeId(4), QueryNodeId(9)),
            q.root()
        );
        assert_eq!(
            q.lowest_common_ancestor(QueryNodeId(8), QueryNodeId(9)),
            QueryNodeId(6)
        );
    }

    #[test]
    fn fext_conjoins_backbone_children() {
        let q = figure2_query();
        // fext(u1) = p_u2 & p_u3 (two backbone children, fs = 1).
        let fext = q.fext(q.root());
        assert_eq!(fext, BoolExpr::and2(BoolExpr::var(1), BoolExpr::var(2)));
        // fext(u3) includes its backbone child u4 and fs(u3).
        let fext3 = q.fext(QueryNodeId(2));
        assert!(fext3.contains_var(QueryNodeId(3).var()));
        assert!(fext3.contains_var(QueryNodeId(5).var()));
    }

    #[test]
    fn orders_and_subtrees() {
        let q = figure2_query();
        let sub = q.subtree(QueryNodeId(2));
        assert!(sub.contains(&QueryNodeId(8)));
        assert!(!sub.contains(&QueryNodeId(1)));
        let bottom_up = q.bottom_up_order();
        let pos = |u: QueryNodeId| bottom_up.iter().position(|&x| x == u).unwrap();
        assert!(pos(QueryNodeId(9)) < pos(QueryNodeId(6)));
        assert!(pos(QueryNodeId(6)) < pos(QueryNodeId(2)));
        assert!(pos(QueryNodeId(2)) < pos(QueryNodeId(0)));
        assert_eq!(q.descendants(QueryNodeId(6)).len(), 2);
        assert!(q.internal_nodes().contains(&QueryNodeId(6)));
    }

    #[test]
    fn describe_mentions_every_node() {
        let q = figure2_query();
        let text = q.describe();
        assert!(text.contains("u0"));
        assert!(text.contains("u9"));
        assert!(text.contains("*"));
    }
}
