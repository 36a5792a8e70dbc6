//! Derived structural predicates and structural relations between query nodes.
//!
//! Everything in §3 of the paper is phrased in terms of formulas derived from
//! the per-node structural predicates:
//!
//! * the *extended* predicate `fext(u)` conjoins the backbone-children
//!   variables (provided by [`Gtpq::fext`]),
//! * *independently-constraint nodes* (ICN) are nodes whose variable can
//!   actually influence their parent's predicate,
//! * the *transitive* predicate `ftr(u)` inlines the (ICN) children's
//!   predicates, and
//! * the *complete* predicate `fcs(u)` additionally accounts for
//!   unsatisfiable attribute predicates and for subsumption between sibling
//!   subtrees.
//!
//! The similarity (`⊳`) and subsumption (`⊴`) relations between query nodes
//! are defined here as well; they feed both `fcs` and the
//! containment/minimization algorithms in `gtpq-analysis`.
//!
//! A node whose own predicate `fs(u)` is unsatisfiable matches no data node,
//! so its variable is 0 wherever it occurs: `ftr` substitutes 0 for it.
//!
//! [`StructuralAnalysis`] derives `fcs` for every node, which containment and
//! minimization read.  Satisfiability (Theorem 1) reads only the root's:
//! [`root_complete_satisfiable`] decides it, mostly without building it.

use std::collections::HashMap;

use gtpq_logic::transform::{rename_vars, substitute_const, substitute_map};
use gtpq_logic::{
    depends_on, implies, is_satisfiable, is_satisfiable_given_false, BoolExpr, VarId,
};

use crate::node::{EdgeKind, QueryNodeId};
use crate::query::Gtpq;

/// Cached structural analysis of one query.
#[derive(Clone, Debug)]
pub struct StructuralAnalysis {
    /// Complete structural predicate `fcs(u)` of each node.
    pub complete: Vec<BoolExpr>,
}

impl StructuralAnalysis {
    /// Runs the full analysis for `q`.
    pub fn new(q: &Gtpq) -> Self {
        let independently_constraint = independently_constraint_nodes(q);
        let transitive = transitive_predicates(q, &independently_constraint);
        let complete = q
            .node_ids()
            .map(|u| complete_predicate(q, u, &independently_constraint, &transitive))
            .collect();
        Self { complete }
    }

    /// `fcs` of the root node.
    pub fn root_complete(&self) -> &BoolExpr {
        &self.complete[0]
    }
}

/// Computes which query nodes are *independently-constraint nodes*.
///
/// A node `u` with parent `u'` is independently constraint when
/// `(fext(u')[p_u/1] ⊕ fext(u')[p_u/0]) ∧ fs(u)` is satisfiable — i.e. the
/// truth value of `p_u` can change the parent's predicate while `u`'s own
/// predicate can still hold — and all its ancestors are independently
/// constraint.  The extended predicate is used so backbone children (whose
/// variables are implicit conjuncts) are ICNs whenever their own predicate is
/// satisfiable, matching the paper's remark.
///
/// `p_u` and `fs(u)` share no variable, so the test splits into "`fs(u)` is
/// satisfiable" and "`p_u` flips `fext(u')`".  `fext(u')` conjoins the
/// backbone children's variables with `fs(u')`, which names none of them
/// and is satisfiable (`u'` is an ICN): a backbone child always flips it,
/// and a predicate child flips it iff it flips `fs(u')`
/// ([`gtpq_logic::depends_on`]).
pub fn independently_constraint_nodes(q: &Gtpq) -> Vec<bool> {
    let dead = dead_nodes(q);
    icn_nodes(q, &dead)
}

/// The nodes whose own predicate `fs(u)` is unsatisfiable: they match no
/// data node.
fn dead_nodes(q: &Gtpq) -> Vec<bool> {
    q.node_ids().map(|u| !is_satisfiable(q.fs(u))).collect()
}

/// [`independently_constraint_nodes`] given [`dead_nodes`].
fn icn_nodes(q: &Gtpq, dead: &[bool]) -> Vec<bool> {
    let mut icn = vec![false; q.size()];
    icn[0] = !dead[0];
    // Ids number parents before their children.
    for parent in q.node_ids() {
        if !icn[parent.index()] {
            continue;
        }
        let fs = q.fs(parent);
        for &u in q.children(parent) {
            icn[u.index()] = !dead[u.index()] && (q.is_backbone(u) || depends_on(fs, u.var()));
        }
    }
    icn
}

/// Computes the transitive structural predicate `ftr(u)` for every node, in a
/// bottom-up sweep: in `fext(u)`, each variable of an independently-constraint
/// child `u'` is replaced by `p_{u'} ∧ ftr(u')`, and that of a child whose own
/// predicate is unsatisfiable by 0.
pub fn transitive_predicates(q: &Gtpq, icn: &[bool]) -> Vec<BoolExpr> {
    transitive(q, icn, &dead_nodes(q), false)
}

/// [`transitive_predicates`] with `zero[c]` naming the children whose
/// variable is 0; with `icn_only`, only the independently-constraint nodes'
/// `ftr` (all the root's reads) is derived, the rest left `1`.
fn transitive(q: &Gtpq, icn: &[bool], zero: &[bool], icn_only: bool) -> Vec<BoolExpr> {
    let mut ftr: Vec<BoolExpr> = vec![BoolExpr::True; q.size()];
    let mut map: HashMap<VarId, BoolExpr> = HashMap::new();
    for u in q.bottom_up_order() {
        if icn_only && !icn[u.index()] {
            continue;
        }
        if q.node(u).is_leaf() {
            ftr[u.index()] = q.fext(u);
            continue;
        }
        map.clear();
        for &child in q.children(u) {
            if zero[child.index()] {
                map.insert(child.var(), BoolExpr::False);
            } else if icn[u.index()] && icn[child.index()] {
                map.insert(
                    child.var(),
                    BoolExpr::and2(BoolExpr::Var(child.var()), ftr[child.index()].clone()),
                );
            }
        }
        ftr[u.index()] = if map.is_empty() {
            q.fext(u)
        } else {
            substitute_map(&q.fext(u), &map)
        };
    }
    ftr
}

/// The paper's similarity relation `u1 ⊳ u2` ("u2 is similar to u1").
///
/// Intuitively: any data node that can serve as an image of `u2`'s subtree can
/// also serve as an image of `u1`'s subtree.
pub(crate) fn similar(
    q: &Gtpq,
    u1: QueryNodeId,
    u2: QueryNodeId,
    icn: &[bool],
    ftr: &[BoolExpr],
) -> bool {
    similar_with_mapping(q, u1, u2, icn, ftr).is_some()
}

/// Like [`similar`], also returning the descendant mapping used to align the
/// two subtrees (from descendants of `u1` to descendants of `u2`).
pub(crate) fn similar_with_mapping(
    q: &Gtpq,
    u1: QueryNodeId,
    u2: QueryNodeId,
    icn: &[bool],
    ftr: &[BoolExpr],
) -> Option<HashMap<QueryNodeId, QueryNodeId>> {
    if u1 == u2 {
        // A node is trivially similar to itself with the identity mapping.
        return Some(HashMap::new());
    }
    // Condition (1): u2 ⊢ u1 on attribute predicates.
    if !q.node(u1).attr.entailed_by(&q.node(u2).attr) {
        return None;
    }
    // Condition (2): recursively match ICN children of u1 into u2's subtree.
    let mut mapping: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    mapping.insert(u1, u2);
    for &child in q.children(u1) {
        if !icn[child.index()] {
            continue;
        }
        let candidates: Vec<QueryNodeId> = match q.incoming_edge(child) {
            Some(EdgeKind::Child) => q.children(u2).to_vec(),
            _ => q.descendants(u2),
        };
        let mut matched = false;
        for cand in candidates {
            if let Some(sub) = similar_with_mapping(q, child, cand, icn, ftr) {
                mapping.insert(child, cand);
                for (k, v) in sub {
                    mapping.entry(k).or_insert(v);
                }
                matched = true;
                break;
            }
        }
        if !matched {
            return None;
        }
    }
    // Condition (3): ftr(u2) → ftr(u1)[descendants renamed along the mapping].
    let rename: HashMap<VarId, VarId> = mapping
        .iter()
        .map(|(from, to)| (from.var(), to.var()))
        .collect();
    let renamed = rename_vars(&ftr[u1.index()], &rename);
    if !implies(&ftr[u2.index()], &renamed) {
        return None;
    }
    Some(mapping)
}

/// The paper's subsumption relation `u1 ⊴ u2` ("u1 is subsumed by u2"):
/// `u1 ⊳ u2`, the parent of `u1` is the lowest common ancestor of the two
/// nodes, and the edge kinds are compatible (a PC child can only be subsumed
/// by another PC child of the same parent).
pub fn subsumed(
    q: &Gtpq,
    u1: QueryNodeId,
    u2: QueryNodeId,
    icn: &[bool],
    ftr: &[BoolExpr],
) -> bool {
    if u1 == u2 {
        return false;
    }
    let Some(parent) = q.parent(u1) else {
        return false;
    };
    if q.lowest_common_ancestor(u1, u2) != parent {
        return false;
    }
    match q.incoming_edge(u1) {
        Some(EdgeKind::Child) => {
            if q.parent(u2) != Some(parent) || q.incoming_edge(u2) != Some(EdgeKind::Child) {
                return false;
            }
        }
        _ => {
            // u2 must be a descendant of the common parent (it is, since the
            // LCA is `parent` and u2 != parent).
            if !q.is_ancestor(parent, u2) {
                return false;
            }
        }
    }
    similar(q, u1, u2, icn, ftr)
}

/// Computes the complete structural predicate `fcs(u)`.
///
/// Starting from `ftr(u)`: variables of descendants with unsatisfiable
/// attribute predicates are set to false, and for every pair of nodes `u1`,
/// `u2` in two distinct subtrees of `u` with `u2 ⊴ u1`, the clause
/// `¬p_{u1} ∨ (p_{u2} ∧ fext(u2))` is conjoined.
pub(crate) fn complete_predicate(
    q: &Gtpq,
    u: QueryNodeId,
    icn: &[bool],
    ftr: &[BoolExpr],
) -> BoolExpr {
    let mut fcs = ftr[u.index()].clone();
    for d in q.descendants(u) {
        if !q.node(d).attr.is_satisfiable() {
            fcs = substitute_const(&fcs, d.var(), false);
        }
    }
    // Pairs in distinct child subtrees of u.
    let children = q.children(u).to_vec();
    for (i, &c1) in children.iter().enumerate() {
        for (j, &c2) in children.iter().enumerate() {
            if i == j {
                continue;
            }
            let subtree1 = q.subtree(c1);
            let subtree2 = q.subtree(c2);
            for &u1 in &subtree1 {
                for &u2 in &subtree2 {
                    if subsumed(q, u2, u1, icn, ftr) {
                        fcs = BoolExpr::and2(
                            fcs,
                            BoolExpr::or2(
                                BoolExpr::not(BoolExpr::Var(u1.var())),
                                BoolExpr::and2(BoolExpr::Var(u2.var()), q.fext(u2)),
                            ),
                        );
                    }
                }
            }
        }
    }
    fcs
}

/// Whether `fcs(root)` is satisfiable, the structural half of Theorem 1,
/// without deriving `fcs` for any node but the root — nor, mostly, the
/// root's either.
///
/// `ftr(root)` inlines `p_c ∧ ftr(c)` for each independently-constraint
/// child `c`, recursively, and the inlined parts share no variable.  So,
/// bottom-up, such a node's `ftr` can hold iff its `fext` can with 0 for
/// each child that cannot match: one whose attribute predicate or own
/// formula is unsatisfiable, or an ICN whose `ftr` cannot hold.  The other
/// children's variables stay free.  Only when the root has sibling
/// subsumption clauses is `fcs(root)` built and handed to the solver: `ftr`
/// for the ICNs alone, with those children 0, conjoined with the clauses.
pub fn root_complete_satisfiable(q: &Gtpq) -> bool {
    let root = q.root();
    let dead = dead_nodes(q);
    if dead[root.index()] {
        return false;
    }
    let icn = icn_nodes(q, &dead);
    // The nodes below the root whose variable is 0 in `fcs(root)`.
    let zero: Vec<bool> = q
        .node_ids()
        .map(|u| u != root && (dead[u.index()] || !q.node(u).attr.is_satisfiable()))
        .collect();
    let clauses = root_subsumptions(q, &icn, &dead);
    if !clauses.is_empty() {
        let ftr = transitive(q, &icn, &zero, true).swap_remove(root.index());
        let clauses = clauses.into_iter().map(|(u1, u2)| {
            BoolExpr::or2(
                BoolExpr::not(BoolExpr::Var(u1.var())),
                BoolExpr::and2(BoolExpr::Var(u2.var()), q.fext(u2)),
            )
        });
        return is_satisfiable(&BoolExpr::and([ftr].into_iter().chain(clauses)));
    }
    let mut holds = vec![false; q.size()];
    for u in q.node_ids().rev() {
        if !icn[u.index()] {
            continue;
        }
        let can_match = |c: QueryNodeId| !zero[c.index()] && (!icn[c.index()] || holds[c.index()]);
        holds[u.index()] = q
            .children(u)
            .iter()
            .all(|&c| !q.is_backbone(c) || can_match(c))
            && is_satisfiable_given_false(q.fs(u), |v| !can_match(QueryNodeId::from_var(v)));
    }
    holds[root.index()]
}

/// The pairs `(u1, u2)` with `u2 ⊴ u1` in distinct subtrees of the root,
/// each of which conjoins `¬p_{u1} ∨ (p_{u2} ∧ fext(u2))` to `fcs(root)`.
///
/// The lowest common ancestor of such a pair is the root, which `⊴` requires
/// to be `u2`'s parent: only the root's children can be `u2`.  A pair goes
/// on to the full similarity test only when `u2`'s attribute predicate is
/// entailed by `u1`'s, the test's first condition.
fn root_subsumptions(q: &Gtpq, icn: &[bool], dead: &[bool]) -> Vec<(QueryNodeId, QueryNodeId)> {
    let root = q.root();
    // `top[u]`: the child of the root whose subtree holds `u`.
    let mut top = vec![root; q.size()];
    for u in q.node_ids().skip(1) {
        let parent = q.parent(u).expect("non-root");
        top[u.index()] = if parent == root {
            u
        } else {
            top[parent.index()]
        };
    }
    let mut ftr: Option<Vec<BoolExpr>> = None;
    let mut pairs = Vec::new();
    for &u2 in q.children(root) {
        for u1 in q.node_ids().skip(1) {
            if top[u1.index()] == u2 || !q.node(u2).attr.entailed_by(&q.node(u1).attr) {
                continue;
            }
            let ftr = ftr.get_or_insert_with(|| transitive(q, icn, dead, false));
            if subsumed(q, u2, u1, icn, ftr) {
                pairs.push((u1, u2));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use gtpq_logic::equivalent;

    use crate::builder::GtpqBuilder;
    use crate::fixtures::example_query;
    use crate::predicate::AttrPredicate;

    use super::*;

    #[test]
    fn example_query_all_nodes_are_icn() {
        let q = example_query();
        let icn = independently_constraint_nodes(&q);
        assert!(icn.iter().all(|&b| b), "Example 4: all nodes are ICNs");
    }

    #[test]
    fn example_query_transitive_predicate_of_u3() {
        // Example 4: ftr(u3) substitutes p_u7 ∧ (p_u9 ∨ p_u10) for p_u7.
        let q = example_query();
        let icn = independently_constraint_nodes(&q);
        let ftr = transitive_predicates(&q, &icn);
        let u3 = QueryNodeId(2);
        let expected = BoolExpr::and2(
            BoolExpr::var(3), // backbone child u4
            BoolExpr::or2(
                BoolExpr::not(BoolExpr::var(5)),
                BoolExpr::and2(
                    BoolExpr::and2(
                        BoolExpr::var(6),
                        BoolExpr::or2(BoolExpr::var(8), BoolExpr::var(9)),
                    ),
                    BoolExpr::var(7),
                ),
            ),
        );
        assert!(
            equivalent(&ftr[u3.index()], &expected),
            "ftr(u3) = {}",
            ftr[u3.index()]
        );
    }

    #[test]
    fn example_query_root_complete_predicate_is_satisfiable() {
        let q = example_query();
        let analysis = StructuralAnalysis::new(&q);
        assert!(is_satisfiable(analysis.root_complete()));
        // Expected root formula from Example 4 (adapted to 0-based ids):
        // p1 & p4 & p2 & p3 & (!p5 | (p6 & (p8|p9) & p7)).
        let expected = BoolExpr::and([
            BoolExpr::var(1),
            BoolExpr::var(4),
            BoolExpr::var(2),
            BoolExpr::var(3),
            BoolExpr::or2(
                BoolExpr::not(BoolExpr::var(5)),
                BoolExpr::and([
                    BoolExpr::var(6),
                    BoolExpr::or2(BoolExpr::var(8), BoolExpr::var(9)),
                    BoolExpr::var(7),
                ]),
            ),
        ]);
        assert!(
            equivalent(analysis.root_complete(), &expected),
            "fcs(root) = {}",
            analysis.root_complete()
        );
    }

    #[test]
    fn non_independently_constraint_node_is_detected() {
        // fs(root) = (p1 & p2) | (!p1 & p2): p1 cannot influence the outcome.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.set_structural(
            root,
            BoolExpr::or2(
                BoolExpr::and2(BoolExpr::Var(p1.var()), BoolExpr::Var(p2.var())),
                BoolExpr::and2(
                    BoolExpr::not(BoolExpr::Var(p1.var())),
                    BoolExpr::Var(p2.var()),
                ),
            ),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let icn = independently_constraint_nodes(&q);
        assert!(icn[root.index()]);
        assert!(!icn[p1.index()], "p1 flips nothing, so it is not an ICN");
        assert!(icn[p2.index()]);
    }

    #[test]
    fn descendants_of_non_icn_are_not_icn() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let p1c = b.predicate_child(p1, EdgeKind::Descendant, AttrPredicate::label("d"));
        let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.set_structural(
            root,
            BoolExpr::or2(
                BoolExpr::and2(BoolExpr::Var(p1.var()), BoolExpr::Var(p2.var())),
                BoolExpr::and2(
                    BoolExpr::not(BoolExpr::Var(p1.var())),
                    BoolExpr::Var(p2.var()),
                ),
            ),
        );
        b.set_structural(p1, BoolExpr::Var(p1c.var()));
        b.mark_output(root);
        let q = b.build().unwrap();
        let icn = independently_constraint_nodes(&q);
        assert!(!icn[p1.index()]);
        assert!(!icn[p1c.index()], "children of non-ICNs are non-ICNs");
    }

    #[test]
    fn similarity_between_identical_siblings() {
        // Root with two AD predicate children with identical label predicates:
        // each is similar to (and subsumed by) the other.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_structural(
            root,
            BoolExpr::and2(BoolExpr::Var(p1.var()), BoolExpr::Var(p2.var())),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let icn = independently_constraint_nodes(&q);
        let ftr = transitive_predicates(&q, &icn);
        assert!(similar(&q, p1, p2, &icn, &ftr));
        assert!(similar(&q, p2, p1, &icn, &ftr));
        assert!(subsumed(&q, p1, p2, &icn, &ftr));
        assert!(subsumed(&q, p2, p1, &icn, &ftr));
    }

    #[test]
    fn pc_child_is_not_subsumed_by_ad_descendant() {
        // u2 is a PC child of the root; u6 is an AD child: Example 4's Q2 case.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let u2 = b.predicate_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        let u6 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_structural(
            root,
            BoolExpr::and2(BoolExpr::Var(u2.var()), BoolExpr::Var(u6.var())),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let icn = independently_constraint_nodes(&q);
        let ftr = transitive_predicates(&q, &icn);
        assert!(similar(&q, u2, u6, &icn, &ftr));
        assert!(
            !subsumed(&q, u2, u6, &icn, &ftr),
            "PC child needs a PC sibling"
        );
        assert!(
            subsumed(&q, u6, u2, &icn, &ftr),
            "AD child subsumed by PC sibling"
        );
    }

    #[test]
    fn broader_label_is_similar_to_narrower() {
        // u1 asks for year <= 2010 (broader), u2 for year <= 2005 (narrower):
        // u2's matches all satisfy u1, so u1 ⊳ u2 but not conversely.
        use crate::predicate::CmpOp;
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let broad = b.predicate_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::any().and("year", CmpOp::Le, 2010.into()),
        );
        let narrow = b.predicate_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::any().and("year", CmpOp::Le, 2005.into()),
        );
        b.set_structural(
            root,
            BoolExpr::and2(BoolExpr::Var(broad.var()), BoolExpr::Var(narrow.var())),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let icn = independently_constraint_nodes(&q);
        let ftr = transitive_predicates(&q, &icn);
        assert!(similar(&q, broad, narrow, &icn, &ftr));
        assert!(!similar(&q, narrow, broad, &icn, &ftr));
    }

    #[test]
    fn complete_predicate_zeroes_unsatisfiable_descendants() {
        use crate::predicate::CmpOp;
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let impossible = b.predicate_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::any()
                .and("year", CmpOp::Gt, 10.into())
                .and("year", CmpOp::Lt, 5.into()),
        );
        b.set_structural(root, BoolExpr::Var(impossible.var()));
        b.mark_output(root);
        let q = b.build().unwrap();
        let analysis = StructuralAnalysis::new(&q);
        assert!(
            !is_satisfiable(analysis.root_complete()),
            "the root requires an impossible descendant"
        );
    }
}
