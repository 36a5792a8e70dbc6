//! GTPQ satisfiability (Theorems 1 and 2).

use gtpq_logic::valuation::eval_with;
use gtpq_query::structural::root_complete_satisfiable;
use gtpq_query::Gtpq;

/// Whether there exists *some* data graph on which the query has a non-empty
/// answer.
///
/// Theorem 1: the query is satisfiable iff the root's attribute predicate and
/// its complete structural predicate `fcs` are satisfiable
/// ([`root_complete_satisfiable`], which derives nothing but what the root's
/// `fcs` reads).  Union-conjunctive queries are the linear-time case of
/// Theorem 2: every formula is monotone, so bottom-up a node can match iff
/// its attribute predicate can hold and its formula holds with each child's
/// variable set to whether that child can match (a backbone child must).
pub fn is_satisfiable(q: &Gtpq) -> bool {
    if !q.node(q.root()).attr.is_satisfiable() {
        return false;
    }
    if !q.is_union_conjunctive() {
        return root_complete_satisfiable(q);
    }
    let mut can_match = vec![false; q.size()];
    // Ids number parents before their children.
    for u in q.node_ids().rev() {
        can_match[u.index()] = q.node(u).attr.is_satisfiable()
            && q.children(u)
                .iter()
                .all(|&c| !q.is_backbone(c) || can_match[c.index()])
            && eval_with(q.fs(u), &mut |v| can_match[v.index()]);
    }
    can_match[q.root().index()]
}

#[cfg(test)]
mod tests {
    use gtpq_logic::BoolExpr;
    use gtpq_query::fixtures::example_query;
    use gtpq_query::structural::StructuralAnalysis;
    use gtpq_query::{AttrPredicate, CmpOp, EdgeKind, GtpqBuilder};

    use super::*;

    /// [`is_satisfiable`], asserted equal to Theorem 1 over the full
    /// structural analysis, which derives `fcs` for every node.
    fn is_satisfiable(q: &Gtpq) -> bool {
        let full = q.node(q.root()).attr.is_satisfiable()
            && gtpq_logic::is_satisfiable(StructuralAnalysis::new(q).root_complete());
        let fast = super::is_satisfiable(q);
        assert_eq!(
            fast, full,
            "the root-only path disagrees with the full analysis"
        );
        fast
    }

    #[test]
    fn a_child_whose_own_formula_contradicts_itself_matches_nothing() {
        // a { where (/b { where (/c as x) & !x }) }: `b` can never match, so
        // neither can the root; `b`'s variable is 0 in `fcs`, not free.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let child = b.predicate_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        let x = b.predicate_child(child, EdgeKind::Child, AttrPredicate::label("c"));
        b.set_structural(root, BoolExpr::Var(child.var()));
        b.set_structural(
            child,
            BoolExpr::and2(
                BoolExpr::Var(x.var()),
                BoolExpr::not(BoolExpr::Var(x.var())),
            ),
        );
        b.mark_output(root);
        assert!(!is_satisfiable(&b.build().unwrap()));
    }

    #[test]
    fn a_constant_zero_formula_is_unsatisfiable() {
        for fs in [BoolExpr::False, BoolExpr::Not(Box::new(BoolExpr::True))] {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            b.set_structural(root, fs);
            b.mark_output(root);
            assert!(!is_satisfiable(&b.build().unwrap()));
        }
    }

    #[test]
    fn the_running_example_is_satisfiable() {
        assert!(is_satisfiable(&example_query()));
    }

    #[test]
    fn union_conjunctive_queries_are_satisfiable_when_attributes_are() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.set_structural(
            root,
            BoolExpr::or2(BoolExpr::Var(p1.var()), BoolExpr::Var(p2.var())),
        );
        b.mark_output(root);
        assert!(is_satisfiable(&b.build().unwrap()));
    }

    #[test]
    fn unsatisfiable_backbone_attribute_predicate() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let child = b.backbone_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::any()
                .and("year", CmpOp::Gt, 5.into())
                .and("year", CmpOp::Lt, 3.into()),
        );
        b.mark_output(child);
        assert!(!is_satisfiable(&b.build().unwrap()));
    }

    #[test]
    fn contradictory_structural_requirements_are_unsatisfiable() {
        // Example-4-style contradiction: the root requires a `b` descendant to
        // be absent, but a backbone sibling subtree that is subsumed by that
        // predicate child forces its presence.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let forbidden = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let required = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_structural(root, BoolExpr::not(BoolExpr::Var(forbidden.var())));
        b.mark_output(required);
        let q = b.build().unwrap();
        assert!(
            !is_satisfiable(&q),
            "requiring and forbidding the same descendant cannot be satisfied"
        );
    }

    #[test]
    fn plain_negation_is_satisfiable() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let p = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_structural(root, BoolExpr::not(BoolExpr::Var(p.var())));
        b.mark_output(root);
        assert!(is_satisfiable(&b.build().unwrap()));
    }
}
