//! GTPQ minimization (Algorithm 1 `minGTPQ`).

use std::collections::HashMap;

use gtpq_logic::transform::{rename_vars, substitute_const};
use gtpq_logic::{implies, is_satisfiable as formula_sat, BoolExpr, VarId};
use gtpq_query::structural::{
    independently_constraint_nodes, subsumed, transitive_predicates, StructuralAnalysis,
};
use gtpq_query::{Gtpq, GtpqBuilder, QueryNodeId};

/// Minimizes a GTPQ: returns an equivalent query with no more nodes.
///
/// Following Algorithm 1, the pass removes predicate subtrees (1) whose
/// attribute predicate is unsatisfiable, (2) of non-independently-constraint
/// nodes, (3) whose complete structural predicate is unsatisfiable, and
/// (4) subtrees that are subsumed by a similar sibling subtree whose variable
/// is implied by the root's complete predicate, as long as the query left
/// without them still implies it.  Subtrees containing output
/// nodes are never removed (the paper relocates outputs onto isomorphic
/// subtrees; we keep them in place, which can only make the result larger,
/// never incorrect).
pub fn minimize(q: &Gtpq) -> Gtpq {
    let mut removed = vec![false; q.size()];
    let mut fs: Vec<BoolExpr> = q.node_ids().map(|u| q.fs(u).clone()).collect();

    let protects_output = |q: &Gtpq, u: QueryNodeId| q.subtree(u).iter().any(|&d| q.is_output(d));

    // Steps 1–3 remove predicate subtrees that can never match, setting
    // their variable to 0.  A backbone node that can never match empties the
    // answer instead (`fext` requires it), so it stays.
    let removable = |u: QueryNodeId| !q.is_backbone(u);

    // Step 1: unsatisfiable attribute predicates.
    for u in q.node_ids().skip(1) {
        if !q.node(u).attr.is_satisfiable() && removable(u) {
            remove_subtree(q, u, &mut removed, &mut fs, false);
        }
    }

    // Step 2: non-independently-constraint nodes.
    let icn = independently_constraint_nodes(q);
    for u in q.node_ids().skip(1) {
        if !icn[u.index()] && !removed[u.index()] && removable(u) {
            remove_subtree(q, u, &mut removed, &mut fs, false);
        }
    }

    // Step 3: unsatisfiable complete structural predicates.
    let analysis = StructuralAnalysis::new(q);
    for u in q.node_ids().skip(1) {
        if removed[u.index()] || !removable(u) {
            continue;
        }
        if !formula_sat(&analysis.complete[u.index()]) {
            remove_subtree(q, u, &mut removed, &mut fs, false);
        }
    }

    // Step 4: subsumed sibling subtrees whose presence is already implied.
    // A subsumed candidate matches wherever `u` does, so its variable may be
    // set to 1 only while the query requires `u` without it: with `fs(root)
    // = p1 | p2` over two equal children, `p1` is implied only through `p2`,
    // and removing `p2` as 1 would leave `1`.  So each removal is tried on
    // the current query and kept only when the result still implies `p_u`.
    let ftr = transitive_predicates(q, &icn);
    let mut current = rebuild(q, &removed, &fs);
    for u in q.node_ids().skip(1) {
        if removed[u.index()] || !requires(&current, u) {
            continue;
        }
        for candidate in q.node_ids().skip(1) {
            if candidate == u || removed[candidate.index()] || protects_output(q, candidate) {
                continue;
            }
            if subsumed(q, candidate, u, &icn, &ftr) {
                let (mut trial_removed, mut trial_fs) = (removed.clone(), fs.clone());
                remove_subtree(q, candidate, &mut trial_removed, &mut trial_fs, true);
                let trial = rebuild(q, &trial_removed, &trial_fs);
                if requires(&trial, u) {
                    (removed, fs, current) = (trial_removed, trial_fs, trial);
                }
            }
        }
    }

    current.0
}

/// Whether the root's complete predicate of a rebuilt query implies the
/// variable of `u` (a node of the original query, renamed by the rebuild).
fn requires((query, mapping): &(Gtpq, HashMap<QueryNodeId, QueryNodeId>), u: QueryNodeId) -> bool {
    let analysis = StructuralAnalysis::new(query);
    implies(analysis.root_complete(), &BoolExpr::Var(mapping[&u].var()))
}

/// Marks the subtree rooted at `u` as removed and substitutes its variable in
/// the parent's structural predicate (`true` when the constraint is known to
/// be implied, `false` otherwise).
fn remove_subtree(
    q: &Gtpq,
    u: QueryNodeId,
    removed: &mut [bool],
    fs: &mut [BoolExpr],
    as_true: bool,
) {
    for d in q.subtree(u) {
        removed[d.index()] = true;
    }
    if let Some(parent) = q.parent(u) {
        fs[parent.index()] = substitute_const(&fs[parent.index()], u.var(), as_true);
    }
}

/// Rebuilds a query from the surviving nodes, remapping structural-predicate
/// variables to the new dense ids; returns it with the id mapping.
fn rebuild(
    q: &Gtpq,
    removed: &[bool],
    fs: &[BoolExpr],
) -> (Gtpq, HashMap<QueryNodeId, QueryNodeId>) {
    let mut b = GtpqBuilder::new(q.node(q.root()).attr.clone());
    let mut mapping: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    mapping.insert(q.root(), b.root_id());
    for u in q.node_ids().skip(1) {
        if removed[u.index()] {
            continue;
        }
        let parent_old = q.parent(u).expect("non-root");
        let Some(&parent_new) = mapping.get(&parent_old) else {
            continue;
        };
        let edge = q.incoming_edge(u).expect("non-root");
        let new = if q.is_backbone(u) {
            b.backbone_child(parent_new, edge, q.node(u).attr.clone())
        } else {
            b.predicate_child(parent_new, edge, q.node(u).attr.clone())
        };
        if let Some(name) = &q.node(u).name {
            b.set_name(new, name);
        }
        mapping.insert(u, new);
    }
    let rename: HashMap<VarId, VarId> = mapping.iter().map(|(o, n)| (o.var(), n.var())).collect();
    for (old, new) in &mapping {
        // Drop removed variables that were never substituted (defensive).
        let mut formula = fs[old.index()].clone();
        for var in formula.variables() {
            let old_node = QueryNodeId::from_var(var);
            if removed[old_node.index()] {
                formula = substitute_const(&formula, var, false);
            }
        }
        b.set_structural(*new, rename_vars(&formula, &rename));
    }
    for &o in q.output_nodes() {
        if let Some(&new) = mapping.get(&o) {
            b.mark_output(new);
        }
    }
    (b.build().expect("minimized query remains valid"), mapping)
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_query::naive;
    use gtpq_query::{AttrPredicate, CmpOp, EdgeKind};

    use crate::containment::{contained_in, equivalent};

    use super::*;

    #[test]
    fn minimization_preserves_answers_on_the_running_example() {
        let q = example_query();
        let m = minimize(&q);
        // The redundant d1 predicate child (subsumed by the d1 backbone child
        // of the same node) disappears.
        assert!(m.size() < q.size());
        let g = example_graph();
        assert!(naive::evaluate(&m, &g).same_answer(&naive::evaluate(&q, &g)));
        assert!(equivalent(&q, &m));
        assert!(contained_in(&q, &m) && contained_in(&m, &q));
    }

    #[test]
    fn redundant_duplicate_sibling_is_removed() {
        // Root with two identical AD predicate children requiring a `b`
        // descendant, conjoined: one of them is redundant.
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
        let m = minimize(&q);
        assert_eq!(m.size(), 2, "one duplicate predicate child must disappear");
        assert!(equivalent(&q, &m));
    }

    #[test]
    fn a_disjunction_of_equal_siblings_keeps_requiring_them() {
        // `p1 | p2` over two equal children: `p1` is implied only while `p2`
        // is there to imply it, so removing `p2` as 1 would leave `1`, which
        // answers every `[label >= l2]` node.
        let q: Gtpq = "[label >= l2]* { where (/l2) | (/l2) }".parse().unwrap();
        let m = minimize(&q);
        assert_ne!(*m.fs(m.root()), BoolExpr::True, "{m}");
        assert!(equivalent(&q, &m));
        let g = example_graph();
        assert_eq!(naive::evaluate(&m, &g), naive::evaluate(&q, &g));
    }

    #[test]
    fn a_backbone_node_that_never_matches_stays() {
        // `//b1` requires a child whose formula contradicts itself, so it
        // matches nothing and neither does the query; without it the root
        // alone would answer.
        let q: Gtpq = "a1* { //b1 { where (/c1 as x) & !x } }".parse().unwrap();
        let m = minimize(&q);
        let g = example_graph();
        assert!(naive::evaluate(&m, &g).is_empty(), "{m}");
        assert!(!naive::evaluate(&"a1*".parse().unwrap(), &g).is_empty());
    }

    #[test]
    fn non_icn_nodes_are_removed() {
        // fs(root) = (p1 & p2) | (!p1 & p2): p1 (and its subtree) is redundant.
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
        let m = minimize(&q);
        assert_eq!(m.size(), 2, "p1 and its child must be removed");
        assert!(equivalent(&q, &m));
    }

    #[test]
    fn unsatisfiable_attribute_subtrees_are_removed() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let dead = b.predicate_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::any()
                .and("year", CmpOp::Gt, 9.into())
                .and("year", CmpOp::Lt, 1.into()),
        );
        let alive = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.set_structural(
            root,
            BoolExpr::or2(BoolExpr::Var(dead.var()), BoolExpr::Var(alive.var())),
        );
        b.mark_output(root);
        let q = b.build().unwrap();
        let m = minimize(&q);
        assert_eq!(m.size(), 2);
        assert!(equivalent(&q, &m));
    }

    #[test]
    fn minimization_is_idempotent() {
        let q = example_query();
        let m1 = minimize(&q);
        let m2 = minimize(&m1);
        assert_eq!(m1.size(), m2.size());
    }

    #[test]
    fn output_subtrees_are_never_removed() {
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let out1 = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let out2 = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        b.mark_output(out1);
        b.mark_output(out2);
        let q = b.build().unwrap();
        let m = minimize(&q);
        assert_eq!(m.output_nodes().len(), 2);
        assert_eq!(m.size(), 3, "both output branches must survive");
    }
}
