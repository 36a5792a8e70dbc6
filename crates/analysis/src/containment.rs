//! Containment and equivalence of GTPQs (Theorems 3 and 4).

use std::collections::HashMap;

use gtpq_logic::transform::rename_vars;
use gtpq_logic::{implies, VarId};
use gtpq_query::structural::{independently_constraint_nodes, StructuralAnalysis};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId};

/// Whether `q1 ⊑ q2`: every answer of `q1` on any data graph is also an
/// answer of `q2`.  By Theorem 3 this holds iff there is a homomorphism from
/// `q2` to `q1`.
pub fn contained_in(q1: &Gtpq, q2: &Gtpq) -> bool {
    homomorphism_exists(q2, q1)
}

/// Whether the two queries are equivalent (mutual containment).
pub fn equivalent(q1: &Gtpq, q2: &Gtpq) -> bool {
    contained_in(q1, q2) && contained_in(q2, q1)
}

/// Searches for a homomorphism from `from` to `to` in the sense of §3.2:
/// independently-constraint nodes of `from` are mapped into `to` preserving
/// edge kinds and entailment of attribute predicates, output-node sets are
/// aligned, and the complete structural predicate of `to`'s root implies the
/// renamed complete predicate of `from`'s root.
///
/// The search backtracks over *complete* mappings: the output and formula
/// conditions are checked for every candidate assignment, so an unfortunate
/// early image choice cannot mask an existing homomorphism.
pub(crate) fn homomorphism_exists(from: &Gtpq, to: &Gtpq) -> bool {
    if from.output_nodes().len() != to.output_nodes().len() {
        return false;
    }
    let from_icn = independently_constraint_nodes(from);
    // Node ids are a pre-order numbering, so parents precede children.
    let nodes: Vec<QueryNodeId> = from.node_ids().filter(|u| from_icn[u.index()]).collect();
    if nodes.first() != Some(&from.root()) {
        // The root is not independently constraint (unsatisfiable predicate).
        return false;
    }
    let from_analysis = StructuralAnalysis::new(from);
    let to_analysis = StructuralAnalysis::new(to);
    let mut mapping: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    search(
        from,
        to,
        &nodes,
        0,
        &mut mapping,
        &from_analysis,
        &to_analysis,
    )
}

fn search(
    from: &Gtpq,
    to: &Gtpq,
    nodes: &[QueryNodeId],
    idx: usize,
    mapping: &mut HashMap<QueryNodeId, QueryNodeId>,
    from_analysis: &StructuralAnalysis,
    to_analysis: &StructuralAnalysis,
) -> bool {
    if idx == nodes.len() {
        return check_complete(from, to, mapping, from_analysis, to_analysis);
    }
    let u = nodes[idx];
    if u == from.root() {
        if !from.node(u).attr.entailed_by(&to.node(to.root()).attr) {
            return false;
        }
        mapping.insert(u, to.root());
        if search(
            from,
            to,
            nodes,
            idx + 1,
            mapping,
            from_analysis,
            to_analysis,
        ) {
            return true;
        }
        mapping.remove(&u);
        return false;
    }
    let parent = from.parent(u).expect("non-root nodes have parents");
    let Some(&parent_image) = mapping.get(&parent) else {
        // The parent was left unmapped (a skipped predicate subtree); the whole
        // subtree stays unmapped, which is only allowed for predicate nodes.
        if !from.is_backbone(u) {
            return search(
                from,
                to,
                nodes,
                idx + 1,
                mapping,
                from_analysis,
                to_analysis,
            );
        }
        return false;
    };
    // A PC child must map onto a PC child of the image; an AD child may map
    // onto any descendant (paper §3.2, condition 3a).
    let candidates: Vec<QueryNodeId> = match from.incoming_edge(u) {
        Some(EdgeKind::Child) => to
            .children(parent_image)
            .iter()
            .copied()
            .filter(|c| to.incoming_edge(*c) == Some(EdgeKind::Child))
            .collect(),
        _ => to.descendants(parent_image),
    };
    for cand in candidates {
        if !from.node(u).attr.entailed_by(&to.node(cand).attr) {
            continue;
        }
        mapping.insert(u, cand);
        if search(
            from,
            to,
            nodes,
            idx + 1,
            mapping,
            from_analysis,
            to_analysis,
        ) {
            return true;
        }
        mapping.remove(&u);
    }
    // A predicate node may stay unmapped: its variable is then left free in the
    // final implication check, which is the sound direction (the implication
    // must hold for every value of the free variable).
    if !from.is_backbone(u)
        && search(
            from,
            to,
            nodes,
            idx + 1,
            mapping,
            from_analysis,
            to_analysis,
        )
    {
        return true;
    }
    false
}

fn check_complete(
    from: &Gtpq,
    to: &Gtpq,
    mapping: &HashMap<QueryNodeId, QueryNodeId>,
    from_analysis: &StructuralAnalysis,
    to_analysis: &StructuralAnalysis,
) -> bool {
    // Output nodes must map onto output nodes bijectively.
    let mut mapped_outputs: Vec<QueryNodeId> = Vec::new();
    for o in from.output_nodes() {
        match mapping.get(o) {
            Some(&img) if to.is_output(img) => mapped_outputs.push(img),
            _ => return false,
        }
    }
    mapped_outputs.sort_unstable();
    mapped_outputs.dedup();
    if mapped_outputs.len() != to.output_nodes().len() {
        return false;
    }
    // Formula condition on the complete structural predicates of the roots.
    let rename: HashMap<VarId, VarId> = mapping.iter().map(|(f, t)| (f.var(), t.var())).collect();
    let renamed = rename_vars(from_analysis.root_complete(), &rename);
    implies(to_analysis.root_complete(), &renamed)
}

#[cfg(test)]
mod tests {
    use gtpq_logic::BoolExpr;
    use gtpq_query::{AttrPredicate, CmpOp, GtpqBuilder};

    use super::*;

    fn path_query(labels: &[&str], edge: EdgeKind) -> Gtpq {
        let mut b = GtpqBuilder::new(AttrPredicate::label(labels[0]));
        let mut parent = b.root_id();
        for label in &labels[1..] {
            parent = b.backbone_child(parent, edge, AttrPredicate::label(label));
        }
        b.mark_output(parent);
        b.build().unwrap()
    }

    #[test]
    fn identical_queries_are_equivalent() {
        let q1 = path_query(&["a", "b"], EdgeKind::Descendant);
        let q2 = path_query(&["a", "b"], EdgeKind::Descendant);
        assert!(equivalent(&q1, &q2));
        assert!(contained_in(&q1, &q2));
    }

    #[test]
    fn pc_query_is_contained_in_ad_query() {
        let pc = path_query(&["a", "b"], EdgeKind::Child);
        let ad = path_query(&["a", "b"], EdgeKind::Descendant);
        assert!(contained_in(&pc, &ad), "a/b ⊑ a//b");
        assert!(!contained_in(&ad, &pc), "a//b is strictly larger");
        assert!(!equivalent(&pc, &ad));
    }

    #[test]
    fn narrower_attribute_predicate_is_contained() {
        let build = |max_year: i64| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("paper"));
            let root = b.root_id();
            let year = b.backbone_child(
                root,
                EdgeKind::Descendant,
                AttrPredicate::any().and("year", CmpOp::Le, max_year.into()),
            );
            b.mark_output(year);
            b.build().unwrap()
        };
        let narrow = build(2005);
        let broad = build(2010);
        assert!(contained_in(&narrow, &broad));
        assert!(!contained_in(&broad, &narrow));
    }

    #[test]
    fn different_labels_are_incomparable() {
        let q1 = path_query(&["a", "b"], EdgeKind::Descendant);
        let q2 = path_query(&["a", "c"], EdgeKind::Descendant);
        assert!(!contained_in(&q1, &q2));
        assert!(!contained_in(&q2, &q1));
    }

    #[test]
    fn extra_predicate_constraint_implies_containment() {
        // q1: a//b* with an additional required c descendant of the root;
        // q2: plain a//b*.  q1 is contained in q2 but not conversely.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let out = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let extra = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        b.set_structural(root, BoolExpr::Var(extra.var()));
        b.mark_output(out);
        let q1 = b.build().unwrap();
        let q2 = path_query(&["a", "b"], EdgeKind::Descendant);
        assert!(contained_in(&q1, &q2));
        assert!(!contained_in(&q2, &q1));
    }

    #[test]
    fn disjunctive_query_contains_its_disjuncts() {
        // q_or: root a with (b ∨ c) predicate; q_b: root a requiring b.
        let build_or = || {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let pb = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
            let pc = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
            b.set_structural(
                root,
                BoolExpr::or2(BoolExpr::Var(pb.var()), BoolExpr::Var(pc.var())),
            );
            b.mark_output(root);
            b.build().unwrap()
        };
        let build_b = || {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let pb = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
            b.set_structural(root, BoolExpr::Var(pb.var()));
            b.mark_output(root);
            b.build().unwrap()
        };
        let q_or = build_or();
        let q_b = build_b();
        assert!(
            contained_in(&q_b, &q_or),
            "requiring b is stricter than b ∨ c"
        );
        assert!(!contained_in(&q_or, &q_b));
    }
}
