//! Canonicalization of GTPQs for result-cache keys.
//!
//! Two syntactically different queries often denote the same pattern: sibling
//! subtrees listed in a different order, structural predicates written
//! `p ∨ q` vs `q ∨ p`, double negations, and so on.  The cache should hit in
//! all those cases, so queries are keyed by a *canonical rendering*:
//!
//! * children of every node are sorted by their own canonical rendering,
//! * structural predicates are renumbered to the sorted child order, put in
//!   NNF, simplified, and rendered with sorted, deduplicated operands,
//! * output nodes are recorded as positions in the canonical pre-order,
//!   separately from the tree shape.
//!
//! The rendering is sound for caching (equal key ⇒ same pattern up to the
//! normalizations above) but deliberately not complete — deeply different
//! but logically equivalent formulas may render differently.  The cache
//! therefore additionally confirms candidate hits with
//! [`gtpq_analysis::equivalent`], which decides true query equivalence
//! (Theorem 4); a missed normalization only costs a cache miss, never a
//! wrong answer.

use std::collections::HashMap;

use gtpq_logic::transform::{rename_vars, simplify, to_nnf};
use gtpq_logic::BoolExpr;
use gtpq_query::{Gtpq, QueryNodeId};

/// The canonical form of a query, as used by the result cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// Canonical rendering of the tree shape and predicates — identical for
    /// queries that differ only in sibling order / formula spelling.  Output
    /// marks are *not* part of the skeleton so result tuples can be permuted
    /// between queries sharing it.
    pub(crate) skeleton: String,
    /// Full cache key: skeleton plus output positions in coordinate order.
    pub key: String,
    /// For each output coordinate of the query, the position of its node in
    /// the canonical pre-order of the tree.
    pub(crate) output_positions: Vec<usize>,
}

/// Computes the canonical form of `q`.
pub fn canonicalize(q: &Gtpq) -> CanonicalQuery {
    let (skeleton, preorder) = canon_subtree(q, q.root());
    let canon_pos: HashMap<QueryNodeId, usize> =
        preorder.iter().enumerate().map(|(i, &u)| (u, i)).collect();
    let output_positions: Vec<usize> = q.output_nodes().iter().map(|u| canon_pos[u]).collect();
    let key = format!(
        "{skeleton}|out:{}",
        output_positions
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    CanonicalQuery {
        skeleton,
        key,
        output_positions,
    }
}

/// Renders the subtree rooted at `u` and returns its canonical pre-order.
fn canon_subtree(q: &Gtpq, u: QueryNodeId) -> (String, Vec<QueryNodeId>) {
    let mut rendered: Vec<(String, Vec<QueryNodeId>, QueryNodeId)> = q
        .children(u)
        .iter()
        .map(|&c| {
            let (s, order) = canon_subtree(q, c);
            (s, order, c)
        })
        .collect();
    // Sort children by canonical rendering; ties (structurally identical
    // siblings) are broken by original id for determinism.
    rendered.sort_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));

    // Renumber the structural predicate's variables to sorted child order.
    let var_map: HashMap<_, _> = rendered
        .iter()
        .enumerate()
        .map(|(i, (_, _, c))| (c.var(), gtpq_logic::VarId(i as u32)))
        .collect();
    let fs = simplify(&to_nnf(&rename_vars(q.fs(u), &var_map)));

    let node = q.node(u);
    let kind = if q.is_backbone(u) { 'B' } else { 'P' };
    let edge = match q.incoming_edge(u) {
        Some(gtpq_query::EdgeKind::Child) => "/",
        Some(gtpq_query::EdgeKind::Descendant) => "//",
        None => ".",
    };
    let mut s = format!(
        "({kind}{edge}[{attr}]{{{fs}}}",
        attr = canon_attr(&node.attr),
        fs = canon_expr(&fs),
    );
    let mut preorder = vec![u];
    for (child_s, child_order, _) in rendered {
        s.push_str(&child_s);
        preorder.extend(child_order);
    }
    s.push(')');
    (s, preorder)
}

/// Renders an attribute predicate *injectively*.
///
/// The cache treats equal keys as proof of equivalence, so this must never
/// map two different predicates to one string.  `Display` is not injective
/// (`Int(5)` and `Str("5")` both render `x = 5`, and unescaped names can
/// smuggle in the key's own delimiters), so each comparison and each `sim()`
/// conjunct is rendered in its `Debug` form — type-tagged, with escaped
/// strings and round-tripping floats.  The conjunction is sorted and
/// deduplicated so conjunct order does not change the key.
fn canon_attr(p: &gtpq_query::AttrPredicate) -> String {
    let comparisons = p.comparisons.iter().map(|c| format!("{c:?}"));
    let sims = p.sims.iter().map(|s| format!("{s:?}"));
    let mut parts: Vec<String> = comparisons.chain(sims).collect();
    parts.sort_unstable();
    parts.dedup();
    parts.join(",")
}

/// Renders a (NNF, simplified) formula with sorted, deduplicated operands so
/// commutative/idempotent spellings coincide.
fn canon_expr(e: &BoolExpr) -> String {
    match e {
        BoolExpr::True => "1".into(),
        BoolExpr::False => "0".into(),
        BoolExpr::Var(v) => format!("v{}", v.0),
        BoolExpr::Not(inner) => format!("!{}", canon_expr(inner)),
        BoolExpr::And(items) => {
            let mut parts: Vec<String> = items.iter().map(canon_expr).collect();
            parts.sort_unstable();
            parts.dedup();
            format!("&({})", parts.join(","))
        }
        BoolExpr::Or(items) => {
            let mut parts: Vec<String> = items.iter().map(canon_expr).collect();
            parts.sort_unstable();
            parts.dedup();
            format!("|({})", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use gtpq_query::{AttrPredicate, EdgeKind, GtpqBuilder};

    use super::*;

    #[test]
    fn sibling_order_does_not_change_the_key() {
        let build = |swap: bool| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let labels = if swap { ["c", "b"] } else { ["b", "c"] };
            for l in labels {
                let n = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(l));
                b.mark_output(n);
            }
            b.build().unwrap()
        };
        let (q1, q2) = (build(false), build(true));
        let (c1, c2) = (canonicalize(&q1), canonicalize(&q2));
        assert_eq!(c1.skeleton, c2.skeleton);
        // Output coordinates follow mark order, which differs between the two
        // spellings — captured by the positions, not the skeleton.
        assert_eq!(c1.output_positions.len(), 2);
        assert_eq!(
            c1.output_positions
                .iter()
                .rev()
                .copied()
                .collect::<Vec<_>>(),
            c2.output_positions
        );
    }

    #[test]
    fn disjunct_order_does_not_change_the_key() {
        let build = |swap: bool| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let p1 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
            let p2 = b.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
            let (x, y) = if swap { (p2, p1) } else { (p1, p2) };
            b.set_structural(
                root,
                BoolExpr::or2(BoolExpr::Var(x.var()), BoolExpr::Var(y.var())),
            );
            b.mark_output(root);
            b.build().unwrap()
        };
        assert_eq!(
            canonicalize(&build(false)).key,
            canonicalize(&build(true)).key
        );
    }

    #[test]
    fn different_patterns_get_different_keys() {
        let build = |label: &str| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let n = b.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label(label));
            b.mark_output(n);
            b.build().unwrap()
        };
        assert_ne!(canonicalize(&build("b")).key, canonicalize(&build("c")).key);
    }

    #[test]
    fn attr_value_type_is_part_of_the_key() {
        // `Int(5)` and `Str("5")` render identically under `Display`; the
        // key must distinguish them or the cache's "equal key ⇒ equivalent"
        // fast path would serve one query's results to the other.
        let build = |value: gtpq_graph::AttrValue| {
            let mut b = GtpqBuilder::new(AttrPredicate::eq("x", value));
            let root = b.root_id();
            b.mark_output(root);
            b.build().unwrap()
        };
        assert_ne!(
            canonicalize(&build(gtpq_graph::AttrValue::Int(5))).key,
            canonicalize(&build(gtpq_graph::AttrValue::str("5"))).key
        );
    }

    #[test]
    fn sim_conjuncts_are_part_of_the_key() {
        // Two queries that differ only in a `sim()` conjunct must not share
        // a key: the result cache would serve one query's rows to the other.
        let build = |query: Vec<f32>, threshold: f32| {
            let attr = AttrPredicate::any().and_sim("emb", gtpq_query::CmpOp::Lt, query, threshold);
            let mut b = GtpqBuilder::new(attr);
            let root = b.root_id();
            b.mark_output(root);
            canonicalize(&b.build().unwrap()).key
        };
        let key = build(vec![0.5, 1.0], 2.5);
        assert_eq!(key, build(vec![0.5, 1.0], 2.5));
        assert_ne!(key, build(vec![0.5, -1.0], 2.5));
        assert_ne!(key, build(vec![0.5, 1.0], 4.5));
    }

    #[test]
    fn conjunct_order_does_not_change_the_key() {
        let build = |swap: bool| {
            let attr = if swap {
                AttrPredicate::label("a").and("x", gtpq_query::CmpOp::Eq, 1.into())
            } else {
                AttrPredicate::eq("x", 1.into()).and(
                    gtpq_graph::LABEL_ATTR,
                    gtpq_query::CmpOp::Eq,
                    "a".into(),
                )
            };
            let mut b = GtpqBuilder::new(attr);
            let root = b.root_id();
            b.mark_output(root);
            b.build().unwrap()
        };
        assert_eq!(
            canonicalize(&build(false)).key,
            canonicalize(&build(true)).key
        );
    }

    #[test]
    fn edge_kind_is_part_of_the_key() {
        let build = |edge: EdgeKind| {
            let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
            let root = b.root_id();
            let n = b.backbone_child(root, edge, AttrPredicate::label("b"));
            b.mark_output(n);
            b.build().unwrap()
        };
        assert_ne!(
            canonicalize(&build(EdgeKind::Child)).key,
            canonicalize(&build(EdgeKind::Descendant)).key
        );
    }
}
