//! Naive semantic evaluator — the correctness oracle.
//!
//! Implements the GTPQ semantics of §2 directly: downward matching `v ⊨ u` is
//! computed bottom-up over the query tree with plain BFS reachability, and
//! matches are enumerated by assigning backbone nodes top-down.  No indexes,
//! no pruning — quadratic-ish and only intended for small graphs in tests and
//! as the reference implementation every optimized engine is compared against.

use std::collections::HashMap;

use gtpq_graph::traversal::descendants;
use gtpq_graph::{DataGraph, NodeId};
use gtpq_logic::valuation::eval_with;

use crate::node::EdgeKind;
use crate::query::Gtpq;
use crate::result::ResultSet;
use crate::QueryNodeId;

/// One match projection: a sorted `(query node, data node)` assignment.
type Assignment = Vec<(QueryNodeId, NodeId)>;
/// Memo of [`subtree_assignments`]: projections per (query node, data node).
type AssignmentMemo = HashMap<(QueryNodeId, NodeId), Vec<Assignment>>;

/// Evaluates `q` on `g` by direct application of the semantics.
pub fn evaluate(q: &Gtpq, g: &DataGraph) -> ResultSet {
    let sat = downward_matches(q, g);
    enumerate(q, g, &sat)
}

/// Computes the downward-match table: `table[u][v]` is true iff `v ⊨ u`.
pub fn downward_matches(q: &Gtpq, g: &DataGraph) -> Vec<Vec<bool>> {
    let n = g.node_count();
    let mut table = vec![vec![false; n]; q.size()];
    for u in q.bottom_up_order() {
        let fext = q.fext(u);
        for v in g.nodes() {
            if !q.matches_attr(g, v, u) {
                continue;
            }
            if q.node(u).is_leaf() {
                table[u.index()][v.index()] = !q.is_false_leaf(u);
                continue;
            }
            // Truth assignment determined by v: for each child u', whether some
            // child/descendant v' of v downward-matches u'.
            let children_of_v = g.children(v);
            let descendants_of_v = descendants(g, v);
            let value = eval_with(&fext, &mut |var| {
                let child = QueryNodeId::from_var(var);
                let candidates: &[NodeId] = match q.incoming_edge(child) {
                    Some(EdgeKind::Child) => children_of_v,
                    _ => &descendants_of_v,
                };
                candidates
                    .iter()
                    .any(|&v2| table[child.index()][v2.index()])
            });
            table[u.index()][v.index()] = value;
        }
    }
    table
}

/// Enumerates the answer from the downward-match table by assigning backbone
/// nodes top-down and projecting onto the output nodes.
fn enumerate(q: &Gtpq, g: &DataGraph, sat: &[Vec<bool>]) -> ResultSet {
    let output = q.output_nodes().to_vec();
    let mut rows = Vec::new();
    let root = q.root();
    let mut memo: AssignmentMemo = HashMap::new();
    for v in g.nodes() {
        if !sat[root.index()][v.index()] {
            continue;
        }
        for assignment in subtree_assignments(q, g, sat, root, v, &mut memo) {
            rows.extend(output.iter().map(|u| {
                assignment
                    .iter()
                    .find(|(qu, _)| qu == u)
                    .map(|&(_, v)| v)
                    .expect("output nodes are backbone nodes and always assigned")
            }));
        }
    }
    ResultSet::from_rows(output, rows)
}

/// All distinct projections (restricted to output nodes) of matches of the
/// backbone subtree rooted at `u`, given `u` is matched to `v`.  Each
/// projection is a sorted `(query node, data node)` assignment.
fn subtree_assignments(
    q: &Gtpq,
    g: &DataGraph,
    sat: &[Vec<bool>],
    u: QueryNodeId,
    v: NodeId,
    memo: &mut AssignmentMemo,
) -> Vec<Assignment> {
    if let Some(cached) = memo.get(&(u, v)) {
        return cached.clone();
    }
    let base: Vec<(QueryNodeId, NodeId)> = if q.is_output(u) { vec![(u, v)] } else { vec![] };
    let mut partials: Vec<Vec<(QueryNodeId, NodeId)>> = vec![base];
    for child in q.backbone_children(u) {
        let candidates: Vec<NodeId> = match q.incoming_edge(child) {
            Some(EdgeKind::Child) => g.children(v).to_vec(),
            _ => descendants(g, v),
        };
        let mut child_results: Vec<Vec<(QueryNodeId, NodeId)>> = Vec::new();
        for v2 in candidates {
            if sat[child.index()][v2.index()] {
                child_results.extend(subtree_assignments(q, g, sat, child, v2, memo));
            }
        }
        // Deduplicate child projections: different matches can project equally.
        child_results.sort();
        child_results.dedup();
        let mut next = Vec::with_capacity(partials.len() * child_results.len());
        for b in &partials {
            for cr in &child_results {
                let mut merged = b.clone();
                merged.extend_from_slice(cr);
                merged.sort();
                next.push(merged);
            }
        }
        partials = next;
        if partials.is_empty() {
            break;
        }
    }
    partials.sort();
    partials.dedup();
    memo.insert((u, v), partials.clone());
    partials
}

#[cfg(test)]
mod tests {
    use gtpq_graph::GraphBuilder;
    use gtpq_logic::BoolExpr;

    use crate::builder::GtpqBuilder;
    use crate::fixtures::{example_answer_pairs, example_graph, example_query};
    use crate::predicate::AttrPredicate;

    use super::*;

    #[test]
    fn example_candidates() {
        let g = example_graph();
        let q = example_query();
        // mat(u5) = {v13}, mat(u10) = {v9, v10, v13, v15} (1-based).
        assert_eq!(q.candidates(&g, QueryNodeId(4)), vec![NodeId(12)]);
        assert_eq!(
            q.candidates(&g, QueryNodeId(9)),
            vec![NodeId(8), NodeId(9), NodeId(12), NodeId(14)]
        );
    }

    #[test]
    fn example_downward_matches() {
        let g = example_graph();
        let q = example_query();
        let table = downward_matches(&q, &g);
        let u2 = QueryNodeId(1);
        let u3 = QueryNodeId(2);
        // u2 (needs an e2 descendant): v3 and v8 qualify, v5 does not.
        assert!(table[u2.index()][NodeId(2).index()]);
        assert!(table[u2.index()][NodeId(7).index()]);
        assert!(!table[u2.index()][NodeId(4).index()]);
        // u3: only v3 satisfies the disjunction (reaches a b-node with an
        // e-descendant and a d1 node); v8 reaches g1 but no b-node; v5 has no
        // d1 descendant for the backbone child u4.
        assert!(table[u3.index()][NodeId(2).index()]);
        assert!(!table[u3.index()][NodeId(7).index()]);
        assert!(!table[u3.index()][NodeId(4).index()]);
        // Root: only v1 reaches both a u2- and a u3-candidate.
        assert!(table[0][NodeId(0).index()]);
        assert!(!table[0][NodeId(1).index()]);
        assert!(!table[0][NodeId(3).index()]);
    }

    #[test]
    fn example_answer_matches_hand_computation() {
        let g = example_graph();
        let q = example_query();
        let answer = evaluate(&q, &g);
        let expected = example_answer_pairs();
        assert_eq!(answer.len(), expected.len(), "answer: {answer:?}");
        for (a, b) in expected {
            assert!(
                answer.contains(&[NodeId(a - 1), NodeId(b - 1)]),
                "missing tuple (v{a}, v{b})"
            );
        }
    }

    #[test]
    fn conjunctive_pc_query() {
        // label(a) / label(b) with b as output, PC edge.
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node_with_label("a");
        let b1 = gb.add_node_with_label("b");
        let b2 = gb.add_node_with_label("b");
        let c = gb.add_node_with_label("c");
        gb.add_edge(a1, b1);
        gb.add_edge(a1, c);
        gb.add_edge(c, b2);
        let g = gb.build();

        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let ans = evaluate(&q, &g);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[b1]));

        // Same query with an AD edge also finds b2.
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let ans = evaluate(&q, &g);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[b2]));
    }

    #[test]
    fn negation_excludes_matches() {
        // Root a with predicate child !b.
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node_with_label("a");
        let a2 = gb.add_node_with_label("a");
        let b1 = gb.add_node_with_label("b");
        gb.add_edge(a1, b1);
        let g = gb.build();

        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let p = qb.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        qb.set_structural(root, BoolExpr::not(BoolExpr::Var(p.var())));
        qb.mark_output(root);
        let q = qb.build().unwrap();
        let ans = evaluate(&q, &g);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[a2]));
        assert!(!ans.contains(&[a1]));
    }

    #[test]
    fn disjunction_accepts_either_branch() {
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node_with_label("a"); // has b child
        let a2 = gb.add_node_with_label("a"); // has c child
        let a3 = gb.add_node_with_label("a"); // has neither
        let b1 = gb.add_node_with_label("b");
        let c1 = gb.add_node_with_label("c");
        gb.add_edge(a1, b1);
        gb.add_edge(a2, c1);
        let _ = a3;
        let g = gb.build();

        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let pb = qb.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        let pc = qb.predicate_child(root, EdgeKind::Descendant, AttrPredicate::label("c"));
        qb.set_structural(
            root,
            BoolExpr::or2(BoolExpr::Var(pb.var()), BoolExpr::Var(pc.var())),
        );
        qb.mark_output(root);
        let q = qb.build().unwrap();
        let ans = evaluate(&q, &g);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn query_over_cyclic_graph() {
        // a -> b -> a cycle: with an AD edge, each a reaches the b.
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node_with_label("a");
        let b1 = gb.add_node_with_label("b");
        gb.add_edge(a1, b1);
        gb.add_edge(b1, a1);
        let g = gb.build();
        let mut qb = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(root, EdgeKind::Descendant, AttrPredicate::label("b"));
        qb.mark_output(root);
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let ans = evaluate(&q, &g);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[a1, b1]));
    }
}
