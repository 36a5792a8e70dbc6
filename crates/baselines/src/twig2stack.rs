//! Twig2Stack-style bottom-up twig evaluation.
//!
//! Twig2Stack avoids enumerating path solutions by processing elements
//! bottom-up and organizing partial matches in hierarchical stacks that link
//! each element to the matching elements of its query children; twig answers
//! are enumerated from those linked structures at the end.  The trade-off the
//! paper highlights (Fig. 8 discussion) is the overhead of building and
//! maintaining the hierarchical structures for *every* query node — there is
//! no pruning, so links are materialized even for candidates that never reach
//! the output.
//!
//! This implementation reproduces that structure: a bottom-up sweep retains,
//! for every candidate of every query node, explicit link lists to the
//! matching candidates of each child (pairwise reachability checks through
//! the 3-hop index), and results are enumerated from the link structure.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId, ResultSet};
use gtpq_reach::{Reachability, ThreeHop};

use crate::stats::BaselineStats;
use crate::{
    push_projection, restricted_candidates, Assignment, AssignmentMemo, Restrictions, TpqAlgorithm,
};

/// Twig2Stack-style evaluator.
pub struct Twig2Stack<'g> {
    graph: &'g DataGraph,
    index: ThreeHop,
}

impl<'g> Twig2Stack<'g> {
    /// Builds the evaluator for `graph`.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            index: ThreeHop::new(graph),
        }
    }
}

impl TpqAlgorithm for Twig2Stack<'_> {
    fn name(&self) -> &'static str {
        "Twig2Stack"
    }

    fn graph(&self) -> &DataGraph {
        self.graph
    }

    fn evaluate_restricted(
        &self,
        q: &Gtpq,
        restrict: Option<&Restrictions>,
    ) -> (ResultSet, BaselineStats) {
        assert!(
            q.is_conjunctive(),
            "Twig2Stack only handles conjunctive TPQs"
        );
        let start = Instant::now();
        let mut stats = BaselineStats::default();
        let mut mat = restricted_candidates(q, self.graph, restrict, &mut stats);

        // Bottom-up sweep: per candidate, link lists to matching child candidates.
        let mut links: HashMap<(QueryNodeId, NodeId), Vec<Vec<NodeId>>> = HashMap::new();
        for u in q.bottom_up_order() {
            if q.node(u).is_leaf() {
                continue;
            }
            let children = q.children(u).to_vec();
            let candidates = std::mem::take(&mut mat[u.index()]);
            stats.input_nodes += candidates.len() as u64;
            let mut kept = Vec::with_capacity(candidates.len());
            for v in candidates {
                let mut lists: Vec<Vec<NodeId>> = Vec::with_capacity(children.len());
                let mut ok = true;
                for &child in &children {
                    let matched: Vec<NodeId> = mat[child.index()]
                        .iter()
                        .copied()
                        .filter(|&w| {
                            stats.index_lookups += 1;
                            match q.incoming_edge(child) {
                                Some(EdgeKind::Child) => self.graph.has_edge(v, w),
                                _ => self.index.reaches(v, w),
                            }
                        })
                        .collect();
                    if matched.is_empty() {
                        ok = false;
                        break;
                    }
                    stats.intermediate_results += matched.len() as u64;
                    lists.push(matched);
                }
                if ok {
                    links.insert((u, v), lists);
                    kept.push(v);
                }
            }
            mat[u.index()] = kept;
        }
        stats.intermediate_results += mat.iter().map(|m| m.len() as u64).sum::<u64>();

        // Enumerate results from the hierarchical link structure.
        let mut rows = Vec::new();
        let mut memo: AssignmentMemo = HashMap::new();
        for &v in &mat[q.root().index()] {
            for assignment in enumerate(q, &links, q.root(), v, &mut memo).iter() {
                push_projection(q, assignment, &mut rows);
            }
        }
        let results = ResultSet::from_rows(q.output_nodes().to_vec(), rows);
        stats.total_time = start.elapsed();
        (results, stats)
    }
}

fn enumerate(
    q: &Gtpq,
    links: &HashMap<(QueryNodeId, NodeId), Vec<Vec<NodeId>>>,
    u: QueryNodeId,
    v: NodeId,
    memo: &mut AssignmentMemo,
) -> Rc<Vec<Assignment>> {
    if let Some(cached) = memo.get(&(u, v)) {
        return Rc::clone(cached);
    }
    let own: Vec<(QueryNodeId, NodeId)> = if q.is_output(u) { vec![(u, v)] } else { vec![] };
    let mut partials = vec![own];
    if !q.node(u).is_leaf() {
        let children = q.children(u);
        if let Some(lists) = links.get(&(u, v)) {
            for (ci, &child) in children.iter().enumerate() {
                let mut branch: Vec<Vec<(QueryNodeId, NodeId)>> = Vec::new();
                for &w in &lists[ci] {
                    branch.extend(enumerate(q, links, child, w, memo).iter().cloned());
                }
                branch.sort();
                branch.dedup();
                let mut next = Vec::with_capacity(partials.len() * branch.len());
                for base in &partials {
                    for extra in &branch {
                        let mut merged = base.clone();
                        merged.extend_from_slice(extra);
                        merged.sort();
                        next.push(merged);
                    }
                }
                partials = next;
                if partials.is_empty() {
                    break;
                }
            }
        } else {
            partials.clear();
        }
    }
    partials.sort();
    partials.dedup();
    let rc = Rc::new(partials);
    memo.insert((u, v), Rc::clone(&rc));
    rc
}

#[cfg(test)]
mod tests {
    use gtpq_core::GteaEngine;
    use gtpq_datagen::{generate_xmark, xmark_q1, xmark_q2, XmarkConfig};

    use super::*;

    #[test]
    fn agrees_with_gtea_on_xmark_queries() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let engine = GteaEngine::new(&g);
        let twig = Twig2Stack::new(&g);
        for group in 0..3 {
            let q1 = xmark_q1(group);
            assert!(twig.evaluate(&q1).0.same_answer(&engine.evaluate(&q1)));
            let q2 = xmark_q2(group, group);
            assert!(twig.evaluate(&q2).0.same_answer(&engine.evaluate(&q2)));
        }
    }

    #[test]
    fn reports_costs() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let twig = Twig2Stack::new(&g);
        let (_, stats) = twig.evaluate(&xmark_q1(0));
        assert!(stats.input_nodes > 0);
        assert!(stats.index_lookups > 0);
        assert_eq!(twig.name(), "Twig2Stack");
    }
}
