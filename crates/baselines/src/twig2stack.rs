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

use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{Gtpq, ResultSet};
use gtpq_reach::ThreeHop;

use crate::stats::BaselineStats;
use crate::{child_lists, expand, restricted_candidates, Links, Restrictions, TpqAlgorithm};

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

        // Bottom-up sweep: a candidate keeps its links only if every child
        // list is non-empty, and its children past the first empty list are
        // never probed.
        let mut links = Links::new();
        for u in q.bottom_up_order() {
            if q.node(u).is_leaf() {
                continue;
            }
            let candidates = std::mem::take(&mut mat[u.index()]);
            stats.input_nodes += candidates.len() as u64;
            let mut kept = Vec::with_capacity(candidates.len());
            for v in candidates {
                let lists: Vec<Vec<NodeId>> = child_lists(
                    self.graph,
                    &self.index,
                    q,
                    u,
                    v,
                    &mat,
                    &mut stats.index_lookups,
                )
                .take_while(|list| !list.is_empty())
                .collect();
                stats.intermediate_results += lists.iter().map(|l| l.len() as u64).sum::<u64>();
                if lists.len() == q.children(u).len() {
                    links.insert((u, v), lists);
                    kept.push(v);
                }
            }
            mat[u.index()] = kept;
        }
        stats.intermediate_results += mat.iter().map(|m| m.len() as u64).sum::<u64>();

        let results = expand(q, &links, &mat[q.root().index()]);
        stats.total_time = start.elapsed();
        (results, stats)
    }
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
