//! TwigStack-style holistic twig join: path solutions + merge join.
//!
//! The classical algorithm streams region-encoded element lists and pushes
//! partial root-to-leaf *path solutions* onto per-node stacks, then
//! merge-joins the path solutions of different leaves into twig matches.  Its
//! defining cost characteristic — which the paper's Fig. 10 isolates — is the
//! materialization of all path solutions before the join.  This
//! implementation reproduces that structure on graph data: reachability
//! between candidates is answered by the 3-hop index (standing in for region
//! containment on the tree cover), every root-to-leaf query path is expanded
//! into explicit path solutions, and the per-path relations are hash-joined
//! on their shared query nodes.

use std::collections::HashMap;
use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{Gtpq, QueryNodeId, ResultSet};
use gtpq_reach::ThreeHop;

use crate::stats::BaselineStats;
use crate::{extend_tuples, restricted_candidates, Restrictions, TpqAlgorithm};

/// TwigStack-style evaluator.
pub struct TwigStack<'g> {
    graph: &'g DataGraph,
    index: ThreeHop,
}

impl<'g> TwigStack<'g> {
    /// Builds the evaluator (and its reachability index) for `graph`.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            index: ThreeHop::new(graph),
        }
    }
}

impl TpqAlgorithm for TwigStack<'_> {
    fn name(&self) -> &'static str {
        "TwigStack"
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
            "TwigStack only handles conjunctive TPQs"
        );
        let start = Instant::now();
        let mut stats = BaselineStats::default();
        let mat = restricted_candidates(q, self.graph, restrict, &mut stats);

        // Materialize the solutions of each root-to-leaf path, extending
        // every partial path from its tail, and merge-join them on shared
        // query nodes.
        let mut joined: Vec<HashMap<QueryNodeId, NodeId>> = vec![HashMap::new()];
        for leaf in q.node_ids().filter(|&u| q.node(u).is_leaf()) {
            let mut path: Vec<QueryNodeId> =
                std::iter::successors(Some(leaf), |&u| q.parent(u)).collect();
            path.reverse();
            let steps = path.windows(2).enumerate().map(|(i, w)| (i, w[1]));
            let solutions =
                extend_tuples(self.graph, &self.index, q, &mat, path[0], steps, &mut stats);
            let mut next: Vec<HashMap<QueryNodeId, NodeId>> = Vec::new();
            for base in &joined {
                for solution in &solutions {
                    let mut merged = base.clone();
                    if path
                        .iter()
                        .zip(solution)
                        .all(|(&u, &v)| *merged.entry(u).or_insert(v) == v)
                    {
                        next.push(merged);
                    }
                }
            }
            stats.intermediate_results += next.len() as u64;
            joined = next;
            if joined.is_empty() {
                break;
            }
        }

        let rows = joined
            .iter()
            .flat_map(|assignment| q.output_nodes().iter().map(|u| assignment[u]))
            .collect();
        let results = ResultSet::from_rows(q.output_nodes().to_vec(), rows);
        stats.total_time = start.elapsed();
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use gtpq_core::GteaEngine;
    use gtpq_datagen::{generate_xmark, xmark_q1, XmarkConfig};
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_query::{naive, EdgeKind};

    use super::*;

    #[test]
    fn agrees_with_gtea_on_xmark_q1() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let engine = GteaEngine::new(&g);
        let twig = TwigStack::new(&g);
        for group in 0..4 {
            let q = xmark_q1(group);
            let (res, stats) = twig.evaluate(&q);
            assert!(res.same_answer(&engine.evaluate(&q)), "group {group}");
            assert!(stats.total_time >= stats.filtering_time);
        }
    }

    #[test]
    fn produces_more_intermediate_results_than_gtea() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let engine = GteaEngine::new(&g);
        let twig = TwigStack::new(&g);
        let q = xmark_q1(0);
        let (_, twig_stats) = twig.evaluate(&q);
        let (_, gtea_stats) = engine.evaluate_with_stats(&q);
        assert!(
            twig_stats.intermediate_results >= gtea_stats.intermediate_size,
            "path solutions should dominate the matching graph ({} vs {})",
            twig_stats.intermediate_results,
            gtea_stats.intermediate_size
        );
    }

    #[test]
    #[should_panic(expected = "conjunctive")]
    fn rejects_non_conjunctive_queries() {
        let g = example_graph();
        let twig = TwigStack::new(&g);
        let _ = twig.evaluate(&example_query());
    }

    #[test]
    fn respects_candidate_restrictions() {
        let mut gb = gtpq_graph::GraphBuilder::new();
        let a = gb.add_node_with_label("a");
        let b1 = gb.add_node_with_label("b");
        let b2 = gb.add_node_with_label("b");
        gb.add_edge(a, b1);
        gb.add_edge(a, b2);
        let g = gb.build();
        let mut qb = gtpq_query::GtpqBuilder::new(gtpq_query::AttrPredicate::label("a"));
        let root = qb.root_id();
        let child = qb.backbone_child(
            root,
            EdgeKind::Descendant,
            gtpq_query::AttrPredicate::label("b"),
        );
        qb.mark_output(child);
        let q = qb.build().unwrap();
        let twig = TwigStack::new(&g);
        let mut restrictions: Restrictions = vec![None; q.size()];
        restrictions[child.index()] = Some(vec![b2]);
        let (res, _) = twig.evaluate_restricted(&q, Some(&restrictions));
        assert_eq!(res.len(), 1);
        assert!(res.contains(&[b2]));
        // Unrestricted agrees with the naive oracle.
        let (full, _) = twig.evaluate(&q);
        assert!(full.same_answer(&naive::evaluate(&q, &g)));
    }
}
