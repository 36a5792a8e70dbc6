//! TwigStackD: stack-based twig matching on DAGs with pre-filtering and SSPI.
//!
//! TwigStackD (Chen et al.) generalizes the holistic twig join to DAGs: a
//! *pre-filtering* phase sweeps the candidates twice (once bottom-up, once
//! top-down) to keep only nodes that can participate in a complete match, and
//! the surviving candidates are expanded through per-query-node *pools*,
//! checking every edge condition against the SSPI reachability index.  The
//! pre-filter is what makes the algorithm competitive on tree-like graphs
//! (XMark, Fig. 8) while the pairwise SSPI probes and pool expansion are what
//! make it degrade on denser, deeper graphs (arXiv, Fig. 9) — both behaviours
//! come out of this implementation because the same work is done.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId, ResultSet};
use gtpq_reach::{Reachability, Sspi};

use crate::stats::BaselineStats;
use crate::{
    push_projection, restricted_candidates, Assignment, AssignmentMemo, Restrictions, TpqAlgorithm,
};

/// TwigStackD evaluator.
pub struct TwigStackD<'g> {
    graph: &'g DataGraph,
    sspi: Sspi,
}

impl<'g> TwigStackD<'g> {
    /// Builds the evaluator (and its SSPI index) for `graph`.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            sspi: Sspi::new(graph),
        }
    }

    fn edge_ok(&self, q: &Gtpq, child: QueryNodeId, v: NodeId, w: NodeId) -> bool {
        match q.incoming_edge(child) {
            Some(EdgeKind::Child) => self.graph.has_edge(v, w),
            _ => self.sspi.reaches(v, w),
        }
    }

    /// The pre-filtering phase: a bottom-up and a top-down sweep over the
    /// candidate lists, using pairwise SSPI probes.
    fn prefilter(&self, q: &Gtpq, mat: &mut [Vec<NodeId>], stats: &mut BaselineStats) {
        let start = Instant::now();
        self.sspi.reset_visits();
        // Bottom-up: keep candidates that can reach a candidate of every child.
        for u in q.bottom_up_order() {
            if q.node(u).is_leaf() {
                continue;
            }
            let children = q.children(u).to_vec();
            let candidates = std::mem::take(&mut mat[u.index()]);
            stats.input_nodes += candidates.len() as u64;
            mat[u.index()] = candidates
                .into_iter()
                .filter(|&v| {
                    children.iter().all(|&c| {
                        mat[c.index()].iter().any(|&w| {
                            stats.index_lookups += 1;
                            self.edge_ok(q, c, v, w)
                        })
                    })
                })
                .collect();
        }
        // Top-down: keep candidates reachable from a candidate of the parent.
        for u in q.node_ids() {
            for &child in q.children(u) {
                let candidates = std::mem::take(&mut mat[child.index()]);
                stats.input_nodes += candidates.len() as u64;
                mat[child.index()] = candidates
                    .into_iter()
                    .filter(|&w| {
                        mat[u.index()].iter().any(|&v| {
                            stats.index_lookups += 1;
                            self.edge_ok(q, child, v, w)
                        })
                    })
                    .collect();
            }
        }
        stats.index_lookups += self.sspi.visit_count();
        stats.filtering_time += start.elapsed();
    }
}

impl TpqAlgorithm for TwigStackD<'_> {
    fn name(&self) -> &'static str {
        "TwigStackD"
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
            "TwigStackD only handles conjunctive TPQs"
        );
        let start = Instant::now();
        let mut stats = BaselineStats::default();
        let mut mat = restricted_candidates(q, self.graph, restrict, &mut stats);
        self.prefilter(q, &mut mat, &mut stats);

        // Pool-based expansion: every surviving candidate goes into the pool of
        // its query node together with links to compatible pool entries of the
        // child nodes (this is where TwigStackD spends its time on dense data).
        let mut pools: HashMap<(QueryNodeId, NodeId), Vec<Vec<NodeId>>> = HashMap::new();
        for u in q.bottom_up_order() {
            if q.node(u).is_leaf() {
                continue;
            }
            let children = q.children(u).to_vec();
            for &v in &mat[u.index()] {
                let lists: Vec<Vec<NodeId>> = children
                    .iter()
                    .map(|&c| {
                        mat[c.index()]
                            .iter()
                            .copied()
                            .filter(|&w| {
                                stats.index_lookups += 1;
                                self.edge_ok(q, c, v, w)
                            })
                            .collect()
                    })
                    .collect();
                stats.intermediate_results += lists.iter().map(|l| l.len() as u64).sum::<u64>();
                pools.insert((u, v), lists);
            }
        }
        stats.intermediate_results += mat.iter().map(|m| m.len() as u64).sum::<u64>();

        // Enumerate answers from the pools.
        let mut rows = Vec::new();
        let mut memo: AssignmentMemo = HashMap::new();
        for &v in &mat[q.root().index()] {
            for assignment in expand(q, &pools, q.root(), v, &mut memo).iter() {
                push_projection(q, assignment, &mut rows);
            }
        }
        let results = ResultSet::from_rows(q.output_nodes().to_vec(), rows);
        stats.total_time = start.elapsed();
        (results, stats)
    }
}

fn expand(
    q: &Gtpq,
    pools: &HashMap<(QueryNodeId, NodeId), Vec<Vec<NodeId>>>,
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
        match pools.get(&(u, v)) {
            Some(lists) => {
                for (ci, &child) in q.children(u).iter().enumerate() {
                    let mut branch: Vec<Vec<(QueryNodeId, NodeId)>> = Vec::new();
                    for &w in &lists[ci] {
                        branch.extend(expand(q, pools, child, w, memo).iter().cloned());
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
            }
            None => partials.clear(),
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
    use gtpq_datagen::{
        generate_arxiv, generate_xmark, random_queries, ArxivConfig, RandomQueryConfig, XmarkConfig,
    };
    use gtpq_datagen::{xmark_q1, xmark_q3};

    use super::*;

    #[test]
    fn agrees_with_gtea_on_xmark() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let engine = GteaEngine::new(&g);
        let twig = TwigStackD::new(&g);
        for group in 0..3 {
            let q = xmark_q1(group);
            assert!(twig.evaluate(&q).0.same_answer(&engine.evaluate(&q)));
        }
        let q3 = xmark_q3(0, 1, 2);
        assert!(twig.evaluate(&q3).0.same_answer(&engine.evaluate(&q3)));
    }

    #[test]
    fn agrees_with_gtea_on_arxiv_random_queries() {
        let g = generate_arxiv(&ArxivConfig::small());
        let engine = GteaEngine::new(&g);
        let twig = TwigStackD::new(&g);
        let queries = random_queries(
            &g,
            &RandomQueryConfig {
                count: 3,
                ..RandomQueryConfig::with_size(5)
            },
        );
        for q in &queries {
            assert!(twig.evaluate(q).0.same_answer(&engine.evaluate(q)));
        }
    }

    #[test]
    fn prefilter_time_is_recorded() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let twig = TwigStackD::new(&g);
        let (_, stats) = twig.evaluate(&xmark_q1(0));
        assert!(stats.filtering_time <= stats.total_time);
        assert!(stats.filtering_time > std::time::Duration::ZERO);
        assert_eq!(twig.name(), "TwigStackD");
    }
}
