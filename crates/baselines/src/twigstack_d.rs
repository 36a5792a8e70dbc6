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

use std::sync::Mutex;
use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{Gtpq, ResultSet};
use gtpq_reach::{Reachability, Sspi};

use crate::stats::BaselineStats;
use crate::{edge_ok, expand, link_all, restricted_candidates, Restrictions, TpqAlgorithm};

/// TwigStackD evaluator.
pub struct TwigStackD<'g> {
    graph: &'g DataGraph,
    /// Locked while an evaluation probes it: the SSPI's visit counter
    /// belongs to the index, so concurrent evaluations take turns, and the
    /// delta the pre-filter reads holds only its own visits.
    sspi: Mutex<Sspi>,
}

impl<'g> TwigStackD<'g> {
    /// Builds the evaluator (and its SSPI index) for `graph`.
    pub fn new(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            sspi: Mutex::new(Sspi::new(graph)),
        }
    }

    /// The pre-filtering phase: a bottom-up and a top-down sweep over the
    /// candidate lists, using pairwise SSPI probes.  Besides one lookup per
    /// probed pair, `#index` counts the surplus entries the probes visit.
    fn prefilter(&self, sspi: &Sspi, q: &Gtpq, mat: &mut [Vec<NodeId>], stats: &mut BaselineStats) {
        let start = Instant::now();
        let visits_before = sspi.lookup_count();
        let edge = |c, v, w| edge_ok(self.graph, sspi, q, c, v, w);
        // Bottom-up: keep candidates that can reach a candidate of every child.
        for u in q.bottom_up_order() {
            if q.node(u).is_leaf() {
                continue;
            }
            let candidates = std::mem::take(&mut mat[u.index()]);
            stats.input_nodes += candidates.len() as u64;
            mat[u.index()] = candidates
                .into_iter()
                .filter(|&v| {
                    q.children(u).iter().all(|&c| {
                        mat[c.index()].iter().any(|&w| {
                            stats.index_lookups += 1;
                            edge(c, v, w)
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
                            edge(child, v, w)
                        })
                    })
                    .collect();
            }
        }
        stats.index_lookups += sspi.lookup_count() - visits_before;
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

        // Every surviving candidate goes into the pool of its query node,
        // linked to the compatible pool entries of each child (this is where
        // TwigStackD spends its time on dense data).
        let pools = {
            let sspi = self.sspi.lock().unwrap_or_else(|e| e.into_inner());
            self.prefilter(&sspi, q, &mut mat, &mut stats);
            link_all(self.graph, &*sspi, q, &mat, &mut stats.index_lookups)
        };
        stats.intermediate_results += pools
            .values()
            .flatten()
            .map(|l| l.len() as u64)
            .sum::<u64>();
        stats.intermediate_results += mat.iter().map(|m| m.len() as u64).sum::<u64>();

        let results = expand(q, &pools, &mat[q.root().index()]);
        stats.total_time = start.elapsed();
        (results, stats)
    }
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
    fn concurrent_evaluations_report_their_own_counters() {
        let g = generate_arxiv(&ArxivConfig::small());
        let twig = TwigStackD::new(&g);
        let queries = random_queries(
            &g,
            &RandomQueryConfig {
                count: 3,
                ..RandomQueryConfig::with_size(5)
            },
        );
        let counters = |q| {
            let stats = twig.evaluate(q).1;
            (
                stats.input_nodes,
                stats.index_lookups,
                stats.intermediate_results,
            )
        };
        let alone: Vec<_> = queries.iter().map(counters).collect();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        for (q, want) in queries.iter().zip(&alone) {
                            assert_eq!(counters(q), *want);
                        }
                    }
                });
            }
        });
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
