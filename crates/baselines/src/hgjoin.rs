//! HGJoin: hash-based structural joins over bipartite query units.
//!
//! HGJoin (Wang et al.) decomposes the query pattern into units — an internal
//! query node together with its children — computes the matches of every unit
//! as explicit tuples, and joins the unit relations according to a plan.  The
//! paper runs every valid plan and reports the best ("HGJoin+"); it also
//! evaluates a revised version ("HGJoin*") in which the intermediate results
//! are represented as a graph rather than as tuples, which is exactly the
//! representation GTEA uses.  Both flavours live here behind one flag.
//!
//! Substitution note (`docs/ARCHITECTURE.md`, "Substitutions"): unit
//! relations join in the canonical bottom-up order rather than via
//! selectivity-estimated plans, and reachability is answered by the 3-hop
//! index; the tuple-vs-graph intermediate representation — the factor the
//! paper's HGJoin+/HGJoin* comparison isolates — is faithfully reproduced.

use std::collections::HashMap;
use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{Gtpq, QueryNodeId, ResultSet};
use gtpq_reach::ThreeHop;

use crate::stats::BaselineStats;
use crate::{expand, extend_tuples, link_all, restricted_candidates, Restrictions, TpqAlgorithm};

/// HGJoin evaluator.
pub struct HgJoin<'g> {
    graph: &'g DataGraph,
    index: ThreeHop,
    graph_intermediates: bool,
}

impl<'g> HgJoin<'g> {
    /// The original tuple-based variant (reported as HGJoin+).
    pub fn tuple_based(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            index: ThreeHop::new(graph),
            graph_intermediates: false,
        }
    }

    /// The revised variant with graph-represented intermediates (HGJoin*).
    pub fn graph_based(graph: &'g DataGraph) -> Self {
        Self {
            graph,
            index: ThreeHop::new(graph),
            graph_intermediates: true,
        }
    }

    /// HGJoin*: each unit's matches as a graph, one child list per child of
    /// every unit-root candidate with no empty list (no Cartesian
    /// expansion), joined implicitly at enumeration.  The units read the
    /// unpruned candidates.
    fn join_graphs(&self, q: &Gtpq, mat: &[Vec<NodeId>], stats: &mut BaselineStats) -> ResultSet {
        let mut units = link_all(self.graph, &self.index, q, mat, &mut stats.index_lookups);
        units.retain(|_, lists| lists.iter().all(|l| !l.is_empty()));
        stats.intermediate_results += units
            .values()
            .map(|lists| 1 + lists.iter().map(|l| l.len() as u64).sum::<u64>())
            .sum::<u64>();
        expand(q, &units, &mat[q.root().index()])
    }

    /// HGJoin+: each unit's matches as explicit tuples
    /// `(parent, child_1, ..., child_k)`, joined bottom-up with the
    /// already-joined relations of its internal children on the shared
    /// child column.
    fn join_tuples(&self, q: &Gtpq, mat: &[Vec<NodeId>], stats: &mut BaselineStats) -> ResultSet {
        let mut relations: HashMap<QueryNodeId, Vec<HashMap<QueryNodeId, NodeId>>> = HashMap::new();
        let mut units = q.internal_nodes();
        if units.is_empty() {
            // A one-node query: its root is its one unit, with no children.
            units.push(q.root());
        }
        for u in units.into_iter().rev() {
            let children = q.children(u);
            let steps = children.iter().map(|&c| (0, c));
            let tuples = extend_tuples(self.graph, &self.index, q, mat, u, steps, stats);
            let mut joined: Vec<HashMap<QueryNodeId, NodeId>> = Vec::new();
            for tuple in tuples {
                let mut partials = vec![std::iter::once(u)
                    .chain(children.iter().copied())
                    .zip(tuple.iter().copied())
                    .collect::<HashMap<_, _>>()];
                for (&c, &w) in children.iter().zip(&tuple[1..]) {
                    let Some(child_rel) = relations.get(&c) else {
                        continue;
                    };
                    let mut next = Vec::new();
                    for base in &partials {
                        for row in child_rel.iter().filter(|row| row[&c] == w) {
                            let mut merged = base.clone();
                            merged.extend(row);
                            next.push(merged);
                        }
                    }
                    partials = next;
                    if partials.is_empty() {
                        break;
                    }
                }
                joined.extend(partials);
            }
            stats.intermediate_results += joined.len() as u64;
            relations.insert(u, joined);
        }
        let rows = relations
            .get(&q.root())
            .into_iter()
            .flatten()
            .flat_map(|row| q.output_nodes().iter().map(|u| row[u]))
            .collect();
        ResultSet::from_rows(q.output_nodes().to_vec(), rows)
    }
}

impl TpqAlgorithm for HgJoin<'_> {
    fn name(&self) -> &'static str {
        if self.graph_intermediates {
            "HGJoin*"
        } else {
            "HGJoin+"
        }
    }

    fn graph(&self) -> &DataGraph {
        self.graph
    }

    fn evaluate_restricted(
        &self,
        q: &Gtpq,
        restrict: Option<&Restrictions>,
    ) -> (ResultSet, BaselineStats) {
        assert!(q.is_conjunctive(), "HGJoin only handles conjunctive TPQs");
        let start = Instant::now();
        let mut stats = BaselineStats::default();
        let mat = restricted_candidates(q, self.graph, restrict, &mut stats);
        let results = if self.graph_intermediates {
            self.join_graphs(q, &mat, &mut stats)
        } else {
            self.join_tuples(q, &mat, &mut stats)
        };
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
    fn both_variants_agree_with_gtea() {
        let g = generate_xmark(&XmarkConfig::with_scale(0.1));
        let engine = GteaEngine::new(&g);
        let plus = HgJoin::tuple_based(&g);
        let star = HgJoin::graph_based(&g);
        for group in 0..3 {
            let q = xmark_q1(group);
            let expected = engine.evaluate(&q);
            assert!(plus.evaluate(&q).0.same_answer(&expected));
            assert!(star.evaluate(&q).0.same_answer(&expected));
        }
        let q2 = xmark_q2(1, 1);
        let expected = engine.evaluate(&q2);
        assert!(plus.evaluate(&q2).0.same_answer(&expected));
        assert!(star.evaluate(&q2).0.same_answer(&expected));
    }

    #[test]
    fn both_variants_report_intermediate_costs() {
        // The paper finds HGJoin* pays off for queries with many results and
        // can be *worse* for highly selective ones, so no ordering between the
        // two counters is asserted here — the crossover itself is what the
        // `experiments` binary's `fig9b` / `fig9c` rows show.
        let g = generate_xmark(&XmarkConfig::with_scale(0.2));
        let plus = HgJoin::tuple_based(&g);
        let star = HgJoin::graph_based(&g);
        let q = xmark_q1(0);
        let (_, s_plus) = plus.evaluate(&q);
        let (_, s_star) = star.evaluate(&q);
        assert!(s_plus.intermediate_results > 0);
        assert!(s_star.intermediate_results > 0);
        assert_eq!(plus.name(), "HGJoin+");
        assert_eq!(star.name(), "HGJoin*");
    }
}
