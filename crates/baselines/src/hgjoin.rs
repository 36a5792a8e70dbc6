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
use std::rc::Rc;
use std::time::Instant;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId, ResultSet};
use gtpq_reach::{Reachability, ThreeHop};

use crate::stats::BaselineStats;
use crate::{
    push_projection, restricted_candidates, Assignment, AssignmentMemo, Restrictions, TpqAlgorithm,
};

/// Per-unit match graphs: root match → per-child candidate lists.
type UnitGraphs = HashMap<QueryNodeId, HashMap<NodeId, Vec<Vec<NodeId>>>>;

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

    fn edge_ok(&self, q: &Gtpq, child: QueryNodeId, v: NodeId, w: NodeId) -> bool {
        match q.incoming_edge(child) {
            Some(EdgeKind::Child) => self.graph.has_edge(v, w),
            _ => self.index.reaches(v, w),
        }
    }

    /// Matches of one (parent; children) unit as explicit tuples
    /// `(parent, child_1, ..., child_k)`.
    fn unit_tuples(
        &self,
        q: &Gtpq,
        u: QueryNodeId,
        mat: &[Vec<NodeId>],
        stats: &mut BaselineStats,
    ) -> Vec<Vec<NodeId>> {
        let children = q.children(u);
        let mut tuples: Vec<Vec<NodeId>> = mat[u.index()].iter().map(|&v| vec![v]).collect();
        for &child in children {
            let mut next = Vec::new();
            for tuple in &tuples {
                let v = tuple[0];
                for &w in &mat[child.index()] {
                    stats.index_lookups += 1;
                    if self.edge_ok(q, child, v, w) {
                        let mut extended = tuple.clone();
                        extended.push(w);
                        next.push(extended);
                    }
                }
            }
            tuples = next;
            if tuples.is_empty() {
                break;
            }
        }
        stats.intermediate_results += tuples.len() as u64;
        tuples
    }

    /// Matches of one unit represented as a graph: per parent candidate, one
    /// match list per child (no Cartesian expansion).
    fn unit_graph(
        &self,
        q: &Gtpq,
        u: QueryNodeId,
        mat: &[Vec<NodeId>],
        stats: &mut BaselineStats,
    ) -> HashMap<NodeId, Vec<Vec<NodeId>>> {
        let children = q.children(u);
        let mut out = HashMap::new();
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
            if lists.iter().all(|l| !l.is_empty()) {
                stats.intermediate_results += 1 + lists.iter().map(|l| l.len() as u64).sum::<u64>();
                out.insert(v, lists);
            }
        }
        out
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
        let internal: Vec<QueryNodeId> = q.internal_nodes();

        let mut rows = Vec::new();
        if self.graph_intermediates {
            // HGJoin*: per-unit match graphs joined implicitly at enumeration.
            let mut unit_graphs: UnitGraphs = HashMap::new();
            for &u in &internal {
                unit_graphs.insert(u, self.unit_graph(q, u, &mat, &mut stats));
            }
            let mut memo: AssignmentMemo = HashMap::new();
            for &v in &mat[q.root().index()] {
                for assignment in enumerate_graph(q, &unit_graphs, q.root(), v, &mut memo).iter() {
                    push_projection(q, assignment, &mut rows);
                }
            }
        } else {
            // HGJoin+: join the unit relations bottom-up on their shared node.
            let mut relations: HashMap<QueryNodeId, Vec<HashMap<QueryNodeId, NodeId>>> =
                HashMap::new();
            for &u in internal.iter().rev() {
                let tuples = self.unit_tuples(q, u, &mat, &mut stats);
                let children = q.children(u).to_vec();
                // Join each unit tuple with the already-joined relations of its
                // internal children on the shared child column.
                let mut joined: Vec<HashMap<QueryNodeId, NodeId>> = Vec::new();
                for tuple in tuples {
                    let mut partials: Vec<HashMap<QueryNodeId, NodeId>> = vec![{
                        let mut m = HashMap::new();
                        m.insert(u, tuple[0]);
                        for (i, &c) in children.iter().enumerate() {
                            m.insert(c, tuple[i + 1]);
                        }
                        m
                    }];
                    for (i, &c) in children.iter().enumerate() {
                        if let Some(child_rel) = relations.get(&c) {
                            let mut next = Vec::new();
                            for base in &partials {
                                for row in child_rel {
                                    if row[&c] == tuple[i + 1] {
                                        let mut merged = base.clone();
                                        for (k, &val) in row {
                                            merged.insert(*k, val);
                                        }
                                        next.push(merged);
                                    }
                                }
                            }
                            partials = next;
                            if partials.is_empty() {
                                break;
                            }
                        }
                    }
                    joined.extend(partials);
                }
                stats.intermediate_results += joined.len() as u64;
                relations.insert(u, joined);
            }
            if let Some(joined) = relations.get(&q.root()) {
                for row in joined {
                    let tuple: Option<Vec<NodeId>> = q
                        .output_nodes()
                        .iter()
                        .map(|u| row.get(u).copied())
                        .collect();
                    if let Some(tuple) = tuple {
                        rows.extend(tuple);
                    }
                }
            }
        }
        let results = ResultSet::from_rows(q.output_nodes().to_vec(), rows);
        stats.total_time = start.elapsed();
        (results, stats)
    }
}

fn enumerate_graph(
    q: &Gtpq,
    units: &UnitGraphs,
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
        match units.get(&u).and_then(|m| m.get(&v)) {
            Some(lists) => {
                for (ci, &child) in q.children(u).iter().enumerate() {
                    let mut branch: Vec<Vec<(QueryNodeId, NodeId)>> = Vec::new();
                    for &w in &lists[ci] {
                        branch.extend(enumerate_graph(q, units, child, w, memo).iter().cloned());
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
