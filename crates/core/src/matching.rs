//! The maximal matching graph (§4.3).
//!
//! Instead of materializing intermediate matches as tuples, GTEA groups the
//! surviving candidates by query node and connects a pair of data nodes by an
//! edge whenever the corresponding query nodes are connected in the (shrunk)
//! prime subtree and the data nodes satisfy the edge's relationship.  Each
//! data node is stored at most once per query node and each relationship by a
//! single edge, so the representation is at most quadratic even when the
//! number of matches is exponential.

use std::ops::Range;
use std::time::Instant;

use gtpq_graph::{intersect_sorted_into, DataGraph, NodeId};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId};
use gtpq_reach::Reachability;

use crate::exec::{ExecCtl, Interrupt};
use crate::prime::ShrunkPrime;
use crate::stats::EvalStats;

/// The maximal matching graph of a shrunk prime subtree.
///
/// Edges are stored flat: a *branch* is the sorted list of data nodes one
/// `(query node, candidate)` pair points to for one shrunk child, and all
/// branches live back to back in one `targets` buffer delimited by
/// `bounds`, in (query node, child, candidate position) order — so the
/// enumerator addresses a branch by a plain index range.
#[derive(Clone, Debug, Default)]
pub struct MatchingGraph {
    /// Per query node: the branch id of its first child's first candidate
    /// (meaningful only for shrunk nodes that have shrunk children).
    first_branch: Vec<usize>,
    /// Per query node: its number of shrunk children.
    arity: Vec<usize>,
    /// Per query node: its number of candidates, `|mat(u)|`.
    candidates: Vec<usize>,
    /// Branch `b` is `targets[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<usize>,
    targets: Vec<NodeId>,
    /// Number of data-node occurrences in the graph.
    pub(crate) node_count: usize,
    /// Number of edges in the graph.
    pub edge_count: usize,
    /// What the set-at-a-time pass of each AD child did, in build order.
    pub ad_passes: Vec<AdPass>,
}

/// The cost of building every branch of one AD child of the matching graph
/// (see [`gtpq_graph::sweep::Branches`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdPass {
    /// The child query node whose incoming AD edge the pass answered.
    pub child: QueryNodeId,
    /// Condensation components given a bitset row.
    pub region: usize,
    /// Condensation edges visited (what the pass adds to `index_lookups`).
    pub edges_visited: u64,
    /// `u64` words of the row arena.
    pub row_words: usize,
    /// Branch entries the pass produced.
    pub branch_entries: usize,
}

impl MatchingGraph {
    /// Builds the matching graph for the shrunk prime subtree.
    ///
    /// The branches of a PC child are adjacency-list intersections, one per
    /// parent candidate, written straight into the flat target buffer (which
    /// is reserved once per child, so the build allocates the same whatever
    /// the number of candidates).  All branches of an AD child come out of
    /// one [`gtpq_graph::sweep::branches`] pass over `g`'s condensation, so
    /// their cost is the region between the two candidate sets plus the
    /// branch entries themselves, not `|mat(u)| · |mat(child)|` probes.
    ///
    /// `index` is not used: reachability is read off the condensation `g`
    /// carries.  The parameter stays until the benchmark's replay of this
    /// pipeline is retired (ROADMAP 1a).
    ///
    /// `ctl` is polled once per `(candidate, PC child)` pair and per
    /// component an AD pass expands; deadline expiry or cancellation aborts
    /// with an [`Interrupt`].  `stats.matching_graph_time` (and the lookup /
    /// intermediate-size rollups, over the partially built graph) are
    /// recorded either way.
    #[allow(clippy::too_many_arguments)] // the evaluation pipeline state is explicit
    pub fn build<R: Reachability + ?Sized>(
        q: &Gtpq,
        g: &DataGraph,
        _index: &R,
        shrunk: &ShrunkPrime,
        mat: &[Vec<NodeId>],
        stats: &mut EvalStats,
        ctl: &ExecCtl,
    ) -> Result<Self, Interrupt> {
        let start = Instant::now();
        let mut graph = MatchingGraph {
            first_branch: vec![0; q.size()],
            arity: vec![0; q.size()],
            candidates: vec![0; q.size()],
            bounds: vec![0],
            ..MatchingGraph::default()
        };
        let result = graph.fill(q, g, shrunk, mat, stats, ctl);
        stats.intermediate_size += 2 * (graph.node_count + graph.edge_count) as u64;
        stats.matching_graph_time += start.elapsed();
        result.map(|()| graph)
    }

    fn fill(
        &mut self,
        q: &Gtpq,
        g: &DataGraph,
        shrunk: &ShrunkPrime,
        mat: &[Vec<NodeId>],
        stats: &mut EvalStats,
        ctl: &ExecCtl,
    ) -> Result<(), Interrupt> {
        for &u in &shrunk.nodes {
            let candidates = &mat[u.index()];
            self.node_count += candidates.len();
            let children = shrunk.children_of(u);
            self.first_branch[u.index()] = self.bounds.len() - 1;
            self.arity[u.index()] = children.len();
            self.candidates[u.index()] = candidates.len();
            for &child in children {
                let child_mat = &mat[child.index()];
                let base = self.targets.len();
                if q.incoming_edge(child) == Some(EdgeKind::Child) {
                    // Adjacency lists and candidate sets are both sorted by
                    // id, and no branch outgrows either side.
                    let most: usize = candidates
                        .iter()
                        .map(|&v| g.out_degree(v).min(child_mat.len()))
                        .sum();
                    self.targets.reserve(most);
                    self.bounds.reserve(candidates.len());
                    for &v in candidates {
                        ctl.check_sampled()?;
                        stats.index_lookups += g.out_degree(v) as u64;
                        intersect_sorted_into(g.children(v), child_mat, &mut self.targets);
                        self.bounds.push(self.targets.len());
                    }
                } else {
                    let found = gtpq_graph::sweep::branches(
                        g.condensation(),
                        candidates,
                        child_mat,
                        || ctl.check_sampled(),
                    )?;
                    stats.index_lookups += found.edges_visited;
                    self.ad_passes.push(AdPass {
                        child,
                        region: found.region,
                        edges_visited: found.edges_visited,
                        row_words: found.row_words,
                        branch_entries: found.targets.len(),
                    });
                    self.targets.extend_from_slice(&found.targets);
                    self.bounds
                        .extend(found.bounds[1..].iter().map(|end| base + end));
                }
                self.edge_count = self.targets.len();
            }
        }
        debug_assert!(
            self.bounds
                .windows(2)
                .all(|b| self.targets[b[0]..b[1]].windows(2).all(|w| w[0] < w[1])),
            "branches must be strictly ascending"
        );
        Ok(())
    }

    /// The branches of the candidate at position `pos` of `mat(u)`: one
    /// slice of matched data nodes per shrunk child of `u`, in the order of
    /// [`ShrunkPrime::children_of`].
    ///
    /// Every branch is a subsequence of the child's (sorted) candidate set,
    /// so it is strictly ascending — the enumerator walks branches as sorted
    /// runs without re-sorting them.
    #[cfg(test)]
    fn branches_of(&self, u: QueryNodeId, pos: usize) -> impl Iterator<Item = &[NodeId]> {
        (0..self.arity[u.index()]).map(move |child| &self.targets[self.branch(u, pos, child)])
    }

    /// Index range (into [`targets`](Self::targets)) of one branch: the
    /// matches of the `child`-th shrunk child under the candidate at
    /// position `pos` of `mat(u)`.
    pub(crate) fn branch(&self, u: QueryNodeId, pos: usize, child: usize) -> Range<usize> {
        let candidates = self.candidates[u.index()];
        debug_assert!(child < self.arity[u.index()] && pos < candidates);
        let b = self.first_branch[u.index()] + child * candidates + pos;
        self.bounds[b]..self.bounds[b + 1]
    }

    /// The flat edge-target buffer every branch range indexes.
    pub(crate) fn targets(&self) -> &[NodeId] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::{example_graph, example_query};
    use gtpq_reach::ThreeHop;

    use crate::options::GteaOptions;
    use crate::plan::{execute_candidates, Planner};
    use crate::prime::{PrimeSubtree, ShrunkPrime};
    use crate::prune::{prune_downward, prune_upward};

    use super::*;

    #[test]
    fn matching_graph_of_the_running_example() {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let mut stats = EvalStats::default();
        let plan = Planner::new(&g).plan(&q);
        let mut mat = execute_candidates(&q, &g, &plan, &mut stats, &ExecCtl::unbounded()).unwrap();
        prune_downward(
            &q,
            &g,
            &index,
            &options,
            plan.normalized_prune_down(&q),
            &mut mat,
            &mut stats,
            &ExecCtl::unbounded(),
        )
        .unwrap();
        let prime = PrimeSubtree::new(&q);
        prune_upward(
            &q,
            &g,
            &index,
            &options,
            &prime,
            0,
            &mut mat,
            &mut stats,
            &ExecCtl::unbounded(),
        )
        .unwrap();
        let shrunk = ShrunkPrime::new(&q, &prime, &mat, false);
        let graph = MatchingGraph::build(
            &q,
            &g,
            &index,
            &shrunk,
            &mat,
            &mut stats,
            &ExecCtl::unbounded(),
        )
        .unwrap();
        // Root candidate v1 has two branch lists (u2 and u3 children).
        assert_eq!(mat[0], vec![NodeId(0)]);
        let root_branches: Vec<&[NodeId]> = graph.branches_of(QueryNodeId(0), 0).collect();
        assert_eq!(
            root_branches,
            [&[NodeId(2), NodeId(7)][..], &[NodeId(2)][..]]
        );
        // u3's candidate v3 points to the three d1 nodes for u4.
        assert_eq!(mat[2], vec![NodeId(2)]);
        let u3_branches: Vec<&[NodeId]> = graph.branches_of(QueryNodeId(2), 0).collect();
        assert_eq!(u3_branches, [&[NodeId(10), NodeId(11), NodeId(13)][..]]);
        assert!(graph.node_count >= 6);
        assert!(graph.edge_count >= 6);
        assert!(stats.intermediate_size > 0);
    }
}
