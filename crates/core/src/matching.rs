//! The maximal matching graph (§4.3).
//!
//! Instead of materializing intermediate matches as tuples, GTEA groups the
//! surviving candidates by query node and connects a pair of data nodes by an
//! edge whenever the corresponding query nodes are connected in the (shrunk)
//! prime subtree and the data nodes satisfy the edge's relationship.  Each
//! data node is stored at most once per query node and each relationship by a
//! single edge, so the representation is at most quadratic even when the
//! number of matches is exponential.

use std::cell::Cell;
use std::ops::Range;
use std::time::Instant;

use gtpq_graph::{intersect_sorted, DataGraph, NodeId};
use gtpq_query::{EdgeKind, Gtpq, QueryNodeId};
use gtpq_reach::Reachability;

use crate::exec::{ExecCtl, Interrupt};
use crate::morsel;
use crate::prime::ShrunkPrime;
use crate::stats::EvalStats;

/// The maximal matching graph of a shrunk prime subtree.
///
/// Edges are stored flat: a *branch* is the sorted list of data nodes one
/// `(query node, candidate)` pair points to for one shrunk child, and all
/// branches live back to back in one `targets` buffer delimited by
/// `bounds`, in (query node, candidate position, child) order — so the
/// enumerator addresses a branch by a plain index range.
#[derive(Clone, Debug, Default)]
pub struct MatchingGraph {
    /// Per query node: the branch id of its first candidate's first child
    /// (meaningful only for shrunk nodes that have shrunk children).
    first_branch: Vec<usize>,
    /// Per query node: its number of shrunk children.
    arity: Vec<usize>,
    /// Branch `b` is `targets[bounds[b]..bounds[b + 1]]`.
    bounds: Vec<usize>,
    targets: Vec<NodeId>,
    /// Number of data-node occurrences in the graph.
    pub node_count: usize,
    /// Number of edges in the graph.
    pub edge_count: usize,
}

impl MatchingGraph {
    /// Builds the matching graph for the shrunk prime subtree.
    ///
    /// `ctl` is polled once per `(query node, candidate)` pair; deadline
    /// expiry or cancellation aborts with an [`Interrupt`].
    /// `stats.matching_graph_time` (and the lookup / intermediate-size
    /// rollups, over the partially built graph) are recorded either way.
    #[allow(clippy::too_many_arguments)] // the evaluation pipeline state is explicit
    pub fn build<R: Reachability + ?Sized>(
        q: &Gtpq,
        g: &DataGraph,
        index: &R,
        shrunk: &ShrunkPrime,
        mat: &[Vec<NodeId>],
        stats: &mut EvalStats,
        ctl: &ExecCtl,
    ) -> Result<Self, Interrupt> {
        let start = Instant::now();
        let lookups_before = index.lookup_count();
        let mut graph = MatchingGraph {
            first_branch: vec![0; q.size()],
            arity: vec![0; q.size()],
            bounds: vec![0],
            ..MatchingGraph::default()
        };
        let result = graph.fill(q, g, index, shrunk, mat, stats, ctl);
        stats.index_lookups += index.lookup_count().saturating_sub(lookups_before);
        stats.intermediate_size += 2 * (graph.node_count + graph.edge_count) as u64;
        stats.matching_graph_time += start.elapsed();
        result.map(|()| graph)
    }

    #[allow(clippy::too_many_arguments)] // mirrors the public entry point
    fn fill<R: Reachability + ?Sized>(
        &mut self,
        q: &Gtpq,
        g: &DataGraph,
        index: &R,
        shrunk: &ShrunkPrime,
        mat: &[Vec<NodeId>],
        stats: &mut EvalStats,
        ctl: &ExecCtl,
    ) -> Result<(), Interrupt> {
        let graph = self;
        for &u in &shrunk.nodes {
            graph.node_count += mat[u.index()].len();
            let children = shrunk.children_of(u);
            if children.is_empty() {
                continue;
            }
            graph.first_branch[u.index()] = graph.bounds.len() - 1;
            graph.arity[u.index()] = children.len();
            // The per-candidate branch lists are independent of each other,
            // so the candidate domain splits into morsels; outputs come back
            // in input order and fold into the graph exactly as the serial
            // loop would.  PC adjacency lookups ride the per-worker side
            // counter; reachability-probe counts are picked up by the
            // `lookup_count` delta in [`MatchingGraph::build`].
            let candidates = &mat[u.index()];
            let per_candidate = |&v: &NodeId, lookups: &Cell<u64>| -> Vec<Vec<NodeId>> {
                children
                    .iter()
                    .map(|&child| {
                        let child_mat = &mat[child.index()];
                        match q.incoming_edge(child) {
                            // Adjacency lists and candidate sets are both
                            // sorted by id.
                            Some(EdgeKind::Child) => {
                                lookups.set(lookups.get() + g.out_degree(v) as u64);
                                intersect_sorted(g.children(v), child_mat)
                            }
                            _ => {
                                let probe = index.source_probe(v);
                                child_mat.iter().copied().filter(|&t| probe(t)).collect()
                            }
                        }
                    })
                    .collect()
            };
            let ranges = morsel::morsel_ranges(candidates.len(), ctl.threads());
            let (all_lists, pc_lookups) = if ctl.threads() > 1 && ranges.len() > 1 {
                let (all_lists, round) =
                    morsel::parallel_map(candidates, &ranges, ctl, per_candidate)?;
                morsel::fold_round(stats, &round);
                (all_lists, round.lookups)
            } else {
                let counter = Cell::new(0u64);
                let mut all_lists = Vec::with_capacity(candidates.len());
                for v in candidates {
                    ctl.check_sampled()?;
                    all_lists.push(per_candidate(v, &counter));
                }
                (all_lists, counter.get())
            };
            stats.index_lookups += pc_lookups;
            for branch in all_lists.iter().flatten() {
                debug_assert!(
                    branch.windows(2).all(|w| w[0] < w[1]),
                    "branches must be strictly ascending"
                );
                graph.targets.extend_from_slice(branch);
                graph.bounds.push(graph.targets.len());
            }
            graph.edge_count = graph.targets.len();
        }
        Ok(())
    }

    /// The branches of the candidate at position `pos` of `mat(u)`: one
    /// slice of matched data nodes per shrunk child of `u`, in the order of
    /// [`ShrunkPrime::children_of`].
    ///
    /// Every branch is a subsequence of the child's (sorted) candidate set,
    /// so it is strictly ascending — the enumerator walks branches as sorted
    /// runs without re-sorting them.
    pub fn branches_of(&self, u: QueryNodeId, pos: usize) -> impl Iterator<Item = &[NodeId]> {
        (0..self.arity[u.index()]).map(move |child| &self.targets[self.branch(u, pos, child)])
    }

    /// Index range (into [`targets`](Self::targets)) of one branch: the
    /// matches of the `child`-th shrunk child under the candidate at
    /// position `pos` of `mat(u)`.
    pub(crate) fn branch(&self, u: QueryNodeId, pos: usize, child: usize) -> Range<usize> {
        let arity = self.arity[u.index()];
        debug_assert!(child < arity);
        let b = self.first_branch[u.index()] + pos * arity + child;
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
    use crate::plan::PruneStep;
    use crate::prime::{PrimeSubtree, ShrunkPrime};
    use crate::prune::{initial_candidates, prune_downward, prune_upward};

    use super::*;

    #[test]
    fn matching_graph_of_the_running_example() {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let mut stats = EvalStats::default();
        let mut mat = initial_candidates(&q, &g, &mut stats);
        prune_downward(
            &q,
            &g,
            &index,
            &options,
            &PruneStep::bottom_up(&q),
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
