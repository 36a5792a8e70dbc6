//! The set-at-a-time kernels of [`gtpq_graph::sweep`] as the set probes of
//! every backend.
//!
//! [`sweep`](gtpq_graph::sweep::sweep) is *the* implementation of [`Reachability::pred_probe`] and
//! [`Reachability::succ_probe`] on every backend of
//! [`BackendKind::ALL`](crate::BackendKind::ALL): both own the condensation
//! they were built on, and neither's index structures beat a linear walk
//! once the question is about a whole set.  The kernels live in
//! `gtpq-graph`, beside the condensation they walk.
//!
//! The condensation is itself a [`Reachability`]: the engine probes it
//! when the caller hands it no index.  Its set probes are the same sweeps,
//! and its point probe [`reaches`](Reachability::reaches) is one forward
//! sweep from `u` — correct, and as slow as that sounds, which only the
//! pairwise ablation arm ever pays.

use std::sync::atomic::{AtomicU64, Ordering};

use gtpq_graph::sweep::{sweep, Direction};
use gtpq_graph::{Condensation, NodeId};

use crate::{Probe, Reachability};

/// Sweeps from `nodes` and wraps the result as a prepared membership probe,
/// charging the edges visited to the backend's lookup counter, if it has
/// one — once per prepared probe, never per test.
pub(crate) fn probe<'s>(
    cond: &'s Condensation,
    lookups: Option<&AtomicU64>,
    nodes: &[NodeId],
    direction: Direction,
) -> Probe<'s> {
    let swept = sweep(cond, nodes, direction);
    if let Some(lookups) = lookups {
        lookups.fetch_add(swept.edges_visited, Ordering::Relaxed);
    }
    let reached = swept.reached;
    Box::new(move |v| reached.contains(cond.component_of(v)))
}

/// Reachability read straight off the condensation, with no index: what
/// the engine probes unless its caller passes one.  Nothing is counted —
/// the prune rounds and the matching graph add their sweeps' edges to
/// `#index` themselves.
impl Reachability for Condensation {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let swept = sweep(self, &[u], Direction::Descendants);
        swept.reached.contains(self.component_of(v))
    }

    fn index_entries(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "condensation"
    }

    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> Probe<'s> {
        probe(self, None, targets, Direction::Ancestors)
    }

    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> Probe<'s> {
        probe(self, None, sources, Direction::Descendants)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gtpq_graph::traversal::{ancestors, descendants, is_reachable};
    use gtpq_graph::{DataGraph, GraphBuilder};

    use super::*;
    use crate::{BackendKind, SharedIndex};

    /// splitmix64: a seeded generator small enough to inline.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn build(n: u32, edges: &[(u32, u32)]) -> DataGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..n).map(|_| b.add_node()).collect();
        for &(x, y) in edges {
            b.add_edge(v[x as usize], v[y as usize]);
        }
        b.build()
    }

    /// Random edges in both directions plus the odd self-loop: cycles of
    /// every size next to acyclic stretches.
    fn random_cyclic_graph(seed: u64, n: u32, m: usize) -> DataGraph {
        let mut state = seed;
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let x = (next(&mut state) % n as u64) as u32;
                let y = (next(&mut state) % n as u64) as u32;
                (x, y)
            })
            .collect();
        build(n, &edges)
    }

    /// Every backend built on `g`, then the bare condensation they share.
    fn backends(g: &DataGraph) -> (Condensation, Vec<SharedIndex>) {
        let cond = Condensation::new(g);
        let mut indexes: Vec<SharedIndex> = BackendKind::ALL
            .iter()
            .map(|kind| kind.build_shared_with(g, &cond))
            .collect();
        indexes.push(Arc::new(cond.clone()));
        (cond, indexes)
    }

    /// Checks `reaches` of every backend against BFS on every pair of `g`.
    fn assert_point_probes_match_bfs(g: &DataGraph, indexes: &[SharedIndex]) {
        for u in g.nodes() {
            for v in g.nodes() {
                let expected = is_reachable(g, u, v);
                for index in indexes {
                    assert_eq!(
                        index.reaches(u, v),
                        expected,
                        "{}: {u} -> {v}",
                        index.name()
                    );
                }
            }
        }
    }

    /// Checks both set probes of every backend over `set` against BFS, for
    /// every node of `g`, and the lookup accounting around them.
    fn assert_probes_match_bfs(
        g: &DataGraph,
        (cond, indexes): &(Condensation, Vec<SharedIndex>),
        set: &[NodeId],
    ) {
        let mut reaches_set = vec![false; g.node_count()];
        let mut reached_from_set = vec![false; g.node_count()];
        for &t in set {
            for a in ancestors(g, t) {
                reaches_set[a.index()] = true;
            }
            for d in descendants(g, t) {
                reached_from_set[d.index()] = true;
            }
        }
        for index in indexes {
            for (direction, expected) in [
                (Direction::Ancestors, &reaches_set),
                (Direction::Descendants, &reached_from_set),
            ] {
                let before = index.lookup_count();
                let probe = match direction {
                    Direction::Ancestors => index.pred_probe(set),
                    Direction::Descendants => index.succ_probe(set),
                };
                let prepared = index.lookup_count();
                // An index charges the sweep's edges once, when the probe is
                // prepared (the bare condensation counts nothing)...
                let charged = match index.name() {
                    "condensation" => 0,
                    _ => sweep(cond, set, direction).edges_visited,
                };
                assert_eq!(
                    prepared - before,
                    charged,
                    "{} {direction:?} {set:?}",
                    index.name()
                );
                for v in g.nodes() {
                    assert_eq!(
                        probe(v),
                        expected[v.index()],
                        "{} {direction:?} {set:?} at {v}",
                        index.name()
                    );
                }
                // ...and a bit test counts nothing.
                assert_eq!(index.lookup_count(), prepared);
            }
        }
    }

    #[test]
    fn point_and_set_probes_match_bfs_on_random_cyclic_graphs() {
        for seed in 0..6u64 {
            let g = random_cyclic_graph(seed, 36, 48);
            let built = backends(&g);
            assert!(!built.0.input_was_dag(), "seed {seed}");
            assert_point_probes_match_bfs(&g, &built.1);
            // Every singleton: a target inside a cyclic SCC is reached by
            // all its members, itself included; an acyclic one is not.
            for t in g.nodes() {
                assert_probes_match_bfs(&g, &built, &[t]);
            }
            // Random sets, with duplicates by construction.
            let mut state = seed ^ 0xabcd;
            for size in [0usize, 2, 5, 12] {
                let set: Vec<NodeId> = (0..size)
                    .map(|_| NodeId((next(&mut state) % 36) as u32))
                    .chain(std::iter::repeat_n(NodeId(7), size.min(2)))
                    .collect();
                assert_probes_match_bfs(&g, &built, &set);
            }
        }
    }

    #[test]
    fn non_empty_path_rule_on_named_cases() {
        // {0,1,2} is a cycle, 2 -> 3 -> 4 an acyclic tail, 5 is isolated.
        let g = build(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let built = backends(&g);
        // The set probes follow the kernels' non-empty-path rule, also on
        // the empty set...
        assert_probes_match_bfs(&g, &built, &[]);
        for t in g.nodes() {
            assert_probes_match_bfs(&g, &built, &[t]);
        }
        // ...and the point probes follow it too, the condensation's as well.
        assert_point_probes_match_bfs(&g, &built.1);
        let cond: &dyn Reachability = &built.0;
        let reaches = |u: u32, v: u32| cond.reaches(NodeId(u), NodeId(v));
        // A cycle member reaches itself and the rest of its cycle...
        assert!(reaches(1, 1) && reaches(2, 0) && reaches(0, 4));
        // ...an acyclic node does not reach itself, nor anything upstream.
        assert!(!reaches(3, 3) && !reaches(4, 3) && !reaches(3, 0));
        // An isolated node reaches nothing and nothing reaches it.
        assert!(!reaches(5, 5) && !reaches(0, 5) && !reaches(5, 0));
    }
}
