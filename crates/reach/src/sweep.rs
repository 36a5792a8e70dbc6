//! Set-at-a-time reachability: one traversal of the SCC condensation from a
//! whole node set.
//!
//! The prune rounds of GTEA (§4.2, Procedures 6–7) ask, for every candidate
//! `v` of one query node, whether `v` reaches *some* candidate of a child
//! (resp. is reached by some candidate of the parent).  Answering that pair
//! by pair costs `|mat(u)| · |mat(child)|` index probes; [`sweep`] answers it
//! for all `v` at once by walking the condensation DAG backwards (resp.
//! forwards) from the components of the set and marking what it meets, in
//! O(components / 64 + edges actually reached).  Afterwards a membership test
//! is `component_of(v)` plus one bit test.
//!
//! This is *the* implementation of
//! [`Reachability::pred_probe`](crate::Reachability::pred_probe) and
//! [`Reachability::succ_probe`](crate::Reachability::succ_probe) on every
//! backend of [`BackendKind::ALL`](crate::BackendKind::ALL): all three own
//! the condensation they were built on, and none of their index structures
//! beats a linear walk once the question is about a whole set.

use std::sync::atomic::{AtomicU64, Ordering};

use gtpq_graph::condensation::CompId;
use gtpq_graph::{Condensation, NodeId};

use crate::Probe;

/// Dense bitset over the component ids of one condensation.
#[derive(Clone, Debug, Default)]
pub struct ComponentSet {
    words: Vec<u64>,
}

impl ComponentSet {
    /// An empty set over `components` component ids.
    pub(crate) fn new(components: usize) -> Self {
        Self {
            words: vec![0; components.div_ceil(64)],
        }
    }

    /// Adds component index `i`; returns whether it was newly added.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    pub(crate) fn union_with(&mut self, other: &ComponentSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// Whether component `c` is in the set.
    #[inline]
    pub fn contains(&self, c: CompId) -> bool {
        self.get(c.index())
    }

    /// Number of components in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no component.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Which way [`sweep`] walks the condensation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Against the edges: marks the components that *reach* the set.
    Ancestors,
    /// Along the edges: marks the components the set *reaches*.
    Descendants,
}

/// The outcome of one [`sweep`].
#[derive(Clone, Debug)]
pub struct Swept {
    /// Every component with a non-empty path to (resp. from) a set member.
    pub reached: ComponentSet,
    /// Condensation edges the traversal looked at — its whole cost beyond
    /// the bitset allocation, and what a backend adds to its
    /// [`lookup_count`](crate::Reachability::lookup_count) per sweep.
    pub edges_visited: u64,
}

/// Marks every component that reaches (`Ancestors`) or is reached from
/// (`Descendants`) some member of `nodes` by a *non-empty* path.
///
/// That is every strict ancestor (resp. descendant) component of a member's
/// component, plus a member's own component when it is cyclic — the paper's
/// AD relationship: a node reaches itself only on a cycle, and two distinct
/// nodes of one component always lie on one.  An acyclic member component is
/// marked only when the walk arrives at it from another member.  Duplicate
/// members and an empty set are fine.
pub fn sweep(cond: &Condensation, nodes: &[NodeId], direction: Direction) -> Swept {
    let n = cond.component_count();
    let mut reached = ComponentSet::new(n);
    // Seeds and reached components, each expanded exactly once.
    let mut queued = ComponentSet::new(n);
    let mut stack: Vec<CompId> = Vec::new();
    for &v in nodes {
        let c = cond.component_of(v);
        if queued.insert(c.index()) {
            stack.push(c);
            if cond.is_cyclic(c) {
                reached.insert(c.index());
            }
        }
    }
    let mut edges_visited = 0u64;
    while let Some(c) = stack.pop() {
        let next = match direction {
            Direction::Ancestors => cond.predecessors(c),
            Direction::Descendants => cond.successors(c),
        };
        edges_visited += next.len() as u64;
        for &d in next {
            reached.insert(d.index());
            if queued.insert(d.index()) {
                stack.push(d);
            }
        }
    }
    Swept {
        reached,
        edges_visited,
    }
}

/// Sweeps from `nodes` and wraps the result as a prepared membership probe,
/// charging the edges visited to the backend's lookup counter — once per
/// prepared probe, never per test.
pub(crate) fn probe<'s>(
    cond: &'s Condensation,
    lookups: &AtomicU64,
    nodes: &[NodeId],
    direction: Direction,
) -> Probe<'s> {
    let swept = sweep(cond, nodes, direction);
    lookups.fetch_add(swept.edges_visited, Ordering::Relaxed);
    let reached = swept.reached;
    Box::new(move |v| reached.contains(cond.component_of(v)))
}

#[cfg(test)]
mod tests {
    use gtpq_graph::traversal::{ancestors, descendants};
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

    /// Every backend built on `g`, with the condensation they share.
    fn backends(g: &DataGraph) -> (Condensation, Vec<SharedIndex>) {
        let cond = Condensation::new(g);
        let indexes = BackendKind::ALL
            .iter()
            .map(|kind| kind.build_shared_with(g, &cond))
            .collect();
        (cond, indexes)
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
                // The sweep's edges are charged once, when the probe is
                // prepared...
                assert_eq!(
                    prepared - before,
                    sweep(cond, set, direction).edges_visited,
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
    fn set_probes_match_bfs_on_random_cyclic_graphs() {
        for seed in 0..6u64 {
            let g = random_cyclic_graph(seed, 36, 48);
            let built = backends(&g);
            assert!(!built.0.input_was_dag(), "seed {seed}");
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
        let cond = Condensation::new(&g);
        let marked = |set: &[u32], direction| -> Vec<u32> {
            let set: Vec<NodeId> = set.iter().map(|&v| NodeId(v)).collect();
            let swept = sweep(&cond, &set, direction);
            g.nodes()
                .filter(|&v| swept.reached.contains(cond.component_of(v)))
                .map(|v| v.0)
                .collect()
        };
        // A target inside a cyclic SCC: every member reaches it, itself too.
        assert_eq!(marked(&[1], Direction::Ancestors), [0, 1, 2]);
        // A singleton acyclic target does not reach itself.
        assert_eq!(marked(&[3], Direction::Ancestors), [0, 1, 2]);
        assert_eq!(marked(&[3], Direction::Descendants), [4]);
        // An acyclic member is marked when another member lies beyond it.
        assert_eq!(marked(&[3, 4], Direction::Ancestors), [0, 1, 2, 3]);
        // Duplicates change nothing; neither does an unconnected member.
        assert_eq!(marked(&[3, 3, 5, 3], Direction::Ancestors), [0, 1, 2]);
        // The empty set reaches nothing and visits nothing.
        let empty = sweep(&cond, &[], Direction::Descendants);
        assert!(empty.reached.is_empty());
        assert_eq!(empty.reached.len(), 0);
        assert_eq!(empty.edges_visited, 0);
        assert_probes_match_bfs(&g, &backends(&g), &[]);
    }

    #[test]
    fn a_sweep_visits_each_reached_edge_once() {
        // Diamond 0 -> {1,2} -> 3 -> 4: from {3,4} backwards the walk looks
        // at 3's two in-edges, 4's one, and one each for 1 and 2.
        let g = build(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let cond = Condensation::new(&g);
        let swept = sweep(&cond, &[NodeId(4), NodeId(3)], Direction::Ancestors);
        assert_eq!(swept.edges_visited, 5);
        assert_eq!(swept.reached.len(), 4);
    }
}
