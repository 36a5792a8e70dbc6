//! SSPI-style reachability index (surrogate & surplus predecessor index).
//!
//! TwigStackD (Chen et al., VLDB 2005) uses SSPI: a spanning-tree cover of the
//! DAG labelled with intervals (the *surrogate* part) plus, for every node, a
//! list of *surplus* predecessors contributed by non-tree edges.  A node `u`
//! reaches `v` when the tree interval of `u` contains `v`, or when `u` reaches
//! a surplus predecessor recorded on `v` or on one of `v`'s tree ancestors.
//!
//! The index is tiny and fast on tree-like graphs (XMark with a few IDREF
//! edges) and degrades on dense, deep graphs (arXiv citations) because the
//! recursive surplus expansion revisits many predecessors — exactly the
//! behaviour the paper reports in §5.2.

use std::cell::RefCell;
use std::collections::VecDeque;

use gtpq_graph::condensation::CompId;
use gtpq_graph::{Condensation, DataGraph, NodeId};

use crate::sweep::{self, Direction};
use crate::Reachability;

/// Per-thread scratch of [`Sspi::comp_reaches`]: a visited marker per
/// component and the expansion stack, reused across calls so a probe that
/// misses the tree interval allocates nothing.  `visited[c] == stamp` marks
/// `c` as seen by the current call; bumping `stamp` clears all marks at once.
/// Thread-local rather than a field of the index, which is shared by
/// concurrent queries.
#[derive(Default)]
struct Scratch {
    visited: Vec<u32>,
    stamp: u32,
    stack: Vec<CompId>,
}

impl Scratch {
    /// Starts a fresh visited set over `components` component ids.
    fn begin(&mut self, components: usize) {
        if self.visited.len() < components {
            self.visited.resize(components, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: marks of 2³² calls ago would read as current.
            self.visited.fill(0);
            self.stamp = 1;
        }
        self.stack.clear();
    }

    /// Marks `c`; returns whether this call had not seen it yet.
    fn visit(&mut self, c: CompId) -> bool {
        let slot = &mut self.visited[c.index()];
        let fresh = *slot != self.stamp;
        *slot = self.stamp;
        fresh
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// SSPI index over the SCC condensation of a data graph.
pub struct Sspi {
    cond: Condensation,
    /// Spanning-forest parent of each component (tree cover).
    tree_parent: Vec<Option<CompId>>,
    /// Interval labels on the tree cover.
    start: Vec<u32>,
    end: Vec<u32>,
    /// Surplus predecessors: non-tree in-edges of each component.
    surplus_in: Vec<Vec<CompId>>,
    /// Number of surplus entries visited since the last reset (for I/O cost
    /// accounting in Fig. 10).  Atomic so a shared index can serve
    /// concurrent queries.
    visits: std::sync::atomic::AtomicU64,
}

impl Sspi {
    /// Builds the index for `g`.
    pub fn new(g: &DataGraph) -> Self {
        Self::with_condensation(Condensation::clone(g.condensation()))
    }

    /// Builds the index on an already-computed condensation of the target
    /// graph (the epoch-rotation path of the live-graph service).
    pub(crate) fn with_condensation(cond: Condensation) -> Self {
        let n = cond.component_count();

        // BFS spanning forest over the condensation, rooted at in-degree-0 comps.
        let mut tree_parent: Vec<Option<CompId>> = vec![None; n];
        let mut tree_children: Vec<Vec<CompId>> = vec![Vec::new(); n];
        let mut in_tree = vec![false; n];
        let mut queue: VecDeque<CompId> = VecDeque::new();
        let topo: &[CompId] = cond.topological_order();
        for &c in topo {
            if cond.predecessors(c).is_empty() {
                in_tree[c.index()] = true;
                queue.push_back(c);
            }
        }
        while let Some(c) = queue.pop_front() {
            for &s in cond.successors(c) {
                if !in_tree[s.index()] {
                    in_tree[s.index()] = true;
                    tree_parent[s.index()] = Some(c);
                    tree_children[c.index()].push(s);
                    queue.push_back(s);
                }
            }
        }
        // Any component not reached (only possible in exotic cases) becomes a root.
        for &c in topo {
            if !in_tree[c.index()] {
                in_tree[c.index()] = true;
                queue.push_back(c);
                while let Some(x) = queue.pop_front() {
                    for &s in cond.successors(x) {
                        if !in_tree[s.index()] {
                            in_tree[s.index()] = true;
                            tree_parent[s.index()] = Some(x);
                            tree_children[x.index()].push(s);
                            queue.push_back(s);
                        }
                    }
                }
            }
        }

        // Interval labels on the spanning forest.
        let mut start = vec![0u32; n];
        let mut end = vec![0u32; n];
        let mut counter = 0u32;
        for &root in topo {
            if tree_parent[root.index()].is_some() {
                continue;
            }
            let mut stack: Vec<(CompId, usize)> = vec![(root, 0)];
            start[root.index()] = counter;
            counter += 1;
            while let Some(&mut (c, ref mut cursor)) = stack.last_mut() {
                let children = &tree_children[c.index()];
                if *cursor < children.len() {
                    let child = children[*cursor];
                    *cursor += 1;
                    start[child.index()] = counter;
                    counter += 1;
                    stack.push((child, 0));
                } else {
                    end[c.index()] = counter;
                    counter += 1;
                    stack.pop();
                }
            }
        }

        // Surplus predecessors: in-edges that are not spanning-tree edges.
        let mut surplus_in: Vec<Vec<CompId>> = vec![Vec::new(); n];
        for &c in topo {
            for &p in cond.predecessors(c) {
                if tree_parent[c.index()] != Some(p) {
                    surplus_in[c.index()].push(p);
                }
            }
        }

        Self {
            cond,
            tree_parent,
            start,
            end,
            surplus_in,
            visits: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn tree_contains(&self, a: CompId, d: CompId) -> bool {
        self.start[a.index()] < self.start[d.index()] && self.end[d.index()] <= self.end[a.index()]
    }

    fn comp_reaches(&self, a: CompId, b: CompId) -> bool {
        if a == b {
            return false;
        }
        if self.tree_contains(a, b) {
            return true;
        }
        // Backward expansion of surplus predecessors of b and its tree ancestors.
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.begin(self.cond.component_count());
            scratch.visit(b);
            scratch.stack.push(b);
            while let Some(c) = scratch.stack.pop() {
                // Walk tree ancestors of c (if a tree-contains an ancestor of
                // c it tree-contains c, already handled; what matters are
                // the surplus predecessors hanging off the ancestor path).
                let mut cursor = Some(c);
                while let Some(x) = cursor {
                    for &p in &self.surplus_in[x.index()] {
                        self.visits
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if p == a || self.tree_contains(a, p) {
                            return true;
                        }
                        if scratch.visit(p) {
                            scratch.stack.push(p);
                        }
                    }
                    cursor = self.tree_parent[x.index()];
                }
            }
            false
        })
    }

    /// Number of surplus-predecessor entries visited since the last reset.
    pub fn visit_count(&self) -> u64 {
        self.visits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resets the visit counter.
    pub fn reset_visits(&self) {
        self.visits.store(0, std::sync::atomic::Ordering::Relaxed);
    }

    /// The SCC condensation the index is built on.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }
}

impl Reachability for Sspi {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let cu = self.cond.component_of(u);
        let cv = self.cond.component_of(v);
        if cu == cv {
            return u != v || self.cond.is_cyclic(cu);
        }
        self.comp_reaches(cu, cv)
    }

    fn index_entries(&self) -> usize {
        self.cond.component_count() * 2 + self.surplus_in.iter().map(Vec::len).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        crate::BackendKind::Sspi.as_str()
    }

    fn lookup_count(&self) -> u64 {
        self.visit_count()
    }

    fn reset_lookups(&self) {
        self.reset_visits()
    }

    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> crate::Probe<'s> {
        sweep::probe(
            &self.cond,
            Some(&self.visits),
            targets,
            Direction::Ancestors,
        )
    }

    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> crate::Probe<'s> {
        sweep::probe(
            &self.cond,
            Some(&self.visits),
            sources,
            Direction::Descendants,
        )
    }
}

#[cfg(test)]
mod tests {
    use gtpq_graph::traversal::is_reachable;
    use gtpq_graph::GraphBuilder;

    use super::*;

    fn build(edges: &[(u32, u32)], n: u32) -> DataGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..n).map(|_| b.add_node()).collect();
        for &(x, y) in edges {
            b.add_edge(v[x as usize], v[y as usize]);
        }
        b.build()
    }

    fn assert_matches_oracle(g: &DataGraph) {
        let idx = Sspi::new(g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(idx.reaches(u, v), is_reachable(g, u, v), "{u} -> {v}");
            }
        }
    }

    #[test]
    fn tree_plus_cross_edges() {
        let g = build(
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 5),
                (4, 5), // cross edge
                (3, 2), // cross edge
            ],
            6,
        );
        assert_matches_oracle(&g);
    }

    #[test]
    fn dense_dag() {
        let g = build(
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 5),
            ],
            6,
        );
        assert_matches_oracle(&g);
    }

    #[test]
    fn graph_with_cycles() {
        let g = build(&[(0, 1), (1, 2), (2, 1), (2, 3), (4, 0), (3, 4)], 5);
        // 3 -> 4 -> 0 -> 1 <-> 2 -> 3 forms a big cycle; everything reaches everything.
        assert_matches_oracle(&g);
    }

    #[test]
    fn visit_counter() {
        let g = build(&[(0, 1), (2, 1), (1, 3), (0, 3)], 4);
        let idx = Sspi::new(&g);
        idx.reset_visits();
        let _ = idx.reaches(NodeId(2), NodeId(3));
        assert!(idx.visit_count() <= 10);
        assert_eq!(idx.name(), "sspi");
        assert!(idx.index_entries() >= 8);
    }

    #[test]
    fn concurrent_probes_do_not_share_scratch() {
        // Dense enough that most probes miss the tree interval and expand
        // surplus predecessors through the visited scratch.
        let mut edges = Vec::new();
        for x in 0..24u32 {
            for step in [1, 3, 7] {
                if x + step < 24 {
                    edges.push((x, x + step));
                }
            }
        }
        edges.extend([(9, 8), (20, 17)]); // two cycles
        let g = build(&edges, 24);
        let idx = Sspi::new(&g);
        let expected: Vec<Vec<bool>> = g
            .nodes()
            .map(|u| g.nodes().map(|v| is_reachable(&g, u, v)).collect())
            .collect();
        // Both threads leave the barrier together and walk the pairs in
        // opposite orders, so their expansions overlap in time.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for reversed in [false, true] {
                let (g, idx, expected, barrier) = (&g, &idx, &expected, &barrier);
                scope.spawn(move || {
                    let mut pairs: Vec<(NodeId, NodeId)> = g
                        .nodes()
                        .flat_map(|u| g.nodes().map(move |v| (u, v)))
                        .collect();
                    if reversed {
                        pairs.reverse();
                    }
                    barrier.wait();
                    for _ in 0..4 {
                        for &(u, v) in &pairs {
                            assert_eq!(
                                idx.reaches(u, v),
                                expected[u.index()][v.index()],
                                "{u} -> {v}"
                            );
                        }
                    }
                });
            }
        });
    }
}
