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

use std::collections::VecDeque;

use gtpq_graph::condensation::CompId;
use gtpq_graph::{Condensation, DataGraph, NodeId};

use crate::Reachability;

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
        Self::with_condensation(Condensation::new(g))
    }

    /// Builds the index on an already-computed condensation of the target
    /// graph (the epoch-rotation path of the live-graph service).
    pub fn with_condensation(cond: Condensation) -> Self {
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
        let mut visited = vec![false; self.cond.component_count()];
        let mut stack = vec![b];
        visited[b.index()] = true;
        while let Some(c) = stack.pop() {
            // Walk tree ancestors of c (a could contain one of them... no: if a
            // tree-contains an ancestor of c it tree-contains c, already
            // handled; what matters are the surplus predecessors hanging off
            // the ancestor path).
            let mut cursor = Some(c);
            while let Some(x) = cursor {
                for &p in &self.surplus_in[x.index()] {
                    self.visits
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if p == a || self.tree_contains(a, p) {
                        return true;
                    }
                    if !visited[p.index()] {
                        visited[p.index()] = true;
                        stack.push(p);
                    }
                }
                cursor = self.tree_parent[x.index()];
            }
        }
        false
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
}
