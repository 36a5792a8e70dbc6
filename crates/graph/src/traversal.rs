//! Graph traversal helpers: BFS/DFS reachability, descendant/ancestor sets.
//!
//! These are the straightforward, index-free operations.  They double as the
//! correctness oracle for the reachability indexes in `gtpq-reach` and are
//! used directly by the semantic (naive) query evaluator.

use std::collections::VecDeque;

use crate::graph::{DataGraph, NodeId};

/// Returns all proper descendants of `start` (nodes reachable by a non-empty
/// path), in BFS discovery order.
pub fn descendants(g: &DataGraph, start: NodeId) -> Vec<NodeId> {
    neighbourhood_closure(g, start, Direction::Forward)
}

/// Returns all proper ancestors of `start` (nodes that reach `start` by a
/// non-empty path), in BFS discovery order.
pub fn ancestors(g: &DataGraph, start: NodeId) -> Vec<NodeId> {
    neighbourhood_closure(g, start, Direction::Backward)
}

/// Whether there is a non-empty directed path from `u` to `v`.
///
/// This is the AD (ancestor-descendant) relationship of the paper.  `u == v`
/// is reachable only when `u` lies on a cycle.
pub fn is_reachable(g: &DataGraph, u: NodeId, v: NodeId) -> bool {
    let mut visited = vec![false; g.node_count()];
    let mut queue: VecDeque<NodeId> = g.children(u).iter().copied().collect();
    for &c in g.children(u) {
        visited[c.index()] = true;
    }
    while let Some(x) = queue.pop_front() {
        if x == v {
            return true;
        }
        for &c in g.children(x) {
            if !visited[c.index()] {
                visited[c.index()] = true;
                queue.push_back(c);
            }
        }
    }
    false
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Backward,
}

fn neighbourhood_closure(g: &DataGraph, start: NodeId, dir: Direction) -> Vec<NodeId> {
    let mut visited = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    let next = |v: NodeId| -> &[NodeId] {
        match dir {
            Direction::Forward => g.children(v),
            Direction::Backward => g.parents(v),
        }
    };
    for &n in next(start) {
        if !visited[n.index()] {
            visited[n.index()] = true;
            queue.push_back(n);
        }
    }
    while let Some(x) = queue.pop_front() {
        order.push(x);
        for &n in next(x) {
            if !visited[n.index()] {
                visited[n.index()] = true;
                queue.push_back(n);
            }
        }
    }
    order
}

/// A topological order of the graph's nodes, if the graph is acyclic.
///
/// Returns `None` when the graph contains a cycle.
pub fn topological_order(g: &DataGraph) -> Option<Vec<NodeId>> {
    let n = g.node_count();
    let mut indegree: Vec<usize> = (0..n).map(|i| g.in_degree(NodeId(i as u32))).collect();
    let mut queue: VecDeque<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|v| indegree[v.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &c in g.children(v) {
            indegree[c.index()] -= 1;
            if indegree[c.index()] == 0 {
                queue.push_back(c);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// Depth of each node when the graph is interpreted as a forest rooted at the
/// in-degree-zero nodes; nodes reachable through multiple paths get the depth
/// of their first discovery (BFS).  Used only for dataset statistics.
pub fn bfs_depths(g: &DataGraph) -> Vec<Option<usize>> {
    let mut depth = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    for v in g.nodes() {
        if g.in_degree(v) == 0 {
            depth[v.index()] = Some(0);
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = depth[v.index()].unwrap_or(0);
        for &c in g.children(v) {
            if depth[c.index()].is_none() {
                depth[c.index()] = Some(d + 1);
                queue.push_back(c);
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    use super::*;

    fn diamond() -> DataGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[0], v[2]);
        b.add_edge(v[1], v[3]);
        b.add_edge(v[2], v[3]);
        b.build()
    }

    #[test]
    fn descendants_and_ancestors() {
        let g = diamond();
        let mut d = descendants(&g, NodeId(0));
        d.sort_unstable();
        assert_eq!(d, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let mut a = ancestors(&g, NodeId(3));
        a.sort_unstable();
        assert_eq!(a, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn reachability_requires_nonempty_path() {
        let g = diamond();
        assert!(is_reachable(&g, NodeId(0), NodeId(3)));
        assert!(!is_reachable(&g, NodeId(3), NodeId(0)));
        // No self loop: a node does not reach itself.
        assert!(!is_reachable(&g, NodeId(0), NodeId(0)));
    }

    #[test]
    fn cycle_makes_node_reach_itself() {
        let mut b = GraphBuilder::new();
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c);
        b.add_edge(c, a);
        let g = b.build();
        assert!(is_reachable(&g, a, a));
        assert!(topological_order(&g).is_none());
    }

    #[test]
    fn topological_order_on_dag() {
        let g = diamond();
        let order = topological_order(&g).unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|&v| v == NodeId(i)).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn depths() {
        let g = diamond();
        let d = bfs_depths(&g);
        assert_eq!(d[0], Some(0));
        assert_eq!(d[3], Some(2));
    }
}
