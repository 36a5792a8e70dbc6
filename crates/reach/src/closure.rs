//! Bitset transitive closure — the exact reachability oracle.
//!
//! Quadratic memory (one bit per component pair), so it is only used for
//! small/medium graphs, as a correctness oracle for the other indexes, and by
//! the naive semantic query evaluator in tests.

use std::sync::atomic::{AtomicU64, Ordering};

use gtpq_graph::condensation::CompId;
use gtpq_graph::{Condensation, DataGraph, NodeId};

use crate::sweep::{self, ComponentSet, Direction};
use crate::Reachability;

/// Exact transitive closure of a data graph, built on its SCC condensation.
pub struct TransitiveClosure {
    condensation: Condensation,
    /// `rows[c]` holds the set of components strictly reachable from `c`
    /// (excluding `c` itself unless `c` lies on a cycle through other comps —
    /// cyclicity of `c` itself is tracked by the condensation).
    rows: Vec<ComponentSet>,
    /// Condensation edges visited by set-probe sweeps since the last reset.
    /// Point probes are single bit tests and are not counted.
    swept_edges: AtomicU64,
}

impl TransitiveClosure {
    /// Builds the closure for `g`.
    pub fn new(g: &DataGraph) -> Self {
        Self::with_condensation(Condensation::clone(g.condensation()))
    }

    /// Builds the closure on an already-computed condensation of the target
    /// graph — the epoch-rotation path, which reuses the incrementally
    /// maintained condensation instead of re-running Tarjan.
    pub fn with_condensation(condensation: Condensation) -> Self {
        let n = condensation.component_count();
        let mut rows: Vec<ComponentSet> = (0..n).map(|_| ComponentSet::new(n)).collect();
        // Reverse topological order: children before parents.  The borrowed
        // condensation CSR slices are read directly; only `rows` is mutated.
        for &c in condensation.topological_order().iter().rev() {
            for &s in condensation.successors(c) {
                let (row_c, row_s) = Self::two_rows(&mut rows, c.index(), s.index());
                row_c.insert(s.index());
                row_c.union_with(row_s);
            }
        }
        Self {
            condensation,
            rows,
            swept_edges: AtomicU64::new(0),
        }
    }

    fn two_rows(
        rows: &mut [ComponentSet],
        a: usize,
        b: usize,
    ) -> (&mut ComponentSet, &ComponentSet) {
        assert_ne!(a, b);
        if a < b {
            let (left, right) = rows.split_at_mut(b);
            (&mut left[a], &right[0])
        } else {
            let (left, right) = rows.split_at_mut(a);
            (&mut right[0], &left[b])
        }
    }

    /// Whether component `a` reaches component `b` (strictly, through edges of
    /// the condensation DAG).
    pub fn comp_reaches(&self, a: CompId, b: CompId) -> bool {
        self.rows[a.index()].get(b.index())
    }

    /// The condensation the closure was built on.
    pub fn condensation(&self) -> &Condensation {
        &self.condensation
    }
}

impl Reachability for TransitiveClosure {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let cu = self.condensation.component_of(u);
        let cv = self.condensation.component_of(v);
        if cu == cv {
            return u != v || self.condensation.is_cyclic(cu);
        }
        self.comp_reaches(cu, cv)
    }

    fn index_entries(&self) -> usize {
        self.rows.iter().map(ComponentSet::len).sum()
    }

    fn name(&self) -> &'static str {
        crate::BackendKind::Closure.as_str()
    }

    fn lookup_count(&self) -> u64 {
        self.swept_edges.load(Ordering::Relaxed)
    }

    fn reset_lookups(&self) {
        self.swept_edges.store(0, Ordering::Relaxed);
    }

    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> crate::Probe<'s> {
        sweep::probe(
            &self.condensation,
            &self.swept_edges,
            targets,
            Direction::Ancestors,
        )
    }

    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> crate::Probe<'s> {
        sweep::probe(
            &self.condensation,
            &self.swept_edges,
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

    fn check_against_bfs(g: &DataGraph) {
        let tc = TransitiveClosure::new(g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    tc.reaches(u, v),
                    is_reachable(g, u, v),
                    "mismatch for {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn diamond_dag() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[0], v[2]);
        b.add_edge(v[1], v[3]);
        b.add_edge(v[2], v[3]);
        check_against_bfs(&b.build());
    }

    #[test]
    fn graph_with_cycles() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        b.add_edge(v[2], v[0]); // cycle {0,1,2}
        b.add_edge(v[2], v[3]);
        b.add_edge(v[3], v[4]);
        b.add_edge(v[5], v[5]); // isolated self loop
        check_against_bfs(&b.build());
    }

    #[test]
    fn disconnected_graph() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[2], v[3]);
        let g = b.build();
        let tc = TransitiveClosure::new(&g);
        assert!(tc.reaches(v[0], v[1]));
        assert!(!tc.reaches(v[0], v[3]));
        assert_eq!(tc.name(), "closure");
        assert_eq!(tc.index_entries(), 2);
    }
}
