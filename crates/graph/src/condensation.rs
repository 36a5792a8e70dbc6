//! Strongly connected component condensation.
//!
//! Reachability indexes (3-hop, SSPI) and GTEA's set sweeps work on DAGs.  General
//! data graphs are first condensed: every SCC collapses to a single component
//! node, and reachability between original nodes is answered through the
//! component DAG.  Two distinct nodes of the same SCC always reach each other;
//! a node reaches itself iff its SCC contains a cycle (size > 1 or self-loop).
//!
//! The representation is *canonical*: components are numbered by their
//! smallest member node and the topological order is the deterministic Kahn
//! order (smallest ready component first).  Canonical form is what makes a
//! snapshot's stored condensation and [`Condensation::identity_dag`]
//! bit-identical to a from-scratch [`Condensation::new`] of the same graph —
//! the snapshot and mutation oracle tests compare them with `==`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::Csr;
use crate::graph::{DataGraph, NodeId};
use crate::run::IntRun;

/// Identifier of a strongly connected component in a [`Condensation`].
///
/// `repr(transparent)` over the raw `u32` so component runs can live directly
/// inside mapped snapshot sections (see `IntRun`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct CompId(pub u32);

impl CompId {
    /// The component id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The SCC condensation of a [`DataGraph`].
///
/// The condensation DAG is CSR-packed (flat offset plus target arrays, see
/// [`Csr`]); [`successors`](Self::successors) and
/// [`predecessors`](Self::predecessors) hand out borrowed slices that
/// reachability backends read directly during index construction — no
/// per-component heap lists, nothing to copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Condensation {
    /// Component of each original node.
    pub(crate) comp_of: IntRun<CompId>,
    /// Whether the component contains a cycle (size > 1 or a self-loop),
    /// one byte per component (`0` / `1`) so the run can live in a mapped
    /// snapshot section.
    pub(crate) cyclic: IntRun<u8>,
    /// Sorted, de-duplicated adjacency between components (excluding self
    /// edges), CSR-packed.
    pub(crate) comp_out: Csr<CompId>,
    pub(crate) comp_in: Csr<CompId>,
    /// Components in topological order (sources first).
    pub(crate) topo: IntRun<CompId>,
}

impl Condensation {
    /// Computes the condensation of `g` using Tarjan's algorithm (iterative).
    pub fn new(g: &DataGraph) -> Self {
        let n = g.node_count();
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next_index = 0u32;
        let mut comp_of = vec![CompId(u32::MAX); n];
        // Per component in Tarjan numbering: its smallest member (the
        // canonical sort key) and whether it has more than one member.
        let mut smallest: Vec<NodeId> = Vec::new();
        let mut cyclic: Vec<u8> = Vec::new();

        // Iterative Tarjan: (node, child cursor) call frames.
        let mut call_stack: Vec<(NodeId, usize)> = Vec::new();
        for start in g.nodes() {
            if index[start.index()] != u32::MAX {
                continue;
            }
            call_stack.push((start, 0));
            index[start.index()] = next_index;
            lowlink[start.index()] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start.index()] = true;

            while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
                let children = g.children(v);
                if *cursor < children.len() {
                    let w = children[*cursor];
                    *cursor += 1;
                    if index[w.index()] == u32::MAX {
                        index[w.index()] = next_index;
                        lowlink[w.index()] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w.index()] = true;
                        call_stack.push((w, 0));
                    } else if on_stack[w.index()] {
                        lowlink[v.index()] = lowlink[v.index()].min(index[w.index()]);
                    }
                } else {
                    call_stack.pop();
                    if let Some(&(parent, _)) = call_stack.last() {
                        lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
                    }
                    if lowlink[v.index()] == index[v.index()] {
                        let comp = CompId(smallest.len() as u32);
                        let (mut least, mut size) = (v, 0);
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w.index()] = false;
                            comp_of[w.index()] = comp;
                            least = least.min(w);
                            size += 1;
                            if w == v {
                                break;
                            }
                        }
                        smallest.push(least);
                        cyclic.push(u8::from(size > 1));
                    }
                }
            }
        }

        // Canonical renumbering: order components by their smallest member.
        // Tarjan numbering depends on traversal order; the canonical form
        // does not, which is what makes every producer's condensation of a
        // graph the same value.
        let c = smallest.len();
        let mut order: Vec<u32> = (0..c as u32).collect();
        order.sort_unstable_by_key(|&ci| smallest[ci as usize]);
        let mut renumber = vec![0u32; c];
        for (new, &old) in order.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        for slot in comp_of.iter_mut() {
            *slot = CompId(renumber[slot.index()]);
        }
        let mut cyclic: Vec<u8> = order.iter().map(|&old| cyclic[old as usize]).collect();

        let mut out_pairs: Vec<(u32, CompId)> = Vec::new();
        let mut in_pairs: Vec<(u32, CompId)> = Vec::new();
        for u in g.nodes() {
            let cu = comp_of[u.index()];
            for &v in g.children(u) {
                let cv = comp_of[v.index()];
                if cu == cv {
                    if u == v {
                        cyclic[cu.index()] = 1;
                    }
                } else {
                    out_pairs.push((cu.0, cv));
                    in_pairs.push((cv.0, cu));
                }
            }
        }
        // `from_pairs` sorts and de-duplicates, so parallel condensation
        // edges collapse here.
        let comp_out = Csr::from_pairs(c, out_pairs);
        let comp_in = Csr::from_pairs(c, in_pairs);
        let topo = kahn_topo(&comp_out, &comp_in);
        debug_assert_eq!(topo.len(), c, "condensation DAG contains a cycle");

        Self {
            comp_of: comp_of.into(),
            cyclic: cyclic.into(),
            comp_out,
            comp_in,
            topo: topo.into(),
        }
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.cyclic.len()
    }

    /// Number of condensation DAG edges.
    pub fn edge_count(&self) -> usize {
        self.comp_out.target_count()
    }

    /// The component containing node `v`.
    #[inline]
    pub fn component_of(&self, v: NodeId) -> CompId {
        self.comp_of[v.index()]
    }

    /// Whether component `c` contains a cycle.
    pub fn is_cyclic(&self, c: CompId) -> bool {
        self.cyclic[c.index()] != 0
    }

    /// Successor components of `c` in the condensation DAG (a borrowed CSR
    /// slice, sorted and de-duplicated).
    pub fn successors(&self, c: CompId) -> &[CompId] {
        self.comp_out.neighbors(c.index())
    }

    /// Predecessor components of `c` in the condensation DAG (a borrowed CSR
    /// slice, sorted and de-duplicated).
    pub fn predecessors(&self, c: CompId) -> &[CompId] {
        self.comp_in.neighbors(c.index())
    }

    /// Components in topological order (sources first).
    pub fn topological_order(&self) -> &[CompId] {
        &self.topo
    }

    /// Whether the original graph was already acyclic.
    pub fn input_was_dag(&self) -> bool {
        // Eight flags a comparison: on a mapped DAG this pass over one byte
        // per component is all that building a service costs.
        let mut words = self.cyclic.chunks_exact(8);
        words
            .by_ref()
            .all(|w| u64::from_ne_bytes(w.try_into().expect("chunks of eight")) == 0)
            && words.remainder().iter().all(|&c| c == 0)
    }

    /// Builds the condensation of a graph that is expected to be a DAG,
    /// straight from its adjacency — no [`DataGraph`] required, which is what
    /// lets streamed snapshot writers (see [`crate::snap`]) emit a
    /// condensation without ever materializing the graph.
    ///
    /// On a self-loop-free DAG every node is its own singleton component and
    /// canonical numbering makes `comp_of` the identity, so the result is
    /// bit-identical to [`Condensation::new`].  Self-loops are tolerated
    /// (they only mark the singleton cyclic, exactly as `new` would).  The
    /// acyclicity *claim is verified*, not trusted: the deterministic Kahn
    /// pass must consume every component, and `None` is returned when it
    /// cannot — the caller's cue to fall back to full Tarjan.
    pub fn identity_dag(fwd: &Csr<NodeId>, rev: &Csr<NodeId>) -> Option<Self> {
        let n = fwd.len();
        assert_eq!(rev.len(), n, "forward/reverse CSRs disagree on node count");
        let mut cyclic = vec![0u8; n];
        let mut out_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut out_targets: Vec<CompId> = Vec::with_capacity(fwd.target_count());
        out_offsets.push(0);
        for (v, cyc) in cyclic.iter_mut().enumerate() {
            for &t in fwd.neighbors(v) {
                if t.index() == v {
                    *cyc = 1;
                } else {
                    out_targets.push(CompId(t.0));
                }
            }
            out_offsets.push(out_targets.len() as u32);
        }
        let mut in_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut in_targets: Vec<CompId> = Vec::with_capacity(rev.target_count());
        in_offsets.push(0);
        for v in 0..n {
            for &t in rev.neighbors(v) {
                if t.index() != v {
                    in_targets.push(CompId(t.0));
                }
            }
            in_offsets.push(in_targets.len() as u32);
        }
        let comp_out = Csr::from_parts(out_offsets.into(), out_targets.into());
        let comp_in = Csr::from_parts(in_offsets.into(), in_targets.into());
        let topo = kahn_topo(&comp_out, &comp_in);
        if topo.len() != n {
            return None; // a cycle among distinct nodes: not a DAG
        }
        let comp_of: Vec<CompId> = (0..n).map(|v| CompId(v as u32)).collect();
        Some(Self {
            comp_of: comp_of.into(),
            cyclic: cyclic.into(),
            comp_out,
            comp_in,
            topo: topo.into(),
        })
    }

    /// The `(device, inode)` of the snapshot file any of the runs borrow,
    /// when this condensation is a mapped view (see [`crate::snap`]).
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.comp_of
            .backing_file_id()
            .or_else(|| self.cyclic.backing_file_id())
            .or_else(|| self.comp_out.backing_file_id())
            .or_else(|| self.comp_in.backing_file_id())
            .or_else(|| self.topo.backing_file_id())
    }
}

/// Deterministic Kahn topological order over the condensation DAG: among all
/// ready components the smallest id is emitted first.  [`Condensation::new`]
/// and [`Condensation::identity_dag`] both use this, so equal DAGs give equal
/// orders.
fn kahn_topo(comp_out: &Csr<CompId>, comp_in: &Csr<CompId>) -> Vec<CompId> {
    let c = comp_out.len();
    let mut indegree: Vec<u32> = (0..c).map(|v| comp_in.degree(v) as u32).collect();
    let mut ready: BinaryHeap<Reverse<u32>> = indegree
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(v, _)| Reverse(v as u32))
        .collect();
    let mut topo = Vec::with_capacity(c);
    while let Some(Reverse(v)) = ready.pop() {
        topo.push(CompId(v));
        for &w in comp_out.neighbors(v as usize) {
            // Only a count that is still positive can reach zero: the
            // CSRs handed to `identity_dag` may disagree with each other.
            let Some(left) = indegree[w.index()].checked_sub(1) else {
                continue;
            };
            indegree[w.index()] = left;
            if left == 0 {
                ready.push(Reverse(w.0));
            }
        }
    }
    // A short order means the DAG claim was wrong; `identity_dag` turns that
    // into `None`, `new` can never hit it.
    topo
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::traversal::is_reachable;

    use super::*;

    #[test]
    fn dag_condensation_is_identity_like() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        b.add_edge(v[0], v[3]);
        let g = b.build();
        let c = Condensation::new(&g);
        assert_eq!(c.component_count(), 4);
        assert!(c.input_was_dag());
        // Topological order respects edges.
        let order = c.topological_order();
        let pos = |comp: CompId| order.iter().position(|&x| x == comp).unwrap();
        assert!(pos(c.component_of(v[0])) < pos(c.component_of(v[1])));
        assert!(pos(c.component_of(v[1])) < pos(c.component_of(v[2])));
    }

    #[test]
    fn cycle_collapses_to_single_component() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..5).map(|_| b.add_node()).collect();
        // cycle 0 -> 1 -> 2 -> 0, plus 2 -> 3 -> 4
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        b.add_edge(v[2], v[0]);
        b.add_edge(v[2], v[3]);
        b.add_edge(v[3], v[4]);
        let g = b.build();
        let c = Condensation::new(&g);
        assert_eq!(c.component_count(), 3);
        let comp0 = c.component_of(v[0]);
        assert_eq!(comp0, c.component_of(v[1]));
        assert_eq!(comp0, c.component_of(v[2]));
        assert!(c.is_cyclic(comp0));
        assert!(!c.is_cyclic(c.component_of(v[3])));
        assert!(!c.input_was_dag());
    }

    #[test]
    fn input_was_dag_sees_a_flag_at_every_position() {
        let with_flags = |cyclic: Vec<u8>| {
            let n = cyclic.len();
            let ids: Vec<CompId> = (0..n as u32).map(CompId).collect();
            let no_edges = Csr::from_sorted_pairs(n, &[]);
            Condensation {
                comp_of: ids.clone().into(),
                cyclic: cyclic.into(),
                comp_out: no_edges.clone(),
                comp_in: no_edges,
                topo: ids.into(),
            }
        };
        for n in 0..=25 {
            assert!(with_flags(vec![0; n]).input_was_dag(), "{n} clear flags");
            for at in 0..n {
                let mut cyclic = vec![0; n];
                cyclic[at] = 1;
                assert!(!with_flags(cyclic).input_was_dag(), "flag {at} of {n}");
            }
        }
    }

    #[test]
    fn self_loop_marks_component_cyclic() {
        let mut b = GraphBuilder::new();
        let a = b.add_node();
        b.add_edge(a, a);
        let g = b.build();
        let c = Condensation::new(&g);
        assert_eq!(c.component_count(), 1);
        assert!(c.is_cyclic(c.component_of(a)));
        assert!(is_reachable(&g, a, a));
    }

    #[test]
    fn condensation_edges_are_deduplicated() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        // {0,1} cycle, {2,3} cycle, two parallel cross edges.
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[0]);
        b.add_edge(v[2], v[3]);
        b.add_edge(v[3], v[2]);
        b.add_edge(v[0], v[2]);
        b.add_edge(v[1], v[3]);
        let g = b.build();
        let c = Condensation::new(&g);
        assert_eq!(c.component_count(), 2);
        let c0 = c.component_of(v[0]);
        assert_eq!(c.successors(c0).len(), 1);
    }

    #[test]
    fn identity_dag_matches_tarjan_on_dags_and_rejects_cycles() {
        // Deterministic pseudo-random DAGs: edges only low -> high id.
        for seed in 0..12u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n = 2 + (next() % 20) as usize;
            let mut b = GraphBuilder::new();
            let v: Vec<NodeId> = (0..n).map(|_| b.add_node()).collect();
            for _ in 0..2 * n {
                let x = (next() % n as u64) as usize;
                let y = (next() % n as u64) as usize;
                if x < y {
                    b.add_edge(v[x], v[y]);
                } else if x == y {
                    b.add_edge(v[x], v[x]); // self-loops must be tolerated
                }
            }
            let g = b.build();
            let fast = Condensation::identity_dag(&g.fwd, &g.rev)
                .expect("low-to-high edges cannot close a cycle");
            assert_eq!(fast, Condensation::new(&g), "seed {seed}");
        }

        // A genuine cycle must be detected, not mis-encoded.
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        b.add_edge(v[2], v[0]);
        let g = b.build();
        assert!(Condensation::identity_dag(&g.fwd, &g.rev).is_none());
    }
}
