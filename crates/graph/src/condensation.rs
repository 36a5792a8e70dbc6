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
//! order (smallest ready component first).  Canonical form is what makes the
//! incremental path (`Condensation::apply_insertions`) bit-identical to a
//! from-scratch [`Condensation::new`] of the mutated graph — the mutation
//! oracle tests compare the two with `==`.

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
/// Component membership and the condensation DAG are CSR-packed (flat offset
/// plus target arrays, see [`Csr`]); [`successors`](Self::successors),
/// [`predecessors`](Self::predecessors) and [`members`](Self::members) hand
/// out borrowed slices that reachability backends read directly during index
/// construction — no per-component heap lists, nothing to copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Condensation {
    /// Component of each original node.
    comp_of: IntRun<CompId>,
    /// Members of each component, CSR-packed, each run sorted.
    members: Csr<NodeId>,
    /// Whether the component contains a cycle (size > 1 or a self-loop),
    /// one byte per component (`0` / `1`) so the run can live in a mapped
    /// snapshot section.
    cyclic: IntRun<u8>,
    /// Sorted, de-duplicated adjacency between components (excluding self
    /// edges), CSR-packed.
    comp_out: Csr<CompId>,
    comp_in: Csr<CompId>,
    /// Components in topological order (sources first).
    topo: IntRun<CompId>,
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
        // Component `k` in Tarjan numbering is
        // `popped[starts[k] as usize..starts[k + 1] as usize]`, sorted: one
        // array for all of them, not one small allocation per component.
        let mut popped: Vec<NodeId> = Vec::with_capacity(n);
        let mut starts: Vec<u32> = vec![0];

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
                        let comp = CompId((starts.len() - 1) as u32);
                        let from = popped.len();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w.index()] = false;
                            comp_of[w.index()] = comp;
                            popped.push(w);
                            if w == v {
                                break;
                            }
                        }
                        popped[from..].sort_unstable();
                        starts.push(popped.len() as u32);
                    }
                }
            }
        }

        let c = starts.len() - 1;
        let group = |k: u32| &popped[starts[k as usize] as usize..starts[k as usize + 1] as usize];

        // Canonical renumbering: order components by their smallest member
        // (each run is sorted, so that is `group(k)[0]`).  Tarjan numbering
        // depends on traversal order; the canonical form does not, which is
        // what lets the incremental path reproduce it exactly.
        let mut order: Vec<u32> = (0..c as u32).collect();
        order.sort_unstable_by_key(|&ci| group(ci)[0]);
        let mut renumber = vec![0u32; c];
        for (new, &old) in order.iter().enumerate() {
            renumber[old as usize] = new as u32;
        }
        for slot in comp_of.iter_mut() {
            *slot = CompId(renumber[slot.index()]);
        }
        let members = Csr::from_runs(c, order.iter().map(|&old| group(old).iter().copied()));

        let mut cyclic = vec![0u8; c];
        let mut out_pairs: Vec<(u32, CompId)> = Vec::new();
        let mut in_pairs: Vec<(u32, CompId)> = Vec::new();
        for (ci, flag) in cyclic.iter_mut().enumerate() {
            if members.degree(ci) > 1 {
                *flag = 1;
            }
        }
        for u in g.nodes() {
            let cu = comp_of[u.index()];
            for &v in g.children(u) {
                let cv = comp_of[v.index()];
                if cu == cv {
                    if u == v || members.degree(cu.index()) > 1 {
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
            members,
            cyclic: cyclic.into(),
            comp_out,
            comp_in,
            topo: topo.into(),
        }
    }

    /// Incrementally extends the condensation after appending
    /// `new_node_count - old node count` fresh nodes and the de-duplicated
    /// edge set `added_edges` (sorted, and disjoint from the old edges).
    ///
    /// The fast path applies when every added inter-component edge goes
    /// *forward* in the extended topological order (existing components in
    /// their old order, new singleton components after them in node order):
    /// then no SCCs merge, component numbering is stable, and the structures
    /// are patched with linear merges.  Any edge that would go backward may
    /// close a cycle, so the method returns `None` and the caller falls back
    /// to a full re-condensation — as it does when the patched DAG does not
    /// order at all, which only a base mapped unverified from a damaged
    /// snapshot can cause.  The result is bit-identical to
    /// [`Condensation::new`] on the mutated graph.
    pub(crate) fn apply_insertions(
        &self,
        new_node_count: usize,
        added_edges: &[(NodeId, NodeId)],
    ) -> Option<Condensation> {
        let old_n = self.comp_of.len();
        let old_c = self.component_count();
        debug_assert!(new_node_count >= old_n);
        let added_nodes = new_node_count - old_n;
        let new_c = old_c + added_nodes;

        // Position of each existing component in the current topological
        // order; new singleton components sit after all of them, in node-id
        // order, so their position is simply their (new) component id.
        let mut pos = vec![0u32; old_c];
        for (i, &c) in self.topo.iter().enumerate() {
            pos[c.index()] = i as u32;
        }
        let comp_of_node = |v: NodeId| -> CompId {
            if v.index() < old_n {
                self.comp_of[v.index()]
            } else {
                CompId((old_c + (v.index() - old_n)) as u32)
            }
        };
        let ext_pos = |c: CompId| -> u32 {
            if c.index() < old_c {
                pos[c.index()]
            } else {
                c.0
            }
        };

        // `to_vec` is the copy-on-write step: when the base condensation is
        // a mapped snapshot view, the patched epoch gets fresh owned arrays.
        let mut cyclic = self.cyclic.to_vec();
        cyclic.resize(new_c, 0);
        let mut out_pairs: Vec<(u32, CompId)> = Vec::new();
        for &(u, v) in added_edges {
            let cu = comp_of_node(u);
            let cv = comp_of_node(v);
            if cu == cv {
                // Either a self-loop or an extra edge inside an existing
                // multi-member (hence already cyclic) component.
                if u == v {
                    cyclic[cu.index()] = 1;
                }
                continue;
            }
            if ext_pos(cu) >= ext_pos(cv) {
                return None; // may close a cycle: re-condense from scratch
            }
            if cu.index() < old_c && cv.index() < old_c && self.comp_out.contains(cu.index(), cv) {
                continue; // parallel condensation edge, already stored
            }
            out_pairs.push((cu.0, cv));
        }
        out_pairs.sort_unstable();
        out_pairs.dedup();
        let mut in_pairs: Vec<(u32, CompId)> = out_pairs
            .iter()
            .map(|&(cu, cv)| (cv.0, CompId(cu)))
            .collect();
        in_pairs.sort_unstable();

        let comp_out = self.comp_out.merge_additions(new_c, &out_pairs);
        let comp_in = self.comp_in.merge_additions(new_c, &in_pairs);
        let new_members: Vec<(u32, NodeId)> = (old_n..new_node_count)
            .map(|v| ((old_c + v - old_n) as u32, NodeId(v as u32)))
            .collect();
        let members = self.members.merge_additions(new_c, &new_members);
        let mut comp_of = self.comp_of.to_vec();
        comp_of.extend((old_c..new_c).map(|c| CompId(c as u32)));
        let topo = kahn_topo(&comp_out, &comp_in);
        if topo.len() != new_c {
            // The base's own DAG does not order: it was mapped unverified
            // from a damaged file.  Re-condense from the adjacency.
            return None;
        }

        Some(Self {
            comp_of: comp_of.into(),
            members,
            cyclic: cyclic.into(),
            comp_out,
            comp_in,
            topo: topo.into(),
        })
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.members.len()
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

    /// Original nodes belonging to component `c`.
    pub fn members(&self, c: CompId) -> &[NodeId] {
        self.members.neighbors(c.index())
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
        let members = Csr::from_runs(n, (0..n).map(|v| [NodeId(v as u32)]));
        let comp_of: Vec<CompId> = (0..n).map(|v| CompId(v as u32)).collect();
        Some(Self {
            comp_of: comp_of.into(),
            members,
            cyclic: cyclic.into(),
            comp_out,
            comp_in,
            topo: topo.into(),
        })
    }

    /// Assembles a condensation from already-validated snapshot runs (see
    /// [`crate::snap`]).  Invariants (canonical numbering, topo order) are the
    /// writer's responsibility; checksums guard the bytes in between.
    #[allow(clippy::too_many_arguments)]
    /// The `(device, inode)` of the snapshot file any of the runs borrow,
    /// when this condensation is a mapped view (see [`crate::snap`]).
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.comp_of
            .backing_file_id()
            .or_else(|| self.members.backing_file_id())
            .or_else(|| self.cyclic.backing_file_id())
            .or_else(|| self.comp_out.backing_file_id())
            .or_else(|| self.comp_in.backing_file_id())
            .or_else(|| self.topo.backing_file_id())
    }

    pub(crate) fn from_parts(
        comp_of: IntRun<CompId>,
        members: Csr<NodeId>,
        cyclic: IntRun<u8>,
        comp_out: Csr<CompId>,
        comp_in: Csr<CompId>,
        topo: IntRun<CompId>,
    ) -> Self {
        Self {
            comp_of,
            members,
            cyclic,
            comp_out,
            comp_in,
            topo,
        }
    }

    /// Raw parts for the snapshot writer: `(comp_of, members, cyclic,
    /// comp_out, comp_in, topo)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(
        &self,
    ) -> (
        &[CompId],
        &Csr<NodeId>,
        &[u8],
        &Csr<CompId>,
        &Csr<CompId>,
        &[CompId],
    ) {
        (
            &self.comp_of,
            &self.members,
            &self.cyclic,
            &self.comp_out,
            &self.comp_in,
            &self.topo,
        )
    }
}

/// Deterministic Kahn topological order over the condensation DAG: among all
/// ready components the smallest id is emitted first.  Both the full and the
/// incremental construction paths use this, so equal DAGs give equal orders.
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
            // Only a count that is still positive can reach zero: in- and
            // out-edges mapped from a damaged file may disagree.
            let Some(left) = indegree[w.index()].checked_sub(1) else {
                continue;
            };
            indegree[w.index()] = left;
            if left == 0 {
                ready.push(Reverse(w.0));
            }
        }
    }
    // A short order means the DAG claim was wrong; `identity_dag` and
    // `apply_insertions` turn that into `None`, `new` can never hit it.
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
            let no_edges = Csr::from_runs(n, (0..n).map(|_| [] as [CompId; 0]));
            Condensation::from_parts(
                ids.clone().into(),
                Csr::from_runs(n, (0..n as u32).map(|v| [NodeId(v)])),
                cyclic.into(),
                no_edges.clone(),
                no_edges,
                ids.into(),
            )
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
    fn a_base_whose_dag_does_not_order_is_recondensed_not_patched() {
        // 0 -> 1 -> 2, read back with the out-edges of component 1 lost to a
        // damaged offset: component 2 keeps an in-edge nothing discharges.
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..3).map(|_| b.add_node()).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        let good = Condensation::new(&b.build());
        let (comp_of, members, cyclic, comp_out, comp_in, topo) = good.raw_parts();
        let damaged = Condensation::from_parts(
            comp_of.to_vec().into(),
            members.clone(),
            cyclic.to_vec().into(),
            Csr::from_parts(
                vec![0u32, 1, 0, 2].into(),
                comp_out.targets_raw().to_vec().into(),
            ),
            comp_in.clone(),
            topo.to_vec().into(),
        );
        assert_eq!(damaged.successors(CompId(1)), &[]);
        assert!(good.apply_insertions(4, &[(v[2], NodeId(3))]).is_some());
        assert!(damaged.apply_insertions(4, &[(v[2], NodeId(3))]).is_none());
        // The other way round — an in-edge lost, its out-edge still there —
        // discharges a count that is already zero.
        let damaged = Condensation::from_parts(
            comp_of.to_vec().into(),
            members.clone(),
            cyclic.to_vec().into(),
            comp_out.clone(),
            Csr::from_parts(
                vec![0u32, 0, 0, 2].into(),
                comp_in.targets_raw().to_vec().into(),
            ),
            topo.to_vec().into(),
        );
        assert_eq!(damaged.predecessors(CompId(1)), &[]);
        assert!(damaged.apply_insertions(4, &[(v[2], NodeId(3))]).is_none());
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
