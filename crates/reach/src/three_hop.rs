//! The 3-hop style reachability index (chain cover + hop lists).
//!
//! Following §4.2.1 of the paper, every component of the SCC condensation is
//! placed on a chain; reachability along a chain is a sequence-number
//! comparison, and cross-chain reachability is answered through per-node hop
//! lists:
//!
//! * `Lout(v)` — *entry* nodes: for some other chains, the smallest node on
//!   that chain reachable from `v`, stored only when it is not derivable from
//!   the next node up `v`'s own chain,
//! * `Lin(v)` — *exit* nodes: the largest node on another chain that reaches
//!   `v`, stored only when not derivable from the previous node down the chain.
//!
//! The *complete successor list* `X_v` (resp. *complete predecessor list*
//! `Y_v`) is recovered at query time by walking up (resp. down) `v`'s chain
//! through the `next`/`prev` tracing pointers and merging the hop lists.
//! The merged contours of Procedure 2 ([`ThreeHop::merge_pred_lists`] /
//! [`ThreeHop::merge_succ_lists`]) and Proposition 7
//! ([`ThreeHop::node_reaches_set`] / [`ThreeHop::set_reaches_node`]) are kept
//! as the paper's set-to-set library API; the prepared probes of
//! [`Reachability`] answer set questions with one condensation
//! [`sweep`] instead, like every other backend.
//!
//! Construction note: the original 3-hop paper compresses the hop lists
//! further with a densest-subgraph heuristic over the chain-to-chain
//! structure.  We use the chain-cover entry/exit formulation directly (the
//! same information, the same query procedure, the same interface); the
//! difference only affects the constant factor of the index size, which is
//! recorded under "Substitutions" in `docs/ARCHITECTURE.md`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gtpq_graph::condensation::CompId;
use gtpq_graph::{Condensation, DataGraph, NodeId};

use crate::chain::{ChainDecomposition, ChainId, ChainPos};
use crate::contour::{PredContour, SuccContour};
use crate::sweep::{self, Direction};
use crate::Reachability;

/// A hop-list entry: a position on some chain.
type Hop = ChainPos;

/// The 3-hop reachability index.
pub struct ThreeHop {
    cond: Condensation,
    chains: ChainDecomposition,
    /// Entry ("out") hop lists per component.
    lout: Vec<Vec<Hop>>,
    /// Exit ("in") hop lists per component.
    lin: Vec<Vec<Hop>>,
    /// Forward tracing pointer: next component up the chain with a non-empty `Lout`.
    next_ptr: Vec<Option<CompId>>,
    /// Backward tracing pointer: previous component down the chain with a non-empty `Lin`.
    prev_ptr: Vec<Option<CompId>>,
    /// Number of hop-list elements looked up since the last reset (Fig. 10
    /// "#index").  Atomic so a shared index can serve concurrent queries.
    lookups: AtomicU64,
}

impl ThreeHop {
    /// Builds the index for `g`.
    pub fn new(g: &DataGraph) -> Self {
        Self::with_condensation(Condensation::clone(g.condensation()))
    }

    /// Builds the index on an already-computed condensation of the target
    /// graph (the epoch-rotation path of the live-graph service).
    pub(crate) fn with_condensation(cond: Condensation) -> Self {
        let chains = ChainDecomposition::from_condensation(&cond);
        let n = cond.component_count();

        // Full entry/exit maps per component (chain -> extreme sid), computed
        // in (reverse) topological order; own-chain entries are omitted.
        let mut succ_full: Vec<HashMap<ChainId, u32>> = vec![HashMap::new(); n];
        let topo: &[CompId] = cond.topological_order();
        for &c in topo.iter().rev() {
            let my_chain = chains.position(c).chain;
            let mut map: HashMap<ChainId, u32> = HashMap::new();
            for &child in cond.successors(c) {
                let cpos = chains.position(child);
                if cpos.chain != my_chain {
                    merge_min(&mut map, cpos.chain, cpos.sid);
                }
                for (&chain, &sid) in &succ_full[child.index()] {
                    if chain != my_chain {
                        merge_min(&mut map, chain, sid);
                    }
                }
            }
            succ_full[c.index()] = map;
        }

        let mut pred_full: Vec<HashMap<ChainId, u32>> = vec![HashMap::new(); n];
        for &c in topo {
            let my_chain = chains.position(c).chain;
            let mut map: HashMap<ChainId, u32> = HashMap::new();
            for &parent in cond.predecessors(c) {
                let ppos = chains.position(parent);
                if ppos.chain != my_chain {
                    merge_max(&mut map, ppos.chain, ppos.sid);
                }
                for (&chain, &sid) in &pred_full[parent.index()] {
                    if chain != my_chain {
                        merge_max(&mut map, chain, sid);
                    }
                }
            }
            pred_full[c.index()] = map;
        }

        // Hop lists: keep only entries not derivable from the chain neighbour.
        let mut lout: Vec<Vec<Hop>> = vec![Vec::new(); n];
        let mut lin: Vec<Vec<Hop>> = vec![Vec::new(); n];
        for comp in 0..n {
            let c = CompId(comp as u32);
            let pos = chains.position(c);
            let chain_nodes = chains.chain(pos.chain);
            let next_on_chain = chain_nodes.get(pos.sid as usize + 1).copied();
            let prev_on_chain = if pos.sid > 0 {
                Some(chain_nodes[pos.sid as usize - 1])
            } else {
                None
            };
            for (&chain, &sid) in &succ_full[comp] {
                let derivable = next_on_chain
                    .map(|nx| succ_full[nx.index()].get(&chain).is_some_and(|&s| s <= sid))
                    .unwrap_or(false);
                if !derivable {
                    lout[comp].push(Hop { chain, sid });
                }
            }
            for (&chain, &sid) in &pred_full[comp] {
                let derivable = prev_on_chain
                    .map(|pv| pred_full[pv.index()].get(&chain).is_some_and(|&s| s >= sid))
                    .unwrap_or(false);
                if !derivable {
                    lin[comp].push(Hop { chain, sid });
                }
            }
            lout[comp].sort_unstable_by_key(|h| h.chain);
            lin[comp].sort_unstable_by_key(|h| h.chain);
        }

        // Tracing pointers.
        let mut next_ptr: Vec<Option<CompId>> = vec![None; n];
        let mut prev_ptr: Vec<Option<CompId>> = vec![None; n];
        for ci in 0..chains.chain_count() {
            let chain = chains.chain(ChainId(ci as u32));
            let mut next_with_lout: Option<CompId> = None;
            for &c in chain.iter().rev() {
                next_ptr[c.index()] = next_with_lout;
                if !lout[c.index()].is_empty() {
                    next_with_lout = Some(c);
                }
            }
            let mut prev_with_lin: Option<CompId> = None;
            for &c in chain.iter() {
                prev_ptr[c.index()] = prev_with_lin;
                if !lin[c.index()].is_empty() {
                    prev_with_lin = Some(c);
                }
            }
        }

        Self {
            cond,
            chains,
            lout,
            lin,
            next_ptr,
            prev_ptr,
            lookups: AtomicU64::new(0),
        }
    }

    /// The SCC condensation the index is built on.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// Component of a data node.
    #[inline]
    pub(crate) fn comp_of(&self, v: NodeId) -> CompId {
        self.cond.component_of(v)
    }

    /// Number of hop-list elements looked up since the last
    /// [`reset_lookups`](Self::reset_lookups).
    pub(crate) fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Resets the lookup counter.
    pub(crate) fn reset_lookups(&self) {
        self.lookups.store(0, Ordering::Relaxed);
    }

    fn count_lookup(&self, n: usize) {
        self.lookups.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// The complete successor entries `X_v` of a component, *excluding* the
    /// component itself: for each chain the smallest component strictly
    /// reachable from `comp`, restricted to chains other than its own.
    fn complete_succ_entries(&self, comp: CompId) -> HashMap<ChainId, u32> {
        let mut map = HashMap::new();
        let mut cursor = Some(comp);
        while let Some(c) = cursor {
            let list = &self.lout[c.index()];
            self.count_lookup(list.len());
            for hop in list {
                merge_min(&mut map, hop.chain, hop.sid);
            }
            cursor = self.next_ptr[c.index()];
        }
        map
    }

    /// The complete predecessor entries `Y_v` of a component, excluding itself.
    fn complete_pred_entries(&self, comp: CompId) -> HashMap<ChainId, u32> {
        let mut map = HashMap::new();
        let mut cursor = Some(comp);
        while let Some(c) = cursor {
            let list = &self.lin[c.index()];
            self.count_lookup(list.len());
            for hop in list {
                merge_max(&mut map, hop.chain, hop.sid);
            }
            cursor = self.prev_ptr[c.index()];
        }
        map
    }

    /// Whether component `a` strictly reaches component `b` (`a != b`).
    fn comp_reaches(&self, a: CompId, b: CompId) -> bool {
        let pa = self.chains.position(a);
        let pb = self.chains.position(b);
        if pa.chain == pb.chain {
            return pa.sid < pb.sid;
        }
        // Entry node of `a` on b's chain at or below b?
        let x = self.complete_succ_entries(a);
        if x.get(&pb.chain).is_some_and(|&sid| sid <= pb.sid) {
            return true;
        }
        // Exit node of `b` on a's chain at or above a?
        let y = self.complete_pred_entries(b);
        if y.get(&pa.chain).is_some_and(|&sid| sid >= pa.sid) {
            return true;
        }
        // General case: a common chain where an entry of `a` precedes an exit of `b`.
        for (&chain, &xs) in &x {
            if y.get(&chain).is_some_and(|&ys| xs <= ys) {
                return true;
            }
        }
        false
    }

    /// Merges the complete predecessor lists of `nodes` into a predecessor
    /// contour (Procedure 2, `MergePredLists`).
    ///
    /// Walks each member's chain downwards through the `prev` tracing
    /// pointers; a per-chain `visited` watermark guarantees that no `Lin`
    /// list is looked up twice even when members share chains.
    pub fn merge_pred_lists(&self, nodes: &[NodeId]) -> PredContour {
        let mut contour = PredContour::default();
        // Largest sid already walked-from, per chain.
        let mut visited: HashMap<ChainId, u32> = HashMap::new();
        // De-duplicate components (several data nodes can share one).
        let mut comps: Vec<CompId> = nodes.iter().map(|&v| self.comp_of(v)).collect();
        comps.sort_unstable();
        comps.dedup();
        for &comp in &comps {
            let pos = self.chains.position(comp);
            contour.record_member(pos);
            if self.cond.is_cyclic(comp) {
                contour.cyclic_members.insert(comp);
            }
            let floor = visited.get(&pos.chain).copied();
            if floor.is_some_and(|f| f >= pos.sid) {
                continue;
            }
            // Walk down the chain collecting Lin lists until the watermark.
            let mut cursor = Some(comp);
            while let Some(c) = cursor {
                let cpos = self.chains.position(c);
                if floor.is_some_and(|f| cpos.sid <= f) {
                    break;
                }
                let list = &self.lin[c.index()];
                self.count_lookup(list.len());
                for hop in list {
                    contour.record_hop(*hop);
                }
                cursor = self.prev_ptr[c.index()];
            }
            visited
                .entry(pos.chain)
                .and_modify(|f| *f = (*f).max(pos.sid))
                .or_insert(pos.sid);
        }
        contour
    }

    /// Merges the complete successor lists of `nodes` into a successor
    /// contour (`MergeSuccLists`).
    pub fn merge_succ_lists(&self, nodes: &[NodeId]) -> SuccContour {
        let mut contour = SuccContour::default();
        // Smallest sid already walked-from, per chain.
        let mut visited: HashMap<ChainId, u32> = HashMap::new();
        let mut comps: Vec<CompId> = nodes.iter().map(|&v| self.comp_of(v)).collect();
        comps.sort_unstable();
        comps.dedup();
        for &comp in &comps {
            let pos = self.chains.position(comp);
            contour.record_member(pos);
            if self.cond.is_cyclic(comp) {
                contour.cyclic_members.insert(comp);
            }
            let ceiling = visited.get(&pos.chain).copied();
            if ceiling.is_some_and(|c| c <= pos.sid) {
                continue;
            }
            let mut cursor = Some(comp);
            while let Some(c) = cursor {
                let cpos = self.chains.position(c);
                if ceiling.is_some_and(|ceil| cpos.sid >= ceil) {
                    break;
                }
                let list = &self.lout[c.index()];
                self.count_lookup(list.len());
                for hop in list {
                    contour.record_hop(*hop);
                }
                cursor = self.next_ptr[c.index()];
            }
            visited
                .entry(pos.chain)
                .and_modify(|c| *c = (*c).min(pos.sid))
                .or_insert(pos.sid);
        }
        contour
    }

    /// Proposition 7, first half: whether `v` reaches at least one node of the
    /// set summarized by `contour` through a non-empty path.
    pub fn node_reaches_set(&self, v: NodeId, contour: &PredContour) -> bool {
        let comp = self.comp_of(v);
        let pos = self.chains.position(comp);
        // A member strictly above v on its own chain.
        if contour.member(pos.chain).is_some_and(|m| m > pos.sid) {
            return true;
        }
        // An exit node at or above v on its own chain.
        if contour.hop(pos.chain).is_some_and(|h| h >= pos.sid) {
            return true;
        }
        // v lies on a cycle containing a member.
        if contour.has_cyclic_member(comp) {
            return true;
        }
        // Cross-chain: an entry of v that precedes a member or an exit node.
        let x = self.complete_succ_entries(comp);
        for (&chain, &sid) in &x {
            if contour.member(chain).is_some_and(|m| m >= sid) {
                return true;
            }
            if contour.hop(chain).is_some_and(|h| h >= sid) {
                return true;
            }
        }
        false
    }

    /// Proposition 7, second half: whether at least one node of the set
    /// summarized by `contour` reaches `v` through a non-empty path.
    pub fn set_reaches_node(&self, contour: &SuccContour, v: NodeId) -> bool {
        let comp = self.comp_of(v);
        let pos = self.chains.position(comp);
        if contour.member(pos.chain).is_some_and(|m| m < pos.sid) {
            return true;
        }
        if contour.hop(pos.chain).is_some_and(|h| h <= pos.sid) {
            return true;
        }
        if contour.has_cyclic_member(comp) {
            return true;
        }
        let y = self.complete_pred_entries(comp);
        for (&chain, &sid) in &y {
            if contour.member(chain).is_some_and(|m| m <= sid) {
                return true;
            }
            if contour.hop(chain).is_some_and(|h| h <= sid) {
                return true;
            }
        }
        false
    }

    /// Precomputed view of a source node, used when a caller needs to test
    /// reachability from one node to many targets (maximal matching graph
    /// construction): the complete successor entries are computed once.
    pub(crate) fn source_view(&self, u: NodeId) -> SourceView {
        let comp = self.comp_of(u);
        SourceView {
            comp,
            pos: self.chains.position(comp),
            cyclic: self.cond.is_cyclic(comp),
            entries: self.complete_succ_entries(comp),
        }
    }

    /// Whether the source of `view` reaches `v` through a non-empty path.
    pub(crate) fn view_reaches(&self, view: &SourceView, v: NodeId) -> bool {
        let comp = self.comp_of(v);
        if comp == view.comp {
            return view.cyclic || self.cond.members(comp).len() > 1;
        }
        let pos = self.chains.position(comp);
        if pos.chain == view.pos.chain {
            return view.pos.sid < pos.sid;
        }
        view.entries
            .get(&pos.chain)
            .is_some_and(|&sid| sid <= pos.sid)
    }

    /// Total number of hop-list entries (index size).
    pub(crate) fn hop_entries(&self) -> usize {
        self.lout.iter().map(Vec::len).sum::<usize>() + self.lin.iter().map(Vec::len).sum::<usize>()
    }
}

/// Precomputed complete-successor view of one source node.
pub(crate) struct SourceView {
    comp: CompId,
    pos: ChainPos,
    cyclic: bool,
    entries: HashMap<ChainId, u32>,
}

impl Reachability for ThreeHop {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let cu = self.comp_of(u);
        let cv = self.comp_of(v);
        if cu == cv {
            return u != v || self.cond.is_cyclic(cu);
        }
        self.comp_reaches(cu, cv)
    }

    fn index_entries(&self) -> usize {
        self.hop_entries()
    }

    fn name(&self) -> &'static str {
        crate::BackendKind::ThreeHop.as_str()
    }

    fn lookup_count(&self) -> u64 {
        ThreeHop::lookup_count(self)
    }

    fn reset_lookups(&self) {
        ThreeHop::reset_lookups(self)
    }

    fn pred_probe<'s>(&'s self, targets: &[NodeId]) -> crate::Probe<'s> {
        sweep::probe(
            &self.cond,
            Some(&self.lookups),
            targets,
            Direction::Ancestors,
        )
    }

    fn succ_probe<'s>(&'s self, sources: &[NodeId]) -> crate::Probe<'s> {
        sweep::probe(
            &self.cond,
            Some(&self.lookups),
            sources,
            Direction::Descendants,
        )
    }

    /// One complete-successor-entry computation shared by all targets.
    fn source_probe<'s>(&'s self, source: NodeId) -> crate::Probe<'s> {
        let view = self.source_view(source);
        Box::new(move |v| self.view_reaches(&view, v))
    }
}

fn merge_min(map: &mut HashMap<ChainId, u32>, chain: ChainId, sid: u32) {
    map.entry(chain)
        .and_modify(|s| *s = (*s).min(sid))
        .or_insert(sid);
}

fn merge_max(map: &mut HashMap<ChainId, u32>, chain: ChainId, sid: u32) {
    map.entry(chain)
        .and_modify(|s| *s = (*s).max(sid))
        .or_insert(sid);
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
        let idx = ThreeHop::new(g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    idx.reaches(u, v),
                    is_reachable(g, u, v),
                    "mismatch for {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn multi_chain_dag() {
        // Forces at least three chains and multi-hop cross-chain paths.
        let g = build(
            &[
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (0, 4),
                (4, 8),
                (3, 7),
                (2, 5),
            ],
            9,
        );
        assert_matches_oracle(&g);
    }

    #[test]
    fn paper_figure2_graph() {
        // The data graph of Fig. 2(a): 16 nodes v1..v16 -> ids 0..15.
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 6),
            (2, 7),
            (3, 7),
            (3, 4),
            (4, 5),
            (4, 8),
            (5, 8),
            (6, 10),
            (6, 9),
            (2, 10),
            (7, 10),
            (7, 11),
            (10, 13),
            (10, 12),
            (11, 12),
            (11, 14),
            (12, 15),
            (13, 14),
        ];
        let g = build(&edges, 16);
        assert_matches_oracle(&g);
    }

    #[test]
    fn cyclic_graph() {
        let g = build(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 3)], 6);
        assert_matches_oracle(&g);
    }

    #[test]
    fn contours_answer_set_reachability() {
        let g = build(&[(0, 1), (1, 2), (3, 4), (4, 2), (2, 5), (5, 6), (3, 6)], 7);
        let idx = ThreeHop::new(&g);
        let targets = vec![NodeId(5), NodeId(6)];
        let cp = idx.merge_pred_lists(&targets);
        for u in g.nodes() {
            let expected = targets.iter().any(|&t| is_reachable(&g, u, t));
            assert_eq!(idx.node_reaches_set(u, &cp), expected, "node {u}");
        }
        let sources = vec![NodeId(0), NodeId(3)];
        let cs = idx.merge_succ_lists(&sources);
        for v in g.nodes() {
            let expected = sources.iter().any(|&s| is_reachable(&g, s, v));
            assert_eq!(idx.set_reaches_node(&cs, v), expected, "node {v}");
        }
    }

    #[test]
    fn contour_membership_does_not_imply_reachability() {
        // 0 -> 1, 2 isolated. 2 is in the target set but nothing reaches it and
        // it reaches nothing.
        let g = build(&[(0, 1)], 3);
        let idx = ThreeHop::new(&g);
        let cp = idx.merge_pred_lists(&[NodeId(2)]);
        assert!(!idx.node_reaches_set(NodeId(2), &cp));
        assert!(!idx.node_reaches_set(NodeId(0), &cp));
        let cs = idx.merge_succ_lists(&[NodeId(2)]);
        assert!(!idx.set_reaches_node(&cs, NodeId(2)));
    }

    #[test]
    fn cyclic_member_is_reported_reachable_from_itself() {
        let g = build(&[(0, 1), (1, 0), (1, 2)], 3);
        let idx = ThreeHop::new(&g);
        let cp = idx.merge_pred_lists(&[NodeId(0)]);
        // 0 lies on a cycle, so it reaches the set {0}.
        assert!(idx.node_reaches_set(NodeId(0), &cp));
        let cs = idx.merge_succ_lists(&[NodeId(0)]);
        assert!(idx.set_reaches_node(&cs, NodeId(0)));
    }

    #[test]
    fn source_view_matches_pairwise_reaches() {
        let g = build(
            &[
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 2),
                (2, 5),
                (5, 6),
                (3, 6),
                (6, 3),
            ],
            8,
        );
        let idx = ThreeHop::new(&g);
        for u in g.nodes() {
            let view = idx.source_view(u);
            for v in g.nodes() {
                assert_eq!(idx.view_reaches(&view, v), idx.reaches(u, v), "{u} -> {v}");
            }
        }
    }

    #[test]
    fn lookup_counter_counts_and_resets() {
        let g = build(&[(0, 1), (1, 2), (3, 1), (2, 4)], 5);
        let idx = ThreeHop::new(&g);
        idx.reset_lookups();
        let _ = idx.reaches(NodeId(0), NodeId(4));
        let _ = idx.merge_pred_lists(&[NodeId(4), NodeId(2)]);
        // Counter may be zero for purely chain-local queries, so only check reset.
        idx.reset_lookups();
        assert_eq!(idx.lookup_count(), 0);
    }

    #[test]
    fn index_entries_reported() {
        let g = build(&[(0, 1), (2, 1), (1, 3), (3, 4), (2, 4)], 5);
        let idx = ThreeHop::new(&g);
        assert_eq!(idx.index_entries(), idx.hop_entries());
        assert_eq!(idx.name(), "3hop");
    }
}
