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
//! The point probe [`reaches`](Reachability::reaches) is where the index
//! earns its keep; set questions go to one condensation
//! [`sweep`](gtpq_graph::sweep::sweep), as on every other backend.  The
//! paper's contour merging (Procedure 2, `MergePredLists` /
//! `MergeSuccLists`) is not implemented: no evaluation path asks one node
//! set about another through hop lists.
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
use gtpq_graph::sweep::Direction;
use gtpq_graph::{Condensation, DataGraph, NodeId};

use crate::chain::{ChainDecomposition, ChainId, ChainPos};
use crate::sweep;
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
}

impl Reachability for ThreeHop {
    fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        let cu = self.cond.component_of(u);
        let cv = self.cond.component_of(v);
        if cu == cv {
            return u != v || self.cond.is_cyclic(cu);
        }
        self.comp_reaches(cu, cv)
    }

    /// Total number of hop-list entries.
    fn index_entries(&self) -> usize {
        self.lout.iter().map(Vec::len).sum::<usize>() + self.lin.iter().map(Vec::len).sum::<usize>()
    }

    fn name(&self) -> &'static str {
        crate::BackendKind::ThreeHop.as_str()
    }

    fn lookup_count(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    fn reset_lookups(&self) {
        self.lookups.store(0, Ordering::Relaxed);
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
    fn lookup_counter_counts_and_resets() {
        let g = build(&[(0, 1), (1, 2), (3, 1), (2, 4)], 5);
        let idx = ThreeHop::new(&g);
        idx.reset_lookups();
        // 0 and 3 both feed 1, so one of them sits on another chain than 4
        // and its probe reads that node's `Lout` list.
        assert!(idx.reaches(NodeId(0), NodeId(4)) && idx.reaches(NodeId(3), NodeId(4)));
        assert!(idx.lookup_count() > 0);
        idx.reset_lookups();
        assert_eq!(idx.lookup_count(), 0);
        // A probe inside one component reads no hop list.
        assert!(!idx.reaches(NodeId(2), NodeId(2)));
        assert_eq!(idx.lookup_count(), 0);
    }

    #[test]
    fn index_entries_reported() {
        let g = build(&[(0, 1), (2, 1), (1, 3), (3, 4), (2, 4)], 5);
        let idx = ThreeHop::new(&g);
        // Two chains joined at node 1: one `Lout` entry into it, one `Lin`
        // entry out of the other chain; every other hop is derivable.
        assert_eq!(idx.index_entries(), 2);
        assert_eq!(idx.name(), "3hop");
    }
}
