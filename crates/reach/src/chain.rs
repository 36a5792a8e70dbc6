//! Chain decomposition (chain cover) of the SCC condensation.
//!
//! A *chain* is a sequence of components `c_1, c_2, ...` such that every
//! component reaches all later components on its chain.  3-hop (§4.2.1) uses
//! a chain cover as its backbone: reachability *within* a chain is answered
//! purely by comparing sequence numbers, and only the cross-chain information
//! is stored in the `Lin`/`Lout` hop lists.
//!
//! The decomposition here is the greedy path-cover heuristic: components are
//! visited in topological order and appended to a chain whose current tail is
//! a direct predecessor, preferring the chain whose tail has the fewest
//! remaining successors (a cheap proxy for the minimum path cover the 3-hop
//! paper computes with min-flow).  The result is a valid chain cover; a
//! smaller cover only improves constants, not correctness.

use gtpq_graph::condensation::CompId;
use gtpq_graph::Condensation;

/// Identifier of a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainId(pub u32);

impl ChainId {
    /// The chain id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Position of a component on its chain: `(chain id, sequence number)`.
///
/// Sequence numbers start at zero and increase along the chain; for two
/// components on the same chain the smaller sequence number reaches the
/// larger one (`v ≤c v'` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainPos {
    /// Chain containing the component.
    pub chain: ChainId,
    /// Sequence number (`sid`) on that chain.
    pub(crate) sid: u32,
}

/// A chain cover of a condensation DAG.
#[derive(Clone, Debug)]
pub struct ChainDecomposition {
    /// Components of each chain, in increasing sequence-number order.
    chains: Vec<Vec<CompId>>,
    /// Position of each component.
    pos: Vec<ChainPos>,
}

impl ChainDecomposition {
    /// Computes a chain cover of an existing condensation.
    pub(crate) fn from_condensation(cond: &Condensation) -> Self {
        let n = cond.component_count();
        let mut chains: Vec<Vec<CompId>> = Vec::new();
        // Chain whose tail is this component (if the component is a tail).
        let mut tail_chain: Vec<Option<ChainId>> = vec![None; n];
        let mut pos: Vec<ChainPos> = vec![
            ChainPos {
                chain: ChainId(0),
                sid: 0
            };
            n
        ];

        for &c in cond.topological_order() {
            // Pick a predecessor that is currently a chain tail.
            let mut best: Option<(ChainId, usize)> = None;
            for &p in cond.predecessors(c) {
                if let Some(chain) = tail_chain[p.index()] {
                    let score = cond.successors(p).len();
                    if best.is_none_or(|(_, s)| score < s) {
                        best = Some((chain, score));
                    }
                }
            }
            let chain = match best {
                Some((chain, _)) => {
                    // Extend the chosen chain; its old tail stops being a tail.
                    let tail = *chains[chain.index()].last().expect("chains are non-empty");
                    tail_chain[tail.index()] = None;
                    chains[chain.index()].push(c);
                    chain
                }
                None => {
                    let chain = ChainId(chains.len() as u32);
                    chains.push(vec![c]);
                    chain
                }
            };
            tail_chain[c.index()] = Some(chain);
            pos[c.index()] = ChainPos {
                chain,
                sid: (chains[chain.index()].len() - 1) as u32,
            };
        }

        Self { chains, pos }
    }

    /// Number of chains in the cover.
    pub(crate) fn chain_count(&self) -> usize {
        self.chains.len()
    }

    /// The components of chain `c`, in sequence-number order.
    pub fn chain(&self, c: ChainId) -> &[CompId] {
        &self.chains[c.index()]
    }

    /// Position of component `c`.
    #[inline]
    pub(crate) fn position(&self, c: CompId) -> ChainPos {
        self.pos[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use gtpq_graph::traversal::is_reachable;
    use gtpq_graph::{GraphBuilder, NodeId};

    use super::*;

    #[test]
    fn chains_cover_all_components_exactly_once() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..8).map(|_| b.add_node()).collect();
        let edges = [
            (0, 1),
            (1, 2),
            (0, 3),
            (3, 4),
            (4, 2),
            (5, 6),
            (6, 7),
            (1, 7),
        ];
        for (x, y) in edges {
            b.add_edge(v[x], v[y]);
        }
        let g = b.build();
        let cond = Condensation::new(&g);
        let cd = ChainDecomposition::from_condensation(&cond);
        let total: usize = (0..cd.chain_count())
            .map(|i| cd.chain(ChainId(i as u32)).len())
            .sum();
        assert_eq!(total, cond.component_count());
        // Every component's recorded position matches the chain contents.
        for comp in (0..total as u32).map(CompId) {
            let pos = cd.position(comp);
            assert_eq!(cd.chain(pos.chain)[pos.sid as usize], comp);
        }
    }

    #[test]
    fn chain_order_respects_reachability() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..10).map(|_| b.add_node()).collect();
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 4),
            (4, 5),
            (5, 3),
            (6, 7),
            (7, 8),
            (8, 9),
            (2, 8),
        ];
        for (x, y) in edges {
            b.add_edge(v[x], v[y]);
        }
        let g = b.build();
        let cond = Condensation::new(&g);
        let cd = ChainDecomposition::from_condensation(&cond);
        // Along every chain, earlier members reach all later members.
        let member = |c| g.nodes().find(|&v| cond.component_of(v) == c).unwrap();
        for ci in 0..cd.chain_count() {
            let chain = cd.chain(ChainId(ci as u32));
            for i in 0..chain.len() {
                for j in (i + 1)..chain.len() {
                    let ui = member(chain[i]);
                    let uj = member(chain[j]);
                    assert!(
                        is_reachable(&g, ui, uj),
                        "chain member {ui} must reach later member {uj}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_path_graph_is_one_chain() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..5).map(|_| b.add_node()).collect();
        for i in 0..4 {
            b.add_edge(v[i], v[i + 1]);
        }
        let cd = ChainDecomposition::from_condensation(&Condensation::new(&b.build()));
        assert_eq!(cd.chain_count(), 1);
        assert_eq!(cd.chain(ChainId(0)).len(), 5);
    }
}
