//! Contours: merged predecessor/successor lists of a node set.
//!
//! `MergePredLists` (Procedure 2) merges the complete predecessor lists of a
//! set `S` of nodes into a single *predecessor contour* that keeps, per chain,
//! only the largest node known to reach some member of `S`.  Symmetrically
//! the *successor contour* keeps, per chain, the smallest node reachable from
//! some member.  Proposition 7 then answers "does `v` reach `S`?" /
//! "does `S` reach `v`?" against the contour instead of every member's list.
//!
//! Contours separate two kinds of per-chain information so that the
//! "non-empty path" semantics of the AD relationship is preserved even when
//! the probed node is itself a member of `S`:
//! * `hops` — positions contributed by `Lin`/`Lout` index entries (these nodes
//!   are known to reach / be reachable from a member), and
//! * `members` — the positions of the members of `S` themselves.

use std::collections::{HashMap, HashSet};

use gtpq_graph::condensation::CompId;

use crate::chain::{ChainId, ChainPos};

/// Predecessor contour of a node set `S` (merged `Lin` information).
///
/// For each chain, `hops` records the largest sequence number of a node known
/// to reach some member of `S`; `members` records the largest sequence number
/// of a member of `S` on that chain.
#[derive(Clone, Debug, Default)]
pub struct PredContour {
    pub(crate) hops: HashMap<ChainId, u32>,
    pub(crate) members: HashMap<ChainId, u32>,
    pub(crate) cyclic_members: HashSet<CompId>,
}

impl PredContour {
    /// Largest hop (exit-node) sequence number recorded for `chain`.
    pub(crate) fn hop(&self, chain: ChainId) -> Option<u32> {
        self.hops.get(&chain).copied()
    }

    /// Largest member sequence number recorded for `chain`.
    pub(crate) fn member(&self, chain: ChainId) -> Option<u32> {
        self.members.get(&chain).copied()
    }

    /// Whether the member set contains a component lying on a cycle equal to `comp`.
    pub(crate) fn has_cyclic_member(&self, comp: CompId) -> bool {
        self.cyclic_members.contains(&comp)
    }

    /// Total number of per-chain entries (the "contour size" reported in
    /// Example 8 of the paper).
    pub fn len(&self) -> usize {
        self.hops.len() + self.members.len()
    }

    /// Whether the contour is empty.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty() && self.members.is_empty()
    }

    pub(crate) fn record_hop(&mut self, pos: ChainPos) {
        let entry = self.hops.entry(pos.chain).or_insert(pos.sid);
        if *entry < pos.sid {
            *entry = pos.sid;
        }
    }

    pub(crate) fn record_member(&mut self, pos: ChainPos) {
        let entry = self.members.entry(pos.chain).or_insert(pos.sid);
        if *entry < pos.sid {
            *entry = pos.sid;
        }
    }
}

/// Successor contour of a node set `S` (merged `Lout` information).
///
/// For each chain, `hops` records the smallest sequence number of a node known
/// to be reachable from some member of `S`; `members` the smallest member.
#[derive(Clone, Debug, Default)]
pub struct SuccContour {
    pub(crate) hops: HashMap<ChainId, u32>,
    pub(crate) members: HashMap<ChainId, u32>,
    pub(crate) cyclic_members: HashSet<CompId>,
}

impl SuccContour {
    /// Smallest hop (entry-node) sequence number recorded for `chain`.
    pub(crate) fn hop(&self, chain: ChainId) -> Option<u32> {
        self.hops.get(&chain).copied()
    }

    /// Smallest member sequence number recorded for `chain`.
    pub(crate) fn member(&self, chain: ChainId) -> Option<u32> {
        self.members.get(&chain).copied()
    }

    /// Whether the member set contains a component lying on a cycle equal to `comp`.
    pub(crate) fn has_cyclic_member(&self, comp: CompId) -> bool {
        self.cyclic_members.contains(&comp)
    }

    /// Total number of per-chain entries.
    pub fn len(&self) -> usize {
        self.hops.len() + self.members.len()
    }

    /// Whether the contour is empty.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty() && self.members.is_empty()
    }

    pub(crate) fn record_hop(&mut self, pos: ChainPos) {
        let entry = self.hops.entry(pos.chain).or_insert(pos.sid);
        if *entry > pos.sid {
            *entry = pos.sid;
        }
    }

    pub(crate) fn record_member(&mut self, pos: ChainPos) {
        let entry = self.members.entry(pos.chain).or_insert(pos.sid);
        if *entry > pos.sid {
            *entry = pos.sid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_contour_keeps_maximum() {
        let mut c = PredContour::default();
        c.record_hop(ChainPos {
            chain: ChainId(0),
            sid: 3,
        });
        c.record_hop(ChainPos {
            chain: ChainId(0),
            sid: 5,
        });
        c.record_hop(ChainPos {
            chain: ChainId(0),
            sid: 1,
        });
        c.record_member(ChainPos {
            chain: ChainId(1),
            sid: 2,
        });
        assert_eq!(c.hop(ChainId(0)), Some(5));
        assert_eq!(c.member(ChainId(1)), Some(2));
        assert_eq!(c.hop(ChainId(1)), None);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn succ_contour_keeps_minimum() {
        let mut c = SuccContour::default();
        c.record_hop(ChainPos {
            chain: ChainId(2),
            sid: 7,
        });
        c.record_hop(ChainPos {
            chain: ChainId(2),
            sid: 4,
        });
        c.record_member(ChainPos {
            chain: ChainId(2),
            sid: 9,
        });
        assert_eq!(c.hop(ChainId(2)), Some(4));
        assert_eq!(c.member(ChainId(2)), Some(9));
        assert!(!c.has_cyclic_member(CompId(0)));
    }

    #[test]
    fn empty_contours() {
        assert!(PredContour::default().is_empty());
        assert!(SuccContour::default().is_empty());
    }
}
