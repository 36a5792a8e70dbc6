//! Dense bitsets over [`NodeId`]s and sorted-slice set
//! operations — the per-query scratch structures of the pruning hot path.
//!
//! [`NodeBitSet`] replaces the per-child `HashSet<NodeId>` membership sets of
//! the seed: one bit per node, O(1) insert/contains with no hashing, and an
//! O(touched) [`clear`](NodeBitSet::clear) so one set (or a small pool) can be
//! reused across every step of a query without re-zeroing the whole universe.
//!
//! `intersect_sorted` and [`intersect_many`] intersect the sorted,
//! de-duplicated posting lists of the attribute inverted index with a
//! galloping (doubling) search, which is near-linear in the smallest list —
//! the shape worst-case-optimal join layouts exploit.

use crate::graph::NodeId;

/// A fixed-universe bitset over dense node ids with cheap clearing.
///
/// `clear` only zeroes the words that were actually touched since the last
/// clear, so a scratch set reused across many small candidate sets costs
/// O(Σ|set|), not O(queries · |V| / 64).
#[derive(Clone, Debug, Default)]
pub struct NodeBitSet {
    words: Vec<u64>,
    /// Indices of words with at least one bit set (may contain duplicates).
    touched: Vec<u32>,
}

impl NodeBitSet {
    /// Creates an empty set over a universe of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
        }
    }

    /// Inserts `v`, returning whether it was newly inserted.
    #[inline]
    pub(crate) fn insert(&mut self, v: NodeId) -> bool {
        let word = v.index() / 64;
        let bit = 1u64 << (v.index() % 64);
        let w = &mut self.words[word];
        if *w == 0 {
            self.touched.push(word as u32);
        }
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[v.index() / 64] & (1u64 << (v.index() % 64)) != 0
    }

    /// Inserts every node of `slice`.
    pub fn extend_from_slice(&mut self, slice: &[NodeId]) {
        for &v in slice {
            self.insert(v);
        }
    }

    /// Removes all elements in O(touched words).
    pub fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Galloping search: the index of the first element of `slice` that is
/// `>= needle`, starting the probe at `hint`.
#[inline]
fn gallop(slice: &[NodeId], needle: NodeId, hint: usize) -> usize {
    let mut lo = hint;
    if lo >= slice.len() || slice[lo] >= needle {
        return lo;
    }
    // Double the step until we overshoot, then binary-search the bracket.
    let mut step = 1;
    let mut hi = lo + 1;
    while hi < slice.len() && slice[hi] < needle {
        lo = hi;
        step *= 2;
        hi = (hi + step).min(slice.len());
    }
    lo + slice[lo..hi.min(slice.len())].partition_point(|&x| x < needle)
}

/// Intersects two sorted, de-duplicated slices with galloping search,
/// appending the result to `out`.
pub fn intersect_sorted_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    // Gallop through the longer list, driven by the shorter one.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut cursor = 0usize;
    for &v in small {
        cursor = gallop(large, v, cursor);
        if cursor >= large.len() {
            break;
        }
        if large[cursor] == v {
            out.push(v);
            cursor += 1;
        }
    }
}

/// Intersects two sorted, de-duplicated slices, returning the sorted result.
pub(crate) fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_sorted_into(a, b, &mut out);
    out
}

/// Intersects any number of sorted, de-duplicated slices, smallest first.
///
/// Returns all nodes when `lists` is empty (the empty conjunction).
pub fn intersect_many(lists: &[&[NodeId]], universe: usize) -> Vec<NodeId> {
    match lists {
        [] => (0..universe as u32).map(NodeId).collect(),
        [only] => only.to_vec(),
        _ => {
            let mut order: Vec<&[NodeId]> = lists.to_vec();
            order.sort_unstable_by_key(|l| l.len());
            let mut acc = intersect_sorted(order[0], order[1]);
            let mut scratch = Vec::new();
            for rest in &order[2..] {
                if acc.is_empty() {
                    break;
                }
                scratch.clear();
                intersect_sorted_into(&acc, rest, &mut scratch);
                std::mem::swap(&mut acc, &mut scratch);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn insert_contains_clear() {
        let mut s = NodeBitSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)));
        s.insert(NodeId(130));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(130)));
        assert!(!s.contains(NodeId(4)));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(NodeId(3)));
        // Reuse after clear works.
        s.extend_from_slice(&ids(&[1, 2, 199]));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn galloping_intersection_matches_naive() {
        let a = ids(&[1, 4, 5, 9, 100, 250, 251]);
        let b = ids(&[0, 4, 9, 10, 250, 400]);
        assert_eq!(intersect_sorted(&a, &b), ids(&[4, 9, 250]));
        assert_eq!(intersect_sorted(&b, &a), ids(&[4, 9, 250]));
        assert_eq!(intersect_sorted(&a, &[]), ids(&[]));
        assert_eq!(intersect_sorted(&[], &b), ids(&[]));
    }

    #[test]
    fn intersect_many_smallest_first() {
        let a = ids(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = ids(&[2, 4, 6, 8]);
        let c = ids(&[4, 8, 12]);
        assert_eq!(intersect_many(&[&a, &b, &c], 20), ids(&[4, 8]));
        assert_eq!(intersect_many(&[], 3), ids(&[0, 1, 2]));
        assert_eq!(intersect_many(&[&b], 20), b);
    }

    #[test]
    fn gallop_skips_long_runs() {
        let large: Vec<NodeId> = (0..10_000).map(NodeId).collect();
        let small = ids(&[0, 9_999]);
        assert_eq!(intersect_sorted(&small, &large), small);
    }
}
