//! Flat compressed-sparse-row adjacency.
//!
//! One `u32` offset array plus one flat target array replace the seed's
//! `Vec<Vec<NodeId>>`: the neighbourhood of node `v` is the contiguous slice
//! `targets[offsets[v] .. offsets[v + 1]]`, sorted by id.  Scanning a
//! neighbourhood touches one cache line stream instead of chasing a per-node
//! heap pointer, and the whole structure is two allocations regardless of the
//! node count.

use serde::{Deserialize, Serialize};

use crate::run::{merge_run, window, IntRun, RunElem};

/// CSR adjacency from dense `u32`-indexed sources to targets of type `T`.
///
/// Used with `T = NodeId` for the data graph (forward and reverse) and with
/// `T = CompId` for the SCC condensation DAG, so reachability backends can
/// borrow the very same slices during index construction.
///
/// Both arrays are `IntRun`s: owned vectors for graphs built in memory,
/// borrowed windows into the file mapping for graphs loaded from a `.gtpq`
/// snapshot.  Every accessor goes through the slice view, so the two
/// representations are indistinguishable to callers — and through the total
/// `run::window`, so an offsets pair that cannot be a run (a mapped file
/// damaged in the middle of its offsets) reads as the empty run instead of
/// panicking.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr<T: RunElem> {
    /// `offsets[v] .. offsets[v + 1]` delimits the neighbour run of `v`.
    offsets: IntRun<u32>,
    /// All neighbour runs, concatenated in source order; each run is sorted.
    targets: IntRun<T>,
}

impl<T: RunElem> Csr<T> {
    /// Assembles a CSR from loaded runs — the snapshot loader's entry point
    /// ([`crate::snap`]).  `offsets` has a leading `0` and a final value equal
    /// to `targets.len()`; it is monotone when a verifying load mode scanned
    /// it, and the accessors do not rely on that.
    pub(crate) fn from_parts(offsets: IntRun<u32>, targets: IntRun<T>) -> Self {
        Self { offsets, targets }
    }

    /// The raw offset array (length `len() + 1`), as snapshot writers store
    /// it (see [`crate::snap`]).
    pub fn offsets_raw(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated target array, as snapshot writers store it.
    pub fn targets_raw(&self) -> &[T] {
        &self.targets
    }

    /// The `(device, inode)` of the snapshot file either run borrows, when
    /// this CSR is a mapped view (see [`crate::snap`]).
    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.offsets
            .backing_file_id()
            .or_else(|| self.targets.backing_file_id())
    }
}

impl<T: RunElem> Default for Csr<T> {
    fn default() -> Self {
        Self {
            offsets: IntRun::new(),
            targets: IntRun::new(),
        }
    }
}

impl<T: RunElem + Ord> Csr<T> {
    /// Builds the CSR from `(source, target)` pairs.
    ///
    /// Pairs are sorted and de-duplicated here, so callers can hand over the
    /// raw insertion-order edge list.  `n` is the number of source nodes.
    pub(crate) fn from_pairs(n: usize, mut pairs: Vec<(u32, T)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        Self::from_sorted_pairs(n, &pairs)
    }

    /// Builds the CSR from pairs already sorted by `(source, target)` with no
    /// duplicates.
    ///
    /// # Panics
    /// Panics when a pair's source is `>= n` or when the target count
    /// overflows the `u32` offsets — both would otherwise corrupt the
    /// structure silently.
    pub fn from_sorted_pairs(n: usize, pairs: &[(u32, T)]) -> Self {
        assert!(
            pairs.len() <= u32::MAX as usize,
            "CSR target count overflows u32 offsets"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(pairs.len());
        let mut cursor = 0usize;
        offsets.push(0);
        for v in 0..n as u32 {
            while cursor < pairs.len() && pairs[cursor].0 == v {
                targets.push(pairs[cursor].1);
                cursor += 1;
            }
            offsets.push(targets.len() as u32);
        }
        assert_eq!(cursor, pairs.len(), "pair source out of range");
        Self {
            offsets: offsets.into(),
            targets: targets.into(),
        }
    }

    /// Number of source nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the CSR has no source nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted neighbour slice of source `v` (empty for a `v` the CSR
    /// does not have).
    #[inline]
    pub(crate) fn neighbors(&self, v: usize) -> &[T] {
        window(&self.offsets, v, &self.targets)
    }

    /// Out-degree of source `v`: the length of `neighbors`.
    #[inline]
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.neighbors(v).len()
    }

    /// Total number of stored targets.
    #[inline]
    pub(crate) fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Whether `(v, t)` is stored (binary search on the sorted run).
    #[inline]
    pub fn contains(&self, v: usize, t: T) -> bool {
        self.neighbors(v).binary_search(&t).is_ok()
    }

    /// Builds a new CSR with `n >= self.len()` sources by merging sorted
    /// `additions` into the existing runs — one [`merge_run`] per source, no
    /// global re-sort.  Additions must be sorted by `(source, target)` and
    /// free of internal duplicates; targets already present in the base run
    /// are skipped, so the result equals [`Csr::from_pairs`] over the union
    /// of the old pairs and the additions.
    ///
    /// # Panics
    /// Panics when `n` shrinks the CSR, when an addition's source is `>= n`,
    /// or when the merged target count overflows the `u32` offsets.
    pub(crate) fn merge_additions(&self, n: usize, additions: &[(u32, T)]) -> Self {
        assert!(n >= self.len(), "CSR merge cannot drop sources");
        debug_assert!(additions.windows(2).all(|w| w[0] < w[1]));
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len() + additions.len());
        let (mut rest, mut added) = (additions, Vec::new());
        offsets.push(0);
        for v in 0..n {
            let here = rest.iter().take_while(|a| a.0 as usize == v).count();
            added.clear();
            added.extend(rest[..here].iter().map(|a| a.1));
            rest = &rest[here..];
            merge_run(self.neighbors(v), &[], &added, &mut targets);
            offsets.push(
                u32::try_from(targets.len()).expect("CSR target count overflows u32 offsets"),
            );
        }
        assert!(rest.is_empty(), "addition source out of range");
        Self {
            offsets: offsets.into(),
            targets: targets.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let csr = Csr::from_pairs(3, vec![(1u32, 2u32), (0, 2), (0, 1), (0, 2)]);
        assert_eq!(csr.len(), 3);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[2]);
        assert_eq!(csr.neighbors(2), &[] as &[u32]);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.target_count(), 3);
        assert!(csr.contains(0, 2));
        assert!(!csr.contains(2, 0));
    }

    #[test]
    fn empty_csr() {
        let csr: Csr<u32> = Csr::from_pairs(0, Vec::new());
        assert!(csr.is_empty());
        assert_eq!(csr.target_count(), 0);
    }

    #[test]
    fn merge_additions_equals_full_rebuild() {
        let base = Csr::from_pairs(3, vec![(0u32, 1u32), (0, 5), (2, 0)]);
        // New source 3, duplicate (0, 5), fresh targets interleaved.
        let adds = vec![(0u32, 0u32), (0, 5), (0, 9), (3, 2)];
        let merged = base.merge_additions(4, &adds);
        let full = Csr::from_pairs(
            4,
            vec![(0, 1), (0, 5), (2, 0), (0, 0), (0, 5), (0, 9), (3, 2)],
        );
        assert_eq!(merged, full);
        assert_eq!(merged.neighbors(0), &[0, 1, 5, 9]);
        assert_eq!(merged.neighbors(3), &[2]);
    }

    #[test]
    fn hostile_offsets_read_as_empty_runs() {
        // What a plain-mmap open can hand over: the ends check out, the
        // middle is decreasing (source 1) or runs past the targets (source 2).
        let csr = Csr::from_parts(
            vec![0u32, 3, 1, u32::MAX, 4].into(),
            vec![10u32, 11, 12, 13].into(),
        );
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.neighbors(0), &[10, 11, 12]);
        for v in [1, 2, 3, 4, usize::MAX] {
            assert_eq!(csr.neighbors(v), &[] as &[u32], "source {v}");
            assert_eq!(csr.degree(v), 0, "source {v}");
            assert!(!csr.contains(v, 11));
        }
        assert_eq!(csr.degree(0), 3);
        // The commit path merges over whatever the accessors serve.
        let merged = csr.merge_additions(5, &[(1, 7), (4, 2)]);
        assert_eq!(merged.neighbors(0), &[10, 11, 12]);
        assert_eq!(merged.neighbors(1), &[7]);
        assert_eq!(merged.neighbors(4), &[2]);
        assert_eq!(merged.target_count(), 5);
    }

    #[test]
    fn merge_additions_into_new_sources_keeps_existing() {
        let base = Csr::from_pairs(2, vec![(0u32, 3u32)]);
        let grown = base.merge_additions(4, &[(2, 1)]);
        assert_eq!(grown.len(), 4);
        assert_eq!(grown.neighbors(0), &[3]);
        assert_eq!(grown.neighbors(1), &[] as &[u32]);
        assert_eq!(grown.neighbors(2), &[1]);
        assert_eq!(grown.neighbors(3), &[] as &[u32]);
    }
}
