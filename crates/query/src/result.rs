//! Answer representation shared by every evaluation algorithm.

use std::fmt;
use std::ops::Range;

use gtpq_graph::NodeId;

use crate::node::QueryNodeId;

/// The answer `Q(G)` to a GTPQ: a set of tuples, each holding the images of
/// the output nodes of one match.
///
/// Tuples follow the order of [`output`](ResultSet::output) and are stored
/// back to back in one flat table, strictly ascending in lexicographic
/// order, so result sets from different algorithms compare with plain
/// equality and a set drops in one deallocation.
#[derive(Clone, PartialEq, Eq)]
pub struct ResultSet {
    /// The output query nodes, in tuple-coordinate order.
    pub output: Vec<QueryNodeId>,
    /// The tuples, `output.len()` images each, strictly ascending.
    rows: Vec<NodeId>,
}

impl ResultSet {
    /// Creates an empty result set over the given output nodes (a GTPQ has
    /// at least one).
    pub fn new(output: Vec<QueryNodeId>) -> Self {
        assert!(!output.is_empty(), "a result set needs an output node");
        Self {
            output,
            rows: Vec::new(),
        }
    }

    /// Builds the set of the fixed-width tuples held back to back in `rows`,
    /// in any order and with repeats: one sort and one deduplication instead
    /// of an insert per tuple.
    pub fn from_rows(output: Vec<QueryNodeId>, mut rows: Vec<NodeId>) -> Self {
        let mut set = Self::new(output);
        let width = set.width();
        assert_eq!(rows.len() % width, 0, "rows of {width} images each");
        set.rows.reserve_exact(rows.len());
        append_sorted_distinct(&mut rows, width, &mut Vec::new(), &mut set.rows);
        set
    }

    fn width(&self) -> usize {
        self.output.len()
    }

    /// Inserts a tuple, which must have one image per output node: appended
    /// when it sorts after every tuple already held (the order every
    /// enumerator produces), otherwise placed by binary search.
    pub fn insert<R: AsRef<[NodeId]>>(&mut self, tuple: R) {
        let tuple = tuple.as_ref();
        // A short or long tuple would misalign every tuple after it.
        assert_eq!(tuple.len(), self.width(), "one image per output node");
        let after_last = self
            .rows
            .len()
            .checked_sub(tuple.len())
            .is_none_or(|last| &self.rows[last..] < tuple);
        if after_last {
            self.rows.extend_from_slice(tuple);
        } else if let Err(at) = self.search(tuple) {
            let at = at * tuple.len();
            self.rows.splice(at..at, tuple.iter().copied());
        }
    }

    /// Binary search for `tuple`: its index, or where it would be inserted.
    fn search(&self, tuple: &[NodeId]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn row(&self, i: usize) -> &[NodeId] {
        let width = self.width();
        &self.rows[i * width..][..width]
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.rows.len() / self.width()
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the tuple is part of the answer.
    pub fn contains(&self, tuple: &[NodeId]) -> bool {
        tuple.len() == self.width() && self.search(tuple).is_ok()
    }

    /// Iterates over the result tuples, ascending.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.rows.chunks_exact(self.width())
    }

    /// The tuples at the positions in `range` (clamped to the answer), as a
    /// set of their own: one copy of a slice of the table.
    pub fn window(&self, range: Range<usize>) -> ResultSet {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        let width = self.width();
        ResultSet {
            output: self.output.clone(),
            rows: self.rows[start * width..end * width].to_vec(),
        }
    }

    /// Whether two result sets are the same answer, tolerating a different
    /// ordering of the output coordinates.
    pub fn same_answer(&self, other: &ResultSet) -> bool {
        if self.output.len() != other.output.len() || self.len() != other.len() {
            return false;
        }
        // Map other's coordinate order onto ours.
        let Some(perm): Option<Vec<usize>> = self
            .output
            .iter()
            .map(|u| other.output.iter().position(|o| o == u))
            .collect()
        else {
            return false;
        };
        let mut permuted = vec![NodeId(0); perm.len()];
        other.iter().all(|t| {
            for (p, &i) in permuted.iter_mut().zip(&perm) {
                *p = t[i];
            }
            self.contains(&permuted)
        })
    }
}

impl fmt::Debug for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultSet")
            .field("output", &self.output)
            .field("tuples", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// Appends the distinct tuples of `width` images each held back to back in
/// `rows` to `out`, ascending; returns how many it appended.  `rows` is left
/// in an unspecified order and `order` is scratch space, so a caller sealing
/// many batches reuses both buffers.
pub fn append_sorted_distinct(
    rows: &mut [NodeId],
    width: usize,
    order: &mut Vec<usize>,
    out: &mut Vec<NodeId>,
) -> usize {
    let before = out.len();
    if width == 1 {
        rows.sort_unstable();
        let mut last = None;
        for &v in rows.iter() {
            if last != Some(v) {
                out.push(v);
                last = Some(v);
            }
        }
        return out.len() - before;
    }
    let row = |i: usize| &rows[i * width..][..width];
    order.clear();
    order.extend(0..rows.len() / width);
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    order.dedup_by(|a, b| row(*a) == row(*b));
    for &i in order.iter() {
        out.extend_from_slice(row(i));
    }
    order.len()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn outputs(width: usize) -> Vec<QueryNodeId> {
        (0..width as u32).map(QueryNodeId).collect()
    }

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn insert_and_query() {
        let mut r = ResultSet::new(vec![QueryNodeId(1), QueryNodeId(2)]);
        r.insert(vec![NodeId(3), NodeId(4)]);
        r.insert(vec![NodeId(3), NodeId(4)]);
        r.insert(vec![NodeId(5), NodeId(6)]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[NodeId(3), NodeId(4)]));
        assert!(!r.is_empty());
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn out_of_order_and_duplicate_inserts_keep_the_table_sorted_and_distinct() {
        for width in 1..=3 {
            let mut r = ResultSet::new(outputs(width));
            for lead in [5, 1, 9, 5, 3, 1, 9, 7] {
                r.insert(vec![NodeId(lead); width]);
            }
            let leads: Vec<u32> = r.iter().map(|t| t[0].0).collect();
            assert_eq!(leads, [1, 3, 5, 7, 9], "width {width}");
            assert!(r.iter().all(|t| t.len() == width));
            assert!(r.contains(&vec![NodeId(7); width]));
            assert!(!r.contains(&vec![NodeId(4); width]));
            assert!(!r.contains(&vec![NodeId(7); width + 1]), "wrong width");
        }
        // Rows that tie on a prefix still order by the later coordinates.
        let mut r = ResultSet::new(outputs(3));
        for row in [[2, 1, 9], [2, 1, 3], [1, 8, 8], [2, 0, 5], [2, 1, 3]] {
            r.insert(ids(&row));
        }
        let rows: Vec<&[NodeId]> = r.iter().collect();
        assert_eq!(
            rows,
            [
                ids(&[1, 8, 8]),
                ids(&[2, 0, 5]),
                ids(&[2, 1, 3]),
                ids(&[2, 1, 9])
            ]
        );
    }

    #[test]
    fn from_rows_equals_repeated_insert_and_iterates_like_a_b_tree_set() {
        let mut rng = StdRng::seed_from_u64(7);
        for width in 1..=3 {
            // Few distinct values per coordinate, so rows repeat and tie.
            let rows: Vec<Vec<NodeId>> = (0..2000)
                .map(|_| (0..width).map(|_| NodeId(rng.gen_range(0..12))).collect())
                .collect();
            let mut inserted = ResultSet::new(outputs(width));
            for row in &rows {
                inserted.insert(row);
            }
            let flat = ResultSet::from_rows(outputs(width), rows.concat());
            assert_eq!(flat, inserted, "width {width}");
            let tree: BTreeSet<&Vec<NodeId>> = rows.iter().collect();
            assert_eq!(flat.len(), tree.len());
            assert!(flat.iter().eq(tree.iter().map(|t| t.as_slice())));
        }
    }

    #[test]
    fn window_copies_the_clamped_range() {
        let r = ResultSet::from_rows(outputs(2), ids(&[4, 4, 1, 1, 3, 3, 2, 2]));
        let w = r.window(1..3);
        assert!(w
            .iter()
            .eq([ids(&[2, 2]), ids(&[3, 3])].iter().map(|t| t.as_slice())));
        assert_eq!(r.window(3..10).len(), 1);
        assert!(r.window(9..12).is_empty());
        assert_eq!(r.window(0..4), r);
    }

    #[test]
    fn same_answer_tolerates_coordinate_permutations() {
        let mut a = ResultSet::new(vec![QueryNodeId(1), QueryNodeId(2)]);
        a.insert(vec![NodeId(10), NodeId(20)]);
        let mut b = ResultSet::new(vec![QueryNodeId(2), QueryNodeId(1)]);
        b.insert(vec![NodeId(20), NodeId(10)]);
        assert!(a.same_answer(&b));
        b.insert(vec![NodeId(21), NodeId(11)]);
        assert!(!a.same_answer(&b));
        let c = ResultSet::new(vec![QueryNodeId(3)]);
        assert!(!a.same_answer(&c));
        // Every permutation of three coordinates, over rows whose permuted
        // order differs from their stored order.
        let base = ResultSet::from_rows(outputs(3), ids(&[1, 9, 5, 2, 8, 4, 3, 7, 6, 1, 2, 3]));
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let output: Vec<QueryNodeId> = perm.iter().map(|&i| QueryNodeId(i as u32)).collect();
            let mut rows: Vec<NodeId> = base.iter().flat_map(|t| perm.map(|i| t[i])).collect();
            let permuted = ResultSet::from_rows(output.clone(), rows.clone());
            assert!(base.same_answer(&permuted) && permuted.same_answer(&base));
            for t in base.iter() {
                assert!(permuted.contains(&perm.map(|i| t[i])));
            }
            rows[0] = NodeId(99);
            let differs = ResultSet::from_rows(output, rows);
            assert_eq!(differs.len(), base.len());
            assert!(!base.same_answer(&differs) && !differs.same_answer(&base));
        }
    }

    #[test]
    #[should_panic(expected = "one image per output node")]
    fn a_wrong_width_insert_panics() {
        let mut r = ResultSet::new(outputs(2));
        r.insert(ids(&[1, 2, 3]));
    }
}
