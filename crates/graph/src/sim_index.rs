//! Per-attribute vector similarity tables — the storage half of the
//! pivot-based block-and-verify access path.
//!
//! For every attribute that carries embedding values the catalog keeps one
//! [`SimTable`]: the carrier nodes (sorted by id), their vectors packed into
//! one contiguous `n × dim` f32 run (exact verification walks rows without
//! materializing attribute tuples), the selected pivot vectors, the
//! precomputed `n × k` pivot-distance table consumed by
//! [`gtpq_sim::PivotFilter`], the *sorted* first-pivot distances (two binary
//! searches turn those into the planner's candidate estimate), and the norm
//! bounds that let cosine predicates ride the L2 filter.
//!
//! Every array is an `IntRun`, so a snapshot-loaded catalog borrows the
//! mapped `.gtpq` sections zero-copy (see [`crate::snap`]); built graphs own
//! plain vectors.  Construction is deterministic — seeded farthest-point
//! pivot selection over node-ordered rows — which keeps the mutation path's
//! rebuild-equals-replay oracle intact.
//!
//! A table indexes the *modal* dimensionality of its attribute (the `dim`
//! carried by the most nodes, ties to the smaller).  That makes the filter
//! complete for queries of that dimensionality: a vector of any other
//! dimensionality can never match them.  Queries of a non-modal
//! dimensionality fall back to the per-name posting plus exact verification.

use std::collections::BTreeMap;

use gtpq_sim::{cosine, cosine_radius, l2, norm, pivot_distances, select_pivots, PivotFilter};

use crate::attr::{AttrValue, Attribute};
use crate::graph::NodeId;
use crate::run::IntRun;
use crate::symbol::Symbol;

/// Number of pivots per table (fewer when the table has fewer entries).
/// Small enough that the per-entry block test is cheap next to a `dim ≥ 32`
/// exact distance, large enough to prune aggressively.
pub(crate) const DEFAULT_PIVOT_COUNT: usize = 8;

/// Seed for the farthest-point pivot selection; fixed so rebuilding a graph
/// over the same tuples reproduces the same table bit for bit.
const PIVOT_SEED: u64 = 0x4754_5051; // "GTPQ"

/// The outcome of one block-and-verify similarity selection.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimMatches {
    /// Matching nodes, sorted ascending by id — drops straight into the
    /// galloping posting intersections.
    pub nodes: Vec<NodeId>,
    /// Table entries the pivot tests eliminated without an exact distance.
    pub pruned: u64,
    /// Exact distance computations performed (the filter's survivors).
    pub verified: u64,
}

/// One attribute's similarity index: packed vectors plus the pivot filter
/// precomputation.  See the module docs for the layout.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTable {
    /// Vector dimensionality (> 0).
    pub(crate) dim: u32,
    /// Carrier nodes, sorted by id; row `i` of `vecs`/`dists` belongs to
    /// `nodes[i]`.
    pub(crate) nodes: IntRun<NodeId>,
    /// Row-major `n × dim` packed vectors.
    pub(crate) vecs: IntRun<f32>,
    /// Row-major `k × dim` pivot vectors, `1 ≤ k ≤ DEFAULT_PIVOT_COUNT`.
    pub(crate) pivots: IntRun<f32>,
    /// Row-major `n × k` entry-to-pivot distances.
    pub(crate) dists: IntRun<f32>,
    /// The first-pivot distance of every entry, sorted ascending — the
    /// planner's selectivity statistic.
    pub(crate) sorted_d0: IntRun<f32>,
    /// Smallest vector norm in the table.
    pub(crate) norm_min: f32,
    /// Largest vector norm in the table.
    pub(crate) norm_max: f32,
}

impl SimTable {
    /// Builds the table over `(node, vector)` rows already sorted by node id,
    /// all of dimensionality `dim`.
    fn build(rows: &[(NodeId, &[f32])], dim: usize) -> Self {
        debug_assert!(dim > 0 && !rows.is_empty());
        let n = rows.len();
        let mut nodes = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n * dim);
        let mut norm_min = f32::INFINITY;
        let mut norm_max = 0.0f32;
        for &(v, vec) in rows {
            nodes.push(v);
            data.extend_from_slice(vec);
            let nn = norm(vec);
            norm_min = norm_min.min(nn);
            norm_max = norm_max.max(nn);
        }
        let picked = select_pivots(&data, dim, DEFAULT_PIVOT_COUNT.min(n), PIVOT_SEED);
        let mut pivots = Vec::with_capacity(picked.len() * dim);
        for &i in &picked {
            pivots.extend_from_slice(&data[i * dim..(i + 1) * dim]);
        }
        let dists = pivot_distances(&data, dim, &pivots);
        let k = picked.len();
        let mut sorted_d0: Vec<f32> = (0..n).map(|i| dists[i * k]).collect();
        sorted_d0.sort_unstable_by(f32::total_cmp);
        Self {
            dim: dim as u32,
            nodes: nodes.into(),
            vecs: data.into(),
            pivots: pivots.into(),
            dists: dists.into(),
            sorted_d0: sorted_d0.into(),
            norm_min,
            norm_max,
        }
    }

    /// Reassembles a table from (possibly mapped) runs, validating every
    /// cross-array size relation; `None` when they do not cohere (a damaged
    /// snapshot must fail typed, not panic).
    // One parameter per serialized array — a builder would only obscure
    // which section feeds which field.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        dim: u32,
        nodes: IntRun<NodeId>,
        vecs: IntRun<f32>,
        pivots: IntRun<f32>,
        dists: IntRun<f32>,
        sorted_d0: IntRun<f32>,
        norm_min: f32,
        norm_max: f32,
    ) -> Option<Self> {
        let d = dim as usize;
        if d == 0 {
            return None;
        }
        let n = nodes.len();
        if vecs.len() != n.checked_mul(d)? || !pivots.len().is_multiple_of(d) {
            return None;
        }
        let k = pivots.len() / d;
        if k == 0 || k > DEFAULT_PIVOT_COUNT || dists.len() != n.checked_mul(k)? {
            return None;
        }
        if sorted_d0.len() != n {
            return None;
        }
        if !nodes.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        Some(Self {
            dim,
            nodes,
            vecs,
            pivots,
            dists,
            sorted_d0,
            norm_min,
            norm_max,
        })
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Number of indexed entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table indexes no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of pivots.
    #[cfg(test)]
    fn pivot_count(&self) -> usize {
        self.pivots.len() / self.dim()
    }

    /// The indexed nodes, sorted by id.
    #[inline]
    pub fn indexed_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The packed vector of entry `i`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        let d = self.dim();
        &self.vecs[i * d..(i + 1) * d]
    }

    fn filter(&self) -> PivotFilter<'_> {
        PivotFilter::new(self.dim(), &self.pivots, &self.dists)
    }

    /// Nodes whose vector lies within L2 distance `t` of `query` (strictly
    /// within unless `inclusive`): pivot block, then exact verification of
    /// the survivors.
    ///
    /// # Panics
    /// Panics when `query.len() != dim`.
    pub fn within_l2(&self, query: &[f32], t: f32, inclusive: bool) -> SimMatches {
        let blocked = self.filter().candidates_within(query, t.max(0.0));
        let mut out = SimMatches {
            pruned: blocked.pruned,
            ..SimMatches::default()
        };
        for &row in &blocked.candidates {
            let i = row as usize;
            out.verified += 1;
            let d = l2(self.vector(i), query);
            if d < t || (inclusive && d == t) {
                out.nodes.push(self.nodes[i]);
            }
        }
        out
    }

    /// Nodes whose vector has cosine similarity above `t` with `query`
    /// (strictly above unless `inclusive`): the cosine bound converts to a
    /// conservative L2 radius via the table's norm bounds, the pivot filter
    /// blocks on it, and the survivors verify with exact cosine.
    ///
    /// # Panics
    /// Panics when `query.len() != dim`.
    pub fn above_cosine(&self, query: &[f32], t: f32, inclusive: bool) -> SimMatches {
        let radius = cosine_radius(norm(query), t, self.norm_min, self.norm_max);
        let blocked = self.filter().candidates_within(query, radius);
        let mut out = SimMatches {
            pruned: blocked.pruned,
            ..SimMatches::default()
        };
        for &row in &blocked.candidates {
            let i = row as usize;
            out.verified += 1;
            let c = cosine(self.vector(i), query);
            if c > t || (inclusive && c == t) {
                out.nodes.push(self.nodes[i]);
            }
        }
        out
    }

    /// Upper bound on the entries the pivot filter would pass for an L2
    /// radius — two binary searches over the sorted first-pivot distances, no
    /// materialization.  Always ≥ the filter's candidate count, which itself
    /// is ≥ the exact match count.
    pub fn estimate_within_l2(&self, query: &[f32], radius: f32) -> usize {
        if radius.is_nan() || radius < 0.0 {
            return 0;
        }
        if radius == f32::INFINITY {
            return self.len();
        }
        let d0 = l2(query, &self.pivots[..self.dim()]);
        let start = self.sorted_d0.partition_point(|&d| d < d0 - radius);
        let end = self.sorted_d0.partition_point(|&d| d <= d0 + radius);
        end - start
    }

    /// Upper bound on the entries the pivot filter would pass for a cosine
    /// threshold (the same statistic through [`cosine_radius`]).
    pub fn estimate_above_cosine(&self, query: &[f32], t: f32) -> usize {
        let radius = cosine_radius(norm(query), t, self.norm_min, self.norm_max);
        self.estimate_within_l2(query, radius)
    }

    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.nodes
            .backing_file_id()
            .or_else(|| self.vecs.backing_file_id())
            .or_else(|| self.pivots.backing_file_id())
            .or_else(|| self.dists.backing_file_id())
            .or_else(|| self.sorted_d0.backing_file_id())
    }
}

/// Every [`SimTable`] of a graph, keyed by attribute name.  Ordered so the
/// snapshot writer emits tables deterministically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCatalog {
    tables: BTreeMap<Symbol, SimTable>,
}

impl SimCatalog {
    /// Builds a table for every attribute carrying non-empty vector values,
    /// over the modal dimensionality of that attribute (ties to the smaller
    /// dim).  A vector with a non-finite component matches no `sim()`
    /// comparison, so, like an off-dimension one, it is left out of the
    /// table.  Deterministic in the tuples alone.
    pub fn build(attrs: &[Vec<Attribute>]) -> Self {
        let mut groups: BTreeMap<Symbol, Vec<(NodeId, &[f32])>> = BTreeMap::new();
        for (i, tuple) in attrs.iter().enumerate() {
            for attr in tuple {
                if let AttrValue::Vec(v) = &attr.value {
                    if !v.is_empty() && v.iter().all(|x| x.is_finite()) {
                        groups
                            .entry(attr.name)
                            .or_default()
                            .push((NodeId(i as u32), v.as_slice()));
                    }
                }
            }
        }
        let mut tables = BTreeMap::new();
        for (sym, mut rows) in groups {
            let mut dim_counts: BTreeMap<usize, usize> = BTreeMap::new();
            for &(_, v) in &rows {
                *dim_counts.entry(v.len()).or_default() += 1;
            }
            let modal = dim_counts
                .iter()
                .max_by_key(|&(&dim, &count)| (count, std::cmp::Reverse(dim)))
                .map(|(&dim, _)| dim)
                .expect("non-empty group");
            rows.retain(|&(_, v)| v.len() == modal);
            // Node order within a group is already ascending (tuples iterate
            // by node id) — the posting comes out sorted for free.
            tables.insert(sym, SimTable::build(&rows, modal));
        }
        Self { tables }
    }

    /// Assembles a catalog from loader-provided tables.
    pub(crate) fn from_tables(tables: BTreeMap<Symbol, SimTable>) -> Self {
        Self { tables }
    }

    /// The table for attribute `attr`, when one exists.
    pub fn get(&self, attr: Symbol) -> Option<&SimTable> {
        self.tables.get(&attr)
    }

    /// Iterates `(attr, table)` in attribute order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Symbol, &SimTable)> + '_ {
        self.tables.iter().map(|(&sym, t)| (sym, t))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no attribute carries vectors.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    pub(crate) fn backing_file_id(&self) -> Option<(u64, u64)> {
        self.tables.values().find_map(SimTable::backing_file_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;

    fn emb(seed: u64, dim: usize) -> Vec<f32> {
        // Small deterministic pseudo-embedding.
        (0..dim)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64)
                    .wrapping_mul(1442695040888963407);
                ((x >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn sample(n: usize, dim: usize) -> (Vec<Vec<Attribute>>, Symbol) {
        let sym = Symbol(0);
        let attrs = (0..n)
            .map(|i| vec![Attribute::new(sym, AttrValue::Vec(emb(i as u64, dim)))])
            .collect();
        (attrs, sym)
    }

    #[test]
    fn catalog_build_is_deterministic_and_complete() {
        let (attrs, sym) = sample(40, 8);
        let a = SimCatalog::build(&attrs);
        let b = SimCatalog::build(&attrs);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        let t = a.get(sym).unwrap();
        assert_eq!(t.len(), 40);
        assert_eq!(t.dim(), 8);
        assert_eq!(t.pivot_count(), DEFAULT_PIVOT_COUNT);
        assert!(t.indexed_nodes().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.indexed_nodes()[3], NodeId(3));
        assert_eq!(t.vector(3), &emb(3, 8)[..]);
        assert!(0.0 <= t.norm_min && t.norm_min <= t.norm_max);
        assert_eq!(SimCatalog::build(&[]).len(), 0);
    }

    #[test]
    fn modal_dimensionality_wins_with_ties_to_smaller() {
        let sym = Symbol(0);
        let mut attrs = vec![
            vec![Attribute::new(sym, AttrValue::Vec(vec![1.0, 2.0]))],
            vec![Attribute::new(sym, AttrValue::Vec(vec![1.0, 2.0, 3.0]))],
            vec![Attribute::new(sym, AttrValue::Vec(vec![0.0, 0.0]))],
            vec![Attribute::new(sym, AttrValue::Vec(Vec::new()))], // ignored
        ];
        let cat = SimCatalog::build(&attrs);
        assert_eq!(cat.get(sym).unwrap().dim(), 2);
        assert_eq!(cat.get(sym).unwrap().len(), 2);
        // Exact tie: 1 × dim-2 vs 1 × dim-3 → the smaller dim indexes.
        attrs.remove(2);
        assert_eq!(SimCatalog::build(&attrs).get(sym).unwrap().dim(), 2);
    }

    #[test]
    fn within_l2_agrees_with_brute_force() {
        let (attrs, sym) = sample(60, 6);
        let cat = SimCatalog::build(&attrs);
        let t = cat.get(sym).unwrap();
        let query = emb(1000, 6);
        for radius in [0.2f32, 0.8, 1.5, 3.0] {
            for inclusive in [false, true] {
                let got = t.within_l2(&query, radius, inclusive);
                let want: Vec<NodeId> = (0..60)
                    .filter(|&i| {
                        let d = l2(&emb(i as u64, 6), &query);
                        d < radius || (inclusive && d == radius)
                    })
                    .map(|i| NodeId(i as u32))
                    .collect();
                assert_eq!(got.nodes, want, "radius {radius} inclusive {inclusive}");
                assert_eq!(got.pruned + got.verified, 60);
                // The pre-materialization estimate upper-bounds the filter.
                assert!(t.estimate_within_l2(&query, radius) as u64 >= got.verified);
            }
        }
    }

    #[test]
    fn above_cosine_agrees_with_brute_force() {
        let (attrs, sym) = sample(60, 6);
        let cat = SimCatalog::build(&attrs);
        let t = cat.get(sym).unwrap();
        let query = emb(2000, 6);
        for threshold in [-0.5f32, 0.0, 0.4, 0.9] {
            for inclusive in [false, true] {
                let got = t.above_cosine(&query, threshold, inclusive);
                let want: Vec<NodeId> = (0..60)
                    .filter(|&i| {
                        let c = cosine(&emb(i as u64, 6), &query);
                        c > threshold || (inclusive && c == threshold)
                    })
                    .map(|i| NodeId(i as u32))
                    .collect();
                assert_eq!(got.nodes, want, "t {threshold} inclusive {inclusive}");
                assert!(t.estimate_above_cosine(&query, threshold) as u64 >= got.verified);
            }
        }
    }

    #[test]
    fn zero_norm_query_still_answers() {
        let (attrs, sym) = sample(10, 4);
        let cat = SimCatalog::build(&attrs);
        let t = cat.get(sym).unwrap();
        let zero = vec![0.0f32; 4];
        // cosine(x, 0) is defined as 0 — nothing exceeds 0.5.
        assert!(t.above_cosine(&zero, 0.5, false).nodes.is_empty());
        // All entries match "similarity > -1" through the verify path.
        assert_eq!(t.above_cosine(&zero, -1.0, false).nodes.len(), 10);
    }

    #[test]
    fn from_parts_rejects_incoherent_runs() {
        let (attrs, sym) = sample(5, 3);
        let cat = SimCatalog::build(&attrs);
        let t = cat.get(sym).unwrap().clone();
        let ok = SimTable::from_parts(
            t.dim,
            t.nodes.clone(),
            t.vecs.clone(),
            t.pivots.clone(),
            t.dists.clone(),
            t.sorted_d0.clone(),
            t.norm_min,
            t.norm_max,
        );
        assert_eq!(ok.as_ref(), Some(&t));
        let reject = |dim, nodes: &IntRun<NodeId>, vecs: &IntRun<f32>, dists: &IntRun<f32>| {
            SimTable::from_parts(
                dim,
                nodes.clone(),
                vecs.clone(),
                t.pivots.clone(),
                dists.clone(),
                t.sorted_d0.clone(),
                t.norm_min,
                t.norm_max,
            )
            .is_none()
        };
        assert!(reject(0, &t.nodes, &t.vecs, &t.dists)); // zero dim
        assert!(reject(4, &t.nodes, &t.vecs, &t.dists)); // vecs len mismatch
        let short: IntRun<f32> = t.vecs[..6].to_vec().into();
        assert!(reject(3, &t.nodes, &short, &t.dists)); // truncated vecs
        let bad_dists: IntRun<f32> = vec![0.0f32].into();
        assert!(reject(3, &t.nodes, &t.vecs, &bad_dists)); // dists mismatch
        let unsorted: IntRun<NodeId> =
            vec![NodeId(2), NodeId(1), NodeId(0), NodeId(3), NodeId(4)].into();
        assert!(reject(3, &unsorted, &t.vecs, &t.dists)); // unsorted nodes
    }
}
