//! Pivot-based vector-similarity filtering, in the style of PEXESO.
//!
//! Similarity predicates ask for the data vectors within an L2 radius of a
//! query vector (or above a cosine-similarity threshold, which reduces to a
//! conservative L2 radius — see [`cosine_radius`]).  Computing the exact
//! distance to every vector is O(n · dim); this crate implements the
//! *block-and-verify* scheme that prunes most of those computations with the
//! triangle inequality:
//!
//! 1. pick a small set of *pivots* `p_1 … p_k` from the data
//!    ([`select_pivots`], seeded farthest-point so the pivots spread out),
//! 2. precompute the distance table `d(x_i, p_j)` ([`pivot_distances`]),
//! 3. at query time compute the k distances `d(q, p_j)`; any entry with
//!    `|d(q, p_j) − d(x_i, p_j)| > r` for some pivot cannot lie within `r`
//!    of `q` ([`PivotFilter::candidates_within`]), so only the survivors are
//!    *verified* with an exact distance computation.
//!
//! The filter is complete (no false negatives): the triangle inequality
//! guarantees every true answer survives every pivot test.  Selectivity —
//! how few entries survive — is what the pivot-selection quality buys.
//!
//! The crate is pure math over `&[f32]` slices and plain indices; the graph
//! storage layer owns the persistent (owned-or-mapped) representation.

#![warn(missing_docs)]

/// Squared L2 distance between two equal-length vectors.
///
/// # Panics
/// Panics when the lengths differ.
pub(crate) fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// L2 distance between two equal-length vectors.
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    l2_sq(a, b).sqrt()
}

/// Dot product of two equal-length vectors.
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a vector.
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity of two equal-length vectors; `0.0` when either vector
/// has zero norm (nothing points nowhere).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// A conservative L2 radius `r` such that `cos(x, q) ≥ t` implies
/// `‖x − q‖ ≤ r` for every vector `x` with `‖x‖ ∈ [norm_min, norm_max]`.
///
/// From `‖x − q‖² = ‖x‖² + ‖q‖² − 2‖x‖‖q‖·cos(x, q)`, the similarity bound
/// gives `‖x − q‖² ≤ f(‖x‖)` with `f(s) = s² − 2s‖q‖t + ‖q‖²` — a parabola
/// in `s`, so its maximum over the interval is at an endpoint.  The returned
/// radius therefore lets a cosine predicate ride the L2 pivot filter without
/// false negatives; survivors still need exact cosine verification.
///
/// Cosine never leaves `[-1, 1]`, so `t` is clamped to it: the radius stays
/// conservative, and a threshold of `-∞` against a zero-norm query cannot
/// multiply out to NaN (which `f32::max` would drop, collapsing the radius
/// to 0).
pub fn cosine_radius(q_norm: f32, t: f32, norm_min: f32, norm_max: f32) -> f32 {
    let t = t.clamp(-1.0, 1.0);
    let f = |s: f32| s * s - 2.0 * s * q_norm * t + q_norm * q_norm;
    f(norm_min).max(f(norm_max)).max(0.0).sqrt()
}

/// Selects `k` pivot entries from `data` (row-major, `dim` floats per entry)
/// by seeded farthest-point traversal: the first pivot is the seed-chosen
/// entry, each further pivot is the entry maximizing its distance to the
/// nearest already-chosen pivot.  Deterministic for a given `(data, seed)`.
///
/// Returns at most `min(k, entries)` distinct entry indices.
///
/// # Panics
/// Panics when `dim` is zero or does not divide `data.len()`.
pub fn select_pivots(data: &[f32], dim: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
    let n = data.len() / dim;
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let row = |i: usize| &data[i * dim..(i + 1) * dim];
    let first = (seed % n as u64) as usize;
    let mut pivots = vec![first];
    // min_d[i] = distance from entry i to its nearest chosen pivot.
    let mut min_d: Vec<f32> = (0..n).map(|i| l2_sq(row(i), row(first))).collect();
    while pivots.len() < k {
        let (next, &best) = min_d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("n > 0");
        if best == 0.0 {
            break; // every remaining entry coincides with a pivot
        }
        pivots.push(next);
        for (i, d) in min_d.iter_mut().enumerate() {
            *d = d.min(l2_sq(row(i), row(next)));
        }
    }
    pivots
}

/// Precomputes the row-major `entries × pivots` distance table
/// `out[i * k + j] = ‖x_i − p_j‖` consumed by [`PivotFilter`].
///
/// # Panics
/// Panics when `dim` is zero or does not divide either slice length.
pub fn pivot_distances(data: &[f32], dim: usize, pivots: &[f32]) -> Vec<f32> {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(data.len() % dim, 0, "data length must be a multiple of dim");
    assert_eq!(
        pivots.len() % dim,
        0,
        "pivot length must be a multiple of dim"
    );
    let n = data.len() / dim;
    let k = pivots.len() / dim;
    let mut out = Vec::with_capacity(n * k);
    for i in 0..n {
        let x = &data[i * dim..(i + 1) * dim];
        for j in 0..k {
            out.push(l2(x, &pivots[j * dim..(j + 1) * dim]));
        }
    }
    out
}

/// The outcome of one [`PivotFilter::candidates_within`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterResult {
    /// Surviving entry indices, ascending.
    pub candidates: Vec<u32>,
    /// Entries the pivot tests pruned (`table len − candidates`).
    pub pruned: u64,
}

/// The block half of block-and-verify: borrowed pivot vectors plus the
/// precomputed entry-to-pivot distance table.
///
/// Both slices typically live inside a mapped snapshot section; the filter
/// itself holds no allocation.
#[derive(Clone, Copy, Debug)]
pub struct PivotFilter<'a> {
    dim: usize,
    k: usize,
    pivots: &'a [f32],
    dists: &'a [f32],
}

impl<'a> PivotFilter<'a> {
    /// Wraps `pivots` (`k × dim`, row-major) and the distance table `dists`
    /// (`entries × k`, row-major, as produced by [`pivot_distances`]).
    ///
    /// # Panics
    /// Panics when `dim` is zero, `dim` does not divide `pivots.len()`, or
    /// `k > 0` and `k` does not divide `dists.len()`.
    pub fn new(dim: usize, pivots: &'a [f32], dists: &'a [f32]) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            pivots.len() % dim,
            0,
            "pivot length must be a multiple of dim"
        );
        let k = pivots.len() / dim;
        if k > 0 {
            assert_eq!(
                dists.len() % k,
                0,
                "distance table length must be a multiple of the pivot count"
            );
        } else {
            assert!(dists.is_empty(), "distance table without pivots");
        }
        Self {
            dim,
            k,
            pivots,
            dists,
        }
    }

    /// Number of entries covered by the distance table.
    pub fn len(&self) -> usize {
        self.dists.len().checked_div(self.k).unwrap_or(0)
    }

    /// Whether the filter covers no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The query's distance to every pivot — the per-query precomputation
    /// shared by all entry tests.
    ///
    /// # Panics
    /// Panics when `query.len() != dim`.
    pub(crate) fn query_pivot_dists(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        (0..self.k)
            .map(|j| l2(query, &self.pivots[j * self.dim..(j + 1) * self.dim]))
            .collect()
    }

    /// Whether entry `i` survives every pivot test for a query whose pivot
    /// distances are `qd` (from `query_pivot_dists`):
    /// `|qd[j] − d(x_i, p_j)| ≤ radius` for all `j`, with early exit on the
    /// first violated pivot.
    #[inline]
    pub(crate) fn survives(&self, i: usize, qd: &[f32], radius: f32) -> bool {
        let row = &self.dists[i * self.k..(i + 1) * self.k];
        row.iter().zip(qd).all(|(d, q)| (d - q).abs() <= radius)
    }

    /// The block step: every entry whose pivot distances are all compatible
    /// with lying within `radius` of `query`.  Guaranteed a superset of the
    /// exact within-radius answer (triangle inequality); callers verify the
    /// survivors with an exact distance computation.
    ///
    /// A NaN or negative radius yields no candidates; a `+∞` radius yields
    /// every entry (no distance is beyond it — whether one is *strictly*
    /// within it is the caller's verification, as for any radius).
    ///
    /// # Panics
    /// Panics when `query.len() != dim`.
    pub fn candidates_within(&self, query: &[f32], radius: f32) -> FilterResult {
        let n = self.len();
        if radius.is_nan() || radius < 0.0 {
            return FilterResult {
                candidates: Vec::new(),
                pruned: n as u64,
            };
        }
        if radius == f32::INFINITY {
            return FilterResult {
                candidates: (0..n as u32).collect(),
                pruned: 0,
            };
        }
        let qd = self.query_pivot_dists(query);
        let mut candidates = Vec::new();
        for i in 0..n {
            if self.survives(i, &qd, radius) {
                candidates.push(i as u32);
            }
        }
        let pruned = (n - candidates.len()) as u64;
        FilterResult { candidates, pruned }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random vectors without any RNG dependency.
    fn lcg_vectors(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut out = Vec::with_capacity(n * dim);
        for _ in 0..n * dim {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits to [-1, 1).
            out.push(((state >> 40) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0);
        }
        out
    }

    #[test]
    fn distances_and_cosine() {
        assert_eq!(l2(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(l2_sq(&[1.0], &[4.0]), 9.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn pivot_selection_is_deterministic_and_spread() {
        let data = lcg_vectors(50, 4, 7);
        let a = select_pivots(&data, 4, 5, 3);
        let b = select_pivots(&data, 4, 5, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "pivots are distinct entries");
        // More pivots than entries: capped, still distinct.
        let tiny = lcg_vectors(3, 4, 1);
        assert_eq!(select_pivots(&tiny, 4, 10, 0).len(), 3);
        // All-identical data: one pivot, no spin.
        let flat = vec![1.0f32; 6 * 4];
        assert_eq!(select_pivots(&flat, 4, 3, 2).len(), 1);
    }

    #[test]
    fn filter_has_no_false_negatives() {
        for seed in 0..8u64 {
            let dim = 6;
            let data = lcg_vectors(80, dim, seed);
            let idx = select_pivots(&data, dim, 4, seed);
            let pivots: Vec<f32> = idx
                .iter()
                .flat_map(|&i| data[i * dim..(i + 1) * dim].to_vec())
                .collect();
            let dists = pivot_distances(&data, dim, &pivots);
            let filter = PivotFilter::new(dim, &pivots, &dists);
            assert_eq!(filter.len(), 80);
            let query = &lcg_vectors(1, dim, seed + 100)[..];
            for radius in [0.1f32, 0.5, 1.0, 2.0] {
                let result = filter.candidates_within(query, radius);
                assert_eq!(
                    result.pruned as usize + result.candidates.len(),
                    filter.len()
                );
                // Sorted, and a superset of the exact answer.
                assert!(result.candidates.windows(2).all(|w| w[0] < w[1]));
                for i in 0..80 {
                    let exact = l2(&data[i * dim..(i + 1) * dim], query) <= radius;
                    if exact {
                        assert!(
                            result.candidates.contains(&(i as u32)),
                            "seed {seed} radius {radius}: entry {i} is a false negative"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn filter_prunes_far_entries() {
        // Two tight clusters far apart: querying one cluster's center must
        // prune the other cluster entirely.
        let dim = 3;
        let mut data = Vec::new();
        for i in 0..20 {
            let eps = i as f32 * 1e-3;
            data.extend_from_slice(&[eps, 0.0, 0.0]);
        }
        for i in 0..20 {
            let eps = i as f32 * 1e-3;
            data.extend_from_slice(&[100.0 + eps, 0.0, 0.0]);
        }
        let idx = select_pivots(&data, dim, 2, 0);
        let pivots: Vec<f32> = idx
            .iter()
            .flat_map(|&i| data[i * dim..(i + 1) * dim].to_vec())
            .collect();
        let dists = pivot_distances(&data, dim, &pivots);
        let filter = PivotFilter::new(dim, &pivots, &dists);
        let result = filter.candidates_within(&[0.0, 0.0, 0.0], 1.0);
        assert_eq!(result.candidates.len(), 20);
        assert_eq!(result.pruned, 20);
    }

    #[test]
    fn degenerate_radii_yield_no_candidates_and_an_infinite_one_yields_all() {
        let data = lcg_vectors(10, 2, 0);
        let pivots = data[0..2].to_vec();
        let dists = pivot_distances(&data, 2, &pivots);
        let filter = PivotFilter::new(2, &pivots, &dists);
        for r in [-1.0f32, f32::NAN, f32::NEG_INFINITY] {
            let result = filter.candidates_within(&[0.0, 0.0], r);
            assert!(result.candidates.is_empty(), "radius {r}");
            assert_eq!(result.pruned, 10);
        }
        // Nothing lies beyond an infinite radius, whatever the query.
        for query in [[0.0f32, 0.0], [f32::INFINITY, 0.0]] {
            let result = filter.candidates_within(&query, f32::INFINITY);
            assert_eq!(result.candidates, (0..10).collect::<Vec<u32>>());
            assert_eq!(result.pruned, 0);
        }
    }

    #[test]
    fn cosine_radius_is_sound() {
        let data = lcg_vectors(60, 5, 11);
        let query = &lcg_vectors(1, 5, 99)[..];
        let norms: Vec<f32> = (0..60).map(|i| norm(&data[i * 5..(i + 1) * 5])).collect();
        let (lo, hi) = norms.iter().fold((f32::INFINITY, 0.0f32), |(lo, hi), &n| {
            (lo.min(n), hi.max(n))
        });
        for t in [-0.5f32, 0.0, 0.3, 0.8, 0.99] {
            let r = cosine_radius(norm(query), t, lo, hi);
            for i in 0..60 {
                let x = &data[i * 5..(i + 1) * 5];
                if cosine(x, query) >= t {
                    assert!(
                        l2(x, query) <= r + 1e-4,
                        "t={t}: cos match at distance {} outside radius {r}",
                        l2(x, query)
                    );
                }
            }
        }
    }
}
