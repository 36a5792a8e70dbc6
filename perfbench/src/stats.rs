//! Order statistics over latency samples and the order-independent answer
//! digest every correctness check compares.

use gtpq_query::ResultSet;

/// Percentiles the benchmark knows how to report, ascending, in per mille
/// (whole numbers, so "ten samples beyond" is exact arithmetic).
const PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// Samples a percentile needs *beyond* it before it is worth reporting.
const TAIL_SAMPLES: usize = 10;

/// The highest percentile of 50, 90, 95, 99 and 99.9 that still has at
/// least ten of `n` samples beyond it; `None` below 20 samples, where not
/// even the median qualifies.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PER_MILLE
        .iter()
        .rfind(|&&pm| n * (1000 - pm) / 1000 >= TAIL_SAMPLES)
        .map(|&pm| pm as f64 / 10.0)
}

/// Percentile `p` (0–100) of `sorted` (ascending) by linear interpolation
/// between the two closest ranks; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sorts `values` in place (they are finite measurements) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// `perfbench diff` reports the spread the acceptance procedure measures.
/// Fewer than two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// What a response is reduced to before it is compared: the row count and a
/// hash of the rows that does not depend on their order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    /// Digest of `rows`, leaving out the row at index `skip` if given (the
    /// wrong-answer test hook drops one row this way).
    pub fn of(rows: &ResultSet, skip: Option<usize>) -> Self {
        let mut digest = Digest { rows: 0, hash: 0 };
        for (i, tuple) in rows.iter().enumerate() {
            if skip == Some(i) {
                continue;
            }
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in tuple {
                h = mix(h ^ u64::from(v.0));
            }
            digest.rows += 1;
            digest.hash = digest.hash.wrapping_add(h);
        }
        digest
    }
}

/// The wrong-answer test hook (`--drop-row`): the first checked answer that
/// has a row loses its first row before it is compared.
pub fn take_drop_row(drop_row: &mut bool, rows: usize) -> Option<usize> {
    (*drop_row && rows > 0).then(|| {
        *drop_row = false;
        0
    })
}

/// SplitMix64 finalizer: a fixed, well-mixing 64-bit permutation (the
/// checksum must not change between runs, so no `RandomState`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Running fold of response digests, in the fixed order of the warm-up pass:
/// the `answers_checksum` compared with `golden.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checksum(pub u64);

impl Checksum {
    pub fn fold(&mut self, d: Digest) {
        self.0 = mix(self.0.rotate_left(7) ^ mix(d.rows) ^ d.hash);
    }
}

#[cfg(test)]
mod tests {
    use gtpq_graph::NodeId;
    use gtpq_query::QueryNodeId;

    use super::*;

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn digest_ignores_row_order_but_not_rows() {
        let out = vec![QueryNodeId(0), QueryNodeId(1)];
        let mut a = ResultSet::new(out.clone());
        a.insert(vec![NodeId(1), NodeId(2)]);
        a.insert(vec![NodeId(3), NodeId(4)]);
        // Same rows under the other output orientation sort differently.
        let mut b = ResultSet::new(out);
        b.insert(vec![NodeId(3), NodeId(4)]);
        b.insert(vec![NodeId(1), NodeId(2)]);
        assert_eq!(Digest::of(&a, None), Digest::of(&b, None));
        let dropped = Digest::of(&a, Some(0));
        assert_eq!(dropped.rows, 1);
        assert_ne!(dropped, Digest::of(&a, None));
        // Swapped coordinates are a different answer.
        let mut c = ResultSet::new(vec![QueryNodeId(0), QueryNodeId(1)]);
        c.insert(vec![NodeId(2), NodeId(1)]);
        c.insert(vec![NodeId(3), NodeId(4)]);
        assert_ne!(Digest::of(&a, None), Digest::of(&c, None));
    }

    #[test]
    fn checksum_depends_on_fold_order() {
        let d1 = Digest { rows: 1, hash: 10 };
        let d2 = Digest { rows: 2, hash: 20 };
        let mut x = Checksum::default();
        x.fold(d1);
        x.fold(d2);
        let mut y = Checksum::default();
        y.fold(d2);
        y.fold(d1);
        assert_ne!(x, y);
    }
}
