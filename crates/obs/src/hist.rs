//! Lock-free log-bucketed latency histograms (HDR-style).
//!
//! Values are `u64`s (the service records nanoseconds) bucketed into a
//! log-linear layout: `SUB_BITS` sub-buckets per power of two, giving a
//! bounded relative error of `2^-SUB_BITS` (12.5%) per bucket across the
//! whole `u64` range with a fixed `BUCKETS`-slot table.  Recording is one
//! relaxed `fetch_add` plus `fetch_min`/`fetch_max` — no locks, safe to
//! hammer from any number of threads — and a [`HistogramSnapshot`] is a
//! plain copy with percentile and cumulative-count queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power of two is split into `2^SUB_BITS`
/// linear sub-buckets.
pub(crate) const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS; // 8

/// Number of buckets covering the whole `u64` range.
pub(crate) const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Bucket index of `v` (log-linear layout).
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (msb as usize - SUB_BITS as usize) * SUB + SUB + sub
}

/// Inclusive upper bound of bucket `index` — every value in the bucket is
/// `<=` this bound, and the bound itself maps back into the bucket.
pub(crate) fn bucket_bound(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let i = index - SUB;
    let msb = (i / SUB) as u32 + SUB_BITS;
    let sub = (i % SUB) as u64;
    let low = (1u64 << msb) + (sub << (msb - SUB_BITS));
    low + ((1u64 << (msb - SUB_BITS)) - 1)
}

/// A lock-free log-bucketed histogram of `u64` samples.
///
/// ```
/// use gtpq_obs::LogHistogram;
///
/// let h = LogHistogram::new();
/// for v in [10, 20, 30, 1_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.min, 10);
/// assert_eq!(snap.max, 1_000);
/// assert!(snap.percentile(0.5) >= 20 && snap.percentile(0.5) <= 23);
/// ```
#[derive(Debug)]
pub struct LogHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (relaxed atomics; callable from any thread).
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Point-in-time copy.  Concurrent recorders may skew individual
    /// buckets against the totals by in-flight samples — the usual contract
    /// for service counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: match self.min.load(Ordering::Relaxed) {
                u64::MAX => 0,
                v => v,
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LogHistogram`], with percentile queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub(crate) sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (`0.0 ..= 1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`, clamped into
    /// the recorded `[min, max]`.  Zero when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`percentile`](Self::percentile) as a `Duration` (for histograms fed
    /// by [`LogHistogram::record_duration`]).
    pub fn percentile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.percentile(q))
    }

    /// The sum of the samples as a `Duration` (for histograms fed by
    /// [`LogHistogram::record_duration`]): the exact total time observed.
    pub fn sum_duration(&self) -> Duration {
        Duration::from_nanos(self.sum)
    }

    /// Number of samples recorded into buckets whose upper bound is
    /// `<= bound` — the Prometheus `le` counter, up to bucket resolution.
    pub(crate) fn cumulative_le(&self, bound: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_bound(*i) <= bound)
            .map(|(_, &c)| c)
            .sum()
    }

    /// `(bucket upper bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_self_consistent() {
        // Every bucket's bound maps back into the bucket, and the next value
        // starts the next bucket.
        for i in 0..BUCKETS {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "bound {bound} of bucket {i}");
            if let Some(next) = bound.checked_add(1) {
                assert_eq!(bucket_index(next), i + 1, "value {next}");
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Relative error is bounded by 2^-SUB_BITS.
        for v in [100u64, 1_000, 123_456, 10_u64.pow(9), u64::MAX / 3] {
            let bound = bucket_bound(bucket_index(v));
            assert!(bound >= v);
            assert!((bound - v) as f64 <= v as f64 / (1 << SUB_BITS) as f64 + 1.0);
        }
    }

    #[test]
    fn percentiles_track_known_distributions() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        let p50 = snap.percentile(0.5);
        assert!((450..=575).contains(&p50), "p50 {p50}");
        let p99 = snap.percentile(0.99);
        assert!((980..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(snap.percentile(1.0), 1000);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = LogHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.percentile(0.5), 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.nonzero_buckets().count(), 0);
    }

    #[test]
    fn cumulative_le_counts_below_bound() {
        let h = LogHistogram::new();
        for v in [1u64, 2, 3, 1000, 2000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.cumulative_le(3), 3);
        assert_eq!(snap.cumulative_le(u64::MAX), 5);
        assert_eq!(snap.cumulative_le(0), 0);
    }

    #[test]
    fn durations_round_trip_in_nanos() {
        let h = LogHistogram::new();
        h.record_duration(Duration::from_micros(250));
        let snap = h.snapshot();
        let p100 = snap.percentile_duration(1.0);
        assert_eq!(p100, Duration::from_nanos(250_000));
    }
}
