//! Lock-free log-linear latency histogram (HDR-style).
//!
//! Values (nanoseconds, or any other u64 magnitude — commit batch sizes,
//! byte counts) land in buckets that are exact below 32 and otherwise split
//! each power-of-two range into 32 linear sub-buckets, so the reported
//! percentile overestimates the true value by at most ~3% — bounded
//! *relative* error at every magnitude, from sub-microsecond cache hits to
//! multi-second cold scans, in a few KB of atomics.
//!
//! Grown out of `hd-engine`'s serving histogram into the workspace-wide
//! telemetry primitive: every stage span and write-path measurement records
//! into one of these, and [`LatencyHistogram::merge`] folds per-component
//! histograms into fleet aggregates.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two (2^5); also the threshold below which
/// values map to their own exact bucket.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const NUM_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Concurrent latency histogram; `record` is wait-free, `percentiles` reads
/// one racy-but-consistent copy of the buckets (fine for monitoring).
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values — the `_sum` of the Prometheus summary and
    /// the numerator of [`LatencyHistogram::mean`].
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros(); // >= SUB_BITS
        let sub = (value >> (exp - SUB_BITS)) & (SUB - 1);
        (SUB + (exp - SUB_BITS) as u64 * SUB + sub) as usize
    }
}

/// Inclusive upper bound of a bucket — the value `percentile` reports.
fn bucket_upper(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB {
        bucket
    } else {
        let exp = (bucket - SUB) / SUB + SUB_BITS as u64;
        let sub = (bucket - SUB) % SUB;
        // Range [base + sub*width, base + (sub+1)*width), width = 2^(exp-5).
        // The topmost bucket's bound overflows u64; clamp via u128.
        let width = 1u128 << (exp - SUB_BITS as u64);
        let upper = (1u128 << exp) + (u128::from(sub) + 1) * width - 1;
        upper.min(u128::from(u64::MAX)) as u64
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation (nanoseconds).
    pub fn record(&self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` observations of the same value (a batch of queries that
    /// completed together shares one latency).
    pub fn record_n(&self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(nanos)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(nanos.saturating_mul(n), Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded values; 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Value (nanoseconds) at quantile `q ∈ [0, 1]`: the upper bound of the
    /// bucket containing the ⌈q·count⌉-th smallest observation. Returns 0
    /// for an empty histogram. One rung of [`Self::percentiles`].
    pub fn percentile(&self, q: f64) -> u64 {
        self.percentiles(&[q])[0]
    }

    /// [`Self::percentile`] for every quantile in `qs`, all read from one
    /// load of the buckets. Under concurrent recording each call sees one
    /// consistent state, so a ladder like `[0.5, 0.9, 0.99]` is monotone
    /// even mid-write — separate `percentile` calls could each see a
    /// different state and cross.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        let snapshot: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        qs.iter()
            .map(|&q| {
                if total == 0 {
                    return 0;
                }
                let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
                let mut seen = 0u64;
                for (b, &n) in snapshot.iter().enumerate() {
                    seen += n;
                    if seen >= rank {
                        return bucket_upper(b);
                    }
                }
                unreachable!("rank ≤ total is reached by the last bucket")
            })
            .collect()
    }

    /// Folds `other`'s observations into `self`, bucket by bucket. Like
    /// `percentile`, the walk is racy-but-monotone under concurrent
    /// recording: every observation that was in `other` before the call
    /// lands in `self`; observations recorded into `other` *during* the
    /// call may or may not be included.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Clears all counters.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_32() {
        for v in 0..32u64 {
            assert_eq!(bucket_of(v) as u64, v);
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
    }

    #[test]
    fn upper_bounds_are_tight_and_monotone() {
        let mut last = 0;
        for v in [32u64, 33, 63, 64, 100, 1_000, 123_456, 10_000_000, u64::MAX / 2] {
            let b = bucket_of(v);
            let upper = bucket_upper(b);
            assert!(upper >= v, "upper {upper} below value {v}");
            assert!(
                (upper - v) as f64 <= v as f64 / 32.0 + 1.0,
                "relative error too large at {v}: upper {upper}"
            );
            assert!(upper >= last, "upper bounds must be monotone");
            last = upper;
        }
    }

    #[test]
    fn extreme_value_clamps_instead_of_overflowing() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        // record_n's per-call multiply saturates rather than wrapping.
        let h2 = LatencyHistogram::new();
        h2.record_n(u64::MAX, 3);
        assert_eq!(h2.sum(), u64::MAX);
        assert_eq!(h2.count(), 3);
    }

    #[test]
    fn percentiles_of_known_small_distribution() {
        // 1..=10 once each: every value sits in its own exact bucket, so
        // percentiles are exact order statistics.
        let h = LatencyHistogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), 5);
        assert_eq!(h.percentile(0.1), 1);
        assert_eq!(h.percentile(1.0), 10);
        assert_eq!(h.percentile(0.0), 1, "q=0 is the minimum observation");
        assert_eq!(h.sum(), 55);
        assert!((h.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_uniform_distribution_within_bucket_error() {
        let h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.percentile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.04, "p{q}: got {got}, want ~{expect} (err {err:.3})");
        }
        assert!(h.percentile(0.5) <= h.percentile(0.95));
        assert!(h.percentile(0.95) <= h.percentile(0.99));
    }

    #[test]
    fn ladder_matches_single_percentiles() {
        let h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let qs = [0.0, 0.5, 0.9, 0.99, 1.0];
        let ladder = h.percentiles(&qs);
        let singles: Vec<u64> = qs.iter().map(|&q| h.percentile(q)).collect();
        assert_eq!(ladder, singles);
        assert_eq!(LatencyHistogram::new().percentiles(&qs), vec![0; qs.len()]);
    }

    #[test]
    fn bimodal_distribution_separates_modes() {
        // 90% fast (~1µs), 10% slow (~1ms): p50 must sit in the fast mode,
        // p99 in the slow mode — the whole point of a latency histogram.
        let h = LatencyHistogram::new();
        h.record_n(1_000, 90);
        h.record_n(1_000_000, 10);
        assert!(h.percentile(0.5) < 2_000);
        assert!(h.percentile(0.99) > 900_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn reset_clears() {
        let h = LatencyHistogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn merge_is_count_sum_and_percentile_exact() {
        // Two disjoint exact-bucket distributions: after merge the combined
        // histogram reports exact order statistics over the union.
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in 1..=5u64 {
            a.record(v);
        }
        for v in 6..=10u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 10);
        assert_eq!(a.sum(), 55);
        assert_eq!(a.percentile(0.5), 5);
        assert_eq!(a.percentile(1.0), 10);
        // The source histogram is untouched.
        assert_eq!(b.count(), 5);
        assert_eq!(b.percentile(1.0), 10);
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let a = LatencyHistogram::new();
        a.record_n(100, 3);
        let before = (a.count(), a.sum(), a.percentile(0.99));
        a.merge(&LatencyHistogram::new());
        assert_eq!((a.count(), a.sum(), a.percentile(0.99)), before);
    }

    #[test]
    fn merge_then_reset_round_trips() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        b.record_n(1_000, 50);
        a.merge(&b);
        assert_eq!(a.count(), 50);
        a.reset();
        assert_eq!(a.count(), 0);
        assert_eq!(a.sum(), 0);
        assert_eq!(a.percentile(0.5), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
    }
}
