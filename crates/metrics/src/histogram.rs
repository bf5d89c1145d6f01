//! A log-bucketed histogram with percentile estimation.
//!
//! Values are assigned to buckets of geometrically increasing width: each
//! power of two is split into [`SUB_BUCKETS`] linear sub-buckets, bounding
//! the relative quantile error to about `1 / SUB_BUCKETS`. Recording is a
//! single relaxed atomic increment; histograms merge losslessly, which is
//! what lets per-node latency distributions aggregate into the cluster-level
//! P50/P90/P95 numbers the paper reports (Figures 10, and §6.1.4's Meta
//! production percentiles).

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per power of two. 32 gives ~3 % worst-case error.
pub const SUB_BUCKETS: usize = 32;
/// Number of powers of two covered (u64 value range).
const EXPONENTS: usize = 64;
/// Total bucket count.
const BUCKETS: usize = EXPONENTS * SUB_BUCKETS;

/// Maps a value to its bucket index.
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        // Values smaller than SUB_BUCKETS get exact buckets.
        return value as usize;
    }
    let exp = 63 - value.leading_zeros() as usize;
    let shift = exp.saturating_sub(SUB_BUCKETS.trailing_zeros() as usize);
    let sub = ((value >> shift) as usize) - SUB_BUCKETS;
    // Region for exponent `exp` starts after the exact region.
    let base = (exp + 1 - SUB_BUCKETS.trailing_zeros() as usize) * SUB_BUCKETS;
    (base + sub).min(BUCKETS - 1)
}

/// Returns a representative (midpoint) value for a bucket index.
fn bucket_midpoint(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let log_sub = SUB_BUCKETS.trailing_zeros() as usize;
    let region = index / SUB_BUCKETS; // ≥ 1
    let sub = index % SUB_BUCKETS;
    let exp = region + log_sub - 1;
    let shift = exp - log_sub;
    let low = ((SUB_BUCKETS + sub) as u64) << shift;
    let width = 1u64 << shift;
    low + width / 2
}

/// A concurrent log-bucketed histogram.
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // An array literal of non-Copy atomics needs a loop; build via Vec.
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> =
            counts.into_boxed_slice().try_into().expect("exact length");
        Self {
            counts,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&self, value: u64, n: u64) {
        self.counts[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean of observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum.load(Ordering::Relaxed) as f64 / n as f64)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`). Exact for the min/max
    /// endpoints; bucket-midpoint elsewhere. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min.load(Ordering::Relaxed));
        }
        if q >= 1.0 {
            return Some(self.max.load(Ordering::Relaxed));
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                let mid = bucket_midpoint(i);
                let lo = self.min.load(Ordering::Relaxed);
                let hi = self.max.load(Ordering::Relaxed);
                return Some(mid.clamp(lo, hi));
            }
        }
        Some(self.max.load(Ordering::Relaxed))
    }

    /// Convenience: the 50th/90th/95th/99th percentiles.
    pub fn percentiles(&self) -> Option<Percentiles> {
        Some(Percentiles {
            p50: self.quantile(0.50)?,
            p90: self.quantile(0.90)?,
            p95: self.quantile(0.95)?,
            p99: self.quantile(0.99)?,
        })
    }

    /// Takes a serializable snapshot (sparse representation).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, c) in self.counts.iter().enumerate() {
            let v = c.load(Ordering::Relaxed);
            if v > 0 {
                buckets.push((i as u32, v));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Merges a snapshot into this histogram (used for aggregation).
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        for &(i, c) in &snap.buckets {
            self.counts[i as usize].fetch_add(c, Ordering::Relaxed);
        }
        self.total.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        if snap.count > 0 {
            self.min.fetch_min(snap.min, Ordering::Relaxed);
            self.max.fetch_max(snap.max, Ordering::Relaxed);
        }
    }
}

/// Selected percentiles of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    pub p50: u64,
    pub p90: u64,
    pub p95: u64,
    pub p99: u64,
}

impl Serialize for Percentiles {
    fn to_value(&self) -> serde::Value {
        let mut object = std::collections::BTreeMap::new();
        object.insert("p50".to_owned(), self.p50.to_value());
        object.insert("p90".to_owned(), self.p90.to_value());
        object.insert("p95".to_owned(), self.p95.to_value());
        object.insert("p99".to_owned(), self.p99.to_value());
        serde::Value::Object(object)
    }
}

impl Deserialize for Percentiles {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            p50: serde::field(value, "p50")?,
            p90: serde::field(value, "p90")?,
            p95: serde::field(value, "p95")?,
            p99: serde::field(value, "p99")?,
        })
    }
}

/// A serializable, mergeable snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Sparse `(bucket_index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> serde::Value {
        let mut object = std::collections::BTreeMap::new();
        object.insert("buckets".to_owned(), self.buckets.to_value());
        object.insert("count".to_owned(), self.count.to_value());
        object.insert("sum".to_owned(), self.sum.to_value());
        object.insert("min".to_owned(), self.min.to_value());
        object.insert("max".to_owned(), self.max.to_value());
        serde::Value::Object(object)
    }
}

impl Deserialize for HistogramSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            buckets: serde::field(value, "buckets")?,
            count: serde::field(value, "count")?,
            sum: serde::field(value, "sum")?,
            min: serde::field(value, "min")?,
            max: serde::field(value, "max")?,
        })
    }
}

impl HistogramSnapshot {
    /// Rehydrates into a [`Histogram`] for quantile queries.
    pub fn to_histogram(&self) -> Histogram {
        let h = Histogram::new();
        h.merge_snapshot(self);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            5,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of({v}) = {b} < {last}");
            last = b;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_midpoint(v as usize), v);
        }
    }

    #[test]
    fn midpoint_is_inside_bucket() {
        for v in [32u64, 100, 999, 12345, 1 << 22, (1 << 40) + 7] {
            let b = bucket_of(v);
            let mid = bucket_midpoint(b);
            assert_eq!(bucket_of(mid), b, "midpoint of bucket({v}) maps back");
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert!(h.percentiles().is_none());
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap() as f64;
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.05, "p99 = {p99}");
        assert_eq!(h.quantile(0.0).unwrap(), 1);
        assert_eq!(h.quantile(1.0).unwrap(), 10_000);
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), Some(20.0));
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..5000u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record(v * 3);
            all.record(v * 3);
        }
        let merged = Histogram::new();
        merged.merge_snapshot(&a.snapshot());
        merged.merge_snapshot(&b.snapshot());
        assert_eq!(merged.count(), all.count());
        assert_eq!(merged.quantile(0.5), all.quantile(0.5));
        assert_eq!(merged.quantile(0.95), all.quantile(0.95));
        assert_eq!(merged.snapshot(), all.snapshot());
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(77, 100);
        for _ in 0..100 {
            b.record(77);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_round_trips_through_histogram() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 500, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let h2 = snap.to_histogram();
        assert_eq!(h2.snapshot(), snap);
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        // A value in a wide bucket: error must stay within ~1/SUB_BUCKETS.
        let v = 1_234_567u64;
        h.record(v);
        let est = h.quantile(0.5).unwrap() as f64;
        assert!((est - v as f64).abs() / v as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-9);
    }

    mod bucket_properties {
        use super::*;
        use proptest::prelude::*;

        /// Inclusive `[low, high]` range of values mapping to bucket
        /// `index`, derived independently of `bucket_of`'s bit tricks.
        fn bucket_bounds(index: usize) -> (u64, u64) {
            if index < SUB_BUCKETS {
                return (index as u64, index as u64);
            }
            let log_sub = SUB_BUCKETS.trailing_zeros() as usize;
            let region = index / SUB_BUCKETS;
            let sub = index % SUB_BUCKETS;
            let exp = region + log_sub - 1;
            let shift = exp - log_sub;
            let low = ((SUB_BUCKETS + sub) as u64) << shift;
            (low, low + ((1u64 << shift) - 1))
        }

        /// The largest reachable bucket index (the one holding u64::MAX).
        fn top_bucket() -> usize {
            bucket_of(u64::MAX)
        }

        proptest! {
            /// value → index → bounds roundtrip over the full u64 range:
            /// every value lands in a bucket whose bounds contain it, the
            /// bucket edges map back to the same index, and the next value
            /// past the upper edge starts the next bucket.
            #[test]
            fn value_index_bounds_roundtrip(v in any::<u64>()) {
                let index = bucket_of(v);
                let (low, high) = bucket_bounds(index);
                prop_assert!(low <= v && v <= high,
                    "value {v} outside bucket {index} = [{low}, {high}]");
                prop_assert_eq!(bucket_of(low), index);
                prop_assert_eq!(bucket_of(high), index);
                let mid = bucket_midpoint(index);
                prop_assert!(low <= mid && mid <= high);
                if high < u64::MAX {
                    prop_assert_eq!(bucket_of(high + 1), index + 1,
                        "bucket {index} upper edge not adjacent to next");
                }
                if low > 0 {
                    prop_assert_eq!(bucket_of(low - 1), index - 1,
                        "bucket {index} lower edge not adjacent to previous");
                }
            }

            /// The mapping is monotone: larger values never map to a
            /// smaller bucket.
            #[test]
            fn mapping_is_monotone(a in any::<u64>(), b in any::<u64>()) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                prop_assert!(bucket_of(lo) <= bucket_of(hi));
            }
        }

        #[test]
        fn every_reachable_bucket_roundtrips_exhaustively() {
            // All buckets up to the one holding u64::MAX (the tail of the
            // BUCKETS array is headroom the shift math never reaches).
            let top = top_bucket();
            assert!(top < BUCKETS);
            for index in 0..=top {
                let (low, high) = bucket_bounds(index);
                assert_eq!(bucket_of(low), index, "low edge of {index}");
                assert_eq!(bucket_of(high), index, "high edge of {index}");
                assert_eq!(
                    bucket_of(bucket_midpoint(index)),
                    index,
                    "midpoint of {index}"
                );
            }
            assert_eq!(bucket_bounds(top).1, u64::MAX, "top bucket ends at MAX");
        }
    }
}
