//! Streaming log-bucketed histograms: the workspace's one histogram type.
//!
//! [`LogHistogram`] records `u64` values (nanoseconds, or round counts for
//! the `hist/` series) into HDR-style buckets: each power-of-two range is
//! split into 16 linear sub-buckets, so quantile estimates carry a bounded
//! relative error (≤ 1/16 ≈ 6.25%) at every magnitude, with no range to
//! configure, while the histogram itself stays a fixed ~8 KiB of counters —
//! no samples are stored, and finding a bucket is a handful of integer
//! operations. Spans, phases, the striped telemetry cells
//! ([`crate::telemetry::AtomicHistogram`] stripes these same buckets) and
//! the offline `trace` report all bucket through it, so every view of a
//! series reports the same quantiles.

use std::time::Duration;

/// Number of linear sub-buckets per power-of-two range.
const SUB_BUCKETS: u64 = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Values below `SUB_BUCKETS` get one exact bucket each; every later
/// power-of-two range contributes `SUB_BUCKETS` buckets.
pub(crate) const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// A streaming histogram over `u64` values with logarithmic buckets.
///
/// # Examples
///
/// ```
/// use bitdissem_obs::hist::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [100, 200, 300, 400, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 10_000);
/// // Quantiles are bucket upper bounds: within 1/16 of the true value.
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((187..=320).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    bins: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram { bins: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// The bucket `v` lands in.
    #[inline]
    pub(crate) fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        // Exponent of the leading bit (≥ SUB_BITS here); the SUB_BITS bits
        // below it select the linear sub-bucket within the range.
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB_BUCKETS - 1);
        ((u64::from(e) - u64::from(SUB_BITS) + 1) * SUB_BUCKETS + sub) as usize
    }

    /// The inclusive upper bound of bucket `idx` (the value a quantile
    /// falling in this bucket reports).
    fn upper_bound(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let e = idx / SUB_BUCKETS - 1 + u64::from(SUB_BITS);
        let sub = idx % SUB_BUCKETS;
        let lower = (SUB_BUCKETS + sub) << (e - u64::from(SUB_BITS));
        lower + ((1u64 << (e - u64::from(SUB_BITS))) - 1)
    }

    /// The inclusive lower bound of bucket `idx`.
    fn lower_bound(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            Self::upper_bound(idx - 1) + 1
        }
    }

    /// Rebuilds a histogram from merged bucket counts and the sum, minimum
    /// and maximum read beside them (the snapshot path of the striped
    /// cells). The count is the sum of `bins`, and the extremes are clamped
    /// into the lowest and highest non-empty buckets, so a snapshot that
    /// raced a writer (bins read before or after that writer's extremes)
    /// is still internally consistent.
    pub(crate) fn from_parts(bins: Vec<u64>, sum: u128, min: u64, max: u64) -> Self {
        debug_assert_eq!(bins.len(), BUCKETS);
        let count = bins.iter().sum();
        let (Some(lo), Some(hi)) =
            (bins.iter().position(|&c| c > 0), bins.iter().rposition(|&c| c > 0))
        else {
            return LogHistogram::new();
        };
        LogHistogram {
            bins,
            count,
            sum,
            min: min.clamp(Self::lower_bound(lo), Self::upper_bound(lo)),
            max: max.clamp(Self::lower_bound(hi), Self::upper_bound(hi)),
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.bins[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as whole nanoseconds (saturating).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Per-bucket counts, in bucket order.
    #[must_use]
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) as a bucket upper bound, clamped to
    /// the exact observed maximum. Returns `None` on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample (1-based, at least 1).
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::upper_bound(idx).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// One-line `p50/p90/p99/max` summary, each value formatted by `unit`
    /// (e.g. [`fmt_nanos`]).
    #[must_use]
    pub fn render(&self, unit: fn(u64) -> String) -> String {
        if self.count == 0 {
            return "empty".to_string();
        }
        let q = |p: f64| unit(self.quantile(p).unwrap_or(0));
        format!(
            "p50={} p90={} p99={} max={} ({} samples)",
            q(0.50),
            q(0.90),
            q(0.99),
            unit(self.max),
            self.count
        )
    }
}

/// Formats a nanosecond count with an adaptive unit.
#[must_use]
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n < 1e3 {
        format!("{nanos}ns")
    } else if n < 1e6 {
        format!("{:.1}us", n / 1e3)
    } else if n < 1e9 {
        format!("{:.2}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.render(fmt_nanos), "empty");
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
        // Below SUB_BUCKETS each value has its own bucket: the median of
        // 0..=15 is exact.
        assert_eq!(h.quantile(0.5), Some(7));
    }

    #[test]
    fn index_and_upper_bound_are_consistent() {
        // Every value must land in a bucket whose upper bound is >= the
        // value and within 1/16 relative error.
        for &v in &[0u64, 1, 15, 16, 17, 31, 32, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let idx = LogHistogram::index(v);
            let ub = LogHistogram::upper_bound(idx);
            assert!(ub >= v, "v={v} idx={idx} ub={ub}");
            assert!(ub as f64 <= v as f64 * (1.0 + 1.0 / 16.0) + 1.0, "v={v} ub={ub}");
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut prev = 0;
        for idx in 1..BUCKETS {
            let ub = LogHistogram::upper_bound(idx);
            assert!(ub > prev, "idx={idx}: {ub} <= {prev}");
            prev = ub;
        }
    }

    #[test]
    fn from_parts_derives_count_and_clamps_extremes() {
        let mut bins = vec![0; BUCKETS];
        bins[LogHistogram::index(100)] += 2;
        bins[LogHistogram::index(5_000)] += 1;
        let exact = LogHistogram::from_parts(bins.clone(), 5_200, 100, 5_000);
        assert_eq!((exact.count(), exact.sum(), exact.min(), exact.max()), (3, 5_200, 100, 5_000));
        // Extremes a racing reader saw before (or after) the bins they
        // belong to land in the lowest and highest non-empty buckets.
        for (min, max) in [(u64::MAX, 0), (0, u64::MAX)] {
            let h = LogHistogram::from_parts(bins.clone(), 5_200, min, max);
            assert_eq!(LogHistogram::index(h.min()), LogHistogram::index(100));
            assert_eq!(LogHistogram::index(h.max()), LogHistogram::index(5_000));
        }
        assert_eq!(LogHistogram::from_parts(vec![0; BUCKETS], 0, u64::MAX, 0), LogHistogram::new());
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for &(q, exact) in &[(0.5, 5_000.0f64), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let est = h.quantile(q).unwrap() as f64;
            assert!(est >= exact * 0.99, "q={q}: {est} vs {exact}");
            assert!(est <= exact * 1.07, "q={q}: {est} vs {exact}");
        }
        assert_eq!(h.quantile(1.0), Some(10_000));
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        a.record(1_000);
        b.record(5);
        b.record(100_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 100_000);
        assert_eq!(a.sum(), 101_015);
        // Merging an empty histogram changes nothing.
        let snapshot = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, snapshot);
    }

    #[test]
    fn record_duration_and_render() {
        let mut h = LogHistogram::new();
        h.record_duration(Duration::from_micros(250));
        h.record_duration(Duration::from_millis(3));
        let text = h.render(fmt_nanos);
        assert!(text.contains("p50="), "{text}");
        assert!(text.contains("max=3.00ms"), "{text}");
        assert!(text.contains("2 samples"), "{text}");
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(900), "900ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }
}
