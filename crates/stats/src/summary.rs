//! Descriptive statistics with confidence intervals.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Summary statistics of a finite sample.
///
/// Construction sorts a copy of the data once; all queries are then `O(1)`
/// or `O(1)`-ish (quantiles by interpolation on the sorted copy).
///
/// # Examples
///
/// ```
/// use bitdissem_stats::Summary;
///
/// let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), (32.0f64 / 7.0).sqrt());
/// assert_eq!(s.min(), 2.0);
/// assert_eq!(s.max(), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    var: f64,
}

impl Summary {
    /// Builds a summary from samples. Returns `None` if `samples` is empty
    /// or contains non-finite values.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = if sorted.len() > 1 {
            sorted.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Some(Self { sorted, mean, var })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the summary holds no samples (never constructible;
    /// present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for a single sample).
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.var
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        self.std_dev() / (self.len() as f64).sqrt()
    }

    /// Minimum sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Linear-interpolation quantile, `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50% quantile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Normal-theory confidence interval for the mean at the given
    /// two-sided level (e.g. `0.95`): `mean ± z·SE`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)`.
    #[must_use]
    pub fn mean_ci(&self, level: f64) -> (f64, f64) {
        assert!(level > 0.0 && level < 1.0, "level must be in (0,1), got {level}");
        let z = normal_quantile(0.5 + level / 2.0);
        let half = z * self.std_error();
        (self.mean - half, self.mean + half)
    }

    /// Percentile-bootstrap confidence interval for the *median* at the
    /// given level, using `resamples` bootstrap replicates and a fixed seed
    /// for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)` or `resamples == 0`.
    #[must_use]
    pub fn median_bootstrap_ci(&self, level: f64, resamples: usize, seed: u64) -> (f64, f64) {
        assert!(level > 0.0 && level < 1.0, "level must be in (0,1), got {level}");
        assert!(resamples > 0, "need at least one bootstrap resample");
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = self.sorted.len();
        let mut medians = Vec::with_capacity(resamples);
        let mut buf = vec![0.0; n];
        for _ in 0..resamples {
            for slot in &mut buf {
                *slot = self.sorted[rng.random_range(0..n)];
            }
            buf.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let med = if n % 2 == 1 { buf[n / 2] } else { 0.5 * (buf[n / 2 - 1] + buf[n / 2]) };
            medians.push(med);
        }
        let boot = Summary::from_samples(&medians).expect("non-empty, finite");
        let alpha = 1.0 - level;
        (boot.quantile(alpha / 2.0), boot.quantile(1.0 - alpha / 2.0))
    }
}

/// Quantile function (inverse CDF) of the standard normal distribution,
/// via the Acklam rational approximation (absolute error < 1.2e-9).
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    // Coefficients of the Acklam approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
        assert!(Summary::from_samples(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[42.0]).unwrap();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_samples(&[0.0, 1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.quantile(0.5), 2.0);
        assert!((s.quantile(0.25) - 1.0).abs() < 1e-12);
        assert!((s.quantile(0.125) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn median_even_length() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 10.0]).unwrap();
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_out_of_range_panics() {
        let s = Summary::from_samples(&[1.0]).unwrap();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.841_344_75) - 1.0).abs() < 1e-4);
        assert!((normal_quantile(0.999) - 3.090_232).abs() < 1e-4);
    }

    #[test]
    fn mean_ci_covers_mean_and_shrinks() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let s = Summary::from_samples(&data).unwrap();
        let (lo95, hi95) = s.mean_ci(0.95);
        let (lo99, hi99) = s.mean_ci(0.99);
        assert!(lo95 <= s.mean() && s.mean() <= hi95);
        assert!(hi99 - lo99 > hi95 - lo95, "wider level must give wider CI");
    }

    #[test]
    fn bootstrap_ci_brackets_median() {
        let data: Vec<f64> = (0..200).map(f64::from).collect();
        let s = Summary::from_samples(&data).unwrap();
        let (lo, hi) = s.median_bootstrap_ci(0.95, 500, 7);
        assert!(lo <= s.median() && s.median() <= hi, "({lo}, {hi}) vs {}", s.median());
        assert!(hi - lo < 40.0, "CI unexpectedly wide: ({lo}, {hi})");
    }

    #[test]
    fn bootstrap_is_deterministic_given_seed() {
        let data: Vec<f64> = (0..50).map(|i| f64::from(i) * 1.3).collect();
        let s = Summary::from_samples(&data).unwrap();
        assert_eq!(s.median_bootstrap_ci(0.9, 200, 42), s.median_bootstrap_ci(0.9, 200, 42));
    }

    proptest! {
        #[test]
        fn prop_summary_invariants(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::from_samples(&data).unwrap();
            prop_assert!(s.min() <= s.median() && s.median() <= s.max());
            prop_assert!(s.min() <= s.mean() && s.mean() <= s.max());
            prop_assert!(s.variance() >= 0.0);
            // Quantiles are monotone.
            let q1 = s.quantile(0.25);
            let q2 = s.quantile(0.5);
            let q3 = s.quantile(0.75);
            prop_assert!(q1 <= q2 && q2 <= q3);
        }

        #[test]
        fn prop_normal_quantile_symmetry(p in 0.001f64..0.999) {
            let a = normal_quantile(p);
            let b = normal_quantile(1.0 - p);
            prop_assert!((a + b).abs() < 1e-6);
        }
    }
}
