//! Two-sample and paired comparison.
//!
//! The simulator-equivalence ablation (A1) and the integration tests need a
//! principled "are these two samples from the same distribution?" check:
//! the two-sample Kolmogorov–Smirnov statistic with its asymptotic
//! significance level. `bitdissem bench` needs the other question, "is the
//! change faster than its base?", answered from paired runs: [`paired_ab`]
//! counts pair wins, an exact sign-test p-value and the median gap against
//! the base's spread, and reads a [`Verdict`] by thresholds declared up
//! front ([`AB_MIN_PAIRS`], [`AB_WIN_TENTHS`]).

use crate::summary::Summary;

/// The two-sample Kolmogorov–Smirnov statistic
/// `D = sup_x |F̂_a(x) − F̂_b(x)|`.
///
/// Returns `None` if either sample is empty or contains non-finite values.
///
/// # Examples
///
/// ```
/// use bitdissem_stats::compare::ks_statistic;
/// let a = [1.0, 2.0, 3.0];
/// let b = [1.0, 2.0, 3.0];
/// assert_eq!(ks_statistic(&a, &b), Some(0.0));
/// ```
#[must_use]
pub fn ks_statistic(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    if a.iter().chain(b).any(|x| !x.is_finite()) {
        return None;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let (na, nb) = (sa.len(), sb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let xa = sa[i];
        let xb = sb[j];
        let x = xa.min(xb);
        while i < na && sa[i] <= x {
            i += 1;
        }
        while j < nb && sb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na as f64;
        let fb = j as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    Some(d)
}

/// The asymptotic Kolmogorov–Smirnov two-sample critical value at
/// significance `alpha`: `c(α)·sqrt((n_a + n_b)/(n_a·n_b))` with
/// `c(α) = sqrt(−ln(α/2)/2)`. A statistic above this rejects equality at
/// level `α`.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1)` or a sample size is 0.
#[must_use]
pub fn ks_critical_value(na: usize, nb: usize, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    assert!(na > 0 && nb > 0, "samples must be non-empty");
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * (((na + nb) as f64) / ((na * nb) as f64)).sqrt()
}

/// Convenience: returns `true` if the two samples are *compatible* with a
/// common distribution at significance `alpha` (i.e. KS does **not**
/// reject).
///
/// # Panics
///
/// Panics on the same conditions as [`ks_critical_value`]; returns `false`
/// for degenerate inputs where the statistic is undefined.
#[must_use]
pub fn same_distribution(a: &[f64], b: &[f64], alpha: f64) -> bool {
    match ks_statistic(a, b) {
        Some(d) => d <= ks_critical_value(a.len(), b.len(), alpha),
        None => false,
    }
}

/// Fewest pairs on which a paired A/B comparison reads anything but
/// [`Verdict::Unresolved`].
pub const AB_MIN_PAIRS: usize = 10;

/// Share of all pairs, in tenths, that one side must win for a verdict by
/// pairs: nine tenths, ties counting for neither side.
pub const AB_WIN_TENTHS: usize = 9;

/// The direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as benchmark specifications spell it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The verdict of a paired A/B comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better, beyond the base's own spread.
    Improved,
    /// The change is worse, beyond the base's own spread or the metric's
    /// bound.
    Regressed,
    /// Neither could be shown.
    Unresolved,
}

impl Verdict {
    /// The lowercase name printed and recorded.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side's samples ([`Summary::quantile`]'s
/// linear interpolation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    fn of(xs: &[f64]) -> Option<Self> {
        let s = Summary::from_samples(xs)?;
        Some(Quartiles { q1: s.quantile(0.25), median: s.median(), q3: s.quantile(0.75) })
    }
}

/// A paired A/B comparison of one metric: pair `i` holds the base's and
/// the change's value measured back to back on the same input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedAb {
    /// Number of pairs.
    pub pairs: usize,
    /// The base's quartiles.
    pub base: Quartiles,
    /// The change's quartiles.
    pub change: Quartiles,
    /// Pairs in which the change reads better.
    pub wins: usize,
    /// Pairs in which the change reads worse.
    pub losses: usize,
    /// Pairs in which both read the same.
    pub ties: usize,
    /// Exact one-sided sign-test p-value in the direction the pairs lean:
    /// `P(X ≥ max(wins, losses))` for `X ~ Bin(wins + losses, ½)`.
    pub sign_p: f64,
    /// Change median minus base median.
    pub gap: f64,
    /// `gap` over the base's interquartile range (not finite when that
    /// range is 0).
    pub gap_over_iqr: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired samples of one metric.
///
/// The verdict is [`Verdict::Unresolved`] below [`AB_MIN_PAIRS`] pairs.
/// From there it is [`Verdict::Improved`] when the change wins at least
/// [`AB_WIN_TENTHS`] tenths of the pairs and its median beats the base's
/// by more than the base's interquartile range; [`Verdict::Regressed`] on
/// the mirror image, or when the change's median is worse than the base's
/// by more than `bound` (relative) while the base's interquartile range is
/// within `bound` of its median; unresolved otherwise.
///
/// Returns `None` if the samples are empty, of different lengths, or not
/// finite.
#[must_use]
pub fn paired_ab(base: &[f64], change: &[f64], better: Better, bound: f64) -> Option<PairedAb> {
    if base.len() != change.len() {
        return None;
    }
    let (b, c) = (Quartiles::of(base)?, Quartiles::of(change)?);
    // Positive `edge` means the change reads better.
    let edge = |base: f64, change: f64| match better {
        Better::Lower => base - change,
        Better::Higher => change - base,
    };
    let (mut wins, mut losses) = (0, 0);
    for (&x, &y) in base.iter().zip(change) {
        let e = edge(x, y);
        wins += usize::from(e > 0.0);
        losses += usize::from(e < 0.0);
    }
    let pairs = base.len();
    let iqr = b.q3 - b.q1;
    let gain = edge(b.median, c.median);
    let by_pairs = |n: usize| n * 10 >= AB_WIN_TENTHS * pairs;
    let rel = |x: f64| x / b.median.abs();
    let verdict = if pairs < AB_MIN_PAIRS {
        Verdict::Unresolved
    } else if by_pairs(wins) && gain > iqr {
        Verdict::Improved
    } else if (by_pairs(losses) && -gain > iqr) || (rel(-gain) > bound && rel(iqr) <= bound) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    Some(PairedAb {
        pairs,
        base: b,
        change: c,
        wins,
        losses,
        ties: pairs - wins - losses,
        sign_p: sign_test_p(wins.max(losses), wins + losses),
        gap: c.median - b.median,
        gap_over_iqr: (c.median - b.median) / iqr,
        verdict,
    })
}

/// `P(X ≥ k)` for `X ~ Bin(n, ½)`, summed in log space so large `n`
/// neither overflows nor underflows the binomial coefficients.
fn sign_test_p(k: usize, n: usize) -> f64 {
    let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
    let mut ln_choose = 0.0; // ln C(n, i)
    let mut p = 0.0;
    for i in 0..=n {
        if i >= k {
            p += (ln_choose + ln_half_n).exp();
        }
        if i < n {
            ln_choose += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
        }
    }
    p.min(1.0)
}

/// Lag-`k` sample autocorrelation of a series (used to sanity-check the
/// oscillation analysis of E12: a period-2 oscillation has lag-1
/// autocorrelation near −1).
///
/// Returns `None` if the series is shorter than `k + 2` or has zero
/// variance.
#[must_use]
pub fn autocorrelation(series: &[f64], k: usize) -> Option<f64> {
    if series.len() < k + 2 {
        return None;
    }
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|&x| (x - mean).powi(2)).sum();
    if var == 0.0 {
        return None;
    }
    let cov: f64 = (0..n - k).map(|i| (series[i] - mean) * (series[i + k] - mean)).sum();
    Some(cov / var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_samples_have_zero_statistic() {
        let a = [3.0, 1.0, 2.0, 5.0];
        assert_eq!(ks_statistic(&a, &a), Some(0.0));
        assert!(same_distribution(&a, &a, 0.05));
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0];
        assert_eq!(ks_statistic(&a, &b), Some(1.0));
        // The asymptotic critical value exceeds 1 for such tiny samples, so
        // rejection needs more data.
        let big_a: Vec<f64> = (0..30).map(f64::from).collect();
        let big_b: Vec<f64> = (100..130).map(f64::from).collect();
        assert!(!same_distribution(&big_a, &big_b, 0.05));
    }

    #[test]
    fn handles_empty_and_nonfinite() {
        assert_eq!(ks_statistic(&[], &[1.0]), None);
        assert_eq!(ks_statistic(&[f64::NAN], &[1.0]), None);
        assert!(!same_distribution(&[], &[1.0], 0.05));
    }

    #[test]
    fn known_small_case() {
        // F̂_a steps at 1,2; F̂_b steps at 2,3. Max gap is 0.5 at x in [1,2).
        let a = [1.0, 2.0];
        let b = [2.0, 3.0];
        let d = ks_statistic(&a, &b).unwrap();
        assert!((d - 0.5).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        let small = ks_critical_value(20, 20, 0.05);
        let large = ks_critical_value(2000, 2000, 0.05);
        assert!(large < small);
    }

    #[test]
    fn shifted_distributions_are_rejected_with_enough_data() {
        // Deterministic "samples" from U[0,1] vs U[0.3, 1.3].
        let a: Vec<f64> = (0..500).map(|i| f64::from(i) / 500.0).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.3).collect();
        assert!(!same_distribution(&a, &b, 0.01));
    }

    /// Ten base pass times, 10.0 … 10.9 s: median 10.45, IQR 0.45.
    fn base_times() -> Vec<f64> {
        (0..10).map(|i| 10.0 + f64::from(i) / 10.0).collect()
    }

    /// The base shifted by `shift`, except that the first `flipped` pairs
    /// read `0.05` the other way.
    fn shifted(base: &[f64], shift: f64, flipped: usize) -> Vec<f64> {
        let away = if shift < 0.0 { 0.05 } else { -0.05 };
        base.iter().enumerate().map(|(i, x)| x + if i < flipped { away } else { shift }).collect()
    }

    #[test]
    fn ten_of_ten_wins_beyond_the_iqr_read_improved() {
        let base = base_times();
        let ab = paired_ab(&base, &shifted(&base, -1.0, 0), Better::Lower, 0.25).unwrap();
        assert_eq!((ab.wins, ab.losses, ab.ties), (10, 0, 0));
        assert!((ab.sign_p - 1.0 / 1024.0).abs() < 1e-15, "{ab:?}");
        assert!((ab.gap + 1.0).abs() < 1e-12 && (ab.gap_over_iqr + 1.0 / 0.45).abs() < 1e-9);
        assert_eq!(ab.verdict, Verdict::Improved);
    }

    #[test]
    fn nine_of_ten_read_improved_and_eight_unresolved() {
        let base = base_times();
        let nine = paired_ab(&base, &shifted(&base, -1.0, 1), Better::Lower, 0.25).unwrap();
        assert_eq!((nine.wins, nine.losses), (9, 1));
        assert!((nine.sign_p - 11.0 / 1024.0).abs() < 1e-15, "{nine:?}");
        assert_eq!(nine.verdict, Verdict::Improved);
        let eight = paired_ab(&base, &shifted(&base, -1.0, 2), Better::Lower, 0.25).unwrap();
        assert_eq!((eight.wins, eight.losses), (8, 2));
        assert!((eight.sign_p - 56.0 / 1024.0).abs() < 1e-15, "{eight:?}");
        assert_eq!(eight.verdict, Verdict::Unresolved);
    }

    #[test]
    fn mirror_images_read_regressed() {
        let base = base_times();
        for (flipped, p) in [(0, 1.0 / 1024.0), (1, 11.0 / 1024.0)] {
            let ab = paired_ab(&base, &shifted(&base, 1.0, flipped), Better::Lower, 0.25).unwrap();
            assert_eq!((ab.wins, ab.losses), (flipped, 10 - flipped));
            assert!((ab.sign_p - p).abs() < 1e-15, "{ab:?}");
            assert_eq!(ab.verdict, Verdict::Regressed);
        }
        let eight = paired_ab(&base, &shifted(&base, 1.0, 2), Better::Lower, 0.25).unwrap();
        assert_eq!(eight.verdict, Verdict::Unresolved);
        // A throughput reads the other way round: higher is better.
        let higher = paired_ab(&base, &shifted(&base, 1.0, 0), Better::Higher, 0.25).unwrap();
        assert_eq!((higher.wins, higher.verdict), (10, Verdict::Improved));
        let lower = paired_ab(&base, &shifted(&base, -1.0, 0), Better::Higher, 0.25).unwrap();
        assert_eq!((lower.losses, lower.verdict), (10, Verdict::Regressed));
    }

    #[test]
    fn a_gap_beyond_the_bound_regresses_at_six_losses() {
        // Narrow base spread (IQR 0.045 on a median of 10.045); the change
        // loses six pairs by ~40% and wins four.
        let base: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) / 100.0).collect();
        let change: Vec<f64> =
            base.iter().enumerate().map(|(i, _)| if i < 6 { 14.0 } else { 9.9 }).collect();
        let ab = paired_ab(&base, &change, Better::Lower, 0.25).unwrap();
        assert_eq!((ab.wins, ab.losses), (4, 6));
        assert_eq!(ab.verdict, Verdict::Regressed);
        // Within a looser bound, six losses alone prove nothing.
        let loose = paired_ab(&base, &change, Better::Lower, 0.5).unwrap();
        assert_eq!(loose.verdict, Verdict::Unresolved);
        // Nor does the bound fire when the base's own spread exceeds it.
        let wide: Vec<f64> = (0..10).map(|i| 5.0 + f64::from(i)).collect();
        let worse: Vec<f64> = wide.iter().map(|x| x * 1.3).collect();
        let ab = paired_ab(&wide, &worse, Better::Lower, 0.25).unwrap();
        assert_eq!((ab.losses, ab.verdict), (10, Verdict::Unresolved));
    }

    #[test]
    fn nine_pairs_are_always_unresolved() {
        let base = &base_times()[..9];
        for shift in [-5.0, -1.0, 1.0, 5.0] {
            let ab = paired_ab(base, &shifted(base, shift, 0), Better::Lower, 0.25).unwrap();
            assert_eq!(ab.pairs, 9);
            assert_eq!(ab.verdict, Verdict::Unresolved, "shift {shift}");
        }
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = base_times();
        let mut change = shifted(&base, -1.0, 0);
        change[0] = base[0];
        let ab = paired_ab(&base, &change, Better::Lower, 0.25).unwrap();
        assert_eq!((ab.wins, ab.losses, ab.ties), (9, 0, 1));
        // The sign test runs on the nine untied pairs.
        assert!((ab.sign_p - 1.0 / 512.0).abs() < 1e-15, "{ab:?}");
        assert_eq!(ab.verdict, Verdict::Improved);
        change[1] = base[1];
        let ab = paired_ab(&base, &change, Better::Lower, 0.25).unwrap();
        assert_eq!((ab.wins, ab.losses, ab.ties), (8, 0, 2));
        assert_eq!(ab.verdict, Verdict::Unresolved);
        let all_tied = paired_ab(&base, &base, Better::Lower, 0.25).unwrap();
        assert_eq!((all_tied.ties, all_tied.sign_p), (10, 1.0));
        assert_eq!(all_tied.verdict, Verdict::Unresolved);
    }

    #[test]
    fn paired_ab_rejects_degenerate_inputs() {
        assert!(paired_ab(&[], &[], Better::Lower, 0.25).is_none());
        assert!(paired_ab(&[1.0], &[1.0, 2.0], Better::Lower, 0.25).is_none());
        assert!(paired_ab(&[f64::NAN], &[1.0], Better::Lower, 0.25).is_none());
    }

    #[test]
    fn sign_test_p_sums_the_upper_binomial_tail() {
        assert_eq!(sign_test_p(0, 0), 1.0);
        assert!((sign_test_p(3, 4) - 5.0 / 16.0).abs() < 1e-15);
        // Large n neither overflows nor loses the tail.
        let p = sign_test_p(600, 1000);
        assert!(p > 0.0 && p < 1e-9, "{p}");
        assert!((sign_test_p(0, 2000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_minus_one() {
        let series: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r1 = autocorrelation(&series, 1).unwrap();
        assert!((r1 + 1.0).abs() < 0.05, "r1 = {r1}");
        let r2 = autocorrelation(&series, 2).unwrap();
        assert!((r2 - 1.0).abs() < 0.05, "r2 = {r2}");
    }

    #[test]
    fn autocorrelation_degenerate_cases() {
        assert!(autocorrelation(&[1.0, 1.0, 1.0], 1).is_none()); // zero variance
        assert!(autocorrelation(&[1.0], 1).is_none()); // too short
    }

    proptest! {
        #[test]
        fn prop_ks_statistic_is_in_unit_interval(
            a in proptest::collection::vec(-100.0f64..100.0, 1..60),
            b in proptest::collection::vec(-100.0f64..100.0, 1..60),
        ) {
            let d = ks_statistic(&a, &b).unwrap();
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn prop_ks_is_symmetric(
            a in proptest::collection::vec(-10.0f64..10.0, 1..40),
            b in proptest::collection::vec(-10.0f64..10.0, 1..40),
        ) {
            prop_assert_eq!(ks_statistic(&a, &b), ks_statistic(&b, &a));
        }
    }
}
