//! Regression and scaling-model fitting.
//!
//! The paper's theorems are *shape* statements: convergence times scale like
//! `n^{1−ε}` (Theorem 1), `n log n` (Theorem 2) or `log² n` (Minority with
//! large samples). This module fits those scaling laws to measured
//! `(n, T(n))` series and reports which model explains the data best.

/// Result of an ordinary-least-squares fit `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted intercept.
    pub intercept: f64,
    /// Fitted slope.
    pub slope: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit; 0 when
    /// the data has zero variance explained).
    pub r_squared: f64,
}

/// Fits `y = a + b·x` by ordinary least squares.
///
/// Returns `None` if fewer than two points are given, if lengths differ, or
/// if `x` has zero variance.
///
/// # Examples
///
/// ```
/// use bitdissem_stats::regression::linear_fit;
/// let fit = linear_fit(&[1.0, 2.0, 3.0], &[3.0, 5.0, 7.0]).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|&xi| (xi - mx).powi(2)).sum();
    let sxy: f64 = x.iter().zip(y).map(|(&xi, &yi)| (xi - mx) * (yi - my)).sum();
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = y.iter().map(|&yi| (yi - my).powi(2)).sum();
    let ss_res: f64 = x.iter().zip(y).map(|(&xi, &yi)| (yi - intercept - slope * xi).powi(2)).sum();
    let r_squared = if ss_tot == 0.0 { 1.0 } else { (1.0 - ss_res / ss_tot).max(0.0) };
    Some(LinearFit { intercept, slope, r_squared })
}

/// Fits a power law `y = c·x^b` by OLS in log–log space; returns
/// `(exponent b, prefactor c, R² of the log–log fit)`.
///
/// Returns `None` under the same conditions as [`linear_fit`] or if any
/// input is non-positive.
///
/// # Examples
///
/// ```
/// use bitdissem_stats::fit_power_law;
/// let x = [10.0, 100.0, 1000.0];
/// let y: Vec<f64> = x.iter().map(|&v: &f64| 3.0 * v.powf(1.5)).collect();
/// let (b, c, r2) = fit_power_law(&x, &y).unwrap();
/// assert!((b - 1.5).abs() < 1e-9);
/// assert!((c - 3.0).abs() < 1e-6);
/// assert!(r2 > 0.999_999);
/// ```
#[must_use]
pub fn fit_power_law(x: &[f64], y: &[f64]) -> Option<(f64, f64, f64)> {
    if x.iter().chain(y).any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let lx: Vec<f64> = x.iter().map(|&v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|&v| v.ln()).collect();
    let fit = linear_fit(&lx, &ly)?;
    Some((fit.slope, fit.intercept.exp(), fit.r_squared))
}

/// Candidate scaling models for convergence-time series `T(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalingModel {
    /// `T(n) = c · n^b` — the almost-linear regime of Theorem 1.
    PowerLaw,
    /// `T(n) = c · n ln n` — the Voter upper bound of Theorem 2.
    NLogN,
    /// `T(n) = c · (ln n)²` — the Minority fast regime of Becchetti et al.
    LogSquared,
    /// `T(n) = c · n` — plain linear.
    Linear,
}

impl ScalingModel {
    /// All candidate models.
    pub const ALL: [ScalingModel; 4] = [
        ScalingModel::PowerLaw,
        ScalingModel::NLogN,
        ScalingModel::LogSquared,
        ScalingModel::Linear,
    ];

    /// The model's regressor `f(n)` for proportional fitting `T ≈ c·f(n)`.
    /// For [`ScalingModel::PowerLaw`] the regressor is `n` itself and the
    /// exponent is free (fit in log–log space).
    #[must_use]
    pub fn regressor(self, n: f64) -> f64 {
        match self {
            ScalingModel::PowerLaw | ScalingModel::Linear => n,
            ScalingModel::NLogN => n * n.ln(),
            ScalingModel::LogSquared => n.ln() * n.ln(),
        }
    }
}

impl std::fmt::Display for ScalingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingModel::PowerLaw => write!(f, "c*n^b"),
            ScalingModel::NLogN => write!(f, "c*n*ln(n)"),
            ScalingModel::LogSquared => write!(f, "c*ln(n)^2"),
            ScalingModel::Linear => write!(f, "c*n"),
        }
    }
}

/// Outcome of comparing scaling models on one series.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    /// Per-model `(model, prefactor c, R² in log–log space)`. For
    /// `PowerLaw` the free exponent replaces a fixed one and is reported in
    /// [`ModelComparison::power_law_exponent`].
    pub fits: Vec<(ScalingModel, f64, f64)>,
    /// Fitted exponent of the free power-law model.
    pub power_law_exponent: f64,
    /// The fixed-shape model (`NLogN`, `LogSquared`, `Linear`) with the
    /// smallest residual sum of squares in log space: the highest R² when
    /// the series varies, and the flattest shape when it does not.
    pub best_fixed: ScalingModel,
}

/// Compares the candidate scaling models on a `(n, T)` series.
///
/// Fits are performed in log space: for each fixed-shape model
/// `T ≈ c·f(n)`, we regress `ln T` on `ln f(n)` with slope constrained to 1
/// (i.e. `c = exp(mean(ln T − ln f))`) and report the R² of that constrained
/// fit; for the power law the exponent is free. The best fixed model is
/// the one with the smallest residual sum of squares. Where the series
/// varies (`ss_tot > 0`) that is the R² order; on a flat series every
/// constrained fit reports R² = 1, and the residuals still tell the shapes
/// apart.
///
/// Returns `None` on degenerate input (fewer than 3 points, non-positive
/// values).
#[must_use]
pub fn compare_models(n: &[f64], t: &[f64]) -> Option<ModelComparison> {
    if n.len() != t.len() || n.len() < 3 {
        return None;
    }
    if n.iter().chain(t).any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let (b, _c, r2_pl) = fit_power_law(n, t)?;
    let mut fits = vec![(ScalingModel::PowerLaw, b, r2_pl)];
    let mut best_fixed = ScalingModel::Linear;
    let mut best_ss_res = f64::INFINITY;
    for model in [ScalingModel::NLogN, ScalingModel::LogSquared, ScalingModel::Linear] {
        let lf: Vec<f64> = n.iter().map(|&v| model.regressor(v).ln()).collect();
        let lt: Vec<f64> = t.iter().map(|&v| v.ln()).collect();
        // Constrained slope-1 fit: ln T = ln c + ln f(n).
        let ln_c = lt.iter().zip(&lf).map(|(a, b)| a - b).sum::<f64>() / lt.len() as f64;
        let my = lt.iter().sum::<f64>() / lt.len() as f64;
        let ss_tot: f64 = lt.iter().map(|&v| (v - my).powi(2)).sum();
        let ss_res: f64 = lt.iter().zip(&lf).map(|(&a, &f)| (a - ln_c - f).powi(2)).sum();
        let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
        fits.push((model, ln_c.exp(), r2));
        if ss_res < best_ss_res {
            best_ss_res = ss_res;
            best_fixed = model;
        }
    }
    Some(ModelComparison { fits, power_law_exponent: b, best_fixed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_fit_degenerate_inputs() {
        assert!(linear_fit(&[1.0], &[1.0]).is_none());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_none());
        assert!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn linear_fit_recovers_noiseless_line() {
        let x: Vec<f64> = (1..=10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|&v| -2.0 + 0.5 * v).collect();
        let f = linear_fit(&x, &y).unwrap();
        assert!((f.slope - 0.5).abs() < 1e-12);
        assert!((f.intercept + 2.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_decreases_with_noise() {
        let x: Vec<f64> = (1..=50).map(f64::from).collect();
        let clean: Vec<f64> = x.iter().map(|&v| 3.0 * v).collect();
        // Deterministic "noise".
        let noisy: Vec<f64> = x.iter().map(|&v| 3.0 * v + 20.0 * ((v * 12.9898).sin())).collect();
        let fc = linear_fit(&x, &clean).unwrap();
        let fnoisy = linear_fit(&x, &noisy).unwrap();
        assert!(fc.r_squared > fnoisy.r_squared);
    }

    #[test]
    fn power_law_rejects_nonpositive() {
        assert!(fit_power_law(&[1.0, 0.0], &[1.0, 2.0]).is_none());
        assert!(fit_power_law(&[1.0, 2.0], &[-1.0, 2.0]).is_none());
    }

    #[test]
    fn compare_models_identifies_nlogn() {
        let n: Vec<f64> = (3..12).map(|k| f64::from(1 << k)).collect();
        let t: Vec<f64> = n.iter().map(|&v| 2.5 * v * v.ln()).collect();
        let cmp = compare_models(&n, &t).unwrap();
        assert_eq!(cmp.best_fixed, ScalingModel::NLogN);
        // Free power-law exponent should be slightly above 1.
        assert!(cmp.power_law_exponent > 1.0 && cmp.power_law_exponent < 1.3);
    }

    #[test]
    fn compare_models_identifies_log_squared() {
        let n: Vec<f64> = (3..14).map(|k| f64::from(1 << k)).collect();
        let t: Vec<f64> = n.iter().map(|&v| 4.0 * v.ln() * v.ln()).collect();
        let cmp = compare_models(&n, &t).unwrap();
        assert_eq!(cmp.best_fixed, ScalingModel::LogSquared);
        assert!(cmp.power_law_exponent < 0.5);
    }

    #[test]
    fn flat_series_picks_the_flattest_shape() {
        // Constant T(n). Where the log-space mean of the series is exact
        // (four or five points of 6.0), ss_tot = 0 and every constrained
        // fit reports R² = 1, so ranking by R² handed the win to the first
        // model tried (n ln n). The residuals rank ln(n)², the
        // slowest-growing shape, first at every length.
        for len in 3..=8 {
            let n: Vec<f64> = (10..10 + len).map(|k| f64::from(1 << k)).collect();
            let cmp = compare_models(&n, &vec![6.0; n.len()]).unwrap();
            assert_eq!(cmp.best_fixed, ScalingModel::LogSquared, "{len} points: {:?}", cmp.fits);
            assert!(cmp.power_law_exponent.abs() < 1e-12, "{len} points");
        }
    }

    #[test]
    fn compare_models_identifies_linear() {
        let n: Vec<f64> = (3..12).map(|k| f64::from(1 << k)).collect();
        let t: Vec<f64> = n.iter().map(|&v| 0.7 * v).collect();
        let cmp = compare_models(&n, &t).unwrap();
        assert_eq!(cmp.best_fixed, ScalingModel::Linear);
        assert!((cmp.power_law_exponent - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_model_display_and_regressor() {
        for m in ScalingModel::ALL {
            assert!(!m.to_string().is_empty());
            assert!(m.regressor(100.0) > 0.0);
        }
        assert_eq!(ScalingModel::Linear.regressor(5.0), 5.0);
        assert!(
            (ScalingModel::NLogN.regressor(std::f64::consts::E) - std::f64::consts::E).abs()
                < 1e-12
        );
    }

    proptest! {
        #[test]
        fn prop_power_law_recovery(
            b in -2.0f64..3.0,
            c in 0.1f64..100.0,
        ) {
            let x: Vec<f64> = (1..=8).map(|k| f64::from(1 << k)).collect();
            let y: Vec<f64> = x.iter().map(|&v| c * v.powf(b)).collect();
            let (bb, cc, r2) = fit_power_law(&x, &y).unwrap();
            prop_assert!((bb - b).abs() < 1e-6);
            prop_assert!((cc - c).abs() / c < 1e-6);
            prop_assert!(r2 > 0.999);
        }

        #[test]
        fn prop_linear_fit_residual_orthogonality(
            pts in proptest::collection::vec((0.0f64..100.0, -100.0f64..100.0), 3..40),
        ) {
            let x: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let y: Vec<f64> = pts.iter().map(|p| p.1).collect();
            if let Some(f) = linear_fit(&x, &y) {
                // OLS residuals sum to ~0.
                let res_sum: f64 = x.iter().zip(&y)
                    .map(|(&xi, &yi)| yi - f.intercept - f.slope * xi)
                    .sum();
                prop_assert!(res_sum.abs() < 1e-6 * (y.len() as f64) * 100.0);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&f.r_squared));
            }
        }
    }
}
