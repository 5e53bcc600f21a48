//! Root structure of the bias polynomial.

use bitdissem_poly::roots::{roots_in_unit_interval, sign_intervals};
use bitdissem_poly::sturm::count_distinct_roots;

use crate::bias::BiasPolynomial;

/// The roots of `F_n` in `[0, 1]` together with its maximal constant-sign
/// intervals — the combinatorial object that drives the Theorem 12 case
/// split.
///
/// # Examples
///
/// ```
/// use bitdissem_core::dynamics::Minority;
/// use bitdissem_analysis::{bias::BiasPolynomial, roots::RootStructure};
///
/// let f = BiasPolynomial::build(&Minority::new(3)?, 100)?;
/// let rs = RootStructure::analyze(&f);
/// // Minority(3): F(p) = −p + 3p(1−p)² + p³ has roots 0, 1/2, 1.
/// assert_eq!(rs.roots().len(), 3);
/// assert_eq!(rs.sign_intervals().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RootStructure {
    roots: Vec<f64>,
    intervals: Vec<(f64, f64, i8)>,
    identically_zero: bool,
}

impl RootStructure {
    /// Default root-refinement tolerance.
    pub const DEFAULT_TOL: f64 = 1e-12;

    /// Analyzes the root structure of a bias polynomial.
    #[must_use]
    pub fn analyze(f: &BiasPolynomial) -> Self {
        if f.is_identically_zero() {
            return Self { roots: Vec::new(), intervals: Vec::new(), identically_zero: true };
        }
        let b = f.as_bernstein();
        let roots = roots_in_unit_interval(b, Self::DEFAULT_TOL);
        let intervals = sign_intervals(b, &roots);
        Self { roots, intervals, identically_zero: false }
    }

    /// Sorted sign-crossing roots of `F_n` in `[0, 1]` (including the
    /// Proposition-3 endpoint roots 0 and 1).
    #[must_use]
    pub fn roots(&self) -> &[f64] {
        &self.roots
    }

    /// Maximal open intervals of constant non-zero sign, as
    /// `(lo, hi, sign)` with `sign ∈ {−1, +1}`.
    #[must_use]
    pub fn sign_intervals(&self) -> &[(f64, f64, i8)] {
        &self.intervals
    }

    /// Whether `F_n ≡ 0` (the Lemma 11 / Voter case).
    #[must_use]
    pub fn is_identically_zero(&self) -> bool {
        self.identically_zero
    }

    /// The rightmost constant-sign interval — the computational counterpart
    /// of the interval `(r^{(k₀−1)}, r^{(k₀)})` used in the Theorem 12
    /// proof (with `r^{(k₀)} → 1`).
    ///
    /// Returns `None` for the identically-zero case or if no sign interval
    /// exists (numerically flat polynomial).
    #[must_use]
    pub fn rightmost_interval(&self) -> Option<(f64, f64, i8)> {
        self.intervals.last().copied()
    }

    /// Independent root-count cross-check via Sturm sequences (ablation
    /// A3). Returns the number of distinct roots counted in `(−δ, 1 + δ]`.
    #[must_use]
    pub fn sturm_root_count(f: &BiasPolynomial) -> usize {
        if f.is_identically_zero() {
            return 0;
        }
        count_distinct_roots(f.as_polynomial(), -1e-9, 1.0 + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{Majority, Minority, PowerVoter, TwoChoices, Voter};

    #[test]
    fn voter_structure_is_trivial() {
        let f = BiasPolynomial::build(&Voter::new(2).unwrap(), 100).unwrap();
        let rs = RootStructure::analyze(&f);
        assert!(rs.is_identically_zero());
        assert!(rs.roots().is_empty());
        assert!(rs.rightmost_interval().is_none());
        assert_eq!(RootStructure::sturm_root_count(&f), 0);
    }

    #[test]
    fn minority3_roots_are_0_half_1() {
        let f = BiasPolynomial::build(&Minority::new(3).unwrap(), 100).unwrap();
        let rs = RootStructure::analyze(&f);
        let expect = [0.0, 0.5, 1.0];
        assert_eq!(rs.roots().len(), 3);
        for (r, e) in rs.roots().iter().zip(expect) {
            assert!((r - e).abs() < 1e-9, "{r} vs {e}");
        }
        // Positive on (0, 1/2) — drift toward the balanced configuration —
        // then negative on (1/2, 1).
        assert_eq!(rs.sign_intervals()[0].2, 1);
        assert_eq!(rs.sign_intervals()[1].2, -1);
        assert_eq!(rs.rightmost_interval().unwrap().2, -1);
    }

    #[test]
    fn majority3_rightmost_interval_is_positive() {
        let f = BiasPolynomial::build(&Majority::new(3).unwrap(), 100).unwrap();
        let rs = RootStructure::analyze(&f);
        let (lo, hi, sign) = rs.rightmost_interval().unwrap();
        assert!((lo - 0.5).abs() < 1e-9);
        assert!((hi - 1.0).abs() < 1e-9);
        assert_eq!(sign, 1);
    }

    #[test]
    fn power_voter_has_single_interior_interval() {
        let f = BiasPolynomial::build(&PowerVoter::new(3, 2.0).unwrap(), 100).unwrap();
        let rs = RootStructure::analyze(&f);
        assert_eq!(rs.sign_intervals().len(), 1);
        let (lo, hi, sign) = rs.rightmost_interval().unwrap();
        assert!(lo < 0.01 && hi > 0.99);
        assert_eq!(sign, -1);
    }

    #[test]
    fn two_choices_structure() {
        // TwoChoices: P1 = p² + 2p(1−p)·1 + ... compute F:
        // g⁰=[0,0,1], g¹=[0,1,1] ⇒
        // F(p) = −p + p²(1−p)·2·[p·1+(1−p)·0] … easier: trust signs at
        // sample points: symmetric drift toward nearest consensus.
        let f = BiasPolynomial::build(&TwoChoices::new(), 100).unwrap();
        let rs = RootStructure::analyze(&f);
        assert!(f.eval(0.25) < 0.0);
        assert!(f.eval(0.75) > 0.0);
        assert!(rs.roots().len() >= 3);
    }

    #[test]
    fn sturm_agrees_with_bernstein_on_suite() {
        for f in [
            BiasPolynomial::build(&Minority::new(3).unwrap(), 64).unwrap(),
            BiasPolynomial::build(&Majority::new(3).unwrap(), 64).unwrap(),
            BiasPolynomial::build(&Minority::new(5).unwrap(), 64).unwrap(),
        ] {
            let rs = RootStructure::analyze(&f);
            assert_eq!(
                rs.roots().len(),
                RootStructure::sturm_root_count(&f),
                "{}",
                f.protocol_name()
            );
        }
    }

    #[test]
    fn intervals_partition_consistently() {
        let f = BiasPolynomial::build(&Minority::new(5).unwrap(), 128).unwrap();
        let rs = RootStructure::analyze(&f);
        for w in rs.sign_intervals().windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12, "intervals must be ordered");
        }
        for &(lo, hi, sign) in rs.sign_intervals() {
            let mid = 0.5 * (lo + hi);
            assert_eq!(f.eval(mid) > 0.0, sign > 0, "sign mismatch at {mid}");
        }
    }
}
