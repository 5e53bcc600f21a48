//! The bias polynomial `F_n` (Eq. 3 of the paper).

use bitdissem_core::{GTable, Opinion, Protocol, ProtocolError, ProtocolExt};
use bitdissem_poly::binomial::choose_f64;
use bitdissem_poly::{Bernstein, Polynomial};

/// The bias polynomial of a protocol at population size `n`:
///
/// ```text
/// F_n(p) = −p + Σ_{k=0}^{ℓ} C(ℓ,k) p^k (1−p)^{ℓ−k} (p·g¹(k) + (1−p)·g⁰(k)).
/// ```
///
/// `F_n(p)` is the expected one-round change of the *fraction* of
/// 1-opinions when that fraction is `p` (ignoring the `±1/n` source
/// correction of Proposition 5). It has degree at most `ℓ + 1`, hence a
/// bounded number of roots in `[0, 1]` — the pivot of the whole lower-bound
/// argument.
///
/// # Examples
///
/// ```
/// use bitdissem_core::dynamics::Minority;
/// use bitdissem_analysis::bias::BiasPolynomial;
///
/// let f = BiasPolynomial::build(&Minority::new(3)?, 100)?;
/// // Minority drifts downward above p = 1/2 …
/// assert!(f.eval(0.75) < 0.0);
/// // … and upward below.
/// assert!(f.eval(0.25) > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BiasPolynomial {
    n: u64,
    ell: usize,
    power: Polynomial,
    bernstein: Bernstein,
    protocol_name: String,
}

impl BiasPolynomial {
    /// Builds `F_n` for `protocol` at population size `n`.
    ///
    /// # Errors
    ///
    /// Propagates table materialization errors from the protocol.
    pub fn build<P: Protocol + ?Sized>(protocol: &P, n: u64) -> Result<Self, ProtocolError> {
        let table = protocol.to_table(n)?;
        Ok(Self::from_table(&table, n, protocol.name()))
    }

    /// Builds `F_n` directly from a decision table.
    #[must_use]
    pub fn from_table(table: &GTable, n: u64, protocol_name: String) -> Self {
        let ell = table.sample_size();
        let x = Polynomial::x();
        let one_minus_x = Polynomial::new(vec![1.0, -1.0]);
        let mut f = x.scale(-1.0);
        for k in 0..=ell {
            // basis_k(p) = C(ℓ,k) p^k (1−p)^{ℓ−k}
            let mut basis = Polynomial::constant(choose_f64(ell as u64, k as u64));
            for _ in 0..k {
                basis = &basis * &x;
            }
            for _ in 0..(ell - k) {
                basis = &basis * &one_minus_x;
            }
            let g1 = table.g(Opinion::One, k);
            let g0 = table.g(Opinion::Zero, k);
            // mix(p) = p·g¹(k) + (1−p)·g⁰(k)
            let mix = Polynomial::new(vec![g0, g1 - g0]);
            f = &f + &(&basis * &mix);
        }
        // Numerical noise from the expansion is far below 1e-12 for ℓ ≤ ~40.
        let power = f.cleaned(1e-12);
        // The Bernstein form comes straight from the table, not from the
        // power form, so evaluation stays exact to round-off at any ℓ:
        // p·B_{k,ℓ} = (k+1)/(ℓ+1)·B_{k+1,ℓ+1}, (1−p)·B_{k,ℓ} =
        // (ℓ+1−k)/(ℓ+1)·B_{k,ℓ+1} and p = Σ_j j/(ℓ+1)·B_{j,ℓ+1}, so the
        // degree-(ℓ+1) coefficients are
        // b_j = (j·g¹(j−1) + (ℓ+1−j)·g⁰(j) − j)/(ℓ+1).
        let d = ell + 1;
        let bernstein = Bernstein::new(
            (0..=d)
                .map(|j| {
                    let g1 = if j > 0 { j as f64 * table.g(Opinion::One, j - 1) } else { 0.0 };
                    let g0 = if j < d { (d - j) as f64 * table.g(Opinion::Zero, j) } else { 0.0 };
                    (g1 + g0 - j as f64) / d as f64
                })
                .collect(),
        );
        Self { n, ell, power, bernstein, protocol_name }
    }

    /// Population size the polynomial was built for.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample size `ℓ` of the underlying protocol.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.ell
    }

    /// Name of the protocol (for reports).
    #[must_use]
    pub fn protocol_name(&self) -> &str {
        &self.protocol_name
    }

    /// Power-basis form of `F_n`, for display, its degree and the Sturm
    /// cross-check. Its coefficients grow like `3^ℓ` and its expansion
    /// carries round-off of that size, so roots, signs and the zero test
    /// read [`BiasPolynomial::as_bernstein`] instead.
    #[must_use]
    pub fn as_polynomial(&self) -> &Polynomial {
        &self.power
    }

    /// Bernstein form of `F_n` on `[0, 1]`, built from the table with
    /// coefficients in `[−1, 1]`: evaluation, root isolation, the sign
    /// intervals and the zero test all read it.
    #[must_use]
    pub fn as_bernstein(&self) -> &Bernstein {
        &self.bernstein
    }

    /// Evaluates `F_n(p)` (de Casteljau on the Bernstein form).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn eval(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "F_n is defined on [0,1], got {p}");
        self.bernstein.eval(p)
    }

    /// Returns `true` if `F_n` is (numerically) the zero polynomial — the
    /// Voter-like case handled by Lemma 11: every Bernstein coefficient, and
    /// so `|F_n|` on all of `[0, 1]`, is below `1e-11`.
    #[must_use]
    pub fn is_identically_zero(&self) -> bool {
        self.bernstein.max_abs_coeff() < 1e-11
    }

    /// The drift in *agents per round* at state `x`: `n · F_n(x/n)`.
    ///
    /// # Panics
    ///
    /// Panics if `x > n`.
    #[must_use]
    pub fn drift_at(&self, x: u64) -> f64 {
        assert!(x <= self.n, "state {x} exceeds population {}", self.n);
        self.n as f64 * self.eval(x as f64 / self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{LazyVoter, Majority, Minority, PowerVoter, Stay, Voter};
    use proptest::prelude::*;

    #[test]
    fn voter_bias_is_identically_zero() {
        // Up to ℓ = 63: the power form's round-off read Voter as non-zero
        // from ℓ ≈ 25, the Bernstein form stays exact to round-off.
        for ell in 1..=63 {
            let f = BiasPolynomial::build(&Voter::new(ell).unwrap(), 100).unwrap();
            assert!(f.is_identically_zero(), "ell={ell}: {:?}", f.as_bernstein());
        }
    }

    #[test]
    fn lazy_voter_bias_is_identically_zero() {
        let f = BiasPolynomial::build(&LazyVoter::new(4, 0.7).unwrap(), 100).unwrap();
        assert!(f.is_identically_zero());
    }

    #[test]
    fn stay_bias_is_identically_zero() {
        let f = BiasPolynomial::build(&Stay::new(2), 100).unwrap();
        assert!(f.is_identically_zero());
    }

    #[test]
    fn minority3_bias_matches_hand_expansion() {
        // Minority ℓ=3: g = [0,1,0,1] (own-independent), so
        // F(p) = −p + 3p(1−p)² + p³.
        let f = BiasPolynomial::build(&Minority::new(3).unwrap(), 50).unwrap();
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let expect = -p + 3.0 * p * (1.0 - p) * (1.0 - p) + p * p * p;
            assert!((f.eval(p) - expect).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn majority3_bias_sign_structure() {
        // 3-majority: F(p) = −p + 3p²(1−p) + p³; roots at 0, 1/2, 1;
        // negative below 1/2 (drifts to 0), positive above.
        let f = BiasPolynomial::build(&Majority::new(3).unwrap(), 50).unwrap();
        assert!(f.eval(0.25) < 0.0);
        assert!(f.eval(0.75) > 0.0);
        assert!(f.eval(0.5).abs() < 1e-12);
        assert!(f.eval(0.0).abs() < 1e-15);
        assert!(f.eval(1.0).abs() < 1e-12);
    }

    #[test]
    fn prop3_forces_endpoint_roots() {
        // For any Prop-3-compliant protocol, F_n(0) = F_n(1) = 0.
        for ell in 1..=5 {
            let f = BiasPolynomial::build(&Minority::new(ell).unwrap(), 64).unwrap();
            assert!(f.eval(0.0).abs() < 1e-12);
            assert!(f.eval(1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn power_voter_case_signs() {
        // α > 1 ⇒ F < 0 on (0,1) (Case 1); α < 1 ⇒ F > 0 (Case 2).
        let down = BiasPolynomial::build(&PowerVoter::new(4, 2.0).unwrap(), 100).unwrap();
        let up = BiasPolynomial::build(&PowerVoter::new(4, 0.5).unwrap(), 100).unwrap();
        for i in 1..10 {
            let p = i as f64 / 10.0;
            assert!(down.eval(p) < 0.0, "alpha=2, p={p}: {}", down.eval(p));
            assert!(up.eval(p) > 0.0, "alpha=0.5, p={p}: {}", up.eval(p));
        }
    }

    #[test]
    fn degree_is_at_most_ell_plus_one() {
        for ell in 1..=7 {
            let f = BiasPolynomial::build(&Minority::new(ell).unwrap(), 64).unwrap();
            if let Some(d) = f.as_polynomial().degree() {
                assert!(d <= ell + 1, "ell={ell}, degree {d}");
            }
        }
    }

    #[test]
    fn drift_at_scales_eval() {
        let f = BiasPolynomial::build(&Minority::new(3).unwrap(), 200).unwrap();
        let x = 50;
        assert!((f.drift_at(x) - 200.0 * f.eval(0.25)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "defined on [0,1]")]
    fn eval_outside_unit_interval_panics() {
        let f = BiasPolynomial::build(&Voter::new(1).unwrap(), 10).unwrap();
        let _ = f.eval(1.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_bernstein_and_power_agree(
            g in proptest::collection::vec(0.0f64..=1.0, 2..8),
            p in 0.0f64..=1.0,
        ) {
            let table = bitdissem_core::GTable::symmetric(g).unwrap();
            let f = BiasPolynomial::from_table(&table, 100, "random".into());
            let via_power = f.as_polynomial().eval(p);
            prop_assert!((f.eval(p) - via_power).abs() < 1e-9);
        }

        #[test]
        fn prop_bias_is_bounded_by_one(
            g0 in proptest::collection::vec(0.0f64..=1.0, 2..8),
            p in 0.0f64..=1.0,
        ) {
            // F_n(p) = E[next fraction] − p ∈ [−1, 1] always.
            let table = bitdissem_core::GTable::symmetric(g0).unwrap();
            let f = BiasPolynomial::from_table(&table, 100, "random".into());
            prop_assert!(f.eval(p).abs() <= 1.0 + 1e-9);
        }
    }
}
