//! The power-Voter family: a tunable-bias dynamics.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **power Voter**: `g(k) = (k/ℓ)^α` for a fixed exponent `α > 0`.
///
/// This family exists to exercise both branches of the Theorem 12 proof:
///
/// * `α = 1` is exactly the Voter — bias polynomial `F_n ≡ 0` (Lemma 11);
/// * `α < 1`: by Jensen's inequality the expected adoption probability
///   exceeds `p`, so `F_n > 0` on `(0, 1)` — **Case 2** (the protocol drifts
///   towards 1, so it is slow whenever the correct opinion is 0);
/// * `α > 1`: `F_n < 0` on `(0, 1)` — **Case 1** (slow when the correct
///   opinion is 1).
///
/// Proposition 3 holds for every `α` since `g(0) = 0` and `g(ℓ) = 1`.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::PowerVoter, Opinion, Protocol};
/// let p = PowerVoter::new(2, 2.0)?;
/// assert_eq!(p.prob_one(Opinion::Zero, 1, 10), 0.25); // (1/2)²
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerVoter {
    ell: usize,
    alpha: f64,
}

impl PowerVoter {
    /// Creates a power Voter with sample size `ell` and exponent `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0`, or
    /// [`ProtocolError::InvalidProbability`] if `alpha` is not finite and
    /// strictly positive.
    pub fn new(ell: usize, alpha: f64) -> Result<Self, ProtocolError> {
        if ell == 0 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(ProtocolError::InvalidProbability { own: 0, k: 0, value: alpha });
        }
        Ok(Self { ell, alpha })
    }

    /// The exponent `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Protocol for PowerVoter {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= self.ell);
        (k as f64 / self.ell as f64).powf(self.alpha)
    }

    fn name(&self) -> String {
        format!("power-voter(l={}, alpha={})", self.ell, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Voter;
    use crate::protocol::ProtocolExt;
    use proptest::prelude::*;

    #[test]
    fn alpha_one_is_voter() {
        let pv = PowerVoter::new(4, 1.0).unwrap();
        let v = Voter::new(4).unwrap();
        for k in 0..=4 {
            assert_eq!(pv.prob_one(Opinion::Zero, k, 10), v.prob_one(Opinion::Zero, k, 10));
        }
    }

    #[test]
    fn satisfies_prop3_for_all_alpha() {
        for &alpha in &[0.25, 0.5, 1.0, 2.0, 5.0] {
            let pv = PowerVoter::new(3, alpha).unwrap();
            assert!(pv.check_proposition3(10).is_ok(), "alpha={alpha}");
        }
    }

    #[test]
    fn sublinear_alpha_inflates_probabilities() {
        let pv = PowerVoter::new(4, 0.5).unwrap();
        let v = Voter::new(4).unwrap();
        for k in 1..4 {
            assert!(pv.prob_one(Opinion::Zero, k, 10) > v.prob_one(Opinion::Zero, k, 10), "k={k}");
        }
    }

    #[test]
    fn validates_parameters() {
        assert!(PowerVoter::new(0, 1.0).is_err());
        assert!(PowerVoter::new(2, 0.0).is_err());
        assert!(PowerVoter::new(2, -1.0).is_err());
        assert!(PowerVoter::new(2, f64::INFINITY).is_err());
    }

    proptest! {
        #[test]
        fn prop_outputs_are_probabilities(
            ell in 1usize..12,
            alpha in 0.1f64..8.0,
            k in 0usize..12,
        ) {
            prop_assume!(k <= ell);
            let pv = PowerVoter::new(ell, alpha).unwrap();
            let g = pv.prob_one(Opinion::Zero, k, 10);
            prop_assert!((0.0..=1.0).contains(&g));
        }
    }
}
