//! The Voter dynamics (Protocol 1 of the paper) and its lazy variant.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **Voter dynamics** (Protocol 1): adopt a uniformly random opinion
/// from the sample, i.e. `g(k) = k/ℓ` for both own opinions (Eq. 1).
///
/// The paper proves (Theorem 2) that Voter solves bit dissemination in
/// `O(n log n)` parallel rounds w.h.p. — nearly matching the `Ω(n^{1−ε})`
/// lower bound of Theorem 1. Since samples are uniform, the behaviour does
/// not depend on `ℓ`; the canonical choice is `ℓ = 1`.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::Voter, Opinion, Protocol};
/// let v = Voter::new(4)?;
/// assert_eq!(v.prob_one(Opinion::Zero, 2, 100), 0.5);
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Voter {
    ell: usize,
}

impl Voter {
    /// Creates a Voter dynamics with sample size `ell`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0`.
    pub fn new(ell: usize) -> Result<Self, ProtocolError> {
        if ell == 0 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        Ok(Self { ell })
    }
}

impl Protocol for Voter {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, ones_in_sample: usize, _n: u64) -> f64 {
        debug_assert!(ones_in_sample <= self.ell);
        ones_in_sample as f64 / self.ell as f64
    }

    fn name(&self) -> String {
        format!("voter(l={})", self.ell)
    }
}

/// The **lazy Voter**: with probability `laziness` keep the current opinion,
/// otherwise act as the Voter. `g^[b](k) = λ·b + (1−λ)·k/ℓ`.
///
/// Its bias polynomial is identically zero, just like the plain Voter —
/// a useful second witness for Lemma 11 (any `F_n ≡ 0` protocol is
/// almost-linearly slow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LazyVoter {
    ell: usize,
    laziness: f64,
}

impl LazyVoter {
    /// Creates a lazy Voter with sample size `ell` and laziness
    /// `λ ∈ [0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0`, or
    /// [`ProtocolError::InvalidProbability`] if `laziness` is not in
    /// `[0, 1)` (laziness 1 would freeze the system).
    pub fn new(ell: usize, laziness: f64) -> Result<Self, ProtocolError> {
        if ell == 0 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        if !laziness.is_finite() || !(0.0..1.0).contains(&laziness) {
            return Err(ProtocolError::InvalidProbability { own: 0, k: 0, value: laziness });
        }
        Ok(Self { ell, laziness })
    }

    /// The laziness parameter `λ`.
    #[must_use]
    pub fn laziness(&self) -> f64 {
        self.laziness
    }
}

impl Protocol for LazyVoter {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, own: Opinion, ones_in_sample: usize, _n: u64) -> f64 {
        debug_assert!(ones_in_sample <= self.ell);
        let voter = ones_in_sample as f64 / self.ell as f64;
        self.laziness * f64::from(own.as_bit()) + (1.0 - self.laziness) * voter
    }

    fn name(&self) -> String {
        format!("lazy-voter(l={}, lambda={})", self.ell, self.laziness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolExt;

    #[test]
    fn voter_rule_is_linear_in_k() {
        let v = Voter::new(5).unwrap();
        for k in 0..=5 {
            let expect = k as f64 / 5.0;
            assert_eq!(v.prob_one(Opinion::Zero, k, 10), expect);
            assert_eq!(v.prob_one(Opinion::One, k, 10), expect);
        }
    }

    #[test]
    fn voter_satisfies_prop3() {
        for ell in 1..=7 {
            assert!(Voter::new(ell).unwrap().check_proposition3(100).is_ok());
        }
    }

    #[test]
    fn voter_rejects_zero_samples() {
        assert_eq!(Voter::new(0).unwrap_err(), ProtocolError::ZeroSampleSize);
    }

    #[test]
    fn lazy_voter_interpolates() {
        let lv = LazyVoter::new(2, 0.5).unwrap();
        // Own = 1, sees no ones: 0.5·1 + 0.5·0 = 0.5.
        assert_eq!(lv.prob_one(Opinion::One, 0, 10), 0.5);
        // Own = 0, sees all ones: 0.5·0 + 0.5·1 = 0.5.
        assert_eq!(lv.prob_one(Opinion::Zero, 2, 10), 0.5);
        assert_eq!(lv.laziness(), 0.5);
    }

    #[test]
    fn lazy_voter_satisfies_prop3() {
        let lv = LazyVoter::new(3, 0.9).unwrap();
        assert!(lv.check_proposition3(50).is_ok());
        assert!(!lv.is_own_independent(50));
    }

    #[test]
    fn lazy_voter_validates_params() {
        assert!(LazyVoter::new(0, 0.5).is_err());
        assert!(LazyVoter::new(2, 1.0).is_err());
        assert!(LazyVoter::new(2, -0.1).is_err());
        assert!(LazyVoter::new(2, f64::NAN).is_err());
    }

    #[test]
    fn lazy_voter_with_zero_laziness_is_voter() {
        let lv = LazyVoter::new(3, 0.0).unwrap();
        let v = Voter::new(3).unwrap();
        for k in 0..=3 {
            for own in Opinion::ALL {
                assert_eq!(lv.prob_one(own, k, 10), v.prob_one(own, k, 10));
            }
        }
    }

    #[test]
    fn names_mention_parameters() {
        assert_eq!(Voter::new(2).unwrap().name(), "voter(l=2)");
        assert!(LazyVoter::new(2, 0.25).unwrap().name().contains("0.25"));
    }
}
