//! The threshold dynamics family.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **θ-threshold dynamics**: adopt opinion 1 exactly when at least `θ`
/// of the `ℓ` samples are 1:
///
/// ```text
/// g(k) = 1 if k >= θ, else 0.
/// ```
///
/// This family interpolates between extreme biases and contains Majority as
/// a special case (`θ = ⌈(ℓ+1)/2⌉` for odd `ℓ`):
///
/// * `θ = 1` is maximally 1-biased ("adopt 1 if you see any 1"): its bias
///   polynomial is positive on `(0, 1)` — a Case 2 protocol;
/// * `θ = ℓ` is maximally 0-biased — Case 1.
///
/// Proposition 3 holds whenever `1 ≤ θ ≤ ℓ`.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::ThresholdRule, Opinion, Protocol};
/// let t = ThresholdRule::new(5, 2)?;
/// assert_eq!(t.prob_one(Opinion::Zero, 1, 10), 0.0);
/// assert_eq!(t.prob_one(Opinion::Zero, 2, 10), 1.0);
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdRule {
    ell: usize,
    theta: usize,
}

impl ThresholdRule {
    /// Creates a threshold dynamics with sample size `ell` and threshold
    /// `theta ∈ {1, …, ℓ}`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0`, or
    /// [`ProtocolError::InvalidProbability`] if `theta` is outside
    /// `{1, …, ℓ}` (a threshold of 0 or `> ℓ` would break Proposition 3).
    pub fn new(ell: usize, theta: usize) -> Result<Self, ProtocolError> {
        if ell == 0 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        if theta == 0 || theta > ell {
            return Err(ProtocolError::InvalidProbability {
                own: 0,
                k: theta,
                value: theta as f64,
            });
        }
        Ok(Self { ell, theta })
    }

    /// The threshold `θ`.
    #[must_use]
    pub fn theta(&self) -> usize {
        self.theta
    }
}

impl Protocol for ThresholdRule {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= self.ell);
        if k >= self.theta {
            1.0
        } else {
            0.0
        }
    }

    fn name(&self) -> String {
        format!("threshold(l={}, theta={})", self.ell, self.theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Majority;
    use crate::protocol::ProtocolExt;
    use proptest::prelude::*;

    #[test]
    fn validates_theta_range() {
        assert!(ThresholdRule::new(0, 1).is_err());
        assert!(ThresholdRule::new(3, 0).is_err());
        assert!(ThresholdRule::new(3, 4).is_err());
        assert!(ThresholdRule::new(3, 3).is_ok());
    }

    #[test]
    fn satisfies_prop3_for_all_valid_theta() {
        for ell in 1..=6 {
            for theta in 1..=ell {
                let t = ThresholdRule::new(ell, theta).unwrap();
                assert!(t.check_proposition3(100).is_ok(), "l={ell} theta={theta}");
            }
        }
    }

    #[test]
    fn odd_majority_is_a_threshold_rule() {
        // Majority with odd ℓ has no ties: equals θ = (ℓ+1)/2.
        for ell in [1usize, 3, 5, 7] {
            let theta = ell.div_ceil(2);
            let t = ThresholdRule::new(ell, theta).unwrap();
            let m = Majority::new(ell).unwrap();
            for k in 0..=ell {
                assert_eq!(
                    t.prob_one(Opinion::Zero, k, 10),
                    m.prob_one(Opinion::Zero, k, 10),
                    "l={ell} k={k}"
                );
            }
        }
    }

    #[test]
    fn rule_is_a_step_function() {
        let t = ThresholdRule::new(6, 4).unwrap();
        for k in 0..4 {
            assert_eq!(t.prob_one(Opinion::One, k, 10), 0.0);
        }
        for k in 4..=6 {
            assert_eq!(t.prob_one(Opinion::One, k, 10), 1.0);
        }
        assert_eq!(t.theta(), 4);
    }

    proptest! {
        #[test]
        fn prop_monotone_in_k_and_antitone_in_theta(ell in 1usize..10, k in 0usize..10) {
            prop_assume!(k <= ell);
            let mut prev = 1.0;
            for theta in 1..=ell {
                let t = ThresholdRule::new(ell, theta).unwrap();
                let g = t.prob_one(Opinion::Zero, k, 10);
                prop_assert!(g <= prev, "raising theta cannot raise g");
                prev = g;
            }
        }
    }
}
