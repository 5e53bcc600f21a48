//! The Majority dynamics — the classical counterpart of Minority.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **Majority dynamics**: adopt the majority opinion of the sample, ties
/// broken uniformly at random:
///
/// ```text
/// g(k) = 0    if k < ℓ/2
/// g(k) = 1/2  if k = ℓ/2
/// g(k) = 1    if k > ℓ/2
/// ```
///
/// Majority-like rules are excellent for plain consensus (Ghaffari &
/// Lengler, PODC 2018) but, as the paper notes, they *lack sensitivity
/// towards the informed individual* and in general fail to solve the
/// bit-dissemination problem: started from a wrong-majority configuration
/// they entrench the wrong opinion for an astronomically long time, even
/// though the correct consensus is the only absorbing state. Used as a
/// baseline in E1.
///
/// With `ℓ = 3` this is the classical *3-majority* dynamics.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::Majority, Opinion, Protocol};
/// let maj = Majority::new(3)?;
/// assert_eq!(maj.prob_one(Opinion::Zero, 2, 10), 1.0);
/// assert_eq!(maj.prob_one(Opinion::Zero, 1, 10), 0.0);
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Majority {
    ell: usize,
}

impl Majority {
    /// Creates a Majority dynamics with sample size `ell`.
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

    /// The classical 3-majority dynamics (`ℓ = 3`).
    #[must_use]
    pub fn three() -> Self {
        Self { ell: 3 }
    }
}

impl Protocol for Majority {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= self.ell);
        match (2 * k).cmp(&self.ell) {
            std::cmp::Ordering::Less => 0.0,
            std::cmp::Ordering::Equal => 0.5,
            std::cmp::Ordering::Greater => 1.0,
        }
    }

    fn name(&self) -> String {
        format!("majority(l={})", self.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::Minority;
    use crate::protocol::ProtocolExt;
    use proptest::prelude::*;

    #[test]
    fn three_majority_table() {
        let m = Majority::three();
        let expect = [0.0, 0.0, 1.0, 1.0];
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(m.prob_one(Opinion::Zero, k, 10), e, "k={k}");
        }
    }

    #[test]
    fn even_sample_has_fair_tie() {
        let m = Majority::new(4).unwrap();
        assert_eq!(m.prob_one(Opinion::One, 2, 10), 0.5);
    }

    #[test]
    fn satisfies_prop3() {
        for ell in 1..=8 {
            assert!(Majority::new(ell).unwrap().check_proposition3(10).is_ok());
        }
    }

    #[test]
    fn rejects_zero_samples() {
        assert_eq!(Majority::new(0).unwrap_err(), ProtocolError::ZeroSampleSize);
    }

    proptest! {
        #[test]
        fn prop_majority_minority_duality(ell in 1usize..16, k in 0usize..16) {
            // On non-unanimous samples, minority(k) = 1 − majority(k).
            prop_assume!(k <= ell && k > 0 && k < ell);
            let maj = Majority::new(ell).unwrap();
            let min = Minority::new(ell).unwrap();
            let a = maj.prob_one(Opinion::Zero, k, 10);
            let b = min.prob_one(Opinion::Zero, k, 10);
            prop_assert!((a + b - 1.0).abs() < 1e-15);
        }

        #[test]
        fn prop_monotone_in_k(ell in 1usize..16) {
            let m = Majority::new(ell).unwrap();
            let mut prev = 0.0;
            for k in 0..=ell {
                let g = m.prob_one(Opinion::Zero, k, 10);
                prop_assert!(g >= prev);
                prev = g;
            }
        }
    }
}
