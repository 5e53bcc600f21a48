//! The Minority dynamics (Protocol 2 of the paper).

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **Minority dynamics** (Protocol 2): if all sampled opinions agree,
/// adopt the unanimous opinion; otherwise adopt the *minority* opinion of the
/// sample; ties broken uniformly at random. In table form (Eq. 2):
///
/// ```text
/// g(k) = 1    if k = ℓ or 0 < k < ℓ/2
/// g(k) = 1/2  if k = ℓ/2
/// g(k) = 0    if k = 0 or ℓ/2 < k < ℓ
/// ```
///
/// Becchetti et al. (SODA 2024) prove that with `ℓ = Ω(√(n log n))` this
/// dynamics solves bit dissemination in `O(log² n)` parallel rounds w.h.p. —
/// the counterpart upper bound to this paper's `Ω(n^{1−ε})` bound for
/// constant `ℓ`. The minimal `ℓ` for which it is fast is open (experiment
/// E4 explores it).
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::Minority, Opinion, Protocol};
/// let m = Minority::new(4)?;
/// assert_eq!(m.prob_one(Opinion::Zero, 0, 10), 0.0); // unanimous 0
/// assert_eq!(m.prob_one(Opinion::Zero, 1, 10), 1.0); // minority is 1
/// assert_eq!(m.prob_one(Opinion::Zero, 2, 10), 0.5); // tie
/// assert_eq!(m.prob_one(Opinion::Zero, 3, 10), 0.0); // minority is 0
/// assert_eq!(m.prob_one(Opinion::Zero, 4, 10), 1.0); // unanimous 1
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minority {
    ell: usize,
}

impl Minority {
    /// Creates a Minority dynamics with sample size `ell`.
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

    /// The paper-recommended sample size for fast convergence at population
    /// size `n`: `ℓ = ⌈√(n ln n)⌉` (the threshold of Becchetti et al.).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn fast_sample_size(n: u64) -> usize {
        assert!(n >= 2, "need at least 2 agents");
        let nf = n as f64;
        (nf * nf.ln()).sqrt().ceil() as usize
    }
}

impl Protocol for Minority {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= self.ell);
        let ell = self.ell;
        if k == ell {
            return 1.0; // unanimous 1
        }
        if k == 0 {
            return 0.0; // unanimous 0
        }
        if 2 * k < ell {
            1.0 // 1 is the strict minority
        } else if 2 * k == ell {
            0.5 // tie
        } else {
            0.0 // 0 is the strict minority
        }
    }

    fn name(&self) -> String {
        format!("minority(l={})", self.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolExt;
    use proptest::prelude::*;

    #[test]
    fn matches_eq2_for_ell_3() {
        let m = Minority::new(3).unwrap();
        assert_eq!(m.prob_one(Opinion::Zero, 0, 10), 0.0);
        assert_eq!(m.prob_one(Opinion::Zero, 1, 10), 1.0);
        assert_eq!(m.prob_one(Opinion::Zero, 2, 10), 0.0);
        assert_eq!(m.prob_one(Opinion::Zero, 3, 10), 1.0);
    }

    #[test]
    fn matches_eq2_for_even_ell() {
        let m = Minority::new(6).unwrap();
        let expect = [0.0, 1.0, 1.0, 0.5, 0.0, 0.0, 1.0];
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(m.prob_one(Opinion::One, k, 10), e, "k={k}");
        }
    }

    #[test]
    fn ell_one_reduces_to_voter() {
        // With one sample the "minority" of the sample is the sample itself.
        let m = Minority::new(1).unwrap();
        assert_eq!(m.prob_one(Opinion::Zero, 0, 10), 0.0);
        assert_eq!(m.prob_one(Opinion::Zero, 1, 10), 1.0);
    }

    #[test]
    fn satisfies_prop3_and_own_independence() {
        for ell in 1..=8 {
            let m = Minority::new(ell).unwrap();
            assert!(m.check_proposition3(100).is_ok());
            assert!(m.is_own_independent(100));
        }
    }

    #[test]
    fn fast_sample_size_scales_like_sqrt_n_log_n() {
        let n = 1_000_000u64;
        let ell = Minority::fast_sample_size(n);
        let expect = ((n as f64) * (n as f64).ln()).sqrt();
        assert!((ell as f64 - expect).abs() <= 1.0);
        assert!(Minority::fast_sample_size(2) >= 1);
    }

    #[test]
    fn rejects_zero_samples() {
        assert_eq!(Minority::new(0).unwrap_err(), ProtocolError::ZeroSampleSize);
    }

    proptest! {
        #[test]
        fn prop_rule_symmetry(ell in 1usize..16, k in 0usize..16) {
            // Minority is symmetric under relabeling opinions:
            // g(k) + g(ℓ−k) = 1 for all k.
            prop_assume!(k <= ell);
            let m = Minority::new(ell).unwrap();
            let a = m.prob_one(Opinion::Zero, k, 10);
            let b = m.prob_one(Opinion::Zero, ell - k, 10);
            prop_assert!((a + b - 1.0).abs() < 1e-15);
        }
    }
}
