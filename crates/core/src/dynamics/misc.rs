//! Counter-example dynamics used by the validation experiments.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **noisy Voter**: `g(k) = ε + (1 − 2ε)·k/ℓ`.
///
/// Violates Proposition 3 for every `ε > 0` (`g(0) = ε > 0`), so it cannot
/// solve bit dissemination: a reached consensus decays at rate ≈ `εn` per
/// round. Used by experiment E9 to check that the validation logic and the
/// consensus-exit detection both fire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyVoter {
    ell: usize,
    epsilon: f64,
}

impl NoisyVoter {
    /// Creates a noisy Voter with sample size `ell` and noise
    /// `ε ∈ (0, 1/2]`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0`, or
    /// [`ProtocolError::InvalidProbability`] if `epsilon` is outside
    /// `(0, 1/2]`.
    pub fn new(ell: usize, epsilon: f64) -> Result<Self, ProtocolError> {
        if ell == 0 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon > 0.5 {
            return Err(ProtocolError::InvalidProbability { own: 0, k: 0, value: epsilon });
        }
        Ok(Self { ell, epsilon })
    }

    /// The noise level `ε`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Protocol for NoisyVoter {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= self.ell);
        self.epsilon + (1.0 - 2.0 * self.epsilon) * k as f64 / self.ell as f64
    }

    fn name(&self) -> String {
        format!("noisy-voter(l={}, eps={})", self.ell, self.epsilon)
    }
}

/// The **anti-Voter**: `g(k) = 1 − k/ℓ` — adopt the *opposite* of a random
/// sample. Violates Proposition 3 on both endpoints; the system oscillates
/// around `n/2` forever. A sanity baseline for never-converging behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntiVoter {
    ell: usize,
}

impl AntiVoter {
    /// Creates an anti-Voter with sample size `ell`.
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

impl Protocol for AntiVoter {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, _own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= self.ell);
        1.0 - k as f64 / self.ell as f64
    }

    fn name(&self) -> String {
        format!("anti-voter(l={})", self.ell)
    }
}

/// The **Stay** protocol: never change opinion (`g^[b](k) = b`).
///
/// Satisfies Proposition 3 (the endpoints are trivially right), which makes
/// it the canonical witness that Proposition 3 is necessary but *not*
/// sufficient: Stay never converges from any non-consensus configuration.
/// Its bias polynomial is identically zero, so Lemma 11's `Ω(n^{1−ε})` bound
/// applies — vacuously, since the true convergence time is infinite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stay {
    ell: usize,
}

impl Stay {
    /// Creates a Stay protocol with (ignored) sample size `ell`, clamped up
    /// to 1 so the model interface stays well-formed.
    #[must_use]
    pub fn new(ell: usize) -> Self {
        Self { ell: ell.max(1) }
    }
}

impl Protocol for Stay {
    fn sample_size(&self) -> usize {
        self.ell
    }

    fn prob_one(&self, own: Opinion, _k: usize, _n: u64) -> f64 {
        f64::from(own.as_bit())
    }

    fn name(&self) -> String {
        format!("stay(l={})", self.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolExt;

    #[test]
    fn noisy_voter_violates_prop3() {
        let nv = NoisyVoter::new(2, 0.1).unwrap();
        assert!(nv.check_proposition3(10).is_err());
        assert!((nv.prob_one(Opinion::Zero, 0, 10) - 0.1).abs() < 1e-15);
        assert!((nv.prob_one(Opinion::Zero, 2, 10) - 0.9).abs() < 1e-15);
        assert_eq!(nv.epsilon(), 0.1);
    }

    #[test]
    fn noisy_voter_validates_epsilon() {
        assert!(NoisyVoter::new(2, 0.0).is_err());
        assert!(NoisyVoter::new(2, 0.6).is_err());
        assert!(NoisyVoter::new(0, 0.1).is_err());
        assert!(NoisyVoter::new(2, 0.5).is_ok());
    }

    #[test]
    fn anti_voter_violates_prop3_on_both_ends() {
        let av = AntiVoter::new(3).unwrap();
        let err = av.check_proposition3(10).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::ConsensusNotAbsorbing { g0_at_0, g1_at_ell }
                if g0_at_0 == 1.0 && g1_at_ell == 0.0
        ));
    }

    #[test]
    fn stay_satisfies_prop3_but_freezes() {
        let s = Stay::new(2);
        assert!(s.check_proposition3(10).is_ok());
        for k in 0..=2 {
            assert_eq!(s.prob_one(Opinion::Zero, k, 10), 0.0);
            assert_eq!(s.prob_one(Opinion::One, k, 10), 1.0);
        }
    }

    #[test]
    fn stay_clamps_sample_size() {
        assert_eq!(Stay::new(0).sample_size(), 1);
        assert_eq!(Stay::new(4).sample_size(), 4);
    }
}
