//! The memory-less protocol abstraction.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::table::GTable;

/// Activation pattern of the scheduler (Section 1 of the paper).
///
/// One *parallel round* equals `n` activations: a single synchronous round in
/// the parallel setting, or `n` successive single-agent activations in the
/// sequential setting. All convergence times in this workspace are expressed
/// in parallel rounds so that the two settings are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationModel {
    /// All non-source agents update simultaneously each round.
    Parallel,
    /// One uniformly random non-source agent updates per step.
    Sequential,
}

impl std::fmt::Display for ActivationModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActivationModel::Parallel => write!(f, "parallel"),
            ActivationModel::Sequential => write!(f, "sequential"),
        }
    }
}

/// A memory-less, anonymous opinion-update protocol.
///
/// This is exactly the object `𝒫 = { g_n^[b] }` of Section 1.1: upon
/// activation, an agent holding opinion `b` that observes `k` ones among its
/// `ℓ` uniform-with-replacement samples adopts opinion 1 with probability
/// `g_n^[b](k)` — and opinion 0 otherwise. The rule may depend on `n` (agents
/// know the population size) but on nothing else: no identities, no round
/// numbers, no memory.
///
/// Implementations must be deterministic functions of `(own, k, n)`; all
/// randomness lives in the simulator.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::Voter, Opinion, Protocol};
///
/// let voter = Voter::new(1)?;
/// assert_eq!(voter.sample_size(), 1);
/// // The voter adopts a uniformly random sampled opinion: P(1) = k/ℓ.
/// assert_eq!(voter.prob_one(Opinion::Zero, 1, 50), 1.0);
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
pub trait Protocol {
    /// The sample size `ℓ ≥ 1` (number of opinions observed per activation).
    fn sample_size(&self) -> usize;

    /// Probability that an agent holding opinion `own`, observing
    /// `ones_in_sample` ones among `sample_size()` samples, in a population
    /// of `n` agents, adopts opinion 1 in the next round.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ones_in_sample > sample_size()`.
    fn prob_one(&self, own: Opinion, ones_in_sample: usize, n: u64) -> f64;

    /// Human-readable protocol name used in reports and tables.
    fn name(&self) -> String;
}

impl<P: Protocol + ?Sized> Protocol for &P {
    fn sample_size(&self) -> usize {
        (**self).sample_size()
    }

    fn prob_one(&self, own: Opinion, ones_in_sample: usize, n: u64) -> f64 {
        (**self).prob_one(own, ones_in_sample, n)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl Protocol for Box<dyn Protocol + Send + Sync> {
    fn sample_size(&self) -> usize {
        (**self).sample_size()
    }

    fn prob_one(&self, own: Opinion, ones_in_sample: usize, n: u64) -> f64 {
        (**self).prob_one(own, ones_in_sample, n)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// Extension methods derived from [`Protocol`].
pub trait ProtocolExt: Protocol {
    /// Materializes the decision rule at population size `n` into a
    /// [`GTable`] (two vectors of `ℓ + 1` probabilities).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidProbability`] if the implementation
    /// produces a value outside `[0, 1]`.
    fn to_table(&self, n: u64) -> Result<GTable, ProtocolError> {
        let ell = self.sample_size();
        let mut g0 = Vec::with_capacity(ell + 1);
        let mut g1 = Vec::with_capacity(ell + 1);
        for k in 0..=ell {
            g0.push(self.prob_one(Opinion::Zero, k, n));
            g1.push(self.prob_one(Opinion::One, k, n));
        }
        GTable::new(g0, g1)
    }

    /// Checks the necessary conditions of **Proposition 3**: a protocol can
    /// only solve the bit-dissemination problem if `g_n^[0](0) = 0` and
    /// `g_n^[1](ℓ) = 1` — otherwise the correct consensus is not absorbing
    /// and convergence (staying forever) is impossible.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ConsensusNotAbsorbing`] listing the offending
    /// values.
    fn check_proposition3(&self, n: u64) -> Result<(), ProtocolError> {
        let ell = self.sample_size();
        let g0_at_0 = self.prob_one(Opinion::Zero, 0, n);
        let g1_at_ell = self.prob_one(Opinion::One, ell, n);
        if g0_at_0 == 0.0 && g1_at_ell == 1.0 {
            Ok(())
        } else {
            Err(ProtocolError::ConsensusNotAbsorbing { g0_at_0, g1_at_ell })
        }
    }

    /// Returns `true` if the rule ignores the agent's own opinion
    /// (`g^[0] = g^[1]`), like the Voter and Minority dynamics.
    fn is_own_independent(&self, n: u64) -> bool {
        (0..=self.sample_size())
            .all(|k| self.prob_one(Opinion::Zero, k, n) == self.prob_one(Opinion::One, k, n))
    }
}

impl<P: Protocol + ?Sized> ProtocolExt for P {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{Minority, NoisyVoter, Voter};

    #[test]
    fn activation_model_display() {
        assert_eq!(ActivationModel::Parallel.to_string(), "parallel");
        assert_eq!(ActivationModel::Sequential.to_string(), "sequential");
    }

    #[test]
    fn to_table_materializes_rule() {
        let v = Voter::new(2).unwrap();
        let t = v.to_table(100).unwrap();
        assert_eq!(t.sample_size(), 2);
        assert_eq!(t.g(Opinion::Zero, 1), 0.5);
        assert_eq!(t.g(Opinion::One, 2), 1.0);
    }

    #[test]
    fn proposition3_accepts_voter_and_minority() {
        assert!(Voter::new(1).unwrap().check_proposition3(10).is_ok());
        assert!(Minority::new(3).unwrap().check_proposition3(10).is_ok());
    }

    #[test]
    fn proposition3_rejects_noisy_voter() {
        let noisy = NoisyVoter::new(1, 0.01).unwrap();
        let err = noisy.check_proposition3(10).unwrap_err();
        assert!(matches!(err, ProtocolError::ConsensusNotAbsorbing { .. }));
    }

    #[test]
    fn own_independence_detection() {
        assert!(Voter::new(3).unwrap().is_own_independent(10));
        assert!(Minority::new(3).unwrap().is_own_independent(10));
    }

    #[test]
    fn trait_objects_work() {
        let p: Box<dyn Protocol + Send + Sync> = Box::new(Voter::new(1).unwrap());
        assert_eq!(p.sample_size(), 1);
        assert_eq!(p.name(), "voter(l=1)");
        // Blanket impl for references.
        let r = &p;
        assert_eq!(r.sample_size(), 1);
    }
}
