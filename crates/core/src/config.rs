//! System configurations.
//!
//! Because agents are anonymous and memory-less, the global state of the
//! system in any round is fully described by the pair `(z, X_t)`: the correct
//! opinion and the number of agents currently holding opinion 1 (Section 1.1
//! of the paper). [`Configuration`] is that pair together with `n`.

use std::fmt;

use crate::opinion::Opinion;

/// A configuration `(z, x)` of an `n`-agent system: the correct opinion `z`
/// (held by the source at all times) and the number `x` of agents with
/// opinion 1 — *including* the source when `z = 1`.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{Configuration, Opinion};
///
/// let c = Configuration::new(100, Opinion::One, 30)?;
/// assert_eq!(c.ones(), 30);
/// assert_eq!(c.zeros(), 70);
/// assert!(!c.is_correct_consensus());
/// assert_eq!(c.fraction_ones(), 0.3);
/// # Ok::<(), bitdissem_core::config::ConfigurationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Configuration {
    n: u64,
    correct: Opinion,
    ones: u64,
}

/// Errors raised when constructing a [`Configuration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigurationError {
    /// The system must contain at least two agents (a source and one other).
    TooFewAgents {
        /// Number of agents supplied.
        n: u64,
    },
    /// `ones` exceeds `n`.
    OnesOutOfRange {
        /// Number of ones supplied.
        ones: u64,
        /// Number of agents.
        n: u64,
    },
    /// The source always holds the correct opinion, so `z = 1` forces
    /// `ones >= 1` and `z = 0` forces `ones <= n - 1`.
    SourceOpinionInconsistent {
        /// The correct opinion.
        correct: Opinion,
        /// Number of ones supplied.
        ones: u64,
    },
}

impl fmt::Display for ConfigurationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigurationError::TooFewAgents { n } => {
                write!(f, "need at least 2 agents, got {n}")
            }
            ConfigurationError::OnesOutOfRange { ones, n } => {
                write!(f, "ones = {ones} exceeds population size {n}")
            }
            ConfigurationError::SourceOpinionInconsistent { correct, ones } => {
                write!(
                    f,
                    "source holds the correct opinion {correct}, inconsistent with ones = {ones}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigurationError {}

impl Configuration {
    /// Creates a configuration of `n` agents where the correct opinion is
    /// `correct` and exactly `ones` agents (source included) hold opinion 1.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigurationError`] if `n < 2`, if `ones > n`, or if the
    /// count is inconsistent with the source holding `correct` (the source
    /// never deviates, so `correct = 1` requires `ones >= 1` and
    /// `correct = 0` requires `ones <= n - 1`).
    pub fn new(n: u64, correct: Opinion, ones: u64) -> Result<Self, ConfigurationError> {
        if n < 2 {
            return Err(ConfigurationError::TooFewAgents { n });
        }
        if ones > n {
            return Err(ConfigurationError::OnesOutOfRange { ones, n });
        }
        let consistent = match correct {
            Opinion::One => ones >= 1,
            Opinion::Zero => ones < n,
        };
        if !consistent {
            return Err(ConfigurationError::SourceOpinionInconsistent { correct, ones });
        }
        Ok(Self { n, correct, ones })
    }

    /// The configuration in which every agent already holds the correct
    /// opinion (the unique legal absorbing configuration).
    #[must_use]
    pub fn correct_consensus(n: u64, correct: Opinion) -> Self {
        let ones = match correct {
            Opinion::One => n,
            Opinion::Zero => 0,
        };
        Self { n, correct, ones }
    }

    /// The adversarial "all wrong" configuration: every non-source agent
    /// holds the incorrect opinion.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn all_wrong(n: u64, correct: Opinion) -> Self {
        assert!(n >= 2, "need at least 2 agents");
        let ones = match correct {
            Opinion::One => 1,      // only the source holds 1
            Opinion::Zero => n - 1, // everyone but the source holds 1
        };
        Self { n, correct, ones }
    }

    /// Number of agents.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The correct opinion (held by the source).
    #[must_use]
    pub fn correct(&self) -> Opinion {
        self.correct
    }

    /// Number of agents with opinion 1 (source included).
    #[must_use]
    pub fn ones(&self) -> u64 {
        self.ones
    }

    /// Number of agents with opinion 0.
    #[must_use]
    pub fn zeros(&self) -> u64 {
        self.n - self.ones
    }

    /// Fraction of agents with opinion 1, `X/n ∈ [0, 1]`.
    #[must_use]
    pub fn fraction_ones(&self) -> f64 {
        self.ones as f64 / self.n as f64
    }

    /// Number of agents holding the correct opinion.
    #[must_use]
    pub fn correct_count(&self) -> u64 {
        match self.correct {
            Opinion::One => self.ones,
            Opinion::Zero => self.zeros(),
        }
    }

    /// Returns `true` if every agent holds the correct opinion.
    #[must_use]
    pub fn is_correct_consensus(&self) -> bool {
        self.correct_count() == self.n
    }

    /// Returns `true` if every agent holds the same opinion (correct or not).
    #[must_use]
    pub fn is_consensus(&self) -> bool {
        self.ones == 0 || self.ones == self.n
    }

    /// Returns the same configuration with a new count of ones.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Configuration::new`].
    pub fn with_ones(&self, ones: u64) -> Result<Self, ConfigurationError> {
        Self::new(self.n, self.correct, ones)
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(n={}, z={}, X={})", self.n, self.correct, self.ones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_bounds() {
        assert!(Configuration::new(1, Opinion::Zero, 0).is_err());
        assert!(Configuration::new(10, Opinion::Zero, 11).is_err());
        assert!(Configuration::new(10, Opinion::One, 5).is_ok());
    }

    #[test]
    fn source_consistency_enforced() {
        // z = 1 requires at least one agent (the source) with opinion 1.
        assert_eq!(
            Configuration::new(10, Opinion::One, 0),
            Err(ConfigurationError::SourceOpinionInconsistent { correct: Opinion::One, ones: 0 })
        );
        // z = 0 requires at least one agent (the source) with opinion 0.
        assert!(Configuration::new(10, Opinion::Zero, 10).is_err());
        assert!(Configuration::new(10, Opinion::Zero, 9).is_ok());
    }

    #[test]
    fn consensus_predicates() {
        let c = Configuration::correct_consensus(8, Opinion::One);
        assert!(c.is_correct_consensus());
        assert!(c.is_consensus());
        assert_eq!(c.correct_count(), 8);

        let c = Configuration::correct_consensus(8, Opinion::Zero);
        assert!(c.is_correct_consensus());
        assert_eq!(c.ones(), 0);

        // Wrong consensus is impossible as a *reachable* configuration (the
        // source never flips), and the constructor rejects it.
        assert!(Configuration::new(8, Opinion::One, 0).is_err());
    }

    #[test]
    fn all_wrong_is_maximally_adversarial() {
        let c = Configuration::all_wrong(100, Opinion::One);
        assert_eq!(c.ones(), 1);
        assert_eq!(c.correct_count(), 1);
        let c = Configuration::all_wrong(100, Opinion::Zero);
        assert_eq!(c.ones(), 99);
        assert_eq!(c.correct_count(), 1);
    }

    #[test]
    fn counting_identities() {
        let c = Configuration::new(25, Opinion::Zero, 10).unwrap();
        assert_eq!(c.ones() + c.zeros(), c.n());
        assert!((c.fraction_ones() - 0.4).abs() < 1e-15);
        assert_eq!(c.correct_count(), 15);
    }

    #[test]
    fn with_ones_revalidates() {
        let c = Configuration::new(10, Opinion::One, 5).unwrap();
        assert!(c.with_ones(0).is_err());
        assert_eq!(c.with_ones(7).unwrap().ones(), 7);
    }

    #[test]
    fn display_is_compact() {
        let c = Configuration::new(10, Opinion::One, 5).unwrap();
        assert_eq!(c.to_string(), "(n=10, z=1, X=5)");
    }

    proptest! {
        #[test]
        fn prop_valid_configurations_roundtrip(n in 2u64..10_000, ones in 0u64..10_000) {
            prop_assume!(ones <= n);
            for correct in Opinion::ALL {
                match Configuration::new(n, correct, ones) {
                    Ok(c) => {
                        prop_assert_eq!(c.ones() + c.zeros(), n);
                        prop_assert!(c.fraction_ones() >= 0.0 && c.fraction_ones() <= 1.0);
                        // Source consistency must hold.
                        match correct {
                            Opinion::One => prop_assert!(c.ones() >= 1),
                            Opinion::Zero => prop_assert!(c.zeros() >= 1),
                        }
                    }
                    Err(_) => {
                        let inconsistent = match correct {
                            Opinion::One => ones == 0,
                            Opinion::Zero => ones == n,
                        };
                        prop_assert!(inconsistent, "rejected a consistent configuration");
                    }
                }
            }
        }
    }
}
