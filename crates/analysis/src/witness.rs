//! Executable Theorem 12: the adversarial-configuration witness.

use bitdissem_core::{Configuration, Opinion, Protocol, ProtocolError};

use crate::bias::BiasPolynomial;
use crate::roots::RootStructure;

/// Which branch of the Theorem 12 proof applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessCase {
    /// `F_n ≡ 0` (Voter-like): Lemma 11 applies with the fixed interval
    /// `(a₁, a₂, a₃) = (1/4, 1/2, 3/4)` and correct opinion 1.
    VoterLike,
    /// `F_n < 0` on the chosen interval (Case 1, Figure 2): the protocol
    /// drifts *down*, so it is slow whenever the correct opinion is 1.
    NegativeDrift,
    /// `F_n > 0` on the chosen interval (Case 2, Figure 3): the protocol
    /// drifts *up*, so it is slow whenever the correct opinion is 0.
    PositiveDrift,
}

impl std::fmt::Display for WitnessCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessCase::VoterLike => write!(f, "voter-like (F=0)"),
            WitnessCase::NegativeDrift => write!(f, "case 1 (F<0)"),
            WitnessCase::PositiveDrift => write!(f, "case 2 (F>0)"),
        }
    }
}

/// The concrete adversarial instance produced by the Theorem 12
/// construction for a given protocol and population size: a starting
/// configuration `(z, X₀)` and a threshold state whose crossing the theorem
/// proves takes `Ω(n^{1−ε})` rounds.
///
/// The construction mirrors the proof:
///
/// 1. build the bias polynomial `F_n` and its root structure;
/// 2. if `F_n ≡ 0`, use the Lemma 11 instance;
/// 3. otherwise take the rightmost constant-sign interval
///    `(r^{(k₀−1)}, r^{(k₀)})` and place `(a₁, a₂, a₃)` at its quartiles;
///    the correct opinion is chosen *against* the drift (Cases 1/2), and
///    `X₀` starts in the half of the interval farthest from the target
///    consensus, so reaching consensus requires crossing the whole
///    martingale region.
///
/// Since the convergence time dominates the crossing time, measuring the
/// first crossing of [`LowerBoundWitness::threshold`] (experiment E1) gives
/// a *lower* bound certificate on the empirical convergence time.
///
/// # Examples
///
/// ```
/// use bitdissem_core::dynamics::Minority;
/// use bitdissem_analysis::witness::{LowerBoundWitness, WitnessCase};
///
/// let w = LowerBoundWitness::construct(&Minority::new(3)?, 1024)?;
/// // Minority(3) drifts downward on (1/2, 1): Case 1.
/// assert_eq!(w.case(), WitnessCase::NegativeDrift);
/// assert_eq!(w.start().correct(), bitdissem_core::Opinion::One);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundWitness {
    case: WitnessCase,
    interval: (f64, f64),
    a: (f64, f64, f64),
    start: Configuration,
    threshold: u64,
}

impl LowerBoundWitness {
    /// Runs the Theorem 12 construction for `protocol` at size `n`.
    ///
    /// # Errors
    ///
    /// Propagates table materialization errors from the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` (the construction needs room for the interval).
    pub fn construct<P: Protocol + ?Sized>(protocol: &P, n: u64) -> Result<Self, ProtocolError> {
        assert!(n >= 8, "need n >= 8 for a meaningful witness");
        let f = BiasPolynomial::build(protocol, n)?;
        Ok(Self::from_bias(&f))
    }

    /// Runs the construction from a pre-built bias polynomial.
    #[must_use]
    pub fn from_bias(f: &BiasPolynomial) -> Self {
        let n = f.n();
        let rs = RootStructure::analyze(f);
        let (case, lo, hi) = match rs.rightmost_interval() {
            None => (WitnessCase::VoterLike, 0.0, 1.0),
            Some((lo, hi, sign)) => {
                if sign < 0 {
                    (WitnessCase::NegativeDrift, lo, hi)
                } else {
                    (WitnessCase::PositiveDrift, lo, hi)
                }
            }
        };
        let w = hi - lo;
        let a1 = lo + 0.25 * w;
        let a2 = lo + 0.50 * w;
        let a3 = lo + 0.75 * w;
        match case {
            WitnessCase::VoterLike | WitnessCase::NegativeDrift => {
                // Correct opinion 1; start between a₂ and a₃; the theorem
                // bounds the crossing of a₃·n from below.
                let correct = Opinion::One;
                let mut x0 = ((((a2 + a3) / 2.0) * n as f64).round() as u64).clamp(1, n - 1);
                let mut threshold = (a3 * n as f64).floor() as u64;
                // Degenerate (very narrow) intervals can round the start
                // onto the threshold; keep a strict one-agent gap so the
                // witness is always a non-trivial crossing instance.
                if x0 >= threshold {
                    x0 = threshold.saturating_sub(1).max(1);
                }
                if x0 >= threshold {
                    threshold = x0 + 1;
                }
                let start =
                    Configuration::new(n, correct, x0).expect("clamped state is consistent");
                Self { case, interval: (lo, hi), a: (a1, a2, a3), start, threshold }
            }
            WitnessCase::PositiveDrift => {
                // Correct opinion 0; start between a₁ and a₂; the theorem
                // bounds the crossing of a₁·n from below.
                let correct = Opinion::Zero;
                let mut x0 = ((((a1 + a2) / 2.0) * n as f64).round() as u64).clamp(1, n - 1);
                let mut threshold = (a1 * n as f64).ceil() as u64;
                if x0 <= threshold {
                    x0 = (threshold + 1).min(n - 1);
                }
                if x0 <= threshold {
                    threshold = x0 - 1;
                }
                let start =
                    Configuration::new(n, correct, x0).expect("clamped state is consistent");
                Self { case, interval: (lo, hi), a: (a1, a2, a3), start, threshold }
            }
        }
    }

    /// Which proof case produced this witness.
    #[must_use]
    pub fn case(&self) -> WitnessCase {
        self.case
    }

    /// The constant-sign interval `(r^{(k₀−1)}, r^{(k₀)})` used.
    #[must_use]
    pub fn interval(&self) -> (f64, f64) {
        self.interval
    }

    /// The interval constants `(a₁, a₂, a₃)` of Theorem 6 / Corollary 10.
    #[must_use]
    pub fn interval_constants(&self) -> (f64, f64, f64) {
        self.a
    }

    /// The adversarial starting configuration.
    #[must_use]
    pub fn start(&self) -> Configuration {
        self.start
    }

    /// The same case and threshold, with the crossing measured from `start`
    /// instead of the Theorem-12 start. A start that has already crossed
    /// does so at round 0.
    ///
    /// # Panics
    ///
    /// Panics if `start` has another population size or correct opinion.
    #[must_use]
    pub fn with_start(self, start: Configuration) -> Self {
        assert_eq!(start.n(), self.start.n(), "the witness fixes the population size");
        assert_eq!(start.correct(), self.start.correct(), "the witness fixes the correct opinion");
        Self { start, ..self }
    }

    /// The threshold state whose crossing is proven slow: the process must
    /// reach `≥ threshold` (Case 1 / Voter-like) or `≤ threshold` (Case 2)
    /// before it can converge.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Returns `true` if a state `x` has crossed the slow threshold in the
    /// direction of the correct consensus.
    #[must_use]
    pub fn crossed(&self, x: u64) -> bool {
        match self.case {
            WitnessCase::VoterLike | WitnessCase::NegativeDrift => x >= self.threshold,
            WitnessCase::PositiveDrift => x <= self.threshold,
        }
    }

    /// The theorem's predicted lower bound on the crossing time, in rounds:
    /// `n^{1−ε}` for the given `ε`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    #[must_use]
    pub fn predicted_min_rounds(&self, epsilon: f64) -> f64 {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        (self.start.n() as f64).powf(1.0 - epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{Majority, Minority, PowerVoter, Voter};

    #[test]
    fn voter_yields_lemma11_instance() {
        let w = LowerBoundWitness::construct(&Voter::new(1).unwrap(), 1000).unwrap();
        assert_eq!(w.case(), WitnessCase::VoterLike);
        let (a1, a2, a3) = w.interval_constants();
        assert!((a1 - 0.25).abs() < 1e-12);
        assert!((a2 - 0.5).abs() < 1e-12);
        assert!((a3 - 0.75).abs() < 1e-12);
        assert_eq!(w.start().ones(), 625);
        assert_eq!(w.threshold(), 750);
        assert!(!w.crossed(700));
        assert!(w.crossed(750));
    }

    #[test]
    fn minority_is_case1_with_half_one_interval() {
        let w = LowerBoundWitness::construct(&Minority::new(3).unwrap(), 1024).unwrap();
        assert_eq!(w.case(), WitnessCase::NegativeDrift);
        let (lo, hi) = w.interval();
        assert!((lo - 0.5).abs() < 1e-6);
        assert!((hi - 1.0).abs() < 1e-6);
        assert_eq!(w.start().correct(), Opinion::One);
        // Start is at (a2+a3)/2 = lo + 0.625·w = 0.8125.
        assert_eq!(w.start().ones(), (0.8125f64 * 1024.0).round() as u64);
    }

    #[test]
    fn large_ell_minority_keeps_case1_and_its_dyadic_roots() {
        // The power form read Minority(ℓ ≥ 25) as voter-like; the roots 0,
        // 1/2 and 1 are exact in the Bernstein form at every odd ℓ.
        for ell in (3..=63).step_by(2) {
            let f = BiasPolynomial::build(&Minority::new(ell).unwrap(), 512).unwrap();
            assert_eq!(RootStructure::analyze(&f).roots(), [0.0, 0.5, 1.0], "ell {ell}");
            let w = LowerBoundWitness::from_bias(&f);
            assert_eq!(w.case(), WitnessCase::NegativeDrift, "ell {ell}");
            assert_eq!(w.interval(), (0.5, 1.0), "ell {ell}");
            assert_eq!(w.start().ones(), 416, "ell {ell}: 0.8125 n");
        }
    }

    #[test]
    fn positive_drift_protocol_is_case2() {
        let w = LowerBoundWitness::construct(&PowerVoter::new(3, 0.5).unwrap(), 512).unwrap();
        assert_eq!(w.case(), WitnessCase::PositiveDrift);
        assert_eq!(w.start().correct(), Opinion::Zero);
        assert!(w.crossed(w.threshold()));
        assert!(!w.crossed(w.threshold() + 1));
    }

    #[test]
    fn majority_rightmost_interval_is_positive_case2() {
        // Majority drifts up on (1/2, 1): correct opinion 0 is the hard
        // direction.
        let w = LowerBoundWitness::construct(&Majority::new(3).unwrap(), 256).unwrap();
        assert_eq!(w.case(), WitnessCase::PositiveDrift);
        assert_eq!(w.start().correct(), Opinion::Zero);
        // X0 = (a1+a2)/2·n with interval (1/2, 1): 0.6875·n.
        assert_eq!(w.start().ones(), (0.6875f64 * 256.0).round() as u64);
    }

    #[test]
    fn with_start_moves_only_the_start() {
        let w = LowerBoundWitness::construct(&Voter::new(1).unwrap(), 1000).unwrap();
        let past = Configuration::new(1000, Opinion::One, w.threshold()).unwrap();
        let moved = w.clone().with_start(past);
        assert_eq!(moved.start(), past);
        assert!(moved.crossed(moved.start().ones()));
        assert_eq!((moved.case(), moved.threshold()), (w.case(), w.threshold()));
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn with_start_rejects_another_population() {
        let w = LowerBoundWitness::construct(&Voter::new(1).unwrap(), 1000).unwrap();
        let _ = w.with_start(Configuration::new(999, Opinion::One, 500).unwrap());
    }

    #[test]
    fn predicted_bound_scales() {
        let w = LowerBoundWitness::construct(&Voter::new(1).unwrap(), 10_000).unwrap();
        let b = w.predicted_min_rounds(0.1);
        assert!((b - 10_000f64.powf(0.9)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let w = LowerBoundWitness::construct(&Voter::new(1).unwrap(), 100).unwrap();
        let _ = w.predicted_min_rounds(1.5);
    }

    #[test]
    #[should_panic(expected = "n >= 8")]
    fn rejects_tiny_n() {
        let _ = LowerBoundWitness::construct(&Voter::new(1).unwrap(), 4);
    }
}
