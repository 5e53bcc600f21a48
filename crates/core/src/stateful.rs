//! Constant-memory protocols — the paper's "future work" extension.
//!
//! The discussion section asks whether the `Ω(n^{1−ε})` lower bound
//! generalizes "to protocols using a constant amount of memory". This
//! module provides the model for exploring that question empirically: an
//! agent carries a *state* from a small finite set; only a binary opinion
//! (its **display**) is observable by others — the passive-communication
//! constraint is preserved — and the update rule maps (state, observed
//! count) to a distribution over next states.
//!
//! A memory-less protocol is the special case with one state per opinion
//! ([`Memoryless`]). The classical *undecided-state dynamics* (with the
//! undecided agents displaying their previous opinion, as passive
//! communication requires) is [`UndecidedState`]. Experiment E13 measures
//! whether this single extra bit escapes the constant-`ℓ` slowness — it
//! does not, at the sizes we can reach.

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// A protocol whose agents carry a finite state, observable only through a
/// binary display.
pub trait StatefulProtocol {
    /// Number of internal states `S ≥ 2`.
    fn num_states(&self) -> usize;

    /// Sample size `ℓ ≥ 1`.
    fn sample_size(&self) -> usize;

    /// The opinion an agent in `state` displays to observers.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `state >= num_states()`.
    fn display(&self, state: usize) -> Opinion;

    /// Distribution over next states for an agent in `state` observing
    /// `ones_seen` displayed ones among its `ℓ` samples. Must have length
    /// [`StatefulProtocol::num_states`] and sum to 1.
    fn transition(&self, state: usize, ones_seen: usize, n: u64) -> Vec<f64>;

    /// The canonical state for an agent initialized with `opinion` (the
    /// adversary controls opinions; memory is initialized canonically but
    /// experiments may override it).
    fn state_for_opinion(&self, opinion: Opinion) -> usize;

    /// Human-readable name.
    fn name(&self) -> String;
}

/// Checks the stateful analog of Proposition 3: for each opinion `z` there
/// is an absorbing "decided-z" state — an agent in
/// `state_for_opinion(z)` seeing a unanimous-`z` sample stays put — so a
/// display consensus can persist.
///
/// # Errors
///
/// Returns [`ProtocolError::ConsensusNotAbsorbing`] naming the violated
/// endpoint probabilities.
pub fn check_stateful_absorption<P: StatefulProtocol + ?Sized>(
    p: &P,
    n: u64,
) -> Result<(), ProtocolError> {
    let ell = p.sample_size();
    for z in Opinion::ALL {
        let s = p.state_for_opinion(z);
        let unanimous = if z.is_one() { ell } else { 0 };
        let dist = p.transition(s, unanimous, n);
        let stay = dist[s];
        if (stay - 1.0).abs() > 1e-12 {
            return Err(ProtocolError::ConsensusNotAbsorbing {
                g0_at_0: if z.is_one() { 0.0 } else { 1.0 - stay },
                g1_at_ell: if z.is_one() { stay } else { 1.0 },
            });
        }
    }
    Ok(())
}

/// Adapter: any memory-less [`Protocol`] is a 2-state stateful protocol
/// (state = displayed opinion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memoryless<P> {
    inner: P,
}

impl<P: Protocol> Memoryless<P> {
    /// Wraps a memory-less protocol.
    #[must_use]
    pub fn new(inner: P) -> Self {
        Self { inner }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> StatefulProtocol for Memoryless<P> {
    fn num_states(&self) -> usize {
        2
    }

    fn sample_size(&self) -> usize {
        self.inner.sample_size()
    }

    fn display(&self, state: usize) -> Opinion {
        debug_assert!(state < 2);
        if state == 1 {
            Opinion::One
        } else {
            Opinion::Zero
        }
    }

    fn transition(&self, state: usize, ones_seen: usize, n: u64) -> Vec<f64> {
        let own = self.display(state);
        let g = self.inner.prob_one(own, ones_seen, n);
        vec![1.0 - g, g]
    }

    fn state_for_opinion(&self, opinion: Opinion) -> usize {
        usize::from(opinion.as_bit())
    }

    fn name(&self) -> String {
        format!("memoryless({})", self.inner.name())
    }
}

/// State indices of [`UndecidedState`].
pub mod usd_states {
    /// Decided on opinion 0.
    pub const DECIDED_ZERO: usize = 0;
    /// Decided on opinion 1.
    pub const DECIDED_ONE: usize = 1;
    /// Undecided, still displaying 0.
    pub const UNDECIDED_ZERO: usize = 2;
    /// Undecided, still displaying 1.
    pub const UNDECIDED_ONE: usize = 3;
}

/// The **undecided-state dynamics** under passive communication: one extra
/// bit of memory ("am I sure?") on top of the displayed opinion.
///
/// * A *decided* agent that sees any sample disagreeing with its display
///   becomes undecided (its display is unchanged — others cannot tell).
/// * An *undecided* agent adopts the strict majority of its sample and
///   becomes decided; on a tie it stays undecided.
///
/// With `ℓ = 1` this is the classical pairwise undecided-state dynamics,
/// restricted to what passive communication can express (the undecided
/// flag is private). The display-consensus on `z` is absorbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndecidedState {
    ell: usize,
}

impl UndecidedState {
    /// Creates the dynamics with sample size `ell`.
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

impl StatefulProtocol for UndecidedState {
    fn num_states(&self) -> usize {
        4
    }

    fn sample_size(&self) -> usize {
        self.ell
    }

    fn display(&self, state: usize) -> Opinion {
        match state {
            usd_states::DECIDED_ZERO | usd_states::UNDECIDED_ZERO => Opinion::Zero,
            usd_states::DECIDED_ONE | usd_states::UNDECIDED_ONE => Opinion::One,
            other => panic!("invalid state {other}"),
        }
    }

    fn transition(&self, state: usize, k: usize, _n: u64) -> Vec<f64> {
        debug_assert!(k <= self.ell);
        let mut dist = vec![0.0; 4];
        match state {
            usd_states::DECIDED_ZERO => {
                if k == 0 {
                    dist[usd_states::DECIDED_ZERO] = 1.0;
                } else {
                    dist[usd_states::UNDECIDED_ZERO] = 1.0;
                }
            }
            usd_states::DECIDED_ONE => {
                if k == self.ell {
                    dist[usd_states::DECIDED_ONE] = 1.0;
                } else {
                    dist[usd_states::UNDECIDED_ONE] = 1.0;
                }
            }
            usd_states::UNDECIDED_ZERO | usd_states::UNDECIDED_ONE => {
                match (2 * k).cmp(&self.ell) {
                    std::cmp::Ordering::Greater => dist[usd_states::DECIDED_ONE] = 1.0,
                    std::cmp::Ordering::Less => dist[usd_states::DECIDED_ZERO] = 1.0,
                    std::cmp::Ordering::Equal => dist[state] = 1.0,
                }
            }
            other => panic!("invalid state {other}"),
        }
        dist
    }

    fn state_for_opinion(&self, opinion: Opinion) -> usize {
        match opinion {
            Opinion::Zero => usd_states::DECIDED_ZERO,
            Opinion::One => usd_states::DECIDED_ONE,
        }
    }

    fn name(&self) -> String {
        format!("undecided-state(l={})", self.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{Minority, NoisyVoter, Voter};

    #[test]
    fn memoryless_adapter_roundtrips() {
        let m = Memoryless::new(Minority::new(3).unwrap());
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.sample_size(), 3);
        assert_eq!(m.display(0), Opinion::Zero);
        assert_eq!(m.display(1), Opinion::One);
        assert_eq!(m.state_for_opinion(Opinion::One), 1);
        // transition matches the wrapped rule.
        let d = m.transition(0, 1, 100);
        assert_eq!(d, vec![0.0, 1.0]); // minority of {1x1, 2x0} is 1
        assert!(m.name().contains("minority"));
        assert_eq!(m.inner().sample_size(), 3);
    }

    #[test]
    fn memoryless_absorption_matches_prop3() {
        assert!(check_stateful_absorption(&Memoryless::new(Voter::new(2).unwrap()), 10).is_ok());
        assert!(check_stateful_absorption(&Memoryless::new(NoisyVoter::new(2, 0.1).unwrap()), 10)
            .is_err());
    }

    #[test]
    fn usd_transitions_are_distributions() {
        let usd = UndecidedState::new(4).unwrap();
        for s in 0..4 {
            for k in 0..=4 {
                let d = usd.transition(s, k, 10);
                assert_eq!(d.len(), 4);
                assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-15, "s={s} k={k}");
            }
        }
    }

    #[test]
    fn usd_decided_agents_destabilize_on_disagreement() {
        let usd = UndecidedState::new(3).unwrap();
        // Decided 0 seeing one 1 becomes undecided but keeps displaying 0.
        let d = usd.transition(usd_states::DECIDED_ZERO, 1, 10);
        assert_eq!(d[usd_states::UNDECIDED_ZERO], 1.0);
        assert_eq!(usd.display(usd_states::UNDECIDED_ZERO), Opinion::Zero);
        // Decided 1 seeing unanimity stays.
        let d = usd.transition(usd_states::DECIDED_ONE, 3, 10);
        assert_eq!(d[usd_states::DECIDED_ONE], 1.0);
    }

    #[test]
    fn usd_undecided_agents_follow_sample_majority() {
        let usd = UndecidedState::new(4).unwrap();
        let d = usd.transition(usd_states::UNDECIDED_ZERO, 3, 10);
        assert_eq!(d[usd_states::DECIDED_ONE], 1.0);
        let d = usd.transition(usd_states::UNDECIDED_ONE, 1, 10);
        assert_eq!(d[usd_states::DECIDED_ZERO], 1.0);
        // Tie: stay undecided with the same display.
        let d = usd.transition(usd_states::UNDECIDED_ONE, 2, 10);
        assert_eq!(d[usd_states::UNDECIDED_ONE], 1.0);
    }

    #[test]
    fn usd_display_consensus_is_absorbing() {
        for ell in 1..=5 {
            let usd = UndecidedState::new(ell).unwrap();
            assert!(check_stateful_absorption(&usd, 100).is_ok(), "l={ell}");
        }
    }

    #[test]
    fn usd_rejects_zero_samples() {
        assert!(UndecidedState::new(0).is_err());
    }
}
