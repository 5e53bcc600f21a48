//! Convergence detection and run control.

use serde::{Deserialize, Serialize};

use bitdissem_core::Configuration;
use bitdissem_obs::{Event, Obs, ReplicationOutcome, Timer};

use crate::env::EnvSchedule;
use crate::rng::SimRng;

/// A steppable simulation of the bit-dissemination process.
///
/// Implementations advance one **parallel round** per [`Simulator::step_round`]
/// call (the sequential simulator performs `n` activations per call so that
/// times stay comparable across settings, as in the paper).
pub trait Simulator {
    /// Current configuration `(n, z, X_t)`.
    fn configuration(&self) -> Configuration;

    /// Advances the process by one parallel round.
    fn step_round(&mut self, rng: &mut SimRng);

    /// Population size (convenience).
    fn n(&self) -> u64 {
        self.configuration().n()
    }

    /// Opinion samples drawn per parallel round, used for the
    /// `opinion_samples` metric. The process draws `ℓ` samples per agent
    /// per round, so simulators with a materialized decision table
    /// override this to `ℓ·n`; the trait default of `n` is only correct
    /// for `ℓ = 1` and exists for lightweight test doubles.
    fn opinion_samples_per_round(&self) -> u64 {
        self.n()
    }

    /// Applies the boundary-`t` environment perturbations to the current
    /// state and returns the number of perturbation events applied (see
    /// [`EnvSchedule`]). Called *after* the consensus check at `t` and
    /// *before* the step that produces `X_{t+1}`.
    ///
    /// The default panics: a simulator must opt into the environment
    /// layer explicitly, because silently ignoring a schedule would make
    /// a "perturbed" run statically indistinguishable from a static one.
    fn perturb(&mut self, env: &EnvSchedule, t: u64, rng: &mut SimRng) -> u64 {
        let _ = (env, t, rng);
        unimplemented!("this simulator does not support environment perturbations")
    }
}

/// Result of running a simulation until consensus or a round budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The correct consensus was reached after `rounds` parallel rounds.
    Converged {
        /// First round at which every agent held the correct opinion.
        rounds: u64,
    },
    /// The round budget was exhausted without reaching consensus.
    TimedOut {
        /// The budget that was exhausted.
        rounds: u64,
    },
}

impl Outcome {
    /// The convergence time, or `None` on timeout.
    #[must_use]
    pub fn rounds(&self) -> Option<u64> {
        match *self {
            Outcome::Converged { rounds } => Some(rounds),
            Outcome::TimedOut { .. } => None,
        }
    }

    /// The convergence time, with timeouts mapped to the budget itself —
    /// a right-censored value, appropriate for medians when fewer than half
    /// of the replications time out.
    #[must_use]
    pub fn rounds_censored(&self) -> u64 {
        match *self {
            Outcome::Converged { rounds } | Outcome::TimedOut { rounds } => rounds,
        }
    }

    /// Returns `true` if the run converged.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        matches!(self, Outcome::Converged { .. })
    }
}

/// Runs `sim` until the **correct consensus** is first reached, or until
/// `max_rounds` rounds have elapsed.
///
/// For Proposition-3-compliant protocols the correct consensus is absorbing,
/// so the first hitting time *is* the convergence time `τ` of the paper. For
/// non-compliant protocols use [`run_with_exit_detection_observed`], which
/// additionally verifies stability.
pub fn run_to_consensus<S: Simulator + ?Sized>(
    sim: &mut S,
    rng: &mut SimRng,
    max_rounds: u64,
) -> Outcome {
    for t in 0..=max_rounds {
        if sim.configuration().is_correct_consensus() {
            return Outcome::Converged { rounds: t };
        }
        if t == max_rounds {
            break;
        }
        sim.step_round(rng);
    }
    Outcome::TimedOut { rounds: max_rounds }
}

/// [`run_to_consensus`] with observability and an optional environment
/// schedule. Emits a [`Event::RoundCompleted`] per simulated round
/// (subject to the handle's round stride), a closing
/// [`Event::ReplicationFinished`], and batch-adds round/sample counters
/// (plus `perturbations_applied` under a schedule) once at the end of the
/// run.
///
/// Round labels follow the convention documented on
/// [`Event::RoundCompleted`]: the event labeled `round = r` carries the
/// configuration `X_r` — the state *after* `r` completed rounds — so
/// labels start at 1 and a run converging at round `k` reports the
/// consensus in its `round = k` event.
///
/// Under `env`, the perturbation at boundary `t` is applied after the
/// consensus check at `t` and before the step, so a run that is perturbed
/// *into* the correct consensus is credited at the next boundary,
/// uniformly across every engine.
///
/// Instrumentation never touches `rng`, so outcomes are **identical** to
/// the unobserved run for the same seed; with a fully disabled handle and
/// no schedule the call forwards directly to [`run_to_consensus`].
pub fn run_to_consensus_observed<S: Simulator + ?Sized>(
    sim: &mut S,
    rng: &mut SimRng,
    max_rounds: u64,
    env: Option<&EnvSchedule>,
    obs: &Obs,
    rep: u64,
) -> Outcome {
    if env.is_none() && !obs.active() && !obs.metrics_on() {
        return run_to_consensus(sim, rng, max_rounds);
    }

    let timer = Timer::start();
    let mut rounds_done: u64 = 0;
    let mut perturbations: u64 = 0;
    let outcome = 'run: {
        for t in 0..=max_rounds {
            if sim.configuration().is_correct_consensus() {
                break 'run Outcome::Converged { rounds: t };
            }
            if t == max_rounds {
                break;
            }
            if let Some(env) = env {
                perturbations += sim.perturb(env, t, rng);
            }
            sim.step_round(rng);
            rounds_done += 1;
            // `rounds_done` rounds have completed, so this event describes
            // X_{rounds_done} (label convention on `Event::RoundCompleted`).
            if obs.wants_round(rounds_done) {
                let config = sim.configuration();
                obs.emit(&Event::RoundCompleted {
                    rep,
                    round: rounds_done,
                    ones: config.ones(),
                    source_opinion: config.correct().as_bit(),
                });
            }
        }
        Outcome::TimedOut { rounds: max_rounds }
    };
    if obs.metrics_on() {
        obs.metrics().add_rounds(rounds_done);
        obs.metrics().add_samples(rounds_done.saturating_mul(sim.opinion_samples_per_round()));
        if env.is_some() {
            obs.metrics().add_perturbations(perturbations);
        }
    }
    if obs.active() {
        obs.emit(&Event::ReplicationFinished {
            rep,
            outcome: if outcome.is_converged() {
                ReplicationOutcome::Converged
            } else {
                ReplicationOutcome::TimedOut
            },
            rounds: outcome.rounds_censored(),
            elapsed_us: timer.elapsed_us(),
        });
    }
    outcome
}

/// Result of a stability-checked run (experiment E9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityOutcome {
    /// Consensus was reached at `entered` and held for the whole dwell
    /// window.
    Stable {
        /// Round at which the correct consensus was first reached.
        entered: u64,
    },
    /// Consensus was reached at `entered` but lost again at `exited` —
    /// the protocol cannot maintain it (violates Proposition 3).
    Exited {
        /// Round at which the correct consensus was first reached.
        entered: u64,
        /// First round after `entered` at which some agent deviated.
        exited: u64,
    },
    /// Consensus was never reached within the budget.
    NeverReached {
        /// The exhausted round budget.
        rounds: u64,
    },
}

/// Runs until the correct consensus is reached, then keeps stepping for
/// `dwell` further rounds to check that the consensus *persists* — the
/// "remains with it forever" part of the problem definition, observable in
/// finite time for protocols that leak mass out of the consensus.
///
/// The consensus phase runs through [`run_to_consensus_observed`] (round
/// events, replication event, counters), the dwell window emits its own
/// [`Event::RoundCompleted`] events (labeled `entered + d`, continuing the
/// run's round numbering) and adds its rounds and samples to the metrics,
/// and a consensus loss emits a closing [`Event::ConsensusExited`].
/// Instrumentation never touches `rng`, so outcomes are **identical** to a
/// run on [`Obs::none`] for the same seed.
pub fn run_with_exit_detection_observed<S: Simulator + ?Sized>(
    sim: &mut S,
    rng: &mut SimRng,
    max_rounds: u64,
    dwell: u64,
    obs: &Obs,
    rep: u64,
) -> StabilityOutcome {
    let entered = match run_to_consensus_observed(sim, rng, max_rounds, None, obs, rep) {
        Outcome::Converged { rounds } => rounds,
        Outcome::TimedOut { rounds } => return StabilityOutcome::NeverReached { rounds },
    };
    let mut dwell_done: u64 = 0;
    let outcome = 'dwell: {
        for d in 1..=dwell {
            sim.step_round(rng);
            dwell_done += 1;
            let config = sim.configuration();
            if obs.wants_round(entered + d) {
                obs.emit(&Event::RoundCompleted {
                    rep,
                    round: entered + d,
                    ones: config.ones(),
                    source_opinion: config.correct().as_bit(),
                });
            }
            if !config.is_correct_consensus() {
                break 'dwell StabilityOutcome::Exited { entered, exited: entered + d };
            }
        }
        StabilityOutcome::Stable { entered }
    };
    if obs.metrics_on() {
        obs.metrics().add_rounds(dwell_done);
        obs.metrics().add_samples(dwell_done.saturating_mul(sim.opinion_samples_per_round()));
    }
    if obs.active() {
        if let StabilityOutcome::Exited { entered, exited } = outcome {
            obs.emit(&Event::ConsensusExited { rep, entered, exited });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::rng::rng_from;
    use bitdissem_core::dynamics::{NoisyVoter, Stay, Voter};
    use bitdissem_core::Opinion;

    #[test]
    fn outcome_accessors() {
        let c = Outcome::Converged { rounds: 5 };
        let t = Outcome::TimedOut { rounds: 9 };
        assert_eq!(c.rounds(), Some(5));
        assert_eq!(t.rounds(), None);
        assert_eq!(c.rounds_censored(), 5);
        assert_eq!(t.rounds_censored(), 9);
        assert!(c.is_converged());
        assert!(!t.is_converged());
    }

    #[test]
    fn already_converged_returns_zero() {
        let start = Configuration::correct_consensus(16, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut rng = rng_from(0);
        assert_eq!(run_to_consensus(&mut sim, &mut rng, 10), Outcome::Converged { rounds: 0 });
    }

    #[test]
    fn stay_always_times_out() {
        let start = Configuration::all_wrong(16, Opinion::One);
        let mut sim = AggregateSim::new(&Stay::new(1), start).unwrap();
        let mut rng = rng_from(1);
        assert_eq!(run_to_consensus(&mut sim, &mut rng, 100), Outcome::TimedOut { rounds: 100 });
    }

    #[test]
    fn voter_converges_and_is_stable() {
        let start = Configuration::all_wrong(32, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut rng = rng_from(2);
        match run_with_exit_detection_observed(&mut sim, &mut rng, 1_000_000, 200, &Obs::none(), 0)
        {
            StabilityOutcome::Stable { entered } => assert!(entered > 0),
            other => panic!("expected stable convergence, got {other:?}"),
        }
    }

    #[test]
    fn observed_run_matches_unobserved_exactly() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(64, Opinion::One);
        let plain = {
            let mut sim = AggregateSim::new(&voter, start).unwrap();
            run_to_consensus(&mut sim, &mut rng_from(11), 100_000)
        };
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(sink).with_metrics();
        let observed = {
            let mut sim = AggregateSim::new(&voter, start).unwrap();
            run_to_consensus_observed(&mut sim, &mut rng_from(11), 100_000, None, &obs, 0)
        };
        assert_eq!(plain, observed);
    }

    #[test]
    fn memory_sink_records_the_exact_event_sequence() {
        // Fixed seed, n = 8, Voter: the trace must be RoundCompleted for
        // rounds 1..=k (the event labeled r carries X_r, per the convention
        // on Event::RoundCompleted) followed by a single
        // ReplicationFinished whose round count equals the outcome.
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(8, Opinion::One);
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _);
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome =
            run_to_consensus_observed(&mut sim, &mut rng_from(42), 100_000, None, &obs, 5);
        let k = outcome.rounds().expect("voter converges on n = 8");
        assert!(k > 0);

        let events = sink.events();
        assert_eq!(events.len() as u64, k + 1, "k round events plus the replication event");
        for (t, ev) in events[..events.len() - 1].iter().enumerate() {
            match *ev {
                bitdissem_obs::Event::RoundCompleted { rep, round, ones, source_opinion } => {
                    assert_eq!(rep, 5);
                    assert_eq!(round, t as u64 + 1, "label r carries X_r; labels start at 1");
                    assert!(ones <= 8);
                    assert_eq!(source_opinion, 1);
                }
                ref other => panic!("expected RoundCompleted at {t}, got {other:?}"),
            }
        }
        // The final round event shows the correct consensus being reached.
        match events[events.len() - 2] {
            bitdissem_obs::Event::RoundCompleted { ones, .. } => assert_eq!(ones, 8),
            ref other => panic!("unexpected event {other:?}"),
        }
        match events[events.len() - 1] {
            bitdissem_obs::Event::ReplicationFinished { rep, outcome, rounds, .. } => {
                assert_eq!(rep, 5);
                assert_eq!(outcome, ReplicationOutcome::Converged);
                assert_eq!(rounds, k);
            }
            ref other => panic!("expected ReplicationFinished, got {other:?}"),
        }
    }

    #[test]
    fn round_stride_thins_the_trace() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(64, Opinion::One);
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_round_stride(8);
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome = run_to_consensus_observed(&mut sim, &mut rng_from(4), 100_000, None, &obs, 0);
        let k = outcome.rounds().unwrap();
        let round_events = sink
            .events()
            .iter()
            .filter(|e| matches!(e, bitdissem_obs::Event::RoundCompleted { .. }))
            .count() as u64;
        // Labels run 1..=k, so exactly ⌊k/8⌋ of them are multiples of 8.
        assert_eq!(round_events, k / 8);
    }

    #[test]
    fn observed_metrics_count_rounds_and_samples() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(16, Opinion::One);
        let obs = Obs::none().with_metrics();
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome = run_to_consensus_observed(&mut sim, &mut rng_from(9), 100_000, None, &obs, 0);
        let k = outcome.rounds().unwrap();
        let m = obs.metrics();
        assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), k);
        assert_eq!(m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed), k * 16);
    }

    #[test]
    fn observed_metrics_count_ell_samples_per_agent() {
        // Regression: `opinion_samples` must equal ℓ·n·rounds, not
        // n·rounds — every agent draws ℓ opinions per parallel round.
        use bitdissem_core::dynamics::Minority;
        let minority = Minority::new(3).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let obs = Obs::none().with_metrics();
        let mut sim = AggregateSim::new(&minority, start).unwrap();
        let outcome =
            run_to_consensus_observed(&mut sim, &mut rng_from(13), 100_000, None, &obs, 0);
        let k = outcome.rounds().expect("minority converges from 14/16 correct");
        let m = obs.metrics();
        assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), k);
        assert_eq!(m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed), 3 * 16 * k);
    }

    #[test]
    fn noisy_voter_exits_consensus() {
        // ε = 0.02 with n = 16: consensus is reached quickly (each agent is
        // correct w.p. ≈ 0.98 near consensus) but exits at rate
        // 1 − 0.98¹⁵ ≈ 0.26 per round, so an exit within the dwell window
        // is essentially certain.
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let mut sim = AggregateSim::new(&NoisyVoter::new(1, 0.02).unwrap(), start).unwrap();
        let mut rng = rng_from(3);
        match run_with_exit_detection_observed(
            &mut sim,
            &mut rng,
            1_000_000,
            10_000,
            &Obs::none(),
            0,
        ) {
            StabilityOutcome::Exited { entered, exited } => assert!(exited > entered),
            other => panic!("expected consensus exit, got {other:?}"),
        }
    }

    #[test]
    fn observed_exit_detection_matches_unobserved_exactly() {
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let run = |obs: &Obs| {
            let mut sim = AggregateSim::new(&noisy, start).unwrap();
            run_with_exit_detection_observed(&mut sim, &mut rng_from(21), 1_000_000, 10_000, obs, 0)
        };
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let instrumented = run(&Obs::none().with_sink(sink).with_metrics());
        assert_eq!(run(&Obs::none()), instrumented);
    }

    #[test]
    fn observed_exit_detection_emits_consensus_exited() {
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_metrics();
        let mut sim = AggregateSim::new(&noisy, start).unwrap();
        let outcome = run_with_exit_detection_observed(
            &mut sim,
            &mut rng_from(3),
            1_000_000,
            10_000,
            &obs,
            7,
        );
        let StabilityOutcome::Exited { entered, exited } = outcome else {
            panic!("expected consensus exit, got {outcome:?}");
        };
        let exits: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match *e {
                bitdissem_obs::Event::ConsensusExited { rep, entered, exited } => {
                    Some((rep, entered, exited))
                }
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![(7, entered, exited)]);
        // The dwell rounds are counted: total rounds exceed the consensus
        // phase by the dwell length actually simulated.
        let m = obs.metrics();
        let rounds = m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(rounds, exited, "entered rounds plus (exited − entered) dwell rounds");
    }

    #[test]
    fn observed_exit_detection_reenters_after_a_forced_exit() {
        // After an exit the simulator sits in a perturbed, off-consensus
        // state. A fresh observed run on the *same* simulator must
        // re-detect consensus entry from that state (its own round
        // numbering starting at zero) and catch the next exit too —
        // nothing in the detector may assume it starts from a virgin
        // state.
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_metrics();
        let mut sim = AggregateSim::new(&noisy, start).unwrap();
        let mut rng = rng_from(6);
        let first =
            run_with_exit_detection_observed(&mut sim, &mut rng, 1_000_000, 10_000, &obs, 1);
        let StabilityOutcome::Exited { exited: first_exit, .. } = first else {
            panic!("expected a forced exit, got {first:?}");
        };
        assert!(
            !sim.configuration().is_correct_consensus(),
            "the detector leaves the sim in its post-exit state"
        );
        let second =
            run_with_exit_detection_observed(&mut sim, &mut rng, 1_000_000, 10_000, &obs, 2);
        let StabilityOutcome::Exited { entered, exited } = second else {
            panic!("ε = 0.02 on n = 16 exits within 10k dwell rounds w.h.p.: {second:?}");
        };
        assert!(exited > entered, "re-entered at {entered}, re-exited at {exited}");
        let exits: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match *e {
                bitdissem_obs::Event::ConsensusExited { rep, .. } => Some(rep),
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![1, 2], "one ConsensusExited per run, in order");
        let _ = first_exit;
    }

    #[test]
    fn env_run_matches_unobserved_and_counts_perturbations() {
        let voter = Voter::new(1).unwrap();
        let env: crate::env::EnvSchedule = "reset:k=4@every:25".parse().unwrap();
        let start = Configuration::all_wrong(32, Opinion::One);
        let plain = {
            let mut sim = AggregateSim::new(&voter, start).unwrap();
            run_to_consensus_observed(
                &mut sim,
                &mut rng_from(31),
                100_000,
                Some(&env),
                &Obs::none(),
                0,
            )
        };
        let obs = Obs::none().with_metrics();
        let observed = {
            let mut sim = AggregateSim::new(&voter, start).unwrap();
            run_to_consensus_observed(&mut sim, &mut rng_from(31), 100_000, Some(&env), &obs, 0)
        };
        assert_eq!(plain, observed);
        assert!(observed.is_converged());
        // Periodic resets slow the climb: perturbations were both applied
        // and counted.
        let m = obs.metrics();
        let p = m.perturbations_applied.load(std::sync::atomic::Ordering::Relaxed);
        let k = observed.rounds().unwrap();
        // Perturbations apply at boundaries 0..k, so one reset fired per
        // full period inside [1, k − 1].
        assert_eq!(p, (k - 1) / 25);
    }

    #[test]
    fn observed_exit_detection_is_silent_when_stable() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(32, Opinion::One);
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _);
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome =
            run_with_exit_detection_observed(&mut sim, &mut rng_from(2), 1_000_000, 200, &obs, 0);
        assert!(matches!(outcome, StabilityOutcome::Stable { .. }));
        assert!(!sink
            .events()
            .iter()
            .any(|e| matches!(e, bitdissem_obs::Event::ConsensusExited { .. })));
    }
}
