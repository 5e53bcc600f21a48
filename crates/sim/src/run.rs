//! The solo run driver: convergence detection, stop rules and run control.

use std::sync::OnceLock;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// When a solo run stops. The budget bounds the search for the first
/// correct consensus under every rule; [`Stop::Horizon`] also ends there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// At the first boundary that holds the correct consensus: the
    /// convergence time `τ` of the paper for Proposition-3-compliant
    /// protocols, whose correct consensus is absorbing.
    Consensus,
    /// At the first boundary after the first consensus that has lost it,
    /// or `d` rounds after the first consensus: Proposition 3's "and
    /// remains there", observable in finite time for protocols that leak
    /// mass out of the consensus.
    Dwell(u64),
    /// After exactly `budget` rounds, whatever the state: the fixed horizon
    /// over which re-convergence after perturbations is timed.
    Horizon,
}

/// What one solo run does: its round budget, stop rule, environment
/// schedule, observability handle and replication index (the `rep` of its
/// trace events).
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Round budget (see [`Stop`]).
    pub budget: u64,
    /// Stop rule.
    pub stop: Stop,
    /// Perturbations applied at every boundary, if any.
    pub env: Option<&'a EnvSchedule>,
    /// Events and counters of the run.
    pub obs: &'a Obs,
    /// Replication index the run's events carry.
    pub rep: u64,
}

impl<'a> RunSpec<'a> {
    /// A run of replication 0 without a schedule.
    #[must_use]
    pub fn new(budget: u64, stop: Stop, obs: &'a Obs) -> Self {
        Self { budget, stop, env: None, obs, rep: 0 }
    }
}

/// What a solo run observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// First boundary at which the correct consensus held.
    pub first_consensus: Option<u64>,
    /// Under [`Stop::Dwell`], the first boundary after the first consensus
    /// at which it no longer held.
    pub exited: Option<u64>,
    /// Rounds stepped.
    pub rounds: u64,
    /// Perturbation events applied.
    pub perturbations: u64,
    /// Boundaries `1..=rounds` at which the correct consensus held.
    pub dwell_rounds: u64,
    /// Rounds from each disruptive perturbation back to the correct
    /// consensus, one entry per resolved disruption.
    pub reconverge: Vec<u64>,
}

impl RunStats {
    /// The first-consensus outcome: converged at the first consensus, or
    /// timed out at the budget.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        match self.first_consensus {
            Some(rounds) => Outcome::Converged { rounds },
            None => Outcome::TimedOut { rounds: self.rounds },
        }
    }

    /// Fraction of boundaries spent at the correct consensus.
    #[must_use]
    pub fn dwell_fraction(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.dwell_rounds as f64 / self.rounds as f64
    }
}

/// Rounds a solo run steps between two additions to `rounds_simulated` and
/// `opinion_samples`, so that a live view of a long run (`watch`, the
/// telemetry series) sees its counters move; the run adds the remainder
/// when it stops, so totals stay exact.
const COUNT_BLOCK: u64 = 4096;

/// Runs `sim` until the **correct consensus** is first reached, or until
/// `max_rounds` rounds have elapsed: [`drive`] under [`Stop::Consensus`],
/// unobserved.
pub fn run_to_consensus<S: Simulator + ?Sized>(
    sim: &mut S,
    rng: &mut SimRng,
    max_rounds: u64,
) -> Outcome {
    // One shared disabled handle: `Obs::none()` allocates a metrics block.
    static NONE: OnceLock<Obs> = OnceLock::new();
    let obs = NONE.get_or_init(Obs::none);
    drive(sim, rng, &RunSpec::new(max_rounds, Stop::Consensus, obs), None).outcome()
}

/// Steps `sim` under `spec` and returns what the run observed; the one
/// loop that runs a solo [`Simulator`].
///
/// At each boundary `t` the run passes the configuration `X_t` to `visit`,
/// checks the consensus (and the stop rule), applies the schedule's
/// boundary-`t` perturbations, then steps to `X_{t+1}`. A run perturbed
/// *into* the correct consensus is therefore credited at the next
/// boundary, as on every engine (DESIGN decision 15).
///
/// A perturbation at `t` is *disruptive* when it leaves the system off the
/// correct consensus and either the system held it before or the
/// perturbation moved the target (a source flip). Each disruption opens a
/// clock that closes at the next boundary holding the correct consensus
/// ([`RunStats::reconverge`]); a clock still open when the run stops is
/// dropped rather than biasing the samples.
///
/// With an active handle the run emits an [`Event::RoundCompleted`] after
/// every step (subject to the round stride; the event labeled `r` carries
/// `X_r`, so labels start at 1), one [`Event::ReplicationFinished`] when the
/// first consensus is reached or the budget runs out without it (so a
/// dwell run's lands at its entry round, before the dwell rows), and an
/// [`Event::ConsensusExited`] when a dwell run loses the consensus. With
/// metrics on it adds its rounds and `opinion_samples_per_round` samples
/// per round every 4096 rounds as it steps and the rest when it stops, and
/// its perturbations (under a schedule) and re-convergence clocks once at
/// the end. Instrumentation never touches `rng`, so the
/// stats are identical to a run on [`Obs::none`] for the same seed.
pub fn drive<S: Simulator + ?Sized>(
    sim: &mut S,
    rng: &mut SimRng,
    spec: &RunSpec<'_>,
    mut visit: Option<&mut dyn FnMut(Configuration)>,
) -> RunStats {
    let RunSpec { budget, stop, env, obs, rep } = *spec;
    let timer = Timer::start();
    let finished = |outcome: ReplicationOutcome, rounds: u64| {
        if obs.active() {
            let elapsed_us = timer.elapsed_us();
            obs.emit(&Event::ReplicationFinished { rep, outcome, rounds, elapsed_us });
        }
    };
    let mut stats = RunStats::default();
    let mut disrupted_at: Option<u64> = None;
    let samples_per_round = sim.opinion_samples_per_round();
    let count = |rounds: u64| {
        let m = obs.metrics();
        m.add_rounds(rounds);
        m.add_samples(rounds.saturating_mul(samples_per_round));
    };
    for t in 0.. {
        let config = sim.configuration();
        if let Some(visit) = visit.as_mut() {
            visit(config);
        }
        let at_consensus = config.is_correct_consensus();
        if at_consensus {
            if let Some(p) = disrupted_at.take() {
                stats.reconverge.push(t - p);
            }
            stats.dwell_rounds += u64::from(t > 0);
        }
        if stats.first_consensus.is_none() {
            if at_consensus {
                stats.first_consensus = Some(t);
                finished(ReplicationOutcome::Converged, t);
            } else if t == budget {
                finished(ReplicationOutcome::TimedOut, budget);
                break;
            }
        }
        match (stats.first_consensus, stop) {
            (Some(_), Stop::Consensus) => break,
            (Some(entered), Stop::Dwell(_)) if !at_consensus => {
                stats.exited = Some(t);
                if obs.active() {
                    obs.emit(&Event::ConsensusExited { rep, entered, exited: t });
                }
                break;
            }
            (Some(entered), Stop::Dwell(d)) if t - entered == d => break,
            (Some(_), Stop::Horizon) if t == budget => break,
            _ => {}
        }
        if let Some(env) = env {
            let events = sim.perturb(env, t, rng);
            stats.perturbations += events;
            if events > 0
                && disrupted_at.is_none()
                && (at_consensus || env.flip_fires(t))
                && !sim.configuration().is_correct_consensus()
            {
                disrupted_at = Some(t);
            }
        }
        sim.step_round(rng);
        stats.rounds += 1;
        if stats.rounds % COUNT_BLOCK == 0 && obs.metrics_on() {
            count(COUNT_BLOCK);
        }
        if obs.wants_round(stats.rounds) {
            let config = sim.configuration();
            obs.emit(&Event::RoundCompleted {
                rep,
                round: stats.rounds,
                ones: config.ones(),
                source_opinion: config.correct().as_bit(),
            });
        }
    }
    if obs.metrics_on() {
        count(stats.rounds % COUNT_BLOCK);
        let m = obs.metrics();
        if env.is_some() {
            m.add_perturbations(stats.perturbations);
        }
        for &r in &stats.reconverge {
            m.record_reconverge(r);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::rng::rng_from;
    use bitdissem_core::dynamics::{Minority, NoisyVoter, Stay, Voter};
    use bitdissem_core::Opinion;
    use bitdissem_obs::MemorySink;
    use std::sync::Arc;

    /// A [`Stop::Consensus`] run of replication `rep`.
    fn to_consensus<S: Simulator>(
        sim: &mut S,
        rng: &mut SimRng,
        budget: u64,
        env: Option<&EnvSchedule>,
        obs: &Obs,
        rep: u64,
    ) -> Outcome {
        drive(sim, rng, &RunSpec { budget, stop: Stop::Consensus, env, obs, rep }, None).outcome()
    }

    /// A [`Stop::Dwell`] run of replication `rep`.
    fn dwell<S: Simulator>(
        sim: &mut S,
        rng: &mut SimRng,
        budget: u64,
        d: u64,
        obs: &Obs,
        rep: u64,
    ) -> RunStats {
        drive(sim, rng, &RunSpec { budget, stop: Stop::Dwell(d), env: None, obs, rep }, None)
    }

    /// A [`Stop::Horizon`] run under `env`.
    fn horizon<S: Simulator>(sim: &mut S, rng: &mut SimRng, h: u64, env: &EnvSchedule) -> RunStats {
        let obs = Obs::none();
        drive(sim, rng, &RunSpec { env: Some(env), ..RunSpec::new(h, Stop::Horizon, &obs) }, None)
    }

    fn recording() -> (Arc<MemorySink>, Obs) {
        let sink = Arc::new(MemorySink::new());
        (Arc::clone(&sink), Obs::none().with_sink(sink as _).with_metrics())
    }

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
    fn visitor_sees_every_boundary() {
        // X_0 through the boundary that stops the run, one call each.
        let start = Configuration::all_wrong(16, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut seen = Vec::new();
        let obs = Obs::none();
        let spec = RunSpec::new(100_000, Stop::Consensus, &obs);
        let stats = drive(&mut sim, &mut rng_from(8), &spec, Some(&mut |c| seen.push(c.ones())));
        let k = stats.first_consensus.expect("voter converges on n = 16");
        assert_eq!(seen.len() as u64, k + 1);
        assert_eq!((seen[0], seen[k as usize]), (1, 16));
        assert!(seen[..k as usize].iter().all(|&x| x < 16));
    }

    /// A long run's counters move while it steps, one block of rounds at a
    /// time, and end exact.
    #[test]
    fn counters_move_while_the_run_steps() {
        let start = Configuration::all_wrong(16, Opinion::One);
        let mut sim = AggregateSim::new(&Stay::new(1), start).unwrap();
        let obs = Obs::none().with_metrics();
        let budget = 2 * COUNT_BLOCK + 100;
        let spec = RunSpec::new(budget, Stop::Consensus, &obs);
        let mut counted = Vec::new();
        let mut read = |_| counted.push(obs.metrics().snapshot().rounds_simulated);
        let stats = drive(&mut sim, &mut rng_from(3), &spec, Some(&mut read));
        assert_eq!(stats.rounds, budget);
        // `counted[t]` is read at boundary t, after t rounds.
        assert_eq!(counted[COUNT_BLOCK as usize - 1], 0);
        assert_eq!(counted[COUNT_BLOCK as usize], COUNT_BLOCK);
        assert_eq!(counted[budget as usize], 2 * COUNT_BLOCK, "read before the run ends");
        let c = obs.metrics().snapshot();
        assert_eq!((c.rounds_simulated, c.opinion_samples), (budget, budget * 16));
    }

    #[test]
    fn voter_converges_and_is_stable() {
        let start = Configuration::all_wrong(32, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(2), 1_000_000, 200, &Obs::none(), 0);
        let entered = stats.first_consensus.expect("voter converges");
        assert!(entered > 0);
        assert_eq!((stats.exited, stats.rounds), (None, entered + 200));
    }

    #[test]
    fn a_zero_dwell_stops_at_the_first_consensus() {
        let start = Configuration::correct_consensus(16, Opinion::One);
        let mut sim = AggregateSim::new(&NoisyVoter::new(1, 0.02).unwrap(), start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(5), 10, 0, &Obs::none(), 0);
        assert_eq!((stats.first_consensus, stats.exited, stats.rounds), (Some(0), None, 0));
    }

    #[test]
    fn observed_run_matches_unobserved_exactly() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(64, Opinion::One);
        let plain = {
            let mut sim = AggregateSim::new(&voter, start).unwrap();
            run_to_consensus(&mut sim, &mut rng_from(11), 100_000)
        };
        let (_, obs) = recording();
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let observed = to_consensus(&mut sim, &mut rng_from(11), 100_000, None, &obs, 0);
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
        let (sink, obs) = recording();
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome = to_consensus(&mut sim, &mut rng_from(42), 100_000, None, &obs, 5);
        let k = outcome.rounds().expect("voter converges on n = 8");
        assert!(k > 0);

        let events = sink.events();
        assert_eq!(events.len() as u64, k + 1, "k round events plus the replication event");
        for (t, ev) in events[..events.len() - 1].iter().enumerate() {
            match *ev {
                Event::RoundCompleted { rep, round, ones, source_opinion } => {
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
            Event::RoundCompleted { ones, .. } => assert_eq!(ones, 8),
            ref other => panic!("unexpected event {other:?}"),
        }
        match events[events.len() - 1] {
            Event::ReplicationFinished { rep, outcome, rounds, .. } => {
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
        let (sink, obs) = recording();
        let obs = obs.with_round_stride(8);
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome = to_consensus(&mut sim, &mut rng_from(4), 100_000, None, &obs, 0);
        let k = outcome.rounds().unwrap();
        let round_events =
            sink.events().iter().filter(|e| matches!(e, Event::RoundCompleted { .. })).count()
                as u64;
        // Labels run 1..=k, so exactly ⌊k/8⌋ of them are multiples of 8.
        assert_eq!(round_events, k / 8);
    }

    #[test]
    fn observed_metrics_count_rounds_and_samples() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(16, Opinion::One);
        let obs = Obs::none().with_metrics();
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let outcome = to_consensus(&mut sim, &mut rng_from(9), 100_000, None, &obs, 0);
        let k = outcome.rounds().unwrap();
        let m = obs.metrics().snapshot();
        assert_eq!((m.rounds_simulated, m.opinion_samples), (k, k * 16));
    }

    #[test]
    fn observed_metrics_count_ell_samples_per_agent() {
        // Regression: `opinion_samples` must equal ℓ·n·rounds, not
        // n·rounds — every agent draws ℓ opinions per parallel round.
        let minority = Minority::new(3).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let obs = Obs::none().with_metrics();
        let mut sim = AggregateSim::new(&minority, start).unwrap();
        let outcome = to_consensus(&mut sim, &mut rng_from(13), 100_000, None, &obs, 0);
        let k = outcome.rounds().expect("minority converges from 14/16 correct");
        let m = obs.metrics().snapshot();
        assert_eq!((m.rounds_simulated, m.opinion_samples), (k, 3 * 16 * k));
    }

    #[test]
    fn noisy_voter_exits_consensus() {
        // ε = 0.02 with n = 16: consensus is reached quickly (each agent is
        // correct w.p. ≈ 0.98 near consensus) but exits at rate
        // 1 − 0.98¹⁵ ≈ 0.26 per round, so an exit within the dwell window
        // is essentially certain.
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let mut sim = AggregateSim::new(&NoisyVoter::new(1, 0.02).unwrap(), start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(3), 1_000_000, 10_000, &Obs::none(), 0);
        let (Some(entered), Some(exited)) = (stats.first_consensus, stats.exited) else {
            panic!("expected consensus exit, got {stats:?}");
        };
        assert!(exited > entered);
        assert_eq!(stats.rounds, exited);
    }

    #[test]
    fn observed_exit_detection_matches_unobserved_exactly() {
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let run = |obs: &Obs| {
            let mut sim = AggregateSim::new(&noisy, start).unwrap();
            dwell(&mut sim, &mut rng_from(21), 1_000_000, 10_000, obs, 0)
        };
        let (_, obs) = recording();
        assert_eq!(run(&Obs::none()), run(&obs));
    }

    #[test]
    fn observed_exit_detection_emits_consensus_exited() {
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let (sink, obs) = recording();
        let mut sim = AggregateSim::new(&noisy, start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(3), 1_000_000, 10_000, &obs, 7);
        let (Some(entered), Some(exited)) = (stats.first_consensus, stats.exited) else {
            panic!("expected consensus exit, got {stats:?}");
        };
        let exits: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::ConsensusExited { rep, entered, exited } => Some((rep, entered, exited)),
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![(7, entered, exited)]);
        // The dwell rounds are counted: total rounds exceed the consensus
        // phase by the dwell length actually simulated.
        let rounds = obs.metrics().snapshot().rounds_simulated;
        assert_eq!(rounds, exited, "entered rounds plus (exited − entered) dwell rounds");
    }

    #[test]
    fn observed_exit_detection_reenters_after_a_forced_exit() {
        // After an exit the simulator sits in a perturbed, off-consensus
        // state. A fresh dwell run on the *same* simulator must re-detect
        // consensus entry from that state (its own round numbering
        // starting at zero) and catch the next exit too — nothing in the
        // detector may assume it starts from a virgin state.
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let (sink, obs) = recording();
        let mut sim = AggregateSim::new(&noisy, start).unwrap();
        let mut rng = rng_from(6);
        let first = dwell(&mut sim, &mut rng, 1_000_000, 10_000, &obs, 1);
        assert!(first.exited.is_some(), "expected a forced exit, got {first:?}");
        assert!(
            !sim.configuration().is_correct_consensus(),
            "the detector leaves the sim in its post-exit state"
        );
        let second = dwell(&mut sim, &mut rng, 1_000_000, 10_000, &obs, 2);
        let (Some(entered), Some(exited)) = (second.first_consensus, second.exited) else {
            panic!("ε = 0.02 on n = 16 exits within 10k dwell rounds w.h.p.: {second:?}");
        };
        assert!(exited > entered, "re-entered at {entered}, re-exited at {exited}");
        let exits: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::ConsensusExited { rep, .. } => Some(rep),
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![1, 2], "one ConsensusExited per run, in order");
    }

    #[test]
    fn env_run_matches_unobserved_and_counts_perturbations() {
        let voter = Voter::new(1).unwrap();
        let env: EnvSchedule = "reset:k=4@every:25".parse().unwrap();
        let start = Configuration::all_wrong(32, Opinion::One);
        let run = |obs: &Obs| {
            let mut sim = AggregateSim::new(&voter, start).unwrap();
            to_consensus(&mut sim, &mut rng_from(31), 100_000, Some(&env), obs, 0)
        };
        let obs = Obs::none().with_metrics();
        let observed = run(&obs);
        assert_eq!(run(&Obs::none()), observed);
        assert!(observed.is_converged());
        // Periodic resets slow the climb: perturbations were both applied
        // and counted.
        let p = obs.metrics().snapshot().perturbations_applied;
        let k = observed.rounds().unwrap();
        // Perturbations apply at boundaries 0..k, so one reset fired per
        // full period inside [1, k − 1].
        assert_eq!(p, (k - 1) / 25);
    }

    /// One token per event: `R<round>=<ones>` for a round row,
    /// `F<c|t><rounds>` for the replication event, `X<entered>-<exited>`
    /// for a consensus exit, each prefixed by its replication index.
    fn event_tokens(events: &[Event]) -> String {
        let token = |e: &Event| match *e {
            Event::RoundCompleted { rep, round, ones, source_opinion: 1 } => {
                format!("{rep}:R{round}={ones}")
            }
            Event::ReplicationFinished { rep, outcome, rounds, .. } => {
                let tag = if outcome == ReplicationOutcome::Converged { 'c' } else { 't' };
                format!("{rep}:F{tag}{rounds}")
            }
            Event::ConsensusExited { rep, entered, exited } => format!("{rep}:X{entered}-{exited}"),
            ref other => panic!("unexpected event {other:?}"),
        };
        events.iter().map(token).collect::<Vec<_>>().join(" ")
    }

    /// The exact event streams of two dwell runs: one that reaches the
    /// consensus and leaves it (the replication event lands at the entry
    /// round, before the dwell rows), one that never reaches it.
    #[test]
    fn dwell_event_streams_are_pinned() {
        let (sink, obs) = recording();
        let noisy = NoisyVoter::new(1, 0.02).unwrap();
        let start = Configuration::new(16, Opinion::One, 14).unwrap();
        let mut sim = AggregateSim::new(&noisy, start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(3), 1_000_000, 10_000, &obs, 7);
        assert_eq!((stats.first_consensus, stats.exited), (Some(1), Some(3)));
        assert_eq!(event_tokens(&sink.events()), "7:R1=16 7:Fc1 7:R2=16 7:R3=15 7:X1-3");
        let m = obs.metrics().snapshot();
        assert_eq!((m.rounds_simulated, m.opinion_samples), (3, 48));

        let (sink, obs) = recording();
        let start = Configuration::new(16, Opinion::One, 8).unwrap();
        let mut sim = AggregateSim::new(&Stay::new(1), start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(4), 6, 10, &obs, 2);
        assert_eq!(stats.outcome(), Outcome::TimedOut { rounds: 6 });
        assert_eq!(event_tokens(&sink.events()), "2:R1=8 2:R2=8 2:R3=8 2:R4=8 2:R5=8 2:R6=8 2:Ft6");
        let m = obs.metrics().snapshot();
        assert_eq!((m.rounds_simulated, m.opinion_samples), (6, 96));
    }

    #[test]
    fn observed_exit_detection_is_silent_when_stable() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(32, Opinion::One);
        let (sink, obs) = recording();
        let mut sim = AggregateSim::new(&voter, start).unwrap();
        let stats = dwell(&mut sim, &mut rng_from(2), 1_000_000, 200, &obs, 0);
        assert!(stats.first_consensus.is_some() && stats.exited.is_none());
        assert!(!sink.events().iter().any(|e| matches!(e, Event::ConsensusExited { .. })));
    }

    #[test]
    fn horizon_stops_at_the_budget_even_on_a_first_consensus() {
        // A start at the consensus reaches its first consensus at 0 and
        // still runs the whole horizon; a zero horizon steps nothing.
        let env: EnvSchedule = "noise:0.01".parse().unwrap();
        let start = Configuration::correct_consensus(16, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let stats = horizon(&mut sim, &mut rng_from(1), 50, &env);
        assert_eq!((stats.first_consensus, stats.rounds, stats.perturbations), (Some(0), 50, 50));
        let stats = horizon(&mut sim, &mut rng_from(1), 0, &env);
        assert_eq!((stats.rounds, stats.dwell_fraction()), (0, 0.0));
    }
}
