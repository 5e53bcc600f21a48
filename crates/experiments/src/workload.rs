//! Shared measurement helpers: replicated convergence and crossing times.
//!
//! When the observability handle carries a checkpoint log, the replicated
//! helpers run **checkpointed**: each replication's outcome is keyed by
//! `<kind>:<g-table-fingerprint>:<batch-params>:<stream-revision>#<rep>`
//! (namespaced per experiment by the registry), cached results are loaded
//! instead of re-simulated, and fresh results are recorded as they
//! complete. Because every replication derives its RNG from its index
//! alone, splicing cached and fresh results is bit-identical to an
//! uninterrupted run — within one revision of the engines' randomness
//! streams, which the key carries.

use std::sync::Arc;

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::{Configuration, GTable, Kernel, Opinion, Protocol, ProtocolExt};
use bitdissem_obs::{GaugeId, NullSink, Obs};
use bitdissem_sim::env::EnvSchedule;
use bitdissem_sim::lockstep::replicate_lockstep;
use bitdissem_sim::run::{run_to_consensus_observed, Outcome};
use bitdissem_sim::runner::replicate_indices_observed;
use bitdissem_sim::sequential::SequentialSim;
use bitdissem_stats::Summary;

/// A batch of replicated convergence outcomes.
#[derive(Debug, Clone)]
pub struct OutcomeBatch {
    outcomes: Vec<Outcome>,
    budget: u64,
}

impl OutcomeBatch {
    /// Wraps raw outcomes measured under the given round budget.
    #[must_use]
    pub fn new(outcomes: Vec<Outcome>, budget: u64) -> Self {
        Self { outcomes, budget }
    }

    /// Number of replications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Returns `true` for an empty batch.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The round budget the runs were censored at.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The raw outcomes, in replication order.
    #[must_use]
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Fraction of replications that converged within `bound` rounds.
    #[must_use]
    pub fn fraction_within(&self, bound: f64) -> f64 {
        let c = self
            .outcomes
            .iter()
            .filter(|o| o.rounds().is_some_and(|r| (r as f64) <= bound))
            .count();
        c as f64 / self.outcomes.len().max(1) as f64
    }

    /// Fraction of replications that converged within the budget.
    #[must_use]
    pub fn converged_fraction(&self) -> f64 {
        let c = self.outcomes.iter().filter(|o| o.is_converged()).count();
        c as f64 / self.outcomes.len().max(1) as f64
    }

    /// Right-censored summary (timeouts counted at the budget). The median
    /// is exact as long as fewer than half of the runs timed out.
    #[must_use]
    pub fn censored_summary(&self) -> Option<Summary> {
        let xs: Vec<f64> = self.outcomes.iter().map(|o| o.rounds_censored() as f64).collect();
        Summary::from_samples(&xs)
    }

    /// Summary over converged runs only, or `None` if none converged.
    #[must_use]
    pub fn converged_summary(&self) -> Option<Summary> {
        let xs: Vec<f64> =
            self.outcomes.iter().filter_map(|o| o.rounds().map(|r| r as f64)).collect();
        Summary::from_samples(&xs)
    }
}

/// FNV-1a over the materialized table's sample size and g-value bit
/// patterns: two protocols share a fingerprint iff they induce the same
/// decision table, which is exactly when their replications are
/// interchangeable.
fn table_fingerprint(table: &GTable) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(table.sample_size() as u64);
    for k in 0..=table.sample_size() {
        mix(table.g(Opinion::Zero, k).to_bits());
        mix(table.g(Opinion::One, k).to_bits());
    }
    h
}

/// Revision of the engines' randomness streams, the last field of every
/// checkpoint key. A change that moves the outcome a given seed produces
/// bumps it, so a log written before the change misses instead of
/// splicing old-stream outcomes into a new-stream sweep. Keys without a
/// revision predate `r2`, at which states with `P₀ = P₁` started drawing
/// one binomial per round instead of two.
const STREAM_REVISION: &str = "r2";

/// Builds the per-batch checkpoint key base (everything but the `#rep`
/// suffix): the kind tag, the protocol's table fingerprint, every
/// parameter the outcome depends on, and the [`STREAM_REVISION`].
fn batch_key<P>(kind: &str, protocol: &P, start: Configuration, budget: u64, seed: u64) -> String
where
    P: Protocol + Sync + ?Sized,
{
    let table = protocol.to_table(start.n()).expect("valid protocol");
    format!(
        "{kind}:{fp:016x}:n{n}:z{z}:x{x}:b{budget}:s{seed}:{STREAM_REVISION}",
        fp = table_fingerprint(&table),
        n = start.n(),
        z = start.correct().as_bit(),
        x = start.ones(),
    )
}

/// Emits a [`bitdissem_obs::Event::BatchStarted`] describing a replicated
/// batch: its kind, dimensions, seeds and the protocol's full `g`-table.
/// This is what makes a trace *self-describing* — an offline analyzer can
/// rebuild the protocol (a `GTable` is itself a `Protocol`) and check the
/// recorded trajectory against the paper's Prop-4/Prop-5 predictions
/// without knowing how the batch was constructed. Every event of the
/// batch follows it in the trace (batch calls block), so the next
/// `BatchStarted` line delimits it.
fn emit_batch_started<P>(
    obs: &Obs,
    kind: &str,
    protocol: &P,
    start: Configuration,
    reps: usize,
    budget: u64,
    seed: u64,
) where
    P: Protocol + Sync + ?Sized,
{
    if !obs.active() {
        return;
    }
    let table = protocol.to_table(start.n()).expect("valid protocol");
    obs.emit(&bitdissem_obs::Event::BatchStarted {
        kind: kind.to_string(),
        protocol: protocol.name(),
        ell: table.sample_size() as u64,
        n: start.n(),
        x0: start.ones(),
        source_opinion: start.correct().as_bit(),
        reps: reps as u64,
        budget,
        seed,
        g0: table.g0().to_vec(),
        g1: table.g1().to_vec(),
    });
}

/// RAII gauge updates bracketing one replicated batch: bumps
/// `sweep_batches_started` on construction, tracks `inflight_replications`
/// around the engine call, and bumps `sweep_batches_done` on drop — so
/// the live telemetry view sees batch progress even mid-engine-call.
/// Inert when metrics are off.
struct BatchGauges<'a> {
    metrics: Option<&'a bitdissem_obs::Metrics>,
}

impl<'a> BatchGauges<'a> {
    fn start(obs: &'a Obs) -> Self {
        let metrics = obs.metrics_on().then(|| obs.metrics().as_ref());
        if let Some(m) = metrics {
            m.set_gauge(GaugeId::SweepBatchesTotal, m.gauge(GaugeId::SweepBatchesTotal) + 1);
        }
        BatchGauges { metrics }
    }

    fn set_inflight(&self, n: u64) {
        if let Some(m) = self.metrics {
            m.set_gauge(GaugeId::InflightReplications, n);
        }
    }
}

impl Drop for BatchGauges<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.metrics {
            m.set_gauge(GaugeId::SweepBatchesDone, m.gauge(GaugeId::SweepBatchesDone) + 1);
        }
    }
}

fn encode_outcome(outcome: Outcome) -> String {
    match outcome {
        Outcome::Converged { rounds } => format!("c:{rounds}"),
        Outcome::TimedOut { rounds } => format!("t:{rounds}"),
    }
}

fn decode_outcome(payload: &str) -> Option<Outcome> {
    let (tag, rounds) = payload.split_once(':')?;
    let rounds = rounds.parse().ok()?;
    match tag {
        "c" => Some(Outcome::Converged { rounds }),
        "t" => Some(Outcome::TimedOut { rounds }),
        _ => None,
    }
}

/// Replicates with checkpointing when the handle carries a log: cached
/// replications are loaded (counted as `checkpoint_hits` and ticked on the
/// progress meter), only the missing indices go through `run_missing`, and
/// fresh outcomes are recorded under `<key_base()>#<rep>`. Without a log
/// the whole index range runs through `run_missing` directly.
///
/// `run_missing` receives replication indices and must return their
/// outcomes **in the order of the indices** — both replication drivers
/// (the lock-step engine and the per-replica pool path) satisfy this, and
/// both derive every replication's RNG from its index alone, so splicing
/// cached and fresh results is bit-identical to an uninterrupted run.
fn replicate_checkpointed<K, R>(obs: &Obs, key_base: K, reps: usize, run_missing: R) -> Vec<Outcome>
where
    K: FnOnce() -> String,
    R: FnOnce(&[usize]) -> Vec<Outcome>,
{
    // Batch lifecycle gauges for the live telemetry view: count the batch
    // as started up front, mark the fresh replications in flight around
    // the engine call, and count the batch done on the way out.
    let gauges = BatchGauges::start(obs);
    let run_missing = |missing: &[usize]| {
        gauges.set_inflight(missing.len() as u64);
        let fresh = run_missing(missing);
        gauges.set_inflight(0);
        fresh
    };
    let Some(log) = obs.checkpoint().cloned() else {
        let all: Vec<usize> = (0..reps).collect();
        return run_missing(&all);
    };
    let key_base = key_base();
    let keys: Vec<String> =
        (0..reps).map(|rep| obs.checkpoint_key(&format!("{key_base}#{rep}"))).collect();
    let mut slots: Vec<Option<Outcome>> =
        keys.iter().map(|k| log.lookup(k).and_then(|p| decode_outcome(&p))).collect();

    let cached = slots.iter().filter(|s| s.is_some()).count() as u64;
    if cached > 0 {
        if obs.metrics_on() {
            obs.metrics().add_checkpoint_hits(cached);
        }
        if let Some(progress) = obs.progress() {
            progress.tick(cached);
        }
    }

    let missing: Vec<usize> = (0..reps).filter(|&rep| slots[rep].is_none()).collect();
    let fresh = run_missing(&missing);
    for (&rep, &outcome) in missing.iter().zip(&fresh) {
        log.record(&keys[rep], &encode_outcome(outcome));
        slots[rep] = Some(outcome);
    }
    slots.into_iter().map(|s| s.expect("every replication slot is filled")).collect()
}

/// Compiles the protocol's decision table into the shared adoption kernel
/// once per batch — every replication evaluates the same kernel, and none
/// re-materializes the table.
fn compile_kernel<P>(protocol: &P, n: u64) -> Arc<Kernel>
where
    P: Protocol + ?Sized,
{
    Arc::new(
        protocol.to_table(n).expect("valid protocol").compile().expect("validated table compiles"),
    )
}

/// Measures convergence times of `protocol` from `start` over `reps`
/// replications with a per-run budget of `budget` rounds, on the aggregate
/// exact chain. With an active handle each replication emits per-round and
/// per-replication trace events and contributes to the run counters;
/// outcomes are identical to a run on [`Obs::none`] for the same seed.
///
/// Every replication runs on the lock-step engine
/// ([`replicate_lockstep`]) through one compiled adoption [`Kernel`] and
/// derives its randomness from its index alone, so the outcome vector is
/// bit-identical to running each replication on its own `AggregateSim`,
/// for every thread count and across checkpoint splicing.
#[must_use]
pub fn measure_convergence_observed<P>(
    obs: &Obs,
    protocol: &P,
    start: Configuration,
    reps: usize,
    budget: u64,
    seed: u64,
    threads: Option<usize>,
) -> OutcomeBatch
where
    P: Protocol + Sync + ?Sized,
{
    measure_convergence_inner(obs, None, protocol, start, reps, budget, seed, threads)
}

/// [`measure_convergence_observed`] under an environment schedule: every
/// replication perturbs between rounds per `env`. An inert schedule
/// degenerates to the static measurement (same checkpoint kind, same
/// outcomes); an active one checkpoints under the env-suffixed kind
/// `conv+env[<fp>]`, so cached static-run outcomes can never splice into a
/// dynamic sweep on resume (or vice versa).
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn measure_convergence_env_observed<P>(
    obs: &Obs,
    env: &EnvSchedule,
    protocol: &P,
    start: Configuration,
    reps: usize,
    budget: u64,
    seed: u64,
    threads: Option<usize>,
) -> OutcomeBatch
where
    P: Protocol + Sync + ?Sized,
{
    let env = (!env.is_inert()).then_some(env);
    measure_convergence_inner(obs, env, protocol, start, reps, budget, seed, threads)
}

#[allow(clippy::too_many_arguments)]
fn measure_convergence_inner<P>(
    obs: &Obs,
    env: Option<&EnvSchedule>,
    protocol: &P,
    start: Configuration,
    reps: usize,
    budget: u64,
    seed: u64,
    threads: Option<usize>,
) -> OutcomeBatch
where
    P: Protocol + Sync + ?Sized,
{
    // An active environment schedule changes the law outright, so it gets
    // its own checkpoint kind and caches never splice across it. The trace
    // header carries the same kind: the offline trace checker validates a
    // "conv" batch against the static law and skips env batches, since a
    // perturbed trajectory does not follow the unperturbed law.
    let kind = match env {
        None => "conv".to_string(),
        Some(env) => format!("conv+env[{}]", env.fingerprint()),
    };
    emit_batch_started(obs, &kind, protocol, start, reps, budget, seed);
    let consensus = Configuration::correct_consensus(start.n(), start.correct()).ones();
    let outcomes =
        replicate_to_goal(obs, &kind, protocol, start, consensus, env, reps, budget, seed, threads);
    OutcomeBatch::new(outcomes, budget)
}

/// Runs one checkpointed batch of lock-step replications of `protocol`
/// from `start`, each retiring at the first round its ones-count reaches
/// `goal` in the direction of the correct opinion (see
/// [`LockstepSim::with_goal`](bitdissem_sim::LockstepSim::with_goal)),
/// keyed under `kind`.
#[allow(clippy::too_many_arguments)]
fn replicate_to_goal<P>(
    obs: &Obs,
    kind: &str,
    protocol: &P,
    start: Configuration,
    goal: u64,
    env: Option<&EnvSchedule>,
    reps: usize,
    budget: u64,
    seed: u64,
    threads: Option<usize>,
) -> Vec<Outcome>
where
    P: Protocol + Sync + ?Sized,
{
    let kernel = compile_kernel(protocol, start.n());
    let key_base = || batch_key(kind, protocol, start, budget, seed);
    replicate_checkpointed(obs, key_base, reps, |missing| {
        replicate_lockstep(&kernel, start, goal, missing, seed, threads, budget, env, obs)
    })
}

/// Measures convergence in the **sequential** setting (times in parallel
/// rounds: one round = `n` activations).
#[must_use]
pub fn measure_convergence_sequential_observed<P>(
    obs: &Obs,
    protocol: &P,
    start: Configuration,
    reps: usize,
    budget_rounds: u64,
    seed: u64,
    threads: Option<usize>,
) -> OutcomeBatch
where
    P: Protocol + Sync + ?Sized,
{
    emit_batch_started(obs, "seqconv", protocol, start, reps, budget_rounds, seed);
    let outcomes = replicate_checkpointed(
        obs,
        || batch_key("seqconv", protocol, start, budget_rounds, seed),
        reps,
        |missing| {
            replicate_indices_observed(missing, seed, threads, obs, |mut rng, rep| {
                let mut sim = SequentialSim::new(protocol, start).expect("valid protocol");
                run_to_consensus_observed(&mut sim, &mut rng, budget_rounds, None, obs, rep as u64)
            })
        },
    );
    OutcomeBatch::new(outcomes, budget_rounds)
}

/// Measures the first time the process crosses the witness threshold (the
/// quantity Theorem 6 bounds from below), right-censored at `budget`.
/// Returns one outcome per replication, in replication order:
/// `Converged { rounds: t }` for a replica that first crossed at round `t`
/// (0 if the start has already crossed), `TimedOut { rounds: budget }` for
/// one that did not cross within the budget.
///
/// The batch runs on the lock-step engine with the threshold as its goal,
/// through the same checkpointed driver as [`measure_convergence_observed`].
/// An active handle records the batch's `cross` header only: the engine
/// runs on a handle that keeps metrics, progress and the checkpoint log
/// but emits nothing, since a crossing sweep's round rows (6.9 M for e1 at
/// smoke scale) would outgrow what `trace` holds in memory until its end.
/// With metrics on, a freshly run replica adds its
/// rounds to `rounds_simulated`, `ℓ·n` per round to `opinion_samples`, and
/// one to `replicas_retired` if it crossed; a replica loaded from a
/// checkpoint adds nothing.
#[must_use]
pub fn measure_crossing_observed<P>(
    obs: &Obs,
    protocol: &P,
    witness: &LowerBoundWitness,
    reps: usize,
    budget: u64,
    seed: u64,
    threads: Option<usize>,
) -> Vec<Outcome>
where
    P: Protocol + Sync + ?Sized,
{
    let start = witness.start();
    emit_batch_started(obs, "cross", protocol, start, reps, budget, seed);
    let quiet = obs.clone().with_sink(Arc::new(NullSink));
    let goal = witness.threshold();
    replicate_to_goal(&quiet, "cross", protocol, start, goal, None, reps, budget, seed, threads)
}

/// Geometric sweep of population sizes `start·2^k`, `k = 0..count`.
#[must_use]
pub fn pow2_sweep(start: u64, count: usize) -> Vec<u64> {
    (0..count).map(|k| start << k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{Stay, Voter};
    use bitdissem_core::Opinion;

    #[test]
    fn batch_statistics() {
        let b = OutcomeBatch::new(
            vec![
                Outcome::Converged { rounds: 10 },
                Outcome::Converged { rounds: 20 },
                Outcome::TimedOut { rounds: 100 },
                Outcome::Converged { rounds: 30 },
            ],
            100,
        );
        assert_eq!(b.len(), 4);
        assert!((b.converged_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(b.budget(), 100);
        let cens = b.censored_summary().unwrap();
        assert_eq!(cens.median(), 25.0);
        let conv = b.converged_summary().unwrap();
        assert_eq!(conv.mean(), 20.0);
        assert!(!b.is_empty());
    }

    #[test]
    fn measure_convergence_voter_smoke() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(32, Opinion::One);
        let b = measure_convergence_observed(&Obs::none(), &voter, start, 6, 100_000, 1, Some(2));
        assert_eq!(b.len(), 6);
        assert!((b.converged_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_convergence_is_deterministic() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let a = measure_convergence_observed(&Obs::none(), &voter, start, 5, 100_000, 9, Some(1));
        let b = measure_convergence_observed(&Obs::none(), &voter, start, 5, 100_000, 9, Some(4));
        let av: Vec<_> = a.outcomes.iter().map(Outcome::rounds_censored).collect();
        let bv: Vec<_> = b.outcomes.iter().map(Outcome::rounds_censored).collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn stay_never_crosses() {
        let stay = Stay::new(1);
        let w = LowerBoundWitness::construct(&stay, 64).unwrap();
        let xs = measure_crossing_observed(&Obs::none(), &stay, &w, 3, 50, 2, Some(1));
        assert!(xs.iter().all(|o| !o.is_converged()));
    }

    #[test]
    fn crossing_runs_count_rounds_and_samples() {
        // Each fresh replica is charged the rounds it ran (its crossing
        // round, or the budget) and ℓ·n samples per round, and counts as
        // retired if it crossed; the sink receives the batch header and
        // nothing else. A second run over the same checkpoint log loads
        // every replica and adds nothing.
        use bitdissem_core::dynamics::Minority;
        use bitdissem_obs::{CheckpointLog, Event, MemorySink};
        use std::sync::atomic::Ordering;
        let n = 64;
        let minority = Minority::new(5).unwrap();
        let w = LowerBoundWitness::construct(&minority, n).unwrap();
        let log = Arc::new(CheckpointLog::in_memory());
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none()
            .with_sink(Arc::clone(&sink) as _)
            .with_metrics()
            .with_checkpoint(Arc::clone(&log));
        let cross =
            |obs: &Obs| measure_crossing_observed(obs, &minority, &w, 32, 50 * n, 2024, Some(2));
        let outcomes = cross(&obs);
        assert_eq!(outcomes, cross(&Obs::none()));
        let crossed = outcomes.iter().filter(|o| o.is_converged()).count() as u64;
        assert!(crossed > 0, "some replica crosses");
        assert!(crossed < 32, "some replica times out");
        let events = sink.events();
        assert!(
            matches!(&events[..], [Event::BatchStarted { kind, reps: 32, .. }] if kind == "cross"),
            "only the batch header: {events:?}"
        );
        let total: u64 = outcomes.iter().map(Outcome::rounds_censored).sum();
        let m = obs.metrics();
        let counts = || {
            let c = m.snapshot();
            (c.rounds_simulated, c.opinion_samples, c.replicas_retired)
        };
        assert_eq!(counts(), (total, total * 5 * n, crossed), "Σ rounds, Σ rounds·ℓ·n, crossers");

        let resumed = cross(&obs);
        assert_eq!(resumed, outcomes);
        assert_eq!(m.checkpoint_hits.load(Ordering::Relaxed), 32);
        assert_eq!(counts(), (total, total * 5 * n, crossed), "cached replicas add nothing");
    }

    /// A lock-step replica aimed at the witness threshold has reached its
    /// goal exactly where `witness.crossed` holds, for every state the
    /// chain can hold, in all three cases of the construction.
    #[test]
    fn witness_crossing_is_the_lockstep_goal_rule() {
        use bitdissem_analysis::WitnessCase;
        use bitdissem_core::dynamics::{Minority, PowerVoter};
        use bitdissem_sim::LockstepSim;
        let n = 512;
        let cases: [(&dyn Protocol, WitnessCase); 3] = [
            (&Voter::new(1).unwrap(), WitnessCase::VoterLike),
            (&Minority::new(3).unwrap(), WitnessCase::NegativeDrift),
            (&PowerVoter::new(3, 0.5).unwrap(), WitnessCase::PositiveDrift),
        ];
        for (protocol, case) in cases {
            let w = LowerBoundWitness::construct(protocol, n).unwrap();
            assert_eq!(w.case(), case, "{}", protocol.name());
            let correct = w.start().correct();
            assert_eq!(correct == Opinion::Zero, case == WitnessCase::PositiveDrift, "{case}");
            let kernel = compile_kernel(protocol, n);
            for x in 0..=n {
                // The source's own opinion rules out one end of [0, n].
                let Ok(start) = Configuration::new(n, correct, x) else {
                    assert_eq!(x, if correct == Opinion::One { 0 } else { n }, "{case}");
                    continue;
                };
                let batch =
                    LockstepSim::with_goal(Arc::clone(&kernel), start, w.threshold(), &[1], true);
                assert_eq!(batch.converged_at(0) == Some(0), w.crossed(x), "{case}, x = {x}");
            }
        }
    }

    #[test]
    fn sweep_is_geometric() {
        assert_eq!(pow2_sweep(128, 3), vec![128, 256, 512]);
    }

    #[test]
    fn outcome_payloads_round_trip() {
        for outcome in [Outcome::Converged { rounds: 42 }, Outcome::TimedOut { rounds: 9 }] {
            assert_eq!(decode_outcome(&encode_outcome(outcome)), Some(outcome));
        }
        assert_eq!(decode_outcome("x:1"), None);
        assert_eq!(decode_outcome("c:notanumber"), None);
        assert_eq!(decode_outcome(""), None);
    }

    #[test]
    fn table_fingerprint_separates_protocols() {
        use bitdissem_core::dynamics::Minority;
        let v1 = table_fingerprint(&Voter::new(1).unwrap().to_table(64).unwrap());
        let v3 = table_fingerprint(&Voter::new(3).unwrap().to_table(64).unwrap());
        let m3 = table_fingerprint(&Minority::new(3).unwrap().to_table(64).unwrap());
        assert_ne!(v1, v3, "sample size must enter the fingerprint");
        assert_ne!(v3, m3, "g-values must enter the fingerprint");
        let again = table_fingerprint(&Voter::new(1).unwrap().to_table(64).unwrap());
        assert_eq!(v1, again, "fingerprint is deterministic");
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        use bitdissem_obs::CheckpointLog;
        use std::sync::Arc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let plain =
            measure_convergence_observed(&Obs::none(), &voter, start, 8, 100_000, 5, Some(2));

        let log = Arc::new(CheckpointLog::in_memory());
        let obs = Obs::none().with_metrics().with_checkpoint(Arc::clone(&log));
        let fresh = measure_convergence_observed(&obs, &voter, start, 8, 100_000, 5, Some(2));
        assert_eq!(fresh.outcomes(), plain.outcomes());
        assert_eq!(log.len(), 8, "every replication was recorded");
        assert_eq!(obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed), 0);

        // Second run over the same log: all replications load from cache
        // and the batch stays bit-identical.
        let resumed = measure_convergence_observed(&obs, &voter, start, 8, 100_000, 5, Some(4));
        assert_eq!(resumed.outcomes(), plain.outcomes());
        assert_eq!(obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed), 8);
    }

    #[test]
    fn partially_checkpointed_run_splices_cached_and_fresh() {
        use bitdissem_obs::CheckpointLog;
        use std::sync::Arc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let full =
            measure_convergence_observed(&Obs::none(), &voter, start, 10, 100_000, 7, Some(2));

        // Simulate an interrupted sweep: only the first 4 replications made
        // it into the log.
        let log = Arc::new(CheckpointLog::in_memory());
        let obs = Obs::none().with_metrics().with_checkpoint(Arc::clone(&log));
        let _ = measure_convergence_observed(&obs, &voter, start, 4, 100_000, 7, Some(2));
        assert_eq!(log.len(), 4);

        let resumed = measure_convergence_observed(&obs, &voter, start, 10, 100_000, 7, Some(3));
        assert_eq!(resumed.outcomes(), full.outcomes());
        assert_eq!(obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed), 4);
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn observed_batch_emits_self_describing_header() {
        use bitdissem_obs::{Event, MemorySink};
        use std::sync::Arc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as Arc<dyn bitdissem_obs::EventSink>);
        let _ = measure_convergence_observed(&obs, &voter, start, 3, 100_000, 11, Some(1));

        let events = sink.events();
        let Some(Event::BatchStarted {
            kind,
            protocol,
            ell,
            n,
            x0,
            source_opinion,
            reps,
            budget,
            seed,
            g0,
            g1,
        }) = events.first()
        else {
            panic!("first event must be the batch header, got {:?}", events.first());
        };
        assert_eq!(kind, "conv");
        assert_eq!(protocol, &voter.name());
        assert_eq!((*ell, *n, *x0), (1, 24, 1));
        assert_eq!((*source_opinion, *reps, *budget, *seed), (1, 3, 100_000, 11));
        // Voter ℓ=1: adopt the sampled opinion, g(z, k) = k/ℓ.
        assert_eq!(g0, &vec![0.0, 1.0]);
        assert_eq!(g1, &vec![0.0, 1.0]);
        // The header can rebuild the protocol for offline conformance
        // checks: the round events that follow must belong to `reps` runs.
        let finished =
            events.iter().filter(|e| matches!(e, Event::ReplicationFinished { .. })).count();
        assert_eq!(finished, 3);
    }

    #[test]
    fn observed_batch_passes_trace_conformance() {
        use bitdissem_obs::MemorySink;
        use std::sync::Arc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(48, Opinion::One);
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as Arc<dyn bitdissem_obs::EventSink>);
        let _ = measure_convergence_observed(&obs, &voter, start, 10, 100_000, 3, Some(2));

        let analysis = crate::trace::analyze(&sink.events(), 0);
        assert_eq!(analysis.batches.len(), 1);
        let batch = &analysis.batches[0];
        assert_eq!(batch.replications, 10);
        let conf = batch.conformance.as_ref().expect("conv batch is checkable");
        assert!(conf.adjacent_pairs > 0);
        assert!(!analysis.has_violations(), "{}", analysis.render());
    }

    #[test]
    fn env_runs_never_splice_static_checkpoints() {
        // A static sweep's cached outcomes must be invisible to an
        // env-perturbed resume of the same cell (and distinct schedules
        // must be invisible to each other): the batch kind carries the env
        // fingerprint. A spliced static outcome would silently report
        // convergence times from a world without perturbations.
        use bitdissem_obs::CheckpointLog;
        use std::sync::Arc as StdArc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let env: EnvSchedule = "flip@50".parse().unwrap();

        let log = StdArc::new(CheckpointLog::in_memory());
        let obs = Obs::none().with_metrics().with_checkpoint(StdArc::clone(&log));
        let _ = measure_convergence_observed(&obs, &voter, start, 8, 100_000, 5, Some(2));
        assert_eq!(log.len(), 8);

        let hits = || obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed);
        let dynamic =
            measure_convergence_env_observed(&obs, &env, &voter, start, 8, 100_000, 5, Some(2));
        assert_eq!(hits(), 0, "env run must not resume from the static cache");
        assert_eq!(log.len(), 16, "env outcomes append under their own kind");

        // A different schedule is a different kind again.
        let other: EnvSchedule = "noise:0.01".parse().unwrap();
        let _ =
            measure_convergence_env_observed(&obs, &other, &voter, start, 8, 100_000, 5, Some(2));
        assert_eq!(hits(), 0, "schedules never share caches");
        assert_eq!(log.len(), 24);

        // Same schedule resumes from its own records, bit-identically.
        let resumed =
            measure_convergence_env_observed(&obs, &env, &voter, start, 8, 100_000, 5, Some(3));
        assert_eq!(hits(), 8);
        assert_eq!(resumed.outcomes(), dynamic.outcomes());

        // An inert schedule is exactly the static measurement — same kind,
        // so it resumes from the static cache.
        let inert = measure_convergence_env_observed(
            &obs,
            &EnvSchedule::default(),
            &voter,
            start,
            8,
            100_000,
            5,
            Some(2),
        );
        assert_eq!(hits(), 16);
        let plain =
            measure_convergence_observed(&Obs::none(), &voter, start, 8, 100_000, 5, Some(2));
        assert_eq!(inert.outcomes(), plain.outcomes());
    }

    #[test]
    fn checkpoint_keys_differ_across_batch_parameters() {
        // A key collision would silently reuse a foreign result, so the
        // parameters that change an outcome must all enter the key.
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let base = batch_key("conv", &voter, start, 1000, 5);
        assert_ne!(base, batch_key("cross", &voter, start, 1000, 5));
        assert_ne!(base, batch_key("conv", &voter, start, 2000, 5));
        assert_ne!(base, batch_key("conv", &voter, start, 1000, 6));
        let other_start = Configuration::new(24, Opinion::One, 7).unwrap();
        assert_ne!(base, batch_key("conv", &voter, other_start, 1000, 5));
        let minority = bitdissem_core::dynamics::Minority::new(3).unwrap();
        assert_ne!(base, batch_key("conv", &minority, start, 1000, 5));
    }

    #[test]
    fn checkpoints_of_an_older_stream_revision_are_not_reused() {
        // A log written before the stream revision keyed each outcome
        // without it. Its entries must miss, or a resumed sweep would
        // splice outcomes of the old draws into the new ones.
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let (reps, budget, seed) = (4, 100_000, 5);
        let fp = table_fingerprint(&voter.to_table(24).unwrap());
        let log = Arc::new(bitdissem_obs::CheckpointLog::in_memory());
        for rep in 0..reps {
            log.record(&format!("conv:{fp:016x}:n24:z1:x1:b{budget}:s{seed}#{rep}"), "c:1");
        }
        let obs = Obs::none().with_metrics().with_checkpoint(Arc::clone(&log));
        let resumed = measure_convergence_observed(&obs, &voter, start, reps, budget, seed, None);
        let fresh =
            measure_convergence_observed(&Obs::none(), &voter, start, reps, budget, seed, None);
        assert_eq!(resumed.outcomes(), fresh.outcomes());
        assert!(resumed.outcomes().iter().all(|o| *o != Outcome::Converged { rounds: 1 }));
        let hits = obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(hits, 0, "no old-revision entry is served");
        assert_eq!(log.len(), 2 * reps, "the batch is recorded under its new keys");
    }
}
