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
use bitdissem_obs::{GaugeId, Obs};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::batched::SeededDraw;
use bitdissem_sim::env::EnvSchedule;
use bitdissem_sim::lockstep::replicate_lockstep;
use bitdissem_sim::run::{run_to_consensus_observed, Outcome, Simulator};
use bitdissem_sim::runner::replicate_indices_observed;
use bitdissem_sim::sequential::SequentialSim;
use bitdissem_sim::wide::CounterDraw;
use bitdissem_stats::Summary;

use crate::config::ReplicationEngine;

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
/// splicing old-stream outcomes into a new-stream sweep — the rule the
/// `conv` and `conv+wide` kinds already apply across engines. Keys without
/// a revision predate `r2`, at which states with `P₀ = P₁` started drawing
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
/// outcomes **in the order of the indices** — both replication engines
/// (the per-replica pool path and the lock-step batched path) satisfy
/// this, and both derive every replication's RNG from its index alone, so
/// splicing cached and fresh results is bit-identical to an uninterrupted
/// run.
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
/// once per batch — both engines evaluate the same kernel, and no
/// replication re-materializes the table.
fn compile_kernel<P>(protocol: &P, n: u64) -> Arc<Kernel>
where
    P: Protocol + ?Sized,
{
    Arc::new(
        protocol.to_table(n).expect("valid protocol").compile().expect("validated table compiles"),
    )
}

/// Measures convergence times of `protocol` from `start` over `reps`
/// replications with a per-run budget of `budget` rounds, using the
/// aggregate exact-chain simulator.
#[must_use]
pub fn measure_convergence<P>(
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
    measure_convergence_observed(&Obs::none(), protocol, start, reps, budget, seed, threads)
}

/// [`measure_convergence`] with an observability handle: each replication
/// emits per-round and per-replication trace events and contributes to the
/// run counters. Outcomes are identical to the unobserved call for the
/// same seed. Runs on the default (batched) engine; use
/// [`measure_convergence_engine_observed`] to select explicitly.
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
    measure_convergence_engine_observed(
        obs,
        ReplicationEngine::default(),
        protocol,
        start,
        reps,
        budget,
        seed,
        threads,
    )
}

/// [`measure_convergence_observed`] with an explicit replication engine.
///
/// Every engine shares one compiled adoption [`Kernel`] (no per-replica
/// table materialization) and derives each replication's randomness from
/// its index alone, so the outcome vector is bit-deterministic across
/// thread counts and checkpoint splicing. The batched and per-replica
/// engines are additionally bit-identical to *each other*; the wide engine
/// draws from counter-based streams (equivalent in law, KS-gated in
/// conformance) and therefore checkpoints under a distinct batch-key kind
/// — cached outcomes never splice across the stream boundary.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn measure_convergence_engine_observed<P>(
    obs: &Obs,
    engine: ReplicationEngine,
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
    measure_convergence_inner(obs, engine, None, protocol, start, reps, budget, seed, threads)
}

/// [`measure_convergence_engine_observed`] under an environment schedule:
/// every replication perturbs between rounds per `env`, on any engine. An
/// inert schedule degenerates to the static measurement (same checkpoint
/// kind, same outcomes); an active one checkpoints under the env-suffixed
/// kinds `conv+env[<fp>]` / `conv+wide+env[<fp>]`, so cached static-run
/// outcomes can never splice into a dynamic sweep on resume (or vice
/// versa).
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn measure_convergence_env_observed<P>(
    obs: &Obs,
    engine: ReplicationEngine,
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
    measure_convergence_inner(obs, engine, env, protocol, start, reps, budget, seed, threads)
}

#[allow(clippy::too_many_arguments)]
fn measure_convergence_inner<P>(
    obs: &Obs,
    engine: ReplicationEngine,
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
    // The wide engine's draws come from a different randomness stream, and
    // an active environment schedule changes the law outright — each gets
    // its own checkpoint kind so caches never splice across either
    // boundary.
    let kind = match (engine == ReplicationEngine::Wide, env) {
        (false, None) => "conv".to_string(),
        (true, None) => "conv+wide".to_string(),
        (false, Some(env)) => format!("conv+env[{}]", env.fingerprint()),
        (true, Some(env)) => format!("conv+wide+env[{}]", env.fingerprint()),
    };
    // Trace headers: static batches stay "conv" whatever the engine (the
    // offline trace checker validates any "conv" batch against the static
    // law); env batches advertise their schedule so the checker skips them
    // — a perturbed trajectory does not follow the unperturbed law.
    let emit_kind = if env.is_some() { kind.as_str() } else { "conv" };
    emit_batch_started(obs, emit_kind, protocol, start, reps, budget, seed);
    let kernel = compile_kernel(protocol, start.n());
    let key_base = || batch_key(&kind, protocol, start, budget, seed);
    let outcomes = replicate_checkpointed(obs, key_base, reps, |missing| match engine {
        ReplicationEngine::Batched => replicate_lockstep::<SeededDraw>(
            &kernel, start, missing, seed, threads, budget, env, obs,
        ),
        ReplicationEngine::Wide => replicate_lockstep::<CounterDraw>(
            &kernel, start, missing, seed, threads, budget, env, obs,
        ),
        ReplicationEngine::PerReplica => {
            replicate_indices_observed(missing, seed, threads, obs, |mut rng, rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                run_to_consensus_observed(&mut sim, &mut rng, budget, env, obs, rep as u64)
            })
        }
    });
    OutcomeBatch::new(outcomes, budget)
}

/// Measures convergence in the **sequential** setting (times in parallel
/// rounds: one round = `n` activations).
#[must_use]
pub fn measure_convergence_sequential<P>(
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
    measure_convergence_sequential_observed(
        &Obs::none(),
        protocol,
        start,
        reps,
        budget_rounds,
        seed,
        threads,
    )
}

/// [`measure_convergence_sequential`] with an observability handle.
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
/// Returns one censored crossing time per replication plus the converged
/// flag batch for reference.
#[must_use]
pub fn measure_crossing<P>(
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
    measure_crossing_observed(&Obs::none(), protocol, witness, reps, budget, seed, threads)
}

/// [`measure_crossing`] with an observability handle (progress ticks and
/// stream counters; crossing runs emit no per-round events since the
/// stopping rule differs from consensus).
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
    emit_batch_started(obs, "cross", protocol, witness.start(), reps, budget, seed);
    let kernel = compile_kernel(protocol, witness.start().n());
    replicate_checkpointed(
        obs,
        || batch_key("cross", protocol, witness.start(), budget, seed),
        reps,
        |missing| {
            replicate_indices_observed(missing, seed, threads, obs, |mut rng, _| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), witness.start());
                for t in 0..=budget {
                    if witness.crossed(sim.configuration().ones()) {
                        return Outcome::Converged { rounds: t };
                    }
                    if t == budget {
                        break;
                    }
                    sim.step_round(&mut rng);
                }
                Outcome::TimedOut { rounds: budget }
            })
        },
    )
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
        let b = measure_convergence(&voter, start, 6, 100_000, 1, Some(2));
        assert_eq!(b.len(), 6);
        assert!((b.converged_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_convergence_is_deterministic() {
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let a = measure_convergence(&voter, start, 5, 100_000, 9, Some(1));
        let b = measure_convergence(&voter, start, 5, 100_000, 9, Some(4));
        let av: Vec<_> = a.outcomes.iter().map(Outcome::rounds_censored).collect();
        let bv: Vec<_> = b.outcomes.iter().map(Outcome::rounds_censored).collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn stay_never_crosses() {
        let stay = Stay::new(1);
        let w = LowerBoundWitness::construct(&stay, 64).unwrap();
        let xs = measure_crossing(&stay, &w, 3, 50, 2, Some(1));
        assert!(xs.iter().all(|o| !o.is_converged()));
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
        let plain = measure_convergence(&voter, start, 8, 100_000, 5, Some(2));

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
        let full = measure_convergence(&voter, start, 10, 100_000, 7, Some(2));

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
    fn engines_agree_bit_for_bit() {
        // The batched default and the per-replica reference engine must
        // produce identical outcome vectors — the engine is a throughput
        // knob, never a semantics knob.
        use bitdissem_core::dynamics::Minority;
        let minority = Minority::new(3).unwrap();
        let start = Configuration::new(128, Opinion::One, 40).unwrap();
        let obs = Obs::none();
        let batched = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::Batched,
            &minority,
            start,
            12,
            200_000,
            21,
            Some(3),
        );
        let reference = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::PerReplica,
            &minority,
            start,
            12,
            200_000,
            21,
            Some(2),
        );
        assert_eq!(batched.outcomes(), reference.outcomes());
    }

    #[test]
    fn batched_checkpointing_splices_against_per_replica_cache() {
        // A sweep checkpointed under one engine must resume correctly
        // under the other: cached outcomes splice with freshly batched
        // ones because both derive each replication from its index alone.
        use bitdissem_obs::CheckpointLog;
        use std::sync::Arc as StdArc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let full = measure_convergence(&voter, start, 10, 100_000, 7, Some(2));

        let log = StdArc::new(CheckpointLog::in_memory());
        let obs = Obs::none().with_metrics().with_checkpoint(StdArc::clone(&log));
        let _ = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::PerReplica,
            &voter,
            start,
            4,
            100_000,
            7,
            Some(2),
        );
        assert_eq!(log.len(), 4);

        let resumed = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::Batched,
            &voter,
            start,
            10,
            100_000,
            7,
            Some(3),
        );
        assert_eq!(resumed.outcomes(), full.outcomes());
        assert_eq!(obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed), 4);
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn wide_engine_is_deterministic_and_never_splices_other_engines() {
        // The wide engine draws from counter streams, so (a) its outcome
        // vector is identical for every thread count, and (b) its
        // checkpoints live under "conv+wide" — a cache written by the
        // batched engine must yield zero hits when resuming wide.
        use bitdissem_obs::CheckpointLog;
        use std::sync::Arc as StdArc;
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let obs = Obs::none();
        let wide_a = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::Wide,
            &voter,
            start,
            10,
            100_000,
            7,
            Some(1),
        );
        let wide_b = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::Wide,
            &voter,
            start,
            10,
            100_000,
            7,
            Some(3),
        );
        assert_eq!(wide_a.outcomes(), wide_b.outcomes());

        let log = StdArc::new(CheckpointLog::in_memory());
        let obs = Obs::none().with_metrics().with_checkpoint(StdArc::clone(&log));
        let _ = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::Batched,
            &voter,
            start,
            10,
            100_000,
            7,
            Some(2),
        );
        assert_eq!(log.len(), 10);
        let wide_fresh = measure_convergence_engine_observed(
            &obs,
            ReplicationEngine::Wide,
            &voter,
            start,
            10,
            100_000,
            7,
            Some(2),
        );
        assert_eq!(
            obs.metrics().checkpoint_hits.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "wide must not resume from another engine's cache"
        );
        assert_eq!(log.len(), 20, "wide appends its own records under conv+wide");
        assert_eq!(wide_fresh.outcomes(), wide_a.outcomes());
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
        let dynamic = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::Batched,
            &env,
            &voter,
            start,
            8,
            100_000,
            5,
            Some(2),
        );
        assert_eq!(hits(), 0, "env run must not resume from the static cache");
        assert_eq!(log.len(), 16, "env outcomes append under their own kind");

        // A different schedule is a different kind again.
        let other: EnvSchedule = "noise:0.01".parse().unwrap();
        let _ = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::Batched,
            &other,
            &voter,
            start,
            8,
            100_000,
            5,
            Some(2),
        );
        assert_eq!(hits(), 0, "schedules never share caches");
        assert_eq!(log.len(), 24);

        // Same schedule resumes from its own records, bit-identically.
        let resumed = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::Batched,
            &env,
            &voter,
            start,
            8,
            100_000,
            5,
            Some(3),
        );
        assert_eq!(hits(), 8);
        assert_eq!(resumed.outcomes(), dynamic.outcomes());

        // An inert schedule is exactly the static measurement — same kind,
        // so it resumes from the static cache.
        let inert = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::Batched,
            &EnvSchedule::default(),
            &voter,
            start,
            8,
            100_000,
            5,
            Some(2),
        );
        assert_eq!(hits(), 16);
        let plain = measure_convergence(&voter, start, 8, 100_000, 5, Some(2));
        assert_eq!(inert.outcomes(), plain.outcomes());
    }

    #[test]
    fn env_engines_agree_on_convergence_law_smoke() {
        // The env path is runnable on every engine; batched and
        // per-replica are bit-identical even under perturbations.
        let voter = Voter::new(1).unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let env: EnvSchedule = "reset:k=2@every:40".parse().unwrap();
        let obs = Obs::none();
        let batched = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::Batched,
            &env,
            &voter,
            start,
            8,
            100_000,
            13,
            Some(2),
        );
        let reference = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::PerReplica,
            &env,
            &voter,
            start,
            8,
            100_000,
            13,
            Some(3),
        );
        assert_eq!(batched.outcomes(), reference.outcomes());
        let wide = measure_convergence_env_observed(
            &obs,
            ReplicationEngine::Wide,
            &env,
            &voter,
            start,
            8,
            100_000,
            13,
            Some(2),
        );
        assert_eq!(wide.len(), 8);
        assert!(wide.converged_fraction() > 0.0, "wide env runs converge too");
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
