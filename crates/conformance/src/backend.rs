//! Uniform sampling drivers over the simulator backends.
//!
//! Every driver takes the same `(table, start, reps, budget, seed)` grid
//! cell and returns, per replication, the censored consensus time plus the
//! state `X_t` at a fixed set of early checkpoints — the two observables
//! the differential harness compares across backends. Replication `rep`
//! always derives its RNG from `replication_seed(seed, rep)`, so a cell is
//! reproducible in isolation; callers give each backend a *distinct* base
//! seed so the two samples entering a KS test are independent.

use std::sync::Arc;

use bitdissem_core::{Configuration, GTable};
use bitdissem_sim::agent::AgentSim;
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::dual::CoalescingDual;
use bitdissem_sim::env::EnvSchedule;
use bitdissem_sim::lockstep::LockstepSim;
use bitdissem_sim::partial::PartialSim;
use bitdissem_sim::rng::{replication_seed, rng_from, SimRng};
use bitdissem_sim::run::Simulator;
use bitdissem_sim::sequential::SequentialSim;

/// A backend of the *parallel* law: all `n − 1` non-source agents update
/// each round. The four are distributionally identical by construction
/// (the aggregate chain is the exact conditional law of the agent
/// simulator; `m = n − 1` partial synchrony is one full round per step;
/// the batched engine steps the aggregate chain lock-step with per-replica
/// index-derived streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelBackend {
    /// The literal agent-level simulator (ground truth).
    Agent,
    /// The aggregate exact chain (two binomials per round, one where
    /// `P₀ = P₁`).
    Aggregate,
    /// [`PartialSim`] with a full batch `m = n − 1`.
    PartialFull,
    /// [`LockstepSim`]: all replications of the cell advance lock-step
    /// through a shared compiled kernel.
    Batched,
}

impl ParallelBackend {
    /// Display name used in check labels and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ParallelBackend::Agent => "agent",
            ParallelBackend::Aggregate => "aggregate",
            ParallelBackend::PartialFull => "partial(n-1)",
            ParallelBackend::Batched => "batched",
        }
    }
}

/// A backend of the *per-activation* law: one uniformly random non-source
/// agent updates per step. Compared in **activations**, never rounds — the
/// two backends normalize rounds differently (`n` activations per
/// [`Simulator::step_round`] for the sequential simulator, `n − 1` steps
/// per round for `PartialSim(m = 1)`), so a round-based comparison would
/// reject two correct implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationBackend {
    /// The sequential-setting simulator.
    Sequential,
    /// [`PartialSim`] with a singleton batch `m = 1`.
    PartialOne,
}

impl ActivationBackend {
    /// Display name used in check labels and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ActivationBackend::Sequential => "sequential",
            ActivationBackend::PartialOne => "partial(1)",
        }
    }
}

/// The observables a driver collects for one grid cell: `marginals[c]`
/// holds the `reps` values of `X_t` at the `c`-th checkpoint, and `times`
/// the `reps` right-censored consensus times (in rounds or activations,
/// matching the driver).
#[derive(Debug, Clone)]
pub struct RunSamples {
    /// One vector per checkpoint, each of length `reps`.
    pub marginals: Vec<Vec<f64>>,
    /// Censored consensus times, one per replication.
    pub times: Vec<f64>,
}

/// Advances one replication to consensus or `budget` time units, recording
/// `X_t` at each checkpoint. `step` advances the simulation by one time
/// unit; consensus is absorbing for the protocols under test (Prop. 3), so
/// once reached the state is held without further stepping.
fn run_one<S, F>(
    sim: &mut S,
    rng: &mut SimRng,
    budget: u64,
    checkpoints: &[u64],
    mut step: F,
) -> (Vec<u64>, u64)
where
    S: ?Sized,
    F: FnMut(&mut S, &mut SimRng) -> Configuration,
    S: HasConfiguration,
{
    let mut marginals = Vec::with_capacity(checkpoints.len());
    let mut converged_at: Option<u64> = None;
    let last_cp = checkpoints.last().copied().unwrap_or(0);
    let mut config = sim.current_configuration();
    for t in 0..=budget {
        if converged_at.is_none() && config.is_correct_consensus() {
            converged_at = Some(t);
        }
        if checkpoints.contains(&t) {
            marginals.push(config.ones());
        }
        if t == budget || (converged_at.is_some() && t >= last_cp) {
            break;
        }
        if converged_at.is_none() {
            config = step(sim, rng);
        }
        // Once absorbed the configuration is constant; later checkpoints
        // reuse it without burning randomness.
    }
    (marginals, converged_at.unwrap_or(budget))
}

/// Internal accessor so [`run_one`] works over both trait objects and the
/// activation-level wrapper.
trait HasConfiguration {
    fn current_configuration(&self) -> Configuration;
}

impl HasConfiguration for dyn Simulator + '_ {
    fn current_configuration(&self) -> Configuration {
        self.configuration()
    }
}

/// Samples `reps` replications of `backend` on the parallel law. Times and
/// checkpoints are in rounds.
///
/// # Panics
///
/// Panics if the table cannot be materialized for `start.n()` (invalid
/// grid cell).
#[must_use]
pub fn sample_parallel(
    backend: ParallelBackend,
    table: &GTable,
    start: Configuration,
    reps: usize,
    budget: u64,
    checkpoints: &[u64],
    seed: u64,
) -> RunSamples {
    if backend == ParallelBackend::Batched {
        return sample_lockstep(table, start, reps, budget, checkpoints, seed, None);
    }
    let mut marginals = vec![Vec::with_capacity(reps); checkpoints.len()];
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut rng = rng_from(replication_seed(seed, rep as u64));
        let mut sim: Box<dyn Simulator> = match backend {
            ParallelBackend::Agent => {
                Box::new(AgentSim::new(table, start).expect("valid grid cell"))
            }
            ParallelBackend::Aggregate => {
                Box::new(AggregateSim::new(table, start).expect("valid grid cell"))
            }
            ParallelBackend::PartialFull => {
                Box::new(PartialSim::new(table, start, start.n() - 1).expect("valid grid cell"))
            }
            ParallelBackend::Batched => unreachable!("handled above"),
        };
        let (ms, time) = run_one(&mut *sim, &mut rng, budget, checkpoints, |s, rng| {
            s.step_round(rng);
            s.configuration()
        });
        for (slot, m) in marginals.iter_mut().zip(ms) {
            slot.push(m as f64);
        }
        times.push(time as f64);
    }
    RunSamples { marginals, times }
}

/// [`run_one`] under an environment schedule: the correct consensus is no
/// longer absorbing, so the simulation keeps stepping (perturb at the
/// boundary, then one round — the engine-wide convention of DESIGN
/// decision 15) until the first consensus hit has been seen *and* every
/// checkpoint is recorded. The marginal at a checkpoint is the
/// **pre-perturbation** state at that boundary, and `times` hold the
/// first boundary at which the correct consensus held, right-censored at
/// `budget`.
fn run_one_env(
    sim: &mut dyn Simulator,
    rng: &mut SimRng,
    budget: u64,
    checkpoints: &[u64],
    env: &EnvSchedule,
) -> (Vec<u64>, u64) {
    let mut marginals = Vec::with_capacity(checkpoints.len());
    let mut converged_at: Option<u64> = None;
    let last_cp = checkpoints.last().copied().unwrap_or(0);
    for t in 0..=budget {
        let config = sim.configuration();
        if converged_at.is_none() && config.is_correct_consensus() {
            converged_at = Some(t);
        }
        if checkpoints.contains(&t) {
            marginals.push(config.ones());
        }
        if t == budget || (converged_at.is_some() && t >= last_cp) {
            break;
        }
        sim.perturb(env, t, rng);
        sim.step_round(rng);
    }
    (marginals, converged_at.unwrap_or(budget))
}

/// [`sample_parallel`] under an environment schedule. Same grid cell, same
/// observables, but the schedule's perturbations are injected at every
/// round boundary on all four backends; the lock-step engine runs in
/// no-retire mode so replicas keep stepping past their first consensus
/// (it is not absorbing once the environment can disrupt it).
///
/// # Panics
///
/// Panics if the table cannot be materialized for `start.n()` (invalid
/// grid cell).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn sample_parallel_env(
    backend: ParallelBackend,
    table: &GTable,
    start: Configuration,
    reps: usize,
    budget: u64,
    checkpoints: &[u64],
    seed: u64,
    env: &EnvSchedule,
) -> RunSamples {
    if env.is_inert() {
        return sample_parallel(backend, table, start, reps, budget, checkpoints, seed);
    }
    if backend == ParallelBackend::Batched {
        return sample_lockstep(table, start, reps, budget, checkpoints, seed, Some(env));
    }
    let mut marginals = vec![Vec::with_capacity(reps); checkpoints.len()];
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut rng = rng_from(replication_seed(seed, rep as u64));
        let mut sim: Box<dyn Simulator> = match backend {
            ParallelBackend::Agent => {
                Box::new(AgentSim::new(table, start).expect("valid grid cell"))
            }
            ParallelBackend::Aggregate => {
                Box::new(AggregateSim::new(table, start).expect("valid grid cell"))
            }
            ParallelBackend::PartialFull => {
                Box::new(PartialSim::new(table, start, start.n() - 1).expect("valid grid cell"))
            }
            ParallelBackend::Batched => unreachable!("handled above"),
        };
        let (ms, time) = run_one_env(&mut *sim, &mut rng, budget, checkpoints, env);
        for (slot, m) in marginals.iter_mut().zip(ms) {
            slot.push(m as f64);
        }
        times.push(time as f64);
    }
    RunSamples { marginals, times }
}

/// The lock-step driver of the [`ParallelBackend::Batched`] backend: one
/// batch holds all `reps`
/// replications of the cell, and the observables are read from the batch
/// as its shared clock passes each checkpoint, with [`run_one`]'s
/// conventions (or [`run_one_env`]'s under a schedule) exactly —
/// consensus is checked at `t` before stepping and times are
/// right-censored at `budget`. Without a schedule a converged replication
/// retires and holds its absorbed state for later checkpoints without
/// burning randomness; under one, consensus is not absorbing, so every
/// replica keeps stepping (perturb, then one round) until all have hit it
/// and every checkpoint is recorded.
///
/// With the same base seed it is bit-identical to the aggregate backend
/// (`batched_backend_is_bit_identical_to_aggregate` and
/// `batched_env_backend_is_bit_identical_to_aggregate` pin this).
fn sample_lockstep(
    table: &GTable,
    start: Configuration,
    reps: usize,
    budget: u64,
    checkpoints: &[u64],
    seed: u64,
    env: Option<&EnvSchedule>,
) -> RunSamples {
    let kernel = Arc::new(table.compile().expect("valid grid cell"));
    let seeds: Vec<u64> = (0..reps).map(|rep| replication_seed(seed, rep as u64)).collect();
    let consensus = Configuration::correct_consensus(start.n(), start.correct()).ones();
    let mut batch = LockstepSim::with_goal(kernel, start, consensus, &seeds, env.is_none());

    let last_cp = checkpoints.last().copied().unwrap_or(0);
    // Rows are filled in visit order; checkpoints beyond the budget leave
    // their row empty, the same shape the per-replication drivers produce.
    let mut marginals = vec![Vec::new(); checkpoints.len()];
    let mut next_row = 0;
    let mut t: u64 = 0;
    loop {
        if checkpoints.contains(&t) {
            marginals[next_row] = (0..reps).map(|rep| batch.ones_of(rep) as f64).collect();
            next_row += 1;
        }
        let all_hit = (0..reps).all(|rep| batch.converged_at(rep).is_some());
        if t == budget || (all_hit && t >= last_cp) {
            break;
        }
        if let Some(env) = env {
            batch.perturb_round(env);
        }
        batch.step_round();
        t += 1;
    }
    let times =
        (0..reps).map(|rep| batch.converged_at(rep).unwrap_or(budget) as f64).collect::<Vec<_>>();
    RunSamples { marginals, times }
}

enum ActSim {
    Seq(SequentialSim),
    Part(PartialSim),
}

impl HasConfiguration for ActSim {
    fn current_configuration(&self) -> Configuration {
        match self {
            ActSim::Seq(s) => s.configuration(),
            ActSim::Part(s) => s.configuration(),
        }
    }
}

impl ActSim {
    fn step_activation(&mut self, rng: &mut SimRng) -> Configuration {
        match self {
            ActSim::Seq(s) => {
                s.step_activation(rng);
                s.configuration()
            }
            ActSim::Part(s) => {
                s.step_batch(rng);
                s.configuration()
            }
        }
    }
}

/// Samples `reps` replications of `backend` on the per-activation law.
/// Times and checkpoints are in **activations**.
///
/// # Panics
///
/// Panics if the table cannot be materialized for `start.n()` (invalid
/// grid cell).
#[must_use]
pub fn sample_activation(
    backend: ActivationBackend,
    table: &GTable,
    start: Configuration,
    reps: usize,
    budget_activations: u64,
    checkpoints: &[u64],
    seed: u64,
) -> RunSamples {
    let mut marginals = vec![Vec::with_capacity(reps); checkpoints.len()];
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let mut rng = rng_from(replication_seed(seed, rep as u64));
        let mut sim = match backend {
            ActivationBackend::Sequential => {
                ActSim::Seq(SequentialSim::new(table, start).expect("valid grid cell"))
            }
            ActivationBackend::PartialOne => {
                ActSim::Part(PartialSim::new(table, start, 1).expect("valid grid cell"))
            }
        };
        let (ms, time) =
            run_one(&mut sim, &mut rng, budget_activations, checkpoints, ActSim::step_activation);
        for (slot, m) in marginals.iter_mut().zip(ms) {
            slot.push(m as f64);
        }
        times.push(time as f64);
    }
    RunSamples { marginals, times }
}

/// Samples `reps` absorption times of the Voter `ℓ = 1` coalescing dual on
/// `n` agents, right-censored at `budget` backward rounds. By the duality
/// of Appendix B this is the distribution of the forward Voter consensus
/// time from the all-wrong start.
#[must_use]
pub fn sample_dual(n: u64, reps: usize, budget: u64, seed: u64) -> Vec<f64> {
    (0..reps)
        .map(|rep| {
            let mut rng = rng_from(replication_seed(seed, rep as u64));
            let mut dual = CoalescingDual::new(n);
            dual.run_to_absorption(&mut rng, budget).unwrap_or(budget) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::Voter;
    use bitdissem_core::{Opinion, ProtocolExt};

    fn voter_table(n: u64) -> GTable {
        Voter::new(1).unwrap().to_table(n).unwrap()
    }

    #[test]
    fn parallel_driver_shapes_and_determinism() {
        let table = voter_table(16);
        let start = Configuration::all_wrong(16, Opinion::One);
        let a = sample_parallel(ParallelBackend::Aggregate, &table, start, 5, 500, &[1, 2, 4], 9);
        assert_eq!(a.marginals.len(), 3);
        assert!(a.marginals.iter().all(|m| m.len() == 5));
        assert_eq!(a.times.len(), 5);
        // X_1 ≥ 1 always (the source), and each marginal is ≤ n.
        assert!(a.marginals[0].iter().all(|&x| (1.0..=16.0).contains(&x)));
        let b = sample_parallel(ParallelBackend::Aggregate, &table, start, 5, 500, &[1, 2, 4], 9);
        assert_eq!(a.times, b.times);
        assert_eq!(a.marginals, b.marginals);
    }

    #[test]
    fn all_parallel_backends_run_the_same_cell() {
        let table = voter_table(12);
        let start = Configuration::all_wrong(12, Opinion::One);
        for backend in [
            ParallelBackend::Agent,
            ParallelBackend::Aggregate,
            ParallelBackend::PartialFull,
            ParallelBackend::Batched,
        ] {
            let s = sample_parallel(backend, &table, start, 3, 2000, &[1], 4);
            assert_eq!(s.times.len(), 3, "{}", backend.name());
            assert!(s.times.iter().all(|&t| t <= 2000.0));
        }
    }

    #[test]
    fn batched_backend_is_bit_identical_to_aggregate() {
        // Stronger than the KS gate: with the *same* base seed the batched
        // driver must reproduce the aggregate driver's samples exactly —
        // both observables, every replication, both starts.
        use bitdissem_core::dynamics::Minority;
        let n = 20u64;
        for table in [voter_table(n), Minority::new(3).unwrap().to_table(n).unwrap()] {
            for start in [
                Configuration::all_wrong(n, Opinion::One),
                Configuration::new(n, Opinion::One, n / 2).unwrap(),
            ] {
                let agg = sample_parallel(
                    ParallelBackend::Aggregate,
                    &table,
                    start,
                    40,
                    600,
                    &[1, 2, 4],
                    77,
                );
                let bat = sample_parallel(
                    ParallelBackend::Batched,
                    &table,
                    start,
                    40,
                    600,
                    &[1, 2, 4],
                    77,
                );
                assert_eq!(agg.times, bat.times);
                assert_eq!(agg.marginals, bat.marginals);
            }
        }
    }

    #[test]
    fn batched_backend_handles_consensus_start() {
        let table = voter_table(10);
        let start = Configuration::correct_consensus(10, Opinion::One);
        let s = sample_parallel(ParallelBackend::Batched, &table, start, 2, 50, &[1, 4], 1);
        assert!(s.times.iter().all(|&t| t == 0.0));
        assert!(s.marginals.iter().flatten().all(|&x| x == 10.0));
    }

    #[test]
    fn activation_driver_counts_activations_not_rounds() {
        let table = voter_table(8);
        let start = Configuration::all_wrong(8, Opinion::One);
        for backend in [ActivationBackend::Sequential, ActivationBackend::PartialOne] {
            let s = sample_activation(backend, &table, start, 4, 5000, &[8, 16], 3);
            assert_eq!(s.marginals.len(), 2);
            assert_eq!(s.times.len(), 4);
            // The budget is in activations: a censored value sits at 5000,
            // far beyond any plausible round count for n = 8.
            assert!(s.times.iter().all(|&t| t <= 5000.0));
        }
    }

    #[test]
    fn dual_times_are_positive_and_deterministic() {
        let a = sample_dual(16, 6, 100_000, 7);
        let b = sample_dual(16, 6, 100_000, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn env_backends_run_the_same_cell_and_are_deterministic() {
        let table = voter_table(12);
        let start = Configuration::all_wrong(12, Opinion::One);
        let env: EnvSchedule = "flip@2,noise:0.01".parse().unwrap();
        for backend in [
            ParallelBackend::Agent,
            ParallelBackend::Aggregate,
            ParallelBackend::PartialFull,
            ParallelBackend::Batched,
        ] {
            let a = sample_parallel_env(backend, &table, start, 4, 800, &[1, 4], 5, &env);
            assert_eq!(a.marginals.len(), 2, "{}", backend.name());
            assert!(a.marginals.iter().all(|m| m.len() == 4));
            assert_eq!(a.times.len(), 4);
            assert!(a.times.iter().all(|&t| t <= 800.0));
            let b = sample_parallel_env(backend, &table, start, 4, 800, &[1, 4], 5, &env);
            assert_eq!(a.times, b.times, "{}", backend.name());
            assert_eq!(a.marginals, b.marginals, "{}", backend.name());
        }
    }

    #[test]
    fn batched_env_backend_is_bit_identical_to_aggregate() {
        // The env drivers share the perturb-then-step boundary and RNG
        // conventions, so with the same base seed the batched lock-step
        // driver must reproduce the aggregate driver's perturbed samples
        // exactly.
        let n = 20u64;
        let table = voter_table(n);
        let env: EnvSchedule = "flip@3,noise:0.02".parse().unwrap();
        for start in [
            Configuration::all_wrong(n, Opinion::One),
            Configuration::new(n, Opinion::One, n / 2).unwrap(),
        ] {
            let agg = sample_parallel_env(
                ParallelBackend::Aggregate,
                &table,
                start,
                30,
                500,
                &[1, 4, 8],
                91,
                &env,
            );
            let bat = sample_parallel_env(
                ParallelBackend::Batched,
                &table,
                start,
                30,
                500,
                &[1, 4, 8],
                91,
                &env,
            );
            assert_eq!(agg.times, bat.times);
            assert_eq!(agg.marginals, bat.marginals);
        }
    }

    #[test]
    fn inert_env_matches_the_static_sampler() {
        let table = voter_table(16);
        let start = Configuration::all_wrong(16, Opinion::One);
        let env = EnvSchedule::default();
        for backend in [ParallelBackend::Aggregate, ParallelBackend::Batched] {
            let s = sample_parallel(backend, &table, start, 5, 300, &[1, 2], 3);
            let e = sample_parallel_env(backend, &table, start, 5, 300, &[1, 2], 3, &env);
            assert_eq!(s.times, e.times, "{}", backend.name());
            assert_eq!(s.marginals, e.marginals, "{}", backend.name());
        }
    }

    #[test]
    fn env_flip_moves_the_consensus_target() {
        // Start at the correct consensus; flip the source at t = 2. The
        // old consensus no longer counts, so the recorded first hit must
        // be the boundary-0 hit, while a late checkpoint finds the state
        // migrated toward the *new* target (all zeros).
        let table = voter_table(16);
        let start = Configuration::correct_consensus(16, Opinion::One);
        let env: EnvSchedule = "flip@2".parse().unwrap();
        let s = sample_parallel_env(
            ParallelBackend::Aggregate,
            &table,
            start,
            6,
            4_000,
            &[1, 3_000],
            11,
            &env,
        );
        assert!(s.times.iter().all(|&t| t == 0.0), "pre-flip consensus is the first hit");
        assert!(s.marginals[0].iter().all(|&x| x == 16.0));
        // Voter from one-off-consensus re-converges to the flipped target
        // well inside 3000 rounds for n = 16 in the typical replication.
        assert!(
            s.marginals[1].iter().filter(|&&x| x == 0.0).count() >= 4,
            "most replications should sit at the new all-zero consensus: {:?}",
            s.marginals[1]
        );
    }

    #[test]
    fn consensus_start_reports_time_zero_and_full_marginals() {
        let table = voter_table(10);
        let start = Configuration::correct_consensus(10, Opinion::One);
        let s = sample_parallel(ParallelBackend::Aggregate, &table, start, 2, 50, &[1, 4], 1);
        assert!(s.times.iter().all(|&t| t == 0.0));
        // Absorbed at n for every checkpoint.
        assert!(s.marginals.iter().flatten().all(|&x| x == 10.0));
    }
}
