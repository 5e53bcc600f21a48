//! Lock-step batched replication of the aggregate chain.
//!
//! [`BatchedAggregateSim`] advances `B` independent replications of the
//! aggregate process one parallel round at a time, in struct-of-arrays
//! layout: one contiguous `ones` vector and one contiguous RNG vector,
//! walked linearly per round. All replicas share a single read-only
//! [`Kernel`] and a single per-state round-plan cache, so when the
//! replicas cluster in the same narrow band of states — hovering, or near
//! absorption — almost every round reuses a cached kernel evaluation and
//! sampler setup(s).
//!
//! Replicas that reach the correct consensus are **retired** by
//! `swap_remove`, keeping the live arrays dense; the hot loop never
//! branches on dead replicas. Retirement is pure bookkeeping: each
//! replica's RNG stream is derived from its replication index alone and is
//! consumed only by that replica's own draws, so every replica's
//! trajectory is bit-identical to running it solo through
//! [`AggregateSim`](crate::aggregate::AggregateSim) with the same seed —
//! regardless of batch composition, retirement order, or chunking. The
//! `batched_matches_solo_bit_for_bit` test pins this.

use std::sync::{Arc, Mutex};

use bitdissem_core::{Configuration, Kernel};
use bitdissem_obs::{Event, LatencyId, Obs, ReplicationOutcome, Timer};
use bitdissem_pool::{effective_parallelism, Pool};

use crate::env::EnvSchedule;
use crate::rng::{replication_seed, rng_from, SimRng};
use crate::roundplan::{RoundPlan, StateCache};
use crate::run::Outcome;

/// `B` replicas of the aggregate chain stepped in lock-step.
///
/// Construction seeds every replica from the same start configuration;
/// replicas already at the correct consensus are retired immediately with
/// a convergence round of 0, matching the solo run-loop convention that
/// consensus is checked *before* stepping.
#[derive(Debug)]
pub struct BatchedAggregateSim {
    kernel: Arc<Kernel>,
    n: u64,
    /// Source contribution to the count of ones (1 iff the correct opinion
    /// is `One`).
    z: u64,
    /// The `ones` value that constitutes the correct consensus.
    target: u64,
    /// Rounds completed so far (shared by all live replicas).
    round: u64,
    // Dense live arrays, parallel by position.
    live_ones: Vec<u64>,
    live_rngs: Vec<SimRng>,
    live_rep: Vec<usize>,
    /// Position of each replica in the live arrays (`usize::MAX` once
    /// retired).
    pos_of_rep: Vec<usize>,
    /// Current (live) or final (retired) `ones` per replica.
    ones_by_rep: Vec<u64>,
    /// First round at which each replica held the correct consensus.
    converged_at: Vec<Option<u64>>,
    /// `false` keeps replicas stepping past the correct consensus (their
    /// first-hit round is still recorded). Required under an environment
    /// schedule that can knock a replica off consensus: consensus is no
    /// longer absorbing, so a retired replica would report a stale state.
    retire_on_consensus: bool,
    plans: StateCache<RoundPlan>,
}

impl BatchedAggregateSim {
    /// Creates a batch of `seeds.len()` replicas, all starting from
    /// `start`, with replica `i` drawing from `rng_from(seeds[i])`.
    #[must_use]
    pub fn new(kernel: Arc<Kernel>, start: Configuration, seeds: &[u64]) -> Self {
        Self::with_retirement(kernel, start, seeds, true)
    }

    /// [`BatchedAggregateSim::new`] with retirement pinned explicitly.
    /// `retire_on_consensus = false` keeps every replica live for the whole
    /// run — first consensus hits are recorded in `converged_at`, but the
    /// replicas continue stepping (the conformance harness needs the true
    /// post-consensus marginals when an environment schedule is active).
    #[must_use]
    pub fn with_retirement(
        kernel: Arc<Kernel>,
        start: Configuration,
        seeds: &[u64],
        retire_on_consensus: bool,
    ) -> Self {
        let n = start.n();
        let z = u64::from(start.correct().as_bit());
        let target = if z == 1 { n } else { 0 };
        let b = seeds.len();
        let mut sim = Self {
            kernel,
            n,
            z,
            target,
            round: 0,
            live_ones: Vec::with_capacity(b),
            live_rngs: Vec::with_capacity(b),
            live_rep: Vec::with_capacity(b),
            pos_of_rep: vec![usize::MAX; b],
            ones_by_rep: vec![start.ones(); b],
            converged_at: vec![None; b],
            retire_on_consensus,
            plans: StateCache::new(n),
        };
        for (rep, &seed) in seeds.iter().enumerate() {
            if start.ones() == target {
                sim.converged_at[rep] = Some(0);
                if retire_on_consensus {
                    continue;
                }
            }
            sim.pos_of_rep[rep] = sim.live_ones.len();
            sim.live_ones.push(start.ones());
            sim.live_rngs.push(rng_from(seed));
            sim.live_rep.push(rep);
        }
        sim
    }

    /// Total number of replicas in the batch (live and retired).
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.converged_at.len()
    }

    /// Number of replicas still running.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live_ones.len()
    }

    /// Rounds completed so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current `ones` count of replica `rep` — its final (consensus) value
    /// once retired.
    #[must_use]
    pub fn ones_of(&self, rep: usize) -> u64 {
        self.ones_by_rep[rep]
    }

    /// First round at which replica `rep` held the correct consensus, or
    /// `None` while it is still running.
    #[must_use]
    pub fn converged_at(&self, rep: usize) -> Option<u64> {
        self.converged_at[rep]
    }

    /// Advances every live replica by one parallel round, then retires the
    /// replicas that reached the correct consensus.
    pub fn step_round(&mut self) {
        self.round += 1;
        for pos in 0..self.live_ones.len() {
            let x = self.live_ones[pos];
            let rng = &mut self.live_rngs[pos];
            let next = self.plans.step(&self.kernel, self.z, x, rng);
            debug_assert!(next <= self.n);
            self.live_ones[pos] = next;
            self.ones_by_rep[self.live_rep[pos]] = next;
        }
        // Retire in a separate dense sweep so the sampling loop stays
        // branch-light; swap_remove keeps the arrays packed.
        let mut pos = 0;
        while pos < self.live_ones.len() {
            if self.live_ones[pos] == self.target {
                let rep = self.live_rep[pos];
                if self.converged_at[rep].is_none() {
                    self.converged_at[rep] = Some(self.round);
                }
                if self.retire_on_consensus {
                    self.retire(pos);
                    continue;
                }
            }
            pos += 1;
        }
    }

    /// Applies the environment schedule at the current round boundary
    /// (`t = self.round`), drawing each replica's perturbation randomness
    /// from that replica's own stream — exactly the draws the solo
    /// [`run_to_consensus_env`](crate::run::run_to_consensus_env) loop
    /// makes, so trajectories stay bit-identical to the per-replica
    /// engine. Returns the number of perturbation events across the batch.
    ///
    /// Source flips are time-scheduled, so every replica computes the same
    /// new `z`; the shared `z`/`target` pair is committed after the sweep.
    pub fn perturb_round(&mut self, env: &EnvSchedule) -> u64 {
        let t = self.round;
        let mut events_total = 0u64;
        let mut new_z = self.z;
        for pos in 0..self.live_ones.len() {
            let mut z = self.z;
            let mut x = self.live_ones[pos];
            let events = env.apply_aggregate(t, self.n, &mut z, &mut x, &mut self.live_rngs[pos]);
            if events > 0 {
                self.live_ones[pos] = x;
                self.ones_by_rep[self.live_rep[pos]] = x;
            }
            events_total += events;
            new_z = z;
        }
        if new_z != self.z {
            self.z = new_z;
            self.target = if self.z == 1 { self.n } else { 0 };
        }
        events_total
    }

    fn retire(&mut self, pos: usize) {
        self.pos_of_rep[self.live_rep[pos]] = usize::MAX;
        self.live_ones.swap_remove(pos);
        self.live_rngs.swap_remove(pos);
        self.live_rep.swap_remove(pos);
        if pos < self.live_rep.len() {
            self.pos_of_rep[self.live_rep[pos]] = pos;
        }
    }

    /// Per-replica outcomes under a round budget: `Converged` with the
    /// recorded round for retired replicas, `TimedOut { rounds: budget }`
    /// for the rest.
    #[must_use]
    pub fn outcomes(&self, budget: u64) -> Vec<Outcome> {
        self.converged_at
            .iter()
            .map(|c| match *c {
                Some(rounds) => Outcome::Converged { rounds },
                None => Outcome::TimedOut { rounds: budget },
            })
            .collect()
    }

    /// Runs until every replica has converged or `budget` rounds have
    /// elapsed, and returns the per-replica outcomes in batch order.
    ///
    /// Outcomes are bit-identical to running each replica solo through
    /// [`run_to_consensus`](crate::run::run_to_consensus) with the same
    /// seed and budget.
    pub fn run_to_consensus(&mut self, budget: u64) -> Vec<Outcome> {
        while self.live() > 0 && self.round < budget {
            self.step_round();
        }
        self.outcomes(budget)
    }

    /// [`BatchedAggregateSim::run_to_consensus`] under an environment
    /// schedule: every boundary `t` is perturbed after the consensus check
    /// at `t` (the retirement sweep of the previous round) and before the
    /// step to `t + 1` — the same convention as the solo
    /// [`run_to_consensus_env`](crate::run::run_to_consensus_env), to which
    /// each replica's trajectory is bit-identical.
    pub fn run_to_consensus_env(&mut self, budget: u64, env: &EnvSchedule) -> Vec<Outcome> {
        while self.live() > 0 && self.round < budget {
            self.perturb_round(env);
            self.step_round();
        }
        self.outcomes(budget)
    }

    /// [`BatchedAggregateSim::run_to_consensus`] with observability:
    /// emits per-replica [`Event::RoundCompleted`] events (subject to the
    /// handle's round stride, same label convention as the solo loop) and
    /// one [`Event::ReplicationFinished`] per replica, and batch-adds the
    /// round/sample counters so metric totals match the solo path.
    ///
    /// `reps[i]` is the trace label for batch replica `i` (the replication
    /// index within the experiment). Instrumentation never touches the
    /// RNGs, so outcomes are identical to the uninstrumented run.
    ///
    /// # Panics
    ///
    /// Panics if `reps.len() != self.batch_size()`.
    pub fn run_to_consensus_observed(
        &mut self,
        budget: u64,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        self.run_observed_inner(budget, None, obs, reps)
    }

    /// [`BatchedAggregateSim::run_to_consensus_env`] with the same
    /// observability as [`BatchedAggregateSim::run_to_consensus_observed`],
    /// plus the batch total of perturbation events folded into the
    /// `perturbations_applied` counter.
    ///
    /// # Panics
    ///
    /// Panics if `reps.len() != self.batch_size()`.
    pub fn run_to_consensus_env_observed(
        &mut self,
        budget: u64,
        env: &EnvSchedule,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        self.run_observed_inner(budget, Some(env), obs, reps)
    }

    fn run_observed_inner(
        &mut self,
        budget: u64,
        env: Option<&EnvSchedule>,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        assert_eq!(reps.len(), self.batch_size(), "one trace label per replica");
        if !obs.active() && !obs.metrics_on() {
            return match env {
                Some(env) => self.run_to_consensus_env(budget, env),
                None => self.run_to_consensus(budget),
            };
        }

        let timer = Timer::start();
        let mut perturbations = 0u64;
        // Trace labels of the live replicas, gathered once per recorded
        // round so that the round's rows go to the sink in one call.
        let mut live_labels = Vec::with_capacity(self.live_rep.len());
        if obs.active() {
            // Replicas already at consensus finish at round 0, before any
            // round event — same shape as the solo loop.
            for (rep, &label) in reps.iter().enumerate() {
                if self.converged_at[rep] == Some(0) {
                    obs.emit(&Event::ReplicationFinished {
                        rep: label,
                        outcome: ReplicationOutcome::Converged,
                        rounds: 0,
                        elapsed_us: timer.elapsed_us(),
                    });
                }
            }
        }
        while self.live() > 0 && self.round < budget {
            if let Some(env) = env {
                perturbations += self.perturb_round(env);
            }
            // Sampled 1-in-8: a round is microseconds, so timing every
            // pass would itself cost a few percent (see
            // LATENCY_SAMPLE_EVERY).
            let pass_start = (obs.metrics_on()
                && self.round.is_multiple_of(bitdissem_obs::LATENCY_SAMPLE_EVERY))
            .then(std::time::Instant::now);
            self.step_round();
            if let Some(start) = pass_start {
                obs.metrics().record_latency(
                    LatencyId::RoundPass,
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            if !obs.active() {
                continue;
            }
            // Re-read after the step: a source flip mid-run changes the
            // opinion the round events must carry.
            let source_opinion = self.z as u8;
            let r = self.round;
            if obs.wants_round(r) {
                // Still-live replicas report their post-round state; the
                // replicas retired *this* round report the consensus they
                // just reached (the solo loop emits that round too).
                live_labels.clear();
                live_labels.extend(self.live_rep.iter().map(|&rep| reps[rep]));
                obs.emit_rounds(r, source_opinion, &live_labels, &self.live_ones);
            }
            for (rep, &label) in reps.iter().enumerate() {
                if self.converged_at[rep] == Some(r) {
                    if obs.wants_round(r) {
                        obs.emit(&Event::RoundCompleted {
                            rep: label,
                            round: r,
                            ones: self.ones_by_rep[rep],
                            source_opinion,
                        });
                    }
                    obs.emit(&Event::ReplicationFinished {
                        rep: label,
                        outcome: ReplicationOutcome::Converged,
                        rounds: r,
                        elapsed_us: timer.elapsed_us(),
                    });
                }
            }
        }
        if obs.active() {
            for pos in 0..self.live_rep.len() {
                obs.emit(&Event::ReplicationFinished {
                    rep: reps[self.live_rep[pos]],
                    outcome: ReplicationOutcome::TimedOut,
                    rounds: budget,
                    elapsed_us: timer.elapsed_us(),
                });
            }
        }
        if obs.metrics_on() {
            let samples_per_round = (self.kernel.sample_size() as u64).saturating_mul(self.n);
            let mut rounds_total: u64 = 0;
            let mut samples_total: u64 = 0;
            for c in &self.converged_at {
                // Without retirement every replica runs the full loop, not
                // just up to its first consensus hit.
                let steps = if self.retire_on_consensus { c.unwrap_or(budget) } else { self.round };
                rounds_total += steps;
                samples_total =
                    samples_total.saturating_add(steps.saturating_mul(samples_per_round));
            }
            obs.metrics().add_rounds(rounds_total);
            obs.metrics().add_samples(samples_total);
            let retired = self.converged_at.iter().filter(|c| c.is_some()).count();
            obs.metrics().add_retired(retired as u64);
            if env.is_some() {
                obs.metrics().add_perturbations(perturbations);
            }
        }
        self.outcomes(budget)
    }
}

/// Smallest chunk a pool task will step lock-step.
const MIN_CHUNK: usize = 8;
/// Largest chunk a pool task will step lock-step. Wide enough to amortize
/// kernel/plan-cache sharing, narrow enough that work-stealing can balance
/// heavy-tailed convergence times.
const MAX_CHUNK: usize = 64;

/// Runs the replications named by `indices` through lock-step batches over
/// the shared worker pool and returns their outcomes **in the order of
/// `indices`**.
///
/// The batched counterpart of
/// [`replicate_indices_observed`](crate::runner::replicate_indices_observed):
/// each replica still derives its RNG from its own index via
/// [`replication_seed`], so results are bit-identical to the per-replica
/// engine (and to any partition of the index set across calls — the
/// checkpoint-splicing contract), for every thread count and chunk layout.
///
/// # Panics
///
/// Panics if any batch task panics (the panic is propagated).
#[must_use]
pub fn replicate_batched_observed(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    obs: &Obs,
) -> Vec<Outcome> {
    replicate_batched_inner(kernel, start, indices, base_seed, threads, budget, None, obs)
}

/// [`replicate_batched_observed`] under an environment schedule: every
/// replica perturbs and steps through
/// [`BatchedAggregateSim::run_to_consensus_env_observed`], so outcomes stay
/// bit-identical to the solo
/// [`run_to_consensus_env`](crate::run::run_to_consensus_env) with the same
/// replication seed, for every thread count and chunk layout.
///
/// # Panics
///
/// Panics if any batch task panics (the panic is propagated).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn replicate_batched_env_observed(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    env: &EnvSchedule,
    obs: &Obs,
) -> Vec<Outcome> {
    replicate_batched_inner(kernel, start, indices, base_seed, threads, budget, Some(env), obs)
}

#[allow(clippy::too_many_arguments)]
fn replicate_batched_inner(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    env: Option<&EnvSchedule>,
    obs: &Obs,
) -> Vec<Outcome> {
    if indices.is_empty() {
        return Vec::new();
    }
    let tasks = indices.len();
    let cap = threads.unwrap_or_else(effective_parallelism).clamp(1, tasks);
    // Aim for ~4 chunks per worker so stealing can balance convergence-time
    // skew; chunk boundaries never affect results.
    let chunk = tasks.div_ceil(cap * 4).clamp(MIN_CHUNK, MAX_CHUNK);

    let _scope = obs.scope("replicate");
    if obs.metrics_on() {
        obs.metrics().add_rng_streams(tasks as u64);
        obs.metrics().add_replications(tasks as u64);
    }

    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; tasks]);
    let stats = Pool::global().run_chunks(tasks, chunk, cap, &|range| {
        // Batch-level latency span (one per lock-step chunk), distinct
        // from the per-replication "replication" span of the reference
        // engine.
        let _span = obs.span("replication_batch");
        let chunk_indices = &indices[range.clone()];
        let seeds: Vec<u64> =
            chunk_indices.iter().map(|&rep| replication_seed(base_seed, rep as u64)).collect();
        let labels: Vec<u64> = chunk_indices.iter().map(|&rep| rep as u64).collect();
        let mut batch = BatchedAggregateSim::new(Arc::clone(kernel), start, &seeds);
        let outcomes = match env {
            Some(env) => batch.run_to_consensus_env_observed(budget, env, obs, &labels),
            None => batch.run_to_consensus_observed(budget, obs, &labels),
        };
        {
            let mut slots = slots.lock().expect("batched replication slots poisoned");
            for (offset, outcome) in outcomes.into_iter().enumerate() {
                let slot = &mut slots[range.start + offset];
                debug_assert!(slot.is_none(), "replication produced twice");
                *slot = Some(outcome);
            }
        }
        if let Some(progress) = obs.progress() {
            progress.tick(chunk_indices.len() as u64);
        }
    });
    if obs.metrics_on() {
        obs.metrics().add_pool_batch(stats.tasks, stats.steals);
    }

    slots
        .into_inner()
        .expect("batched replication slots poisoned")
        .into_iter()
        .map(|r| r.expect("every replication index is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::run::{run_to_consensus, Simulator};
    use crate::runner::replicate_indices_observed;
    use bitdissem_core::dynamics::{Minority, Stay, Voter};
    use bitdissem_core::{Opinion, ProtocolExt};

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn seeds_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    #[test]
    fn batched_matches_solo_bit_for_bit() {
        // Every replica of the batch must reproduce the exact trajectory of
        // a solo AggregateSim with the same seed — not just the same law.
        let n = 300;
        let minority = Minority::new(5).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 90).unwrap();
        let base = 424_242;
        let budget = 200_000;

        let solo: Vec<Outcome> = (0..24)
            .map(|rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                let mut rng = rng_from(replication_seed(base, rep));
                run_to_consensus(&mut sim, &mut rng, budget)
            })
            .collect();

        let mut batch = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, 24));
        let batched = batch.run_to_consensus(budget);
        assert_eq!(batched, solo);
    }

    #[test]
    fn lock_step_trajectories_match_solo_round_by_round() {
        // Stronger than outcome equality: after every lock-step round, each
        // live replica's ones count equals the solo simulator's state at
        // the same round.
        let n = 200;
        let voter = Voter::new(3).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 60).unwrap();
        let base = 7;
        let reps = 8usize;

        let mut solos: Vec<(AggregateSim, SimRng)> = (0..reps)
            .map(|rep| {
                (
                    AggregateSim::with_kernel(Arc::clone(&kernel), start),
                    rng_from(replication_seed(base, rep as u64)),
                )
            })
            .collect();
        let mut batch =
            BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));

        for _round in 0..500 {
            if batch.live() == 0 {
                break;
            }
            batch.step_round();
            for (rep, (sim, rng)) in solos.iter_mut().enumerate() {
                if !sim.configuration().is_correct_consensus() {
                    sim.step_round(rng);
                }
                assert_eq!(
                    batch.ones_of(rep),
                    sim.configuration().ones(),
                    "rep {rep} diverged at round {}",
                    batch.round()
                );
            }
        }
    }

    #[test]
    fn already_converged_start_retires_everything_at_round_zero() {
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::correct_consensus(n, Opinion::One);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(1, 5));
        assert_eq!(batch.live(), 0);
        assert_eq!(batch.run_to_consensus(100), vec![Outcome::Converged { rounds: 0 }; 5]);
        for rep in 0..5 {
            assert_eq!(batch.converged_at(rep), Some(0));
            assert_eq!(batch.ones_of(rep), n);
        }
    }

    #[test]
    fn stay_times_out_with_the_budget() {
        let n = 32;
        let stay = Stay::new(1);
        let kernel = kernel_of(&stay, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(3, 4));
        assert_eq!(batch.run_to_consensus(50), vec![Outcome::TimedOut { rounds: 50 }; 4]);
        assert_eq!(batch.round(), 50);
    }

    #[test]
    fn zero_budget_means_no_steps() {
        let n = 32;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(3, 3));
        assert_eq!(batch.run_to_consensus(0), vec![Outcome::TimedOut { rounds: 0 }; 3]);
        assert_eq!(batch.round(), 0);
    }

    #[test]
    fn retirement_keeps_survivor_bookkeeping_consistent() {
        // Run a batch where replicas converge at different rounds and check
        // ones_of/converged_at stay coherent through the swap_removes.
        let n = 100;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let reps = 16usize;
        let mut batch = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(11, reps));
        let outcomes = batch.run_to_consensus(500_000);
        let distinct: std::collections::HashSet<u64> =
            outcomes.iter().filter_map(Outcome::rounds).collect();
        assert!(distinct.len() > 1, "replicas should converge at different rounds");
        for (rep, outcome) in outcomes.iter().enumerate() {
            if outcome.is_converged() {
                assert_eq!(batch.converged_at(rep), outcome.rounds());
                assert_eq!(batch.ones_of(rep), n, "retired replica holds the consensus");
            }
        }
    }

    #[test]
    fn driver_matches_per_replica_engine_bit_for_bit() {
        // The pooled batched driver and the reference per-replica engine
        // must agree on every outcome, for any thread count — including a
        // sparse index subset (the checkpoint-splicing contract).
        let n = 250;
        let minority = Minority::new(3).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let base = 99;
        let budget = 200_000;
        let obs = Obs::none();

        let indices: Vec<usize> = (0..40).collect();
        let reference = replicate_indices_observed(&indices, base, Some(4), &obs, |mut rng, _| {
            let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
            run_to_consensus(&mut sim, &mut rng, budget)
        });
        for &threads in &[1usize, 2, 7] {
            let batched = replicate_batched_observed(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                &obs,
            );
            assert_eq!(batched, reference, "threads={threads}");
        }
        let sparse: Vec<usize> = (0..40).filter(|i| i % 3 == 0).collect();
        let spliced =
            replicate_batched_observed(&kernel, start, &sparse, base, Some(2), budget, &obs);
        for (pos, &rep) in sparse.iter().enumerate() {
            assert_eq!(spliced[pos], reference[rep], "sparse rep {rep}");
        }
    }

    #[test]
    fn env_run_matches_solo_env_bit_for_bit() {
        // Under an active schedule the batched engine must still reproduce
        // the exact per-replica trajectory: perturbation draws come from
        // each replica's own stream, in the same perturb-then-step order
        // as the solo loop.
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let env: crate::env::EnvSchedule = "flip@30,noise:0.01".parse().unwrap();
        let base = 77;
        let reps = 12usize;
        let budget = 20_000;

        let solo: Vec<Outcome> = (0..reps)
            .map(|rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                let mut rng = rng_from(replication_seed(base, rep as u64));
                crate::run::run_to_consensus_env(&mut sim, &env, &mut rng, budget)
            })
            .collect();
        assert!(solo.iter().any(Outcome::is_converged), "some replicas re-converge post-flip");

        let mut batch =
            BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));
        assert_eq!(batch.run_to_consensus_env(budget, &env), solo);

        // The pooled driver agrees too, for several thread counts.
        let indices: Vec<usize> = (0..reps).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_batched_env_observed(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                &env,
                &Obs::none(),
            );
            assert_eq!(driven, solo, "threads={threads}");
        }
    }

    #[test]
    fn no_retire_mode_keeps_stepping_past_first_consensus() {
        // Conformance contract: with retirement off, a replica that hits
        // the (old) consensus keeps its first-hit round but stays live, so
        // a post-flip checkpoint reads its true, perturbed state.
        let n = 48;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 40).unwrap();
        let env: crate::env::EnvSchedule = "flip@400".parse().unwrap();
        let reps = 6usize;
        let mut batch = BatchedAggregateSim::with_retirement(
            Arc::clone(&kernel),
            start,
            &seeds_for(9, reps),
            false,
        );
        let outcomes = batch.run_to_consensus_env(800, &env);
        assert_eq!(batch.live(), reps, "nothing retires without retirement");
        assert_eq!(batch.round(), 800, "the loop runs the whole budget");
        for (rep, outcome) in outcomes.iter().enumerate() {
            let k = outcome.rounds().expect("voter reaches the pre-flip consensus quickly");
            assert!(k < 400, "rep {rep} converged before the flip");
            assert_eq!(batch.converged_at(rep), Some(k), "first hit is kept, not overwritten");
            assert!(batch.ones_of(rep) < n, "rep {rep} was knocked off the old consensus");
        }
    }

    #[test]
    fn observed_run_matches_unobserved_and_counts_metrics() {
        let n = 80;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let reps = 6usize;
        let budget = 100_000;

        let plain = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
            .run_to_consensus(budget);

        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let observed = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
            .run_to_consensus_observed(budget, &obs, &labels);
        assert_eq!(plain, observed);

        // Metric totals equal the solo-path sums: Σ rounds and Σ rounds·ℓ·n.
        let total_rounds: u64 = observed.iter().map(Outcome::rounds_censored).sum();
        let m = obs.metrics();
        assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), total_rounds);
        assert_eq!(
            m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed),
            total_rounds * n,
            "voter draws ℓ = 1 sample per agent per round"
        );

        // Event shape per replica: round events 1..=k (carrying X_r, the
        // consensus for r = k) plus exactly one ReplicationFinished.
        for (rep, outcome) in observed.iter().enumerate() {
            let k = outcome.rounds().expect("voter converges");
            let rounds: Vec<(u64, u64)> = sink
                .events()
                .iter()
                .filter_map(|e| match *e {
                    Event::RoundCompleted { rep: r, round, ones, .. } if r == rep as u64 => {
                        Some((round, ones))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(rounds.len() as u64, k, "rep {rep}: one event per executed round");
            for (i, &(round, ones)) in rounds.iter().enumerate() {
                assert_eq!(round, i as u64 + 1, "labels start at 1");
                assert!(ones <= n);
            }
            assert_eq!(rounds.last().unwrap().1, n, "final round event shows the consensus");
            let finishes: Vec<(ReplicationOutcome, u64)> = sink
                .events()
                .iter()
                .filter_map(|e| match *e {
                    Event::ReplicationFinished { rep: r, outcome, rounds, .. }
                        if r == rep as u64 =>
                    {
                        Some((outcome, rounds))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(finishes, vec![(ReplicationOutcome::Converged, k)]);
        }
    }

    #[test]
    fn opinion_samples_match_the_per_replica_engine_across_retirement() {
        // Audit of the retirement-round accounting (ISSUE 7 satellite):
        // replicas retired mid-run by swap_remove must be charged ℓ·n for
        // exactly the rounds they ran — the batch metric totals have to
        // equal the per-replica reference engine's, replica by replica in
        // aggregate. Minority ℓ = 3 from an off-center start staggers the
        // retirement rounds, which is the regime the ℓ·n bug family hits.
        // Voter ℓ = 3 from a supermajority start drifts to consensus at
        // replica-dependent rounds.
        let n = 120;
        let voter3 = Voter::new(3).unwrap();
        let kernel = kernel_of(&voter3, n);
        let start = Configuration::new(n, Opinion::One, 80).unwrap();
        let base = 31;
        let reps = 12usize;
        let budget = 400_000;

        let batched_obs = Obs::none().with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let outcomes = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps))
            .run_to_consensus_observed(budget, &batched_obs, &labels);
        let distinct: std::collections::HashSet<u64> =
            outcomes.iter().filter_map(Outcome::rounds).collect();
        assert!(distinct.len() > 1, "retirement must be staggered for this test to bite");

        let reference_obs = Obs::none().with_metrics();
        let indices: Vec<usize> = (0..reps).collect();
        let reference =
            replicate_indices_observed(&indices, base, Some(2), &reference_obs, |mut rng, rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                crate::run::run_to_consensus_observed(
                    &mut sim,
                    &mut rng,
                    budget,
                    &reference_obs,
                    rep as u64,
                )
            });
        assert_eq!(outcomes, reference);

        let load = |obs: &Obs| {
            let m = obs.metrics();
            (
                m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed),
                m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed),
            )
        };
        let (batched_rounds, batched_samples) = load(&batched_obs);
        let (reference_rounds, reference_samples) = load(&reference_obs);
        assert_eq!(batched_rounds, reference_rounds);
        assert_eq!(batched_samples, reference_samples);
        // And both equal the closed form Σ rounds · ℓ · n.
        let total_rounds: u64 = outcomes.iter().map(Outcome::rounds_censored).sum();
        assert_eq!(batched_rounds, total_rounds);
        assert_eq!(batched_samples, total_rounds * 3 * n);
    }

    #[test]
    fn observed_timeout_emits_timed_out_finishes() {
        let n = 16;
        let stay = Stay::new(1);
        let kernel = kernel_of(&stay, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(2, 3));
        let outcomes = batch.run_to_consensus_observed(25, &obs, &[0, 1, 2]);
        assert_eq!(outcomes, vec![Outcome::TimedOut { rounds: 25 }; 3]);
        let finishes = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::ReplicationFinished {
                        outcome: ReplicationOutcome::TimedOut,
                        rounds: 25,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(finishes, 3);
    }

    #[test]
    fn observed_respects_round_stride() {
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_round_stride(8);
        let mut batch = BatchedAggregateSim::new(kernel, start, &seeds_for(21, 4));
        let outcomes = batch.run_to_consensus_observed(500_000, &obs, &[0, 1, 2, 3]);
        for (rep, outcome) in outcomes.iter().enumerate() {
            let k = outcome.rounds().unwrap();
            let round_events = sink
                .events()
                .iter()
                .filter(|e| matches!(e, Event::RoundCompleted { rep: r, .. } if *r == rep as u64))
                .count() as u64;
            assert_eq!(round_events, k / 8, "rep {rep}: only multiples of 8 traced");
        }
    }
}
