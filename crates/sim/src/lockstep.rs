//! Lock-step replication of the aggregate chain.
//!
//! [`LockstepSim`] advances `B` independent replications of the aggregate
//! process one parallel round at a time, in struct-of-arrays layout: one
//! contiguous `ones` vector and one contiguous rng vector, walked linearly
//! per round. All replicas share a single read-only [`Kernel`] and a
//! single per-state cache of BINV/BTRS plans, so when the replicas cluster
//! in the same narrow band of states — hovering, or near absorption —
//! almost every round reuses a cached kernel evaluation and sampler setup.
//!
//! Each replica draws from its own seeded [`SimRng`], derived from its
//! replication index alone and consumed only by that replica's own draws.
//! A round out of `x` draws exactly what the solo
//! [`AggregateSim`](crate::aggregate::AggregateSim) draws from the same
//! rng, and an environment perturbation draws from the same rng too, so
//! every replica's trajectory is bit-identical to running it solo with the
//! same seed (`batched_matches_solo_bit_for_bit` pins this).
//!
//! A batch runs each replica until its ones-count reaches the batch's
//! **goal** in the direction of the correct opinion: `x ≥ goal` when the
//! correct opinion is `One`, `x ≤ goal` when it is `Zero`. A convergence
//! batch aims at the correct consensus (`n` or `0`); a crossing batch aims
//! at a threshold, such as the Theorem-12 witness's. Replicas that reach
//! the goal are **retired** by `swap_remove`, keeping the live arrays
//! dense; the hot loop never branches on dead replicas. Retirement is pure
//! bookkeeping, so no batch composition, retirement order or chunking can
//! change a trajectory. The pooled driver [`replicate_lockstep`] shards
//! replication indices into batches over the worker pool.

use std::sync::{Arc, Mutex};

use bitdissem_core::{Configuration, Kernel};
use bitdissem_obs::{Event, LatencyId, Obs, ReplicationOutcome, Timer, LATENCY_SAMPLE_WORK};
use bitdissem_pool::{effective_parallelism, Pool};

use crate::binomial::with_lnfact;
use crate::env::EnvSchedule;
use crate::rng::{replication_seed, rng_from, SimRng};
use crate::roundplan::{RoundPlan, StateCache};
use crate::run::Outcome;

// `replicate_lockstep` aims for about four chunks per pool worker, each of
// 8 to 64 replicas: wide enough to share the plan cache, narrow enough that
// work-stealing can balance heavy-tailed convergence times.
const CHUNKS_PER_WORKER: usize = 4;
const MIN_CHUNK: usize = 8;
const MAX_CHUNK: usize = 64;

/// `B` replicas of the aggregate chain stepped in lock-step on seeded
/// per-replica rngs; see the module docs.
///
/// Construction seeds every replica from the same start configuration;
/// if the start has already reached the goal, every replica is retired
/// immediately at round 0, matching the solo run-loop convention that the
/// stop rule is checked *before* stepping.
#[derive(Debug)]
pub struct LockstepSim {
    kernel: Arc<Kernel>,
    n: u64,
    /// Source contribution to the count of ones (1 iff the correct opinion
    /// is `One`).
    z: u64,
    /// The ones-count a replica stops at, reached in the direction of the
    /// correct opinion (see the module docs).
    goal: u64,
    /// Rounds completed so far (shared by all live replicas).
    round: u64,
    // Dense live arrays, parallel by position.
    live_ones: Vec<u64>,
    live_rngs: Vec<SimRng>,
    live_rep: Vec<usize>,
    /// Position of each replica in the live arrays (`usize::MAX` once
    /// retired).
    pos_of_rep: Vec<usize>,
    /// Final `ones` per replica, written once at retirement; live replicas
    /// are read through `pos_of_rep` instead, so the hot loop stores one
    /// word per replica-round, not two.
    ones_by_rep: Vec<u64>,
    /// First round at which each replica had reached the goal.
    converged_at: Vec<Option<u64>>,
    /// `false` keeps replicas stepping past the goal (their first-hit round
    /// is still recorded). Required under an environment schedule that can
    /// knock a replica off consensus: consensus is no longer absorbing, so
    /// a retired replica would report a stale state.
    retire_at_goal: bool,
    /// BINV/BTRS plans by state `(x, z)`, shared by every replica.
    plans: StateCache<RoundPlan>,
}

/// Whether ones-count `x` has reached `goal` in the direction of the
/// correct opinion, whose source contributes `z` ones.
#[inline]
fn reached(x: u64, z: u64, goal: u64) -> bool {
    if z == 1 {
        x >= goal
    } else {
        x <= goal
    }
}

impl LockstepSim {
    /// Creates a batch of `seeds.len()` replicas, all starting from
    /// `start`, with replica `i` drawing from `rng_from(seeds[i])`, that
    /// retire at the correct consensus.
    #[must_use]
    pub fn new(kernel: Arc<Kernel>, start: Configuration, seeds: &[u64]) -> Self {
        let goal = Configuration::correct_consensus(start.n(), start.correct()).ones();
        Self::with_goal(kernel, start, goal, seeds, true)
    }

    /// [`LockstepSim::new`] with the goal and retirement pinned explicitly.
    /// A replica has reached `goal` once its ones-count is `≥ goal` (correct
    /// opinion `One`) or `≤ goal` (`Zero`). `retire_at_goal = false` keeps
    /// every replica live for the whole run — first hits are recorded in
    /// `converged_at`, but the replicas continue stepping (the conformance
    /// harness needs the true post-consensus marginals when an environment
    /// schedule is active).
    #[must_use]
    pub fn with_goal(
        kernel: Arc<Kernel>,
        start: Configuration,
        goal: u64,
        seeds: &[u64],
        retire_at_goal: bool,
    ) -> Self {
        let n = start.n();
        let z = u64::from(start.correct().as_bit());
        let b = seeds.len();
        let mut sim = Self {
            kernel,
            n,
            z,
            goal,
            round: 0,
            live_ones: Vec::with_capacity(b),
            live_rngs: Vec::with_capacity(b),
            live_rep: Vec::with_capacity(b),
            pos_of_rep: vec![usize::MAX; b],
            ones_by_rep: vec![start.ones(); b],
            converged_at: vec![None; b],
            retire_at_goal,
            plans: StateCache::new(n),
        };
        let at_goal = reached(start.ones(), z, goal);
        for (rep, &seed) in seeds.iter().enumerate() {
            if at_goal {
                sim.converged_at[rep] = Some(0);
                if retire_at_goal {
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

    /// Current `ones` count of replica `rep` — its final value, at or past
    /// the goal, once retired.
    #[must_use]
    pub fn ones_of(&self, rep: usize) -> u64 {
        match self.pos_of_rep[rep] {
            usize::MAX => self.ones_by_rep[rep],
            pos => self.live_ones[pos],
        }
    }

    /// First round at which replica `rep` had reached the goal (the correct
    /// consensus, for a batch made by [`LockstepSim::new`]), or `None`
    /// while it has not.
    #[must_use]
    pub fn converged_at(&self, rep: usize) -> Option<u64> {
        self.converged_at[rep]
    }

    /// Advances every live replica by one parallel round, then retires the
    /// replicas that reached the goal.
    pub fn step_round(&mut self) {
        if with_lnfact(self.n, |lnfact| self.draw_round(lnfact)) {
            self.sweep();
        }
    }

    /// Draws one round for every live replica from the `ln(i!)` table
    /// `lnfact`, and returns whether any of them is now at the goal.
    fn draw_round(&mut self, lnfact: &[f64]) -> bool {
        self.round += 1;
        let (kernel, z, goal, plans) = (&*self.kernel, self.z, self.goal, &mut self.plans);
        let mut hit = false;
        for (x, rng) in self.live_ones.iter_mut().zip(&mut self.live_rngs) {
            *x = plans.step(kernel, z, *x, rng, lnfact);
            hit |= reached(*x, z, goal);
        }
        debug_assert!(self.live_ones.iter().all(|&x| x <= self.n));
        hit
    }

    /// Records the first hit of every live replica at the goal and, with
    /// retirement on, retires it. A separate dense sweep, run only on a
    /// round where some replica hit, keeps the draw loop branch-light;
    /// `swap_remove` keeps the arrays packed.
    fn sweep(&mut self) {
        let mut pos = 0;
        while pos < self.live_ones.len() {
            if reached(self.live_ones[pos], self.z, self.goal) {
                let rep = self.live_rep[pos];
                if self.converged_at[rep].is_none() {
                    self.converged_at[rep] = Some(self.round);
                }
                if self.retire_at_goal {
                    self.retire(pos);
                    continue;
                }
            }
            pos += 1;
        }
    }

    /// Applies the environment schedule at the current round boundary
    /// (`t = self.round`), drawing each replica's perturbation randomness
    /// from its own rng — exactly the draws the solo driver
    /// [`drive`](crate::run::drive) makes under a schedule. Returns the number of perturbation
    /// events across the batch.
    ///
    /// Source flips are time-scheduled, so every replica computes the same
    /// new `z`; the shared `z` is committed after the sweep, and a flip
    /// re-aims the goal at the new correct consensus.
    /// The per-state cache needs no flushing: slots are tagged by `(x, z)`
    /// (DESIGN decision 15).
    pub fn perturb_round(&mut self, env: &EnvSchedule) -> u64 {
        let t = self.round;
        let mut events_total = 0u64;
        let mut new_z = self.z;
        for (x, rng) in self.live_ones.iter_mut().zip(self.live_rngs.iter_mut()) {
            let mut z = self.z;
            events_total += env.apply_aggregate(t, self.n, &mut z, x, rng);
            new_z = z;
        }
        if new_z != self.z {
            self.z = new_z;
            self.goal = if self.z == 1 { self.n } else { 0 };
        }
        events_total
    }

    fn retire(&mut self, pos: usize) {
        let rep = self.live_rep[pos];
        self.ones_by_rep[rep] = self.live_ones[pos];
        self.pos_of_rep[rep] = usize::MAX;
        self.live_ones.swap_remove(pos);
        self.live_rngs.swap_remove(pos);
        self.live_rep.swap_remove(pos);
        if pos < self.live_rep.len() {
            self.pos_of_rep[self.live_rep[pos]] = pos;
        }
    }

    /// Per-replica outcomes under a round budget: `Converged` with the
    /// recorded round for replicas that reached the goal, `TimedOut {
    /// rounds: budget }` for the rest.
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

    /// Runs until every replica has reached the goal or `budget` rounds
    /// have elapsed, and returns the per-replica outcomes in batch order.
    /// The goal is tested before the first round and after every round.
    ///
    /// Under `env`, every boundary `t` is perturbed after the goal test at
    /// `t` (the retirement sweep of the previous round) and before the step
    /// to `t + 1` — the convention of the solo driver
    /// [`drive`](crate::run::drive).
    /// Without `env` the whole run holds the `ln(i!)` table; perturbations
    /// draw through `sample_binomial`, which enters the table itself, so a
    /// scheduled run enters it once per round, after the perturbation.
    ///
    /// With an active `obs`, emits per-replica [`Event::RoundCompleted`]
    /// events (subject to the handle's round stride, same label convention
    /// as the solo loop) and one [`Event::ReplicationFinished`] per
    /// replica; with metrics on, batch-adds the round, sample, retirement
    /// and perturbation counters so totals match the solo path (a replica
    /// is charged `ℓ·n` samples only for rounds it ran), adds the plans the
    /// run built to `plan_builds`, and times the first round and then one
    /// round per [`LATENCY_SAMPLE_WORK`] replica-rounds drawn into
    /// `latency/round_pass`. `reps[i]` is the
    /// trace label of batch replica `i` (its replication index within the
    /// experiment). Instrumentation never touches an rng, so outcomes are
    /// identical to the unobserved run.
    ///
    /// # Panics
    ///
    /// Panics if `reps.len() != self.batch_size()`.
    pub fn run(
        &mut self,
        budget: u64,
        env: Option<&EnvSchedule>,
        obs: &Obs,
        reps: &[u64],
    ) -> Vec<Outcome> {
        assert_eq!(reps.len(), self.batch_size(), "one trace label per replica");
        let timer = Timer::start();
        let builds_before = self.plans.builds();
        if obs.active() {
            // Replicas that start at the goal finish at round 0, before any
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
        let mut perturbations = 0u64;
        // Trace labels of the live replicas, gathered once per recorded
        // round so that the round's rows go to the sink in one call.
        let mut live_labels = Vec::with_capacity(self.live_rep.len());
        let n = self.n;
        // Replica-rounds drawn since the last timed round; starts full so
        // the first round is timed.
        let mut untimed_work = LATENCY_SAMPLE_WORK;
        // `held` is the `ln(i!)` table when the whole run holds it, `None`
        // when each round enters it (see above).
        let mut rounds = |held: Option<&[f64]>| {
            while self.live() > 0 && self.round < budget {
                if let Some(env) = env {
                    perturbations += self.perturb_round(env);
                }
                // Sampled by work: a round is microseconds, so timing every
                // pass would itself cost a few percent (see
                // LATENCY_SAMPLE_WORK).
                let pass_start = (obs.metrics_on() && untimed_work >= LATENCY_SAMPLE_WORK)
                    .then(std::time::Instant::now);
                if pass_start.is_some() {
                    untimed_work = 0;
                }
                untimed_work += self.live() as u64;
                let hit = match held {
                    Some(lnfact) => self.draw_round(lnfact),
                    None => with_lnfact(n, |lnfact| self.draw_round(lnfact)),
                };
                if hit {
                    self.sweep();
                }
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
                    // replicas retired *this* round report the state they
                    // retired at (the solo loop emits that round too).
                    live_labels.clear();
                    live_labels.extend(self.live_rep.iter().map(|&rep| reps[rep]));
                    obs.emit_rounds(r, source_opinion, &live_labels, &self.live_ones);
                }
                if !hit {
                    continue;
                }
                for (rep, &label) in reps.iter().enumerate() {
                    if self.converged_at[rep] == Some(r) {
                        // Without retirement the replica is still live, and
                        // its row went out with the live ones.
                        if self.retire_at_goal && obs.wants_round(r) {
                            obs.emit(&Event::RoundCompleted {
                                rep: label,
                                round: r,
                                ones: self.ones_of(rep),
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
        };
        match env {
            Some(_) => rounds(None),
            None => with_lnfact(n, |lnfact| rounds(Some(lnfact))),
        }
        if obs.active() {
            // A live replica that already hit the goal (no retirement)
            // finished when it did; only the others time out.
            for &rep in self.live_rep.iter().filter(|&&rep| self.converged_at[rep].is_none()) {
                obs.emit(&Event::ReplicationFinished {
                    rep: reps[rep],
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
                // just up to its first hit.
                let steps = if self.retire_at_goal { c.unwrap_or(budget) } else { self.round };
                rounds_total += steps;
                samples_total =
                    samples_total.saturating_add(steps.saturating_mul(samples_per_round));
            }
            obs.metrics().add_rounds(rounds_total);
            obs.metrics().add_plan_builds(self.plans.builds() - builds_before);
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

#[cfg(test)]
impl LockstepSim {
    /// [`LockstepSim::run`] without a schedule or instrumentation.
    pub(crate) fn run_plain(&mut self, budget: u64) -> Vec<Outcome> {
        let labels: Vec<u64> = (0..self.batch_size() as u64).collect();
        self.run(budget, None, &Obs::none(), &labels)
    }
}

/// Runs the replications named by `indices` through lock-step batches
/// over the shared worker pool, each replica retiring at `goal` (see
/// [`LockstepSim::with_goal`]), and returns their outcomes **in the order
/// of `indices`**.
///
/// The lock-step counterpart of
/// [`replicate_indices_observed`](crate::runner::replicate_indices_observed):
/// replica `rep` draws from `rng_from(replication_seed(base_seed, rep))`,
/// so outcomes are bit-identical to the per-replica engine for every
/// thread count, chunk layout and partition of the index set across calls
/// (the checkpoint-splicing contract). Each batch runs
/// [`LockstepSim::run`] under `env`. The pool shards `indices` into about
/// four chunks per worker, each of 8 to 64 replicas.
///
/// # Panics
///
/// Panics if any batch task panics (the panic is propagated).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn replicate_lockstep(
    kernel: &Arc<Kernel>,
    start: Configuration,
    goal: u64,
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
    // Chunk boundaries never affect results; several chunks per worker let
    // stealing balance convergence-time skew.
    let chunk = tasks.div_ceil(cap * CHUNKS_PER_WORKER).clamp(MIN_CHUNK, MAX_CHUNK);

    let _scope = obs.scope("replicate");
    if obs.metrics_on() {
        obs.metrics().add_rng_streams(tasks as u64);
        obs.metrics().add_replications(tasks as u64);
    }

    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; tasks]);
    let stats = Pool::global().run_chunks(tasks, chunk, cap, &|range| {
        // One `replication_batch` phase entry per lock-step chunk.
        let _chunk = obs.scope("replication_batch");
        let chunk_indices = &indices[range.clone()];
        let seeds: Vec<u64> =
            chunk_indices.iter().map(|&rep| replication_seed(base_seed, rep as u64)).collect();
        let labels: Vec<u64> = chunk_indices.iter().map(|&rep| rep as u64).collect();
        let outcomes = LockstepSim::with_goal(Arc::clone(kernel), start, goal, &seeds, true)
            .run(budget, env, obs, &labels);
        {
            let mut slots = slots.lock().expect("lock-step replication slots poisoned");
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
        .expect("lock-step replication slots poisoned")
        .into_iter()
        .map(|r| r.expect("every replication index is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::run::{drive, run_to_consensus, RunSpec, Simulator, Stop};
    use crate::runner::replicate_indices_observed;
    use bitdissem_core::dynamics::{Minority, Stay, Voter};
    use bitdissem_core::{Opinion, ProtocolExt};
    use bitdissem_obs::MemorySink;

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn seeds_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    #[test]
    fn already_converged_start_retires_everything_at_round_zero() {
        let n = 64;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::correct_consensus(n, Opinion::One);
        let mut batch = LockstepSim::new(kernel, start, &seeds_for(1, 5));
        assert_eq!(batch.live(), 0);
        assert_eq!(batch.run_plain(100), vec![Outcome::Converged { rounds: 0 }; 5]);
        for rep in 0..5 {
            assert_eq!(batch.converged_at(rep), Some(0));
            assert_eq!(batch.ones_of(rep), n);
        }
    }

    #[test]
    fn stay_times_out_with_the_budget() {
        let n = 32;
        let kernel = kernel_of(&Stay::new(1), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = LockstepSim::new(kernel, start, &seeds_for(3, 4));
        assert_eq!(batch.run_plain(50), vec![Outcome::TimedOut { rounds: 50 }; 4]);
        assert_eq!(batch.round(), 50);
    }

    #[test]
    fn zero_budget_means_no_steps() {
        let n = 32;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = LockstepSim::new(kernel, start, &seeds_for(3, 3));
        assert_eq!(batch.run_plain(0), vec![Outcome::TimedOut { rounds: 0 }; 3]);
        assert_eq!(batch.round(), 0);
    }

    /// A batch with a threshold goal stops each replica at the first `t`
    /// where the goal holds, tested before the first round and after every
    /// round up to the budget, in the state a `step_round` loop of the solo
    /// engine reaches from the same seed: on a merged (Voter) and a split
    /// (TwoChoices) chain, for goals held at the start, reached part-way or
    /// never reached.
    #[test]
    fn threshold_goal_stops_where_a_step_round_loop_does() {
        use bitdissem_core::dynamics::TwoChoices;
        let n = 300;
        let reps = 6;
        let protocols: [&dyn bitdissem_core::Protocol; 2] =
            [&Voter::new(1).unwrap(), &TwoChoices::new()];
        // No state lies above n, so the last goal is never reached.
        let cases =
            [(Opinion::One, 150), (Opinion::One, 180), (Opinion::Zero, 120), (Opinion::One, n + 1)];
        let mut part_way = 0;
        for protocol in protocols {
            let kernel = kernel_of(protocol, n);
            for (correct, goal) in cases {
                let start = Configuration::new(n, correct, 150).unwrap();
                let reached = |x: u64| if correct == Opinion::One { x >= goal } else { x <= goal };
                for budget in [0, 1, 40, 3000] {
                    let case =
                        format!("{}, goal {goal} for {correct}, budget {budget}", protocol.name());
                    let seeds = seeds_for(11, reps);
                    let mut batch =
                        LockstepSim::with_goal(Arc::clone(&kernel), start, goal, &seeds, true);
                    let outcomes = batch.run_plain(budget);
                    for (rep, &seed) in seeds.iter().enumerate() {
                        let mut solo = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                        let mut rng = rng_from(seed);
                        let hit = (0..=budget).find(|&t| {
                            let stopped = reached(solo.configuration().ones());
                            if !stopped && t < budget {
                                solo.step_round(&mut rng);
                            }
                            stopped
                        });
                        part_way += usize::from(hit.is_some_and(|t| t > 0));
                        let expect = hit.map_or(Outcome::TimedOut { rounds: budget }, |rounds| {
                            Outcome::Converged { rounds }
                        });
                        assert_eq!(outcomes[rep], expect, "{case}, rep {rep}");
                        assert_eq!(batch.converged_at(rep), hit, "{case}, rep {rep}");
                        assert_eq!(
                            batch.ones_of(rep),
                            solo.configuration().ones(),
                            "{case}, rep {rep}"
                        );
                    }
                }
            }
        }
        assert!(part_way > 0, "some replica reaches its goal after the start");
    }

    #[test]
    fn retirement_keeps_survivor_bookkeeping_consistent() {
        // Replicas converge at different rounds; ones_of/converged_at must
        // stay coherent through the swap_removes.
        let n = 100;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let mut batch = LockstepSim::new(kernel, start, &seeds_for(11, 16));
        let outcomes = batch.run_plain(500_000);
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
    fn no_retire_mode_keeps_stepping_past_first_consensus() {
        // Conformance contract: with retirement off, a replica that hits
        // the (old) consensus keeps its first-hit round but stays live, so
        // a post-flip checkpoint reads its true, perturbed state.
        let n = 48;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 40).unwrap();
        let env: EnvSchedule = "flip@400".parse().unwrap();
        let reps = 6usize;
        let mut batch = LockstepSim::with_goal(kernel, start, n, &seeds_for(9, reps), false);
        let labels: Vec<u64> = (0..reps as u64).collect();
        let outcomes = batch.run(800, Some(&env), &Obs::none(), &labels);
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
    fn observed_no_retire_run_emits_one_row_per_round_and_one_finish() {
        // Without retirement every replica steps to the budget, so it
        // reports each round 1..=budget exactly once and finishes exactly
        // once, as `outcomes` says: `Converged` at its first hit (round 0
        // for a start at consensus), `TimedOut` at the budget otherwise.
        let n = 48;
        let budget = 300;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let reps = 6usize;
        let labels: Vec<u64> = (0..reps as u64).map(|rep| 10 + rep).collect();
        for (x0, env) in [(40, None), (n, Some("flip@150".parse::<EnvSchedule>().unwrap()))] {
            let start = Configuration::new(n, Opinion::One, x0).unwrap();
            let sink = Arc::new(MemorySink::new());
            let obs = Obs::none().with_sink(Arc::clone(&sink) as _);
            let mut batch =
                LockstepSim::with_goal(Arc::clone(&kernel), start, n, &seeds_for(9, reps), false);
            let outcomes = batch.run(budget, env.as_ref(), &obs, &labels);
            assert_eq!(outcomes, batch.outcomes(budget));
            let events = sink.events();
            for (outcome, &label) in outcomes.iter().zip(&labels) {
                let rounds: Vec<u64> = events
                    .iter()
                    .filter_map(|e| match *e {
                        Event::RoundCompleted { rep, round, .. } if rep == label => Some(round),
                        _ => None,
                    })
                    .collect();
                assert_eq!(rounds, (1..=budget).collect::<Vec<_>>(), "x0 {x0}, rep {label}");
                let finishes: Vec<(ReplicationOutcome, u64)> = events
                    .iter()
                    .filter_map(|e| match *e {
                        Event::ReplicationFinished { rep, outcome, rounds, .. } if rep == label => {
                            Some((outcome, rounds))
                        }
                        _ => None,
                    })
                    .collect();
                let expected = match *outcome {
                    Outcome::Converged { rounds } => (ReplicationOutcome::Converged, rounds),
                    Outcome::TimedOut { rounds } => (ReplicationOutcome::TimedOut, rounds),
                };
                assert_eq!(finishes, vec![expected], "x0 {x0}, rep {label}");
            }
            if x0 == 40 {
                assert!(outcomes.iter().any(Outcome::is_converged), "{outcomes:?}");
            } else {
                assert!(outcomes.iter().all(|o| *o == Outcome::Converged { rounds: 0 }));
            }
        }
    }

    #[test]
    fn observed_run_matches_unobserved_and_counts_metrics() {
        let n = 80;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let reps = 6usize;
        let budget = 100_000;

        let plain =
            LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(5, reps)).run_plain(budget);

        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _).with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let observed = LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
            .run(budget, None, &obs, &labels);
        assert_eq!(plain, observed);

        // Metric totals equal the solo-path sums: Σ rounds and Σ rounds·ℓ·n
        // (a retired replica accrues nothing).
        let total_rounds: u64 = observed.iter().map(Outcome::rounds_censored).sum();
        let m = obs.metrics();
        assert_eq!(m.rounds_simulated.load(Ordering::Relaxed), total_rounds);
        assert_eq!(
            m.opinion_samples.load(Ordering::Relaxed),
            total_rounds * n,
            "voter draws ℓ = 1 sample per agent per round"
        );

        // Event shape per replica: round events 1..=k (carrying X_r, the
        // consensus for r = k) plus exactly one ReplicationFinished.
        let events = sink.events();
        for (rep, outcome) in observed.iter().enumerate() {
            let k = outcome.rounds().expect("voter converges");
            let rounds: Vec<(u64, u64)> = events
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
            let finishes: Vec<(ReplicationOutcome, u64)> = events
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
    fn observed_timeout_emits_timed_out_finishes() {
        let n = 16;
        let kernel = kernel_of(&Stay::new(1), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _);
        let mut batch = LockstepSim::new(kernel, start, &seeds_for(2, 3));
        let outcomes = batch.run(25, None, &obs, &[0, 1, 2]);
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

    /// `latency/round_pass` times the first round of a run, then one round
    /// per `LATENCY_SAMPLE_WORK` = 512 replica-rounds drawn: a batch of `B`
    /// replicas that never retire is timed once every `512 / B` rounds.
    #[test]
    fn round_pass_is_sampled_by_work() {
        let n = 32;
        let kernel = kernel_of(&Stay::new(1), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        // (replicas, budget, timed rounds): 8 replicas are timed at rounds
        // 1, 65, …, 577; 64 at 1, 9, …, 73; one at 1 and 513.
        for (reps, budget, samples) in [(8usize, 640, 10), (64, 80, 10), (1, 1024, 2), (8, 1, 1)] {
            let obs = Obs::none().with_metrics();
            let labels: Vec<u64> = (0..reps as u64).collect();
            let mut batch = LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(4, reps));
            let _ = batch.run(budget, None, &obs, &labels);
            let timed = obs
                .metrics()
                .latency_snapshots()
                .into_iter()
                .find(|(name, _)| *name == "round_pass")
                .map(|(_, h)| h.count());
            assert_eq!(timed, Some(samples), "{reps} replicas, budget {budget}");
        }
    }

    /// Each lock-step chunk is timed as one `replication_batch` phase entry.
    #[test]
    fn each_chunk_records_one_replication_batch_phase_entry() {
        let n = 64;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let indices: Vec<usize> = (0..100).collect();
        let (cap, budget) = (2, 100_000);
        let chunk = indices.len().div_ceil(cap * CHUNKS_PER_WORKER).clamp(MIN_CHUNK, MAX_CHUNK);
        let chunks = indices.len().div_ceil(chunk) as u64;
        assert!(chunks > 1, "the batch must split for this test to bite");
        let entries = |obs: &Obs| {
            let _ =
                replicate_lockstep(&kernel, start, n, &indices, 7, Some(cap), budget, None, obs);
            obs.metrics()
                .series()
                .into_iter()
                .find(|(path, _)| path == "phase/replication_batch")
                .map(|(_, h)| h.count())
        };
        assert_eq!(entries(&Obs::none().with_metrics()), Some(chunks));
        assert_eq!(entries(&Obs::none()), None, "metrics off records no phase");
    }

    #[test]
    fn observed_respects_round_stride() {
        let n = 64;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _).with_round_stride(8);
        let mut batch = LockstepSim::new(kernel, start, &seeds_for(21, 4));
        let outcomes = batch.run(500_000, None, &obs, &[0, 1, 2, 3]);
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

        let mut batch = LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(base, 24));
        let batched = batch.run_plain(budget);
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
        let mut batch = LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));

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
            let batched = replicate_lockstep(
                &kernel,
                start,
                n,
                &indices,
                base,
                Some(threads),
                budget,
                None,
                &obs,
            );
            assert_eq!(batched, reference, "threads={threads}");
        }
        let sparse: Vec<usize> = (0..40).filter(|i| i % 3 == 0).collect();
        let spliced =
            replicate_lockstep(&kernel, start, n, &sparse, base, Some(2), budget, None, &obs);
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
        let env: EnvSchedule = "flip@30,noise:0.01".parse().unwrap();
        let base = 77;
        let reps = 12usize;
        let budget = 20_000;

        let solo: Vec<Outcome> = (0..reps)
            .map(|rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                let mut rng = rng_from(replication_seed(base, rep as u64));
                let obs = Obs::none();
                let spec =
                    RunSpec { env: Some(&env), ..RunSpec::new(budget, Stop::Consensus, &obs) };
                drive(&mut sim, &mut rng, &spec, None).outcome()
            })
            .collect();
        assert!(solo.iter().any(Outcome::is_converged), "some replicas re-converge post-flip");

        let mut batch = LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));
        let labels: Vec<u64> = (0..reps as u64).collect();
        assert_eq!(batch.run(budget, Some(&env), &Obs::none(), &labels), solo);

        // The pooled driver agrees too, for several thread counts.
        let indices: Vec<usize> = (0..reps).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_lockstep(
                &kernel,
                start,
                n,
                &indices,
                base,
                Some(threads),
                budget,
                Some(&env),
                &Obs::none(),
            );
            assert_eq!(driven, solo, "threads={threads}");
        }
    }

    #[test]
    fn opinion_samples_match_the_per_replica_engine_across_retirement() {
        // Audit of the retirement-round accounting: replicas retired
        // mid-run by swap_remove must be charged ℓ·n for
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
        let outcomes = LockstepSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps)).run(
            budget,
            None,
            &batched_obs,
            &labels,
        );
        let distinct: std::collections::HashSet<u64> =
            outcomes.iter().filter_map(Outcome::rounds).collect();
        assert!(distinct.len() > 1, "retirement must be staggered for this test to bite");

        let reference_obs = Obs::none().with_metrics();
        let indices: Vec<usize> = (0..reps).collect();
        let reference =
            replicate_indices_observed(&indices, base, Some(2), &reference_obs, |mut rng, rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                let spec = RunSpec {
                    rep: rep as u64,
                    ..RunSpec::new(budget, Stop::Consensus, &reference_obs)
                };
                drive(&mut sim, &mut rng, &spec, None).outcome()
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
}
