//! Lock-step replication of the aggregate chain.
//!
//! [`LockstepSim`] advances `B` independent replications of the aggregate
//! process one parallel round at a time, in struct-of-arrays layout: one
//! contiguous `ones` vector and one contiguous stream vector, walked
//! linearly per round. All replicas share a single read-only [`Kernel`] and
//! a single per-state cache, so when the replicas cluster in the same
//! narrow band of states — hovering, or near absorption — almost every
//! round reuses a cached kernel evaluation and sampler setup.
//!
//! How one replica-round is drawn is the type parameter, a [`Draw`]:
//!
//! * [`SeededDraw`](crate::batched::SeededDraw) gives each replica its own
//!   seeded [`SimRng`](crate::rng::SimRng) and caches
//!   BINV/BTRS plans, so every trajectory is bit-identical to the
//!   per-replica [`AggregateSim`](crate::aggregate::AggregateSim)
//!   ([`BatchedAggregateSim`](crate::batched::BatchedAggregateSim), the
//!   default engine).
//! * [`CounterDraw`](crate::wide::CounterDraw) draws each replica-round
//!   from a counter-based word through fused alias tables
//!   ([`WideBatchedSim`](crate::wide::WideBatchedSim), `--engine wide`).
//!
//! Everything around the draw exists once, here: the live arrays and their
//! retirement, perturbation at a round boundary, the observed round loop
//! [`LockstepSim::run`] and the pooled driver [`replicate_lockstep`].
//!
//! Replicas that reach the correct consensus are **retired** by
//! `swap_remove`, keeping the live arrays dense; the hot loop never
//! branches on dead replicas. Retirement is pure bookkeeping: a replica's
//! stream is derived from its replication index alone and consumed only by
//! that replica's own draws, so no batch composition, retirement order or
//! chunking can change a trajectory.

use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use bitdissem_core::{Configuration, Kernel};
use bitdissem_obs::{Event, LatencyId, Obs, ReplicationOutcome, Timer};
use bitdissem_pool::{effective_parallelism, Pool};

use crate::env::EnvSchedule;
use crate::rng::replication_seed;
use crate::run::Outcome;

/// How a lock-step batch draws one round: the per-replica stream, the
/// per-state cache and the round body, plus the shard sizes the pooled
/// driver uses. Implemented by [`SeededDraw`](crate::batched::SeededDraw)
/// and [`CounterDraw`](crate::wide::CounterDraw).
pub trait Draw: Debug + Sized {
    /// One replica's randomness.
    type Stream: Debug;
    /// Chunks per pool worker that [`replicate_lockstep`] aims for.
    const CHUNKS_PER_WORKER: usize;
    /// Smallest chunk a pool task steps lock-step.
    const MIN_CHUNK: usize;
    /// Largest chunk a pool task steps lock-step.
    const MAX_CHUNK: usize;

    /// The draw state of a batch on `n` agents: an empty per-state cache.
    fn new(n: u64) -> Self;

    /// The stream of the replica whose replication seed is `seed`.
    fn stream(seed: u64) -> Self::Stream;

    /// Advances every live replica by one round: `ones[i]` becomes the
    /// next ones-count of the replica drawing from `streams[i]`. `round`
    /// counts the rounds completed before this one.
    fn step(
        &mut self,
        kernel: &Kernel,
        z: u64,
        round: u64,
        ones: &mut [u64],
        streams: &mut [Self::Stream],
    );

    /// Applies `env` at boundary `t` to one replica in state `(z, x)` and
    /// returns the number of perturbation events, drawing the
    /// perturbations' randomness from the replica's `stream`.
    fn perturb(
        env: &EnvSchedule,
        t: u64,
        n: u64,
        z: &mut u64,
        x: &mut u64,
        stream: &mut Self::Stream,
    ) -> u64;
}

/// `B` replicas of the aggregate chain stepped in lock-step, each round
/// drawn by `D`.
///
/// Construction seeds every replica from the same start configuration;
/// replicas already at the correct consensus are retired immediately with
/// a convergence round of 0, matching the solo run-loop convention that
/// consensus is checked *before* stepping.
#[derive(Debug)]
pub struct LockstepSim<D: Draw> {
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
    live_streams: Vec<D::Stream>,
    live_rep: Vec<usize>,
    /// Position of each replica in the live arrays (`usize::MAX` once
    /// retired).
    pos_of_rep: Vec<usize>,
    /// Final `ones` per replica, written once at retirement; live replicas
    /// are read through `pos_of_rep` instead, so the hot loop stores one
    /// word per replica-round, not two.
    ones_by_rep: Vec<u64>,
    /// First round at which each replica held the correct consensus.
    converged_at: Vec<Option<u64>>,
    /// `false` keeps replicas stepping past the correct consensus (their
    /// first-hit round is still recorded). Required under an environment
    /// schedule that can knock a replica off consensus: consensus is no
    /// longer absorbing, so a retired replica would report a stale state.
    retire_on_consensus: bool,
    draw: D,
}

impl<D: Draw> LockstepSim<D> {
    /// Creates a batch of `seeds.len()` replicas, all starting from
    /// `start`, with replica `i` drawing from the stream of `seeds[i]`.
    #[must_use]
    pub fn new(kernel: Arc<Kernel>, start: Configuration, seeds: &[u64]) -> Self {
        Self::with_retirement(kernel, start, seeds, true)
    }

    /// [`LockstepSim::new`] with retirement pinned explicitly.
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
        let draw = D::new(start.n());
        Self::with_draw(kernel, start, seeds, retire_on_consensus, draw)
    }

    pub(crate) fn with_draw(
        kernel: Arc<Kernel>,
        start: Configuration,
        seeds: &[u64],
        retire_on_consensus: bool,
        draw: D,
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
            live_streams: Vec::with_capacity(b),
            live_rep: Vec::with_capacity(b),
            pos_of_rep: vec![usize::MAX; b],
            ones_by_rep: vec![start.ones(); b],
            converged_at: vec![None; b],
            retire_on_consensus,
            draw,
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
            sim.live_streams.push(D::stream(seed));
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
        match self.pos_of_rep[rep] {
            usize::MAX => self.ones_by_rep[rep],
            pos => self.live_ones[pos],
        }
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
        let round = self.round;
        self.round += 1;
        self.draw.step(&self.kernel, self.z, round, &mut self.live_ones, &mut self.live_streams);
        debug_assert!(self.live_ones.iter().all(|&x| x <= self.n));
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
    /// through [`Draw::perturb`]. Returns the number of perturbation events
    /// across the batch.
    ///
    /// Source flips are time-scheduled, so every replica computes the same
    /// new `z`; the shared `z`/`target` pair is committed after the sweep.
    /// The per-state cache needs no flushing: slots are tagged by `(x, z)`
    /// (DESIGN decision 15).
    pub fn perturb_round(&mut self, env: &EnvSchedule) -> u64 {
        let t = self.round;
        let mut events_total = 0u64;
        let mut new_z = self.z;
        for (x, stream) in self.live_ones.iter_mut().zip(self.live_streams.iter_mut()) {
            let mut z = self.z;
            events_total += D::perturb(env, t, self.n, &mut z, x, stream);
            new_z = z;
        }
        if new_z != self.z {
            self.z = new_z;
            self.target = if self.z == 1 { self.n } else { 0 };
        }
        events_total
    }

    fn retire(&mut self, pos: usize) {
        let rep = self.live_rep[pos];
        self.ones_by_rep[rep] = self.live_ones[pos];
        self.pos_of_rep[rep] = usize::MAX;
        self.live_ones.swap_remove(pos);
        self.live_streams.swap_remove(pos);
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
    /// Under `env`, every boundary `t` is perturbed after the consensus
    /// check at `t` (the retirement sweep of the previous round) and before
    /// the step to `t + 1` — the convention of the solo
    /// [`run_to_consensus_observed`](crate::run::run_to_consensus_observed).
    ///
    /// With an active `obs`, emits per-replica [`Event::RoundCompleted`]
    /// events (subject to the handle's round stride, same label convention
    /// as the solo loop) and one [`Event::ReplicationFinished`] per
    /// replica; with metrics on, batch-adds the round, sample, retirement
    /// and perturbation counters so totals match the solo path (a replica
    /// is charged `ℓ·n` samples only for rounds it ran). `reps[i]` is the
    /// trace label of batch replica `i` (its replication index within the
    /// experiment). Instrumentation never touches a stream, so outcomes are
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
        if !obs.active() && !obs.metrics_on() {
            while self.live() > 0 && self.round < budget {
                if let Some(env) = env {
                    self.perturb_round(env);
                }
                self.step_round();
            }
            return self.outcomes(budget);
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
        if obs.active() {
            for &rep in &self.live_rep {
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

#[cfg(test)]
impl<D: Draw> LockstepSim<D> {
    /// [`LockstepSim::run`] without a schedule or instrumentation.
    pub(crate) fn run_plain(&mut self, budget: u64) -> Vec<Outcome> {
        let labels: Vec<u64> = (0..self.batch_size() as u64).collect();
        self.run(budget, None, &Obs::none(), &labels)
    }
}

/// Runs the replications named by `indices` through lock-step batches
/// drawn by `D` over the shared worker pool, and returns their outcomes
/// **in the order of `indices`**.
///
/// The lock-step counterpart of
/// [`replicate_indices_observed`](crate::runner::replicate_indices_observed):
/// replica `rep` draws from the stream of `replication_seed(base_seed,
/// rep)`, so outcomes are bit-identical for every thread count, chunk
/// layout and partition of the index set across calls (the
/// checkpoint-splicing contract). Each batch runs [`LockstepSim::run`]
/// under `env`. The pool shards `indices` into about
/// [`Draw::CHUNKS_PER_WORKER`] chunks per worker, each of
/// [`Draw::MIN_CHUNK`] to [`Draw::MAX_CHUNK`] replicas.
///
/// # Panics
///
/// Panics if any batch task panics (the panic is propagated).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn replicate_lockstep<D: Draw>(
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
    // Chunk boundaries never affect results; several chunks per worker let
    // stealing balance convergence-time skew.
    let chunk = tasks.div_ceil(cap * D::CHUNKS_PER_WORKER).clamp(D::MIN_CHUNK, D::MAX_CHUNK);

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
        let outcomes =
            LockstepSim::<D>::new(Arc::clone(kernel), start, &seeds).run(budget, env, obs, &labels);
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

/// The draw-generic contracts of a lock-step batch, one function over the
/// draw each. `contract_tests!` instantiates all of them as `#[test]`s in a
/// draw's own test module, under the same names, so every draw is held to
/// every contract.
#[cfg(test)]
pub(crate) mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use bitdissem_core::dynamics::{Stay, Voter};
    use bitdissem_core::{Opinion, ProtocolExt};
    use bitdissem_obs::MemorySink;

    /// `#[test]` wrappers running every contract below on the draw `$draw`.
    macro_rules! contract_tests {
        ($draw:ty) => {
            $crate::lockstep::tests::contract_tests!(
                $draw;
                already_converged_start_retires_everything_at_round_zero,
                stay_times_out_with_the_budget,
                zero_budget_means_no_steps,
                retirement_keeps_survivor_bookkeeping_consistent,
                no_retire_mode_keeps_stepping_past_first_consensus,
                observed_run_matches_unobserved_and_counts_metrics,
                observed_timeout_emits_timed_out_finishes,
                observed_respects_round_stride
            );
        };
        ($draw:ty; $($contract:ident),*) => {
            $(
                #[test]
                fn $contract() {
                    $crate::lockstep::tests::$contract::<$draw>();
                }
            )*
        };
    }
    pub(crate) use contract_tests;

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn seeds_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    pub(crate) fn already_converged_start_retires_everything_at_round_zero<D: Draw>() {
        let n = 64;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::correct_consensus(n, Opinion::One);
        let mut batch = LockstepSim::<D>::new(kernel, start, &seeds_for(1, 5));
        assert_eq!(batch.live(), 0);
        assert_eq!(batch.run_plain(100), vec![Outcome::Converged { rounds: 0 }; 5]);
        for rep in 0..5 {
            assert_eq!(batch.converged_at(rep), Some(0));
            assert_eq!(batch.ones_of(rep), n);
        }
    }

    pub(crate) fn stay_times_out_with_the_budget<D: Draw>() {
        let n = 32;
        let kernel = kernel_of(&Stay::new(1), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = LockstepSim::<D>::new(kernel, start, &seeds_for(3, 4));
        assert_eq!(batch.run_plain(50), vec![Outcome::TimedOut { rounds: 50 }; 4]);
        assert_eq!(batch.round(), 50);
    }

    pub(crate) fn zero_budget_means_no_steps<D: Draw>() {
        let n = 32;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = LockstepSim::<D>::new(kernel, start, &seeds_for(3, 3));
        assert_eq!(batch.run_plain(0), vec![Outcome::TimedOut { rounds: 0 }; 3]);
        assert_eq!(batch.round(), 0);
    }

    pub(crate) fn retirement_keeps_survivor_bookkeeping_consistent<D: Draw>() {
        // Replicas converge at different rounds; ones_of/converged_at must
        // stay coherent through the swap_removes.
        let n = 100;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let mut batch = LockstepSim::<D>::new(kernel, start, &seeds_for(11, 16));
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

    pub(crate) fn no_retire_mode_keeps_stepping_past_first_consensus<D: Draw>() {
        // Conformance contract: with retirement off, a replica that hits
        // the (old) consensus keeps its first-hit round but stays live, so
        // a post-flip checkpoint reads its true, perturbed state.
        let n = 48;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 40).unwrap();
        let env: EnvSchedule = "flip@400".parse().unwrap();
        let reps = 6usize;
        let mut batch =
            LockstepSim::<D>::with_retirement(kernel, start, &seeds_for(9, reps), false);
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

    pub(crate) fn observed_run_matches_unobserved_and_counts_metrics<D: Draw>() {
        let n = 80;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let reps = 6usize;
        let budget = 100_000;

        let plain = LockstepSim::<D>::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
            .run_plain(budget);

        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _).with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let observed = LockstepSim::<D>::new(Arc::clone(&kernel), start, &seeds_for(5, reps))
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

    pub(crate) fn observed_timeout_emits_timed_out_finishes<D: Draw>() {
        let n = 16;
        let kernel = kernel_of(&Stay::new(1), n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _);
        let mut batch = LockstepSim::<D>::new(kernel, start, &seeds_for(2, 3));
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

    pub(crate) fn observed_respects_round_stride<D: Draw>() {
        let n = 64;
        let kernel = kernel_of(&Voter::new(1).unwrap(), n);
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _).with_round_stride(8);
        let mut batch = LockstepSim::<D>::new(kernel, start, &seeds_for(21, 4));
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
}
