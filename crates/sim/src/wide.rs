//! Wide (counter-rng lane) batched replication of the aggregate chain.
//!
//! [`WideBatchedSim`] is the throughput engine behind `--engine wide`. Like
//! [`BatchedAggregateSim`](crate::batched::BatchedAggregateSim) it advances
//! `B` replications one lock-step round at a time in struct-of-arrays
//! layout, but it replaces the per-replica stateful rng with a
//! **counter-based** stream ([`counter_rng`]): the uniform word behind
//! replica `r`'s round-`t` transition is a pure function of
//! `(stream_r, t)`. Three things follow:
//!
//! 1. **Fused one-word draws.** A round advances a replica from ones-count
//!    `x` by `z + Binomial(keep_n, P₁) + Binomial(flip_n, P₀)`. The wide
//!    engine tabulates that *sum* — the convolution of the two truncated
//!    binomial pmfs, or where `P₀ = P₁ = P` the one truncated pmf of
//!    `Binomial(n − 1, P)` it equals — as a single Walker/Vose
//!    `AliasTable`, so the per replica-round hot path is one SplitMix64
//!    mix plus one alias lookup.
//! 2. **Lane-friendly loops.** The per-round work splits into flat passes
//!    (counter words for all live replicas, then draws, with kernel
//!    evaluations for cache misses batched through the lane-blocked
//!    [`Kernel::eval_slice`]) that the compiler can vectorize; there is no
//!    serial rng dependency between replicas *or* between rounds.
//! 3. **Sharding invariance.** Draws never depend on batch composition,
//!    chunk layout, retirement order, or issue order, so the pooled driver
//!    [`replicate_wide_observed`] is bit-deterministic for every thread
//!    count and chunk size, and forcing the scalar lane fallback
//!    (`BITDISSEM_WIDE_SCALAR=1`) cannot change a single outcome.
//!
//! The price is a different randomness stream than the per-replica /
//! batched reference engines: outcomes are **not** bit-comparable across
//! engines. The wide engine is therefore admitted as its own backend under
//! the conformance KS gates (see DESIGN decision 13) instead of being
//! pinned bit-exact, and its checkpoint batch keys carry a distinct tag so
//! cached outcomes never splice across engines.

use std::sync::{Arc, Mutex};

use bitdissem_core::{Configuration, Kernel};
use bitdissem_obs::{Event, LatencyId, Obs, ReplicationOutcome, Timer};
use bitdissem_pool::{effective_parallelism, Pool};

use crate::binomial::{pmf_window, AliasTable, WideBinomial, MAX_ALIAS_SUPPORT};
use crate::env::{EnvSchedule, ENV_STREAM_SALT};
use crate::rng::{counter_rng, replication_seed, rng_from, splitmix64};
use crate::roundplan::{component_sizes, StateCache};
use crate::run::Outcome;

/// Cost ceiling (`w₁ · w₂` multiply-adds) for building one fused
/// convolution table. States whose window product exceeds this fall back
/// to two split [`WideBinomial`] draws; with [`MAX_ALIAS_SUPPORT`]-wide
/// windows the worst admitted build is ~4M flops, paid once per cached
/// state.
const MAX_CONV_OPS: usize = 1 << 22;

/// One state's compiled round transition: everything needed to map a
/// uniform `u64` word to the next ones-count.
#[derive(Debug, Clone)]
enum WideStep {
    /// Deterministic transition (every component law degenerate — e.g.
    /// the absorbing consensus states). Draw-free.
    Const(u64),
    /// Fused fast path: one alias draw from the round's law, table offset
    /// already including `z`. That law is `z + Binomial(n − 1, P)` when
    /// `P₀ = P₁ = P`, tabulated from one window, and otherwise the
    /// convolution `z + Binomial(keep_n, P₁) + Binomial(flip_n, P₀)`.
    Fused(AliasTable),
    /// Too wide to tabulate as one table: the round's component laws drawn
    /// one by one through the wide per-`(n, p)` dispatch ([`WideBinomial`]),
    /// each from the next word of a SplitMix64 chain.
    Split {
        /// Source contribution to the next ones-count.
        z: u64,
        /// `[Binomial(n − 1, P)]` when `P₀ = P₁ = P`, otherwise
        /// `[Binomial(keep_n, P₁), Binomial(flip_n, P₀)]`. Boxed: they are
        /// five times the size of a fused table each and only needed for
        /// spreads beyond the alias support, so a cached step stays 40
        /// bytes.
        parts: Box<[WideBinomial]>,
    },
}

impl WideStep {
    /// Compiles the transition out of state `x` given the kernel values
    /// `(P₀(x/n), P₁(x/n))`.
    fn build(n: u64, z: u64, x: u64, p0: f64, p1: f64) -> Self {
        // Bin(a, p) + Bin(b, p) = Bin(a + b, p): equal kernel values make
        // the round one binomial over every agent but the source (see the
        // `roundplan` module docs).
        if p0 == p1 {
            return match pmf_window(n - 1, p1, MAX_ALIAS_SUPPORT) {
                Some((lo, w)) => Self::tabulate(z + lo, &w),
                None => WideStep::Split { z, parts: Box::new([WideBinomial::build(n - 1, p1)]) },
            };
        }
        // An environment perturbation can hand us the transient states
        // `x < z` (source flipped to 1 while no agent holds 1 yet) or
        // `x + (1 − z) > n`; `component_sizes` clamps them.
        let (keep_n, flip_n) = component_sizes(n, z, x);
        let keep_w = pmf_window(keep_n, p1, MAX_ALIAS_SUPPORT);
        let flip_w = pmf_window(flip_n, p0, MAX_ALIAS_SUPPORT);
        match (keep_w, flip_w) {
            (Some((lo1, w1)), Some((lo2, w2))) if w1.len() * w2.len() <= MAX_CONV_OPS => {
                let mut conv = vec![0.0f64; w1.len() + w2.len() - 1];
                for (i, &a) in w1.iter().enumerate() {
                    for (j, &b) in w2.iter().enumerate() {
                        conv[i + j] += a * b;
                    }
                }
                Self::tabulate(z + lo1 + lo2, &conv)
            }
            _ => WideStep::Split {
                z,
                parts: Box::new([WideBinomial::build(keep_n, p1), WideBinomial::build(flip_n, p0)]),
            },
        }
    }

    /// The step drawing from the (unnormalized) `weights` over
    /// `lo .. lo + weights.len()`.
    fn tabulate(lo: u64, weights: &[f64]) -> Self {
        if weights.len() == 1 {
            WideStep::Const(lo)
        } else {
            WideStep::Fused(AliasTable::build(lo, weights))
        }
    }

    /// Maps one uniform word to the next ones-count.
    #[inline]
    fn apply(&self, word: u64) -> u64 {
        match self {
            WideStep::Const(v) => *v,
            WideStep::Fused(table) => table.draw(word),
            WideStep::Split { z, parts } => {
                // Each further word is one SplitMix64 step away — the same
                // derivation that splits replication streams, so the
                // component draws are as independent as any two streams.
                let mut word = word;
                let mut next = *z;
                for part in parts.iter() {
                    next += part.sample(word);
                    word = splitmix64(word);
                }
                next
            }
        }
    }
}

/// Reads the scalar-lane override: `BITDISSEM_WIDE_SCALAR` set to anything
/// but `0`/empty forces the one-replica-at-a-time fallback loop (results
/// are bit-identical to the lane-blocked path; pinned by a test).
fn scalar_lanes_forced() -> bool {
    std::env::var("BITDISSEM_WIDE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// `B` replicas of the aggregate chain stepped in lock-step on
/// counter-based rng streams. See the module docs for how this differs
/// from [`BatchedAggregateSim`](crate::batched::BatchedAggregateSim).
#[derive(Debug)]
pub struct WideBatchedSim {
    kernel: Arc<Kernel>,
    n: u64,
    /// Source contribution to the count of ones.
    z: u64,
    /// The `ones` value that constitutes the correct consensus.
    target: u64,
    /// Rounds completed so far (shared by all live replicas).
    round: u64,
    /// `true` forces the scalar (one-replica-at-a-time) loop.
    scalar_lanes: bool,
    // Dense live arrays, parallel by position.
    live_ones: Vec<u64>,
    live_stream: Vec<u64>,
    live_rep: Vec<usize>,
    /// Position of each replica in the live arrays (`usize::MAX` once
    /// retired).
    pos_of_rep: Vec<usize>,
    /// Final `ones` per replica, written once at retirement; live replicas
    /// are read through `pos_of_rep` instead so the hot loop stores one
    /// word per replica-round, not two.
    ones_by_rep: Vec<u64>,
    /// First round at which each replica held the correct consensus.
    converged_at: Vec<Option<u64>>,
    /// `false` keeps replicas stepping past the correct consensus (their
    /// first-hit round is still recorded). Required under an environment
    /// schedule that can knock a replica off consensus: consensus is no
    /// longer absorbing, so a retired replica would report a stale state.
    retire_on_consensus: bool,
    /// Compiled steps by `(x, z)`; `z` changes on an environment source
    /// flip, and the tag keeps steps compiled under the old `z` from being
    /// served (DESIGN decision 15).
    steps: StateCache<WideStep>,
    // Per-round scratch (kept across rounds to avoid reallocation).
    words: Vec<u64>,
    pending: Vec<(usize, usize)>,
    miss_x: Vec<u64>,
    miss_ps: Vec<f64>,
    miss_eval: Vec<(f64, f64)>,
}

impl WideBatchedSim {
    /// Creates a batch of `streams.len()` replicas, all starting from
    /// `start`, with replica `i` drawing from the counter stream
    /// `streams[i]`. Replicas already at the correct consensus retire
    /// immediately with a convergence round of 0 (consensus is checked
    /// before stepping, like every other engine).
    ///
    /// The scalar-lane fallback is taken from the `BITDISSEM_WIDE_SCALAR`
    /// environment variable; tests that need both paths side by side use
    /// [`WideBatchedSim::with_lane_mode`].
    #[must_use]
    pub fn new(kernel: Arc<Kernel>, start: Configuration, streams: &[u64]) -> Self {
        Self::with_lane_mode(kernel, start, streams, scalar_lanes_forced())
    }

    /// [`WideBatchedSim::new`] with the lane mode pinned explicitly
    /// (`scalar_lanes = true` forces the fallback loop regardless of the
    /// environment).
    #[must_use]
    pub fn with_lane_mode(
        kernel: Arc<Kernel>,
        start: Configuration,
        streams: &[u64],
        scalar_lanes: bool,
    ) -> Self {
        Self::with_mode(kernel, start, streams, scalar_lanes, true)
    }

    /// [`WideBatchedSim::with_lane_mode`] with retirement pinned as well.
    /// `retire_on_consensus = false` keeps every replica live for the
    /// whole run — first consensus hits are recorded in `converged_at`,
    /// but the replicas continue stepping (the conformance harness needs
    /// the true post-consensus marginals when an environment schedule is
    /// active).
    #[must_use]
    pub fn with_mode(
        kernel: Arc<Kernel>,
        start: Configuration,
        streams: &[u64],
        scalar_lanes: bool,
        retire_on_consensus: bool,
    ) -> Self {
        let n = start.n();
        let z = u64::from(start.correct().as_bit());
        let target = if z == 1 { n } else { 0 };
        let b = streams.len();
        let mut sim = Self {
            kernel,
            n,
            z,
            target,
            round: 0,
            scalar_lanes,
            live_ones: Vec::with_capacity(b),
            live_stream: Vec::with_capacity(b),
            live_rep: Vec::with_capacity(b),
            pos_of_rep: vec![usize::MAX; b],
            ones_by_rep: vec![start.ones(); b],
            converged_at: vec![None; b],
            retire_on_consensus,
            steps: StateCache::new(n),
            words: Vec::new(),
            pending: Vec::new(),
            miss_x: Vec::new(),
            miss_ps: Vec::new(),
            miss_eval: Vec::new(),
        };
        for (rep, &stream) in streams.iter().enumerate() {
            if start.ones() == target {
                sim.converged_at[rep] = Some(0);
                if retire_on_consensus {
                    continue;
                }
            }
            sim.pos_of_rep[rep] = sim.live_ones.len();
            sim.live_ones.push(start.ones());
            sim.live_stream.push(stream);
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
    ///
    /// The word behind replica `r`'s transition out of round `t` is
    /// `counter_rng(stream_r, t)` — independent of every other replica and
    /// of the evaluation order below, which is what licenses the deferred
    /// miss batching.
    pub fn step_round(&mut self) {
        let ctr = self.round;
        self.round += 1;
        if self.scalar_lanes {
            self.step_positions_scalar(ctr);
        } else {
            self.step_positions_wide(ctr);
        }
        // Retire in a separate dense sweep; swap_remove keeps the arrays
        // packed (identical bookkeeping to the batched engine).
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
    /// (`t = self.round`). Each replica's perturbation randomness comes
    /// from the counter stream `stream ^ ENV_STREAM_SALT` at counter `t` —
    /// independent of the transition words and still a pure function of
    /// `(stream, round)`, so batch composition, sharding, and retirement
    /// order cannot change a trajectory. Returns the number of
    /// perturbation events across the batch.
    ///
    /// Source flips are time-scheduled, so every replica computes the same
    /// new `z`; the shared `z`/`target` pair is committed after the sweep.
    /// The step cache needs no flushing: slots are tagged by `(x, z)`
    /// (DESIGN decision 15).
    pub fn perturb_round(&mut self, env: &EnvSchedule) -> u64 {
        let t = self.round;
        let mut events_total = 0u64;
        let mut new_z = self.z;
        for pos in 0..self.live_ones.len() {
            let mut z = self.z;
            let mut x = self.live_ones[pos];
            let mut rng = rng_from(counter_rng(self.live_stream[pos] ^ ENV_STREAM_SALT, t));
            let events = env.apply_aggregate(t, self.n, &mut z, &mut x, &mut rng);
            if events > 0 {
                self.live_ones[pos] = x;
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

    /// Lane-blocked round body: counter words in one flat pass, cached
    /// draws in a second, missed states batch-evaluated through
    /// [`Kernel::eval_slice`] and drawn last.
    fn step_positions_wide(&mut self, ctr: u64) {
        self.words.clear();
        self.words.extend(self.live_stream.iter().map(|&s| counter_rng(s, ctr)));

        self.pending.clear();
        self.miss_x.clear();
        // Split borrows so the hit path compiles to load/draw/store with no
        // bounds checks: the zip pins `words` to `live_ones` lengthwise and
        // the state is updated in place through the iterator.
        let steps = &self.steps;
        let z = self.z;
        let miss_x = &mut self.miss_x;
        let pending = &mut self.pending;
        for (pos, (x, &word)) in self.live_ones.iter_mut().zip(self.words.iter()).enumerate() {
            match steps.get(*x, z) {
                Some(step) => *x = step.apply(word),
                None => {
                    let ux = miss_x.iter().position(|mx| mx == x).unwrap_or_else(|| {
                        miss_x.push(*x);
                        miss_x.len() - 1
                    });
                    pending.push((pos, ux));
                }
            }
        }
        if self.miss_x.is_empty() {
            return;
        }

        self.miss_ps.clear();
        let n = self.n as f64;
        self.miss_ps.extend(self.miss_x.iter().map(|&x| x as f64 / n));
        self.miss_eval.clear();
        self.kernel.eval_slice(&self.miss_ps, &mut self.miss_eval);
        for ux in 0..self.miss_x.len() {
            let x = self.miss_x[ux];
            let (p0, p1) = self.miss_eval[ux];
            let step = WideStep::build(self.n, self.z, x, p0, p1);
            for pi in 0..self.pending.len() {
                let (pos, u) = self.pending[pi];
                if u == ux {
                    let next = step.apply(self.words[pos]);
                    self.commit(pos, next);
                }
            }
            self.steps.insert(x, self.z, step);
        }
    }

    /// Scalar fallback: one replica at a time, misses compiled on the spot
    /// through the element-wise [`Kernel::eval`]. Bit-identical to the
    /// lane-blocked path because draws are pure in `(stream, round)` and
    /// `eval_slice` is bit-identical to `eval`.
    fn step_positions_scalar(&mut self, ctr: u64) {
        for pos in 0..self.live_ones.len() {
            let x = self.live_ones[pos];
            let word = counter_rng(self.live_stream[pos], ctr);
            let (kernel, n, z) = (&self.kernel, self.n, self.z);
            let step = self.steps.get_or_insert_with(x, z, || {
                let (p0, p1) = kernel.eval(x as f64 / n as f64);
                WideStep::build(n, z, x, p0, p1)
            });
            let next = step.apply(word);
            self.commit(pos, next);
        }
    }

    #[inline]
    fn commit(&mut self, pos: usize, next: u64) {
        debug_assert!(next <= self.n);
        self.live_ones[pos] = next;
    }

    fn retire(&mut self, pos: usize) {
        self.ones_by_rep[self.live_rep[pos]] = self.live_ones[pos];
        self.pos_of_rep[self.live_rep[pos]] = usize::MAX;
        self.live_ones.swap_remove(pos);
        self.live_stream.swap_remove(pos);
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
    pub fn run_to_consensus(&mut self, budget: u64) -> Vec<Outcome> {
        while self.live() > 0 && self.round < budget {
            self.step_round();
        }
        self.outcomes(budget)
    }

    /// [`WideBatchedSim::run_to_consensus`] under an environment schedule:
    /// every boundary `t` is perturbed after the consensus check at `t`
    /// (the retirement sweep of the previous round) and before the step to
    /// `t + 1` — the same convention as the solo
    /// [`run_to_consensus_env`](crate::run::run_to_consensus_env). Like
    /// the unperturbed wide engine, trajectories match the per-replica
    /// engines in law (KS-gated), not bit for bit: both the transition
    /// words and the perturbation draws come from counter streams.
    pub fn run_to_consensus_env(&mut self, budget: u64, env: &EnvSchedule) -> Vec<Outcome> {
        while self.live() > 0 && self.round < budget {
            self.perturb_round(env);
            self.step_round();
        }
        self.outcomes(budget)
    }

    /// [`WideBatchedSim::run_to_consensus`] with observability — identical
    /// event and metric conventions to the batched engine: per-replica
    /// [`Event::RoundCompleted`] events subject to the round stride, one
    /// [`Event::ReplicationFinished`] per replica, and batch-added
    /// round/sample counters (a replica is charged `ℓ·n` samples only for
    /// rounds it actually ran; see `opinion_samples_match_the_reference`).
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

    /// [`WideBatchedSim::run_to_consensus_env`] with the same
    /// observability as [`WideBatchedSim::run_to_consensus_observed`], plus
    /// the batch total of perturbation events folded into the
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

/// Smallest chunk a pool task will step lock-step: wide batches amortize
/// the step cache and keep the flat passes long, so the floor is higher
/// than the batched engine's.
const MIN_CHUNK: usize = 16;
/// Largest chunk a pool task will step lock-step. Sharding never changes
/// results (counter streams), so this only trades work-stealing
/// granularity against per-batch overhead.
const MAX_CHUNK: usize = 1024;

/// Resolves the shard size for `tasks` replications over `cap` workers:
/// the `BITDISSEM_WIDE_CHUNK` override when set (clamped to the task
/// count), else ~2 chunks per worker within `[MIN_CHUNK, MAX_CHUNK]`.
fn wide_chunk(tasks: usize, cap: usize) -> usize {
    if let Some(c) =
        std::env::var("BITDISSEM_WIDE_CHUNK").ok().and_then(|v| v.parse::<usize>().ok())
    {
        if c >= 1 {
            return c.min(tasks);
        }
    }
    tasks.div_ceil(cap * 2).clamp(MIN_CHUNK, MAX_CHUNK)
}

/// Runs the replications named by `indices` through wide lock-step shards
/// over the worker pool and returns their outcomes **in the order of
/// `indices`**.
///
/// The wide counterpart of
/// [`replicate_batched_observed`](crate::batched::replicate_batched_observed):
/// replica `rep` draws from the counter stream `replication_seed(base_seed,
/// rep)`, so outcomes are bit-deterministic for every thread count, chunk
/// size, and index partition — but on a *different* stream than the
/// per-replica/batched engines (KS-gated equivalence, not bit equality).
///
/// # Panics
///
/// Panics if any shard task panics (the panic is propagated).
#[must_use]
pub fn replicate_wide_observed(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    obs: &Obs,
) -> Vec<Outcome> {
    replicate_wide_inner(kernel, start, indices, base_seed, threads, budget, None, obs)
}

/// [`replicate_wide_observed`] under an environment schedule: every shard
/// perturbs and steps through
/// [`WideBatchedSim::run_to_consensus_env_observed`]. Perturbation draws
/// are pure in `(stream, round)` like the transition words, so outcomes
/// remain bit-deterministic across thread counts, chunk sizes, and index
/// partitions.
///
/// # Panics
///
/// Panics if any shard task panics (the panic is propagated).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn replicate_wide_env_observed(
    kernel: &Arc<Kernel>,
    start: Configuration,
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    budget: u64,
    env: &EnvSchedule,
    obs: &Obs,
) -> Vec<Outcome> {
    replicate_wide_inner(kernel, start, indices, base_seed, threads, budget, Some(env), obs)
}

#[allow(clippy::too_many_arguments)]
fn replicate_wide_inner(
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
    let chunk = wide_chunk(tasks, cap);

    let _scope = obs.scope("replicate");
    if obs.metrics_on() {
        obs.metrics().add_rng_streams(tasks as u64);
        obs.metrics().add_replications(tasks as u64);
    }

    let slots: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; tasks]);
    let stats = Pool::global().run_chunks(tasks, chunk, cap, &|range| {
        let _span = obs.span("replication_batch");
        let chunk_indices = &indices[range.clone()];
        let streams: Vec<u64> =
            chunk_indices.iter().map(|&rep| replication_seed(base_seed, rep as u64)).collect();
        let labels: Vec<u64> = chunk_indices.iter().map(|&rep| rep as u64).collect();
        let mut batch = WideBatchedSim::new(Arc::clone(kernel), start, &streams);
        let outcomes = match env {
            Some(env) => batch.run_to_consensus_env_observed(budget, env, obs, &labels),
            None => batch.run_to_consensus_observed(budget, obs, &labels),
        };
        {
            let mut slots = slots.lock().expect("wide replication slots poisoned");
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
        .expect("wide replication slots poisoned")
        .into_iter()
        .map(|r| r.expect("every replication index is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{Minority, Stay, Voter};
    use bitdissem_core::{Opinion, ProtocolExt};

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn streams_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    #[test]
    fn scalar_lane_mode_is_bit_identical_to_wide() {
        // The env-forced fallback loop must reproduce the lane-blocked
        // path's state exactly, round by round — not just the outcomes.
        let n = 300;
        let minority = Minority::new(5).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 90).unwrap();
        let streams = streams_for(11, 24);
        let mut wide = WideBatchedSim::with_lane_mode(Arc::clone(&kernel), start, &streams, false);
        let mut scalar = WideBatchedSim::with_lane_mode(Arc::clone(&kernel), start, &streams, true);
        for _ in 0..2000 {
            if wide.live() == 0 {
                break;
            }
            wide.step_round();
            scalar.step_round();
            for rep in 0..24 {
                assert_eq!(wide.ones_of(rep), scalar.ones_of(rep), "round {}", wide.round());
                assert_eq!(wide.converged_at(rep), scalar.converged_at(rep));
            }
        }
        assert_eq!(wide.outcomes(2000), scalar.outcomes(2000));
    }

    #[test]
    fn source_flip_invalidates_cached_steps() {
        // Regression: the step cache used to tag slots by `x` alone. A
        // mid-run source flip changes `z`, and the law out of state `x`
        // depends on both (`keep_n = x − z`, `flip_n = n − x − (1 − z)`),
        // so a warm slot compiled under the old `z` silently encoded the
        // wrong transition for the same `x`.
        // Every state has a slot of its own, so aliasing cannot mask a
        // stale hit.
        let n = 300u64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let mut warm = StateCache::new(n);
        for x in 1..=n {
            let (p0, p1) = kernel.eval(x as f64 / n as f64);
            warm.insert(x, 1, WideStep::build(n, 1, x, p0, p1));
        }
        // Every z = 0 lookup must miss: the slots carry the old source
        // opinion in their tag.
        for x in 1..n {
            assert!(warm.get(x, 0).is_none(), "stale z=1 slot served for x={x} under z=0");
            assert!(warm.get(x, 1).is_some(), "the z=1 entry for x={x} is still intact");
        }
        // End to end: replaying a z = 0 trajectory against the warm cache
        // and against a cold one, feeding both the same counter-rng words,
        // must agree bit for bit (pre-fix, the warm cache replays the
        // z = 1 law instead).
        let mut cold = StateCache::new(n);
        let stream = replication_seed(17, 0);
        let mut x_warm = 150u64;
        let mut x_cold = 150u64;
        for t in 0..400u64 {
            let word = counter_rng(stream, t);
            let step_in = |cache: &mut StateCache<WideStep>, x: u64| -> u64 {
                if cache.get(x, 0).is_none() {
                    let (p0, p1) = kernel.eval(x as f64 / n as f64);
                    cache.insert(x, 0, WideStep::build(n, 0, x, p0, p1));
                }
                cache.get(x, 0).unwrap().apply(word)
            };
            x_warm = step_in(&mut warm, x_warm);
            x_cold = step_in(&mut cold, x_cold);
            assert_eq!(x_warm, x_cold, "trajectories split at round {t}");
        }
    }

    #[test]
    fn build_clamps_transient_out_of_band_states() {
        // A perturbation can momentarily hand the compiler `x < z` (the
        // source flipped to 1 before any agent holds 1) or
        // `x + (1 − z) > n`; the component sizes `x − z` and
        // `n − x − (1 − z)` must not wrap `u64`, and the compiled step must
        // stay inside `[z, n − (1 − z)]`. (A saturating guard would pass
        // the no-wrap half but admit `flip_n = n` for `(z, x) = (1, 0)`,
        // letting the step reach `n + 1`.)
        let n = 64u64;
        for (z, x) in [(1u64, 0u64), (0, 64)] {
            let step = WideStep::build(n, z, x, 0.3, 0.7);
            for t in 0..200u64 {
                let next = step.apply(counter_rng(3, t));
                assert!(
                    next >= z && next <= n - (1 - z),
                    "build({z}, {x}) stepped outside the band: {next}"
                );
            }
        }
    }

    #[test]
    fn split_fallback_draws_its_two_parts() {
        // σ ≈ 2450 per component: both windows exceed the alias support, so
        // the step falls back to two one-word draws, the second from the
        // SplitMix64 companion word.
        let (n, z, x, p0, p1) = (50_000_000u64, 1u64, 25_000_000u64, 0.4, 0.6);
        let step = WideStep::build(n, z, x, p0, p1);
        assert!(matches!(&step, WideStep::Split { parts, .. } if parts.len() == 2));
        let (keep_n, flip_n) = component_sizes(n, z, x);
        let keep = WideBinomial::build(keep_n, p1);
        let flip = WideBinomial::build(flip_n, p0);
        for t in 0..50u64 {
            let word = counter_rng(8, t);
            let expect = z + keep.sample(word) + flip.sample(splitmix64(word));
            assert_eq!(step.apply(word), expect, "t={t}");
        }
    }

    #[test]
    fn merged_over_wide_step_draws_one_binomial_from_the_word() {
        // P₀ = P₁: the round is z + Binomial(n − 1, P) whatever x is, and
        // at σ ≈ 3500 that one law is still too wide to tabulate, so the
        // step draws it through the scalar fallback from the word itself.
        let (n, z, x, p) = (50_000_000u64, 1u64, 25_000_000u64, 0.5);
        let step = WideStep::build(n, z, x, p, p);
        assert!(matches!(&step, WideStep::Split { parts, .. } if parts.len() == 1));
        let all = WideBinomial::build(n - 1, p);
        for t in 0..50u64 {
            let word = counter_rng(8, t);
            assert_eq!(step.apply(word), z + all.sample(word), "t={t}");
        }
    }

    #[test]
    fn batch_composition_cannot_change_a_trajectory() {
        // Counter streams make every replica's path a pure function of its
        // own stream: running it in a batch of 16 and in a batch of 1 must
        // agree bit for bit, despite different retirement and miss-batching
        // patterns.
        let n = 250;
        let minority = Minority::new(3).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let streams = streams_for(5, 16);
        let budget = 200_000;
        let together =
            WideBatchedSim::new(Arc::clone(&kernel), start, &streams).run_to_consensus(budget);
        for (rep, &stream) in streams.iter().enumerate() {
            let alone =
                WideBatchedSim::new(Arc::clone(&kernel), start, &[stream]).run_to_consensus(budget);
            assert_eq!(alone[0], together[rep], "rep {rep}");
        }
    }

    #[test]
    fn env_run_is_pure_per_stream_and_lane_mode() {
        // Perturbation draws are counter-based like the transition words,
        // so under an active schedule a replica's trajectory still cannot
        // depend on batch composition — and the scalar-lane fallback stays
        // bit-identical to the lane-blocked path.
        let n = 250;
        let minority = Minority::new(3).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let env: EnvSchedule = "flip@60,noise:0.02".parse().unwrap();
        let streams = streams_for(13, 16);
        let budget = 30_000;
        let together = WideBatchedSim::new(Arc::clone(&kernel), start, &streams)
            .run_to_consensus_env(budget, &env);
        for (rep, &stream) in streams.iter().enumerate() {
            let alone = WideBatchedSim::new(Arc::clone(&kernel), start, &[stream])
                .run_to_consensus_env(budget, &env);
            assert_eq!(alone[0], together[rep], "rep {rep}");
        }
        let scalar = WideBatchedSim::with_lane_mode(Arc::clone(&kernel), start, &streams, true)
            .run_to_consensus_env(budget, &env);
        assert_eq!(scalar, together);

        // The pooled env driver shards without changing outcomes either.
        let indices: Vec<usize> = (0..16).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_wide_env_observed(
                &kernel,
                start,
                &indices,
                13,
                Some(threads),
                budget,
                &env,
                &Obs::none(),
            );
            assert_eq!(driven, together, "threads={threads}");
        }
    }

    #[test]
    fn no_retire_mode_keeps_stepping_past_first_consensus() {
        // Conformance contract, wide flavour: with retirement off, first
        // consensus hits are recorded but every replica keeps stepping, so
        // a post-flip checkpoint reads its true, perturbed state.
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 52).unwrap();
        let env: EnvSchedule = "flip@500".parse().unwrap();
        let streams = streams_for(21, 6);
        let mut batch =
            WideBatchedSim::with_mode(Arc::clone(&kernel), start, &streams, false, false);
        let outcomes = batch.run_to_consensus_env(1000, &env);
        assert_eq!(batch.live(), 6, "nothing retires without retirement");
        assert_eq!(batch.round(), 1000, "the loop runs the whole budget");
        for (rep, outcome) in outcomes.iter().enumerate() {
            let k = outcome.rounds().expect("voter reaches the pre-flip consensus quickly");
            assert!(k < 500, "rep {rep} converged before the flip");
            assert_eq!(batch.converged_at(rep), Some(k), "first hit is kept, not overwritten");
            assert!(batch.ones_of(rep) < n, "rep {rep} was knocked off the old consensus");
        }
    }

    #[test]
    fn driver_is_deterministic_across_thread_counts_and_shards() {
        let n = 250;
        let minority = Minority::new(3).unwrap();
        let kernel = kernel_of(&minority, n);
        let start = Configuration::new(n, Opinion::One, 70).unwrap();
        let base = 99;
        let budget = 200_000;
        let obs = Obs::none();
        let indices: Vec<usize> = (0..40).collect();

        // Reference: one un-sharded sim over all replications.
        let reference = WideBatchedSim::new(Arc::clone(&kernel), start, &streams_for(base, 40))
            .run_to_consensus(budget);
        for &threads in &[1usize, 2, 7] {
            let sharded = replicate_wide_observed(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                &obs,
            );
            assert_eq!(sharded, reference, "threads={threads}");
        }
        // Sparse index subsets see the same per-replication outcomes (the
        // checkpoint-splicing contract, within the wide engine).
        let sparse: Vec<usize> = (0..40).filter(|i| i % 3 == 0).collect();
        let spliced = replicate_wide_observed(&kernel, start, &sparse, base, Some(2), budget, &obs);
        for (pos, &rep) in sparse.iter().enumerate() {
            assert_eq!(spliced[pos], reference[rep], "sparse rep {rep}");
        }
    }

    #[test]
    fn already_converged_start_retires_everything_at_round_zero() {
        let n = 64;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::correct_consensus(n, Opinion::One);
        let mut batch = WideBatchedSim::new(kernel, start, &streams_for(1, 5));
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
        let mut batch = WideBatchedSim::new(kernel, start, &streams_for(3, 4));
        assert_eq!(batch.run_to_consensus(50), vec![Outcome::TimedOut { rounds: 50 }; 4]);
        assert_eq!(batch.round(), 50);
    }

    #[test]
    fn zero_budget_means_no_steps() {
        let n = 32;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut batch = WideBatchedSim::new(kernel, start, &streams_for(3, 3));
        assert_eq!(batch.run_to_consensus(0), vec![Outcome::TimedOut { rounds: 0 }; 3]);
        assert_eq!(batch.round(), 0);
    }

    #[test]
    fn retirement_keeps_survivor_bookkeeping_consistent() {
        let n = 100;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let reps = 16usize;
        let mut batch = WideBatchedSim::new(Arc::clone(&kernel), start, &streams_for(11, reps));
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
    fn observed_run_matches_unobserved_and_counts_metrics() {
        // Metrics totals follow the solo-path convention: a replica is
        // charged ℓ·n samples per round it actually ran (satellite audit
        // for the retirement round — retired replicas accrue nothing).
        let n = 80;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let reps = 6usize;
        let budget = 100_000;

        let plain = WideBatchedSim::new(Arc::clone(&kernel), start, &streams_for(5, reps))
            .run_to_consensus(budget);

        let sink = std::sync::Arc::new(bitdissem_obs::MemorySink::new());
        let obs = Obs::none().with_sink(std::sync::Arc::clone(&sink) as _).with_metrics();
        let labels: Vec<u64> = (0..reps as u64).collect();
        let observed = WideBatchedSim::new(Arc::clone(&kernel), start, &streams_for(5, reps))
            .run_to_consensus_observed(budget, &obs, &labels);
        assert_eq!(plain, observed);

        let total_rounds: u64 = observed.iter().map(Outcome::rounds_censored).sum();
        let m = obs.metrics();
        assert_eq!(m.rounds_simulated.load(std::sync::atomic::Ordering::Relaxed), total_rounds);
        assert_eq!(
            m.opinion_samples.load(std::sync::atomic::Ordering::Relaxed),
            total_rounds * n,
            "voter draws ℓ = 1 sample per agent per round"
        );

        // One ReplicationFinished per replica, rounds matching the outcome.
        for (rep, outcome) in observed.iter().enumerate() {
            let k = outcome.rounds().expect("voter converges");
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
    fn wide_law_is_close_to_the_reference_engine() {
        // Not bit-comparable (different streams), but the mean convergence
        // time over many replications must agree with the batched engine
        // within a loose band — a cheap smoke check under the conformance
        // KS gate that does the real statistical admission.
        let n = 100;
        let voter = Voter::new(1).unwrap();
        let kernel = kernel_of(&voter, n);
        let start = Configuration::new(n, Opinion::One, 50).unwrap();
        let budget = 500_000;
        let reps = 200usize;
        let mean = |outcomes: &[Outcome]| {
            outcomes.iter().map(|o| o.rounds_censored() as f64).sum::<f64>() / reps as f64
        };
        let wide = WideBatchedSim::new(Arc::clone(&kernel), start, &streams_for(17, reps))
            .run_to_consensus(budget);
        let batched = crate::batched::BatchedAggregateSim::new(
            Arc::clone(&kernel),
            start,
            &streams_for(17, reps),
        )
        .run_to_consensus(budget);
        let (mw, mb) = (mean(&wide), mean(&batched));
        assert!(
            (mw - mb).abs() / mb < 0.35,
            "wide mean {mw} vs batched mean {mb} diverge beyond the smoke band"
        );
    }
}
