//! The counter draw: lock-step replication on counter-based streams.
//!
//! [`CounterDraw`] is the draw behind `--engine wide`
//! ([`WideBatchedSim`]). It replaces the per-replica stateful rng of
//! [`SeededDraw`](crate::batched::SeededDraw) with a **counter-based**
//! stream ([`counter_rng`]): the uniform word behind replica `r`'s round-`t`
//! transition is a pure function of `(stream_r, t)`. Three things follow:
//!
//! 1. **Fused one-word draws.** A round advances a replica from ones-count
//!    `x` by `z + Binomial(keep_n, P₁) + Binomial(flip_n, P₀)`. The counter
//!    draw tabulates that *sum* — the convolution of the two truncated
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
//!    [`replicate_lockstep`](crate::lockstep::replicate_lockstep) is
//!    bit-deterministic for every thread count and chunk size, and forcing
//!    the scalar lane fallback (`BITDISSEM_WIDE_SCALAR=1`) cannot change a
//!    single outcome. An environment perturbation draws from the salted
//!    counter stream `stream ^ ENV_STREAM_SALT` at the boundary's round,
//!    which keeps it pure in `(stream, round)` too.
//!
//! The price is a different randomness stream than the per-replica /
//! seeded engines: outcomes are **not** bit-comparable across engines. The
//! wide engine is therefore admitted as its own backend under the
//! conformance KS gates (see DESIGN decision 13) instead of being pinned
//! bit-exact, and its checkpoint batch keys carry a distinct tag so cached
//! outcomes never splice across engines.

use std::sync::Arc;

use bitdissem_core::{Configuration, Kernel};

use crate::binomial::{pmf_window, AliasTable, WideBinomial, MAX_ALIAS_SUPPORT};
use crate::env::{EnvSchedule, ENV_STREAM_SALT};
use crate::lockstep::{Draw, LockstepSim};
use crate::rng::{counter_rng, rng_from, splitmix64};
use crate::roundplan::{component_sizes, StateCache};

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

/// The counter-stream draw; see the module docs.
#[derive(Debug)]
pub struct CounterDraw {
    n: u64,
    /// `true` forces the scalar (one-replica-at-a-time) loop.
    scalar_lanes: bool,
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

impl Draw for CounterDraw {
    type Stream = u64;
    // About two chunks per worker: wide batches amortize the step cache
    // and keep the flat passes long, so the floor is higher than the
    // seeded draw's, and the ceiling only trades stealing granularity
    // against per-batch overhead.
    const CHUNKS_PER_WORKER: usize = 2;
    const MIN_CHUNK: usize = 16;
    const MAX_CHUNK: usize = 1024;

    /// The scalar-lane fallback is taken from the `BITDISSEM_WIDE_SCALAR`
    /// environment variable; tests that need both paths side by side use
    /// [`WideBatchedSim::with_lane_mode`].
    fn new(n: u64) -> Self {
        Self {
            n,
            scalar_lanes: scalar_lanes_forced(),
            steps: StateCache::new(n),
            words: Vec::new(),
            pending: Vec::new(),
            miss_x: Vec::new(),
            miss_ps: Vec::new(),
            miss_eval: Vec::new(),
        }
    }

    fn stream(seed: u64) -> u64 {
        seed
    }

    /// The word behind replica `r`'s transition out of round `t` is
    /// `counter_rng(stream_r, t)` — independent of every other replica and
    /// of the evaluation order, which is what licenses the deferred miss
    /// batching.
    fn step(&mut self, kernel: &Kernel, z: u64, round: u64, ones: &mut [u64], streams: &mut [u64]) {
        if self.scalar_lanes {
            self.step_scalar(kernel, z, round, ones, streams);
        } else {
            self.step_lanes(kernel, z, round, ones, streams);
        }
    }

    /// The counter stream `stream ^ ENV_STREAM_SALT` at counter `t`:
    /// independent of the transition words and still a pure function of
    /// `(stream, round)`.
    fn perturb(
        env: &EnvSchedule,
        t: u64,
        n: u64,
        z: &mut u64,
        x: &mut u64,
        stream: &mut u64,
    ) -> u64 {
        let mut rng = rng_from(counter_rng(*stream ^ ENV_STREAM_SALT, t));
        env.apply_aggregate(t, n, z, x, &mut rng)
    }
}

impl CounterDraw {
    /// Lane-blocked round body: counter words in one flat pass, cached
    /// draws in a second, missed states batch-evaluated through
    /// [`Kernel::eval_slice`] and drawn last.
    fn step_lanes(&mut self, kernel: &Kernel, z: u64, ctr: u64, ones: &mut [u64], streams: &[u64]) {
        self.words.clear();
        self.words.extend(streams.iter().map(|&s| counter_rng(s, ctr)));

        self.pending.clear();
        self.miss_x.clear();
        // Split borrows so the hit path compiles to load/draw/store with no
        // bounds checks: the zip pins `words` to `ones` lengthwise and the
        // state is updated in place through the iterator.
        let steps = &self.steps;
        let miss_x = &mut self.miss_x;
        let pending = &mut self.pending;
        for (pos, (x, &word)) in ones.iter_mut().zip(self.words.iter()).enumerate() {
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
        kernel.eval_slice(&self.miss_ps, &mut self.miss_eval);
        for (ux, (&x, &(p0, p1))) in self.miss_x.iter().zip(&self.miss_eval).enumerate() {
            let step = WideStep::build(self.n, z, x, p0, p1);
            for &(pos, u) in &self.pending {
                if u == ux {
                    ones[pos] = step.apply(self.words[pos]);
                }
            }
            self.steps.insert(x, z, step);
        }
    }

    /// Scalar fallback: one replica at a time, misses compiled on the spot
    /// through the element-wise [`Kernel::eval`]. Bit-identical to the
    /// lane-blocked path because draws are pure in `(stream, round)` and
    /// `eval_slice` is bit-identical to `eval`.
    fn step_scalar(
        &mut self,
        kernel: &Kernel,
        z: u64,
        ctr: u64,
        ones: &mut [u64],
        streams: &[u64],
    ) {
        let n = self.n;
        for (x, &stream) in ones.iter_mut().zip(streams) {
            let from = *x;
            let step = self.steps.get_or_insert_with(from, z, || {
                let (p0, p1) = kernel.eval(from as f64 / n as f64);
                WideStep::build(n, z, from, p0, p1)
            });
            *x = step.apply(counter_rng(stream, ctr));
        }
    }
}

/// `B` replicas of the aggregate chain stepped in lock-step on
/// counter-based streams: the `--engine wide` engine.
pub type WideBatchedSim = LockstepSim<CounterDraw>;

impl WideBatchedSim {
    /// [`LockstepSim::new`] with the lane mode pinned explicitly
    /// (`scalar_lanes = true` forces the fallback loop regardless of the
    /// environment).
    #[must_use]
    pub fn with_lane_mode(
        kernel: Arc<Kernel>,
        start: Configuration,
        streams: &[u64],
        scalar_lanes: bool,
    ) -> Self {
        let draw = CounterDraw { scalar_lanes, ..CounterDraw::new(start.n()) };
        Self::with_draw(kernel, start, streams, true, draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::replicate_lockstep;
    use crate::rng::replication_seed;
    use crate::run::Outcome;
    use bitdissem_core::dynamics::{Minority, Voter};
    use bitdissem_core::{Opinion, ProtocolExt};
    use bitdissem_obs::Obs;

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn streams_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    crate::lockstep::tests::contract_tests!(CounterDraw);

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
        let together = WideBatchedSim::new(Arc::clone(&kernel), start, &streams).run_plain(budget);
        for (rep, &stream) in streams.iter().enumerate() {
            let alone =
                WideBatchedSim::new(Arc::clone(&kernel), start, &[stream]).run_plain(budget);
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
        let none = Obs::none();
        let labels: Vec<u64> = (0..16).collect();
        let together = WideBatchedSim::new(Arc::clone(&kernel), start, &streams).run(
            budget,
            Some(&env),
            &none,
            &labels,
        );
        for (rep, &stream) in streams.iter().enumerate() {
            let alone = WideBatchedSim::new(Arc::clone(&kernel), start, &[stream]).run(
                budget,
                Some(&env),
                &none,
                &[0],
            );
            assert_eq!(alone[0], together[rep], "rep {rep}");
        }
        let scalar = WideBatchedSim::with_lane_mode(Arc::clone(&kernel), start, &streams, true)
            .run(budget, Some(&env), &none, &labels);
        assert_eq!(scalar, together);

        // The pooled env driver shards without changing outcomes either.
        let indices: Vec<usize> = (0..16).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_lockstep::<CounterDraw>(
                &kernel,
                start,
                &indices,
                13,
                Some(threads),
                budget,
                Some(&env),
                &none,
            );
            assert_eq!(driven, together, "threads={threads}");
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
            .run_plain(budget);
        for &threads in &[1usize, 2, 7] {
            let sharded = replicate_lockstep::<CounterDraw>(
                &kernel,
                start,
                &indices,
                base,
                Some(threads),
                budget,
                None,
                &obs,
            );
            assert_eq!(sharded, reference, "threads={threads}");
        }
        // Sparse index subsets see the same per-replication outcomes (the
        // checkpoint-splicing contract, within the wide engine).
        let sparse: Vec<usize> = (0..40).filter(|i| i % 3 == 0).collect();
        let spliced = replicate_lockstep::<CounterDraw>(
            &kernel,
            start,
            &sparse,
            base,
            Some(2),
            budget,
            None,
            &obs,
        );
        for (pos, &rep) in sparse.iter().enumerate() {
            assert_eq!(spliced[pos], reference[rep], "sparse rep {rep}");
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
            .run_plain(budget);
        let batched = crate::batched::BatchedAggregateSim::new(
            Arc::clone(&kernel),
            start,
            &streams_for(17, reps),
        )
        .run_plain(budget);
        let (mw, mb) = (mean(&wide), mean(&batched));
        assert!(
            (mw - mb).abs() / mb < 0.35,
            "wide mean {mw} vs batched mean {mb} diverge beyond the smoke band"
        );
    }
}
