//! The per-state cache behind the aggregate engines.
//!
//! For a fixed `(kernel, n)`, everything a round needs out of ones-count
//! `x` under source opinion `z` is a pure function of `(x, z)`: the
//! adoption probabilities `(P₀(x/n), P₁(x/n))`, the binomial counts and
//! the samplers built from them. The per-replica and lock-step engines
//! cache a [`RoundPlan`] (BINV/BTRS sampler setups) per state in a
//! [`StateCache`]: 1024 direct-mapped slots, each tagged by the full
//! `(x, z)` pair.
//!
//! # One draw or two
//!
//! A round out of `x` is `z + Bin(keep_n, P₁) + Bin(flip_n, P₀)` (Eq. 4),
//! with `keep_n + flip_n = n − 1`. When a state's two kernel values are
//! equal — always for rules that ignore the agent's own opinion
//! (`g⁰ = g¹`: Voter, Minority) — `Bin(a, p) + Bin(b, p) = Bin(a + b, p)`
//! collapses the round to `z + Bin(n − 1, P)`, so the plan holds one
//! sampler and the round takes one draw ([`RoundPlan::Merged`]). Every
//! other state draws keep then flip ([`RoundPlan::Split`]). The test is the
//! one `markov::sparse` applies to its rows, per state and on the exact
//! `f64` values, so no option selects it: a protocol whose kernel values
//! differ draws twice wherever they differ.
//!
//! # Slot index
//!
//! State `x` maps to slot `(x mod 512) + 512·[x > n/2]`: each side of `n/2`
//! owns 512 slots. The chain spends its time in `O(√n)`-wide bands of
//! states. A chain that hovers around a stable drift fixed point, or drifts
//! toward absorption, visits one band. A chain whose fixed point at ½ is
//! unstable with slope below −1 visits two: Minority(ℓ ≥ 5) (slope −5/4 at
//! ℓ = 5) settles on a period-2 orbit that alternates every round between
//! bands near `p*·n` and `(1 − p*)·n`, one on each side of `n/2`. Indexed by
//! `x mod 512` alone, those bands evict each other whenever their distance
//! is close to a multiple of 512 (at `n = 8192`, Minority(5)'s bands sit 44
//! slots apart and 44% of rounds miss under that index). The side bit gives
//! each band a half of its own, whatever their distance.
//!
//! Sizing: a half holds a band of up to 512 consecutive states without a
//! collision, which covers Minority(5) up to `n ≈ 32 768` and Minority(7)
//! up to `n ≈ 16 384`. A single band is collision-free up to 512 states
//! wide wherever it lies, and up to 1024 when it is centred on `n/2`, so
//! single-band chains keep at least the capacity of a plain 512-slot
//! index. Chains that visit more states than that — diffusive Voter,
//! chaotic Minority(ℓ ≥ 9) — stay capacity-bound: states that share a slot
//! rebuild on revisit.
//!
//! # Entry layout
//!
//! A slot is an `Option<(tag, value)>` with the packed tag `2x + z`, so the
//! cache serves populations below `2⁶³`. An empty slot costs no extra word:
//! `None` lives in a spare discriminant of the value. A [`RoundPlan`] holds
//! one or two 72-byte [`Plan`]s (discriminant and reflection flag in one
//! word, then at most eight `f64` BTRS constants) and keeps its own
//! variant in a spare discriminant value of a `Plan`, so a `RoundPlan` is
//! 144 bytes, an aggregate slot 152 and a cache 152 KiB. The component counts `keep_n`/`flip_n` are not stored:
//! [`component_sizes`] derives them from `x` on every round.
//!
//! # Bit identity
//!
//! A slot only ever serves the exact `(x, z)` it was built for, and
//! building is deterministic, so a hit and a miss draw the same values. The
//! draw code behind [`StateCache::step`] is byte-for-byte the one behind
//! [`sample_binomial`](crate::binomial::sample_binomial): sampled values
//! are bit-identical, for any rng state and whatever the slot layout, to
//! one `sample_binomial(n − 1, P)` call on a merged state and to two calls,
//! `(keep_n, P₁)` then `(flip_n, P₀)`, on a split one.

use bitdissem_core::Kernel;

use crate::binomial::Plan;
use crate::rng::SimRng;

/// Slots on each side of `n/2` (a power of two).
const HALF_SLOTS: usize = 512;
/// Total slot count.
const SLOTS: usize = 2 * HALF_SLOTS;

/// Sizes of the two binomial components of a round out of state `x`:
/// `(keep_n, flip_n)`, the non-source agents holding opinion 1 (each keeps
/// it with probability `P₁`) and opinion 0 (each adopts 1 with probability
/// `P₀`).
///
/// Environment perturbations can produce the transient states `x < z` and
/// `x + (1 − z) > n`; `x` is clamped into the legal band `[z, n − 1 + z]`
/// first, so the sizes never wrap `u64` and the next state stays in that
/// band. The two sizes always sum to `n − 1`, every agent but the source.
#[inline]
pub(crate) fn component_sizes(n: u64, z: u64, x: u64) -> (u64, u64) {
    let keep_n = x.max(z).min(n - 1 + z) - z;
    (keep_n, n - 1 - keep_n)
}

/// Direct-mapped cache of per-state values, tagged by `(x, z)`. See the
/// module docs for the index, its sizing and the slot layout.
///
/// One cache serves one `(kernel, n)` pair, both fixed by the engine that
/// owns it. The source opinion `z` is not fixed: an environment flip
/// changes it mid-run, and the tag makes a value built for `(x, z)` miss
/// when queried for `(x, 1 − z)`, so no flip or reset ever needs a flush.
#[derive(Debug, Clone)]
pub(crate) struct StateCache<T> {
    /// Population size.
    n: u64,
    slots: Box<[Option<(u64, T)>; SLOTS]>,
}

impl<T> StateCache<T> {
    /// An empty cache for population `n`. The slot array is allocated up
    /// front, so the first simulated round pays only its own build.
    ///
    /// # Panics
    ///
    /// Panics if `n ≥ 2⁶³`, where the packed tag `2x + z` would overflow.
    pub(crate) fn new(n: u64) -> Self {
        assert!(n < 1 << 63, "the state cache packs 2x + z into a u64; n = {n} is too large");
        let slots: Box<[Option<(u64, T)>]> = (0..SLOTS).map(|_| None).collect();
        Self { n, slots: slots.try_into().unwrap_or_else(|_| unreachable!("SLOTS slots")) }
    }

    /// The slot of state `x`: its low bits, plus one bit for the side of
    /// `n/2` it lies on.
    #[inline]
    fn slot(&self, x: u64) -> usize {
        (x as usize & (HALF_SLOTS - 1)) | (usize::from(x > self.n / 2) * HALF_SLOTS)
    }

    #[inline]
    fn tag(x: u64, z: u64) -> u64 {
        debug_assert!(z <= 1, "z is a source opinion bit");
        2 * x + z
    }

    /// The value cached for `(x, z)`, if its slot holds it.
    #[cfg(test)]
    fn get(&self, x: u64, z: u64) -> Option<&T> {
        match &self.slots[self.slot(x)] {
            Some((tag, value)) if *tag == Self::tag(x, z) => Some(value),
            _ => None,
        }
    }

    /// The value cached for `(x, z)`, built by `build` and cached first on
    /// a miss.
    #[inline]
    pub(crate) fn get_or_insert_with(&mut self, x: u64, z: u64, build: impl FnOnce() -> T) -> &T {
        let tag = Self::tag(x, z);
        let slot = self.slot(x);
        let slot = &mut self.slots[slot];
        if !matches!(slot, Some((t, _)) if *t == tag) {
            *slot = Some((tag, build()));
        }
        match slot {
            Some((_, value)) => value,
            None => unreachable!("the slot was filled above"),
        }
    }
}

/// The sampler setups for one round out of `(x, z)`: the entry the
/// per-replica and lock-step engines cache.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RoundPlan {
    /// `P₀ = P₁ = P`: sampler for `Binomial(n − 1, P)`, the whole round.
    Merged(Plan),
    /// `P₀ ≠ P₁`: the round's two components, drawn keep then flip.
    Split {
        /// Sampler for `Binomial(keep_n, P₁)`.
        keep: Plan,
        /// Sampler for `Binomial(flip_n, P₀)`.
        flip: Plan,
    },
}

impl RoundPlan {
    /// The plan for a round out of `(x, z)`, given the state's kernel
    /// values `(P₀, P₁)` and the caller's `ln(i!)` table.
    fn build(n: u64, z: u64, x: u64, p0: f64, p1: f64, lnfact: &[f64]) -> Self {
        if p0 == p1 {
            return RoundPlan::Merged(Plan::build(n - 1, p1, lnfact));
        }
        let (keep_n, flip_n) = component_sizes(n, z, x);
        RoundPlan::Split {
            keep: Plan::build(keep_n, p1, lnfact),
            flip: Plan::build(flip_n, p0, lnfact),
        }
    }
}

impl StateCache<RoundPlan> {
    /// Advances one replica by one aggregate round: draws the round's
    /// binomial(s) for state `x` and returns the next ones-count.
    ///
    /// `lnfact` is the per-thread `ln(i!)` table, which the caller enters
    /// once for a whole run or lock-step round
    /// ([`with_lnfact`](crate::binomial::with_lnfact)`(n, …)`), not once per
    /// replica-round: the access costs a fifth of a cached one-draw round.
    /// Both a miss's plan build and the draw read it.
    ///
    /// Draws are bit-identical to one
    /// [`sample_binomial`](crate::binomial::sample_binomial) call with
    /// `(n − 1, P)` when `P₀ = P₁ = P`, and otherwise to two calls with
    /// `(keep_n, P₁)` then `(flip_n, P₀)`, on the same rng, for any prefix
    /// of the table.
    #[inline]
    pub(crate) fn step(
        &mut self,
        kernel: &Kernel,
        z: u64,
        x: u64,
        rng: &mut SimRng,
        lnfact: &[f64],
    ) -> u64 {
        let n = self.n;
        let plan = self.get_or_insert_with(x, z, || {
            let (p0, p1) = kernel.eval(x as f64 / n as f64);
            RoundPlan::build(n, z, x, p0, p1, lnfact)
        });
        match plan {
            RoundPlan::Merged(all) => z + all.sample_with(rng, n - 1, lnfact),
            RoundPlan::Split { keep, flip } => {
                let (keep_n, flip_n) = component_sizes(n, z, x);
                let keep = keep.sample_with(rng, keep_n, lnfact);
                let flip = flip.sample_with(rng, flip_n, lnfact);
                z + keep + flip
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::{sample_binomial, with_lnfact, LNFACT_CAP};
    use crate::rng::rng_from;
    use bitdissem_core::dynamics::{Minority, TwoChoices};
    use bitdissem_core::{Protocol, ProtocolExt};
    use rand::Rng;

    fn kernel_of(protocol: &dyn Protocol, n: u64) -> Kernel {
        protocol.to_table(n).unwrap().compile().unwrap()
    }

    /// One round drawn without the cache: one `sample_binomial(n − 1, P)`
    /// when `P₀ = P₁ = P`, otherwise keep then flip.
    fn plain_step(kernel: &Kernel, n: u64, z: u64, x: u64, rng: &mut SimRng) -> u64 {
        let (p0, p1) = kernel.eval(x as f64 / n as f64);
        if p0 == p1 {
            z + sample_binomial(rng, n - 1, p1)
        } else {
            z + sample_binomial(rng, x - z, p1) + sample_binomial(rng, n - x - (1 - z), p0)
        }
    }

    /// An own-independent kernel, whose states all merge, and an
    /// own-dependent one, whose interior states all split.
    fn kernels(n: u64) -> [(Kernel, bool); 2] {
        [
            (kernel_of(&Minority::new(5).unwrap(), n), true),
            (kernel_of(&TwoChoices::new(), n), false),
        ]
    }

    fn is_merged(cache: &StateCache<RoundPlan>, x: u64, z: u64) -> bool {
        matches!(cache.get(x, z), Some(RoundPlan::Merged(_)))
    }

    /// One cached round, with the `ln(i!)` table entered for it alone (plain
    /// sampling enters the table itself, so it cannot run inside).
    fn step(
        cache: &mut StateCache<RoundPlan>,
        kernel: &Kernel,
        z: u64,
        x: u64,
        rng: &mut SimRng,
    ) -> u64 {
        with_lnfact(cache.n, |lnfact| cache.step(kernel, z, x, rng, lnfact))
    }

    /// The cache's draws must be bit-identical to plain sampling, across
    /// repeated visits (cache hits) and band wanderings (misses and
    /// rebuilds), on merged and on split states.
    #[test]
    fn step_matches_plain_sampling_bit_for_bit() {
        let n = 256u64;
        let z = 1u64;
        for (kernel, merged) in kernels(n) {
            let mut cache = StateCache::new(n);
            let mut a = rng_from(42);
            let mut b = rng_from(42);
            let mut x = n / 2;
            for round in 0..2000 {
                let next = step(&mut cache, &kernel, z, x, &mut a);
                assert_eq!(next, plain_step(&kernel, n, z, x, &mut b), "round {round}, x={x}");
                assert_eq!(is_merged(&cache, x, z), merged, "x={x}");
                // Restart a chain that reaches either end of the band, so
                // TwoChoices keeps drawing out of interior states.
                x = if next == n || next == z { n / 2 } else { next };
            }
        }
    }

    /// Whether a BTRS draw of `Bin(trials, p)` reads a log-factorial past
    /// the table's last entry: its mode term `ln((trials − m)!)` does.
    fn reads_past_table(trials: u64, p: f64) -> bool {
        let q = p.min(1.0 - p);
        let mode = ((trials as f64 + 1.0) * q).floor() as u64;
        trials as f64 * q >= 10.0 && trials - mode >= LNFACT_CAP as u64
    }

    /// Above `LNFACT_CAP` agents the table stops short of `n`, and a BTRS
    /// draw falls back to live `ln_gamma` calls for the log-factorials past
    /// its end. Near either consensus, rounds draw `Bin(·, q)` with small
    /// `q`, whose `(trials − k)!` terms lie there. Drawn through the
    /// passed-in table, such rounds must still match plain sampling, on the
    /// first visit and on cache hits.
    #[test]
    fn step_matches_plain_sampling_past_the_table() {
        let n = 70_000u64;
        let z = 1u64;
        assert_eq!(with_lnfact(n, <[f64]>::len), LNFACT_CAP, "the table is capped below n");
        let per_mille = [5u64, 10, 30, 50, 500, 950, 970, 990, 995];
        let states: Vec<u64> = per_mille.iter().map(|f| f * n / 1000).collect();
        for (kernel, merged) in kernels(n) {
            let past = states.iter().any(|&x| {
                let (p0, p1) = kernel.eval(x as f64 / n as f64);
                let (keep_n, flip_n) = component_sizes(n, z, x);
                if merged {
                    reads_past_table(n - 1, p1)
                } else {
                    reads_past_table(keep_n, p1) || reads_past_table(flip_n, p0)
                }
            });
            assert!(past, "some state must draw past the table (merged: {merged})");
            let mut cache = StateCache::new(n);
            let mut a = rng_from(7);
            let mut b = rng_from(7);
            for &x in &states {
                for visit in 0..4 {
                    let next = step(&mut cache, &kernel, z, x, &mut a);
                    assert_eq!(next, plain_step(&kernel, n, z, x, &mut b), "x={x}, visit {visit}");
                    assert_eq!(is_merged(&cache, x, z), merged, "x={x}");
                }
            }
        }
    }

    /// Absorbing states (p exactly 0 or 1, empty counts) must be handled
    /// without burning randomness, like `sample_binomial`'s early returns.
    #[test]
    fn absorbing_states_are_fixed_points_and_draw_free() {
        let n = 64u64;
        let kernel = Minority::new(3).unwrap().to_table(n).unwrap().compile().unwrap();
        for z in [0u64, 1] {
            let mut cache = StateCache::new(n);
            // Visit twice: once through the miss path, once through a hit.
            for _ in 0..2 {
                let x = z * n;
                let mut rng = rng_from(5);
                let mut probe = rng_from(5);
                let next = step(&mut cache, &kernel, z, x, &mut rng);
                assert_eq!(next, x, "consensus is absorbing");
                assert_eq!(rng.random::<u64>(), probe.random::<u64>(), "no randomness consumed");
            }
        }
    }

    /// Flipping the source opinion mid-run must not reuse plans built for
    /// the old `z`: every draw after the flip has to match a cold cache
    /// bit for bit. (Regression test: slots used to be tagged by `x`
    /// alone, so a plan for `(x, 1)` silently served `(x, 0)`.)
    #[test]
    fn source_flip_mid_run_matches_cold_cache() {
        let n = 256u64;
        let kernel = Minority::new(3).unwrap().to_table(n).unwrap().compile().unwrap();
        let mut warm = StateCache::new(n);
        // Warm the cache for z = 1 over a band of states.
        let mut x = n / 2;
        let mut rng = rng_from(13);
        for _ in 0..500 {
            x = step(&mut warm, &kernel, 1, x, &mut rng);
        }
        // Flip the source to z = 0 and replay against a cold cache: the
        // warm cache's draws must be identical, state by state.
        let mut cold = StateCache::new(n);
        let mut a = rng_from(77);
        let mut b = rng_from(77);
        let mut xw = n / 2;
        let mut xc = n / 2;
        for round in 0..500 {
            xw = step(&mut warm, &kernel, 0, xw, &mut a);
            xc = step(&mut cold, &kernel, 0, xc, &mut b);
            assert_eq!(xw, xc, "stale z-plan served at round {round}");
        }
    }

    /// A perturbation can hand a round the transient states `x < z` (the
    /// source flipped to 1 before any agent holds 1) or `x + (1 − z) > n`.
    /// The component sizes must not wrap `u64` and must still sum to
    /// `n − 1` (a saturating guard would give `flip_n = n` for
    /// `(z, x) = (1, 0)`), and a split round out of such a state must land
    /// inside `[z, n − 1 + z]`.
    #[test]
    fn transient_out_of_band_states_step_inside_the_band() {
        let n = 64u64;
        // Stay keeps every agent's own opinion, so P₀ = 0 ≠ 1 = P₁ and
        // every round splits into keep and flip.
        let kernel = kernel_of(&bitdissem_core::dynamics::Stay::new(1), n);
        for (z, x) in [(1u64, 0u64), (0, n)] {
            let (keep_n, flip_n) = component_sizes(n, z, x);
            assert_eq!(keep_n + flip_n, n - 1, "(z, x) = ({z}, {x})");
            let mut cache = StateCache::new(n);
            let mut rng = rng_from(3);
            for _ in 0..4 {
                let next = step(&mut cache, &kernel, z, x, &mut rng);
                assert!(!is_merged(&cache, x, z));
                assert!((z..=n - 1 + z).contains(&next), "({z}, {x}) stepped to {next}");
            }
        }
    }

    /// States on the same side of `n/2` that are a multiple of 512 apart
    /// share a slot; the cache must rebuild rather than reuse a stale plan.
    #[test]
    fn aliasing_states_rebuild_instead_of_reusing() {
        let n = 2048u64;
        let z = 1u64;
        for (kernel, merged) in kernels(n) {
            let mut cache = StateCache::new(n);
            // One colliding pair on each side of n/2 = 1024.
            for (a, b) in [(300u64, 300 + 512), (1100, 1100 + 512)] {
                assert_eq!(cache.slot(a), cache.slot(b), "{a} and {b} must share a slot");
                for x in [a, b, a, b] {
                    let mut r1 = rng_from(9);
                    let mut r2 = rng_from(9);
                    let next = step(&mut cache, &kernel, z, x, &mut r1);
                    assert_eq!(next, plain_step(&kernel, n, z, x, &mut r2), "x={x}");
                    assert_eq!(is_merged(&cache, x, z), merged, "x={x}");
                }
            }
        }
    }

    /// Share of rounds that miss on a state the chain has visited before,
    /// when the real aggregate chain of Minority(ℓ) is driven from
    /// `x = n/2` for 20 000 rounds. First visits miss under every slot
    /// layout (the cache starts cold; they are 1.5–4.4% of these runs), so
    /// they are not counted: what remains are states evicted since their
    /// last visit.
    fn revisit_miss_rate(ell: usize, n: u64) -> f64 {
        const ROUNDS: u32 = 20_000;
        let z = 1u64;
        let kernel = Minority::new(ell).unwrap().to_table(n).unwrap().compile().unwrap();
        let mut cache = StateCache::new(n);
        let mut seen = vec![false; n as usize + 1];
        let mut rng = rng_from(2024);
        let mut x = n / 2;
        let mut misses = 0u32;
        for _ in 0..ROUNDS {
            misses += u32::from(seen[x as usize] && cache.get(x, z).is_none());
            seen[x as usize] = true;
            x = step(&mut cache, &kernel, z, x, &mut rng);
        }
        f64::from(misses) / f64::from(ROUNDS)
    }

    /// The two bands of a period-2 orbit must not evict each other. With
    /// both bands indexed by `x mod 512`, revisits missed on 42% of rounds
    /// for Minority(5) at n = 8192, 35% at n = 16 384, and 44% for
    /// Minority(7) at n = 8192.
    #[test]
    fn period_two_chains_hit_in_both_bands() {
        for (ell, n) in [(5, 8192), (5, 16_384), (7, 8192)] {
            let rate = revisit_miss_rate(ell, n);
            assert!(rate <= 0.02, "Minority({ell}) at n = {n}: {:.1}% misses", 100.0 * rate);
        }
    }

    /// A single-band chain keeps its hit rate.
    #[test]
    fn single_band_chain_keeps_hitting() {
        let rate = revisit_miss_rate(3, 8192);
        assert!(rate <= 0.005, "Minority(3) at n = 8192: {:.2}% misses", 100.0 * rate);
    }

    /// The compaction that pays for the doubled slot count: a cached
    /// aggregate entry, tag included, fits in 152 bytes.
    #[test]
    fn aggregate_slot_is_at_most_152_bytes() {
        assert!(std::mem::size_of::<Option<(u64, RoundPlan)>>() <= 152);
    }
}
