//! The aggregate exact-chain simulator.

use std::sync::Arc;

use bitdissem_core::{
    Configuration, GTable, Kernel, Opinion, Protocol, ProtocolError, ProtocolExt,
};
use bitdissem_poly::binomial::{binomial_pmf_into, binomial_pmf_vec};

use crate::binomial::with_lnfact;
use crate::rng::SimRng;
use crate::roundplan::{RoundPlan, StateCache};
use crate::run::Simulator;

/// Slack allowed around `[0, 1]` for an adoption probability before it is
/// treated as a genuine violation rather than floating-point summation
/// noise. With validated `g` entries and pmf weights summing to `1 ± εℓ`,
/// the true rounding error is orders of magnitude below this.
const ADOPTION_PROB_TOL: f64 = 1e-9;

/// Computes the one-round adoption probabilities of Eq. 4 at fraction `p`:
/// `(P₀(p), P₁(p))` — the probability that a 0-holder (resp. 1-holder)
/// adopts opinion 1 next round.
///
/// Values within `ADOPTION_PROB_TOL` (1e-9) of `[0, 1]` are clamped (summation
/// noise); anything further out means the table or the pmf computation is
/// corrupt and is surfaced as
/// [`ProtocolError::InvalidAdoptionProbability`] instead of being silently
/// clamped into range.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidAdoptionProbability`] if a pre-clamp
/// probability is non-finite or outside `[−1e-9, 1 + 1e-9]`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
pub fn try_adoption_probs(table: &GTable, p: f64) -> Result<(f64, f64), ProtocolError> {
    let ell = table.sample_size();
    // Realistic sample sizes fit a stack scratch buffer, so the per-call
    // pmf evaluation allocates nothing; the (never-exercised in practice)
    // ℓ > MAX_STACK_ELL fallback keeps the function total. Both paths run
    // the same mode-centered recurrence, so values are identical to the
    // historical `binomial_pmf_vec` implementation bit for bit.
    const MAX_STACK_ELL: usize = 64;
    let mut stack = [0.0f64; MAX_STACK_ELL + 1];
    let heap: Vec<f64>;
    let weights: &[f64] = if ell <= MAX_STACK_ELL {
        let buf = &mut stack[..=ell];
        binomial_pmf_into(ell as u64, p, buf);
        buf
    } else {
        heap = binomial_pmf_vec(ell as u64, p);
        &heap
    };
    let mut p0 = 0.0;
    let mut p1 = 0.0;
    for (k, &w) in weights.iter().enumerate() {
        p0 += w * table.g(Opinion::Zero, k);
        p1 += w * table.g(Opinion::One, k);
    }
    // The pre-clamp check is enforced in every build profile (two compares
    // per round, negligible next to the pmf evaluation), which is strictly
    // stronger than a debug_assert — release sweeps are where corruption
    // matters most.
    for (own, v) in [(0u8, p0), (1u8, p1)] {
        if !v.is_finite() || !(-ADOPTION_PROB_TOL..=1.0 + ADOPTION_PROB_TOL).contains(&v) {
            return Err(ProtocolError::InvalidAdoptionProbability { own, p, value: v });
        }
    }
    Ok((p0.clamp(0.0, 1.0), p1.clamp(0.0, 1.0)))
}

/// Infallible wrapper over [`try_adoption_probs`] for the simulator hot
/// paths, where an out-of-tolerance adoption probability is a programming
/// error (tables are validated at construction).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`, or with the
/// [`ProtocolError::InvalidAdoptionProbability`] message on a genuine
/// violation.
#[must_use]
pub fn adoption_probs(table: &GTable, p: f64) -> (f64, f64) {
    match try_adoption_probs(table, p) {
        Ok(probs) => probs,
        Err(e) => panic!("{e}"),
    }
}

/// Simulates the parallel-setting process on its aggregate state `(z, X_t)`.
///
/// Exactness: conditioned on `X_t = x`, the non-source 1-holders keep
/// opinion 1 independently with probability `P₁(x/n)` and the 0-holders flip
/// with probability `P₀(x/n)`, so
/// `X_{t+1} = z + Bin(x−z, P₁) + Bin(n−x−(1−z), P₀)` — the same law as the
/// agent-level simulator (ablation A1 checks this), at two binomial draws
/// per round instead of `n·ℓ` uniform draws. Where `P₀ = P₁ = P` the two
/// collapse into one, `X_{t+1} = z + Bin(n−1, P)`, and the round takes a
/// single draw (every round of Voter and Minority).
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::Minority, Configuration, Opinion};
/// use bitdissem_sim::{aggregate::AggregateSim, rng::rng_from, run::Simulator};
///
/// let start = Configuration::new(1000, Opinion::One, 300)?;
/// let mut sim = AggregateSim::new(&Minority::new(3)?, start)?;
/// let mut rng = rng_from(7);
/// sim.step_round(&mut rng);
/// assert!(sim.configuration().ones() >= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AggregateSim {
    kernel: Arc<Kernel>,
    config: Configuration,
    plans: StateCache<RoundPlan>,
}

impl AggregateSim {
    /// Creates a simulator for `protocol` starting from `start`.
    ///
    /// Materializes the protocol's table and compiles it into a fresh
    /// [`Kernel`]. Replicated drivers should compile once and share via
    /// [`AggregateSim::with_kernel`] instead.
    ///
    /// # Errors
    ///
    /// Propagates table materialization errors from the protocol, and
    /// kernel compilation errors for corrupt (unchecked) tables.
    pub fn new<P: Protocol + ?Sized>(
        protocol: &P,
        start: Configuration,
    ) -> Result<Self, ProtocolError> {
        let table = protocol.to_table(start.n())?;
        Ok(Self::with_kernel(Arc::new(table.compile()?), start))
    }

    /// Creates a simulator around an already-compiled kernel, shared
    /// read-only with the caller (no per-replica table materialization).
    #[must_use]
    pub fn with_kernel(kernel: Arc<Kernel>, start: Configuration) -> Self {
        Self { kernel, config: start, plans: StateCache::new(start.n()) }
    }

    /// The compiled adoption-probability kernel.
    #[must_use]
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Steps until `stop` holds for the ones-count, testing it before every
    /// round and after the last (at `t = 0, 1, …, budget`), and returns the
    /// first `t` at which it held, or `None` if it never did. The
    /// simulator is left in the state the run ended in.
    ///
    /// Draws exactly what [`Simulator::step_round`] calls between the same
    /// tests would, from the same rng. The loop keeps the ones-count in a
    /// local and enters the per-thread `ln(i!)` table once per run instead
    /// of once per round, so `stop` runs while the table is held and must
    /// not draw binomials itself.
    pub fn run_until(
        &mut self,
        rng: &mut SimRng,
        budget: u64,
        mut stop: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let Self { kernel, config, plans } = self;
        let kernel: &Kernel = kernel;
        let z = u64::from(config.correct().as_bit());
        let mut x = config.ones();
        let hit = with_lnfact(config.n(), |lnfact| {
            let mut t = 0;
            loop {
                if stop(x) {
                    return Some(t);
                }
                if t == budget {
                    return None;
                }
                x = plans.step(kernel, z, x, rng, lnfact);
                t += 1;
            }
        });
        *config = config.with_ones(x).expect("next state is always consistent");
        hit
    }

    /// Resets the state to a new configuration (same protocol and `n`).
    ///
    /// # Panics
    ///
    /// Panics if the new configuration has a different population size.
    pub fn reset(&mut self, start: Configuration) {
        assert_eq!(start.n(), self.config.n(), "population size is fixed at construction");
        self.config = start;
    }
}

impl Simulator for AggregateSim {
    fn configuration(&self) -> Configuration {
        self.config
    }

    fn step_round(&mut self, rng: &mut SimRng) {
        let x = self.config.ones();
        let z = u64::from(self.config.correct().as_bit());
        let (kernel, plans) = (&self.kernel, &mut self.plans);
        let next = with_lnfact(self.config.n(), |lnfact| plans.step(kernel, z, x, rng, lnfact));
        self.config = self.config.with_ones(next).expect("next state is always consistent");
    }

    /// The aggregate chain is distributionally equivalent to every agent
    /// drawing `ℓ` samples per round, so the nominal sample count is `ℓ·n`
    /// even though only one or two binomial draws are performed. Saturates
    /// instead of overflowing for extreme-`n` nominal accounting.
    fn opinion_samples_per_round(&self) -> u64 {
        (self.kernel.sample_size() as u64).saturating_mul(self.config.n())
    }

    /// Aggregate perturbation: the schedule rewrites `(z, x)` directly. The
    /// state cache needs no flushing — its slots are tagged by the full
    /// `(x, z)` pair (DESIGN decision 15).
    fn perturb(&mut self, env: &crate::env::EnvSchedule, t: u64, rng: &mut SimRng) -> u64 {
        let n = self.config.n();
        let mut z = u64::from(self.config.correct().as_bit());
        let mut x = self.config.ones();
        let events = env.apply_aggregate(t, n, &mut z, &mut x, rng);
        if events > 0 {
            let correct = Opinion::from_bool(z == 1);
            self.config =
                Configuration::new(n, correct, x).expect("perturbations stay in the legal band");
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use bitdissem_core::dynamics::{Minority, Voter};

    #[test]
    fn adoption_probs_match_hand_computation_for_voter() {
        // For the Voter, P_b(p) = p exactly, for any ℓ.
        let table = Voter::new(3).unwrap().to_table(100).unwrap();
        for &p in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            let (p0, p1) = adoption_probs(&table, p);
            assert!((p0 - p).abs() < 1e-12, "p={p}: P0={p0}");
            assert!((p1 - p).abs() < 1e-12, "p={p}: P1={p1}");
        }
    }

    #[test]
    fn adoption_probs_match_hand_computation_for_minority3() {
        // Minority ℓ=3: P(p) = 3p(1−p)² + p³·... :
        // g = [0, 1, 0, 1] -> P(p) = 3p(1−p)² + p³.
        let table = Minority::new(3).unwrap().to_table(100).unwrap();
        for &p in &[0.1, 0.3, 0.5, 0.8] {
            let expect = 3.0 * p * (1.0 - p) * (1.0 - p) + p * p * p;
            let (p0, p1) = adoption_probs(&table, p);
            assert!((p0 - expect).abs() < 1e-12, "p={p}");
            assert_eq!(p0, p1);
        }
    }

    #[test]
    fn corrupt_table_surfaces_invalid_adoption_probability() {
        // An out-of-range g entry (injectable only via the unchecked
        // constructor) must surface as a ProtocolError, not be clamped away.
        let table = GTable::new_unchecked(vec![0.0, 2.0, 2.0, 2.0], vec![0.0, 2.0, 2.0, 2.0]);
        let err = try_adoption_probs(&table, 0.4).unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidAdoptionProbability { own: 0, .. }), "{err}");
        let table = GTable::new_unchecked(vec![0.0, f64::NAN], vec![0.0, 1.0]);
        assert!(try_adoption_probs(&table, 0.5).is_err());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn adoption_probs_panics_on_genuine_violation() {
        let table = GTable::new_unchecked(vec![0.0, -1.5], vec![0.0, 1.0]);
        let _ = adoption_probs(&table, 0.5);
    }

    #[test]
    fn fp_noise_within_tolerance_is_clamped_not_fatal() {
        // Entries a hair outside [0,1] model accumulated summation noise:
        // within 1e-9 the result is clamped, beyond it is an error.
        let eps = 1e-12;
        let table = GTable::new_unchecked(vec![0.0, 1.0 + eps], vec![0.0, 1.0 + eps]);
        let (p0, p1) = adoption_probs(&table, 1.0);
        assert_eq!((p0, p1), (1.0, 1.0));
    }

    #[test]
    fn source_is_never_lost() {
        let start = Configuration::all_wrong(100, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut rng = rng_from(3);
        for _ in 0..500 {
            sim.step_round(&mut rng);
            assert!(sim.configuration().ones() >= 1, "source must keep opinion 1");
        }
    }

    #[test]
    fn consensus_is_absorbing_for_prop3_protocols() {
        let start = Configuration::correct_consensus(50, Opinion::Zero);
        let mut sim = AggregateSim::new(&Minority::new(3).unwrap(), start).unwrap();
        let mut rng = rng_from(4);
        for _ in 0..100 {
            sim.step_round(&mut rng);
            assert!(sim.configuration().is_correct_consensus());
        }
    }

    /// `run_until` draws what a `step_round` loop with the same tests
    /// draws: the same stopping round, final state and rng position, on a
    /// merged (Voter) and a split (TwoChoices) chain, for rules that hold
    /// at the start, part-way, or never.
    #[test]
    fn run_until_matches_a_step_round_loop() {
        use bitdissem_core::dynamics::TwoChoices;
        use rand::Rng;
        let start = Configuration::new(300, Opinion::One, 150).unwrap();
        let protocols: [&dyn Protocol; 2] = [&Voter::new(1).unwrap(), &TwoChoices::new()];
        for protocol in protocols {
            for (lo, hi) in [(150, 150), (120, 180), (0, 301)] {
                let stop = |x: u64| x <= lo || x >= hi;
                for budget in [0, 1, 40, 3000] {
                    let mut fast = AggregateSim::new(protocol, start).unwrap();
                    let mut slow = fast.clone();
                    let (mut a, mut b) = (rng_from(11), rng_from(11));
                    let hit = fast.run_until(&mut a, budget, stop);
                    let expect = (0..=budget).find(|&t| {
                        let stopped = stop(slow.configuration().ones());
                        if !stopped && t < budget {
                            slow.step_round(&mut b);
                        }
                        stopped
                    });
                    let case =
                        format!("{}, stop outside ({lo}, {hi}), budget {budget}", protocol.name());
                    assert_eq!(hit, expect, "{case}");
                    assert_eq!(fast.configuration(), slow.configuration(), "{case}");
                    assert_eq!(a.random::<u64>(), b.random::<u64>(), "{case}");
                }
            }
        }
    }

    #[test]
    fn reset_keeps_protocol() {
        let start = Configuration::all_wrong(10, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        sim.reset(Configuration::correct_consensus(10, Opinion::One));
        assert!(sim.configuration().is_correct_consensus());
    }

    #[test]
    #[should_panic(expected = "population size")]
    fn reset_rejects_size_change() {
        let start = Configuration::all_wrong(10, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        sim.reset(Configuration::all_wrong(20, Opinion::One));
    }

    #[test]
    fn kernel_matches_legacy_adoption_probs() {
        // The compiled fast path and the pmf-summation legacy path agree
        // within 1e-12 on a dense grid (including endpoints) for every
        // named protocol shape that reaches the hot loop.
        for table in [
            Voter::new(1).unwrap().to_table(100).unwrap(),
            Voter::new(5).unwrap().to_table(100).unwrap(),
            Minority::new(3).unwrap().to_table(100).unwrap(),
            Minority::new(9).unwrap().to_table(100).unwrap(),
        ] {
            let kernel = table.compile().unwrap();
            for i in 0..=400 {
                let p = f64::from(i) / 400.0;
                let (l0, l1) = adoption_probs(&table, p);
                let (k0, k1) = kernel.eval(p);
                assert!((k0 - l0).abs() < 1e-12, "P0 at p={p}: {k0} vs {l0}");
                assert!((k1 - l1).abs() < 1e-12, "P1 at p={p}: {k1} vs {l1}");
            }
        }
    }

    #[test]
    fn shared_kernel_is_bit_identical_to_owned() {
        use std::sync::Arc;
        let start = Configuration::new(500, Opinion::One, 140).unwrap();
        let minority = Minority::new(5).unwrap();
        let kernel = Arc::new(minority.to_table(500).unwrap().compile().unwrap());
        let trace = |mut sim: AggregateSim| {
            let mut rng = rng_from(17);
            (0..200)
                .map(|_| {
                    sim.step_round(&mut rng);
                    sim.configuration().ones()
                })
                .collect::<Vec<_>>()
        };
        let owned = trace(AggregateSim::new(&minority, start).unwrap());
        let shared = trace(AggregateSim::with_kernel(Arc::clone(&kernel), start));
        assert_eq!(owned, shared);
    }

    #[test]
    fn opinion_samples_saturate_instead_of_overflowing() {
        let start = Configuration::all_wrong(u64::MAX / 2, Opinion::One);
        let sim = AggregateSim::new(&Minority::new(5).unwrap(), start).unwrap();
        assert_eq!(sim.opinion_samples_per_round(), u64::MAX, "5 * (u64::MAX/2) saturates");
    }

    #[test]
    fn deterministic_given_seed() {
        let start = Configuration::new(200, Opinion::One, 77).unwrap();
        let run = |seed| {
            let mut sim = AggregateSim::new(&Minority::new(5).unwrap(), start).unwrap();
            let mut rng = rng_from(seed);
            (0..50)
                .map(|_| {
                    sim.step_round(&mut rng);
                    sim.configuration().ones()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
