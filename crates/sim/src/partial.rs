//! Partial-synchrony activation: interpolating the paper's two settings.
//!
//! The paper contrasts the fully parallel setting (all `n − 1` non-source
//! agents update per round; poly-log convergence is possible) with the
//! sequential one (one agent per step; `Ω(n)` parallel rounds are
//! unavoidable). [`PartialSim`] interpolates: each step a uniformly random
//! subset of `m` non-source agents updates *simultaneously*. `m = n − 1`
//! recovers the parallel setting, `m = 1` the sequential one, and the sweep
//! in between (experiment E18) shows how much synchronicity the fast
//! Minority regime actually needs — an empirical companion to the
//! "power of synchronicity" phenomenon of \[15\].
//!
//! Exact aggregate law of one step: the activated subset contains
//! `S₁ ~ Hypergeometric(n−1, x−z, m)` one-holders; each keeps 1 with
//! probability `P₁(x/n)` and each activated zero-holder flips with
//! probability `P₀(x/n)`, so
//! `X' = X − S₁ + Bin(S₁, P₁) + Bin(m − S₁, P₀)`.
//!
//! Everything a step needs before its first draw is a pure function of the
//! state `(x, z)`: the adoption probabilities, read from the decision table
//! (a pmf over `ℓ + 1` terms, on the heap for `ℓ > 64`), and the
//! hypergeometric's support, mode and mode pmf (three `ln_choose` calls). A
//! unit batch takes `n − 1` steps per round out of a handful of states, so
//! the simulator keeps both per state in a `roundplan::StateCache`, tagged
//! by `(x, z)` because a perturbation can flip the source. The draws are
//! those of the uncached step, bit for bit.

use bitdissem_core::{Configuration, GTable, Protocol, ProtocolError, ProtocolExt};

use crate::aggregate::adoption_probs;
use crate::binomial::sample_binomial;
use crate::hypergeometric::HyperSetup;
use crate::rng::SimRng;
use crate::roundplan::StateCache;
use crate::run::Simulator;

/// What a step out of one state computes before it draws.
#[derive(Debug, Clone, Copy)]
struct StepPlan {
    /// `adoption_probs(table, x/n)`: `(P₀, P₁)`.
    probs: (f64, f64),
    /// The setup of `Hypergeometric(n − 1, x − z, m)`.
    hyper: HyperSetup,
}

/// Aggregate simulator with `m` simultaneous activations per step.
///
/// [`Simulator::step_round`] performs `⌈(n−1)/m⌉` steps so that one call
/// still corresponds to one *parallel round* worth of activations, keeping
/// times comparable across `m` (the paper's normalization).
#[derive(Debug, Clone)]
pub struct PartialSim {
    table: GTable,
    config: Configuration,
    batch: u64,
    steps: u64,
    /// Step plans by state `(x, z)`.
    plans: StateCache<StepPlan>,
}

impl PartialSim {
    /// Creates a simulator activating `batch` random non-source agents per
    /// step.
    ///
    /// # Errors
    ///
    /// Propagates table materialization errors from the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds `n − 1`.
    pub fn new<P: Protocol + ?Sized>(
        protocol: &P,
        start: Configuration,
        batch: u64,
    ) -> Result<Self, ProtocolError> {
        assert!(batch >= 1 && batch < start.n(), "batch must be in [1, n-1]");
        let table = protocol.to_table(start.n())?;
        Ok(Self { table, config: start, batch, steps: 0, plans: StateCache::new(start.n()) })
    }

    /// The batch size `m`.
    #[must_use]
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Total activation steps performed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Performs one step: `m` random non-source agents update
    /// simultaneously.
    pub fn step_batch(&mut self, rng: &mut SimRng) {
        let n = self.config.n();
        let x = self.config.ones();
        let z = u64::from(self.config.correct().as_bit());
        self.steps += 1;

        let nonsource_ones = x - z;
        let (table, batch) = (&self.table, self.batch);
        let plan = *self.plans.get_or_insert_with(x, z, || StepPlan {
            probs: adoption_probs(table, x as f64 / n as f64),
            hyper: HyperSetup::new(n - 1, nonsource_ones, batch),
        });
        // How many of the activated agents currently hold 1?
        let activated_ones = plan.hyper.draw(rng, n - 1, nonsource_ones, batch);
        let activated_zeros = batch - activated_ones;

        let (p0, p1) = plan.probs;
        let keep = sample_binomial(rng, activated_ones, p1);
        let flip = sample_binomial(rng, activated_zeros, p0);
        let next = x - activated_ones + keep + flip;
        self.config = self.config.with_ones(next).expect("moves stay in range");
    }
}

impl Simulator for PartialSim {
    fn configuration(&self) -> Configuration {
        self.config
    }

    /// One parallel round = `⌈(n−1)/m⌉` batched steps.
    fn step_round(&mut self, rng: &mut SimRng) {
        let n = self.config.n();
        let steps = (n - 1).div_ceil(self.batch);
        for _ in 0..steps {
            self.step_batch(rng);
        }
    }

    /// Nominally `ℓ·n` samples per round, as on the parallel simulators: a
    /// round activates about `n − 1` agents, each drawing `ℓ` samples.
    fn opinion_samples_per_round(&self) -> u64 {
        self.table.sample_size() as u64 * self.config.n()
    }

    /// Aggregate perturbation on the partial-synchrony state (the state is
    /// the same `(z, x)` pair; only the round dynamics differ).
    fn perturb(&mut self, env: &crate::env::EnvSchedule, t: u64, rng: &mut SimRng) -> u64 {
        let n = self.config.n();
        let mut z = u64::from(self.config.correct().as_bit());
        let mut x = self.config.ones();
        let events = env.apply_aggregate(t, n, &mut z, &mut x, rng);
        if events > 0 {
            let correct = bitdissem_core::Opinion::from_bool(z == 1);
            self.config =
                Configuration::new(n, correct, x).expect("perturbations stay in the legal band");
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::rng::{replication_seed, rng_from};
    use crate::run::{run_to_consensus, Outcome};
    use bitdissem_core::dynamics::{Minority, Voter};
    use bitdissem_core::Opinion;
    use bitdissem_markov::AggregateChain;

    #[test]
    fn full_batch_matches_parallel_one_round_mean() {
        // m = n − 1 is exactly the parallel setting: one-round means must
        // match the exact chain.
        let n = 200u64;
        let x0 = 120u64;
        let minority = Minority::new(3).unwrap();
        let chain = AggregateChain::build(&minority, n, Opinion::One).unwrap();
        let exact = chain.expected_next(x0);
        let reps = 20_000u64;
        let start = Configuration::new(n, Opinion::One, x0).unwrap();
        let mut total = 0.0;
        for rep in 0..reps {
            let mut rng = rng_from(replication_seed(1, rep));
            let mut sim = PartialSim::new(&minority, start, n - 1).unwrap();
            sim.step_batch(&mut rng);
            total += sim.configuration().ones() as f64;
        }
        let mean = total / reps as f64;
        assert!((mean - exact).abs() < 0.3, "{mean} vs {exact}");
    }

    #[test]
    fn unit_batch_is_birth_death() {
        let n = 60u64;
        let start = Configuration::new(n, Opinion::One, 30).unwrap();
        let mut sim = PartialSim::new(&Minority::new(3).unwrap(), start, 1).unwrap();
        let mut rng = rng_from(2);
        let mut prev = sim.configuration().ones();
        for _ in 0..2_000 {
            sim.step_batch(&mut rng);
            let cur = sim.configuration().ones();
            assert!(cur.abs_diff(prev) <= 1);
            prev = cur;
        }
    }

    #[test]
    fn round_normalization_counts_steps() {
        let n = 33u64;
        let start = Configuration::new(n, Opinion::One, 10).unwrap();
        let mut sim = PartialSim::new(&Voter::new(1).unwrap(), start, 8).unwrap();
        let mut rng = rng_from(3);
        sim.step_round(&mut rng);
        assert_eq!(sim.steps(), 4); // ceil(32 / 8)
        assert_eq!(sim.batch(), 8);
    }

    #[test]
    fn samples_per_round_are_ell_n_at_every_batch_size() {
        let n = 40u64;
        let start = Configuration::new(n, Opinion::One, 20).unwrap();
        for m in [1, n - 1] {
            let sim = PartialSim::new(&Minority::new(5).unwrap(), start, m).unwrap();
            assert_eq!(sim.opinion_samples_per_round(), 5 * n, "m = {m}");
        }
    }

    #[test]
    fn source_constraint_and_absorption() {
        let n = 50u64;
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut sim = PartialSim::new(&Voter::new(1).unwrap(), start, 7).unwrap();
        let mut rng = rng_from(4);
        for _ in 0..200 {
            sim.step_batch(&mut rng);
            assert!(sim.configuration().ones() >= 1);
        }
        let consensus = Configuration::correct_consensus(n, Opinion::Zero);
        let mut sim = PartialSim::new(&Minority::new(3).unwrap(), consensus, 10).unwrap();
        for _ in 0..50 {
            sim.step_batch(&mut rng);
            assert!(sim.configuration().is_correct_consensus());
        }
    }

    #[test]
    fn voter_converges_at_intermediate_batch() {
        let n = 32u64;
        let start = Configuration::all_wrong(n, Opinion::One);
        let mut sim = PartialSim::new(&Voter::new(1).unwrap(), start, 5).unwrap();
        let mut rng = rng_from(5);
        assert!(matches!(run_to_consensus(&mut sim, &mut rng, 200_000), Outcome::Converged { .. }));
    }

    #[test]
    fn full_batch_convergence_matches_aggregate_engine_scale() {
        // Full-batch PartialSim and AggregateSim are the same process; their
        // median convergence times agree within noise.
        let n = 64u64;
        let start = Configuration::all_wrong(n, Opinion::One);
        let reps = 60u64;
        let med = |partial: bool| -> f64 {
            let mut ts: Vec<f64> = (0..reps)
                .map(|rep| {
                    let mut rng = rng_from(replication_seed(6, rep));
                    let t = if partial {
                        let mut sim =
                            PartialSim::new(&Voter::new(1).unwrap(), start, n - 1).unwrap();
                        run_to_consensus(&mut sim, &mut rng, 1_000_000)
                    } else {
                        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
                        run_to_consensus(&mut sim, &mut rng, 1_000_000)
                    };
                    t.rounds_censored() as f64
                })
                .collect();
            ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ts[ts.len() / 2]
        };
        let a = med(true);
        let b = med(false);
        assert!(a < 3.0 * b + 50.0 && b < 3.0 * a + 50.0, "{a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "batch must be in")]
    fn rejects_oversized_batch() {
        let start = Configuration::all_wrong(10, Opinion::One);
        let _ = PartialSim::new(&Voter::new(1).unwrap(), start, 10);
    }
}
