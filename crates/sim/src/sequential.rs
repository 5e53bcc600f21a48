//! The sequential-setting simulator.

use rand::Rng;

use bitdissem_core::{Configuration, GTable, Opinion, Protocol, ProtocolError, ProtocolExt};

use crate::binomial::{with_lnfact, Plan};
use crate::rng::SimRng;
use crate::roundplan::StateCache;
use crate::run::Simulator;

/// Simulates the **sequential** setting: per activation, one uniformly
/// random non-source agent redraws its opinion; one parallel round equals
/// `n` activations (the normalization used throughout the paper so that the
/// two settings are comparable).
///
/// The simulator tracks only the aggregate count, which is exact: the
/// activated agent holds opinion 1 with probability `(x−z)/(n−1)`, samples
/// `k ~ Bin(ℓ, x/n)` ones, and adopts 1 with probability `g^[own](k)`.
///
/// Reference \[14\] shows no protocol converges in fewer than `Ω(n)` parallel
/// rounds in this setting, regardless of `ℓ` — the exponential gap with the
/// parallel setting is experiment E11.
///
/// The sampler setup of `Bin(ℓ, x/n)` (one `ln` and one `exp` for BINV) is
/// a pure function of the state, and an activation moves `x` by at most
/// one, so consecutive activations revisit a few states. The simulator
/// caches a binomial plan per state `(x, z)` in a `roundplan::StateCache`;
/// a plan draws what `sample_binomial(ℓ, x/n)` draws, bit for bit.
#[derive(Debug, Clone)]
pub struct SequentialSim {
    table: GTable,
    config: Configuration,
    activations: u64,
    /// `Bin(ℓ, x/n)` plans by state `(x, z)`.
    plans: StateCache<Plan>,
}

impl SequentialSim {
    /// Creates a simulator for `protocol` starting from `start`.
    ///
    /// # Errors
    ///
    /// Propagates table materialization errors from the protocol.
    pub fn new<P: Protocol + ?Sized>(
        protocol: &P,
        start: Configuration,
    ) -> Result<Self, ProtocolError> {
        let table = protocol.to_table(start.n())?;
        Ok(Self { table, config: start, activations: 0, plans: StateCache::new(start.n()) })
    }

    /// Total number of single-agent activations performed so far.
    #[must_use]
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Performs a single activation: one random non-source agent updates.
    pub fn step_activation(&mut self, rng: &mut SimRng) {
        let ell = self.table.sample_size() as u64;
        with_lnfact(ell, |lnfact| self.activate(rng, lnfact));
    }

    /// One activation, drawing from the `ln(i!)` table `lnfact`, which the
    /// caller enters once for all the activations it runs.
    fn activate(&mut self, rng: &mut SimRng, lnfact: &[f64]) {
        let n = self.config.n();
        let x = self.config.ones();
        let z = u64::from(self.config.correct().as_bit());
        self.activations += 1;

        // Which opinion does the activated (non-source) agent hold?
        let ones_nonsource = x - z;
        let own_is_one = rng.random_range(0..n - 1) < ones_nonsource;
        let own = Opinion::from_bool(own_is_one);

        // Sample ℓ opinions with replacement: k ~ Bin(ℓ, x/n).
        let ell = self.table.sample_size() as u64;
        let plan = self.plans.get_or_insert_with(x, z, || Plan::build(ell, x as f64 / n as f64));
        let k = plan.sample_with(rng, ell, lnfact) as usize;
        let g = self.table.g(own, k);
        let adopt_one = if g == 1.0 {
            true
        } else if g == 0.0 {
            false
        } else {
            rng.random::<f64>() < g
        };

        let next = match (own_is_one, adopt_one) {
            (false, true) => x + 1,
            (true, false) => x - 1,
            _ => x,
        };
        self.config = self.config.with_ones(next).expect("moves stay in range");
    }
}

impl Simulator for SequentialSim {
    fn configuration(&self) -> Configuration {
        self.config
    }

    /// One parallel round = `n` activations.
    fn step_round(&mut self, rng: &mut SimRng) {
        let ell = self.table.sample_size() as u64;
        with_lnfact(ell, |lnfact| {
            for _ in 0..self.config.n() {
                self.activate(rng, lnfact);
            }
        });
    }

    /// Each of the `n` activations per round draws `ℓ` opinion samples.
    fn opinion_samples_per_round(&self) -> u64 {
        self.table.sample_size() as u64 * self.config.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use crate::run::{run_to_consensus, Outcome};
    use bitdissem_core::dynamics::{Minority, Voter};
    use bitdissem_markov::SequentialChain;

    #[test]
    fn single_activation_moves_by_at_most_one() {
        let start = Configuration::new(50, Opinion::One, 20).unwrap();
        let mut sim = SequentialSim::new(&Minority::new(3).unwrap(), start).unwrap();
        let mut rng = rng_from(1);
        let mut prev = sim.configuration().ones();
        for _ in 0..2000 {
            sim.step_activation(&mut rng);
            let cur = sim.configuration().ones();
            assert!(cur.abs_diff(prev) <= 1, "birth-death property violated");
            prev = cur;
        }
        assert_eq!(sim.activations(), 2000);
    }

    #[test]
    fn round_is_n_activations() {
        let start = Configuration::new(30, Opinion::Zero, 10).unwrap();
        let mut sim = SequentialSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut rng = rng_from(2);
        sim.step_round(&mut rng);
        assert_eq!(sim.activations(), 30);
    }

    #[test]
    fn source_constraint_preserved() {
        let start = Configuration::all_wrong(40, Opinion::One);
        let mut sim = SequentialSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut rng = rng_from(3);
        for _ in 0..5000 {
            sim.step_activation(&mut rng);
            assert!(sim.configuration().ones() >= 1);
        }
    }

    #[test]
    fn sequential_voter_converges() {
        let start = Configuration::all_wrong(16, Opinion::One);
        let mut sim = SequentialSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let mut rng = rng_from(4);
        assert!(matches!(run_to_consensus(&mut sim, &mut rng, 500_000), Outcome::Converged { .. }));
    }

    #[test]
    fn mean_convergence_time_matches_exact_birth_death_chain() {
        // Cross-validate the simulator against the exact tridiagonal solve
        // from the markov crate (this is a miniature of experiment E10).
        let n = 12u64;
        let x0 = 6u64;
        let chain = SequentialChain::build(&Voter::new(1).unwrap(), n, Opinion::One).unwrap();
        let exact_rounds = chain.expected_rounds_from(x0).unwrap();

        let reps = 3000;
        let mut total = 0.0;
        for rep in 0..reps {
            let start = Configuration::new(n, Opinion::One, x0).unwrap();
            let mut sim = SequentialSim::new(&Voter::new(1).unwrap(), start).unwrap();
            let mut rng = rng_from(1000 + rep);
            match run_to_consensus(&mut sim, &mut rng, 1_000_000) {
                Outcome::Converged { rounds } => total += rounds as f64,
                Outcome::TimedOut { .. } => panic!("voter must converge"),
            }
        }
        let mean = total / reps as f64;
        // Round-granular measurement adds ±1 round of discretization noise.
        let tol = 0.15 * exact_rounds + 1.5;
        assert!((mean - exact_rounds).abs() < tol, "simulated {mean} vs exact {exact_rounds}");
    }
}
