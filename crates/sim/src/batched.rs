//! The seeded draw: lock-step replication bit-identical to the per-replica
//! engine.
//!
//! [`SeededDraw`] gives each replica of a [`LockstepSim`] its own seeded
//! [`SimRng`], derived from its replication index alone and consumed only
//! by that replica's own draws, and caches one `RoundPlan` (BINV/BTRS
//! sampler setups) per state `(x, z)`. A round out of `x` draws exactly
//! what the solo [`AggregateSim`](crate::aggregate::AggregateSim) draws
//! from the same rng, and an environment perturbation draws from the same
//! rng too, so every replica's trajectory is bit-identical to running it
//! solo with the same seed — regardless of batch composition, retirement
//! order, or chunking. The `batched_matches_solo_bit_for_bit` test pins
//! this.

use bitdissem_core::Kernel;

use crate::binomial::with_lnfact;
use crate::env::EnvSchedule;
use crate::lockstep::{Draw, LockstepSim};
use crate::rng::{rng_from, SimRng};
use crate::roundplan::{RoundPlan, StateCache};

/// The per-replica seeded-rng draw; see the module docs.
#[derive(Debug)]
pub struct SeededDraw {
    plans: StateCache<RoundPlan>,
}

impl Draw for SeededDraw {
    type Stream = SimRng;
    // About four chunks per worker of 8 to 64 replicas: wide enough to
    // share the plan cache, narrow enough that work-stealing can balance
    // heavy-tailed convergence times.
    const CHUNKS_PER_WORKER: usize = 4;
    const MIN_CHUNK: usize = 8;
    const MAX_CHUNK: usize = 64;

    fn new(n: u64) -> Self {
        Self { plans: StateCache::new(n) }
    }

    fn stream(seed: u64) -> SimRng {
        rng_from(seed)
    }

    fn step(
        &mut self,
        kernel: &Kernel,
        z: u64,
        _round: u64,
        ones: &mut [u64],
        rngs: &mut [SimRng],
    ) {
        // One table access for the whole chunk-round. Perturbations draw
        // through `sample_binomial`, which enters the table itself, so they
        // stay outside it, between rounds.
        let plans = &mut self.plans;
        with_lnfact(plans.n(), |lnfact| {
            for (x, rng) in ones.iter_mut().zip(rngs) {
                *x = plans.step(kernel, z, *x, rng, lnfact);
            }
        });
    }

    /// The replica's own rng: exactly the draws the solo
    /// [`run_to_consensus_observed`](crate::run::run_to_consensus_observed)
    /// loop makes under a schedule.
    fn perturb(
        env: &EnvSchedule,
        t: u64,
        n: u64,
        z: &mut u64,
        x: &mut u64,
        rng: &mut SimRng,
    ) -> u64 {
        env.apply_aggregate(t, n, z, x, rng)
    }
}

/// `B` replicas of the aggregate chain stepped in lock-step on seeded
/// per-replica rngs: the default replication engine.
pub type BatchedAggregateSim = LockstepSim<SeededDraw>;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::aggregate::AggregateSim;
    use crate::lockstep::replicate_lockstep;
    use crate::rng::replication_seed;
    use crate::run::{run_to_consensus, run_to_consensus_observed, Outcome, Simulator};
    use crate::runner::replicate_indices_observed;
    use bitdissem_core::dynamics::{Minority, Voter};
    use bitdissem_core::{Configuration, Opinion, ProtocolExt};
    use bitdissem_obs::Obs;

    fn kernel_of(protocol: &dyn bitdissem_core::Protocol, n: u64) -> Arc<Kernel> {
        Arc::new(protocol.to_table(n).unwrap().compile().unwrap())
    }

    fn seeds_for(base: u64, reps: usize) -> Vec<u64> {
        (0..reps).map(|rep| replication_seed(base, rep as u64)).collect()
    }

    crate::lockstep::tests::contract_tests!(SeededDraw);

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
            let batched = replicate_lockstep::<SeededDraw>(
                &kernel,
                start,
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
        let spliced = replicate_lockstep::<SeededDraw>(
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
                run_to_consensus_observed(&mut sim, &mut rng, budget, Some(&env), &Obs::none(), 0)
            })
            .collect();
        assert!(solo.iter().any(Outcome::is_converged), "some replicas re-converge post-flip");

        let mut batch =
            BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds_for(base, reps));
        let labels: Vec<u64> = (0..reps as u64).collect();
        assert_eq!(batch.run(budget, Some(&env), &Obs::none(), &labels), solo);

        // The pooled driver agrees too, for several thread counts.
        let indices: Vec<usize> = (0..reps).collect();
        for &threads in &[1usize, 3] {
            let driven = replicate_lockstep::<SeededDraw>(
                &kernel,
                start,
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
            .run(budget, None, &batched_obs, &labels);
        let distinct: std::collections::HashSet<u64> =
            outcomes.iter().filter_map(Outcome::rounds).collect();
        assert!(distinct.len() > 1, "retirement must be staggered for this test to bite");

        let reference_obs = Obs::none().with_metrics();
        let indices: Vec<usize> = (0..reps).collect();
        let reference =
            replicate_indices_observed(&indices, base, Some(2), &reference_obs, |mut rng, rep| {
                let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
                run_to_consensus_observed(
                    &mut sim,
                    &mut rng,
                    budget,
                    None,
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
}
