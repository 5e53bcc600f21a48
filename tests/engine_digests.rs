//! Golden digests of all three replication engines on the period-2
//! Minority(5) chain.
//!
//! With `ℓ = 5` the drift slope at ½ is −5/4, so from the Theorem-12
//! witness start the aggregate state alternates every round between two
//! `O(√n)` bands near `0.34n` and `0.66n`. That is the chain that stresses
//! the engines' per-state caches hardest: every round switches band, so a
//! cache that lets the bands evict each other rebuilds a plan on a large
//! share of rounds. A cached plan or step is a pure function of
//! `(kernel, n, x, z)`, so no cache layout may change a single draw; the
//! digests below were computed before the caches were redesigned and pin
//! the outcomes and the final states bit for bit.
//!
//! Outcomes alone would be a weak pin here: within the 20 000-round budget
//! no replica crosses the witness threshold or converges, so the digests
//! also cover every replica's ones-count at the end of the run, which any
//! changed draw would move.

use std::sync::Arc;

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::dynamics::Minority;
use bitdissem_core::{Kernel, ProtocolExt};
use bitdissem_experiments::workload::measure_crossing_observed;
use bitdissem_obs::Obs;
use bitdissem_sim::rng::{replication_seed, rng_from};
use bitdissem_sim::run::Simulator;
use bitdissem_sim::{
    replicate_batched_observed, replicate_wide_observed, AggregateSim, BatchedAggregateSim,
    Outcome, WideBatchedSim,
};

const N: u64 = 8192;
const REPS: usize = 16;
const BUDGET: u64 = 20_000;
const SEED: u64 = 2024;

/// Digest of the 16 outcomes. Every replica times out within the budget on
/// all three engines, so the three share it.
const OUTCOMES: u64 = 6_578_279_417_942_601_509;
/// Digest of the final ones-counts on the per-replica engine, and on the
/// batched engine, which is bit-identical to it replica by replica.
const REFERENCE_STATES: u64 = 8_748_985_203_947_515_185;
/// Digest of the final ones-counts on the wide engine (counter streams, so
/// a different trajectory per replica than the reference pair).
const WIDE_STATES: u64 = 745_970_985_805_657_239;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn outcome_digest(outcomes: &[Outcome]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outcomes {
        fnv(&mut h, u64::from(o.is_converged()));
        fnv(&mut h, o.rounds_censored());
    }
    h
}

fn state_digest(states: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for x in states {
        fnv(&mut h, x);
    }
    h
}

fn setup() -> (Minority, LowerBoundWitness, Arc<Kernel>, Vec<usize>) {
    let minority = Minority::new(5).expect("valid");
    let witness = LowerBoundWitness::construct(&minority, N).expect("valid protocol");
    let kernel = Arc::new(minority.to_table(N).expect("valid").compile().expect("compiles"));
    (minority, witness, kernel, (0..REPS).collect())
}

#[test]
fn crossing_outcomes_and_states_are_pinned() {
    let (minority, witness, kernel, _) = setup();
    let outcomes =
        measure_crossing_observed(&Obs::none(), &minority, &witness, REPS, BUDGET, SEED, Some(2));
    // The per-replica engine under `measure_crossing_observed`, run for the
    // whole budget: replica `rep` draws from `replication_seed(SEED, rep)`.
    let finals = (0..REPS).map(|rep| {
        let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), witness.start());
        let mut rng = rng_from(replication_seed(SEED, rep as u64));
        for _ in 0..BUDGET {
            sim.step_round(&mut rng);
        }
        sim.configuration().ones()
    });
    let got = (outcome_digest(&outcomes), state_digest(finals));
    assert_eq!(got, (OUTCOMES, REFERENCE_STATES), "crossing digests");
}

#[test]
fn batched_outcomes_and_states_are_pinned() {
    let (_, witness, kernel, indices) = setup();
    let start = witness.start();
    let outcomes =
        replicate_batched_observed(&kernel, start, &indices, SEED, Some(2), BUDGET, &Obs::none());
    let seeds: Vec<u64> = indices.iter().map(|&rep| replication_seed(SEED, rep as u64)).collect();
    let mut batch = BatchedAggregateSim::new(Arc::clone(&kernel), start, &seeds);
    assert_eq!(batch.run_to_consensus(BUDGET), outcomes, "driver and batch agree");
    let got = (outcome_digest(&outcomes), state_digest((0..REPS).map(|rep| batch.ones_of(rep))));
    assert_eq!(got, (OUTCOMES, REFERENCE_STATES), "batched digests");
}

#[test]
fn wide_outcomes_and_states_are_pinned() {
    let (_, witness, kernel, indices) = setup();
    let start = witness.start();
    let outcomes =
        replicate_wide_observed(&kernel, start, &indices, SEED, Some(2), BUDGET, &Obs::none());
    let streams: Vec<u64> = indices.iter().map(|&rep| replication_seed(SEED, rep as u64)).collect();
    let mut batch = WideBatchedSim::new(Arc::clone(&kernel), start, &streams);
    assert_eq!(batch.run_to_consensus(BUDGET), outcomes, "driver and batch agree");
    let got = (outcome_digest(&outcomes), state_digest((0..REPS).map(|rep| batch.ones_of(rep))));
    assert_eq!(got, (OUTCOMES, WIDE_STATES), "wide digests");
}
