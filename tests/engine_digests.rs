//! Golden digests of all three replication engines, on two chains from
//! the Theorem-12 witness start at `n = 8192`.
//!
//! * **Minority(5)**, own-independent (`g⁰ = g¹`, so `P₀ = P₁`). With
//!   `ℓ = 5` the drift slope at ½ is −5/4, so the aggregate state
//!   alternates every round between two `O(√n)` bands near `0.34n` and
//!   `0.66n`. That is the chain that stresses the engines' per-state caches
//!   hardest: every round switches band, so a cache that lets the bands
//!   evict each other rebuilds a plan on a large share of rounds. Its
//!   rounds take one binomial draw (`z + Bin(n − 1, P)`).
//! * **TwoChoices**, own-dependent (`P₀ ≠ P₁` off the consensus states),
//!   whose rounds take two draws, keep then flip.
//!
//! A cached plan or step is a pure function of `(kernel, n, x, z)`, so no
//! cache layout may change a single draw. The Minority(5) digests were
//! computed when own-independent states first drew once; the TwoChoices
//! digests predate that change and must hold unchanged, because it leaves
//! every `P₀ ≠ P₁` draw as it was.
//!
//! Outcomes alone would be a weak pin here: within the 20 000-round budget
//! no replica of either chain crosses the witness threshold or converges,
//! so the digests also cover every replica's whole path, which any changed
//! draw would move.

use std::sync::Arc;

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::dynamics::{Minority, TwoChoices};
use bitdissem_core::{Kernel, Protocol, ProtocolExt};
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

/// `(outcome digest, path digest)` of one engine's run. The path digest
/// covers every replica's ones-count after every round of the budget,
/// replica by replica, so it moves with any changed draw even on a chain
/// that spends most of the budget near consensus.
type Pin = (u64, u64);

/// Minority(5): every replica times out within the budget on all three
/// engines, so the three share the outcome digest; the per-replica and
/// batched engines are bit-identical replica by replica, so they share the
/// path digest too.
const MINORITY5_REFERENCE: Pin = (6_578_279_417_942_601_509, 7_222_077_074_101_701_315);
/// Minority(5) on the wide engine (counter streams, so a different
/// trajectory per replica than the reference pair).
const MINORITY5_WIDE: Pin = (6_578_279_417_942_601_509, 10_356_885_508_675_137_051);

/// TwoChoices, per-replica and batched engines. From its witness start
/// the chain drifts to the wrong consensus and stays near it, so no
/// replica crosses the threshold or converges either, and the outcome
/// digest equals Minority(5)'s; the paths carry the pin.
const TWO_CHOICES_REFERENCE: Pin = (6_578_279_417_942_601_509, 11_699_059_901_570_005_233);
/// TwoChoices on the wide engine.
const TWO_CHOICES_WIDE: Pin = (6_578_279_417_942_601_509, 16_137_742_750_140_750_964);

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

/// Digest of `paths[rep][t]`, the ones-count of replica `rep` after round
/// `t + 1`.
fn path_digest(paths: &[Vec<u64>]) -> u64 {
    let mut h = FNV_OFFSET;
    for &x in paths.iter().flatten() {
        fnv(&mut h, x);
    }
    h
}

/// Calls `round` once per round of the budget — it steps a lock-step
/// batch and returns every replica's ones-count — and returns the paths.
/// Retired replicas stay at their consensus state, where the per-replica
/// chain is absorbed too, so the paths are comparable across engines.
fn batch_paths(mut round: impl FnMut() -> Vec<u64>) -> Vec<Vec<u64>> {
    let mut paths = vec![Vec::new(); REPS];
    for _ in 0..BUDGET {
        for (path, x) in paths.iter_mut().zip(round()) {
            path.push(x);
        }
    }
    paths
}

fn setup<P: Protocol>(protocol: &P) -> (LowerBoundWitness, Arc<Kernel>, Vec<usize>, Vec<u64>) {
    let witness = LowerBoundWitness::construct(protocol, N).expect("valid protocol");
    let kernel = Arc::new(protocol.to_table(N).expect("valid").compile().expect("compiles"));
    let indices: Vec<usize> = (0..REPS).collect();
    let seeds = indices.iter().map(|&rep| replication_seed(SEED, rep as u64)).collect();
    (witness, kernel, indices, seeds)
}

/// Crossing times through `measure_crossing_observed`, and the paths of
/// the same per-replica chains run for the whole budget: replica `rep`
/// draws from `replication_seed(SEED, rep)`.
fn crossing_pin<P: Protocol + Sync>(protocol: &P) -> Pin {
    let (witness, kernel, _, seeds) = setup(protocol);
    let outcomes =
        measure_crossing_observed(&Obs::none(), protocol, &witness, REPS, BUDGET, SEED, Some(2));
    let paths: Vec<Vec<u64>> = seeds
        .iter()
        .map(|&seed| {
            let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), witness.start());
            let mut rng = rng_from(seed);
            (0..BUDGET)
                .map(|_| {
                    sim.step_round(&mut rng);
                    sim.configuration().ones()
                })
                .collect()
        })
        .collect();
    (outcome_digest(&outcomes), path_digest(&paths))
}

fn batched_pin<P: Protocol>(protocol: &P) -> Pin {
    let (witness, kernel, indices, seeds) = setup(protocol);
    let start = witness.start();
    let outcomes =
        replicate_batched_observed(&kernel, start, &indices, SEED, Some(2), BUDGET, &Obs::none());
    let mut batch = BatchedAggregateSim::new(kernel, start, &seeds);
    let paths = batch_paths(|| {
        batch.step_round();
        (0..REPS).map(|rep| batch.ones_of(rep)).collect()
    });
    assert_eq!(batch.outcomes(BUDGET), outcomes, "driver and batch agree");
    (outcome_digest(&outcomes), path_digest(&paths))
}

fn wide_pin<P: Protocol>(protocol: &P) -> Pin {
    let (witness, kernel, indices, streams) = setup(protocol);
    let start = witness.start();
    let outcomes =
        replicate_wide_observed(&kernel, start, &indices, SEED, Some(2), BUDGET, &Obs::none());
    let mut batch = WideBatchedSim::new(kernel, start, &streams);
    let paths = batch_paths(|| {
        batch.step_round();
        (0..REPS).map(|rep| batch.ones_of(rep)).collect()
    });
    assert_eq!(batch.outcomes(BUDGET), outcomes, "driver and batch agree");
    (outcome_digest(&outcomes), path_digest(&paths))
}

fn minority5() -> Minority {
    Minority::new(5).expect("valid")
}

#[test]
fn crossing_outcomes_and_states_are_pinned() {
    assert_eq!(crossing_pin(&minority5()), MINORITY5_REFERENCE, "crossing digests");
}

#[test]
fn batched_outcomes_and_states_are_pinned() {
    assert_eq!(batched_pin(&minority5()), MINORITY5_REFERENCE, "batched digests");
}

#[test]
fn wide_outcomes_and_states_are_pinned() {
    assert_eq!(wide_pin(&minority5()), MINORITY5_WIDE, "wide digests");
}

#[test]
fn two_choices_crossing_outcomes_and_states_are_pinned() {
    assert_eq!(crossing_pin(&TwoChoices::new()), TWO_CHOICES_REFERENCE, "crossing digests");
}

#[test]
fn two_choices_batched_outcomes_and_states_are_pinned() {
    assert_eq!(batched_pin(&TwoChoices::new()), TWO_CHOICES_REFERENCE, "batched digests");
}

#[test]
fn two_choices_wide_outcomes_and_states_are_pinned() {
    assert_eq!(wide_pin(&TwoChoices::new()), TWO_CHOICES_WIDE, "wide digests");
}
