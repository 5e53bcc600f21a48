//! Golden digests of both replication engines — the per-replica chain and
//! the lock-step batch — on two chains from the Theorem-12 witness start
//! at `n = 8192`.
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
//! A cached plan is a pure function of `(kernel, n, x, z)`, so no
//! cache layout may change a single draw. The Minority(5) digests were
//! computed when own-independent states first drew once; the TwoChoices
//! digests predate that change and must hold unchanged, because it leaves
//! every `P₀ ≠ P₁` draw as it was.
//!
//! Outcomes alone would be a weak pin here: within the 20 000-round budget
//! no replica of either chain crosses the witness threshold or converges,
//! so the digests also cover every replica's whole path, which any changed
//! draw would move.
//!
//! Crossing pins at smaller `n` see replicas cross: Voter(1) at `n = 512`,
//! where every replica crosses, and Minority(5) at `n = 64`, where a few
//! do, plus the stop rule's edges (a start that has already crossed, a
//! budget of 0, a budget that ends on the crossing round).
//!
//! Two more pins cover what the lock-step round loop does around a draw:
//!
//! * **Environment schedules.** Voter(1) at `n = 256` under a schedule with
//!   all three clause kinds (source flip, noise, periodic reset). The
//!   per-replica and batched engines draw the perturbations from each
//!   replica's own stream and must agree.
//! * **Observed event stream.** One observed lock-step run, with a round
//!   stride and a source flip: the digest covers every event field but the
//!   wall-clock `elapsed_us`, in emission order, plus the run's counters.
//!   Recorded traces come out of this loop.

use std::sync::Arc;

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::dynamics::{Minority, TwoChoices, Voter};
use bitdissem_core::{Configuration, Kernel, Opinion, Protocol, ProtocolExt};
use bitdissem_experiments::workload::measure_crossing_observed;
use bitdissem_obs::{CounterSnapshot, Event, MemorySink, Obs, ReplicationOutcome};
use bitdissem_sim::partial::PartialSim;
use bitdissem_sim::rng::{replication_seed, rng_from};
use bitdissem_sim::run::{drive, RunSpec, Simulator, Stop};
use bitdissem_sim::sequential::SequentialSim;
use bitdissem_sim::{
    replicate_indices_observed, replicate_lockstep, AggregateSim, EnvSchedule, LockstepSim, Outcome,
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

/// Minority(5): every replica times out within the budget, and the
/// per-replica and batched engines are bit-identical replica by replica,
/// so they share both digests.
const MINORITY5_REFERENCE: Pin = (6_578_279_417_942_601_509, 7_222_077_074_101_701_315);

/// TwoChoices, per-replica and batched engines. From its witness start
/// the chain drifts to the wrong consensus and stays near it, so no
/// replica crosses the threshold or converges either, and the outcome
/// digest equals Minority(5)'s; the paths carry the pin.
const TWO_CHOICES_REFERENCE: Pin = (6_578_279_417_942_601_509, 11_699_059_901_570_005_233);

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

/// Outcomes through the pooled lock-step driver, and the paths of one
/// batch of the same replicas stepped for the whole budget.
fn lockstep_pin<P: Protocol>(protocol: &P) -> Pin {
    let (witness, kernel, indices, seeds) = setup(protocol);
    let start = witness.start();
    let consensus = Configuration::correct_consensus(N, start.correct()).ones();
    let outcomes = replicate_lockstep(
        &kernel,
        start,
        consensus,
        &indices,
        SEED,
        Some(2),
        BUDGET,
        None,
        &Obs::none(),
    );
    let mut batch = LockstepSim::new(kernel, start, &seeds);
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
    assert_eq!(lockstep_pin(&minority5()), MINORITY5_REFERENCE, "batched digests");
}

#[test]
fn two_choices_crossing_outcomes_and_states_are_pinned() {
    assert_eq!(crossing_pin(&TwoChoices::new()), TWO_CHOICES_REFERENCE, "crossing digests");
}

#[test]
fn two_choices_batched_outcomes_and_states_are_pinned() {
    let pin = lockstep_pin(&TwoChoices::new());
    assert_eq!(pin, TWO_CHOICES_REFERENCE, "batched digests");
}

/// Replicas per crossing pin, enough for Minority(5) at `n = 64` to see
/// several crossings.
const CROSS_REPS: usize = 128;

/// Voter(1) at `n = 512` under e1's 50n budget: every replica crosses.
const VOTER512_CROSSING: u64 = 14_005_755_263_173_842_326;
/// Minority(5) at `n = 64` under e1's 50n budget: 10 of 128 replicas
/// cross.
const MINORITY5_64_CROSSING: u64 = 10_467_684_730_693_462_921;
/// Replicas of [`MINORITY5_64_CROSSING`] that cross.
const MINORITY5_64_CROSSED: usize = 10;

/// Crossing outcomes of `protocol` at size `n` from `witness` (its
/// Theorem-12 witness when `None`).
fn crossings<P: Protocol + Sync>(
    protocol: &P,
    n: u64,
    witness: Option<LowerBoundWitness>,
    reps: usize,
    budget: u64,
) -> Vec<Outcome> {
    let witness = witness
        .unwrap_or_else(|| LowerBoundWitness::construct(protocol, n).expect("valid protocol"));
    measure_crossing_observed(&Obs::none(), protocol, &witness, reps, budget, SEED, Some(2))
}

fn crossed(outcomes: &[Outcome]) -> usize {
    outcomes.iter().filter(|o| o.is_converged()).count()
}

/// Chains that do cross: the 20 000-round pins above never see a replica
/// cross, so they cannot tell where a stop rule fires.
#[test]
fn crossings_that_cross_are_pinned() {
    let voter = Voter::new(1).expect("valid");
    let outcomes = crossings(&voter, 512, None, CROSS_REPS, 50 * 512);
    assert_eq!(crossed(&outcomes), CROSS_REPS, "every Voter replica crosses");
    assert_eq!(outcome_digest(&outcomes), VOTER512_CROSSING, "Voter(1), n = 512");

    let outcomes = crossings(&minority5(), 64, None, CROSS_REPS, 50 * 64);
    assert_eq!(crossed(&outcomes), MINORITY5_64_CROSSED, "Minority(5) crossers");
    assert_eq!(outcome_digest(&outcomes), MINORITY5_64_CROSSING, "Minority(5), n = 64");
}

/// The stop rule's edges: the state is tested before every round, the
/// budget's last round included, and never after it.
#[test]
fn crossing_edges_are_pinned() {
    let voter = Voter::new(1).expect("valid");
    let witness = LowerBoundWitness::construct(&voter, 512).expect("valid protocol");
    let past = Configuration::new(512, Opinion::One, witness.threshold()).expect("valid start");
    let outcomes = crossings(&voter, 512, Some(witness.clone().with_start(past)), 4, 100);
    assert_eq!(outcomes, vec![Outcome::Converged { rounds: 0 }; 4], "a crossed start");
    let outcomes = crossings(&voter, 512, None, 4, 0);
    assert_eq!(outcomes, vec![Outcome::TimedOut { rounds: 0 }; 4], "budget 0");

    // Replica 0 draws from the same stream whatever the replica count, so
    // a budget of exactly its crossing round still sees the crossing.
    let Outcome::Converged { rounds } = crossings(&voter, 512, None, 1, 50 * 512)[0] else {
        panic!("replica 0 crosses");
    };
    assert!(rounds > 1, "replica 0 crosses after a few rounds, not at the start");
    let at = crossings(&voter, 512, None, 1, rounds);
    assert_eq!(at, vec![Outcome::Converged { rounds }], "crossing on the budget's last round");
    let before = crossings(&voter, 512, None, 1, rounds - 1);
    assert_eq!(before, vec![Outcome::TimedOut { rounds: rounds - 1 }], "one round short");
}

const ENV_N: u64 = 256;
const ENV_X0: u64 = 77;
const ENV_BUDGET: u64 = 2000;
const ENV_SCHEDULE: &str = "flip@40,noise:0.01,reset:k=4@every:60";

/// Voter(1) under [`ENV_SCHEDULE`], per-replica and batched engines: both
/// draw every perturbation from the replica's own stream, so they agree on
/// outcomes and paths.
const ENV_REFERENCE: Pin = (9_151_437_523_866_711_054, 4_197_544_416_341_348_954);

fn env_setup() -> (Arc<Kernel>, Configuration, EnvSchedule, Vec<usize>, Vec<u64>) {
    let kernel = Arc::new(
        Voter::new(1).expect("valid").to_table(ENV_N).expect("valid").compile().expect("compiles"),
    );
    let start = Configuration::new(ENV_N, Opinion::One, ENV_X0).expect("valid start");
    let env: EnvSchedule = ENV_SCHEDULE.parse().expect("valid schedule");
    let indices: Vec<usize> = (0..REPS).collect();
    let seeds = indices.iter().map(|&rep| replication_seed(SEED, rep as u64)).collect();
    (kernel, start, env, indices, seeds)
}

/// `budget` rounds of `round`, which perturbs and steps a no-retire
/// lock-step batch and returns every replica's ones-count.
fn env_paths(mut round: impl FnMut() -> Vec<u64>) -> Vec<Vec<u64>> {
    let mut paths = vec![Vec::new(); REPS];
    for _ in 0..ENV_BUDGET {
        for (path, x) in paths.iter_mut().zip(round()) {
            path.push(x);
        }
    }
    paths
}

fn env_reference_pin() -> Pin {
    let (kernel, start, env, indices, seeds) = env_setup();
    let obs = Obs::none();
    let outcomes = replicate_indices_observed(&indices, SEED, Some(2), &obs, |mut rng, rep| {
        let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
        let spec = RunSpec {
            env: Some(&env),
            rep: rep as u64,
            ..RunSpec::new(ENV_BUDGET, Stop::Consensus, &obs)
        };
        drive(&mut sim, &mut rng, &spec, None).outcome()
    });
    let paths: Vec<Vec<u64>> = seeds
        .iter()
        .map(|&seed| {
            let mut sim = AggregateSim::with_kernel(Arc::clone(&kernel), start);
            let mut rng = rng_from(seed);
            (0..ENV_BUDGET)
                .map(|t| {
                    sim.perturb(&env, t, &mut rng);
                    sim.step_round(&mut rng);
                    sim.configuration().ones()
                })
                .collect()
        })
        .collect();
    (outcome_digest(&outcomes), path_digest(&paths))
}

/// Outcomes through the pooled lock-step driver under the schedule, and
/// the paths of one no-retire batch of the same replicas.
fn env_lockstep_pin() -> Pin {
    let (kernel, start, env, indices, seeds) = env_setup();
    let outcomes = replicate_lockstep(
        &kernel,
        start,
        ENV_N,
        &indices,
        SEED,
        Some(2),
        ENV_BUDGET,
        Some(&env),
        &Obs::none(),
    );
    let mut batch = LockstepSim::with_goal(kernel, start, ENV_N, &seeds, false);
    let paths = env_paths(|| {
        batch.perturb_round(&env);
        batch.step_round();
        (0..REPS).map(|rep| batch.ones_of(rep)).collect()
    });
    (outcome_digest(&outcomes), path_digest(&paths))
}

#[test]
fn env_outcomes_and_states_are_pinned() {
    assert_eq!(env_reference_pin(), ENV_REFERENCE, "per-replica env digests");
    assert_eq!(env_lockstep_pin(), ENV_REFERENCE, "batched env digests");
}

const OBS_N: u64 = 64;
const OBS_X0: u64 = 20;
const OBS_REPS: usize = 8;
const OBS_BUDGET: u64 = 100;

/// An observed run's event digest and its `(rounds_simulated,
/// opinion_samples, perturbations_applied, replicas_retired)` counters.
type ObservedPin = (u64, [u64; 4]);

/// The observed run on the batched engine: five replicas converge (one
/// flip each), three time out at the budget.
const OBSERVED_BATCHED: ObservedPin = (12_705_591_152_106_064_800, [573, 36_672, 8, 5]);

/// Digest of an event stream over every field but `elapsed_us`, in
/// emission order.
fn event_digest(events: &[Event]) -> u64 {
    let mut h = FNV_OFFSET;
    for event in events {
        match *event {
            Event::RoundCompleted { rep, round, ones, source_opinion } => {
                for x in [0, rep, round, ones, u64::from(source_opinion)] {
                    fnv(&mut h, x);
                }
            }
            Event::ReplicationFinished { rep, outcome, rounds, elapsed_us: _ } => {
                let converged = u64::from(outcome == ReplicationOutcome::Converged);
                for x in [1, rep, converged, rounds] {
                    fnv(&mut h, x);
                }
            }
            ref other => panic!("a lock-step run emitted {other:?}"),
        }
    }
    h
}

/// Voter(1) from `X_0 = 20` at `n = 64` with the source flipping at round
/// 25; trace labels are `100 + rep`.
fn observed_setup() -> (Arc<Kernel>, Configuration, EnvSchedule, Vec<u64>, Vec<u64>) {
    let kernel = Arc::new(
        Voter::new(1).expect("valid").to_table(OBS_N).expect("valid").compile().expect("compiles"),
    );
    let start = Configuration::new(OBS_N, Opinion::One, OBS_X0).expect("valid start");
    let env: EnvSchedule = "flip@25".parse().expect("valid schedule");
    let seeds = (0..OBS_REPS).map(|rep| replication_seed(SEED, rep as u64)).collect();
    let labels = (0..OBS_REPS as u64).map(|rep| 100 + rep).collect();
    (kernel, start, env, seeds, labels)
}

/// Runs `run` on a handle that records every event at round stride 3 and
/// counts metrics.
fn observed_pin(run: impl FnOnce(&Obs) -> Vec<Outcome>) -> ObservedPin {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::none().with_sink(Arc::clone(&sink) as _).with_metrics().with_round_stride(3);
    run(&obs);
    let c: CounterSnapshot = obs.metrics().snapshot();
    (
        event_digest(&sink.events()),
        [c.rounds_simulated, c.opinion_samples, c.perturbations_applied, c.replicas_retired],
    )
}

/// One observed run of a [`LockstepSim`] under the source flip.
fn observed_lockstep_pin() -> ObservedPin {
    let (kernel, start, env, seeds, labels) = observed_setup();
    observed_pin(|obs| {
        LockstepSim::new(kernel, start, &seeds).run(OBS_BUDGET, Some(&env), obs, &labels)
    })
}

#[test]
fn observed_event_streams_are_pinned() {
    assert_eq!(observed_lockstep_pin(), OBSERVED_BATCHED, "batched event stream");
}

/// Voter(1) at `n = 8192` from all-wrong, 32 replicas in one lock-step
/// batch under a budget of `⌈8 n ln n⌉` rounds. Voter diffuses over ~n
/// states, so most of its rounds miss the 1024-slot plan cache: this pin
/// holds what a miss builds, where the ones above run mostly on hits.
const MISS_N: u64 = 8192;
const MISS_REPS: usize = 32;

/// Digest of the batch's outcomes then every replica's final state, and
/// its `(rounds_simulated, plan_builds)` counters: 71% of its
/// replica-rounds build a plan.
const VOTER_MISS: (u64, [u64; 2]) = (17_417_590_339_925_359_173, [571_068, 408_137]);

#[test]
fn high_miss_lockstep_batch_is_pinned() {
    let kernel = Arc::new(
        Voter::new(1).expect("valid").to_table(MISS_N).expect("valid").compile().expect("compiles"),
    );
    let start = Configuration::all_wrong(MISS_N, Opinion::One);
    let budget = (8.0 * MISS_N as f64 * (MISS_N as f64).ln()).ceil() as u64;
    let seeds: Vec<u64> = (0..MISS_REPS).map(|rep| replication_seed(SEED, rep as u64)).collect();
    let labels: Vec<u64> = (0..MISS_REPS as u64).collect();
    let obs = Obs::none().with_metrics();
    let mut batch = LockstepSim::new(kernel, start, &seeds);
    let outcomes = batch.run(budget, None, &obs, &labels);
    let mut h = outcome_digest(&outcomes);
    for rep in 0..MISS_REPS {
        fnv(&mut h, batch.ones_of(rep));
    }
    let c = obs.metrics().snapshot();
    let pin = (h, [c.rounds_simulated, c.plan_builds]);
    assert_eq!(pin, VOTER_MISS, "high-miss lock-step batch");
}

/// The partial-synchrony and sequential simulators, pinned by trajectory:
/// the ones-count after every round of a fixed horizon. Minority(85) has
/// `ℓ > 64`, past the stack buffer of `adoption_probs`, and its
/// `Bin(ℓ, x/n)` draws take BTRS; Minority(3)'s take BINV.
const SOLO_N: u64 = 64;
const SOLO_ROUNDS: u64 = 200;
/// A source flip (the per-state values of `(x, z)` and `(x, 1 − z)`
/// differ) and noise that keeps the chain off consensus.
const PARTIAL_ENV: &str = "flip@60,noise:0.02";

/// `PartialSim` with Minority(85) under [`PARTIAL_ENV`], at batch sizes
/// `m` = 1 (the sequential setting), 7 and `n − 1` (the parallel one).
const PARTIAL_PATHS: [(u64, u64); 3] = [
    (1, 1_457_175_997_277_787_582),
    (7, 18_093_694_257_141_900_633),
    (SOLO_N - 1, 1_057_126_060_170_766_785),
];
/// `SequentialSim` with Minority(3) (BINV) and Minority(85) (BTRS).
const SEQUENTIAL_PATHS: [(usize, u64); 2] =
    [(3, 11_229_689_555_929_549_879), (85, 15_853_662_480_119_725_157)];

/// Digest of `ones` after each of [`SOLO_ROUNDS`] rounds; `round` steps
/// (and perturbs) the simulator at boundary `t`.
fn solo_path<S: Simulator>(sim: &mut S, mut round: impl FnMut(&mut S, u64)) -> u64 {
    let mut h = FNV_OFFSET;
    for t in 0..SOLO_ROUNDS {
        round(sim, t);
        fnv(&mut h, sim.configuration().ones());
    }
    h
}

#[test]
fn partial_synchrony_trajectories_are_pinned() {
    let minority = Minority::new(85).expect("valid");
    let env: EnvSchedule = PARTIAL_ENV.parse().expect("valid schedule");
    let start = Configuration::new(SOLO_N, Opinion::One, SOLO_N / 2).expect("valid start");
    for (m, pin) in PARTIAL_PATHS {
        let mut sim = PartialSim::new(&minority, start, m).expect("valid");
        let mut rng = rng_from(replication_seed(SEED, m));
        let digest = solo_path(&mut sim, |sim, t| {
            sim.perturb(&env, t, &mut rng);
            sim.step_round(&mut rng);
        });
        assert_eq!(digest, pin, "PartialSim, m = {m}");
    }
}

#[test]
fn sequential_trajectories_are_pinned() {
    let start = Configuration::new(SOLO_N, Opinion::One, SOLO_N / 2).expect("valid start");
    for (ell, pin) in SEQUENTIAL_PATHS {
        let mut sim =
            SequentialSim::new(&Minority::new(ell).expect("valid"), start).expect("valid");
        let mut rng = rng_from(replication_seed(SEED, ell as u64));
        let digest = solo_path(&mut sim, |sim, _| sim.step_round(&mut rng));
        assert_eq!(digest, pin, "SequentialSim, l = {ell}");
    }
}
