//! Cross-crate validation: the simulation engine reproduces the exact
//! Markov-chain law computed independently by `bitdissem-markov`.

use std::sync::Arc;

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::dynamics::{Majority, Minority, TwoChoices, Voter};
use bitdissem_core::{Configuration, Kernel, Opinion, Protocol, ProtocolExt};
use bitdissem_markov::absorbing::expected_hitting_times;
use bitdissem_markov::{AggregateChain, SequentialChain};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::rng::{replication_seed, rng_from};
use bitdissem_sim::run::{run_to_consensus, Outcome, Simulator};
use bitdissem_sim::sequential::SequentialSim;

fn simulated_mean_tau<P: Protocol>(
    protocol: &P,
    start: Configuration,
    reps: u64,
    seed: u64,
) -> f64 {
    let mut total = 0.0;
    for rep in 0..reps {
        let mut rng = rng_from(replication_seed(seed, rep));
        let mut sim = AggregateSim::new(protocol, start).expect("valid");
        match run_to_consensus(&mut sim, &mut rng, 10_000_000) {
            Outcome::Converged { rounds } => total += rounds as f64,
            Outcome::TimedOut { .. } => panic!("unexpected timeout"),
        }
    }
    total / reps as f64
}

#[test]
fn voter_mean_convergence_matches_exact_hitting_time() {
    let n = 20;
    let voter = Voter::new(1).unwrap();
    let start = Configuration::all_wrong(n, Opinion::One);
    let chain = AggregateChain::build(&voter, n, Opinion::One).unwrap();
    let exact = expected_hitting_times(&chain).unwrap().from_state(start.ones());
    let sim = simulated_mean_tau(&voter, start, 1500, 0xAB);
    let rel = (sim - exact).abs() / exact;
    assert!(rel < 0.1, "sim {sim} vs exact {exact} (rel {rel})");
}

#[test]
fn majority_mean_from_favorable_start_matches_exact() {
    let n = 24;
    let majority = Majority::new(3).unwrap();
    let x0 = 22; // close to the target so the heavy dip tail is negligible
    let start = Configuration::new(n, Opinion::One, x0).unwrap();
    let chain = AggregateChain::build(&majority, n, Opinion::One).unwrap();
    let exact = expected_hitting_times(&chain).unwrap().from_state(x0);
    let sim = simulated_mean_tau(&majority, start, 4000, 0xAC);
    let rel = (sim - exact).abs() / exact;
    assert!(rel < 0.1, "sim {sim} vs exact {exact} (rel {rel})");
}

/// Replicas per one-round law check.
const LAW_DRAWS: u64 = 60_000;
/// Significance level of the DKW band.
const LAW_ALPHA: f64 = 1e-9;

/// `LAW_DRAWS` one-round draws out of `start` on the per-replica engine,
/// each replica on its own stream.
fn per_replica_one_round(kernel: &Arc<Kernel>, start: Configuration) -> Vec<u64> {
    let mut sim = AggregateSim::with_kernel(Arc::clone(kernel), start);
    (0..LAW_DRAWS)
        .map(|rep| {
            sim.reset(start);
            sim.step_round(&mut rng_from(replication_seed(0xAD, rep)));
            sim.configuration().ones()
        })
        .collect()
}

/// `sup_y |F̂(y) − F(y)|` between the empirical CDF of `draws` and the CDF
/// of the exact distribution `row` over `0..row.len()`.
fn sup_cdf_distance(draws: &[u64], row: &[f64]) -> f64 {
    let mut counts = vec![0u64; row.len()];
    for &y in draws {
        counts[usize::try_from(y).unwrap()] += 1;
    }
    let (mut seen, mut exact, mut sup) = (0u64, 0.0f64, 0.0f64);
    for (&c, &p) in counts.iter().zip(row) {
        seen += c;
        exact += p;
        sup = sup.max((seen as f64 / draws.len() as f64 - exact).abs());
    }
    sup
}

#[test]
fn one_round_distribution_matches_transition_row() {
    // The one-round law out of a state, on the per-replica engine, against
    // the exact row `AggregateChain::transition_row` computes as the
    // convolution of the keep and flip binomials. Own-independent rules
    // (Voter, Minority) draw `z + Bin(n − 1, P)` in one go, TwoChoices
    // draws keep then flip; a merge over the wrong count (e.g. the
    // `x − z` one-holders instead of all `n − 1` non-source agents) moves
    // the mean by about `(n − x)·P` and leaves every band.
    let witness_start =
        |p: &dyn Protocol, n| LowerBoundWitness::construct(p, n).expect("valid").start();
    let cases: Vec<(Box<dyn Protocol + Send + Sync>, Configuration)> = vec![
        (Box::new(Minority::new(3).unwrap()), Configuration::new(30, Opinion::One, 20).unwrap()),
        (Box::new(Voter::new(1).unwrap()), Configuration::new(512, Opinion::One, 200).unwrap()),
        (Box::new(Minority::new(5).unwrap()), witness_start(&Minority::new(5).unwrap(), 512)),
        (Box::new(TwoChoices::new()), witness_start(&TwoChoices::new(), 512)),
    ];
    // DKW: with N draws, sup|F̂ − F| exceeds this only with probability α.
    let band = ((2.0 / LAW_ALPHA).ln() / (2.0 * LAW_DRAWS as f64)).sqrt();
    for (protocol, start) in cases {
        let (n, x) = (start.n(), start.ones());
        let chain = AggregateChain::build(&protocol, n, start.correct()).unwrap();
        let row = chain.transition_row(x);
        let kernel = Arc::new(protocol.to_table(n).unwrap().compile().unwrap());
        let sup = sup_cdf_distance(&per_replica_one_round(&kernel, start), &row);
        assert!(
            sup <= band,
            "{} n={n} x={x} z={}: sup|F̂ − F| = {sup:.5} > DKW band {band:.5}",
            protocol.name(),
            start.correct()
        );
    }
}

#[test]
fn sequential_simulator_matches_birth_death_chain() {
    let n = 16;
    let voter = Voter::new(1).unwrap();
    let x0 = 8;
    let sc = SequentialChain::build(&voter, n, Opinion::One).unwrap();
    let exact = sc.expected_rounds_from(x0).unwrap();
    let reps = 2500u64;
    let mut total = 0.0;
    for rep in 0..reps {
        let mut rng = rng_from(replication_seed(0xAE, rep));
        let start = Configuration::new(n, Opinion::One, x0).unwrap();
        let mut sim = SequentialSim::new(&voter, start).unwrap();
        match run_to_consensus(&mut sim, &mut rng, 1_000_000) {
            Outcome::Converged { rounds } => total += rounds as f64,
            Outcome::TimedOut { .. } => panic!("unexpected timeout"),
        }
    }
    let sim_mean = total / reps as f64;
    // Whole-round measurement adds up to 1 round of discretization.
    assert!((sim_mean - exact).abs() < 0.1 * exact + 1.0, "sim {sim_mean} vs exact {exact}");
}

#[test]
fn drift_matches_bias_polynomial_through_both_routes() {
    // The exact chain's E[X'|x] and the analysis crate's x + n·F(x/n)
    // agree within the ±1 source term, for several protocols and both
    // correct opinions. Minority(57) at n = 512 (e3's smoke kernel) has a
    // degree-58 F_n, whose expanded power form is useless in floating
    // point; the Bernstein form must not go through it.
    use bitdissem_analysis::BiasPolynomial;
    for (protocol, n) in [
        (Box::new(Voter::new(2).unwrap()) as Box<dyn Protocol + Send + Sync>, 64),
        (Box::new(Minority::new(4).unwrap()), 64),
        (Box::new(Majority::new(5).unwrap()), 64),
        (Box::new(Minority::new(57).unwrap()), 512),
    ] {
        let f = BiasPolynomial::build(&protocol, n).unwrap();
        for correct in Opinion::ALL {
            let chain = AggregateChain::build(&protocol, n, correct).unwrap();
            for x in chain.states() {
                let exact = chain.expected_next(x);
                let center = x as f64 + f.drift_at(x);
                assert!(
                    (exact - center).abs() <= 1.0 + 1e-9,
                    "{} z={correct} x={x}: exact {exact} vs center {center}",
                    protocol.name()
                );
            }
        }
    }
}
