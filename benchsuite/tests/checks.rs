//! Every correctness check accepts genuine outputs and rejects doctored
//! ones.

use bitdissem_benchsuite::checks::{
    is_survival_curve, mean_within_se, median_at_most, row_within_tail, trace_complete,
    workload_checks, Check, MAX_TAIL_BOUND,
};
use bitdissem_benchsuite::workload::{Outputs, Pass, PassStats, Readback, Workload};
use bitdissem_core::dynamics::Voter;
use bitdissem_core::Opinion;
use bitdissem_markov::{expected_hitting_times_sparse, SparseChain};
use bitdissem_sim::run::Outcome;

fn pass(outputs: Outputs) -> Pass {
    Pass { stats: PassStats::default(), outputs, root: None, readback: None }
}

fn verdict(checks: &[Check], name: &str) -> bool {
    checks.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no check {name}")).pass
}

/// Samples spread ±`width` around `center`.
fn around(center: f64, width: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| center + width * (2.0 * i as f64 / (n - 1) as f64 - 1.0)).collect()
}

#[test]
fn mean_check_rejects_a_doubled_mean() {
    let exact = 4091.7;
    assert!(mean_within_se(&around(exact, 3000.0, 256), exact, 5.0));
    assert!(!mean_within_se(&around(2.0 * exact, 3000.0, 256), exact, 5.0));
    assert!(!mean_within_se(&[], exact, 5.0), "no samples is no evidence");
}

#[test]
fn median_check_rejects_a_slow_median() {
    assert!(median_at_most(&[5.0, 6.0, 7.0], 6.0));
    assert!(!median_at_most(&[5.0, 7.0, 9.0], 6.0));
}

#[test]
fn survival_check_rejects_increase_and_range_errors() {
    assert!(is_survival_curve(&[1.0, 0.9, 0.9, 0.2, 0.0]));
    assert!(!is_survival_curve(&[1.0, 0.5, 0.6]), "a survival curve never increases");
    assert!(!is_survival_curve(&[1.1, 1.0]), "nor exceeds 1");
    assert!(!is_survival_curve(&[0.5, -0.1]), "nor drops below 0");
    assert!(!is_survival_curve(&[]));
}

#[test]
fn row_check_rejects_mass_beyond_the_tail() {
    let dense = [0.25, 0.5, 0.25];
    assert!(row_within_tail(&[0.25, 0.5, 0.25], &dense, 0.0));
    assert!(row_within_tail(&[0.0, 0.5, 0.25], &dense, 0.25), "the tail covers a dropped entry");
    assert!(!row_within_tail(&[0.0, 0.5, 0.25], &dense, 1e-3));
    assert!(!row_within_tail(&[0.25, 0.5], &dense, 1.0), "shapes must agree");
}

#[test]
fn trace_check_rejects_torn_or_short_traces() {
    assert!(trace_complete(false, 100, 100));
    assert!(!trace_complete(true, 100, 100));
    assert!(!trace_complete(false, 99, 100));
}

#[test]
fn differing_passes_fail_the_repeat_check() {
    let mut a = pass(Outputs::Cross(vec![("voter(l=1)".into(), 64, false, 1.0)]));
    let mut b = pass(Outputs::Cross(vec![("voter(l=1)".into(), 64, false, 1.0)]));
    a.stats.digest = 1;
    b.stats.digest = 1;
    assert!(verdict(&workload_checks(Workload::Crossing, &[a, b]), "passes_repeat"));
    let c = pass(Outputs::Cross(vec![]));
    let mut d = pass(Outputs::Cross(vec![]));
    d.stats.digest = 2;
    assert!(!verdict(&workload_checks(Workload::Crossing, &[c, d]), "passes_repeat"));
}

#[test]
fn crossing_checks_reject_doctored_fractions() {
    let good = vec![
        ("voter(l=1)".to_string(), 64, false, 0.9),
        ("minority(l=3)".to_string(), 64, true, 0.0),
    ];
    let checks = workload_checks(Workload::Crossing, &[pass(Outputs::Cross(good.clone()))]);
    assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    let mut fast_drift = good.clone();
    fast_drift[1].3 = 0.5;
    let checks = workload_checks(Workload::Crossing, &[pass(Outputs::Cross(fast_drift))]);
    assert!(!verdict(&checks, "drift_rarely_crosses"));
    let mut stuck_voter = good;
    stuck_voter[0].3 = 0.25;
    let checks = workload_checks(Workload::Crossing, &[pass(Outputs::Cross(stuck_voter))]);
    assert!(!verdict(&checks, "voter_crosses"));
}

fn voter_outcomes(mean: f64, timeouts: usize) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = around(mean, 0.5 * mean, 256)
        .into_iter()
        .map(|r| Outcome::Converged { rounds: r.round() as u64 })
        .collect();
    for o in out.iter_mut().take(timeouts) {
        *o = Outcome::TimedOut { rounds: 1_000_000 };
    }
    out
}

#[test]
fn convergence_checks_reject_a_doubled_voter_mean_and_timeouts() {
    let n = 64;
    let chain = SparseChain::build(&Voter::new(1).unwrap(), n, Opinion::One).unwrap();
    let exact = expected_hitting_times_sparse(&chain).unwrap().from_state(1);
    let minority = vec![Outcome::Converged { rounds: 6 }; 16];
    let run = |voter: Vec<Outcome>, minority: Vec<Outcome>| {
        workload_checks(
            Workload::Converge,
            &[pass(Outputs::Sim(vec![(n, true, voter), (n, false, minority)]))],
        )
    };
    let checks = run(voter_outcomes(exact, 0), minority.clone());
    assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    let checks = run(voter_outcomes(2.0 * exact, 0), minority.clone());
    assert!(!verdict(&checks, &format!("voter_mean_vs_exact_n{n}")));
    let checks = run(voter_outcomes(exact, 1), minority);
    assert!(!verdict(&checks, "voter_no_timeouts"));
    let slow = vec![Outcome::Converged { rounds: 10_000 }; 16];
    assert!(!verdict(&run(voter_outcomes(exact, 0), slow), "minority_fast_median"));
}

#[test]
fn exact_checks_reject_doctored_analytics() {
    let n = 32768;
    let good = || Outputs::Exact { voter_worst: (n, 65530.8), curves: vec![vec![1.0, 0.5, 0.25]] };
    let with_tail = |outputs, tail| {
        let mut p = pass(outputs);
        p.stats.max_tail_bound = tail;
        workload_checks(Workload::Exact, &[p])
    };
    let checks = with_tail(good(), 3e-13);
    assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    assert!(!verdict(&with_tail(good(), 10.0 * MAX_TAIL_BOUND), "tail_within_cutoff"));
    let slow =
        Outputs::Exact { voter_worst: (n, 2.0 * n as f64 * (n as f64).ln()), curves: vec![] };
    let checks = with_tail(slow, 3e-13);
    assert!(!verdict(&checks, "voter_worst_below_n_ln_n"));
    assert!(!verdict(&checks, "survival_curves_valid"), "no curves is no evidence");
    let rising = Outputs::Exact { voter_worst: (n, 65530.8), curves: vec![vec![0.5, 0.6]] };
    assert!(!verdict(&with_tail(rising, 3e-13), "survival_curves_valid"));
}

#[test]
fn recorded_checks_reject_torn_traces_and_missing_records() {
    let n = 64;
    let chain = SparseChain::build(&Voter::new(1).unwrap(), n, Opinion::One).unwrap();
    let exact = expected_hitting_times_sparse(&chain).unwrap().from_state(1);
    let recorded = |readback: Readback| {
        let outcomes = voter_outcomes(exact, 0);
        let mut p = pass(Outputs::Sim(vec![(n, true, outcomes.clone())]));
        p.stats.replications = outcomes.len() as u64;
        p.stats.replica_rounds = outcomes.iter().map(Outcome::rounds_censored).sum();
        p.readback = Some(Readback { round_rows: p.stats.replica_rounds, ..readback });
        workload_checks(Workload::Recorded, &[p])
    };
    let intact = Readback { torn_tail: false, round_rows: 0, checkpoint_records: 256 };
    let checks = recorded(intact);
    assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    assert!(!verdict(&recorded(Readback { torn_tail: true, ..intact }), "trace_reads_back"));
    let short = Readback { checkpoint_records: 255, ..intact };
    assert!(!verdict(&recorded(short), "checkpoint_complete"));
}
