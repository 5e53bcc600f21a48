//! **E10 — engine validation against exact Markov chains.**
//!
//! Because the aggregate state is a Markov chain on `{0, …, n}`, small-`n`
//! instances can be solved exactly (dense LU for the parallel chain,
//! tridiagonal for the sequential one). This experiment compares exact
//! expected and median convergence times against simulated means/medians —
//! any discrepancy beyond sampling error would mean the engine does not
//! implement the model of Section 1.1. Cases whose *exact* expected time
//! exceeds a budget cap (Minority at larger `n` is exponentially slow) are
//! skipped — the exact solver itself reports them as out of reach.

use bitdissem_core::dynamics::{Majority, Minority, Voter};
use bitdissem_core::{Configuration, Opinion, Protocol};
use bitdissem_markov::absorbing::{expected_hitting_times, median_from_survival, survival_curve};
use bitdissem_markov::{AggregateChain, SequentialChain};
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::Table;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::{measure_convergence_observed, measure_convergence_sequential_observed};
use bitdissem_obs::Obs;

/// One validation case: a protocol plus a starting state chosen so that the
/// exact expected time is computable and moderate.
struct Case {
    protocol: Box<dyn Protocol + Send + Sync>,
    /// Start as a fraction of `n` (ones), clamped to a consistent state.
    start_fraction: f64,
}

/// Runs experiment E10.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e10");
    let mut report = ExperimentReport::new(
        "e10",
        "simulated vs exact convergence times (small n)",
        "the aggregate process is a Markov chain on (z, X_t); simulation must \
         match exact hitting times within sampling error",
    );

    let ns: Vec<u64> = match cfg.scale.pick(0, 1, 2) {
        0 => vec![16, 24],
        1 => vec![16, 32, 64],
        _ => vec![16, 32, 64, 128],
    };
    let reps = cfg.scale.pick(300, 2000, 10_000);
    let exact_cap = 5.0e3;

    let cases = vec![
        Case { protocol: Box::new(Voter::new(1).expect("valid")), start_fraction: 1.0 / 16.0 },
        Case { protocol: Box::new(Majority::new(3).expect("valid")), start_fraction: 0.75 },
        Case { protocol: Box::new(Minority::new(3).expect("valid")), start_fraction: 0.9 },
    ];

    let mut table = Table::new([
        "protocol",
        "n",
        "x0",
        "exact E[T]",
        "sim mean",
        "rel err",
        "exact median",
        "sim median",
    ]);
    let mut worst_rel_err: f64 = 0.0;
    let mut worst_median_err: f64 = 0.0;
    let mut compared = 0usize;
    for case in &cases {
        for &n in &ns {
            let x0 = ((case.start_fraction * n as f64).round() as u64).clamp(1, n - 1);
            let start = Configuration::new(n, Opinion::One, x0).expect("consistent");
            let chain = AggregateChain::build(&case.protocol, n, Opinion::One).expect("valid");
            let exact = expected_hitting_times(&chain).expect("compliant protocols absorb");
            let exact_mean = exact.from_state(x0);
            if exact_mean > exact_cap {
                table.row([
                    case.protocol.name(),
                    n.to_string(),
                    x0.to_string(),
                    fmt_num(exact_mean),
                    "skipped".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                continue;
            }
            let curve = survival_curve(&chain, x0, (exact_mean * 30.0) as usize + 200);
            let exact_median = median_from_survival(&curve).map_or(f64::NAN, |m| m as f64);

            let budget = (exact_mean * 500.0) as u64 + 1000;
            let batch = measure_convergence_observed(
                obs,
                &case.protocol,
                start,
                reps,
                budget,
                cfg.seed ^ n ^ ((case.protocol.sample_size() as u64) << 40),
                cfg.threads,
            );
            let s = batch.censored_summary().expect("non-empty");
            // The mean is tail-sensitive (Majority has an exponentially rare
            // but exponentially slow dip below n/2 that dominates E[T]);
            // compare means only where the tail is light (Voter), medians
            // everywhere.
            if case.protocol.name().starts_with("voter") {
                let rel = (s.mean() - exact_mean).abs() / exact_mean.max(1e-9);
                worst_rel_err = worst_rel_err.max(rel);
            }
            if exact_median.is_finite() {
                let med_err = (s.median() - exact_median).abs() / exact_median.max(1.0);
                worst_median_err = worst_median_err
                    .max(if (s.median() - exact_median).abs() <= 1.0 { 0.0 } else { med_err });
            }
            compared += 1;
            let rel = (s.mean() - exact_mean).abs() / exact_mean.max(1e-9);
            table.row([
                case.protocol.name(),
                n.to_string(),
                x0.to_string(),
                fmt_num(exact_mean),
                fmt_num(s.mean()),
                fmt_num(rel),
                fmt_num(exact_median),
                fmt_num(s.median()),
            ]);
        }
    }
    report.add_table("parallel setting: exact dense solve vs simulation", table);
    report.check(compared >= 4, format!("{compared} cases compared against exact values"));
    report.check(
        worst_rel_err < 0.15,
        format!("worst Voter mean relative error {worst_rel_err:.3} < 0.15"),
    );
    report.check(
        worst_median_err < 0.2,
        format!("worst median relative error {worst_median_err:.3} < 0.2 (all protocols)"),
    );

    // Sequential setting: exact tridiagonal solve vs simulation.
    let mut seq_table = Table::new(["protocol", "n", "exact E[T] (rounds)", "sim mean", "rel err"]);
    let voter = Voter::new(1).expect("valid");
    let mut worst_seq: f64 = 0.0;
    for &n in &ns {
        let x0 = n / 2;
        let sc = SequentialChain::build(&voter, n, Opinion::One).expect("valid");
        let exact = sc.expected_rounds_from(x0).expect("voter converges");
        let start = Configuration::new(n, Opinion::One, x0).expect("consistent");
        let seq_reps = reps / 4 + 10;
        let batch = measure_convergence_sequential_observed(
            obs,
            &voter,
            start,
            seq_reps,
            (exact * 500.0) as u64 + 1000,
            cfg.seed ^ 0x5EC ^ n,
            cfg.threads,
        );
        let s = batch.censored_summary().expect("non-empty");
        // The simulator measures in whole rounds: ±1 round discretization.
        let rel = (s.mean() - exact).abs() / exact.max(1.0);
        worst_seq = worst_seq.max(rel);
        seq_table.row([
            "voter(l=1) seq".to_string(),
            n.to_string(),
            fmt_num(exact),
            fmt_num(s.mean()),
            fmt_num(rel),
        ]);
    }
    report.add_table("sequential setting: exact tridiagonal solve vs simulation", seq_table);
    report.check(
        worst_seq < 0.2,
        format!("worst sequential mean relative error {worst_seq:.3} < 0.2"),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_matches_exact_chains() {
        let report = run(&RunConfig::smoke(41), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
