//! **E7 — Figure 4: the Voter dual process.**
//!
//! Appendix B proves Theorem 2 through `n` coalescing random walks running
//! backward in time, absorbed at the source: if all walks have coalesced
//! into the source within `T` rounds, the forward process has converged by
//! round `T`. This experiment runs the backward process directly and
//! compares its absorption time with the forward Voter convergence time:
//! both are `Θ(n log n)`, and the dual absorption time stochastically
//! dominates the forward time on average (it is the proof's upper bound).

use bitdissem_core::dynamics::Voter;
use bitdissem_core::{Configuration, Opinion};
use bitdissem_sim::dual::CoalescingDual;
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::{Summary, Table};

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::{measure_convergence_observed, pow2_sweep};
use bitdissem_obs::Obs;

/// Runs experiment E7.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e7");
    let mut report = ExperimentReport::new(
        "e7",
        "Voter dual process: backward coalescing random walks (Figure 4)",
        "Appendix B: dual absorption within T implies forward consensus at T; \
         both times are Theta(n log n)",
    );

    let ns = match cfg.scale.pick(0, 1, 2) {
        0 => pow2_sweep(32, 3),
        1 => pow2_sweep(128, 5),
        _ => pow2_sweep(256, 7),
    };
    let reps = cfg.scale.pick(10, 25, 50);
    let voter = Voter::new(1).expect("valid");

    let mut table = Table::new([
        "n",
        "median dual",
        "median forward",
        "dual/(n ln n)",
        "forward/(n ln n)",
        "dual >= forward (medians)",
    ]);
    let mut dominated_everywhere = true;
    let mut dual_ratios = Vec::new();
    for &n in &ns {
        let nlogn = n as f64 * (n as f64).ln();
        let dual_times = replicate_observed(reps, cfg.seed ^ n, cfg.threads, obs, |mut rng, _| {
            let mut dual = CoalescingDual::new(n);
            dual.run_to_absorption(&mut rng, (20.0 * nlogn) as u64)
                .map_or(20.0 * nlogn, |t| t as f64)
        });
        let dual_summary = Summary::from_samples(&dual_times).expect("non-empty");

        let start = Configuration::all_wrong(n, Opinion::One);
        let forward = measure_convergence_observed(
            obs,
            &voter,
            start,
            reps,
            (20.0 * nlogn) as u64,
            cfg.seed ^ n ^ 0xD00D,
            cfg.threads,
        );
        let fwd_summary = forward.censored_summary().expect("non-empty");

        let dom = dual_summary.median() >= 0.5 * fwd_summary.median();
        dominated_everywhere &= dom;
        dual_ratios.push(dual_summary.median() / nlogn);
        table.row([
            n.to_string(),
            fmt_num(dual_summary.median()),
            fmt_num(fwd_summary.median()),
            fmt_num(dual_summary.median() / nlogn),
            fmt_num(fwd_summary.median() / nlogn),
            if dom { "yes".to_string() } else { "no".to_string() },
        ]);
    }
    report.add_table("dual vs forward Voter times (parallel rounds)", table);

    let first = dual_ratios.first().copied().unwrap_or(1.0).max(1e-9);
    let last = dual_ratios.last().copied().unwrap_or(1.0);
    report.check(
        last < 5.0 * first + 1.0 && last > first / 5.0,
        format!("dual/(n ln n) ratio is flat: {first:.2} -> {last:.2} (Theta(n log n))"),
    );
    report.check(
        dominated_everywhere,
        "dual absorption median is never far below the forward convergence median \
         (it upper-bounds the forward time in the proof)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_dual_matches_forward_scale() {
        let report = run(&RunConfig::smoke(29), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
