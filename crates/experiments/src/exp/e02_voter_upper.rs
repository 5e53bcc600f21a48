//! **E2 — Theorem 2: the Voter dynamics converges in `O(n log n)` rounds.**
//!
//! From the all-wrong configuration (only the source is correct), the Voter
//! convergence time is measured across a geometric `n` sweep. The theorem
//! predicts `τ ≤ 2n·ln n` w.h.p.; the measurable shape is a flat ratio
//! `τ / (n ln n)` and `n log n` winning the scaling-model comparison.

use bitdissem_core::dynamics::Voter;
use bitdissem_core::{Configuration, Opinion};
use bitdissem_stats::regression::{compare_models, ScalingModel};
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::Table;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::{measure_convergence_observed, pow2_sweep};
use bitdissem_obs::Obs;

/// Runs experiment E2.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e2");
    let mut report = ExperimentReport::new(
        "e2",
        "Voter upper bound from the all-wrong configuration",
        "Theorem 2: the Voter dynamics solves bit dissemination in O(n log n) \
         rounds w.h.p. (proof gives tau <= 2 n ln n)",
    );

    let ns = match cfg.scale.pick(0, 1, 2) {
        0 => pow2_sweep(32, 4),
        1 => pow2_sweep(128, 6),
        _ => pow2_sweep(256, 8),
    };
    let reps = cfg.scale.pick(30, 25, 50);
    // The voter convergence-time distribution is wide; at smoke sizes the
    // free-exponent estimate carries substantial noise.
    let (exp_lo, exp_hi) = cfg.scale.pick((0.65, 1.6), (0.8, 1.35), (0.85, 1.3));
    let voter = Voter::new(1).expect("valid");

    let mut table = Table::new(["n", "median T", "mean T", "T/(n ln n)", "P(T <= 2 n ln n)"]);
    let mut series_n = Vec::new();
    let mut series_t = Vec::new();
    let mut all_whp_ok = true;
    for &n in &ns {
        let start = Configuration::all_wrong(n, Opinion::One);
        let nlogn = n as f64 * (n as f64).ln();
        // Budget far above the 2 n ln n bound so timeouts are impossible
        // unless the theorem is badly violated.
        let budget = (8.0 * nlogn) as u64;
        let batch = measure_convergence_observed(
            obs,
            &voter,
            start,
            reps,
            budget,
            cfg.seed ^ n,
            cfg.threads,
        );
        let s = batch.censored_summary().expect("non-empty");
        let whp_frac = batch.fraction_within(2.0 * nlogn);
        all_whp_ok &= whp_frac >= 0.8;
        table.row([
            n.to_string(),
            fmt_num(s.median()),
            fmt_num(s.mean()),
            fmt_num(s.median() / nlogn),
            fmt_num(whp_frac),
        ]);
        series_n.push(n as f64);
        series_t.push(s.median().max(1.0));
    }
    report.add_table("Voter convergence times (parallel rounds)", table);

    if let Some(cmp) = compare_models(&series_n, &series_t) {
        let nlogn_competitive =
            matches!(cmp.best_fixed, ScalingModel::NLogN | ScalingModel::Linear);
        report.check(
            nlogn_competitive,
            format!(
                "best fixed scaling model: {} (free exponent {:.2})",
                cmp.best_fixed, cmp.power_law_exponent
            ),
        );
        report.check(
            cmp.power_law_exponent > exp_lo && cmp.power_law_exponent < exp_hi,
            format!("free power-law exponent {:.2} is ~1 (n log n)", cmp.power_law_exponent),
        );
    }
    report.check(all_whp_ok, "most runs finish within the 2 n ln n w.h.p. bound at every n");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_matches_n_log_n_shape() {
        let report = run(&RunConfig::smoke(11), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
