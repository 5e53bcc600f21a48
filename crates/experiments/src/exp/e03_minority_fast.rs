//! **E3 — Minority with `ℓ = ⌈√(n ln n)⌉` converges in `O(log² n)` rounds.**
//!
//! Context result of Becchetti et al. (SODA 2024), reference \[15\] of the
//! paper: with a large sample, the Minority dynamics solves bit
//! dissemination poly-logarithmically fast — exponentially faster than any
//! constant-`ℓ` protocol (E1) and than any protocol in the sequential
//! setting (E11). The measurable shape: the ratio `τ / ln² n` stays bounded
//! and `log² n` wins the scaling comparison.

use bitdissem_core::dynamics::Minority;
use bitdissem_core::{Configuration, Opinion};
use bitdissem_stats::regression::{compare_models, ScalingModel};
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::Table;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::{measure_convergence_observed, pow2_sweep};
use bitdissem_obs::Obs;

/// Runs experiment E3.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e3");
    let mut report = ExperimentReport::new(
        "e3",
        "Minority dynamics with the large sample size of [15]",
        "Becchetti et al. 2024: with l = Omega(sqrt(n log n)) the Minority \
         dynamics converges in O(log^2 n) rounds w.h.p.",
    );

    let ns = match cfg.scale.pick(0, 1, 2) {
        0 => pow2_sweep(128, 3),
        1 => pow2_sweep(512, 5),
        _ => pow2_sweep(1024, 6),
    };
    let reps = cfg.scale.pick(10, 25, 50);

    let mut table = Table::new(["n", "l", "median T", "T/ln^2 n", "frac converged"]);
    let mut series_n = Vec::new();
    let mut series_t = Vec::new();
    let mut ratios = Vec::new();
    for &n in &ns {
        let ell = Minority::fast_sample_size(n);
        let minority = Minority::new(ell).expect("valid");
        let start = Configuration::all_wrong(n, Opinion::One);
        let log2n = (n as f64).ln().powi(2);
        let budget = (100.0 * log2n) as u64;
        let batch = measure_convergence_observed(
            obs,
            &minority,
            start,
            reps,
            budget,
            cfg.seed ^ n,
            cfg.threads,
        );
        let s = batch.censored_summary().expect("non-empty");
        let ratio = s.median() / log2n;
        table.row([
            n.to_string(),
            ell.to_string(),
            fmt_num(s.median()),
            fmt_num(ratio),
            fmt_num(batch.converged_fraction()),
        ]);
        series_n.push(n as f64);
        series_t.push(s.median().max(1.0));
        ratios.push(ratio);
    }
    report.add_table("Minority convergence, l = ceil(sqrt(n ln n))", table);

    // Poly-logarithmic shape: the ratio must not grow like a power of n —
    // allow a generous constant factor between the smallest and largest n.
    let first = ratios.first().copied().unwrap_or(1.0).max(1e-9);
    let last = ratios.last().copied().unwrap_or(1.0);
    report.check(
        last <= 8.0 * first + 1.0,
        format!("T/ln^2 n ratio stays bounded: {first:.2} -> {last:.2}"),
    );
    if let Some(cmp) = compare_models(&series_n, &series_t) {
        report.check(
            cmp.best_fixed == ScalingModel::LogSquared,
            format!("best fixed scaling model: {}", cmp.best_fixed),
        );
        report.check(
            cmp.power_law_exponent < 0.5,
            format!("free exponent {:.2} << 1: strongly sub-polynomial", cmp.power_law_exponent),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_polylog_convergence() {
        let report = run(&RunConfig::smoke(13), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
