//! **E4 — the open question: the minimal sample size for a fast Minority.**
//!
//! The paper leaves a gap between its lower bound (`ℓ = O(1)` is slow) and
//! the `ℓ = Ω(√(n log n))` upper bound of \[15\], remarking that "simulations
//! suggest that its convergence might be fast even when the sample size is
//! qualitatively small". This sweep measures the Minority convergence time
//! at fixed `n` as a function of `ℓ` and locates the empirical crossover
//! where it drops from almost-linear to poly-logarithmic — far below
//! `√(n ln n)`, consistent with the paper's remark.

use bitdissem_analysis::LowerBoundWitness;
use bitdissem_core::dynamics::Minority;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::Table;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::{measure_convergence_observed, OutcomeBatch};
use bitdissem_obs::Obs;

/// Runs experiment E4.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e4");
    let mut report = ExperimentReport::new(
        "e4",
        "Minority convergence vs sample size (fixed n)",
        "Open question (Sec. 1.2/5): the minimal l for poly-log convergence is \
         unknown; the paper notes simulations suggest fast convergence well \
         below sqrt(n log n)",
    );

    let ns: Vec<u64> = match cfg.scale.pick(0, 1, 2) {
        0 => vec![256],
        1 => vec![4096],
        _ => vec![4096, 16384],
    };
    let reps = cfg.scale.pick(5, 15, 25);

    for &n in &ns {
        let fast_ell = Minority::fast_sample_size(n);
        let mut ells: Vec<usize> = vec![1, 3, 5, 9, 17, 33, 65, 129, 257];
        ells.retain(|&e| e < fast_ell);
        ells.push(fast_ell);
        let polylog = (n as f64).ln().powi(2);
        // Budget: enough to distinguish "almost-linear" from "polylog" but
        // bounded so slow configurations do not dominate the runtime.
        let budget = 8 * n;

        let mut table = Table::new(["l", "median T", "frac converged", "T/ln^2 n", "regime"]);
        let mut crossover: Option<usize> = None;
        let mut slow_at_small_ell = false;
        for &ell in &ells {
            let minority = Minority::new(ell).expect("valid");
            // Start from the adversarial witness configuration so small-l
            // runs exhibit the Theorem-1 slowness.
            let witness = LowerBoundWitness::construct(&minority, n).expect("valid");
            let batch: OutcomeBatch = measure_convergence_observed(
                obs,
                &minority,
                witness.start(),
                reps,
                budget,
                cfg.seed ^ n ^ (ell as u64).rotate_left(17),
                cfg.threads,
            );
            let s = batch.censored_summary().expect("non-empty");
            let median = s.median();
            let fast = median <= 20.0 * polylog && batch.converged_fraction() > 0.5;
            if fast && crossover.is_none() {
                crossover = Some(ell);
            }
            if ell <= 5 && median > 0.05 * n as f64 {
                slow_at_small_ell = true;
            }
            table.row([
                ell.to_string(),
                fmt_num(median),
                fmt_num(batch.converged_fraction()),
                fmt_num(median / polylog),
                if fast { "fast".to_string() } else { "slow".to_string() },
            ]);
        }
        report.add_table(format!("n = {n} (sqrt(n ln n) = {fast_ell})"), table);
        report.check(
            slow_at_small_ell,
            format!("n={n}: constant l is slow (Theorem 1 regime observed)"),
        );
        match crossover {
            Some(ell) => {
                report.check(
                    ell < fast_ell,
                    format!(
                        "n={n}: empirical fast-regime crossover at l ~ {ell}, \
                         well below sqrt(n ln n) = {fast_ell}"
                    ),
                );
            }
            None => report.check(false, format!("n={n}: no fast regime found up to l={fast_ell}")),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_locates_crossover() {
        let report = run(&RunConfig::smoke(17), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
