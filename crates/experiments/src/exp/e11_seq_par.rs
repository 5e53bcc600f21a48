//! **E11 — the sequential/parallel exponential gap.**
//!
//! Reference \[14\] proves that in the sequential setting no memory-less
//! protocol converges in fewer than `Ω(n)` parallel rounds in expectation,
//! *regardless of the sample size* — while the parallel setting admits
//! `O(log² n)` with the Minority dynamics and a large sample (\[15\]). This
//! experiment measures the same protocol in both settings and reports the
//! gap, which grows like `n / polylog(n)`.

use bitdissem_core::dynamics::{Minority, Voter};
use bitdissem_core::{Configuration, Opinion};
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::Table;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::{
    measure_convergence_observed, measure_convergence_sequential_observed, pow2_sweep,
};
use bitdissem_obs::Obs;

/// Runs experiment E11.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e11");
    let mut report = ExperimentReport::new(
        "e11",
        "sequential vs parallel activation (times in parallel rounds)",
        "[14]: sequential needs Omega(n) parallel rounds regardless of l; \
         [15]: parallel Minority with large l needs only O(log^2 n) — an \
         exponential separation",
    );

    let ns = match cfg.scale.pick(0, 1, 2) {
        0 => pow2_sweep(32, 2),
        1 => pow2_sweep(64, 3),
        _ => pow2_sweep(128, 4),
    };
    // Sequential Minority spends its whole 64n budget at both smoke sizes,
    // so each smoke gap is 64n over a parallel median: five replicas left
    // that median to noise (gaps 53.9, 36.9 at seed 42), fifteen order it.
    let reps = cfg.scale.pick(15, 10, 20);

    let mut table = Table::new([
        "n",
        "l (minority)",
        "par minority",
        "seq minority",
        "par voter",
        "seq voter",
        "gap (seq/par minority)",
    ]);
    let mut gaps = Vec::new();
    let mut seq_at_least_linearish = true;
    for &n in &ns {
        let ell = Minority::fast_sample_size(n);
        let minority = Minority::new(ell).expect("valid");
        let voter = Voter::new(1).expect("valid");
        let start = Configuration::all_wrong(n, Opinion::One);
        let nf = n as f64;
        let budget_par = (200.0 * nf.ln().powi(2)) as u64 + 8 * n;
        let budget_seq = 64 * n;

        let par_min = measure_convergence_observed(
            obs,
            &minority,
            start,
            reps,
            budget_par,
            cfg.seed ^ n,
            cfg.threads,
        );
        let seq_min = measure_convergence_sequential_observed(
            obs,
            &minority,
            start,
            reps,
            budget_seq,
            cfg.seed ^ n ^ 1,
            cfg.threads,
        );
        let par_vot = measure_convergence_observed(
            obs,
            &voter,
            start,
            reps,
            budget_seq,
            cfg.seed ^ n ^ 2,
            cfg.threads,
        );
        let seq_vot = measure_convergence_sequential_observed(
            obs,
            &voter,
            start,
            reps,
            budget_seq,
            cfg.seed ^ n ^ 3,
            cfg.threads,
        );

        let pm = par_min.censored_summary().expect("non-empty").median();
        let sm = seq_min.censored_summary().expect("non-empty").median();
        let pv = par_vot.censored_summary().expect("non-empty").median();
        let sv = seq_vot.censored_summary().expect("non-empty").median();
        let gap = sm / pm.max(1.0);
        gaps.push(gap);
        // [14]'s Ω(n) sequential bound (directional check with slack for
        // constants at small n).
        seq_at_least_linearish &= sm >= nf / 8.0 && sv >= nf / 8.0;
        table.row([
            n.to_string(),
            ell.to_string(),
            fmt_num(pm),
            fmt_num(sm),
            fmt_num(pv),
            fmt_num(sv),
            fmt_num(gap),
        ]);
    }
    report.add_table("median convergence times (parallel rounds)", table);

    report.check(
        seq_at_least_linearish,
        "sequential medians are Omega(n) for both protocols (the [14] bound)",
    );
    let growing = gaps.windows(2).all(|w| w[1] > w[0] * 0.9);
    let big = gaps.last().copied().unwrap_or(0.0) > 4.0;
    report.check(growing && big, format!("the sequential/parallel gap grows with n: {gaps:?}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_exponential_separation() {
        let report = run(&RunConfig::smoke(42), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
