//! **E8 — Proposition 4: the one-step jump bound.**
//!
//! From any state with `X_t ≤ c·n`, the next state satisfies
//! `X_{t+1} ≤ y(c,ℓ)·n` with `y = 1 − (1−c)^{ℓ+1}/2`, except with
//! probability `exp(−2√n)`. We fire many single rounds from states at each
//! `c` and across full trajectories, for several protocols and sample
//! sizes, and count violations (expected: zero at these scales, since the
//! failure probability is ≪ 1e-8).

use bitdissem_analysis::jump::{check_jump, y_constant};
use bitdissem_core::dynamics::{Minority, TwoChoices, Voter};
use bitdissem_core::{Configuration, Opinion, Protocol};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::run::{drive, RunSpec, Simulator, Stop};
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::Table;
use std::sync::Arc;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use bitdissem_obs::{NullSink, Obs};

/// Runs experiment E8.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e8");
    let mut report = ExperimentReport::new(
        "e8",
        "one-step jump bound (Proposition 4)",
        "Prop 4: from X_t <= c*n, X_{t+1} <= (1 - (1-c)^{l+1}/2)*n except \
         with probability exp(-2 sqrt(n))",
    );

    let n: u64 = cfg.scale.pick(512, 2048, 8192);
    let reps = cfg.scale.pick(200, 1000, 5000);
    let cs = [0.2, 0.4, 0.6, 0.8];

    let protocols: Vec<Box<dyn Protocol + Send + Sync>> = vec![
        Box::new(Voter::new(1).expect("valid")),
        Box::new(Minority::new(3).expect("valid")),
        Box::new(Minority::new(7).expect("valid")),
        Box::new(TwoChoices::new()),
    ];

    // Every run steps through the driver for exactly its horizon; the runs
    // count under metrics but emit no trace events (no batch header
    // describes them).
    let quiet = obs.clone().with_sink(Arc::new(NullSink));
    let one_round = RunSpec::new(1, Stop::Horizon, &quiet);
    let mut table =
        Table::new(["protocol", "c", "y(c,l)", "max X'/n observed", "violations", "trials"]);
    let mut total_violations = 0u64;
    for protocol in &protocols {
        let ell = protocol.sample_size();
        for &c in &cs {
            let x0 = ((c * n as f64).floor() as u64).clamp(1, n - 1);
            let start = Configuration::new(n, Opinion::One, x0).expect("consistent");
            let nexts = replicate_observed(
                reps,
                cfg.seed ^ n ^ ((c * 1000.0) as u64) ^ (ell as u64) << 32,
                cfg.threads,
                obs,
                |mut rng, _| {
                    let mut sim = AggregateSim::new(protocol, start).expect("valid");
                    drive(&mut sim, &mut rng, &one_round, None);
                    sim.configuration().ones()
                },
            );
            let max_next = nexts.iter().copied().max().unwrap_or(0);
            let violations =
                nexts.iter().filter(|&&x1| check_jump(n, ell, c, x0, x1) == Some(false)).count()
                    as u64;
            total_violations += violations;
            table.row([
                protocol.name(),
                fmt_num(c),
                fmt_num(y_constant(c, ell)),
                fmt_num(max_next as f64 / n as f64),
                violations.to_string(),
                reps.to_string(),
            ]);
        }
    }
    report.add_table(format!("single-round jumps at n = {n}"), table);
    report.check(
        total_violations == 0,
        format!(
            "zero violations across {} single-round trials (failure bound exp(-2 sqrt(n)) = {:.1e})",
            reps * protocols.len() * cs.len(),
            (-2.0 * (n as f64).sqrt()).exp()
        ),
    );

    // Trajectory-wide check for one protocol: every step of long runs.
    let minority = Minority::new(3).expect("valid");
    let c = 0.5;
    let steps = cfg.scale.pick(2_000u64, 20_000, 100_000);
    let trajectory = RunSpec::new(steps, Stop::Horizon, &quiet);
    let traj_violations: u64 =
        replicate_observed(4, cfg.seed ^ 0xBEEF, cfg.threads, obs, |mut rng, _| {
            let start = Configuration::new(n, Opinion::One, n / 4).expect("consistent");
            let mut sim = AggregateSim::new(&minority, start).expect("valid");
            let mut v = 0u64;
            let mut prev: Option<u64> = None;
            let mut visit = |config: Configuration| {
                let cur = config.ones();
                if prev.is_some_and(|p| check_jump(n, 3, c, p, cur) == Some(false)) {
                    v += 1;
                }
                prev = Some(cur);
            };
            drive(&mut sim, &mut rng, &trajectory, Some(&mut visit));
            v
        })
        .into_iter()
        .sum();
    report.check(
        traj_violations == 0,
        format!("zero violations along 4 trajectories of {steps} rounds (c = {c})"),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_no_violations() {
        let report = run(&RunConfig::smoke(31), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }

    #[test]
    fn smoke_runs_are_counted() {
        // 16 cells of 200 one-round samples, then 4 trajectories of 2000
        // rounds, each round drawing l*n opinions.
        let obs = Obs::none().with_metrics();
        let _ = run(&RunConfig::smoke(42), &obs);
        let m = obs.metrics().snapshot();
        assert_eq!(m.rounds_simulated, 16 * 200 + 4 * 2_000);
        assert_eq!(m.opinion_samples, 4 * 200 * 512 * (1 + 3 + 7 + 2) + 4 * 2_000 * 512 * 3);
    }
}
