//! **E19 — re-convergence under environment perturbations.**
//!
//! The paper's setting is static: the source opinion is fixed and the
//! correct consensus is absorbing. The environment layer (DESIGN
//! decision 15) removes that assumption, so this experiment measures the
//! *recovery* behaviour the static theorems do not cover: the Voter
//! dynamics re-establishes the correct consensus after a mid-run source
//! flip (the full-distance disruption — every agent is suddenly wrong)
//! and after an adversarial reset of a quarter of the population, across
//! sample sizes `ℓ`. Each disruption opens a re-convergence clock
//! ([`bitdissem_sim::run_env_observed`]); the table charts the resolved
//! clocks and the consensus dwell fraction per `(schedule, ℓ)` cell.

use bitdissem_core::dynamics::Voter;
use bitdissem_core::{Configuration, Opinion};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::env::{run_env_observed, EnvRunStats, EnvSchedule, ResetSpec, ResetTrigger};
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::{Summary, Table};

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::measure_convergence_env_observed;
use bitdissem_obs::Obs;

/// Runs experiment E19.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e19");
    let mut report = ExperimentReport::new(
        "e19",
        "re-convergence time after environment perturbations",
        "dynamic-environment probe: a source flip (full-distance \
         disruption) and an adversarial quarter-population reset are \
         injected mid-run; Voter re-establishes the correct consensus and \
         the re-convergence clock is charted against the sample size l",
    );

    let n: u64 = cfg.scale.pick(48, 256, 1024);
    let reps = cfg.scale.pick(8usize, 16, 32);
    let horizon: u64 = cfg.scale.pick(9_000, 40_000, 160_000);
    let disrupt_at = horizon / 3;
    let ells = [1usize, 3, 5];

    let flip = EnvSchedule { flip_at: Some(disrupt_at), ..EnvSchedule::default() };
    let reset = EnvSchedule {
        reset: Some(ResetSpec { k: n / 4, trigger: ResetTrigger::At(disrupt_at) }),
        ..EnvSchedule::default()
    };
    // The two canonical disruptions carry the directional checks; a
    // `--env` schedule from the config rides along as an extra charted
    // row (observational — an arbitrary user schedule need not satisfy
    // the re-convergence checks).
    let mut schedules = vec![(flip, true), (reset, true)];
    if let Some(custom) = cfg.env {
        if custom != flip && custom != reset {
            schedules.push((custom, false));
        }
    }

    let mut table = Table::new([
        "schedule",
        "ell",
        "resolved",
        "mean reconverge",
        "median reconverge",
        "dwell frac",
    ]);
    let mut always_disrupts_settled_runs = true;
    let mut majority_resolves = true;
    let mut clocks_in_range = true;
    let mut dwell_dominates = true;
    for (which, &(env, checked)) in schedules.iter().enumerate() {
        let env = &env;
        for &ell in &ells {
            let voter = Voter::new(ell).expect("valid sample size");
            let seed = cfg.seed ^ ((ell as u64) << 4) ^ ((which as u64) << 12);
            let runs: Vec<EnvRunStats> =
                replicate_observed(reps, seed, cfg.threads, obs, |mut rng, _| {
                    let start = Configuration::all_wrong(n, Opinion::One);
                    let mut sim = AggregateSim::new(&voter, start).expect("valid");
                    run_env_observed(&mut sim, env, &mut rng, horizon, obs)
                });

            let settled_first =
                runs.iter().filter(|s| s.first_consensus.is_some_and(|t| t <= disrupt_at)).count();
            let clocks: Vec<f64> =
                runs.iter().flat_map(|s| s.reconverge.iter().map(|&r| r as f64)).collect();
            let resolved = runs.iter().filter(|s| !s.reconverge.is_empty()).count();
            let dwell = runs.iter().map(EnvRunStats::dwell_fraction).sum::<f64>() / reps as f64;
            if checked {
                always_disrupts_settled_runs &= settled_first * 2 >= reps;
                majority_resolves &= resolved * 2 >= reps;
                clocks_in_range &=
                    clocks.iter().all(|&c| c >= 1.0 && c <= (horizon - disrupt_at) as f64);
                dwell_dominates &= dwell > 0.3;
            }

            let (mean_s, median_s) = match Summary::from_samples(&clocks) {
                Some(s) => (fmt_num(s.mean()), fmt_num(s.median())),
                None => ("-".to_string(), "-".to_string()),
            };
            table.row([
                env.fingerprint(),
                ell.to_string(),
                format!("{resolved}/{reps}"),
                mean_s,
                median_s,
                fmt_num(dwell),
            ]);
        }
    }
    report.add_table(
        format!("n = {n}, disruption at boundary {disrupt_at}, horizon {horizon}"),
        table,
    );

    // The same flip disruption through the replicated convergence path —
    // what `run e19 --checkpoint-dir D` exercises end to end: env-perturbed
    // batches checkpoint under their own `conv+env[…]` kind, so cached
    // static outcomes never splice in on `--resume`.
    let mut batch_table = Table::new(["ell", "converged frac", "mean first consensus"]);
    let mut batches_converge = true;
    for &ell in &ells {
        let voter = Voter::new(ell).expect("valid sample size");
        let start = Configuration::all_wrong(n, Opinion::One);
        let batch = measure_convergence_env_observed(
            obs,
            &flip,
            &voter,
            start,
            reps,
            horizon,
            cfg.seed ^ 0xE19 ^ ((ell as u64) << 20),
            cfg.threads,
        );
        batches_converge &= batch.converged_fraction() >= 0.9;
        let mean = batch.censored_summary().map_or(f64::NAN, |s| s.mean());
        batch_table.row([ell.to_string(), fmt_num(batch.converged_fraction()), fmt_num(mean)]);
    }
    report.add_table(
        format!("flip@{disrupt_at} through the replicated convergence batches"),
        batch_table,
    );

    report.check(
        batches_converge,
        "the replicated convergence batches reach a first consensus under \
         the flip schedule",
    );
    report.check(
        always_disrupts_settled_runs,
        "the correct consensus is established before the disruption in a \
         majority of replications (the clock measures recovery, not \
         initial convergence)",
    );
    report.check(
        majority_resolves,
        "a majority of replications re-converge within the horizon for \
         every (schedule, l) cell",
    );
    report.check(
        clocks_in_range,
        "every resolved re-convergence clock is positive and fits between \
         the disruption and the horizon",
    );
    report.check(
        dwell_dominates,
        "the system spends most boundaries at the correct consensus: \
         disruptions are transient, not absorbing",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_reconvergence_after_perturbations() {
        let report = run(&RunConfig::smoke(19), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }

    #[test]
    fn custom_env_schedule_rides_along_without_breaking_checks() {
        // A user `--env` schedule is charted observationally and must not
        // flip the directional checks.
        let env: EnvSchedule = "noise:0.05".parse().unwrap();
        let cfg = RunConfig::smoke(23).with_env(env);
        let report = run(&cfg, &Obs::none());
        assert!(report.pass, "{}", report.render());
        assert!(report.render().contains("noise:0.05"), "custom schedule is charted");
    }
}
