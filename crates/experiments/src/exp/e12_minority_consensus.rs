//! **E12 — the Minority dynamics without a source: consensus and chaos.**
//!
//! The paper motivates Minority beyond bit dissemination: it also solves
//! plain consensus (no source) and is "significantly faster than the Voter
//! dynamics, provided that ℓ is large enough", while its "chaotic
//! behaviour is yet to be fully understood". This experiment measures
//! source-less consensus times for Minority (large ℓ), 3-Majority and
//! Voter, and quantifies the signature period-2 oscillation of Minority
//! near the balanced configuration.

use bitdissem_core::dynamics::{Majority, Minority, Voter};
use bitdissem_core::Protocol;
use bitdissem_sim::consensus::NoSourceSim;
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::{Summary, Table};

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use bitdissem_obs::Obs;

/// Runs experiment E12.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e12");
    let mut report = ExperimentReport::new(
        "e12",
        "source-less consensus and the Minority oscillation",
        "Sec. 1: with large l, Minority solves plain consensus much faster \
         than Voter; near balance it oscillates with period 2 (the chaotic \
         signature)",
    );

    let n: u64 = cfg.scale.pick(256, 4096, 16384);
    let reps = cfg.scale.pick(10, 25, 50);
    let ell = Minority::fast_sample_size(n);

    let protocols: Vec<Box<dyn Protocol + Send + Sync>> = vec![
        Box::new(Minority::new(ell).expect("valid")),
        Box::new(Majority::new(3).expect("valid")),
        Box::new(Voter::new(1).expect("valid")),
    ];

    let starts = [("balanced", n / 2), ("2:1 split", n / 3)];
    let mut table = Table::new(["protocol", "start", "median T", "frac converged"]);
    let mut minority_medians = Vec::new();
    let mut voter_medians = Vec::new();
    for protocol in &protocols {
        for &(label, ones) in &starts {
            let budget = 40 * n;
            let times = replicate_observed(
                reps,
                cfg.seed ^ ones ^ ((protocol.sample_size() as u64) << 13),
                cfg.threads,
                obs,
                |mut rng, _| {
                    let mut sim = NoSourceSim::new(protocol, n, ones).expect("valid");
                    let rounds =
                        sim.run_to_any_consensus(&mut rng, budget).map_or(budget, |(t, _)| t);
                    count_rounds(obs, rounds, protocol.sample_size(), n);
                    rounds as f64
                },
            );
            let s = Summary::from_samples(&times).expect("non-empty");
            let frac = times.iter().filter(|&&t| t < budget as f64).count() as f64 / reps as f64;
            if protocol.name().starts_with("minority") {
                minority_medians.push(s.median());
            }
            if protocol.name().starts_with("voter") {
                voter_medians.push(s.median());
            }
            table.row([protocol.name(), label.to_string(), fmt_num(s.median()), fmt_num(frac)]);
        }
    }
    report.add_table(format!("source-less consensus at n = {n} (minority l = {ell})"), table);

    let min_worst = minority_medians.iter().cloned().fold(0.0, f64::max);
    let vot_best = voter_medians.iter().cloned().fold(f64::INFINITY, f64::min);
    report.check(
        min_worst * 4.0 < vot_best,
        format!(
            "Minority (l={ell}) consensus is much faster than Voter: {min_worst:.1} vs {vot_best:.1}"
        ),
    );

    // Oscillation measurement near balance.
    let osc = replicate_observed(reps, cfg.seed ^ 0x05C1, cfg.threads, obs, |mut rng, _| {
        let mut sim =
            NoSourceSim::new(&Minority::new(ell).expect("valid"), n, n / 2 + 2).expect("valid");
        let (steps, flips) = sim.measure_oscillation(&mut rng, 60);
        count_rounds(obs, steps, ell, n);
        if steps == 0 {
            1.0 // converged immediately: treat as maximally decisive
        } else {
            flips as f64 / steps as f64
        }
    });
    let osc_summary = Summary::from_samples(&osc).expect("non-empty");
    let mut osc_table = Table::new(["quantity", "value"]);
    osc_table.row(["mean majority-side flip rate", &fmt_num(osc_summary.mean())]);
    osc_table.row(["median flip rate", &fmt_num(osc_summary.median())]);
    report.add_table("period-2 oscillation of Minority near balance", osc_table);
    report.check(
        osc_summary.median() >= 0.5,
        format!(
            "the majority side flips in at least half of the rounds near balance \
             (median flip rate {:.2})",
            osc_summary.median()
        ),
    );
    report
}

/// Adds a source-less run's rounds to `rounds_simulated`, and `ℓ·n` per
/// round to `opinion_samples`, as the solo run driver does for the
/// simulators it steps.
fn count_rounds(obs: &Obs, rounds: u64, ell: usize, n: u64) {
    if obs.metrics_on() {
        let m = obs.metrics();
        m.add_rounds(rounds);
        m.add_samples(rounds * ell as u64 * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_shows_speedup_and_oscillation() {
        let report = run(&RunConfig::smoke(47), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }

    /// Every source-less round counts, with `ℓ·n` samples, and counting
    /// leaves the report as it was.
    #[test]
    fn smoke_run_counts_its_rounds() {
        let obs = Obs::none().with_metrics();
        let counted = run(&RunConfig::smoke(42), &obs);
        assert_eq!(counted.render(), run(&RunConfig::smoke(42), &Obs::none()).render());
        let c = obs.metrics().snapshot();
        assert!(c.rounds_simulated > 0);
        assert!(c.opinion_samples >= c.rounds_simulated * 256, "at least l = 1 times n = 256");
    }
}
