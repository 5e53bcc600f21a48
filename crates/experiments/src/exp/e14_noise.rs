//! **E14 — passive communication with noisy observations.**
//!
//! The model idealizes passive communication: observations are perfect.
//! This experiment quantifies what happens when each observed opinion is
//! independently misread with probability `δ`: the induced effective rule
//! (computable exactly, [`with_observation_noise`]) violates Proposition 3
//! for every `δ > 0`, the reached consensus decays, and the population is
//! pinned near the uninformative `p = 1/2` — e.g. for the noisy Voter the
//! bias polynomial becomes `F(p) = δ(1 − 2p)` with its unique interior
//! root at `1/2`.

use bitdissem_analysis::BiasPolynomial;
use bitdissem_core::channel::with_observation_noise;
use bitdissem_core::dynamics::{Minority, Voter};
use bitdissem_core::{Configuration, Opinion, Protocol, ProtocolExt};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::run::{drive, RunSpec, Stop};
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::{Summary, Table};
use std::sync::Arc;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use bitdissem_obs::{NullSink, Obs};

/// Runs experiment E14.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e14");
    let mut report = ExperimentReport::new(
        "e14",
        "observation noise destroys bit dissemination",
        "robustness probe: per-observation misreading probability delta > 0 \
         breaks Prop 3, consensus decays, and the population equilibrates \
         near p = 1/2 regardless of the source",
    );

    let n: u64 = cfg.scale.pick(256, 1024, 4096);
    let reps = cfg.scale.pick(6, 12, 24);
    let horizon = cfg.scale.pick(400u64, 1500, 5000);
    let burn_in = horizon / 2;
    let deltas = [0.0, 0.01, 0.05, 0.1, 0.25];

    let protocols: Vec<Box<dyn Protocol + Send + Sync>> =
        vec![Box::new(Voter::new(1).expect("valid")), Box::new(Minority::new(3).expect("valid"))];
    // The runs count under metrics but emit no trace events (no batch
    // header describes them).
    let quiet = obs.clone().with_sink(Arc::new(NullSink));
    let spec = RunSpec::new(horizon, Stop::Horizon, &quiet);

    let mut table =
        Table::new(["protocol", "delta", "prop3", "interior F-root", "avg correct frac (late)"]);
    let mut noisy_always_violates = true;
    let mut clean_always_absorbs = true;
    let mut pinned_near_half = true;
    for protocol in &protocols {
        for &delta in &deltas {
            let noisy = with_observation_noise(protocol, delta, n).expect("valid delta");
            let prop3_ok = noisy.check_proposition3(n).is_ok();
            if delta > 0.0 {
                noisy_always_violates &= !prop3_ok;
            }

            // Interior root of the induced bias polynomial (drift target).
            let f = BiasPolynomial::from_table(
                &noisy.to_table(n).expect("valid"),
                n,
                Protocol::name(&noisy),
            );
            let rs = bitdissem_analysis::RootStructure::analyze(&f);
            let interior: Vec<f64> =
                rs.roots().iter().copied().filter(|&r| r > 0.01 && r < 0.99).collect();
            let root_desc = if f.is_identically_zero() {
                "F=0".to_string()
            } else if interior.is_empty() {
                "-".to_string()
            } else {
                interior.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>().join(",")
            };

            // Long-run behaviour from the correct consensus.
            let late_fracs = replicate_observed(
                reps,
                cfg.seed ^ ((delta * 1e4) as u64) ^ ((protocol.sample_size() as u64) << 8),
                cfg.threads,
                obs,
                |mut rng, _| {
                    let start = Configuration::correct_consensus(n, Opinion::One);
                    let mut sim = AggregateSim::new(&noisy, start).expect("valid");
                    // The late window: the boundaries after `burn_in`.
                    let (mut t, mut acc, mut samples) = (0u64, 0.0, 0u64);
                    let mut visit = |config: Configuration| {
                        if t > burn_in {
                            acc += config.fraction_ones();
                            samples += 1;
                        }
                        t += 1;
                    };
                    drive(&mut sim, &mut rng, &spec, Some(&mut visit));
                    acc / samples as f64
                },
            );
            let avg = Summary::from_samples(&late_fracs).expect("non-empty").mean();
            if delta == 0.0 {
                clean_always_absorbs &= avg > 0.999;
            }
            if delta >= 0.05 {
                pinned_near_half &= (avg - 0.5).abs() < 0.15;
            }
            table.row([
                protocol.name(),
                fmt_num(delta),
                if prop3_ok { "ok".to_string() } else { "violated".to_string() },
                root_desc,
                fmt_num(avg),
            ]);
        }
    }
    report.add_table(format!("n = {n}, late-time window of {horizon} rounds"), table);

    report.check(noisy_always_violates, "every delta > 0 statically violates Proposition 3");
    report.check(clean_always_absorbs, "delta = 0 control: the correct consensus is absorbing");
    report.check(
        pinned_near_half,
        "delta >= 0.05 pins the long-run fraction near 1/2: the source's \
         information is lost",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_noise_destroys_dissemination() {
        let report = run(&RunConfig::smoke(71), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }

    #[test]
    fn smoke_runs_are_counted() {
        // 10 cells of 6 runs over the 400-round horizon.
        let obs = Obs::none().with_metrics();
        let _ = run(&RunConfig::smoke(42), &obs);
        let m = obs.metrics().snapshot();
        assert_eq!(m.rounds_simulated, 10 * 6 * 400);
        assert_eq!(m.opinion_samples, 5 * 6 * 400 * 256 * (1 + 3));
    }
}
