//! **E18 — how much synchronicity does the fast regime need?**
//!
//! The paper's headline contrast — and the title of \[15\] ("the power of
//! synchronicity") — is that the fully parallel Minority dynamics with a
//! large sample is exponentially faster than any sequential protocol. This
//! experiment interpolates between the two settings with the
//! partial-synchrony scheduler (`m` simultaneous activations per step,
//! times normalized to parallel rounds) and maps where the fast regime
//! dies: the poly-log convergence of Minority survives only while the
//! activated batch is a large fraction of the population.

use std::sync::Arc;

use bitdissem_core::dynamics::Minority;
use bitdissem_core::{Configuration, Opinion};
use bitdissem_sim::partial::PartialSim;
use bitdissem_sim::run::{drive, RunSpec, Stop};
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::{Summary, Table};

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use bitdissem_obs::{NullSink, Obs};

/// Runs experiment E18.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e18");
    let mut report = ExperimentReport::new(
        "e18",
        "partial synchrony: interpolating the parallel and sequential settings",
        "[15]'s 'power of synchronicity': Minority with a large sample is \
         poly-log in the parallel setting but Omega(n) sequentially; the \
         batch-size sweep shows where the fast regime collapses",
    );

    let n: u64 = cfg.scale.pick(128, 1024, 4096);
    let reps = cfg.scale.pick(6, 12, 24);
    let ell = Minority::fast_sample_size(n);
    let minority = Minority::new(ell).expect("valid");
    let start = Configuration::all_wrong(n, Opinion::One);
    let polylog = (n as f64).ln().powi(2);
    let budget = cfg.scale.pick(8, 16, 16) * n; // parallel rounds

    // Batch sizes: powers of 4 plus dense fractions near full synchrony
    // (the collapse sits between 1/4 and 1 of the population).
    let mut batches: Vec<u64> = Vec::new();
    let mut m = 1u64;
    while m < n - 1 {
        batches.push(m);
        m *= 4;
    }
    for frac in [0.5, 0.75, 0.9] {
        let b = ((n - 1) as f64 * frac) as u64;
        if !batches.contains(&b) && b < n - 1 {
            batches.push(b);
        }
    }
    batches.push(n - 1);
    batches.sort_unstable();
    batches.dedup();

    let mut table =
        Table::new(["m (batch)", "m/(n-1)", "median T (rounds)", "frac converged", "regime"]);
    let mut fast_at_full = false;
    let mut slow_at_unit = false;
    let mut last_fast_fraction: Option<f64> = None;
    // The runs count under metrics but emit no trace events (no batch
    // header describes them).
    let quiet = obs.clone().with_sink(Arc::new(NullSink));
    let spec = RunSpec::new(budget, Stop::Consensus, &quiet);
    for &batch in &batches {
        let times = replicate_observed(
            reps,
            cfg.seed ^ batch.rotate_left(23),
            cfg.threads,
            obs,
            |mut rng, _| {
                let mut sim = PartialSim::new(&minority, start, batch).expect("valid");
                drive(&mut sim, &mut rng, &spec, None).outcome().rounds_censored() as f64
            },
        );
        let s = Summary::from_samples(&times).expect("non-empty");
        let frac = times.iter().filter(|&&t| t < budget as f64).count() as f64 / reps as f64;
        let fast = s.median() <= 30.0 * polylog && frac > 0.5;
        if batch == n - 1 {
            fast_at_full = fast;
        }
        if batch == 1 {
            slow_at_unit = s.median() >= n as f64 / 8.0;
        }
        if fast {
            let f = batch as f64 / (n - 1) as f64;
            last_fast_fraction = Some(last_fast_fraction.map_or(f, |g: f64| g.min(f)));
        }
        table.row([
            batch.to_string(),
            fmt_num(batch as f64 / (n - 1) as f64),
            fmt_num(s.median()),
            fmt_num(frac),
            if fast { "fast".to_string() } else { "slow".to_string() },
        ]);
    }
    report.add_table(
        format!("Minority(l={ell}) at n = {n}, batch-size sweep (budget {budget} rounds)"),
        table,
    );

    report.check(fast_at_full, "full synchrony (m = n-1) is in the poly-log regime");
    report
        .check(slow_at_unit, "unit batches (the sequential setting) are Omega(n), as [14] proves");
    match last_fast_fraction {
        Some(f) => report.finding(format!(
            "smallest observed fast batch fraction: m/(n-1) ~ {f:.3} — synchronicity \
             is load-bearing for the [15] speedup"
        )),
        None => report.check(false, "no fast regime found at any batch size"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_synchronicity_matters() {
        let report = run(&RunConfig::smoke(89), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }

    /// The partial-synchrony runs count under `--metrics`: ℓ·n samples
    /// per round, ℓ = 25 at n = 128.
    #[test]
    fn smoke_runs_are_counted() {
        let obs = Obs::none().with_metrics();
        let _ = run(&RunConfig::smoke(42), &obs);
        let m = obs.metrics().snapshot();
        assert!(m.rounds_simulated > 0);
        assert_eq!(m.opinion_samples, 25 * 128 * m.rounds_simulated);
    }
}
