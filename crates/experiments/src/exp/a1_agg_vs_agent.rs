//! **A1 — ablation: aggregate exact-chain vs agent-level simulator.**
//!
//! The aggregate simulator is the engine's key performance decision
//! (DESIGN.md §4.1): it must be *distributionally identical* to the literal
//! agent-level model. We compare (a) one-round transition means against the
//! exact Markov expectation for both simulators, (b) full convergence-time
//! distributions, and (c) throughput.

use std::sync::Arc;
use std::time::Instant;

use bitdissem_core::dynamics::Minority;
use bitdissem_core::{Configuration, Opinion};
use bitdissem_markov::AggregateChain;
use bitdissem_sim::agent::AgentSim;
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::run::{drive, RunSpec, Simulator, Stop};
use bitdissem_sim::runner::replicate_observed;
use bitdissem_stats::table::fmt_num;
use bitdissem_stats::{Summary, Table};

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use bitdissem_obs::{NullSink, Obs};

/// Runs ablation A1.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("a1");
    let mut report = ExperimentReport::new(
        "a1",
        "ablation: aggregate exact-chain simulator vs agent-level simulator",
        "design claim: the aggregate simulator has the same law as the \
         agent-level one, at a fraction of the cost",
    );

    let n: u64 = cfg.scale.pick(64, 256, 1024);
    let reps = cfg.scale.pick(400, 2000, 8000);
    let minority = Minority::new(3).expect("valid");
    let x0 = (3 * n) / 4;
    let start = Configuration::new(n, Opinion::One, x0).expect("consistent");

    // (a) One-round transition mean vs exact expectation.
    let chain = AggregateChain::build(&minority, n, Opinion::One).expect("valid");
    let exact_mean = chain.expected_next(x0);
    let agg_next = replicate_observed(reps, cfg.seed, cfg.threads, obs, |mut rng, _| {
        let mut sim = AggregateSim::new(&minority, start).expect("valid");
        sim.step_round(&mut rng);
        sim.configuration().ones() as f64
    });
    let agent_next = replicate_observed(reps, cfg.seed ^ 1, cfg.threads, obs, |mut rng, _| {
        let mut sim = AgentSim::new(&minority, start).expect("valid");
        sim.step_round(&mut rng);
        sim.configuration().ones() as f64
    });
    let agg_s = Summary::from_samples(&agg_next).expect("non-empty");
    let agent_s = Summary::from_samples(&agent_next).expect("non-empty");
    let se = agg_s.std_dev() / (reps as f64).sqrt();

    let mut table = Table::new(["quantity", "exact", "aggregate", "agent-level"]);
    table.row([
        "E[X'] after 1 round".to_string(),
        fmt_num(exact_mean),
        fmt_num(agg_s.mean()),
        fmt_num(agent_s.mean()),
    ]);
    table.row([
        "std of X'".to_string(),
        "-".to_string(),
        fmt_num(agg_s.std_dev()),
        fmt_num(agent_s.std_dev()),
    ]);
    report.check(
        (agg_s.mean() - exact_mean).abs() < 5.0 * se + 0.5,
        "aggregate one-round mean matches the exact expectation",
    );
    report.check(
        (agent_s.mean() - exact_mean).abs() < 5.0 * se + 0.5,
        "agent-level one-round mean matches the exact expectation",
    );
    report.check(
        (agg_s.std_dev() - agent_s.std_dev()).abs() < 0.2 * agent_s.std_dev() + 0.5,
        "one-round standard deviations agree between simulators",
    );

    // (b) Convergence-time distributions (favorable start so runs are
    // short enough for the O(n*l) agent simulator).
    let conv_reps = cfg.scale.pick(60, 200, 500);
    let fav = Configuration::new(n, Opinion::One, n - 1).expect("consistent");
    // The runs count under metrics but emit no trace events (no batch
    // header describes them).
    let quiet = obs.clone().with_sink(Arc::new(NullSink));
    let spec = RunSpec::new(40 * n, Stop::Consensus, &quiet);
    let tau = |sim: &mut dyn Simulator, mut rng| {
        drive(sim, &mut rng, &spec, None).outcome().rounds_censored() as f64
    };
    let agg_tau = replicate_observed(conv_reps, cfg.seed ^ 2, cfg.threads, obs, |rng, _| {
        tau(&mut AggregateSim::new(&minority, fav).expect("valid"), rng)
    });
    let agent_tau = replicate_observed(conv_reps, cfg.seed ^ 3, cfg.threads, obs, |rng, _| {
        tau(&mut AgentSim::new(&minority, fav).expect("valid"), rng)
    });
    let at = Summary::from_samples(&agg_tau).expect("non-empty");
    let gt = Summary::from_samples(&agent_tau).expect("non-empty");
    table.row([
        "median tau (from n-1)".to_string(),
        "-".to_string(),
        fmt_num(at.median()),
        fmt_num(gt.median()),
    ]);
    let pooled_se = (at.variance() / conv_reps as f64 + gt.variance() / conv_reps as f64).sqrt();
    report.check(
        (at.mean() - gt.mean()).abs() < 5.0 * pooled_se + 1.0,
        format!(
            "convergence-time means agree: {:.2} vs {:.2} (5-sigma window)",
            at.mean(),
            gt.mean()
        ),
    );

    // (c) Throughput.
    let steps = cfg.scale.pick(2_000u64, 10_000, 50_000);
    let speed = |agent: bool| -> f64 {
        let mut rng = bitdissem_sim::rng::rng_from(cfg.seed ^ 4);
        let begin = Instant::now();
        if agent {
            let mut sim = AgentSim::new(&minority, start).expect("valid");
            for _ in 0..steps.min(2_000) {
                sim.step_round(&mut rng);
            }
            steps.min(2_000) as f64 / begin.elapsed().as_secs_f64()
        } else {
            let mut sim = AggregateSim::new(&minority, start).expect("valid");
            for _ in 0..steps {
                sim.step_round(&mut rng);
            }
            steps as f64 / begin.elapsed().as_secs_f64()
        }
    };
    let agg_rps = speed(false);
    let agent_rps = speed(true);
    table.row(["rounds/second".to_string(), "-".to_string(), fmt_num(agg_rps), fmt_num(agent_rps)]);
    report.add_table(format!("minority(3), n = {n}"), table);
    report.finding(format!(
        "aggregate speedup ~{:.0}x at n = {n} (grows linearly with n)",
        agg_rps / agent_rps.max(1e-9)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_simulators_agree() {
        let report = run(&RunConfig::smoke(53), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }
}
