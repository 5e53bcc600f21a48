//! **E9 — Proposition 3: consensus maintenance is necessary.**
//!
//! A protocol can only solve bit dissemination if `g⁰(0) = 0` and
//! `g¹(ℓ) = 1`. We check the static condition for a suite of protocols and
//! confirm the *dynamic* consequence empirically: compliant protocols stay
//! at the correct consensus forever once they reach it, while violators
//! provably leak out (consensus-exit detection), and `Stay` shows the
//! condition is not sufficient.

use bitdissem_core::dynamics::{AntiVoter, Minority, NoisyVoter, Stay, Voter};
use bitdissem_core::{Configuration, Opinion, Protocol, ProtocolExt};
use bitdissem_sim::aggregate::AggregateSim;
use bitdissem_sim::rng::rng_from;
use bitdissem_sim::run::{drive, RunSpec, RunStats, Stop};
use bitdissem_stats::Table;

use crate::config::RunConfig;
use crate::report::ExperimentReport;
use crate::workload::emit_batch_started;
use bitdissem_obs::Obs;

/// One traced dwell run of replication `rep`: a `dwell` batch header (one
/// replica), then the run's round rows and events.
fn dwell_run(
    obs: &Obs,
    protocol: &(dyn Protocol + Send + Sync),
    start: Configuration,
    budget: u64,
    dwell: u64,
    seed: u64,
    rep: u64,
) -> RunStats {
    emit_batch_started(obs, "dwell", protocol, start, 1, budget, seed);
    let mut sim = AggregateSim::new(protocol, start).expect("valid");
    let spec = RunSpec { rep, ..RunSpec::new(budget, Stop::Dwell(dwell), obs) };
    drive(&mut sim, &mut rng_from(seed), &spec, None)
}

/// Runs experiment E9.
#[must_use]
pub fn run(cfg: &RunConfig, obs: &Obs) -> ExperimentReport {
    let _scope = obs.scope("e9");
    let mut report = ExperimentReport::new(
        "e9",
        "Proposition 3: necessity of absorbing consensus",
        "Prop 3: any solving protocol has g0(0)=0 and g1(l)=1; violators \
         cannot keep a reached consensus (and Stay shows the condition is \
         not sufficient)",
    );

    let n: u64 = cfg.scale.pick(16, 32, 64);
    let dwell = cfg.scale.pick(2_000u64, 20_000, 100_000);
    let budget = cfg.scale.pick(50_000u64, 500_000, 2_000_000);

    struct Case {
        protocol: Box<dyn Protocol + Send + Sync>,
        expect_compliant: bool,
        expect_stable_if_reached: bool,
    }
    let cases = [
        Case {
            protocol: Box::new(Voter::new(1).expect("valid")),
            expect_compliant: true,
            expect_stable_if_reached: true,
        },
        Case {
            protocol: Box::new(Minority::new(3).expect("valid")),
            expect_compliant: true,
            expect_stable_if_reached: true,
        },
        Case {
            protocol: Box::new(NoisyVoter::new(1, 0.02).expect("valid")),
            expect_compliant: false,
            expect_stable_if_reached: false,
        },
        Case {
            protocol: Box::new(AntiVoter::new(3).expect("valid")),
            expect_compliant: false,
            expect_stable_if_reached: false,
        },
        Case {
            protocol: Box::new(Stay::new(1)),
            expect_compliant: true,
            // Stay never reaches consensus from a non-consensus start.
            expect_stable_if_reached: true,
        },
    ];

    let mut table = Table::new(["protocol", "prop3 static", "empirical outcome"]);
    for (case_idx, case) in cases.iter().enumerate() {
        let compliant = case.protocol.check_proposition3(n).is_ok();
        report.check(
            compliant == case.expect_compliant,
            format!(
                "{}: static Prop-3 check = {}",
                case.protocol.name(),
                if compliant { "compliant" } else { "violated" }
            ),
        );

        // Start AT the correct consensus: the dynamic content of Prop 3 is
        // that compliant protocols keep it forever, violators leak out.
        let start = Configuration::correct_consensus(n, Opinion::One);
        // Observed: dwell rounds enter the metrics and a consensus loss
        // emits a ConsensusExited trace event (one rep per protocol case).
        let stats = dwell_run(
            obs,
            case.protocol.as_ref(),
            start,
            budget,
            dwell,
            cfg.seed ^ 0x9999,
            case_idx as u64,
        );
        let (desc, dynamic_ok) = match (stats.first_consensus, stats.exited) {
            (Some(entered), None) => {
                (format!("stable (entered at {entered})"), case.expect_stable_if_reached)
            }
            (Some(entered), Some(exited)) => (
                format!("exited (entered {entered}, exited {exited})"),
                !case.expect_stable_if_reached,
            ),
            // Impossible when starting at consensus.
            (None, _) => ("never reached".to_string(), false),
        };
        report.check(dynamic_ok, format!("{}: {desc}", case.protocol.name()));
        table.row([
            case.protocol.name(),
            if compliant { "ok".to_string() } else { "violated".to_string() },
            desc,
        ]);
    }
    report.add_table(format!("n = {n}, dwell = {dwell} rounds"), table);

    // Stay: Prop 3 compliant yet never converges — the condition is
    // necessary, not sufficient.
    let start = Configuration::new(n, Opinion::One, n / 2).expect("consistent");
    let stats =
        dwell_run(obs, &Stay::new(1), start, 1_000, 10, cfg.seed ^ 0xAAAA, cases.len() as u64);
    report.check(
        stats.first_consensus.is_none(),
        "Stay is compliant but never converges from a mixed start: Prop 3 is \
         necessary, not sufficient",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_validates_prop3_both_ways() {
        let report = run(&RunConfig::smoke(37), &Obs::none());
        assert!(report.pass, "{}", report.render());
    }

    /// Each dwell run opens its own one-replica batch, so its rows never
    /// fall into the batch traced before it (here an e7-style `conv`
    /// batch of Voter, whose Prop-4/5 checks would run over them).
    #[test]
    fn dwell_runs_trace_as_their_own_batches() {
        use crate::trace::analyze;
        use crate::workload::measure_convergence_observed;
        use bitdissem_obs::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _);
        let voter = Voter::new(1).expect("valid");
        let start = Configuration::all_wrong(32, Opinion::One);
        let _ = measure_convergence_observed(&obs, &voter, start, 10, 100_000, 7, Some(1));
        let _ = run(&RunConfig::smoke(42), &obs);

        let analysis = analyze(&sink.events());
        let batches: Vec<_> = analysis
            .batches
            .iter()
            .map(|b| {
                let meta = b.meta.as_ref().expect("every batch has a header");
                (meta.kind.as_str(), meta.protocol.as_str(), meta.reps, b.replications)
            })
            .collect();
        assert_eq!(batches[0], ("conv", "voter(l=1)", 10, 10), "{}", analysis.render());
        assert_eq!(
            batches[1..],
            [
                ("dwell", "voter(l=1)", 1, 1),
                ("dwell", "minority(l=3)", 1, 1),
                ("dwell", "noisy-voter(l=1, eps=0.02)", 1, 1),
                ("dwell", "anti-voter(l=3)", 1, 1),
                ("dwell", "stay(l=1)", 1, 1),
                ("dwell", "stay(l=1)", 1, 1),
            ]
        );
    }
}
