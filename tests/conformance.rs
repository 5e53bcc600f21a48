//! End-to-end conformance harness exercise: a hand-built tiny differential
//! matrix passes its KS gates, every fault scenario resumes bit-identically,
//! and the report survives a disk round trip — the same path `bitdissem
//! conform` drives, without the CLI in the way.

use bitdissem_conformance::{
    run_differential, run_fault_scenarios, Cell, ConformConfig, ConformReport, ConformScale,
    ProtocolKind, StartKind, CONFORM_SCHEMA_VERSION,
};

/// A matrix small enough for CI's debug profile: one voter cell and one
/// minority cell at a single population size, parallel-law checks only at
/// two checkpoint rounds.
fn tiny_config() -> ConformConfig {
    ConformConfig {
        scale: ConformScale::Smoke,
        cells: vec![
            Cell { kind: ProtocolKind::Voter, ell: 1 },
            Cell { kind: ProtocolKind::Minority, ell: 3 },
        ],
        ns: vec![16],
        starts: vec![StartKind::AllWrong],
        reps: 60,
        budget: 200,
        checkpoints: vec![1, 2],
        act_checkpoint_mults: vec![1, 2],
        drift_n: 512,
        drift_reps: 6,
        drift_rounds: 6,
        alpha_budget: 1e-9,
        env_specs: vec!["flip@2".to_string()],
    }
}

#[test]
fn tiny_matrix_passes_and_reports_round_trip() {
    let cfg = tiny_config();
    let seed = 20_260_806;
    let checks = run_differential(&cfg, seed);
    assert_eq!(checks.len(), cfg.num_checks());
    for c in &checks {
        assert!(
            c.pass,
            "{}: D = {:.4} > critical {:.4} (sizes {:?})",
            c.name, c.statistic, c.critical, c.sizes
        );
        assert!(c.statistic.is_finite(), "{}: undefined statistic", c.name);
    }
    // Every equivalence family appears in the matrix.
    for needle in
        ["agent~aggregate", "aggregate~partial(n-1)", "sequential~partial(1)", "dual~forward"]
    {
        assert!(
            checks.iter().any(|c| c.name.contains(needle)),
            "no check exercises the '{needle}' equivalence"
        );
    }

    let dir = std::env::temp_dir().join(format!("conform_integration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let faults = run_fault_scenarios(&dir.join("faults"), seed);
    assert_eq!(faults.len(), 5);
    for f in &faults {
        assert!(f.pass, "fault scenario {}: {}", f.scenario, f.detail);
    }

    let report = ConformReport {
        schema_version: CONFORM_SCHEMA_VERSION,
        label: "integration".to_string(),
        scale: cfg.scale.name().to_string(),
        seed,
        alpha_budget: cfg.alpha_budget,
        checks,
        faults,
    };
    assert!(report.pass());
    let path = report.save(&dir).unwrap();
    let loaded = ConformReport::load(&path).unwrap();
    assert_eq!(loaded, report);
    assert!(loaded.pass());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gate_rejects_genuinely_different_laws() {
    // The KS gate must be able to reject when laws genuinely differ, or a
    // green report means nothing: compare voter ℓ=1 consensus times against
    // minority ℓ=3 from the all-wrong start. Voter converges well inside
    // the budget; minority is attracted to the n/2 fixed point and censors
    // at it — nearly disjoint distributions at the conformance alpha.
    use bitdissem_conformance::backend::{sample_parallel, ParallelBackend};
    use bitdissem_core::dynamics::{Minority, Voter};
    use bitdissem_core::{Configuration, Opinion, ProtocolExt};
    use bitdissem_stats::compare::{ks_critical_value, ks_statistic};

    let n = 16u64;
    let reps = 200;
    let budget = 400;
    let start = Configuration::all_wrong(n, Opinion::One);
    let voter = Voter::new(1).unwrap().to_table(n).unwrap();
    let minority = Minority::new(3).unwrap().to_table(n).unwrap();
    let a = sample_parallel(ParallelBackend::Aggregate, &voter, start, reps, budget, &[], 1, None);
    let b =
        sample_parallel(ParallelBackend::Aggregate, &minority, start, reps, budget, &[], 2, None);
    let d = ks_statistic(&a.times, &b.times).expect("defined statistic");
    let crit = ks_critical_value(reps, reps, tiny_config().per_test_alpha());
    assert!(d > crit, "gate failed to separate voter from minority: D = {d:.4} <= {crit:.4}");
}
