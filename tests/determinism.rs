//! Whole-harness determinism: experiment reports are bit-for-bit
//! reproducible for a fixed seed, independent of thread scheduling —
//! the property that makes EXPERIMENTS.md regenerable.

use bitdissem_experiments::{registry, RunConfig, Scale};

fn render(id: &str, threads: Option<usize>, seed: u64) -> String {
    let cfg = RunConfig { scale: Scale::Smoke, seed, threads, env: None };
    registry::run(id, &cfg).expect("known id").render()
}

#[test]
fn cheap_experiments_are_bitwise_deterministic() {
    // The cheapest experiments across the harness's different code paths:
    // pure analysis (e5), exact solvers (e15, e16, e17), and sampling-based
    // with the threaded runner (e8).
    for id in ["e5", "e15", "e16", "e17", "e8"] {
        let a = render(id, Some(1), 99);
        let b = render(id, Some(1), 99);
        assert_eq!(a, b, "{id}: same seed must reproduce the report exactly");
    }
}

#[test]
fn thread_count_does_not_change_results() {
    for id in ["e8", "e5"] {
        let single = render(id, Some(1), 7);
        let multi = render(id, Some(8), 7);
        assert_eq!(single, multi, "{id}: results must not depend on scheduling");
    }
}

#[test]
fn different_seeds_change_sampled_results_but_not_exact_ones() {
    // Sampling-based experiment: tables differ across seeds.
    let a = render("e8", Some(2), 1);
    let b = render("e8", Some(2), 2);
    assert_ne!(a, b, "e8 is sampling-based; different seeds must differ");
    // Exact-solver experiment: the numbers are seed-independent (only the
    // synthesized-search start perturbations use the seed in e16's case —
    // e16 uses no randomness at all).
    let a = render("e16", Some(2), 1);
    let b = render("e16", Some(2), 2);
    assert_eq!(a, b, "e16 is exact; seeds must not matter");
}

/// FNV-1a digests of the `run e1` to `run e4` reports at `--scale smoke
/// --seed 42`. E1 is the threshold-crossing sweep (lock-step batches whose
/// replicas retire at the witness threshold), e2 Voter convergence on the
/// lock-step engine, e3 and e4 fast Minority with `ℓ` near `√(n ln n)`,
/// the only smoke reports whose kernels are own-independent and of large
/// degree; no report prints a wall-clock figure. Run under
/// `BITDISSEM_POOL_WORKERS` = 1, 2 and 8, the pins hold across pool sizes.
/// E4's rows with `ℓ` = 33 and 38 start from the Theorem-12 witness's Case-1
/// state since the witness reads `F_n`'s Bernstein form (they started from
/// the voter-like `0.625n` before).
const E1_SMOKE_SEED42: u64 = 15_974_778_037_371_528_721;
const E2_SMOKE_SEED42: u64 = 15_035_177_343_551_147_721;
const E3_SMOKE_SEED42: u64 = 11_873_062_211_824_504_307;
const E4_SMOKE_SEED42: u64 = 5_475_399_545_658_599_184;

/// FNV-1a digests of the `run e9`, `e11`, `e18` and `e19` reports at
/// `--scale smoke --seed 42`: the four experiments that step a solo
/// simulator through `sim::run` (E9's dwell windows, E11's sequential
/// sweep, E18's partial-synchrony runs, E19's fixed-horizon env runs).
/// E11's smoke cells run 15 replicas (5 before, which left its gap check
/// to noise at this seed).
const E9_SMOKE_SEED42: u64 = 6_477_680_629_417_547_985;
const E11_SMOKE_SEED42: u64 = 15_705_730_019_740_216_471;
const E18_SMOKE_SEED42: u64 = 12_420_375_032_716_134_849;
const E19_SMOKE_SEED42: u64 = 15_301_677_236_914_643_657;

/// FNV-1a digests of the `run e8` and `e14` reports at `--scale smoke
/// --seed 42`: E8's one-round jumps and trajectories and E14's noisy runs
/// step their simulators through `sim::run::drive` under `Stop::Horizon`.
const E8_SMOKE_SEED42: u64 = 8_393_858_928_446_317_017;
const E14_SMOKE_SEED42: u64 = 1_796_715_939_992_670_991;

/// FNV-1a digest of the `run e12` report at `--scale smoke --seed 42`:
/// E12's source-less runs step a `NoSourceSim` by hand.
const E12_SMOKE_SEED42: u64 = 18_114_708_288_891_486_224;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn assert_smoke_pins(pins: &[(&str, u64)]) {
    for &(id, pin) in pins {
        let report = registry::run(id, &RunConfig::smoke(42)).expect("known id").render();
        let digest = fnv1a(report.as_bytes());
        assert_eq!(digest, pin, "{id} report (digest {digest}):\n{report}");
    }
}

#[test]
fn smoke_reports_of_e1_and_e2_are_pinned() {
    assert_smoke_pins(&[("e1", E1_SMOKE_SEED42), ("e2", E2_SMOKE_SEED42)]);
}

#[test]
fn smoke_reports_of_e3_and_e4_are_pinned() {
    assert_smoke_pins(&[("e3", E3_SMOKE_SEED42), ("e4", E4_SMOKE_SEED42)]);
}

#[test]
fn smoke_reports_of_the_solo_run_experiments_are_pinned() {
    assert_smoke_pins(&[
        ("e9", E9_SMOKE_SEED42),
        ("e11", E11_SMOKE_SEED42),
        ("e18", E18_SMOKE_SEED42),
        ("e19", E19_SMOKE_SEED42),
    ]);
}

#[test]
fn smoke_reports_of_e8_and_e14_are_pinned() {
    assert_smoke_pins(&[("e8", E8_SMOKE_SEED42), ("e14", E14_SMOKE_SEED42)]);
}

#[test]
fn smoke_report_of_e12_is_pinned() {
    assert_smoke_pins(&[("e12", E12_SMOKE_SEED42)]);
}
