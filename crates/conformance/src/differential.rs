//! The differential conformance matrix.
//!
//! A *grid cell* is `(protocol, ℓ, n, X₀)`. For each cell the harness
//! samples every backend with its own independent seed stream and compares
//! backend pairs that are equal in law:
//!
//! * parallel law — the adjacent chain `agent` vs `aggregate`, `aggregate`
//!   vs `partial(n−1)` and `partial(n−1)` vs `batched` (the lock-step
//!   replication engine): censored consensus-time distribution (in rounds)
//!   plus the marginal `X_r` at each early checkpoint round;
//! * per-activation law — `sequential` vs `partial(1)`: censored
//!   consensus-time distribution **in activations** plus marginals at
//!   activation checkpoints (multiples of `n`);
//! * duality — coalescing-dual absorption time vs forward Voter `ℓ = 1`
//!   consensus time from the all-wrong start;
//! * exact oracle — i.i.d. draws from the sparse chain's exact law
//!   ([`crate::oracle::sample_exact`]) against each of the four parallel
//!   backends under the same KS gates, plus the deterministic
//!   sparse~dense row admission and the large-`n` drift-band envelopes.
//!
//! Every comparison is a two-sample KS test at level
//! `α = alpha_budget / #checks` (Bonferroni), so the whole matrix has
//! false-alarm probability at most `alpha_budget`. The Minority cells with
//! `ℓ ≥ 3` mostly censor at the budget (the dynamics attract `X/n = 1/2`),
//! which keeps their *time* checks degenerate-but-valid — identical laws
//! censor identically — while their marginal checks carry the real power.

use bitdissem_core::dynamics::{Minority, Voter};
use bitdissem_core::{Configuration, GTable, Opinion, ProtocolExt};
use bitdissem_sim::rng::splitmix64;
use bitdissem_stats::compare::{ks_critical_value, ks_statistic};

use bitdissem_sim::env::EnvSchedule;

use crate::backend::{
    sample_activation, sample_dual, sample_parallel, ActivationBackend, ParallelBackend, RunSamples,
};
use crate::oracle::{drift_band_check, sample_exact, sparse_dense_check};

/// How much of the matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConformScale {
    /// CI-sized: 3 cells, one `n`, ~100 replications. Seconds.
    Smoke,
    /// The acceptance grid: Voter and Minority at `ℓ ∈ {1, 3, 5}`,
    /// `n ∈ {32, 64}`, both starts. About a minute in release.
    Standard,
    /// The standard grid with more replications and an extra `n`.
    Full,
}

impl std::str::FromStr for ConformScale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "smoke" => Ok(ConformScale::Smoke),
            "standard" => Ok(ConformScale::Standard),
            "full" => Ok(ConformScale::Full),
            other => Err(format!("unknown scale '{other}' (expected smoke|standard|full)")),
        }
    }
}

impl ConformScale {
    /// Canonical name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ConformScale::Smoke => "smoke",
            ConformScale::Standard => "standard",
            ConformScale::Full => "full",
        }
    }
}

/// A protocol family of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The Voter dynamics (`g(z, k) = k/ℓ`).
    Voter,
    /// The Minority dynamics.
    Minority,
}

/// One protocol cell: family plus sample size `ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Protocol family.
    pub kind: ProtocolKind,
    /// Sample size `ℓ` (odd for Minority).
    pub ell: usize,
}

impl Cell {
    fn label(&self) -> String {
        match self.kind {
            ProtocolKind::Voter => format!("voter(l={})", self.ell),
            ProtocolKind::Minority => format!("minority(l={})", self.ell),
        }
    }

    fn table(&self, n: u64) -> GTable {
        match self.kind {
            ProtocolKind::Voter => {
                Voter::new(self.ell).expect("valid ell").to_table(n).expect("valid cell")
            }
            ProtocolKind::Minority => {
                Minority::new(self.ell).expect("valid ell").to_table(n).expect("valid cell")
            }
        }
    }
}

/// Initial configuration of a grid cell (the source holds opinion 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// Only the source is correct: `X₀ = 1`.
    AllWrong,
    /// Half the population is correct: `X₀ = n/2`.
    Half,
}

impl StartKind {
    fn label(self) -> &'static str {
        match self {
            StartKind::AllWrong => "all_wrong",
            StartKind::Half => "half",
        }
    }

    fn configuration(self, n: u64) -> Configuration {
        match self {
            StartKind::AllWrong => Configuration::all_wrong(n, Opinion::One),
            StartKind::Half => {
                Configuration::new(n, Opinion::One, n / 2).expect("n/2 is a valid count")
            }
        }
    }
}

/// The full matrix specification.
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Scale preset this config was built from.
    pub scale: ConformScale,
    /// Protocol cells.
    pub cells: Vec<Cell>,
    /// Population sizes.
    pub ns: Vec<u64>,
    /// Initial configurations (parallel-law pairs only; the activation
    /// and dual comparisons always start from all-wrong).
    pub starts: Vec<StartKind>,
    /// Replications per backend per cell.
    pub reps: usize,
    /// Round budget for parallel-law runs (activation runs get
    /// `budget · n` activations, the same number of agent updates).
    pub budget: u64,
    /// Checkpoint rounds for parallel marginals.
    pub checkpoints: Vec<u64>,
    /// Activation checkpoints as multiples of `n`.
    pub act_checkpoint_mults: Vec<u64>,
    /// Environment schedules (in `--env` grammar) the parallel backends
    /// are additionally compared under, from the first start kind. Every
    /// engine must satisfy the same perturbed law — the env section holds
    /// all four to it with the same KS gates as the static section.
    pub env_specs: Vec<String>,
    /// Population size for the drift-band oracle section (one check per
    /// protocol cell: lock-step engine steps inside exact-row envelopes).
    pub drift_n: u64,
    /// Lock-step replications per drift-band cell.
    pub drift_reps: usize,
    /// Rounds per drift-band replication.
    pub drift_rounds: u64,
    /// Total false-alarm budget, Bonferroni-split across all checks.
    pub alpha_budget: f64,
}

impl ConformConfig {
    /// The preset matrix for `scale`.
    #[must_use]
    pub fn for_scale(scale: ConformScale) -> Self {
        let voter = |ell| Cell { kind: ProtocolKind::Voter, ell };
        let minority = |ell| Cell { kind: ProtocolKind::Minority, ell };
        let common = ConformConfig {
            scale,
            cells: vec![voter(1), voter(3), voter(5), minority(1), minority(3), minority(5)],
            ns: vec![32, 64],
            starts: vec![StartKind::AllWrong, StartKind::Half],
            reps: 300,
            budget: 1500,
            checkpoints: vec![1, 2, 4],
            act_checkpoint_mults: vec![1, 2, 4],
            // A mid-run source flip (checkpoints straddle it) and steady
            // per-round opinion noise: the two qualitatively different
            // perturbations — target moves vs state diffuses.
            env_specs: vec!["flip@2".to_string(), "noise:0.01".to_string()],
            drift_n: 4096,
            drift_reps: 24,
            drift_rounds: 24,
            alpha_budget: 1e-9,
        };
        match scale {
            ConformScale::Smoke => ConformConfig {
                cells: vec![voter(1), voter(3), minority(3)],
                ns: vec![24],
                reps: 100,
                budget: 400,
                drift_n: 1024,
                drift_reps: 12,
                drift_rounds: 12,
                ..common
            },
            ConformScale::Standard => common,
            ConformScale::Full => ConformConfig {
                ns: vec![32, 64, 128],
                reps: 800,
                drift_n: 8192,
                drift_reps: 32,
                drift_rounds: 32,
                ..common
            },
        }
    }

    /// Number of checks the matrix performs — the Bonferroni divisor (the
    /// deterministic oracle checks are counted too, which only makes the
    /// per-test level more conservative).
    #[must_use]
    pub fn num_checks(&self) -> usize {
        let per_parallel_pair = 1 + self.checkpoints.len();
        // Three adjacent parallel-law pairs (agent~aggregate,
        // aggregate~partial(n−1), partial(n−1)~batched) plus the exact
        // oracle against each of the four backends.
        let parallel = self.cells.len() * self.ns.len() * self.starts.len() * 7 * per_parallel_pair;
        let activation = self.cells.len() * self.ns.len() * (1 + self.act_checkpoint_mults.len());
        let dual = self.ns.len();
        // Env section: same three adjacent pairs per schedule, first start
        // only (the unperturbed exact chain does not participate here).
        let env = self.env_specs.len() * self.cells.len() * self.ns.len() * 3 * per_parallel_pair;
        // Deterministic sparse~dense row checks per (cell, n), plus one
        // drift-band envelope check per cell at `drift_n`.
        let oracle = self.cells.len() * self.ns.len() + self.cells.len();
        parallel + activation + dual + env + oracle
    }

    /// Per-test significance level.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    #[must_use]
    pub fn per_test_alpha(&self) -> f64 {
        let n = self.num_checks();
        assert!(n > 0, "empty conformance matrix");
        self.alpha_budget / n as f64
    }
}

/// One KS comparison of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Human-readable label: `cell/n/start backendA~backendB observable`.
    pub name: String,
    /// The KS statistic `D` (NaN if undefined — counted as a failure).
    pub statistic: f64,
    /// The critical value at the per-test level.
    pub critical: f64,
    /// Sample sizes entering the test.
    pub sizes: (usize, usize),
    /// Whether the test accepts (`D ≤ critical`).
    pub pass: bool,
}

fn make_check(name: String, a: &[f64], b: &[f64], alpha: f64) -> Check {
    match ks_statistic(a, b) {
        Some(d) => {
            let critical = ks_critical_value(a.len(), b.len(), alpha);
            Check { name, statistic: d, critical, sizes: (a.len(), b.len()), pass: d <= critical }
        }
        // Fail safe: an undefined statistic (empty or non-finite sample)
        // means the harness itself is broken, never a pass.
        None => Check {
            name,
            statistic: f64::NAN,
            critical: 0.0,
            sizes: (a.len(), b.len()),
            pass: false,
        },
    }
}

/// Derives an independent seed stream per (cell, backend) label so the two
/// samples entering a KS test share no randomness.
fn stream_seed(base: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(base ^ h)
}

fn pair_checks(
    prefix: &str,
    names: (&str, &str),
    samples: (&RunSamples, &RunSamples),
    checkpoints: &[u64],
    unit: &str,
    alpha: f64,
    out: &mut Vec<Check>,
) {
    let (a_name, b_name) = names;
    let (a, b) = samples;
    out.push(make_check(format!("{prefix} {a_name}~{b_name} time"), &a.times, &b.times, alpha));
    for (c, &cp) in checkpoints.iter().enumerate() {
        out.push(make_check(
            format!("{prefix} {a_name}~{b_name} X@{cp}{unit}"),
            &a.marginals[c],
            &b.marginals[c],
            alpha,
        ));
    }
}

/// Runs the whole differential matrix. Deterministic in `seed`; every
/// backend draws from its own derived stream.
#[must_use]
pub fn run_differential(cfg: &ConformConfig, seed: u64) -> Vec<Check> {
    let alpha = cfg.per_test_alpha();
    let mut checks = Vec::with_capacity(cfg.num_checks());

    for cell in &cfg.cells {
        for &n in &cfg.ns {
            let table = cell.table(n);

            // Parallel law: agent ≡ aggregate ≡ partial(n−1) ≡ batched.
            for &start_kind in &cfg.starts {
                let start = start_kind.configuration(n);
                let prefix = format!("{}/n{}/{}", cell.label(), n, start_kind.label());
                let backends = [
                    ParallelBackend::Agent,
                    ParallelBackend::Aggregate,
                    ParallelBackend::PartialFull,
                    ParallelBackend::Batched,
                ];
                let samples: Vec<RunSamples> = backends
                    .iter()
                    .map(|b| {
                        sample_parallel(
                            *b,
                            &table,
                            start,
                            cfg.reps,
                            cfg.budget,
                            &cfg.checkpoints,
                            stream_seed(seed, &format!("{prefix}/{}", b.name())),
                            None,
                        )
                    })
                    .collect();
                for (i, j) in [(0usize, 1usize), (1, 2), (2, 3)] {
                    pair_checks(
                        &prefix,
                        (backends[i].name(), backends[j].name()),
                        (&samples[i], &samples[j]),
                        &cfg.checkpoints,
                        "r",
                        alpha,
                        &mut checks,
                    );
                }
                // Exact oracle: i.i.d. draws from the sparse chain's exact
                // law against every simulation backend — the one side of
                // these KS tests carries no implementation risk beyond the
                // chain itself, which is gated deterministically below.
                let exact = sample_exact(
                    &table,
                    start,
                    cfg.reps,
                    cfg.budget,
                    &cfg.checkpoints,
                    stream_seed(seed, &format!("{prefix}/exact")),
                );
                for (j, b) in backends.iter().enumerate() {
                    pair_checks(
                        &prefix,
                        ("exact", b.name()),
                        (&exact, &samples[j]),
                        &cfg.checkpoints,
                        "r",
                        alpha,
                        &mut checks,
                    );
                }
            }

            // Deterministic oracle admission: the ε-truncated sparse rows
            // against the dense chain, entry tolerances and tail bounds.
            checks.push(sparse_dense_check(&cell.label(), &table, n, Opinion::One));

            // Environment section: the same four parallel backends under
            // each perturbation schedule, first start only. A backend
            // whose env plumbing desynchronizes (wrong boundary, stale
            // cache after a source flip, perturbing retired replicas)
            // shifts its perturbed law and is caught by the same gates.
            if let Some(&start_kind) = cfg.starts.first() {
                let start = start_kind.configuration(n);
                for spec in &cfg.env_specs {
                    let env: EnvSchedule = spec.parse().expect("valid env spec in config");
                    let prefix =
                        format!("{}/n{}/{}/env[{spec}]", cell.label(), n, start_kind.label());
                    let backends = [
                        ParallelBackend::Agent,
                        ParallelBackend::Aggregate,
                        ParallelBackend::PartialFull,
                        ParallelBackend::Batched,
                    ];
                    let samples: Vec<RunSamples> = backends
                        .iter()
                        .map(|b| {
                            sample_parallel(
                                *b,
                                &table,
                                start,
                                cfg.reps,
                                cfg.budget,
                                &cfg.checkpoints,
                                stream_seed(seed, &format!("{prefix}/{}", b.name())),
                                Some(&env),
                            )
                        })
                        .collect();
                    for (i, j) in [(0usize, 1usize), (1, 2), (2, 3)] {
                        pair_checks(
                            &prefix,
                            (backends[i].name(), backends[j].name()),
                            (&samples[i], &samples[j]),
                            &cfg.checkpoints,
                            "r",
                            alpha,
                            &mut checks,
                        );
                    }
                }
            }

            // Per-activation law: sequential ≡ partial(1), from all-wrong,
            // compared in activations.
            let start = StartKind::AllWrong.configuration(n);
            let prefix = format!("{}/n{}/all_wrong", cell.label(), n);
            let act_budget = cfg.budget * n;
            let act_cps: Vec<u64> = cfg.act_checkpoint_mults.iter().map(|m| m * n).collect();
            let seq = sample_activation(
                ActivationBackend::Sequential,
                &table,
                start,
                cfg.reps,
                act_budget,
                &act_cps,
                stream_seed(seed, &format!("{prefix}/sequential")),
            );
            let p1 = sample_activation(
                ActivationBackend::PartialOne,
                &table,
                start,
                cfg.reps,
                act_budget,
                &act_cps,
                stream_seed(seed, &format!("{prefix}/partial(1)")),
            );
            pair_checks(
                &prefix,
                (ActivationBackend::Sequential.name(), ActivationBackend::PartialOne.name()),
                (&seq, &p1),
                &act_cps,
                "a",
                alpha,
                &mut checks,
            );
        }
    }

    // Duality: dual absorption =d forward Voter ℓ=1 consensus from
    // all-wrong, per n.
    for &n in &cfg.ns {
        let table = Cell { kind: ProtocolKind::Voter, ell: 1 }.table(n);
        let start = StartKind::AllWrong.configuration(n);
        let forward = sample_parallel(
            ParallelBackend::Aggregate,
            &table,
            start,
            cfg.reps,
            cfg.budget,
            &[],
            stream_seed(seed, &format!("dual/n{n}/forward")),
            None,
        );
        let dual =
            sample_dual(n, cfg.reps, cfg.budget, stream_seed(seed, &format!("dual/n{n}/backward")));
        checks.push(make_check(
            format!("voter(l=1)/n{n}/all_wrong dual~forward time"),
            &dual,
            &forward.times,
            alpha,
        ));
    }

    // Drift-band oracle at large n: lock-step engine trajectories inside
    // exact-row envelopes, one check per protocol cell.
    for cell in &cfg.cells {
        let table = cell.table(cfg.drift_n);
        checks.push(drift_band_check(
            &cell.label(),
            &table,
            cfg.drift_n,
            cfg.drift_reps,
            cfg.drift_rounds,
            stream_seed(seed, &format!("drift/{}", cell.label())),
        ));
    }

    debug_assert_eq!(checks.len(), cfg.num_checks(), "check count must match the Bonferroni split");
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

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
            env_specs: vec!["flip@2".to_string()],
            drift_n: 512,
            drift_reps: 6,
            drift_rounds: 6,
            alpha_budget: 1e-9,
        }
    }

    #[test]
    fn check_count_matches_enumeration() {
        for scale in [ConformScale::Smoke, ConformScale::Standard, ConformScale::Full] {
            let cfg = ConformConfig::for_scale(scale);
            let checks = if scale == ConformScale::Smoke {
                // Only the smoke matrix is cheap enough to execute here.
                run_differential(&cfg, 7).len()
            } else {
                cfg.num_checks()
            };
            assert_eq!(checks, cfg.num_checks(), "{}", scale.name());
            assert!(cfg.per_test_alpha() > 0.0);
        }
    }

    #[test]
    fn equivalent_backends_pass_the_tiny_matrix() {
        let cfg = tiny_config();
        let checks = run_differential(&cfg, 42);
        assert_eq!(checks.len(), cfg.num_checks());
        for c in &checks {
            assert!(c.pass, "{}: D={} > {}", c.name, c.statistic, c.critical);
            // The deterministic oracle checks report state/step counts, not
            // replication counts; every KS check uses the full sample.
            if !c.name.contains("sparse~dense") && !c.name.contains("drift-band") {
                assert_eq!(c.sizes, (cfg.reps, cfg.reps), "{}", c.name);
            }
        }
    }

    #[test]
    fn matrix_is_deterministic_in_the_seed() {
        let cfg = tiny_config();
        let a = run_differential(&cfg, 5);
        let b = run_differential(&cfg, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn a_corrupted_backend_is_caught() {
        // Sanity that the gate has teeth: compare the aggregate voter
        // against a *minority* sample under the voter's label. From the
        // all-wrong start the voter converges well inside the budget while
        // minority ℓ=3 is attracted to X/n = 1/2 and censors at the
        // budget, so the time distributions are nearly disjoint and must
        // reject even at the tiny per-test alpha.
        let cfg = tiny_config();
        let alpha = cfg.per_test_alpha();
        let n = 16u64;
        let voter = Cell { kind: ProtocolKind::Voter, ell: 1 }.table(n);
        let minority = Cell { kind: ProtocolKind::Minority, ell: 3 }.table(n);
        let start = StartKind::AllWrong.configuration(n);
        let a = crate::backend::sample_parallel(
            ParallelBackend::Aggregate,
            &voter,
            start,
            200,
            400,
            &[],
            1,
            None,
        );
        let b = crate::backend::sample_parallel(
            ParallelBackend::Aggregate,
            &minority,
            start,
            200,
            400,
            &[],
            2,
            None,
        );
        let check = make_check("teeth".into(), &a.times, &b.times, alpha);
        assert!(!check.pass, "D={} <= {}", check.statistic, check.critical);
    }

    #[test]
    fn all_engines_share_the_post_flip_law() {
        // A mid-run source flip moves the consensus target; every engine
        // must follow the same *post-flip* law. Checkpoints at 5, 8 and
        // 16 sit strictly after the flip at t = 3, so the marginal
        // comparisons here have power against an engine that serves a
        // stale pre-flip kernel or misses the boundary convention.
        let n = 20u64;
        let table = Cell { kind: ProtocolKind::Voter, ell: 1 }.table(n);
        let start = StartKind::Half.configuration(n);
        let env: EnvSchedule = "flip@3".parse().unwrap();
        let checkpoints = [5u64, 8, 16];
        let backends = [
            ParallelBackend::Agent,
            ParallelBackend::Aggregate,
            ParallelBackend::PartialFull,
            ParallelBackend::Batched,
        ];
        let samples: Vec<crate::backend::RunSamples> = backends
            .iter()
            .map(|b| {
                crate::backend::sample_parallel(
                    *b,
                    &table,
                    start,
                    150,
                    600,
                    &checkpoints,
                    stream_seed(33, &format!("postflip/{}", b.name())),
                    Some(&env),
                )
            })
            .collect();
        // All 6 unordered pairs, 4 observables each, Bonferroni-tight.
        let alpha = 1e-9 / 24.0;
        let mut checks = Vec::new();
        for i in 0..backends.len() {
            for j in (i + 1)..backends.len() {
                pair_checks(
                    "postflip",
                    (backends[i].name(), backends[j].name()),
                    (&samples[i], &samples[j]),
                    &checkpoints,
                    "r",
                    alpha,
                    &mut checks,
                );
            }
        }
        assert_eq!(checks.len(), 24);
        for c in &checks {
            assert!(c.pass, "{}: D={} > {}", c.name, c.statistic, c.critical);
        }
    }

    #[test]
    fn undefined_statistic_fails_safe() {
        let c = make_check("broken".into(), &[], &[1.0], 0.01);
        assert!(!c.pass);
        assert!(c.statistic.is_nan());
    }

    #[test]
    fn scale_parsing_round_trips() {
        use std::str::FromStr;
        for scale in [ConformScale::Smoke, ConformScale::Standard, ConformScale::Full] {
            assert_eq!(ConformScale::from_str(scale.name()), Ok(scale));
        }
        assert!(ConformScale::from_str("galactic").is_err());
    }
}
