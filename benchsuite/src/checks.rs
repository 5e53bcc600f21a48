//! Correctness checks on the program's outputs. Every predicate is a pure
//! function of outputs the workload already produced, so the checks run
//! outside the timed regions and can be fed doctored inputs in tests.

use bitdissem_core::dynamics::{Minority, Voter};
use bitdissem_core::{Opinion, Protocol};
use bitdissem_markov::{expected_hitting_times_sparse, SparseChain};
use bitdissem_stats::Summary;

use crate::workload::{Outputs, Pass, Workload};

/// Largest tracked truncation bound the exact workload accepts: the default
/// relative cutoff (`PMF_WINDOW_REL_EPS`). A speed-up bought by loosening
/// the cutoff fails here.
pub const MAX_TAIL_BOUND: f64 = 1e-12;

/// Runs every check of `workload` on its passes' outputs. The exact
/// references these need (Voter's expected hitting times, dense rows) are
/// computed here, after all timing, so they enter no metric.
///
/// # Panics
///
/// Panics if `passes` is empty.
#[must_use]
pub fn workload_checks(workload: Workload, passes: &[Pass]) -> Vec<Check> {
    let first = &passes[0];
    let repeat = passes.iter().all(|p| p.stats.digest == first.stats.digest);
    let mut checks =
        vec![Check::new("passes_repeat", repeat, format!("{} passes, one digest", passes.len()))];
    match &first.outputs {
        Outputs::Sim(jobs) => sim_checks(jobs, &mut checks),
        Outputs::Cross(jobs) => {
            let drift: Vec<f64> = jobs.iter().filter(|j| j.2).map(|j| j.3).collect();
            let voter: Vec<f64> = jobs.iter().filter(|j| !j.2).map(|j| j.3).collect();
            checks.push(Check::new(
                "drift_rarely_crosses",
                !drift.is_empty() && drift.iter().all(|&f| f <= 0.25),
                format!("crossed fractions {drift:?}, each must be <= 0.25"),
            ));
            checks.push(Check::new(
                "voter_crosses",
                !voter.is_empty() && voter.iter().all(|&f| f >= 0.5),
                format!("crossed fractions {voter:?}, each must be >= 0.5"),
            ));
        }
        Outputs::Exact { voter_worst: (n, worst), curves } => {
            let nf = *n as f64;
            let scaled = worst / (nf * nf.ln());
            checks.push(Check::new(
                "voter_worst_below_n_ln_n",
                scaled < 1.0,
                format!("worst E[T] / (n ln n) = {scaled:.4} at n = {n}"),
            ));
            checks.push(Check::new(
                "survival_curves_valid",
                !curves.is_empty() && curves.iter().all(|c| is_survival_curve(c)),
                format!("{} curves non-increasing in [0, 1]", curves.len()),
            ));
            let tail = first.stats.max_tail_bound;
            checks.push(Check::new(
                "tail_within_cutoff",
                tail > 0.0 && tail <= MAX_TAIL_BOUND,
                format!("max tail bound {tail:e} <= {MAX_TAIL_BOUND:e}"),
            ));
            checks.push(sparse_matches_dense());
        }
    }
    if workload == Workload::Recorded {
        let recorded: Vec<&Pass> = passes.iter().filter(|p| p.readback.is_some()).collect();
        let trace_ok = recorded.iter().all(|p| {
            let r = p.readback.expect("filtered");
            trace_complete(r.torn_tail, r.round_rows, p.stats.replica_rounds)
        });
        let ckpt_ok = recorded
            .iter()
            .all(|p| p.readback.expect("filtered").checkpoint_records == p.stats.replications);
        checks.push(Check::new(
            "trace_reads_back",
            !recorded.is_empty() && trace_ok,
            format!("{} traces: no torn tail, one round row per replica-round", recorded.len()),
        ));
        checks.push(Check::new(
            "checkpoint_complete",
            !recorded.is_empty() && ckpt_ok,
            format!("{} logs: one record per replication", recorded.len()),
        ));
    }
    checks
}

fn sim_checks(jobs: &[(u64, bool, Vec<bitdissem_sim::run::Outcome>)], checks: &mut Vec<Check>) {
    let voter_ok = jobs.iter().filter(|j| j.1).all(|j| j.2.iter().all(|o| o.is_converged()));
    checks.push(Check::new("voter_no_timeouts", voter_ok, "every Voter replica converged"));
    for (n, _, outcomes) in jobs.iter().filter(|j| j.1 && j.0 <= 8192) {
        let chain = SparseChain::build(&Voter::new(1).expect("valid"), *n, Opinion::One)
            .expect("valid protocol");
        // The all-wrong start: only the source holds the correct opinion.
        let exact = expected_hitting_times_sparse(&chain).expect("Voter absorbs").from_state(1);
        let samples: Vec<f64> = outcomes.iter().map(|o| o.rounds_censored() as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        checks.push(Check::new(
            format!("voter_mean_vs_exact_n{n}"),
            mean_within_se(&samples, exact, 5.0),
            format!("mean {mean:.1} vs exact E[T] {exact:.1}, within 5 SE"),
        ));
    }
    let minority: Vec<_> = jobs.iter().filter(|j| !j.1).collect();
    if !minority.is_empty() {
        let ok = minority.iter().all(|(n, _, outcomes)| {
            let samples: Vec<f64> = outcomes.iter().map(|o| o.rounds_censored() as f64).collect();
            let ln = (*n as f64).ln();
            median_at_most(&samples, 30.0 * ln * ln)
        });
        checks.push(Check::new("minority_fast_median", ok, "median T <= 30 (ln n)^2 at every n"));
    }
}

/// Sparse rows agree with the dense `transition_row` within each row's
/// tracked tail bound, for every state at n = 96.
fn sparse_matches_dense() -> Check {
    let n = 96;
    let protocols: [&dyn Protocol; 2] =
        [&Voter::new(1).expect("valid"), &Minority::new(3).expect("valid")];
    let ok = protocols.iter().all(|p| {
        let chain = SparseChain::build(*p, n, Opinion::One).expect("valid protocol");
        (chain.state_lo()..=chain.state_hi()).all(|x| {
            row_within_tail(
                &chain.dense_row(x),
                &chain.aggregate().transition_row(x),
                chain.tail_bound(x),
            )
        })
    });
    Check::new("sparse_rows_match_dense", ok, format!("Voter and Minority(3) at n = {n}"))
}

/// The verdict of one named check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Short identifier.
    pub name: String,
    /// Whether the outputs passed.
    pub pass: bool,
    /// The numbers the verdict rests on.
    pub detail: String,
}

impl Check {
    /// A verdict with its evidence.
    #[must_use]
    pub fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        Check { name: name.into(), pass, detail: detail.into() }
    }
}

/// The sample mean lies within `k` standard errors of `exact`.
#[must_use]
pub fn mean_within_se(samples: &[f64], exact: f64, k: f64) -> bool {
    Summary::from_samples(samples).is_some_and(|s| {
        let se = s.std_error();
        se.is_finite() && (s.mean() - exact).abs() <= k * se
    })
}

/// The sample median is at most `bound`.
#[must_use]
pub fn median_at_most(samples: &[f64], bound: f64) -> bool {
    Summary::from_samples(samples).is_some_and(|s| s.median() <= bound)
}

/// Slack for [`is_survival_curve`]: the row-mass tolerance the markov
/// crate's own tests pin. Kept row weights sum to 1 + O(1e-12) (rounding in
/// the binomial window recurrence), which lets a long curve drift above 1
/// by up to ~5.5e-10 on Voter at n = 2048.
const SURVIVAL_SLACK: f64 = 1e-9;

/// A survival curve `P(τ > t)`: every value in `[0, 1]` and never
/// increasing, up to a slack of 1e-9 (see `SURVIVAL_SLACK`).
#[must_use]
pub fn is_survival_curve(curve: &[f64]) -> bool {
    !curve.is_empty()
        && curve.iter().all(|&s| (-SURVIVAL_SLACK..=1.0 + SURVIVAL_SLACK).contains(&s))
        && curve.windows(2).all(|w| w[1] <= w[0] + SURVIVAL_SLACK)
}

/// A truncated sparse row, expanded to dense form, differs from the exact
/// dense row by no more than the row's tracked tail bound (plus
/// floating-point slack from reordered accumulation).
#[must_use]
pub fn row_within_tail(sparse: &[f64], dense: &[f64], tail: f64) -> bool {
    sparse.len() == dense.len()
        && sparse.iter().zip(dense).map(|(s, d)| (s - d).abs()).sum::<f64>() <= tail + 1e-12
}

/// A recorded trace is complete: no torn tail, and exactly one
/// `RoundCompleted` row per simulated replica-round.
#[must_use]
pub fn trace_complete(torn_tail: bool, round_rows: u64, replica_rounds: u64) -> bool {
    !torn_tail && round_rows == replica_rounds
}
