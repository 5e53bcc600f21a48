//! The exact Markov chain as a conformance oracle.
//!
//! The sparse chain ([`SparseChain`]) computes the *law* of the parallel
//! process with no sampling error, which admits three qualitatively
//! different gates against the simulator family:
//!
//! * [`sample_exact`] — i.i.d. draws from the exact censored consensus-time
//!   distribution and the exact checkpoint marginals, shaped as
//!   [`RunSamples`] so the differential harness can KS-compare the exact
//!   law against every simulation backend with the same Bonferroni-split
//!   gates (medium `n`);
//! * [`sparse_dense_check`] — a deterministic row-by-row comparison of the
//!   ε-truncated operator against the dense [`AggregateChain`](bitdissem_markov::chain::AggregateChain) rows: stored
//!   entries must agree to the truncation cutoff and the dropped mass must
//!   stay within each row's tracked tail bound (small `n`);
//! * [`drift_band_check`] — a Proposition-5-style envelope gate at large
//!   `n`, where dense comparison and KS replication are both infeasible:
//!   every one-round step observed in lock-step engine trajectories must
//!   land inside the ε-support of the exact transition row of its source
//!   state.
//!   A correct engine violates the band with probability at most
//!   `Σ tail(x)` over the observed steps (≈ `pairs × rel_eps`-scale), so a
//!   violation is overwhelming evidence of a law mismatch.

use std::sync::Arc;

use bitdissem_core::{Configuration, GTable, Opinion};
use bitdissem_markov::SparseChain;
use bitdissem_sim::lockstep::LockstepSim;
use bitdissem_sim::rng::{replication_seed, splitmix64};

use crate::backend::RunSamples;
use crate::differential::Check;

/// A uniform in `[0, 1)` from one more SplitMix64 scramble of `x` (53
/// mantissa bits).
fn u01(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Inverse-CDF draw from a discrete distribution given by `weights` (not
/// necessarily perfectly normalized — any residual mass goes to the last
/// index, matching censoring semantics).
fn inverse_cdf(weights: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// Draws `reps` i.i.d. samples from the **exact** law of the parallel
/// process: censored consensus times from the exact hitting-time
/// distribution and `X_t` values from the exact checkpoint marginals,
/// shaped as [`RunSamples`] for the differential harness.
///
/// The exact distribution is advanced through the ε-truncated sparse rows;
/// at the conformance grid sizes the truncation leaks at most
/// `budget × max_tail_bound` (≈ 1e-9 of mass at the default cutoff), far
/// below KS resolution at any feasible replication count.
///
/// Unlike the simulation drivers the observables are drawn independently of
/// each other — the harness only ever compares one observable at a time, so
/// the joint law across observables is irrelevant.
///
/// # Panics
///
/// Panics if the table cannot be materialized for `start.n()` or the start
/// state lies outside the chain's valid range.
#[must_use]
pub fn sample_exact(
    table: &GTable,
    start: Configuration,
    reps: usize,
    budget: u64,
    checkpoints: &[u64],
    seed: u64,
) -> RunSamples {
    let n = start.n();
    let chain = SparseChain::build(table, n, start.correct()).expect("valid grid cell");
    let lo = chain.state_lo();
    let m = chain.num_states();
    let target_i = (chain.target() - lo) as usize;
    let x0_i = (start.ones() - lo) as usize;
    let mut dist = vec![0.0; m];
    dist[x0_i] = 1.0;
    let mut next = vec![0.0; m];
    // time_cdf[t] = P(τ ≤ t): the absorbed mass after t rounds (the target
    // row is a self-loop, so absorbed mass accumulates in place).
    let mut time_cdf = Vec::with_capacity(budget as usize + 1);
    let mut cp_dists: Vec<Vec<f64>> = Vec::with_capacity(checkpoints.len());
    for t in 0..=budget {
        if checkpoints.contains(&t) {
            cp_dists.push(dist.clone());
        }
        time_cdf.push(dist[target_i]);
        if t == budget {
            break;
        }
        next.fill(0.0);
        for (i, &w) in dist.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let (row_abs_lo, row) = chain.row(lo + i as u64);
            let base = (row_abs_lo - lo) as usize;
            for (slot, &p) in next[base..base + row.len()].iter_mut().zip(row) {
                *slot += w * p;
            }
        }
        std::mem::swap(&mut dist, &mut next);
    }

    // Censored time draws: smallest t with P(τ ≤ t) > u, else the budget.
    let time_seed = replication_seed(seed, u64::MAX);
    let times: Vec<f64> = (0..reps)
        .map(|rep| {
            let u = u01(replication_seed(time_seed, rep as u64));
            time_cdf.iter().position(|&c| u < c).unwrap_or(budget as usize) as f64
        })
        .collect();

    // Checkpoint marginal draws, one independent stream per checkpoint.
    let marginals: Vec<Vec<f64>> = cp_dists
        .iter()
        .enumerate()
        .map(|(c, d)| {
            let cp_seed = replication_seed(seed, c as u64);
            (0..reps)
                .map(|rep| {
                    let u = u01(replication_seed(cp_seed, rep as u64));
                    (lo + inverse_cdf(d, u) as u64) as f64
                })
                .collect()
        })
        .collect();

    RunSamples { marginals, times }
}

/// Deterministic sparse-vs-dense row conformance at small `n`.
///
/// Every stored sparse entry must match the dense
/// [`AggregateChain`](bitdissem_markov::chain::AggregateChain) row to
/// within twice the truncation cutoff (relative to the row's peak — the
/// stored values and the dense convolution are the same quantity evaluated
/// along different floating-point paths), and the dense mass at dropped
/// positions must not exceed the row's tracked tail bound. The returned
/// [`Check`] reports the worst normalized violation as its statistic with a
/// critical value of 1.
///
/// # Panics
///
/// Panics if the table cannot be materialized at `n`.
#[must_use]
pub fn sparse_dense_check(label: &str, table: &GTable, n: u64, correct: Opinion) -> Check {
    let chain = SparseChain::build(table, n, correct).expect("valid grid cell");
    let agg = chain.aggregate();
    let mut worst = 0.0f64;
    for x in chain.state_lo()..=chain.state_hi() {
        let sparse = chain.dense_row(x);
        let dense = agg.transition_row(x);
        let peak = dense.iter().cloned().fold(0.0, f64::max);
        let entry_tol = 2.0 * chain.rel_eps() * peak;
        // Dropped mass must fit under the tracked tail bound; a hair of
        // slack absorbs the summation order difference.
        let tail_allow = chain.tail_bound(x) * (1.0 + 1e-9) + 1e-300;
        let mut dropped = 0.0;
        for (&s, &d) in sparse.iter().zip(&dense) {
            if s == 0.0 && d > 0.0 {
                dropped += d;
            } else {
                worst = worst.max((s - d).abs() / entry_tol);
            }
        }
        worst = worst.max(dropped / tail_allow);
    }
    Check {
        name: format!("{label}/n{n} exact sparse~dense rows"),
        statistic: worst,
        critical: 1.0,
        sizes: (chain.num_states(), chain.num_states()),
        pass: worst.is_finite() && worst <= 1.0,
    }
}

/// Drift-band oracle at large `n`: lock-step engine trajectories against
/// the ε-support envelopes of the exact transition rows.
///
/// Runs `reps` lock-step replications from the half-correct start for
/// `rounds` rounds and checks that every observed one-round transition
/// `X_t → X_{t+1}` lands inside the stored support of the exact sparse row
/// of `X_t`. The statistic is the number of violating steps (critical 0.5,
/// i.e. any violation fails): under the true law a step escapes the
/// ε-support with probability at most the row's tail bound (≈ 1e-13), so
/// across all observed steps the false-alarm mass stays far below the
/// harness budget, while an engine whose one-step law drifts even slightly
/// at `n` in the thousands lands outside the `O(√(n log 1/ε))`-wide band
/// almost immediately.
///
/// # Panics
///
/// Panics if the table cannot be materialized at `n` or the kernel cannot
/// be compiled.
#[must_use]
pub fn drift_band_check(
    label: &str,
    table: &GTable,
    n: u64,
    reps: usize,
    rounds: u64,
    seed: u64,
) -> Check {
    let chain = SparseChain::build(table, n, Opinion::One).expect("valid grid cell");
    let start = Configuration::new(n, Opinion::One, n / 2).expect("n/2 is a valid count");
    let kernel = Arc::new(table.compile().expect("valid grid cell"));
    let seeds: Vec<u64> = (0..reps).map(|rep| replication_seed(seed, rep as u64)).collect();
    let mut batch = LockstepSim::new(kernel, start, &seeds);
    let mut prev: Vec<u64> = (0..reps).map(|rep| batch.ones_of(rep)).collect();
    let mut pairs = 0usize;
    let mut violations = 0usize;
    for _ in 0..rounds {
        if batch.live() == 0 {
            break;
        }
        batch.step_round();
        for (rep, p) in prev.iter_mut().enumerate() {
            let x1 = batch.ones_of(rep);
            let (row_abs_lo, row) = chain.row(*p);
            pairs += 1;
            if x1 < row_abs_lo || x1 >= row_abs_lo + row.len() as u64 {
                violations += 1;
            }
            *p = x1;
        }
    }
    Check {
        name: format!("{label}/n{n} exact drift-band batched"),
        statistic: violations as f64,
        critical: 0.5,
        sizes: (pairs, pairs),
        pass: violations == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{Minority, Voter};
    use bitdissem_core::ProtocolExt;
    use bitdissem_markov::chain::AggregateChain;

    fn voter_table(n: u64) -> GTable {
        Voter::new(1).unwrap().to_table(n).unwrap()
    }

    #[test]
    fn exact_samples_have_the_right_shape() {
        let n = 16;
        let start = Configuration::all_wrong(n, Opinion::One);
        let s = sample_exact(&voter_table(n), start, 50, 200, &[1, 2, 4], 9);
        assert_eq!(s.times.len(), 50);
        assert_eq!(s.marginals.len(), 3);
        assert!(s.marginals.iter().all(|m| m.len() == 50));
        // Times are in [0, budget]; marginals are valid states.
        assert!(s.times.iter().all(|&t| (0.0..=200.0).contains(&t)));
        assert!(s.marginals.iter().flatten().all(|&x| (1.0..=16.0).contains(&x)));
    }

    #[test]
    fn exact_sampling_is_deterministic_and_seed_sensitive() {
        let n = 12;
        let start = Configuration::all_wrong(n, Opinion::One);
        let a = sample_exact(&voter_table(n), start, 40, 150, &[2], 5);
        let b = sample_exact(&voter_table(n), start, 40, 150, &[2], 5);
        assert_eq!(a.times, b.times);
        assert_eq!(a.marginals, b.marginals);
        let c = sample_exact(&voter_table(n), start, 40, 150, &[2], 6);
        assert_ne!(a.times, c.times);
    }

    #[test]
    fn exact_mean_time_matches_hitting_expectation() {
        // The empirical mean of many exact draws must approach the exact
        // expected hitting time (the draws come from the true law).
        let n = 16;
        let chain = AggregateChain::build(&Voter::new(1).unwrap(), n, Opinion::One).unwrap();
        let expect = bitdissem_markov::expected_hitting_times(&chain).unwrap().from_state(1);
        let start = Configuration::all_wrong(n, Opinion::One);
        let s = sample_exact(&voter_table(n), start, 4000, 2000, &[], 11);
        let mean = s.times.iter().sum::<f64>() / s.times.len() as f64;
        assert!((mean - expect).abs() < 0.15 * expect, "empirical {mean} vs exact {expect}");
    }

    #[test]
    fn sparse_dense_check_passes_for_real_cells() {
        for n in [16u64, 48, 96] {
            let c = sparse_dense_check("voter(l=1)", &voter_table(n), n, Opinion::One);
            assert!(c.pass, "{}: stat {}", c.name, c.statistic);
        }
        let minority = Minority::new(3).unwrap().to_table(48).unwrap();
        let c = sparse_dense_check("minority(l=3)", &minority, 48, Opinion::One);
        assert!(c.pass, "{}: stat {}", c.name, c.statistic);
    }

    #[test]
    fn drift_band_accepts_the_lockstep_engine() {
        let n = 1024;
        let c = drift_band_check("voter(l=1)", &voter_table(n), n, 8, 10, 3);
        assert!(c.pass, "{}: {} violations", c.name, c.statistic);
        assert!(c.sizes.0 > 0, "must observe at least one step");
    }

    #[test]
    fn drift_band_has_teeth() {
        // Envelope from a *mismatched* law: the noisy-voter chain at
        // δ = 0.2 concentrates its rows near x ≈ δ/2·n ≈ 102 when the
        // current state hugs the all-wrong edge, while clean-voter
        // trajectories from the all-wrong start stay at x ≲ 10 for many
        // rounds. Every early clean step therefore escapes the noisy
        // envelope — a drift this size must be flagged instantly.
        let n = 1024;
        let noisy =
            bitdissem_core::channel::with_observation_noise(&Voter::new(1).unwrap(), 0.2, n)
                .unwrap();
        let chain = SparseChain::build(&noisy, n, Opinion::One).unwrap();
        let start = Configuration::all_wrong(n, Opinion::One);
        let kernel = Arc::new(voter_table(n).compile().unwrap());
        let seeds: Vec<u64> = (0..4).map(|rep| replication_seed(17, rep as u64)).collect();
        let mut batch = LockstepSim::new(kernel, start, &seeds);
        let mut violated = false;
        let mut prev: Vec<u64> = (0..4).map(|rep| batch.ones_of(rep)).collect();
        for _ in 0..5 {
            batch.step_round();
            for (rep, p) in prev.iter_mut().enumerate() {
                let x1 = batch.ones_of(rep);
                let (rlo, row) = chain.row(*p);
                if x1 < rlo || x1 >= rlo + row.len() as u64 {
                    violated = true;
                }
                *p = x1;
            }
        }
        assert!(violated, "clean voter steps must escape the noisy envelope");
    }
}
