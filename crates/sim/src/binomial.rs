//! Binomial sampling built from uniform deviates only.
//!
//! The aggregate simulator draws two `Binomial(n, p)` variates per round, so
//! sampling must be `O(1)`-ish even for `n` in the millions. Per the
//! offline-crate constraint (`rand` only provides uniforms) the samplers are
//! implemented here from scratch:
//!
//! * **Naive** — sum of `n` Bernoulli trials; `O(n)`, used as ground truth
//!   in tests and ablation A2;
//! * **BINV** — sequential inversion (Kachitvichyanukul & Schmeiser 1988);
//!   expected `O(np)` — used when `min(p, 1−p)·n < 10`;
//! * **BTRS** — the transformed-rejection algorithm of Hörmann (1993) with
//!   a squeeze step; `O(1)` expected time for `min(p, 1−p)·n ≥ 10`.
//!
//! [`sample_binomial`] dispatches automatically and handles the `p > 1/2`
//! reflection and the degenerate endpoints.

use std::cell::RefCell;

use rand::Rng;

use bitdissem_poly::binomial::ln_gamma;

use crate::rng::SimRng;

/// Upper bound on the per-thread `ln(i!)` cache (512 KiB of `f64`s). Above
/// it, lookups fall back to a live [`ln_gamma`] call.
pub(crate) const LNFACT_CAP: usize = 1 << 16;

thread_local! {
    /// Per-thread cache of `ln(i!) = ln_gamma(i + 1)` at exact integer
    /// arguments. The BTRS acceptance test spends most of its time in two
    /// `ln_gamma` calls whose arguments are always integers `≤ n + 1`, so a
    /// dense table keyed by the integer replaces the 9-term Lanczos sum
    /// with a load. Each entry is produced by the *same* `ln_gamma` at the
    /// *same* argument, so cached and uncached evaluation are bit-identical
    /// and every accept/reject decision (hence every sampled value) is
    /// unchanged, whatever prefix of the table a draw is handed. The same
    /// holds for the two mode terms of a BTRS setup's `h`, which its first
    /// full acceptance test reads (see [`BtrsSetup`]): whichever prefix that
    /// draw is handed, `h` has the bits an eager build would have given it.
    /// Thread-local so the fill cost (~30 ns/entry) is paid once per worker
    /// thread, not once per simulator instance.
    ///
    /// Entering it ([`with_lnfact`]) costs a `LocalKey::with` and a
    /// `RefCell` borrow, a fifth of a cached one-draw round, so the hot
    /// loop enters it once per unit of work and hands the slice down:
    /// [`LockstepSim::run`] enters it once per batch run without a
    /// schedule, and once per round with one (perturbations draw through
    /// [`sample_binomial`], which enters it itself). [`Plan::build`] reads
    /// no table, and [`Plan::sample_with`] takes the slice and never enters
    /// it itself.
    ///
    /// [`LockstepSim::run`]: crate::lockstep::LockstepSim::run
    static LNFACT: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with the `ln(i!)` table grown to cover `0..=min(upto, cap)`.
///
/// Not re-entrant: the table stays borrowed while `f` runs, so `f` must not
/// call `with_lnfact` again, directly or through [`sample_binomial`] or
/// [`btrs`] (a nested call panics with `RefCell` already borrowed). Inside
/// `f`, draw through [`Plan`]s with the slice `f` was given.
pub(crate) fn with_lnfact<R>(upto: u64, f: impl FnOnce(&[f64]) -> R) -> R {
    LNFACT.with(|cell| {
        let mut table = cell.borrow_mut();
        let need = ((upto as usize).saturating_add(1)).min(LNFACT_CAP);
        for i in table.len()..need {
            table.push(ln_gamma(i as f64 + 1.0));
        }
        f(&table)
    })
}

/// `ln_gamma(x + 1)` for a non-negative integer-valued float `x`, via the
/// table when `x` is in range (bit-identical — see [`LNFACT`]).
#[inline]
fn ln_fact(table: &[f64], x: f64) -> f64 {
    let i = x as usize;
    if i < table.len() {
        table[i]
    } else {
        ln_gamma(x + 1.0)
    }
}

/// Draws one `Binomial(n, p)` variate, auto-selecting BINV or BTRS.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use bitdissem_sim::{binomial::sample_binomial, rng::rng_from};
/// let mut rng = rng_from(1);
/// let k = sample_binomial(&mut rng, 1000, 0.25);
/// assert!(k <= 1000);
/// ```
#[must_use]
pub fn sample_binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    // Reflect to q = min(p, 1−p).
    let (q, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
    let k = if (n as f64) * q < 10.0 { binv(rng, n, q) } else { btrs(rng, n, q) };
    if flipped {
        n - k
    } else {
        k
    }
}

/// Naive `O(n)` Bernoulli-sum sampler (ground truth for tests/ablations).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
#[must_use]
pub fn sample_binomial_naive(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let mut k = 0;
    for _ in 0..n {
        if rng.random::<f64>() < p {
            k += 1;
        }
    }
    k
}

/// BINV: sequential inversion from `k = 0`. Efficient for small `n·p`.
///
/// Expects `p ≤ 1/2` (callers reflect). Exposed for the A2 ablation.
///
/// When `n·|ln(1−p)| ≳ 745` the starting mass `f = P(X = 0) = q^n`
/// underflows `f64`; the recurrence then restarts in log space and only
/// materializes `f` once it becomes representable. The mass skipped while
/// `f` is subnormal is below the resolution of the uniform deviate, so the
/// returned distribution is unaffected. (The in-regime dispatch from
/// [`sample_binomial`] has `n·p < 10` and never underflows; direct callers
/// with large `n·p` get correct draws at `O(n·p)` cost instead of the
/// silently biased `k = n` the naive recurrence degraded to.)
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
#[must_use]
pub fn binv(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    assert!(p > 0.0 && p < 1.0, "binv requires p in (0,1), got {p}");
    BinvSetup::new(n, p).draw(rng, n)
}

/// The deterministic per-`(n, p)` state of the BINV sampler — everything
/// computed before the first uniform is drawn. Split out so a [`Plan`] can
/// cache it; [`BinvSetup::draw`] consumes uniforms exactly like the
/// historical monolithic `binv`, so cached and fresh calls are
/// bit-identical draw-for-draw.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinvSetup {
    /// Odds ratio `p / (1 − p)` driving the upward pmf recurrence.
    s: f64,
    /// `ln P(X = 0) = n·ln(1 − p)`.
    ln_f0: f64,
    /// `P(X = 0)`, or `0.0` when it underflows the normal f64 range.
    f0: f64,
}

/// Floor of the f64 normal range used by the log-space BINV restart (see
/// [`binv`]).
const LN_NORMAL_MIN: f64 = -700.0;

impl BinvSetup {
    fn new(n: u64, p: f64) -> Self {
        let q = 1.0 - p;
        let s = p / q;
        // f = P(X = 0) = q^n, computed in log space to survive large n. For
        // n·ln q below LN_NORMAL_MIN the recurrence is carried additively on
        // ln_f and f is pinned to 0: materializing through a *subnormal* exp
        // would seed the whole recurrence with a few-bit mantissa and bias
        // every subsequent probability. Only once ln_f re-enters the normal
        // range is f materialized (at full precision) and the recurrence
        // switches back to the cheap multiplicative form. The mass skipped
        // while f is pinned at 0 is below 2^-1022 per term — invisible at
        // the 2^-53 resolution of the uniform deviate.
        let ln_f0 = (n as f64) * q.ln();
        let f0 = if ln_f0 >= LN_NORMAL_MIN { ln_f0.exp() } else { 0.0 };
        Self { s, ln_f0, f0 }
    }

    fn draw(&self, rng: &mut SimRng, n: u64) -> u64 {
        let mut f = self.f0;
        let mut ln_f = self.ln_f0;
        let mut u: f64 = rng.random();
        let mut k: u64 = 0;
        // In the (astronomically unlikely) event of accumulated rounding
        // pushing u past the total mass, clamp at n.
        while u > f && k < n {
            u -= f;
            k += 1;
            let ratio = self.s * ((n - k + 1) as f64) / (k as f64);
            if f > 0.0 {
                f *= ratio;
            } else {
                ln_f += ratio.ln();
                if ln_f >= LN_NORMAL_MIN {
                    f = ln_f.exp();
                }
            }
        }
        k
    }
}

/// BTRS: the transformed-rejection sampler of Hörmann (1993). `O(1)`
/// expected time; requires `p ≤ 1/2` and `n·p ≥ 10` (callers dispatch).
///
/// Exposed for the A2 ablation.
///
/// # Panics
///
/// Panics if the preconditions are violated.
#[must_use]
pub fn btrs(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    assert!(p > 0.0 && p <= 0.5, "btrs requires p in (0, 1/2], got {p}");
    assert!((n as f64) * p >= 10.0, "btrs requires n*p >= 10");
    with_lnfact(n, |lnfact| BtrsSetup::new(n, p).draw(rng, n, lnfact))
}

/// The deterministic per-`(n, p)` state of the BTRS sampler (Hörmann's
/// constants), split out so a [`Plan`] can cache it.
///
/// It is built in two steps. [`BtrsSetup::new`] computes only the squeeze
/// constants `a`, `b`, `c` and `v_r`, which every iteration reads (one
/// `sqrt`, one division). The constants of the full acceptance test,
/// `alpha`, `ln(p/q)`, the mode `m` and `h = ln(m!) + ln((n − m)!)`, are
/// computed by the first draw that reaches that test, and kept, so a cached
/// plan completes once. About 3 in 4 iterations accept at the squeeze step,
/// so many plans built on a cache miss are drawn from and dropped without
/// ever needing them. Until then `h` is NaN, and the fields it is completed
/// with hold the inputs of the deferred constants: `alpha` holds `√(npq)`
/// and `lpq` holds `p`.
///
/// Each constant is the same IEEE expression of the same operands, whenever
/// it is computed, and the two log-factorials are bit-identical for any
/// prefix of the table (see [`LNFACT`]). So [`BtrsSetup::draw`] consumes
/// uniforms and decides exactly like the historical monolithic `btrs`:
/// cached and fresh calls are bit-identical draw for draw. The trial count
/// `n` is not stored: every caller already holds it and passes it to
/// `draw`, which keeps a cached [`Plan`] at 72 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BtrsSetup {
    a: f64,
    b: f64,
    c: f64,
    v_r: f64,
    /// `(2.83 + 5.1/b)·√(npq)`; `√(npq)` until completed.
    alpha: f64,
    /// `ln(p/q)`; `p` until completed.
    lpq: f64,
    /// The mode `⌊(n + 1)p⌋`; unset until completed.
    m: f64,
    /// `ln(m!) + ln((n − m)!)`; NaN until completed.
    h: f64,
}

impl BtrsSetup {
    #[inline]
    fn new(n: u64, p: f64) -> Self {
        let nf = n as f64;
        let q = 1.0 - p;
        let spq = (nf * p * q).sqrt();

        let b = 1.15 + 2.53 * spq;
        let a = -0.0873 + 0.0248 * b + 0.01 * p;
        let c = nf * p + 0.5;
        let v_r = 0.92 - 4.2 / b;
        Self { a, b, c, v_r, alpha: spq, lpq: p, m: 0.0, h: f64::NAN }
    }

    /// Computes the constants of the full acceptance test from the inputs
    /// [`BtrsSetup::new`] kept, for trial count `nf`.
    fn complete(&mut self, nf: f64, lnfact: &[f64]) {
        let (spq, p) = (self.alpha, self.lpq);
        let q = 1.0 - p;
        self.alpha = (2.83 + 5.1 / self.b) * spq;
        self.lpq = (p / q).ln();
        self.m = ((nf + 1.0) * p).floor(); // mode
        self.h = ln_fact(lnfact, self.m) + ln_fact(lnfact, nf - self.m);
    }

    /// Draws with the trial count `n` the setup was built for, completing
    /// the setup on the first full acceptance test.
    fn draw(&mut self, rng: &mut SimRng, n: u64, lnfact: &[f64]) -> u64 {
        let nf = n as f64;
        // Completion never touches the squeeze constants, so they are read
        // once, as locals the squeeze path need not reload.
        let Self { a, b, c, v_r, .. } = *self;
        loop {
            let u: f64 = rng.random::<f64>() - 0.5;
            let v: f64 = rng.random();
            let us = 0.5 - u.abs();
            let kf = ((2.0 * a / us + b) * u + c).floor();
            if kf < 0.0 || kf > nf {
                continue;
            }
            // Squeeze step: cheap unconditional acceptance region.
            if us >= 0.07 && v <= v_r {
                return kf as u64;
            }
            // Full acceptance test against the transformed density. The two
            // log-factorials come from the per-thread table (bit-identical
            // to live `ln_gamma` calls — see [`LNFACT`]).
            if self.h.is_nan() {
                self.complete(nf, lnfact);
            }
            let v2 = v * self.alpha / (a / (us * us) + b);
            if v2.ln()
                <= self.h - ln_fact(lnfact, kf) - ln_fact(lnfact, nf - kf)
                    + (kf - self.m) * self.lpq
            {
                return kf as u64;
            }
        }
    }
}

/// A cached sampler plan for one exact `(n, p)` pair: the reflection
/// decision plus the regime's precomputed setup.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Plan {
    /// Degenerate `(n, p)`: the draw is a constant and consumes no
    /// randomness (mirrors [`sample_binomial`]'s early returns).
    Const(u64),
    Binv {
        flipped: bool,
        setup: BinvSetup,
    },
    Btrs {
        flipped: bool,
        setup: BtrsSetup,
    },
}

impl Plan {
    /// Mirrors the [`sample_binomial`] dispatch, degenerate cases included.
    /// A BTRS plan is built with its squeeze constants only; its first full
    /// acceptance test completes it (see [`BtrsSetup`]).
    ///
    /// Inlined, like [`RoundPlan`](crate::roundplan::RoundPlan)'s build
    /// and the kernel evaluation: a plan-cache miss then writes the plan
    /// straight into its slot, with no call and no copy.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    pub(crate) fn build(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        if n == 0 || p == 0.0 {
            return Plan::Const(0);
        }
        if p == 1.0 {
            return Plan::Const(n);
        }
        let (q, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
        if (n as f64) * q < 10.0 {
            Plan::Binv { flipped, setup: BinvSetup::new(n, q) }
        } else {
            Plan::Btrs { flipped, setup: BtrsSetup::new(n, q) }
        }
    }

    /// Draws one variate for the trial count `n` the plan was built for,
    /// with the `ln(i!)` table supplied by the caller, who enters it once
    /// for a whole run or lock-step round of draws (see [`LNFACT`]). A BTRS
    /// plan completes itself on its first full acceptance test, hence
    /// `&mut self`. Bit-identical to [`sample_binomial`] with the same
    /// `(n, p)` and rng state, for any prefix of the table.
    #[inline]
    pub(crate) fn sample_with(&mut self, rng: &mut SimRng, n: u64, lnfact: &[f64]) -> u64 {
        let (k, flipped) = match self {
            Plan::Const(k) => return *k,
            Plan::Binv { flipped, setup } => (setup.draw(rng, n), *flipped),
            Plan::Btrs { flipped, setup } => (setup.draw(rng, n, lnfact), *flipped),
        };
        if flipped {
            n - k
        } else {
            k
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use bitdissem_poly::binomial::{binomial_mean, binomial_pmf_vec, binomial_variance};

    fn empirical_moments(samples: &[u64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().map(|&k| k as f64).sum::<f64>() / n;
        let var = samples.iter().map(|&k| (k as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    fn check_moments(n: u64, p: f64, reps: usize, seed: u64) {
        let mut rng = rng_from(seed);
        let samples: Vec<u64> = (0..reps).map(|_| sample_binomial(&mut rng, n, p)).collect();
        assert!(samples.iter().all(|&k| k <= n));
        let (mean, var) = empirical_moments(&samples);
        let true_mean = binomial_mean(n, p);
        let true_var = binomial_variance(n, p);
        let se_mean = (true_var / reps as f64).sqrt();
        assert!(
            (mean - true_mean).abs() < 5.0 * se_mean + 1e-9,
            "n={n} p={p}: mean {mean} vs {true_mean} (se {se_mean})"
        );
        assert!(
            (var - true_var).abs() < 0.2 * true_var + 1.0,
            "n={n} p={p}: var {var} vs {true_var}"
        );
    }

    #[test]
    fn degenerate_cases() {
        let mut rng = rng_from(0);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 100, 1.0), 100);
    }

    #[test]
    fn binv_regime_moments() {
        check_moments(50, 0.05, 20_000, 1); // np = 2.5 -> BINV
        check_moments(8, 0.3, 20_000, 2);
        check_moments(1000, 0.001, 20_000, 3);
    }

    #[test]
    fn btrs_regime_moments() {
        check_moments(1000, 0.3, 20_000, 4); // np = 300 -> BTRS
        check_moments(100, 0.5, 20_000, 5);
        check_moments(1_000_000, 0.25, 5_000, 6);
    }

    #[test]
    fn reflection_regime_moments() {
        check_moments(1000, 0.9, 20_000, 7);
        check_moments(64, 0.99, 20_000, 8);
    }

    #[test]
    fn distribution_matches_exact_pmf_in_total_variation() {
        // Compare empirical frequencies against the exact PMF for a case
        // that exercises BTRS.
        let n = 200u64;
        let p = 0.4;
        let reps = 200_000usize;
        let mut rng = rng_from(99);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..reps {
            counts[sample_binomial(&mut rng, n, p) as usize] += 1;
        }
        let pmf = binomial_pmf_vec(n, p);
        let tv: f64 =
            counts.iter().zip(&pmf).map(|(&c, &q)| (c as f64 / reps as f64 - q).abs()).sum::<f64>()
                / 2.0;
        // With 2e5 samples over ~±4σ ≈ 55 effective bins, TV ≈ O(sqrt(bins/reps)) ≈ 0.01.
        assert!(tv < 0.03, "total variation {tv}");
    }

    #[test]
    fn binv_distribution_matches_exact_pmf() {
        let n = 30u64;
        let p = 0.1;
        let reps = 200_000usize;
        let mut rng = rng_from(100);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..reps {
            counts[sample_binomial(&mut rng, n, p) as usize] += 1;
        }
        let pmf = binomial_pmf_vec(n, p);
        let tv: f64 =
            counts.iter().zip(&pmf).map(|(&c, &q)| (c as f64 / reps as f64 - q).abs()).sum::<f64>()
                / 2.0;
        assert!(tv < 0.02, "total variation {tv}");
    }

    #[test]
    fn extreme_regime_moments() {
        // n = 10⁸, p = 10⁻⁶: n·p = 100 dispatches to BTRS; the huge-n /
        // tiny-p corner that motivated the log-space BINV restart.
        check_moments(100_000_000, 1e-6, 20_000, 20);
        // n = 10⁸, p = 5·10⁻⁸: n·p = 5 dispatches to BINV at extreme n.
        check_moments(100_000_000, 5e-8, 20_000, 21);
    }

    #[test]
    fn binv_survives_q_pow_n_underflow() {
        // Direct BINV call where f₀ = 0.6^5000 = e^-2554 underflows f64.
        // The un-fixed recurrence kept f = 0 forever and returned k = n on
        // every draw; the log-space restart must recover the true moments.
        let n = 5_000u64;
        let p = 0.4;
        let reps = 2_000usize;
        let mut rng = rng_from(22);
        let samples: Vec<u64> = (0..reps).map(|_| binv(&mut rng, n, p)).collect();
        assert!(samples.iter().all(|&k| k < n), "draws collapsed to k = n");
        let (mean, var) = empirical_moments(&samples);
        let true_mean = binomial_mean(n, p);
        let true_var = binomial_variance(n, p);
        let se_mean = (true_var / reps as f64).sqrt();
        assert!((mean - true_mean).abs() < 5.0 * se_mean, "mean {mean} vs {true_mean}");
        assert!((var - true_var).abs() < 0.2 * true_var, "var {var} vs {true_var}");
    }

    #[test]
    fn naive_and_fast_agree_in_distribution() {
        let n = 40u64;
        let p = 0.35;
        let reps = 50_000;
        let mut r1 = rng_from(11);
        let mut r2 = rng_from(12);
        let fast: Vec<u64> = (0..reps).map(|_| sample_binomial(&mut r1, n, p)).collect();
        let naive: Vec<u64> = (0..reps).map(|_| sample_binomial_naive(&mut r2, n, p)).collect();
        let (mf, vf) = empirical_moments(&fast);
        let (mn, vn) = empirical_moments(&naive);
        assert!((mf - mn).abs() < 0.15, "{mf} vs {mn}");
        assert!((vf - vn).abs() < 1.0, "{vf} vs {vn}");
    }

    #[test]
    fn samples_are_deterministic_given_seed() {
        let a: Vec<u64> = {
            let mut rng = rng_from(5);
            (0..50).map(|_| sample_binomial(&mut rng, 500, 0.3)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = rng_from(5);
            (0..50).map(|_| sample_binomial(&mut rng, 500, 0.3)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn rejects_invalid_p() {
        let mut rng = rng_from(0);
        let _ = sample_binomial(&mut rng, 10, 1.5);
    }

    #[test]
    fn plan_is_bit_identical_to_plain_sampler() {
        // Identical rng streams through cached plans and fresh calls, across
        // every regime: degenerate, BINV, BTRS, and the p > 1/2 reflection.
        // Interleave (n, p) pairs so every plan is reused between other
        // plans' draws.
        let cases: Vec<(u64, f64)> = vec![
            (0, 0.5),
            (100, 0.0),
            (100, 1.0),
            (512, 0.003), // BINV
            (512, 0.37),  // BTRS
            (512, 0.82),  // reflected BTRS
            (512, 0.999), // reflected BINV
            (7, 0.4),     // BINV small n
        ];
        let mut plans: Vec<Plan> = cases.iter().map(|&(n, p)| Plan::build(n, p)).collect();
        let mut a = rng_from(42);
        let mut b = rng_from(42);
        for round in 0..200 {
            let i = round % cases.len();
            let (n, p) = cases[i];
            let planned = with_lnfact(n, |lnfact| plans[i].sample_with(&mut a, n, lnfact));
            assert_eq!(planned, sample_binomial(&mut b, n, p), "round {round}: n={n} p={p}");
        }
    }

    /// The BTRS setup as it was built before the full-test constants were
    /// deferred: every constant computed up front. The oracle a lazily
    /// completed [`BtrsSetup`] must match draw for draw and bit for bit.
    struct EagerBtrs {
        a: f64,
        b: f64,
        c: f64,
        v_r: f64,
        alpha: f64,
        lpq: f64,
        m: f64,
        h: f64,
    }

    impl EagerBtrs {
        fn new(n: u64, p: f64, lnfact: &[f64]) -> Self {
            let nf = n as f64;
            let q = 1.0 - p;
            let spq = (nf * p * q).sqrt();

            let b = 1.15 + 2.53 * spq;
            let a = -0.0873 + 0.0248 * b + 0.01 * p;
            let c = nf * p + 0.5;
            let v_r = 0.92 - 4.2 / b;

            let alpha = (2.83 + 5.1 / b) * spq;
            let lpq = (p / q).ln();
            let m = ((nf + 1.0) * p).floor(); // mode
            let h = ln_fact(lnfact, m) + ln_fact(lnfact, nf - m);
            Self { a, b, c, v_r, alpha, lpq, m, h }
        }

        fn draw(&self, rng: &mut SimRng, n: u64, lnfact: &[f64]) -> u64 {
            let nf = n as f64;
            loop {
                let u: f64 = rng.random::<f64>() - 0.5;
                let v: f64 = rng.random();
                let us = 0.5 - u.abs();
                let kf = ((2.0 * self.a / us + self.b) * u + self.c).floor();
                if kf < 0.0 || kf > nf {
                    continue;
                }
                if us >= 0.07 && v <= self.v_r {
                    return kf as u64;
                }
                let v2 = v * self.alpha / (self.a / (us * us) + self.b);
                if v2.ln()
                    <= self.h - ln_fact(lnfact, kf) - ln_fact(lnfact, nf - kf)
                        + (kf - self.m) * self.lpq
                {
                    return kf as u64;
                }
            }
        }

        fn bits(&self) -> [u64; 8] {
            [self.a, self.b, self.c, self.v_r, self.alpha, self.lpq, self.m, self.h]
                .map(f64::to_bits)
        }
    }

    impl BtrsSetup {
        fn is_complete(&self) -> bool {
            !self.h.is_nan()
        }

        fn bits(&self) -> [u64; 8] {
            [self.a, self.b, self.c, self.v_r, self.alpha, self.lpq, self.m, self.h]
                .map(f64::to_bits)
        }
    }

    /// Draws `draws` variates of `Bin(n, p)` from seed `seed` through a
    /// fresh lazy setup and through the eager oracle, from the table
    /// `lnfact`, and asserts equal values draw by draw: the squeeze
    /// constants are the oracle's from the start, every constant is once the
    /// setup is complete. Returns whether the first draw completed it.
    fn lazy_matches_eager(n: u64, p: f64, seed: u64, draws: usize, lnfact: &[f64]) -> bool {
        let eager = EagerBtrs::new(n, p, lnfact);
        let mut lazy = BtrsSetup::new(n, p);
        assert!(!lazy.is_complete(), "a new setup defers its full-test constants");
        assert_eq!(lazy.bits()[..4], eager.bits()[..4], "squeeze constants, n={n} p={p}");
        let mut a = rng_from(seed);
        let mut b = rng_from(seed);
        let mut first_completed = false;
        for draw in 0..draws {
            let case = format!("n={n} p={p} seed={seed} draw {draw}");
            assert_eq!(lazy.draw(&mut a, n, lnfact), eager.draw(&mut b, n, lnfact), "{case}");
            first_completed |= draw == 0 && lazy.is_complete();
            if lazy.is_complete() {
                assert_eq!(lazy.bits(), eager.bits(), "constants, {case}");
            }
        }
        first_completed
    }

    /// BTRS cases with `n·p ≥ 10`, `p ≤ ½`, around the trial counts the
    /// engines draw at. For 0.3, 0.25 and 0.18, `(p/q).ln()` and
    /// `p.ln() − q.ln()` differ in the last bit.
    const BTRS_CASES: [(u64, f64); 6] =
        [(512, 0.3), (100, 0.1), (8191, 0.5), (32_767, 0.0123), (4096, 0.25), (2048, 0.18)];

    /// Streams whose draws all accept at the squeeze step never complete
    /// the setup, and draw what the eager setup draws.
    #[test]
    fn lazy_btrs_matches_eager_on_squeeze_only_streams() {
        for (n, p) in BTRS_CASES {
            let squeeze_only = with_lnfact(n, |lnfact| {
                (0..64).filter(|&seed| !lazy_matches_eager(n, p, seed, 1, lnfact)).count()
            });
            assert!(squeeze_only >= 16, "n={n} p={p}: {squeeze_only} of 64 streams");
        }
    }

    /// Streams whose first draw reaches the full acceptance test complete
    /// the setup with the eager setup's constants, bit for bit, and keep
    /// drawing what it draws.
    #[test]
    fn lazy_btrs_matches_eager_when_the_first_draw_reaches_the_full_test() {
        for (n, p) in BTRS_CASES {
            with_lnfact(n, |lnfact| {
                let full: Vec<u64> =
                    (0..64).filter(|&seed| lazy_matches_eager(n, p, seed, 1, lnfact)).collect();
                assert!(!full.is_empty(), "n={n} p={p}: no stream reached the full test");
                for seed in full {
                    assert!(lazy_matches_eager(n, p, seed, 200, lnfact));
                }
            });
        }
    }

    /// A reflected plan (`p > ½`) draws `n − Bin(n, 1 − p)` through the
    /// same lazy setup, and completes it to the eager setup of `1 − p`.
    #[test]
    fn lazy_btrs_matches_eager_under_reflection() {
        for (n, p) in [(512u64, 0.82), (8191, 0.5 + 1e-9), (1000, 0.95)] {
            with_lnfact(n, |lnfact| {
                let q = 1.0 - p;
                let eager = EagerBtrs::new(n, q, lnfact);
                let mut plan = Plan::build(n, p);
                let mut a = rng_from(3);
                let mut b = rng_from(3);
                for draw in 0..300 {
                    let expect = n - eager.draw(&mut b, n, lnfact);
                    assert_eq!(plan.sample_with(&mut a, n, lnfact), expect, "n={n} p={p} {draw}");
                }
                let Plan::Btrs { flipped: true, setup } = plan else {
                    panic!("n={n} p={p} builds a reflected BTRS plan: {plan:?}");
                };
                assert!(setup.is_complete(), "300 draws reach the full test");
                assert_eq!(setup.bits(), eager.bits(), "n={n} p={p}");
            });
        }
    }

    /// Past `LNFACT_CAP` trials the mode term `ln((n − m)!)` and the
    /// candidates' terms fall back to live `ln_gamma` calls; the lazy setup
    /// completes to the same bits whichever prefix of the table its first
    /// full test is handed, the empty one included.
    #[test]
    fn lazy_btrs_matches_eager_past_the_table() {
        let cap = LNFACT_CAP as u64;
        for (n, p) in [(cap + 4464, 0.01), (100_000, 0.3), (1_000_000, 0.25)] {
            with_lnfact(n, |lnfact| {
                assert_eq!(lnfact.len(), LNFACT_CAP, "the table stops short of n = {n}");
                assert!(n - ((n as f64 + 1.0) * p).floor() as u64 > cap, "n={n} p={p}");
                for seed in 0..8 {
                    let _ = lazy_matches_eager(n, p, seed, 50, lnfact);
                }
                let eager = EagerBtrs::new(n, p, lnfact);
                for prefix in [&lnfact[..0], &lnfact[..1000], lnfact] {
                    let mut lazy = BtrsSetup::new(n, p);
                    lazy.complete(n as f64, prefix);
                    assert_eq!(lazy.bits(), eager.bits(), "n={n} p={p}, {} entries", prefix.len());
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "n*p >= 10")]
    fn btrs_guards_preconditions() {
        let mut rng = rng_from(0);
        let _ = btrs(&mut rng, 10, 0.1);
    }
}
