//! Precompiled adoption-probability kernels (the Eq.-4 fast path).
//!
//! For a memory-less protocol with decision table `g(b, k)` and sample size
//! `ℓ`, the one-round adoption probabilities of Eq. 4 are fixed degree-`ℓ`
//! polynomials in the 1-fraction `p`:
//!
//! ```text
//! P_b(p) = Σ_k g(b, k) · C(ℓ, k) · p^k · (1 − p)^(ℓ−k)
//! ```
//!
//! The simulator hot loop re-derived these from scratch every round — a
//! fresh binomial-pmf vector per call. A [`Kernel`] instead compiles the
//! two rows **once** into coefficient vectors, in `O(ℓ)`, and evaluates
//! them with an allocation-free Horner pass per row. When the rows are
//! equal (`g⁰ = g¹`, a rule that ignores the agent's own opinion: Voter,
//! Minority), the kernel records it and [`Kernel::eval`] runs one pass and
//! returns its value for both rows: the second pass would compute the same
//! numbers from the same coefficients.
//!
//! # Basis choice
//!
//! The compiled form is the **scaled Bernstein** basis:
//! `c_k = g_k · C(ℓ, k)`, evaluated as `Σ c_k p^k (1−p)^(ℓ−k)` via a
//! rational Horner pass. Because `g_k ∈ [0, 1]`, every coefficient is
//! non-negative and the sum is bounded by the binomial theorem — there is
//! **no cancellation**, so the relative error stays at a few ulps for any
//! `ℓ` and the result can only escape `[0, 1]` by rounding noise. The
//! **monomial** (power) basis `Σ_m a_m p^m` has alternating-sign
//! contributions with `Σ|a_m|` growing like `3^ℓ`, so plain Horner loses up
//! to `~3^ℓ · ε` absolute accuracy, and its expansion takes `O(ℓ²)` terms
//! per row. It is not compiled: the `bernstein_basis_dominates_monomial`
//! property test below builds it, measures both against a slow exact
//! reference and pins the choice.
//!
//! # Validation
//!
//! [`Kernel::compile`] checks the rows once (finite, in `[0, 1]`, equal
//! length ≥ 2), so the per-round range check collapses to the two clamping
//! compares inside [`Kernel::eval`] — an out-of-tolerance value is
//! impossible for a compiled kernel rather than merely unobserved.

use crate::binomial::choose_f64;

/// Rejected input rows for [`Kernel::compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// The two rows have different lengths.
    RowLengthMismatch {
        /// Length of the `g(0, ·)` row.
        g0: usize,
        /// Length of the `g(1, ·)` row.
        g1: usize,
    },
    /// Rows must have length `ℓ + 1 ≥ 2` (a protocol samples `ℓ ≥ 1` peers).
    TooShort {
        /// The offending row length.
        len: usize,
    },
    /// An entry is non-finite or outside `[0, 1]`.
    InvalidEntry {
        /// Row (`0` or `1`).
        own: u8,
        /// Index within the row.
        k: usize,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::RowLengthMismatch { g0, g1 } => {
                write!(f, "g-rows have mismatched lengths {g0} vs {g1}")
            }
            KernelError::TooShort { len } => {
                write!(f, "g-rows need length >= 2 (ell >= 1), got {len}")
            }
            KernelError::InvalidEntry { own, k, value } => {
                write!(f, "g({own}, {k}) = {value} is not a probability in [0, 1]")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Slack allowed around `[0, 1]` before a debug build treats an evaluated
/// probability as corruption rather than rounding noise. Matches the
/// tolerance of the legacy pmf-summation path.
const EVAL_TOL: f64 = 1e-9;

/// A protocol's Eq.-4 adoption probabilities, compiled to fixed
/// coefficient vectors evaluated by allocation-free Horner passes.
///
/// Compile once per protocol, share read-only (e.g. behind an `Arc`)
/// across replications and worker threads.
///
/// # Examples
///
/// ```
/// use bitdissem_poly::kernel::Kernel;
///
/// // Voter ℓ = 1: adopt the sampled opinion, so P_b(p) = p.
/// let kernel = Kernel::compile(&[0.0, 1.0], &[0.0, 1.0])?;
/// let (p0, p1) = kernel.eval(0.3);
/// assert!((p0 - 0.3).abs() < 1e-15);
/// assert!((p1 - 0.3).abs() < 1e-15);
/// # Ok::<(), bitdissem_poly::kernel::KernelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    ell: usize,
    /// Scaled Bernstein coefficients `g_k · C(ℓ, k)`, one vector per row.
    bern0: Vec<f64>,
    bern1: Vec<f64>,
    /// Whether the two rows are bit for bit the same (`g⁰ = g¹`), so that
    /// one Horner pass serves both.
    own_independent: bool,
}

impl Kernel {
    /// Compiles the two decision-table rows `g(0, ·)` and `g(1, ·)`.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if the rows disagree in length, are
    /// shorter than 2, or contain a non-finite / out-of-`[0, 1]` entry.
    pub fn compile(g0: &[f64], g1: &[f64]) -> Result<Self, KernelError> {
        if g0.len() != g1.len() {
            return Err(KernelError::RowLengthMismatch { g0: g0.len(), g1: g1.len() });
        }
        if g0.len() < 2 {
            return Err(KernelError::TooShort { len: g0.len() });
        }
        for (own, row) in [(0u8, g0), (1u8, g1)] {
            for (k, &value) in row.iter().enumerate() {
                if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                    return Err(KernelError::InvalidEntry { own, k, value });
                }
            }
        }
        let ell = g0.len() - 1;
        let own_independent = g0.iter().zip(g1).all(|(a, b)| a.to_bits() == b.to_bits());
        Ok(Self { ell, bern0: scaled_bernstein(g0), bern1: scaled_bernstein(g1), own_independent })
    }

    /// The protocol's sample size `ℓ` (polynomial degree).
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.ell
    }

    /// Evaluates `(P₀(p), P₁(p))` in the scaled-Bernstein form.
    ///
    /// Allocation-free; the only range handling is a clamp to `[0, 1]`
    /// (two compares per value), valid because compile-time validation
    /// bounds the exact sum inside `[0, 1]` and rounding can push it out
    /// by a few ulps at most.
    ///
    /// Inlined into its callers, so that a plan-cache miss evaluates the
    /// kernel inside the engine's round loop rather than through a call to
    /// another crate's symbol. The `q^ℓ` / `p^ℓ` scale is its own binary
    /// powering, with the bits of `f64::powi` and no libcall.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    #[inline]
    pub fn eval(&self, p: f64) -> (f64, f64) {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        // Both polynomials share the degree, so the branch choice, the
        // Horner variable (t or u) and the q^ℓ / p^ℓ scale are computed
        // once and reused — the per-round cost is two fused Horner loops,
        // or one when the rows are equal.
        let ell = self.bern0.len() - 1;
        let q = 1.0 - p;
        let (p0, p1) = if p <= 0.5 {
            let t = p / q;
            let scale = powi_bits(q, ell);
            let p1 = horner_ascending(&self.bern1, t) * scale;
            (if self.own_independent { p1 } else { horner_ascending(&self.bern0, t) * scale }, p1)
        } else {
            let u = q / p;
            let scale = powi_bits(p, ell);
            let p1 = horner_descending(&self.bern1, u) * scale;
            (if self.own_independent { p1 } else { horner_descending(&self.bern0, u) * scale }, p1)
        };
        debug_assert!(
            (-EVAL_TOL..=1.0 + EVAL_TOL).contains(&p0)
                && (-EVAL_TOL..=1.0 + EVAL_TOL).contains(&p1),
            "compiled kernel escaped [0,1] beyond rounding noise: P0={p0} P1={p1} at p={p}"
        );
        (p0.clamp(0.0, 1.0), p1.clamp(0.0, 1.0))
    }
}

/// `x^e` by binary powering, with the multiplications of `__powidf2`, the
/// libcall that `f64::powi` lowers to for an exponent not known at compile
/// time, in the same order: the accumulator starts at `x` or 1 by the low
/// bit of `e`, then each step squares `x` and multiplies it in where `e`
/// has a set bit. IEEE products are exact functions of their operands, so
/// the result is `x.powi(e as i32)` bit for bit, without the call.
#[inline]
fn powi_bits(mut x: f64, mut e: usize) -> f64 {
    let mut acc = if e & 1 == 1 { x } else { 1.0 };
    e >>= 1;
    while e != 0 {
        x *= x;
        if e & 1 == 1 {
            acc *= x;
        }
        e >>= 1;
    }
    acc
}

/// `c_k = g_k · C(ℓ, k)` — the scaled Bernstein coefficients.
fn scaled_bernstein(g: &[f64]) -> Vec<f64> {
    let ell = (g.len() - 1) as u64;
    g.iter().enumerate().map(|(k, &gk)| gk * choose_f64(ell, k as u64)).collect()
}

// The two Horner halves of the scaled-Bernstein evaluation
// `Σ c_k p^k (1−p)^(ℓ−k)`, allocation-free and numerically stable over the
// whole of `[0, 1]`: for `p ≤ 1/2` factor out `(1−p)^ℓ` and run Horner in
// `t = p/(1−p) ≤ 1`; for `p > 1/2` factor out `p^ℓ` and run Horner over
// the reversed coefficients in `u = (1−p)/p ≤ 1`. Either way every
// intermediate is a non-negative sum of non-negative terms with the ratio
// bounded by 1, so no cancellation or overflow can occur, and the
// endpoints are exact (`t = 0` / `u = 0` collapse to a single
// coefficient).

/// Horner over `c` in ascending-index order: `Σ c_k t^k` with `t ≤ 1`.
#[inline]
fn horner_ascending(c: &[f64], t: f64) -> f64 {
    let ell = c.len() - 1;
    let mut acc = c[ell];
    for k in (0..ell).rev() {
        acc = acc * t + c[k];
    }
    acc
}

/// Horner over `c` reversed: `Σ c_k u^(ℓ−k)` with `u ≤ 1`.
#[inline]
fn horner_descending(c: &[f64], u: f64) -> f64 {
    let mut acc = c[0];
    for &ck in &c[1..] {
        acc = acc * u + ck;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::binomial_pmf_vec;
    use proptest::prelude::*;

    /// Slow exact-ish reference: the pmf-weighted sum the legacy
    /// `adoption_probs` path computes.
    fn reference(g: &[f64], p: f64) -> f64 {
        let ell = (g.len() - 1) as u64;
        binomial_pmf_vec(ell, p).iter().zip(g).map(|(&w, &gk)| w * gk).sum()
    }

    /// Higher-precision reference via Kahan-style pairwise summation of the
    /// exact Bernstein terms computed in extended products.
    fn reference_precise(g: &[f64], p: f64) -> f64 {
        let ell = g.len() - 1;
        (0..=ell)
            .map(|k| {
                g[k] * choose_f64(ell as u64, k as u64)
                    * p.powi(k as i32)
                    * (1.0 - p).powi((ell - k) as i32)
            })
            .sum()
    }

    fn dense_grid() -> Vec<f64> {
        let mut grid: Vec<f64> = (0..=200).map(|i| f64::from(i) / 200.0).collect();
        grid.extend_from_slice(&[1e-12, 1e-6, 0.5 - 1e-9, 0.5 + 1e-9, 1.0 - 1e-6, 1.0 - 1e-12]);
        grid
    }

    #[test]
    fn voter_kernel_is_identity() {
        let k = Kernel::compile(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        for &p in &dense_grid() {
            let (p0, p1) = k.eval(p);
            assert!((p0 - p).abs() < 1e-15, "p={p}: {p0}");
            assert_eq!(p0, p1);
        }
        assert_eq!(k.sample_size(), 1);
    }

    #[test]
    fn minority3_matches_hand_expansion() {
        // g = [0, 1, 0, 1] → P(p) = 3p(1−p)² + p³.
        let g = [0.0, 1.0, 0.0, 1.0];
        let k = Kernel::compile(&g, &g).unwrap();
        for &p in &dense_grid() {
            let expect = 3.0 * p * (1.0 - p) * (1.0 - p) + p * p * p;
            let (p0, _) = k.eval(p);
            assert!((p0 - expect).abs() < 1e-14, "p={p}: {p0} vs {expect}");
        }
    }

    #[test]
    fn endpoints_are_exact() {
        let g0 = [0.25, 0.5, 0.75, 1.0];
        let g1 = [1.0, 0.0, 0.5, 0.25];
        let k = Kernel::compile(&g0, &g1).unwrap();
        assert_eq!(k.eval(0.0), (0.25, 1.0), "P_b(0) = g_b[0] exactly");
        assert_eq!(k.eval(1.0), (1.0, 0.25), "P_b(1) = g_b[ℓ] exactly");
    }

    #[test]
    fn compile_rejects_bad_rows() {
        assert!(matches!(
            Kernel::compile(&[0.0, 1.0], &[0.0, 1.0, 0.0]),
            Err(KernelError::RowLengthMismatch { g0: 2, g1: 3 })
        ));
        assert!(matches!(Kernel::compile(&[0.5], &[0.5]), Err(KernelError::TooShort { len: 1 })));
        assert!(matches!(
            Kernel::compile(&[0.0, 1.5], &[0.0, 1.0]),
            Err(KernelError::InvalidEntry { own: 0, k: 1, .. })
        ));
        assert!(matches!(
            Kernel::compile(&[0.0, 1.0], &[f64::NAN, 1.0]),
            Err(KernelError::InvalidEntry { own: 1, k: 0, .. })
        ));
        let err = Kernel::compile(&[0.0, -0.1], &[0.0, 1.0]).unwrap_err();
        assert!(err.to_string().contains("not a probability"), "{err}");
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn eval_rejects_out_of_range_p() {
        let k = Kernel::compile(&[0.0, 1.0], &[0.0, 1.0]).unwrap();
        let _ = k.eval(1.5);
    }

    /// Expands `Σ_k g_k C(ℓ,k) p^k (1−p)^(ℓ−k)` into power-basis
    /// coefficients `a_m = Σ_{k ≤ m} g_k C(ℓ,k) C(ℓ−k, m−k) (−1)^(m−k)`.
    fn monomial(g: &[f64]) -> Vec<f64> {
        let ell = g.len() - 1;
        let ellu = ell as u64;
        (0..=ell)
            .map(|m| {
                let mut a = 0.0;
                for (k, &gk) in g.iter().enumerate().take(m + 1) {
                    let sign = if (m - k) % 2 == 0 { 1.0 } else { -1.0 };
                    a += gk
                        * choose_f64(ellu, k as u64)
                        * choose_f64(ellu - k as u64, (m - k) as u64)
                        * sign;
                }
                a
            })
            .collect()
    }

    /// The power-basis polynomial with coefficients `a` at `p` (plain
    /// Horner), clamped to `[0, 1]`.
    fn eval_monomial(a: &[f64], p: f64) -> f64 {
        a.iter().rev().fold(0.0f64, |acc, &am| acc * p + am).clamp(0.0, 1.0)
    }

    /// `(P₀(p), P₁(p))` with one Horner pass per row whether or not the
    /// rows are equal, as every kernel evaluated before equal rows shared a
    /// pass, and the scale taken by `f64::powi`, as before `eval` did its
    /// own powering: the reference `eval` must match bit for bit.
    fn eval_two_pass(k: &Kernel, p: f64) -> (f64, f64) {
        let ell = k.bern0.len() - 1;
        let q = 1.0 - p;
        let (p0, p1) = if p <= 0.5 {
            let t = p / q;
            let scale = q.powi(ell as i32);
            (horner_ascending(&k.bern0, t) * scale, horner_ascending(&k.bern1, t) * scale)
        } else {
            let u = q / p;
            let scale = p.powi(ell as i32);
            (horner_descending(&k.bern0, u) * scale, horner_descending(&k.bern1, u) * scale)
        };
        (p0.clamp(0.0, 1.0), p1.clamp(0.0, 1.0))
    }

    fn bits((p0, p1): (f64, f64)) -> (u64, u64) {
        (p0.to_bits(), p1.to_bits())
    }

    /// Uniforms in `[0, 1)` from a splitmix64 stream.
    fn uniforms(mut state: u64) -> impl Iterator<Item = f64> {
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        })
    }

    /// `eval`'s own powering against `f64::powi` (a `__powidf2` call for an
    /// exponent only known at run time), through both Horner branches, at
    /// every degree up to 64 and at those the engines run beyond it: e18's
    /// 85, `fast_sample_size(32 768)` = 584 (`converge`'s large-ℓ Minority
    /// rows), 128 and 255. The grid is `k/1024` plus random points; the
    /// rows are random, Minority's and one of each. At 4095 the powering
    /// alone is compared: from `ℓ ≈ 1030` the coefficient `C(ℓ, ℓ/2)`
    /// overflows, so no kernel of that degree evaluates to a number.
    #[test]
    fn eval_matches_the_powi_evaluation_bit_for_bit() {
        let mut u = uniforms(0x5eed);
        for ell in (1..=64).chain([85, 128, 255, 584, 4095]) {
            let mut grid: Vec<f64> = (0..=1024).map(|k| f64::from(k) / 1024.0).collect();
            grid.extend(u.by_ref().take(64));
            for &x in &grid {
                assert_eq!(powi_bits(x, ell).to_bits(), x.powi(ell as i32).to_bits(), "{x}^{ell}");
            }
            if ell == 4095 {
                continue;
            }
            let random: Vec<f64> = u.by_ref().take(ell + 1).collect();
            let minority: Vec<f64> = (0..=ell).map(|k| f64::from(u8::from(2 * k < ell))).collect();
            for (g0, g1) in [(&random, &random), (&minority, &minority), (&minority, &random)] {
                let k = Kernel::compile(g0, g1).unwrap();
                for &p in &grid {
                    assert_eq!(bits(k.eval(p)), bits(eval_two_pass(&k, p)), "l = {ell}, p = {p}");
                }
            }
        }
    }

    #[test]
    fn equal_rows_are_recorded_bit_for_bit() {
        let g = [0.0, 1.0, 0.0, 1.0];
        assert!(Kernel::compile(&g, &g).unwrap().own_independent);
        assert!(!Kernel::compile(&g, &[0.0, 1.0, 0.0, 0.5]).unwrap().own_independent);
        // `-0.0 == 0.0`, but the two rows' coefficients differ in sign.
        assert!(!Kernel::compile(&[-0.0, 1.0], &[0.0, 1.0]).unwrap().own_independent);
    }

    proptest! {
        /// One Horner pass for equal rows returns what two passes return,
        /// bit for bit, on both branches of the evaluation (`p ≤ ½` and
        /// `p > ½`); unequal rows still take two passes and agree too.
        #[test]
        fn eval_equals_the_two_pass_evaluation_bit_for_bit(
            g0 in proptest::collection::vec(0.0f64..=1.0, 2..=40),
            g1 in proptest::collection::vec(0.0f64..=1.0, 2..=40),
            ps in proptest::collection::vec(0.0f64..=1.0, 16),
        ) {
            let len = g0.len().min(g1.len());
            let (g0, g1) = (&g0[..len], &g1[..len]);
            let mut grid = dense_grid();
            grid.extend(ps);
            for (rows, equal) in [((g0, g0), true), ((g0, g1), g0 == g1)] {
                let k = Kernel::compile(rows.0, rows.1).unwrap();
                prop_assert_eq!(k.own_independent, equal);
                for &p in &grid {
                    prop_assert_eq!(bits(k.eval(p)), bits(eval_two_pass(&k, p)), "p={}", p);
                }
            }
        }

        /// The headline satellite property: the compiled Bernstein kernel
        /// matches the legacy pmf-summation path within 1e-12 across random
        /// valid g-tables (ℓ ≤ 9) and a dense p-grid including endpoints.
        #[test]
        fn kernel_matches_pmf_reference(
            g0 in proptest::collection::vec(0.0f64..=1.0, 2..=10),
            g1 in proptest::collection::vec(0.0f64..=1.0, 2..=10),
        ) {
            let len = g0.len().min(g1.len());
            let (g0, g1) = (&g0[..len], &g1[..len]);
            let k = Kernel::compile(g0, g1).unwrap();
            for &p in &dense_grid() {
                let (k0, k1) = k.eval(p);
                prop_assert!((k0 - reference(g0, p)).abs() < 1e-12, "P0 at p={p}: {k0}");
                prop_assert!((k1 - reference(g1, p)).abs() < 1e-12, "P1 at p={p}: {k1}");
            }
        }

        /// Pins the basis decision: across random tables the Bernstein
        /// form is at least as accurate as the monomial form (it never
        /// cancels), and strictly wins in worst-case error for ℓ ≥ 5.
        #[test]
        fn bernstein_basis_dominates_monomial(
            g in proptest::collection::vec(0.0f64..=1.0, 6..=10),
        ) {
            let k = Kernel::compile(&g, &g).unwrap();
            let mono = monomial(&g);
            let mut worst_bern = 0.0f64;
            let mut worst_mono = 0.0f64;
            for &p in &dense_grid() {
                let exact = reference_precise(&g, p);
                worst_bern = worst_bern.max((k.eval(p).0 - exact).abs());
                worst_mono = worst_mono.max((eval_monomial(&mono, p) - exact).abs());
            }
            // A small additive floor keeps the comparison meaningful when
            // both bases are exact (e.g. near-constant tables).
            prop_assert!(
                worst_bern <= worst_mono + 1e-15,
                "bernstein worst {worst_bern} vs monomial worst {worst_mono}"
            );
            prop_assert!(worst_bern < 1e-13, "bernstein error {worst_bern}");
        }
    }
}
