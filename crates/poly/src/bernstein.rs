//! Bernstein-basis representation of polynomials on `[0, 1]`.
//!
//! The bias polynomial of the paper (Eq. 3) is *naturally* a Bernstein-form
//! polynomial: the term `C(ℓ,k) p^k (1-p)^{ℓ-k}` is exactly the Bernstein
//! basis polynomial `B_{k,ℓ}(p)`. Working in this basis gives two things the
//! power basis cannot:
//!
//! 1. **Numerically stable evaluation** on `[0, 1]` via de Casteljau;
//! 2. **Variation-diminishing root isolation**: the number of roots in
//!    `[0, 1]` is bounded by the number of sign changes of the Bernstein
//!    coefficients, and subdivision tightens the bound until each
//!    sub-interval provably contains zero or one root.

use crate::binomial::choose_f64;
use crate::polynomial::Polynomial;

/// A polynomial in Bernstein form of a fixed degree on `[0, 1]`:
/// `p(x) = Σ_k b[k] · C(d,k) x^k (1-x)^{d-k}`.
///
/// # Examples
///
/// ```
/// use bitdissem_poly::Bernstein;
///
/// // x(1-x) in degree-2 Bernstein form has coefficients [0, 1/2, 0].
/// let b = Bernstein::new(vec![0.0, 0.5, 0.0]);
/// assert!((b.eval(0.5) - 0.25).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bernstein {
    coeffs: Vec<f64>,
}

impl Bernstein {
    /// Creates a Bernstein-form polynomial of degree `coeffs.len() - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty (the representation has no degree).
    #[must_use]
    pub fn new(coeffs: Vec<f64>) -> Self {
        assert!(!coeffs.is_empty(), "Bernstein form needs at least one coefficient");
        Self { coeffs }
    }

    /// Converts a power-basis polynomial into Bernstein form of degree
    /// `max(deg p, 1)` (or a requested higher degree via
    /// [`Bernstein::elevate`]).
    ///
    /// Conversion formula: `b_k = Σ_{i<=k} C(k,i)/C(d,i) · a_i` where `a_i`
    /// are power coefficients.
    #[must_use]
    pub fn from_polynomial(p: &Polynomial) -> Self {
        let d = p.degree().unwrap_or(0).max(1);
        let a = p.coeffs();
        let mut b = vec![0.0; d + 1];
        for (k, bk) in b.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, &ai) in a.iter().enumerate().take(k + 1) {
                acc += choose_f64(k as u64, i as u64) / choose_f64(d as u64, i as u64) * ai;
            }
            *bk = acc;
        }
        Self { coeffs: b }
    }

    /// Converts back to a power-basis [`Polynomial`] by expanding each basis
    /// function `C(d,k) x^k (1-x)^{d-k}` — exact in rational arithmetic and
    /// accurate to a few ulps for the tiny degrees used here.
    #[must_use]
    pub fn to_polynomial(&self) -> Polynomial {
        let d = self.degree();
        let mut acc = Polynomial::zero();
        for (k, &bk) in self.coeffs.iter().enumerate() {
            if bk == 0.0 {
                continue;
            }
            // C(d,k) x^k (1-x)^{d-k}
            let mut basis = Polynomial::constant(choose_f64(d as u64, k as u64));
            for _ in 0..k {
                basis = &basis * &Polynomial::x();
            }
            let one_minus_x = Polynomial::new(vec![1.0, -1.0]);
            for _ in 0..(d - k) {
                basis = &basis * &one_minus_x;
            }
            acc = &acc + &basis.scale(bk);
        }
        acc
    }

    /// Degree of the representation (length of coefficients minus one).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Bernstein coefficients (control values).
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Mutable access to the coefficients, for the root isolator's exact
    /// zeros.
    pub(crate) fn coeffs_mut(&mut self) -> &mut [f64] {
        &mut self.coeffs
    }

    /// Evaluates at `t ∈ [0, 1]` with the de Casteljau algorithm
    /// (backward-stable for `t` in the unit interval).
    #[must_use]
    pub fn eval(&self, t: f64) -> f64 {
        let mut v = self.coeffs.clone();
        let n = v.len();
        for r in 1..n {
            for i in 0..n - r {
                v[i] = (1.0 - t) * v[i] + t * v[i + 1];
            }
        }
        v[0]
    }

    /// Evaluates `p(t)` and `p'(t)` in one de Casteljau pass: its last two
    /// values `v₀, v₁` give `p(t) = (1−t)·v₀ + t·v₁`, the same bits as
    /// [`Bernstein::eval`], and `p'(t) = d·(v₁ − v₀)`.
    #[must_use]
    pub(crate) fn eval_with_derivative(&self, t: f64) -> (f64, f64) {
        let d = self.degree();
        if d == 0 {
            return (self.coeffs[0], 0.0);
        }
        let mut v = self.coeffs.clone();
        for r in 1..d {
            for i in 0..=d - r {
                v[i] = (1.0 - t) * v[i] + t * v[i + 1];
            }
        }
        ((1.0 - t) * v[0] + t * v[1], d as f64 * (v[1] - v[0]))
    }

    /// Degree elevation by one: returns the same polynomial expressed with
    /// one more coefficient.
    #[must_use]
    pub fn elevate(&self) -> Self {
        let d = self.degree();
        let mut out = vec![0.0; d + 2];
        out[0] = self.coeffs[0];
        out[d + 1] = self.coeffs[d];
        for (i, o) in out.iter_mut().enumerate().take(d + 1).skip(1) {
            let a = i as f64 / (d as f64 + 1.0);
            *o = a * self.coeffs[i - 1] + (1.0 - a) * self.coeffs[i];
        }
        Self { coeffs: out }
    }

    /// Subdivides at `t`, returning the Bernstein forms of the restrictions
    /// to `[0, t]` and `[t, 1]`, each re-parameterized onto `[0, 1]`.
    #[must_use]
    pub fn subdivide(&self, t: f64) -> (Self, Self) {
        let n = self.coeffs.len();
        let mut tri = self.coeffs.clone();
        let mut left = Vec::with_capacity(n);
        let mut right = vec![0.0; n];
        left.push(tri[0]);
        right[n - 1] = tri[n - 1];
        for r in 1..n {
            for i in 0..n - r {
                tri[i] = (1.0 - t) * tri[i] + t * tri[i + 1];
            }
            left.push(tri[0]);
            right[n - 1 - r] = tri[n - 1 - r];
        }
        (Self { coeffs: left }, Self { coeffs: right })
    }

    /// Number of strict sign changes in the coefficient sequence (zeros are
    /// skipped). By the variation-diminishing property this upper-bounds the
    /// number of roots in `(0, 1)`.
    #[must_use]
    pub fn sign_changes(&self) -> usize {
        let mut changes = 0;
        let mut last: Option<bool> = None;
        for &c in &self.coeffs {
            if c == 0.0 {
                continue;
            }
            let s = c > 0.0;
            if let Some(prev) = last {
                if prev != s {
                    changes += 1;
                }
            }
            last = Some(s);
        }
        changes
    }

    /// Maximum absolute coefficient. Since Bernstein forms a partition of
    /// unity, this bounds `|p|` on `[0, 1]`.
    #[must_use]
    pub fn max_abs_coeff(&self) -> f64 {
        self.coeffs.iter().fold(0.0, |m, &c| m.max(c.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn roundtrip_power_bernstein_power() {
        let p = Polynomial::new(vec![0.25, -1.5, 2.0, 1.0]);
        let b = Bernstein::from_polynomial(&p);
        let q = b.to_polynomial();
        assert!(p.coeff_distance(&q) < 1e-10, "distance {}", p.coeff_distance(&q));
    }

    #[test]
    fn eval_matches_power_basis() {
        let p = Polynomial::new(vec![1.0, -2.0, 0.5, 3.0]);
        let b = Bernstein::from_polynomial(&p);
        for i in 0..=20 {
            let t = i as f64 / 20.0;
            assert!(approx(b.eval(t), p.eval(t), 1e-12), "t={t}");
            let ((v, dv), (pv, pdv)) = (b.eval_with_derivative(t), p.eval_with_derivative(t));
            assert_eq!(v.to_bits(), b.eval(t).to_bits(), "t={t}");
            assert!(approx(v, pv, 1e-12) && approx(dv, pdv, 1e-12), "t={t}: {dv} vs {pdv}");
        }
        let constant = Bernstein::new(vec![2.5]);
        assert_eq!(constant.eval_with_derivative(0.3), (2.5, 0.0));
    }

    #[test]
    fn partition_of_unity() {
        // Constant 1 has all Bernstein coefficients equal to 1.
        let b = Bernstein::from_polynomial(&Polynomial::constant(1.0));
        for &c in b.coeffs() {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn elevation_preserves_values() {
        let b = Bernstein::new(vec![0.0, 1.0, -1.0, 0.5]);
        let e = b.elevate().elevate();
        assert_eq!(e.degree(), b.degree() + 2);
        for i in 0..=10 {
            let t = i as f64 / 10.0;
            assert!(approx(e.eval(t), b.eval(t), 1e-12), "t={t}");
        }
    }

    #[test]
    fn subdivision_preserves_values() {
        let b = Bernstein::new(vec![1.0, -0.5, 0.25, 2.0, -1.0]);
        let (l, r) = b.subdivide(0.3);
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            // left covers [0, 0.3]
            assert!(approx(l.eval(u), b.eval(0.3 * u), 1e-12), "left u={u}");
            // right covers [0.3, 1]
            assert!(approx(r.eval(u), b.eval(0.3 + 0.7 * u), 1e-12), "right u={u}");
        }
    }

    #[test]
    fn sign_changes_counts_strictly() {
        assert_eq!(Bernstein::new(vec![1.0, 2.0, 3.0]).sign_changes(), 0);
        assert_eq!(Bernstein::new(vec![1.0, -2.0, 3.0]).sign_changes(), 2);
        assert_eq!(Bernstein::new(vec![1.0, 0.0, -3.0]).sign_changes(), 1);
        assert_eq!(Bernstein::new(vec![0.0, 0.0, 0.0]).sign_changes(), 0);
    }

    #[test]
    fn sign_changes_bound_roots() {
        // (x - 0.3)(x - 0.7) has 2 roots in (0,1) -> at least 2 sign changes.
        let p = Polynomial::from_roots(&[0.3, 0.7]);
        let b = Bernstein::from_polynomial(&p);
        assert!(b.sign_changes() >= 2);
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn empty_coeffs_panics() {
        let _ = Bernstein::new(Vec::new());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(coeffs in proptest::collection::vec(-10.0f64..10.0, 1..7)) {
            let p = Polynomial::new(coeffs);
            let b = Bernstein::from_polynomial(&p);
            let q = b.to_polynomial();
            prop_assert!(p.coeff_distance(&q) < 1e-7);
        }

        #[test]
        fn prop_eval_agreement(
            coeffs in proptest::collection::vec(-10.0f64..10.0, 1..7),
            t in 0.0f64..=1.0,
        ) {
            let p = Polynomial::new(coeffs);
            let b = Bernstein::from_polynomial(&p);
            prop_assert!(approx(b.eval(t), p.eval(t), 1e-9));
        }

        #[test]
        fn prop_subdivision_variation_diminishing(
            coeffs in proptest::collection::vec(-5.0f64..5.0, 2..7),
            t in 0.05f64..0.95,
        ) {
            let b = Bernstein::new(coeffs);
            let (l, r) = b.subdivide(t);
            prop_assert!(l.sign_changes() + r.sign_changes() <= b.sign_changes() + 1);
        }

        #[test]
        fn prop_max_abs_coeff_bounds_values(
            coeffs in proptest::collection::vec(-5.0f64..5.0, 1..8),
            t in 0.0f64..=1.0,
        ) {
            let b = Bernstein::new(coeffs);
            prop_assert!(b.eval(t).abs() <= b.max_abs_coeff() + 1e-9);
        }
    }
}
