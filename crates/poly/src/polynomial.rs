//! Dense power-basis polynomials over `f64`.
//!
//! The bias polynomial `F_n` of the paper has degree at most `ℓ + 1`, so all
//! polynomials in this workspace are tiny; a dense `Vec<f64>` representation
//! is both the simplest and the fastest choice.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Tolerance below which leading coefficients are trimmed to keep degrees
/// meaningful after floating-point arithmetic.
const TRIM_EPS: f64 = 0.0;

/// A polynomial `c[0] + c[1] x + c[2] x² + …` with `f64` coefficients.
///
/// The zero polynomial is represented by an empty coefficient vector;
/// otherwise the leading coefficient is non-zero (exact zeros are trimmed).
///
/// # Examples
///
/// ```
/// use bitdissem_poly::Polynomial;
///
/// let p = Polynomial::new(vec![1.0, -3.0, 2.0]); // 1 - 3x + 2x²
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.eval(1.0), 0.0);
/// assert_eq!(p.eval(0.5), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from power-basis coefficients, lowest degree
    /// first. Exactly-zero leading coefficients are trimmed.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitdissem_poly::Polynomial;
    /// let p = Polynomial::new(vec![0.0, 1.0, 0.0]); // x
    /// assert_eq!(p.degree(), Some(1));
    /// ```
    #[must_use]
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Self { coeffs };
        p.trim();
        p
    }

    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    #[must_use]
    pub fn constant(c: f64) -> Self {
        Self::new(vec![c])
    }

    /// The monomial `x`.
    #[must_use]
    pub fn x() -> Self {
        Self::new(vec![0.0, 1.0])
    }

    /// Builds the monic polynomial `∏ (x - r)` from its roots.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitdissem_poly::Polynomial;
    /// let p = Polynomial::from_roots(&[1.0, 2.0]);
    /// assert_eq!(p.eval(1.0), 0.0);
    /// assert_eq!(p.eval(2.0), 0.0);
    /// assert_eq!(p.eval(0.0), 2.0);
    /// ```
    #[must_use]
    pub fn from_roots(roots: &[f64]) -> Self {
        let mut p = Self::constant(1.0);
        for &r in roots {
            p = &p * &Self::new(vec![-r, 1.0]);
        }
        p
    }

    /// Returns `true` if this is the zero polynomial.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    #[must_use]
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Power-basis coefficients, lowest degree first.
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Maximum absolute coefficient (`0` for the zero polynomial).
    ///
    /// This is the constant `M` of Claim 17 in the paper.
    #[must_use]
    pub fn max_abs_coeff(&self) -> f64 {
        self.coeffs.iter().fold(0.0, |m, &c| m.max(c.abs()))
    }

    /// Evaluates the polynomial at `x` using Horner's scheme.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluates the polynomial and its derivative at `x` in a single Horner
    /// pass. Returns `(p(x), p'(x))`.
    #[must_use]
    pub fn eval_with_derivative(&self, x: f64) -> (f64, f64) {
        let mut p = 0.0;
        let mut dp = 0.0;
        for &c in self.coeffs.iter().rev() {
            dp = dp * x + p;
            p = p * x + c;
        }
        (p, dp)
    }

    /// Formal derivative.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitdissem_poly::Polynomial;
    /// let p = Polynomial::new(vec![0.0, 0.0, 1.0]); // x²
    /// assert_eq!(p.derivative(), Polynomial::new(vec![0.0, 2.0]));
    /// ```
    #[must_use]
    pub fn derivative(&self) -> Self {
        if self.coeffs.len() <= 1 {
            return Self::zero();
        }
        let coeffs = self.coeffs.iter().enumerate().skip(1).map(|(i, &c)| c * i as f64).collect();
        Self::new(coeffs)
    }

    /// Multiplies all coefficients by `s`.
    #[must_use]
    pub fn scale(&self, s: f64) -> Self {
        Self::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Composes with an affine map: returns `q(x) = p(a + b·x)`.
    ///
    /// Used to restrict a polynomial to a sub-interval before isolation.
    #[must_use]
    pub fn compose_affine(&self, a: f64, b: f64) -> Self {
        // Horner in the polynomial ring: q = (((c_d) * (a + b x) + c_{d-1}) ...)
        let shift = Self::new(vec![a, b]);
        let mut q = Self::zero();
        for &c in self.coeffs.iter().rev() {
            q = &(&q * &shift) + &Self::constant(c);
        }
        q
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = q·div + r` and `deg r < deg div`.
    ///
    /// # Panics
    ///
    /// Panics if `div` is the zero polynomial.
    #[must_use]
    pub fn div_rem(&self, div: &Self) -> (Self, Self) {
        assert!(!div.is_zero(), "division by the zero polynomial");
        let d = div.coeffs.len();
        if self.coeffs.len() < d {
            return (Self::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0.0; self.coeffs.len() - d + 1];
        let lead = div.coeffs[d - 1];
        for i in (0..quot.len()).rev() {
            let q = rem[i + d - 1] / lead;
            quot[i] = q;
            for (j, &dc) in div.coeffs.iter().enumerate() {
                rem[i + j] -= q * dc;
            }
        }
        rem.truncate(d - 1);
        (Self::new(quot), Self::new(rem))
    }

    /// L∞ distance between coefficient vectors (useful in tests).
    #[must_use]
    pub fn coeff_distance(&self, other: &Self) -> f64 {
        let n = self.coeffs.len().max(other.coeffs.len());
        (0..n)
            .map(|i| {
                let a = self.coeffs.get(i).copied().unwrap_or(0.0);
                let b = other.coeffs.get(i).copied().unwrap_or(0.0);
                (a - b).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Treats coefficients whose magnitude is at most `eps` as zero and trims
    /// accordingly, returning the cleaned polynomial.
    #[must_use]
    pub fn cleaned(&self, eps: f64) -> Self {
        let coeffs = self.coeffs.iter().map(|&c| if c.abs() <= eps { 0.0 } else { c }).collect();
        Self::new(coeffs)
    }

    fn trim(&mut self) {
        while let Some(&last) = self.coeffs.last() {
            if last.abs() <= TRIM_EPS {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match i {
                0 => write!(f, "{a}")?,
                1 => {
                    if (a - 1.0).abs() > f64::EPSILON {
                        write!(f, "{a}·")?;
                    }
                    write!(f, "x")?;
                }
                _ => {
                    if (a - 1.0).abs() > f64::EPSILON {
                        write!(f, "{a}·")?;
                    }
                    write!(f, "x^{i}")?;
                }
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl Add for &Polynomial {
    type Output = Polynomial;

    fn add(self, rhs: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let coeffs = (0..n)
            .map(|i| {
                self.coeffs.get(i).copied().unwrap_or(0.0)
                    + rhs.coeffs.get(i).copied().unwrap_or(0.0)
            })
            .collect();
        Polynomial::new(coeffs)
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;

    fn sub(self, rhs: &Polynomial) -> Polynomial {
        self + &(-rhs)
    }
}

impl Neg for &Polynomial {
    type Output = Polynomial;

    fn neg(self) -> Polynomial {
        self.scale(-1.0)
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: &Polynomial) -> Polynomial {
        if self.is_zero() || rhs.is_zero() {
            return Polynomial::zero();
        }
        let mut coeffs = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Polynomial::new(coeffs)
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
    fn zero_polynomial_properties() {
        let z = Polynomial::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(3.7), 0.0);
        assert_eq!(format!("{z}"), "0");
    }

    #[test]
    fn new_trims_leading_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }

    #[test]
    fn eval_horner_matches_naive() {
        let p = Polynomial::new(vec![3.0, -1.0, 0.5, 2.0]);
        for &x in &[-2.0, -0.5, 0.0, 0.3, 1.0, 4.2] {
            let naive = 3.0 - x + 0.5 * x * x + 2.0 * x * x * x;
            assert!(approx(p.eval(x), naive, 1e-12), "x={x}");
        }
    }

    #[test]
    fn eval_with_derivative_consistent() {
        let p = Polynomial::new(vec![1.0, -4.0, 2.0, 7.0]);
        let d = p.derivative();
        for &x in &[-1.0, 0.0, 0.25, 2.0] {
            let (v, dv) = p.eval_with_derivative(x);
            assert!(approx(v, p.eval(x), 1e-12));
            assert!(approx(dv, d.eval(x), 1e-12));
        }
    }

    #[test]
    fn arithmetic_ring_laws_spotcheck() {
        let a = Polynomial::new(vec![1.0, 2.0]);
        let b = Polynomial::new(vec![-1.0, 0.0, 3.0]);
        let c = Polynomial::new(vec![0.5, 0.5, 0.5, 0.5]);
        // distributivity: a*(b+c) == a*b + a*c
        let left = &a * &(&b + &c);
        let right = &(&a * &b) + &(&a * &c);
        assert!(left.coeff_distance(&right) < 1e-12);
        // commutativity of mul
        assert!((&a * &b).coeff_distance(&(&b * &a)) < 1e-12);
    }

    #[test]
    fn from_roots_vanishes_at_roots() {
        let roots = [0.1, 0.5, 0.9, -2.0];
        let p = Polynomial::from_roots(&roots);
        assert_eq!(p.degree(), Some(4));
        for &r in &roots {
            assert!(p.eval(r).abs() < 1e-10, "p({r}) = {}", p.eval(r));
        }
    }

    #[test]
    fn derivative_of_constant_is_zero() {
        assert!(Polynomial::constant(5.0).derivative().is_zero());
        assert!(Polynomial::zero().derivative().is_zero());
    }

    #[test]
    fn compose_affine_evaluates_correctly() {
        let p = Polynomial::new(vec![1.0, 1.0, 1.0]); // 1 + x + x²
        let q = p.compose_affine(2.0, 3.0); // p(2 + 3x)
        for &x in &[0.0, 0.5, 1.0, -1.0] {
            assert!(approx(q.eval(x), p.eval(2.0 + 3.0 * x), 1e-12));
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = Polynomial::new(vec![2.0, -3.0, 1.0, 4.0, -1.0]);
        let b = Polynomial::new(vec![1.0, 0.0, 1.0]);
        let (q, r) = a.div_rem(&b);
        let recon = &(&q * &b) + &r;
        assert!(recon.coeff_distance(&a) < 1e-12);
        assert!(r.degree().unwrap_or(0) < b.degree().unwrap());
    }

    #[test]
    #[should_panic(expected = "zero polynomial")]
    fn div_by_zero_panics() {
        let a = Polynomial::x();
        let _ = a.div_rem(&Polynomial::zero());
    }

    #[test]
    fn display_renders_signs() {
        let p = Polynomial::new(vec![-1.0, 2.0, 0.0, -3.0]);
        let s = format!("{p}");
        assert!(s.contains('x'), "{s}");
        assert!(s.starts_with('-'), "{s}");
    }

    #[test]
    fn cleaned_drops_tiny_coefficients() {
        let p = Polynomial::new(vec![1.0, 1e-17, 2.0, 1e-18]);
        let c = p.cleaned(1e-15);
        assert_eq!(c.degree(), Some(2));
        assert_eq!(c.coeffs()[1], 0.0);
    }

    proptest! {
        #[test]
        fn prop_add_eval_pointwise(
            a in proptest::collection::vec(-10.0f64..10.0, 0..6),
            b in proptest::collection::vec(-10.0f64..10.0, 0..6),
            x in -3.0f64..3.0,
        ) {
            let pa = Polynomial::new(a);
            let pb = Polynomial::new(b);
            let sum = &pa + &pb;
            prop_assert!(approx(sum.eval(x), pa.eval(x) + pb.eval(x), 1e-9));
        }

        #[test]
        fn prop_mul_eval_pointwise(
            a in proptest::collection::vec(-5.0f64..5.0, 0..5),
            b in proptest::collection::vec(-5.0f64..5.0, 0..5),
            x in -2.0f64..2.0,
        ) {
            let pa = Polynomial::new(a);
            let pb = Polynomial::new(b);
            let prod = &pa * &pb;
            prop_assert!(approx(prod.eval(x), pa.eval(x) * pb.eval(x), 1e-8));
        }

        #[test]
        fn prop_div_rem_roundtrip(
            a in proptest::collection::vec(-5.0f64..5.0, 1..7),
            b in proptest::collection::vec(-5.0f64..5.0, 1..4),
        ) {
            let pa = Polynomial::new(a);
            let pb = Polynomial::new(b);
            prop_assume!(!pb.is_zero());
            prop_assume!(pb.coeffs().last().unwrap().abs() > 0.1);
            let (q, r) = pa.div_rem(&pb);
            let recon = &(&q * &pb) + &r;
            prop_assert!(recon.coeff_distance(&pa) < 1e-6);
        }

        #[test]
        fn prop_derivative_linear(
            a in proptest::collection::vec(-5.0f64..5.0, 0..6),
            b in proptest::collection::vec(-5.0f64..5.0, 0..6),
        ) {
            let pa = Polynomial::new(a);
            let pb = Polynomial::new(b);
            let d1 = (&pa + &pb).derivative();
            let d2 = &pa.derivative() + &pb.derivative();
            prop_assert!(d1.coeff_distance(&d2) < 1e-10);
        }
    }
}
