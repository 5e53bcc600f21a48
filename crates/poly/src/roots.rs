//! Root isolation and refinement on the unit interval.
//!
//! Theorem 12 of the paper inspects the roots of the bias polynomial `F_n`
//! inside `[0, 1]`. This module finds them on its Bernstein form, whose
//! coefficients bound the polynomial on `[0, 1]` (for `F_n` they lie in
//! `[−1, 1]` at every `ℓ`, where power coefficients grow like `3^ℓ`):
//! de Casteljau subdivision isolates intervals that provably contain
//! exactly one root (variation-diminishing property), then bisection plus
//! a Newton polish refines each root to close to machine precision.

use crate::bernstein::Bernstein;

/// Relative size (against the largest Bernstein coefficient) below which a
/// value counts as a root of the polynomial.
const ROOT_EPS: f64 = 1e-11;

/// Relative size below which the midpoint value of a constant-sign
/// interval counts as zero, so that the interval carries no sign.
const SIGN_EPS: f64 = 1e-9;

/// An isolated root interval: the polynomial has exactly one sign change on
/// `[lo, hi]` (or the interval collapsed to a point root).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Isolated {
    /// Lower endpoint of the isolating interval (in `[0, 1]`).
    pub lo: f64,
    /// Upper endpoint of the isolating interval (in `[0, 1]`).
    pub hi: f64,
}

/// Finds the *sign-crossing* roots of `b` in `[0, 1]`, sorted increasing and
/// de-duplicated to within `tol`.
///
/// Even-order tangential roots (where `b` touches zero without changing
/// sign) are intentionally not reported: Theorem 12 of the paper only uses
/// the open intervals on which `F_n` has constant sign, and a tangential
/// root does not affect that structure. (Numerically, a tangential root is
/// indistinguishable from a polynomial that merely dips close to zero.)
///
/// Endpoint roots (`b(0) ≈ 0`, `b(1) ≈ 0`) are read off the first and last
/// coefficients, because the bias polynomial of any valid protocol vanishes
/// at both ends (Proposition 3). A subdivision point where `b` vanishes is
/// a root as it stands, so dyadic roots such as `1/2` come out exact.
///
/// # Panics
///
/// Panics if `tol` is not strictly positive.
///
/// # Examples
///
/// ```
/// use bitdissem_poly::{roots::roots_in_unit_interval, Bernstein, Polynomial};
/// let p = Polynomial::from_roots(&[0.0, 0.25, 0.75, 1.0]);
/// let rs = roots_in_unit_interval(&Bernstein::from_polynomial(&p), 1e-12);
/// assert_eq!(rs.len(), 4);
/// ```
#[must_use]
pub fn roots_in_unit_interval(b: &Bernstein, tol: f64) -> Vec<f64> {
    assert!(tol > 0.0, "tolerance must be positive");
    let scale = b.max_abs_coeff();
    if scale == 0.0 {
        return Vec::new();
    }
    let value_eps = scale * ROOT_EPS;
    let is_zero = |v: f64| v.abs() <= value_eps;

    let mut roots = Vec::new();
    let mut whole = b.clone();
    let d = whole.degree();
    // Endpoint roots; zeroing them keeps their round-off out of the sign
    // counts below.
    for (i, end) in [(0, 0.0), (d, 1.0)] {
        if is_zero(whole.coeffs()[i]) {
            whole.coeffs_mut()[i] = 0.0;
            roots.push(end);
        }
    }

    // Interior roots: Bernstein subdivision.
    let mut stack = vec![(whole, 0.0f64, 1.0f64)];
    let mut isolated: Vec<Isolated> = Vec::new();
    while let Some((seg, lo, hi)) = stack.pop() {
        let width = hi - lo;
        let changes = seg.sign_changes();
        if changes == 0 {
            continue;
        }
        if (changes == 1 && width <= 1e-3) || width <= tol {
            isolated.push(Isolated { lo, hi });
            continue;
        }
        let (mut l, mut r) = seg.subdivide(0.5);
        let mid = 0.5 * (lo + hi);
        // Both halves share the value at the split point.
        if is_zero(r.coeffs()[0]) {
            roots.push(mid);
            l.coeffs_mut()[d] = 0.0;
            r.coeffs_mut()[0] = 0.0;
        }
        stack.push((l, lo, mid));
        stack.push((r, mid, hi));
    }

    for iso in isolated {
        roots.push(refine_root(b, iso.lo, iso.hi, tol));
    }

    roots.sort_by(|a, b| a.partial_cmp(b).expect("roots are finite"));
    dedup_within(&mut roots, tol.max(1e-10));
    roots
}

/// Refines a root of `b` inside `[lo, hi]` by bisection (when the endpoints
/// bracket a sign change) followed by a few guarded Newton steps. An
/// endpoint where `b` is zero to the isolator's precision is the root.
#[must_use]
pub fn refine_root(b: &Bernstein, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    let value_eps = b.max_abs_coeff() * ROOT_EPS;
    let flo = b.eval(lo);
    let fhi = b.eval(hi);
    let mut x = 0.5 * (lo + hi);
    if flo.abs() <= value_eps {
        return lo;
    }
    if fhi.abs() <= value_eps {
        return hi;
    }
    if flo.signum() != fhi.signum() {
        // Bisection to tolerance.
        for _ in 0..200 {
            if hi - lo <= tol {
                break;
            }
            x = 0.5 * (lo + hi);
            let fx = b.eval(x);
            if fx == 0.0 {
                return x;
            }
            if fx.signum() == flo.signum() {
                lo = x;
            } else {
                hi = x;
            }
        }
        x = 0.5 * (lo + hi);
    }
    // Newton polish, guarded to stay in the original bracket.
    for _ in 0..8 {
        let (fx, dfx) = b.eval_with_derivative(x);
        if dfx == 0.0 {
            break;
        }
        let nx = x - fx / dfx;
        if !(lo - tol..=hi + tol).contains(&nx) || !nx.is_finite() {
            break;
        }
        if (nx - x).abs() <= f64::EPSILON * x.abs().max(1.0) {
            x = nx;
            break;
        }
        x = nx;
    }
    x.clamp(0.0, 1.0)
}

/// The maximal open sub-intervals of `[0, 1]` on which `b` has constant
/// non-zero sign, given its sorted roots. Returns `(lo, hi, sign)` triples
/// with `sign ∈ {-1, +1}` (intervals where the midpoint value is within
/// numeric zero are skipped).
///
/// # Examples
///
/// ```
/// use bitdissem_poly::{roots::{roots_in_unit_interval, sign_intervals}, Bernstein};
/// // x(x-1/2)(x-1) in degree-3 Bernstein form.
/// let b = Bernstein::new(vec![0.0, 1.0 / 6.0, -1.0 / 6.0, 0.0]);
/// let roots = roots_in_unit_interval(&b, 1e-12);
/// assert_eq!(roots, [0.0, 0.5, 1.0]);
/// let ivs = sign_intervals(&b, &roots);
/// assert_eq!(ivs.len(), 2);
/// assert_eq!(ivs[0].2, 1);  // positive on (0, 1/2)
/// assert_eq!(ivs[1].2, -1); // negative on (1/2, 1)
/// ```
#[must_use]
pub fn sign_intervals(b: &Bernstein, sorted_roots: &[f64]) -> Vec<(f64, f64, i8)> {
    let value_eps = b.max_abs_coeff() * SIGN_EPS;
    let mut bounds = Vec::with_capacity(sorted_roots.len() + 2);
    if sorted_roots.first().copied() != Some(0.0) {
        bounds.push(0.0);
    }
    bounds.extend_from_slice(sorted_roots);
    if sorted_roots.last().copied() != Some(1.0) {
        bounds.push(1.0);
    }
    let mut out = Vec::new();
    for w in bounds.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi - lo <= 1e-12 {
            continue;
        }
        let v = b.eval(0.5 * (lo + hi));
        if v.abs() <= value_eps {
            continue;
        }
        out.push((lo, hi, if v > 0.0 { 1 } else { -1 }));
    }
    out
}

fn dedup_within(xs: &mut Vec<f64>, tol: f64) {
    if xs.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(xs.len());
    out.push(xs[0]);
    for &x in xs.iter().skip(1) {
        if x - *out.last().expect("non-empty") > tol {
            out.push(x);
        }
    }
    *xs = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polynomial::Polynomial;
    use proptest::prelude::*;

    fn bern(p: &Polynomial) -> Bernstein {
        Bernstein::from_polynomial(p)
    }

    #[test]
    fn finds_simple_interior_roots() {
        let p = Polynomial::from_roots(&[0.2, 0.5, 0.8]);
        let rs = roots_in_unit_interval(&bern(&p), 1e-12);
        assert_eq!(rs.len(), 3);
        for (r, expect) in rs.iter().zip([0.2, 0.5, 0.8]) {
            assert!((r - expect).abs() < 1e-9, "{r} vs {expect}");
        }
    }

    #[test]
    fn finds_endpoint_roots() {
        let p = Polynomial::from_roots(&[0.0, 1.0]);
        let rs = roots_in_unit_interval(&bern(&p), 1e-12);
        assert_eq!(rs, vec![0.0, 1.0]);
    }

    #[test]
    fn ignores_roots_outside_unit_interval() {
        let p = Polynomial::from_roots(&[-0.5, 0.3, 1.7]);
        let rs = roots_in_unit_interval(&bern(&p), 1e-12);
        assert_eq!(rs.len(), 1);
        assert!((rs[0] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn no_roots_for_strictly_positive() {
        let p = Polynomial::new(vec![1.0, 0.0, 1.0]); // 1 + x²
        assert!(roots_in_unit_interval(&bern(&p), 1e-12).is_empty());
    }

    #[test]
    fn zero_polynomial_has_no_reported_roots() {
        assert!(roots_in_unit_interval(&bern(&Polynomial::zero()), 1e-12).is_empty());
    }

    #[test]
    fn clustered_roots_never_overcounted() {
        // Two roots 1e-13 apart form a numerically tangential pair: the
        // isolator may report the crossing pair as zero or one root, but
        // never two, and the sign structure stays globally positive-ish.
        let p = Polynomial::from_roots(&[0.5, 0.5 + 1e-13]);
        let rs = roots_in_unit_interval(&bern(&p), 1e-9);
        assert!(rs.len() <= 1, "found {rs:?}");
        let ivs = sign_intervals(&bern(&p), &rs);
        assert!(ivs.iter().all(|&(_, _, s)| s == 1));
    }

    #[test]
    fn double_root_interval_structure_is_usable() {
        // (x - 0.5)² ≥ 0: even if the tangential root is missed, the sign
        // intervals must all be positive.
        let p = Polynomial::from_roots(&[0.5, 0.5]);
        let rs = roots_in_unit_interval(&bern(&p), 1e-12);
        let ivs = sign_intervals(&bern(&p), &rs);
        assert!(ivs.iter().all(|&(_, _, s)| s == 1));
    }

    #[test]
    fn sign_intervals_alternate_for_simple_roots() {
        let p = Polynomial::from_roots(&[0.0, 0.3, 0.6, 1.0]);
        let rs = roots_in_unit_interval(&bern(&p), 1e-12);
        let ivs = sign_intervals(&bern(&p), &rs);
        assert_eq!(ivs.len(), 3);
        for w in ivs.windows(2) {
            assert_ne!(w[0].2, w[1].2, "signs must alternate across simple roots");
        }
    }

    #[test]
    fn refine_root_converges_quadratically_near_root() {
        let p = Polynomial::from_roots(&[0.123_456_789]);
        let r = refine_root(&bern(&p), 0.1, 0.2, 1e-15);
        assert!((r - 0.123_456_789).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn rejects_nonpositive_tolerance() {
        let _ = roots_in_unit_interval(&bern(&Polynomial::x()), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_recovers_well_separated_roots(
            mut roots in proptest::collection::vec(0.05f64..0.95, 1..5),
        ) {
            roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Require pairwise separation so the isolation is unambiguous.
            prop_assume!(roots.windows(2).all(|w| w[1] - w[0] > 0.05));
            let p = Polynomial::from_roots(&roots);
            let found = roots_in_unit_interval(&bern(&p), 1e-12);
            prop_assert_eq!(found.len(), roots.len());
            for (f, r) in found.iter().zip(&roots) {
                prop_assert!((f - r).abs() < 1e-7, "{} vs {}", f, r);
            }
        }

        #[test]
        fn prop_all_reported_roots_are_roots(
            coeffs in proptest::collection::vec(-5.0f64..5.0, 2..7),
        ) {
            let p = Polynomial::new(coeffs);
            prop_assume!(!p.is_zero());
            let scale = p.max_abs_coeff();
            for r in roots_in_unit_interval(&bern(&p), 1e-12) {
                prop_assert!(p.eval(r).abs() <= scale * 1e-6,
                    "claimed root {} has value {}", r, p.eval(r));
            }
        }
    }
}
