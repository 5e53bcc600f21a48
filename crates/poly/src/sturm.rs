//! Sturm sequences: exact root counting on an interval.
//!
//! Used as an independent cross-check of the Bernstein isolator
//! (ablation A3): the number of distinct real roots of a square-free
//! polynomial in `(a, b]` equals `V(a) − V(b)` where `V(x)` is the number of
//! sign changes of the Sturm chain evaluated at `x`.

use crate::polynomial::Polynomial;

/// The Sturm chain of a polynomial: `p, p', -rem(p, p'), …`.
///
/// Chains are truncated when a remainder becomes numerically zero relative to
/// the coefficient magnitudes involved.
#[derive(Debug, Clone)]
pub struct SturmChain {
    chain: Vec<Polynomial>,
}

impl SturmChain {
    /// Builds the Sturm chain of `p`.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitdissem_poly::{Polynomial, sturm::SturmChain};
    /// let p = Polynomial::from_roots(&[0.25, 0.75]);
    /// let chain = SturmChain::new(&p);
    /// assert_eq!(chain.count_roots(0.0, 1.0), 2);
    /// ```
    #[must_use]
    pub fn new(p: &Polynomial) -> Self {
        let mut chain = Vec::new();
        if p.is_zero() {
            return Self { chain };
        }
        let scale = p.max_abs_coeff();
        chain.push(p.clone());
        let d = p.derivative();
        if d.is_zero() {
            return Self { chain };
        }
        chain.push(d);
        loop {
            let n = chain.len();
            let (_, rem) = chain[n - 2].div_rem(&chain[n - 1]);
            let neg = rem.scale(-1.0).cleaned(scale * 1e-12);
            if neg.is_zero() {
                break;
            }
            chain.push(neg);
            if chain.len() > 64 {
                break; // defensive cap; degrees here are tiny
            }
        }
        Self { chain }
    }

    /// Number of sign changes of the chain evaluated at `x`.
    #[must_use]
    pub fn sign_changes_at(&self, x: f64) -> usize {
        let mut changes = 0;
        let mut last: Option<bool> = None;
        for p in &self.chain {
            let v = p.eval(x);
            if v == 0.0 {
                continue;
            }
            let s = v > 0.0;
            if let Some(prev) = last {
                if prev != s {
                    changes += 1;
                }
            }
            last = Some(s);
        }
        changes
    }

    /// Number of distinct real roots in `(a, b]`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= b`.
    #[must_use]
    pub fn count_roots(&self, a: f64, b: f64) -> usize {
        assert!(a < b, "interval must satisfy a < b, got [{a}, {b}]");
        let va = self.sign_changes_at(a);
        let vb = self.sign_changes_at(b);
        va.saturating_sub(vb)
    }

    /// Length of the chain (for diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chain.len()
    }

    /// Returns `true` if the chain is empty (zero polynomial input).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chain.is_empty()
    }
}

/// Counts distinct roots of `p` in `(a, b]` via a freshly built Sturm chain
/// on the square-free part of `p` (repeated factors are removed first,
/// which keeps the chain short and numerically stable).
///
/// # Panics
///
/// Panics if `a >= b`.
#[must_use]
pub fn count_distinct_roots(p: &Polynomial, a: f64, b: f64) -> usize {
    let sf = crate::gcd::square_free_part(p, 1e-10);
    SturmChain::new(&sf).count_roots(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counts_roots_of_quadratic() {
        let p = Polynomial::from_roots(&[0.3, 0.7]);
        assert_eq!(count_distinct_roots(&p, 0.0, 1.0), 2);
        assert_eq!(count_distinct_roots(&p, 0.0, 0.5), 1);
        assert_eq!(count_distinct_roots(&p, 0.71, 1.0), 0);
    }

    #[test]
    fn counts_interval_boundaries_half_open() {
        // Interval is (a, b]: a root exactly at `a` is not counted, at `b` is.
        let p = Polynomial::from_roots(&[0.5]);
        assert_eq!(count_distinct_roots(&p, 0.5, 1.0), 0);
        assert_eq!(count_distinct_roots(&p, 0.0, 0.5), 1);
    }

    #[test]
    fn double_root_counted_once() {
        let p = Polynomial::from_roots(&[0.5, 0.5]);
        assert_eq!(count_distinct_roots(&p, 0.0, 1.0), 1);
    }

    #[test]
    fn no_roots_for_positive_polynomial() {
        let p = Polynomial::new(vec![1.0, 0.0, 1.0]);
        assert_eq!(count_distinct_roots(&p, -10.0, 10.0), 0);
    }

    #[test]
    fn zero_polynomial_yields_empty_chain() {
        let chain = SturmChain::new(&Polynomial::zero());
        assert!(chain.is_empty());
        assert_eq!(chain.count_roots(0.0, 1.0), 0);
    }

    #[test]
    fn cubic_with_three_roots() {
        let p = Polynomial::from_roots(&[0.1, 0.5, 0.9]);
        assert_eq!(count_distinct_roots(&p, 0.0, 1.0), 3);
        assert_eq!(count_distinct_roots(&p, 0.2, 0.6), 1);
    }

    #[test]
    #[should_panic(expected = "a < b")]
    fn rejects_inverted_interval() {
        let _ = count_distinct_roots(&Polynomial::x(), 1.0, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_sturm_agrees_with_construction(
            mut roots in proptest::collection::vec(0.05f64..0.95, 0..5),
        ) {
            roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assume!(roots.windows(2).all(|w| w[1] - w[0] > 0.05));
            let p = Polynomial::from_roots(&roots);
            if p.degree().is_none() {
                return Ok(());
            }
            let counted = count_distinct_roots(&p, -0.01, 1.01);
            prop_assert_eq!(counted, roots.len());
        }

        #[test]
        fn prop_sturm_agrees_with_bernstein_isolator(
            mut roots in proptest::collection::vec(0.05f64..0.95, 1..5),
        ) {
            roots.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assume!(roots.windows(2).all(|w| w[1] - w[0] > 0.05));
            let p = Polynomial::from_roots(&roots);
            let b = crate::Bernstein::from_polynomial(&p);
            let bern = crate::roots::roots_in_unit_interval(&b, 1e-12).len();
            let sturm = count_distinct_roots(&p, -0.001, 1.001);
            prop_assert_eq!(bern, sturm);
        }
    }
}
