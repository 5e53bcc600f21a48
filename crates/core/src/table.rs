//! Table-driven protocols: the universal representation.
//!
//! Any memory-less protocol at a fixed population size `n` is a pair of
//! vectors `(g⁰, g¹)` of `ℓ + 1` probabilities — [`GTable`] stores exactly
//! that, validates it, and implements [`Protocol`]. All named dynamics can be
//! materialized into a `GTable` via
//! [`ProtocolExt::to_table`](crate::protocol::ProtocolExt::to_table), and the
//! analysis crate consumes tables when building the bias polynomial.

use bitdissem_poly::kernel::{Kernel, KernelError};

use crate::error::ProtocolError;
use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// An explicit decision table `g^[b](k)`, `b ∈ {0, 1}`, `k ∈ {0, …, ℓ}`.
///
/// # Examples
///
/// A "lazy voter" that follows a random sample with probability ½ and
/// otherwise keeps its opinion:
///
/// ```
/// use bitdissem_core::{GTable, Opinion, Protocol};
///
/// let ell = 2;
/// let g0: Vec<f64> = (0..=ell).map(|k| 0.5 * k as f64 / ell as f64).collect();
/// let g1: Vec<f64> = (0..=ell).map(|k| 0.5 + 0.5 * k as f64 / ell as f64).collect();
/// let lazy = GTable::new(g0, g1)?;
/// assert_eq!(lazy.prob_one(Opinion::One, 0, 10), 0.5);
/// # Ok::<(), bitdissem_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GTable {
    g0: Vec<f64>,
    g1: Vec<f64>,
    name: String,
}

impl GTable {
    /// Creates a table protocol from the two probability vectors
    /// (`g0[k]`/`g1[k]` = probability of adopting opinion 1 when holding
    /// opinion 0/1 and observing `k` ones).
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::ZeroSampleSize`] if the tables have fewer than two
    ///   entries (`ℓ = 0`);
    /// * [`ProtocolError::TableLength`] if `g0` and `g1` differ in length;
    /// * [`ProtocolError::InvalidProbability`] if any entry is outside
    ///   `[0, 1]` or not finite.
    pub fn new(g0: Vec<f64>, g1: Vec<f64>) -> Result<Self, ProtocolError> {
        if g0.len() < 2 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        if g0.len() != g1.len() {
            return Err(ProtocolError::TableLength { expected: g0.len(), actual: g1.len() });
        }
        for (own, table) in [(0u8, &g0), (1u8, &g1)] {
            for (k, &v) in table.iter().enumerate() {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(ProtocolError::InvalidProbability { own, k, value: v });
                }
            }
        }
        let ell = g0.len() - 1;
        Ok(Self { g0, g1, name: format!("gtable(l={ell})") })
    }

    /// Creates a table **without validating** the entries.
    ///
    /// This exists solely so tests and the conformance fault-injection
    /// harness can build deliberately invalid tables (out-of-range or
    /// non-finite `g` values) and verify that downstream validation — e.g.
    /// [`crate::ProtocolError::InvalidAdoptionProbability`] from the
    /// adoption-probability computation — actually catches them. Production
    /// code must use [`GTable::new`].
    ///
    /// # Panics
    ///
    /// Panics if the rows are shorter than two entries or differ in length
    /// (shape errors are never injectable faults).
    #[doc(hidden)]
    #[must_use]
    pub fn new_unchecked(g0: Vec<f64>, g1: Vec<f64>) -> Self {
        assert!(g0.len() >= 2 && g0.len() == g1.len(), "rows must share a length >= 2");
        let ell = g0.len() - 1;
        Self { g0, g1, name: format!("gtable-unchecked(l={ell})") }
    }

    /// Creates an own-opinion-independent table (`g⁰ = g¹ = g`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`GTable::new`].
    pub fn symmetric(g: Vec<f64>) -> Result<Self, ProtocolError> {
        Self::new(g.clone(), g)
    }

    /// Renames the table (builder-style) for nicer report output.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The sample size `ℓ`.
    #[must_use]
    pub fn sample_size(&self) -> usize {
        self.g0.len() - 1
    }

    /// Compiles the table into an adoption-probability [`Kernel`]
    /// (precomputed Eq.-4 polynomial coefficients, evaluated by an
    /// allocation-free Horner pass — the simulator fast path).
    ///
    /// Validation happens here, once: a kernel obtained from this method
    /// can be evaluated per round with nothing more than a `[0, 1]` clamp.
    ///
    /// # Errors
    ///
    /// Returns the same [`ProtocolError`] variants as [`GTable::new`] — a
    /// table built by `new` always compiles, but tables from
    /// [`GTable::new_unchecked`] (fault injection) surface their corrupt
    /// entries here instead of mid-simulation.
    pub fn compile(&self) -> Result<Kernel, ProtocolError> {
        Kernel::compile(&self.g0, &self.g1).map_err(|e| match e {
            KernelError::RowLengthMismatch { g0, g1 } => {
                ProtocolError::TableLength { expected: g0, actual: g1 }
            }
            KernelError::TooShort { .. } => ProtocolError::ZeroSampleSize,
            KernelError::InvalidEntry { own, k, value } => {
                ProtocolError::InvalidProbability { own, k, value }
            }
        })
    }

    /// Table lookup: `g^[own](k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k > ℓ`.
    #[must_use]
    pub fn g(&self, own: Opinion, k: usize) -> f64 {
        match own {
            Opinion::Zero => self.g0[k],
            Opinion::One => self.g1[k],
        }
    }

    /// The `g⁰` row.
    #[must_use]
    pub fn g0(&self) -> &[f64] {
        &self.g0
    }

    /// The `g¹` row.
    #[must_use]
    pub fn g1(&self) -> &[f64] {
        &self.g1
    }

    /// Returns a copy with the Proposition-3 endpoints forced
    /// (`g⁰(0) = 0`, `g¹(ℓ) = 1`), making the correct consensus absorbing.
    #[must_use]
    pub fn with_absorbing_consensus(mut self) -> Self {
        self.g0[0] = 0.0;
        let ell = self.g1.len() - 1;
        self.g1[ell] = 1.0;
        self
    }
}

impl Protocol for GTable {
    fn sample_size(&self) -> usize {
        self.sample_size()
    }

    fn prob_one(&self, own: Opinion, ones_in_sample: usize, _n: u64) -> f64 {
        self.g(own, ones_in_sample)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validates_probabilities() {
        assert!(matches!(
            GTable::new(vec![0.0, 1.5], vec![0.0, 1.0]),
            Err(ProtocolError::InvalidProbability { own: 0, k: 1, .. })
        ));
        assert!(matches!(
            GTable::new(vec![0.0, 1.0], vec![f64::NAN, 1.0]),
            Err(ProtocolError::InvalidProbability { own: 1, k: 0, .. })
        ));
    }

    #[test]
    fn validates_lengths() {
        assert!(matches!(GTable::new(vec![0.5], vec![0.5]), Err(ProtocolError::ZeroSampleSize)));
        assert!(matches!(
            GTable::new(vec![0.0, 1.0], vec![0.0, 0.5, 1.0]),
            Err(ProtocolError::TableLength { expected: 2, actual: 3 })
        ));
    }

    #[test]
    fn symmetric_builds_own_independent() {
        let t = GTable::symmetric(vec![0.0, 0.5, 1.0]).unwrap();
        assert_eq!(t.g(Opinion::Zero, 1), t.g(Opinion::One, 1));
        assert_eq!(t.sample_size(), 2);
    }

    #[test]
    fn with_absorbing_consensus_forces_endpoints() {
        let t = GTable::symmetric(vec![0.3, 0.5, 0.7]).unwrap().with_absorbing_consensus();
        assert_eq!(t.g(Opinion::Zero, 0), 0.0);
        assert_eq!(t.g(Opinion::One, 2), 1.0);
        // Interior entries untouched.
        assert_eq!(t.g(Opinion::Zero, 1), 0.5);
    }

    #[test]
    fn naming() {
        let t = GTable::symmetric(vec![0.0, 1.0]).unwrap();
        assert_eq!(Protocol::name(&t), "gtable(l=1)");
        let t = t.with_name("custom");
        assert_eq!(Protocol::name(&t), "custom");
    }

    #[test]
    #[should_panic]
    fn lookup_out_of_range_panics() {
        let t = GTable::symmetric(vec![0.0, 1.0]).unwrap();
        let _ = t.g(Opinion::Zero, 5);
    }

    #[test]
    fn validated_tables_always_compile() {
        let t = GTable::new(vec![0.0, 0.3, 1.0], vec![0.2, 0.8, 1.0]).unwrap();
        let kernel = t.compile().expect("validated table compiles");
        assert_eq!(kernel.sample_size(), t.sample_size());
        // P_b(0) = g_b[0] and P_b(1) = g_b[ℓ], exactly.
        assert_eq!(kernel.eval(0.0), (0.0, 0.2));
        assert_eq!(kernel.eval(1.0), (1.0, 1.0));
    }

    #[test]
    fn corrupt_unchecked_tables_fail_to_compile() {
        let t = GTable::new_unchecked(vec![0.0, 2.0], vec![0.0, 1.0]);
        let err = t.compile().unwrap_err();
        assert!(
            matches!(err, ProtocolError::InvalidProbability { own: 0, k: 1, .. }),
            "corruption surfaces with row and index: {err}"
        );
        let t = GTable::new_unchecked(vec![0.0, f64::NAN], vec![0.0, 1.0]);
        assert!(t.compile().is_err());
    }

    proptest! {
        #[test]
        fn prop_valid_tables_accepted_and_consistent(
            rows in (2usize..10).prop_flat_map(|len| (
                proptest::collection::vec(0.0f64..=1.0, len),
                proptest::collection::vec(0.0f64..=1.0, len),
            )),
        ) {
            let (g0, g1) = rows;
            let t = GTable::new(g0.clone(), g1.clone()).unwrap();
            prop_assert_eq!(t.sample_size(), g0.len() - 1);
            for k in 0..g0.len() {
                prop_assert_eq!(t.prob_one(Opinion::Zero, k, 42), g0[k]);
                prop_assert_eq!(t.prob_one(Opinion::One, k, 42), g1[k]);
            }
        }
    }
}
