//! The 2-Choices dynamics.

use crate::opinion::Opinion;
use crate::protocol::Protocol;

/// The **2-Choices dynamics**: sample two opinions; if they agree, adopt
/// them, otherwise keep the current opinion:
///
/// ```text
/// g^[b](0) = 0,   g^[b](1) = b,   g^[b](2) = 1.
/// ```
///
/// A classical consensus dynamics with constant sample size (Ghaffari &
/// Lengler, PODC 2018). It *does* depend on the agent's own opinion, making
/// it a useful member of the E1 suite where `g⁰ ≠ g¹`.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::TwoChoices, Opinion, Protocol};
/// let tc = TwoChoices::new();
/// assert_eq!(tc.sample_size(), 2);
/// assert_eq!(tc.prob_one(Opinion::One, 1, 10), 1.0);  // split sample: keep own
/// assert_eq!(tc.prob_one(Opinion::Zero, 1, 10), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoChoices;

impl TwoChoices {
    /// Creates the 2-Choices dynamics (sample size is fixed at 2).
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Protocol for TwoChoices {
    fn sample_size(&self) -> usize {
        2
    }

    fn prob_one(&self, own: Opinion, k: usize, _n: u64) -> f64 {
        debug_assert!(k <= 2);
        match k {
            0 => 0.0,
            1 => f64::from(own.as_bit()),
            _ => 1.0,
        }
    }

    fn name(&self) -> String {
        "two-choices".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolExt;

    #[test]
    fn unanimous_samples_are_adopted() {
        let tc = TwoChoices::new();
        for own in Opinion::ALL {
            assert_eq!(tc.prob_one(own, 0, 10), 0.0);
            assert_eq!(tc.prob_one(own, 2, 10), 1.0);
        }
    }

    #[test]
    fn split_sample_keeps_own_opinion() {
        let tc = TwoChoices::new();
        assert_eq!(tc.prob_one(Opinion::Zero, 1, 10), 0.0);
        assert_eq!(tc.prob_one(Opinion::One, 1, 10), 1.0);
    }

    #[test]
    fn satisfies_prop3_but_is_own_dependent() {
        let tc = TwoChoices::new();
        assert!(tc.check_proposition3(10).is_ok());
        assert!(!tc.is_own_independent(10));
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(TwoChoices, TwoChoices::new());
    }
}
