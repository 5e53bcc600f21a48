//! Binary opinions.

use std::fmt;
use std::ops::Not;

/// A binary opinion held by an agent.
///
/// The paper identifies opinions with bits; we use a dedicated enum so that
/// opinions, sample counts and agent indices cannot be confused
/// (type-safety guideline C-NEWTYPE / C-CUSTOM-TYPE).
///
/// # Examples
///
/// ```
/// use bitdissem_core::Opinion;
///
/// let one = Opinion::One;
/// assert_eq!(one.as_bit(), 1);
/// assert_eq!(!one, Opinion::Zero);
/// assert_eq!(Opinion::from_bool(true), Opinion::One);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Opinion {
    /// Opinion `0`.
    #[default]
    Zero,
    /// Opinion `1`.
    One,
}

impl Opinion {
    /// All opinions, in numeric order.
    pub const ALL: [Opinion; 2] = [Opinion::Zero, Opinion::One];

    /// Returns the opinion as a bit (`0` or `1`).
    #[must_use]
    pub fn as_bit(self) -> u8 {
        match self {
            Opinion::Zero => 0,
            Opinion::One => 1,
        }
    }

    /// Returns `true` if this is [`Opinion::One`].
    #[must_use]
    pub fn is_one(self) -> bool {
        matches!(self, Opinion::One)
    }

    /// Builds an opinion from a boolean (`true` ↦ `One`).
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Opinion::One
        } else {
            Opinion::Zero
        }
    }

    /// Builds an opinion from a bit.
    ///
    /// # Errors
    ///
    /// Returns the offending value if `bit` is not `0` or `1`.
    pub fn try_from_bit(bit: u8) -> Result<Self, u8> {
        match bit {
            0 => Ok(Opinion::Zero),
            1 => Ok(Opinion::One),
            other => Err(other),
        }
    }

    /// The opposite opinion.
    #[must_use]
    pub fn flipped(self) -> Self {
        !self
    }
}

impl Not for Opinion {
    type Output = Opinion;

    fn not(self) -> Opinion {
        match self {
            Opinion::Zero => Opinion::One,
            Opinion::One => Opinion::Zero,
        }
    }
}

impl From<bool> for Opinion {
    fn from(b: bool) -> Self {
        Opinion::from_bool(b)
    }
}

impl From<Opinion> for u8 {
    fn from(o: Opinion) -> u8 {
        o.as_bit()
    }
}

impl From<Opinion> for u64 {
    fn from(o: Opinion) -> u64 {
        u64::from(o.as_bit())
    }
}

impl fmt::Display for Opinion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        for o in Opinion::ALL {
            assert_eq!(Opinion::try_from_bit(o.as_bit()), Ok(o));
        }
        assert_eq!(Opinion::try_from_bit(2), Err(2));
    }

    #[test]
    fn negation_is_involution() {
        for o in Opinion::ALL {
            assert_eq!(!!o, o);
            assert_ne!(!o, o);
            assert_eq!(o.flipped(), !o);
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Opinion::from(true), Opinion::One);
        assert_eq!(Opinion::from(false), Opinion::Zero);
        assert_eq!(u8::from(Opinion::One), 1);
        assert_eq!(u64::from(Opinion::Zero), 0);
        assert!(Opinion::One.is_one());
        assert!(!Opinion::Zero.is_one());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Opinion::default(), Opinion::Zero);
    }

    #[test]
    fn display_renders_bits() {
        assert_eq!(Opinion::Zero.to_string(), "0");
        assert_eq!(Opinion::One.to_string(), "1");
    }

    #[test]
    fn ordering_matches_bits() {
        assert!(Opinion::Zero < Opinion::One);
    }
}
