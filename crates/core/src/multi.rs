//! Multi-opinion extension.
//!
//! Theorem 1 of the paper extends beyond binary opinions *provided agents
//! may not adopt an opinion they have never seen or adopted* (footnote 2):
//! under that natural restriction, a binary initial configuration reduces the
//! multi-opinion problem to the binary one. This module implements the
//! restricted multi-opinion model so that the reduction can be exercised
//! empirically (integration test `multi_opinion_reduction`).

use crate::error::ProtocolError;

/// A memory-less update rule over `m ≥ 2` opinions.
///
/// Upon activation an agent holding opinion `own` observes a *count vector*
/// `counts` (`counts[j]` = number of sampled agents with opinion `j`,
/// summing to `ℓ`) and returns a probability distribution over the next
/// opinion.
///
/// **Support restriction** (paper footnote 2): the returned distribution
/// must be supported on `{own} ∪ {j : counts[j] > 0}` — an agent cannot
/// invent an opinion it has neither held nor observed. Violations are
/// detectable with [`check_support_restriction`].
pub trait MultiProtocol {
    /// Number of distinct opinions `m ≥ 2`.
    fn num_opinions(&self) -> usize;

    /// The sample size `ℓ ≥ 1`.
    fn sample_size(&self) -> usize;

    /// Distribution over the next opinion, given own opinion and observed
    /// counts. Must have length [`MultiProtocol::num_opinions`] and sum
    /// to 1.
    fn decide(&self, own: usize, counts: &[usize], n: u64) -> Vec<f64>;

    /// Human-readable name.
    fn name(&self) -> String;
}

/// Exhaustively checks the support restriction of a [`MultiProtocol`] over
/// all count vectors of total `ℓ` (feasible for small `m`, `ℓ`).
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidProbability`] pointing at the first
/// violation found: probability mass on an opinion that is neither `own` nor
/// observed, or a distribution that does not sum to 1.
pub fn check_support_restriction<P: MultiProtocol + ?Sized>(
    p: &P,
    n: u64,
) -> Result<(), ProtocolError> {
    let m = p.num_opinions();
    let ell = p.sample_size();
    let mut counts = vec![0usize; m];
    check_rec(p, n, &mut counts, 0, ell)?;
    Ok(())
}

fn check_rec<P: MultiProtocol + ?Sized>(
    p: &P,
    n: u64,
    counts: &mut Vec<usize>,
    idx: usize,
    remaining: usize,
) -> Result<(), ProtocolError> {
    let m = p.num_opinions();
    if idx == m - 1 {
        counts[idx] = remaining;
        for own in 0..m {
            let dist = p.decide(own, counts, n);
            let sum: f64 = dist.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(ProtocolError::InvalidProbability { own: own as u8, k: 0, value: sum });
            }
            for (j, &w) in dist.iter().enumerate() {
                if w > 1e-12 && j != own && counts[j] == 0 {
                    return Err(ProtocolError::InvalidProbability {
                        own: own as u8,
                        k: j,
                        value: w,
                    });
                }
            }
        }
        counts[idx] = 0;
        return Ok(());
    }
    for c in 0..=remaining {
        counts[idx] = c;
        check_rec(p, n, counts, idx + 1, remaining - c)?;
        counts[idx] = 0;
    }
    Ok(())
}

/// Multi-opinion Voter: adopt the opinion of a uniformly random sample,
/// i.e. opinion `j` with probability `counts[j] / ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiVoter {
    m: usize,
    ell: usize,
}

impl MultiVoter {
    /// Creates a multi-opinion Voter over `m` opinions with sample size
    /// `ell`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0` or `m < 2`.
    pub fn new(m: usize, ell: usize) -> Result<Self, ProtocolError> {
        if ell == 0 || m < 2 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        Ok(Self { m, ell })
    }
}

impl MultiProtocol for MultiVoter {
    fn num_opinions(&self) -> usize {
        self.m
    }

    fn sample_size(&self) -> usize {
        self.ell
    }

    fn decide(&self, _own: usize, counts: &[usize], _n: u64) -> Vec<f64> {
        counts.iter().map(|&c| c as f64 / self.ell as f64).collect()
    }

    fn name(&self) -> String {
        format!("multi-voter(m={}, l={})", self.m, self.ell)
    }
}

/// Multi-opinion Minority: if the sample is unanimous adopt it; otherwise
/// adopt a uniformly random opinion among those observed with the *lowest
/// non-zero* count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiMinority {
    m: usize,
    ell: usize,
}

impl MultiMinority {
    /// Creates a multi-opinion Minority over `m` opinions with sample size
    /// `ell`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ZeroSampleSize`] if `ell == 0` or `m < 2`.
    pub fn new(m: usize, ell: usize) -> Result<Self, ProtocolError> {
        if ell == 0 || m < 2 {
            return Err(ProtocolError::ZeroSampleSize);
        }
        Ok(Self { m, ell })
    }
}

impl MultiProtocol for MultiMinority {
    fn num_opinions(&self) -> usize {
        self.m
    }

    fn sample_size(&self) -> usize {
        self.ell
    }

    fn decide(&self, _own: usize, counts: &[usize], _n: u64) -> Vec<f64> {
        let mut dist = vec![0.0; self.m];
        let observed: Vec<usize> = (0..self.m).filter(|&j| counts[j] > 0).collect();
        if observed.len() == 1 {
            // Unanimous sample: adopt it.
            dist[observed[0]] = 1.0;
            return dist;
        }
        let min_count = observed.iter().map(|&j| counts[j]).min().expect("non-empty");
        let minorities: Vec<usize> =
            observed.into_iter().filter(|&j| counts[j] == min_count).collect();
        let w = 1.0 / minorities.len() as f64;
        for j in minorities {
            dist[j] = w;
        }
        dist
    }

    fn name(&self) -> String {
        format!("multi-minority(m={}, l={})", self.m, self.ell)
    }
}

/// Restricts a multi-opinion protocol to opinions `{0, 1}` and expresses it
/// as a binary [`GTable`](crate::GTable) — the reduction behind footnote 2.
///
/// # Errors
///
/// Propagates table validation errors (none are expected for a well-formed
/// [`MultiProtocol`]).
pub fn binary_restriction<P: MultiProtocol + ?Sized>(
    p: &P,
    n: u64,
) -> Result<crate::GTable, ProtocolError> {
    let ell = p.sample_size();
    let m = p.num_opinions();
    let mut g0 = Vec::with_capacity(ell + 1);
    let mut g1 = Vec::with_capacity(ell + 1);
    for k in 0..=ell {
        let mut counts = vec![0usize; m];
        counts[0] = ell - k;
        counts[1] = k;
        g0.push(p.decide(0, &counts, n)[1]);
        g1.push(p.decide(1, &counts, n)[1]);
    }
    crate::GTable::new(g0, g1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{Minority, Voter};
    use crate::opinion::Opinion;
    use crate::protocol::Protocol;

    #[test]
    fn multi_voter_distribution_is_sample_frequency() {
        let mv = MultiVoter::new(3, 4).unwrap();
        let d = mv.decide(0, &[2, 1, 1], 100);
        assert_eq!(d, vec![0.5, 0.25, 0.25]);
    }

    #[test]
    fn multi_voter_respects_support_restriction() {
        let mv = MultiVoter::new(3, 3).unwrap();
        assert!(check_support_restriction(&mv, 100).is_ok());
    }

    #[test]
    fn multi_minority_respects_support_restriction() {
        let mm = MultiMinority::new(4, 3).unwrap();
        assert!(check_support_restriction(&mm, 100).is_ok());
    }

    #[test]
    fn multi_minority_unanimous_and_tie_cases() {
        let mm = MultiMinority::new(3, 4).unwrap();
        // Unanimous: adopt.
        assert_eq!(mm.decide(0, &[0, 4, 0], 10), vec![0.0, 1.0, 0.0]);
        // Clear minority: opinion 2 has the lowest positive count.
        assert_eq!(mm.decide(0, &[2, 1, 1], 10), vec![0.0, 0.5, 0.5]);
        // Two-way minority tie.
        let d = mm.decide(1, &[2, 2, 0], 10);
        assert_eq!(d, vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn binary_restriction_of_multi_voter_is_voter() {
        let mv = MultiVoter::new(5, 3).unwrap();
        let table = binary_restriction(&mv, 100).unwrap();
        let voter = Voter::new(3).unwrap();
        for k in 0..=3 {
            for own in Opinion::ALL {
                assert!(
                    (table.prob_one(own, k, 100) - voter.prob_one(own, k, 100)).abs() < 1e-15,
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn binary_restriction_of_multi_minority_is_minority() {
        let mm = MultiMinority::new(4, 3).unwrap();
        let table = binary_restriction(&mm, 100).unwrap();
        let minority = Minority::new(3).unwrap();
        for k in 0..=3 {
            for own in Opinion::ALL {
                assert!(
                    (table.prob_one(own, k, 100) - minority.prob_one(own, k, 100)).abs() < 1e-15,
                    "k={k} own={own}"
                );
            }
        }
    }

    #[test]
    fn support_violation_is_detected() {
        // A broken protocol that teleports to opinion 0 regardless.
        struct AlwaysZero;
        impl MultiProtocol for AlwaysZero {
            fn num_opinions(&self) -> usize {
                3
            }
            fn sample_size(&self) -> usize {
                2
            }
            fn decide(&self, _own: usize, _counts: &[usize], _n: u64) -> Vec<f64> {
                vec![1.0, 0.0, 0.0]
            }
            fn name(&self) -> String {
                "always-zero".into()
            }
        }
        assert!(check_support_restriction(&AlwaysZero, 10).is_err());
    }

    #[test]
    fn constructors_validate() {
        assert!(MultiVoter::new(1, 3).is_err());
        assert!(MultiVoter::new(3, 0).is_err());
        assert!(MultiMinority::new(1, 3).is_err());
        assert!(MultiMinority::new(3, 0).is_err());
    }
}
