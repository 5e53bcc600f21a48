//! Absorbing-chain analysis: exact hitting times of the correct consensus.

use crate::chain::AggregateChain;
use crate::linalg::Lu;

/// Exact expected hitting times of the correct consensus for every state of
/// an [`AggregateChain`].
#[derive(Debug, Clone, PartialEq)]
pub struct HittingTimes {
    lo: u64,
    times: Vec<f64>,
}

impl HittingTimes {
    /// Assembles hitting times from a state offset and per-state values
    /// (crate-internal: used by the sparse solver).
    pub(crate) fn from_parts(lo: u64, times: Vec<f64>) -> Self {
        Self { lo, times }
    }

    /// Expected number of rounds to absorb from state `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the state range used at construction.
    #[must_use]
    pub fn from_state(&self, x: u64) -> f64 {
        assert!(x >= self.lo && (x - self.lo) < self.times.len() as u64, "state {x} out of range");
        self.times[(x - self.lo) as usize]
    }

    /// The worst (largest) expected hitting time and its state.
    #[must_use]
    pub fn worst(&self) -> (u64, f64) {
        let (idx, &t) = self
            .times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty");
        (self.lo + idx as u64, t)
    }

    /// All `(state, expected rounds)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.times.iter().enumerate().map(move |(i, &t)| (self.lo + i as u64, t))
    }
}

/// Computes the exact expected hitting time (in parallel rounds) of the
/// correct consensus from **every** state, by solving the dense linear
/// system `(I − Q)·t = 1` over the transient states with LU decomposition.
///
/// Returns `None` if the system is singular, i.e. the consensus is not
/// reachable from some state (protocols violating Proposition 3 reachability,
/// such as `Stay`).
///
/// Complexity is `O(n³)`; intended for `n ≲ 512`.
///
/// # Examples
///
/// ```
/// use bitdissem_core::{dynamics::Voter, Opinion};
/// use bitdissem_markov::{chain::AggregateChain, absorbing::expected_hitting_times};
///
/// let chain = AggregateChain::build(&Voter::new(1)?, 12, Opinion::One)?;
/// let times = expected_hitting_times(&chain).expect("voter absorbs");
/// assert_eq!(times.from_state(12), 0.0);
/// assert!(times.from_state(1) > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn expected_hitting_times(chain: &AggregateChain) -> Option<HittingTimes> {
    let lo = chain.state_lo();
    let hi = chain.state_hi();
    let target = chain.target();
    let states: Vec<u64> = (lo..=hi).collect();
    let transient: Vec<u64> = states.iter().copied().filter(|&x| x != target).collect();
    let m = transient.len();
    // Map state -> transient index.
    let index_of = |x: u64| -> Option<usize> {
        if x == target || x < lo || x > hi {
            None
        } else if x < target {
            Some((x - lo) as usize)
        } else {
            // States above the target shift down by one.
            Some((x - lo - 1) as usize)
        }
    };
    // Assemble I − Q.
    let mut a = vec![vec![0.0; m]; m];
    for (i, &x) in transient.iter().enumerate() {
        let row = chain.transition_row(x);
        a[i][i] = 1.0;
        for (y, &p) in row.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            if let Some(j) = index_of(y as u64) {
                a[i][j] -= p;
            }
        }
    }
    let lu = Lu::factor(a)?;
    let t = lu.solve(&vec![1.0; m]);
    if t.iter().any(|&v| !v.is_finite() || v < -1e-9) {
        return None;
    }
    // Reassemble including the target (time 0).
    let mut times = Vec::with_capacity(m + 1);
    let mut it = t.into_iter();
    for &x in &states {
        if x == target {
            times.push(0.0);
        } else {
            times.push(it.next().expect("one entry per transient state").max(0.0));
        }
    }
    Some(HittingTimes { lo, times })
}

/// Iterates the state distribution of the chain from the point mass at `x0`
/// and returns the survival curve `P(τ > t)` for `t = 0, …, t_max`, where
/// `τ` is the hitting time of the correct consensus.
///
/// Also usable to extract the exact *median* convergence time via
/// [`median_from_survival`].
///
/// # Panics
///
/// Panics if `x0` is outside the valid state range.
#[must_use]
pub fn survival_curve(chain: &AggregateChain, x0: u64, t_max: usize) -> Vec<f64> {
    let n = chain.n() as usize;
    let target = chain.target() as usize;
    let lo = chain.state_lo() as usize;
    let hi = chain.state_hi() as usize;
    // Precompute rows once.
    let rows: Vec<Vec<f64>> = (lo..=hi).map(|x| chain.transition_row(x as u64)).collect();
    let mut dist = vec![0.0; n + 1];
    dist[usize::try_from(x0).expect("x0 fits usize")] = 1.0;
    let mut curve = Vec::with_capacity(t_max + 1);
    curve.push(1.0 - dist[target]);
    for _ in 0..t_max {
        let mut next = vec![0.0; n + 1];
        // Absorbed mass stays at the target.
        next[target] = dist[target];
        for x in lo..=hi {
            if x == target {
                continue;
            }
            let w = dist[x];
            if w == 0.0 {
                continue;
            }
            for (y, &p) in rows[x - lo].iter().enumerate() {
                if p > 0.0 {
                    next[y] += w * p;
                }
            }
        }
        dist = next;
        curve.push((1.0 - dist[target]).max(0.0));
    }
    curve
}

/// Extracts the smallest `t` with `P(τ ≤ t) ≥ q` from a survival curve, or
/// `None` if the curve never reaches that mass.
#[must_use]
pub fn quantile_from_survival(curve: &[f64], q: f64) -> Option<usize> {
    curve.iter().position(|&surv| 1.0 - surv >= q)
}

/// The exact median hitting time from a survival curve.
#[must_use]
pub fn median_from_survival(curve: &[f64]) -> Option<usize> {
    quantile_from_survival(curve, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_core::dynamics::{Majority, Minority, Stay, Voter};
    use bitdissem_core::Opinion;

    #[test]
    fn voter_hitting_times_scale_like_n_log_n() {
        // Known: Voter converges in Θ(n log n) parallel rounds; at n = 32
        // the worst-case expected time is on that order, far below n².
        let chain = AggregateChain::build(&Voter::new(1).unwrap(), 32, Opinion::One).unwrap();
        let times = expected_hitting_times(&chain).unwrap();
        let (worst_state, worst) = times.worst();
        assert_eq!(worst_state, 1, "worst from all-wrong configuration");
        let n = 32.0f64;
        assert!(worst > n / 2.0, "worst = {worst}");
        assert!(worst < 3.0 * n * n.ln(), "worst = {worst}");
    }

    #[test]
    fn minority_small_ell_hitting_times_exceed_voter_scale() {
        // With constant ℓ the minority dynamics is also slow (Theorem 1):
        // exact expected times from the adversarial state are Ω(n^{1−ε}).
        let n = 48;
        let chain = AggregateChain::build(&Minority::new(3).unwrap(), n, Opinion::One).unwrap();
        let times = expected_hitting_times(&chain).unwrap();
        let (_, worst) = times.worst();
        assert!(worst > n as f64 / 4.0, "worst = {worst}");
    }

    #[test]
    fn majority_from_wrong_majority_is_astronomically_slow() {
        let n = 40;
        let chain = AggregateChain::build(&Majority::new(3).unwrap(), n, Opinion::One).unwrap();
        let times = expected_hitting_times(&chain).unwrap();
        // From the all-wrong state, expected time is super-polynomial in n.
        let t_wrong = times.from_state(1);
        assert!(t_wrong > 1e6, "t = {t_wrong}");
        // From the nearly-converged state it is tiny.
        let t_good = times.from_state(n - 1);
        assert!(t_good < 10.0, "t = {t_good}");
    }

    #[test]
    fn stay_is_singular() {
        let chain = AggregateChain::build(&Stay::new(1), 10, Opinion::One).unwrap();
        assert!(expected_hitting_times(&chain).is_none());
    }

    #[test]
    fn survival_curve_is_monotone_and_matches_expected_time() {
        let n = 16;
        let chain = AggregateChain::build(&Voter::new(1).unwrap(), n, Opinion::One).unwrap();
        let x0 = 1;
        let curve = survival_curve(&chain, x0, 4000);
        // Monotone non-increasing.
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // Sum of survival probabilities equals the expected hitting time
        // (E[τ] = Σ_{t≥0} P(τ > t)), up to curve truncation.
        let e_from_curve: f64 = curve.iter().sum::<f64>() - curve.last().unwrap() * 0.0;
        let times = expected_hitting_times(&chain).unwrap();
        let e_exact = times.from_state(x0);
        assert!(
            (e_from_curve - e_exact).abs() < 0.05 * e_exact + 1.0,
            "{e_from_curve} vs {e_exact}"
        );
    }

    #[test]
    fn median_extraction() {
        let curve = vec![1.0, 0.8, 0.55, 0.45, 0.1];
        assert_eq!(median_from_survival(&curve), Some(3));
        assert_eq!(quantile_from_survival(&curve, 0.9), Some(4));
        assert_eq!(quantile_from_survival(&curve, 0.99), None);
    }

    #[test]
    fn quantile_edge_cases() {
        // q = 0 is satisfied by the very first entry of any non-empty curve
        // (P(τ ≤ t) ≥ 0 always holds).
        assert_eq!(quantile_from_survival(&[1.0, 0.4], 0.0), Some(0));
        // q = 1 requires the curve to actually reach zero survival.
        assert_eq!(quantile_from_survival(&[1.0, 0.4, 0.0], 1.0), Some(2));
        assert_eq!(quantile_from_survival(&[1.0, 0.4, 0.1], 1.0), None);
        // Empty curves have no quantiles at all.
        assert_eq!(quantile_from_survival(&[], 0.0), None);
        assert_eq!(quantile_from_survival(&[], 0.5), None);
        // A flat all-ones curve (absorption never observed) has no median.
        assert_eq!(quantile_from_survival(&[1.0; 8], 0.5), None);
        assert_eq!(median_from_survival(&[1.0; 8]), None);
    }

    #[test]
    fn hitting_times_iter_covers_all_states() {
        let chain = AggregateChain::build(&Voter::new(1).unwrap(), 10, Opinion::Zero).unwrap();
        let times = expected_hitting_times(&chain).unwrap();
        let collected: Vec<(u64, f64)> = times.iter().collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[0].0, 0);
        assert_eq!(collected[0].1, 0.0); // target is state 0 for z = 0
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_state_out_of_range_panics() {
        let chain = AggregateChain::build(&Voter::new(1).unwrap(), 10, Opinion::One).unwrap();
        let times = expected_hitting_times(&chain).unwrap();
        let _ = times.from_state(0);
    }
}
