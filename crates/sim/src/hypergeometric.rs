//! Hypergeometric sampling, built from uniforms.
//!
//! The partial-synchrony scheduler ([`crate::partial`]) activates a random
//! subset of `m` non-source agents per round; the number of 1-holders in
//! that subset is `Hypergeometric(N, K, m)` (population `N`, successes `K`,
//! draws `m`). Sampling is by inversion from the mode with the stable PMF
//! ratio recurrence — exact, `O(√(variance))` expected steps.

use rand::Rng;

use crate::rng::SimRng;

/// PMF of `Hypergeometric(population, successes, draws)` at `k`, via a
/// numerically stable product formula.
///
/// # Panics
///
/// Panics if `successes > population` or `draws > population`.
#[must_use]
pub fn hypergeometric_pmf(population: u64, successes: u64, draws: u64, k: u64) -> f64 {
    assert!(successes <= population, "successes must not exceed population");
    assert!(draws <= population, "draws must not exceed population");
    let lo = draws.saturating_sub(population - successes);
    let hi = successes.min(draws);
    if k < lo || k > hi {
        return 0.0;
    }
    // ln C(K,k) + ln C(N−K, m−k) − ln C(N, m)
    use bitdissem_poly::binomial::ln_choose;
    (ln_choose(successes, k) + ln_choose(population - successes, draws - k)
        - ln_choose(population, draws))
    .exp()
}

/// Draws one `Hypergeometric(population, successes, draws)` variate: the
/// number of successes in a uniform sample of `draws` items **without
/// replacement**.
///
/// Uses inversion from the mode: the expected number of PMF-ratio steps is
/// `O(σ)` where `σ² = m·(K/N)·(1−K/N)·(N−m)/(N−1)`, which is plenty fast
/// for the per-round use in the partial-synchrony simulator.
///
/// # Panics
///
/// Panics if `successes > population` or `draws > population`.
#[must_use]
pub fn sample_hypergeometric(rng: &mut SimRng, population: u64, successes: u64, draws: u64) -> u64 {
    HyperSetup::new(population, successes, draws).draw(rng, population, successes, draws)
}

/// The deterministic per-`(N, K, m)` state of the sampler: its support
/// `[lo, hi]`, its mode and the pmf there (three `ln_choose` calls), all
/// computed before the uniform is drawn. Split out so that the
/// partial-synchrony simulator can cache it per state;
/// [`HyperSetup::draw`] consumes the uniform and walks the pmf exactly like
/// the historical monolithic sampler, so cached and fresh draws are
/// bit-identical. The parameters are not stored: the caller holds them and
/// passes them to `draw`, as a binomial [`Plan`](crate::binomial::Plan)'s
/// caller passes its trial count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HyperSetup {
    lo: u64,
    hi: u64,
    mode: u64,
    pmf_mode: f64,
}

impl HyperSetup {
    /// The setup of `Hypergeometric(population, successes, draws)`. A
    /// one-point support (`lo == hi`) needs neither the mode nor its pmf.
    ///
    /// # Panics
    ///
    /// Panics if `successes > population` or `draws > population`.
    pub(crate) fn new(population: u64, successes: u64, draws: u64) -> Self {
        assert!(successes <= population, "successes must not exceed population");
        assert!(draws <= population, "draws must not exceed population");
        let lo = draws.saturating_sub(population - successes);
        let hi = successes.min(draws);
        if lo == hi {
            return Self { lo, hi, mode: lo, pmf_mode: 1.0 };
        }
        // Mode of the hypergeometric.
        let mode = (((draws + 1) * (successes + 1)) as f64 / (population + 2) as f64)
            .floor()
            .clamp(lo as f64, hi as f64) as u64;
        let pmf_mode = hypergeometric_pmf(population, successes, draws, mode);
        Self { lo, hi, mode, pmf_mode }
    }

    /// Draws one variate for the parameters the setup was built for. A
    /// one-point support returns its point and draws no uniform.
    pub(crate) fn draw(
        &self,
        rng: &mut SimRng,
        population: u64,
        successes: u64,
        draws: u64,
    ) -> u64 {
        let Self { lo, hi, mode, pmf_mode } = *self;
        if lo == hi {
            return lo;
        }
        // Two-sided inversion walking outward from the mode.
        let mut u: f64 = rng.random();
        // Ratio recurrences: p(k+1)/p(k) = (K−k)(m−k) / ((k+1)(N−K−m+k+1)).
        // Computed in f64 because N−K−m can be negative inside the support.
        let (nf, kf, mf) = (population as f64, successes as f64, draws as f64);
        let ratio_up = |k: u64| -> f64 {
            let k = k as f64;
            (kf - k) * (mf - k) / ((k + 1.0) * (nf - kf - mf + k + 1.0))
        };
        let mut up_k = mode;
        let mut up_p = pmf_mode;
        let mut down_k = mode;
        let mut down_p = pmf_mode;

        u -= pmf_mode;
        if u <= 0.0 {
            return mode;
        }
        loop {
            let can_up = up_k < hi;
            let can_down = down_k > lo;
            if !can_up && !can_down {
                // Rounding exhausted the mass: return the nearer boundary.
                return if u > 0.5 { hi } else { lo };
            }
            if can_up {
                up_p *= ratio_up(up_k);
                up_k += 1;
                u -= up_p;
                if u <= 0.0 {
                    return up_k;
                }
            }
            if can_down {
                // p(k−1)/p(k) = inverse of the up-ratio at k−1.
                down_p /= ratio_up(down_k - 1);
                down_k -= 1;
                u -= down_p;
                if u <= 0.0 {
                    return down_k;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from;
    use rand::Rng;

    /// The sampler as one function, before its setup was split out: the
    /// oracle the split must match draw for draw.
    fn sample_monolithic(rng: &mut SimRng, population: u64, successes: u64, draws: u64) -> u64 {
        assert!(successes <= population, "successes must not exceed population");
        assert!(draws <= population, "draws must not exceed population");
        let lo = draws.saturating_sub(population - successes);
        let hi = successes.min(draws);
        if lo == hi {
            return lo;
        }
        let mode = (((draws + 1) * (successes + 1)) as f64 / (population + 2) as f64)
            .floor()
            .clamp(lo as f64, hi as f64) as u64;
        let pmf_mode = hypergeometric_pmf(population, successes, draws, mode);
        let mut u: f64 = rng.random();
        let (nf, kf, mf) = (population as f64, successes as f64, draws as f64);
        let ratio_up = |k: u64| -> f64 {
            let k = k as f64;
            (kf - k) * (mf - k) / ((k + 1.0) * (nf - kf - mf + k + 1.0))
        };
        let mut up_k = mode;
        let mut up_p = pmf_mode;
        let mut down_k = mode;
        let mut down_p = pmf_mode;
        u -= pmf_mode;
        if u <= 0.0 {
            return mode;
        }
        loop {
            let can_up = up_k < hi;
            let can_down = down_k > lo;
            if !can_up && !can_down {
                return if u > 0.5 { hi } else { lo };
            }
            if can_up {
                up_p *= ratio_up(up_k);
                up_k += 1;
                u -= up_p;
                if u <= 0.0 {
                    return up_k;
                }
            }
            if can_down {
                down_p /= ratio_up(down_k - 1);
                down_k -= 1;
                u -= down_p;
                if u <= 0.0 {
                    return down_k;
                }
            }
        }
    }

    /// `draws` samples of `(N, K, m)` through the split and through the
    /// oracle, from one seed: equal values, and the rngs end where they
    /// started relative to each other.
    fn assert_split_matches(population: u64, successes: u64, draws: u64, seed: u64, reps: usize) {
        let setup = HyperSetup::new(population, successes, draws);
        let mut a = rng_from(seed);
        let mut b = rng_from(seed);
        for i in 0..reps {
            let split = setup.draw(&mut a, population, successes, draws);
            let oracle = sample_monolithic(&mut b, population, successes, draws);
            assert_eq!(split, oracle, "({population}, {successes}, {draws}), draw {i}");
            assert_eq!(a, b, "({population}, {successes}, {draws}): rng position, draw {i}");
        }
    }

    /// Random `(N, K, m)`, one-point supports (which draw no uniform)
    /// among them.
    #[test]
    fn split_setup_matches_the_monolithic_sampler() {
        let mut params = rng_from(11);
        for case in 0..400u64 {
            let population = params.random_range(1..=2000u64);
            let successes = params.random_range(0..=population);
            let draws = params.random_range(0..=population);
            assert_split_matches(population, successes, draws, case, 20);
        }
        for (population, successes, draws) in [(10, 0, 4), (10, 10, 4), (10, 3, 10), (10, 3, 0)] {
            let mut rng = rng_from(1);
            let before = rng.clone();
            let k = HyperSetup::new(population, successes, draws)
                .draw(&mut rng, population, successes, draws);
            assert_eq!(rng, before, "({population}, {successes}, {draws}) draws no uniform");
            assert_eq!(k, sample_monolithic(&mut rng_from(1), population, successes, draws));
            assert_split_matches(population, successes, draws, 1, 5);
        }
    }

    /// When the walk's summed mass falls short of 1 by rounding and the
    /// uniform lies past it, the walk covers the whole support and returns
    /// the nearer boundary. At a population of 3e14 the three `ln_choose`
    /// terms of the mode's pmf are ~1e15, whose rounding leaves the support
    /// of `(3e14, 3, 1.5e14)` with 0.146 of the mass: most uniforms exhaust
    /// it, and they return `lo` below ½ and `hi` above.
    #[test]
    fn split_matches_where_rounding_exhausts_the_mass() {
        let (population, successes, draws) = (300_000_000_000_000u64, 3, 150_000_000_000_000);
        let setup = HyperSetup::new(population, successes, draws);
        let (nf, kf, mf) = (population as f64, successes as f64, draws as f64);
        let ratio_up = |k: u64| {
            let k = k as f64;
            (kf - k) * (mf - k) / ((k + 1.0) * (nf - kf - mf + k + 1.0))
        };
        let mut mass = setup.pmf_mode;
        let mut p = setup.pmf_mode;
        for k in setup.mode..setup.hi {
            p *= ratio_up(k);
            mass += p;
        }
        p = setup.pmf_mode;
        for k in (setup.lo..setup.mode).rev() {
            p /= ratio_up(k);
            mass += p;
        }
        assert!(mass < 0.2, "the support holds {mass} of the mass");
        let uniforms: Vec<f64> = (0..200).map(|seed| rng_from(seed).random()).collect();
        assert!(uniforms.iter().any(|&u| u > 0.2 && u < 0.5), "some draw exhausts toward lo");
        assert!(uniforms.iter().any(|&u| u > 0.5), "some draw exhausts toward hi");
        for seed in 0..200 {
            assert_split_matches(population, successes, draws, seed, 1);
        }
    }

    #[test]
    fn pmf_is_normalized_and_supported() {
        for &(pop, suc, draws) in &[(10u64, 4u64, 3u64), (50, 25, 10), (7, 7, 3), (8, 0, 5)] {
            let lo = draws.saturating_sub(pop - suc);
            let hi = suc.min(draws);
            let total: f64 = (0..=draws).map(|k| hypergeometric_pmf(pop, suc, draws, k)).sum();
            assert!((total - 1.0).abs() < 1e-10, "({pop},{suc},{draws}): {total}");
            assert_eq!(hypergeometric_pmf(pop, suc, draws, hi + 1), 0.0);
            if lo > 0 {
                assert_eq!(hypergeometric_pmf(pop, suc, draws, lo - 1), 0.0);
            }
        }
    }

    #[test]
    fn degenerate_cases() {
        let mut rng = rng_from(1);
        // All successes: every draw is a success.
        assert_eq!(sample_hypergeometric(&mut rng, 10, 10, 4), 4);
        // No successes.
        assert_eq!(sample_hypergeometric(&mut rng, 10, 0, 4), 0);
        // Draw everything.
        assert_eq!(sample_hypergeometric(&mut rng, 10, 3, 10), 3);
        // Draw nothing.
        assert_eq!(sample_hypergeometric(&mut rng, 10, 3, 0), 0);
    }

    #[test]
    fn moments_match_theory() {
        let (pop, suc, draws) = (1000u64, 300u64, 120u64);
        let reps = 40_000;
        let mut rng = rng_from(2);
        let samples: Vec<u64> =
            (0..reps).map(|_| sample_hypergeometric(&mut rng, pop, suc, draws)).collect();
        let mean = samples.iter().map(|&k| k as f64).sum::<f64>() / reps as f64;
        let expect_mean = draws as f64 * suc as f64 / pop as f64; // 36
        let var =
            samples.iter().map(|&k| (k as f64 - mean).powi(2)).sum::<f64>() / (reps - 1) as f64;
        let p = suc as f64 / pop as f64;
        let expect_var = draws as f64 * p * (1.0 - p) * ((pop - draws) as f64 / (pop - 1) as f64);
        assert!((mean - expect_mean).abs() < 0.15, "{mean} vs {expect_mean}");
        assert!((var - expect_var).abs() < 0.12 * expect_var + 0.5, "{var} vs {expect_var}");
    }

    #[test]
    fn distribution_matches_pmf_in_total_variation() {
        let (pop, suc, draws) = (40u64, 18u64, 12u64);
        let reps = 150_000;
        let mut rng = rng_from(3);
        let mut counts = vec![0u64; draws as usize + 1];
        for _ in 0..reps {
            counts[sample_hypergeometric(&mut rng, pop, suc, draws) as usize] += 1;
        }
        let tv: f64 = (0..=draws)
            .map(|k| {
                (counts[k as usize] as f64 / reps as f64 - hypergeometric_pmf(pop, suc, draws, k))
                    .abs()
            })
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.02, "total variation {tv}");
    }

    #[test]
    fn samples_respect_support_bounds() {
        // draws > population − successes forces a minimum count.
        let (pop, suc, draws) = (20u64, 15u64, 10u64);
        let lo = draws - (pop - suc); // 5
        let mut rng = rng_from(4);
        for _ in 0..2_000 {
            let k = sample_hypergeometric(&mut rng, pop, suc, draws);
            assert!((lo..=10).contains(&k), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "successes must not exceed")]
    fn rejects_invalid_parameters() {
        let mut rng = rng_from(0);
        let _ = sample_hypergeometric(&mut rng, 5, 6, 2);
    }
}
