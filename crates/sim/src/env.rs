//! Environment layer: scheduled perturbations injected between rounds.
//!
//! Every engine in this crate was originally built for a *static* setting:
//! the source opinion `z` and the population are fixed for the whole run,
//! so the correct consensus is absorbing and per-state caches may assume
//! `z` never changes. The paper's Ω(n^{1−ε}) lower bound (Theorem 12) is
//! proved through an adversarial configuration, and the follow-up
//! literature (Korman–Vacus 2022 on changing sources; Becchetti et al.
//! 2022 on noisy/adversarial dynamics) studies exactly the dynamic
//! scenarios this module injects:
//!
//! * **Source flips** (`flip@T`, `flip@every:P`) — the source changes its
//!   opinion, so the consensus target moves mid-run.
//! * **Opinion noise** (`noise:η`) — each non-source agent is
//!   re-randomized with probability `η` per round (uniform redraw, so a
//!   holder flips with probability `η/2`).
//! * **Sub-population resets** (`reset:k=K@T`, `reset:k=K@every:P`,
//!   `reset:k=K@adaptive[:θ]`) — an adversary resets `k` non-source
//!   agents holding the correct opinion back to the wrong one, optionally
//!   adaptively whenever the correct fraction reaches `θ`.
//!
//! A perturbation at boundary `t` applies **after** the consensus check at
//! `t` and **before** the round that produces `X_{t+1}` — uniformly across
//! every engine, which is what lets the conformance harness hold all five
//! parallel backends to the same perturbed law (DESIGN decision 15).
//!
//! The schedule is [`Copy`]/[`Eq`]/[`Hash`] so it can ride inside
//! `RunConfig` and checkpoint batch keys: rates are stored in fixed-point
//! **parts per million**, which keeps the law bit-identical across
//! backends and the fingerprint canonical.

use std::fmt;
use std::str::FromStr;

use bitdissem_core::Opinion;

use crate::binomial::sample_binomial;
use crate::rng::SimRng;

/// Default adaptive-reset threshold: fire when 90% of the population
/// holds the correct opinion.
const DEFAULT_ADAPTIVE_PPM: u32 = 900_000;

/// When an adversarial reset fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResetTrigger {
    /// Fire once, at boundary `t`.
    At(u64),
    /// Fire at every positive multiple of the period.
    Every(u64),
    /// Fire whenever the correct fraction reaches the threshold
    /// (fixed-point parts per million).
    Adaptive {
        /// Correct-fraction threshold in parts per million.
        thresh_ppm: u32,
    },
}

/// An adversarial sub-population reset: `k` correct non-source agents are
/// reset to the wrong opinion when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResetSpec {
    /// Number of agents the adversary resets (clamped to the available
    /// correct non-source holders when it fires).
    pub k: u64,
    /// When the reset fires.
    pub trigger: ResetTrigger,
}

/// A schedule of environment perturbations, parsed from the CLI `--env`
/// grammar (see the module docs) and applied between rounds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnvSchedule {
    /// One-shot source flip at this boundary.
    pub flip_at: Option<u64>,
    /// Periodic source flip at every positive multiple of this period.
    pub flip_every: Option<u64>,
    /// Per-round re-randomization probability `η` for each non-source
    /// agent, in parts per million.
    pub noise_ppm: Option<u32>,
    /// Adversarial sub-population reset.
    pub reset: Option<ResetSpec>,
}

/// Error parsing an `--env` schedule specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvParseError(String);

impl fmt::Display for EnvParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid env schedule: {}", self.0)
    }
}

impl std::error::Error for EnvParseError {}

fn parse_rate_ppm(s: &str, what: &str) -> Result<u32, EnvParseError> {
    let v: f64 = s.parse().map_err(|_| EnvParseError(format!("{what} `{s}` is not a number")))?;
    if !(v > 0.0 && v <= 1.0) {
        return Err(EnvParseError(format!("{what} `{s}` must be in (0, 1]")));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ppm = (v * 1_000_000.0).round() as u32;
    if ppm == 0 {
        return Err(EnvParseError(format!("{what} `{s}` rounds to zero parts per million")));
    }
    Ok(ppm)
}

fn fmt_ppm(ppm: u32) -> String {
    format!("{}", f64::from(ppm) / 1_000_000.0)
}

impl FromStr for EnvSchedule {
    type Err = EnvParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut env = EnvSchedule::default();
        if s.trim().is_empty() {
            return Err(EnvParseError("empty specification".into()));
        }
        for clause in s.split(',') {
            let clause = clause.trim();
            if let Some(rest) = clause.strip_prefix("flip@") {
                if let Some(period) = rest.strip_prefix("every:") {
                    if env.flip_every.is_some() {
                        return Err(EnvParseError("duplicate `flip@every` clause".into()));
                    }
                    let p: u64 = period
                        .parse()
                        .map_err(|_| EnvParseError(format!("flip period `{period}` invalid")))?;
                    if p == 0 {
                        return Err(EnvParseError("flip period must be at least 1".into()));
                    }
                    env.flip_every = Some(p);
                } else {
                    if env.flip_at.is_some() {
                        return Err(EnvParseError("duplicate `flip@` clause".into()));
                    }
                    let t: u64 = rest
                        .parse()
                        .map_err(|_| EnvParseError(format!("flip round `{rest}` invalid")))?;
                    env.flip_at = Some(t);
                }
            } else if let Some(rest) = clause.strip_prefix("noise:") {
                if env.noise_ppm.is_some() {
                    return Err(EnvParseError("duplicate `noise` clause".into()));
                }
                env.noise_ppm = Some(parse_rate_ppm(rest, "noise rate")?);
            } else if let Some(rest) = clause.strip_prefix("reset:") {
                if env.reset.is_some() {
                    return Err(EnvParseError("duplicate `reset` clause".into()));
                }
                let rest = rest.strip_prefix("k=").ok_or_else(|| {
                    EnvParseError(format!("reset clause `{clause}` must start with `reset:k=`"))
                })?;
                let (k_str, trig) = rest.split_once('@').ok_or_else(|| {
                    EnvParseError(format!("reset clause `{clause}` is missing its `@trigger`"))
                })?;
                let k: u64 = k_str
                    .parse()
                    .map_err(|_| EnvParseError(format!("reset size `{k_str}` invalid")))?;
                if k == 0 {
                    return Err(EnvParseError("reset size must be at least 1".into()));
                }
                let trigger = if trig == "adaptive" {
                    ResetTrigger::Adaptive { thresh_ppm: DEFAULT_ADAPTIVE_PPM }
                } else if let Some(th) = trig.strip_prefix("adaptive:") {
                    ResetTrigger::Adaptive { thresh_ppm: parse_rate_ppm(th, "adaptive threshold")? }
                } else if let Some(period) = trig.strip_prefix("every:") {
                    let p: u64 = period
                        .parse()
                        .map_err(|_| EnvParseError(format!("reset period `{period}` invalid")))?;
                    if p == 0 {
                        return Err(EnvParseError("reset period must be at least 1".into()));
                    }
                    ResetTrigger::Every(p)
                } else {
                    let t: u64 = trig
                        .parse()
                        .map_err(|_| EnvParseError(format!("reset trigger `{trig}` invalid")))?;
                    ResetTrigger::At(t)
                };
                env.reset = Some(ResetSpec { k, trigger });
            } else {
                return Err(EnvParseError(format!(
                    "unknown clause `{clause}` (expected flip@…, noise:…, or reset:k=…@…)"
                )));
            }
        }
        Ok(env)
    }
}

impl fmt::Display for EnvSchedule {
    /// The canonical fingerprint: clauses in fixed order, round-tripping
    /// through [`FromStr`]. Recorded in run manifests and embedded in
    /// checkpoint batch kinds so cached static-run outcomes can never
    /// splice into a perturbed sweep.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(t) = self.flip_at {
            parts.push(format!("flip@{t}"));
        }
        if let Some(p) = self.flip_every {
            parts.push(format!("flip@every:{p}"));
        }
        if let Some(ppm) = self.noise_ppm {
            parts.push(format!("noise:{}", fmt_ppm(ppm)));
        }
        if let Some(spec) = self.reset {
            let trig = match spec.trigger {
                ResetTrigger::At(t) => format!("{t}"),
                ResetTrigger::Every(p) => format!("every:{p}"),
                ResetTrigger::Adaptive { thresh_ppm } => {
                    format!("adaptive:{}", fmt_ppm(thresh_ppm))
                }
            };
            parts.push(format!("reset:k={}@{trig}", spec.k));
        }
        write!(f, "{}", parts.join(","))
    }
}

impl EnvSchedule {
    /// Returns `true` if no perturbation is scheduled at all.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        *self == EnvSchedule::default()
    }

    /// The canonical schedule string (the [`fmt::Display`] form).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        self.to_string()
    }

    /// Whether a source flip fires at boundary `t`.
    #[must_use]
    pub fn flip_fires(&self, t: u64) -> bool {
        self.flip_at == Some(t) || self.flip_every.is_some_and(|p| t > 0 && t.is_multiple_of(p))
    }

    fn reset_fires(spec: ResetSpec, t: u64, n: u64, z: u64, x: u64) -> bool {
        match spec.trigger {
            ResetTrigger::At(at) => t == at,
            ResetTrigger::Every(p) => t > 0 && t.is_multiple_of(p),
            ResetTrigger::Adaptive { thresh_ppm } => {
                let correct = if z == 1 { x } else { n - x };
                u128::from(correct) * 1_000_000 >= u128::from(thresh_ppm) * u128::from(n)
            }
        }
    }

    /// Applies the boundary-`t` perturbations to an aggregate state
    /// `(z, x)` of an `n`-agent system, in the fixed order
    /// flip → noise → reset, and returns the number of perturbation
    /// events applied.
    ///
    /// The noise law is the exact aggregate of per-agent uniform
    /// redraws: `x` loses `Bin(x − z, η/2)` one-holders and gains
    /// `Bin(n − x − (1 − z), η/2)` converts, so agent-level and
    /// aggregate backends stay distributionally identical. All updates
    /// preserve the legal band `z ≤ x ≤ n − (1 − z)`.
    pub fn apply_aggregate(
        &self,
        t: u64,
        n: u64,
        z: &mut u64,
        x: &mut u64,
        rng: &mut SimRng,
    ) -> u64 {
        let mut events = 0;
        if self.flip_fires(t) {
            let old = *z;
            *z = 1 - old;
            // The source carries its own opinion with it: the count of
            // ones loses the old source bit and gains the new one.
            *x = *x - old + *z;
            events += 1;
        }
        if let Some(ppm) = self.noise_ppm {
            let half = f64::from(ppm) / 2_000_000.0;
            let lose = sample_binomial(rng, *x - *z, half);
            let gain = sample_binomial(rng, n - *x - (1 - *z), half);
            *x = *x - lose + gain;
            events += 1;
        }
        if let Some(spec) = self.reset {
            if Self::reset_fires(spec, t, n, *z, *x) {
                if *z == 1 {
                    *x -= spec.k.min(*x - 1);
                } else {
                    *x += spec.k.min(n - *x - 1);
                }
                events += 1;
            }
        }
        events
    }

    /// Applies the boundary-`t` perturbations to an agent-level state:
    /// the correct opinion and the full opinion vector (agent 0 is the
    /// source). Distributionally identical to [`Self::apply_aggregate`];
    /// the reset picks the lowest-indexed correct holders, which is
    /// law-equivalent because agents are anonymous and exchangeable.
    pub fn apply_agents(
        &self,
        t: u64,
        correct: &mut Opinion,
        opinions: &mut [Opinion],
        rng: &mut SimRng,
    ) -> u64 {
        use rand::Rng;
        let n = opinions.len() as u64;
        let mut events = 0;
        if self.flip_fires(t) {
            *correct = correct.flipped();
            opinions[0] = *correct;
            events += 1;
        }
        if let Some(ppm) = self.noise_ppm {
            let eta = f64::from(ppm) / 1_000_000.0;
            for o in opinions.iter_mut().skip(1) {
                if rng.random::<f64>() < eta {
                    *o = Opinion::from_bool(rng.random::<f64>() < 0.5);
                }
            }
            events += 1;
        }
        if let Some(spec) = self.reset {
            let z = u64::from(correct.as_bit());
            let x = opinions.iter().filter(|o| o.is_one()).count() as u64;
            if Self::reset_fires(spec, t, n, z, x) {
                let wrong = correct.flipped();
                let mut left = spec.k;
                for o in opinions.iter_mut().skip(1) {
                    if left == 0 {
                        break;
                    }
                    if *o == *correct {
                        *o = wrong;
                        left -= 1;
                    }
                }
                events += 1;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentSim;
    use crate::aggregate::AggregateSim;
    use crate::rng::{replication_seed, rng_from};
    use crate::run::{drive, RunSpec, RunStats, Simulator, Stop};
    use bitdissem_core::dynamics::Voter;
    use bitdissem_core::Configuration;
    use bitdissem_obs::Obs;

    #[test]
    fn grammar_round_trips_through_the_fingerprint() {
        for spec in [
            "flip@500",
            "flip@every:250",
            "noise:0.01",
            "reset:k=100@400",
            "reset:k=7@every:64",
            "reset:k=100@adaptive:0.9",
            "flip@500,noise:0.01,reset:k=3@adaptive:0.75",
        ] {
            let env: EnvSchedule = spec.parse().unwrap();
            assert_eq!(env.fingerprint(), spec, "canonical form must round-trip");
            let again: EnvSchedule = env.fingerprint().parse().unwrap();
            assert_eq!(again, env);
        }
        // `adaptive` without a threshold canonicalizes to the 0.9 default.
        let env: EnvSchedule = "reset:k=100@adaptive".parse().unwrap();
        assert_eq!(env.fingerprint(), "reset:k=100@adaptive:0.9");
    }

    #[test]
    fn malformed_specifications_are_rejected() {
        for bad in [
            "",
            "flip",
            "flip@",
            "flip@-3",
            "flip@every:0",
            "noise:0",
            "noise:1.5",
            "noise:nope",
            "reset:100@5",
            "reset:k=0@5",
            "reset:k=3",
            "reset:k=3@adaptive:0",
            "flip@5,flip@9",
            "noise:0.1,noise:0.2",
            "sandstorm",
        ] {
            assert!(bad.parse::<EnvSchedule>().is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn flip_moves_source_and_count_together() {
        let env: EnvSchedule = "flip@10".parse().unwrap();
        let mut rng = rng_from(1);
        let (mut z, mut x) = (1u64, 40u64);
        assert_eq!(env.apply_aggregate(9, 100, &mut z, &mut x, &mut rng), 0);
        assert_eq!((z, x), (1, 40));
        assert_eq!(env.apply_aggregate(10, 100, &mut z, &mut x, &mut rng), 1);
        assert_eq!((z, x), (0, 39), "the source takes its 1 with it");
        // Flip back up from the boundary of the band.
        let env: EnvSchedule = "flip@0".parse().unwrap();
        let (mut z, mut x) = (0u64, 0u64);
        env.apply_aggregate(0, 100, &mut z, &mut x, &mut rng);
        assert_eq!((z, x), (1, 1));
    }

    #[test]
    fn periodic_flip_fires_on_multiples_only() {
        let env: EnvSchedule = "flip@every:50".parse().unwrap();
        assert!(!env.flip_fires(0));
        assert!(env.flip_fires(50));
        assert!(!env.flip_fires(51));
        assert!(env.flip_fires(100));
    }

    #[test]
    fn noise_preserves_the_legal_band() {
        let env: EnvSchedule = "noise:0.5".parse().unwrap();
        let mut rng = rng_from(7);
        let n = 64u64;
        for z in [0u64, 1] {
            let mut zz = z;
            let mut x = if z == 1 { 1 } else { n - 1 };
            for t in 0..500 {
                env.apply_aggregate(t, n, &mut zz, &mut x, &mut rng);
                assert_eq!(zz, z, "noise never touches the source");
                assert!(x >= z && x <= n - (1 - z), "x = {x} left the band for z = {z}");
            }
        }
    }

    #[test]
    fn reset_moves_correct_holders_to_wrong() {
        let mut rng = rng_from(3);
        // z = 1: correct holders are the ones; k larger than available
        // clamps to leaving only the source.
        let env: EnvSchedule = "reset:k=1000@5".parse().unwrap();
        let (mut z, mut x) = (1u64, 30u64);
        assert_eq!(env.apply_aggregate(5, 100, &mut z, &mut x, &mut rng), 1);
        assert_eq!((z, x), (1, 1));
        // z = 0: correct holders are the zeros; resets convert them to 1.
        let env: EnvSchedule = "reset:k=10@5".parse().unwrap();
        let (mut z, mut x) = (0u64, 80u64);
        env.apply_aggregate(5, 100, &mut z, &mut x, &mut rng);
        assert_eq!((z, x), (0, 90));
    }

    #[test]
    fn adaptive_reset_fires_at_the_threshold_only() {
        let env: EnvSchedule = "reset:k=5@adaptive:0.9".parse().unwrap();
        let mut rng = rng_from(4);
        let n = 100u64;
        // 89 correct < 90: silent.
        let (mut z, mut x) = (1u64, 89u64);
        assert_eq!(env.apply_aggregate(33, n, &mut z, &mut x, &mut rng), 0);
        assert_eq!(x, 89);
        // 90 correct = threshold: fires, knocking 5 holders back.
        let (mut z, mut x) = (1u64, 90u64);
        assert_eq!(env.apply_aggregate(33, n, &mut z, &mut x, &mut rng), 1);
        assert_eq!(x, 85);
        // Works against z = 0 (correct holders are zeros).
        let (mut z, mut x) = (0u64, 10u64);
        assert_eq!(env.apply_aggregate(33, n, &mut z, &mut x, &mut rng), 1);
        assert_eq!(x, 15);
    }

    #[test]
    fn agent_and_aggregate_noise_laws_agree() {
        // Mean drift of the ones-count under heavy noise must match
        // between the agent-level and aggregate applications.
        let n = 200usize;
        let env: EnvSchedule = "noise:0.4".parse().unwrap();
        let reps = 2_000u64;
        let x0 = 150u64;
        let mut agent_total = 0.0;
        let mut agg_total = 0.0;
        for rep in 0..reps {
            let mut rng = rng_from(replication_seed(11, rep));
            let mut correct = Opinion::One;
            let mut opinions = vec![Opinion::Zero; n];
            for o in opinions.iter_mut().take(x0 as usize) {
                *o = Opinion::One;
            }
            env.apply_agents(1, &mut correct, &mut opinions, &mut rng);
            agent_total += opinions.iter().filter(|o| o.is_one()).count() as f64;

            let mut rng = rng_from(replication_seed(12, rep));
            let (mut z, mut x) = (1u64, x0);
            env.apply_aggregate(1, n as u64, &mut z, &mut x, &mut rng);
            agg_total += x as f64;
        }
        let (ma, mg) = (agent_total / reps as f64, agg_total / reps as f64);
        assert!((ma - mg).abs() < 1.5, "agent mean {ma} vs aggregate mean {mg}");
    }

    /// A fixed-horizon run of `sim` under `env`.
    fn horizon<S: Simulator>(sim: &mut S, seed: u64, h: u64, env: &EnvSchedule) -> RunStats {
        let obs = Obs::none();
        let spec = RunSpec { env: Some(env), ..RunSpec::new(h, Stop::Horizon, &obs) };
        drive(sim, &mut rng_from(seed), &spec, None)
    }

    #[test]
    fn run_env_measures_reconvergence_after_a_flip() {
        // Voter on n = 32 converges fast; flip the source well after
        // convergence and check the clock: one disruptive perturbation,
        // one resolved re-convergence, dwell strictly between 0 and 1.
        let env: EnvSchedule = "flip@200".parse().unwrap();
        let start = Configuration::all_wrong(32, Opinion::One);
        let mut sim = AggregateSim::new(&Voter::new(1).unwrap(), start).unwrap();
        let stats = horizon(&mut sim, 9, 3_000, &env);
        assert_eq!((stats.rounds, stats.perturbations), (3_000, 1));
        let first = stats.first_consensus.expect("voter converges well before the flip");
        assert!(first < 200, "first consensus at {first}");
        assert_eq!(stats.reconverge.len(), 1, "{stats:?}");
        assert!(stats.reconverge[0] > 0);
        assert!(stats.dwell_fraction() > 0.5 && stats.dwell_fraction() < 1.0);
    }

    #[test]
    fn run_env_matches_between_agent_and_aggregate_smoke() {
        // Same schedule on both backends: dwell fractions agree loosely
        // (the KS-gated conformance section does the real admission).
        let env: EnvSchedule = "flip@every:400".parse().unwrap();
        let start = Configuration::all_wrong(24, Opinion::One);
        let voter = Voter::new(1).unwrap();
        let reps = 20u64;
        let dwell = |agentwise: bool| -> f64 {
            let mut total = 0.0;
            for rep in 0..reps {
                let seed = replication_seed(21, rep);
                total += if agentwise {
                    let mut sim = AgentSim::new(&voter, start).unwrap();
                    horizon(&mut sim, seed, 2_000, &env).dwell_fraction()
                } else {
                    let mut sim = AggregateSim::new(&voter, start).unwrap();
                    horizon(&mut sim, seed, 2_000, &env).dwell_fraction()
                };
            }
            total / reps as f64
        };
        let (a, g) = (dwell(true), dwell(false));
        assert!((a - g).abs() < 0.15, "agent dwell {a} vs aggregate dwell {g}");
    }

    /// Grammar tokens plus junk: digits, separators, overflowing and
    /// exponent numerals, a sign, whitespace and a non-ASCII character.
    const ALPHABET: [&str; 24] = [
        "flip@",
        "every:",
        "noise:",
        "reset:",
        "k=",
        "@",
        "adaptive",
        ":",
        ",",
        "0",
        "1",
        "7",
        ".",
        "0.5",
        "1e-7",
        "-",
        "+",
        " ",
        "18446744073709551616",
        "nan",
        "inf",
        "x",
        "é",
        "",
    ];

    proptest::proptest! {
        #[test]
        fn parser_never_panics_and_every_schedule_round_trips(
            ix in proptest::collection::vec(0..ALPHABET.len(), 0..12),
        ) {
            let spec: String = ix.iter().map(|&i| ALPHABET[i]).collect();
            if let Ok(env) = spec.parse::<EnvSchedule>() {
                let again: EnvSchedule = env.fingerprint().parse().expect("fingerprint parses");
                proptest::prop_assert_eq!(again, env);
            }
        }

        #[test]
        fn well_formed_clauses_round_trip(
            picks in proptest::collection::vec(
                (0..CLAUSES.len(), 0..NUMERALS.len(), 0..NUMERALS.len()),
                1..4,
            ),
        ) {
            let clause = |(c, a, b): (usize, usize, usize)| {
                CLAUSES[c].replacen('#', NUMERALS[a], 1).replacen('#', NUMERALS[b], 1)
            };
            let spec = picks.into_iter().map(clause).collect::<Vec<_>>().join(",");
            if let Ok(env) = spec.parse::<EnvSchedule>() {
                let again: EnvSchedule = env.fingerprint().parse().expect("fingerprint parses");
                proptest::prop_assert_eq!(again, env);
            }
        }
    }

    /// Clause templates (`#` takes a numeral) and numerals, so that most
    /// generated specifications parse and the round trip is exercised.
    const CLAUSES: [&str; 7] = [
        "flip@#",
        "flip@every:#",
        "noise:#",
        "reset:k=#@#",
        "reset:k=#@every:#",
        "reset:k=#@adaptive:#",
        "reset:k=#@adaptive",
    ];
    const NUMERALS: [&str; 8] =
        ["0", "1", "250", "0.05", "1e-3", "0.0000015", "18446744073709551615", "+3"];
}
