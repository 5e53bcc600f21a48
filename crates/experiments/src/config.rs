//! Run configuration shared by all experiments.

/// How much work an experiment run should do.
///
/// * `Smoke` — seconds-scale, used by tests and CI: small `n`, few
///   replications; verifies mechanics and directional expectations only.
/// * `Standard` — the default for `bitdissem run` and the example binaries.
/// * `Full` — the scale used to produce the tables in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-scale smoke run.
    Smoke,
    /// Default scale for `run` and the examples.
    Standard,
    /// Publication scale (minutes).
    Full,
}

impl Scale {
    /// Picks one of three values by scale.
    #[must_use]
    pub fn pick<T: Copy>(self, smoke: T, standard: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Standard => standard,
            Scale::Full => full,
        }
    }

    /// The lowercase scale name, as accepted by the
    /// [`FromStr`](std::str::FromStr) impl and recorded in run manifests.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "standard" => Ok(Scale::Standard),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale '{other}' (smoke|standard|full)")),
        }
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Work scale.
    pub scale: Scale,
    /// Base seed; all randomness is derived from it deterministically.
    pub seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
    /// Environment perturbation schedule applied between rounds (`None`
    /// means the static, unperturbed process). Recorded in run manifests
    /// and in checkpoint batch kinds.
    pub env: Option<bitdissem_sim::EnvSchedule>,
}

impl RunConfig {
    /// A smoke-scale configuration.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self::with_scale(Scale::Smoke, seed)
    }

    /// A standard-scale configuration.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        Self::with_scale(Scale::Standard, seed)
    }

    /// A full-scale configuration.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Self::with_scale(Scale::Full, seed)
    }

    fn with_scale(scale: Scale, seed: u64) -> Self {
        Self { scale, seed, threads: None, env: None }
    }

    /// Installs an environment perturbation schedule (builder-style). An
    /// inert schedule is normalized back to `None`.
    #[must_use]
    pub fn with_env(mut self, env: bitdissem_sim::EnvSchedule) -> Self {
        self.env = (!env.is_inert()).then_some(env);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Standard.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::from_str("smoke").unwrap(), Scale::Smoke);
        assert_eq!(Scale::from_str("FULL").unwrap(), Scale::Full);
        assert!(Scale::from_str("bogus").is_err());
    }

    #[test]
    fn scale_name_round_trips_through_from_str() {
        for scale in [Scale::Smoke, Scale::Standard, Scale::Full] {
            assert_eq!(Scale::from_str(scale.name()).unwrap(), scale);
            assert_eq!(scale.to_string(), scale.name());
        }
    }

    #[test]
    fn constructors() {
        assert_eq!(RunConfig::smoke(7).scale, Scale::Smoke);
        assert_eq!(RunConfig::standard(7).scale, Scale::Standard);
        assert_eq!(RunConfig::full(7).seed, 7);
    }

    #[test]
    fn env_builder_and_serde_default() {
        assert_eq!(RunConfig::smoke(7).env, None);
        let env: bitdissem_sim::EnvSchedule = "flip@10".parse().unwrap();
        assert_eq!(RunConfig::smoke(7).with_env(env).env, Some(env));
        assert_eq!(
            RunConfig::smoke(7).with_env(bitdissem_sim::EnvSchedule::default()).env,
            None,
            "an inert schedule normalizes to None"
        );
    }
}
