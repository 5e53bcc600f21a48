//! Run manifests: a small self-describing record of how a report was
//! produced, serialized next to every experiment report and embedded in
//! traces.

use crate::json::{self, Value};
use std::time::{SystemTime, UNIX_EPOCH};

/// Provenance record for one experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Experiment id (`e1`…`e18`, `a1`…`a3`).
    pub experiment_id: String,
    /// Base seed used for the run.
    pub seed: u64,
    /// Scale name (`smoke` / `standard` / `full`).
    pub scale: String,
    /// Worker threads used for replication (0 = library default).
    pub threads: u64,
    /// Version of the workspace crates that produced the run.
    pub crate_version: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total run duration in microseconds.
    pub duration_us: u64,
    /// Final metric counter totals (`(name, value)` in registry order;
    /// see [`crate::metrics::CounterSnapshot::named`]). Empty when the
    /// run had metrics off — older manifests without the field decode
    /// to empty, so the schema stays backward compatible. Telemetry
    /// exporters reconcile against these totals.
    pub counters: Vec<(String, u64)>,
    /// Canonical fingerprint of the environment perturbation schedule the
    /// run was produced under (`None` for the static process). Optional
    /// in the JSON encoding, so older manifests decode unchanged.
    pub env: Option<String>,
}

impl RunManifest {
    /// Starts a manifest for `experiment_id` now; `duration_us` is filled
    /// in by [`RunManifest::finish`].
    #[must_use]
    pub fn begin(experiment_id: &str, seed: u64, scale: &str, threads: usize) -> Self {
        let started_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        RunManifest {
            experiment_id: experiment_id.to_string(),
            seed,
            scale: scale.to_string(),
            threads: threads as u64,
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            started_unix_ms,
            duration_us: 0,
            counters: Vec::new(),
            env: None,
        }
    }

    /// Records the total duration and returns the completed manifest.
    #[must_use]
    pub fn finish(mut self, elapsed: std::time::Duration) -> Self {
        self.duration_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self
    }

    /// Attaches final counter totals (from
    /// [`crate::Metrics::snapshot`]) for telemetry reconciliation.
    #[must_use]
    pub fn with_counters(mut self, counters: Vec<(String, u64)>) -> Self {
        self.counters = counters;
        self
    }

    /// Records the environment schedule fingerprint the run was produced
    /// under (`None` leaves the manifest marked static).
    #[must_use]
    pub fn with_env(mut self, env: Option<String>) -> Self {
        self.env = env;
        self
    }

    /// The recorded total for counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A fixed manifest for tests and doc examples.
    #[must_use]
    pub fn example() -> Self {
        RunManifest {
            experiment_id: "e2".to_string(),
            seed: 0xDEAD_BEEF_CAFE_F00D,
            scale: "smoke".to_string(),
            threads: 2,
            crate_version: "0.1.0".to_string(),
            started_unix_ms: 1_700_000_000_000,
            duration_us: 250_000,
            counters: vec![("rounds_simulated".to_string(), 4_964)],
            env: None,
        }
    }

    /// Encodes the manifest as a JSON object value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("experiment_id".to_string(), Value::Str(self.experiment_id.clone())),
            ("seed".to_string(), Value::Int(i128::from(self.seed))),
            ("scale".to_string(), Value::Str(self.scale.clone())),
            ("threads".to_string(), Value::Int(i128::from(self.threads))),
            ("crate_version".to_string(), Value::Str(self.crate_version.clone())),
            ("started_unix_ms".to_string(), Value::Int(i128::from(self.started_unix_ms))),
            ("duration_us".to_string(), Value::Int(i128::from(self.duration_us))),
        ];
        if let Some(env) = &self.env {
            fields.push(("env".to_string(), Value::Str(env.clone())));
        }
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Int(i128::from(*v))))
                        .collect(),
                ),
            ));
        }
        Value::Obj(fields)
    }

    /// Encodes the manifest as one compact JSON object string.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Decodes a manifest from a JSON object value (extra fields, such as
    /// an event `"type"` tag, are ignored).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let str_field = |k: &str| {
            value.get(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("missing {k}"))
        };
        let u64_field =
            |k: &str| value.get(k).and_then(Value::as_u64).ok_or(format!("missing {k}"));
        let counters = match value.get("counters") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(n, v)| {
                    v.as_u64().map(|v| (n.clone(), v)).ok_or(format!("ill-typed counter {n}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("ill-typed counters field".to_string()),
            None => Vec::new(),
        };
        Ok(RunManifest {
            experiment_id: str_field("experiment_id")?,
            seed: u64_field("seed")?,
            scale: str_field("scale")?,
            threads: u64_field("threads")?,
            crate_version: str_field("crate_version")?,
            started_unix_ms: u64_field("started_unix_ms")?,
            duration_us: u64_field("duration_us")?,
            counters,
            env: value.get("env").and_then(Value::as_str).map(str::to_string),
        })
    }

    /// Decodes a manifest from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a description on malformed JSON or missing fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(text).map_err(|e| e.to_string())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let m = RunManifest::example();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn large_seed_is_lossless() {
        let mut m = RunManifest::example();
        m.seed = u64::MAX;
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn begin_and_finish_populate_timing() {
        let m = RunManifest::begin("e1", 7, "standard", 4);
        assert_eq!(m.experiment_id, "e1");
        assert_eq!(m.threads, 4);
        assert!(m.started_unix_ms > 0);
        let done = m.finish(std::time::Duration::from_micros(123));
        assert_eq!(done.duration_us, 123);
    }

    #[test]
    fn env_fingerprint_is_optional_and_round_trips() {
        // Static manifests omit the field entirely and decode to None.
        let bare = RunManifest::example();
        assert!(!bare.to_json().contains("\"env\""));
        assert_eq!(RunManifest::from_json(&bare.to_json()).unwrap().env, None);
        let m = bare.with_env(Some("flip@500,noise:0.01".to_string()));
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.env.as_deref(), Some("flip@500,noise:0.01"));
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(RunManifest::from_json("{\"experiment_id\":\"e1\"}").is_err());
    }

    #[test]
    fn counters_are_optional_and_round_trip() {
        // Older manifests (no counters field) decode to empty.
        let mut bare = RunManifest::example();
        bare.counters.clear();
        let back = RunManifest::from_json(&bare.to_json()).unwrap();
        assert!(back.counters.is_empty());
        // Attached totals survive the round trip and are queryable.
        let m = bare.with_counters(vec![
            ("rounds_simulated".to_string(), 123),
            ("replications".to_string(), 4),
        ]);
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.counter("rounds_simulated"), Some(123));
        assert_eq!(back.counter("nope"), None);
    }
}
