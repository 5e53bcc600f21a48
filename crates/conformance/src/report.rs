//! Versioned conformance reports (`CONFORM_<label>.json`).
//!
//! The report follows the conventions of the CLI's other records
//! (`MARKOV_<label>.json`, the `BENCH_<label>.json` A/B records): a schema
//! version for forward compatibility, a label naming the run, and enough
//! detail per check to diagnose a failure from the artifact alone
//! (statistic, critical value, sample sizes). Writes
//! are atomic ([`bitdissem_obs::durable::atomic_replace`]) so a crashed
//! run never leaves a torn report for CI to misparse.

use std::path::{Path, PathBuf};

use bitdissem_obs::durable::atomic_replace;
use bitdissem_obs::json::{self, Value};

use crate::differential::Check;
use crate::fault::FaultCheck;

/// Schema version of the report format. Bump on breaking layout changes.
pub const CONFORM_SCHEMA_VERSION: u64 = 1;

/// The serialized outcome of one `bitdissem conform` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformReport {
    /// Report format version ([`CONFORM_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Run label (file name suffix).
    pub label: String,
    /// Scale preset the matrix ran at.
    pub scale: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Total KS false-alarm budget the matrix was gated at.
    pub alpha_budget: f64,
    /// Every differential check performed.
    pub checks: Vec<Check>,
    /// Every fault scenario performed (empty if skipped).
    pub faults: Vec<FaultCheck>,
}

impl ConformReport {
    /// Whether the whole run passed: every KS check accepted and every
    /// fault scenario resumed bit-identically.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass) && self.faults.iter().all(|f| f.pass)
    }

    /// `(failed differential checks, failed fault scenarios)`.
    #[must_use]
    pub fn failures(&self) -> (usize, usize) {
        (
            self.checks.iter().filter(|c| !c.pass).count(),
            self.faults.iter().filter(|f| !f.pass).count(),
        )
    }

    /// Serializes the report to its JSON object form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(c.name.clone())),
                    ("statistic".to_string(), Value::Num(c.statistic)),
                    ("critical".to_string(), Value::Num(c.critical)),
                    (
                        "sizes".to_string(),
                        Value::Arr(vec![
                            Value::Int(c.sizes.0 as i128),
                            Value::Int(c.sizes.1 as i128),
                        ]),
                    ),
                    ("pass".to_string(), Value::Bool(c.pass)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("scenario".to_string(), Value::Str(f.scenario.clone())),
                    ("pass".to_string(), Value::Bool(f.pass)),
                    ("detail".to_string(), Value::Str(f.detail.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema_version".to_string(), Value::Int(i128::from(self.schema_version))),
            ("label".to_string(), Value::Str(self.label.clone())),
            ("scale".to_string(), Value::Str(self.scale.clone())),
            ("seed".to_string(), Value::Int(i128::from(self.seed))),
            ("alpha_budget".to_string(), Value::Num(self.alpha_budget)),
            ("pass".to_string(), Value::Bool(self.pass())),
            ("checks".to_string(), Value::Arr(checks)),
            ("faults".to_string(), Value::Arr(faults)),
        ])
        .render()
    }

    /// Parses a report from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message if the text is not valid JSON or the layout does
    /// not match the schema.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema_version =
            v.get("schema_version").and_then(Value::as_u64).ok_or("missing schema_version")?;
        let label = v.get("label").and_then(Value::as_str).ok_or("missing label")?.to_string();
        let scale = v.get("scale").and_then(Value::as_str).ok_or("missing scale")?.to_string();
        let seed = v.get("seed").and_then(Value::as_u64).ok_or("missing seed")?;
        let alpha_budget =
            v.get("alpha_budget").and_then(Value::as_f64).ok_or("missing alpha_budget")?;
        let checks = match v.get("checks") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|c| {
                    let name =
                        c.get("name").and_then(Value::as_str).ok_or("check: missing name")?;
                    let sizes = match c.get("sizes") {
                        Some(Value::Arr(s)) if s.len() == 2 => (
                            s[0].as_u64().ok_or("check: bad sizes")? as usize,
                            s[1].as_u64().ok_or("check: bad sizes")? as usize,
                        ),
                        _ => return Err("check: missing sizes".to_string()),
                    };
                    Ok(Check {
                        name: name.to_string(),
                        // A non-finite statistic serializes as null; map it
                        // back to NaN (the fail-safe marker).
                        statistic: c.get("statistic").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        critical: c
                            .get("critical")
                            .and_then(Value::as_f64)
                            .ok_or("check: missing critical")?,
                        sizes,
                        pass: c
                            .get("pass")
                            .and_then(Value::as_bool)
                            .ok_or("check: missing pass")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing checks".to_string()),
        };
        let faults = match v.get("faults") {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|f| {
                    Ok(FaultCheck {
                        scenario: f
                            .get("scenario")
                            .and_then(Value::as_str)
                            .ok_or("fault: missing scenario")?
                            .to_string(),
                        pass: f
                            .get("pass")
                            .and_then(Value::as_bool)
                            .ok_or("fault: missing pass")?,
                        detail: f
                            .get("detail")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing faults".to_string()),
        };
        Ok(ConformReport { schema_version, label, scale, seed, alpha_budget, checks, faults })
    }

    /// Writes the report atomically as `CONFORM_<label>.json` under `dir`,
    /// returning the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the atomic write.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("CONFORM_{}.json", self.label));
        atomic_replace(&path, self.to_json().as_bytes())?;
        Ok(path)
    }

    /// Loads a report from disk.
    ///
    /// # Errors
    ///
    /// Returns a message if the file is unreadable or does not parse.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
        Self::from_json(&text)
    }

    /// Human-readable summary, one line per failed check plus totals.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conformance matrix: {} checks, {} fault scenarios (scale {}, seed {}, alpha {:.1e})\n",
            self.checks.len(),
            self.faults.len(),
            self.scale,
            self.seed,
            self.alpha_budget,
        ));
        for c in self.checks.iter().filter(|c| !c.pass) {
            out.push_str(&format!(
                "  FAIL {:<55} D={:.4} > {:.4} (n={}, {})\n",
                c.name, c.statistic, c.critical, c.sizes.0, c.sizes.1
            ));
        }
        for f in &self.faults {
            out.push_str(&format!(
                "  {} fault {:<22} {}\n",
                if f.pass { "ok  " } else { "FAIL" },
                f.scenario,
                f.detail
            ));
        }
        let (dc, df) = self.failures();
        if dc == 0 && df == 0 {
            out.push_str("  all checks passed\n");
        } else {
            out.push_str(&format!(
                "  {dc} differential check(s) and {df} fault scenario(s) FAILED\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ConformReport {
        ConformReport {
            schema_version: CONFORM_SCHEMA_VERSION,
            label: "test".to_string(),
            scale: "smoke".to_string(),
            seed: 42,
            alpha_budget: 1e-9,
            checks: vec![
                Check {
                    name: "voter(l=1)/n16/all_wrong agent~aggregate time".to_string(),
                    statistic: 0.08,
                    critical: 0.5,
                    sizes: (100, 100),
                    pass: true,
                },
                Check {
                    name: "broken".to_string(),
                    statistic: f64::NAN,
                    critical: 0.0,
                    sizes: (0, 100),
                    pass: false,
                },
            ],
            faults: vec![FaultCheck {
                scenario: "torn-line".to_string(),
                pass: true,
                detail: "recovered 2 of 10".to_string(),
            }],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything_but_nan_identity() {
        let report = sample_report();
        let parsed = ConformReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.schema_version, report.schema_version);
        assert_eq!(parsed.label, report.label);
        assert_eq!(parsed.seed, report.seed);
        assert_eq!(parsed.checks.len(), 2);
        assert_eq!(parsed.checks[0], report.checks[0]);
        // NaN survives as NaN (serialized as null).
        assert!(parsed.checks[1].statistic.is_nan());
        assert!(!parsed.checks[1].pass);
        assert_eq!(parsed.faults, report.faults);
    }

    #[test]
    fn pass_requires_every_check_and_fault() {
        let mut report = sample_report();
        assert!(!report.pass());
        assert_eq!(report.failures(), (1, 0));
        report.checks.retain(|c| c.pass);
        assert!(report.pass());
        report.faults[0].pass = false;
        assert!(!report.pass());
        assert_eq!(report.failures(), (0, 1));
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("conform_report_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = sample_report();
        let path = report.save(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "CONFORM_test.json");
        let loaded = ConformReport::load(&path).unwrap();
        assert_eq!(loaded.label, "test");
        assert_eq!(loaded.checks.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_reports_are_rejected_with_context() {
        assert!(ConformReport::from_json("not json").is_err());
        assert!(ConformReport::from_json("{}").unwrap_err().contains("schema_version"));
        let err = ConformReport::from_json(
            "{\"schema_version\":1,\"label\":\"x\",\"scale\":\"smoke\",\"seed\":1,\"alpha_budget\":1e-9,\"checks\":[{}],\"faults\":[]}",
        )
        .unwrap_err();
        assert!(err.contains("check:"), "{err}");
    }

    #[test]
    fn render_reports_failures_and_totals() {
        let report = sample_report();
        let text = report.render();
        assert!(text.contains("FAIL broken"));
        assert!(text.contains("1 differential check(s) and 0 fault scenario(s) FAILED"));
        assert!(text.contains("ok   fault torn-line"));
    }
}
