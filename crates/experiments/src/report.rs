//! Experiment reports: one uniform shape for every table and figure.

use bitdissem_obs::RunManifest;
use bitdissem_stats::Table;

/// The result of one experiment run: titled tables plus a verdict on
/// whether the measured *shape* matches the paper's claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Short experiment id (`e1`, …, `a3`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// What the paper claims / what shape we expect.
    pub paper_claim: String,
    /// Result tables, each with a caption.
    pub tables: Vec<(String, Table)>,
    /// Free-form findings (one line each).
    pub findings: Vec<String>,
    /// `true` when every directional expectation held in this run.
    pub pass: bool,
    /// Provenance record (seed, scale, threads, version, timing), attached
    /// by the registry when the run is observed.
    pub manifest: Option<RunManifest>,
}

impl ExperimentReport {
    /// Creates an empty passing report.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_claim: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            paper_claim: paper_claim.into(),
            tables: Vec::new(),
            findings: Vec::new(),
            pass: true,
            manifest: None,
        }
    }

    /// Attaches the run manifest.
    pub fn set_manifest(&mut self, manifest: RunManifest) {
        self.manifest = Some(manifest);
    }

    /// Appends a captioned table.
    pub fn add_table(&mut self, caption: impl Into<String>, table: Table) {
        self.tables.push((caption.into(), table));
    }

    /// Records a finding line.
    pub fn finding(&mut self, line: impl Into<String>) {
        self.findings.push(line.into());
    }

    /// Records a checked expectation: the finding line is prefixed with its
    /// verdict and the overall pass flag is updated.
    pub fn check(&mut self, ok: bool, line: impl Into<String>) {
        let verdict = if ok { "OK " } else { "FAIL" };
        self.findings.push(format!("[{verdict}] {}", line.into()));
        self.pass &= ok;
    }

    /// Renders the full report as plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id.to_uppercase(), self.title));
        out.push_str(&format!("paper: {}\n", self.paper_claim));
        for (caption, table) in &self.tables {
            out.push_str(&format!("\n-- {caption} --\n"));
            out.push_str(&table.render());
        }
        if !self.findings.is_empty() {
            out.push_str("\nfindings:\n");
            for f in &self.findings {
                out.push_str(&format!("  {f}\n"));
            }
        }
        out.push_str(&format!("\nverdict: {}\n", if self.pass { "PASS" } else { "FAIL" }));
        // The manifest is deliberately NOT rendered: it carries wall-clock
        // fields, and `render()` must stay byte-identical for a fixed seed
        // (the determinism integration tests compare it directly).
        out
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_parts() {
        let mut r = ExperimentReport::new("e1", "Lower bound", "T = Ω(n^{1-ε})");
        let mut t = Table::new(["n", "T"]);
        t.row(["128", "99"]);
        r.add_table("scaling", t);
        r.finding("note");
        r.check(true, "exponent above 0.8");
        let text = r.render();
        assert!(text.contains("E1"));
        assert!(text.contains("scaling"));
        assert!(text.contains("128"));
        assert!(text.contains("[OK ]"));
        assert!(text.contains("PASS"));
    }

    #[test]
    fn failed_check_flips_verdict() {
        let mut r = ExperimentReport::new("x", "t", "c");
        r.check(true, "first");
        assert!(r.pass);
        r.check(false, "second");
        assert!(!r.pass);
        assert!(r.render().contains("FAIL"));
    }

    #[test]
    fn display_matches_render() {
        let r = ExperimentReport::new("x", "t", "c");
        assert_eq!(format!("{r}"), r.render());
    }

    #[test]
    fn manifest_is_stored_but_stays_out_of_render() {
        let mut r = ExperimentReport::new("x", "t", "c");
        let baseline = r.render();
        r.set_manifest(RunManifest::example());
        assert_eq!(r.manifest.as_ref().unwrap().experiment_id, "e2");
        // Wall-clock provenance must not perturb the deterministic render.
        assert_eq!(r.render(), baseline);
    }
}
