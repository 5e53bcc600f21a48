//! Sample summaries and process measurements.

use bitdissem_stats::Summary;

/// Median and quartiles of a set of samples (linear interpolation between
/// order statistics), with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarizes `xs`; all fields are 0 for an empty slice.
    #[must_use]
    pub fn of(xs: &[f64]) -> Self {
        match Summary::from_samples(xs) {
            Some(s) => Spread {
                n: xs.len(),
                q1: s.quantile(0.25),
                median: s.median(),
                q3: s.quantile(0.75),
            },
            None => Spread { n: 0, q1: 0.0, median: 0.0, q3: 0.0 },
        }
    }
}

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    Spread::of(xs).median
}

/// Peak resident set size of this process (`VmHWM`), in MB (10⁶ bytes).
/// `None` where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}
