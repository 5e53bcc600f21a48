//! The repository's benchmark: four workloads that drive the bitdissem
//! crates from outside, through their public API, one workload per process.
//!
//! An untraced run reports the end-to-end metrics (pass wall time, set-up
//! time, peak memory); a traced run records spans around each
//! call into a layer and reports per-layer shares, counts and rates. Both
//! check the program's outputs outside the timed regions. See `README.md`
//! for the workloads, the metrics and how they interact.

pub mod checks;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
