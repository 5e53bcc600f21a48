//! Experiment harness for the `bitdissem` reproduction.
//!
//! The paper is a brief announcement: its "evaluation" is a set of theorems
//! and proof-sketch figures rather than measurement tables. Each of them is
//! reproduced here as a regenerable experiment (see `DESIGN.md` §3 for the
//! full index):
//!
//! | ID  | Reproduces |
//! |-----|------------|
//! | E1  | Theorem 1/12 — `Ω(n^{1−ε})` lower bound for constant `ℓ` |
//! | E2  | Theorem 2 — Voter `O(n log n)` upper bound |
//! | E3  | Becchetti et al. — Minority `O(log² n)` with `ℓ = √(n ln n)` |
//! | E4  | Open question — minimal `ℓ` for fast Minority |
//! | E5  | Figures 2–3 — bias-polynomial root structure & case split |
//! | E6  | Figure 1 — Doob decomposition mechanics of Theorem 6 |
//! | E7  | Figure 4 — Voter dual coalescing process |
//! | E8  | Proposition 4 — one-step jump bound |
//! | E9  | Proposition 3 — consensus-maintenance necessity |
//! | E10 | Engine validation vs exact Markov chains |
//! | E11 | \[14\] — sequential vs parallel exponential gap |
//! | E12 | Minority without a source: consensus & oscillation |
//! | A1–A3 | Design ablations (simulators, samplers, root isolation) |
//!
//! Run any of them through the [`registry`]:
//!
//! ```
//! use bitdissem_experiments::{registry, RunConfig};
//!
//! let cfg = RunConfig::smoke(42);
//! let report = registry::run("e5", &cfg).expect("known experiment");
//! assert!(report.render().contains("bias"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod exp;
pub mod registry;
pub mod report;
pub mod trace;
pub mod workload;

pub use config::{ReplicationEngine, RunConfig, Scale};
pub use report::ExperimentReport;
