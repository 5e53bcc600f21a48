//! Statistics and reporting substrate for the `bitdissem` experiments.
//!
//! The experiment harness turns raw convergence-time samples into the tables
//! recorded in `EXPERIMENTS.md`. This crate provides:
//!
//! * [`summary`] — descriptive statistics (mean, variance, quantiles) with
//!   normal-theory and bootstrap confidence intervals;
//! * [`regression`] — ordinary least squares, log–log power-law fits, and
//!   scaling-model comparison (`n^b` vs `n·log n` vs `log² n`), used to test
//!   the *shape* predictions of the paper's theorems;
//! * [`histogram`] — fixed-width and log-scale histograms for
//!   distribution sanity checks and latency data;
//! * [`table`] — aligned plain-text and CSV rendering of result tables.
//!
//! # Example
//!
//! ```
//! use bitdissem_stats::summary::Summary;
//!
//! let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.median(), 2.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod histogram;
pub mod regression;
pub mod summary;
pub mod table;

pub use compare::{paired_ab, Better, PairedAb, Verdict};
pub use histogram::{Histogram, LogHistogram};
pub use regression::{fit_power_law, LinearFit, ScalingModel};
pub use summary::Summary;
pub use table::Table;
