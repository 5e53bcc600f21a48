//! Polynomial substrate for the `bitdissem` workspace.
//!
//! The central analytical object of D'Archivio & Vacus (PODC 2024) is the
//! *bias polynomial* `F_n(p)` of a memory-less protocol (Eq. 3 of the paper):
//! a polynomial of degree at most `ℓ + 1` whose roots in `[0, 1]` control how
//! fast the proportion of `1`-opinions can drift. This crate provides
//! everything required to manipulate such polynomials rigorously:
//!
//! * [`Polynomial`] — dense power-basis polynomials over `f64` with the usual
//!   ring operations, differentiation and stable Horner evaluation;
//! * [`Bernstein`] — the same polynomials in Bernstein basis on `[0, 1]`,
//!   which is the natural basis for Eq. 3 and enables numerically robust,
//!   variation-diminishing root isolation via de Casteljau subdivision;
//! * [`roots`] — root isolation and refinement on `[0, 1]` in Bernstein
//!   form, combining de Casteljau subdivision with bisection and Newton
//!   polishing;
//! * [`binomial`] — exact (`u128`) and floating-point binomial coefficients
//!   plus numerically stable binomial PMF/CDF evaluation, shared by the
//!   analysis and Markov-chain crates;
//! * [`sturm`] — Sturm-sequence root counting used as an independent
//!   cross-check of the Bernstein isolator (ablation A3).
//!
//! # Example
//!
//! Count the roots of `p(1-p)(p - 1/2)` in `[0, 1]`:
//!
//! ```
//! use bitdissem_poly::{roots::roots_in_unit_interval, Bernstein, Polynomial};
//!
//! let p = Polynomial::from_roots(&[0.0, 1.0, 0.5]);
//! let rs = roots_in_unit_interval(&Bernstein::from_polynomial(&p), 1e-12);
//! assert_eq!(rs.len(), 3);
//! assert!((rs[1] - 0.5).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernstein;
pub mod binomial;
pub mod gcd;
pub mod kernel;
pub mod polynomial;
pub mod roots;
pub mod sturm;

pub use bernstein::Bernstein;
pub use binomial::{binomial_pmf_window, PmfWindow, PMF_WINDOW_REL_EPS};
pub use kernel::{Kernel, KernelError};
pub use polynomial::Polynomial;
