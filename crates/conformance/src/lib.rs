//! Differential conformance for the bitdissem simulator family.
//!
//! The repository implements the same stochastic process five times over —
//! the literal agent-level simulator, the aggregate exact chain, the
//! sequential simulator, the partial-synchrony interpolation, and the
//! Voter dual process — precisely so that bugs in one implementation
//! cannot hide: the paper's law equivalences make the backends *mutually
//! checking*. This crate turns that redundancy into an executable gate:
//!
//! * [`differential`] drives all backends from identical
//!   `(protocol, n, X₀, seed-schedule)` grids and compares, per grid cell,
//!   the per-round marginals `X_r` and the consensus-time distributions
//!   with two-sample Kolmogorov–Smirnov tests. The comparisons rest on
//!   exact equalities:
//!   - `AgentSim ≡ AggregateSim ≡ PartialSim(m = n−1) ≡ LockstepSim` in
//!     the *parallel* law (one round = all non-source agents update);
//!   - `SequentialSim ≡ PartialSim(m = 1)` in the *per-activation* law
//!     (compared in activations — the round normalizations differ);
//!   - the [`CoalescingDual`](bitdissem_sim::dual::CoalescingDual)
//!     absorption time equals in distribution the forward Voter `ℓ = 1`
//!     consensus time from the all-wrong start (Appendix B duality).
//!
//!   All tests share one false-alarm budget, Bonferroni-split across the
//!   matrix, so a full run's probability of any spurious failure is
//!   bounded by the budget (KS on discrete data is conservative).
//! * [`oracle`] admits the exact Markov chain as a *reference backend*:
//!   i.i.d. draws from the exact law for the KS matrix, a deterministic
//!   sparse~dense row comparison at small `n`, and Proposition-5-style
//!   drift-band envelopes that gate the lock-step engine at `n` in the
//!   thousands, where replicated KS comparison is infeasible.
//! * [`fault`] injects I/O failures — torn lines, short writes, transient
//!   `Interrupted`/`WouldBlock` errors, a mid-batch kill — into the
//!   checkpoint path via [`bitdissem_obs::FaultyWriter`], then proves a
//!   `--resume` recovers bit-identically to an undisturbed run.
//! * [`report`] serializes the outcome as a versioned
//!   `CONFORM_<label>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod differential;
pub mod fault;
pub mod oracle;
pub mod report;

pub use differential::{
    run_differential, Cell, Check, ConformConfig, ConformScale, ProtocolKind, StartKind,
};
pub use fault::{run_fault_scenarios, FaultCheck};
pub use oracle::{drift_band_check, sample_exact, sparse_dense_check};
pub use report::{ConformReport, CONFORM_SCHEMA_VERSION};
