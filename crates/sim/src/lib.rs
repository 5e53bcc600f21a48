//! Simulation engine for the self-stabilizing bit-dissemination problem.
//!
//! Two complementary simulators, both exact with respect to the process law
//! of Section 1.1 of the paper:
//!
//! * [`agent::AgentSim`] — the literal model: one entry per agent, `ℓ`
//!   uniform-with-replacement samples per agent per round. `O(nℓ)` per
//!   round; the ground truth.
//! * [`aggregate::AggregateSim`] — exploits anonymity: conditioned on
//!   `X_t = x`, the next state is `z + Bin(x−z, P₁) + Bin(n−x−(1−z), P₀)`,
//!   so a round costs two binomial draws — one, `z + Bin(n−1, P)`, where
//!   `P₀ = P₁ = P`. Distributionally identical to the
//!   agent simulator (ablation A1 verifies this) and fast enough for
//!   `n = 2²⁰` sweeps.
//!
//! Replication sweeps step the aggregate chain for a whole batch of
//! replicas at once: [`lockstep::LockstepSim`] advances them in lock-step
//! on per-replica seeded rngs and one shared per-state plan cache, every
//! replica bit-identical to a solo `AggregateSim` with the same seed, and
//! retires each at a goal (the correct consensus, or a crossing
//! threshold); [`lockstep::replicate_lockstep`] shards the batches over
//! the worker pool.
//!
//! Plus the sequential-setting simulator ([`sequential::SequentialSim`]),
//! the Voter *dual process* of coalescing backward random walks used in the
//! Theorem 2 proof ([`dual`]), deterministic seeding ([`rng`]), a built-from-
//! scratch binomial sampler ([`binomial`]), environment perturbations
//! ([`mod@env`]), the one driver of a solo simulator run ([`run::drive`],
//! which steps any [`Simulator`] under a [`RunSpec`]: a round budget, a
//! stop rule — the first consensus, a dwell window after it, or a fixed
//! horizon — an optional schedule and an observability handle) and a
//! multi-threaded per-replica replication runner ([`runner`]).
//!
//! # Example
//!
//! ```
//! use bitdissem_core::{dynamics::Voter, Configuration, Opinion};
//! use bitdissem_sim::{aggregate::AggregateSim, rng::rng_from, run::{run_to_consensus, Outcome}};
//!
//! let voter = Voter::new(1)?;
//! let start = Configuration::all_wrong(64, Opinion::One);
//! let mut sim = AggregateSim::new(&voter, start)?;
//! let mut rng = rng_from(42);
//! match run_to_consensus(&mut sim, &mut rng, 100_000) {
//!     Outcome::Converged { rounds } => assert!(rounds > 0),
//!     other => panic!("voter should converge: {other:?}"),
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod aggregate;
pub mod binomial;
pub mod consensus;
pub mod dual;
pub mod env;
pub mod hypergeometric;
pub mod lockstep;
pub mod partial;
pub mod rng;
mod roundplan;
pub mod run;
pub mod runner;
pub mod sequential;
pub mod stateful;
pub mod trajectory;

pub use agent::AgentSim;
pub use aggregate::AggregateSim;
pub use env::{EnvSchedule, ResetSpec, ResetTrigger};
pub use lockstep::{replicate_lockstep, LockstepSim};
pub use rng::{rng_from, SimRng};
pub use run::{drive, run_to_consensus, Outcome, RunSpec, RunStats, Simulator, Stop};
pub use runner::{replicate, replicate_indices_observed, replicate_observed, replicate_spawn};
