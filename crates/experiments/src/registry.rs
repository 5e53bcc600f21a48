//! Experiment registry: look up and run experiments by id.

use bitdissem_obs::{Event, Obs, RunManifest};

use crate::config::RunConfig;
use crate::exp;
use crate::report::ExperimentReport;

/// One registry entry.
#[derive(Clone, Copy)]
pub struct Entry {
    /// Experiment id (`e1`…`e12`, `a1`…`a3`).
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Runner function.
    pub run: fn(&RunConfig, &Obs) -> ExperimentReport,
}

impl std::fmt::Debug for Entry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entry")
            .field("id", &self.id)
            .field("description", &self.description)
            .finish()
    }
}

/// All registered experiments, in index order.
#[must_use]
pub fn all() -> Vec<Entry> {
    vec![
        Entry {
            id: "e1",
            description: "Theorem 1/12: almost-linear lower bound for constant sample size",
            run: exp::e01_lower_bound::run,
        },
        Entry {
            id: "e2",
            description: "Theorem 2: Voter O(n log n) upper bound",
            run: exp::e02_voter_upper::run,
        },
        Entry {
            id: "e3",
            description: "[15]: Minority with l = sqrt(n ln n) is poly-log fast",
            run: exp::e03_minority_fast::run,
        },
        Entry {
            id: "e4",
            description: "open question: minimal sample size for a fast Minority",
            run: exp::e04_sample_sweep::run,
        },
        Entry {
            id: "e5",
            description: "Figures 2-3: bias-polynomial roots and witness case split",
            run: exp::e05_bias_roots::run,
        },
        Entry {
            id: "e6",
            description: "Figure 1: Doob decomposition mechanics of Theorem 6",
            run: exp::e06_doob::run,
        },
        Entry {
            id: "e7",
            description: "Figure 4: Voter dual coalescing random walks",
            run: exp::e07_dual::run,
        },
        Entry {
            id: "e8",
            description: "Proposition 4: one-step jump bound",
            run: exp::e08_jump::run,
        },
        Entry {
            id: "e9",
            description: "Proposition 3: consensus maintenance necessity",
            run: exp::e09_prop3::run,
        },
        Entry {
            id: "e10",
            description: "engine validation vs exact Markov chains",
            run: exp::e10_exact::run,
        },
        Entry {
            id: "e11",
            description: "[14]: sequential vs parallel exponential gap",
            run: exp::e11_seq_par::run,
        },
        Entry {
            id: "e12",
            description: "Minority without a source: speed and oscillation",
            run: exp::e12_minority_consensus::run,
        },
        Entry {
            id: "e13",
            description: "future work: constant memory under passive communication",
            run: exp::e13_memory::run,
        },
        Entry {
            id: "e14",
            description: "robustness: observation noise destroys dissemination",
            run: exp::e14_noise::run,
        },
        Entry {
            id: "e15",
            description: "[14]: exact sequential Omega(n) bound for arbitrary protocols",
            run: exp::e15_sequential_lb::run,
        },
        Entry {
            id: "e16",
            description: "self-stabilization: exhaustive worst start vs the witness",
            run: exp::e16_selfstab::run,
        },
        Entry {
            id: "e17",
            description: "protocol synthesis: tuning the table cannot escape Theorem 1",
            run: exp::e17_synthesis::run,
        },
        Entry {
            id: "e18",
            description: "partial synchrony: where the [15] fast regime collapses",
            run: exp::e18_synchronicity::run,
        },
        Entry {
            id: "e19",
            description: "environment layer: re-convergence after flips and resets",
            run: exp::e19_reconvergence::run,
        },
        Entry {
            id: "e20",
            description: "Theorem 2 vs 12: exact sparse-chain convergence frontier at large n",
            run: exp::e20_exact_frontier::run,
        },
        Entry {
            id: "a1",
            description: "ablation: aggregate vs agent-level simulator",
            run: exp::a1_agg_vs_agent::run,
        },
        Entry {
            id: "a2",
            description: "ablation: binomial sampler algorithms",
            run: exp::a2_binomial::run,
        },
        Entry {
            id: "a3",
            description: "ablation: Bernstein vs Sturm root isolation",
            run: exp::a3_roots::run,
        },
    ]
}

/// Runs the experiment with the given id, or returns `None` for an unknown
/// id.
#[must_use]
pub fn run(id: &str, cfg: &RunConfig) -> Option<ExperimentReport> {
    run_observed(id, cfg, &Obs::none())
}

/// [`run`] with an observability handle: brackets the experiment with
/// `ExperimentStarted` / `ExperimentFinished` trace events, attaches a
/// [`RunManifest`] to the report (and emits it into the trace), and
/// flushes the sink before returning.
#[must_use]
pub fn run_observed(id: &str, cfg: &RunConfig, obs: &Obs) -> Option<ExperimentReport> {
    let id = id.to_ascii_lowercase();
    let entry = all().into_iter().find(|e| e.id == id)?;
    // Namespace checkpoint keys per experiment so one shared log can hold
    // an entire `run --all` sweep without cross-experiment collisions.
    let obs = &obs.clone().with_checkpoint_ns(entry.id);

    let manifest =
        RunManifest::begin(entry.id, cfg.seed, cfg.scale.name(), cfg.threads.unwrap_or(0))
            .with_env(cfg.env.map(|e| e.fingerprint()));
    // Snapshot the shared counters so the manifest can carry this
    // experiment's *deltas*: summing the counters over all manifests of a
    // run then reconciles exactly with the final telemetry export.
    let counters_before = obs.metrics_on().then(|| obs.metrics().snapshot());
    let timer = bitdissem_obs::Timer::start();
    if obs.active() {
        obs.emit(&Event::ExperimentStarted {
            id: entry.id.to_string(),
            title: entry.description.to_string(),
            seed: cfg.seed,
            scale: cfg.scale.name().to_string(),
        });
    }

    let mut report = (entry.run)(cfg, obs);

    let mut manifest = manifest.finish(timer.elapsed());
    if let Some(before) = counters_before {
        let after = obs.metrics().snapshot();
        let deltas = after
            .named()
            .into_iter()
            .zip(before.named())
            .map(|((name, now), (_, then))| (name.to_string(), now.saturating_sub(then)))
            .collect();
        manifest = manifest.with_counters(deltas);
    }
    if obs.active() {
        obs.emit(&Event::ExperimentFinished {
            id: entry.id.to_string(),
            pass: report.pass,
            elapsed_us: manifest.duration_us,
        });
        obs.emit(&Event::Manifest(manifest.clone()));
    }
    report.set_manifest(manifest);
    obs.flush();
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_entries_are_unique() {
        let entries = all();
        assert_eq!(entries.len(), 23);
        let mut ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 23);
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("zzz", &crate::RunConfig::smoke(1)).is_none());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let cfg = crate::RunConfig::smoke(1);
        assert!(run("E5", &cfg).is_some());
    }

    #[test]
    fn convergence_sweeps_record_their_batches_under_conv() {
        // Every replicated convergence batch runs on the lock-step engine
        // and checkpoints under the plain `conv` kind.
        use bitdissem_obs::CheckpointLog;
        use std::sync::Arc;
        for id in ["e2", "e4"] {
            let path = std::env::temp_dir()
                .join(format!("bitdissem_conv_keys_{}_{id}.jsonl", std::process::id()));
            let obs = Obs::none().with_checkpoint(Arc::new(CheckpointLog::create(&path).unwrap()));
            assert!(run_observed(id, &crate::RunConfig::smoke(3), &obs).is_some());
            drop(obs);
            let log = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            let prefix = format!("\"key\":\"{id}/conv:");
            assert!(log.lines().count() > 0, "{id} recorded no checkpoints");
            assert!(log.lines().all(|l| l.contains(&prefix)), "{id}:\n{log}");
        }
    }
}
