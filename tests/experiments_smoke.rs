//! Every registered experiment runs at smoke scale and passes its own
//! directional checks — the end-to-end gate for the whole reproduction.
//! The run is traced through a `MemorySink`, so this also gates the
//! observability layer: every experiment must produce a well-formed
//! bracketed event stream and a manifest.

use std::sync::Arc;

use bitdissem_experiments::{registry, RunConfig};
use bitdissem_obs::{Event, MemorySink, Obs};

#[test]
fn every_experiment_passes_its_directional_checks_at_smoke_scale() {
    let cfg = RunConfig::smoke(20_240_613);
    let mut failures = Vec::new();
    for entry in registry::all() {
        let sink = Arc::new(MemorySink::new());
        let obs = Obs::none().with_sink(Arc::clone(&sink) as _).with_metrics();
        let report = registry::run_observed(entry.id, &cfg, &obs).expect("registered id");
        assert_eq!(report.id, entry.id);
        assert!(!report.tables.is_empty(), "{}: no tables produced", entry.id);
        assert!(report.tables.iter().all(|(_, t)| !t.is_empty()), "{}: empty table", entry.id);

        // Observability invariants: started first, finished + manifest
        // last, and the manifest mirrors the run configuration.
        let events = sink.events();
        assert!(
            matches!(&events[0], Event::ExperimentStarted { id, .. } if *id == entry.id),
            "{}: first event is {:?}",
            entry.id,
            events.first()
        );
        assert!(
            matches!(&events[events.len() - 1], Event::Manifest(_)),
            "{}: trace must end with the manifest",
            entry.id
        );
        assert!(
            matches!(&events[events.len() - 2], Event::ExperimentFinished { id, .. } if *id == entry.id),
            "{}: penultimate event is {:?}",
            entry.id,
            events.get(events.len() - 2)
        );
        let manifest = report.manifest.as_ref().expect("manifest attached");
        assert_eq!(manifest.experiment_id, entry.id);
        assert_eq!(manifest.seed, cfg.seed);
        assert_eq!(manifest.scale, "smoke");
        // Every experiment times itself under its own id.
        assert!(
            obs.metrics().phases().iter().any(|(name, _)| name == entry.id),
            "{}: missing phase scope",
            entry.id
        );

        if !report.pass {
            failures.push(format!("{}\n{}", entry.id, report.render()));
        }
    }
    assert!(failures.is_empty(), "failing experiments:\n{}", failures.join("\n---\n"));
}

#[test]
fn reports_render_and_serialize() {
    let cfg = RunConfig::smoke(7);
    let report = registry::run("e5", &cfg).expect("known id");
    let text = report.render();
    assert!(text.contains("E5"));
    assert!(text.contains("verdict"));
}

#[test]
fn observed_and_unobserved_registry_runs_agree() {
    // Tracing must never perturb the simulation: same seed, same report
    // (up to the wall-clock fields in the manifest).
    let cfg = RunConfig::smoke(99);
    let mut plain = registry::run("e2", &cfg).expect("known id");
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::none().with_sink(sink).with_metrics();
    let mut traced = registry::run_observed("e2", &cfg, &obs).expect("known id");
    plain.manifest = None;
    traced.manifest = None;
    assert_eq!(plain, traced);
}
