//! End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
//! as pure functions of what a run measured. A dry listing calls the same
//! functions on empty measurements, so the names a run emits and the names
//! `BENCHMARK.json` declares can be compared without timing anything.

use crate::stats::median;
use crate::trace::{self_time, self_time_under, Span};
use crate::workload::{PassStats, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value (the median of `samples` where there are samples).
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value, in measurement order; empty for a value
    /// measured once.
    pub samples: Vec<f64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, samples: Vec::new() }
}

fn sampled(name: &'static str, xs: &[f64], unit: &'static str) -> Metric {
    Metric { name, value: median(xs), unit, samples: xs.to_vec() }
}

/// What an untraced run measured.
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Set-up seconds of fresh workload processes, one per process.
    pub setup_s: Vec<f64>,
    /// The warm passes.
    pub passes: Vec<PassStats>,
    /// Peak resident set size of the workload process.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn e2e_metrics(data: &RunData) -> Vec<Metric> {
    let secs: Vec<f64> = data.passes.iter().map(|p| p.seconds).collect();
    vec![
        sampled("pass_s", &secs, "s"),
        sampled("setup_s", &data.setup_s, "s"),
        metric("peak_rss_mb", data.peak_rss_mb, "MB"),
    ]
}

/// What a traced run measured.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Every span recorded, set-up and passes.
    pub spans: Vec<Span>,
    /// The `bench.setup` span.
    pub setup_root: Option<usize>,
    /// Traced passes with their `bench.pass` root spans (recorders on, on
    /// `recorded`).
    pub traced: Vec<(PassStats, usize)>,
    /// Wall times of the interleaved untraced passes.
    pub untraced_s: Vec<f64>,
    /// Wall times of traced `Obs::none()` twin passes (`recorded` only).
    pub unrecorded_s: Vec<f64>,
    /// Wall time of one warm pass in a process whose pool has one
    /// participant.
    pub single_thread_s: f64,
    /// Pool participants of the traced process.
    pub workers: usize,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. Layer times are shares of the
/// traced passes' wall time (self time of the layer's spans), so a layer
/// that does no work on a workload reads 0 rather than a time.
#[must_use]
pub fn layer_metrics(w: Workload, d: &TraceData) -> Vec<Metric> {
    let roots: Vec<usize> = d.traced.iter().map(|&(_, r)| r).collect();
    let passes: Vec<&PassStats> = d.traced.iter().map(|(p, _)| p).collect();
    let pass_time: f64 = roots.iter().map(|&r| d.spans[r].duration()).sum();
    let layer_time = |names: &[&str]| -> f64 {
        names.iter().map(|n| self_time_under(&d.spans, &roots, n)).sum()
    };
    let share = |names: &[&str]| ratio(layer_time(names), pass_time);
    let sum = |f: fn(&PassStats) -> f64| -> f64 { passes.iter().map(|p| f(p)).sum() };
    let med = |f: fn(&PassStats) -> f64| -> f64 {
        median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let span_time =
        |name: &str| -> f64 { d.spans.iter().filter(|s| s.name == name).map(Span::duration).sum() };
    let (setup_witness, setup_time) = match d.setup_root {
        Some(r) => (self_time_under(&d.spans, &[r], "analysis.witness"), d.spans[r].duration()),
        None => (0.0, 0.0),
    };
    let traced_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let speedup = ratio(d.single_thread_s, median(&d.untraced_s));
    let obs_overhead = if w == Workload::Recorded {
        1.0 - ratio(median(&d.unrecorded_s), median(&traced_s))
    } else {
        0.0
    };
    let unattributed: f64 = roots.iter().map(|&r| self_time(&d.spans, r)).sum();
    vec![
        metric("experiments.measure_frac", share(&["experiments.measure"]), "frac"),
        metric("experiments.replica_rounds", med(|p| p.replica_rounds as f64), "count"),
        metric("experiments.replications", med(|p| p.replications as f64), "count"),
        metric(
            "experiments.replica_rounds_per_s",
            ratio(med(|p| p.replica_rounds as f64), median(&d.untraced_s)),
            "1/s",
        ),
        metric(
            "sim.straggler_ratio",
            ratio(sum(|p| p.straggler_weighted), sum(|p| p.replica_rounds as f64)),
            "ratio",
        ),
        metric(
            "sim.censored_frac",
            ratio(sum(|p| p.censored as f64), sum(|p| p.replications as f64)),
            "frac",
        ),
        metric("poly.compile_frac", share(&["poly.compile"]), "frac"),
        metric("analysis.witness_frac", ratio(setup_witness, setup_time), "frac"),
        metric("pool.spawn_s", span_time("pool.spawn"), "s"),
        metric("pool.speedup", speedup, "ratio"),
        metric("pool.efficiency", ratio(speedup, d.workers as f64), "ratio"),
        metric("markov.build_frac", share(&["markov.build"]), "frac"),
        metric("markov.nnz", med(|p| p.nnz as f64), "count"),
        metric("markov.band", med(|p| p.band as f64), "count"),
        metric("markov.lu_frac", share(&["markov.lu"]), "frac"),
        metric("markov.lu_flops", med(|p| p.lu_flops), "count"),
        metric("markov.step_frac", share(&["markov.step", "markov.gap"]), "frac"),
        metric(
            "markov.step_entries_per_s",
            ratio(sum(|p| p.step_entries), layer_time(&["markov.step"])),
            "1/s",
        ),
        metric("markov.max_tail_bound", max_tail(&passes), "prob"),
        metric("obs.overhead_frac", obs_overhead, "frac"),
        metric("obs.open_frac", share(&["obs.open"]), "frac"),
        metric("obs.close_frac", share(&["obs.close"]), "frac"),
        metric(
            "obs.trace_bytes_per_round",
            ratio(sum(|p| p.trace_bytes as f64), sum(|p| p.replica_rounds as f64)),
            "B/round",
        ),
        metric("obs.checkpoint_records", med(|p| p.checkpoint_records as f64), "count"),
        metric(
            "bench.trace_overhead_frac",
            ratio(median(&traced_s), median(&d.untraced_s)) - 1.0,
            "frac",
        ),
        metric("bench.unattributed_frac", ratio(unattributed, pass_time), "frac"),
    ]
}

fn max_tail(passes: &[&PassStats]) -> f64 {
    passes.iter().map(|p| p.max_tail_bound).fold(0.0, f64::max)
}

/// The metric names and units a run of `workload` emits, from the same
/// functions a real run uses, evaluated on empty measurements.
#[must_use]
pub fn listing(workload: Workload, traced: bool) -> Vec<(&'static str, &'static str)> {
    let metrics = if traced {
        layer_metrics(workload, &TraceData::default())
    } else {
        e2e_metrics(&RunData::default())
    };
    metrics.into_iter().map(|m| (m.name, m.unit)).collect()
}
