//! Coarse run metrics: sharded lock-free counters, named phase timers and
//! latency histograms.

use crate::hist::{fmt_nanos, LogHistogram};
use crate::telemetry::{AtomicHistogram, Counter};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Number of hot-path latency channels (see [`LatencyId`]).
pub const N_LATENCIES: usize = 2;
/// Number of gauges (see [`GaugeId`]).
pub const N_GAUGES: usize = 3;

const LATENCY_NAMES: [&str; N_LATENCIES] = ["replication", "round_pass"];
const GAUGE_NAMES: [&str; N_GAUGES] =
    ["sweep_batches_started", "sweep_batches_done", "inflight_replications"];

/// Hot-path latency channels, each backed by a striped
/// [`AtomicHistogram`] so recording never contends across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyId {
    /// One full replication (consensus run) on a pool worker.
    Replication = 0,
    /// One flat pass / round batch inside an engine's round loop.
    RoundPass = 1,
}

/// Replica-rounds a lock-step round loop draws between two timed
/// [`LatencyId::RoundPass`] samples. The loop times the first round of each
/// run, then the next round once this many replica-rounds have been drawn
/// since the last timed one (that one's own included): a chunk of `B` live
/// replicas is timed about one round in `512 / B`, so an 8-replica crossing
/// chunk one in 64 and a 64-replica chunk one in 8. A chunk-round takes
/// from a few hundred nanoseconds to a few microseconds, and the two
/// `Instant::now()` calls and the histogram record bracketing it cost a
/// few percent of a small chunk's round on hosts with a slow clock source;
/// sampling by work keeps that share the same at every chunk size.
/// Round costs drift smoothly rather than oscillate at the stride, so the
/// systematic sample keeps the quantiles unbiased.
pub const LATENCY_SAMPLE_WORK: u64 = 512;

/// Instantaneous values set (not accumulated) by the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Replicated batches started so far across the run's sweeps.
    SweepBatchesTotal = 0,
    /// Replicated batches finished so far across the run's sweeps.
    SweepBatchesDone = 1,
    /// Replications currently executing on the pool.
    InflightReplications = 2,
}

/// Aggregated counters and phase timings for one run.
///
/// Counters are striped across cache-line-padded cells (one per pool
/// worker, see [`crate::telemetry::Counter`]): the write path is a
/// relaxed increment on a line the calling thread owns, so per-round
/// instrumentation from many workers never contends. Reads sum the
/// stripes; the [`Counter::load`] signature mirrors `AtomicU64::load`
/// so call sites written against the original shared-atomic fields
/// compile unchanged.
#[derive(Debug)]
pub struct Metrics {
    /// Total parallel rounds simulated across all replications.
    pub rounds_simulated: Counter,
    /// Round plans the lock-step engine built on a miss of its per-state
    /// cache. Its share of `rounds_simulated` is the miss rate. One cache
    /// serves one lock-step chunk, so the count depends on how replications
    /// are chunked, and so on the worker count, but not on scheduling: a
    /// chunk's count is fixed by its replicas' seeds.
    pub plan_builds: Counter,
    /// Total opinion samples drawn by agents (≈ rounds × population).
    pub opinion_samples: Counter,
    /// Independent RNG streams derived (one per replication).
    pub rng_streams: Counter,
    /// Replications completed.
    pub replications: Counter,
    /// Batches submitted to the worker pool.
    pub pool_batches: Counter,
    /// Tasks executed by the worker pool.
    pub pool_tasks: Counter,
    /// Chunks stolen from another participant's deque by the pool.
    pub pool_steals: Counter,
    /// Replications satisfied from the checkpoint log instead of re-run.
    pub checkpoint_hits: Counter,
    /// Replicas of the lock-step engine that reached their goal within
    /// the budget: the correct consensus, or the threshold of a crossing
    /// batch.
    pub replicas_retired: Counter,
    /// Environment perturbation events applied (source flips, noise
    /// rounds, adversarial resets) across all replications.
    pub perturbations_applied: Counter,
    /// Rounds from each disruptive perturbation back to the correct
    /// consensus, one entry per resolved disruption (see `sim::env`).
    reconverge: AtomicHistogram,
    gauges: [AtomicU64; N_GAUGES],
    latencies: [AtomicHistogram; N_LATENCIES],
    phases: Mutex<BTreeMap<String, LogHistogram>>,
}

/// Plain-value copy of every counter, taken by summing the stripes.
///
/// This is the compat read API: one call yields a coherent-enough view
/// for end-of-run reporting, manifests, and snapshot deltas without
/// touching the striped internals.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// See [`Metrics::rounds_simulated`].
    pub rounds_simulated: u64,
    /// See [`Metrics::plan_builds`].
    pub plan_builds: u64,
    /// See [`Metrics::opinion_samples`].
    pub opinion_samples: u64,
    /// See [`Metrics::rng_streams`].
    pub rng_streams: u64,
    /// See [`Metrics::replications`].
    pub replications: u64,
    /// See [`Metrics::pool_batches`].
    pub pool_batches: u64,
    /// See [`Metrics::pool_tasks`].
    pub pool_tasks: u64,
    /// See [`Metrics::pool_steals`].
    pub pool_steals: u64,
    /// See [`Metrics::checkpoint_hits`].
    pub checkpoint_hits: u64,
    /// See [`Metrics::replicas_retired`].
    pub replicas_retired: u64,
    /// See [`Metrics::perturbations_applied`].
    pub perturbations_applied: u64,
}

impl CounterSnapshot {
    /// `(name, value)` pairs in fixed registry order — the canonical
    /// naming used by every telemetry exporter and the run manifest.
    #[must_use]
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rounds_simulated", self.rounds_simulated),
            ("plan_builds", self.plan_builds),
            ("opinion_samples", self.opinion_samples),
            ("rng_streams", self.rng_streams),
            ("replications", self.replications),
            ("pool_batches", self.pool_batches),
            ("pool_tasks", self.pool_tasks),
            ("pool_steals", self.pool_steals),
            ("checkpoint_hits", self.checkpoint_hits),
            ("replicas_retired", self.replicas_retired),
            ("perturbations_applied", self.perturbations_applied),
        ]
    }
}

/// The formatter for values of the histogram series at `path` (see
/// [`Metrics::series`]): `hist/` series count rounds, every other series
/// nanoseconds.
#[must_use]
pub fn series_unit(path: &str) -> fn(u64) -> String {
    if path.starts_with("hist/") {
        |rounds| rounds.to_string()
    } else {
        fmt_nanos
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            rounds_simulated: Counter::new(),
            plan_builds: Counter::new(),
            opinion_samples: Counter::new(),
            rng_streams: Counter::new(),
            replications: Counter::new(),
            pool_batches: Counter::new(),
            pool_tasks: Counter::new(),
            pool_steals: Counter::new(),
            checkpoint_hits: Counter::new(),
            replicas_retired: Counter::new(),
            perturbations_applied: Counter::new(),
            reconverge: AtomicHistogram::new(),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            latencies: std::array::from_fn(|_| AtomicHistogram::new()),
            phases: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// Creates a zeroed metrics block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to `rounds_simulated`.
    pub fn add_rounds(&self, n: u64) {
        self.rounds_simulated.add(n);
    }

    /// Adds to `plan_builds`.
    pub fn add_plan_builds(&self, n: u64) {
        self.plan_builds.add(n);
    }

    /// Adds to `opinion_samples`.
    pub fn add_samples(&self, n: u64) {
        self.opinion_samples.add(n);
    }

    /// Adds to `rng_streams`.
    pub fn add_rng_streams(&self, n: u64) {
        self.rng_streams.add(n);
    }

    /// Adds to `replications`.
    pub fn add_replications(&self, n: u64) {
        self.replications.add(n);
    }

    /// Records one pool batch: its task and steal counts.
    pub fn add_pool_batch(&self, tasks: u64, steals: u64) {
        self.pool_batches.add(1);
        self.pool_tasks.add(tasks);
        self.pool_steals.add(steals);
    }

    /// Adds to `checkpoint_hits`.
    pub fn add_checkpoint_hits(&self, n: u64) {
        self.checkpoint_hits.add(n);
    }

    /// Adds to `replicas_retired`.
    pub fn add_retired(&self, n: u64) {
        self.replicas_retired.add(n);
    }

    /// Adds to `perturbations_applied`.
    pub fn add_perturbations(&self, n: u64) {
        self.perturbations_applied.add(n);
    }

    /// Records one resolved re-convergence time (rounds from a disruptive
    /// perturbation back to the correct consensus) into the
    /// `reconverge_rounds` histogram. Lock-free; safe from any worker.
    #[inline]
    pub fn record_reconverge(&self, rounds: u64) {
        self.reconverge.record(rounds);
    }

    /// Merged snapshot of the `reconverge_rounds` histogram.
    #[must_use]
    pub fn reconverge_snapshot(&self) -> LogHistogram {
        self.reconverge.snapshot()
    }

    /// Coherent plain-value copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            rounds_simulated: self.rounds_simulated.get(),
            plan_builds: self.plan_builds.get(),
            opinion_samples: self.opinion_samples.get(),
            rng_streams: self.rng_streams.get(),
            replications: self.replications.get(),
            pool_batches: self.pool_batches.get(),
            pool_tasks: self.pool_tasks.get(),
            pool_steals: self.pool_steals.get(),
            checkpoint_hits: self.checkpoint_hits.get(),
            replicas_retired: self.replicas_retired.get(),
            perturbations_applied: self.perturbations_applied.get(),
        }
    }

    /// Sets gauge `id` to `v`.
    pub fn set_gauge(&self, id: GaugeId, v: u64) {
        self.gauges[id as usize].store(v, Ordering::Relaxed);
    }

    /// Current value of gauge `id`.
    #[must_use]
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// All gauges as `(name, value)` pairs in registry order.
    #[must_use]
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        GAUGE_NAMES
            .iter()
            .zip(self.gauges.iter())
            .map(|(&name, v)| (name, v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Records one latency sample (nanoseconds) into the striped
    /// histogram for channel `id`. Lock-free; safe from any worker at
    /// round-loop frequency.
    #[inline]
    pub fn record_latency(&self, id: LatencyId, nanos: u64) {
        self.latencies[id as usize].record(nanos);
    }

    /// Merged snapshots of every latency channel, as `(name,
    /// histogram)` pairs in registry order.
    #[must_use]
    pub fn latency_snapshots(&self) -> Vec<(&'static str, LogHistogram)> {
        LATENCY_NAMES
            .iter()
            .zip(self.latencies.iter())
            .map(|(&name, h)| (name, h.snapshot()))
            .collect()
    }

    /// Records one timed entry into phase `name`.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the metrics block panicked mid-update.
    pub fn record_phase(&self, name: &str, elapsed: Duration) {
        self.phases
            .lock()
            .expect("metrics poisoned")
            .entry(name.to_string())
            .or_default()
            .record_duration(elapsed);
    }

    /// Snapshot of the per-phase histograms (nanoseconds), sorted by phase
    /// name: a phase's calls are its count, its total time is its sum.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the metrics block panicked mid-update.
    #[must_use]
    pub fn phases(&self) -> Vec<(String, LogHistogram)> {
        self.phases.lock().expect("metrics poisoned").clone().into_iter().collect()
    }

    /// Every non-empty histogram series under its snapshot path, in one
    /// order: `phase/<name>`, then `latency/<name>` and
    /// `hist/reconverge_rounds` (rounds, not nanoseconds). The live
    /// snapshot ([`crate::telemetry::build_snapshot`]) and
    /// [`Metrics::render`] both read quantiles from this list.
    #[must_use]
    pub fn series(&self) -> Vec<(String, LogHistogram)> {
        let mut series: Vec<_> =
            self.phases().into_iter().map(|(name, h)| (format!("phase/{name}"), h)).collect();
        series.extend(
            self.latency_snapshots()
                .into_iter()
                .map(|(name, h)| (format!("latency/{name}"), h))
                .chain([("hist/reconverge_rounds".to_string(), self.reconverge_snapshot())])
                .filter(|(_, h)| h.count() > 0),
        );
        series
    }

    /// Renders a human-readable multi-line summary: counters, each phase's
    /// calls and total time, then the quantiles of every histogram series
    /// (see [`Metrics::series`]).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("metrics:\n");
        for (label, v) in self.snapshot().named() {
            out.push_str(&format!("  {label:<24} {v}\n"));
        }
        let phases = self.phases();
        if !phases.is_empty() {
            out.push_str("phases:\n");
            for (name, hist) in phases {
                let ms = hist.sum() as f64 / 1e6;
                out.push_str(&format!("  {name:<24} {:>6} calls  {ms:>10.3} ms\n", hist.count()));
            }
        }
        let series = self.series();
        if !series.is_empty() {
            out.push_str("histograms:\n");
            for (path, hist) in series {
                out.push_str(&format!("  {path:<24} [{}]\n", hist.render(series_unit(&path))));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_rounds(10);
        m.add_rounds(5);
        m.add_samples(300);
        m.add_rng_streams(2);
        m.add_replications(2);
        assert_eq!(m.rounds_simulated.load(Ordering::Relaxed), 15);
        assert_eq!(m.opinion_samples.load(Ordering::Relaxed), 300);
        assert_eq!(m.rng_streams.load(Ordering::Relaxed), 2);
        assert_eq!(m.replications.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_and_checkpoint_counters_accumulate() {
        let m = Metrics::new();
        m.add_pool_batch(100, 7);
        m.add_pool_batch(50, 0);
        m.add_checkpoint_hits(30);
        assert_eq!(m.pool_batches.load(Ordering::Relaxed), 2);
        assert_eq!(m.pool_tasks.load(Ordering::Relaxed), 150);
        assert_eq!(m.pool_steals.load(Ordering::Relaxed), 7);
        assert_eq!(m.checkpoint_hits.load(Ordering::Relaxed), 30);
        let text = m.render();
        assert!(text.contains("pool_batches"));
        assert!(text.contains("pool_steals"));
        assert!(text.contains("checkpoint_hits"));
    }

    #[test]
    fn snapshot_copies_every_counter() {
        let m = Metrics::new();
        m.add_rounds(4);
        m.add_plan_builds(3);
        m.add_retired(3);
        m.add_pool_batch(2, 1);
        let snap = m.snapshot();
        assert_eq!(snap.rounds_simulated, 4);
        assert_eq!(snap.plan_builds, 3);
        assert_eq!(snap.replicas_retired, 3);
        assert_eq!(snap.pool_batches, 1);
        assert_eq!(snap.pool_tasks, 2);
        let named = snap.named();
        assert_eq!(named.len(), 11);
        assert_eq!(named[0], ("rounds_simulated", 4));
        assert_eq!(named[1], ("plan_builds", 3));
        assert_eq!(named[9], ("replicas_retired", 3));
        assert_eq!(named[10], ("perturbations_applied", 0));
    }

    #[test]
    fn perturbation_counter_and_reconverge_histogram_accumulate() {
        let m = Metrics::new();
        m.add_perturbations(3);
        m.add_perturbations(2);
        m.record_reconverge(40);
        m.record_reconverge(900);
        assert_eq!(m.perturbations_applied.load(Ordering::Relaxed), 5);
        let h = m.reconverge_snapshot();
        assert_eq!(h.count(), 2);
        assert!(m.render().contains("perturbations_applied"));
    }

    #[test]
    fn gauges_store_and_read_back() {
        let m = Metrics::new();
        m.set_gauge(GaugeId::SweepBatchesTotal, 12);
        m.set_gauge(GaugeId::SweepBatchesDone, 5);
        assert_eq!(m.gauge(GaugeId::SweepBatchesTotal), 12);
        let gauges = m.gauges();
        assert_eq!(gauges[0], ("sweep_batches_started", 12));
        assert_eq!(gauges[1], ("sweep_batches_done", 5));
        assert_eq!(gauges[2], ("inflight_replications", 0));
    }

    #[test]
    fn latency_channels_record_into_striped_histograms() {
        let m = Metrics::new();
        m.record_latency(LatencyId::Replication, 1_000);
        m.record_latency(LatencyId::Replication, 2_000);
        m.record_latency(LatencyId::RoundPass, 500);
        let snaps = m.latency_snapshots();
        assert_eq!(snaps[0].0, "replication");
        assert_eq!(snaps[0].1.count(), 2);
        assert_eq!(snaps[1].0, "round_pass");
        assert_eq!(snaps[1].1.count(), 1);
    }

    #[test]
    fn phases_accumulate_and_sort() {
        let m = Metrics::new();
        m.record_phase("zeta", Duration::from_nanos(50));
        m.record_phase("alpha", Duration::from_nanos(100));
        m.record_phase("zeta", Duration::from_nanos(25));
        let phases = m.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "alpha");
        assert_eq!((phases[0].1.count(), phases[0].1.sum()), (1, 100));
        assert_eq!((phases[1].1.count(), phases[1].1.sum()), (2, 75));
    }

    #[test]
    fn phase_histograms_track_individual_entries() {
        let m = Metrics::new();
        m.record_phase("step", Duration::from_nanos(100));
        m.record_phase("step", Duration::from_nanos(10_000));
        let hists = m.phases();
        assert_eq!(hists.len(), 1);
        let (name, hist) = &hists[0];
        assert_eq!(name, "step");
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.min(), 100);
        assert_eq!(hist.max(), 10_000);
        assert_eq!(hist.sum(), 10_100);
    }

    #[test]
    fn render_mentions_every_counter_and_phase() {
        let m = Metrics::new();
        m.add_rounds(7);
        m.record_phase("simulate", Duration::from_millis(2));
        let text = m.render();
        assert!(text.contains("rounds_simulated"));
        assert!(text.contains("replicas_retired"));
        assert!(text.contains('7'));
        assert!(text.contains("simulate"));
        assert!(text.contains("1 calls"));
    }
}
