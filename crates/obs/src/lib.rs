//! Structured observability for the bitdissem engine.
//!
//! The crate provides four small pieces that compose into a tracing /
//! metrics layer threaded through `sim` → `experiments` → `cli`:
//!
//! - [`EventSink`] + typed [`Event`]s — structured trace records
//!   (a [`ColumnarSink`] file, in-memory for tests, or discarded),
//! - [`Metrics`] — coarse atomic counters, named phase timers and
//!   latency histograms (one type, [`LogHistogram`]),
//! - [`Timer`] / [`Scope`] — monotonic phase timing,
//! - [`RunManifest`] — a provenance record serialized next to reports.
//!
//! Everything funnels through one cheap handle, [`Obs`]. The contract
//! for instrumented hot paths is: **check [`Obs::active`] (one bool
//! load) before constructing any event**. With the default
//! [`Obs::none`] handle, `active()` is `false`, counters are skipped,
//! and instrumentation compiles down to a predictable never-taken
//! branch — simulation results are bit-identical with and without it.
//!
//! ```
//! use bitdissem_obs::{Event, MemorySink, Obs};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::none().with_sink(sink.clone());
//! if obs.active() {
//!     obs.emit(&Event::RoundCompleted { rep: 0, round: 0, ones: 1, source_opinion: 1 });
//! }
//! assert_eq!(sink.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod columnar;
pub mod durable;
pub mod event;
pub mod fault;
pub mod hist;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod progress;
pub mod sink;
pub mod telemetry;
pub mod time;

pub use checkpoint::{CheckpointLog, ResumeStats};
pub use columnar::{ColumnarReader, ColumnarSink};
pub use event::{Event, ReplicationOutcome};
pub use fault::FaultyWriter;
pub use hist::LogHistogram;
pub use manifest::RunManifest;
pub use metrics::{CounterSnapshot, GaugeId, LatencyId, Metrics, LATENCY_SAMPLE_WORK};
pub use progress::Progress;
pub use sink::{EventSink, MemorySink, NullSink};
pub use telemetry::{
    start_telemetry, Counter, TelemetryExporter, TelemetryHandle, TelemetrySnapshot,
};
pub use time::{Scope, Timer};

use std::sync::Arc;

/// Shared observability handle passed down the simulation stack.
///
/// Cloning is cheap (three `Arc`s and two scalars). The handle is
/// immutable after construction, so worker threads can share one clone
/// freely.
#[derive(Clone)]
pub struct Obs {
    sink: Arc<dyn EventSink>,
    metrics: Arc<Metrics>,
    progress: Option<Arc<Progress>>,
    checkpoint: Option<Arc<CheckpointLog>>,
    checkpoint_ns: Arc<str>,
    active: bool,
    metrics_on: bool,
    round_stride: u64,
}

impl Obs {
    /// The disabled handle: no events, no metrics, no progress.
    /// [`Obs::active`] is `false` and every emit helper is a no-op.
    #[must_use]
    pub fn none() -> Self {
        Obs {
            sink: Arc::new(NullSink),
            metrics: Arc::new(Metrics::new()),
            progress: None,
            checkpoint: None,
            checkpoint_ns: Arc::from(""),
            active: false,
            metrics_on: false,
            round_stride: 1,
        }
    }

    /// Attaches an event sink; activates event emission if the sink is
    /// enabled.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.active = sink.enabled();
        self.sink = sink;
        self
    }

    /// Turns on metrics collection (counters + phase timers).
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics_on = true;
        self
    }

    /// Attaches a progress meter.
    #[must_use]
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Emit `RoundCompleted` only every `stride`-th round (and always
    /// round 0). `stride` 0 is treated as 1.
    #[must_use]
    pub fn with_round_stride(mut self, stride: u64) -> Self {
        self.round_stride = stride.max(1);
        self
    }

    /// Attaches a checkpoint log. Replicated workloads consult the log
    /// before running a replication and record each fresh result.
    #[must_use]
    pub fn with_checkpoint(mut self, log: Arc<CheckpointLog>) -> Self {
        self.checkpoint = Some(log);
        self
    }

    /// Sets the namespace prepended to checkpoint keys (conventionally
    /// the experiment id), isolating experiments within a shared log.
    #[must_use]
    pub fn with_checkpoint_ns(mut self, ns: &str) -> Self {
        self.checkpoint_ns = Arc::from(ns);
        self
    }

    /// The checkpoint log, if one is attached.
    #[must_use]
    pub fn checkpoint(&self) -> Option<&Arc<CheckpointLog>> {
        self.checkpoint.as_ref()
    }

    /// Builds a namespaced checkpoint key: `<ns>/<body>` (or `body`
    /// alone when no namespace is set).
    #[must_use]
    pub fn checkpoint_key(&self, body: &str) -> String {
        if self.checkpoint_ns.is_empty() {
            body.to_string()
        } else {
            format!("{}/{}", self.checkpoint_ns, body)
        }
    }

    /// Whether event emission is on. Hot paths must check this before
    /// building events.
    #[inline]
    #[must_use]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Whether metrics collection is on.
    #[inline]
    #[must_use]
    pub fn metrics_on(&self) -> bool {
        self.metrics_on
    }

    /// Whether a `RoundCompleted` event should be emitted for `round`.
    #[inline]
    #[must_use]
    pub fn wants_round(&self, round: u64) -> bool {
        self.active && round.is_multiple_of(self.round_stride)
    }

    /// Sends one event to the sink (unconditionally — gate on
    /// [`Obs::active`] first).
    pub fn emit(&self, event: &Event) {
        self.sink.emit(event);
    }

    /// Sends one round's [`Event::RoundCompleted`] rows, one per pair of
    /// `reps` and `ones`, in one call (see [`EventSink::emit_rounds`]).
    /// Gate on [`Obs::wants_round`] first.
    pub fn emit_rounds(&self, round: u64, source_opinion: u8, reps: &[u64], ones: &[u64]) {
        self.sink.emit_rounds(round, source_opinion, reps, ones);
    }

    /// The metrics block (always present; only populated when
    /// [`Obs::metrics_on`]).
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The progress meter, if one is attached.
    #[must_use]
    pub fn progress(&self) -> Option<&Arc<Progress>> {
        self.progress.as_ref()
    }

    /// Starts a phase timing scope; disabled (zero state) when metrics
    /// are off.
    #[must_use]
    pub fn scope(&self, name: &'static str) -> Scope {
        if self.metrics_on {
            Scope::enabled(Arc::clone(&self.metrics), name)
        } else {
            Scope::disabled()
        }
    }

    /// Flushes the sink.
    pub fn flush(&self) {
        self.sink.flush();
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("active", &self.active)
            .field("metrics_on", &self.metrics_on)
            .field("round_stride", &self.round_stride)
            .field("has_progress", &self.progress.is_some())
            .field("has_checkpoint", &self.checkpoint.is_some())
            .field("checkpoint_ns", &self.checkpoint_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_fully_disabled() {
        let obs = Obs::none();
        assert!(!obs.active());
        assert!(!obs.metrics_on());
        assert!(!obs.wants_round(0));
        obs.emit(&Event::ExperimentFinished { id: "x".into(), pass: true, elapsed_us: 1 });
        obs.flush();
        drop(obs.scope("noop"));
        assert!(obs.metrics().phases().is_empty());
    }

    #[test]
    fn with_sink_activates_enabled_sinks_only() {
        let obs = Obs::none().with_sink(Arc::new(MemorySink::new()));
        assert!(obs.active());
        let obs = Obs::none().with_sink(Arc::new(NullSink));
        assert!(!obs.active());
    }

    #[test]
    fn round_stride_filters_rounds() {
        let obs = Obs::none().with_sink(Arc::new(MemorySink::new())).with_round_stride(10);
        assert!(obs.wants_round(0));
        assert!(!obs.wants_round(5));
        assert!(obs.wants_round(20));
        // Stride 0 coerces to 1.
        let obs = Obs::none().with_sink(Arc::new(MemorySink::new())).with_round_stride(0);
        assert!(obs.wants_round(1));
    }

    #[test]
    fn scope_records_when_metrics_on() {
        let obs = Obs::none().with_metrics();
        drop(obs.scope("measured"));
        assert_eq!(obs.metrics().phases().len(), 1);
    }

    #[test]
    fn checkpoint_keys_are_namespaced() {
        let obs = Obs::none();
        assert!(obs.checkpoint().is_none());
        assert_eq!(obs.checkpoint_key("conv#3"), "conv#3");
        let obs =
            obs.with_checkpoint(Arc::new(CheckpointLog::in_memory())).with_checkpoint_ns("e2");
        assert!(obs.checkpoint().is_some());
        assert_eq!(obs.checkpoint_key("conv#3"), "e2/conv#3");
    }

    #[test]
    fn obs_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Obs>();
    }
}
