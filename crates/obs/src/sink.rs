//! Event sinks: where trace events go.

use crate::event::Event;
use std::sync::Mutex;

/// Destination for trace events.
///
/// Implementations must be cheap to query via [`EventSink::enabled`]:
/// instrumented hot paths call it (through `Obs::active`) before
/// constructing any [`Event`], so a disabled sink costs one predictable
/// branch per instrumentation site.
pub trait EventSink: Send + Sync {
    /// Whether this sink wants events at all. Callers should skip event
    /// construction entirely when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn emit(&self, event: &Event);

    /// Records one round of a lock-step batch: a
    /// [`Event::RoundCompleted`] labelled `round` with `source_opinion`
    /// for each pair of `reps` and `ones`, in that order, exactly as the
    /// same `emit` calls would. All rows come from the calling thread, so
    /// a sink may take its locks once per call rather than once per row.
    /// Default: one `emit` per row.
    fn emit_rounds(&self, round: u64, source_opinion: u8, reps: &[u64], ones: &[u64]) {
        debug_assert_eq!(reps.len(), ones.len(), "one ones-count per replica label");
        for (&rep, &ones) in reps.iter().zip(ones) {
            self.emit(&Event::RoundCompleted { rep, round, ones, source_opinion });
        }
    }

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Discards everything; `enabled()` is `false` so instrumented code
/// skips event construction.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &Event) {}
}

/// Collects events in memory, for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a snapshot of all events recorded so far, in emission order.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the sink panicked while emitting.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the sink panicked while emitting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("memory sink poisoned").push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplicationOutcome;

    fn sample() -> Event {
        Event::RoundCompleted { rep: 1, round: 2, ones: 3, source_opinion: 1 }
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(&sample()); // must be a no-op, not a panic
        sink.flush();
    }

    #[test]
    fn memory_sink_preserves_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        let events = vec![
            sample(),
            Event::ReplicationFinished {
                rep: 1,
                outcome: ReplicationOutcome::Converged,
                rounds: 3,
                elapsed_us: 10,
            },
        ];
        for ev in &events {
            sink.emit(ev);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events(), events);
    }
}
