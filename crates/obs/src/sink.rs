//! Event sinks: where trace events go.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
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

/// Writes one compact JSON object per event, newline-delimited (JSONL).
///
/// Output is buffered; it is flushed on [`EventSink::flush`] and on drop.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink { writer: Mutex::new(BufWriter::new(file)) })
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        // An I/O error mid-trace (e.g. disk full) must not abort the
        // simulation; the trace just ends early.
        let _ = writer.write_all(event.to_json().as_bytes());
        let _ = writer.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.flush();
        }
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

    #[test]
    fn jsonl_sink_survives_concurrent_emitters() {
        use std::sync::Arc;
        const THREADS: u64 = 8;
        const EVENTS_PER_THREAD: u64 = 200;
        let path =
            std::env::temp_dir().join(format!("obs_sink_concurrent_{}.jsonl", std::process::id()));
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let handles: Vec<_> = (0..THREADS)
            .map(|rep| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for round in 1..=EVENTS_PER_THREAD {
                        sink.emit(&Event::RoundCompleted {
                            rep,
                            round,
                            ones: round,
                            source_opinion: 1,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        sink.flush();
        let trace = crate::reader::read_trace(&path).unwrap();
        // Every line is a complete event: per-event lines never interleave
        // because the writer is emitted under one lock.
        assert_eq!(trace.skipped, 0);
        assert_eq!(trace.events.len(), (THREADS * EVENTS_PER_THREAD) as usize);
        // Per-thread emission order is preserved.
        let mut last_round = vec![0u64; THREADS as usize];
        for ev in &trace.events {
            let Event::RoundCompleted { rep, round, .. } = ev else {
                panic!("unexpected event {ev:?}");
            };
            assert_eq!(*round, last_round[*rep as usize] + 1);
            last_round[*rep as usize] = *round;
        }
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join(format!("obs_sink_test_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&sample());
        sink.emit(&Event::ExperimentFinished { id: "e1".to_string(), pass: true, elapsed_us: 5 });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Event::from_json(lines[0]).unwrap(), sample());
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }
}
