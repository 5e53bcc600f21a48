//! Monotonic timers and RAII phase scopes.

use crate::metrics::Metrics;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        Timer { start: Instant::now() }
    }

    /// Elapsed time since [`Timer::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in whole microseconds (saturating).
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Default for Timer {
    fn default() -> Self {
        Self::start()
    }
}

/// RAII phase timer: records elapsed time into a [`Metrics`] block under
/// a phase name when dropped.
///
/// A disabled scope (from `Obs::scope` with metrics off) holds no state
/// and records nothing, so instrumented code can create scopes
/// unconditionally.
#[derive(Debug)]
pub struct Scope {
    inner: Option<(Arc<Metrics>, &'static str, Timer)>,
}

impl Scope {
    /// A scope that records into `metrics` under `name` when dropped.
    #[must_use]
    pub fn enabled(metrics: Arc<Metrics>, name: &'static str) -> Self {
        Scope { inner: Some((metrics, name, Timer::start())) }
    }

    /// A scope that does nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Scope { inner: None }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((metrics, name, timer)) = self.inner.take() {
            metrics.record_phase(name, timer.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotonic() {
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.elapsed() >= Duration::from_millis(1));
        assert!(t.elapsed_us() >= 1_000);
    }

    #[test]
    fn enabled_scope_records_on_drop() {
        let metrics = Arc::new(Metrics::new());
        {
            let _scope = Scope::enabled(Arc::clone(&metrics), "phase_a");
        }
        let phases = metrics.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "phase_a");
        assert_eq!(phases[0].1.count(), 1);
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let metrics = Arc::new(Metrics::new());
        {
            let _scope = Scope::disabled();
        }
        assert!(metrics.phases().is_empty());
    }
}
