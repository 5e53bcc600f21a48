//! A minimal stderr progress meter for long replication batches.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Thread-safe completion counter that rewrites one output line (`\r`)
/// on every tick.
///
/// The meter owns its output line until [`Progress::finish`] is called,
/// which erases the rewritten line and prints one final summary line with
/// the whole-run average rate — so whatever the process writes next
/// starts on a clean line instead of clobbering a half-drawn count.
/// `finish` is idempotent and ticks arriving after it are counted but no
/// longer drawn. The telemetry snapshot thread reads [`Progress::done`].
pub struct Progress {
    label: String,
    done: AtomicU64,
    /// Visible width of the most recent redraw (0 = nothing drawn yet).
    drawn_width: AtomicUsize,
    finished: AtomicBool,
    started: Instant,
    out: Mutex<Box<dyn Write + Send>>,
}

impl Progress {
    /// A meter counting units of work under `label`, drawing to stderr.
    #[must_use]
    pub fn new(label: &str) -> Self {
        Self::with_writer(label, Box::new(std::io::stderr()))
    }

    /// A meter drawing to an arbitrary writer (tests, alternative TTYs).
    #[must_use]
    pub fn with_writer(label: &str, out: Box<dyn Write + Send>) -> Self {
        Progress {
            label: label.to_string(),
            done: AtomicU64::new(0),
            drawn_width: AtomicUsize::new(0),
            finished: AtomicBool::new(false),
            started: Instant::now(),
            out: Mutex::new(out),
        }
    }

    /// Redraws the meter line, padding with spaces when the previous
    /// draw was wider so stale characters never survive a shrink.
    fn draw(&self, line: &str) {
        let width = line.chars().count();
        let prev = self.drawn_width.swap(width, Ordering::Relaxed);
        let pad = prev.saturating_sub(width);
        let mut out = self.out.lock().expect("progress writer poisoned");
        let _ = write!(out, "\r{line}{:pad$}", "");
        let _ = out.flush();
    }

    /// Records `n` completed units and redraws the count.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the meter panicked mid-draw.
    pub fn tick(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        if !self.finished.load(Ordering::Relaxed) {
            self.draw(&format!("{}: {} done", self.label, done));
        }
    }

    /// Units completed so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Whole-run average rate: units completed per second since the
    /// meter was created.
    #[must_use]
    pub fn average_rate_per_sec(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.done() as f64 / secs
        }
    }

    /// Finalizes the meter: erases the rewritten line and prints one
    /// newline-terminated summary (including the final average rate),
    /// leaving the cursor on a fresh line. Idempotent — only the first
    /// call writes anything — and a meter that never drew stays silent.
    ///
    /// # Panics
    ///
    /// Panics if a previous user of the meter panicked mid-draw.
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        let width = self.drawn_width.swap(0, Ordering::Relaxed);
        if width == 0 {
            return;
        }
        let rate = fmt_rate(self.average_rate_per_sec());
        let mut out = self.out.lock().expect("progress writer poisoned");
        let _ = write!(out, "\r{:width$}\r", "");
        let _ = writeln!(out, "{}: {} done ({rate}/s)", self.label, self.done());
        let _ = out.flush();
    }
}

/// Compact rate: `8.6M`, `12.3k`, `45`, `1.5`.
fn fmt_rate(r: f64) -> String {
    if !r.is_finite() {
        return "?".to_string();
    }
    if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else if r >= 10.0 {
        format!("{r:.0}")
    } else {
        format!("{r:.1}")
    }
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("label", &self.label)
            .field("done", &self.done())
            .field("finished", &self.finished.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A writer whose buffer the test can read back after handing the
    /// meter its `Box<dyn Write>` half.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn meter(label: &str) -> (Progress, SharedBuf) {
        let buf = SharedBuf::default();
        (Progress::with_writer(label, Box::new(buf.clone())), buf)
    }

    #[test]
    fn counts_ticks() {
        let (p, _) = meter("reps");
        p.tick(3);
        p.tick(4);
        assert_eq!(p.done(), 7);
    }

    #[test]
    fn ticks_feed_the_rate_estimate() {
        let (p, _) = meter("reps");
        assert_eq!(p.average_rate_per_sec(), 0.0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.tick(10);
        assert!(p.average_rate_per_sec() > 0.0, "the whole-run average counts the tick");
    }

    #[test]
    fn indeterminate_meters_have_no_eta() {
        // Every meter counts without a total: the live line is the bare
        // count, with no percentage, rate or ETA to show.
        let (p, buf) = meter("work");
        p.tick(5);
        assert_eq!(buf.contents(), "\rwork: 5 done");
    }

    #[test]
    fn finish_clears_the_rewritten_line() {
        let (p, buf) = meter("reps");
        p.tick(2);
        p.tick(2);
        p.finish();
        let out = buf.contents();
        // The line is erased (carriage return + blanks + carriage return)
        // before the final summary, so the summary starts at column 0 and
        // is newline-terminated.
        let erase_start = out.rfind("\r\u{20}").expect("erase sequence present");
        let tail = &out[erase_start..];
        assert!(tail.trim_start_matches(['\r', ' ']).starts_with("reps: 4 done ("), "{out:?}");
        assert!(out.ends_with("/s)\n"), "{out:?}");
    }

    #[test]
    fn finish_reports_the_final_rate() {
        let (p, buf) = meter("reps");
        p.tick(2);
        p.finish();
        let out = buf.contents();
        assert!(out.contains("reps: 2 done ("), "{out:?}");
        assert!(out.ends_with("/s)\n"), "{out:?}");
    }

    #[test]
    fn finish_is_idempotent() {
        let (p, buf) = meter("reps");
        p.tick(2);
        p.finish();
        let after_first = buf.contents();
        p.finish();
        p.finish();
        assert_eq!(buf.contents(), after_first);
    }

    #[test]
    fn finish_without_draw_stays_silent() {
        let (p, buf) = meter("reps");
        p.finish();
        assert_eq!(buf.contents(), "");
    }

    #[test]
    fn finish_finalizes_indeterminate_meters_too() {
        let (p, buf) = meter("work");
        p.tick(3);
        p.finish();
        let out = buf.contents();
        assert!(out.contains("work: 3 done ("), "{out:?}");
        assert!(out.ends_with("/s)\n"), "{out:?}");
    }

    #[test]
    fn ticks_after_finish_count_but_do_not_draw() {
        let (p, buf) = meter("reps");
        p.tick(5);
        p.finish();
        let after_finish = buf.contents();
        p.tick(5);
        assert_eq!(p.done(), 10);
        assert_eq!(buf.contents(), after_finish);
    }

    #[test]
    fn finish_erases_the_full_width_of_the_last_draw() {
        let (p, buf) = meter("x");
        p.tick(99); // draws "x: 99 done"
        p.tick(1); // draws "x: 100 done" (11 chars wide)
        p.finish();
        let out = buf.contents();
        assert!(out.contains("\r           \r"), "{out:?}");
    }

    #[test]
    fn rate_formats_compactly() {
        assert_eq!(fmt_rate(2_500_000.0), "2.5M");
        assert_eq!(fmt_rate(12_300.0), "12.3k");
        assert_eq!(fmt_rate(45.0), "45");
        assert_eq!(fmt_rate(1.52), "1.5");
    }
}
