//! Live telemetry: sharded metric cells, lock-free snapshots, and one
//! snapshot series on disk.
//!
//! The hot-path half of this module is a set of *striped* primitives —
//! [`Counter`] and [`AtomicHistogram`] — where every pool worker (and
//! the main thread) owns one cache-line-padded stripe and writes it
//! with plain relaxed increments. Nothing on the write path takes a
//! lock, issues a read-modify-write on a shared line, or even branches
//! on reader state, so instrumented engines keep their replica-round
//! throughput (the `recorded` benchmark workload runs with telemetry on).
//!
//! The read half is a snapshot thread ([`start_telemetry`]) that merges
//! the stripes at a configurable interval into versioned
//! [`TelemetrySnapshot`]s and feeds them to [`TelemetryExporter`]s. The
//! one exporter, [`ColumnarTelemetryExporter`], appends each snapshot as
//! `telemetry_sample` rows to a `BDCT` columnar trace, so the torn-tail
//! `repair()` contract applies to telemetry too, and [`read_snapshots`]
//! decodes the rows back: `bitdissem watch` reads a live run's file and a
//! finished run's alike. [`TelemetrySnapshot::rows`] and its inverse sit
//! side by side, so this module alone owns the row names:
//!
//! - `counter/<name>` and `gauge/<name>`: counter totals and gauges;
//! - `series/<path>/{count,p50,p90,p99}`: every histogram series of
//!   [`Metrics::series`] (`phase/*`, `latency/*`, `hist/*`);
//! - `progress/done`: the progress meter's count, when one is attached.
//!
//! Why relaxed ordering is enough: every stripe value is *monotone*
//! (counters and histogram bins only grow), and a snapshot derives all
//! its totals from the bins it actually read. A racing merge may land
//! between two increments and observe a value that is momentarily
//! stale, but never torn: each load is a single aligned `u64`, each
//! total is the sum of loads, and successive snapshots of the same cell
//! are non-decreasing. Cross-metric skew (counter A observed after a
//! later write than counter B) is inherent to sampling a live system
//! and is bounded by one snapshot interval.

use crate::columnar::{Block, ColumnarReader, TelemetryCols};
use crate::hist::{LogHistogram, BUCKETS};
use crate::metrics::Metrics;
use crate::progress::Progress;
use crate::sink::EventSink;
use crate::Event;
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of stripes per counter/histogram. A power of two at least as
/// large as the pool sizes we deploy, so every pool participant owns a
/// stripe (see [`thread_slot`]).
pub const STRIPES: usize = 16;

/// Pads (and aligns) a value to its own cache line pair so adjacent
/// stripes never share a line — 128 bytes covers the spatial prefetcher
/// pairing on current x86 parts as well as 128-byte-line ARM cores.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The one claim counter every thread draws its stripe from.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's stripe index, claimed from one process-wide
/// counter on first use and stable for the thread's life.
///
/// Pool workers claim theirs at spawn, submitting and ad-hoc threads on
/// first use, all from the same counter — so the first [`STRIPES`]
/// threads to claim each own a distinct stripe, and only later threads
/// share one.
#[inline]
#[must_use]
pub fn thread_slot() -> usize {
    SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(v);
            v
        }
    })
}

/// A monotone counter striped across [`STRIPES`] cache-line-padded
/// cells.
///
/// `add` touches only the calling thread's stripe (relaxed
/// `fetch_add`, which on an uncontended line is as cheap as a plain
/// store-forwarded RMW); `load` sums the stripes. The signature of
/// [`Counter::load`] deliberately mirrors `AtomicU64::load` so call
/// sites written against the legacy shared-atomic [`Metrics`] fields
/// compile unchanged.
pub struct Counter {
    stripes: Box<[CachePadded<AtomicU64>]>,
}

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Counter { stripes: (0..STRIPES).map(|_| CachePadded::default()).collect() }
    }

    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to an explicit stripe — for callers (the pool) that
    /// already know their slot and want to skip the thread-local read.
    #[inline]
    pub fn add_to(&self, slot: usize, n: u64) {
        self.stripes[slot % STRIPES].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all stripes. The `Ordering` parameter is accepted (and
    /// ignored — every load is relaxed) for drop-in compatibility with
    /// `AtomicU64::load` call sites.
    #[must_use]
    pub fn load(&self, _order: Ordering) -> u64 {
        self.stripes.iter().map(|c| c.0.load(Ordering::Relaxed)).fold(0u64, u64::wrapping_add)
    }

    /// Sum of all stripes.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("value", &self.get()).finish()
    }
}

/// One stripe of an [`AtomicHistogram`]: [`LogHistogram`]'s buckets,
/// allocated on the stripe's first record, plus the exact sum and extremes
/// of the values recorded into it.
#[derive(Debug)]
struct HistStripe {
    bins: OnceLock<Box<[AtomicU64]>>,
    /// Wraps past `u64::MAX` (584 years of nanoseconds).
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            bins: OnceLock::new(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A [`LogHistogram`] striped across [`STRIPES`] cache-line-padded cells.
///
/// Recording touches only the calling thread's stripe: one relaxed
/// increment of the value's bucket, plus relaxed updates of the stripe's
/// sum, minimum and maximum. A stripe allocates its buckets on its first
/// record, so a cell nobody records into costs one pointer per stripe.
/// [`AtomicHistogram::snapshot`] merges the stripes into an ordinary
/// [`LogHistogram`], whose quantiles therefore apply verbatim to live
/// telemetry. Because bins are monotone, a racing snapshot is never torn:
/// its count is the sum of the bins it read, and its extremes are clamped
/// into the buckets those bins span.
#[derive(Debug)]
pub struct AtomicHistogram {
    stripes: Box<[CachePadded<HistStripe>]>,
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        AtomicHistogram { stripes: (0..STRIPES).map(|_| CachePadded::default()).collect() }
    }

    /// Records one value into the calling thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        let stripe = &self.stripes[thread_slot()].0;
        let bins = stripe.bins.get_or_init(|| (0..BUCKETS).map(|_| AtomicU64::new(0)).collect());
        bins[LogHistogram::index(v)].fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(v, Ordering::Relaxed);
        stripe.min.fetch_min(v, Ordering::Relaxed);
        stripe.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Merges all stripes into a plain [`LogHistogram`].
    #[must_use]
    pub fn snapshot(&self) -> LogHistogram {
        let mut bins = vec![0u64; BUCKETS];
        let (mut sum, mut min, mut max) = (0u128, u64::MAX, 0u64);
        for stripe in self.stripes.iter() {
            let Some(stripe_bins) = stripe.0.bins.get() else { continue };
            for (acc, bin) in bins.iter_mut().zip(stripe_bins.iter()) {
                *acc += bin.load(Ordering::Relaxed);
            }
            sum += u128::from(stripe.0.sum.load(Ordering::Relaxed));
            min = min.min(stripe.0.min.load(Ordering::Relaxed));
            max = max.max(stripe.0.max.load(Ordering::Relaxed));
        }
        LogHistogram::from_parts(bins, sum, min, max)
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantile summary of one histogram series, in the series' unit
/// (nanoseconds, or rounds for `hist/` series): the fields its rows hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Samples recorded.
    pub count: u64,
    /// 50th percentile (bucket upper bound, clamped to the maximum).
    pub p50: u64,
    /// 90th percentile (bucket upper bound, clamped to the maximum).
    pub p90: u64,
    /// 99th percentile (bucket upper bound, clamped to the maximum).
    pub p99: u64,
}

impl Quantiles {
    /// The summary of `h`.
    #[must_use]
    pub fn of(h: &LogHistogram) -> Self {
        let q = |p: f64| h.quantile(p).unwrap_or(0);
        Quantiles { count: h.count(), p50: q(0.5), p90: q(0.9), p99: q(0.99) }
    }
}

/// One merged, versioned view of the live metric cells: totals, gauges,
/// the quantiles of every histogram series, and progress.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Monotone snapshot sequence number, starting at 1.
    pub version: u64,
    /// Microseconds since the snapshot thread started.
    pub elapsed_us: u64,
    /// Counter totals, in fixed registry order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, u64)>,
    /// Quantiles of every histogram series, keyed by the paths of
    /// [`Metrics::series`]: `phase/*`, the striped `latency/*` cells and
    /// `hist/reconverge_rounds`.
    pub series: Vec<(String, Quantiles)>,
    /// Units the progress meter counted, when one is attached.
    pub progress: Option<u64>,
}

impl TelemetrySnapshot {
    /// Total for counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Per-second rate of counter `name` over the interval since `prev`,
    /// or since the snapshot thread started when there is no `prev`.
    #[must_use]
    pub fn rate(&self, name: &str, prev: Option<&TelemetrySnapshot>) -> f64 {
        let (before, since_us) =
            prev.map_or((0, 0), |p| (p.counter(name).unwrap_or(0), p.elapsed_us));
        let delta = self.counter(name).unwrap_or(0).saturating_sub(before);
        delta as f64 * 1e6 / self.elapsed_us.saturating_sub(since_us).max(1) as f64
    }

    /// Pool steal ratio: steals / tasks, or 0 when no tasks ran yet.
    #[must_use]
    pub fn steal_ratio(&self) -> f64 {
        let tasks = self.counter("pool_tasks").unwrap_or(0);
        let steals = self.counter("pool_steals").unwrap_or(0);
        if tasks == 0 {
            0.0
        } else {
            steals as f64 / tasks as f64
        }
    }

    /// Checkpoint hit rate: hits / (hits + replications run), or 0.
    #[must_use]
    pub fn checkpoint_hit_rate(&self) -> f64 {
        let hits = self.counter("checkpoint_hits").unwrap_or(0);
        let run = self.counter("replications").unwrap_or(0);
        if hits + run == 0 {
            0.0
        } else {
            hits as f64 / (hits + run) as f64
        }
    }

    /// The snapshot's `telemetry_sample` rows as `(series path, value)`:
    /// `counter/<name>`, `gauge/<name>`, `series/<path>/<field>` for the
    /// fields of [`Quantiles`], and `progress/done`.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = Vec::new();
        rows.extend(self.counters.iter().map(|(n, v)| (format!("counter/{n}"), *v)));
        rows.extend(self.gauges.iter().map(|(n, v)| (format!("gauge/{n}"), *v)));
        for (path, q) in &self.series {
            for (field, v) in [("count", q.count), ("p50", q.p50), ("p90", q.p90), ("p99", q.p99)] {
                rows.push((format!("series/{path}/{field}"), v));
            }
        }
        rows.extend(self.progress.map(|done| ("progress/done".to_string(), done)));
        rows
    }

    /// Folds one row into the snapshot: the inverse of
    /// [`TelemetrySnapshot::rows`]. Rows this build does not write (the
    /// `span/` histogram rows and `progress/total` of earlier builds) are
    /// skipped.
    fn push_row(&mut self, name: &str, value: u64) {
        if let Some(name) = name.strip_prefix("counter/") {
            self.counters.push((name.to_string(), value));
        } else if let Some(name) = name.strip_prefix("gauge/") {
            self.gauges.push((name.to_string(), value));
        } else if let Some((path, field)) =
            name.strip_prefix("series/").and_then(|s| s.rsplit_once('/'))
        {
            if self.series.last().is_none_or(|(p, _)| p != path) {
                self.series.push((path.to_string(), Quantiles::default()));
            }
            let q = &mut self.series.last_mut().expect("pushed above").1;
            match field {
                "count" => q.count = value,
                "p50" => q.p50 = value,
                "p90" => q.p90 = value,
                "p99" => q.p99 = value,
                _ => {}
            }
        } else if name == "progress/done" {
            self.progress = Some(value);
        }
    }
}

/// Decodes the telemetry snapshots of a columnar trace, in file order,
/// one at a time. [`ColumnarTelemetryExporter`] writes each snapshot as
/// one block, so a torn final block (a snapshot still being written, or a
/// crash) loses that snapshot whole, and every snapshot decoded is
/// complete.
pub fn read_snapshots(reader: &ColumnarReader) -> impl Iterator<Item = TelemetrySnapshot> + '_ {
    snapshots_of(reader.blocks().filter_map(telemetry_cols))
}

/// The `k` latest snapshots of a columnar trace, oldest first: what
/// [`read_snapshots`] ends with, decoded from the trailing
/// `TelemetrySample` blocks alone. The walk goes back from the last block
/// until the blocks it holds reach a version older than the `k` latest,
/// so every row of those `k` is decoded and no earlier row is.
#[must_use]
pub fn latest_snapshots(reader: &ColumnarReader, k: usize) -> Vec<TelemetrySnapshot> {
    let mut tail = Vec::new();
    let (mut versions, mut oldest) = (0usize, None);
    for cols in reader.blocks().rev().filter_map(telemetry_cols) {
        for i in (0..cols.len).rev() {
            let version = cols.version.get(i);
            if oldest != Some(version) {
                versions += 1;
                oldest = Some(version);
            }
        }
        tail.push(cols);
        if versions > k {
            break;
        }
    }
    // The first group may be the tail of an older snapshot: keep the last k.
    let mut snaps: Vec<_> = snapshots_of(tail.into_iter().rev()).collect();
    snaps.split_off(snaps.len().saturating_sub(k))
}

fn telemetry_cols(block: Block<'_>) -> Option<TelemetryCols<'_>> {
    match block {
        Block::TelemetrySample(cols) => Some(cols),
        _ => None,
    }
}

/// Groups the rows of telemetry blocks, in file order, into one snapshot
/// per run of equal versions.
fn snapshots_of<'a>(
    blocks: impl Iterator<Item = TelemetryCols<'a>> + 'a,
) -> impl Iterator<Item = TelemetrySnapshot> + 'a {
    let mut rows = blocks
        .flat_map(|cols| {
            (0..cols.len).map(move |i| {
                (
                    cols.version.get(i),
                    cols.elapsed_us.get(i),
                    cols.series_name(i),
                    cols.value.get(i),
                )
            })
        })
        .peekable();
    std::iter::from_fn(move || {
        let &(version, elapsed_us, _, _) = rows.peek()?;
        let mut snap = TelemetrySnapshot { version, elapsed_us, ..TelemetrySnapshot::default() };
        while let Some((_, _, name, value)) = rows.next_if(|row| row.0 == version) {
            snap.push_row(name, value);
        }
        Some(snap)
    })
}

/// Merges the metric cells into one versioned snapshot.
#[must_use]
pub fn build_snapshot(
    metrics: &Metrics,
    progress: Option<&Progress>,
    version: u64,
    started: Instant,
) -> TelemetrySnapshot {
    TelemetrySnapshot {
        version,
        elapsed_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        counters: metrics.snapshot().named().iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        gauges: metrics.gauges().iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        series: metrics.series().into_iter().map(|(path, h)| (path, Quantiles::of(&h))).collect(),
        progress: progress.map(Progress::done),
    }
}

/// A consumer of merged snapshots. Exporters run on the snapshot
/// thread, so slow exports stretch the effective interval rather than
/// perturbing the instrumented workload.
pub trait TelemetryExporter: Send {
    /// Consumes one snapshot.
    fn export(&mut self, snap: &TelemetrySnapshot);
    /// Called once after the final snapshot, before the thread exits.
    fn finish(&mut self) {}
}

/// Appends snapshots as [`TelemetrySnapshot::rows`] (`telemetry_sample`
/// events) to a `BDCT` columnar trace, one block per snapshot. The file
/// carries the standard torn-tail contract, so a crash mid-snapshot is
/// recovered by [`crate::columnar::repair`] like any other trace, and
/// [`read_snapshots`] reads the snapshots back.
pub struct ColumnarTelemetryExporter {
    sink: Box<dyn EventSink>,
}

impl ColumnarTelemetryExporter {
    /// An exporter appending to a columnar trace at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(ColumnarTelemetryExporter {
            sink: Box::new(crate::columnar::ColumnarSink::create(path)?),
        })
    }

    /// An exporter feeding an arbitrary sink (tests, fault injection).
    #[must_use]
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        ColumnarTelemetryExporter { sink }
    }
}

impl TelemetryExporter for ColumnarTelemetryExporter {
    fn export(&mut self, snap: &TelemetrySnapshot) {
        for (series, value) in snap.rows() {
            let (version, elapsed_us) = (snap.version, snap.elapsed_us);
            self.sink.emit(&Event::TelemetrySample { series, version, elapsed_us, value });
        }
        // Seal the block per snapshot so a tear loses at most one interval.
        self.sink.flush();
    }

    fn finish(&mut self) {
        self.sink.flush();
    }
}

// ---------------------------------------------------------------------------
// Snapshot runner
// ---------------------------------------------------------------------------

struct RunnerShared {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// Handle to a running snapshot thread. Dropping (or calling
/// [`TelemetryHandle::stop`]) signals the thread, which takes one final
/// snapshot, runs every exporter's `finish`, and exits.
pub struct TelemetryHandle {
    shared: Arc<RunnerShared>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryHandle {
    /// Signals the snapshot thread and waits for the final export.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(join) = self.join.take() {
            *self.shared.stop.lock().expect("telemetry stop flag poisoned") = true;
            self.shared.cv.notify_all();
            let _ = join.join();
        }
    }
}

impl Drop for TelemetryHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle").field("running", &self.join.is_some()).finish()
    }
}

/// Starts the snapshot thread: every `interval` it merges the metric
/// cells into a fresh [`TelemetrySnapshot`] and feeds each exporter.
/// On stop it always takes one final snapshot, so even a run shorter
/// than the interval exports exactly its end state.
#[must_use]
pub fn start_telemetry(
    metrics: Arc<Metrics>,
    progress: Option<Arc<Progress>>,
    interval: Duration,
    mut exporters: Vec<Box<dyn TelemetryExporter>>,
) -> TelemetryHandle {
    let shared = Arc::new(RunnerShared { stop: Mutex::new(false), cv: Condvar::new() });
    let thread_shared = Arc::clone(&shared);
    let interval = interval.max(Duration::from_millis(1));
    let join = std::thread::Builder::new()
        .name("bitdissem-telemetry".to_string())
        .spawn(move || {
            let started = Instant::now();
            let mut version = 0u64;
            loop {
                let stopping = {
                    let guard = thread_shared.stop.lock().expect("telemetry stop flag poisoned");
                    let (guard, _) = thread_shared
                        .cv
                        .wait_timeout_while(guard, interval, |stop| !*stop)
                        .expect("telemetry stop flag poisoned");
                    *guard
                };
                version += 1;
                let snap = build_snapshot(&metrics, progress.as_deref(), version, started);
                for e in &mut exporters {
                    e.export(&snap);
                }
                if stopping {
                    for e in &mut exporters {
                        e.finish();
                    }
                    break;
                }
            }
        })
        .expect("spawn telemetry thread");
    TelemetryHandle { shared, join: Some(join) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LatencyId, MemorySink};
    use std::thread;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let mut joins = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            joins.push(thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(1);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 8000);
    }

    #[test]
    fn counter_add_to_targets_explicit_stripes() {
        let c = Counter::new();
        c.add_to(3, 5);
        c.add_to(3 + STRIPES, 7); // wraps onto the same stripe
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn histogram_snapshot_matches_scalar_reference() {
        let h = Arc::new(AtomicHistogram::new());
        let mut reference = LogHistogram::new();
        let values = [0u64, 7, 50, 150, 999, 10_000, 1_000_000, 200_000_000_000];
        for &v in &values {
            reference.record(v);
        }
        // Half the values from another thread, so the snapshot merges
        // stripes.
        let (mine, theirs) = values.split_at(values.len() / 2);
        let other = {
            let h = Arc::clone(&h);
            let theirs = theirs.to_vec();
            thread::spawn(move || theirs.into_iter().for_each(|v| h.record(v)))
        };
        mine.iter().for_each(|&v| h.record(v));
        other.join().unwrap();
        assert_eq!(h.snapshot(), reference);
        assert_eq!(AtomicHistogram::new().snapshot(), LogHistogram::new());
    }

    #[test]
    fn histogram_bins_are_monotone_under_concurrent_writes() {
        let h = Arc::new(AtomicHistogram::new());
        let writer = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for i in 0..20_000u64 {
                    h.record(100 + (i % 1_000_000));
                }
            })
        };
        let mut last = 0u64;
        for _ in 0..50 {
            let snap = h.snapshot();
            let count = snap.count();
            assert!(count >= last, "snapshot count went backwards: {last} -> {count}");
            last = count;
            // The writer's values rise, so its max races its bins: the
            // extremes must still lie in the extreme non-empty buckets.
            let bins = snap.bin_counts();
            if let Some(top) = bins.iter().rposition(|&c| c > 0) {
                assert_eq!(LogHistogram::index(snap.max()), top, "max outside the top bucket");
                let bottom = bins.iter().position(|&c| c > 0).unwrap();
                assert_eq!(LogHistogram::index(snap.min()), bottom, "min outside the low bucket");
            }
        }
        writer.join().unwrap();
        assert_eq!(h.snapshot().count(), 20_000);
    }

    /// Writes `snaps` through a [`ColumnarTelemetryExporter`] over an
    /// in-memory columnar sink and reads the snapshots back.
    fn export_and_decode(snaps: &[TelemetrySnapshot]) -> Vec<TelemetrySnapshot> {
        let reader = record(|sink| {
            let mut exporter = ColumnarTelemetryExporter::with_sink(sink);
            snaps.iter().for_each(|snap| exporter.export(snap));
            exporter.finish();
        });
        read_snapshots(&reader).collect()
    }

    /// The columnar trace `write` records through an in-memory sink.
    fn record(write: impl FnOnce(Box<dyn EventSink>)) -> ColumnarReader {
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl io::Write for Buf {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        write(Box::new(crate::columnar::ColumnarSink::from_writer(Box::new(buf.clone())).unwrap()));
        let bytes = buf.0.lock().unwrap().clone();
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert!(!reader.torn_tail());
        reader
    }

    /// The latest `k` snapshots, decoded from the trailing blocks, are the
    /// last `k` of a full decode, for every `k`: with several snapshots in
    /// one block, and with one snapshot over two blocks.
    #[test]
    fn latest_snapshots_are_the_tail_of_a_full_decode() {
        let reader = record(|sink| {
            let row = |version: u64, i: u64| Event::TelemetrySample {
                series: format!("counter/c{}", i % 7),
                version,
                elapsed_us: 1000 * version,
                value: version * i,
            };
            for version in 1..=40u64 {
                let rows = if version == 4 { crate::columnar::BLOCK_ROWS as u64 + 10 } else { 7 };
                (0..rows).for_each(|i| sink.emit(&row(version, i)));
                // Versions 1 to 3 share a block; every later one seals its own.
                if version >= 3 {
                    sink.flush();
                }
            }
        });
        assert_eq!(reader.block_count(), 1 + 2 + 36, "the layout the comment describes");
        let full: Vec<TelemetrySnapshot> = read_snapshots(&reader).collect();
        assert_eq!(full.len(), 40);
        for k in 0..=42 {
            assert_eq!(latest_snapshots(&reader, k), full[full.len().saturating_sub(k)..], "k={k}");
        }
    }

    #[test]
    fn snapshot_roundtrips_through_rows() {
        let m = Metrics::new();
        m.add_rounds(42);
        m.add_pool_batch(10, 3);
        m.set_gauge(crate::GaugeId::SweepBatchesTotal, 9);
        m.record_phase("simulate", Duration::from_micros(250));
        m.record_latency(LatencyId::Replication, 1_500);
        m.record_reconverge(27);
        let progress = Progress::with_writer("reps", Box::new(io::sink()));
        progress.tick(5);
        let started = Instant::now() - Duration::from_millis(2_500);
        let first = build_snapshot(&m, Some(&progress), 1, started);
        m.add_rounds(8);
        m.record_reconverge(89);
        let second = build_snapshot(&m, Some(&progress), 2, started);
        let paths: Vec<&str> = second.series.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["phase/simulate", "latency/replication", "hist/reconverge_rounds"]);
        assert_eq!(second.gauges[0], ("sweep_batches_started".to_string(), 9));
        assert_eq!((second.counter("rounds_simulated"), second.progress), (Some(50), Some(5)));

        let decoded = export_and_decode(&[first.clone(), second.clone()]);
        assert_eq!(decoded, [first, second]);
        // A snapshot without a meter has no progress row and decodes to none.
        let bare = build_snapshot(&m, None, 3, started);
        assert_eq!(export_and_decode(std::slice::from_ref(&bare)), [bare]);
    }

    #[test]
    fn rates_use_deltas_of_the_two_latest_snapshots() {
        let snap = |version, elapsed_us, rounds| TelemetrySnapshot {
            version,
            elapsed_us,
            counters: vec![("rounds_simulated".to_string(), rounds), ("replications".into(), 7)],
            ..TelemetrySnapshot::default()
        };
        let (first, second) = (snap(1, 1_000_000, 100), snap(2, 3_000_000, 500));
        // The first snapshot rates over the whole elapsed window.
        assert_eq!(first.rate("rounds_simulated", None), 100.0);
        assert_eq!(second.rate("rounds_simulated", Some(&first)), 200.0);
        // No new work between the two: the rate drops to zero.
        assert_eq!(second.rate("replications", Some(&first)), 0.0);
        assert_eq!(second.rate("no_such_counter", Some(&first)), 0.0);
    }

    #[test]
    fn ratios_derive_from_counters() {
        let m = Metrics::new();
        m.add_pool_batch(100, 25);
        m.add_checkpoint_hits(10);
        m.add_replications(30);
        let snap = build_snapshot(&m, None, 1, Instant::now());
        assert!((snap.steal_ratio() - 0.25).abs() < 1e-12);
        assert!((snap.checkpoint_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reconverge_histogram_surfaces_with_its_own_metric_family() {
        let m = Metrics::new();
        m.add_perturbations(2);
        m.record_reconverge(400);
        m.record_reconverge(12_000);
        let snap = build_snapshot(&m, None, 1, Instant::now());
        let q = snap
            .series
            .iter()
            .find(|(p, _)| p == "hist/reconverge_rounds")
            .map(|&(_, q)| q)
            .expect("reconverge histogram exported");
        assert_eq!(q.count, 2);
        assert!(q.p99 >= 12_000, "p99 covers the largest clock: {q:?}");
        assert_eq!(snap.counter("perturbations_applied"), Some(2));
        // Rounds ride their own `hist/` rows, never a latency series.
        let rows = snap.rows();
        let hist: Vec<&str> = rows
            .iter()
            .filter(|(s, _)| s.contains("reconverge"))
            .map(|(s, _)| s.as_str())
            .collect();
        assert_eq!(
            hist,
            [
                "series/hist/reconverge_rounds/count",
                "series/hist/reconverge_rounds/p50",
                "series/hist/reconverge_rounds/p90",
                "series/hist/reconverge_rounds/p99",
            ]
        );
        assert!(rows.contains(&("counter/perturbations_applied".to_string(), 2)));
    }

    #[test]
    fn reconverge_quantiles_resolve_clocks_below_one_hundred_rounds() {
        let m = Metrics::new();
        for clock in [27, 40, 89] {
            m.record_reconverge(clock);
        }
        let snap = build_snapshot(&m, None, 1, Instant::now());
        let q = snap
            .series
            .iter()
            .find(|(p, _)| p == "hist/reconverge_rounds")
            .map(|&(_, q)| q)
            .expect("reconverge histogram exported");
        assert_eq!(q.count, 3);
        // Nearest-rank quantiles of {27, 40, 89}, each read within 1/16.
        for (read, exact) in [(q.p50, 40u64), (q.p90, 89), (q.p99, 89)] {
            assert!(
                read >= exact && read * 16 <= exact * 17,
                "read {read} rounds for a true {exact}: {q:?}"
            );
        }
        let p50 = snap.rows().into_iter().find(|(s, _)| s == "series/hist/reconverge_rounds/p50");
        assert_eq!(p50, Some(("series/hist/reconverge_rounds/p50".to_string(), q.p50)));
    }

    #[test]
    fn offline_and_live_quantiles_agree() {
        let m = Metrics::new();
        for (i, nanos) in [900u64, 1_500, 2_600, 40_000, 41_000, 3_000_000].into_iter().enumerate()
        {
            m.record_latency(LatencyId::Replication, nanos * 3);
            m.record_phase("simulate", Duration::from_nanos(nanos * 7));
            m.record_reconverge(10 + 17 * i as u64);
        }
        let live = export_and_decode(&[build_snapshot(&m, None, 1, Instant::now())]);
        let text = m.render();

        let paths: Vec<&str> = live[0].series.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["phase/simulate", "latency/replication", "hist/reconverge_rounds"]);
        for (path, q) in &live[0].series {
            assert_eq!(q.count, 6, "{path}");
            let unit = crate::metrics::series_unit(path);
            let head = format!(
                "  {path:<24} [p50={} p90={} p99={} max=",
                unit(q.p50),
                unit(q.p90),
                unit(q.p99)
            );
            let line = text.lines().find(|l| l.starts_with(&head));
            let tail = format!("({} samples)]", q.count);
            assert!(line.is_some_and(|l| l.ends_with(&tail)), "render lacks {head:?}:\n{text}");
        }
    }

    #[test]
    fn columnar_exporter_emits_one_row_per_series() {
        let sink = Arc::new(MemorySink::new());
        struct Fwd(Arc<MemorySink>);
        impl EventSink for Fwd {
            fn emit(&self, e: &Event) {
                self.0.emit(e);
            }
        }
        let mut exporter = ColumnarTelemetryExporter::with_sink(Box::new(Fwd(Arc::clone(&sink))));
        let m = Metrics::new();
        m.add_rounds(5);
        let snap = build_snapshot(&m, None, 1, Instant::now());
        exporter.export(&snap);
        let events = sink.events();
        assert_eq!(events.len(), snap.counters.len() + snap.gauges.len());
        assert!(events.iter().all(|e| matches!(e, Event::TelemetrySample { version: 1, .. })));
        assert!(events.iter().any(
            |e| matches!(e, Event::TelemetrySample { series, value: 5, .. } if series == "counter/rounds_simulated")
        ));
    }

    #[test]
    fn runner_exports_final_snapshot_on_stop() {
        struct Collect(Arc<Mutex<Vec<TelemetrySnapshot>>>);
        impl TelemetryExporter for Collect {
            fn export(&mut self, snap: &TelemetrySnapshot) {
                self.0.lock().unwrap().push(snap.clone());
            }
        }
        let m = Arc::new(Metrics::new());
        m.add_rounds(7);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let handle = start_telemetry(
            Arc::clone(&m),
            None,
            Duration::from_secs(3600), // never fires on its own
            vec![Box::new(Collect(Arc::clone(&seen)))],
        );
        handle.stop();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1, "stop produces exactly the final snapshot");
        assert_eq!(seen[0].counter("rounds_simulated"), Some(7));
    }
}
