//! Live telemetry: sharded metric cells, lock-free snapshots, and
//! streaming exporters.
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
//! [`TelemetrySnapshot`]s and fans them out to pluggable
//! [`TelemetryExporter`]s:
//!
//! - [`PrometheusExporter`] — text exposition, atomically replaced on
//!   disk so a scraper never reads a torn file,
//! - [`ColumnarTelemetryExporter`] — `telemetry_sample` rows appended
//!   to a `BDCT` columnar trace, so `trace` analytics (and the
//!   torn-tail `repair()` contract) apply to telemetry series too,
//! - [`SocketPublisher`] — a unix-socket JSON-lines feed that the CLI
//!   `watch` subcommand attaches to.
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

use crate::hist::{LogHistogram, BUCKETS};
use crate::json::{self, Value};
use crate::metrics::{CounterSnapshot, Metrics};
use crate::progress::Progress;
use crate::sink::EventSink;
use crate::Event;
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

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
/// (nanoseconds, or rounds for `hist/` series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanQuantiles {
    /// Samples recorded.
    pub count: u64,
    /// 50th percentile (bucket upper bound, clamped to the maximum).
    pub p50: u64,
    /// 90th percentile (bucket upper bound, clamped to the maximum).
    pub p90: u64,
    /// 99th percentile (bucket upper bound, clamped to the maximum).
    pub p99: u64,
    /// Largest sample observed.
    pub max: u64,
}

impl SpanQuantiles {
    /// The summary of `h`.
    #[must_use]
    pub fn of(h: &LogHistogram) -> Self {
        let q = |p: f64| h.quantile(p).unwrap_or(0);
        SpanQuantiles { count: h.count(), p50: q(0.5), p90: q(0.9), p99: q(0.99), max: h.max() }
    }
}

/// Live progress as seen by one snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressView {
    /// Units completed.
    pub done: u64,
    /// Units expected (0 = indeterminate).
    pub total: u64,
    /// Smoothed completion rate, units per second.
    pub rate_per_sec: f64,
    /// Estimated seconds to completion; negative when unknown.
    pub eta_secs: f64,
}

/// One merged, versioned view of the live metric cells.
///
/// Snapshots are self-contained values: they serialize to a single
/// JSON object (the unix-socket wire format) and back, and carry
/// everything the `watch` view renders — totals, per-interval rates,
/// gauges, the quantiles of every histogram series, and progress.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotone snapshot sequence number, starting at 1.
    pub version: u64,
    /// Wall-clock milliseconds since the unix epoch at merge time.
    pub unix_ms: u64,
    /// Microseconds since the snapshot thread started.
    pub elapsed_us: u64,
    /// Counter totals, in fixed registry order.
    pub counters: Vec<(String, u64)>,
    /// Per-counter rates over the previous snapshot interval, units/s.
    pub rates: Vec<(String, f64)>,
    /// Gauge values.
    pub gauges: Vec<(String, u64)>,
    /// Quantiles of every histogram series, keyed by the paths of
    /// [`Metrics::series`]: `phase/*`, the striped `latency/*` cells and
    /// `hist/reconverge_rounds`.
    pub spans: Vec<(String, SpanQuantiles)>,
    /// Progress, when a meter is attached.
    pub progress: Option<ProgressView>,
}

impl TelemetrySnapshot {
    /// Total for counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
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

    /// Serializes to one JSON object (the socket wire format).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let pairs_u64 = |v: &[(String, u64)]| {
            Value::Obj(v.iter().map(|(n, x)| (n.clone(), Value::Int(i128::from(*x)))).collect())
        };
        let mut obj = vec![
            ("version".to_string(), Value::Int(i128::from(self.version))),
            ("unix_ms".to_string(), Value::Int(i128::from(self.unix_ms))),
            ("elapsed_us".to_string(), Value::Int(i128::from(self.elapsed_us))),
            ("counters".to_string(), pairs_u64(&self.counters)),
            (
                "rates".to_string(),
                Value::Obj(self.rates.iter().map(|(n, r)| (n.clone(), Value::Num(*r))).collect()),
            ),
            ("gauges".to_string(), pairs_u64(&self.gauges)),
            (
                "spans".to_string(),
                Value::Obj(
                    self.spans
                        .iter()
                        .map(|(path, q)| {
                            (
                                path.clone(),
                                Value::Obj(vec![
                                    ("count".to_string(), Value::Int(i128::from(q.count))),
                                    ("p50".to_string(), Value::Int(i128::from(q.p50))),
                                    ("p90".to_string(), Value::Int(i128::from(q.p90))),
                                    ("p99".to_string(), Value::Int(i128::from(q.p99))),
                                    ("max".to_string(), Value::Int(i128::from(q.max))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(p) = &self.progress {
            obj.push((
                "progress".to_string(),
                Value::Obj(vec![
                    ("done".to_string(), Value::Int(i128::from(p.done))),
                    ("total".to_string(), Value::Int(i128::from(p.total))),
                    ("rate_per_sec".to_string(), Value::Num(p.rate_per_sec)),
                    ("eta_secs".to_string(), Value::Num(p.eta_secs)),
                ]),
            ));
        }
        Value::Obj(obj)
    }

    /// Renders the JSON wire form (one line, no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Decodes the JSON wire form.
    #[must_use]
    pub fn from_json(line: &str) -> Option<Self> {
        let v = json::parse(line).ok()?;
        let obj_pairs = |v: &Value| -> Option<Vec<(String, Value)>> {
            match v {
                Value::Obj(pairs) => Some(pairs.clone()),
                _ => None,
            }
        };
        let counters = obj_pairs(v.get("counters")?)?
            .into_iter()
            .map(|(n, x)| Some((n, x.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        let rates = obj_pairs(v.get("rates")?)?
            .into_iter()
            .map(|(n, x)| Some((n, x.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        let gauges = obj_pairs(v.get("gauges")?)?
            .into_iter()
            .map(|(n, x)| Some((n, x.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        let spans = obj_pairs(v.get("spans")?)?
            .into_iter()
            .map(|(path, q)| {
                Some((
                    path,
                    SpanQuantiles {
                        count: q.get("count")?.as_u64()?,
                        p50: q.get("p50")?.as_u64()?,
                        p90: q.get("p90")?.as_u64()?,
                        p99: q.get("p99")?.as_u64()?,
                        max: q.get("max")?.as_u64()?,
                    },
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let progress = match v.get("progress") {
            Some(p) => Some(ProgressView {
                done: p.get("done")?.as_u64()?,
                total: p.get("total")?.as_u64()?,
                rate_per_sec: p.get("rate_per_sec")?.as_f64()?,
                eta_secs: p.get("eta_secs")?.as_f64()?,
            }),
            None => None,
        };
        Some(TelemetrySnapshot {
            version: v.get("version")?.as_u64()?,
            unix_ms: v.get("unix_ms")?.as_u64()?,
            elapsed_us: v.get("elapsed_us")?.as_u64()?,
            counters,
            rates,
            gauges,
            spans,
            progress,
        })
    }
}

/// Merges the metric cells into one versioned snapshot. `prev` (the
/// preceding snapshot's counters and age) feeds the per-interval rates;
/// the first snapshot rates over the whole elapsed window.
#[must_use]
pub fn build_snapshot(
    metrics: &Metrics,
    progress: Option<&Progress>,
    version: u64,
    started: Instant,
    prev: Option<&(Duration, CounterSnapshot)>,
) -> TelemetrySnapshot {
    let elapsed = started.elapsed();
    let counters = metrics.snapshot();
    let named = counters.named();
    let (prev_elapsed, prev_named) = match prev {
        Some((age, snap)) => (*age, snap.named()),
        None => (Duration::ZERO, Vec::new()),
    };
    let dt = (elapsed.saturating_sub(prev_elapsed)).as_secs_f64().max(1e-9);
    let rates = named
        .iter()
        .map(|&(name, cur)| {
            let before = prev_named.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0);
            (name.to_string(), cur.saturating_sub(before) as f64 / dt)
        })
        .collect();
    let spans =
        metrics.series().into_iter().map(|(path, h)| (path, SpanQuantiles::of(&h))).collect();
    let unix_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0);
    TelemetrySnapshot {
        version,
        unix_ms,
        elapsed_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        counters: named.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        rates,
        gauges: metrics.gauges().iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        spans,
        progress: progress.map(|p| ProgressView {
            done: p.done(),
            total: p.total(),
            rate_per_sec: p.rate_per_sec(),
            eta_secs: p.eta_secs().unwrap_or(-1.0),
        }),
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

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Renders a snapshot in Prometheus text exposition format (version
/// 0.0.4): counters as `bitdissem_<name>_total`, gauges and derived
/// ratios as plain gauges, span quantiles as labeled
/// `bitdissem_span_latency_ns` samples.
#[must_use]
pub fn render_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(
        "# HELP bitdissem_snapshot_version Monotone telemetry snapshot sequence number.\n",
    );
    out.push_str("# TYPE bitdissem_snapshot_version gauge\n");
    out.push_str(&format!("bitdissem_snapshot_version {}\n", snap.version));
    for (name, v) in &snap.counters {
        out.push_str(&format!("# TYPE bitdissem_{name}_total counter\n"));
        out.push_str(&format!("bitdissem_{name}_total {v}\n"));
    }
    for (name, r) in &snap.rates {
        out.push_str(&format!("bitdissem_rate_per_sec{{counter=\"{name}\"}} {r}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("# TYPE bitdissem_{name} gauge\n"));
        out.push_str(&format!("bitdissem_{name} {v}\n"));
    }
    out.push_str(&format!("bitdissem_pool_steal_ratio {}\n", snap.steal_ratio()));
    out.push_str(&format!("bitdissem_checkpoint_hit_rate {}\n", snap.checkpoint_hit_rate()));
    for (path, q) in &snap.spans {
        // `hist/<name>` series are unit-bearing histograms (rounds, not
        // nanoseconds): they get their own metric family instead of the
        // latency one, so dashboards never mix units.
        if let Some(name) = path.strip_prefix("hist/") {
            out.push_str(&format!("# TYPE bitdissem_{name} summary\n"));
            for (label, v) in [("0.5", q.p50), ("0.9", q.p90), ("0.99", q.p99)] {
                out.push_str(&format!("bitdissem_{name}{{quantile=\"{label}\"}} {v}\n"));
            }
            out.push_str(&format!("bitdissem_{name}_count {}\n", q.count));
            continue;
        }
        for (label, v) in [("0.5", q.p50), ("0.9", q.p90), ("0.99", q.p99)] {
            out.push_str(&format!(
                "bitdissem_span_latency_ns{{span=\"{path}\",quantile=\"{label}\"}} {v}\n"
            ));
        }
        out.push_str(&format!("bitdissem_span_latency_count{{span=\"{path}\"}} {}\n", q.count));
    }
    if let Some(p) = &snap.progress {
        out.push_str(&format!("bitdissem_progress_done {}\n", p.done));
        out.push_str(&format!("bitdissem_progress_total {}\n", p.total));
        out.push_str(&format!("bitdissem_progress_rate_per_sec {}\n", p.rate_per_sec));
        out.push_str(&format!("bitdissem_progress_eta_secs {}\n", p.eta_secs));
    }
    out
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name.
    pub name: String,
    /// Label pairs, in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition into samples. Comment (`#`) and
/// blank lines are skipped; anything else must be
/// `name[{labels}] value`.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (head, value) =
            line.rsplit_once(char::is_whitespace).ok_or_else(|| err("missing value"))?;
        let value: f64 = value.parse().map_err(|_| err("bad value"))?;
        let (name, labels) = match head.split_once('{') {
            None => (head.trim().to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| err("unterminated labels"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label pair"))?;
                    let v = v
                        .trim()
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.trim().to_string(), v.to_string()));
                }
                (name.trim().to_string(), labels)
            }
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(err("bad metric name"));
        }
        samples.push(PromSample { name, labels, value });
    }
    Ok(samples)
}

/// Atomically rewrites a Prometheus exposition file on every snapshot,
/// so an external scraper (or `watch --prom`) always reads a complete
/// exposition.
#[derive(Debug)]
pub struct PrometheusExporter {
    path: PathBuf,
}

impl PrometheusExporter {
    /// An exporter writing to `path`.
    #[must_use]
    pub fn new(path: &Path) -> Self {
        PrometheusExporter { path: path.to_path_buf() }
    }
}

impl TelemetryExporter for PrometheusExporter {
    fn export(&mut self, snap: &TelemetrySnapshot) {
        // Best-effort like every sink: a full disk must not kill the run.
        let _ = crate::durable::atomic_replace(&self.path, render_prometheus(snap).as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Columnar snapshot series
// ---------------------------------------------------------------------------

/// Flattens snapshots into `telemetry_sample` rows in a `BDCT` columnar
/// trace: one row per counter, gauge, and span quantile, keyed by a
/// `kind/name[/quantile]` series path. The file carries the standard
/// torn-tail contract, so a crash mid-snapshot is recovered by
/// [`crate::columnar::repair`] like any other trace.
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

    fn emit(&self, snap: &TelemetrySnapshot, series: String, value: u64) {
        self.sink.emit(&Event::TelemetrySample {
            series,
            version: snap.version,
            elapsed_us: snap.elapsed_us,
            value,
        });
    }
}

impl TelemetryExporter for ColumnarTelemetryExporter {
    fn export(&mut self, snap: &TelemetrySnapshot) {
        for (name, v) in &snap.counters {
            self.emit(snap, format!("counter/{name}"), *v);
        }
        for (name, v) in &snap.gauges {
            self.emit(snap, format!("gauge/{name}"), *v);
        }
        for (path, q) in &snap.spans {
            self.emit(snap, format!("span/{path}/count"), q.count);
            self.emit(snap, format!("span/{path}/p50"), q.p50);
            self.emit(snap, format!("span/{path}/p90"), q.p90);
            self.emit(snap, format!("span/{path}/p99"), q.p99);
        }
        if let Some(p) = &snap.progress {
            self.emit(snap, "progress/done".to_string(), p.done);
            self.emit(snap, "progress/total".to_string(), p.total);
        }
        // Seal the block per snapshot so a tear loses at most one interval.
        self.sink.flush();
    }

    fn finish(&mut self) {
        self.sink.flush();
    }
}

// ---------------------------------------------------------------------------
// Unix-socket publisher
// ---------------------------------------------------------------------------

/// Publishes snapshots as JSON lines over a unix domain socket; the
/// CLI `watch` subcommand is the intended client. Accepts are
/// non-blocking and performed on the snapshot thread; a client that
/// stops reading is dropped on its first failed write rather than
/// stalling telemetry.
#[cfg(unix)]
pub struct SocketPublisher {
    path: PathBuf,
    listener: std::os::unix::net::UnixListener,
    clients: Vec<std::os::unix::net::UnixStream>,
}

#[cfg(unix)]
impl SocketPublisher {
    /// Binds `path` (removing any stale socket file first).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(path: &Path) -> io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(SocketPublisher { path: path.to_path_buf(), listener, clients: Vec::new() })
    }

    fn accept_pending(&mut self) {
        while let Ok((stream, _)) = self.listener.accept() {
            // Writes stay blocking: one snapshot line per interval is
            // small, and a dead peer errors out instead of hanging.
            let _ = stream.set_nonblocking(false);
            self.clients.push(stream);
        }
    }

    fn broadcast(&mut self, line: &str) {
        use std::io::Write;
        self.clients
            .retain_mut(|c| c.write_all(line.as_bytes()).and_then(|()| c.write_all(b"\n")).is_ok());
    }
}

#[cfg(unix)]
impl TelemetryExporter for SocketPublisher {
    fn export(&mut self, snap: &TelemetrySnapshot) {
        self.accept_pending();
        self.broadcast(&snap.to_json());
    }

    fn finish(&mut self) {
        for c in self.clients.drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(unix)]
impl Drop for SocketPublisher {
    fn drop(&mut self) {
        for c in &self.clients {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        let _ = std::fs::remove_file(&self.path);
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
            let mut prev: Option<(Duration, CounterSnapshot)> = None;
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
                let snap =
                    build_snapshot(&metrics, progress.as_deref(), version, started, prev.as_ref());
                prev = Some((started.elapsed(), metrics.snapshot()));
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

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = TelemetrySnapshot {
            version: 3,
            unix_ms: 1_700_000_000_000,
            elapsed_us: 2_500_000,
            counters: vec![("rounds_simulated".to_string(), 42)],
            rates: vec![("rounds_simulated".to_string(), 16.5)],
            gauges: vec![("sweep_batches_started".to_string(), 9)],
            spans: vec![(
                "replication".to_string(),
                SpanQuantiles { count: 7, p50: 100, p90: 200, p99: 300, max: 400 },
            )],
            progress: Some(ProgressView { done: 5, total: 10, rate_per_sec: 2.0, eta_secs: 2.5 }),
        };
        let decoded = TelemetrySnapshot::from_json(&snap.to_json()).expect("decodes");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn build_snapshot_rates_use_deltas() {
        let m = Metrics::new();
        m.add_rounds(100);
        let started = Instant::now() - Duration::from_secs(1);
        let first = build_snapshot(&m, None, 1, started, None);
        assert_eq!(first.counter("rounds_simulated"), Some(100));
        let rate = first.rates.iter().find(|(n, _)| n == "rounds_simulated").unwrap().1;
        assert!(rate > 0.0);
        // Second snapshot with no new work: delta (and rate) drop to zero.
        let prev = (started.elapsed(), m.snapshot());
        let second = build_snapshot(&m, None, 2, started, Some(&prev));
        let rate2 = second.rates.iter().find(|(n, _)| n == "rounds_simulated").unwrap().1;
        assert_eq!(rate2, 0.0);
    }

    #[test]
    fn ratios_derive_from_counters() {
        let m = Metrics::new();
        m.add_pool_batch(100, 25);
        m.add_checkpoint_hits(10);
        m.add_replications(30);
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
        assert!((snap.steal_ratio() - 0.25).abs() < 1e-12);
        assert!((snap.checkpoint_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reconverge_histogram_surfaces_with_its_own_metric_family() {
        let m = Metrics::new();
        m.add_perturbations(2);
        m.record_reconverge(400);
        m.record_reconverge(12_000);
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
        let q = snap
            .spans
            .iter()
            .find(|(p, _)| p == "hist/reconverge_rounds")
            .map(|&(_, q)| q)
            .expect("reconverge histogram exported");
        assert_eq!(q.count, 2);
        assert!(q.max >= 12_000, "max quantile covers the largest clock: {q:?}");
        assert_eq!(snap.counter("perturbations_applied"), Some(2));
        // Rounds never masquerade as span latencies in the exposition.
        let text = render_prometheus(&snap);
        assert!(!text.contains("span_latency_ns{span=\"hist/"), "{text}");
        let samples = parse_prometheus(&text).expect("exposition parses");
        assert!(samples.iter().any(|s| {
            s.name == "bitdissem_reconverge_rounds"
                && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.5")
        }));
        assert!(samples
            .iter()
            .any(|s| s.name == "bitdissem_reconverge_rounds_count" && s.value == 2.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "bitdissem_perturbations_applied_total" && s.value == 2.0));
    }

    #[test]
    fn reconverge_quantiles_resolve_clocks_below_one_hundred_rounds() {
        let m = Metrics::new();
        for clock in [27, 40, 89] {
            m.record_reconverge(clock);
        }
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
        let q = snap
            .spans
            .iter()
            .find(|(p, _)| p == "hist/reconverge_rounds")
            .map(|&(_, q)| q)
            .expect("reconverge histogram exported");
        assert_eq!(q.count, 3);
        // Nearest-rank quantiles of {27, 40, 89}, each read within 1/16.
        for (read, exact) in [(q.p50, 40u64), (q.p90, 89), (q.p99, 89), (q.max, 89)] {
            assert!(
                read >= exact && read * 16 <= exact * 17,
                "read {read} rounds for a true {exact}: {q:?}"
            );
        }
        let text = render_prometheus(&snap);
        let p50 = parse_prometheus(&text)
            .expect("exposition parses")
            .into_iter()
            .find(|s| {
                s.name == "bitdissem_reconverge_rounds"
                    && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.5")
            })
            .expect("p50 exported");
        assert_eq!(p50.value, q.p50 as f64);
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
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
        let sink = Arc::new(MemorySink::new());
        struct Fwd(Arc<MemorySink>);
        impl EventSink for Fwd {
            fn emit(&self, e: &Event) {
                self.0.emit(e);
            }
        }
        ColumnarTelemetryExporter::with_sink(Box::new(Fwd(Arc::clone(&sink)))).export(&snap);
        let rows: Vec<(String, u64)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::TelemetrySample { series, value, .. } => Some((series, value)),
                _ => None,
            })
            .collect();
        let row = |series: String| rows.iter().find(|(s, _)| *s == series).map(|&(_, v)| v);
        let text = m.render();

        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["phase/simulate", "latency/replication", "hist/reconverge_rounds"]);
        for (path, q) in &snap.spans {
            assert_eq!(q.count, 6, "{path}");
            for (field, v) in [("count", q.count), ("p50", q.p50), ("p90", q.p90), ("p99", q.p99)] {
                assert_eq!(row(format!("span/{path}/{field}")), Some(v), "{path} {field}");
            }
            let unit = crate::metrics::series_unit(path);
            let line = format!(
                "  {path:<24} [p50={} p90={} p99={} max={} ({} samples)]\n",
                unit(q.p50),
                unit(q.p90),
                unit(q.p99),
                unit(q.max),
                q.count
            );
            assert!(text.contains(&line), "render lacks {line:?}:\n{text}");
        }
    }

    #[test]
    fn prometheus_roundtrip_parses_and_reconciles() {
        let m = Metrics::new();
        m.add_rounds(1234);
        m.add_pool_batch(10, 2);
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
        let text = render_prometheus(&snap);
        let samples = parse_prometheus(&text).expect("exposition parses");
        let total = samples
            .iter()
            .find(|s| s.name == "bitdissem_rounds_simulated_total")
            .expect("counter exported");
        assert_eq!(total.value, 1234.0);
        let q = samples
            .iter()
            .find(|s| s.name == "bitdissem_span_latency_ns")
            .map(|s| s.labels.clone());
        // No spans recorded, so no latency samples — but the ratio gauges exist.
        assert!(q.is_none());
        assert!(samples.iter().any(|s| s.name == "bitdissem_pool_steal_ratio"));
    }

    #[test]
    fn parse_prometheus_rejects_garbage() {
        assert!(parse_prometheus("no_value_here\n").is_err());
        assert!(parse_prometheus("name{unterminated 1\n").is_err());
        assert!(parse_prometheus("bad name 1\n").is_err());
        assert!(parse_prometheus("# just a comment\n\n").unwrap().is_empty());
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
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
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

    #[cfg(unix)]
    #[test]
    fn socket_publisher_streams_snapshots_to_clients() {
        use std::io::{BufRead, BufReader};
        let dir = std::env::temp_dir().join(format!("bitdissem-tele-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tele.sock");
        let mut publisher = SocketPublisher::bind(&path).expect("bind");
        let client = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        let m = Metrics::new();
        m.add_rounds(11);
        let snap = build_snapshot(&m, None, 1, Instant::now(), None);
        publisher.export(&snap); // first export accepts, second delivers
        publisher.export(&snap);
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).expect("read snapshot line");
        let decoded = TelemetrySnapshot::from_json(line.trim()).expect("wire format decodes");
        assert_eq!(decoded.counter("rounds_simulated"), Some(11));
        drop(publisher);
        assert!(!path.exists(), "socket file removed on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
