//! Live telemetry integration: sharded metric cells under concurrent
//! writers must merge into internally consistent snapshots, and the
//! columnar telemetry series must share the trace store's
//! crash-recovery contract.
//!
//! Two contracts are gated here:
//!
//! 1. **Torn-free snapshots (proptest)** — concurrent stripe writers
//!    racing a snapshotter: every merged histogram's count equals the
//!    sum of its bins, per-bin counts and counter totals are monotone
//!    across successive snapshots, and the final totals equal the sum
//!    of per-worker contributions exactly.
//! 2. **Crash mid-snapshot** — a `ColumnarTelemetryExporter` over a
//!    `FaultyWriter` that dies inside the third snapshot's block leaves a
//!    file from which `read_snapshots` decodes exactly the first two
//!    snapshots, `watch` renders the second, and `repair()` truncates it
//!    back to a clean trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use bitdissem_cli::args::Args;
use bitdissem_cli::{dispatch, Status};
use bitdissem_obs::columnar::{repair, Block, ColumnarReader, ColumnarSink};
use bitdissem_obs::telemetry::{read_snapshots, AtomicHistogram, ColumnarTelemetryExporter};
use bitdissem_obs::{Counter, TelemetryExporter, TelemetrySnapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn racing_snapshots_are_never_torn(
        writers in 2usize..6,
        adds_per_writer in 1u64..2_000,
    ) {
        let counter = Arc::new(Counter::new());
        let hist = Arc::new(AtomicHistogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        // Holds the writers back until the snapshotter is inside its
        // first pass; otherwise short writers can finish (and `stop` be
        // set) before the snapshotter thread is ever scheduled.
        let go = Arc::new(Barrier::new(writers + 1));

        // The snapshotter races the writers and checks the merge
        // invariants on every pass: a derived count that always equals
        // the bin sum (no torn rows), and per-location monotonicity
        // (relaxed loads of a single atomic are coherent, so a later
        // snapshot can never read an older value).
        let snap_counter = Arc::clone(&counter);
        let snap_hist = Arc::clone(&hist);
        let snap_stop = Arc::clone(&stop);
        let snap_go = Arc::clone(&go);
        let snapshotter = std::thread::spawn(move || {
            let mut last_total = 0u64;
            let mut last_bins: Vec<u64> = Vec::new();
            let mut snaps = 0u64;
            while !snap_stop.load(Ordering::Relaxed) {
                if snaps == 0 {
                    snap_go.wait();
                }
                let total = snap_counter.get();
                assert!(total >= last_total, "counter total went backwards");
                last_total = total;
                let h = snap_hist.snapshot();
                let bins = h.bin_counts().to_vec();
                assert_eq!(
                    h.count(),
                    bins.iter().sum::<u64>(),
                    "torn histogram: count disagrees with its bin sum"
                );
                if !last_bins.is_empty() {
                    for (now, then) in bins.iter().zip(&last_bins) {
                        assert!(now >= then, "a histogram bin went backwards");
                    }
                }
                last_bins = bins;
                snaps += 1;
            }
            snaps
        });

        let mut joins = Vec::new();
        for _ in 0..writers {
            let counter = Arc::clone(&counter);
            let hist = Arc::clone(&hist);
            let go = Arc::clone(&go);
            joins.push(std::thread::spawn(move || {
                go.wait();
                for i in 0..adds_per_writer {
                    counter.add(1);
                    // Samples spread from 50 to 63e6 over many buckets.
                    hist.record(50 + (i % 64) * 1_000_000);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let snaps = snapshotter.join().unwrap();
        prop_assert!(snaps > 0, "the snapshotter must have raced at least once");

        // Final totals equal the sum of per-worker contributions.
        let expected = writers as u64 * adds_per_writer;
        prop_assert_eq!(counter.get(), expected);
        prop_assert_eq!(hist.snapshot().count(), expected);
    }
}

/// A snapshot with enough rows (8 counters + 1 gauge) that a block tear
/// lands strictly inside one snapshot's payload.
fn sample_snapshot(version: u64) -> TelemetrySnapshot {
    TelemetrySnapshot {
        version,
        elapsed_us: version * 1_000,
        counters: (0..8).map(|i| (format!("c{i}"), version * 10 + i)).collect(),
        gauges: vec![("g".to_string(), version)],
        ..TelemetrySnapshot::default()
    }
}

/// Rows per [`sample_snapshot`]: its counters plus its gauge.
const ROWS_PER_SNAPSHOT: usize = 9;

fn export_snapshots(exporter: &mut ColumnarTelemetryExporter, n: u64) {
    for v in 1..=n {
        exporter.export(&sample_snapshot(v));
    }
    exporter.finish();
}

#[test]
fn crash_mid_snapshot_repairs_to_a_clean_prefix() {
    let dir =
        std::env::temp_dir().join(format!("bitdissem_telemetry_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("telemetry.bct");

    // Measure how many bytes three healthy snapshots need, then replay
    // the identical stream through a writer that dies a few bytes short
    // of the end — a crash mid-way through the last snapshot's block.
    let healthy = {
        let sink = ColumnarSink::create(&path).unwrap();
        let mut exporter = ColumnarTelemetryExporter::with_sink(Box::new(sink));
        export_snapshots(&mut exporter, 3);
        drop(exporter);
        usize::try_from(std::fs::metadata(&path).unwrap().len()).unwrap()
    };

    let file = std::fs::File::create(&path).unwrap();
    let writer = bitdissem_obs::FaultyWriter::new(file).with_tear_after(healthy - 7);
    let sink = ColumnarSink::from_writer(Box::new(writer)).unwrap();
    let mut exporter = ColumnarTelemetryExporter::with_sink(Box::new(sink));
    export_snapshots(&mut exporter, 3);
    drop(exporter);

    // The reader flags the tear; the torn third snapshot is dropped whole.
    let telemetry_rows = |reader: &ColumnarReader| {
        let mut rows = 0usize;
        for block in reader.blocks() {
            if let Block::TelemetrySample(cols) = block {
                rows += cols.len;
            }
        }
        rows
    };
    let reader = ColumnarReader::open(&path).unwrap();
    assert!(reader.torn_tail(), "the injected crash must be detected");
    let rows = telemetry_rows(&reader);
    assert_eq!(rows, 2 * ROWS_PER_SNAPSHOT, "one block per snapshot");
    let decoded: Vec<TelemetrySnapshot> = read_snapshots(&reader).collect();
    assert_eq!(decoded, [sample_snapshot(1), sample_snapshot(2)]);
    let (view, status) = dispatch(&Args::parse(["watch", path.to_str().unwrap()]));
    assert_eq!(status, Status::Ok, "{view}");
    assert!(view.contains("torn block"), "{view}");
    assert!(view.contains("snapshot v2 "), "watch renders the last whole snapshot:\n{view}");

    // repair() truncates the torn tail; the file is then a clean trace.
    let stats = repair(&path).unwrap();
    assert!(stats.bytes_truncated > 0, "{stats:?}");
    let reader = ColumnarReader::open(&path).unwrap();
    assert!(!reader.torn_tail(), "repair must leave a clean trace");
    assert_eq!(telemetry_rows(&reader), rows, "repair must keep the recovered prefix");

    let _ = std::fs::remove_dir_all(&dir);
}
