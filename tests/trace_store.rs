//! Columnar trace-store integration: the binary format must be a
//! lossless, damage-bounded carrier for real experiment event streams.
//!
//! Three contracts are gated here:
//!
//! 1. **Round-trip equality** — recording a real experiment through a
//!    `MemorySink` and round-tripping the stream through the columnar
//!    encoder reproduces the exact event sequence, and the event-push and
//!    column-block ingestion paths analyze it to byte-identical reports.
//! 2. **Truncation recovery (proptest)** — cutting a columnar trace at a
//!    *random* byte offset recovers a clean prefix of whole blocks or
//!    flags a torn tail; never garbage, never a panic. (The obs crate
//!    unit tests cut one fixed stream at every offset; here the stream
//!    itself is randomized.)
//! 3. **Fault-injected writers** — a columnar sink over a `FaultyWriter`
//!    (short writes, crash mid-block) leaves a file the reader recovers
//!    a prefix from and `repair` truncates back to a clean trace.
//! 4. **Concurrent writers** — rows emitted from many threads read back
//!    exactly once, each thread's in emission order, every one between
//!    the batch header it was emitted under and the next.

use std::sync::{Arc, Barrier, Mutex};

use bitdissem_experiments::trace::{analyze, TraceAccumulator, TraceAnalysis};
use bitdissem_experiments::{registry, RunConfig};
use bitdissem_obs::columnar::{repair, ColumnarReader, ColumnarSink, BLOCK_ROWS, MAGIC};
use bitdissem_obs::{Event, EventSink, FaultyWriter, MemorySink, Obs, ReplicationOutcome};
use proptest::prelude::*;

/// Runs `emit` against a fresh `ColumnarSink` over memory and returns
/// the finished file bytes.
fn record_columnar(emit: impl FnOnce(&Arc<ColumnarSink>)) -> Vec<u8> {
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let shared = Shared::default();
    let sink = Arc::new(ColumnarSink::from_writer(Box::new(shared.clone())).unwrap());
    emit(&sink);
    drop(Arc::into_inner(sink).expect("no clone of the sink outlives the recording"));
    let bytes = shared.0.lock().unwrap().clone();
    bytes
}

/// Encodes an event slice through a `ColumnarSink` into memory.
fn encode_columnar(events: &[Event]) -> Vec<u8> {
    record_columnar(|sink| events.iter().for_each(|ev| sink.emit(ev)))
}

#[test]
fn real_experiment_stream_round_trips_through_the_columnar_store() {
    // Record a real run — batch headers, round trajectories, results,
    // manifest — through the in-memory sink.
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::none().with_sink(Arc::clone(&sink) as _);
    let cfg = RunConfig::smoke(20_260_808);
    registry::run_observed("e2", &cfg, &obs).expect("registered id");
    let stream = sink.events();
    assert!(stream.len() > 100, "a smoke run produces a substantial stream");

    // Columnar round trip: exact event equality, in order.
    let reader = ColumnarReader::from_bytes(encode_columnar(&stream)).unwrap();
    assert!(!reader.torn_tail());
    let columnar_back: Vec<Event> = reader.events().collect();
    assert_eq!(columnar_back, stream);

    // Both ingestion paths produce byte-identical analytics: the
    // event-push path (in-memory streams) and the zero-copy block path
    // (recorded traces).
    let via_events = analyze(&stream);
    let mut acc = TraceAccumulator::new();
    for block in reader.blocks() {
        acc.ingest_block(&block);
    }
    let via_blocks = acc.finish();
    assert_eq!(via_events.render(), via_blocks.render());
    assert_eq!(via_events.has_violations(), via_blocks.has_violations());
}

#[test]
fn faulty_writer_tear_is_recovered_and_repaired() {
    let dir =
        std::env::temp_dir().join(format!("bitdissem_trace_store_fault_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faulty.bct");

    // A sink whose writer accepts at most 7 bytes per call and dies
    // after 600 bytes — short writes plus a crash mid-block.
    let file = std::fs::File::create(&path).unwrap();
    let faulty = FaultyWriter::new(file).with_short_writes(7).with_tear_after(600);
    let sink = ColumnarSink::from_writer(Box::new(faulty)).unwrap();
    for r in 0..2000u64 {
        sink.emit(&Event::RoundCompleted {
            rep: r / 100,
            round: r % 100,
            ones: r,
            source_opinion: 1,
        });
        if r % 100 == 99 {
            sink.emit(&Event::ReplicationFinished {
                rep: r / 100,
                outcome: ReplicationOutcome::Converged,
                rounds: 100,
                elapsed_us: r,
            });
            sink.flush();
        }
    }
    drop(sink);

    // NOTE: `ColumnarSink` swallows write errors by contract, so the file
    // now ends wherever the writer died.
    let reader = ColumnarReader::open(&path).unwrap();
    assert!(reader.torn_tail(), "the injected crash must leave a torn tail");
    let recovered = reader.event_count();

    let stats = repair(&path).unwrap();
    assert_eq!(stats.events_kept, recovered);
    assert!(stats.bytes_truncated > 0);
    let clean = ColumnarReader::open(&path).unwrap();
    assert!(!clean.torn_tail(), "repair must leave a clean trace");
    assert_eq!(clean.event_count(), recovered);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Hot row number `seq` of writer `thread` in phase `phase`, all three
/// carried in the row. Thread 0 writes one long `RoundCompleted` run, so
/// its stripe seals full blocks mid-run; the others switch type every
/// 3 to 7 rows.
fn hot_row(thread: u64, seq: u64, phase: u64) -> Event {
    let kind = if thread == 0 { 0 } else { (seq / (3 + thread % 5) + thread) % 3 };
    match kind {
        0 => Event::RoundCompleted { rep: thread, round: seq, ones: phase, source_opinion: 1 },
        1 => Event::ReplicationFinished {
            rep: thread,
            outcome: ReplicationOutcome::Converged,
            rounds: seq,
            elapsed_us: phase,
        },
        _ => Event::ConsensusExited { rep: thread, entered: seq, exited: phase },
    }
}

fn phase_header(phase: u64) -> Event {
    Event::BatchStarted {
        kind: "conv".to_string(),
        protocol: "voter".to_string(),
        ell: 1,
        n: 64,
        x0: 1,
        source_opinion: 1,
        reps: 0,
        budget: 0,
        seed: phase,
        g0: vec![0.0, 1.0],
        g1: vec![0.0, 1.0],
    }
}

#[test]
fn concurrent_writers_keep_thread_order_between_batch_headers() {
    // 20 writers outnumber the sink's stripes, so some threads share one.
    const PHASES: u64 = 3;
    for threads in [2u64, 20] {
        let rows = |thread: u64| if thread == 0 { BLOCK_ROWS as u64 + 100 } else { 500 };
        let bytes = record_columnar(|sink| {
            // Two barrier waits per phase: after the header is emitted,
            // and after every writer has finished the phase — as a pool
            // batch runs between its header and the next one.
            let barrier = Barrier::new(threads as usize + 1);
            std::thread::scope(|s| {
                for thread in 0..threads {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut seq = 0;
                        for phase in 0..PHASES {
                            barrier.wait();
                            for _ in 0..rows(thread) {
                                sink.emit(&hot_row(thread, seq, phase));
                                seq += 1;
                            }
                            barrier.wait();
                        }
                    });
                }
                for phase in 0..PHASES {
                    sink.emit(&phase_header(phase));
                    barrier.wait();
                    barrier.wait();
                }
            });
        });

        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert!(!reader.torn_tail());
        let mut phase = None;
        let mut next_seq = vec![0u64; threads as usize];
        for ev in reader.events() {
            let (thread, seq, row_phase) = match ev {
                Event::BatchStarted { seed, .. } => {
                    assert_eq!(seed, phase.map_or(0, |p| p + 1), "headers out of order");
                    phase = Some(seed);
                    continue;
                }
                Event::RoundCompleted { rep, round, ones, .. } => (rep, round, ones),
                Event::ReplicationFinished { rep, rounds, elapsed_us, .. } => {
                    (rep, rounds, elapsed_us)
                }
                Event::ConsensusExited { rep, entered, exited } => (rep, entered, exited),
                other => panic!("unexpected event {other:?}"),
            };
            assert_eq!(Some(row_phase), phase, "{threads} writers: row outside its batch");
            assert_eq!(seq, next_seq[thread as usize], "{threads} writers: thread {thread}");
            assert_eq!(ev, hot_row(thread, seq, row_phase));
            next_seq[thread as usize] += 1;
        }
        assert_eq!(phase, Some(PHASES - 1));
        let expected: Vec<u64> = (0..threads).map(|t| PHASES * rows(t)).collect();
        assert_eq!(next_seq, expected, "{threads} writers: every row exactly once");
    }
}

/// Per batch: the header, then its round rows and `(rep, converged,
/// rounds)` results, sorted — a multiset, free of the order threads
/// interleave in and of wall-clock `elapsed_us`.
type BatchContents = (Event, Vec<(u64, u64, u64, u8)>, Vec<(u64, bool, u64)>);

fn batch_contents(events: &[Event]) -> Vec<BatchContents> {
    let mut batches: Vec<BatchContents> = Vec::new();
    for ev in events {
        match ev {
            Event::BatchStarted { .. } => batches.push((ev.clone(), Vec::new(), Vec::new())),
            Event::RoundCompleted { rep, round, ones, source_opinion } => {
                let batch = batches.last_mut().expect("rows follow a header");
                batch.1.push((*rep, *round, *ones, *source_opinion));
            }
            Event::ReplicationFinished { rep, outcome, rounds, .. } => {
                let batch = batches.last_mut().expect("results follow a header");
                batch.2.push((*rep, *outcome == ReplicationOutcome::Converged, *rounds));
            }
            _ => {}
        }
    }
    for batch in &mut batches {
        batch.1.sort_unstable();
        batch.2.sort_unstable();
    }
    batches
}

#[test]
fn threaded_run_records_the_same_batches_through_both_sinks() {
    let cfg = RunConfig { threads: Some(4), ..RunConfig::smoke(20_260_808) };
    let memory = Arc::new(MemorySink::new());
    registry::run_observed("e2", &cfg, &Obs::none().with_sink(Arc::clone(&memory) as _))
        .expect("registered id");
    let bytes = record_columnar(|sink| {
        registry::run_observed("e2", &cfg, &Obs::none().with_sink(Arc::clone(sink) as _))
            .expect("registered id");
    });
    let reader = ColumnarReader::from_bytes(bytes).unwrap();
    assert!(!reader.torn_tail());
    let columnar: Vec<Event> = reader.events().collect();
    let memory = memory.events();
    let batches = batch_contents(&memory);
    assert!(batches.len() > 1 && batches.iter().all(|b| !b.1.is_empty()));
    assert_eq!(batch_contents(&columnar), batches);

    // The Prop-4/Prop-5 checks see the same trajectories either way.
    let mut acc = TraceAccumulator::new();
    for block in reader.blocks() {
        acc.ingest_block(&block);
    }
    let checks = |a: &TraceAnalysis| {
        a.batches
            .iter()
            .map(|b| (b.meta.clone(), b.replications, b.converged, b.conformance.clone()))
            .collect::<Vec<_>>()
    };
    let via_memory = analyze(&memory);
    assert_eq!(checks(&acc.finish()), checks(&via_memory));
    assert!(!via_memory.has_violations(), "{}", via_memory.render());
}

/// Strategy over arbitrary events mixing every hot variant plus batch
/// headers (with variable-width `g`-tables) and string-bearing
/// experiment brackets. The vendored proptest shim has no `prop_oneof`,
/// so a discriminant plus raw fields are mapped into the variant; the
/// weights skew toward the hot `RoundCompleted` shape. Strings come
/// from small fixed pools so the dictionary sees both hits and misses.
fn event_strategy() -> impl Strategy<Value = Event> {
    const IDS: [&str; 4] = ["e1", "e2", "e7", "x"];
    const KINDS: [&str; 3] = ["conv", "seqconv", "cross"];
    const NAMES: [&str; 4] = ["voter", "minority", "two-choices", ""];
    (0usize..10, proptest::collection::vec(0u64..1_000_000, 6), 0usize..4, 1usize..6).prop_map(
        |(disc, f, s, glen)| {
            let bit = (f[0] % 2) as u8;
            let gs = |off: usize| -> Vec<f64> {
                (0..glen).map(|i| (f[(off + i) % 6] % 1025) as f64 / 1024.0).collect()
            };
            match disc {
                0..=4 => Event::RoundCompleted {
                    rep: f[1],
                    round: f[2],
                    ones: f[3],
                    source_opinion: bit,
                },
                5 | 6 => Event::ReplicationFinished {
                    rep: f[1],
                    outcome: if bit == 1 {
                        ReplicationOutcome::Converged
                    } else {
                        ReplicationOutcome::TimedOut
                    },
                    rounds: f[2],
                    elapsed_us: f[3],
                },
                7 => Event::ConsensusExited { rep: f[1], entered: f[2], exited: f[3] },
                8 => Event::ExperimentStarted {
                    id: IDS[s].to_string(),
                    title: NAMES[s].to_string(),
                    seed: f[1],
                    scale: KINDS[s % 3].to_string(),
                },
                _ => Event::BatchStarted {
                    kind: KINDS[s % 3].to_string(),
                    protocol: NAMES[s].to_string(),
                    ell: 1 + f[1] % 64,
                    n: 1 + f[2] % 4096,
                    x0: f[3],
                    source_opinion: bit,
                    reps: f[4],
                    budget: f[5],
                    seed: f[0],
                    g0: gs(0),
                    g1: gs(3),
                },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cutting a columnar trace of a random event stream at a random
    /// byte offset recovers a clean prefix of the stream — all complete
    /// blocks — or nothing, and mid-block cuts are flagged torn.
    #[test]
    fn random_truncation_recovers_a_clean_prefix(
        events in proptest::collection::vec(event_strategy(), 1..120),
        cut_frac in 0.0f64..=1.0,
    ) {
        let full = encode_columnar(&events);
        prop_assert!(full.len() > MAGIC.len());
        let span = full.len() - MAGIC.len();
        let cut = MAGIC.len() + ((span as f64) * cut_frac) as usize;
        let cut = cut.min(full.len());

        let reader = ColumnarReader::from_bytes(full[..cut].to_vec()).unwrap();
        let recovered: Vec<Event> = reader.events().collect();
        prop_assert!(recovered.len() <= events.len());
        prop_assert_eq!(&recovered[..], &events[..recovered.len()]);
        if !reader.torn_tail() && cut == full.len() {
            prop_assert_eq!(recovered.len(), events.len());
        }
        // Losing events silently (no torn flag, short of the full file)
        // is the one forbidden outcome.
        if recovered.len() < events.len() && cut == full.len() {
            prop_assert!(false, "full file must recover everything");
        }
        if !reader.torn_tail() {
            // An untorn read means the cut landed on a block boundary:
            // re-encoding the recovered prefix must reproduce the bytes.
            let reencoded = encode_columnar(&recovered);
            prop_assert_eq!(&full[..cut], &reencoded[..]);
        }
    }

    /// The columnar encoding is canonical for a given stream: encode →
    /// decode → encode is a fixed point.
    #[test]
    fn encode_decode_encode_is_a_fixed_point(
        events in proptest::collection::vec(event_strategy(), 0..80),
    ) {
        let first = encode_columnar(&events);
        let reader = ColumnarReader::from_bytes(first.clone()).unwrap();
        let decoded: Vec<Event> = reader.events().collect();
        prop_assert_eq!(&decoded, &events);
        let second = encode_columnar(&decoded);
        prop_assert_eq!(first, second);
    }
}
