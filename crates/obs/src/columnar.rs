//! Append-only binary columnar trace store.
//!
//! The one on-disk trace format: everything `--trace-out` records and
//! `bitdissem trace` reads. Events are packed **per event type into
//! per-field binary columns**, framed into self-checking blocks, so a
//! reader can stream a typed column (`ones`, `round`, …) straight off the
//! file bytes without constructing a single event or string. JSONL is an
//! export only: `bitdissem trace convert run.bct run.jsonl` writes each
//! event's [`Event::to_json`] line, and nothing reads JSONL back.
//!
//! # On-disk layout
//!
//! ```text
//! [8-byte magic "BDCT0002"]
//! [block][block][block]…
//!
//! block := [u8 type-id][u32 row-count][u32 payload-len][u64 xxh64 checksum of payload]
//!          [payload: the block's columns, concatenated field by field]
//! ```
//!
//! All integers are little-endian. Fixed-width fields (`u64`, `u8`,
//! `f64`, dictionary ids as `u32`) serialize as `row-count` consecutive
//! values per column; variable-width columns (the `g`-table rows of a
//! batch header, embedded manifest JSON) serialize each row as
//! `[u32 len][bytes…]`. Strings are **dictionary-encoded**: a string
//! column stores `u32` ids into a file-global dictionary, and dictionary
//! entries ride in dedicated blocks (type 0) emitted *before* the first
//! block that references them, with densely increasing ids — so a
//! sequential scan always resolves every reference.
//!
//! The checksum is [`xxh64`] with seed 0 over the payload bytes.
//!
//! # Versions
//!
//! The sink writes version `0002` only. Version `0001` ([`MAGIC_V1`]) has
//! the same layout, byte for byte, except that each block's checksum is
//! [`fnv1a64`]: FNV-1a works one byte at a time, which made it a large
//! share of a recorded run's CPU time. [`ColumnarReader`] picks the
//! checksum from the file's magic, so traces of either version read,
//! analyze, convert and [`repair`] alike, and a repaired file keeps its
//! own magic. A file that starts with `BDCT` and four other digits is a
//! columnar trace of a version this build does not know: it is rejected
//! with an error that names the version, not read as "not a trace".
//!
//! # Order and batch grouping
//!
//! A block holds a **run** of consecutive same-typed events. The sink is
//! striped so that recording never serialises the worker pool: each
//! emitting thread appends the hot rows (`RoundCompleted`,
//! `ReplicationFinished`, `ConsensusExited`) to its own stripe (see
//! [`crate::telemetry::thread_slot`]) and seals the run there when the
//! event type changes or the run reaches [`BLOCK_ROWS`] rows — building
//! and checksumming the frame itself, taking the shared writer lock only
//! to write it. Rare, string-bearing events (dictionary entries, batch
//! headers, experiment brackets, manifests, telemetry samples) first seal
//! every stripe, and so do [`EventSink::flush`] and drop. Expanding
//! blocks in file order therefore reproduces
//!
//! - each thread's events in that thread's emission order, and
//! - the order between a rare event and every event that happens before
//!   or after it, in any thread: a batch's rows sit between its
//!   `BatchStarted` header and the next one, since batch calls block.
//!
//! Rows that different threads emit between the same two rare events
//! may interleave in any block order. A single-threaded stream is
//! reproduced exactly, so its `trace convert` export is in emission order.
//!
//! # Torn-tail semantics
//!
//! The trace sink is best-effort by design (a full disk must not abort a
//! simulation), so a crashed writer can leave a torn final block. The
//! framing makes the damage detectable and bounded, mirroring
//! [`crate::CheckpointLog`]'s JSONL contract: a reader walks blocks from
//! the front, validating the header geometry, the checksum and the
//! column structure of every block, and treats the first invalid frame
//! as the torn tail — every complete block before it is recovered, and
//! [`repair`] physically truncates the file back to the last valid block
//! boundary with an atomic rewrite, exactly as `CheckpointLog::open`
//! repairs its log.

use crate::durable::atomic_replace;
use crate::event::{Event, ReplicationOutcome};
use crate::json;
use crate::manifest::RunManifest;
use crate::sink::EventSink;
use crate::telemetry::{thread_slot, CachePadded, STRIPES};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// File magic of the layout the sink writes: `BDCT` plus the four-digit
/// layout version, `0002`. Blocks carry an [`xxh64`] checksum; the
/// earlier [`MAGIC_V1`] layout is read too (see the module docs).
pub const MAGIC: [u8; 8] = *b"BDCT0002";

/// File magic of layout version `0001`: identical to [`MAGIC`]'s but for
/// the block checksum, which is [`fnv1a64`]. The reader keeps this path
/// for traces of earlier runs; nothing writes it.
pub const MAGIC_V1: [u8; 8] = *b"BDCT0001";

/// Rows per block before the sink seals it even mid-run. Each of the
/// sink's [`STRIPES`] buffers at most one open run, so a sink holds at
/// most `STRIPES × BLOCK_ROWS` hot rows (plus one open run of rare
/// events, itself at most `BLOCK_ROWS` rows) — which bounds both its
/// buffer memory and the worst-case tail loss after a crash.
pub const BLOCK_ROWS: usize = 4096;

/// Block header size: type id (1) + row count (4) + payload len (4) +
/// checksum (8).
const HEADER_LEN: usize = 17;

/// Block type ids. 0 is the dictionary; the rest mirror the [`Event`]
/// variants.
mod ty {
    pub const DICT: u8 = 0;
    pub const EXPERIMENT_STARTED: u8 = 1;
    pub const EXPERIMENT_FINISHED: u8 = 2;
    pub const BATCH_STARTED: u8 = 3;
    pub const REPLICATION_FINISHED: u8 = 4;
    pub const ROUND_COMPLETED: u8 = 5;
    pub const CONSENSUS_EXITED: u8 = 6;
    pub const MANIFEST: u8 = 7;
    pub const TELEMETRY_SAMPLE: u8 = 8;
    pub const MAX: u8 = TELEMETRY_SAMPLE;
}

/// FNV-1a 64-bit over `bytes`: the block checksum of layout `0001`
/// ([`MAGIC_V1`]). It hashes one byte per multiply, so it runs at about
/// 1.6 ns/byte.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2)).rotate_left(31).wrapping_mul(XXH_P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word"))
}

/// xxHash64 with seed 0 over `bytes`: the block checksum of layout
/// `0002` ([`MAGIC`]). Four independent 8-byte lanes take 32 bytes per
/// step, so it runs at about 0.11 ns/byte, near memory speed, and still
/// detects torn writes and bit rot in a block payload.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc = [XXH_P1.wrapping_add(XXH_P2), XXH_P2, 0, XXH_P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh_round(*a, le_u64(lane));
            }
        }
        let mut h = acc[0].rotate_left(1);
        h = h.wrapping_add(acc[1].rotate_left(7));
        h = h.wrapping_add(acc[2].rotate_left(12));
        h = h.wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = (h ^ xxh_round(0, a)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
        }
        h
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word))).rotate_left(27).wrapping_mul(XXH_P1);
        h = h.wrapping_add(XXH_P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word"));
        h = (h ^ u64::from(half).wrapping_mul(XXH_P1)).rotate_left(23).wrapping_mul(XXH_P2);
        h = h.wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5)).rotate_left(11).wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// The block checksum of the layout a file's leading bytes name, or
/// `None` when they are not a layout this build reads.
fn checksum_for(magic: &[u8]) -> Option<fn(&[u8]) -> u64> {
    match magic {
        m if m == MAGIC => Some(xxh64),
        m if m == MAGIC_V1 => Some(fnv1a64),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// One buffered `BatchStarted` row (dictionary ids already interned).
struct BatchRow {
    kind: u32,
    protocol: u32,
    ell: u64,
    n: u64,
    x0: u64,
    source_opinion: u8,
    reps: u64,
    budget: u64,
    seed: u64,
    g0: Vec<f64>,
    g1: Vec<f64>,
}

/// Row buffers of the open run of rare events, per type. The type-switch
/// sealing policy guarantees at most one buffer is non-empty at any time.
#[derive(Default)]
struct Buffers {
    experiment_started: Vec<(u32, u32, u64, u32)>,
    experiment_finished: Vec<(u32, u8, u64)>,
    batch_started: Vec<BatchRow>,
    manifest: Vec<String>,
    telemetry_sample: Vec<(u32, u64, u64, u64)>,
}

/// The file and everything that is ordered through it: the dictionary
/// and the open run of rare events.
struct Writer {
    out: Box<dyn Write + Send>,
    buffers: Buffers,
    /// Type id of the open (possibly empty) rare run; sealing happens
    /// when a differently-typed rare event arrives.
    open_type: Option<u8>,
    /// String → dictionary id, for every string interned so far.
    dict: HashMap<String, u32>,
    /// Interned entries not yet written to a dictionary block, in id
    /// order (ids are dense, so `pending` always ends at `dict.len()`).
    pending_dict: Vec<String>,
}

/// Column widths in bytes, in field order, of the three hot row types.
const ROUND_COLS: [usize; 4] = [8, 8, 8, 1];
const FINISHED_COLS: [usize; 4] = [8, 1, 8, 8];
const EXITED_COLS: [usize; 3] = [8, 8, 8];
/// The widest hot row in bytes: a stripe's frame holds `BLOCK_ROWS` of
/// them.
const HOT_ROW_MAX: usize = 25;

fn hot_cols(type_id: u8) -> &'static [usize] {
    match type_id {
        ty::ROUND_COMPLETED => &ROUND_COLS,
        ty::REPLICATION_FINISHED => &FINISHED_COLS,
        ty::CONSENSUS_EXITED => &EXITED_COLS,
        _ => unreachable!("only hot rows are buffered on stripes"),
    }
}

/// One stripe's open run of hot rows, written column by column straight
/// into the frame it will be sealed as.
#[derive(Default)]
struct Stripe {
    /// Type id of the open run (meaningless while `rows` is 0).
    type_id: u8,
    rows: usize,
    /// Block header, then the open run's columns, each reserved
    /// `BLOCK_ROWS` rows wide. Allocated on the stripe's first row and
    /// reused across seals.
    frame: Vec<u8>,
}

impl Stripe {
    /// Appends one row of `type_id` whose fields are `cols` bytes wide.
    /// The caller has sealed any run the row does not fit.
    #[inline]
    fn push<const N: usize>(&mut self, type_id: u8, fields: [u64; N], cols: &[usize; N]) {
        if self.frame.is_empty() {
            self.frame = vec![0; HEADER_LEN + BLOCK_ROWS * HOT_ROW_MAX];
        }
        self.type_id = type_id;
        let mut column = HEADER_LEN;
        for (&value, &width) in fields.iter().zip(cols) {
            let at = column + self.rows * width;
            // Fixed-size stores: a copy of run-time length would be a
            // `memcpy` call per field.
            if width == 8 {
                self.frame[at..at + 8].copy_from_slice(&value.to_le_bytes());
            } else {
                self.frame[at] = value as u8;
            }
            column += BLOCK_ROWS * width;
        }
        self.rows += 1;
    }

    /// Whether a row of `type_id` must start a new run.
    fn needs_seal(&self, type_id: u8) -> bool {
        self.rows > 0 && (self.type_id != type_id || self.rows == BLOCK_ROWS)
    }

    /// Closes the open run into a finished block — columns packed to
    /// `rows` values each, header and checksum in front — and returns its
    /// bytes, or `None` when no rows are open. Leaves the stripe empty.
    fn seal(&mut self) -> Option<&[u8]> {
        if self.rows == 0 {
            return None;
        }
        let rows = std::mem::take(&mut self.rows);
        // Each column moves down to follow the packed one before it; a
        // destination never reaches past its own source, so no later
        // column is overwritten before it moves. A full run is packed
        // already.
        let (mut from, mut to) = (HEADER_LEN, HEADER_LEN);
        for &width in hot_cols(self.type_id) {
            if from != to {
                self.frame.copy_within(from..from + rows * width, to);
            }
            from += BLOCK_ROWS * width;
            to += rows * width;
        }
        let (header, payload) = self.frame[..to].split_at_mut(HEADER_LEN);
        header.copy_from_slice(&block_header(self.type_id, rows, payload));
        Some(&self.frame[..to])
    }
}

/// Binary columnar [`EventSink`]: buffers events per type and writes
/// framed column blocks, striped per emitting thread (see the module
/// docs for the order this keeps). It is best-effort — I/O errors end
/// the trace early instead of aborting the simulation — and it flushes on
/// [`EventSink::flush`] and on drop.
pub struct ColumnarSink {
    /// Open runs of hot rows, indexed by [`thread_slot`]. Lock order: a
    /// stripe, then the writer.
    stripes: Box<[CachePadded<Mutex<Stripe>>]>,
    writer: Mutex<Writer>,
    /// Whether `writer` holds an open rare run. Changed only under the
    /// writer lock. The `Release` store after a rare event pairs with the
    /// `Acquire` load on every hot row, so a row emitted after a rare
    /// event (in any thread) first writes that event's block.
    rare_open: AtomicBool,
}

impl ColumnarSink {
    /// Creates (truncating) the columnar trace at `path` and writes the
    /// file magic.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created or the
    /// magic cannot be written.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Self::from_writer(Box::new(BufWriter::new(file)))
    }

    /// Builds a sink over an arbitrary writer — the fault-injection seam
    /// (wrap a file in [`crate::FaultyWriter`]) and the unit-test seam.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the magic cannot be written.
    pub fn from_writer(mut out: Box<dyn Write + Send>) -> std::io::Result<Self> {
        out.write_all(&MAGIC)?;
        Ok(ColumnarSink {
            stripes: (0..STRIPES).map(|_| CachePadded::default()).collect(),
            writer: Mutex::new(Writer {
                out,
                buffers: Buffers::default(),
                open_type: None,
                dict: HashMap::new(),
                pending_dict: Vec::new(),
            }),
            rare_open: AtomicBool::new(false),
        })
    }

    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().expect("columnar sink poisoned")
    }

    /// Locks the calling thread's stripe, sealing first the open rare run
    /// so that the rows pushed under the lock land after it.
    fn hot_stripe(&self) -> MutexGuard<'_, Stripe> {
        if self.rare_open.load(Ordering::Acquire) {
            drop(self.seal_rare());
        }
        self.stripes[thread_slot()].0.lock().expect("columnar sink poisoned")
    }

    /// Appends a hot row to the calling thread's stripe, sealing the
    /// stripe's own run first if the row does not fit it.
    fn push_hot<const N: usize>(&self, type_id: u8, fields: [u64; N], cols: &[usize; N]) {
        let mut stripe = self.hot_stripe();
        if stripe.needs_seal(type_id) {
            self.seal_stripe(&mut stripe);
        }
        stripe.push(type_id, fields, cols);
    }

    /// Writes a stripe's open run. The frame is built and checksummed
    /// before the writer lock is taken, so that lock covers the write
    /// alone.
    fn seal_stripe(&self, stripe: &mut Stripe) {
        if let Some(frame) = stripe.seal() {
            // Best effort, like every write here: an I/O error ends the
            // trace early.
            let _ = self.lock_writer().out.write_all(frame);
        }
    }

    fn seal_stripes(&self) {
        for stripe in self.stripes.iter() {
            self.seal_stripe(&mut stripe.0.lock().expect("columnar sink poisoned"));
        }
    }

    /// Writes the open rare run and returns the writer, still locked.
    fn seal_rare(&self) -> MutexGuard<'_, Writer> {
        let mut writer = self.lock_writer();
        writer.seal();
        self.rare_open.store(false, Ordering::Release);
        writer
    }
}

impl Writer {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.dict.get(s) {
            return id;
        }
        let id = u32::try_from(self.dict.len()).expect("< 2^32 distinct strings per trace");
        self.dict.insert(s.to_string(), id);
        self.pending_dict.push(s.to_string());
        id
    }

    fn buffered_rows(&self, type_id: u8) -> usize {
        let b = &self.buffers;
        match type_id {
            ty::EXPERIMENT_STARTED => b.experiment_started.len(),
            ty::EXPERIMENT_FINISHED => b.experiment_finished.len(),
            ty::BATCH_STARTED => b.batch_started.len(),
            ty::MANIFEST => b.manifest.len(),
            ty::TELEMETRY_SAMPLE => b.telemetry_sample.len(),
            _ => 0,
        }
    }

    /// Serializes and writes the open rare run's block (plus any pending
    /// dictionary block), clearing the buffer. Errors are swallowed: the
    /// trace just ends early.
    fn seal(&mut self) {
        let Some(type_id) = self.open_type else { return };
        let count = self.buffered_rows(type_id);
        if count == 0 {
            return;
        }
        // Dictionary entries referenced by this block must land first.
        if !self.pending_dict.is_empty() {
            let first_id = self.dict.len() - self.pending_dict.len();
            let mut payload = Vec::new();
            for (i, s) in self.pending_dict.iter().enumerate() {
                put_u32(&mut payload, u32::try_from(first_id + i).expect("dense ids"));
                put_bytes(&mut payload, s.as_bytes());
            }
            let n = self.pending_dict.len();
            self.pending_dict.clear();
            let _ = write_block(&mut self.out, ty::DICT, n, &payload);
        }
        let payload = serialize_payload(type_id, &mut self.buffers);
        let _ = write_block(&mut self.out, type_id, count, &payload);
    }

    /// Buffers a rare event in the open rare run.
    fn push(&mut self, event: &Event) {
        let type_id = event_type_id(event);
        if self.open_type != Some(type_id) || self.buffered_rows(type_id) >= BLOCK_ROWS {
            self.seal();
            self.open_type = Some(type_id);
        }
        match event {
            Event::ExperimentStarted { id, title, seed, scale } => {
                let row = (self.intern(id), self.intern(title), *seed, self.intern(scale));
                self.buffers.experiment_started.push(row);
            }
            Event::ExperimentFinished { id, pass, elapsed_us } => {
                let row = (self.intern(id), u8::from(*pass), *elapsed_us);
                self.buffers.experiment_finished.push(row);
            }
            Event::BatchStarted {
                kind,
                protocol,
                ell,
                n,
                x0,
                source_opinion,
                reps,
                budget,
                seed,
                g0,
                g1,
            } => {
                let row = BatchRow {
                    kind: self.intern(kind),
                    protocol: self.intern(protocol),
                    ell: *ell,
                    n: *n,
                    x0: *x0,
                    source_opinion: *source_opinion,
                    reps: *reps,
                    budget: *budget,
                    seed: *seed,
                    g0: g0.clone(),
                    g1: g1.clone(),
                };
                self.buffers.batch_started.push(row);
            }
            Event::Manifest(m) => self.buffers.manifest.push(m.to_json()),
            Event::TelemetrySample { series, version, elapsed_us, value } => {
                let row = (self.intern(series), *version, *elapsed_us, *value);
                self.buffers.telemetry_sample.push(row);
            }
            Event::ReplicationFinished { .. }
            | Event::RoundCompleted { .. }
            | Event::ConsensusExited { .. } => {
                unreachable!("hot rows are buffered on stripes")
            }
        }
    }
}

impl EventSink for ColumnarSink {
    fn emit(&self, event: &Event) {
        match *event {
            Event::RoundCompleted { rep, round, ones, source_opinion } => {
                let fields = [rep, round, ones, u64::from(source_opinion)];
                self.push_hot(ty::ROUND_COMPLETED, fields, &ROUND_COLS);
            }
            Event::ReplicationFinished { rep, outcome, rounds, elapsed_us } => {
                let converged = u64::from(matches!(outcome, ReplicationOutcome::Converged));
                let fields = [rep, converged, rounds, elapsed_us];
                self.push_hot(ty::REPLICATION_FINISHED, fields, &FINISHED_COLS);
            }
            Event::ConsensusExited { rep, entered, exited } => {
                self.push_hot(ty::CONSENSUS_EXITED, [rep, entered, exited], &EXITED_COLS);
            }
            _ => {
                // Everything emitted before a rare event lands before it.
                self.seal_stripes();
                let mut writer = self.lock_writer();
                writer.push(event);
                self.rare_open.store(true, Ordering::Release);
            }
        }
    }

    /// Checks for an open rare run and takes the stripe lock once per
    /// call, not once per row. A rare event of this thread cannot fall
    /// between the rows, so the bytes are those of the per-row `emit`
    /// loop; one of another thread waits for the lock and lands after
    /// them, an order the per-row loop may produce too.
    fn emit_rounds(&self, round: u64, source_opinion: u8, reps: &[u64], ones: &[u64]) {
        assert_eq!(reps.len(), ones.len(), "one ones-count per replica label");
        // The per-row loop over no rows would not seal the rare run.
        if reps.is_empty() {
            return;
        }
        let mut stripe = self.hot_stripe();
        for (&rep, &ones) in reps.iter().zip(ones) {
            if stripe.needs_seal(ty::ROUND_COMPLETED) {
                self.seal_stripe(&mut stripe);
            }
            let fields = [rep, round, ones, u64::from(source_opinion)];
            stripe.push(ty::ROUND_COMPLETED, fields, &ROUND_COLS);
        }
    }

    fn flush(&self) {
        self.seal_stripes();
        let _ = self.seal_rare().out.flush();
    }
}

impl Drop for ColumnarSink {
    fn drop(&mut self) {
        // No other reference is left, so no locks are taken; a poisoned
        // one is skipped, since a panic in drop would abort.
        let Ok(writer) = self.writer.get_mut() else { return };
        for stripe in self.stripes.iter_mut() {
            if let Some(frame) = stripe.0.get_mut().ok().and_then(Stripe::seal) {
                let _ = writer.out.write_all(frame);
            }
        }
        writer.seal();
        let _ = writer.out.flush();
    }
}

impl std::fmt::Debug for ColumnarSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarSink").finish_non_exhaustive()
    }
}

fn event_type_id(event: &Event) -> u8 {
    match event {
        Event::ExperimentStarted { .. } => ty::EXPERIMENT_STARTED,
        Event::ExperimentFinished { .. } => ty::EXPERIMENT_FINISHED,
        Event::BatchStarted { .. } => ty::BATCH_STARTED,
        Event::ReplicationFinished { .. } => ty::REPLICATION_FINISHED,
        Event::RoundCompleted { .. } => ty::ROUND_COMPLETED,
        Event::ConsensusExited { .. } => ty::CONSENSUS_EXITED,
        Event::Manifest(_) => ty::MANIFEST,
        Event::TelemetrySample { .. } => ty::TELEMETRY_SAMPLE,
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("var-length field < 4 GiB"));
    out.extend_from_slice(bytes);
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_u32(out, u32::try_from(xs.len()).expect("g-table row < 2^32"));
    for &x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Serializes (and drains) the buffer for `type_id` into a column
/// payload: each field's values for every row, field by field.
fn serialize_payload(type_id: u8, buffers: &mut Buffers) -> Vec<u8> {
    let mut p = Vec::new();
    match type_id {
        ty::EXPERIMENT_STARTED => {
            let rows = std::mem::take(&mut buffers.experiment_started);
            rows.iter().for_each(|r| put_u32(&mut p, r.0));
            rows.iter().for_each(|r| put_u32(&mut p, r.1));
            rows.iter().for_each(|r| put_u64(&mut p, r.2));
            rows.iter().for_each(|r| put_u32(&mut p, r.3));
        }
        ty::EXPERIMENT_FINISHED => {
            let rows = std::mem::take(&mut buffers.experiment_finished);
            rows.iter().for_each(|r| put_u32(&mut p, r.0));
            rows.iter().for_each(|r| p.push(r.1));
            rows.iter().for_each(|r| put_u64(&mut p, r.2));
        }
        ty::BATCH_STARTED => {
            let rows = std::mem::take(&mut buffers.batch_started);
            rows.iter().for_each(|r| put_u32(&mut p, r.kind));
            rows.iter().for_each(|r| put_u32(&mut p, r.protocol));
            rows.iter().for_each(|r| put_u64(&mut p, r.ell));
            rows.iter().for_each(|r| put_u64(&mut p, r.n));
            rows.iter().for_each(|r| put_u64(&mut p, r.x0));
            rows.iter().for_each(|r| p.push(r.source_opinion));
            rows.iter().for_each(|r| put_u64(&mut p, r.reps));
            rows.iter().for_each(|r| put_u64(&mut p, r.budget));
            rows.iter().for_each(|r| put_u64(&mut p, r.seed));
            rows.iter().for_each(|r| put_f64s(&mut p, &r.g0));
            rows.iter().for_each(|r| put_f64s(&mut p, &r.g1));
        }
        ty::MANIFEST => {
            let rows = std::mem::take(&mut buffers.manifest);
            rows.iter().for_each(|r| put_bytes(&mut p, r.as_bytes()));
        }
        ty::TELEMETRY_SAMPLE => {
            let rows = std::mem::take(&mut buffers.telemetry_sample);
            rows.iter().for_each(|r| put_u32(&mut p, r.0));
            rows.iter().for_each(|r| put_u64(&mut p, r.1));
            rows.iter().for_each(|r| put_u64(&mut p, r.2));
            rows.iter().for_each(|r| put_u64(&mut p, r.3));
        }
        _ => unreachable!("serialize_payload called with a dict, hot or unknown type"),
    }
    p
}

fn block_header(type_id: u8, count: usize, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0] = type_id;
    header[1..5].copy_from_slice(&u32::try_from(count).expect("block rows < 2^32").to_le_bytes());
    header[5..9]
        .copy_from_slice(&u32::try_from(payload.len()).expect("block < 4 GiB").to_le_bytes());
    header[9..17].copy_from_slice(&xxh64(payload).to_le_bytes());
    header
}

fn write_block<W: Write + ?Sized>(
    out: &mut W,
    type_id: u8,
    count: usize,
    payload: &[u8],
) -> std::io::Result<()> {
    out.write_all(&block_header(type_id, count, payload))?;
    out.write_all(payload)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A fixed-width little-endian `u64` column view over raw file bytes.
///
/// Values are decoded on the fly from the backing slice — no per-row
/// allocation, no intermediate event structs.
#[derive(Debug, Clone, Copy)]
pub struct U64Col<'a>(&'a [u8]);

impl<'a> U64Col<'a> {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len() / 8
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.0[i * 8..i * 8 + 8].try_into().expect("8-byte chunk"))
    }

    /// Streams the column's values in row order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.0.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
    }
}

/// A `u8` column view (flags, opinion bits, outcome tags).
#[derive(Debug, Clone, Copy)]
pub struct U8Col<'a>(&'a [u8]);

impl<'a> U8Col<'a> {
    /// The value at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> u8 {
        self.0[i]
    }

    /// Streams the column's values in row order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + 'a {
        self.0.iter().copied()
    }
}

/// Typed column views over one `RoundCompleted` block — the hot path of
/// every streaming analytics pass.
#[derive(Debug, Clone, Copy)]
pub struct RoundCols<'a> {
    /// Rows in the block.
    pub len: usize,
    /// Replication index column.
    pub rep: U64Col<'a>,
    /// Round label column.
    pub round: U64Col<'a>,
    /// Ones-count column.
    pub ones: U64Col<'a>,
    /// Source-opinion column.
    pub source_opinion: U8Col<'a>,
}

/// Typed column views over one `ReplicationFinished` block.
#[derive(Debug, Clone, Copy)]
pub struct FinishedCols<'a> {
    /// Rows in the block.
    pub len: usize,
    /// Replication index column.
    pub rep: U64Col<'a>,
    /// Outcome tags (1 = converged, 0 = timed out).
    pub converged: U8Col<'a>,
    /// Rounds-to-consensus column.
    pub rounds: U64Col<'a>,
    /// Wall-clock latency column (µs).
    pub elapsed_us: U64Col<'a>,
}

/// One decoded `BatchStarted` row (strings resolved from the
/// dictionary, `g`-table rows materialized).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchHeader<'a> {
    /// Batch kind (`conv` / `seqconv` / `cross`).
    pub kind: &'a str,
    /// Protocol display name.
    pub protocol: &'a str,
    /// Sample size ℓ.
    pub ell: u64,
    /// Population size.
    pub n: u64,
    /// Ones in `X_0`.
    pub x0: u64,
    /// The source's opinion bit.
    pub source_opinion: u8,
    /// Replications in the batch.
    pub reps: u64,
    /// Per-replication round budget.
    pub budget: u64,
    /// Base seed.
    pub seed: u64,
    /// `g(0, ·)` row.
    pub g0: Vec<f64>,
    /// `g(1, ·)` row.
    pub g1: Vec<f64>,
}

/// Typed column views over one `TelemetrySample` block. The series
/// column stays dictionary-encoded; resolve ids through
/// [`TelemetryCols::series_name`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryCols<'a> {
    /// Rows in the block.
    pub len: usize,
    /// Dictionary ids of the series paths.
    series_ids: &'a [u8],
    /// Resolved dictionary backing the series ids.
    dict: &'a [String],
    /// Snapshot version column.
    pub version: U64Col<'a>,
    /// Elapsed-microseconds column.
    pub elapsed_us: U64Col<'a>,
    /// Sampled-value column.
    pub value: U64Col<'a>,
}

impl<'a> TelemetryCols<'a> {
    /// The series path of row `i`, resolved from the dictionary.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn series_name(&self, i: usize) -> &'a str {
        let id =
            u32::from_le_bytes(self.series_ids[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"));
        self.dict[id as usize].as_str()
    }
}

/// One validated block, exposed as typed columns. Rare block kinds
/// (headers, manifests) decode to rows; hot kinds stay as column views.
#[derive(Debug)]
pub enum Block<'a> {
    /// Experiment-started rows: `(id, title, seed, scale)`.
    ExperimentStarted(Vec<(&'a str, &'a str, u64, &'a str)>),
    /// Experiment-finished rows: `(id, pass, elapsed_us)`.
    ExperimentFinished(Vec<(&'a str, bool, u64)>),
    /// Batch headers.
    BatchStarted(Vec<BatchHeader<'a>>),
    /// Replication results, as columns.
    ReplicationFinished(FinishedCols<'a>),
    /// Per-round states, as columns.
    RoundCompleted(RoundCols<'a>),
    /// Consensus-exit rows: `(rep, entered, exited)`.
    ConsensusExited(Vec<(u64, u64, u64)>),
    /// Embedded manifest JSON rows.
    Manifest(Vec<&'a str>),
    /// Telemetry samples, as columns.
    TelemetrySample(TelemetryCols<'a>),
}

struct BlockRef {
    type_id: u8,
    count: usize,
    payload: std::ops::Range<usize>,
}

/// A scanned columnar trace: validated block index, resolved dictionary
/// and torn-tail damage report. The whole file is held in one buffer
/// (buffered, not memory-mapped — the workspace is dependency-free) and
/// every column access borrows from it.
pub struct ColumnarReader {
    data: Vec<u8>,
    blocks: Vec<BlockRef>,
    dict: Vec<String>,
    torn_at: Option<u64>,
}

impl ColumnarReader {
    /// Opens and scans the columnar trace at `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and reports `InvalidData` when the file
    /// does not start with a columnar magic this build reads (it is not a
    /// columnar trace at all, or one of an unknown version — as opposed
    /// to a torn one, which opens fine and is flagged via
    /// [`ColumnarReader::torn_tail`]).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Scans an in-memory columnar trace.
    ///
    /// # Errors
    ///
    /// Reports `InvalidData` when the buffer does not start with
    /// [`MAGIC`] or [`MAGIC_V1`]; the message names the version when the
    /// magic is a columnar one of another version.
    pub fn from_bytes(data: Vec<u8>) -> std::io::Result<Self> {
        let head = data.get(..MAGIC.len()).unwrap_or_default();
        let Some(checksum) = checksum_for(head) else {
            // `BDCT` and four other digits is a columnar trace of a layout
            // this build does not know, not some other file.
            let message = match head.split_at_checked(4) {
                Some((b"BDCT", version)) if version.iter().all(u8::is_ascii_digit) => {
                    let version = String::from_utf8_lossy(version);
                    format!("columnar trace version {version}: this build reads 0001 and 0002")
                }
                _ => "not a columnar trace (missing BDCT magic)".to_string(),
            };
            return Err(std::io::Error::new(ErrorKind::InvalidData, message));
        };
        let mut blocks = Vec::new();
        let mut dict: Vec<String> = Vec::new();
        let mut torn_at = None;
        let mut offset = MAGIC.len();
        while offset < data.len() {
            match scan_block(&data, offset, &mut dict, checksum) {
                Some(block) => {
                    let next = block.payload.end;
                    if block.type_id != ty::DICT {
                        blocks.push(block);
                    }
                    offset = next;
                }
                None => {
                    torn_at = Some(offset as u64);
                    break;
                }
            }
        }
        Ok(ColumnarReader { data, blocks, dict, torn_at })
    }

    /// Whether the trace ends in a torn or corrupt frame: the writer was
    /// cut off mid-block (crash, kill, full disk). Analytics cover the
    /// complete prefix.
    #[must_use]
    pub fn torn_tail(&self) -> bool {
        self.torn_at.is_some()
    }

    /// Byte offset of the first invalid frame, when the trace is torn.
    #[must_use]
    pub fn torn_offset(&self) -> Option<u64> {
        self.torn_at
    }

    /// Total recovered event rows (dictionary blocks excluded).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.blocks.iter().map(|b| b.count).sum()
    }

    /// Number of recovered event blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Streams the recovered blocks as typed columns, in file order (or,
    /// reversed, from the last block back: each block decodes when the
    /// iterator reaches it).
    pub fn blocks(&self) -> impl DoubleEndedIterator<Item = Block<'_>> {
        self.blocks.iter().map(|b| decode_block(&self.data[b.payload.clone()], b, &self.dict))
    }

    /// Streams the recovered events in file order, which keeps emission
    /// order as the module docs state — the path of the JSONL export
    /// (`trace convert`) and of tests. Analytics should prefer
    /// [`ColumnarReader::blocks`], which never materializes events.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.blocks().flat_map(block_to_events)
    }
}

impl std::fmt::Debug for ColumnarReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarReader")
            .field("bytes", &self.data.len())
            .field("blocks", &self.blocks.len())
            .field("dict_entries", &self.dict.len())
            .field("torn_at", &self.torn_at)
            .finish()
    }
}

/// Validates the frame at `offset` against the file's `checksum` and (for
/// dictionary blocks) extends `dict`. Returns `None` on any inconsistency
/// — the torn-tail signal.
fn scan_block(
    data: &[u8],
    offset: usize,
    dict: &mut Vec<String>,
    checksum: fn(&[u8]) -> u64,
) -> Option<BlockRef> {
    let header = data.get(offset..offset + HEADER_LEN)?;
    let type_id = header[0];
    if type_id > ty::MAX {
        return None;
    }
    let count = u32::from_le_bytes(header[1..5].try_into().ok()?) as usize;
    let payload_len = u32::from_le_bytes(header[5..9].try_into().ok()?) as usize;
    let expected = u64::from_le_bytes(header[9..17].try_into().ok()?);
    let start = offset + HEADER_LEN;
    let payload = data.get(start..start.checked_add(payload_len)?)?;
    if checksum(payload) != expected {
        return None;
    }
    if type_id == ty::DICT {
        // Decode (and structurally validate) dictionary entries; ids must
        // continue the dense sequence.
        let mut cur = Cursor { bytes: payload, pos: 0 };
        for _ in 0..count {
            let id = cur.u32()? as usize;
            if id != dict.len() {
                return None;
            }
            let s = cur.str()?;
            dict.push(s.to_string());
        }
        if cur.pos != payload.len() {
            return None;
        }
    } else if !validate_payload(type_id, count, payload, dict.len()) {
        return None;
    }
    Some(BlockRef { type_id, count, payload: start..start + payload_len })
}

/// Tiny bounds-checked byte cursor for var-width decoding.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Option<u32> {
        let b = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        let b = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        std::str::from_utf8(b).ok()
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        let len = self.u32()? as usize;
        let b = self.bytes.get(self.pos..self.pos.checked_add(len.checked_mul(8)?)?)?;
        self.pos += len * 8;
        Some(
            b.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect(),
        )
    }

    fn skip_var(&mut self, width: usize) -> Option<()> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len.checked_mul(width)?)?;
        if end > self.bytes.len() {
            return None;
        }
        self.pos = end;
        Some(())
    }
}

/// Structural validation of a data-block payload: exact column sizes for
/// fixed-width types, a full var-width walk (and dictionary-bound check
/// on string ids) for the rest. A block that validates here decodes
/// without panicking.
fn validate_payload(type_id: u8, count: usize, payload: &[u8], dict_len: usize) -> bool {
    let fixed = |width: usize| payload.len() == count * width;
    let ids_in_dict = |start: usize| {
        payload[start..start + 4 * count]
            .chunks_exact(4)
            .all(|c| (u32::from_le_bytes(c.try_into().expect("4-byte chunk")) as usize) < dict_len)
    };
    match type_id {
        ty::EXPERIMENT_STARTED => fixed(4 + 4 + 8 + 4) && ids_in_dict(0) && ids_in_dict(4 * count),
        ty::EXPERIMENT_FINISHED => fixed(4 + 1 + 8) && ids_in_dict(0),
        ty::REPLICATION_FINISHED => fixed(8 + 1 + 8 + 8),
        ty::ROUND_COMPLETED => fixed(8 + 8 + 8 + 1),
        ty::CONSENSUS_EXITED => fixed(8 + 8 + 8),
        ty::BATCH_STARTED => {
            let fixed_part = count * (4 + 4 + 8 + 8 + 8 + 1 + 8 + 8 + 8);
            if payload.len() < fixed_part || !ids_in_dict(0) || !ids_in_dict(4 * count) {
                return false;
            }
            let mut cur = Cursor { bytes: payload, pos: fixed_part };
            for _ in 0..2 * count {
                if cur.skip_var(8).is_none() {
                    return false;
                }
            }
            cur.pos == payload.len()
        }
        ty::TELEMETRY_SAMPLE => fixed(4 + 8 + 8 + 8) && ids_in_dict(0),
        ty::MANIFEST => {
            let mut cur = Cursor { bytes: payload, pos: 0 };
            for _ in 0..count {
                match cur.str() {
                    Some(s) => {
                        // Manifest rows must decode back to events later.
                        if json::parse(s).is_err() {
                            return false;
                        }
                    }
                    None => return false,
                }
            }
            cur.pos == payload.len()
        }
        _ => false,
    }
}

fn decode_block<'a>(payload: &'a [u8], b: &BlockRef, dict: &'a [String]) -> Block<'a> {
    let count = b.count;
    let s = |id: u32| dict[id as usize].as_str();
    let u32_at = |pos: usize| {
        u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("validated block geometry"))
    };
    match b.type_id {
        ty::EXPERIMENT_STARTED => {
            let (c_id, c_title) = (0, 4 * count);
            let (c_seed, c_scale) = (8 * count, 16 * count);
            let seeds = U64Col(&payload[c_seed..c_seed + 8 * count]);
            Block::ExperimentStarted(
                (0..count)
                    .map(|i| {
                        (
                            s(u32_at(c_id + 4 * i)),
                            s(u32_at(c_title + 4 * i)),
                            seeds.get(i),
                            s(u32_at(c_scale + 4 * i)),
                        )
                    })
                    .collect(),
            )
        }
        ty::EXPERIMENT_FINISHED => {
            let (c_id, c_pass, c_elapsed) = (0, 4 * count, 5 * count);
            let elapsed = U64Col(&payload[c_elapsed..c_elapsed + 8 * count]);
            Block::ExperimentFinished(
                (0..count)
                    .map(|i| (s(u32_at(c_id + 4 * i)), payload[c_pass + i] != 0, elapsed.get(i)))
                    .collect(),
            )
        }
        ty::BATCH_STARTED => {
            let c_kind = 0;
            let c_protocol = 4 * count;
            let c_ell = 8 * count;
            let c_n = c_ell + 8 * count;
            let c_x0 = c_n + 8 * count;
            let c_source = c_x0 + 8 * count;
            let c_reps = c_source + count;
            let c_budget = c_reps + 8 * count;
            let c_seed = c_budget + 8 * count;
            let u64col = |start: usize| U64Col(&payload[start..start + 8 * count]);
            let (ell, n, x0) = (u64col(c_ell), u64col(c_n), u64col(c_x0));
            let (reps, budget, seed) = (u64col(c_reps), u64col(c_budget), u64col(c_seed));
            let mut cur = Cursor { bytes: payload, pos: c_seed + 8 * count };
            let g0s: Vec<Vec<f64>> =
                (0..count).map(|_| cur.f64s().expect("validated block geometry")).collect();
            let g1s: Vec<Vec<f64>> =
                (0..count).map(|_| cur.f64s().expect("validated block geometry")).collect();
            Block::BatchStarted(
                (0..count)
                    .zip(g0s.into_iter().zip(g1s))
                    .map(|(i, (g0, g1))| BatchHeader {
                        kind: s(u32_at(c_kind + 4 * i)),
                        protocol: s(u32_at(c_protocol + 4 * i)),
                        ell: ell.get(i),
                        n: n.get(i),
                        x0: x0.get(i),
                        source_opinion: payload[c_source + i],
                        reps: reps.get(i),
                        budget: budget.get(i),
                        seed: seed.get(i),
                        g0,
                        g1,
                    })
                    .collect(),
            )
        }
        ty::REPLICATION_FINISHED => Block::ReplicationFinished(FinishedCols {
            len: count,
            rep: U64Col(&payload[..8 * count]),
            converged: U8Col(&payload[8 * count..9 * count]),
            rounds: U64Col(&payload[9 * count..17 * count]),
            elapsed_us: U64Col(&payload[17 * count..25 * count]),
        }),
        ty::ROUND_COMPLETED => Block::RoundCompleted(RoundCols {
            len: count,
            rep: U64Col(&payload[..8 * count]),
            round: U64Col(&payload[8 * count..16 * count]),
            ones: U64Col(&payload[16 * count..24 * count]),
            source_opinion: U8Col(&payload[24 * count..25 * count]),
        }),
        ty::CONSENSUS_EXITED => {
            let rep = U64Col(&payload[..8 * count]);
            let entered = U64Col(&payload[8 * count..16 * count]);
            let exited = U64Col(&payload[16 * count..24 * count]);
            Block::ConsensusExited(
                (0..count).map(|i| (rep.get(i), entered.get(i), exited.get(i))).collect(),
            )
        }
        ty::MANIFEST => {
            let mut cur = Cursor { bytes: payload, pos: 0 };
            Block::Manifest(
                (0..count).map(|_| cur.str().expect("validated block geometry")).collect(),
            )
        }
        ty::TELEMETRY_SAMPLE => Block::TelemetrySample(TelemetryCols {
            len: count,
            series_ids: &payload[..4 * count],
            dict,
            version: U64Col(&payload[4 * count..12 * count]),
            elapsed_us: U64Col(&payload[12 * count..20 * count]),
            value: U64Col(&payload[20 * count..28 * count]),
        }),
        _ => unreachable!("dict blocks are consumed during the scan"),
    }
}

/// Expands one decoded block back into owned [`Event`]s, in row order.
fn block_to_events(block: Block<'_>) -> Vec<Event> {
    match block {
        Block::ExperimentStarted(rows) => rows
            .into_iter()
            .map(|(id, title, seed, scale)| Event::ExperimentStarted {
                id: id.to_string(),
                title: title.to_string(),
                seed,
                scale: scale.to_string(),
            })
            .collect(),
        Block::ExperimentFinished(rows) => rows
            .into_iter()
            .map(|(id, pass, elapsed_us)| Event::ExperimentFinished {
                id: id.to_string(),
                pass,
                elapsed_us,
            })
            .collect(),
        Block::BatchStarted(rows) => rows
            .into_iter()
            .map(|h| Event::BatchStarted {
                kind: h.kind.to_string(),
                protocol: h.protocol.to_string(),
                ell: h.ell,
                n: h.n,
                x0: h.x0,
                source_opinion: h.source_opinion,
                reps: h.reps,
                budget: h.budget,
                seed: h.seed,
                g0: h.g0,
                g1: h.g1,
            })
            .collect(),
        Block::ReplicationFinished(c) => (0..c.len)
            .map(|i| Event::ReplicationFinished {
                rep: c.rep.get(i),
                outcome: if c.converged.get(i) != 0 {
                    ReplicationOutcome::Converged
                } else {
                    ReplicationOutcome::TimedOut
                },
                rounds: c.rounds.get(i),
                elapsed_us: c.elapsed_us.get(i),
            })
            .collect(),
        Block::RoundCompleted(c) => (0..c.len)
            .map(|i| Event::RoundCompleted {
                rep: c.rep.get(i),
                round: c.round.get(i),
                ones: c.ones.get(i),
                source_opinion: c.source_opinion.get(i),
            })
            .collect(),
        Block::ConsensusExited(rows) => rows
            .into_iter()
            .map(|(rep, entered, exited)| Event::ConsensusExited { rep, entered, exited })
            .collect(),
        Block::Manifest(rows) => rows
            .into_iter()
            .filter_map(|s| {
                let value = json::parse(s).ok()?;
                RunManifest::from_value(&value).ok().map(Event::Manifest)
            })
            .collect(),
        Block::TelemetrySample(c) => (0..c.len)
            .map(|i| Event::TelemetrySample {
                series: c.series_name(i).to_string(),
                version: c.version.get(i),
                elapsed_us: c.elapsed_us.get(i),
                value: c.value.get(i),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

/// What [`repair`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Blocks (dictionary blocks included) preserved by the repair.
    pub blocks_kept: usize,
    /// Event rows preserved.
    pub events_kept: usize,
    /// Bytes of torn tail physically truncated away (0 for a clean
    /// trace).
    pub bytes_truncated: u64,
}

/// Detects and physically truncates a torn tail, exactly as
/// [`crate::CheckpointLog::open`] repairs its JSONL log: the valid
/// prefix is committed back with an atomic write-to-temp + rename, so a
/// crash mid-repair leaves either the damaged file (repaired again next
/// time) or the clean one — never a worse state.
///
/// # Errors
///
/// Propagates I/O errors, including `InvalidData` when the file is not a
/// columnar trace at all.
pub fn repair(path: &Path) -> std::io::Result<RepairStats> {
    let reader = ColumnarReader::open(path)?;
    let stats = RepairStats {
        blocks_kept: reader.block_count(),
        events_kept: reader.event_count(),
        bytes_truncated: reader.torn_at.map_or(0, |at| reader.data.len() as u64 - at),
    };
    if let Some(at) = reader.torn_at {
        atomic_replace(path, &reader.data[..usize::try_from(at).expect("offset fits")])?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ExperimentStarted {
                id: "e2".to_string(),
                title: "Voter upper bound".to_string(),
                seed: u64::MAX,
                scale: "smoke".to_string(),
            },
            Event::Manifest(RunManifest::example()),
            Event::BatchStarted {
                kind: "conv".to_string(),
                protocol: "voter".to_string(),
                ell: 1,
                n: 128,
                x0: 1,
                source_opinion: 1,
                reps: 2,
                budget: 4_964,
                seed: 0xBAD_5EED,
                g0: vec![0.0, 1.0],
                g1: vec![0.0, 1.0],
            },
            Event::RoundCompleted { rep: 0, round: 1, ones: 2, source_opinion: 1 },
            Event::RoundCompleted { rep: 0, round: 2, ones: 5, source_opinion: 1 },
            Event::ReplicationFinished {
                rep: 0,
                outcome: ReplicationOutcome::Converged,
                rounds: 2,
                elapsed_us: 17,
            },
            Event::RoundCompleted { rep: 1, round: 1, ones: 3, source_opinion: 1 },
            Event::ConsensusExited { rep: 1, entered: 4, exited: 9 },
            Event::ReplicationFinished {
                rep: 1,
                outcome: ReplicationOutcome::TimedOut,
                rounds: 4_964,
                elapsed_us: 900,
            },
            Event::ExperimentFinished { id: "e2".to_string(), pass: true, elapsed_us: 1_000 },
            Event::TelemetrySample {
                series: "counter/rounds_simulated".to_string(),
                version: 1,
                elapsed_us: 250_000,
                value: 4_964,
            },
            Event::TelemetrySample {
                series: "span/replication/p99".to_string(),
                version: 1,
                elapsed_us: 250_000,
                value: 880,
            },
        ]
    }

    fn encode(events: &[Event]) -> Vec<u8> {
        record(|sink| events.iter().for_each(|ev| sink.emit(ev)))
    }

    /// The bytes a sink writes for what `emit` sends it, drop included.
    fn record(emit: impl FnOnce(&ColumnarSink)) -> Vec<u8> {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = ColumnarSink::from_writer(Box::new(Shared(Arc::clone(&buf)))).unwrap();
        emit(&sink);
        drop(sink);
        let bytes = buf.lock().unwrap().clone();
        bytes
    }

    #[test]
    fn every_event_kind_round_trips_in_order() {
        let events = sample_events();
        let reader = ColumnarReader::from_bytes(encode(&events)).unwrap();
        assert!(!reader.torn_tail());
        assert_eq!(reader.event_count(), events.len());
        let back: Vec<Event> = reader.events().collect();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_trace_is_valid() {
        let reader = ColumnarReader::from_bytes(MAGIC.to_vec()).unwrap();
        assert!(!reader.torn_tail());
        assert_eq!(reader.event_count(), 0);
        assert_eq!(reader.events().count(), 0);
    }

    #[test]
    fn missing_magic_is_invalid_data_not_torn() {
        let err = ColumnarReader::from_bytes(b"not a trace".to_vec()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let err = ColumnarReader::from_bytes(Vec::new()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    /// Walks the frames of a *valid* trace and returns every block
    /// boundary offset (positions where a cut leaves only whole blocks).
    fn block_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut bounds = vec![MAGIC.len()];
        let mut offset = MAGIC.len();
        while offset < bytes.len() {
            let payload_len =
                u32::from_le_bytes(bytes[offset + 5..offset + 9].try_into().unwrap()) as usize;
            offset += HEADER_LEN + payload_len;
            bounds.push(offset);
        }
        bounds
    }

    /// Re-encodes a valid v2 trace as layout `0001`: the v1 magic, and
    /// each block's checksum recomputed with FNV-1a. Everything else is
    /// left as it is.
    fn to_v1(bytes: &[u8]) -> Vec<u8> {
        let mut v1 = bytes.to_vec();
        v1[..MAGIC.len()].copy_from_slice(&MAGIC_V1);
        for pair in block_boundaries(bytes).windows(2) {
            let (start, end) = (pair[0], pair[1]);
            let sum = fnv1a64(&bytes[start + HEADER_LEN..end]);
            v1[start + 9..start + HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        }
        v1
    }

    #[test]
    fn truncation_at_every_byte_offset_recovers_a_clean_prefix() {
        let events = sample_events();
        assert_every_cut_recovers_a_clean_prefix(&encode(&events), &events);
    }

    /// The exhaustive version of the torn-tail contract: cutting `full`
    /// (the trace of `all`) at *any* byte offset must recover a prefix of
    /// whole blocks — never garbage, never a panic. A cut exactly on a
    /// block boundary is indistinguishable from a clean shorter trace
    /// (just as a line log cut exactly at a newline), so only mid-block cuts
    /// must raise the torn-tail flag.
    fn assert_every_cut_recovers_a_clean_prefix(full: &[u8], all: &[Event]) {
        let bounds = block_boundaries(full);
        for cut in MAGIC.len()..full.len() {
            let reader = ColumnarReader::from_bytes(full[..cut].to_vec()).unwrap();
            let recovered: Vec<Event> = reader.events().collect();
            assert!(recovered.len() <= all.len());
            assert_eq!(recovered[..], all[..recovered.len()], "cut at byte {cut}");
            assert_eq!(
                reader.torn_tail(),
                !bounds.contains(&cut),
                "cut at byte {cut}: torn-tail flag must fire exactly on mid-block cuts"
            );
            if reader.torn_tail() {
                assert!(
                    bounds.contains(&(reader.torn_offset().unwrap() as usize)),
                    "cut at byte {cut}: torn offset must be the last block boundary"
                );
            }
        }
    }

    #[test]
    fn corrupt_payload_byte_is_detected_by_checksum() {
        let events = sample_events();
        let mut bytes = encode(&events);
        // Flip one byte inside the first block's payload.
        let idx = MAGIC.len() + HEADER_LEN + 1;
        bytes[idx] ^= 0xFF;
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert!(reader.torn_tail());
        assert_eq!(reader.torn_offset(), Some(MAGIC.len() as u64));
        assert_eq!(reader.event_count(), 0);
    }

    #[test]
    fn dictionary_is_shared_across_blocks() {
        // Two experiment brackets with the same id: the dictionary must
        // dedupe the string, and both decode to the same text.
        let events = vec![
            Event::ExperimentStarted {
                id: "e7".to_string(),
                title: "t".to_string(),
                seed: 1,
                scale: "smoke".to_string(),
            },
            Event::ExperimentFinished { id: "e7".to_string(), pass: false, elapsed_us: 9 },
        ];
        let bytes = encode(&events);
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.dict.len(), 3, "e7/t/smoke interned once each");
        let back: Vec<Event> = reader.events().collect();
        assert_eq!(back, events);
    }

    fn long_round_run() -> Vec<Event> {
        (0..(BLOCK_ROWS as u64 * 2 + 10))
            .map(|r| Event::RoundCompleted { rep: 0, round: r, ones: r, source_opinion: 1 })
            .collect()
    }

    #[test]
    fn long_runs_split_into_bounded_blocks() {
        let events = long_round_run();
        let reader = ColumnarReader::from_bytes(encode(&events)).unwrap();
        assert_eq!(reader.block_count(), 3, "two full blocks plus the remainder");
        assert_eq!(reader.event_count(), events.len());
        let back: Vec<Event> = reader.events().collect();
        assert_eq!(back, events);
    }

    #[test]
    fn single_threaded_bytes_are_pinned() {
        // Golden hashes of whole files: a sink rewrite must leave every
        // byte of a single-threaded trace as it was. Re-encoded as v1,
        // the files hash to the v1 writer's goldens, so layout `0002`
        // changed the checksum alone: payloads, headers and block
        // boundaries are those of `0001`.
        let (short, long) = (encode(&sample_events()), encode(&long_round_run()));
        assert_eq!(fnv1a64(&to_v1(&short)), 0x6ed2_04c8_1bd7_63a4);
        assert_eq!(fnv1a64(&to_v1(&long)), 0x2b25_6547_56aa_0666);
        assert_eq!(fnv1a64(&short), 0x7d58_a885_bef6_31c6);
        assert_eq!(fnv1a64(&long), 0x0d9e_52c2_4e4d_8c8c);
    }

    #[test]
    fn xxh64_matches_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"xxhash"), 0x32DD_3895_2C4B_C720);
        // 39 bytes: one 32-byte stripe of four lanes, then a 4-byte word
        // and a 3-byte tail.
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
        // 43 bytes: the stripe, one 8-byte word and a 3-byte tail.
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(xxh64(fox), 0x0B24_2D36_1FDA_71BC);
    }

    #[test]
    fn v1_traces_still_read_check_and_recover() {
        let events = sample_events();
        let v1 = to_v1(&encode(&events));
        let reader = ColumnarReader::from_bytes(v1.clone()).unwrap();
        assert!(!reader.torn_tail());
        assert_eq!(reader.events().collect::<Vec<_>>(), events);
        // Relabelled as v2, its FNV-1a checksums fail: the reader takes
        // the checksum from the magic.
        let mut relabelled = v1.clone();
        relabelled[..MAGIC.len()].copy_from_slice(&MAGIC);
        assert_eq!(ColumnarReader::from_bytes(relabelled).unwrap().torn_offset(), Some(8));
        // A flipped payload byte fails FNV-1a.
        let mut flipped = v1.clone();
        flipped[MAGIC.len() + HEADER_LEN + 1] ^= 0xFF;
        let reader = ColumnarReader::from_bytes(flipped).unwrap();
        assert_eq!(reader.torn_offset(), Some(MAGIC.len() as u64));
        assert_eq!(reader.event_count(), 0);
        assert_every_cut_recovers_a_clean_prefix(&v1, &events);
        // Repair truncates and keeps the file's own magic.
        let path =
            std::env::temp_dir().join(format!("obs_columnar_v1_repair_{}.bct", std::process::id()));
        std::fs::write(&path, &v1[..v1.len() - 5]).unwrap();
        let stats = repair(&path).unwrap();
        assert!(stats.bytes_truncated > 0);
        let repaired = std::fs::read(&path).unwrap();
        assert_eq!(repaired[..MAGIC.len()], MAGIC_V1);
        let reader = ColumnarReader::from_bytes(repaired).unwrap();
        assert!(!reader.torn_tail());
        assert_eq!(reader.event_count(), stats.events_kept);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_versions_are_named_not_taken_for_other_files() {
        let mut v3 = encode(&sample_events());
        v3[..MAGIC.len()].copy_from_slice(b"BDCT0003");
        let err = ColumnarReader::from_bytes(v3).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "columnar trace version 0003: this build reads 0001 and 0002");
        for other in [&b"BDCTv003"[..], b"BDCT", b"BDCT000", b"{\"type\":\"round_completed\"}"] {
            let err = ColumnarReader::from_bytes(other.to_vec()).unwrap_err();
            assert!(err.to_string().starts_with("not a columnar trace"), "{err}");
        }
    }

    /// Four rounds of 3000 live replicas after a batch header. The first
    /// two fill one run past `BLOCK_ROWS`; a replica finishes after the
    /// second round and two telemetry samples follow the third.
    fn round_script() -> Vec<(u64, Vec<u64>, Vec<u64>)> {
        let reps: Vec<u64> = (0..3000).collect();
        (1..=4)
            .map(|round| {
                let ones = reps.iter().map(|r| r * 7 + round).collect();
                (round, reps.clone(), ones)
            })
            .collect()
    }

    fn play_round_script(sink: &dyn EventSink, per_row: bool) {
        sink.emit(&sample_events()[2]);
        for (round, reps, ones) in round_script() {
            if per_row {
                for (&rep, &ones) in reps.iter().zip(&ones) {
                    sink.emit(&Event::RoundCompleted { rep, round, ones, source_opinion: 1 });
                }
            } else {
                sink.emit_rounds(round, 1, &reps, &ones);
            }
            match round {
                2 => sink.emit(&sample_events()[5]),
                3 => {
                    sink.emit(&sample_events()[10]);
                    // A round with no live rows must not split the run
                    // of rare events around it.
                    if !per_row {
                        sink.emit_rounds(round, 1, &[], &[]);
                    }
                    sink.emit(&sample_events()[11]);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn emit_rounds_writes_the_bytes_of_per_row_emits() {
        let batched = record(|sink| play_round_script(sink, false));
        let per_row = record(|sink| play_round_script(sink, true));
        assert_eq!(batched, per_row);
        let reader = ColumnarReader::from_bytes(batched).unwrap();
        assert_eq!(reader.event_count(), 1 + 4 * 3000 + 3);
        // The first two rounds seal at BLOCK_ROWS and at the finished
        // row; the telemetry samples seal the third round.
        let sizes: Vec<usize> = reader
            .blocks()
            .filter_map(|b| match b {
                Block::RoundCompleted(c) => Some(c.len),
                _ => None,
            })
            .collect();
        assert_eq!(sizes, [BLOCK_ROWS, 2 * 3000 - BLOCK_ROWS, 3000, 3000]);
    }

    #[test]
    fn default_emit_rounds_is_the_per_row_loop() {
        let (batched, per_row) = (MemorySink::new(), MemorySink::new());
        play_round_script(&batched, false);
        play_round_script(&per_row, true);
        assert_eq!(batched.len(), 1 + 4 * 3000 + 3);
        assert_eq!(batched.events(), per_row.events());
    }

    #[test]
    fn flush_seals_the_open_block() {
        let path =
            std::env::temp_dir().join(format!("obs_columnar_flush_{}.bct", std::process::id()));
        let sink = ColumnarSink::create(&path).unwrap();
        sink.emit(&Event::RoundCompleted { rep: 0, round: 1, ones: 1, source_opinion: 1 });
        sink.flush();
        // Before drop, the flushed event must already be on disk.
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.event_count(), 1);
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repair_truncates_torn_tail_atomically() {
        let path =
            std::env::temp_dir().join(format!("obs_columnar_repair_{}.bct", std::process::id()));
        let events = sample_events();
        let full = encode(&events);
        // Tear mid-way through the last block.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let stats = repair(&path).unwrap();
        assert!(stats.bytes_truncated > 0);
        assert!(stats.events_kept < events.len());
        // After repair the file scans clean and a second repair is a
        // no-op.
        let reader = ColumnarReader::open(&path).unwrap();
        assert!(!reader.torn_tail());
        assert_eq!(reader.event_count(), stats.events_kept);
        let again = repair(&path).unwrap();
        assert_eq!(again.bytes_truncated, 0);
        assert_eq!(again.events_kept, stats.events_kept);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repair_rejects_non_columnar_files() {
        let path =
            std::env::temp_dir().join(format!("obs_columnar_notatrace_{}.bct", std::process::id()));
        std::fs::write(&path, b"{\"type\":\"round_completed\"}\n").unwrap();
        assert_eq!(repair(&path).unwrap_err().kind(), ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn matches_memory_sink_stream_exactly() {
        // The convert-equality contract at the sink level: the columnar
        // round trip of a MemorySink stream is the stream itself.
        let mem = MemorySink::new();
        for ev in sample_events() {
            mem.emit(&ev);
        }
        let reader = ColumnarReader::from_bytes(encode(&mem.events())).unwrap();
        let back: Vec<Event> = reader.events().collect();
        assert_eq!(back, mem.events());
    }
}
