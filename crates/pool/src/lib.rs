//! Persistent work-stealing worker pool.
//!
//! Experiments run hundreds of replications per sweep point and dozens of
//! sweep points per run. The previous engine spawned and joined a fresh set
//! of scoped threads for **every** batch; this crate keeps one set of
//! workers alive for the whole process and feeds them *chunked,
//! work-stealing* batches instead:
//!
//! * [`Pool::new`] spawns `workers` OS threads that park on a condition
//!   variable until a batch arrives, and live until the pool is dropped.
//! * [`Pool::run_batch`] splits `tasks` indices into chunks, deals the
//!   chunks round-robin over up to `cap` participant slots, publishes the
//!   batch, and **participates from the calling thread** (slot 0). Each
//!   participant drains its own deque from the front and, when empty,
//!   steals from the back of the other slots' deques.
//! * [`Pool::global`] is the shared process-wide pool (sized from
//!   `BITDISSEM_POOL_WORKERS` or the available parallelism) that the
//!   replication runner uses by default, so worker threads are reused
//!   across sweep points, experiments, and `run --all`.
//!
//! # Determinism contract
//!
//! The pool schedules *which thread* runs a task, never *what* the task
//! computes: callers derive any randomness from the task **index** alone
//! (see `bitdissem_sim::rng::replication_seed`). Batch results are
//! therefore bit-identical for every `workers`/`cap` combination, including
//! `cap = 1` (fully serial on the calling thread).
//!
//! # Safety
//!
//! Tasks borrow caller state, while workers are `'static` threads, so the
//! batch core is handed to workers through a lifetime-erased raw pointer
//! (`BatchHandle`). Soundness rests on one invariant, enforced by a
//! close/leave handshake on sequentially-consistent atomics:
//! [`Pool::run_batch`] does not return until the batch is closed to new
//! participants **and** every joined worker has left, so the pointer is
//! never dereferenced after the borrowed core leaves scope. This is the
//! same scheme scoped thread-pool libraries use; the pool's unsafe surface
//! is confined to `BatchHandle`.
//!
//! The crate's second unsafe item is the frame behind [`with_wide_lanes`]:
//! a function compiled with AVX2 enabled, entered only after runtime
//! feature detection has confirmed the CPU supports it. It lives here so
//! that the crates whose float kernels run inside it keep
//! `#![forbid(unsafe_code)]`. Every unsafe block and impl carries a
//! `// SAFETY:` comment, which `clippy::undocumented_unsafe_blocks`
//! enforces.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use bitdissem_obs::telemetry::thread_slot;
use bitdissem_obs::Counter;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Counters describing how one batch executed. Purely observational: the
/// numbers never influence results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tasks executed (equals the batch size on success).
    pub tasks: u64,
    /// Chunks taken from another participant's deque.
    pub steals: u64,
    /// Participants that executed at least one chunk (including the
    /// submitting thread).
    pub participants: u64,
}

/// Object-safe face of a batch: what a worker runs once it has joined.
trait BatchRun: Sync {
    /// Drains chunks (own deque first, then stealing) until none remain.
    fn work(&self, slot: usize);
}

/// The borrowed heart of a batch, owned by the `run_batch` stack frame.
struct BatchCore<'a> {
    /// One chunk deque per participant slot.
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    /// Runs a single task index.
    task: &'a (dyn Fn(usize) + Sync),
    /// Striped per-participant counters (see [`bitdissem_obs::Counter`]):
    /// the hot per-task / per-steal increments land on a cache line the
    /// incrementing thread owns, so accounting never contends across
    /// participants the way a shared atomic would.
    executed: Counter,
    steals: Counter,
    workers_used: AtomicU64,
    panicked: AtomicBool,
}

impl<'a> BatchCore<'a> {
    fn new(tasks: usize, cap: usize, task: &'a (dyn Fn(usize) + Sync)) -> Self {
        // Chunk so each participant sees several chunks (smooth stealing)
        // without degenerating to per-task locking on huge batches.
        let chunk = tasks.div_ceil(cap * 8).max(1);
        let mut queues: Vec<VecDeque<Range<usize>>> = (0..cap).map(|_| VecDeque::new()).collect();
        let mut start = 0usize;
        let mut slot = 0usize;
        while start < tasks {
            let end = (start + chunk).min(tasks);
            queues[slot].push_back(start..end);
            slot = (slot + 1) % cap;
            start = end;
        }
        BatchCore {
            queues: queues.into_iter().map(Mutex::new).collect(),
            task,
            executed: Counter::new(),
            steals: Counter::new(),
            workers_used: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        }
    }

    /// Pops the next chunk: front of the own deque, else the back of the
    /// first non-empty other deque (a steal).
    fn next_chunk(&self, slot: usize) -> Option<Range<usize>> {
        if let Some(chunk) = self.queues[slot].lock().expect("queue poisoned").pop_front() {
            return Some(chunk);
        }
        let cap = self.queues.len();
        for off in 1..cap {
            let victim = (slot + off) % cap;
            if let Some(chunk) = self.queues[victim].lock().expect("queue poisoned").pop_back() {
                self.steals.add(1);
                return Some(chunk);
            }
        }
        None
    }
}

impl BatchRun for BatchCore<'_> {
    fn work(&self, slot: usize) {
        let mut ran_any = false;
        while let Some(chunk) = self.next_chunk(slot) {
            ran_any = true;
            for index in chunk {
                // Keep draining after a panic so the batch always
                // completes and the submitter can re-raise deterministically.
                if catch_unwind(AssertUnwindSafe(|| (self.task)(index))).is_err() {
                    self.panicked.store(true, Ordering::Relaxed);
                }
                self.executed.add(1);
            }
        }
        if ran_any {
            self.workers_used.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Lifetime-erased batch registration shared between the submitter and the
/// workers through the injector.
///
/// `core` points at a [`BatchCore`] on the submitting thread's stack. The
/// pointer is only dereferenced between a successful [`BatchHandle::try_join`]
/// and the matching [`BatchHandle::leave`]; [`BatchHandle::close_and_wait`]
/// guarantees that window is empty before `run_batch` returns.
struct BatchHandle {
    core: *const (dyn BatchRun + 'static),
    cap: usize,
    /// Participant slots handed out so far (slot 0 is the submitter).
    participants: AtomicUsize,
    /// Workers currently inside `work` (the submitter is not counted).
    active: AtomicUsize,
    closed: AtomicBool,
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: the raw pointer is the only non-Send/Sync field. Workers
// dereference it only inside the join/leave window, while the pointee is
// alive and `BatchCore` itself is `Sync`; outside that window the pointer
// is treated as an opaque value.
unsafe impl Send for BatchHandle {}
// SAFETY: shared access never mutates `core`, and every other field is an
// atomic or a `Mutex`/`Condvar`. The only use of the shared pointer is the
// `&dyn BatchRun` a joined worker reborrows inside its join/leave window,
// and `BatchRun: Sync` makes that borrow safe from any thread.
unsafe impl Sync for BatchHandle {}

impl BatchHandle {
    fn new(core: &BatchCore<'_>, cap: usize) -> Self {
        let core: *const (dyn BatchRun + '_) = core;
        // SAFETY: lifetime erasure only; the two pointer types differ in
        // nothing but the trait object's lifetime bound. The pointer is
        // stored as 'static, but `close_and_wait` keeps every dereference
        // within the pointee's actual lifetime, as documented on the struct.
        let core: *const (dyn BatchRun + 'static) = unsafe { std::mem::transmute(core) };
        BatchHandle {
            core,
            cap,
            participants: AtomicUsize::new(1),
            active: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Whether a worker could still join (racy, used only as a cheap
    /// pre-filter while holding the injector lock).
    fn joinable(&self) -> bool {
        !self.closed.load(Ordering::SeqCst) && self.participants.load(Ordering::SeqCst) < self.cap
    }

    /// Attempts to claim a participant slot. On success the caller *must*
    /// call [`BatchHandle::leave`] after finishing its work.
    fn try_join(&self) -> Option<usize> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let slot = self
            .participants
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |p| (p < self.cap).then_some(p + 1))
            .ok()?;
        self.active.fetch_add(1, Ordering::SeqCst);
        // Re-check after raising `active`: either we observe the close and
        // back out without touching `core`, or `close_and_wait` observes
        // our `active` and waits for `leave`.
        if self.closed.load(Ordering::SeqCst) {
            self.leave();
            return None;
        }
        Some(slot)
    }

    fn leave(&self) {
        if self.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.done.lock().expect("done lock poisoned");
            self.done_cv.notify_all();
        }
    }

    /// Closes the batch to new participants and blocks until every joined
    /// worker has left. After this returns, `core` is never dereferenced
    /// again.
    fn close_and_wait(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let mut guard = self.done.lock().expect("done lock poisoned");
        while self.active.load(Ordering::SeqCst) != 0 {
            guard = self.done_cv.wait(guard).expect("done lock poisoned");
        }
    }
}

struct PoolShared {
    injector: Mutex<Vec<Arc<BatchHandle>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let batch: Arc<BatchHandle> = {
            let mut injector = shared.injector.lock().expect("injector poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(batch) = injector.iter().find(|b| b.joinable()).cloned() {
                    break batch;
                }
                injector = shared.work_cv.wait(injector).expect("injector poisoned");
            }
        };
        if let Some(slot) = batch.try_join() {
            // SAFETY: we hold a participant slot, so `close_and_wait` is
            // blocked until our `leave` — the pointee is alive.
            let core = unsafe { &*batch.core };
            core.work(slot);
            batch.leave();
        }
        // Lost the join race (or the batch closed): loop back and park.
    }
}

/// The process-wide effective parallelism: how many threads should
/// *participate* in parallel work (the submitting thread plus background
/// workers). `BITDISSEM_POOL_WORKERS` (historically the *background*
/// worker count) plus one when set, otherwise the machine's full
/// available parallelism; never less than 1.
///
/// This is the **single** resolver for worker-count defaults — the CLI,
/// [`Pool::global`] and the replication drivers of `bitdissem-sim` all
/// derive from it, so a machine uses all of its cores consistently instead
/// of the CLI silently capping at a different number than the pool spawns,
/// or a driver sizing its shards for more participants than the pool has.
#[must_use]
pub fn effective_parallelism() -> usize {
    std::env::var("BITDISSEM_POOL_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map(|workers| workers.saturating_add(1))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .max(1)
}

/// Whether [`with_wide_lanes`] runs its argument with AVX2 enabled: `true`
/// on an x86-64 CPU that supports AVX2, `false` on any other CPU (and under
/// miri, whose feature detection reports no AVX2). The standard library
/// detects the features once per process and caches them.
#[must_use]
pub fn wide_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `f` on the widest vector lanes this CPU offers and returns its
/// value.
///
/// The workspace builds for baseline x86-64, whose float vectors are
/// 128-bit SSE2. When [`wide_lanes`] holds, `f` is called inside a private
/// frame compiled with AVX2 enabled, so the loops that get inlined into it
/// autovectorize on 256-bit registers; otherwise `f` is called plainly.
/// Only code inlined into the frame gains. `f` is called from the frame and
/// from the plain path, and LLVM keeps a large closure with two call sites
/// out of line, compiled for the baseline; so does a function the closure
/// calls. Mark the closure and every function in its loops
/// `#[inline(always)]`, as the example does.
///
/// The result is the same bit for bit either way. Wider vectors run the
/// same IEEE operations on more lanes at once: Rust never contracts a
/// multiply and an add into an FMA (and AVX2 does not enable FMA), never
/// reassociates float arithmetic, and so never vectorizes a float
/// reduction. Only NaN payloads, which Rust leaves unspecified, may
/// differ.
///
/// # Examples
///
/// ```
/// let xs = [1.0_f64, 2.0, 3.0];
/// let mut ys = [0.5_f64; 3];
/// bitdissem_pool::with_wide_lanes(
///     #[inline(always)]
///     || {
///         for (y, &x) in ys.iter_mut().zip(&xs) {
///             *y += 2.0 * x;
///         }
///     },
/// );
/// assert_eq!(ys, [2.5, 4.5, 6.5]);
/// ```
#[inline]
pub fn with_wide_lanes<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        if wide_lanes() {
            // SAFETY: `wide_lanes` has just confirmed that this CPU
            // supports AVX2, the only feature `avx2_frame` enables.
            return unsafe { avx2_frame(f) };
        }
    }
    f()
}

/// Calls `f` from a frame compiled with AVX2 enabled, so that `f`'s body,
/// once inlined here, may use AVX2 instructions.
///
/// # Safety
///
/// The CPU running the call must support AVX2 (`is_x86_feature_detected!
/// ("avx2")`): executing an AVX2 instruction on a CPU without it is
/// undefined behaviour.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_frame<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// A persistent pool of worker threads executing chunked work-stealing
/// batches. See the crate docs for the architecture and the determinism
/// contract.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    batches: AtomicU64,
}

impl Pool {
    /// Spawns a pool with `workers` background threads. The submitting
    /// thread always participates in its own batches, so a pool with `0`
    /// workers degrades to serial in-place execution (useful for tests).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(Vec::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bitdissem-pool-{i}"))
                    .spawn(move || {
                        // Claim this worker's telemetry stripe now, from
                        // the counter the submitting thread also claims
                        // from, so participants do not share a stripe
                        // while fewer than `STRIPES` threads have claimed
                        // (see `bitdissem_obs::telemetry::thread_slot`).
                        let _ = thread_slot();
                        worker_loop(&shared);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers: handles, batches: AtomicU64::new(0) }
    }

    /// The shared process-wide pool, created on first use with
    /// [`effective_parallelism`]` − 1` background workers (the submitter
    /// participates, so total participants match the resolved
    /// parallelism).
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(effective_parallelism().saturating_sub(1)))
    }

    /// Number of background worker threads (excluding submitters).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Batches executed over the pool's lifetime.
    #[must_use]
    pub fn batches_run(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Runs `task(i)` for every `i in 0..tasks` using at most `cap`
    /// participants (the calling thread plus up to `cap - 1` pool workers)
    /// and blocks until all tasks have finished.
    ///
    /// Tasks may run in any order and on any participating thread; callers
    /// needing reproducibility must make each task a pure function of its
    /// index (the determinism contract in the crate docs).
    ///
    /// # Panics
    ///
    /// Panics with `"worker thread panicked"` if any task panicked (on
    /// whichever thread it ran); the remaining tasks still execute first,
    /// so the batch always runs to completion.
    pub fn run_batch(&self, tasks: usize, cap: usize, task: &(dyn Fn(usize) + Sync)) -> BatchStats {
        if tasks == 0 {
            return BatchStats::default();
        }
        let cap = cap.clamp(1, tasks);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let core = BatchCore::new(tasks, cap, task);
        let handle = Arc::new(BatchHandle::new(&core, cap));
        let published = cap > 1 && !self.workers.is_empty();
        if published {
            self.shared.injector.lock().expect("injector poisoned").push(Arc::clone(&handle));
            self.shared.work_cv.notify_all();
        }

        core.work(0); // the submitter is participant slot 0
        handle.close_and_wait();

        if published {
            let mut injector = self.shared.injector.lock().expect("injector poisoned");
            injector.retain(|b| !Arc::ptr_eq(b, &handle));
        }

        debug_assert_eq!(core.executed.load(Ordering::Relaxed), tasks as u64);
        if core.panicked.load(Ordering::Relaxed) {
            panic!("worker thread panicked");
        }
        BatchStats {
            tasks: core.executed.load(Ordering::Relaxed),
            steals: core.steals.load(Ordering::Relaxed),
            participants: core.workers_used.load(Ordering::Relaxed),
        }
    }

    /// Batch submission over contiguous chunks: splits `0..items` into
    /// `⌈items / chunk⌉` ranges of (at most) `chunk` items and runs
    /// `task(range)` for each through [`Pool::run_batch`], with at most
    /// `cap` participating threads.
    ///
    /// This is the entry point for lock-step engines that amortize
    /// per-task setup across a whole range (e.g. stepping a batch of
    /// simulation replicas in struct-of-arrays layout): the pool schedules
    /// whole chunks, so a chunk's items share one task activation instead
    /// of paying the dispatch cost item by item. The determinism contract
    /// is unchanged — chunk boundaries depend only on `(items, chunk)`,
    /// never on scheduling, so a task that is a pure function of its range
    /// yields reproducible batches at any worker count.
    ///
    /// # Panics
    ///
    /// Panics with `"worker thread panicked"` if any task panicked, after
    /// the batch runs to completion (same policy as [`Pool::run_batch`]).
    pub fn run_chunks(
        &self,
        items: usize,
        chunk: usize,
        cap: usize,
        task: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) -> BatchStats {
        let chunk = chunk.max(1);
        let tasks = items.div_ceil(chunk);
        self.run_batch(tasks, cap, &|i| {
            let lo = i * chunk;
            let hi = (lo + chunk).min(items);
            task(lo..hi);
        })
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Take the lock so no worker is between the shutdown check and
            // the wait when we notify.
            let _injector = self.shared.injector.lock().expect("injector poisoned");
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .field("batches_run", &self.batches_run())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunks_covers_every_item_exactly_once() {
        let pool = Pool::new(3);
        for &(items, chunk) in &[(0usize, 8usize), (1, 8), (7, 3), (64, 64), (65, 8), (1000, 17)] {
            let seen = Mutex::new(vec![0u32; items]);
            let stats = pool.run_chunks(items, chunk, 4, &|range| {
                assert!(range.len() <= chunk, "chunk overflow: {range:?}");
                let mut seen = seen.lock().unwrap();
                for i in range {
                    seen[i] += 1;
                }
            });
            assert_eq!(stats.tasks, items.div_ceil(chunk) as u64, "items={items} chunk={chunk}");
            assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn run_chunks_clamps_zero_chunk() {
        let pool = Pool::new(1);
        let count = Mutex::new(0usize);
        let stats = pool.run_chunks(5, 0, 2, &|range| {
            *count.lock().unwrap() += range.len();
        });
        assert_eq!(stats.tasks, 5, "chunk 0 behaves as chunk 1");
        assert_eq!(count.into_inner().unwrap(), 5);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn run_chunks_propagates_panics() {
        let pool = Pool::new(2);
        pool.run_chunks(16, 4, 2, &|range| assert!(!range.contains(&9), "boom"));
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let pool = Pool::new(3);
        for &tasks in &[1usize, 2, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            let stats = pool.run_batch(tasks, 4, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(stats.tasks, tasks as u64);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "tasks={tasks}");
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = Pool::new(1);
        let stats = pool.run_batch(0, 4, &|_| panic!("must not run"));
        assert_eq!(stats, BatchStats::default());
    }

    #[test]
    fn zero_workers_runs_serially_on_the_caller() {
        let pool = Pool::new(0);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        pool.run_batch(16, 8, &|_| {
            ran_on.lock().unwrap().push(std::thread::current().id());
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 16);
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn cap_one_stays_on_the_caller_and_in_order() {
        let pool = Pool::new(4);
        let order = Mutex::new(Vec::new());
        pool.run_batch(32, 1, &|i| order.lock().unwrap().push(i));
        assert_eq!(order.into_inner().unwrap(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = Pool::new(2);
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            pool.run_batch(round + 1, 3, &|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), (round + 1) * (round + 2) / 2);
        }
        assert_eq!(pool.batches_run(), 50);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn task_panic_propagates_after_batch_completion() {
        let pool = Pool::new(2);
        pool.run_batch(8, 2, &|i| assert!(i != 3, "boom"));
    }

    #[test]
    fn panicking_batch_still_runs_every_task() {
        let pool = Pool::new(2);
        let hits = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(64, 3, &|i| {
                hits.fetch_add(1, Ordering::Relaxed);
                assert!(i != 0, "boom");
            });
        }));
        assert!(result.is_err());
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn effective_parallelism_sizes_the_global_pool() {
        // Whatever environment this runs under (the CI pool-matrix sets
        // BITDISSEM_POOL_WORKERS to 1 and 8), the resolver and the global
        // pool must agree: participants = background workers + submitter.
        let participants = effective_parallelism();
        assert!(participants >= 1);
        assert_eq!(Pool::global().workers(), participants - 1);
    }

    #[test]
    fn global_pool_is_shared_and_alive() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        let sum = AtomicUsize::new(0);
        Pool::global().run_batch(100, 8, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn concurrent_submitters_do_not_interfere() {
        let pool = Arc::new(Pool::new(3));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let sum = AtomicUsize::new(0);
                    pool.run_batch(257, 4, &|i| {
                        sum.fetch_add(i + t, Ordering::Relaxed);
                    });
                    sum.load(Ordering::Relaxed)
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), 257 * 256 / 2 + 257 * t);
        }
    }

    #[test]
    fn with_wide_lanes_runs_f_once_and_returns_its_value() {
        let calls = AtomicUsize::new(0);
        let value = with_wide_lanes(|| {
            calls.fetch_add(1, Ordering::Relaxed);
            42u64
        });
        assert_eq!((value, calls.load(Ordering::Relaxed)), (42, 1));
        let owned = String::from("moved in, moved out");
        assert_eq!(with_wide_lanes(move || owned), "moved in, moved out");
    }

    /// The fused block update of the banded LU: `d − f₀·a₀ − … − f₃·a₃`,
    /// left to right.
    #[inline(always)]
    fn fused4(dst: &mut [f64], f: [f64; 4], a: [&[f64]; 4]) {
        let [f0, f1, f2, f3] = f;
        for ((((d, &a0), &a1), &a2), &a3) in dst.iter_mut().zip(a[0]).zip(a[1]).zip(a[2]).zip(a[3])
        {
            *d = *d - f0 * a0 - f1 * a1 - f2 * a2 - f3 * a3;
        }
    }

    /// The AXPY of distribution stepping: `d += w·a`.
    #[inline(always)]
    fn axpy(dst: &mut [f64], w: f64, a: &[f64]) {
        for (d, &v) in dst.iter_mut().zip(a) {
            *d += w * v;
        }
    }

    /// Both kernels, in the order the test applies them.
    #[inline(always)]
    fn kernels(dst: &mut [f64], f: [f64; 4], a: [&[f64]; 4], w: f64) {
        fused4(dst, f, a);
        axpy(dst, w, a[0]);
    }

    /// Every result that is a number must match bit for bit, signed zeros,
    /// subnormals and infinities included. A NaN result need only be NaN on
    /// both sides: Rust leaves a NaN's sign and payload unspecified, and
    /// when both operands of a commutative add are NaN, x86 returns the
    /// first, whose place LLVM may choose differently per instruction set
    /// (on these inputs one NaN reads `0x7ff8…` called directly and
    /// `0xfff8…` dispatched).
    #[test]
    fn wide_lanes_keep_every_bit_of_the_float_kernels() {
        // Special values among ordinary ones: NaN, both zeros, subnormals
        // of both signs, both infinities, and values whose products
        // overflow or underflow.
        const SPECIAL: [f64; 10] = [
            f64::NAN,
            0.0,
            -0.0,
            5e-324,
            -2.2e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e-300,
            f64::MAX,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut value = move || {
            let r = next();
            if r % 5 == 0 {
                SPECIAL[(r >> 8) as usize % SPECIAL.len()]
            } else {
                ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 8.0
            }
        };
        // Ragged lengths cover an empty pass, vector bodies and every
        // remainder of a vector loop unrolled to up to 32 elements.
        for len in (0..=40).chain([63, 64, 65, 127, 1000]) {
            for _ in 0..8 {
                let dst: Vec<f64> = (0..len).map(|_| value()).collect();
                let a: Vec<Vec<f64>> =
                    (0..4).map(|_| (0..len).map(|_| value()).collect()).collect();
                let f = [value(), value(), value(), value()];
                let w = value();
                let a = [&a[0][..], &a[1][..], &a[2][..], &a[3][..]];
                let mut direct = dst.clone();
                kernels(&mut direct, f, a, w);
                let mut wide = dst;
                with_wide_lanes(
                    #[inline(always)]
                    || kernels(&mut wide, f, a, w),
                );
                for (i, (&x, &y)) in direct.iter().zip(&wide).enumerate() {
                    let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                    assert!(same, "len {len} entry {i}: {:#x} vs {:#x}", x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let pool = Pool::new(4);
        pool.run_batch(10, 4, &|_| {});
        drop(pool); // must not hang
    }
}
