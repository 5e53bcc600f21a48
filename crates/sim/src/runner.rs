//! Multi-threaded replication over the persistent worker pool.
//!
//! Experiments run hundreds of independent replications; this module fans
//! them out over the shared [`Pool`] with deterministic per-replication
//! seeds, so the result vector is identical regardless of worker count,
//! pool reuse, or scheduling.
//!
//! Each replication derives its RNG from its **replication index** alone
//! (`replication_seed(base, rep)`), which is the pool's determinism
//! contract: the pool decides *where* a task runs, never *what* it
//! computes. Results are scattered into an index-addressed slot vector, so
//! no slot is written twice and order is restored for free.
//!
//! The pre-pool engine — spawn scoped threads per call, join, repeat — is
//! kept as [`replicate_spawn`] as an executable reference implementation:
//! the equivalence proptest compares the two directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

use bitdissem_obs::Obs;
use bitdissem_pool::{effective_parallelism, Pool};

use crate::rng::{replication_seed, rng_from, SimRng};

/// Runs `reps` independent replications of `f`, each with its own
/// deterministically derived RNG, distributing work over the shared worker
/// pool with at most `threads` concurrent participants (defaults to the
/// pool's [`effective_parallelism`]). Results are returned **in
/// replication order**, independent of scheduling.
///
/// `f` receives `(rng, replication_index)`.
///
/// # Panics
///
/// Panics if any replication panics (the panic is propagated).
///
/// # Examples
///
/// ```
/// use bitdissem_sim::runner::replicate;
/// use rand::Rng;
///
/// let xs = replicate(8, 42, None, |mut rng, rep| (rep, rng.random::<u32>()));
/// assert_eq!(xs.len(), 8);
/// assert!(xs.iter().enumerate().all(|(i, &(rep, _))| rep == i));
/// ```
pub fn replicate<R, F>(reps: usize, base_seed: u64, threads: Option<usize>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(SimRng, usize) -> R + Sync,
{
    replicate_observed(reps, base_seed, threads, &Obs::none(), f)
}

/// [`replicate`] with an observability handle: counts derived RNG streams,
/// completed replications and pool batch/steal totals, and ticks the
/// attached progress meter once per replication. Trace events and round
/// counters of individual replications are the closure's job (it knows
/// the outcome), e.g. through a [`RunSpec`](crate::run::RunSpec) handed to
/// [`drive`](crate::run::drive), as the sequential sweep
/// `experiments::workload::measure_convergence_sequential_observed` does.
///
/// # Panics
///
/// Panics if any replication panics (the panic is propagated).
pub fn replicate_observed<R, F>(
    reps: usize,
    base_seed: u64,
    threads: Option<usize>,
    obs: &Obs,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(SimRng, usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..reps).collect();
    replicate_indices_observed(&indices, base_seed, threads, obs, f)
}

/// Runs only the replications named by `indices` (a subset of a conceptual
/// `0..reps` batch) and returns their results **in the order of `indices`**.
///
/// Each replication still derives its RNG from its own index via
/// [`replication_seed`], so running `{0, 1, …, reps-1}` in one batch, or
/// any partition of it across separate calls, produces bit-identical
/// per-replication results. This is what makes sweep checkpointing sound:
/// a resumed run executes only the missing indices and splices the cached
/// results back in.
///
/// # Panics
///
/// Panics if any replication panics (the panic is propagated).
pub fn replicate_indices_observed<R, F>(
    indices: &[usize],
    base_seed: u64,
    threads: Option<usize>,
    obs: &Obs,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(SimRng, usize) -> R + Sync,
{
    if indices.is_empty() {
        return Vec::new();
    }
    let tasks = indices.len();
    let cap = threads.unwrap_or_else(effective_parallelism).clamp(1, tasks);
    let _scope = obs.scope("replicate");
    if obs.metrics_on() {
        obs.metrics().add_rng_streams(tasks as u64);
        obs.metrics().add_replications(tasks as u64);
    }

    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..tasks).map(|_| None).collect());
    let stats = Pool::global().run_batch(tasks, cap, &|i| {
        // Per-replication latency, into the lock-free `latency/replication`
        // cell; it never touches the task's RNG or result.
        let task_start = obs.metrics_on().then(std::time::Instant::now);
        let rep = indices[i];
        let rng = rng_from(replication_seed(base_seed, rep as u64));
        let r = f(rng, rep);
        if let Some(start) = task_start {
            obs.metrics().record_latency(
                bitdissem_obs::LatencyId::Replication,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        {
            let mut slots = slots.lock().expect("replication slots poisoned");
            debug_assert!(slots[i].is_none(), "replication {rep} produced twice");
            slots[i] = Some(r);
        }
        if let Some(progress) = obs.progress() {
            progress.tick(1);
        }
    });
    if obs.metrics_on() {
        obs.metrics().add_pool_batch(stats.tasks, stats.steals);
    }

    slots
        .into_inner()
        .expect("replication slots poisoned")
        .into_iter()
        .map(|r| r.expect("every replication index is filled"))
        .collect()
}

/// The pre-pool replication engine: spawns `threads` scoped threads **per
/// call**, joins them, and scatters `(index, result)` pairs sent over a
/// channel. Kept as the reference implementation the pool is proven
/// equivalent to (see `tests/pool_scheduler.rs`). New code should call
/// [`replicate`].
///
/// # Panics
///
/// Panics if any worker panics (the panic is propagated).
pub fn replicate_spawn<R, F>(reps: usize, base_seed: u64, threads: Option<usize>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(SimRng, usize) -> R + Sync,
{
    if reps == 0 {
        return Vec::new();
    }
    let threads = threads.unwrap_or_else(effective_parallelism).clamp(1, reps);

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    let results: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                scope.spawn(|| {
                    let tx = tx;
                    loop {
                        let rep = next.fetch_add(1, Ordering::Relaxed);
                        if rep >= reps {
                            break;
                        }
                        let rng = rng_from(replication_seed(base_seed, rep as u64));
                        let r = f(rng, rep);
                        // The receiver lives until every worker is joined,
                        // so this send cannot fail.
                        tx.send((rep, r)).expect("replication receiver alive");
                    }
                })
            })
            .collect();
        // Drop the original sender so `rx` terminates once workers finish.
        drop(tx);

        let mut slots: Vec<Option<R>> = (0..reps).map(|_| None).collect();
        for (rep, r) in rx {
            debug_assert!(slots[rep].is_none(), "replication {rep} produced twice");
            slots[rep] = Some(r);
        }
        for handle in handles {
            if handle.join().is_err() {
                panic!("worker thread panicked");
            }
        }
        slots
    });

    results.into_iter().map(|r| r.expect("every replication index is filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdissem_obs::Progress;
    use rand::Rng;
    use std::sync::Arc;

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = replicate(0, 1, None, |_, _| 7);
        assert!(none.is_empty());
        let one = replicate(1, 1, Some(4), |_, rep| rep);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn results_in_replication_order() {
        let xs = replicate(100, 9, Some(8), |_, rep| rep * 3);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn results_in_replication_order_across_thread_counts() {
        // Regression test for the slot scatter: results must come back in
        // replication order for every thread count and replication count,
        // including reps % threads != 0 and a task finishing out of order
        // (later reps return faster).
        for &threads in &[1usize, 2, 3, 8] {
            for &reps in &[1usize, 2, 7, 33] {
                let xs = replicate(reps, 5, Some(threads), |_, rep| {
                    if rep == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    rep
                });
                let expect: Vec<usize> = (0..reps).collect();
                assert_eq!(xs, expect, "threads={threads} reps={reps}");
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads| replicate(64, 1234, Some(threads), |mut rng, _| rng.random::<u64>());
        let a = run(1);
        let b = run(4);
        let c = run(16);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn pool_matches_spawn_reference() {
        // The pool engine and the scoped-thread reference must agree
        // bit-for-bit for any thread count (the determinism contract).
        let seed = 20_24;
        let spawn = replicate_spawn(48, seed, Some(4), |mut rng, rep| (rep, rng.random::<u64>()));
        for &threads in &[1usize, 2, 5, 16] {
            let pooled =
                replicate(48, seed, Some(threads), |mut rng, rep| (rep, rng.random::<u64>()));
            assert_eq!(pooled, spawn, "threads={threads}");
        }
    }

    #[test]
    fn index_subsets_match_the_full_batch() {
        let obs = Obs::none();
        let full = replicate(20, 77, Some(4), |mut rng, _| rng.random::<u64>());
        let odd: Vec<usize> = (0..20).filter(|i| i % 2 == 1).collect();
        let partial =
            replicate_indices_observed(&odd, 77, Some(3), &obs, |mut rng, _| rng.random::<u64>());
        for (pos, &rep) in odd.iter().enumerate() {
            assert_eq!(partial[pos], full[rep]);
        }
        let empty: Vec<u64> = replicate_indices_observed(&[], 77, None, &obs, |_, _| 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn distinct_replications_get_distinct_streams() {
        let xs = replicate(32, 7, None, |mut rng, _| rng.random::<u64>());
        let unique: std::collections::HashSet<u64> = xs.iter().copied().collect();
        assert_eq!(unique.len(), xs.len());
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panics_propagate() {
        let _ = replicate(4, 0, Some(2), |_, rep| {
            assert!(rep < 2, "boom");
            rep
        });
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn spawn_reference_panics_propagate() {
        let _ = replicate_spawn(4, 0, Some(2), |_, rep| {
            assert!(rep < 2, "boom");
            rep
        });
    }

    #[test]
    fn observed_counts_streams_and_ticks_progress() {
        let progress = Arc::new(Progress::new("test"));
        let obs = Obs::none().with_metrics().with_progress(Arc::clone(&progress));
        let xs = replicate_observed(16, 3, Some(4), &obs, |_, rep| rep);
        assert_eq!(xs.len(), 16);
        assert_eq!(progress.done(), 16);
        let metrics = obs.metrics();
        assert_eq!(metrics.rng_streams.load(std::sync::atomic::Ordering::Relaxed), 16);
        assert_eq!(metrics.replications.load(std::sync::atomic::Ordering::Relaxed), 16);
        assert_eq!(metrics.pool_batches.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(metrics.pool_tasks.load(std::sync::atomic::Ordering::Relaxed), 16);
        // One phase for the whole call, and one latency sample per
        // replication.
        assert_eq!(metrics.phases().len(), 1);
        let series = metrics.series();
        let latency = series.iter().find(|(path, _)| path == "latency/replication");
        assert_eq!(latency.map(|(_, h)| h.count()), Some(16));
    }

    #[test]
    fn observed_matches_unobserved() {
        let plain = replicate(24, 99, Some(3), |mut rng, _| rng.random::<u64>());
        let obs = Obs::none().with_metrics();
        let observed = replicate_observed(24, 99, Some(3), &obs, |mut rng, _| rng.random::<u64>());
        assert_eq!(plain, observed);
    }
}
