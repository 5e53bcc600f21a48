//! Telemetry stripes of pool participants. Its own test binary, so that
//! no other test's threads claim stripes in the same process.

use std::sync::{Barrier, Mutex};

use bitdissem_obs::telemetry::{thread_slot, STRIPES};
use bitdissem_pool::Pool;

#[test]
fn batch_participants_own_distinct_stripes() {
    // The submitter and the workers claim from one counter, so a pool of
    // at most `STRIPES` participants never puts two on one stripe.
    let workers = STRIPES - 1;
    let participants = workers + 1;
    let pool = Pool::new(workers);
    // One task per participant, each parked on the barrier until every
    // task has started: the batch runs on `participants` distinct threads.
    let barrier = Barrier::new(participants);
    let slots = Mutex::new(Vec::new());
    pool.run_batch(participants, participants, &|_| {
        barrier.wait();
        slots.lock().unwrap().push(thread_slot());
    });
    let mut slots = slots.into_inner().unwrap();
    slots.sort_unstable();
    slots.dedup();
    assert_eq!(slots.len(), participants, "participants share a stripe: {slots:?}");
}
