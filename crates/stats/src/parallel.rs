//! Dependency-free data parallelism over `std::thread::scope`.
//!
//! The workspace deliberately avoids external runtime crates, so its
//! parallel layer is this one primitive: [`parallel_map_dynamic`] maps a
//! fixed list of independent tasks over scoped threads and returns the
//! results in input order. It runs the design-space sweeps in
//! `mbus-analysis`, the table regeneration in `multibus::tables`, fault
//! campaigns, replicated simulation and the load generator.
//!
//! Workers claim the next task index from one shared atomic cursor, last
//! task first, so a worker that finishes a cheap task immediately takes
//! the next one and irregular task costs (memo hits vs. full solves, fault
//! masks of wildly different weight, batched vs. scalar replication
//! chunks) never leave a worker idle behind a static split. Tasks never
//! create new tasks, so once every index is claimed the map is done. The
//! pool holds no `unsafe`: each input sits in its own `Mutex<Option<T>>`,
//! taken once by the worker that claimed its index.
//!
//! Everything runs on the calling thread when `workers <= 1` or there are
//! fewer than two items (the guaranteed serial fallback on a 1-core box),
//! and a worker panic is propagated after all workers have been
//! joined — callers that must convert panics into errors (the simulation
//! runner's `SimError::ReplicationPanicked`) wrap their task bodies in
//! `catch_unwind` and keep the join-all semantics for free.
//!
//! # Examples
//!
//! ```
//! use mbus_stats::parallel::{available_workers, parallel_map_dynamic};
//!
//! let squares = parallel_map_dynamic(vec![1u64, 2, 3, 4], available_workers(), |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A sensible worker count for CPU-bound sweeps: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `workers` scoped threads, preserving
/// input order in the output.
///
/// Each worker repeatedly claims the next unclaimed index, last task
/// first, so the load balances itself however uneven the task costs are. `f` only needs
/// `Sync` (shared by reference across threads), not `Clone`. With
/// `workers <= 1`, a single item, or an empty input, everything runs
/// serially on the calling thread — callers can pass a configured worker
/// count straight through without special-casing the serial path.
///
/// # Panics
///
/// Propagates a panic raised by `f` (the lowest-numbered worker's, should
/// several tasks panic at once). All workers are joined before the panic
/// resumes; once a panic is observed no further task starts, but no
/// thread is left running.
pub fn parallel_map_dynamic<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    if len <= 1 || workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items
        .into_iter()
        .map(|item| Mutex::new(Some(item)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let (slots, cursor, f) = (&slots, &cursor, &f);
    let finished = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(len))
            .map(|_| scope.spawn(move || drain(slots, cursor, f)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().and_then(|done| done))
            .collect::<Vec<_>>()
    });
    let mut done = Vec::with_capacity(len);
    for part in finished {
        done.extend(part.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    debug_assert_eq!(done.len(), len, "every index runs exactly once");
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, out)| out).collect()
}

/// One worker's loop: claim indices through `cursor` until every slot has
/// been claimed, returning the `(index, output)` pairs it produced, or the
/// payload of the first panic raised by `f`.
fn drain<T, U>(
    slots: &[Mutex<Option<T>>],
    cursor: &AtomicUsize,
    f: &impl Fn(T) -> U,
) -> std::thread::Result<Vec<(usize, U)>> {
    let mut done = Vec::new();
    loop {
        // The read-modify-write alone hands out distinct claims, and the
        // cursor publishes no data (the item travels through its slot's
        // mutex), so SeqCst here is for plainness, not correctness.
        let claimed = cursor.fetch_add(1, Ordering::SeqCst);
        // Claims run from the back of the list: the fan-outs list their
        // tasks in rising cost (sweeps by `B`, table blocks by `N`), and
        // starting the dearest first keeps one late, long task from
        // setting the wall clock.
        let Some(index) = slots.len().checked_sub(claimed + 1) else {
            return Ok(done);
        };
        let slot = &slots[index];
        // Only the claiming worker locks a slot, and never while `f` runs,
        // so the lock neither contends nor can be poisoned.
        let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
        // lint:allow(no_panic, the cursor hands out each index once, so its slot still holds the item)
        let item = item.expect("each index is claimed once");
        // AssertUnwindSafe: on panic the map is abandoned and re-raised
        // after the join; no partially-built output reaches the caller.
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(out) => done.push((index, out)),
            Err(payload) => {
                // Move the cursor past the last claim so no worker starts
                // another task.
                cursor.store(slots.len(), Ordering::SeqCst);
                return Err(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    fn thread_ids<T: Send>(items: Vec<T>, workers: usize) -> HashSet<ThreadId> {
        parallel_map_dynamic(items, workers, |_| std::thread::current().id())
            .into_iter()
            .collect()
    }

    #[test]
    fn preserves_order() {
        // Owned, non-Copy items over worker counts that do and do not
        // divide the task count.
        for workers in 2..=9 {
            let items: Vec<String> = (0..100).map(|x| x.to_string()).collect();
            let out = parallel_map_dynamic(items, workers, |s| s + "!");
            assert_eq!(out, (0..100).map(|x| format!("{x}!")).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<usize> = parallel_map_dynamic(Vec::new(), 4, |x: usize| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_dynamic(vec![41usize], 4, |x| x + 1), vec![42]);
        // Both run on the calling thread: no worker is spawned for them.
        let caller = std::thread::current().id();
        assert_eq!(thread_ids(vec![()], 4), HashSet::from([caller]));
    }

    #[test]
    fn serial_fallback_matches_parallel() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [0, 1, 2, 3, 16] {
            assert_eq!(
                parallel_map_dynamic(items.clone(), workers, |x| x * x + 1),
                serial
            );
        }
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            assert_eq!(thread_ids(items.clone(), workers), HashSet::from([caller]));
        }
    }

    #[test]
    fn more_workers_than_items() {
        // At most one worker per item is started.
        assert!(thread_ids(vec![(); 3], 64).len() <= 3);
        assert_eq!(
            parallel_map_dynamic(vec![1usize, 2], 64, |x| x + 10),
            vec![11, 12]
        );
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        parallel_map_dynamic((0..500usize).collect(), 8, |x| {
            calls[x].fetch_add(1, Ordering::Relaxed);
        });
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn dynamic_preserves_order() {
        let out = parallel_map_dynamic((0..250usize).collect(), 7, |x| x * 3);
        assert_eq!(out, (0..250).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_empty_singleton_and_serial() {
        let empty: Vec<usize> = parallel_map_dynamic(Vec::new(), 4, |x: usize| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_dynamic(vec![41usize], 4, |x| x + 1), vec![42]);
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map_dynamic(items.clone(), 1, |x| x * x + 1);
        let dynamic = parallel_map_dynamic(items, 16, |x| x * x + 1);
        assert_eq!(serial, dynamic);
    }

    #[test]
    fn dynamic_matches_static_on_irregular_costs() {
        // Task cost varies by three orders of magnitude; the pool must
        // still reproduce the static (serial, in-order) map exactly.
        let items: Vec<u64> = (0..120).collect();
        let work = |x: u64| {
            let spins = if x % 17 == 0 { 20_000 } else { 20 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        let serial: Vec<_> = items.iter().copied().map(work).collect();
        assert_eq!(parallel_map_dynamic(items, 8, work), serial);
    }

    #[test]
    fn dynamic_runs_every_item_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = parallel_map_dynamic((0..500usize).collect(), 8, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(calls.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn dynamic_propagates_panics_after_joining() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_dynamic((0..64usize).collect(), 4, |x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 13"), "payload: {message}");
    }

    #[test]
    fn dynamic_more_workers_than_items() {
        assert_eq!(
            parallel_map_dynamic(vec![1usize, 2, 3], 64, |x| x + 10),
            vec![11, 12, 13]
        );
    }
}
