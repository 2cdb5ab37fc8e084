//! The crate's one worker pool: run `n` independent items on up to
//! `threads` scoped workers and hand the results to a single consumer in
//! ascending index order.
//!
//! The crate's one sharded loop runs on it — the [`crate::Campaign`] driver
//! (item = one work chunk), which [`crate::CompiledSim::run`] is a call of —
//! and it is the only place in the crate that spawns threads or touches an
//! atomic, so the argument for `threads = 1 ≡ threads = N` is made once:
//!
//! * **Claiming.** Workers take indices from a shared ticket counter, in
//!   ascending order, each exactly once — not from static ranges: per-item
//!   cost varies wildly (a stub prefix scoped by `NO_EXPORT` vs a full
//!   flood), so static chunking would let one unlucky worker own the wall
//!   clock. Each worker builds one `W` (a `SimScratch`) when it starts and
//!   reuses it for every item it claims — never one per item.
//! * **Publishing.** A finished item goes into its own
//!   `Mutex<Option<Result<T, String>>>` slot: written once by the claiming
//!   worker, read once after the scope join, never contended. (`Mutex`
//!   rather than `OnceLock` so `T` only needs `Send`.)
//! * **Consuming.** After the join, `consume(i, value)` runs on the calling
//!   thread for `i = 0, 1, 2, …` — the order the inline path produces — so
//!   whatever the consumer folds is independent of which worker ran what.
//! * **Panics.** A panicking item is caught and stored as its slot's `Err`
//!   (rendered by [`crate::panic_message`]), and an abort latch stops
//!   workers from claiming further items — a sink blowing up in chunk 0 of
//!   a multi-hour campaign must not let the fleet grind through the rest.
//!   The in-order walk stops at the **lowest** failed index and returns it
//!   with its message, consuming nothing at or above it, so nothing a
//!   poisoned worker state produced afterwards is ever observed. The
//!   caller re-raises, naming the item.
//!
//! With one worker (`threads <= 1`, or fewer than two items) nothing is
//! spawned and nothing is caught: items run inline, `consume` follows each
//! one directly, and a panic unwinds through with its original payload,
//! still downcastable by the caller.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(&mut worker_state, i)` for every `i in 0..n` and feeds each
/// result to `consume(i, result)` in ascending `i` — see the module docs
/// for the scheme. Returns `Err((i, panic text))` for the lowest item that
/// panicked on a worker thread; the inline path never returns `Err` (its
/// panics unwind through).
pub(crate) fn for_each_ordered<W, T: Send>(
    threads: usize,
    n: usize,
    new_worker: impl Fn() -> W + Sync,
    job: impl Fn(&mut W, usize) -> T + Sync,
    mut consume: impl FnMut(usize, T),
) -> Result<(), (usize, String)> {
    let threads = threads.min(n);
    if threads <= 1 {
        let mut worker = new_worker();
        for i in 0..n {
            consume(i, job(&mut worker, i));
        }
        return Ok(());
    }

    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut worker = new_worker();
                loop {
                    // ordering: advisory one-way latch — a stale read only
                    // costs one extra item of work; the in-order walk below
                    // never reads it
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    // ordering: pure claim ticket — only the RMW atomicity
                    // matters (each index is handed out exactly once);
                    // results are published through the slot mutexes and
                    // the scope join, not through this counter
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| job(&mut worker, i)))
                        .map_err(|payload| crate::panic_message(&*payload));
                    if result.is_err() {
                        // ordering: idempotent true-only store; a delayed
                        // sighting just lets peers claim a few more items
                        abort.store(true, Ordering::Relaxed);
                    }
                    // lint: infallible the lock is taken outside the
                    // catch_unwind above, so no panic can poison it
                    let previous = slots[i]
                        .lock()
                        .expect("slot lock never poisoned")
                        .replace(result);
                    debug_assert!(previous.is_none(), "slot {i} claimed twice");
                }
            });
        }
    });

    // Tickets ascend and every claimed slot is written before its worker
    // exits, so the written slots form a prefix of `0..n`: a failed slot is
    // always reached before any unclaimed one.
    for (i, slot) in slots.into_iter().enumerate() {
        // lint: infallible slot locks are only held outside catch_unwind,
        // so no worker panic can poison them
        match slot.into_inner().expect("slot lock never poisoned") {
            Some(Ok(value)) => consume(i, value),
            Some(Err(message)) => return Err((i, message)),
            None => unreachable!("unclaimed slot {i} implies an earlier failed slot"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Runs the pool with a per-worker item counter as worker state and
    /// returns the consumed `(index, value)` sequence plus how many worker
    /// states were built.
    fn squares(threads: usize, n: usize) -> (Vec<(usize, usize)>, usize) {
        let built = AtomicUsize::new(0);
        let mut seen = Vec::new();
        for_each_ordered(
            threads,
            n,
            || built.fetch_add(1, Ordering::Relaxed),
            |_, i| i * i,
            |i, v| seen.push((i, v)),
        )
        .expect("no item panics");
        (seen, built.into_inner())
    }

    #[test]
    fn consume_sees_every_index_in_order_at_any_thread_count() {
        for threads in [0, 1, 2, 7] {
            for n in [0, 1, 3, 40] {
                let (seen, built) = squares(threads, n);
                let expected: Vec<_> = (0..n).map(|i| (i, i * i)).collect();
                assert_eq!(seen, expected, "threads = {threads}, n = {n}");
                assert_eq!(
                    built,
                    threads.min(n).max(1),
                    "one worker state per worker, never per item (threads = {threads}, n = {n})"
                );
            }
        }
    }

    #[test]
    fn lowest_failing_index_is_reported_and_nothing_above_it_consumed() {
        for threads in [2, 7] {
            let mut seen = Vec::new();
            let err = for_each_ordered(
                threads,
                40,
                || (),
                |(), i| {
                    if i == 5 || i == 9 {
                        panic!("item {i} exploded");
                    }
                    i
                },
                |i, v| seen.push((i, v)),
            )
            .expect_err("two items panic");
            assert_eq!(err, (5, "item 5 exploded".to_string()));
            let expected: Vec<_> = (0..5).map(|i| (i, i)).collect();
            assert_eq!(seen, expected, "consumed exactly the indices below 5");
        }
    }

    #[test]
    fn inline_mode_reraises_the_original_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        let mut seen = Vec::new();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            for_each_ordered(
                1,
                4,
                || (),
                |(), i| {
                    if i == 2 {
                        std::panic::panic_any(Payload(i));
                    }
                },
                |i, ()| seen.push(i),
            )
        }))
        .expect_err("the panic unwinds through the inline path");
        assert_eq!(
            payload.downcast_ref::<Payload>(),
            Some(&Payload(2)),
            "payload must stay downcastable, got: {}",
            crate::panic_message(&*payload)
        );
        assert_eq!(seen, [0, 1], "items before the panic were consumed");
    }
}
