//! Scoped fork–join helpers for the search substrate.
//!
//! The workspace builds without a registry, so instead of rayon this
//! module provides the thread-count default every parallel region sizes
//! itself by ([`num_threads`]) and two scoped primitives:
//! [`parallel_zip_map`], where state `i` serves item `i` on its own
//! scoped thread, and [`join`], which runs two closures concurrently
//! (the wire front-end's reader and responder halves). Work-stealing
//! maps over a slice run on the persistent [`crate::WorkerPool`]
//! instead.

// The scoped helpers run on borrowed state via `std::thread::scope`,
// which the loom shim does not model (its spawn requires 'static
// closures); their determinism is pinned by the bit-identical prop
// suites instead.
// xlint: allow(sync-facade) — scoped-thread layer, see note above.
use std::sync::{Mutex, PoisonError};

/// Number of worker threads parallel regions use: `XSUM_THREADS` if set
/// (clamped to ≥ 1), else available hardware parallelism.
pub fn num_threads() -> usize {
    static CACHE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        if let Ok(v) = std::env::var("XSUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run `f(&mut states[i], &items[i])` for every index concurrently, one
/// scoped thread per pair, returning results in pair order.
///
/// Unlike [`crate::WorkerPool::map_with`], which binds states to
/// workers and lets workers steal arbitrary items, this binds state `i`
/// to item `i` and nothing else — the scatter primitive of a sharded
/// front-end, where replica
/// `i` must serve exactly its own sub-batch (its state owns the graph
/// replica the sub-batch was routed to). With zero or one pairs the
/// call runs on the calling thread and spawns nothing.
///
/// # Panics
/// Panics if `states` and `items` differ in length, or if `f` panics on
/// any pair (the remaining pairs still run to completion first). The
/// first pair's **original payload** is resumed on the calling thread —
/// panics are caught per thread rather than left to the scope join,
/// which would replace the payload with a generic "a scoped thread
/// panicked" message and lose the failure cause.
pub fn parallel_zip_map<S, T, R>(
    states: &mut [S],
    items: &[T],
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    assert_eq!(
        states.len(),
        items.len(),
        "zip map needs one state per item"
    );
    match items.len() {
        0 => return Vec::new(),
        1 => return vec![f(&mut states[0], &items[0])],
        _ => {}
    }
    let f = &f;
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let panic_ref = &panic_slot;
    scoped(|scope| {
        for ((state, item), slot) in states.iter_mut().zip(items).zip(out.iter_mut()) {
            scope.spawn(
                move || match catch_unwind(AssertUnwindSafe(|| f(state, item))) {
                    Ok(r) => *slot = Some(r),
                    Err(payload) => {
                        let mut first = panic_ref.lock().unwrap_or_else(PoisonError::into_inner);
                        if first.is_none() {
                            *first = Some(payload);
                        }
                    }
                },
            );
        }
    });
    if let Some(payload) = panic_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    // Every slot is `Some`: the scope joined all threads and none
    // panicked (handled above).
    out.into_iter().flatten().collect()
}

/// Run `a` on the calling thread and `b` on one scoped thread,
/// concurrently, and return both results once both have finished.
///
/// `b` may borrow the caller's state for as long as the call lasts. It
/// must not wait for `a` to *return*: anything `b` blocks on has to be
/// released on every exit path of `a`, unwinding included (a drop
/// guard in `a` does that), or the call never returns.
///
/// # Panics
/// If either closure panics, the other still runs to completion, then
/// the **original payload** is resumed on the calling thread — `a`'s
/// if both panicked, since that is the caller's own failure.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    let (ra, rb) = scoped(|scope| {
        let hb = scope.spawn(b);
        let ra = catch_unwind(AssertUnwindSafe(a));
        // Joining the handle explicitly hands back `b`'s own panic
        // payload instead of the scope's generic one.
        (ra, hb.join())
    });
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(payload), _) | (Ok(_), Err(payload)) => resume_unwind(payload),
    }
}

/// The module's one `std::thread::scope` call site, shared by
/// [`parallel_zip_map`] and [`join`].
fn scoped<'env, T>(f: impl for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T) -> T {
    // xlint: allow(sync-facade) — std scoped threads over borrowed state;
    // no facade equivalent (loom spawn is 'static), prop-suite verified.
    std::thread::scope(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn thread_count_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn zip_map_pairs_statically() {
        // Each state must see exactly its own item — no stealing.
        let mut states: Vec<Vec<usize>> = vec![Vec::new(); 5];
        let items: Vec<usize> = (0..5).map(|i| i * 10).collect();
        let out = parallel_zip_map(&mut states, &items, |log, &x| {
            log.push(x);
            x + 1
        });
        assert_eq!(out, vec![1, 11, 21, 31, 41]);
        for (i, log) in states.iter().enumerate() {
            assert_eq!(log, &vec![i * 10], "state {i} served a foreign item");
        }
    }

    #[test]
    fn zip_map_small_inputs_run_on_caller() {
        let caller = std::thread::current().id();
        let mut states = vec![0usize];
        let out = parallel_zip_map(&mut states, &[7usize], |s, &x| {
            assert_eq!(std::thread::current().id(), caller);
            *s = x;
            x
        });
        assert_eq!(out, vec![7]);
        assert_eq!(states[0], 7);
        let mut none: Vec<usize> = Vec::new();
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_zip_map(&mut none, &empty, |_, &x| x).is_empty());
    }

    #[test]
    fn zip_map_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            let mut states = vec![(); 3];
            parallel_zip_map(&mut states, &[0usize, 1, 2], |_, &x| {
                if x == 1 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(caught.is_err(), "pair panic must reach the caller");
    }

    #[test]
    fn join_runs_both_closures_concurrently() {
        // `a` waits for a value only `b` can send, so the call returns
        // only if the two really run at the same time.
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut a_state = 0usize;
        let (a, b) = join(
            || {
                a_state = rx.recv().expect("b sends once");
                (std::thread::current().id(), a_state + 1)
            },
            move || {
                tx.send(41).expect("a is receiving");
                std::thread::current().id()
            },
        );
        assert_eq!(a, (caller, 42), "a runs on the calling thread");
        assert_ne!(b, caller, "b runs on its own thread");
        assert_eq!(a_state, 41, "a may mutate borrowed caller state");
    }

    #[test]
    fn join_b_panic_propagates_with_its_payload() {
        let a_ran = std::sync::atomic::AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || a_ran.store(true, std::sync::atomic::Ordering::SeqCst),
                || -> u8 { panic!("responder boom") },
            )
        }));
        let payload = caught.expect_err("b's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"responder boom"));
        assert!(
            a_ran.load(std::sync::atomic::Ordering::SeqCst),
            "a still ran"
        );
    }

    #[test]
    fn join_a_panic_waits_for_b_and_wins() {
        let b_ran = std::sync::atomic::AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || -> u8 { panic!("reader boom") },
                || {
                    b_ran.store(true, std::sync::atomic::Ordering::SeqCst);
                    panic!("responder boom")
                },
            )
        }));
        let payload = caught.expect_err("a's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"reader boom"));
        assert!(
            b_ran.load(std::sync::atomic::Ordering::SeqCst),
            "b ran to its end"
        );
    }
}
