//! Scoped fork–join helpers for the search substrate.
//!
//! The workspace builds without a registry, so instead of rayon this
//! module provides the thread-count default every parallel region sizes
//! itself by ([`num_threads`]) and one scoped primitive,
//! [`parallel_zip_map`]: state `i` serves item `i` on its own scoped
//! thread. Work-stealing maps over a slice run on the persistent
//! [`crate::WorkerPool`] instead.

// The scoped helper runs on borrowed state via `std::thread::scope`,
// which the loom shim does not model (its spawn requires 'static
// closures); its determinism is pinned by the bit-identical prop suites
// instead.
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
    // xlint: allow(sync-facade) — std scoped threads over borrowed state;
    // no facade equivalent (loom spawn is 'static), prop-suite verified.
    std::thread::scope(|scope| {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
