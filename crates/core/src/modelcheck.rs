//! Model-checked concurrency scenarios for the serving stack.
//!
//! Compiled only under `--cfg xsum_loom`, where the
//! [`xsum_graph::sync`] facade swaps every mutex, condvar, atomic and
//! spawn in [`WorkerPool`](xsum_graph::WorkerPool),
//! [`AdmissionQueue`], [`TicketSet`] and
//! [`CircuitBreaker`](crate::CircuitBreaker) for the vendored loom
//! shim's instrumented primitives. Each scenario below wraps one
//! protocol in `loom::model_with` and lets the shim's deterministic
//! scheduler enumerate thread interleavings; a panic, deadlock or
//! violated assertion in *any* explored schedule fails the scenario
//! with the offending schedule printed.
//!
//! The scenarios live in this crate (not in the test tree) so that
//! mock backends can construct [`EngineError`]s through the
//! `pub(crate)` constructor, and so `repro modelcheck` can time them
//! and record `schedules_explored` in `BENCH_batch.json`. The actual
//! `#[test]` wrappers are in `tests/model_concurrency.rs` at the
//! workspace root; `CONCURRENCY.md` documents how to run and read
//! them.
//!
//! Scenario inventory (mirrors the invariants the suite pins):
//!
//! * [`pool_map_with_and_drop`] — the real [`WorkerPool`] end to end:
//!   lazy spawn, work-stealing dispatch, completion wait, shutdown.
//! * [`pool_shutdown_protocol`] — a minimal replica of the pool's
//!   seq/shutdown worker protocol under a teardown that races an
//!   outstanding wake-up. `buggy = true` re-introduces the pre-PR 4
//!   ordering (sequence observation before the shutdown check, with
//!   the `expect` crash path) which the checker must catch.
//! * [`ticket_set_exactly_once`] — every ticket added to a
//!   [`TicketSet`] is yielded exactly once across producer /
//!   dispatcher / consumer interleavings, and a submitted-but-dropped
//!   ticket disturbs nothing.
//! * [`ticket_set_close_wakes_responder`] — the `serve_stream`
//!   responder protocol: a responder blocked in
//!   [`TicketSet::wait_ready`] yields every ticket exactly once and
//!   sees `None` only after the producer's [`TicketSet::close`] and
//!   both yields. `buggy = true` closes without the wake-up, which the
//!   checker must catch as a deadlock.
//! * [`linger_flush_no_deadlock`] — a linger window larger than the
//!   queue contents cannot deadlock `SummaryTicket::wait` (the
//!   flush-own-request discipline).
//! * [`poison_recover_no_lost_ticket`] — a failed mutation barrier
//!   poisons the queue without losing a ticket: every wait returns,
//!   and after [`AdmissionQueue::recover`] the queue serves again.
//! * [`breaker_transitions_race_free`] — [`CircuitBreaker`] invariants
//!   hold after every step of two racing recorder threads.
//! * [`admission_mutation_barrier`] — two producers race a `Mutate`
//!   barrier through the queue against a versioned single backend:
//!   every request is served exactly once, requests queued before and
//!   after the barrier see the old and new version respectively, and
//!   the versions seen are monotone in
//!   [`DispatchMeta::batch`](crate::admission::DispatchMeta::batch)
//!   order.

use crate::admission::{AdmissionBackend, AdmissionConfig, AdmissionQueue, TicketSet};
use crate::batch::BatchMethod;
use crate::breaker::{CircuitBreaker, CircuitConfig};
use crate::engine::EngineError;
use crate::input::{Scenario, SummaryInput};
use crate::steiner::SteinerConfig;
use crate::summary::Summary;
use loom::{model_with, ModelConfig, ModelStats};
use std::mem::ManuallyDrop;
use xsum_graph::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use xsum_graph::sync::{thread, Arc, Condvar, Mutex, PoisonError};
use xsum_graph::{Graph, NodeId, Subgraph, WorkerPool};

/// A backend that serves canned summaries with zero graph work, so the
/// model explores *queue* interleavings rather than engine internals.
/// `fail_mutations` > 0 makes that many `mutate_graph` calls return
/// `Err` (poisoning the queue) before the backend heals.
#[derive(Debug)]
struct MockBackend {
    fail_mutations: u32,
}

impl MockBackend {
    fn healthy() -> Self {
        MockBackend { fail_mutations: 0 }
    }

    fn failing_once() -> Self {
        MockBackend { fail_mutations: 1 }
    }

    fn summary(input: &SummaryInput) -> Summary {
        Summary {
            method: "mock",
            scenario: input.scenario,
            subgraph: Subgraph::new(),
            terminals: input.terminals.clone(),
        }
    }
}

impl AdmissionBackend for MockBackend {
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        _method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        Ok(inputs.iter().map(|i| MockBackend::summary(i)).collect())
    }

    fn run_one(
        &mut self,
        input: &SummaryInput,
        _method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        Ok(MockBackend::summary(input))
    }

    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        // The mock owns no graph, so the closure is never applied —
        // the scenarios only observe the queue's barrier/poison
        // protocol, not mutation effects.
        let _ = f;
        if self.fail_mutations > 0 {
            self.fail_mutations -= 1;
            return Err(EngineError::from_message(
                "modelcheck: injected incoherent mutation",
            ));
        }
        Ok(())
    }

    fn apply_weight_delta(
        &mut self,
        _updates: &[(xsum_graph::EdgeId, f64)],
    ) -> Result<(), EngineError> {
        // Weight-only deltas never fail on the mock: the scenarios it
        // backs exercise barrier/poison interleavings, which the
        // non-barrier path shares with `mutate_graph`.
        Ok(())
    }

    fn recover_coherence(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

fn mock_input(k: u32) -> SummaryInput {
    SummaryInput {
        scenario: Scenario::UserCentric,
        terminals: vec![NodeId(k)],
        paths: Vec::new(),
        anchor_count: 1,
    }
}

fn mock_method() -> BatchMethod {
    BatchMethod::SteinerFast(SteinerConfig::default())
}

/// The real [`WorkerPool`] under the model: lazy worker spawn, a
/// work-stealing `map_with` over more items than workers, and Drop's
/// shutdown broadcast. Any interleaving that loses an item, wakes
/// nobody, or deadlocks the completion wait fails the check.
pub fn pool_map_with_and_drop() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 300,
            random_runs: 60,
            ..ModelConfig::default()
        },
        || {
            let mut pool = WorkerPool::new(2);
            let mut states = [0u32, 0u32];
            let items = [1u32, 2, 3];
            let out = pool.map_with(&mut states, &items, |calls, _i, item| {
                *calls += 1;
                *item * 2
            });
            assert_eq!(out, vec![2, 4, 6], "map_with lost or reordered an item");
            assert_eq!(
                states.iter().sum::<u32>(),
                3,
                "work-stealing ran an item zero or two times"
            );
            drop(pool);
        },
    )
}

/// Shared state of the miniature pool replica: the exact fields the
/// real `PoolState` uses for the dispatch/shutdown handshake.
struct MiniState {
    seq: u64,
    job: Option<u64>,
    active: usize,
    remaining: usize,
    shutdown: bool,
}

struct MiniShared {
    state: Mutex<MiniState>,
    work_cv: Condvar,
}

fn mini_lock(shared: &MiniShared) -> xsum_graph::sync::MutexGuard<'_, MiniState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker running the *fixed* (post-PR 4) protocol: shutdown takes
/// precedence over any pending sequence observation, and a seq bump
/// whose job slot is already empty is treated as teardown racing the
/// wake-up, never unwrapped.
fn mini_worker_fixed(shared: &MiniShared, idx: usize, processed: &AtomicU64) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = mini_lock(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != seen {
                    seen = st.seq;
                    if idx >= st.active {
                        continue;
                    }
                    match st.job {
                        Some(job) => break job,
                        None => continue,
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        assert_eq!(job, 42, "worker dereferenced a torn-down job slot");
        processed.fetch_add(1, Ordering::SeqCst);
        let mut st = mini_lock(shared);
        st.remaining = st.remaining.saturating_sub(1);
    }
}

/// One worker running the *old* ordering the PR 4 sweep removed: the
/// sequence observation comes first and the job slot is `expect`ed.
/// When teardown (which clears the slot) races the wake-up, the
/// `expect` turns the race into a worker-thread crash — which the
/// model reports as a failure.
fn mini_worker_buggy(shared: &MiniShared, idx: usize, processed: &AtomicU64) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = mini_lock(shared);
            loop {
                if st.seq != seen {
                    seen = st.seq;
                    if idx < st.active {
                        break st.job.expect("seq bumped without a job");
                    }
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        assert_eq!(job, 42, "worker dereferenced a torn-down job slot");
        processed.fetch_add(1, Ordering::SeqCst);
        let mut st = mini_lock(shared);
        st.remaining = st.remaining.saturating_sub(1);
    }
}

/// The pool's seq/shutdown worker handshake under a teardown that
/// races an outstanding dispatch wake-up — the hazard window behind
/// the PR 4 "shutdown/seq race" fix. The dispatcher publishes one job
/// and immediately tears down (shutdown flag set, job slot cleared,
/// broadcast) without waiting for the workers, so the scheduler is
/// free to deliver the two wake-ups in either order.
///
/// With `buggy = false` every interleaving must terminate cleanly:
/// a worker either processes the job before teardown or observes the
/// shutdown flag and exits. With `buggy = true` the old
/// observation-first / `expect` ordering is run instead, and the
/// schedule where a worker first wakes *after* teardown crashes it —
/// the caller (`tests/model_concurrency.rs`) asserts the checker
/// reports that failure.
pub fn pool_shutdown_protocol(buggy: bool) -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 2_000,
            random_runs: 100,
            ..ModelConfig::default()
        },
        move || {
            let shared = Arc::new(MiniShared {
                state: Mutex::new(MiniState {
                    seq: 0,
                    job: None,
                    active: 0,
                    remaining: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
            });
            let processed = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2)
                .map(|idx| {
                    let shared = Arc::clone(&shared);
                    let processed = Arc::clone(&processed);
                    thread::spawn(move || {
                        if buggy {
                            mini_worker_buggy(&shared, idx, &processed);
                        } else {
                            mini_worker_fixed(&shared, idx, &processed);
                        }
                    })
                })
                .collect();

            // Dispatch one job to both workers...
            {
                let mut st = mini_lock(&shared);
                st.seq += 1;
                st.job = Some(42);
                st.active = 2;
                st.remaining = 2;
            }
            shared.work_cv.notify_all();

            // ...and tear down without waiting for completion: the
            // WorkerPool drop protocol (flag + slot clear + broadcast)
            // racing workers that may not have woken yet.
            {
                let mut st = mini_lock(&shared);
                st.shutdown = true;
                st.job = None;
            }
            shared.work_cv.notify_all();

            for h in workers {
                h.join().expect("mini pool worker must exit cleanly");
            }
            assert!(
                processed.load(Ordering::SeqCst) <= 2,
                "a worker processed the single dispatch twice"
            );
        },
    )
}

/// Exactly-once multiplexing: two tagged tickets added to a
/// [`TicketSet`] by a producer thread racing the dispatcher must each
/// be yielded exactly once, in some order, with an `Ok` result — and
/// a submitted-but-dropped ticket (never added) must not disturb the
/// set or wedge the queue.
pub fn ticket_set_exactly_once() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let queue = Arc::new(AdmissionQueue::new(
                MockBackend::healthy(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            ));
            let set = Arc::new(TicketSet::new());

            let producer = {
                let queue = Arc::clone(&queue);
                let set = Arc::clone(&set);
                thread::spawn(move || {
                    for tag in 0..2u64 {
                        let ticket = queue
                            .submit(mock_input(tag as u32), mock_method())
                            .expect("queue has room");
                        set.add(tag, ticket);
                    }
                })
            };

            // A ticket that is submitted but never added to the set:
            // dropping it must not corrupt the set's bookkeeping.
            let stray = queue
                .submit(mock_input(9), mock_method())
                .expect("queue has room");
            drop(stray);

            producer.join().expect("producer panicked");

            let mut seen = [0u32; 2];
            for _ in 0..2 {
                let done = set.wait_any().expect("two members are pending");
                assert!(done.result.is_ok(), "mock backend never fails a summary");
                seen[done.tag as usize] += 1;
            }
            assert_eq!(seen, [1, 1], "a ticket was yielded zero or two times");
            assert!(set.is_empty(), "drained set still has members");
            assert!(set.poll().is_none(), "drained set yielded a third ticket");
        },
    )
}

/// The close protocol `serve_stream`'s responder relies on. A
/// responder thread blocks in [`TicketSet::wait_ready`] on an open,
/// empty set; the root (the producer) adds two tickets that the mock
/// dispatcher resolves, then closes the set. Invariants asserted
/// across every explored interleaving:
/// * each ticket is yielded exactly once, with an `Ok` result;
/// * `None` comes only after the producer began closing and after
///   both yields (a lost wakeup on either the resolutions or the close
///   deadlocks the root's join and fails the model).
///
/// With `buggy = true` the close sets the flag but skips its
/// notification; the schedule in which the responder yields both
/// tickets and blocks again before the close then never wakes, and
/// the caller (`tests/model_concurrency.rs`) asserts the checker
/// reports that deadlock.
pub fn ticket_set_close_wakes_responder(buggy: bool) -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 500,
            random_runs: 100,
            ..ModelConfig::default()
        },
        move || {
            // Dropped by hand at the end. When the checker tears down a
            // failing schedule (the mutant's deadlock), every thread
            // unwinds with the scheduler already gone, and the queue's
            // Drop — a shutdown handshake with the dispatcher — must not
            // run there.
            let queue = ManuallyDrop::new(AdmissionQueue::new(
                MockBackend::healthy(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            ));
            let set = Arc::new(TicketSet::new());
            let closing = Arc::new(AtomicBool::new(false));

            let responder = {
                let set = Arc::clone(&set);
                let closing = Arc::clone(&closing);
                thread::spawn(move || {
                    let mut seen = [0u32; 2];
                    while let Some(done) = set.wait_ready() {
                        assert!(done.result.is_ok(), "mock backend never fails a summary");
                        seen[done.tag as usize] += 1;
                    }
                    assert!(
                        closing.load(Ordering::SeqCst),
                        "wait_ready returned None on an open set"
                    );
                    seen
                })
            };

            for tag in 0..2u64 {
                let ticket = queue
                    .submit(mock_input(tag as u32), mock_method())
                    .expect("queue has room");
                set.add(tag, ticket);
            }
            closing.store(true, Ordering::SeqCst);
            if buggy {
                set.close_without_notify();
            } else {
                set.close();
            }

            let seen = responder.join().expect("responder panicked");
            assert_eq!(
                seen,
                [1, 1],
                "a ticket was yielded zero or two times before None"
            );
            assert!(set.is_empty(), "None came with members left");
            drop(ManuallyDrop::into_inner(queue));
        },
    )
}

/// A linger window larger than everything queued must not deadlock a
/// ticket waiter: `SummaryTicket::wait` closes the window up to its
/// own request before blocking. Two waiters (the root and a spawned
/// producer) each submit one request into a `linger_tickets = 4`
/// window and wait; every interleaving must resolve both.
pub fn linger_flush_no_deadlock() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let queue = Arc::new(AdmissionQueue::new(
                MockBackend::healthy(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    // Wider than the two requests ever queued: without
                    // the flush-own-request discipline the dispatcher
                    // would linger forever and both waits would hang.
                    linger_tickets: 4,
                },
            ));

            let waiter = {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let ticket = queue
                        .submit(mock_input(1), mock_method())
                        .expect("queue has room");
                    ticket.wait().expect("mock summary resolves Ok");
                })
            };

            let ticket = queue
                .submit(mock_input(2), mock_method())
                .expect("queue has room");
            ticket.wait().expect("mock summary resolves Ok");
            waiter.join().expect("waiter panicked");
        },
    )
}

/// A failed mutation barrier must poison the queue without losing a
/// ticket. A producer races the barrier: whatever the interleaving,
/// its wait *returns* (served `Ok` before the barrier, or failed
/// `Poisoned`/refused at submit after it — never wedged). After
/// [`AdmissionQueue::recover`] the queue serves again.
pub fn poison_recover_no_lost_ticket() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let queue = Arc::new(AdmissionQueue::new(
                MockBackend::failing_once(),
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            ));

            let racer = {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    // Admitted: the ticket must resolve either way —
                    // the assertion is that `wait` returns at all (a
                    // lost ticket deadlocks here and fails the model).
                    // Refusal by an already-poisoned queue is also a
                    // ticket-preserving outcome.
                    if let Ok(ticket) = queue.submit(mock_input(1), mock_method()) {
                        let _ = ticket.wait();
                    }
                })
            };

            queue
                .mutate(|_| {})
                .expect_err("the injected mutation failure must surface");
            racer.join().expect("racing producer panicked");

            queue.recover().expect("recovery restores coherence");
            let ticket = queue
                .submit(mock_input(2), mock_method())
                .expect("recovered queue admits again");
            ticket.wait().expect("recovered queue serves again");
        },
    )
}

/// Two threads hammer one shared [`CircuitBreaker`] with interleaved
/// failure / tick / success sequences over a virtual clock, asserting
/// the structural invariants after every step. The model explores the
/// orderings a sharded router's serve calls could produce.
pub fn breaker_transitions_race_free() -> ModelStats {
    model_with(
        ModelConfig {
            max_schedules: 2_000,
            random_runs: 100,
            ..ModelConfig::default()
        },
        || {
            let breaker = Arc::new(Mutex::new(CircuitBreaker::new(CircuitConfig {
                failure_threshold: 1,
                cooldown: 1,
                max_cooldown: 2,
            })));
            let clock = Arc::new(AtomicU64::new(0));

            let handles: Vec<_> = (0..2)
                .map(|who: usize| {
                    let breaker = Arc::clone(&breaker);
                    let clock = Arc::clone(&clock);
                    thread::spawn(move || {
                        for step in 0..2 {
                            let now = clock.fetch_add(1, Ordering::SeqCst) + 1;
                            let mut b = breaker.lock().unwrap_or_else(PoisonError::into_inner);
                            b.tick(now);
                            b.assert_invariants();
                            if (who + step).is_multiple_of(2) {
                                b.record_failure(now);
                            } else {
                                b.record_success();
                            }
                            b.assert_invariants();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("breaker recorder panicked");
            }

            let b = breaker.lock().unwrap_or_else(PoisonError::into_inner);
            b.assert_invariants();
        },
    )
}

/// Two producers race single submissions against a `Mutate` barrier
/// through the admission queue, over one backend whose graph version
/// the barrier bumps. The root queues one request before the barrier
/// and submits one more after it returns. Invariants asserted across
/// every explored interleaving:
/// * every request is served exactly once (one backend serve per
///   input, every ticket resolves `Ok`);
/// * the barrier neither jumps a request queued ahead of it (the
///   root's first request sees version 0) nor lets a batch dispatched
///   after it see the pre-barrier version (the root's second request
///   sees version 1);
/// * the versions seen are monotone in `DispatchMeta::batch` order,
///   so no coalesced batch straddles the barrier.
pub fn admission_mutation_barrier() -> ModelStats {
    /// One backend serve: which input, at which graph version.
    type ServeLog = Arc<Mutex<Vec<(u32, u64)>>>;

    /// The versioned mock: `mutate_graph` bumps `version`, and every
    /// serve logs the version it ran against.
    #[derive(Debug)]
    struct MockVersioned {
        version: u64,
        log: ServeLog,
    }

    impl MockVersioned {
        fn serve(&mut self, input: &SummaryInput) -> Summary {
            self.log
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((input.terminals[0].0, self.version));
            MockBackend::summary(input)
        }
    }

    impl AdmissionBackend for MockVersioned {
        fn run_batch(
            &mut self,
            inputs: &[&SummaryInput],
            _method: BatchMethod,
        ) -> Result<Vec<Summary>, EngineError> {
            Ok(inputs.iter().map(|i| self.serve(i)).collect())
        }

        fn run_one(
            &mut self,
            input: &SummaryInput,
            _method: BatchMethod,
        ) -> Result<Summary, EngineError> {
            Ok(self.serve(input))
        }

        fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
            let _ = f;
            self.version += 1;
            Ok(())
        }

        fn apply_weight_delta(
            &mut self,
            _updates: &[(xsum_graph::EdgeId, f64)],
        ) -> Result<(), EngineError> {
            Ok(())
        }

        fn recover_coherence(&mut self) -> Result<(), EngineError> {
            Ok(())
        }
    }

    model_with(
        ModelConfig {
            max_schedules: 250,
            random_runs: 50,
            ..ModelConfig::default()
        },
        || {
            let log = ServeLog::default();
            let queue = Arc::new(AdmissionQueue::new(
                MockVersioned {
                    version: 0,
                    log: Arc::clone(&log),
                },
                AdmissionConfig {
                    queue_bound: 8,
                    max_batch: 4,
                    linger_tickets: 1,
                },
            ));

            let producers: Vec<_> = (0..2u32)
                .map(|k| {
                    let queue = Arc::clone(&queue);
                    thread::spawn(move || {
                        let ticket = queue
                            .submit(mock_input(k), mock_method())
                            .expect("queue has room");
                        let (result, meta) = ticket.wait_meta();
                        result.expect("the versioned mock never fails a serve");
                        (k, meta.batch)
                    })
                })
                .collect();

            let before = queue
                .submit(mock_input(2), mock_method())
                .expect("queue has room");
            queue
                .mutate(|_| {})
                .expect("the versioned mock mutation succeeds");
            let after = queue
                .submit(mock_input(3), mock_method())
                .expect("queue has room");

            let mut batches: Vec<(u32, u64)> = producers
                .into_iter()
                .map(|h| h.join().expect("producer panicked"))
                .collect();
            for (k, ticket) in [(2, before), (3, after)] {
                let (result, meta) = ticket.wait_meta();
                result.expect("the versioned mock never fails a serve");
                batches.push((k, meta.batch));
            }

            let log = log.lock().unwrap_or_else(PoisonError::into_inner);
            let version_of = |k: u32| {
                let serves: Vec<u64> = log
                    .iter()
                    .filter(|&&(input, _)| input == k)
                    .map(|&(_, v)| v)
                    .collect();
                assert_eq!(serves.len(), 1, "request {k} served {} times", serves.len());
                serves[0]
            };
            assert_eq!(log.len(), 4, "a serve ran for no request");
            assert_eq!(
                version_of(2),
                0,
                "the barrier jumped a request queued ahead of it"
            );
            assert_eq!(
                version_of(3),
                1,
                "a batch dispatched after the barrier saw the pre-barrier version"
            );
            let mut seen: Vec<(u64, u64)> = batches
                .iter()
                .map(|&(k, batch)| (batch, version_of(k)))
                .collect();
            seen.sort_unstable();
            assert!(
                seen.windows(2)
                    .all(|w| w[0].1 <= w[1].1 && (w[0].0 != w[1].0 || w[0].1 == w[1].1)),
                "versions went backwards in batch order, or a batch straddled \
                 the barrier: {seen:?}"
            );
        },
    )
}
