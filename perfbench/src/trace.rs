//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Nothing inside the library is instrumented: [`TracingBackend`] wraps
//! the public [`EngineBackend`] behind the admission queue, and
//! [`TimedRead`] / [`CountingWrite`] wrap the socket halves handed to
//! `serve_stream`. Spans live in memory and are read after the run.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xsum_core::{AdmissionBackend, BatchMethod, EngineBackend, EngineError, Summary, SummaryInput};
use xsum_graph::{EdgeId, Graph};

/// Nanoseconds from `t0` to now.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Which summarizer a batch ran, for per-method engine costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MethodKind {
    St,
    StFast,
    Pcst,
    Other,
}

impl MethodKind {
    pub fn of(method: &BatchMethod) -> Self {
        match method {
            BatchMethod::Steiner(_) => MethodKind::St,
            BatchMethod::SteinerFast(_) => MethodKind::StFast,
            BatchMethod::Pcst(_) => MethodKind::Pcst,
            BatchMethod::GwPcst(_) => MethodKind::Other,
        }
    }
}

/// One `run_batch` call: the k-th span is `DispatchMeta::batch` k.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpan {
    pub start_ns: u64,
    pub end_ns: u64,
    pub size: usize,
    pub method: MethodKind,
}

/// Everything the backend wrapper saw, in call order.
#[derive(Debug, Default)]
pub struct BackendLog {
    pub batches: Vec<BatchSpan>,
    /// `(start_ns, end_ns)` of each `mutate_graph` call.
    pub mutations: Vec<(u64, u64)>,
}

/// Shared handle to a [`BackendLog`] (the dispatcher thread writes, the
/// benchmark reads after the queue has drained).
pub type SharedLog = Arc<Mutex<BackendLog>>;

/// [`EngineBackend`] with every batch and mutation timed.
pub struct TracingBackend {
    inner: EngineBackend,
    t0: Instant,
    log: SharedLog,
}

impl TracingBackend {
    pub fn new(inner: EngineBackend, t0: Instant) -> (Self, SharedLog) {
        let log = SharedLog::default();
        (
            TracingBackend {
                inner,
                t0,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn record(&self, f: impl FnOnce(&mut BackendLog)) {
        f(&mut self.log.lock().expect("backend log poisoned by a panic"));
    }
}

impl AdmissionBackend for TracingBackend {
    fn run_batch(
        &mut self,
        inputs: &[&SummaryInput],
        method: BatchMethod,
    ) -> Result<Vec<Summary>, EngineError> {
        let start_ns = ns_since(self.t0);
        let out = self.inner.run_batch(inputs, method);
        let span = BatchSpan {
            start_ns,
            end_ns: ns_since(self.t0),
            size: inputs.len(),
            method: MethodKind::of(&method),
        };
        self.record(|log| log.batches.push(span));
        out
    }

    fn run_one(
        &mut self,
        input: &SummaryInput,
        method: BatchMethod,
    ) -> Result<Summary, EngineError> {
        self.inner.run_one(input, method)
    }

    fn mutate_graph(&mut self, f: &mut dyn FnMut(&mut Graph)) -> Result<(), EngineError> {
        let start = ns_since(self.t0);
        let out = self.inner.mutate_graph(f);
        let end = ns_since(self.t0);
        self.record(|log| log.mutations.push((start, end)));
        out
    }

    fn apply_weight_delta(&mut self, updates: &[(EdgeId, f64)]) -> Result<(), EngineError> {
        self.inner.apply_weight_delta(updates)
    }

    fn recover_coherence(&mut self) -> Result<(), EngineError> {
        self.inner.recover_coherence()
    }
}

/// Byte and blocked-time counters of one socket half (the write half
/// counts bytes only).
#[derive(Debug, Default)]
pub struct IoCounters {
    pub bytes: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// A `Read` that counts bytes and the time spent inside `read`.
pub struct TimedRead<R> {
    pub inner: R,
    pub counters: Arc<IoCounters>,
}

impl<R: Read> Read for TimedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let out = self.inner.read(buf);
        let c = &self.counters;
        c.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(n) = out {
            c.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
        out
    }
}

/// A `Write` that counts bytes.
pub struct CountingWrite<W> {
    pub inner: W,
    pub counters: Arc<IoCounters>,
}

impl<W: Write> Write for CountingWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let out = self.inner.write(buf);
        if let Ok(n) = out {
            self.counters.bytes.fetch_add(n as u64, Ordering::Relaxed);
        }
        out
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
