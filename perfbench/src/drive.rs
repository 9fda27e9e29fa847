//! Replaying a tape: over one Unix-socket connection into
//! `serve_stream`, or straight into the admission queue.
//!
//! Both replays pace the tape the same way ([`Pacer`]) and time every
//! operation from the instant it was *due*, so a stalled generator or a
//! blocked socket shows up as latency instead of silently thinning the
//! offered load.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xsum_core::{
    read_frame, serve_stream, AdmissionQueue, ServeReport, SummaryInput, TicketSet, WireFrame,
    WireSummary,
};

use crate::setup::{Phase, TapeOp, PHASES};
use crate::trace::{ns_since, CountingWrite, IoCounters, TimedRead};

/// What came back for one tape entry, and when.
#[derive(Debug, Clone)]
pub struct Resp {
    pub done_ns: u64,
    pub body: Result<WireSummary, String>,
}

/// Per-entry timings of one replay, as nanoseconds since the run's `t0`.
#[derive(Debug, Default)]
pub struct RunLog {
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    pub resp: Vec<Option<Resp>>,
    /// Start of each phase in [`PHASES`] order (`u64::MAX` if absent).
    pub phase_start_ns: [u64; 2],
    /// When the replay finished (every answer in, or given up).
    pub end_ns: u64,
    /// Transport or protocol failures seen by the client.
    pub errors: Vec<String>,
}

impl RunLog {
    fn new(n: usize) -> Self {
        RunLog {
            due_ns: vec![0; n],
            sent_ns: vec![0; n],
            resp: vec![None; n],
            phase_start_ns: [u64::MAX; 2],
            end_ns: 0,
            errors: Vec::new(),
        }
    }
}

fn phase_index(phase: Phase) -> usize {
    PHASES
        .iter()
        .position(|&p| p == phase)
        .expect("known phase")
}

/// Assigns due times: an entry falls due at its phase's start plus its
/// tape offset. A phase starts once the previous one's last entry is due
/// and the replay has got there.
pub struct Pacer {
    t0: Instant,
    phase: Option<Phase>,
    start_ns: u64,
    last_due_ns: u64,
    pub phase_start_ns: [u64; 2],
}

impl Pacer {
    pub fn new(t0: Instant) -> Self {
        Pacer {
            t0,
            phase: None,
            start_ns: 0,
            last_due_ns: 0,
            phase_start_ns: [u64::MAX; 2],
        }
    }

    /// Due time of `op` (call in tape order).
    pub fn due(&mut self, op: &TapeOp) -> u64 {
        let now = ns_since(self.t0);
        if self.phase != Some(op.phase) {
            self.phase = Some(op.phase);
            self.start_ns = now.max(self.last_due_ns);
            self.phase_start_ns[phase_index(op.phase)] = self.start_ns;
        }
        let due = self.start_ns + op.at.as_nanos() as u64;
        self.last_due_ns = due;
        due
    }

    /// Sleep until `due_ns` (returns at once if it has passed).
    pub fn wait_until(&self, due_ns: u64) {
        let now = ns_since(self.t0);
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
    }
}

/// Server-side counters of one `serve_stream` run.
#[derive(Debug, Default)]
pub struct ServerSide {
    pub report: Option<ServeReport>,
    pub error: Option<String>,
    pub wall_ns: u64,
    pub read: Arc<IoCounters>,
    pub write: Arc<IoCounters>,
}

/// Replay `tape` (pre-encoded as `frames`) over a Unix-socket pair into
/// `serve_stream` on `queue`. One pacing writer thread, the calling
/// thread reads responses; with `traced`, the server's socket halves
/// are wrapped in [`TimedRead`] / [`CountingWrite`].
pub fn run_wire(
    queue: &AdmissionQueue,
    tape: &[TapeOp],
    frames: &[Vec<u8>],
    t0: Instant,
    traced: bool,
) -> (RunLog, ServerSide) {
    let n = tape.len();
    let mut log = RunLog::new(n);
    let mut server = ServerSide::default();
    let (client, srv) = match UnixStream::pair() {
        Ok(p) => p,
        Err(e) => {
            log.errors.push(format!("socketpair: {e}"));
            return (log, server);
        }
    };
    let clones = (client.try_clone(), srv.try_clone());
    let (Ok(client_w), Ok(srv_w)) = clones else {
        log.errors.push("cannot clone socket".to_string());
        return (log, server);
    };
    let read_counters = Arc::clone(&server.read);
    let write_counters = Arc::clone(&server.write);

    std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || {
            let start = ns_since(t0);
            let result = if traced {
                let r = BufReader::new(TimedRead {
                    inner: srv,
                    counters: read_counters,
                });
                let w = CountingWrite {
                    inner: srv_w,
                    counters: write_counters,
                };
                serve_stream(r, w, queue)
            } else {
                serve_stream(BufReader::new(srv), srv_w, queue)
            };
            (result, ns_since(t0) - start)
        });

        let writer = scope.spawn(move || {
            let mut w = client_w;
            let mut pacer = Pacer::new(t0);
            let mut due = vec![0u64; n];
            let mut sent = vec![0u64; n];
            let mut errors = Vec::new();
            for (i, op) in tape.iter().enumerate() {
                due[i] = pacer.due(op);
                pacer.wait_until(due[i]);
                if let Err(e) = w.write_all(&frames[i]) {
                    errors.push(format!("send #{i}: {e}"));
                    break;
                }
                sent[i] = ns_since(t0);
            }
            // Half-close: serve_stream answers what it holds at EOF.
            let _ = w.shutdown(std::net::Shutdown::Write);
            (due, sent, pacer.phase_start_ns, errors)
        });

        let mut r = BufReader::new(client);
        loop {
            let frame = match read_frame(&mut r) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    log.errors.push(format!("response stream: {e}"));
                    // Keep the server's writes flowing so it can finish.
                    let _ = std::io::copy(&mut r, &mut std::io::sink());
                    break;
                }
            };
            let done_ns = ns_since(t0);
            let (id, body) = match frame {
                WireFrame::SummaryResponse(s) => (s.id, s.result),
                other => {
                    log.errors.push(format!("unexpected frame {other:?}"));
                    continue;
                }
            };
            let Some(slot) = log.resp.get_mut(id as usize) else {
                log.errors.push(format!("response for unknown id {id}"));
                continue;
            };
            if slot.is_some() {
                log.errors.push(format!("second response for id {id}"));
                continue;
            }
            *slot = Some(Resp { done_ns, body });
        }
        log.end_ns = ns_since(t0);
        let (due, sent, starts, errors) = writer.join().expect("writer thread panicked");
        log.due_ns = due;
        log.sent_ns = sent;
        log.phase_start_ns = starts;
        log.errors.extend(errors);
        let (result, wall) = server_thread.join().expect("server thread panicked");
        server.wall_ns = wall;
        match result {
            Ok(report) => server.report = Some(report),
            Err(e) => server.error = Some(e.to_string()),
        }
    });
    (log, server)
}

/// What the direct replay adds to its [`RunLog`]: for each read, the
/// instant its submit began and the batch id the ticket reported.
#[derive(Debug, Default)]
pub struct DirectExtra {
    pub submit_ns: Vec<u64>,
    pub batch: Vec<u64>,
}

/// Replay `tape` straight into `queue` + one [`TicketSet`]: a pacing
/// producer thread submits the reads (as `serve_stream` does); the
/// calling thread harvests completions.
pub fn run_direct(
    queue: &AdmissionQueue,
    tape: &[TapeOp],
    inputs: &[SummaryInput],
    t0: Instant,
) -> (RunLog, DirectExtra) {
    let n = tape.len();
    let mut log = RunLog::new(n);
    let mut extra = DirectExtra {
        submit_ns: vec![0; n],
        batch: vec![0; n],
    };
    let set = TicketSet::new();
    let admitted = AtomicU64::new(0);
    let producer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let mut pacer = Pacer::new(t0);
            let mut due = vec![0u64; n];
            let mut sent = vec![0u64; n];
            let mut refused: Vec<(usize, Resp)> = Vec::new();
            for (i, op) in tape.iter().enumerate() {
                due[i] = pacer.due(op);
                pacer.wait_until(due[i]);
                sent[i] = ns_since(t0);
                match queue.submit(inputs[op.input].clone(), op.method) {
                    Ok(ticket) => {
                        set.add(i as u64, ticket);
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => refused.push((
                        i,
                        Resp {
                            done_ns: ns_since(t0),
                            body: Err(e.to_string()),
                        },
                    )),
                }
            }
            producer_done.store(true, Ordering::SeqCst);
            (due, sent, pacer.phase_start_ns, refused)
        });

        let mut resolved = 0u64;
        loop {
            match set.wait_any_timeout(Duration::from_millis(20)) {
                Some(done) => {
                    let done_ns = ns_since(t0);
                    resolved += 1;
                    let i = done.tag as usize;
                    extra.batch[i] = done.meta.batch;
                    log.resp[i] = Some(Resp {
                        done_ns,
                        body: done
                            .result
                            .map(|s| WireSummary::from_summary(&s))
                            .map_err(|e| e.to_string()),
                    });
                }
                None => {
                    if producer_done.load(Ordering::SeqCst)
                        && resolved == admitted.load(Ordering::SeqCst)
                    {
                        break;
                    }
                }
            }
        }
        log.end_ns = ns_since(t0);
        let (due, sent, starts, refused) = producer.join().expect("producer thread panicked");
        for (i, r) in refused {
            log.resp[i] = Some(r);
        }
        extra.submit_ns.clone_from(&sent);
        log.due_ns = due;
        log.sent_ns = sent;
        log.phase_start_ns = starts;
    });
    (log, extra)
}
