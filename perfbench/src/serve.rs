//! The `interactive` workload: one Unix-socket connection into
//! `serve_stream`, open loop, reads only, with the tape's own method mix
//! (ST ½, ST-fast ¼, PCST ¼).

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use xsum_core::{
    decode_frame, AdmissionConfig, AdmissionQueue, BatchMethod, EngineBackend, SummaryEngine,
    SummaryInput, SummaryResponse, WireFrame, WireSummary,
};
use xsum_graph::Graph;

use crate::check::{oracles, Digest, Key};
use crate::drive::{run_direct, run_wire, DirectExtra, RunLog, ServerSide};
use crate::layers::{cache_replay, codec_replay, kernel_replay, write_replay};
use crate::report::{peak_rss_mb, Outcome};
use crate::setup::{
    encode_read, pcst, seeded_writes, serve_data, serve_tape, st, st_fast, Phase, ServeData,
    TapeOp, PHASES,
};
use crate::stats::{median, tail};
use crate::steal::{Sampler, Timeline};
use crate::trace::{BackendLog, BatchSpan, MethodKind, TracingBackend};
use crate::{publish, Args, SETUP_REPS};

/// `SetWeight` writes the traced run replays, after the tape, to time
/// the write path layer by layer: enough for ten beyond a p99.
const TRACED_WRITES: usize = 1000;

/// Inputs warmed through a fresh queue before timing starts.
const WARM_INPUTS: usize = 4;

struct Prepared {
    data: ServeData,
    tape: Vec<TapeOp>,
    frames: Vec<Vec<u8>>,
}

fn prepare(args: &Args) -> Prepared {
    let data = serve_data();
    let tape = serve_tape(args.seed, args.seconds, &data);
    let frames = tape
        .iter()
        .enumerate()
        .map(|(i, t)| encode_read(i, t, &data.inputs))
        .collect();
    Prepared { data, tape, frames }
}

fn plain_queue(g: &Graph) -> AdmissionQueue {
    AdmissionQueue::new(
        EngineBackend::new(g.clone(), SummaryEngine::new()),
        AdmissionConfig::default(),
    )
}

fn traced_queue(g: &Graph, t0: Instant) -> (AdmissionQueue, crate::trace::SharedLog) {
    let (backend, log) =
        TracingBackend::new(EngineBackend::new(g.clone(), SummaryEngine::new()), t0);
    (
        AdmissionQueue::new(backend, AdmissionConfig::default()),
        log,
    )
}

/// Spin up the dispatcher, pool and cost-model cache.
fn warm(queue: &AdmissionQueue, inputs: &[SummaryInput]) {
    for input in inputs.iter().take(WARM_INPUTS) {
        for m in [st(), st_fast(), pcst()] {
            if let Ok(t) = queue.submit(input.clone(), m) {
                let _ = t.wait();
            }
        }
    }
    queue.drain();
}

/// Expected outputs: every read must equal the sequential oracle on the
/// graph it was served against (the graph never changes).
struct Expected {
    outputs: BTreeMap<Key, WireSummary>,
}

impl Expected {
    fn new(p: &Prepared) -> Self {
        let wanted: BTreeMap<Key, BatchMethod> = p
            .tape
            .iter()
            .map(|t| ((t.input, MethodKind::of(&t.method)), t.method))
            .collect();
        Expected {
            outputs: oracles(&p.data.graph, &p.data.inputs, &wanted, crate::nproc()),
        }
    }

    /// Whether each tape entry was answered correctly.
    fn verdicts(&self, p: &Prepared, log: &RunLog) -> Vec<bool> {
        p.tape
            .iter()
            .zip(&log.resp)
            .map(|(t, r)| match r.as_ref().map(|r| &r.body) {
                Some(Ok(s)) => self.outputs.get(&(t.input, MethodKind::of(&t.method))) == Some(s),
                _ => false,
            })
            .collect()
    }

    /// Digest of the served outputs, one per distinct (input, method).
    fn digest(&self, p: &Prepared, log: &RunLog) -> u64 {
        let mut seen: BTreeMap<Key, &WireSummary> = BTreeMap::new();
        for (t, r) in p.tape.iter().zip(&log.resp) {
            if let Some(Ok(s)) = r.as_ref().map(|r| &r.body) {
                seen.entry((t.input, MethodKind::of(&t.method)))
                    .or_insert(s);
            }
        }
        let mut d = Digest::default();
        for (k, s) in seen {
            d.add(k, s);
        }
        d.value()
    }
}

/// Count every tape entry as attempted and every wrong, refused or
/// unanswered one as failed.
fn account(out: &mut Outcome, log: &RunLog, ok: &[bool]) {
    out.attempted += ok.len() as u64;
    out.failed += ok.iter().filter(|v| !**v).count() as u64;
    out.problems.extend(log.errors.iter().cloned());
}

fn server_problems(out: &mut Outcome, server: &ServerSide) {
    if let Some(e) = &server.error {
        out.problems.push(format!("serve_stream: {e}"));
    }
}

fn indices(tape: &[TapeOp], phase: Phase) -> impl Iterator<Item = usize> + '_ {
    tape.iter()
        .enumerate()
        .filter_map(move |(i, t)| (t.phase == phase).then_some(i))
}

/// Due-time latency of entry `i` in ms; a failed, refused or unanswered
/// entry counts as waiting until the replay ended.
pub fn latency_ms(log: &RunLog, ok: &[bool], i: usize) -> f64 {
    let end = match (&log.resp[i], ok[i]) {
        (Some(r), true) => r.done_ns,
        _ => log.end_ns,
    };
    end.saturating_sub(log.due_ns[i]) as f64 * 1e-6
}

/// Answered entries per second, from the first one's due time to the
/// last answer. With a steal timeline, the span excludes the wall time
/// the host took from the vCPUs, all of which a saturated phase keeps
/// busy.
fn rate(
    log: &RunLog,
    ok: &[bool],
    idx: impl Iterator<Item = usize>,
    steal: Option<&Timeline>,
) -> (f64, usize) {
    let mut count = 0usize;
    let mut last = 0u64;
    let mut first_due = u64::MAX;
    for i in idx {
        first_due = first_due.min(log.due_ns[i]);
        if ok[i] {
            count += 1;
            last = last.max(log.resp[i].as_ref().map_or(0, |r| r.done_ns));
        }
    }
    let lost = steal.map_or(0.0, |t| t.lost_ns(first_due, last, crate::nproc()));
    let span = (last.saturating_sub(first_due) as f64 - lost) * 1e-9;
    (if span > 0.0 { count as f64 / span } else { 0.0 }, count)
}

fn read_latencies(p: &Prepared, log: &RunLog, ok: &[bool], phase: Phase) -> Vec<f64> {
    indices(&p.tape, phase)
        .map(|i| latency_ms(log, ok, i))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let start = Instant::now();
        let p = prepare(args);
        let queue = plain_queue(&p.data.graph);
        warm(&queue, &p.data.inputs);
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some((p, queue));
    }
    let (p, queue) = ready.expect("SETUP_REPS is at least one");
    let t0 = Instant::now();
    let sampler = Sampler::start(t0);
    let (log, server) = run_wire(&queue, &p.tape, &p.frames, t0, false);
    let steal = sampler.finish();
    // Before any check allocates: the peak is the serving stack's plus
    // the client's pre-encoded request frames.
    let peak_rss = peak_rss_mb();
    drop(queue);

    let expected = Expected::new(&p);
    let ok = expected.verdicts(&p, &log);
    account(&mut out, &log, &ok);
    server_problems(&mut out, &server);
    out.digest = expected.digest(&p, &log);
    notes(&mut out, &p);
    out.note("steal_share", steal.share(0, log.end_ns, crate::nproc()));

    out.metric("setup_s", median(&mut setup_s).unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    let lat = read_latencies(&p, &log, &ok, Phase::Paced);
    publish(&mut out, "latency_p50_ms", &lat, 0.5, "ms");
    publish(&mut out, "latency_p99_ms", &lat, 0.99, "ms");
    let (throughput, _) = rate(&log, &ok, indices(&p.tape, Phase::Paced), None);
    out.metric("throughput_sps", throughput, "1/s");
    let overload = indices(&p.tape, Phase::Overload);
    let (capacity, answered) = rate(&log, &ok, overload, Some(&steal));
    out.note("capacity_responses", answered);
    out.metric("capacity_sps", capacity, "1/s");
    out
}

fn notes(out: &mut Outcome, p: &Prepared) {
    let g = &p.data.graph;
    out.note("graph_nodes", g.node_count());
    out.note("graph_edges", g.edge_count());
    out.note("inputs", p.data.inputs.len());
    out.note("tape_entries", p.tape.len());
    for phase in PHASES {
        let n = p.tape.iter().filter(|t| t.phase == phase).count();
        out.note(&format!("tape_{phase:?}").to_lowercase(), n);
    }
}

/// Batch spans and mutation spans that started at or after `from_ns`.
fn spans_from(log: &crate::trace::SharedLog, from_ns: u64) -> BackendLog {
    let log = log.lock().expect("backend log poisoned by a panic");
    BackendLog {
        batches: log
            .batches
            .iter()
            .filter(|s| s.start_ns >= from_ns)
            .copied()
            .collect(),
        mutations: log
            .mutations
            .iter()
            .filter(|s| s.0 >= from_ns)
            .copied()
            .collect(),
    }
}

fn first_start(log: &RunLog) -> u64 {
    log.phase_start_ns.iter().copied().min().unwrap_or(0)
}

/// Per-request decomposition of the direct replay, joined on batch id:
/// `lag + queue wait + engine service + resolve delay` is the request's
/// due-time latency.
#[derive(Debug, Default)]
pub struct Decomposition {
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub resolve_ms: Vec<f64>,
    pub violations: usize,
}

/// Join each answered read in `idx` to the `run_batch` span whose
/// ordinal its ticket reported (`DispatchMeta::batch` k is the k-th
/// call). A read whose span is missing, or whose instants are out of
/// causal order, is a violation.
pub fn decompose(
    log: &RunLog,
    extra: &DirectExtra,
    spans: &[BatchSpan],
    idx: impl Iterator<Item = usize>,
) -> Decomposition {
    let mut d = Decomposition::default();
    for i in idx {
        let Some(resp) = &log.resp[i] else { continue };
        let b = extra.batch[i];
        let span = b.checked_sub(1).and_then(|k| spans.get(k as usize));
        let (due, submit, done) = (log.due_ns[i], extra.submit_ns[i], resp.done_ns);
        let Some(span) = span else {
            d.violations += 1;
            continue;
        };
        if !(due <= submit
            && submit <= span.start_ns
            && span.start_ns <= span.end_ns
            && span.end_ns <= done)
        {
            d.violations += 1;
            continue;
        }
        let parts = [
            submit - due,
            span.start_ns - submit,
            span.end_ns - span.start_ns,
            done - span.end_ns,
        ];
        debug_assert_eq!(parts.iter().sum::<u64>(), done - due);
        d.queue_wait_ms.push(parts[1] as f64 * 1e-6);
        d.service_ms.push(parts[2] as f64 * 1e-6);
        d.resolve_ms.push(parts[3] as f64 * 1e-6);
    }
    d
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let p = prepare(args);
    let g = &p.data.graph;
    let expected = Expected::new(&p);

    let steal_t0 = Instant::now();
    let sampler = Sampler::start(steal_t0);

    // Untraced wire replay: the baseline of the tracing overhead.
    let t0 = Instant::now();
    let queue = plain_queue(g);
    warm(&queue, &p.data.inputs);
    let (plain, plain_server) = run_wire(&queue, &p.tape, &p.frames, t0, false);
    drop(queue);

    // Traced wire replay.
    let t0 = Instant::now();
    let (queue, wire_backend) = traced_queue(g, t0);
    warm(&queue, &p.data.inputs);
    let (wire, server) = run_wire(&queue, &p.tape, &p.frames, t0, true);
    drop(queue);

    // The same tape straight into the queue.
    let t0 = Instant::now();
    let (queue, direct_backend) = traced_queue(g, t0);
    warm(&queue, &p.data.inputs);
    let (direct, extra) = run_direct(&queue, &p.tape, &p.data.inputs, t0);
    let steal = sampler.finish();
    let steal_share = steal.share(0, crate::trace::ns_since(steal_t0), crate::nproc());
    // The write path, after the tape (no replay above sees these
    // writes): each `SetWeight` is a `mutate` barrier on the idle queue.
    let writes = seeded_writes(g, args.seed, TRACED_WRITES);
    let mut barrier = Vec::with_capacity(writes.len());
    for &(edge, weight) in &writes {
        let start = Instant::now();
        if let Err(e) = queue.mutate(move |g| g.set_weight(edge, weight)) {
            out.problems.push(format!("SetWeight barrier: {e}"));
        }
        barrier.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(queue);

    let mut oks = Vec::new();
    for (log, srv) in [
        (&plain, Some(&plain_server)),
        (&wire, Some(&server)),
        (&direct, None),
    ] {
        let ok = expected.verdicts(&p, log);
        account(&mut out, log, &ok);
        if let Some(s) = srv {
            server_problems(&mut out, s);
        }
        oks.push(ok);
    }
    out.digest = expected.digest(&p, &wire);
    notes(&mut out, &p);
    let [ok_plain, ok_wire, ok_direct] = [&oks[0], &oks[1], &oks[2]];

    // wire
    let mut lat_wire = read_latencies(&p, &wire, ok_wire, Phase::Paced);
    let mut lat_direct = read_latencies(&p, &direct, ok_direct, Phase::Paced);
    let mut lat_plain = read_latencies(&p, &plain, ok_plain, Phase::Paced);
    let samples = lat_wire.len();
    for (name, q) in [
        ("wire.marginal_p50_ms", 0.5),
        ("wire.marginal_p99_ms", 0.99),
    ] {
        let w = tail(&mut lat_wire, q);
        let d = tail(&mut lat_direct, q);
        match (w, d) {
            (Some(w), Some(d)) => out.metric(name, w.value - d.value, "ms"),
            _ => {
                out.problems.push(format!("{name}: too few samples"));
                out.metric(name, 0.0, "ms");
            }
        }
    }
    out.metric("wire.marginal_samples", samples as f64, "count");
    let read_ns = server
        .read
        .busy_ns
        .load(std::sync::atomic::Ordering::Relaxed);
    out.metric(
        "wire.read_blocked_fraction",
        read_ns as f64 / server.wall_ns.max(1) as f64,
        "fraction",
    );
    let codec_frames = codec_frames(&p, &wire);
    let (codec_us, round_trips) = codec_replay(&codec_frames);
    if !round_trips {
        out.problems
            .push("a frame did not round-trip through the codec".to_string());
    }
    out.metric("wire.codec_us", codec_us, "us");
    let report = server.report.unwrap_or_default();
    let requests = (report.summaries + report.mutations).max(1);
    let bytes_in = server.read.bytes.load(std::sync::atomic::Ordering::Relaxed);
    let bytes_out = server
        .write
        .bytes
        .load(std::sync::atomic::Ordering::Relaxed);
    out.metric(
        "wire.bytes_per_request",
        bytes_in as f64 / requests as f64,
        "B",
    );
    out.metric(
        "wire.bytes_per_response",
        bytes_out as f64 / report.responses.max(1) as f64,
        "B",
    );
    out.metric(
        "wire.frames",
        (report.summaries + report.mutations + report.responses) as f64,
        "count",
    );

    // admission
    let direct_spans = spans_from(&direct_backend, 0);
    let d = decompose(
        &direct,
        &extra,
        &direct_spans.batches,
        indices(&p.tape, Phase::Paced).filter(|&i| ok_direct[i]),
    );
    if d.violations > 0 {
        out.problems
            .push(format!("{} reads failed the batch-id join", d.violations));
    }
    out.metric("admission.join_violations", d.violations as f64, "count");
    publish(
        &mut out,
        "admission.queue_wait_p50_ms",
        &d.queue_wait_ms,
        0.5,
        "ms",
    );
    publish(
        &mut out,
        "admission.queue_wait_p99_ms",
        &d.queue_wait_ms,
        0.99,
        "ms",
    );
    publish(
        &mut out,
        "admission.resolve_delay_p50_ms",
        &d.resolve_ms,
        0.5,
        "ms",
    );
    let wire_spans = spans_from(&wire_backend, first_start(&wire));
    let batches = wire_spans.batches.len();
    let batched: usize = wire_spans.batches.iter().map(|s| s.size).sum();
    out.metric(
        "admission.batch_size_mean",
        batched as f64 / batches.max(1) as f64,
        "count",
    );
    out.metric("admission.batches", batches as f64, "count");
    publish(&mut out, "admission.barrier_p50_ms", &barrier, 0.5, "ms");
    publish(&mut out, "admission.barrier_p99_ms", &barrier, 0.99, "ms");

    // engine
    let busy: u64 = wire_spans
        .batches
        .iter()
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let window = wire.end_ns.saturating_sub(first_start(&wire)).max(1);
    out.metric(
        "engine.busy_fraction",
        busy as f64 / window as f64,
        "fraction",
    );
    for (name, kind) in [
        ("engine.ms_per_summary.st", MethodKind::St),
        ("engine.ms_per_summary.st_fast", MethodKind::StFast),
        ("engine.ms_per_summary.pcst", MethodKind::Pcst),
    ] {
        out.metric(name, ms_per_summary(&wire_spans.batches, kind), "ms");
    }
    let mut mutate: Vec<f64> = direct_spans
        .mutations
        .iter()
        .map(|&(s, e)| (e - s) as f64 * 1e-6)
        .collect();
    out.metric("engine.mutate_ms", median(&mut mutate).unwrap_or(0.0), "ms");
    // Reads hit or miss the cache; the replayed writes patch it.
    let cache = cache_replay(g, &p.tape);
    let w = write_replay(g, &writes);
    out.metric("engine.cost_cache_hits", cache.hits as f64, "count");
    out.metric("engine.cost_cache_misses", cache.misses as f64, "count");
    out.metric("engine.cost_cache_patches", w.cache.patches as f64, "count");

    // steiner, pcst, graph: kernels on this workload's inputs, one thread
    let inputs: Vec<&SummaryInput> = p.data.inputs.iter().collect();
    let k = kernel_replay(g, &inputs);
    kernel_metrics(&mut out, &k, w.patch_ms, w.apply_us);

    // harness
    let lag: Vec<f64> = indices(&p.tape, Phase::Paced)
        .map(|i| wire.sent_ns[i].saturating_sub(wire.due_ns[i]) as f64 * 1e-6)
        .collect();
    publish(&mut out, "harness.generator_lag_p99_ms", &lag, 0.99, "ms");
    out.metric("harness.repeat_share", repeat_share(&p.tape), "fraction");
    let overhead = match (tail(&mut lat_wire, 0.5), tail(&mut lat_plain, 0.5)) {
        (Some(t), Some(u)) if u.value > 0.0 => (t.value / u.value - 1.0) * 100.0,
        _ => 0.0,
    };
    out.metric("harness.trace_overhead_pct", overhead, "%");
    out.metric("harness.steal_share", steal_share, "fraction");
    out.note("kernel_inputs", k.inputs);
    out.note("writes_replayed", w.writes);
    out
}

fn ms_per_summary(spans: &[BatchSpan], kind: MethodKind) -> f64 {
    let (mut ns, mut n) = (0u64, 0usize);
    for s in spans.iter().filter(|s| s.method == kind) {
        ns += s.end_ns - s.start_ns;
        n += s.size;
    }
    if n == 0 {
        0.0
    } else {
        ns as f64 * 1e-6 / n as f64
    }
}

/// Kernel and write-path metrics shared by every workload's trace.
pub fn kernel_metrics(
    out: &mut Outcome,
    k: &crate::layers::KernelTimes,
    patch_ms: f64,
    apply_us: f64,
) {
    out.metric("steiner.kmb_ms", k.kmb_ms, "ms");
    out.metric("steiner.fast_ms", k.fast_ms, "ms");
    out.metric("steiner.cost_setup_ms", k.cost_setup_ms, "ms");
    out.metric("steiner.delta_patch_ms", patch_ms, "ms");
    out.metric("pcst.ms", k.pcst_ms, "ms");
    out.metric("graph.voronoi_ms", k.voronoi_ms, "ms");
    out.metric(
        "graph.voronoi_settled_fraction",
        k.settled_fraction,
        "fraction",
    );
    out.metric("graph.closure_ms", k.closure_ms, "ms");
    out.metric("graph.apply_delta_us", apply_us, "us");
}

/// Share of paced reads whose (input, method) an earlier paced read
/// already asked for.
fn repeat_share(tape: &[TapeOp]) -> f64 {
    let mut seen = BTreeSet::new();
    let (mut reads, mut repeats) = (0usize, 0usize);
    for t in tape.iter().filter(|t| t.phase == Phase::Paced) {
        reads += 1;
        if !seen.insert((t.input, MethodKind::of(&t.method))) {
            repeats += 1;
        }
    }
    repeats as f64 / reads.max(1) as f64
}

/// The run's request frames (decoded back from the bytes sent) and the
/// response frames the client received.
fn codec_frames(p: &Prepared, log: &RunLog) -> Vec<WireFrame> {
    let mut frames: Vec<WireFrame> = p
        .frames
        .iter()
        .filter_map(|b| decode_frame(b).ok().map(|(f, _)| f))
        .collect();
    for (i, r) in log.resp.iter().enumerate() {
        let Some(r) = r else { continue };
        frames.push(WireFrame::SummaryResponse(SummaryResponse {
            id: i as u64,
            result: r.body.clone(),
        }));
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Resp;
    use crate::setup::st;
    use std::time::Duration;
    use xsum_core::table1_example;

    fn log_of(due: &[u64], done: &[Option<u64>], end: u64) -> RunLog {
        RunLog {
            due_ns: due.to_vec(),
            sent_ns: due.to_vec(),
            resp: done
                .iter()
                .map(|d| {
                    d.map(|done_ns| Resp {
                        done_ns,
                        body: Err("unused".to_string()),
                    })
                })
                .collect(),
            phase_start_ns: [0; 2],
            end_ns: end,
            errors: Vec::new(),
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        let mut log = log_of(&[1_000_000], &[Some(9_000_000)], 20_000_000);
        // The generator sent 5 ms late; the wait still counts.
        log.sent_ns[0] = 6_000_000;
        assert_eq!(latency_ms(&log, &[true], 0), 8.0);
    }

    #[test]
    fn failed_and_unanswered_requests_wait_until_the_end() {
        let log = log_of(&[0, 0], &[None, Some(1_000_000)], 50_000_000);
        assert_eq!(latency_ms(&log, &[false, false], 0), 50.0);
        // Answered but wrong: also a miss.
        assert_eq!(latency_ms(&log, &[false, false], 1), 50.0);
    }

    fn span(start_ns: u64, end_ns: u64) -> BatchSpan {
        BatchSpan {
            start_ns,
            end_ns,
            size: 1,
            method: MethodKind::St,
        }
    }

    #[test]
    fn batch_id_k_joins_the_kth_span() {
        let log = log_of(&[0, 10], &[Some(100), Some(200)], 300);
        let extra = DirectExtra {
            submit_ns: vec![5, 12],
            batch: vec![2, 1],
        };
        let spans = [span(20, 150), span(50, 90)];
        let d = decompose(&log, &extra, &spans, 0..2);
        assert_eq!(d.violations, 0);
        // Read 0 rode batch 2 (span index 1), read 1 batch 1 (index 0).
        let ms = |v: [u64; 2]| v.map(|ns| ns as f64 * 1e-6).to_vec();
        assert_eq!(d.queue_wait_ms, ms([45, 8]));
        assert_eq!(d.service_ms, ms([40, 130]));
        assert_eq!(d.resolve_ms, ms([10, 50]));
    }

    #[test]
    fn a_join_onto_the_wrong_span_is_a_violation() {
        let log = log_of(&[0], &[Some(100)], 300);
        let extra = DirectExtra {
            submit_ns: vec![5],
            batch: vec![1],
        };
        // The span ends after the ticket resolved: not this read's batch.
        assert_eq!(
            decompose(&log, &extra, &[span(20, 150)], 0..1).violations,
            1
        );
        // No span with that ordinal at all.
        assert_eq!(decompose(&log, &extra, &[], 0..1).violations, 1);
    }

    fn tiny() -> Prepared {
        let ex = table1_example();
        ex.graph.freeze();
        let inputs = vec![ex.input()];
        let mut tape = Vec::new();
        for (i, method) in [st(), st_fast(), pcst()].into_iter().enumerate() {
            tape.push(TapeOp {
                phase: Phase::Paced,
                at: Duration::from_millis(i as u64),
                input: 0,
                method,
            });
        }
        let frames = tape
            .iter()
            .enumerate()
            .map(|(i, t)| encode_read(i, t, &inputs))
            .collect();
        Prepared {
            data: ServeData {
                graph: ex.graph,
                inputs,
            },
            tape,
            frames,
        }
    }

    #[test]
    fn wire_and_direct_replays_answer_correctly_and_join() {
        let p = tiny();
        let expected = Expected::new(&p);
        let t0 = Instant::now();
        let queue = plain_queue(&p.data.graph);
        let (wire, server) = run_wire(&queue, &p.tape, &p.frames, t0, false);
        drop(queue);
        assert!(server.error.is_none() && wire.errors.is_empty());
        assert_eq!(expected.verdicts(&p, &wire), vec![true; 3]);

        let t0 = Instant::now();
        let (queue, backend) = traced_queue(&p.data.graph, t0);
        let (direct, extra) = run_direct(&queue, &p.tape, &p.data.inputs, t0);
        drop(queue);
        assert_eq!(expected.verdicts(&p, &direct), vec![true; 3]);
        let spans = spans_from(&backend, 0);
        let d = decompose(&direct, &extra, &spans.batches, 0..3);
        assert_eq!((d.violations, d.service_ms.len()), (0, 3));
        assert_eq!(expected.digest(&p, &wire), expected.digest(&p, &direct));
    }

    #[test]
    fn a_corrupted_response_is_counted_as_failed() {
        let p = tiny();
        let expected = Expected::new(&p);
        let t0 = Instant::now();
        let queue = plain_queue(&p.data.graph);
        let (mut log, _) = run_wire(&queue, &p.tape, &p.frames, t0, false);
        drop(queue);
        // Mutant: flip one edge id in the ST-fast response.
        if let Some(Resp { body: Ok(s), .. }) = &mut log.resp[1] {
            s.edges[0].0 ^= 1;
        }
        let mut out = Outcome::default();
        account(&mut out, &log, &expected.verdicts(&p, &log));
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert!(!out.correct());
    }
}
