//! The `audit` workload: one closed-loop caller batching distinct group
//! summaries through a `SummaryEngine` it holds. No wire, no admission.

use std::collections::BTreeMap;
use std::time::Instant;

use xsum_core::{BatchMethod, SummaryEngine, SummaryInput, WireSummary};
use xsum_graph::Graph;

use crate::check::{oracles, Digest, Key};
use crate::layers::kernel_replay;
use crate::report::{peak_rss_mb, Outcome};
use crate::serve::kernel_metrics;
use crate::setup::{pcst, st, GroupStream};
use crate::stats::median;
use crate::steal::Sampler;
use crate::trace::ns_since;
use crate::trace::MethodKind;
use crate::{publish, Args, SETUP_REPS};

/// Groups per `summarize_batch` call.
const BATCH: usize = 4;
/// Methods of successive calls: two KMB calls per PCST call keep the
/// median inside the KMB mode instead of between the two.
fn method_of_call(call: usize) -> BatchMethod {
    if call % 3 == 2 {
        pcst()
    } else {
        st()
    }
}
/// Groups the single-thread kernel replay covers.
const KERNEL_GROUPS: usize = 6;

struct Ready {
    stream: GroupStream,
    engine: SummaryEngine,
}

fn set_up(seed: u64) -> Ready {
    let mut stream = GroupStream::new(seed);
    let mut engine = SummaryEngine::new();
    let warm = [stream.next_group()];
    let g = &stream.ds.kg.graph;
    for m in [st(), pcst()] {
        std::hint::black_box(engine.summarize_batch(g, &warm, m));
    }
    Ready { stream, engine }
}

/// One `summarize_batch` call of the measured loop.
struct Call {
    method: BatchMethod,
    size: usize,
    seconds: f64,
    /// Start and end, as ns since the loop began.
    span: (u64, u64),
}

struct Measured {
    methods: Vec<BatchMethod>,
    /// [`Digest::of`] each summary: the outputs themselves are not kept,
    /// so the run's peak memory does not grow with its throughput.
    outputs: Vec<u64>,
    calls: Vec<Call>,
    busy_s: f64,
    wall_s: f64,
}

/// Call the engine back to back until it has been busy for `seconds`;
/// the next batch's groups are drawn between calls, outside the timing.
/// Call spans are timed from `t0`.
fn measure(r: &mut Ready, seconds: f64, t0: Instant) -> Measured {
    let mut m = Measured {
        methods: Vec::new(),
        outputs: Vec::new(),
        calls: Vec::new(),
        busy_s: 0.0,
        wall_s: 0.0,
    };
    let wall = Instant::now();
    while m.busy_s < seconds {
        let from = ns_since(t0);
        let batch: Vec<SummaryInput> = (0..BATCH).map(|_| r.stream.next_group()).collect();
        let method = method_of_call(m.calls.len());
        let g = &r.stream.ds.kg.graph;
        let start = Instant::now();
        let out = r.engine.summarize_batch(g, &batch, method);
        let seconds = start.elapsed().as_secs_f64();
        m.busy_s += seconds;
        for s in &out {
            let key = (m.outputs.len(), MethodKind::of(&method));
            m.outputs
                .push(Digest::of(key, &WireSummary::from_summary(s)));
            m.methods.push(method);
        }
        m.calls.push(Call {
            method,
            size: BATCH,
            seconds,
            span: (from, ns_since(t0)),
        });
    }
    m.wall_s = wall.elapsed().as_secs_f64();
    m
}

/// The groups the measured loop summarized, drawn again from a fresh
/// stream (a pure function of the seed) past the set-up's warm-up group.
fn groups_of(seed: u64, n: usize) -> (GroupStream, Vec<SummaryInput>) {
    let mut stream = GroupStream::new(seed);
    stream.next_group();
    let groups = (0..n).map(|_| stream.next_group()).collect();
    (stream, groups)
}

/// Compare every summary with the sequential free function on `groups`;
/// returns the verdicts and the digest of the served outputs.
fn check(g: &Graph, groups: &[SummaryInput], m: &Measured) -> (Vec<bool>, u64) {
    let wanted: BTreeMap<Key, BatchMethod> = m
        .methods
        .iter()
        .enumerate()
        .map(|(i, meth)| ((i, MethodKind::of(meth)), *meth))
        .collect();
    let expected = oracles(g, groups, &wanted, crate::nproc());
    let mut digest = Digest::default();
    let ok = m
        .outputs
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let key = (i, MethodKind::of(&m.methods[i]));
            digest.add_u64(d);
            expected.get(&key).map(|s| Digest::of(key, s)) == Some(d)
        })
        .collect();
    (ok, digest.value())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ready = None;
    // The traced run reports no set-up time, so it sets up once.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        drop(ready.take());
        let start = Instant::now();
        let r = set_up(args.seed);
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(r);
    }
    let mut r = ready.expect("at least one set-up");
    let t0 = Instant::now();
    let sampler = Sampler::start(t0);
    let m = measure(&mut r, args.seconds, t0);
    let steal = sampler.finish();
    // Before the checks allocate: the peak is the engine's, the graph's
    // and the loop's collected outputs.
    let peak_rss = peak_rss_mb();
    let lost_s: f64 = m
        .calls
        .iter()
        .map(|c| steal.lost_ns(c.span.0, c.span.1, crate::nproc()) * 1e-9)
        .sum();
    let steal_share = steal.share(0, ns_since(t0), crate::nproc());
    out.note("steal_share", steal_share);
    let (stream, groups) = groups_of(args.seed, m.outputs.len());
    let g = &stream.ds.kg.graph;
    let (ok, digest) = check(g, &groups, &m);
    out.attempted = ok.len() as u64;
    out.failed = ok.iter().filter(|v| !**v).count() as u64;
    out.digest = digest;
    out.note("graph_nodes", g.node_count());
    out.note("graph_edges", g.edge_count());
    out.note("calls", m.calls.len());
    let terminals: Vec<usize> = groups.iter().map(|i| i.terminals.len()).collect();
    out.note(
        "terminals_min",
        terminals.iter().min().copied().unwrap_or(0),
    );
    out.note(
        "terminals_max",
        terminals.iter().max().copied().unwrap_or(0),
    );

    let summaries = m.outputs.len() as f64;
    if !args.trace {
        out.metric("setup_s", median(&mut setup_s).unwrap_or(0.0), "s");
        out.metric("peak_rss_mb", peak_rss, "MiB");
        // Closed loop: a summary's latency is the duration of the call
        // that returned it, one sample per call.
        let lat: Vec<f64> = m.calls.iter().map(|c| c.seconds * 1e3).collect();
        publish(&mut out, "latency_p50_ms", &lat, 0.5, "ms");
        publish(&mut out, "latency_p99_ms", &lat, 0.99, "ms");
        // Per second of engine time the host did not steal (the calls
        // keep every vCPU busy). One caller keeps the engine saturated,
        // so capacity is throughput.
        let rate = summaries / (m.busy_s - lost_s);
        out.metric("throughput_sps", rate, "1/s");
        out.metric("capacity_sps", rate, "1/s");
        return out;
    }

    // No frame crosses a wire and no request enters an admission queue.
    for (name, unit) in [
        ("wire.marginal_p50_ms", "ms"),
        ("wire.marginal_p99_ms", "ms"),
        ("wire.marginal_samples", "count"),
        ("wire.read_blocked_fraction", "fraction"),
        ("wire.codec_us", "us"),
        ("wire.bytes_per_request", "B"),
        ("wire.bytes_per_response", "B"),
        ("wire.frames", "count"),
        ("admission.join_violations", "count"),
        ("admission.queue_wait_p50_ms", "ms"),
        ("admission.queue_wait_p99_ms", "ms"),
        ("admission.resolve_delay_p50_ms", "ms"),
        ("admission.batch_size_mean", "count"),
        ("admission.batches", "count"),
        ("admission.barrier_p50_ms", "ms"),
        ("admission.barrier_p99_ms", "ms"),
    ] {
        out.metric(name, 0.0, unit);
    }
    out.metric("engine.busy_fraction", m.busy_s / m.wall_s, "fraction");
    for (name, kind) in [
        ("engine.ms_per_summary.st", MethodKind::St),
        ("engine.ms_per_summary.st_fast", MethodKind::StFast),
        ("engine.ms_per_summary.pcst", MethodKind::Pcst),
    ] {
        let (s, n) = m
            .calls
            .iter()
            .filter(|c| MethodKind::of(&c.method) == kind)
            .fold((0.0, 0usize), |(s, n), c| (s + c.seconds, n + c.size));
        out.metric(name, if n == 0 { 0.0 } else { s * 1e3 / n as f64 }, "ms");
    }
    // Nothing writes to the graph.
    out.metric("engine.mutate_ms", 0.0, "ms");
    let (hits, misses) = r.engine.cost_cache_stats();
    out.metric("engine.cost_cache_hits", hits as f64, "count");
    out.metric("engine.cost_cache_misses", misses as f64, "count");
    out.metric(
        "engine.cost_cache_patches",
        r.engine.cost_cache_patches() as f64,
        "count",
    );
    let sample: Vec<&SummaryInput> = groups.iter().take(KERNEL_GROUPS).collect();
    let k = kernel_replay(g, &sample);
    kernel_metrics(&mut out, &k, 0.0, 0.0);
    out.metric("harness.generator_lag_p99_ms", 0.0, "ms");
    out.metric("harness.repeat_share", 0.0, "fraction");
    // The untraced run times each call the same way; tracing adds nothing.
    out.metric("harness.trace_overhead_pct", 0.0, "%");
    out.metric("harness.steal_share", steal_share, "fraction");
    out.note("kernel_inputs", k.inputs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerated_groups_check_the_loop_and_catch_a_corrupted_output() {
        let mut r = set_up(5);
        // One call: the loop stops once the engine has been busy at all.
        let mut m = measure(&mut r, 1e-9, Instant::now());
        assert_eq!(m.outputs.len(), BATCH);
        let (stream, groups) = groups_of(5, m.outputs.len());
        let (ok, digest) = check(&stream.ds.kg.graph, &groups, &m);
        assert_eq!(ok, vec![true; BATCH]);
        // Mutant: one output differs from what the engine returned.
        m.outputs[2] ^= 1;
        let (ok, other) = check(&stream.ds.kg.graph, &groups, &m);
        assert_eq!(ok.iter().filter(|v| !**v).count(), 1);
        assert_ne!(digest, other);
    }
}
