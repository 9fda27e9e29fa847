//! Seeded inputs and arrival tapes for the two workloads.
//!
//! Everything here is a pure function of the seed and of fixed data
//! (the G5 graph and the wire workload's inputs): which input each
//! arrival asks for, when it is due, the traced run's replayed writes,
//! and the audit's groups.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xsum_bench::experiments::perf::batch_inputs;
use xsum_bench::traffic::{schedule, Arrival, ArrivalKind, TrafficConfig};
use xsum_core::{
    encode_frame, BatchMethod, PcstConfig, SteinerConfig, SummaryInput, SummaryRequest, WireFrame,
};
use xsum_datasets::{
    random_explanation_path, scaling::scaling_graph_scaled, Dataset, ScalingLevel,
};
use xsum_graph::{EdgeId, Graph, LoosePath, NodeId};

/// Graph level of every workload (Table III's largest).
pub const LEVEL: ScalingLevel = ScalingLevel::G5;
/// Graph scale of every workload. On `audit`, KMB's |T|-Dijkstra
/// closure still dominates at this scale, and a smaller graph holds a
/// steadier rate on a shared 2-vCPU host: at 0.1 the summaries/s of
/// interleaved runs there spread about twice as wide as here.
pub const SCALE: f64 = 0.05;

/// Seed of the G5 graph, the wire workload's inputs and their
/// popularity order: fixed benchmark data, as a real dataset and its
/// query log's hot users would be. The run's `--seed` draws the
/// traffic: arrivals, which input each asks for, methods, writes, and
/// the audit's groups.
const DATASET_SEED: u64 = 42;

/// Users whose recommendations become user-centric inputs.
const SERVE_USERS: usize = 64;
/// Explanation paths drawn per user.
const PATHS_PER_USER: usize = 10;
/// Most item-centric inputs pooled from the users' paths.
const MAX_ITEM_INPUTS: usize = 64;

/// Share of `--seconds` the paced phase of the tape lasts.
const PACED_SHARE: f64 = 0.8;
/// Arrival rate of the paced phase (reads/s), steady Poisson, far below
/// capacity (about 900–1800 reads/s on a 2-vCPU host).
///
/// `serve_stream` holds a finished response until the next request
/// arrives, so a read's latency is its service time plus the wait for
/// the next arrival. CPU time the host steals delays reads by a few
/// milliseconds whatever the rate (about 0.5 ms at the median per 1% of
/// vCPU time stolen, measured at 60–150 reads/s), so a low rate, whose
/// gaps are long, keeps that delay a small share of the median.
///
/// There are no on/off bursts: each half-cycle holds the same number of
/// arrivals, so the median read would fall between the burst's
/// latencies and the lull's, where few reads lie and a slower host
/// moves it most.
pub const RATE: f64 = 30.0;
/// Arrivals offered in the overload phase, per second of `--seconds`.
const OVERLOAD_PER_SECOND: f64 = 400.0;
/// Arrival rate of the overload phase, far above capacity. The server
/// blocks on a full admission queue, so the excess waits in the socket
/// instead of being refused.
const OVERLOAD_RATE: f64 = 20000.0;

/// Phases of the tape, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Open-loop arrivals at [`RATE`] on average.
    Paced,
    /// The same reads offered far above capacity.
    Overload,
}

pub const PHASES: [Phase; 2] = [Phase::Paced, Phase::Overload];

/// One summary read; `at` is the offset from its phase's start.
#[derive(Debug, Clone, Copy)]
pub struct TapeOp {
    pub phase: Phase,
    pub at: Duration,
    pub input: usize,
    pub method: BatchMethod,
}

pub fn st() -> BatchMethod {
    BatchMethod::Steiner(SteinerConfig::default())
}

pub fn st_fast() -> BatchMethod {
    BatchMethod::SteinerFast(SteinerConfig::default())
}

pub fn pcst() -> BatchMethod {
    BatchMethod::Pcst(PcstConfig::default())
}

/// Graph plus the user- and item-centric inputs the wire workload asks for.
pub struct ServeData {
    pub graph: Graph,
    pub inputs: Vec<SummaryInput>,
}

/// `perf::batch_inputs` users, plus item-centric inputs built from the
/// same paths (every item reached by at least two paths, most-reached
/// first), in a fixed shuffled order: the tape's Zipf ranks follow it,
/// so the hot inputs mix both scenarios and are the same on every seed.
pub fn serve_data() -> ServeData {
    let (ds, mut inputs) = batch_inputs(LEVEL, SCALE, DATASET_SEED, SERVE_USERS, PATHS_PER_USER);
    let mut by_item: BTreeMap<NodeId, Vec<LoosePath>> = BTreeMap::new();
    for input in &inputs {
        for p in &input.paths {
            by_item.entry(p.target()).or_default().push(p.clone());
        }
    }
    let mut items: Vec<(NodeId, Vec<LoosePath>)> = by_item
        .into_iter()
        .filter(|(_, ps)| ps.len() >= 2)
        .collect();
    items.sort_by_key(|(n, ps)| (std::cmp::Reverse(ps.len()), *n));
    items.truncate(MAX_ITEM_INPUTS);
    inputs.extend(
        items
            .into_iter()
            .map(|(item, paths)| SummaryInput::item_centric(item, paths)),
    );
    shuffle(&mut inputs, &mut StdRng::seed_from_u64(DATASET_SEED));
    let graph = ds.kg.graph;
    graph.freeze();
    ServeData { graph, inputs }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Seeded `SetWeight` writes for the traced run's write-path replays:
/// uniform edges, weights drawn from the graph's own so that a write
/// rarely moves the Eq. 1 anchor (the maximum weight).
pub fn seeded_writes(g: &Graph, seed: u64, n: usize) -> Vec<(EdgeId, f64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a9e_0b5e);
    let e = g.edge_count() as u32;
    (0..n)
        .map(|_| {
            let edge = EdgeId(rng.gen_range(0..e));
            (edge, g.weight(EdgeId(rng.gen_range(0..e))))
        })
        .collect()
}

/// The seeded tape for a run of `seconds`: the paced phase, then the
/// same reads again as the overload phase.
pub fn serve_tape(seed: u64, seconds: f64, data: &ServeData) -> Vec<TapeOp> {
    let reads = (RATE * PACED_SHARE * seconds).round() as usize;
    let cfg = TrafficConfig {
        seed,
        burst_len: 0,
        mutation_every: 0,
        ..TrafficConfig::new(RATE, reads.max(1))
    };
    let arrivals = schedule(&cfg, data.inputs.len(), data.graph.edge_count());
    let times = stratified_times(&arrivals, RATE);
    let mut tape: Vec<TapeOp> = arrivals
        .into_iter()
        .zip(times)
        .filter_map(|(a, at)| match a.kind {
            ArrivalKind::Summary { input, method, .. } => Some(TapeOp {
                phase: Phase::Paced,
                at,
                input,
                method,
            }),
            ArrivalKind::Mutation { .. } => None,
        })
        .collect();
    // The overload phase offers the same reads again, evenly spaced at a
    // rate far above capacity.
    let overload = (OVERLOAD_PER_SECOND * seconds).round() as usize;
    let again: Vec<TapeOp> = tape
        .iter()
        .cycle()
        .take(overload)
        .enumerate()
        .map(|(k, t)| TapeOp {
            phase: Phase::Overload,
            at: Duration::from_secs_f64(k as f64 / OVERLOAD_RATE),
            ..*t
        })
        .collect();
    tape.extend(again);
    tape
}

/// Due offsets for `arrivals` with stratified inter-arrival gaps.
///
/// `schedule` draws each gap from an exponential at `rate`. Here every
/// gap keeps its rank among the gaps but takes the exponential quantile
/// at that rank's midpoint. Every seed then offers the same multiset of
/// gaps (so the same average rate and the same longest lulls) in its own
/// order. `serve_stream` holds a finished response until the next
/// request arrives, so those gaps set most of the read latency, which
/// then does not swing with the seed.
pub fn stratified_times(arrivals: &[Arrival], rate: f64) -> Vec<Duration> {
    let gaps: Vec<f64> = arrivals
        .iter()
        .scan(0.0, |last, a| {
            let t = a.at.as_secs_f64();
            let gap = t - *last;
            *last = t;
            Some(gap)
        })
        .collect();
    let mut order: Vec<usize> = (0..gaps.len()).collect();
    order.sort_by(|&a, &b| gaps[a].total_cmp(&gaps[b]).then(a.cmp(&b)));
    let n = order.len() as f64;
    let mut new_gaps = vec![0.0; gaps.len()];
    for (rank, &k) in order.iter().enumerate() {
        let u = (rank as f64 + 0.5) / n;
        new_gaps[k] = -(1.0 - u).ln() / rate;
    }
    new_gaps
        .iter()
        .scan(0.0, |clock, gap| {
            *clock += gap;
            Some(Duration::from_secs_f64(*clock))
        })
        .collect()
}

/// The request frame of tape entry `id` (the id is the tape index).
pub fn encode_read(id: usize, t: &TapeOp, inputs: &[SummaryInput]) -> Vec<u8> {
    encode_frame(&WireFrame::SummaryRequest(SummaryRequest {
        id: id as u64,
        method: t.method,
        input: inputs[t.input].clone(),
    }))
}

/// Group sizes the audit cycles through.
const GROUP_SIZES: [usize; 3] = [8, 16, 32];
/// Users pooled per item of an item group.
const USERS_PER_GROUP_ITEM: usize = 4;

/// Deterministic stream of distinct user- and item-group inputs.
///
/// `perf::group_input` always pools users `0..n`, so re-seeding it only
/// repeats a group; here members come from consecutive windows of a
/// seeded user permutation, reshuffled when exhausted.
pub struct GroupStream {
    pub ds: Dataset,
    seed: u64,
    order: Vec<usize>,
    cursor: usize,
    reshuffles: u64,
    produced: usize,
}

impl GroupStream {
    pub fn new(seed: u64) -> Self {
        let ds = scaling_graph_scaled(LEVEL, DATASET_SEED, SCALE);
        ds.kg.graph.freeze();
        let order = (0..ds.kg.n_users()).collect();
        let mut s = GroupStream {
            ds,
            seed,
            order,
            cursor: 0,
            reshuffles: 0,
            produced: 0,
        };
        s.reshuffle();
        s
    }

    fn reshuffle(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9 ^ self.reshuffles << 20);
        shuffle(&mut self.order, &mut rng);
        self.reshuffles += 1;
        self.cursor = 0;
    }

    fn window(&mut self, n: usize) -> Vec<usize> {
        if self.cursor + n > self.order.len() {
            self.reshuffle();
        }
        let w = self.order[self.cursor..self.cursor + n].to_vec();
        self.cursor += n;
        w
    }

    fn paths_of(&self, users: &[usize]) -> Vec<LoosePath> {
        let mut out = Vec::new();
        for &u in users {
            for i in 0..PATHS_PER_USER {
                let s = self.seed ^ (u as u64) << 8 ^ i as u64;
                if let Some(p) = random_explanation_path(&self.ds, u, 3, s, 30) {
                    out.push(LoosePath::from_path(&p));
                }
            }
        }
        out
    }

    /// The next group: user and item groups alternate, sizes cycle
    /// through [`GROUP_SIZES`].
    pub fn next_group(&mut self) -> SummaryInput {
        let j = self.produced;
        self.produced += 1;
        let size = GROUP_SIZES[(j / 2) % GROUP_SIZES.len()];
        if j.is_multiple_of(2) {
            let users = self.window(size);
            let paths = self.paths_of(&users);
            let nodes: Vec<NodeId> = users.iter().map(|&u| self.ds.kg.user_node(u)).collect();
            SummaryInput::user_group(&nodes, paths)
        } else {
            // Item group: the `size` items most reached by a fresh user
            // window's paths, with every pooled path that ends on one.
            let users = self.window(size * USERS_PER_GROUP_ITEM);
            let pool = self.paths_of(&users);
            let mut freq: BTreeMap<NodeId, usize> = BTreeMap::new();
            for p in &pool {
                *freq.entry(p.target()).or_default() += 1;
            }
            let mut items: Vec<(NodeId, usize)> = freq.into_iter().collect();
            items.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
            items.truncate(size);
            let chosen: Vec<NodeId> = items.into_iter().map(|(n, _)| n).collect();
            let paths = pool
                .into_iter()
                .filter(|p| chosen.contains(&p.target()))
                .collect();
            SummaryInput::item_group(&chosen, paths)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_gets_the_same_gaps_in_its_own_order() {
        let sorted_gaps = |seed| {
            let cfg = TrafficConfig {
                seed,
                burst_len: 0,
                mutation_every: 0,
                ..TrafficConfig::new(200.0, 600)
            };
            let times = stratified_times(&schedule(&cfg, 16, 1000), 200.0);
            let mut last = Duration::ZERO;
            let mut gaps = Vec::new();
            for t in times {
                assert!(t >= last, "due times are monotone");
                gaps.push(t - last);
                last = t;
            }
            let order = gaps.clone();
            gaps.sort();
            (gaps, order)
        };
        let (a, order_a) = sorted_gaps(1);
        let (b, order_b) = sorted_gaps(2);
        assert_eq!(a.len(), 600);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.abs_diff(*y) < Duration::from_nanos(2));
        }
        assert_ne!(order_a, order_b, "the order still follows the seed");
        let span: Duration = a.iter().sum();
        let rate = 600.0 / span.as_secs_f64();
        assert!((rate / 200.0 - 1.0).abs() < 0.05, "average rate {rate}");
    }
}
