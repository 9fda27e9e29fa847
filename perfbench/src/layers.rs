//! Single-thread replays that time each layer's public functions
//! directly, outside the serving stack.

use std::time::Instant;

use xsum_core::{
    decode_frame, encode_frame, pcst_summary, steiner_tree_fast_with, steiner_tree_with,
    BatchMethod, CostModelCache, PcstConfig, SteinerConfig, SteinerWorkspace, SummaryInput,
    WireFrame,
};
use xsum_graph::{DijkstraWorkspace, EdgeId, Graph};

use crate::setup::TapeOp;
use crate::stats::{mean, median};

/// Capacity of the `CostModelCache` a `SummaryEngine` holds
/// (`SummaryEngine::MODEL_CACHE_CAPACITY`, which is private).
const ENGINE_MODEL_CACHE_CAPACITY: usize = 8;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Mean per-input time of each kernel, on prebuilt Eq. 1 costs.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTimes {
    pub inputs: usize,
    pub cost_setup_ms: f64,
    pub kmb_ms: f64,
    pub fast_ms: f64,
    pub pcst_ms: f64,
    pub voronoi_ms: f64,
    pub settled_fraction: f64,
    pub closure_ms: f64,
}

/// Time every kernel once per input, sequentially on one thread.
pub fn kernel_replay(g: &Graph, inputs: &[&SummaryInput]) -> KernelTimes {
    let cfg = SteinerConfig::default();
    let mut cache = CostModelCache::new(ENGINE_MODEL_CACHE_CAPACITY);
    let (_, model) = cache.get(g, &cfg);
    let mut costs = model.fresh_costs();
    let mut touched = Vec::new();
    let mut ws = SteinerWorkspace::new();
    ws.set_parallelism(1);
    let mut dij = DijkstraWorkspace::new();
    let pcst_cfg = PcstConfig::default();
    let mut t = KernelTimes {
        inputs: inputs.len(),
        ..KernelTimes::default()
    };
    for input in inputs {
        let start = Instant::now();
        model.copy_base_into(&mut costs);
        model.patch(g, input, &mut costs, &mut touched);
        t.cost_setup_ms += ms(start);

        let start = Instant::now();
        std::hint::black_box(steiner_tree_with(g, &costs, &input.terminals, &mut ws));
        t.kmb_ms += ms(start);

        let start = Instant::now();
        std::hint::black_box(steiner_tree_fast_with(g, &costs, &input.terminals, &mut ws));
        t.fast_ms += ms(start);

        let start = Instant::now();
        dij.run_voronoi(g, &costs, &input.terminals);
        t.voronoi_ms += ms(start);
        let mut settled = 0usize;
        dij.for_each_settled(|_| settled += 1);
        t.settled_fraction += settled as f64 / g.node_count() as f64;

        let start = Instant::now();
        for &s in &input.terminals {
            dij.run(g, &costs, s, &input.terminals);
        }
        t.closure_ms += ms(start);

        let start = Instant::now();
        std::hint::black_box(pcst_summary(g, input, &pcst_cfg));
        t.pcst_ms += ms(start);
    }
    let n = inputs.len().max(1) as f64;
    for v in [
        &mut t.cost_setup_ms,
        &mut t.kmb_ms,
        &mut t.fast_ms,
        &mut t.pcst_ms,
        &mut t.voronoi_ms,
        &mut t.settled_fraction,
        &mut t.closure_ms,
    ] {
        *v /= n;
    }
    t
}

/// Cost-model cache counters of a one-summary-at-a-time replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub patches: u64,
}

/// Replay `tape` in stream order the way a sequential engine meets it:
/// every ST-family read asks the cache for the current Eq. 1 model
/// (PCST does not use it).
pub fn cache_replay(g: &Graph, tape: &[TapeOp]) -> CacheCounts {
    let cfg = SteinerConfig::default();
    let mut cache = CostModelCache::new(ENGINE_MODEL_CACHE_CAPACITY);
    for t in tape {
        if matches!(
            t.method,
            BatchMethod::Steiner(_) | BatchMethod::SteinerFast(_)
        ) {
            cache.get(g, &cfg);
        }
    }
    counts(&cache)
}

fn counts(cache: &CostModelCache) -> CacheCounts {
    CacheCounts {
        hits: cache.hits(),
        misses: cache.misses(),
        patches: cache.patches(),
    }
}

/// Median cost of one write in the graph and steiner layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct WriteTimes {
    pub writes: usize,
    /// `Graph::set_weight` (the ledger record the wire's `SetWeight` makes).
    pub apply_us: f64,
    /// `CostModelCache::get` right after the write (patch or rebuild).
    pub patch_ms: f64,
    /// The cache's counters after the replay.
    pub cache: CacheCounts,
}

/// Apply `writes` one at a time to a copy of `g`, timing the ledger
/// write and the cost-table refresh after each.
pub fn write_replay(g: &Graph, writes: &[(EdgeId, f64)]) -> WriteTimes {
    let cfg = SteinerConfig::default();
    let mut g = g.clone();
    let mut cache = CostModelCache::new(ENGINE_MODEL_CACHE_CAPACITY);
    cache.get(&g, &cfg);
    let mut apply = Vec::with_capacity(writes.len());
    let mut patch = Vec::with_capacity(writes.len());
    for &(edge, weight) in writes {
        let start = Instant::now();
        g.set_weight(edge, weight);
        let applied = start.elapsed().as_secs_f64();
        let mid = Instant::now();
        std::hint::black_box(cache.get(&g, &cfg));
        let patched = mid.elapsed().as_secs_f64();
        apply.push(applied * 1e6);
        patch.push(patched * 1e3);
    }
    WriteTimes {
        writes: writes.len(),
        apply_us: median(&mut apply).unwrap_or(0.0),
        patch_ms: median(&mut patch).unwrap_or(0.0),
        cache: counts(&cache),
    }
}

/// Mean time to encode and decode one frame, in microseconds, with the
/// byte images checked to round-trip.
pub fn codec_replay(frames: &[WireFrame]) -> (f64, bool) {
    let mut per = Vec::with_capacity(frames.len());
    let mut exact = true;
    for f in frames {
        let start = Instant::now();
        let bytes = encode_frame(f);
        let decoded = decode_frame(&bytes);
        per.push(start.elapsed().as_secs_f64() * 1e6);
        exact &= match decoded {
            Ok((back, used)) => used == bytes.len() && encode_frame(&back) == bytes,
            Err(_) => false,
        };
    }
    (mean(&per), exact)
}
