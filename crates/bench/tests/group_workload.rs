//! Workload-level checks for the G1–G5 group sweep: the pooled
//! user-group input really reaches the big-|T| regime the sweep is
//! meant to exercise, and a [`SummaryEngine`] spreading that group's
//! closure searches over its pool returns exactly the sequential
//! Algorithm 1 tree at every thread count.

use xsum_bench::experiments::perf::{group_input, GROUP_USERS};
use xsum_core::{steiner_summary, BatchMethod, Scenario, SteinerConfig, SummaryEngine};
use xsum_datasets::{scaling::scaling_graph_scaled, ScalingLevel};

#[test]
fn group_workload_clears_the_parallel_closure_threshold() {
    let ds = scaling_graph_scaled(ScalingLevel::G1, 42, 0.2);
    let input = group_input(&ds, GROUP_USERS, 42, 3).expect("G1 yields group paths");
    assert_eq!(input.scenario, Scenario::UserGroup);
    // The pooled group is the sweep's big-|T| point: enough distinct
    // terminals (users + recommended items) that its closure's |T|
    // searches outnumber the pool's workers many times over.
    assert!(
        input.terminals.len() >= 24,
        "group workload stays in the big-|T| regime: |T| = {}",
        input.terminals.len()
    );
    let mut sorted = input.terminals.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted, input.terminals, "terminals arrive sorted+deduped");
}

#[test]
fn engine_spreads_big_group_closures_bit_identically() {
    let ds = scaling_graph_scaled(ScalingLevel::G1, 42, 0.2);
    let g = &ds.kg.graph;
    let big = group_input(&ds, GROUP_USERS, 42, 3).expect("G1 yields group paths");
    let small = group_input(&ds, 1, 42, 3).expect("user 0 yields paths");
    let pair = group_input(&ds, 2, 7, 2).expect("users 0-1 yield paths");
    assert!(small.terminals.len() < big.terminals.len());
    // The big group sits between the small ones, so its closure tasks
    // share the cursor with theirs on either side.
    let inputs = vec![small, big, pair];
    let cfg = SteinerConfig::default();
    let want: Vec<_> = inputs.iter().map(|i| steiner_summary(g, i, &cfg)).collect();
    for threads in [1usize, 2, 4] {
        let mut engine = SummaryEngine::with_threads(threads);
        // Twice: the second batch runs on warm, restored cost buffers.
        for _ in 0..2 {
            let got = engine.summarize_batch(g, &inputs, BatchMethod::Steiner(cfg));
            assert_eq!(got.len(), want.len());
            // Fan-out is a pure scheduling decision: every tree is
            // bit-identical to the sequential one.
            for (want, got) in want.iter().zip(&got) {
                assert_eq!(want.subgraph.sorted_nodes(), got.subgraph.sorted_nodes());
                assert_eq!(want.subgraph.sorted_edges(), got.subgraph.sorted_edges());
            }
        }
    }
}
