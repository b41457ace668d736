//! Property tests for the batched client + the reactor's coalesced dispatch.
//!
//! The invariants pinned here are the contract of the batch subsystem:
//!
//! * **charged queries == unique nodes fetched**, for every graph, batch
//!   size, in-flight window, and walker count — batching reshapes request
//!   traffic, never the paper's §2.3 unique-query cost;
//! * the batched path is a **pure I/O transformation** of the walk: with
//!   one walker it replays the serial walk bit-identically, and with K
//!   walkers every per-walker trace (and the merged estimator) matches the
//!   threaded driver (`WalkOrchestrator::run_threaded`) exactly.

use proptest::prelude::*;

use std::collections::HashSet;
use std::sync::Arc;

use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;

/// Strategy: a connected random graph with 5..60 nodes (same recipe as
/// `tests/property_based.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

fn batched_report(
    network: &Arc<AttributedGraph>,
    k: usize,
    steps: usize,
    batch_size: usize,
    window: usize,
    seed: u64,
) -> (OrchestratorReport, SimulatedBatchOsn) {
    let n = network.graph.node_count();
    let mut client = SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(batch_size).with_in_flight(window),
    );
    let report = WalkOrchestrator::new(k, steps, seed).run_reactor(
        &mut client,
        |i, backend| {
            Box::new(Cnrw::with_backend(NodeId(((i * 13) % n) as u32), backend))
                as Box<dyn RandomWalk + Send>
        },
        |v| v.index() as f64,
        &Never,
    );
    (report, client)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn charged_queries_equal_unique_nodes_fetched(
        g in arb_graph(),
        seed in 0u64..300,
        k in 1usize..6,
        batch_size in 1usize..20,
        window in 1usize..5,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let (report, client) = batched_report(&network, k, 150, batch_size, window, seed);
        // The fetched set: each start (fetched for the first step) plus
        // every node a walker *departed from*. A walker's final position
        // is never fetched — no step follows it.
        let mut fetched: HashSet<u32> = (0..k).map(|i| ((i * 13) % n) as u32).collect();
        for trace in &report.trace.per_walker {
            fetched.extend(trace[..trace.len().saturating_sub(1)].iter().map(|v| v.0));
        }
        let charged = report.interface.expect("reactor reports interface stats");
        prop_assert_eq!(charged.unique, fetched.len() as u64);
        // Walker-side and interface-side agree on the charged cost, and the
        // interface never saw a node twice (the dispatcher cache absorbs
        // every revisit).
        prop_assert_eq!(report.trace.stats.unique, charged.unique);
        prop_assert_eq!(charged.cache_hits, 0);
        // Request accounting is conserved: every accepted id was delivered
        // exactly once (no failures were configured).
        prop_assert_eq!(client.batch_stats().submitted_ids, charged.issued);
    }

    #[test]
    fn one_walker_batched_is_bit_identical_to_serial_replay(
        g in arb_graph(),
        seed in 0u64..300,
        batch_size in 1usize..10,
    ) {
        use rand::SeedableRng;
        let network = Arc::new(AttributedGraph::bare(g));
        let orch = WalkOrchestrator::new(1, 200, seed);
        let (report, _) = batched_report(&network, 1, 200, batch_size, 2, seed);
        // Serial replay with the same derived RNG stream.
        let mut client = SimulatedOsn::new_shared(network.clone());
        let mut walker = Cnrw::new(NodeId(0));
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(orch.walker_seed(0));
        let mut serial = Vec::new();
        for _ in 0..200 {
            serial.push(walker.step(&mut client, &mut rng).unwrap());
        }
        prop_assert_eq!(&report.trace.per_walker[0], &serial);
        // Accounting matches the serial client's too.
        prop_assert_eq!(report.trace.stats, client.stats());
    }

    #[test]
    fn k_walker_batched_matches_threaded_driver_exactly(
        g in arb_graph(),
        seed in 0u64..300,
        k in 2usize..6,
        batch_size in 1usize..12,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let threaded = WalkOrchestrator::new(k, 150, seed).run_threaded(
            &SharedOsn::new(SimulatedOsn::new_shared(network.clone())),
            |i, backend| {
                Box::new(Cnrw::with_backend(NodeId(((i * 13) % n) as u32), backend))
                    as Box<dyn RandomWalk + Send>
            },
            |v| v.index() as f64,
            &Never,
        );
        let (batched, _) = batched_report(&network, k, 150, batch_size, 3, seed);
        prop_assert_eq!(&batched.trace.per_walker, &threaded.trace.per_walker);
        // Merged in the same walker order: the pooled estimator is
        // bit-identical, which is (much) stronger than the merged-estimator
        // tolerance the estimators otherwise guarantee.
        prop_assert_eq!(batched.estimate.count(), threaded.estimate.count());
        prop_assert_eq!(batched.estimate.mean(), threaded.estimate.mean());
        // And the charged cost equals the shared-cache runner's.
        prop_assert_eq!(batched.interface.map(|s| s.unique), Some(threaded.trace.stats.unique));
    }
}
