//! Integration contract of the unified orchestrator's work-stealing
//! restart policy.
//!
//! Three properties pin the subsystem:
//!
//! * **Provenance** — every node the [`SharedFrontier`] pool ever serves
//!   (remaining entries, steal targets, rescue targets, and the positions
//!   restarts abandoned) is a node some walker actually occupied: a start,
//!   a visited trace node, or a previously stolen target — which by
//!   induction bottoms out in starts and trace nodes. The frontier can
//!   never invent territory the fleet did not pay to discover.
//! * **Seeded determinism** — the reactor's whole run, restart schedule
//!   included, is a pure function of the seed (the committed fixture
//!   `tests/fixtures/cnrw_steal_budget_clustered.txt` pins one such run).
//! * **Wave schedule** — while every wave fits one batch, surplus batch
//!   capacity or in-flight window changes neither the traces nor the
//!   restart schedule.

use proptest::prelude::*;

use std::collections::HashSet;
use std::sync::Arc;

use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::graph::NodeId;
use osn_sampling::prelude::*;
use osn_sampling::walks::{
    OrchestratorReport, RestartPolicy, RestartReason, SharedFrontier, WalkOrchestrator,
    WorkStealing,
};

/// Strategy: a connected random graph with 5..60 nodes (same recipe as the
/// other property suites in this directory).
fn arb_graph() -> impl Strategy<Value = osn_sampling::graph::CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

fn clustered_network() -> Arc<AttributedGraph> {
    Arc::new(osn_sampling::datasets::clustered_graph().network)
}

/// Run the clumped-start clustered scenario on the reactor over a
/// zero-latency endpoint with one batch slot per walker.
fn reactor_steal_run(
    network: &Arc<AttributedGraph>,
    k: usize,
    steps: usize,
    budget: Option<u64>,
    seed: u64,
    policy: &dyn RestartPolicy,
) -> OrchestratorReport {
    let graph = &network.graph;
    let make = |i: usize, b| {
        Box::new(Cnrw::with_backend(NodeId((i % 10) as u32), b)) as Box<dyn RandomWalk + Send>
    };
    let mut client = SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(k),
        budget,
    );
    WalkOrchestrator::new(k, steps, seed).run_reactor(
        &mut client,
        make,
        |v| graph.degree(v) as f64,
        policy,
    )
}

/// Starts ∪ trace nodes — the territory the fleet actually occupied.
fn occupied(report: &OrchestratorReport, k: usize) -> HashSet<u32> {
    let mut seen: HashSet<u32> = (0..k as u32).map(|i| i % 10).collect();
    seen.extend(report.trace.pooled().map(|v| v.0));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frontier provenance on arbitrary connected graphs: everything the
    /// pool serves (and retains) was visited by some walker.
    #[test]
    fn frontier_only_serves_visited_nodes(
        g in arb_graph(),
        k in 2usize..5,
        steps in 50usize..200,
        seed in 0u64..500,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let frontier = SharedFrontier::with_stripes(4, 8);
        let policy = WorkStealing::new(1.05, 8, frontier.clone());
        let graph = network.graph.clone();
        let mut client = SimulatedBatchOsn::new(
            SimulatedOsn::new_shared(network.clone()),
            BatchConfig::new(k),
        );
        let report = WalkOrchestrator::new(k, steps, seed).run_reactor(
            &mut client,
            |i, b| Box::new(Cnrw::with_backend(NodeId((i % n) as u32), b)) as _,
            |v| graph.degree(v) as f64,
            &policy,
        );
        let mut seen: HashSet<u32> = (0..k).map(|i| (i % n) as u32).collect();
        seen.extend(report.trace.pooled().map(|v| v.0));
        for entry in frontier.entries() {
            prop_assert!(
                seen.contains(&entry.node.0),
                "pooled entry {:?} was never visited",
                entry.node
            );
            prop_assert_eq!(entry.degree, network.graph.degree(entry.node));
            prop_assert!(entry.owner < k);
        }
        for event in &report.restarts {
            prop_assert!(
                seen.contains(&event.to.0),
                "restart target {:?} was never visited",
                event.to
            );
            prop_assert!(
                seen.contains(&event.from.0),
                "abandoned position {:?} was never occupied",
                event.from
            );
        }
    }
}

#[test]
fn work_stealing_schedule_is_a_function_of_the_seed() {
    // Same seed -> identical traces, stops, AND restart schedule; a
    // different seed moves the schedule (the run is not degenerate).
    let network = clustered_network();
    let run = |seed: u64| {
        let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
        let report = reactor_steal_run(&network, 6, 600, Some(45), seed, &policy);
        (
            report.trace.per_walker.clone(),
            report.stops.clone(),
            report.restarts.clone(),
        )
    };
    let (traces_a, stops_a, restarts_a) = run(7);
    let (traces_b, stops_b, restarts_b) = run(7);
    assert_eq!(traces_a, traces_b);
    assert_eq!(stops_a, stops_b);
    assert_eq!(restarts_a, restarts_b);
    assert!(
        !restarts_a.is_empty(),
        "budgeted clumped starts must exercise restarts"
    );
    let (_, _, restarts_c) = run(8);
    assert_ne!(
        restarts_a, restarts_c,
        "a different seed must reschedule the restarts"
    );
}

#[test]
fn rescues_target_cached_territory_and_respect_the_budget() {
    let network = clustered_network();
    let budget = 40u64;
    let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
    let report = reactor_steal_run(&network, 6, 800, Some(budget), 11, &policy);
    let seen = occupied(&report, 6);
    let rescues: Vec<_> = report
        .restarts
        .iter()
        .filter(|e| e.reason == RestartReason::Refused)
        .collect();
    assert!(!rescues.is_empty(), "budget must trigger rescues here");
    for rescue in rescues {
        // A rescue target is published territory: its neighbor list was
        // fetched when its owner departed it, i.e. it is cached — the
        // rescued walker keeps sampling without burning budget.
        assert!(seen.contains(&rescue.to.0));
    }
    // The budget invariant is untouched by all the relocation churn.
    assert!(report.trace.stats.unique <= budget);
}

#[test]
fn work_stealing_schedule_ignores_surplus_batch_capacity() {
    // With an *active* policy (the `Never` equivalences are pinned
    // elsewhere): while each wave of the 5-walker fleet fits one batch,
    // every event is one lockstep wave, so extra batch slots or a wider
    // in-flight window change neither the traces nor the restart schedule.
    let network = clustered_network();
    let graph = network.graph.clone();
    let make = |i: usize, b| {
        Box::new(Cnrw::with_backend(NodeId((i % 10) as u32), b)) as Box<dyn RandomWalk + Send>
    };
    let orch = WalkOrchestrator::new(5, 400, 21);
    let run = |config: BatchConfig| {
        let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
        let mut client = SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), config);
        orch.run_reactor(&mut client, make, |v| graph.degree(v) as f64, &policy)
    };
    let tight = run(BatchConfig::new(5));
    assert!(
        !tight.restarts.is_empty(),
        "scenario must exercise the policy"
    );
    for config in [
        BatchConfig::new(16).with_in_flight(2),
        BatchConfig::new(64).with_in_flight(4),
    ] {
        let roomy = run(config);
        assert_eq!(tight.trace.per_walker, roomy.trace.per_walker);
        assert_eq!(tight.restarts, roomy.restarts);
        assert_eq!(tight.estimate.count(), roomy.estimate.count());
        assert_eq!(tight.estimate.mean(), roomy.estimate.mean());
    }
}

#[test]
fn threaded_backend_runs_work_stealing_without_perturbing_accounting() {
    // Thread interleaving may reorder publishes (the restart schedule is
    // allowed to differ from the reactor's), but the run must
    // complete, respect the shared budget, and only relocate into visited
    // territory.
    let network = clustered_network();
    let budget = 45u64;
    let k = 4usize;
    let client = SharedOsn::configured(SimulatedOsn::new_shared(network.clone()), 8, Some(budget));
    let graph = network.graph.clone();
    let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
    let report = WalkOrchestrator::new(k, 500, 3).run_threaded(
        &client,
        |i, b| Box::new(Cnrw::with_backend(NodeId((i % 10) as u32), b)) as _,
        |v| graph.degree(v) as f64,
        &policy,
    );
    assert!(report.trace.stats.unique <= budget);
    let seen = occupied(&report, k);
    for event in &report.restarts {
        assert!(
            seen.contains(&event.to.0),
            "target {:?} unvisited",
            event.to
        );
    }
}
