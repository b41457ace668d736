//! The reactor backend's determinism/equivalence pin (see
//! `osn_sampling::walks::reactor`).
//!
//! Three arms, each a property over arbitrary graphs, fleet sizes,
//! budgets, and endpoint shapes:
//!
//! * **Arm A — schedule independence.** Under [`Never`] with no budget,
//!   traces depend only on the walk randomness, not on how I/O is
//!   scheduled: for *any* batch shape, latency model, whole-request
//!   failure injection, and per-id drops (as long as nothing is
//!   abandoned), every walker's trace equals a lone [`WalkSession`] replay
//!   seeded with its derived stream, and the estimate and walker-side
//!   accounting follow from those replays bit-for-bit.
//! * **Arm B — lockstep waves.** With `max_batch_size >= K` every reactor
//!   event is one wave of the fleet in one request, so surplus batch
//!   capacity, a wider in-flight window, and latency change *nothing* —
//!   charges, interface accounting, refusals under a budget, event counts.
//! * **Arm C — restart schedules.** The lockstep invariance extends to
//!   [`WorkStealing`]: the full restart schedule (who, when, where to)
//!   does not move either.
//!
//! Plus seeded determinism (same seed → same run, different seed →
//! different run) and a 10k-walker case witnessing the O(active batches)
//! memory bound.

use proptest::prelude::*;

use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;
use osn_sampling::walks::OrchestratorReport;

/// A connected random graph with 5..60 nodes (same recipe as
/// `tests/property_based.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

/// An endpoint shape: batch size, in-flight window, latency, jitter,
/// per-id latency, whole-request failure cadence, per-id drop cadence.
#[derive(Clone, Debug)]
struct Shape {
    batch: usize,
    window: usize,
    latency: (f64, f64),
    per_id: f64,
    failure_every: u64,
    drop_every: u64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        1usize..12,
        1usize..5,
        (0u8..3, 0u8..3),
        0u8..2,
        // 0 or 1 disables the fault; >= 2 is a live cadence.
        0u64..9,
        0u64..9,
    )
        .prop_map(
            |(batch, window, (lat, jit), per_id, failure_every, drop_every)| Shape {
                batch,
                window,
                latency: (lat as f64 * 0.01, jit as f64 * 0.002),
                per_id: per_id as f64 * 0.001,
                failure_every: if failure_every < 2 { 0 } else { failure_every },
                drop_every: if drop_every < 2 { 0 } else { drop_every },
            },
        )
}

fn endpoint(g: &CsrGraph, shape: &Shape, budget: Option<u64>) -> SimulatedBatchOsn {
    let mut config = BatchConfig::new(shape.batch)
        .with_in_flight(shape.window)
        .with_latency(shape.latency.0, shape.latency.1)
        .with_per_id_latency(shape.per_id)
        .with_seed(5);
    if shape.failure_every > 0 {
        config = config.with_failure_every(shape.failure_every);
    }
    if shape.drop_every > 0 {
        config = config.with_drop_node_every(shape.drop_every);
    }
    SimulatedBatchOsn::configured(SimulatedOsn::from_graph(g.clone()), config, budget)
}

fn make_cnrw(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, backend| {
        Box::new(Cnrw::with_backend(NodeId(((i * 13) % n) as u32), backend))
            as Box<dyn RandomWalk + Send>
    }
}

/// Assert `report` is what its walkers produce alone: walker `i` replayed
/// through a [`WalkSession`] seeded with `orch.walker_seed(i)` must give
/// its trace and stop, the replays' estimators merged in walker order its
/// estimate, and the replays' queried nodes its walker-side accounting.
fn assert_matches_replays(g: &CsrGraph, orch: &WalkOrchestrator, report: &OrchestratorReport) {
    let n = g.node_count();
    let steps = orch.max_steps_per_walker();
    let mut merged = RatioEstimator::new();
    let mut queried = std::collections::HashSet::new();
    let mut issued = 0u64;
    for (i, trace) in report.trace.per_walker.iter().enumerate() {
        let mut walker = make_cnrw(n)(i, orch.backend());
        let start = walker.current();
        let replay = WalkSession::new(WalkConfig::steps(steps).with_seed(orch.walker_seed(i)))
            .run(walker.as_mut(), &mut SimulatedOsn::from_graph(g.clone()));
        assert_eq!(trace.as_slice(), replay.nodes(), "walker {i}");
        assert_eq!(report.stops[i], replay.stop, "walker {i}");
        let mut est = RatioEstimator::new();
        for &v in replay.nodes() {
            est.push(v.index() as f64, g.degree(v));
        }
        merged.merge(&est);
        // One neighbor query per step, from the node the step departs.
        issued += replay.len() as u64;
        if !replay.is_empty() {
            queried.insert(start);
            queried.extend(&replay.nodes()[..replay.len() - 1]);
        }
    }
    assert_eq!(
        report.estimate.mean().map(f64::to_bits),
        merged.mean().map(f64::to_bits)
    );
    assert_eq!(report.estimate.count(), merged.count());
    assert_eq!(report.trace.stats.issued, issued);
    assert_eq!(report.trace.stats.unique, queried.len() as u64);
}

/// Full-report equality: traces, stops, walker-side stats, interface-side
/// stats, estimate, refusal/abandonment accounting, restart schedule.
fn assert_reports_identical(a: &OrchestratorReport, b: &OrchestratorReport) {
    assert_eq!(a.trace.per_walker, b.trace.per_walker);
    assert_eq!(a.stops, b.stops);
    assert_eq!(a.trace.stats, b.trace.stats);
    assert_eq!(a.interface, b.interface);
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.refused_nodes, b.refused_nodes);
    assert_eq!(a.abandoned_nodes, b.abandoned_nodes);
    assert_eq!(
        a.estimate.mean().map(f64::to_bits),
        b.estimate.mean().map(f64::to_bits)
    );
    assert_eq!(a.estimate.count(), b.estimate.count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arm A: under `Never` with no budget, traces are schedule-independent
    /// — any batch shape, any latency, any recoverable fault pattern.
    #[test]
    fn arm_a_traces_survive_any_endpoint_shape(
        g in arb_graph(),
        shape in arb_shape(),
        k in 1usize..8,
        steps in 1usize..120,
        seed in 0u64..500,
    ) {
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let mut subject = endpoint(&g, &shape, None);
        let reactor =
            orch.run_reactor(&mut subject, make_cnrw(n), |v| v.index() as f64, &Never);

        // Abandonment (a node dropped past the attempt cap) is the one
        // fault that may legitimately alter a trajectory; skip such cases.
        if reactor.abandoned_nodes > 0 {
            return Ok(());
        }
        assert_matches_replays(&g, &orch, &reactor);
    }

    /// Arm B: with `max_batch_size >= K` every event is one wave in one
    /// request — surplus capacity, window, and latency change nothing in
    /// the report, budget included.
    #[test]
    fn arm_b_lockstep_ignores_surplus_capacity_with_budget(
        g in arb_graph(),
        k in 1usize..10,
        steps in 1usize..150,
        seed in 0u64..500,
        // < 5 means unlimited; otherwise a live shared budget.
        raw_budget in 0u64..200,
        latency in 0u8..3,
        surplus in 0usize..6,
        window in 1usize..5,
    ) {
        let budget = (raw_budget >= 5).then_some(raw_budget);
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let tight = Shape {
            batch: k,
            window: 1,
            latency: (0.0, 0.0),
            per_id: 0.0,
            failure_every: 0,
            drop_every: 0,
        };
        let roomy = Shape {
            batch: k + surplus,
            window,
            latency: (latency as f64 * 0.01, 0.002),
            ..tight.clone()
        };

        let mut reference = endpoint(&g, &tight, budget);
        let (expected, expected_stats) = orch.run_reactor_with_stats(
            &mut reference,
            make_cnrw(n),
            |v| v.index() as f64,
            &Never,
        );
        let mut subject = endpoint(&g, &roomy, budget);
        let (reactor, stats) = orch.run_reactor_with_stats(
            &mut subject,
            make_cnrw(n),
            |v| v.index() as f64,
            &Never,
        );

        assert_reports_identical(&expected, &reactor);
        prop_assert_eq!(expected_stats.events, stats.events);
        prop_assert_eq!(stats.peak_in_flight, 1, "one wave, one request");
        if budget.is_none() {
            assert_matches_replays(&g, &orch, &reactor);
        }
    }

    /// Arm C: the lockstep invariance extends to `WorkStealing` — the
    /// restart schedule does not move, restart for restart.
    #[test]
    fn arm_c_work_stealing_schedules_ignore_surplus_capacity(
        g in arb_graph(),
        k in 2usize..8,
        steps in 50usize..250,
        seed in 0u64..500,
        threshold in 0u8..3,
        surplus in 0usize..6,
    ) {
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let tight = Shape {
            batch: k,
            window: 1,
            latency: (0.0, 0.0),
            per_id: 0.0,
            failure_every: 0,
            drop_every: 0,
        };
        let roomy = Shape {
            batch: k + surplus,
            window: 4,
            latency: (0.01, 0.002),
            ..tight.clone()
        };
        let rhat = 1.02 + threshold as f64 * 0.04;

        let mut reference = endpoint(&g, &tight, None);
        let policy = WorkStealing::new(rhat, 16, SharedFrontier::with_stripes(8, 16));
        let expected =
            orch.run_reactor(&mut reference, make_cnrw(n), |v| v.index() as f64, &policy);
        let mut subject = endpoint(&g, &roomy, None);
        let policy2 = WorkStealing::new(rhat, 16, SharedFrontier::with_stripes(8, 16));
        let reactor =
            orch.run_reactor(&mut subject, make_cnrw(n), |v| v.index() as f64, &policy2);

        assert_reports_identical(&expected, &reactor);
    }

    /// Seeded determinism: the reactor is a pure function of (spec, seed,
    /// endpoint config) — and the seed actually matters.
    #[test]
    fn seeds_pin_and_distinguish_runs(
        g in arb_graph(),
        shape in arb_shape(),
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        let n = g.node_count();
        let run = |s: u64| {
            let orch = WalkOrchestrator::new(k, 80, s);
            let mut client = endpoint(&g, &shape, None);
            orch.run_reactor(&mut client, make_cnrw(n), |v| v.index() as f64, &Never)
        };
        let first = run(seed);
        let again = run(seed);
        prop_assert_eq!(&first.trace.per_walker, &again.trace.per_walker);
        prop_assert_eq!(first.interface, again.interface);
        prop_assert_eq!(
            first.estimate.mean().map(f64::to_bits),
            again.estimate.mean().map(f64::to_bits)
        );
        let other = run(seed ^ 0xdead_beef);
        prop_assert!(
            first.trace.per_walker != other.trace.per_walker,
            "different seeds produced identical traces"
        );
    }
}

/// 10k+ walkers through one reactor loop, each walker's trace equal to
/// its lone replay, with in-flight memory bounded by the endpoint's window
/// — not the fleet size.
#[test]
fn ten_thousand_walkers_match_their_replays() {
    let g = erdos_renyi(2000, 0.01, 77).unwrap();
    let n = g.node_count();
    let k = 10_000;
    let orch = WalkOrchestrator::new(k, 8, 1234);
    let shape = Shape {
        batch: k,
        window: 4,
        latency: (0.005, 0.001),
        per_id: 0.0,
        failure_every: 0,
        drop_every: 0,
    };

    let mut subject = endpoint(&g, &shape, None);
    let (reactor, stats) =
        orch.run_reactor_with_stats(&mut subject, make_cnrw(n), |v| v.index() as f64, &Never);

    assert_matches_replays(&g, &orch, &reactor);
    assert_eq!(stats.events, 8, "one event per lockstep wave");
    assert_eq!(reactor.trace.per_walker.len(), k);
    // The memory bound: in-flight batches track the endpoint window, and
    // at least once the whole 10k fleet was parked on pending I/O.
    assert!(
        stats.peak_in_flight <= shape.window,
        "peak in-flight {} exceeds the {}-batch window",
        stats.peak_in_flight,
        shape.window
    );
    assert!(stats.peak_parked > 0, "nothing ever parked");
}
