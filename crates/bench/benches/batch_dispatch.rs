//! Microbenchmark: the reactor's coalesced batches vs the threaded
//! shared-cache driver, across batch sizes.
//!
//! The grid runs 8 CNRW walkers at fixed steps through (a)
//! `WalkOrchestrator::run_threaded` over a lock-striped `SharedOsn` — one
//! interface call per step — and (b) `WalkOrchestrator::run_reactor` over
//! a `SimulatedBatchOsn` with batch sizes 1/8/32. Batching cannot change
//! *charged* cost (unique nodes are unique nodes); what it buys is a
//! compressed request stream — the thing per-call rate limits meter — at
//! the price of the reactor's queue/dedup bookkeeping, which is exactly
//! what this bench measures.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_client::{BatchConfig, SharedOsn, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::NodeId;
use osn_walks::{Cnrw, Never, RandomWalk, WalkOrchestrator};

const WALKERS: usize = 8;
const STEPS_PER_WALKER: usize = 2_000;

fn batch_dispatch(c: &mut Criterion) {
    let network = Arc::new(gplus_like(Scale::Test, 2).network);
    let n = network.graph.node_count();
    let make_walker = |i: usize, backend| {
        let start = NodeId(((i * 31) % n) as u32);
        Box::new(Cnrw::with_backend(start, backend)) as Box<dyn RandomWalk + Send>
    };

    let mut group = c.benchmark_group("batch_dispatch");
    group.throughput(Throughput::Elements((WALKERS * STEPS_PER_WALKER) as u64));

    group.bench_function(BenchmarkId::from_parameter("threaded_shared"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let client = SharedOsn::with_stripes(SimulatedOsn::new_shared(network.clone()), 16);
            WalkOrchestrator::new(WALKERS, STEPS_PER_WALKER, seed)
                .run_threaded(&client, make_walker, |v| v.index() as f64, &Never)
                .trace
                .total_steps()
        });
    });

    for &batch_size in &[1usize, 8, 32] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("coalesced_b{batch_size}")),
            |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut client = SimulatedBatchOsn::new(
                        SimulatedOsn::new_shared(network.clone()),
                        BatchConfig::new(batch_size).with_in_flight(4),
                    );
                    WalkOrchestrator::new(WALKERS, STEPS_PER_WALKER, seed)
                        .run_reactor(&mut client, make_walker, |v| v.index() as f64, &Never)
                        .trace
                        .total_steps()
                });
            },
        );
    }
    group.finish();

    // One instrumented run: how much did coalescing compress the request
    // stream relative to per-step calls?
    let mut client = SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(32).with_in_flight(4),
    );
    let report = WalkOrchestrator::new(WALKERS, STEPS_PER_WALKER, 7).run_reactor(
        &mut client,
        make_walker,
        |v| v.index() as f64,
        &Never,
    );
    let charged = report.interface.expect("reactor reports interface stats");
    let stats = client.batch_stats();
    eprintln!(
        "\ncoalescing at B=32, {WALKERS} walkers x {STEPS_PER_WALKER} steps: \
         {} charged nodes in {} batch requests ({} walker-side queries would have \
         gone to the interface uncoalesced)",
        charged.unique, stats.submitted, report.trace.stats.issued
    );
}

criterion_group!(benches, batch_dispatch);
criterion_main!(benches);
