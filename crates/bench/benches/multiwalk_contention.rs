//! Microbenchmark: multi-walker throughput vs cache lock striping.
//!
//! The grid is 1/2/4/8 concurrent CNRW walkers × 1/8/64 cache stripes over
//! one seeded graph. One stripe reproduces the old single-global-mutex
//! `SharedOsn`; more stripes shrink the window in which two walkers
//! serialize on the same cache shard. The paper's cost model only counts
//! remote unique queries, but a production crawler also pays this *local*
//! contention — the bench makes it visible (steps/second, plus the
//! per-stripe contention counters printed at the end).
//!
//! Interpretation caveat: striping pays off where walkers actually run in
//! parallel. On a single-core host the OS serializes the walker threads, the
//! contention counters read ~0, and all stripe counts land within scheduler
//! noise of each other; with ≥2 cores the 1-stripe configuration serializes
//! every step on one mutex while 8/64 stripes let walkers proceed
//! independently.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_client::{SharedOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::NodeId;
use osn_walks::{Cnrw, Never, RandomWalk, WalkOrchestrator};

const STEPS_PER_WALKER: usize = 5_000;

fn multiwalk_contention(c: &mut Criterion) {
    let network = Arc::new(gplus_like(Scale::Test, 2).network);
    let n = network.graph.node_count();

    let mut group = c.benchmark_group("multiwalk_contention");
    for &walkers in &[1usize, 2, 4, 8] {
        for &stripes in &[1usize, 8, 64] {
            group.throughput(Throughput::Elements((walkers * STEPS_PER_WALKER) as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("walkers_{walkers}"), format!("stripes_{stripes}")),
                &(walkers, stripes),
                |b, &(walkers, stripes)| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        let client = SharedOsn::with_stripes(
                            SimulatedOsn::new_shared(network.clone()),
                            stripes,
                        );
                        let report = WalkOrchestrator::new(walkers, STEPS_PER_WALKER, seed)
                            .run_threaded(
                                &client,
                                |i, backend| {
                                    let start = NodeId(((i * 31) % n) as u32);
                                    Box::new(Cnrw::with_backend(start, backend))
                                        as Box<dyn RandomWalk + Send>
                                },
                                |v| v.index() as f64,
                                &Never,
                            );
                        report.trace.total_steps()
                    });
                },
            );
        }
    }
    group.finish();

    // One instrumented run per config: how much lock contention did the
    // counters actually observe?
    eprintln!("\nobserved stripe contention (8 walkers, {STEPS_PER_WALKER} steps each):");
    for &stripes in &[1usize, 8, 64] {
        let client = SharedOsn::with_stripes(SimulatedOsn::new_shared(network.clone()), stripes);
        WalkOrchestrator::new(8, STEPS_PER_WALKER, 7).run_threaded(
            &client,
            |i, backend| {
                let start = NodeId(((i * 31) % n) as u32);
                Box::new(Cnrw::with_backend(start, backend)) as Box<dyn RandomWalk + Send>
            },
            |v| v.index() as f64,
            &Never,
        );
        let stats = client.global_stats();
        eprintln!(
            "  {stripes:>3} stripes: {:>8} contended acquisitions, hit rate {:.3}",
            client.total_contention(),
            stats.cache_hit_rate()
        );
    }
}

criterion_group!(benches, multiwalk_contention);
criterion_main!(benches);
