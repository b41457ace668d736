//! `fleet-evolving`: a 10k-walker CNRW fleet on the reactor backend over a
//! faulty batch endpoint while the graph changes under it.
//!
//! Walkers run as state machines on one event loop
//! (`WalkOrchestrator::start_reactor` / `ReactorWalkRun::run_events`)
//! against a `SimulatedBatchOsn` with a bounded in-flight window, latency,
//! jitter, whole-request failures and per-id drops. Between event slices a
//! seeded mutation schedule lands on the endpoint's delta overlay
//! (`apply_mutations`) and the touched nodes' circulation state is dropped
//! across the fleet (`invalidate_nodes`).

use std::sync::Arc;
use std::time::Instant;

use osn_client::batch::{BatchOsnClient, BatchOutcome, SubmitError, TicketId};
use osn_client::{BatchConfig, BatchStats, QueryStats, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::attributes::AttributedGraph;
use osn_graph::{DeltaOverlay, EdgeMutation, MutationOp, MutationSchedule, NodeId, ScheduleSpec};
use osn_serde::Value;
use osn_walks::{Cnrw, HistoryBackend, RandomWalk, ReactorStats, WalkOrchestrator};

use crate::stats::failed_frac;
use crate::trace::{TracedBatch, Tracer};
use crate::{record_reps, slice_metrics, Outcome, Plan, Setups, SliceMin, DATASET_SEED};

const WALKERS: usize = 10_000;
const STEPS: usize = 200;
const BATCH: usize = 256;
/// In-flight request window of the endpoint.
const WINDOW: usize = 4;
/// Scheduled edge mutations, spread over [`EPOCHS`] slice boundaries.
const MUTATIONS: usize = 32;
const EPOCHS: usize = 8;
/// Seconds one fleet run took on the reference host; sets the repetition
/// count.
const REP_SECONDS: f64 = 2.0;
/// Set-ups per run (≈0.1 s each).
const SETUPS: usize = 15;

struct Setup {
    network: Arc<AttributedGraph>,
    mutations: Vec<EdgeMutation>,
}

/// The schedule's events, minus deletes that would leave an endpoint with
/// degree below 2 (a walker must always have somewhere to go).
fn setup(seed: u64) -> Setup {
    let network = Arc::new(gplus_like(Scale::Full, DATASET_SEED).network);
    let g = &network.graph;
    let spec = ScheduleSpec::new(MUTATIONS, EPOCHS as f64, seed ^ 0x0E7A).with_delete_fraction(0.4);
    let mut overlay = DeltaOverlay::new();
    let mut mutations = Vec::new();
    for &m in MutationSchedule::generate(g, &spec).events() {
        if m.op == MutationOp::Delete
            && (overlay.degree(g, m.u) <= 1 || overlay.degree(g, m.v) <= 1)
        {
            continue;
        }
        if overlay.apply(g, m) {
            mutations.push(m);
        }
    }
    Setup { network, mutations }
}

fn endpoint(network: &Arc<AttributedGraph>, seed: u64) -> SimulatedBatchOsn {
    let config = BatchConfig::new(BATCH)
        .with_in_flight(WINDOW)
        .with_latency(0.005, 0.002)
        .with_per_id_latency(0.0001)
        .with_failure_every(23)
        .with_drop_node_every(37)
        .with_seed(seed ^ 0x5EED);
    SimulatedBatchOsn::new(SimulatedOsn::new_shared(Arc::clone(network)), config)
}

/// Completion events per timed slice. Single events are bimodal (a full
/// batch of ids unblocks hundreds of walkers, a retry almost none), so
/// their median jumps between modes from run to run.
const SLICE_EVENTS: usize = 4;

/// Consecutive wall-clock laps that together cover a whole fleet run.
struct Laps {
    last: Instant,
    laps: Vec<f64>,
}

impl Laps {
    fn start() -> Self {
        Laps {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Closes a lap every [`SLICE_EVENTS`] completion events (polls) of the
/// endpoint it wraps: the wall-clock of that many scheduler-loop turns.
struct EventClock<'a, B> {
    inner: &'a mut B,
    laps: &'a mut Laps,
    polls: usize,
}

impl<B: BatchOsnClient> BatchOsnClient for EventClock<'_, B> {
    fn limits(&self) -> osn_client::BatchLimits {
        self.inner.limits()
    }
    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
    fn submit(&mut self, ids: &[NodeId]) -> Result<TicketId, SubmitError> {
        self.inner.submit(ids)
    }
    fn poll(&mut self) -> Option<BatchOutcome> {
        let out = self.inner.poll();
        self.polls += 1;
        if self.polls.is_multiple_of(SLICE_EVENTS) {
            self.laps.lap();
        }
        out
    }
    fn next_ready_at(&self) -> Option<f64> {
        self.inner.next_ready_at()
    }
    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }
    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }
    fn peek_degree(&self, u: NodeId) -> usize {
        self.inner.peek_degree(u)
    }
    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }
    fn is_cached(&self, u: NodeId) -> bool {
        self.inner.is_cached(u)
    }
}

struct Fleet {
    steps: usize,
    unfinished: usize,
    /// Laps covering the run: event slices, and the mutation step
    /// between two `run_events` calls.
    laps: Vec<f64>,
    reactor: ReactorStats,
    batch: BatchStats,
    walker_stats: QueryStats,
    abandoned: usize,
    invalidated: usize,
    patched: usize,
    sample: Vec<Vec<NodeId>>,
}

fn fleet(s: &Setup, seed: u64, tracer: Option<&Tracer>) -> Fleet {
    let n = s.network.graph.node_count();
    let orch = WalkOrchestrator::new(WALKERS, STEPS, seed);
    let make = move |i: usize, backend: HistoryBackend| {
        let start = osn_walks::multiwalk::stream_seed(seed, i as u64) % n as u64;
        Box::new(Cnrw::with_backend(NodeId(start as u32), backend)) as Box<dyn RandomWalk + Send>
    };
    let mut endpoint = endpoint(&s.network, seed);
    let mut schedule = MutationSchedule::from_events(s.mutations.clone());
    let value = |v: NodeId| v.index() as f64;
    // Slices of about a ninth of the fleet's events each, so every epoch's
    // mutations land while the walkers are mid-walk.
    let slice_events = (WALKERS * STEPS / BATCH / (EPOCHS + 1)).max(1);
    let mut invalidated = 0;
    let mut laps = Laps::start();
    let mut run = orch.start_reactor(make);
    for epoch in 1..=EPOCHS + 1 {
        let events = if epoch > EPOCHS {
            usize::MAX
        } else {
            slice_events
        };
        let mut clock = EventClock {
            inner: &mut endpoint,
            laps: &mut laps,
            polls: 0,
        };
        match tracer {
            Some(t) => {
                let mut traced = TracedBatch {
                    inner: &mut clock,
                    tracer: t,
                };
                t.span("reactor.run_events", || {
                    run.run_events(&mut traced, &value, events)
                });
            }
            None => {
                run.run_events(&mut clock, &value, events);
            }
        }
        laps.lap();
        if epoch > EPOCHS {
            break;
        }
        let due = schedule.due(epoch as f64).to_vec();
        let touched = match tracer {
            Some(t) => t.span("graph.overlay_apply", || endpoint.apply_mutations(&due)),
            None => endpoint.apply_mutations(&due),
        };
        if let Some(t) = tracer {
            t.count("graph.overlay_mutations", due.len() as u64);
        }
        invalidated += match tracer {
            Some(t) => t.span("reactor.invalidate", || run.invalidate_nodes(&touched)),
            None => run.invalidate_nodes(&touched),
        };
        laps.lap();
    }
    let unfinished = (0..WALKERS)
        .filter(|&i| run.trace(i).len() != STEPS)
        .count();
    let sample = (0..16).map(|i| run.trace(i).to_vec()).collect();
    let reactor = run.reactor_stats();
    let walker_stats = run.walker_stats();
    let steps = run.steps_taken();
    let report = run.into_report(&endpoint);
    Fleet {
        steps,
        unfinished,
        laps: laps.laps,
        reactor,
        batch: endpoint.batch_stats(),
        walker_stats,
        abandoned: report.abandoned_nodes,
        invalidated,
        patched: endpoint.inner().overlay().patched_nodes(),
        sample,
    }
}

pub fn run(plan: &Plan, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, s) = Setups::first(SETUPS, || setup(plan.seed));
    out.detail("mutations", Value::Uint(s.mutations.len() as u64));

    let started = Instant::now();
    let (mut best, mut steps) = (SliceMin::default(), 0);
    let (mut failed_ops, mut ops) = (0u64, 0u64);
    let (mut rep, reps) = (0, plan.reps(REP_SECONDS));
    while plan.more(started, rep, reps, &mut out) {
        setups.before(rep, reps, || setup(plan.seed));
        let f = fleet(&s, plan.seed, None);
        out.attempted += WALKERS as u64;
        out.failed += f.unfinished as u64;
        out.check(f.unfinished == 0, || {
            format!("{} walkers did not settle with {STEPS} steps", f.unfinished)
        });
        out.check(f.reactor.peak_in_flight <= WINDOW, || {
            format!(
                "peak in-flight {} exceeds the window {WINDOW}",
                f.reactor.peak_in_flight
            )
        });
        out.check(f.invalidated > 0, || {
            "no circulation state was invalidated".into()
        });
        best.add(&mut out, &f.laps);
        steps = f.steps;
        failed_ops += f.batch.node_drops + f.batch.dropped + f.abandoned as u64;
        ops += f.batch.submitted_ids;
        rep += 1;
    }
    setups.record(&mut out);
    out.metric("task_s", best.total());
    out.metric("steps_per_s", steps as f64 / best.total());
    record_reps(&mut out, best.totals(), steps as u64);
    slice_metrics(
        &mut out,
        best.best().to_vec(),
        "lap of 4 completion events or one mutation step",
    );
    out.metric("failed_frac", failed_frac(failed_ops, ops));
    out.detail(
        "failed_frac_base",
        Value::obj([
            (
                "dropped_ids_requests_and_abandoned_nodes",
                Value::Uint(failed_ops),
            ),
            ("ids_submitted", Value::Uint(ops)),
        ]),
    );

    let Some(tr) = tracer else {
        return out;
    };
    let f = fleet(&s, plan.seed, Some(tr));
    let secs: f64 = f.laps.iter().sum();
    out.traced("task_s", secs);
    out.traced("steps_per_s", f.steps as f64 / secs);
    let submit = tr.agg("batch.submit");
    let poll = tr.agg("batch.poll");
    let b = f.batch;
    out.layer("batch.submit_ns", submit.mean_ns());
    out.layer("batch.poll_ns", poll.mean_ns());
    out.layer("batch.requests", b.submitted as f64);
    out.layer(
        "batch.ids_per_request",
        b.submitted_ids as f64 / b.submitted.max(1) as f64,
    );
    out.layer(
        "batch.retries_per_request",
        b.retries as f64 / b.submitted.max(1) as f64,
    );
    out.layer("batch.dropped", (b.dropped + b.node_drops) as f64);
    let events = f.reactor.events.max(1) as f64;
    out.layer(
        "reactor.self_ns_per_event",
        tr.agg("reactor.run_events").self_ns as f64 / events,
    );
    out.layer("reactor.events", f.reactor.events as f64);
    out.layer("reactor.synthetic_ticks", f.reactor.synthetic_ticks as f64);
    out.layer("reactor.peak_in_flight", f.reactor.peak_in_flight as f64);
    let invalidate = tr.agg("reactor.invalidate");
    out.layer("reactor.invalidate_ns", invalidate.mean_ns());
    out.layer("reactor.invalidated_states", f.invalidated as f64);
    let apply = tr.agg("graph.overlay_apply");
    let applied = tr.counter("graph.overlay_mutations").max(1);
    out.layer(
        "graph.overlay_apply_ns",
        apply.total_ns as f64 / applied as f64,
    );
    out.layer("graph.overlay_patched_nodes", f.patched as f64);
    let w = f.walker_stats;
    out.layer("client.calls", w.issued as f64);
    out.layer("client.unique", w.unique as f64);
    out.layer("client.cache_hit_rate", w.cache_hit_rate());
    let g = &s.network.graph;
    let started = Instant::now();
    let mut calls = 0u64;
    for _ in 0..32 {
        for trace in &f.sample {
            for &v in trace {
                std::hint::black_box(g.neighbors(v));
                calls += 1;
            }
        }
    }
    out.layer(
        "graph.csr_neighbors_ns",
        started.elapsed().as_nanos() as f64 / calls.max(1) as f64,
    );
    out
}
