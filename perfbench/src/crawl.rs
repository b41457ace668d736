//! `crawl-web`: one long CNRW crawl over the compressed web-scale
//! stand-in, stopped by a unique-query budget.
//!
//! The graph (`web_like(Scale::Full)`: 2M nodes, ~20M edges, ~69 MB of
//! varint-coded adjacency) is far larger than the L2 and most L3 caches,
//! so every fresh neighbor list is an out-of-cache decode and the walker's
//! circulation state grows to hundreds of thousands of edges.

use std::sync::Arc;
use std::time::Instant;

use osn_client::{BudgetedClient, OsnClient, SimulatedOsn};
use osn_datasets::{web_like, Scale};
use osn_estimate::RatioEstimator;
use osn_graph::{CompactCsr, NodeId};
use osn_serde::Value;
use osn_walks::{Cnrw, RandomWalk};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::paper::replay_draws;
use crate::stats::failed_frac;
use crate::trace::{TracedClient, Tracer};
use crate::{record_reps, slice_metrics, Outcome, Plan, Setups, SliceMin, DATASET_SEED};

/// Unique neighbor queries one crawl may spend (≈2M steps).
const BUDGET: u64 = 1_150_000;
/// Steps per timed slice: ≈130 slices of ≈10 ms per crawl, long enough
/// that a slice's fastest repetition is not a lucky instant.
const SLICE_STEPS: u64 = 16_384;
/// Leading steps of the first crawl checked against the graph.
const CHECKED_STEPS: usize = 200_000;
/// Visits replayed through the decoder and the circulation engine.
const REPLAY_VISITS: usize = 200_000;
/// Seconds one crawl took on the reference host; sets the repetition
/// count.
const REP_SECONDS: f64 = 1.8;
/// Set-ups per run (≈3.5 s each: the compact graph build).
const SETUPS: usize = 3;

struct Crawl {
    steps: u64,
    refusals: u64,
    unique: u64,
    slice_secs: Vec<f64>,
    visits: Vec<NodeId>,
    estimate: Option<f64>,
    decode_cache: (u64, u64),
    tracked_edges: usize,
    arena_entries: usize,
}

/// The crawl of workload seed `seed`; every call replays the same walk.
fn crawl(graph: &Arc<CompactCsr>, seed: u64, keep: usize, tracer: Option<&Tracer>) -> Crawl {
    let n = graph.node_count();
    let stream = osn_walks::multiwalk::stream_seed(seed, 0);
    let start = NodeId((stream % n as u64) as u32);
    let mut rng = ChaCha12Rng::seed_from_u64(stream);
    let mut walker = Cnrw::new(start);
    let mut budgeted =
        BudgetedClient::new(SimulatedOsn::from_compact(Arc::clone(graph)), BUDGET, n);
    let mut est = RatioEstimator::new();
    let mut visits = Vec::with_capacity(keep);
    visits.push(start);
    let mut slice_secs = Vec::new();
    let (mut steps, mut refusals) = (0u64, 0u64);
    let mut slice_started = Instant::now();
    {
        let mut traced;
        let client: &mut dyn OsnClient = match tracer {
            Some(tracer) => {
                traced = TracedClient {
                    inner: &mut budgeted,
                    tracer,
                };
                &mut traced
            }
            None => &mut budgeted,
        };
        loop {
            let stepped = match tracer {
                Some(t) => t.span("walkers.step.cnrw", || walker.step(client, &mut rng)),
                None => walker.step(client, &mut rng),
            };
            let Ok(v) = stepped else {
                refusals += 1;
                break;
            };
            let k = client.peek_degree(v);
            match tracer {
                Some(t) => t.span("estimate.push", || est.push(k as f64, k)),
                None => est.push(k as f64, k),
            }
            if visits.len() < keep {
                visits.push(v);
            }
            steps += 1;
            if steps % SLICE_STEPS == 0 {
                let now = Instant::now();
                slice_secs.push((now - slice_started).as_secs_f64());
                slice_started = now;
            }
        }
    }
    slice_secs.push(slice_started.elapsed().as_secs_f64());
    Crawl {
        steps,
        refusals,
        unique: budgeted.used(),
        slice_secs,
        visits,
        estimate: est.average_degree(),
        decode_cache: budgeted.inner().decode_cache_stats().unwrap_or((0, 0)),
        tracked_edges: walker.tracked_edges(),
        arena_entries: walker.arena_capacity().unwrap_or(0),
    }
}

/// Mean ns of `CompactCsr::decode_into` over `visits`.
fn replay_decode(graph: &CompactCsr, visits: &[NodeId]) -> f64 {
    let mut buf = Vec::new();
    let started = Instant::now();
    let mut total = 0usize;
    for &v in visits {
        buf.clear();
        graph.decode_into(v, &mut buf);
        total += std::hint::black_box(&buf).len();
    }
    std::hint::black_box(total);
    started.elapsed().as_nanos() as f64 / visits.len().max(1) as f64
}

pub fn run(plan: &Plan, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let build = || Arc::new(web_like(Scale::Full, DATASET_SEED));
    let (mut setups, graph) = Setups::first(SETUPS, build);
    out.detail("graph_nodes", Value::Uint(graph.node_count() as u64));
    out.detail("graph_edges", Value::Uint(graph.edge_count()));
    out.detail("graph_bytes", Value::Uint(graph.byte_len() as u64));
    out.detail("budget", Value::Uint(BUDGET));
    let truth = graph.average_degree();

    let started = Instant::now();
    let mut best = SliceMin::default();
    let (mut steps, mut calls, mut refusals) = (0u64, 0u64, 0u64);
    let (mut rep, reps) = (0, plan.reps(REP_SECONDS));
    while plan.more(started, rep, reps, &mut out) {
        setups.before(rep, reps, build);
        let keep = if rep == 0 { CHECKED_STEPS + 1 } else { 0 };
        let c = crawl(&graph, plan.seed, keep, None);
        out.attempted += 1;
        let estimate_ok = c.estimate.is_some_and(f64::is_finite);
        out.failed += u64::from(!estimate_ok || c.refusals != 1);
        out.check(estimate_ok, || {
            format!("crawl {rep} ended without a finite estimate")
        });
        out.check(c.refusals == 1 && c.unique == BUDGET, || {
            format!(
                "crawl {rep} stopped after {} unique queries, not at its budget",
                c.unique
            )
        });
        if rep == 0 {
            let off_edge = c
                .visits
                .windows(2)
                .position(|w| !graph.has_edge(w[0], w[1]));
            out.check(off_edge.is_none(), || {
                format!(
                    "crawl 0 stepped off the graph at step {}",
                    off_edge.unwrap_or(0)
                )
            });
            out.detail("checked_steps", Value::Uint(c.visits.len() as u64 - 1));
            out.detail(
                "estimate_relative_error",
                Value::Num((c.estimate.unwrap_or(0.0) - truth).abs() / truth),
            );
        }
        out.check(rep == 0 || c.steps == steps, || {
            format!("crawl {rep} took {} steps, the first {steps}", c.steps)
        });
        best.add(&mut out, &c.slice_secs);
        steps = c.steps;
        // Each step is one answered neighbor query; each crawl ends on one
        // refused query.
        calls += c.steps + c.refusals;
        refusals += c.refusals;
        rep += 1;
    }
    setups.record(&mut out);
    out.metric("task_s", best.total());
    out.metric("steps_per_s", steps as f64 / best.total());
    record_reps(&mut out, best.totals(), steps);
    slice_metrics(&mut out, best.best().to_vec(), "16384-step slice");
    out.metric("failed_frac", failed_frac(refusals, calls));
    out.detail(
        "failed_frac_base",
        Value::obj([
            ("refused_queries", Value::Uint(refusals)),
            ("neighbor_queries", Value::Uint(calls)),
        ]),
    );

    let Some(tr) = tracer else {
        return out;
    };
    let c = crawl(&graph, plan.seed, REPLAY_VISITS, Some(tr));
    let secs: f64 = c.slice_secs.iter().sum();
    out.traced("task_s", secs);
    out.traced("steps_per_s", c.steps as f64 / secs);
    let step = tr.agg("walkers.step.cnrw");
    let client = tr.agg("client.neighbors");
    out.layer("walkers.step_self_ns.cnrw", step.mean_self_ns());
    out.layer(
        "walkers.steps_per_query.cnrw",
        c.steps as f64 / c.unique as f64,
    );
    out.layer("client.neighbors_ns", client.mean_ns());
    out.layer("client.calls", client.count as f64);
    out.layer("client.unique", c.unique as f64);
    out.layer(
        "client.cache_hit_rate",
        1.0 - c.unique as f64 / client.count.max(1) as f64,
    );
    out.layer("client.budget_refusals", c.refusals as f64);
    out.layer("estimate.push_ns", tr.agg("estimate.push").mean_ns());
    let (hits, misses) = c.decode_cache;
    out.layer(
        "graph.decode_cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.detail(
        "decode_cache_base",
        Value::obj([("hits", Value::Uint(hits)), ("misses", Value::Uint(misses))]),
    );
    out.layer("graph.compact_decode_ns", replay_decode(&graph, &c.visits));
    out.layer("circulation.tracked_edges", c.tracked_edges as f64);
    out.layer("circulation.arena_entries", c.arena_entries as f64);
    let decode = |v: NodeId| {
        let mut list = Vec::new();
        graph.decode_into(v, &mut list);
        list
    };
    out.layer("circulation.draw_ns", replay_draws(decode, &[c.visits]));
    out
}
