//! `paper-gplus`: the paper's Figure 6 metric on the Google Plus stand-in.
//!
//! For each of SRW, CNRW and GNRW-ByDegree (plan-backed, alias mode) a
//! serial ensemble of [`TRIALS`] independent walks, each under a
//! unique-query budget, estimates the average degree with the ratio
//! estimator. An untimed pass at [`BUDGET`] queries per trial finds the
//! fewest queries per trial at which the ensemble's NRMSE is at most
//! [`TARGET`]; timed passes then spend exactly that many queries per
//! trial, which is the wall-clock the paper's gain is worth.

use std::sync::Arc;
use std::time::Instant;

use osn_client::{BudgetedClient, OsnClient, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_estimate::RatioEstimator;
use osn_graph::attributes::AttributedGraph;
use osn_graph::NodeId;
use osn_serde::Value;
use osn_walks::circulation::CirculationEngine;
use osn_walks::{ByDegree, Cnrw, Gnrw, GroupPlan, PlanMode, RandomWalk, Srw};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::stats::{failed_frac, first_crossing, nrmse_curve};
use crate::trace::{TracedClient, Tracer};
use crate::{record_reps, slice_metrics, Outcome, Plan, Setups, SliceMin, DATASET_SEED};

/// Independent trials per walker ensemble.
const TRIALS: usize = 2000;
/// Unique queries per trial in the untimed pass: headroom above the
/// crossings, which sit near 2200–2600.
const BUDGET: usize = 4000;
/// Ensemble NRMSE of the average-degree estimate to reach.
const TARGET: f64 = 0.05;
/// The early budget the full-budget NRMSE must improve on.
const EARLY: usize = 100;
/// Step cap per trial, per query of budget (a walk bouncing among cached
/// nodes ends here instead of at the budget).
const MAX_STEPS_PER_QUERY: usize = 50;
/// Trials whose visits are kept for the substrate and circulation replays.
const REPLAY_TRIALS: usize = 32;
/// Seconds one timed repetition (three ensembles at their crossings) took
/// on the reference host; sets the repetition count.
const REP_SECONDS: f64 = 5.0;
/// Set-ups per run (≈0.2 s each).
const SETUPS: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Srw,
    Cnrw,
    Gnrw,
}

const KINDS: [Kind; 3] = [Kind::Srw, Kind::Cnrw, Kind::Gnrw];

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Srw => "srw",
            Kind::Cnrw => "cnrw",
            Kind::Gnrw => "gnrw",
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }

    /// Span name of this walker's `RandomWalk::step`.
    fn step_span(self) -> &'static str {
        ["walkers.step.srw", "walkers.step.cnrw", "walkers.step.gnrw"][self as usize]
    }

    /// `(step self time, steps per query, queries to error, time to
    /// error)` metric names of this walker.
    fn metrics(self) -> [&'static str; 4] {
        [
            [
                "walkers.step_self_ns.srw",
                "walkers.steps_per_query.srw",
                "paper.queries_to_err.srw",
                "paper.time_to_err_s.srw",
            ],
            [
                "walkers.step_self_ns.cnrw",
                "walkers.steps_per_query.cnrw",
                "paper.queries_to_err.cnrw",
                "paper.time_to_err_s.cnrw",
            ],
            [
                "walkers.step_self_ns.gnrw",
                "walkers.steps_per_query.gnrw",
                "paper.queries_to_err.gnrw",
                "paper.time_to_err_s.gnrw",
            ],
        ][self as usize]
    }
}

/// A walker kept concrete so its circulation state can be read. One lives
/// per trial, so boxing the larger variants would only add allocations.
#[allow(clippy::large_enum_variant)]
enum Walker {
    Srw(Srw),
    Cnrw(Cnrw),
    Gnrw(Gnrw),
}

impl Walker {
    fn new(kind: Kind, start: NodeId, plan: &Arc<GroupPlan>) -> Self {
        match kind {
            Kind::Srw => Walker::Srw(Srw::new(start)),
            Kind::Cnrw => Walker::Cnrw(Cnrw::new(start)),
            Kind::Gnrw => Walker::Gnrw(Gnrw::with_plan(start, Arc::clone(plan), PlanMode::Alias)),
        }
    }

    fn walk(&mut self) -> &mut dyn RandomWalk {
        match self {
            Walker::Srw(w) => w,
            Walker::Cnrw(w) => w,
            Walker::Gnrw(w) => w,
        }
    }

    /// `(tracked edges, arena capacity)` of the circulation state.
    fn circulation(&self) -> (usize, usize) {
        match self {
            Walker::Srw(_) => (0, 0),
            Walker::Cnrw(w) => (w.tracked_edges(), w.arena_capacity().unwrap_or(0)),
            Walker::Gnrw(w) => (w.tracked_edges(), w.arena_capacity().unwrap_or(0)),
        }
    }
}

struct Setup {
    network: Arc<AttributedGraph>,
    plan: Arc<GroupPlan>,
    plan_build_s: f64,
}

fn setup() -> Setup {
    let network = Arc::new(gplus_like(Scale::Full, DATASET_SEED).network);
    let started = Instant::now();
    let plan = GroupPlan::build(&network, &ByDegree::new());
    plan.warm_alias_tables();
    Setup {
        network,
        plan: Arc::new(plan),
        plan_build_s: started.elapsed().as_secs_f64(),
    }
}

/// Start node and RNG of trial `t` of `kind`: walkers share start nodes
/// (common random numbers) and draw from their own streams.
fn trial_start(seed: u64, kind: Kind, t: usize, n: usize) -> (NodeId, ChaCha12Rng) {
    let start = osn_walks::multiwalk::stream_seed(seed, t as u64) % n as u64;
    let rng = ChaCha12Rng::seed_from_u64(osn_walks::multiwalk::stream_seed(
        seed ^ (kind.tag() << 56),
        t as u64,
    ));
    (NodeId(start as u32), rng)
}

/// One walker's ensemble at `budget` unique queries per trial, filled one
/// trial at a time.
#[derive(Default)]
struct Pass {
    budget: usize,
    /// Squared error of the estimate at each budget `q` (the crossing pass
    /// only; empty otherwise).
    sse: Vec<f64>,
    /// Trials that ended without a finite estimate.
    non_finite: u64,
    /// Wall-clock of each trial, in trial order.
    trial_secs: Vec<f64>,
    steps: u64,
    refusals: u64,
    unique: u64,
    tracked_edges: u64,
    arena_entries: u64,
    /// Visits of the first trials, each trial's start first (traced only).
    visits: Vec<Vec<NodeId>>,
}

impl Pass {
    fn new(budget: usize, curve: bool) -> Self {
        let mut sse = Vec::new();
        if curve {
            sse = vec![0.0; budget + 1];
            sse[0] = f64::NAN;
        }
        Pass {
            budget,
            sse,
            ..Pass::default()
        }
    }

    /// Run trial `t` of `kind` and fold it into the pass.
    fn trial(&mut self, s: &Setup, kind: Kind, seed: u64, t: usize, tracer: Option<&Tracer>) {
        let started = Instant::now();
        let graph = &s.network.graph;
        let truth = graph.average_degree();
        let n = graph.node_count();
        let budget = self.budget;
        let curve = !self.sse.is_empty();
        let (start, mut rng) = trial_start(seed, kind, t, n);
        let mut walker = Walker::new(kind, start, &s.plan);
        let mut budgeted = BudgetedClient::new(
            SimulatedOsn::new_shared(Arc::clone(&s.network)),
            budget as u64,
            n,
        );
        let mut traced;
        let client: &mut dyn OsnClient = match tracer {
            Some(tracer) => {
                tracer.set_request(kind.tag() << 32 | t as u64);
                traced = TracedClient {
                    inner: &mut budgeted,
                    tracer,
                };
                &mut traced
            }
            None => &mut budgeted,
        };
        let mut visits = (tracer.is_some() && t < REPLAY_TRIALS).then(|| vec![start]);
        let mut est = RatioEstimator::new();
        let mut steps = 0;
        loop {
            let before = budget - client.remaining_budget().unwrap_or(0) as usize;
            let stepped = match tracer {
                Some(tr) => tr.span(kind.step_span(), || walker.walk().step(client, &mut rng)),
                None => walker.walk().step(client, &mut rng),
            };
            let Ok(v) = stepped else {
                self.refusals += 1;
                break;
            };
            if curve {
                // The estimate before a step that spends a new query is the
                // estimate a budget of `before` queries ends with.
                let used = budget - client.remaining_budget().unwrap_or(0) as usize;
                if used > before && before > 0 {
                    let e = est.average_degree().unwrap_or(f64::NAN);
                    self.sse[before] += (e - truth) * (e - truth);
                }
            }
            let k = graph.degree(v);
            match tracer {
                Some(tr) => tr.span("estimate.push", || est.push(k as f64, k)),
                None => est.push(k as f64, k),
            }
            if let Some(vs) = visits.as_mut() {
                vs.push(v);
            }
            steps += 1;
            if steps >= budget * MAX_STEPS_PER_QUERY {
                break;
            }
        }
        let used = budget - client.remaining_budget().unwrap_or(0) as usize;
        let e = est.average_degree().unwrap_or(f64::NAN);
        if curve {
            for q in used.max(1)..=budget {
                self.sse[q] += (e - truth) * (e - truth);
            }
        }
        let (tracked, arena) = walker.circulation();
        self.tracked_edges += tracked as u64;
        self.arena_entries += arena as u64;
        self.unique += used as u64;
        self.steps += steps as u64;
        self.non_finite += u64::from(!e.is_finite());
        self.visits.extend(visits);
        self.trial_secs.push(started.elapsed().as_secs_f64());
    }

    /// Wall-clock summed over this walker's trials.
    fn secs(&self) -> f64 {
        self.trial_secs.iter().sum()
    }
}

/// Trial `t` of every walker, back to back: one slice.
fn round(passes: &mut [Pass; 3], s: &Setup, seed: u64, t: usize, tracer: Option<&Tracer>) {
    for (p, &kind) in passes.iter_mut().zip(&KINDS) {
        p.trial(s, kind, seed, t, tracer);
    }
}

/// Mean ns of `CsrGraph::neighbors` over the kept visits.
fn replay_csr(s: &Setup, visits: &[Vec<NodeId>]) -> f64 {
    let graph = &s.network.graph;
    let started = Instant::now();
    let mut calls = 0u64;
    let mut total = 0usize;
    for _ in 0..8 {
        for trial in visits {
            for &v in trial {
                total += std::hint::black_box(graph.neighbors(v)).len();
                calls += 1;
            }
        }
    }
    std::hint::black_box(total);
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Mean ns of `CirculationEngine::draw` replaying CNRW's draws: at each
/// visit `v` entered from `u`, one draw from `N(v)` keyed by `(u, v)`.
pub fn replay_draws(neighbors: impl Fn(NodeId) -> Vec<NodeId>, visits: &[Vec<NodeId>]) -> f64 {
    let mut rng = ChaCha12Rng::seed_from_u64(0x0D8A_u64);
    let lists: Vec<Vec<(u64, Vec<NodeId>)>> = visits
        .iter()
        .map(|trial| {
            trial
                .windows(2)
                .map(|w| {
                    (
                        (u64::from(w[0].0) << 32) | u64::from(w[1].0),
                        neighbors(w[1]),
                    )
                })
                .filter(|(_, list)| !list.is_empty())
                .collect()
        })
        .collect();
    let mut draws = 0u64;
    let started = Instant::now();
    for trial in &lists {
        let mut engine = CirculationEngine::new();
        for (key, population) in trial {
            std::hint::black_box(engine.draw(*key, population, &mut rng));
            draws += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / draws.max(1) as f64
}

pub fn run(plan: &Plan, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, s) = Setups::first(SETUPS, setup);
    let truth = s.network.graph.average_degree();
    out.detail(
        "graph_nodes",
        Value::Uint(s.network.graph.node_count() as u64),
    );
    out.detail(
        "graph_edges",
        Value::Uint(s.network.graph.edge_count() as u64),
    );
    out.detail("truth_average_degree", Value::Num(truth));
    out.detail("trials", Value::Uint(TRIALS as u64));

    // Untimed: the fewest queries per trial reaching the target error.
    let mut crossings = [0usize; 3];
    let mut bases = Vec::new();
    for (i, &kind) in KINDS.iter().enumerate() {
        let mut p = Pass::new(BUDGET, true);
        for t in 0..TRIALS {
            p.trial(&s, kind, plan.seed, t, None);
        }
        out.attempted += TRIALS as u64;
        out.failed += p.non_finite;
        out.check(p.non_finite == 0, || {
            format!(
                "{} {} trials ended without a finite estimate",
                p.non_finite,
                kind.label()
            )
        });
        let curve = nrmse_curve(&p.sse, TRIALS, truth);
        out.check(curve[BUDGET] < curve[EARLY], || {
            format!(
                "{}: NRMSE at {BUDGET} queries ({:.4}) is not below NRMSE at {EARLY} ({:.4})",
                kind.label(),
                curve[BUDGET],
                curve[EARLY]
            )
        });
        match first_crossing(&curve, TARGET) {
            Some(q) => crossings[i] = q,
            None => out.check(false, || {
                format!(
                    "{} never reached NRMSE {TARGET} within {BUDGET} queries",
                    kind.label()
                )
            }),
        }
        bases.push((
            kind.label().to_string(),
            Value::obj([
                ("nrmse_at_early", Value::Num(curve[EARLY])),
                ("nrmse_at_budget", Value::Num(curve[BUDGET])),
                ("queries_to_err", Value::Uint(crossings[i] as u64)),
            ]),
        ));
    }
    out.detail("crossing_pass", Value::Obj(bases));
    if crossings.contains(&0) {
        setups.record(&mut out);
        return out;
    }

    // Timed: each ensemble spends exactly its crossing budget per trial.
    // Trials run in rounds (trial t of each walker), one round per slice;
    // a walker's time to error is the sum of its trials' times, each the
    // fastest over the repetitions (see `SliceMin`).
    let started = Instant::now();
    let (mut rep, reps) = (0, plan.reps(REP_SECONDS));
    let mut best: [SliceMin; 3] = Default::default();
    let (mut calls, mut refusals, mut steps) = (0u64, 0u64, 0u64);
    while plan.more(started, rep, reps, &mut out) {
        setups.before(rep, reps, setup);
        let mut passes = crossings.map(|q| Pass::new(q, false));
        for t in 0..TRIALS {
            round(&mut passes, &s, plan.seed, t, None);
        }
        for (i, p) in passes.iter().enumerate() {
            out.attempted += TRIALS as u64;
            out.failed += p.non_finite;
            best[i].add(&mut out, &p.trial_secs);
            // Every step is one answered neighbor query; every trial ends
            // on one refused query.
            calls += p.steps + p.refusals;
            refusals += p.refusals;
        }
        let rep_steps: u64 = passes.iter().map(|p| p.steps).sum();
        out.check(rep == 0 || rep_steps == steps, || {
            format!("repetition {rep} took {rep_steps} steps, the first {steps}")
        });
        steps = rep_steps;
        rep += 1;
    }
    setups.record(&mut out);
    let time_to_err: Vec<f64> = best.iter().map(SliceMin::total).collect();
    let task_s: f64 = time_to_err.iter().sum();
    out.metric("task_s", task_s);
    out.metric("steps_per_s", steps as f64 / task_s);
    let reps_of = |b: &SliceMin| Value::Arr(b.totals().iter().map(|&s| Value::Num(s)).collect());
    out.detail(
        "time_to_err_s_reps",
        Value::obj([
            ("srw", reps_of(&best[0])),
            ("cnrw", reps_of(&best[1])),
            ("gnrw", reps_of(&best[2])),
        ]),
    );
    let rep_totals: Vec<f64> = (0..rep)
        .map(|r| best.iter().map(|b| b.totals()[r]).sum())
        .collect();
    record_reps(&mut out, &rep_totals, steps);
    let rounds: Vec<f64> = (0..TRIALS)
        .map(|t| best.iter().map(|b| b.best()[t]).sum())
        .collect();
    slice_metrics(&mut out, rounds, "round of one trial per walker");
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
    for (i, &kind) in KINDS.iter().enumerate() {
        let [_, _, queries, time] = kind.metrics();
        out.layer(queries, crossings[i] as f64);
        out.layer(time, time_to_err[i]);
    }
    traced_pass(&mut out, &s, plan.seed, &crossings, tr);
    out
}

fn traced_pass(out: &mut Outcome, s: &Setup, seed: u64, crossings: &[usize; 3], tr: &Tracer) {
    let mut passes = crossings.map(|q| Pass::new(q, false));
    for t in 0..TRIALS {
        round(&mut passes, s, seed, t, Some(tr));
    }
    let secs: f64 = passes.iter().map(Pass::secs).sum();
    let steps: u64 = passes.iter().map(|p| p.steps).sum();
    out.traced("task_s", secs);
    out.traced("steps_per_s", steps as f64 / secs);
    for (p, &kind) in passes.iter().zip(&KINDS) {
        let [self_ns, steps_per_query, _, _] = kind.metrics();
        out.layer(self_ns, tr.agg(kind.step_span()).mean_self_ns());
        out.layer(steps_per_query, p.steps as f64 / p.unique.max(1) as f64);
    }
    let [_, cnrw, gnrw] = &passes;
    let unique: u64 = passes.iter().map(|p| p.unique).sum();
    let refusals: u64 = passes.iter().map(|p| p.refusals).sum();
    let historied = 2.0 * TRIALS as f64;

    let client = tr.agg("client.neighbors");
    out.layer("client.neighbors_ns", client.mean_ns());
    out.layer("client.calls", client.count as f64);
    out.layer("client.unique", unique as f64);
    out.layer(
        "client.cache_hit_rate",
        1.0 - unique as f64 / client.count.max(1) as f64,
    );
    out.layer("client.budget_refusals", refusals as f64);
    out.layer("estimate.push_ns", tr.agg("estimate.push").mean_ns());
    // Per trial of the history-keeping walkers (CNRW and GNRW).
    out.layer(
        "circulation.tracked_edges",
        (cnrw.tracked_edges + gnrw.tracked_edges) as f64 / historied,
    );
    out.layer(
        "circulation.arena_entries",
        (cnrw.arena_entries + gnrw.arena_entries) as f64 / historied,
    );
    let visits: Vec<Vec<NodeId>> = passes
        .iter()
        .flat_map(|p| p.visits.iter().cloned())
        .collect();
    out.layer("graph.csr_neighbors_ns", replay_csr(s, &visits));
    let graph = &s.network.graph;
    out.layer(
        "circulation.draw_ns",
        replay_draws(|v| graph.neighbors(v).to_vec(), &cnrw.visits),
    );
    out.layer("groupplan.build_s", s.plan_build_s);
    out.layer("groupplan.heap_bytes", s.plan.heap_bytes() as f64);
}
