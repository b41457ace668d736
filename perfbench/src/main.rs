//! `osn-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! osn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload single-threaded, checks its outputs, and prints
//! as the last line of standard output one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set ([`END_TO_END`]); with `--trace 1` the
//! workload runs once untraced and once with spans around every layer call,
//! and the metrics are the per-layer set ([`PER_LAYER`]) plus the tracing
//! overhead on each timed end-to-end metric. A record with the
//! environment, the bases of every ratio and the sample count of every
//! percentile is printed on the line before and written under
//! `perfbench/out/`, together with the spans of a traced run. See `perfbench/README.md` for why each
//! workload exists.

mod crawl;
mod env;
mod fleet;
mod paper;
mod service;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use osn_serde::Value;

use crate::trace::Tracer;

/// End-to-end metrics, `(name, unit)`: every workload reports each one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("failed_frac", "frac"),
    ("task_s", "s"),
    ("steps_per_s", "1/s"),
];

/// The end-to-end metrics a traced run compares against its untraced twin,
/// with the per-layer metric that reports the difference.
const TIMED: [(&str, &str); 2] = [
    ("task_s", "trace.overhead.task_s"),
    ("steps_per_s", "trace.overhead.steps_per_s"),
];

/// Per-layer metrics, `(name, unit)`. A workload that never calls into a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("graph.csr_neighbors_ns", "ns"),
    ("graph.compact_decode_ns", "ns"),
    ("graph.decode_cache_hit_rate", "frac"),
    ("graph.overlay_apply_ns", "ns"),
    ("graph.overlay_patched_nodes", "count"),
    ("circulation.draw_ns", "ns"),
    ("circulation.tracked_edges", "count"),
    ("circulation.arena_entries", "count"),
    ("groupplan.build_s", "s"),
    ("groupplan.heap_bytes", "B"),
    ("walkers.step_self_ns.srw", "ns"),
    ("walkers.step_self_ns.cnrw", "ns"),
    ("walkers.step_self_ns.gnrw", "ns"),
    ("walkers.steps_per_query.srw", "ratio"),
    ("walkers.steps_per_query.cnrw", "ratio"),
    ("walkers.steps_per_query.gnrw", "ratio"),
    ("client.neighbors_ns", "ns"),
    ("client.calls", "count"),
    ("client.unique", "count"),
    ("client.cache_hit_rate", "frac"),
    ("client.budget_refusals", "count"),
    ("batch.submit_ns", "ns"),
    ("batch.poll_ns", "ns"),
    ("batch.requests", "count"),
    ("batch.ids_per_request", "ratio"),
    ("batch.retries_per_request", "ratio"),
    ("batch.dropped", "count"),
    ("reactor.self_ns_per_event", "ns"),
    ("reactor.events", "count"),
    ("reactor.synthetic_ticks", "count"),
    ("reactor.peak_in_flight", "count"),
    ("reactor.invalidate_ns", "ns"),
    ("reactor.invalidated_states", "count"),
    ("service.slices", "count"),
    ("service.cache_hit_rate", "frac"),
    ("service.fair_share_max_dev", "frac"),
    ("service.turnaround_p99_vs", "vs"),
    ("service.jobs_per_s", "1/s"),
    ("estimate.push_ns", "ns"),
    ("paper.queries_to_err.srw", "count"),
    ("paper.queries_to_err.cnrw", "count"),
    ("paper.queries_to_err.gnrw", "count"),
    ("paper.time_to_err_s.srw", "s"),
    ("paper.time_to_err_s.cnrw", "s"),
    ("paper.time_to_err_s.gnrw", "s"),
    ("trace.overhead.task_s", "frac"),
    ("trace.overhead.steps_per_s", "frac"),
    ("trace.spans", "count"),
    ("slice.p50_us", "us"),
    ("slice.tail_us", "us"),
];

/// Seed of the stand-in datasets. They stay fixed, as the paper's crawled
/// datasets do; the workload seed draws everything that runs on them
/// (start nodes, walk randomness, traffic, mutations, endpoint jitter).
pub const DATASET_SEED: u64 = 1;

/// What one measured pass of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Failed output checks (empty = correct).
    pub problems: Vec<String>,
    /// Workload-level operations attempted (trials, walks, walkers, jobs).
    pub attempted: u64,
    /// Of those, the ones that did not complete correctly.
    pub failed: u64,
    /// End-to-end metrics of the untraced measurement.
    pub metrics: Vec<(&'static str, f64)>,
    /// Timed end-to-end metrics of one untraced repetition, the median
    /// one: what the traced pass, itself one repetition, is compared with.
    pub raw: Vec<(&'static str, f64)>,
    /// End-to-end metrics of the traced pass (timed ones only).
    pub traced: Vec<(&'static str, f64)>,
    /// Per-layer metrics of the traced pass.
    pub layers: Vec<(&'static str, f64)>,
    /// Bases of ratios, sample counts and other context for the record.
    pub details: Vec<(String, Value)>,
}

impl Outcome {
    /// Record metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record the median untraced repetition's value of end-to-end metric
    /// `name`.
    pub fn raw(&mut self, name: &'static str, value: f64) {
        self.raw.push((name, value));
    }

    /// Record the traced pass's value of end-to-end metric `name`.
    pub fn traced(&mut self, name: &'static str, value: f64) {
        self.traced.push((name, value));
    }

    /// Record per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Record a context entry for the result record.
    pub fn detail(&mut self, name: impl Into<String>, value: Value) {
        self.details.push((name.into(), value));
    }

    /// Fail the run's output check with `message` unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(message());
        }
    }
}

fn lookup(metrics: &[(&str, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The workload seed and how long a workload measures.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
}

/// Fewest repetitions a run takes the per-slice minimum over.
const MIN_REPS: usize = 3;
/// A run stops repeating once it has measured this many times `--seconds`,
/// so that a change several times slower still exits in time; the record
/// then shows fewer repetitions done than planned.
const GUARD: f64 = 4.0;

impl Plan {
    /// Repetitions of a task one repetition of which took about
    /// `rep_seconds` on the reference host (2 vCPU, see the README). The
    /// count depends on `--seconds` alone, not on how fast the code under
    /// test is, so two commits take their per-slice minima over the same
    /// number of repetitions.
    pub fn reps(&self, rep_seconds: f64) -> usize {
        ((self.seconds / rep_seconds).round() as usize).max(MIN_REPS)
    }

    /// Whether a measurement loop that started at `started`, has run `rep`
    /// of its `reps` repetitions, may begin another. After the first
    /// repetition it records the peak RSS, so that figure counts set-up
    /// and one repetition, not what later repetitions and set-ups add.
    pub fn more(&self, started: Instant, rep: usize, reps: usize, out: &mut Outcome) -> bool {
        if rep == 1 {
            out.metric("peak_rss_mib", peak_rss_mib());
        }
        let more = rep < reps
            && (rep == 0 || started.elapsed() < Duration::from_secs_f64(GUARD * self.seconds));
        if !more {
            out.detail(
                "repetitions",
                Value::obj([
                    ("planned", Value::Uint(reps as u64)),
                    ("done", Value::Uint(rep as u64)),
                ]),
            );
        }
        more
    }
}

/// Per-slice minimum over identical repetitions of a seeded task.
///
/// Interference from other tenants of a shared host only ever slows a
/// slice down, and on shared 2-vCPU cloud hosts it comes and goes
/// in stretches of seconds that slow everything by up to 1.7×, so medians
/// of whole runs swing with the neighbours' load. Every repetition replays
/// the same inputs, slice for slice, so the fastest time seen for each
/// slice is a measurement of that slice with the least interference; the
/// task's time is their sum. A repetition that cuts a different number of
/// slices is a determinism failure.
#[derive(Default)]
pub struct SliceMin {
    best: Vec<f64>,
    /// Each repetition's own total, in order.
    totals: Vec<f64>,
}

impl SliceMin {
    /// Fold in one repetition's slice times, in order.
    pub fn add(&mut self, out: &mut Outcome, slices: &[f64]) {
        if self.totals.is_empty() {
            self.best = slices.to_vec();
        } else if slices.len() != self.best.len() {
            let (had, got) = (self.best.len(), slices.len());
            out.check(false, || {
                format!("repetition cut {got} slices where the first cut {had}")
            });
        } else {
            for (b, &s) in self.best.iter_mut().zip(slices) {
                *b = b.min(s);
            }
        }
        self.totals.push(slices.iter().sum());
    }

    /// The per-slice minima.
    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// Sum of the per-slice minima.
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Each repetition's own total, in order.
    pub fn totals(&self) -> &[f64] {
        &self.totals
    }
}

/// Record each repetition's own task time (`task_s_reps`) and, for the
/// tracing overhead, the median repetition's `task_s` and `steps_per_s`.
pub fn record_reps(out: &mut Outcome, totals: &[f64], steps: u64) {
    out.detail(
        "task_s_reps",
        Value::Arr(totals.iter().map(|&s| Value::Num(s)).collect()),
    );
    let median = stats::median(totals);
    out.raw("task_s", median);
    out.raw("steps_per_s", steps as f64 / median);
}

/// A run's set-up times. The first set-up builds what the run uses; the
/// others are spread over the repetitions, timed and dropped, because the
/// host's slow stretches last seconds and would otherwise catch every
/// set-up of a run at once. `setup_s` is the fastest of them, for the
/// reason [`SliceMin`] gives.
pub struct Setups {
    count: usize,
    times: Vec<f64>,
}

impl Setups {
    /// Time the first of `count` set-ups and return what it built.
    pub fn first<T>(count: usize, build: impl FnOnce() -> T) -> (Self, T) {
        let mut setups = Setups {
            count: count.max(1),
            times: Vec::with_capacity(count),
        };
        let built = setups.time(build);
        (setups, built)
    }

    fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let built = std::hint::black_box(build());
        self.times.push(started.elapsed().as_secs_f64());
        built
    }

    /// Time and drop the set-ups due before repetition `rep` (from 1) of
    /// `reps`, spreading the remaining ones evenly over repetitions
    /// `1..reps`.
    pub fn before<T>(&mut self, rep: usize, reps: usize, mut build: impl FnMut() -> T) {
        if rep == 0 || reps < 2 {
            return;
        }
        for _ in 0..stats::spread(rep, reps - 1, self.count - 1) {
            drop(self.time(&mut build));
        }
    }

    /// Record `setup_s`, the fastest set-up, and every set-up time.
    pub fn record(&self, out: &mut Outcome) {
        let fastest = self.times.iter().copied().fold(f64::INFINITY, f64::min);
        out.metric("setup_s", fastest);
        out.detail(
            "setup_s_samples",
            Value::Arr(self.times.iter().map(|&t| Value::Num(t)).collect()),
        );
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median and tail (the highest of p50 and p90 with ten samples beyond
/// it) of per-slice durations in seconds, in µs; `None` when the
/// sample is too small for a tail.
fn slice_values(mut secs: Vec<f64>) -> Option<(f64, f64)> {
    secs.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(secs.len())?;
    Some((
        stats::percentile(&secs, 50.0) * 1e6,
        stats::percentile(&secs, tail) * 1e6,
    ))
}

/// Record the slice latency metrics of `secs`, one duration per `what`.
pub fn slice_metrics(out: &mut Outcome, secs: Vec<f64>, what: &str) {
    let n = secs.len();
    let tail = stats::tail_percentile(n);
    match slice_values(secs) {
        Some((p50, tail_us)) => {
            out.layer("slice.p50_us", p50);
            out.layer("slice.tail_us", tail_us);
        }
        None => out.check(false, || format!("{n} {what} samples cannot give a tail")),
    }
    out.detail(
        "slice",
        Value::obj([
            ("unit", Value::Str(what.into())),
            ("samples", Value::Uint(n as u64)),
            ("tail_percentile", tail.map_or(Value::Null, Value::Num)),
        ]),
    );
}

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["paper-gplus", "crawl-web", "fleet-evolving", "service-mt"];

fn run_workload(name: &str, plan: &Plan, tracer: Option<&Tracer>) -> Outcome {
    match name {
        "paper-gplus" => paper::run(plan, tracer),
        "crawl-web" => crawl::run(plan, tracer),
        "fleet-evolving" => fleet::run(plan, tracer),
        "service-mt" => service::run(plan, tracer),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn metrics_value(names: &[(&str, &str)], values: &[(&str, f64)]) -> Result<Value, String> {
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = lookup(values, name).unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push((
            name.to_string(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ]),
        ));
    }
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !names.iter().any(|(m, _)| m == n))
    {
        return Err(format!("metric {name} is not declared"));
    }
    Ok(Value::Obj(fields))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("osn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
    };
    let tracer = args.trace.then(Tracer::new);
    let mut out = run_workload(&args.workload, &plan, tracer.as_ref());
    if lookup(&out.metrics, "peak_rss_mib").is_none() {
        out.metric("peak_rss_mib", peak_rss_mib());
    }
    let mut trace_doc = None;
    if let Some(tracer) = &tracer {
        for (name, overhead_name) in TIMED {
            let (Some(plain), Some(traced)) = (lookup(&out.raw, name), lookup(&out.traced, name))
            else {
                continue;
            };
            // Positive = tracing made the metric worse.
            let overhead = match name {
                "steps_per_s" => plain / traced - 1.0,
                _ => traced / plain - 1.0,
            };
            out.layer(overhead_name, overhead);
        }
        let doc = tracer.to_value();
        out.layer("trace.spans", tracer.spans_recorded() as f64);
        trace_doc = Some(doc);
        let traced = out
            .traced
            .iter()
            .map(|&(n, v)| (n.to_string(), Value::Num(v)))
            .collect();
        out.detail("end_to_end_traced", Value::Obj(traced));
        let plain = out
            .raw
            .iter()
            .map(|&(n, v)| (n.to_string(), Value::Num(v)))
            .collect();
        out.detail("end_to_end_untraced_median_repetition", Value::Obj(plain));
    }
    let metrics = if args.trace {
        metrics_value(&PER_LAYER, &out.layers)
    } else {
        metrics_value(&END_TO_END, &out.metrics)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("osn-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = out.problems.is_empty();
    for p in &out.problems {
        eprintln!("osn-perfbench: check failed: {p}");
    }
    let record = Value::obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Uint(args.seed)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("environment", env::record()),
        ("correct", Value::Bool(correct)),
        (
            "problems",
            Value::Arr(out.problems.iter().map(|p| Value::Str(p.clone())).collect()),
        ),
        ("metrics", metrics.clone()),
        ("details", Value::Obj(out.details)),
    ]);
    if let Err(e) = env::write_record(&args, &record, trace_doc.as_ref()) {
        eprintln!("osn-perfbench: could not write the record: {e}");
        return ExitCode::from(1);
    }
    println!("{}", Value::obj([("record", record)]).to_compact());
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Uint(out.attempted)),
        ("failed", Value::Uint(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}
