//! Golden-trace regression test for work-stealing restarts under a shared
//! budget.
//!
//! A committed fixture (`tests/fixtures/cnrw_steal_budget_clustered.txt`)
//! pins a CNRW fleet clumped in the clustered graph's 10-clique under
//! [`WorkStealing`] and a shared unique-query budget: every walker's
//! trace, its stop, the full restart schedule (cadence steals and budget
//! rescues), the walker-side accounting, and the estimate. The fixture was
//! first rendered by the retired round-robin serial driver over a
//! `BudgetedClient`; the reactor over a zero-latency endpoint with one
//! batch slot per walker reproduces it unmodified, so any change to where
//! the reactor consults the policy, charges the budget, or parks a rescued
//! walker fails here instead of silently drifting.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test steal_golden_trace
//! ```
//!
//! and commit the diff with an explanation of why the trace moved.

use std::fmt::Write as _;
use std::sync::Arc;

use osn_sampling::prelude::*;

const WALKERS: usize = 4;
const STEPS: usize = 160;
const BUDGET: u64 = 30;
const SEED: u64 = 0x57EA1;
const FIXTURE: &str = "tests/fixtures/cnrw_steal_budget_clustered.txt";

fn reason(r: RestartReason) -> &'static str {
    match r {
        RestartReason::Exhausted => "exhausted",
        RestartReason::NonMixing => "non-mixing",
        RestartReason::Refused => "refused",
    }
}

fn render_golden() -> String {
    let network = Arc::new(osn_sampling::datasets::clustered_graph().network);
    let mut client = SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(WALKERS),
        Some(BUDGET),
    );
    let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
    let report = WalkOrchestrator::new(WALKERS, STEPS, SEED).run_reactor(
        &mut client,
        |i, backend| {
            Box::new(Cnrw::with_backend(NodeId((i % 10) as u32), backend))
                as Box<dyn RandomWalk + Send>
        },
        |v| v.index() as f64,
        &policy,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# CNRW fleet over the clustered graph under WorkStealing restarts and a"
    );
    let _ = writeln!(
        out,
        "# shared budget of {BUDGET} unique queries: {WALKERS} walkers clumped in the 10-clique,"
    );
    let _ = writeln!(
        out,
        "# at most {STEPS} steps each, check_every 16, rhat 1.1, run seed {SEED:#x}."
    );
    let _ = writeln!(
        out,
        "# Regenerate: UPDATE_FIXTURES=1 cargo test --test steal_golden_trace"
    );
    for (i, trace) in report.trace.per_walker.iter().enumerate() {
        let nodes: Vec<String> = trace.iter().map(|v| v.0.to_string()).collect();
        let _ = writeln!(out, "walker{i}: {}", nodes.join(" "));
    }
    for (i, stop) in report.stops.iter().enumerate() {
        let _ = writeln!(out, "stop{i}: {stop:?}");
    }
    for e in &report.restarts {
        let _ = writeln!(
            out,
            "restart: walker {} step {} {} -> {} ({})",
            e.walker,
            e.step,
            e.from.0,
            e.to.0,
            reason(e.reason)
        );
    }
    let _ = writeln!(out, "walker_unique: {}", report.trace.stats.unique);
    let _ = writeln!(out, "walker_issued: {}", report.trace.stats.issued);
    let _ = writeln!(out, "estimate: {:?}", report.estimate.mean());
    out
}

#[test]
fn reactor_reproduces_committed_work_stealing_golden_trace() {
    let fixture_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let rendered = render_golden();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&fixture_path, &rendered).expect("write fixture");
    }
    let committed = std::fs::read_to_string(&fixture_path)
        .expect("fixture missing — run with UPDATE_FIXTURES=1 to create it");
    assert_eq!(
        rendered, committed,
        "work-stealing trace diverged from the committed fixture; if the change \
         is intentional, regenerate with UPDATE_FIXTURES=1 and explain the move"
    );
}
