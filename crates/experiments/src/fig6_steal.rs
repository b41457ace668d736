//! Work-stealing variant of the Figure 6 setting: **estimator NRMSE at a
//! fixed shared budget, with and without frontier restarts**, on the
//! clustered stand-in.
//!
//! The adversarial scenario the paper's clustered experiments (Figure 10)
//! hint at: a fleet of history-aware walkers all started inside the
//! *smallest* clique of the clustered graph. Each walker exhausts its
//! 10-node home clique within a few dozen steps; until it finds one of the
//! sparse bridges, every further step resamples known territory — the
//! pooled estimate is dominated by low-degree clique-A samples while the
//! high-degree 50-clique goes unseen.
//!
//! The two arms run **identical fleets, budgets, seeds, and RNG streams**
//! through the orchestrator's reactor
//! ([`osn_walks::WalkOrchestrator::run_reactor`], over a zero-latency
//! endpoint with one batch slot per walker); the only difference is the
//! restart policy:
//!
//! * `never` — [`osn_walks::Never`]: the classic run;
//! * `steal` — [`osn_walks::WorkStealing`]: walkers publish the nodes they
//!   walk through into a [`osn_walks::SharedFrontier`], and a walker whose
//!   check window went sterile (or whose chain the online windowed split-R̂
//!   flags as the non-mixing outlier) restarts from territory another
//!   walker discovered.
//!
//! The metric is the **NRMSE** of the average-degree estimate across
//! trials: `sqrt(mean(((est − truth)/truth)²))` — it punishes both bias
//! (trapped fleets systematically underestimate) and variance.

use std::sync::Arc;

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_graph::attributes::AttributedGraph;
use osn_graph::NodeId;
use osn_walks::{
    Cnrw, Never, RandomWalk, RestartPolicy, RestartReason, SharedFrontier, WalkOrchestrator,
    WorkStealing,
};

use crate::output::{ExperimentResult, Series};
use crate::runner::trial_seed;

/// Configuration for the work-stealing Figure 6 sweep.
#[derive(Clone, Debug)]
pub struct Fig6StealConfig {
    /// Shared unique-query budgets to sweep (the x axis).
    pub budgets: Vec<u64>,
    /// Fleet size (all walkers start clumped in the smallest clique).
    pub walkers: usize,
    /// Steps between restart-policy checks (also the split-R̂ window).
    pub check_every: usize,
    /// Windowed split-R̂ above this flags non-mixing.
    pub rhat_threshold: f64,
    /// Independent trials per (arm, budget) point.
    pub trials: usize,
    /// Experiment seed (trial seeds derive from it).
    pub seed: u64,
}

impl Default for Fig6StealConfig {
    fn default() -> Self {
        Fig6StealConfig {
            budgets: vec![20, 30, 45, 60, 75],
            walkers: 8,
            check_every: 32,
            rhat_threshold: 1.1,
            trials: 48,
            seed: 0x0F16_57EA,
        }
    }
}

impl Fig6StealConfig {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig6StealConfig {
            budgets: vec![30, 60],
            trials: 16,
            ..Default::default()
        }
    }
}

/// Per-trial outcome: the relative estimation error plus restart counts.
struct TrialOutcome {
    rel_error: f64,
    restarts_exhausted: usize,
    restarts_nonmixing: usize,
    rescues: usize,
}

/// One trial: the clumped fleet over one shared budget, under `policy`.
fn run_trial(
    network: &Arc<AttributedGraph>,
    config: &Fig6StealConfig,
    budget: u64,
    seed: u64,
    policy: &dyn RestartPolicy,
) -> TrialOutcome {
    let truth = network.graph.average_degree();
    let k = config.walkers;
    // Same step-cap rule as `TrialPlan::budgeted`, split across walkers.
    let max_steps = ((budget as usize).saturating_mul(50).max(10_000) / k).max(1_000);
    let mut client = SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(k),
        Some(budget),
    );
    let graph = &network.graph;
    let report = WalkOrchestrator::new(k, max_steps, seed).run_reactor(
        &mut client,
        // Clumped adversarial starts: every walker inside the 10-clique.
        |i, backend| {
            Box::new(Cnrw::with_backend(NodeId((i % 10) as u32), backend))
                as Box<dyn RandomWalk + Send>
        },
        |v| graph.degree(v) as f64,
        policy,
    );
    let rel_error = match report.estimate.average_degree() {
        Some(estimate) => (estimate - truth) / truth,
        None => 1.0, // all walkers refused before their first step
    };
    TrialOutcome {
        rel_error,
        restarts_exhausted: report
            .restarts
            .iter()
            .filter(|e| e.reason == RestartReason::Exhausted)
            .count(),
        restarts_nonmixing: report
            .restarts
            .iter()
            .filter(|e| e.reason == RestartReason::NonMixing)
            .count(),
        rescues: report
            .restarts
            .iter()
            .filter(|e| e.reason == RestartReason::Refused)
            .count(),
    }
}

/// NRMSE across trials from signed relative errors.
fn nrmse(rel_errors: &[f64]) -> f64 {
    (rel_errors.iter().map(|e| e * e).sum::<f64>() / rel_errors.len() as f64).sqrt()
}

/// Run the work-stealing Figure 6 sweep: NRMSE vs budget, one curve per
/// arm, identical fleets and RNG streams in both.
pub fn run(config: &Fig6StealConfig) -> ExperimentResult {
    let network = Arc::new(osn_datasets::clustered_graph().network);
    let mut result = ExperimentResult::new(
        "fig6_steal",
        "Clustered stand-in: average-degree NRMSE at a fixed shared budget — \
         work-stealing frontier restarts vs never restarting, clumped starts",
        "Shared Query Cost",
        "NRMSE of Average-Degree Estimate",
    )
    .with_note(format!(
        "graph: {} nodes, {} edges, true avg degree {:.2}; {} CNRW walkers all started \
         in the 10-clique; {} trials/point; check_every={}, rhat_threshold={}",
        network.graph.node_count(),
        network.graph.edge_count(),
        network.graph.average_degree(),
        config.walkers,
        config.trials,
        config.check_every,
        config.rhat_threshold,
    ))
    .with_note(
        "identical fleets, budgets and RNG streams in both arms (orchestrator \
         reactor): the gap is purely the WorkStealing restart policy",
    );
    let xs: Vec<f64> = config.budgets.iter().map(|&b| b as f64).collect();

    let mut arm = |steal: bool| -> Vec<f64> {
        let mut ys = Vec::with_capacity(config.budgets.len());
        for &budget in &config.budgets {
            let mut errors = Vec::with_capacity(config.trials);
            let mut exhausted = 0usize;
            let mut nonmixing = 0usize;
            let mut rescues = 0usize;
            for t in 0..config.trials {
                let seed = trial_seed(config.seed ^ budget, t as u64);
                let outcome = if steal {
                    let policy = WorkStealing::new(
                        config.rhat_threshold,
                        config.check_every,
                        SharedFrontier::with_stripes(16, 32),
                    );
                    run_trial(&network, config, budget, seed, &policy)
                } else {
                    run_trial(&network, config, budget, seed, &Never)
                };
                errors.push(outcome.rel_error);
                exhausted += outcome.restarts_exhausted;
                nonmixing += outcome.restarts_nonmixing;
                rescues += outcome.rescues;
            }
            let y = nrmse(&errors);
            ys.push(y);
            if steal {
                result.notes.push(format!(
                    "budget {budget}: steal NRMSE {y:.4}; {:.1} relocations/trial \
                     ({exhausted} exhausted + {nonmixing} non-mixing + {rescues} budget \
                     rescues over {} trials)",
                    (exhausted + nonmixing + rescues) as f64 / config.trials as f64,
                    config.trials,
                ));
            } else {
                result
                    .notes
                    .push(format!("budget {budget}: never NRMSE {y:.4}"));
            }
        }
        ys
    };

    let never = arm(false);
    let steal = arm(true);
    result
        .series
        .push(Series::new("CNRW never".to_string(), xs.clone(), never));
    result
        .series
        .push(Series::new("CNRW work-stealing".to_string(), xs, steal));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes_and_sanity() {
        let config = Fig6StealConfig::quick();
        let r = run(&config);
        assert_eq!(r.series.len(), 2);
        for s in &r.series {
            assert_eq!(s.len(), config.budgets.len());
            assert!(
                s.y.iter().all(|e| e.is_finite() && (0.0..=2.0).contains(e)),
                "{}: {:?}",
                s.label,
                s.y
            );
        }
    }

    #[test]
    fn stealing_reaches_at_most_the_never_nrmse_at_fixed_budget() {
        // The acceptance property of the work-stealing orchestrator:
        // at the same shared budget, restarting stalled walkers from
        // stolen frontier nodes must not lose to never restarting —
        // and on the clumped-start clustered scenario it should win.
        let config = Fig6StealConfig {
            budgets: vec![30, 60],
            trials: 24,
            ..Default::default()
        };
        let r = run(&config);
        let never = &r.series[0].y;
        let steal = &r.series[1].y;
        for (i, budget) in config.budgets.iter().enumerate() {
            assert!(
                steal[i] <= never[i],
                "budget {budget}: steal NRMSE {} must be <= never {}",
                steal[i],
                never[i]
            );
        }
    }

    #[test]
    fn stealing_actually_restarts_in_this_scenario() {
        let config = Fig6StealConfig::quick();
        let network = Arc::new(osn_datasets::clustered_graph().network);
        let policy = WorkStealing::new(
            config.rhat_threshold,
            config.check_every,
            SharedFrontier::with_stripes(16, 32),
        );
        let outcome = run_trial(&network, &config, 60, trial_seed(config.seed, 1), &policy);
        assert!(
            outcome.restarts_exhausted + outcome.restarts_nonmixing > 0,
            "clumped starts must trigger at least one cadence steal"
        );
        assert!(
            outcome.rescues > 0,
            "budget exhaustion must trigger at least one rescue"
        );
    }
}
