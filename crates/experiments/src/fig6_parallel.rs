//! Parallel variant of the Figure 6 sweep: relative error of the
//! average-degree estimate vs **shared** unique-query cost, for 1/2/4/8
//! concurrent CNRW walkers pooling one lock-striped cache.
//!
//! The paper's Figure 6 charges each (single) walker its own budget. A
//! production crawler instead runs many walkers against one cache — a node
//! any walker queries is free for all of them, and the budget is global.
//! This sweep answers the follow-up question the paper leaves open: *given
//! the same global budget, does splitting it across `k` concurrent
//! history-aware walkers hurt the estimate?* Each walker keeps its own
//! circulation history (history is per-walker state, not cache state), while
//! queries are pooled through [`osn_client::SharedOsn`] and per-walker
//! estimates are merged by [`osn_walks::WalkOrchestrator::run_threaded`].

use std::sync::Arc;

use osn_client::{SharedOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_estimate::metrics::relative_error;
use osn_graph::attributes::AttributedGraph;
use osn_graph::NodeId;
use osn_walks::{Cnrw, Never, RandomWalk, WalkOrchestrator};

use crate::output::{ExperimentResult, Series};
use crate::runner::trial_seed;

/// Configuration for the parallel Figure 6 sweep.
#[derive(Clone, Debug)]
pub struct Fig6ParallelConfig {
    /// Dataset scale for the Google Plus stand-in.
    pub scale: Scale,
    /// Shared unique-query budgets to sweep (the x axis).
    pub budgets: Vec<u64>,
    /// Concurrent walker counts, one curve each.
    pub walkers: Vec<usize>,
    /// Cache stripes for the shared client.
    pub stripes: usize,
    /// Independent trials per (walkers, budget) point.
    pub trials: usize,
    /// Experiment seed (trial seeds derive from it).
    pub seed: u64,
}

impl Default for Fig6ParallelConfig {
    fn default() -> Self {
        Fig6ParallelConfig {
            scale: Scale::Default,
            budgets: (1..=10).map(|i| i * 100).collect(),
            walkers: vec![1, 2, 4, 8],
            stripes: 64,
            trials: 48,
            seed: 0x0F16_69A7,
        }
    }
}

impl Fig6ParallelConfig {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig6ParallelConfig {
            scale: Scale::Test,
            budgets: vec![50, 100, 200],
            walkers: vec![1, 4],
            stripes: 16,
            trials: 12,
            seed: 0x0F16_69A7,
        }
    }
}

/// One trial: `k` concurrent CNRW walkers over one budgeted shared cache;
/// returns the relative error of the merged average-degree estimate.
fn trial_error(
    network: &Arc<AttributedGraph>,
    stripes: usize,
    k: usize,
    budget: u64,
    seed: u64,
) -> f64 {
    let truth = network.graph.average_degree();
    let n = network.graph.node_count();
    let client = SharedOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        stripes,
        Some(budget),
    );
    // Same step-cap rule as `TrialPlan::budgeted`, split across walkers.
    let max_steps = ((budget as usize).saturating_mul(50).max(10_000) / k).max(1_000);
    let graph = &network.graph;
    let report = WalkOrchestrator::new(k, max_steps, seed).run_threaded(
        &client,
        |i, backend| {
            let start = NodeId(((seed as usize + i * 31) % n) as u32);
            Box::new(Cnrw::with_backend(start, backend)) as Box<dyn RandomWalk + Send>
        },
        // Average degree: f(v) = k_v, read from the shared snapshot.
        |v| graph.degree(v) as f64,
        &Never,
    );
    match report.estimate.average_degree() {
        Some(estimate) => relative_error(estimate, truth),
        None => 1.0, // all walkers refused before their first step
    }
}

/// Run the parallel Figure 6 sweep: one error-vs-budget curve per walker
/// count, sharing one global budget and one striped cache per trial.
pub fn run(config: &Fig6ParallelConfig) -> ExperimentResult {
    let network = Arc::new(gplus_like(config.scale, config.seed).network);
    let mut result = ExperimentResult::new(
        "fig6_parallel",
        "Google Plus stand-in: average degree, k concurrent CNRW walkers on one shared budget",
        "Shared Query Cost",
        "Relative Error",
    )
    .with_note(format!(
        "graph: {} nodes, {} edges, avg degree {:.1}; {} trials/point; {} cache stripes",
        network.graph.node_count(),
        network.graph.edge_count(),
        network.graph.average_degree(),
        config.trials,
        config.stripes
    ))
    .with_note(
        "walkers share one SharedOsn cache + atomic budget; per-walker estimates \
         merged in walker order (WalkOrchestrator::run_threaded)",
    );
    for &k in &config.walkers {
        let ys: Vec<f64> = config
            .budgets
            .iter()
            .map(|&budget| {
                let errors: Vec<f64> = (0..config.trials)
                    .map(|t| {
                        trial_error(
                            &network,
                            config.stripes,
                            k,
                            budget,
                            trial_seed(config.seed ^ budget ^ ((k as u64) << 32), t as u64),
                        )
                    })
                    .collect();
                errors.iter().sum::<f64>() / errors.len() as f64
            })
            .collect();
        result.series.push(Series::new(
            format!("CNRW x{k}"),
            config.budgets.iter().map(|&b| b as f64).collect(),
            ys,
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes_and_sanity() {
        let config = Fig6ParallelConfig::quick();
        let r = run(&config);
        assert_eq!(r.series.len(), config.walkers.len());
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
    fn single_walker_error_shrinks_with_budget() {
        // k = 1 is fully deterministic (no budget races), so the classic
        // budget-helps claim must hold exactly as in the serial Figure 6.
        let mut config = Fig6ParallelConfig::quick();
        config.budgets = vec![20, 200];
        config.walkers = vec![1];
        config.trials = 16;
        let r = run(&config);
        let y = &r.series[0].y;
        assert!(y[1] < y[0], "error should shrink with budget: {y:?}");
    }

    #[test]
    fn pooled_walkers_stay_competitive_at_high_budget() {
        // The headline property: splitting one shared budget across several
        // history-aware walkers does not blow up the pooled estimate.
        let mut config = Fig6ParallelConfig::quick();
        config.budgets = vec![200];
        config.walkers = vec![1, 4];
        config.trials = 16;
        let r = run(&config);
        let solo = r.series[0].y[0];
        let pooled = r.series[1].y[0];
        assert!(
            pooled < solo + 0.25,
            "4-walker pooled error {pooled} should stay near solo {solo}"
        );
    }
}
