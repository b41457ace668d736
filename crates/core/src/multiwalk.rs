//! Multiple cooperating walkers over one shared interface.
//!
//! The paper's related work cites Alon et al., *"Many random walks are
//! faster than one"* \[3\]. In the restricted-access setting the idea has a
//! twist that makes it even more attractive: walkers sharing one crawler
//! share its **cache**, so a node queried by any walker is free for all
//! others — `k` walkers cover ground faster *without* multiplying the
//! unique-query bill.
//!
//! The fleet drivers live on [`crate::WalkOrchestrator`]: the poll-driven
//! reactor ([`crate::WalkOrchestrator::run_reactor`]) drives `k` walkers on
//! one thread against a batch endpoint, and
//! [`crate::WalkOrchestrator::run_threaded`] runs them on `k` scoped OS
//! threads against clones of an [`osn_client::SharedOsn`]. This module
//! keeps what they share: the per-walker RNG stream derivation
//! ([`stream_seed`]) and the pooled trace shape ([`MultiWalkTrace`]).
//!
//! Because the walkers are independent chains with the same stationary
//! distribution, the pooled samples feed the usual estimators unchanged, and
//! multi-chain diagnostics (`osn_estimate::diagnostics::split_rhat`) become
//! applicable.

use osn_graph::NodeId;

/// Outcome of a multi-walker run.
#[derive(Clone, Debug)]
pub struct MultiWalkTrace {
    /// Per-walker visit sequences (one entry per performed step).
    pub per_walker: Vec<Vec<NodeId>>,
    /// Final client statistics (shared across walkers).
    pub stats: osn_client::QueryStats,
}

impl MultiWalkTrace {
    /// Total steps across all walkers.
    pub fn total_steps(&self) -> usize {
        self.per_walker.iter().map(Vec::len).sum()
    }

    /// Iterator over all samples, pooled across walkers.
    pub fn pooled(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_walker.iter().flatten().copied()
    }

    /// Per-walker traces as `f64` sequences of `f(node)` — the shape the
    /// multi-chain diagnostics expect. Note `osn_estimate::split_rhat`
    /// requires equal-length chains; truncate explicitly when some walkers
    /// stopped early.
    pub fn chains<F: Fn(NodeId) -> f64>(&self, f: F) -> Vec<Vec<f64>> {
        self.per_walker
            .iter()
            .map(|c| c.iter().map(|&v| f(v)).collect())
            .collect()
    }
}

/// SplitMix64-derived RNG seed for stream `walker` of run `seed` —
/// well-spread and stable across platforms and thread schedules. Delegates
/// to [`osn_graph::mix::splitmix64_stream`], the workspace's single seed
/// mixer: walker streams here, trial seeds in `osn-experiments`, jitter
/// streams in `osn-client`.
pub fn stream_seed(seed: u64, walker: u64) -> u64 {
    osn_graph::mix::splitmix64_stream(seed, walker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circulation::HistoryBackend;
    use crate::orchestrator::{Never, WalkOrchestrator};
    use crate::walker::RandomWalk;
    use crate::walkers::{Cnrw, Srw};
    use osn_client::batch::{BatchConfig, BatchOsnClient, SimulatedBatchOsn};
    use osn_client::{OsnClient, SharedOsn, SimulatedOsn};
    use osn_estimate::RatioEstimator;
    use osn_graph::generators::barbell;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn mixed(i: usize, backend: HistoryBackend) -> Box<dyn RandomWalk + Send> {
        if i.is_multiple_of(2) {
            Box::new(Srw::new(NodeId(i as u32)))
        } else {
            Box::new(Cnrw::with_backend(NodeId(i as u32), backend))
        }
    }

    #[test]
    fn chains_feed_diagnostics_shape() {
        let mut client = SimulatedBatchOsn::new(
            SimulatedOsn::from_graph(barbell(6, 6).unwrap()),
            BatchConfig::new(3),
        );
        let report =
            WalkOrchestrator::new(3, 200, 2).run_reactor(&mut client, mixed, |_| 1.0, &Never);
        let trace = report.trace;
        let chains = trace.chains(|v| v.index() as f64);
        assert_eq!(chains.len(), 3);
        assert!(chains.iter().all(|c| c.len() == 200));
        assert_eq!(trace.pooled().count(), trace.total_steps());
    }

    #[test]
    fn more_walkers_cover_more_nodes_per_budget() {
        let g = barbell(30, 30).unwrap();
        let n = g.node_count();
        let coverage = |k: usize| {
            let mut client = SimulatedBatchOsn::configured(
                SimulatedOsn::from_graph(g.clone()),
                BatchConfig::new(k),
                Some(25),
            );
            let report = WalkOrchestrator::new(k, 5_000, 3).run_reactor(
                &mut client,
                // Spread starts across both bells.
                |i, backend| Box::new(Cnrw::with_backend(NodeId(((i * 17) % n) as u32), backend)),
                |_| 1.0,
                &Never,
            );
            assert!(report.trace.stats.unique <= 25);
            report
                .trace
                .pooled()
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        // With starts in both bells, several walkers reach nodes a single
        // trapped walker cannot within the same unique-query budget.
        assert!(coverage(4) >= coverage(1));
    }

    fn shared_client(stripes: usize) -> SharedOsn {
        let g = barbell(10, 10).unwrap();
        SharedOsn::with_stripes(SimulatedOsn::from_graph(g), stripes)
    }

    fn spread_cnrw(
        step: u32,
    ) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> + Sync {
        move |i, backend| Box::new(Cnrw::with_backend(NodeId(i as u32 * step), backend))
    }

    #[test]
    fn threaded_traces_are_deterministic_across_runs() {
        let run = || {
            WalkOrchestrator::new(4, 300, 42)
                .run_threaded(
                    &shared_client(8),
                    spread_cnrw(5),
                    |v| v.index() as f64,
                    &Never,
                )
                .trace
                .per_walker
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn threaded_matches_serial_replay_bit_identically() {
        // Each walker thread must produce exactly the trace a serial run
        // with the same derived RNG stream produces — thread scheduling and
        // cache sharing cannot perturb trajectories (only accounting).
        let orch = WalkOrchestrator::new(3, 250, 7);
        let report = orch.run_threaded(
            &shared_client(16),
            spread_cnrw(3),
            |v| v.index() as f64,
            &Never,
        );
        for i in 0..3 {
            let mut serial_client = shared_client(1);
            let mut walker = Cnrw::new(NodeId(i as u32 * 3));
            let mut rng = ChaCha12Rng::seed_from_u64(orch.walker_seed(i));
            let mut serial = Vec::new();
            for _ in 0..250 {
                serial.push(walker.step(&mut serial_client, &mut rng).unwrap());
            }
            assert_eq!(report.trace.per_walker[i], serial, "walker {i}");
        }
    }

    #[test]
    fn threaded_merges_estimates_in_index_order() {
        // The merged estimator must equal merging per-walker estimators by
        // hand in walker order (bit-identical f64 accumulation).
        let client = shared_client(8);
        let degree_of = {
            let g = client.network().graph.clone();
            move |v: NodeId| g.degree(v)
        };
        let report = WalkOrchestrator::new(4, 200, 9).run_threaded(
            &client,
            |i, _| Box::new(Srw::new(NodeId(i as u32))),
            |v| v.index() as f64,
            &Never,
        );
        let mut by_hand = RatioEstimator::new();
        for trace in &report.trace.per_walker {
            let mut one = RatioEstimator::new();
            for &v in trace {
                one.push(v.index() as f64, degree_of(v));
            }
            by_hand.merge(&one);
        }
        assert_eq!(report.estimate.count(), by_hand.count());
        assert_eq!(report.estimate.mean(), by_hand.mean());
    }

    #[test]
    fn threaded_respects_shared_budget() {
        let g = barbell(12, 12).unwrap();
        let client = SharedOsn::configured(SimulatedOsn::from_graph(g), 8, Some(15));
        let report = WalkOrchestrator::new(4, 10_000, 1).run_threaded(
            &client,
            spread_cnrw(7),
            |v| v.index() as f64,
            &Never,
        );
        assert!(report.trace.stats.unique <= 15);
        assert_eq!(client.remaining_budget(), Some(0));
    }

    fn batch_client(config: BatchConfig) -> SimulatedBatchOsn {
        let g = barbell(10, 10).unwrap();
        SimulatedBatchOsn::new(SimulatedOsn::from_graph(g), config)
    }

    #[test]
    fn reactor_traces_match_threaded_bit_identically() {
        // The headline cross-mode property: for every batch size the
        // reactor replays exactly the trajectories the threaded backend
        // produces — batching only reshapes interface traffic.
        let orch = WalkOrchestrator::new(4, 250, 42);
        let threaded = orch.run_threaded(
            &shared_client(8),
            spread_cnrw(5),
            |v| v.index() as f64,
            &Never,
        );
        for batch_size in [1usize, 4, 16] {
            let mut client = batch_client(BatchConfig::new(batch_size).with_in_flight(2));
            let report =
                orch.run_reactor(&mut client, spread_cnrw(5), |v| v.index() as f64, &Never);
            assert_eq!(
                report.trace.per_walker, threaded.trace.per_walker,
                "batch_size={batch_size}"
            );
            assert_eq!(report.estimate.count(), threaded.estimate.count());
            assert_eq!(report.estimate.mean(), threaded.estimate.mean());
            assert!(report.stops.iter().all(|s| *s == crate::WalkStop::MaxSteps));
        }
    }

    #[test]
    fn reactor_interface_charges_each_unique_node_once() {
        let mut client = batch_client(BatchConfig::new(4));
        let report = WalkOrchestrator::new(4, 200, 3).run_reactor(
            &mut client,
            spread_cnrw(3),
            |v| v.index() as f64,
            &Never,
        );
        let interface = report.interface.expect("reactor reports interface stats");
        // Interface-side unique == distinct nodes fetched: every start
        // (fetched for the first step) plus every node a walker departed
        // from (a walker's final position is never fetched).
        let mut distinct: std::collections::HashSet<u32> = (0..4u32).map(|i| i * 3).collect();
        for trace in &report.trace.per_walker {
            distinct.extend(trace[..trace.len() - 1].iter().map(|v| v.0));
        }
        assert_eq!(interface.unique, distinct.len() as u64);
        assert_eq!(interface.unique, report.trace.stats.unique);
        // Walker-side accounting has serial shape: one issued query per
        // step, revisits as cache hits.
        assert_eq!(report.trace.stats.issued, 4 * 200);
        assert_eq!(
            report.trace.stats.cache_hits,
            report.trace.stats.issued - report.trace.stats.unique
        );
    }

    #[test]
    fn reactor_budget_terminates_walkers_cleanly() {
        let g = barbell(12, 12).unwrap();
        let mut client = SimulatedBatchOsn::configured(
            SimulatedOsn::from_graph(g),
            BatchConfig::new(4),
            Some(9),
        );
        let report = WalkOrchestrator::new(4, 10_000, 1).run_reactor(
            &mut client,
            spread_cnrw(7),
            |v| v.index() as f64,
            &Never,
        );
        assert_eq!(
            report.interface.map(|s| s.unique),
            Some(9),
            "exactly the budget"
        );
        assert_eq!(client.remaining_budget(), Some(0));
        assert!(report.refused_nodes > 0);
        // Every walker terminated (no walker is lost in limbo) and each
        // cut-off is reported as a budget stop.
        assert!(report
            .stops
            .iter()
            .all(|s| *s == crate::WalkStop::BudgetExhausted));
    }

    #[test]
    fn single_walker_threaded_equals_shared_budgeted_serial_run() {
        // K = 1 closes the loop: the threaded backend on a 64-stripe cache
        // is bit-identical to the same walk driven serially against the
        // old single-lock configuration, budget cut-off included.
        let g = barbell(9, 9).unwrap();
        let budget = 12;
        let orch = WalkOrchestrator::new(1, 5_000, 33);

        let striped = SharedOsn::configured(SimulatedOsn::from_graph(g.clone()), 64, Some(budget));
        let parallel = orch.run_threaded(
            &striped,
            |_, b| Box::new(Cnrw::with_backend(NodeId(0), b)),
            |_| 1.0,
            &Never,
        );

        let single = SharedOsn::configured(SimulatedOsn::from_graph(g), 1, Some(budget));
        let mut client = single.clone();
        let mut walker = Cnrw::new(NodeId(0));
        let mut rng = ChaCha12Rng::seed_from_u64(orch.walker_seed(0));
        let mut serial = Vec::new();
        for _ in 0..5_000 {
            match walker.step(&mut client, &mut rng) {
                Ok(v) => serial.push(v),
                Err(_) => break,
            }
        }
        assert_eq!(parallel.trace.per_walker[0], serial);
        assert_eq!(parallel.trace.stats, single.global_stats());
    }
}
