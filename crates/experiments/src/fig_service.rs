//! Service-layer figure: **multi-tenant fair-share sampling vs sequential
//! execution** at one fixed shared budget, plus a kill/resume self-check.
//!
//! A [`osn_service::SessionServer`] runs a seeded multi-tenant workload
//! (weighted tenants, mixed job shapes) against one shared batch endpoint
//! with a hard unique-query budget. The figure reports, per tenant, the
//! configured **weight share** next to the realized **charged-query
//! share** — the acceptance bar is every tenant within 10% relative —
//! together with the cache hits each tenant rode and the steps it took.
//!
//! Two arms run the *identical* job set:
//!
//! * **service** — interleaved scheduling slices under weighted fair
//!   share: every backlogged job advances, so the budget is spread across
//!   the whole fleet;
//! * **sequential** — the same scheduler with an effectively infinite
//!   slice, so each picked job runs start-to-finish alone (the
//!   one-job-at-a-time baseline): early jobs spend freely and late jobs
//!   starve once the shared budget is gone.
//!
//! Both arms share the endpoint cache, so the comparison isolates
//! *scheduling*: fleet NRMSE (root-mean-square relative estimation error
//! across all jobs; a job with no estimate scores 1.0) should be lower in
//! the service arm.
//!
//! The run also kills a third server mid-flight, snapshots it through the
//! `osn-serde` text form, resumes into a fresh endpoint, and verifies the
//! completed state is **byte-identical** to the uninterrupted service arm.

use osn_client::{BatchConfig, RateLimitConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_serde::Value;
use osn_service::traffic::{populate, TrafficConfig};
use osn_service::{JobState, ServerConfig, SessionServer};

use crate::output::{ExperimentResult, Series};

/// Configuration for the service figure.
#[derive(Clone, Debug)]
pub struct FigServiceConfig {
    /// Dataset scale for the Google Plus stand-in.
    pub scale: Scale,
    /// Simulated tenants (weights cycle through
    /// [`osn_service::traffic::WEIGHT_CYCLE`]).
    pub tenants: usize,
    /// Jobs submitted per tenant.
    pub jobs_per_tenant: usize,
    /// Shared unique-query budget all jobs contend for.
    pub budget: u64,
    /// Reactor completion events per fair-share slice.
    pub rounds_per_slice: usize,
    /// Per-walker step cap upper bound of generated jobs.
    pub max_steps: usize,
    /// Fleet-size upper bound of generated jobs.
    pub max_walkers: usize,
    /// Slices to run before killing the resume-check server.
    pub kill_after_slices: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for FigServiceConfig {
    fn default() -> Self {
        // Demand must dwarf the budget: fair share is only exact while
        // every tenant stays backlogged, so each tenant's potential steps
        // (jobs x walkers x steps) far exceeds its charged-query target.
        FigServiceConfig {
            scale: Scale::Default,
            tenants: 12,
            jobs_per_tenant: 4,
            budget: 3_000,
            rounds_per_slice: 2,
            max_steps: 600,
            max_walkers: 2,
            kill_after_slices: 120,
            seed: 0x5E41_11CE,
        }
    }
}

impl FigServiceConfig {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        FigServiceConfig {
            scale: Scale::Test,
            tenants: 3,
            jobs_per_tenant: 3,
            budget: 200,
            rounds_per_slice: 1,
            max_steps: 250,
            max_walkers: 2,
            kill_after_slices: 25,
            seed: 0x5E41_11CE,
        }
    }

    /// The endpoint both arms (and the resume check) construct: shared
    /// budget, rate limit, heterogeneous latency, whole-request and per-id
    /// failure injection — every realism knob of the batch model.
    fn endpoint(
        &self,
        network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    ) -> SimulatedBatchOsn {
        let batch = BatchConfig::new(8)
            .with_in_flight(4)
            .with_rate_limit(RateLimitConfig {
                calls_per_window: 120,
                window_secs: 1.0,
            })
            .with_latency(0.002, 0.001)
            .with_per_id_latency(0.0002)
            .with_failure_every(31)
            .with_drop_node_every(41)
            .with_seed(self.seed ^ 0xBA7C);
        SimulatedBatchOsn::configured(
            SimulatedOsn::new_shared(network.clone()),
            batch,
            Some(self.budget),
        )
    }

    fn traffic(&self) -> TrafficConfig {
        TrafficConfig::new(self.tenants, self.jobs_per_tenant)
            .with_seed(self.seed)
            .with_max_steps(self.max_steps)
            .with_max_walkers(self.max_walkers)
        // Backlogged arrivals (the default): every job is admissible at
        // t=0, the regime in which fair share is exact.
    }

    fn server(
        &self,
        network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
        rounds_per_slice: usize,
    ) -> SessionServer {
        let mut server = SessionServer::new(
            self.endpoint(network),
            ServerConfig::new().with_rounds_per_slice(rounds_per_slice),
        );
        populate(&mut server, &self.traffic());
        server
    }
}

/// Root-mean-square relative estimation error across every job; a job that
/// settled without an estimate (refused, or no usable sample) scores 1.0.
fn fleet_nrmse(server: &SessionServer) -> f64 {
    let graph = &server.network().graph;
    let mut sq_sum = 0.0;
    let mut n = 0usize;
    for id in 0..server.job_count() {
        let rel = match server.job_result(id).and_then(|r| r.estimate) {
            Some(est) => {
                let truth = server.job_spec(id).estimand.truth(graph);
                ((est - truth) / truth).abs()
            }
            None => 1.0,
        };
        sq_sum += rel * rel;
        n += 1;
    }
    (sq_sum / n as f64).sqrt()
}

/// Run the service figure: fair-share table, NRMSE comparison, resume
/// self-check.
pub fn run(config: &FigServiceConfig) -> ExperimentResult {
    let network = std::sync::Arc::new(gplus_like(config.scale, config.seed).network);

    // Service arm.
    let mut service = config.server(&network, config.rounds_per_slice);
    service.run_to_completion();

    // Sequential arm: same jobs, same budget, one job at a time.
    let mut sequential = config.server(&network, usize::MAX / 2);
    sequential.run_to_completion();

    // Kill/resume self-check against the service arm.
    let resume_ok = {
        let mut killed = config.server(&network, config.rounds_per_slice);
        for _ in 0..config.kill_after_slices {
            if !killed.step() {
                break;
            }
        }
        let text = killed
            .snapshot()
            .expect("snapshot at slice boundary")
            .to_pretty();
        let parsed = Value::parse(&text).expect("snapshot text parses");
        let mut resumed = SessionServer::resume(
            config.endpoint(&network),
            ServerConfig::new().with_rounds_per_slice(config.rounds_per_slice),
            &parsed,
        )
        .expect("snapshot resumes");
        resumed.run_to_completion();
        resumed.snapshot().expect("final snapshot").to_pretty()
            == service.snapshot().expect("final snapshot").to_pretty()
    };

    let weight_total: f64 = service.tenants().iter().map(|t| t.weight).sum();
    let charged_total: u64 = (0..service.tenants().len())
        .map(|t| service.tenant_stats(t).charged)
        .sum();
    let xs: Vec<f64> = (0..service.tenants().len()).map(|t| t as f64).collect();
    let weight_shares: Vec<f64> = service
        .tenants()
        .iter()
        .map(|t| t.weight / weight_total)
        .collect();
    let charged_shares: Vec<f64> = (0..service.tenants().len())
        .map(|t| service.tenant_stats(t).charged as f64 / charged_total as f64)
        .collect();
    let max_rel_dev = weight_shares
        .iter()
        .zip(&charged_shares)
        .map(|(w, c)| (c - w).abs() / w)
        .fold(0.0f64, f64::max);

    let refused = |server: &SessionServer| {
        (0..server.job_count())
            .filter(|&id| server.job_state(id) == JobState::Refused)
            .count()
    };
    let service_nrmse = fleet_nrmse(&service);
    let sequential_nrmse = fleet_nrmse(&sequential);

    let mut result = ExperimentResult::new(
        "fig_service",
        "Sampling-as-a-service: weighted fair-share budget scheduling across tenants — \
         charged-query shares vs configured weight shares, one shared budget",
        "Tenant",
        "Share of Charged Queries",
    )
    .with_note(format!(
        "graph: {} nodes; {} tenants x {} jobs; shared budget {}; {} events/slice",
        network.graph.node_count(),
        config.tenants,
        config.jobs_per_tenant,
        config.budget,
        config.rounds_per_slice
    ))
    .with_note(format!(
        "fair share: max relative deviation of charged share from weight share = {:.1}% \
         (acceptance bar: 10%) — {}",
        max_rel_dev * 100.0,
        if max_rel_dev <= 0.10 { "PASS" } else { "FAIL" }
    ))
    .with_note(format!(
        "fleet NRMSE at shared budget {}: service (fair-share interleaving) {:.4} vs \
         sequential (one job at a time) {:.4} — {}; sequential starved {} of {} jobs",
        config.budget,
        service_nrmse,
        sequential_nrmse,
        if service_nrmse < sequential_nrmse {
            "service wins"
        } else {
            "sequential wins"
        },
        refused(&sequential),
        sequential.job_count()
    ))
    .with_note(format!(
        "kill-at-slice-{}/resume check: completed state {} the uninterrupted run's \
         (byte-compared osn-serde snapshots)",
        config.kill_after_slices,
        if resume_ok {
            "is BYTE-IDENTICAL to"
        } else {
            "DIVERGED from"
        }
    ))
    .with_note(format!(
        "virtual time: service arm {:.2}s on the endpoint clock; endpoint charged {} unique \
         queries total",
        service.elapsed_secs(),
        charged_total
    ));

    result
        .series
        .push(Series::new("weight share", xs.clone(), weight_shares));
    result
        .series
        .push(Series::new("charged share", xs.clone(), charged_shares));
    result.series.push(Series::new(
        "cache hits ridden",
        xs.clone(),
        (0..service.tenants().len())
            .map(|t| service.tenant_stats(t).cache_hits as f64)
            .collect(),
    ));
    result.series.push(Series::new(
        "steps",
        xs,
        (0..service.tenants().len())
            .map(|t| service.tenant_stats(t).steps as f64)
            .collect(),
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_the_acceptance_bars() {
        let r = run(&FigServiceConfig::quick());
        assert_eq!(r.series.len(), 4);
        let weight = r.series_by_label("weight share").unwrap();
        let charged = r.series_by_label("charged share").unwrap();
        assert_eq!(weight.len(), charged.len());
        // Fair share: every tenant within 10% relative of its weight share.
        for (w, c) in weight.y.iter().zip(&charged.y) {
            let rel = (c - w).abs() / w;
            assert!(rel <= 0.10, "charged share {c:.3} vs weight share {w:.3}");
        }
        // The resume self-check must report byte-identity, and the NRMSE
        // comparison must favor the fair-share service arm.
        assert!(
            r.notes.iter().any(|n| n.contains("BYTE-IDENTICAL")),
            "resume check failed: {:?}",
            r.notes
        );
        assert!(
            r.notes.iter().any(|n| n.contains("service wins")),
            "service arm should beat sequential at a shared budget: {:?}",
            r.notes
        );
    }
}
