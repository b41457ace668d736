//! The unified walk orchestrator: **one execution core** behind every
//! multi-walker run in this workspace.
//!
//! [`WalkOrchestrator`] owns the fleet spec (size, step cap, seed, history
//! backend) and the per-step bookkeeping — trace recording, estimator
//! pushes, stop accounting, policy observation — in this module's
//! walker-cell core. Two *execution backends* schedule steps into it:
//!
//! | Backend | Entry point | Scheduling |
//! |---|---|---|
//! | **Reactor** | [`WalkOrchestrator::run_reactor`] | poll-driven event loop on the calling thread: walkers park as [`crate::reactor::WalkerFsm`] state machines on in-flight batches of a [`BatchOsnClient`], one completion event at a time (see [`crate::reactor`]) |
//! | **Threaded** | [`WalkOrchestrator::run_threaded`] | one scoped OS thread per walker over clones of a thread-safe client (built for [`osn_client::SharedOsn`]) |
//!
//! A synchronous [`OsnClient`] fleet runs on the reactor by wrapping the
//! client in a zero-latency [`osn_client::SimulatedBatchOsn`] whose batch
//! size is the fleet size; [`crate::WalkSession`] remains the single-walk
//! loop. Every backend takes a [`RestartPolicy`]:
//!
//! * [`Never`] — the identity policy. Observation hooks are skipped
//!   entirely, so the policy-free loop costs nothing extra; traces are
//!   pinned by the golden fixtures under `tests/fixtures/`.
//! * [`WorkStealing`] — walkers publish the nodes they walk through into a
//!   lock-striped [`SharedFrontier`]; every `check_every` steps a walker
//!   whose recent window discovered nothing new (component exhausted) or
//!   whose chain the online windowed split-R̂
//!   ([`osn_estimate::WindowedSplitRhat`]) flags as the non-mixing outlier
//!   is **restarted** — via the slab-reusing [`RandomWalk::restart`] — from
//!   a frontier node discovered by another walker, instead of burning
//!   budget where coverage is saturated.
//!
//! ## Determinism
//!
//! The reactor consults the policy after every completion event, in
//! walker-index order, before the walkers that stepped are parked on their
//! next node — so a restarted walker's first fetch rides the next batch
//! like any other request (see [`BatchOsnClient::is_cached`]). Given a seed
//! the whole run, restart schedule included, is deterministic. The
//! threaded backend checks after each step on each walker's own thread:
//! per-walker traces stay scheduling-independent under [`Never`], but under
//! [`WorkStealing`] the interleaving of frontier publishes — and therefore
//! the steal outcomes — depends on thread timing.

use std::collections::VecDeque;
use std::sync::Mutex;

use osn_client::batch::{BatchNodeError, BatchOsnClient};
use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_estimate::{RatioEstimator, WindowedSplitRhat};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::circulation::HistoryBackend;
use crate::fnv::{FnvHashMap, FnvHashSet};
use crate::frontier::SharedFrontier;
use crate::multiwalk::MultiWalkTrace;
use crate::walker::RandomWalk;
use crate::WalkStop;

/// Why a [`RestartPolicy`] relocated a walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartReason {
    /// The walker's recent check window arrived at no node it had not
    /// already visited: its component (or reachable neighborhood) is
    /// exhausted and further steps only resample known territory.
    Exhausted,
    /// The online windowed split-R̂ across the fleet exceeded the threshold
    /// and flagged this walker's chain as the most deviant — it has not
    /// mixed into the territory the others agree on.
    NonMixing,
    /// The walker's next step was refused (budget exhausted / dead
    /// interface): instead of terminating, it was rescued into cached
    /// territory another walker discovered — the fleet keeps extracting
    /// samples from already-paid-for nodes.
    Refused,
}

/// One restart performed during an orchestrated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartEvent {
    /// The relocated walker.
    pub walker: usize,
    /// Steps the walker had performed when it was relocated.
    pub step: usize,
    /// The position it abandoned.
    pub from: NodeId,
    /// The stolen frontier node it restarted from.
    pub to: NodeId,
    /// What triggered the restart.
    pub reason: RestartReason,
}

/// Decides when a walker should abandon its position and where it should
/// restart. Shared by reference across walker threads in the threaded
/// backend, hence `Sync` and `&self` methods (implementations use interior
/// mutability).
pub trait RestartPolicy: Sync {
    /// Whether this policy can ever request a restart. `false` (only
    /// [`Never`] returns it) lets the drivers skip per-step observation
    /// entirely, keeping the policy-free hot loop identical to the
    /// pre-orchestrator loops.
    fn enabled(&self) -> bool {
        true
    }

    /// Called once before any step with the fleet size.
    fn begin_run(&self, _walkers: usize) {}

    /// Observe one performed step of `walker`: it departed `from` (degree
    /// `from_degree`; `from`'s neighbor list has just been fetched, so it
    /// is cached for everyone) and arrived at `to`, contributing `value` to
    /// the estimate.
    fn observe_step(
        &self,
        _walker: usize,
        _from: NodeId,
        _from_degree: usize,
        _to: NodeId,
        _value: f64,
    ) {
    }

    /// Decide whether `walker` — currently at `current` (degree
    /// `current_degree`) with `steps_done` performed steps — should restart
    /// now, and from which node. `cached(u)` reports whether `u`'s neighbor
    /// list is free to re-fetch (see [`OsnClient::is_cached`] /
    /// [`BatchOsnClient::is_cached`]); policies use it as a preference, not
    /// a filter — an uncached target simply rides the next fetch like any
    /// other request.
    fn restart_target(
        &self,
        _walker: usize,
        _steps_done: usize,
        _current: NodeId,
        _current_degree: usize,
        _cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<(NodeId, RestartReason)> {
        None
    }

    /// Called when `walker`'s step was just refused (budget exhausted or
    /// dead interface; the walker is unchanged at `current`). Returning a
    /// node **rescues** the walker — it relocates and keeps sampling
    /// (necessarily cached territory, since nothing new can be charged) —
    /// instead of terminating with [`crate::WalkStop::BudgetExhausted`].
    /// `None` (the default) keeps the classic ending.
    fn rescue_target(
        &self,
        _walker: usize,
        _steps_done: usize,
        _current: NodeId,
        _cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        None
    }

    /// Notification that the driver performed the restart it was told to.
    fn after_restart(&self, _walker: usize) {}
}

/// The identity policy: never restarts, never observes. All golden-trace
/// and cross-mode equivalence suites run under it — orchestrated runs with
/// `Never` are bit-identical to the pre-orchestrator loops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Never;

impl RestartPolicy for Never {
    fn enabled(&self) -> bool {
        false
    }
}

/// Per-walker bookkeeping of the [`WorkStealing`] policy.
#[derive(Default)]
struct WalkerDiag {
    /// Every node this walker has occupied (starts, arrivals, restart
    /// targets) — the filter that stops it from stealing its own territory.
    visited: FnvHashSet<u32>,
    /// Nodes first visited since the walker's last cadence check.
    fresh_since_check: usize,
    /// `steps_done` of the walker's last cadence check. A refused/rescued
    /// walker re-enters the next round with its step count unchanged; this
    /// keeps a pinned cadence multiple from re-firing every round.
    last_check: Option<usize>,
    /// Budget rescues performed — rotates repeated rescues across the pool.
    rescues: u64,
    /// Cadence steals performed — rotates revisit-steals across the pool.
    steals: u64,
}

/// Shared interior state of [`WorkStealing`], sized by
/// [`RestartPolicy::begin_run`].
struct StealDiag {
    window: WindowedSplitRhat,
    walkers: Vec<WalkerDiag>,
}

/// Work-stealing frontier restarts (the ROADMAP's named next step, built on
/// the paper's \[17\] — see [`crate::frontier`]).
///
/// Walkers publish every node they depart from into the shared
/// [`frontier`](Self::frontier) pool (each lock stripe retains its
/// highest-degree candidates). Every [`check_every`](Self::check_every)
/// steps, a walker is relocated to a frontier node discovered by *another*
/// walker when either trigger fires:
///
/// * **exhausted** — its last `check_every` steps visited no new node;
/// * **non-mixing** — the online windowed split-R̂ over the fleet's recent
///   value windows exceeds [`rhat_threshold`](Self::rhat_threshold) *and*
///   this walker's window is the most deviant chain.
///
/// Cadence steals are **degree-ascending**: the stolen node must be
/// strictly better connected than where the walker stands (the frontier
/// sampler's degree-proportional steering, hardened into a filter), so a
/// walker that already sits in well-connected territory is never dragged
/// into a worse-connected pocket another walker happened to publish.
///
/// A third trigger needs no cadence: when a walker's step is **refused**
/// (unique-query budget exhausted), the policy *rescues* it into any
/// unvisited frontier territory instead of letting it terminate — once the
/// budget is spent, every published node is cached, so the rescued walker
/// keeps converting already-paid-for queries into samples at zero cost.
///
/// Relocation goes through the slab-reusing [`RandomWalk::restart`], so a
/// restarted CNRW/GNRW walker keeps its arena capacity. If no other walker
/// has published territory the candidate has not already visited, the
/// walker keeps walking (or, for a refused step, terminates classically) —
/// stealing never falls back to random teleports, which would break the
/// "restart only into discovered, cached territory" cost argument.
///
/// One policy value drives one run at a time ([`begin_run`] resizes the
/// interior state); construct a fresh [`SharedFrontier`] per run unless you
/// *want* runs to share discovered territory.
///
/// [`begin_run`]: RestartPolicy::begin_run
pub struct WorkStealing {
    /// Windowed split-R̂ above this flags non-mixing (1.05–1.2 is typical;
    /// see [`osn_estimate::diagnostics::split_rhat`]).
    pub rhat_threshold: f64,
    /// Steps between policy checks per walker; also the diagnostic window
    /// length (clamped to at least 8, rounded down to even).
    pub check_every: usize,
    /// The shared candidate pool walkers publish into and steal from.
    pub frontier: SharedFrontier,
    diag: Mutex<StealDiag>,
}

impl WorkStealing {
    /// Policy with the given trigger threshold and cadence over a frontier
    /// pool.
    pub fn new(rhat_threshold: f64, check_every: usize, frontier: SharedFrontier) -> Self {
        let check_every = check_every.max(8) & !1;
        WorkStealing {
            rhat_threshold,
            check_every,
            frontier,
            diag: Mutex::new(StealDiag {
                window: WindowedSplitRhat::new(0, check_every),
                walkers: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StealDiag> {
        self.diag
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl RestartPolicy for WorkStealing {
    fn begin_run(&self, walkers: usize) {
        let mut d = self.lock();
        d.window = WindowedSplitRhat::new(walkers, self.check_every);
        d.walkers = (0..walkers).map(|_| WalkerDiag::default()).collect();
    }

    fn observe_step(
        &self,
        walker: usize,
        from: NodeId,
        from_degree: usize,
        to: NodeId,
        value: f64,
    ) {
        {
            let mut d = self.lock();
            d.window.push(walker, value);
            let w = &mut d.walkers[walker];
            w.visited.insert(from.0);
            if w.visited.insert(to.0) {
                w.fresh_since_check += 1;
            }
        }
        // Publish outside the diagnostic lock (the frontier has its own
        // stripes): `from`'s neighbor list was fetched by this very step,
        // so restarting there re-queries nothing.
        self.frontier.publish(from, from_degree, walker);
    }

    fn restart_target(
        &self,
        walker: usize,
        steps_done: usize,
        current: NodeId,
        current_degree: usize,
        cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<(NodeId, RestartReason)> {
        if steps_done == 0 || !steps_done.is_multiple_of(self.check_every) {
            return None;
        }
        let mut d = self.lock();
        if d.walkers[walker].last_check == Some(steps_done) {
            // Already checked at this step count (the walker's step was
            // refused and it was rescued without advancing): one check per
            // cadence window, not one per scheduling round.
            return None;
        }
        d.walkers[walker].last_check = Some(steps_done);
        let fresh = std::mem::take(&mut d.walkers[walker].fresh_since_check);
        let reason = if fresh == 0 {
            RestartReason::Exhausted
        } else {
            let verdict = d.window.evaluate()?;
            if verdict.rhat > self.rhat_threshold && verdict.most_deviant == walker {
                RestartReason::NonMixing
            } else {
                return None;
            }
        };
        // Degree-ascending: only move into strictly better-connected
        // territory than the walker currently stands in. Prefer unvisited
        // territory (taken destructively, so two stalled walkers fan out);
        // fall back to revisiting another walker's published nodes
        // non-destructively — without this, a fully-cached low-degree
        // pocket becomes an absorbing sink once everything is visited.
        let rotation = d.walkers[walker].steals;
        d.walkers[walker].steals += 1;
        let visited = &d.walkers[walker].visited;
        if let Some(entry) = self.frontier.steal(
            walker,
            current_degree + 1,
            |u| visited.contains(&u.0),
            cached,
        ) {
            return Some((entry.node, reason));
        }
        let entry = self.frontier.borrow_target(
            walker,
            current_degree + 1,
            rotation,
            |u| u == current,
            cached,
        )?;
        Some((entry.node, reason))
    }

    fn rescue_target(
        &self,
        walker: usize,
        _steps_done: usize,
        current: NodeId,
        cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        // The walker is dead where it stands: any territory another walker
        // published beats terminating (no degree bar). Prefer *unvisited*
        // territory — taken destructively, so two dying walkers fan out —
        // and fall back to revisiting published nodes non-destructively:
        // post-budget every published node is cached, so the rescued walker
        // keeps converting already-paid-for queries into samples for free.
        // The rotation spreads repeated rescues across the pool instead of
        // piling every dying walker onto one hub.
        let mut d = self.lock();
        let rotation = d.walkers[walker].rescues;
        d.walkers[walker].rescues += 1;
        let visited = &d.walkers[walker].visited;
        if let Some(entry) = self
            .frontier
            .steal(walker, 0, |u| visited.contains(&u.0), cached)
        {
            return Some(entry.node);
        }
        let entry = self
            .frontier
            .borrow_target(walker, 0, rotation, |u| u == current, cached)?;
        Some(entry.node)
    }

    fn after_restart(&self, walker: usize) {
        // The abandoned position's samples say nothing about the new
        // neighborhood: restart the walker's diagnostic window.
        self.lock().window.clear_chain(walker);
    }
}

/// Per-walker bookkeeping shared by both execution backends: the trace, the
/// running estimator, and why (if) the walker stopped. This — plus
/// [`advance_walker`] and [`maybe_restart`] below — *is* the unified
/// execution core; the drivers only schedule calls into it.
pub(crate) struct Cell {
    pub(crate) trace: Vec<NodeId>,
    pub(crate) est: RatioEstimator,
    pub(crate) stop: Option<WalkStop>,
}

impl Cell {
    /// An empty cell. The trace starts unallocated: a budgeted fleet may
    /// stop after a few steps, so preallocating `max_steps` per walker
    /// would waste memory.
    pub(crate) fn new() -> Self {
        Cell {
            trace: Vec::new(),
            est: RatioEstimator::new(),
            stop: None,
        }
    }

    pub(crate) fn live(&self, max_steps: usize) -> bool {
        self.stop.is_none() && self.trace.len() < max_steps
    }
}

/// One transition of walker `i`: step, record, observe. The single place
/// where a fleet walker meets a client — both backends funnel through here.
pub(crate) fn advance_walker<C, R, F, P>(
    i: usize,
    walker: &mut dyn RandomWalk,
    rng: &mut R,
    client: &mut C,
    value: &F,
    policy: &P,
    cell: &mut Cell,
) where
    C: OsnClient,
    R: RngCore,
    F: Fn(NodeId) -> f64 + ?Sized,
    P: RestartPolicy + ?Sized,
{
    let from = walker.current();
    match walker.step(client, rng) {
        Ok(v) => {
            let fv = value(v);
            cell.est.push(fv, client.peek_degree(v));
            if policy.enabled() {
                policy.observe_step(i, from, client.peek_degree(from), v, fv);
            }
            cell.trace.push(v);
        }
        Err(_) => cell.stop = Some(WalkStop::BudgetExhausted),
    }
}

/// Consult the policy for walker `i` and perform the restart it requests,
/// recording the event. `degree_of` supplies the walker's current degree
/// (free listing metadata) for the policy's degree-ascending steal filter.
pub(crate) fn maybe_restart<P>(
    i: usize,
    walker: &mut dyn RandomWalk,
    cell: &Cell,
    policy: &P,
    degree_of: &dyn Fn(NodeId) -> usize,
    cached: &dyn Fn(NodeId) -> bool,
    restarts: &mut Vec<RestartEvent>,
) where
    P: RestartPolicy + ?Sized,
{
    let current = walker.current();
    if let Some((to, reason)) =
        policy.restart_target(i, cell.trace.len(), current, degree_of(current), cached)
    {
        walker.restart(to);
        policy.after_restart(i);
        restarts.push(RestartEvent {
            walker: i,
            step: cell.trace.len(),
            from: current,
            to,
            reason,
        });
    }
}

/// Offer a just-refused walker to the policy for rescue: on success its
/// stop is cleared, the relocation performed and recorded, and the walker
/// steps again from the **next** completion event (a refusal costs the
/// walker one lost event).
pub(crate) fn maybe_rescue<P>(
    i: usize,
    walker: &mut dyn RandomWalk,
    cell: &mut Cell,
    policy: &P,
    cached: &dyn Fn(NodeId) -> bool,
    restarts: &mut Vec<RestartEvent>,
) where
    P: RestartPolicy + ?Sized,
{
    if cell.stop != Some(WalkStop::BudgetExhausted) {
        return;
    }
    let current = walker.current();
    if let Some(to) = policy.rescue_target(i, cell.trace.len(), current, cached) {
        walker.restart(to);
        policy.after_restart(i);
        cell.stop = None;
        restarts.push(RestartEvent {
            walker: i,
            step: cell.trace.len(),
            from: current,
            to,
            reason: RestartReason::Refused,
        });
    }
}

/// Dispatcher-level cap on resubmissions of a node whose requests keep
/// coming back permanently dropped. Past it the node is abandoned and the
/// walkers waiting on it terminate (with a budget-style error) instead of
/// spinning forever against a dead interface.
pub const DEFAULT_NODE_ATTEMPT_CAP: u32 = 32;

/// Mutable bookkeeping shared by the reactor loop and the per-walker
/// [`PrefetchedClient`] views of one run.
#[derive(Default)]
pub(crate) struct DispatchState {
    /// Neighbor lists fetched so far (the dispatcher's shared cache).
    pub(crate) cache: FnvHashMap<u32, Vec<NodeId>>,
    /// Nodes the run will never deliver: budget-refused or abandoned.
    pub(crate) refused: FnvHashSet<u32>,
    /// Dispatcher-level resubmission counts for dropped nodes.
    pub(crate) node_attempts: FnvHashMap<u32, u32>,
    /// Nodes ever queried by any walker (walker-side unique/hit split).
    pub(crate) seen: FnvHashSet<u32>,
    /// Walker-side accounting (serial-shaped `issued`/`unique`/`hits`).
    pub(crate) stats: QueryStats,
    /// Distinct budget-refused nodes.
    pub(crate) refused_nodes: usize,
    /// Distinct nodes abandoned after the resubmission cap.
    pub(crate) abandoned_nodes: usize,
    /// The budget limit observed in refusals, so walker-facing errors
    /// report the same value a serial `BudgetedClient` would.
    pub(crate) budget_in_force: Option<u64>,
}

/// Fetch every id in `pending` through the batch endpoint: fan out in
/// window-respecting batches, resubmit drops (bounded per node by
/// `node_attempt_cap`), and record deliveries into the state's cache /
/// refusals into its refused-set.
pub(crate) fn fetch_all<B: BatchOsnClient>(
    client: &mut B,
    mut pending: VecDeque<NodeId>,
    state: &mut DispatchState,
    node_attempt_cap: u32,
) {
    let limits = client.limits();
    let mut batch: Vec<NodeId> = Vec::with_capacity(limits.max_batch_size);
    while !pending.is_empty() || client.in_flight() > 0 {
        // Fill the in-flight window with max-size batches.
        while client.in_flight() < limits.max_in_flight && !pending.is_empty() {
            batch.clear();
            while batch.len() < limits.max_batch_size {
                let Some(u) = pending.pop_front() else { break };
                batch.push(u);
            }
            client.submit(&batch).expect("window and size checked");
        }
        let Some(outcome) = client.poll() else { break };
        for (u, result) in outcome.per_node {
            match result {
                Ok(neighbors) => {
                    state.cache.insert(u.0, neighbors);
                }
                Err(BatchNodeError::Budget(e)) => {
                    // Remember the budget in force so walker-facing errors
                    // report the same value a serial `BudgetedClient` would.
                    state.budget_in_force = Some(e.budget);
                    if state.refused.insert(u.0) {
                        state.refused_nodes += 1;
                    }
                }
                Err(BatchNodeError::Dropped) => {
                    let attempts = state.node_attempts.entry(u.0).or_insert(0);
                    *attempts += 1;
                    if *attempts >= node_attempt_cap {
                        // Dead interface for this node: give up so the
                        // walkers parked on it terminate cleanly.
                        if state.refused.insert(u.0) {
                            state.abandoned_nodes += 1;
                        }
                    } else {
                        pending.push_back(u);
                    }
                }
            }
        }
    }
}

/// The per-step client view the reactor hands each walker:
/// neighbor lists come from the dispatcher cache (walker-side accounting
/// recorded), metadata peeks pass through to the endpoint for free. A query
/// for a node that was *not* prefetched (no walker in this crate issues
/// one, but the [`RandomWalk`] trait allows it) falls back to an on-demand
/// synchronous batch of one, with the same refusal/abandon bookkeeping.
pub(crate) struct PrefetchedClient<'a, B: BatchOsnClient> {
    pub(crate) client: &'a mut B,
    pub(crate) state: &'a mut DispatchState,
    pub(crate) node_attempt_cap: u32,
}

impl<B: BatchOsnClient> OsnClient for PrefetchedClient<'_, B> {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        if !self.state.cache.contains_key(&u.0) && !self.state.refused.contains(&u.0) {
            // Off-protocol query: fetch on demand through the endpoint.
            fetch_all(
                self.client,
                VecDeque::from([u]),
                self.state,
                self.node_attempt_cap,
            );
        }
        match self.state.cache.get(&u.0) {
            Some(neighbors) => {
                self.state.stats.record(self.state.seen.insert(u.0));
                Ok(neighbors)
            }
            // Refused: report the budget a serial `BudgetedClient` would
            // name. Abandoned nodes on an unbudgeted client have no honest
            // value for the trait's error type; fall back to the remaining
            // budget (0 for "the interface gave this up").
            None => Err(BudgetExhausted {
                budget: self
                    .state
                    .budget_in_force
                    .or(self.client.remaining_budget())
                    .unwrap_or(0),
            }),
        }
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.client.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.client.peek_attribute(u, name)
    }

    fn stats(&self) -> QueryStats {
        self.state.stats
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.client.remaining_budget()
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.state.cache.contains_key(&u.0) || self.client.is_cached(u)
    }
}

/// Outcome of an orchestrated run, uniform across backends.
#[derive(Clone, Debug)]
pub struct OrchestratorReport {
    /// Per-walker visit sequences plus walker-side accounting (for the
    /// reactor this is the view over its dispatcher cache — one issued
    /// query per step, revisits as cache hits; see [`Self::interface`]).
    pub trace: MultiWalkTrace,
    /// Per-walker ratio estimators merged in walker-index order.
    pub estimate: RatioEstimator,
    /// Why each walker stopped, in walker order.
    pub stops: Vec<WalkStop>,
    /// Every restart the policy performed, in schedule order (reactor) or
    /// walker-then-step order (threaded backend).
    pub restarts: Vec<RestartEvent>,
    /// Completion events the reactor processed (`0` for the threaded
    /// backend, which has no event loop).
    pub rounds: usize,
    /// Interface-side accounting of the reactor's batch endpoint (`None`
    /// for the threaded backend, whose walker-side stats *are* the
    /// interface stats).
    pub interface: Option<QueryStats>,
    /// Nodes the budget refused (reactor; each terminated the walkers
    /// parked on it).
    pub refused_nodes: usize,
    /// Nodes abandoned after repeated permanent drops (reactor).
    pub abandoned_nodes: usize,
}

impl OrchestratorReport {
    /// Fold per-walker cells into the uniform report shape: estimators
    /// merged and stops defaulted in walker-index order.
    pub(crate) fn from_cells(
        cells: Vec<Cell>,
        restarts: Vec<RestartEvent>,
        rounds: usize,
        stats: QueryStats,
    ) -> Self {
        let mut per_walker = Vec::with_capacity(cells.len());
        let mut estimate = RatioEstimator::new();
        let mut stops = Vec::with_capacity(cells.len());
        for cell in cells {
            estimate.merge(&cell.est);
            stops.push(cell.stop.unwrap_or(WalkStop::MaxSteps));
            per_walker.push(cell.trace);
        }
        OrchestratorReport {
            trace: MultiWalkTrace { per_walker, stats },
            estimate,
            stops,
            restarts,
            rounds,
            interface: None,
            refused_nodes: 0,
            abandoned_nodes: 0,
        }
    }
}

/// The unified entry point: owns the fleet size, the per-walker step cap,
/// the SplitMix64-derived per-walker RNG streams, and the history-backend
/// knob — then runs the fleet on the execution backend of your choice under
/// a [`RestartPolicy`]. See the module docs for the backend × policy
/// matrix.
///
/// ```
/// use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
/// use osn_graph::{generators::barbell, NodeId};
/// use osn_walks::orchestrator::{Never, WalkOrchestrator};
/// use osn_walks::{Cnrw, RandomWalk};
///
/// // A synchronous client as a zero-latency endpoint with one batch slot
/// // per walker.
/// let osn = SimulatedOsn::from_graph(barbell(8, 8).unwrap());
/// let mut client = SimulatedBatchOsn::configured(osn, BatchConfig::new(4), None);
/// let report = WalkOrchestrator::new(4, 200, 7).run_reactor(
///     &mut client,
///     |i, backend| {
///         Box::new(Cnrw::with_backend(NodeId(i as u32 * 3), backend)) as Box<dyn RandomWalk + Send>
///     },
///     |v| v.index() as f64,
///     &Never,
/// );
/// assert_eq!(report.trace.per_walker.len(), 4);
/// assert!(report.restarts.is_empty());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WalkOrchestrator {
    walkers: usize,
    max_steps_per_walker: usize,
    seed: u64,
    backend: HistoryBackend,
}

impl WalkOrchestrator {
    /// Orchestrate `walkers` walkers (at least 1), each performing at most
    /// `max_steps_per_walker` transitions, with RNG streams derived from
    /// `seed`.
    pub fn new(walkers: usize, max_steps_per_walker: usize, seed: u64) -> Self {
        WalkOrchestrator {
            walkers: walkers.max(1),
            max_steps_per_walker,
            seed,
            backend: HistoryBackend::default(),
        }
    }

    /// Choose the history backend handed to the walker factory (the
    /// ablation knob of the backend benches).
    #[must_use]
    pub fn with_backend(mut self, backend: HistoryBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The history backend handed to the walker factory.
    pub fn backend(&self) -> HistoryBackend {
        self.backend
    }

    /// Fleet size.
    pub fn walker_count(&self) -> usize {
        self.walkers
    }

    /// Per-walker step cap.
    pub fn max_steps_per_walker(&self) -> usize {
        self.max_steps_per_walker
    }

    /// The deterministic RNG seed for walker `i`'s private stream — the
    /// same SplitMix64 derivation every run mode in the workspace uses.
    pub fn walker_seed(&self, i: usize) -> u64 {
        osn_graph::mix::splitmix64_stream(self.seed, i as u64)
    }

    pub(crate) fn build_fleet<W>(
        &self,
        make_walker: W,
    ) -> (Vec<Box<dyn RandomWalk + Send>>, Vec<ChaCha12Rng>)
    where
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
    {
        let walkers = (0..self.walkers)
            .map(|i| make_walker(i, self.backend))
            .collect();
        let rngs = (0..self.walkers)
            .map(|i| ChaCha12Rng::seed_from_u64(self.walker_seed(i)))
            .collect();
        (walkers, rngs)
    }

    /// Run the fleet on one scoped OS thread per walker against cloned
    /// handles of a thread-safe client (built for
    /// [`osn_client::SharedOsn`]: clones share the cache, accounting, and
    /// optional atomic budget).
    ///
    /// Per-walker traces are bit-identical to single-walker replay under [`Never`]
    /// (absent a shared budget); under [`WorkStealing`] the restart
    /// schedule depends on thread interleaving — see the module docs.
    ///
    /// # Panics
    /// Propagates a panic from any walker thread after all threads joined.
    pub fn run_threaded<C, W, F, P>(
        &self,
        client: &C,
        make_walker: W,
        value: F,
        policy: &P,
    ) -> OrchestratorReport
    where
        C: OsnClient + Clone + Send,
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> + Sync,
        F: Fn(NodeId) -> f64 + Sync,
        P: RestartPolicy + ?Sized,
    {
        let max_steps = self.max_steps_per_walker;
        let backend = self.backend;
        policy.begin_run(self.walkers);
        let (cells, restarts) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.walkers)
                .map(|i| {
                    let mut client = client.clone();
                    let make_walker = &make_walker;
                    let value = &value;
                    let rng_seed = self.walker_seed(i);
                    scope.spawn(move || {
                        let mut walker = make_walker(i, backend);
                        let mut rng = ChaCha12Rng::seed_from_u64(rng_seed);
                        let mut cell = Cell::new();
                        let mut restarts = Vec::new();
                        while cell.live(max_steps) {
                            advance_walker(
                                i,
                                walker.as_mut(),
                                &mut rng,
                                &mut client,
                                value,
                                policy,
                                &mut cell,
                            );
                            if policy.enabled() {
                                let cached = |u: NodeId| client.is_cached(u);
                                if cell.stop.is_some() {
                                    maybe_rescue(
                                        i,
                                        walker.as_mut(),
                                        &mut cell,
                                        policy,
                                        &cached,
                                        &mut restarts,
                                    );
                                } else {
                                    let degree_of = |u: NodeId| client.peek_degree(u);
                                    maybe_restart(
                                        i,
                                        walker.as_mut(),
                                        &cell,
                                        policy,
                                        &degree_of,
                                        &cached,
                                        &mut restarts,
                                    );
                                }
                            }
                        }
                        (cell, restarts)
                    })
                })
                .collect();
            // Join in walker-index order: the merge order (and therefore
            // the merged floating-point sums) never depends on which thread
            // finished first.
            let mut cells = Vec::with_capacity(self.walkers);
            let mut all_restarts = Vec::new();
            for handle in handles {
                let (cell, restarts) = handle.join().expect("walker thread panicked");
                all_restarts.extend(restarts);
                cells.push(cell);
            }
            (cells, all_restarts)
        });
        OrchestratorReport::from_cells(cells, restarts, 0, client.stats())
    }

    /// The snapshot-embedded description of this orchestrator's
    /// construction-time spec, checked (not restored) at resume time:
    /// resuming requires reconstructing the *same* run.
    pub(crate) fn spec_value(&self) -> Value {
        Value::obj([
            ("walkers", Value::Uint(self.walkers as u64)),
            ("max_steps", Value::Uint(self.max_steps_per_walker as u64)),
            ("seed", Value::Uint(self.seed)),
            ("backend", Value::Str(self.backend.label().into())),
        ])
    }

    pub(crate) fn check_spec(&self, spec: &Value) -> Result<(), String> {
        let walkers: usize = spec.field("walkers")?.decode()?;
        let max_steps: usize = spec.field("max_steps")?.decode()?;
        let seed: u64 = spec.field("seed")?.decode()?;
        let backend = spec.field("backend")?.as_str()?;
        if walkers != self.walkers {
            return Err(format!(
                "orchestrator spec mismatch: snapshot has {walkers} walkers, this orchestrator {}",
                self.walkers
            ));
        }
        if max_steps != self.max_steps_per_walker {
            return Err(format!(
                "orchestrator spec mismatch: snapshot caps walkers at {max_steps} steps, this orchestrator at {}",
                self.max_steps_per_walker
            ));
        }
        if seed != self.seed {
            return Err(format!(
                "orchestrator spec mismatch: snapshot seed {seed}, this orchestrator {}",
                self.seed
            ));
        }
        if backend != self.backend.label() {
            return Err(format!(
                "orchestrator spec mismatch: snapshot backend `{backend}`, this orchestrator `{}`",
                self.backend.label()
            ));
        }
        Ok(())
    }

    /// Restore the fleet, RNG streams, and cells of a run snapshot whose
    /// `kind` the caller has already checked.
    #[allow(clippy::type_complexity)]
    pub(crate) fn resume_fleet<W>(
        &self,
        state: &Value,
        make_walker: W,
    ) -> Result<(Vec<Box<dyn RandomWalk + Send>>, Vec<ChaCha12Rng>, Vec<Cell>), String>
    where
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
    {
        self.check_spec(state.field("spec")?)?;
        let walker_states = state.field("walkers")?.as_array()?;
        let rng_states = state.field("rngs")?.as_array()?;
        let cell_states = state.field("cells")?.as_array()?;
        if walker_states.len() != self.walkers
            || rng_states.len() != self.walkers
            || cell_states.len() != self.walkers
        {
            return Err(format!(
                "snapshot fleet size mismatch: {} walker / {} rng / {} cell states for a {}-walker run",
                walker_states.len(),
                rng_states.len(),
                cell_states.len(),
                self.walkers
            ));
        }
        let mut fleet = Vec::with_capacity(self.walkers);
        for (i, ws) in walker_states.iter().enumerate() {
            let mut walker = make_walker(i, self.backend);
            walker
                .import_state(ws)
                .map_err(|e| format!("walker {i}: {e}"))?;
            fleet.push(walker);
        }
        let rngs = rng_states
            .iter()
            .map(rng_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let cells = cell_states
            .iter()
            .map(cell_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((fleet, rngs, cells))
    }
}

// ---------------------------------------------------------------------------
// Resumable runs: pause between events, snapshot the whole run to an
// `osn-serde` [`Value`], resume bit-identically — the execution substrate
// of the `osn-service` job server.
// ---------------------------------------------------------------------------

pub(crate) fn nodes_to_value(nodes: &[NodeId]) -> Value {
    Value::Arr(nodes.iter().map(|n| Value::Uint(u64::from(n.0))).collect())
}

pub(crate) fn nodes_from_value(value: &Value) -> Result<Vec<NodeId>, String> {
    value
        .as_array()?
        .iter()
        .map(|v| Ok(NodeId(v.decode::<u32>()?)))
        .collect()
}

/// Hash sets hold membership only — serialize sorted so snapshots are
/// byte-deterministic.
fn sorted_set_value(set: &FnvHashSet<u32>) -> Value {
    let mut ids: Vec<u32> = set.iter().copied().collect();
    ids.sort_unstable();
    Value::Arr(ids.into_iter().map(|u| Value::Uint(u64::from(u))).collect())
}

fn set_from_value(value: &Value) -> Result<FnvHashSet<u32>, String> {
    let mut set = FnvHashSet::default();
    for v in value.as_array()? {
        if !set.insert(v.decode::<u32>()?) {
            return Err("duplicate id in serialized set".into());
        }
    }
    Ok(set)
}

pub(crate) fn rng_to_value(rng: &ChaCha12Rng) -> Value {
    Value::Arr(rng.get_state().iter().map(|&w| Value::Uint(w)).collect())
}

pub(crate) fn rng_from_value(value: &Value) -> Result<ChaCha12Rng, String> {
    let words = value.as_array()?;
    if words.len() != 4 {
        return Err(format!("RNG state must hold 4 words, got {}", words.len()));
    }
    let mut state = [0u64; 4];
    for (slot, word) in state.iter_mut().zip(words) {
        *slot = word.decode()?;
    }
    Ok(ChaCha12Rng::from_state(state))
}

fn stop_to_value(stop: Option<WalkStop>) -> Value {
    match stop {
        None => Value::Null,
        Some(WalkStop::MaxSteps) => Value::Str("max-steps".into()),
        Some(WalkStop::BudgetExhausted) => Value::Str("budget-exhausted".into()),
    }
}

fn stop_from_value(value: &Value) -> Result<Option<WalkStop>, String> {
    match value {
        Value::Null => Ok(None),
        other => match other.as_str()? {
            "max-steps" => Ok(Some(WalkStop::MaxSteps)),
            "budget-exhausted" => Ok(Some(WalkStop::BudgetExhausted)),
            unknown => Err(format!("unknown walk stop `{unknown}`")),
        },
    }
}

pub(crate) fn cell_to_value(cell: &Cell) -> Value {
    let (weighted_sum, weight_total, count) = cell.est.parts();
    Value::obj([
        ("trace", nodes_to_value(&cell.trace)),
        (
            "est",
            Value::obj([
                ("weighted_sum", Value::Num(weighted_sum)),
                ("weight_total", Value::Num(weight_total)),
                ("count", Value::Uint(count as u64)),
            ]),
        ),
        ("stop", stop_to_value(cell.stop)),
    ])
}

pub(crate) fn cell_from_value(value: &Value) -> Result<Cell, String> {
    let est = value.field("est")?;
    Ok(Cell {
        trace: nodes_from_value(value.field("trace")?)?,
        est: RatioEstimator::from_parts(
            est.field("weighted_sum")?.decode()?,
            est.field("weight_total")?.decode()?,
            est.field("count")?.decode()?,
        ),
        stop: stop_from_value(value.field("stop")?)?,
    })
}

fn stats_to_value(stats: QueryStats) -> Value {
    Value::obj([
        ("issued", Value::Uint(stats.issued)),
        ("unique", Value::Uint(stats.unique)),
        ("cache_hits", Value::Uint(stats.cache_hits)),
    ])
}

fn stats_from_value(value: &Value) -> Result<QueryStats, String> {
    Ok(QueryStats {
        issued: value.field("issued")?.decode()?,
        unique: value.field("unique")?.decode()?,
        cache_hits: value.field("cache_hits")?.decode()?,
    })
}

pub(crate) fn dispatch_to_value(state: &DispatchState) -> Value {
    let mut cache: Vec<(&u32, &Vec<NodeId>)> = state.cache.iter().collect();
    cache.sort_unstable_by_key(|(u, _)| **u);
    let mut attempts: Vec<(&u32, &u32)> = state.node_attempts.iter().collect();
    attempts.sort_unstable_by_key(|(u, _)| **u);
    Value::obj([
        (
            "cache",
            Value::Arr(
                cache
                    .into_iter()
                    .map(|(u, neighbors)| {
                        Value::obj([
                            ("node", Value::Uint(u64::from(*u))),
                            ("neighbors", nodes_to_value(neighbors)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("refused", sorted_set_value(&state.refused)),
        (
            "attempts",
            Value::Arr(
                attempts
                    .into_iter()
                    .map(|(u, n)| {
                        Value::obj([
                            ("node", Value::Uint(u64::from(*u))),
                            ("count", Value::Uint(u64::from(*n))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("seen", sorted_set_value(&state.seen)),
        ("stats", stats_to_value(state.stats)),
        ("refused_nodes", Value::Uint(state.refused_nodes as u64)),
        ("abandoned_nodes", Value::Uint(state.abandoned_nodes as u64)),
        (
            "budget",
            match state.budget_in_force {
                Some(b) => Value::Uint(b),
                None => Value::Null,
            },
        ),
    ])
}

pub(crate) fn dispatch_from_value(value: &Value) -> Result<DispatchState, String> {
    let mut cache = FnvHashMap::default();
    for entry in value.field("cache")?.as_array()? {
        let node: u32 = entry.field("node")?.decode()?;
        let neighbors = nodes_from_value(entry.field("neighbors")?)?;
        if cache.insert(node, neighbors).is_some() {
            return Err(format!("duplicate cache entry for node {node}"));
        }
    }
    let mut node_attempts = FnvHashMap::default();
    for entry in value.field("attempts")?.as_array()? {
        let node: u32 = entry.field("node")?.decode()?;
        let count: u32 = entry.field("count")?.decode()?;
        if node_attempts.insert(node, count).is_some() {
            return Err(format!("duplicate attempt entry for node {node}"));
        }
    }
    Ok(DispatchState {
        cache,
        refused: set_from_value(value.field("refused")?)?,
        node_attempts,
        seen: set_from_value(value.field("seen")?)?,
        stats: stats_from_value(value.field("stats")?)?,
        refused_nodes: value.field("refused_nodes")?.decode()?,
        abandoned_nodes: value.field("abandoned_nodes")?.decode()?,
        budget_in_force: match value.field("budget")? {
            Value::Null => None,
            other => Some(other.decode()?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walkers::{Cnrw, Srw};
    use osn_client::batch::{BatchConfig, SimulatedBatchOsn};
    use osn_client::SimulatedOsn;
    use osn_graph::generators::{barbell, clustered_cliques, ClusteredCliquesConfig};

    fn clustered_client() -> SimulatedOsn {
        SimulatedOsn::from_graph(
            clustered_cliques(&ClusteredCliquesConfig::default()).expect("static config"),
        )
    }

    /// A synchronous client as a zero-latency endpoint with one batch slot
    /// per walker: every wave of the fleet fits one request.
    fn endpoint(osn: SimulatedOsn, walkers: usize, budget: Option<u64>) -> SimulatedBatchOsn {
        SimulatedBatchOsn::configured(osn, BatchConfig::new(walkers), budget)
    }

    #[test]
    fn work_stealing_restarts_trapped_walkers_deterministically() {
        // All walkers clumped in the 10-clique of the clustered graph: the
        // small clique is exhausted within a few dozen steps, and the only
        // way out (short of the sparse bridges) is stealing territory a
        // luckier walker published.
        let run = || {
            let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
            let mut client = endpoint(clustered_client(), 4, None);
            let report = WalkOrchestrator::new(4, 400, 5).run_reactor(
                &mut client,
                |i, b| Box::new(Cnrw::with_backend(NodeId(i as u32 % 10), b)) as _,
                |v| v.index() as f64,
                &policy,
            );
            (report.restarts.clone(), report.trace.per_walker.clone())
        };
        let (restarts_a, traces_a) = run();
        let (restarts_b, traces_b) = run();
        assert_eq!(restarts_a, restarts_b, "restart schedule must be seeded");
        assert_eq!(traces_a, traces_b);
        assert!(
            !restarts_a.is_empty(),
            "clumped starts on the clustered graph must trigger stealing"
        );
        // Restart targets were published territory: visited by some walker.
        let visited: std::collections::HashSet<u32> = traces_a
            .iter()
            .flatten()
            .map(|v| v.0)
            .chain((0..4u32).map(|i| i % 10))
            .collect();
        for e in &restarts_a {
            assert!(
                visited.contains(&e.to.0),
                "stolen node {:?} never visited",
                e.to
            );
        }
    }

    #[test]
    fn stealing_beats_never_on_coverage_with_clumped_starts() {
        let coverage = |steal: bool| {
            let policy: Box<dyn RestartPolicy> = if steal {
                Box::new(WorkStealing::new(
                    1.1,
                    16,
                    SharedFrontier::with_stripes(8, 16),
                ))
            } else {
                Box::new(Never)
            };
            let mut client = endpoint(clustered_client(), 4, None);
            let report = WalkOrchestrator::new(4, 500, 3).run_reactor(
                &mut client,
                |i, b| Box::new(Cnrw::with_backend(NodeId(i as u32 % 10), b)) as _,
                |v| v.index() as f64,
                policy.as_ref(),
            );
            report
                .trace
                .pooled()
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(
            coverage(true) >= coverage(false),
            "stealing must not reduce pooled coverage"
        );
    }

    #[test]
    fn budget_stops_are_reported_per_walker() {
        let mut client = endpoint(
            SimulatedOsn::from_graph(barbell(10, 10).unwrap()),
            2,
            Some(6),
        );
        let report = WalkOrchestrator::new(2, 10_000, 1).run_reactor(
            &mut client,
            |i, _| Box::new(Srw::new(NodeId(i as u32))) as _,
            |_| 1.0,
            &Never,
        );
        assert!(report.stops.iter().all(|s| *s == WalkStop::BudgetExhausted));
        assert!(report.trace.stats.unique <= 6);
    }

    #[test]
    fn never_policy_is_inert_and_object_safe() {
        let policy: &dyn RestartPolicy = &Never;
        assert!(!policy.enabled());
        assert_eq!(policy.restart_target(0, 64, NodeId(0), 3, &|_| true), None);
        assert_eq!(policy.rescue_target(0, 64, NodeId(0), &|_| true), None);
    }
}
