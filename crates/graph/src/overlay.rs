//! Delta overlay over the immutable snapshot: evolving graphs without
//! rebuilding the CSR.
//!
//! Real OSNs mutate while a walker runs. The workspace's substrate —
//! [`CsrGraph`] — is deliberately immutable (every backend's determinism
//! rests on it), so evolution is modeled as a **layer**, not an edit:
//!
//! * [`DeltaOverlay`] — a timestamped edge insert/delete mutation log plus
//!   per-node **patch lists**. A node whose neighborhood was never touched
//!   is served straight from the base snapshot (zero-cost passthrough); a
//!   touched node is served from its materialized patch list, kept sorted
//!   and deduplicated exactly like a CSR slice, so callers cannot tell the
//!   two apart. Lookup is `O(1)` either way; applying one mutation costs
//!   `O(k_v)` to (re)materialize the endpoints' lists.
//! * [`MutationSchedule`] — a deterministic, seeded, timestamped mutation
//!   plan replayed against a virtual clock (`due(now)` drains every event
//!   with `at <= now`), with an explicit cursor so snapshot/resume can
//!   continue a half-played schedule bit-identically.
//! * [`AdjacencyRead`] / [`AdjacencySnapshot`] — the trait pair that routes
//!   the overlay generically over the undirected [`CsrGraph`], the directed
//!   [`DirectedCsr`](crate::directed::DirectedCsr), and the compressed
//!   [`CompactCsr`](crate::compact::CompactCsr): a mutation on a symmetric
//!   snapshot patches both endpoints, on an asymmetric one only the
//!   source's out-list. Slice-backed bases implement both traits and get
//!   the zero-copy [`DeltaOverlay::neighbors`] read path; compressed bases
//!   implement only [`AdjacencyRead`] and combine
//!   [`DeltaOverlay::patched`] with their own decode cache.
//!
//! The conceptual template is incremental view maintenance (DBSP Z-sets /
//! Gupta–Mumick): downstream state — circulation histories in `osn-walks`,
//! the ratio-estimator accumulators in `osn-estimate` — is *corrected* for
//! each delta instead of being rebuilt, and the differential test gate
//! (`tests/overlay_props.rs`) pins the overlay's view to a freshly rebuilt
//! snapshot of the mutated graph, bit for bit.

use crate::fnv::FnvHashMap;
use crate::mix::splitmix64_stream;
use crate::{CsrGraph, NodeId, Result};

/// What one mutation does to the edge (or arc) `u → v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationOp {
    /// Add the edge; a no-op if it already exists.
    Insert,
    /// Remove the edge; a no-op if it does not exist.
    Delete,
}

/// One timestamped edge mutation.
///
/// On a symmetric snapshot (undirected [`CsrGraph`]) this mutates the edge
/// `{u, v}`; on an asymmetric one ([`DirectedCsr`](crate::directed::DirectedCsr))
/// only the arc `u → v`. Self-loops are rejected at application time — the
/// substrate models simple graphs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeMutation {
    /// Virtual-clock instant at which the mutation takes effect.
    pub at: f64,
    /// Source endpoint.
    pub u: NodeId,
    /// Target endpoint.
    pub v: NodeId,
    /// Insert or delete.
    pub op: MutationOp,
}

impl EdgeMutation {
    /// Convenience constructor for an insert at time `at`.
    pub fn insert(at: f64, u: NodeId, v: NodeId) -> Self {
        EdgeMutation {
            at,
            u,
            v,
            op: MutationOp::Insert,
        }
    }

    /// Convenience constructor for a delete at time `at`.
    pub fn delete(at: f64, u: NodeId, v: NodeId) -> Self {
        EdgeMutation {
            at,
            u,
            v,
            op: MutationOp::Delete,
        }
    }
}

/// A static adjacency the [`DeltaOverlay`] can layer on, whether or not its
/// neighbor lists exist in memory as plain slices.
///
/// The overlay itself is representation-agnostic: it needs the node count,
/// per-node degrees and (decoded) neighbor lists, and one bit of semantics —
/// whether the relation is symmetric (an undirected edge patches both
/// endpoints) or not (a directed arc patches only its source's out-list).
/// Uncompressed snapshots additionally implement [`AdjacencySnapshot`],
/// which upgrades neighbor access to borrowed slices; compressed ones
/// ([`CompactCsr`](crate::compact::CompactCsr)) stop at this trait and serve
/// reads through a decode iterator / scratch cache instead.
pub trait AdjacencyRead {
    /// Whether `u ∈ N(v) ⇔ v ∈ N(u)` (undirected). Drives how a mutation
    /// `{u, v}` is patched: both endpoints when `true`, only `u` otherwise.
    const SYMMETRIC: bool;

    /// Number of nodes (ids `0..n`).
    fn node_count(&self) -> usize;

    /// Degree of `v` (out-degree for a directed snapshot).
    fn read_degree(&self, v: NodeId) -> usize;

    /// Append the sorted, duplicate-free adjacency of `v` to `out`
    /// (out-neighbors for a directed snapshot).
    fn push_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>);

    /// Whether the arc `u → v` exists in the base (ignoring any overlay).
    fn contains_arc(&self, u: NodeId, v: NodeId) -> bool {
        let mut scratch = Vec::with_capacity(self.read_degree(u));
        self.push_neighbors(u, &mut scratch);
        scratch.binary_search(&v).is_ok()
    }

    /// Materialize a fresh snapshot of the mutated graph: the overlay's
    /// view, compiled back into this representation. The differential test
    /// gate compares walks over the overlay against walks over this.
    ///
    /// # Errors
    /// Propagates construction errors of the concrete representation (e.g.
    /// a mutation batch that deletes every edge of every node of a
    /// [`CsrGraph`] still succeeds — the node set never changes — so in
    /// practice this only fails on an empty base).
    fn rebuilt(&self, overlay: &DeltaOverlay) -> Result<Self>
    where
        Self: Sized;
}

/// An [`AdjacencyRead`] whose neighbor lists are resident plain slices,
/// borrowable at zero cost. The overlay's hot read path
/// ([`DeltaOverlay::neighbors`]) requires this; compressed representations
/// route through [`DeltaOverlay::patched`] + their own decode cache.
pub trait AdjacencySnapshot: AdjacencyRead {
    /// The sorted, duplicate-free adjacency slice of `v` (out-neighbors for
    /// a directed snapshot).
    fn neighbor_slice(&self, v: NodeId) -> &[NodeId];
}

impl AdjacencyRead for CsrGraph {
    const SYMMETRIC: bool = true;

    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn read_degree(&self, v: NodeId) -> usize {
        self.degree(v)
    }

    fn push_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.extend_from_slice(self.neighbors(v));
    }

    fn contains_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.has_edge(u, v)
    }

    fn rebuilt(&self, overlay: &DeltaOverlay) -> Result<Self> {
        let n = CsrGraph::node_count(self);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut neighbors = Vec::new();
        for v in self.nodes() {
            neighbors.extend_from_slice(overlay.neighbors(self, v));
            offsets.push(neighbors.len() as u64);
        }
        CsrGraph::from_parts(offsets, neighbors)
    }
}

impl AdjacencySnapshot for CsrGraph {
    fn neighbor_slice(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }
}

/// Per-node patch lists plus the applied-mutation log (see module docs).
///
/// The overlay does **not** own the base snapshot: every method takes it as
/// an argument, which keeps the overlay cheap to clone/serialize and lets
/// one `Arc`'d snapshot back many overlays. All calls on one overlay must
/// pass the same base it was populated against.
///
/// ```
/// use osn_graph::{DeltaOverlay, EdgeMutation, GraphBuilder, NodeId};
///
/// let base = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).build().unwrap();
/// let mut overlay = DeltaOverlay::new();
/// overlay.apply(&base, EdgeMutation::insert(0.5, NodeId(0), NodeId(2)));
/// assert_eq!(overlay.neighbors(&base, NodeId(0)), &[NodeId(1), NodeId(2)]);
/// // Node 1 was never touched: served from the base slice, zero overhead.
/// assert_eq!(overlay.neighbors(&base, NodeId(1)), base.neighbors(NodeId(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DeltaOverlay {
    /// Materialized sorted adjacency for touched nodes only.
    patches: FnvHashMap<u32, Vec<NodeId>>,
    /// Every *effective* mutation applied, in application order.
    log: Vec<EdgeMutation>,
}

impl DeltaOverlay {
    /// New overlay with no deltas: every read passes through to the base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replay a previously recorded log against `base` — the restore side
    /// of snapshot/resume. The result is identical to the overlay that
    /// produced the log.
    pub fn from_log<G: AdjacencyRead>(base: &G, log: &[EdgeMutation]) -> Self {
        let mut overlay = Self::new();
        for &m in log {
            overlay.apply(base, m);
        }
        overlay
    }

    /// Whether any node is patched.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Number of patched (touched) nodes.
    pub fn patched_nodes(&self) -> usize {
        self.patches.len()
    }

    /// Every effective mutation applied so far, in application order —
    /// the serialization surface for snapshot/resume.
    pub fn log(&self) -> &[EdgeMutation] {
        &self.log
    }

    /// The touched node ids, sorted (deterministic iteration order for
    /// rebuilds, invalidation sweeps, and tests).
    pub fn touched_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.patches.keys().map(|&v| NodeId(v)).collect();
        nodes.sort_unstable();
        nodes
    }

    /// Approximate heap footprint of the patch lists and log, in bytes —
    /// the soak harness's memory-bound witness.
    pub fn heap_bytes(&self) -> usize {
        self.patches
            .values()
            .map(|p| {
                std::mem::size_of::<Vec<NodeId>>() + p.capacity() * std::mem::size_of::<NodeId>()
            })
            .sum::<usize>()
            + self.log.capacity() * std::mem::size_of::<EdgeMutation>()
    }

    /// The adjacency of `v` at the overlay's current virtual time: the
    /// patch list when `v` was touched, the base slice otherwise. Sorted
    /// and duplicate-free in both cases.
    ///
    /// Requires a slice-backed base; over a compressed base use
    /// [`patched`](Self::patched) and fall back to the base's own decode
    /// path (see `osn-client`'s compact topology).
    pub fn neighbors<'a, G: AdjacencySnapshot>(&'a self, base: &'a G, v: NodeId) -> &'a [NodeId] {
        match self.patches.get(&v.0) {
            Some(patch) => patch,
            None => base.neighbor_slice(v),
        }
    }

    /// The patch list of `v`, if this overlay touched it. `None` means the
    /// base adjacency is current — the representation-agnostic read path.
    pub fn patched(&self, v: NodeId) -> Option<&[NodeId]> {
        self.patches.get(&v.0).map(Vec::as_slice)
    }

    /// Degree of `v` under the overlay.
    pub fn degree<G: AdjacencyRead>(&self, base: &G, v: NodeId) -> usize {
        match self.patches.get(&v.0) {
            Some(patch) => patch.len(),
            None => base.read_degree(v),
        }
    }

    /// Whether the edge (arc) `u → v` exists under the overlay.
    pub fn has_edge<G: AdjacencyRead>(&self, base: &G, u: NodeId, v: NodeId) -> bool {
        match self.patches.get(&u.0) {
            Some(patch) => patch.binary_search(&v).is_ok(),
            None => base.contains_arc(u, v),
        }
    }

    /// Apply one mutation. Returns `true` when the topology actually
    /// changed (the edge was absent for an insert / present for a delete
    /// and the endpoints are in range and distinct); ineffective mutations
    /// change nothing and are kept out of the log.
    pub fn apply<G: AdjacencyRead>(&mut self, base: &G, m: EdgeMutation) -> bool {
        let n = base.node_count();
        if m.u == m.v || m.u.index() >= n || m.v.index() >= n {
            return false;
        }
        let present = self.has_edge(base, m.u, m.v);
        let effective = match m.op {
            MutationOp::Insert => !present,
            MutationOp::Delete => present,
        };
        if !effective {
            return false;
        }
        self.patch(base, m.u, m.v, m.op);
        if G::SYMMETRIC {
            self.patch(base, m.v, m.u, m.op);
        }
        self.log.push(m);
        true
    }

    /// Apply a batch in order; returns the sorted, deduplicated set of
    /// nodes whose adjacency actually changed — exactly the set whose
    /// walker circulation state must be invalidated.
    pub fn apply_batch<G: AdjacencyRead>(
        &mut self,
        base: &G,
        batch: &[EdgeMutation],
    ) -> Vec<NodeId> {
        let mut touched = Vec::new();
        for &m in batch {
            if self.apply(base, m) {
                touched.push(m.u);
                if G::SYMMETRIC {
                    touched.push(m.v);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// (Re)materialize `from`'s patch list and edit `to` into/out of it.
    fn patch<G: AdjacencyRead>(&mut self, base: &G, from: NodeId, to: NodeId, op: MutationOp) {
        let patch = self.patches.entry(from.0).or_insert_with(|| {
            let mut list = Vec::with_capacity(base.read_degree(from) + 1);
            base.push_neighbors(from, &mut list);
            list
        });
        match (op, patch.binary_search(&to)) {
            (MutationOp::Insert, Err(i)) => patch.insert(i, to),
            (MutationOp::Delete, Ok(i)) => {
                patch.remove(i);
            }
            // `apply` established effectiveness on one endpoint; the other
            // endpoint of a symmetric snapshot agrees by the symmetry
            // invariant, so these arms are unreachable in practice.
            _ => {}
        }
    }
}

/// Seeded generation parameters for [`MutationSchedule::generate`].
#[derive(Clone, Copy, Debug)]
pub struct ScheduleSpec {
    /// Number of mutation events to generate.
    pub events: usize,
    /// Timestamps are drawn uniformly from `[0, horizon_secs)` and sorted.
    pub horizon_secs: f64,
    /// Fraction of events that delete an existing edge (the rest insert a
    /// currently-absent one). Clamped to `[0, 1]`.
    pub delete_fraction: f64,
    /// Seed of the deterministic generation stream.
    pub seed: u64,
}

impl Default for ScheduleSpec {
    fn default() -> Self {
        ScheduleSpec {
            events: 32,
            horizon_secs: 1.0,
            delete_fraction: 0.5,
            seed: 0,
        }
    }
}

impl ScheduleSpec {
    /// Spec with `events` events over `horizon_secs`, seeded by `seed`.
    pub fn new(events: usize, horizon_secs: f64, seed: u64) -> Self {
        ScheduleSpec {
            events,
            horizon_secs: horizon_secs.max(0.0),
            delete_fraction: 0.5,
            seed,
        }
    }

    /// Set the delete fraction (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_delete_fraction(mut self, f: f64) -> Self {
        self.delete_fraction = f.clamp(0.0, 1.0);
        self
    }
}

/// A deterministic timestamped mutation plan with a replay cursor.
///
/// Events are held sorted by timestamp; [`due`](Self::due) drains every
/// event with `at <= now` and advances the cursor, so driving the schedule
/// off a virtual clock (the reactor) or a step counter mapped to time
/// (single-walk loops) replays the identical mutation sequence. The
/// cursor is exported/imported for snapshot/resume.
#[derive(Clone, Debug, Default)]
pub struct MutationSchedule {
    events: Vec<EdgeMutation>,
    cursor: usize,
}

impl MutationSchedule {
    /// Build from explicit events (stably sorted by timestamp).
    pub fn from_events(mut events: Vec<EdgeMutation>) -> Self {
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        MutationSchedule { events, cursor: 0 }
    }

    /// Generate a seeded schedule against `base`: every event is
    /// *effective* at its point in the replay (deletes hit an edge that
    /// exists then, inserts an edge absent then), so `apply_batch` over the
    /// full schedule touches `2 × events` endpoint slots on an undirected
    /// base. Fully deterministic in `spec.seed`.
    pub fn generate(base: &CsrGraph, spec: &ScheduleSpec) -> Self {
        let n = base.node_count() as u64;
        let mut stream = 0u64;
        let mut next = || {
            stream += 1;
            splitmix64_stream(spec.seed, stream)
        };
        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;

        // Sorted uniform timestamps over the horizon.
        let mut times: Vec<f64> = (0..spec.events)
            .map(|_| unit(next()) * spec.horizon_secs)
            .collect();
        times.sort_by(f64::total_cmp);

        // Track the evolving edge set so every event is effective.
        let mut scratch = DeltaOverlay::new();
        let mut edges: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.0, v.0)).collect();
        let mut events = Vec::with_capacity(spec.events);
        for at in times {
            let delete = !edges.is_empty() && unit(next()) < spec.delete_fraction;
            if delete {
                let i = (next() % edges.len() as u64) as usize;
                let (u, v) = edges.swap_remove(i);
                let m = EdgeMutation::delete(at, NodeId(u), NodeId(v));
                scratch.apply(base, m);
                events.push(m);
            } else {
                // Rejection-sample an absent, non-loop pair (bounded: give
                // up after a fixed number of tries on near-complete graphs).
                let mut placed = false;
                for _ in 0..64 {
                    let u = (next() % n) as u32;
                    let v = (next() % n) as u32;
                    if u == v || scratch.has_edge(base, NodeId(u), NodeId(v)) {
                        continue;
                    }
                    let m = EdgeMutation::insert(at, NodeId(u), NodeId(v));
                    scratch.apply(base, m);
                    events.push(m);
                    edges.push((u, v));
                    placed = true;
                    break;
                }
                if !placed && !edges.is_empty() {
                    let i = (next() % edges.len() as u64) as usize;
                    let (u, v) = edges.swap_remove(i);
                    let m = EdgeMutation::delete(at, NodeId(u), NodeId(v));
                    scratch.apply(base, m);
                    events.push(m);
                }
            }
        }
        MutationSchedule { events, cursor: 0 }
    }

    /// All events, sorted by timestamp.
    pub fn events(&self) -> &[EdgeMutation] {
        &self.events
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet drained by [`due`](Self::due).
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// The replay cursor (events already drained) — exported by
    /// snapshot/resume.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Restore a cursor exported by [`cursor`](Self::cursor).
    ///
    /// # Errors
    /// When `cursor` exceeds the event count.
    pub fn set_cursor(&mut self, cursor: usize) -> std::result::Result<(), String> {
        if cursor > self.events.len() {
            return Err(format!(
                "schedule cursor {cursor} out of range for {} event(s)",
                self.events.len()
            ));
        }
        self.cursor = cursor;
        Ok(())
    }

    /// Timestamp of the next undrained event, `None` when exhausted.
    pub fn peek_next_at(&self) -> Option<f64> {
        self.events.get(self.cursor).map(|m| m.at)
    }

    /// Drain every event with `at <= now`, in timestamp order, advancing
    /// the cursor past them. Idempotent for a non-advancing clock.
    pub fn due(&mut self, now: f64) -> &[EdgeMutation] {
        let start = self.cursor;
        let mut end = start;
        while end < self.events.len() && self.events[end].at <= now {
            end += 1;
        }
        self.cursor = end;
        &self.events[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> CsrGraph {
        // 0 - 1 - 2 - 3
        GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn untouched_nodes_pass_through() {
        let g = path4();
        let overlay = DeltaOverlay::new();
        for v in g.nodes() {
            // Identical pointers, not just identical contents.
            assert!(std::ptr::eq(overlay.neighbors(&g, v), g.neighbors(v)));
        }
        assert!(overlay.is_empty());
        assert_eq!(overlay.patched_nodes(), 0);
    }

    #[test]
    fn insert_and_delete_patch_both_endpoints() {
        let g = path4();
        let mut overlay = DeltaOverlay::new();
        assert!(overlay.apply(&g, EdgeMutation::insert(0.1, NodeId(0), NodeId(3))));
        assert_eq!(overlay.neighbors(&g, NodeId(0)), &[NodeId(1), NodeId(3)]);
        assert_eq!(overlay.neighbors(&g, NodeId(3)), &[NodeId(0), NodeId(2)]);
        assert!(overlay.apply(&g, EdgeMutation::delete(0.2, NodeId(1), NodeId(2))));
        assert_eq!(overlay.neighbors(&g, NodeId(1)), &[NodeId(0)]);
        assert_eq!(overlay.neighbors(&g, NodeId(2)), &[NodeId(3)]);
        assert_eq!(
            overlay.touched_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(overlay.log().len(), 2);
    }

    #[test]
    fn ineffective_mutations_are_noops() {
        let g = path4();
        let mut overlay = DeltaOverlay::new();
        // Duplicate insert, absent delete, self-loop, out of range.
        assert!(!overlay.apply(&g, EdgeMutation::insert(0.0, NodeId(0), NodeId(1))));
        assert!(!overlay.apply(&g, EdgeMutation::delete(0.0, NodeId(0), NodeId(3))));
        assert!(!overlay.apply(&g, EdgeMutation::insert(0.0, NodeId(2), NodeId(2))));
        assert!(!overlay.apply(&g, EdgeMutation::insert(0.0, NodeId(0), NodeId(9))));
        assert!(overlay.is_empty());
        assert!(overlay.log().is_empty());
    }

    #[test]
    fn rebuilt_matches_overlay_view() {
        let g = path4();
        let mut overlay = DeltaOverlay::new();
        let batch = vec![
            EdgeMutation::insert(0.1, NodeId(0), NodeId(2)),
            EdgeMutation::delete(0.2, NodeId(2), NodeId(3)),
            EdgeMutation::insert(0.3, NodeId(1), NodeId(3)),
        ];
        let touched = overlay.apply_batch(&g, &batch);
        assert_eq!(touched, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let rebuilt = g.rebuilt(&overlay).unwrap();
        assert_eq!(rebuilt.node_count(), g.node_count());
        for v in g.nodes() {
            assert_eq!(overlay.neighbors(&g, v), rebuilt.neighbors(v), "node {v}");
        }
        assert_eq!(rebuilt.edge_count(), 4);
    }

    #[test]
    fn from_log_replays_identically() {
        let g = path4();
        let mut overlay = DeltaOverlay::new();
        overlay.apply(&g, EdgeMutation::insert(0.1, NodeId(0), NodeId(2)));
        overlay.apply(&g, EdgeMutation::delete(0.5, NodeId(0), NodeId(2)));
        overlay.apply(&g, EdgeMutation::insert(0.9, NodeId(1), NodeId(3)));
        let replayed = DeltaOverlay::from_log(&g, overlay.log());
        for v in g.nodes() {
            assert_eq!(replayed.neighbors(&g, v), overlay.neighbors(&g, v));
        }
        assert_eq!(replayed.log(), overlay.log());
    }

    #[test]
    fn insert_then_delete_round_trips_topology() {
        let g = path4();
        let mut overlay = DeltaOverlay::new();
        overlay.apply(&g, EdgeMutation::insert(0.1, NodeId(0), NodeId(3)));
        overlay.apply(&g, EdgeMutation::delete(0.2, NodeId(0), NodeId(3)));
        // Patched (no longer passthrough) but content-identical to base.
        for v in g.nodes() {
            assert_eq!(overlay.neighbors(&g, v), g.neighbors(v));
        }
        assert!(overlay.heap_bytes() > 0);
    }

    #[test]
    fn schedule_generation_is_deterministic_and_effective() {
        let g = path4();
        let spec = ScheduleSpec::new(16, 2.0, 42);
        let a = MutationSchedule::generate(&g, &spec);
        let b = MutationSchedule::generate(&g, &spec);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.len(), 16);
        // Timestamps sorted within the horizon.
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.events().iter().all(|m| (0.0..2.0).contains(&m.at)));
        // Every event is effective when replayed in order.
        let mut overlay = DeltaOverlay::new();
        for &m in a.events() {
            assert!(overlay.apply(&g, m), "generated event must be effective");
        }
    }

    #[test]
    fn due_drains_by_timestamp_and_cursor_restores() {
        let mut s = MutationSchedule::from_events(vec![
            EdgeMutation::insert(0.5, NodeId(0), NodeId(2)),
            EdgeMutation::insert(0.1, NodeId(1), NodeId(3)),
            EdgeMutation::delete(0.9, NodeId(0), NodeId(1)),
        ]);
        assert_eq!(s.peek_next_at(), Some(0.1));
        assert_eq!(s.due(0.0), &[]);
        let first = s.due(0.6).to_vec();
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|m| m.at <= 0.6));
        assert_eq!(s.remaining(), 1);
        let cursor = s.cursor();

        let mut resumed = MutationSchedule::from_events(s.events().to_vec());
        resumed.set_cursor(cursor).unwrap();
        assert_eq!(resumed.due(10.0), s.due(10.0));
        assert_eq!(resumed.remaining(), 0);
        assert!(resumed.set_cursor(99).is_err());
    }

    #[test]
    fn delete_fraction_extremes() {
        let g = GraphBuilder::new()
            .with_nodes(12)
            .extend_edges((0..11u32).map(|i| (i, i + 1)))
            .build()
            .unwrap();
        let all_deletes =
            MutationSchedule::generate(&g, &ScheduleSpec::new(8, 1.0, 7).with_delete_fraction(1.0));
        assert!(all_deletes
            .events()
            .iter()
            .all(|m| m.op == MutationOp::Delete));
        let all_inserts =
            MutationSchedule::generate(&g, &ScheduleSpec::new(8, 1.0, 7).with_delete_fraction(0.0));
        assert!(all_inserts
            .events()
            .iter()
            .all(|m| m.op == MutationOp::Insert));
    }
}
