//! Spans and counts recorded from the benchmark's own code, around the
//! calls it makes into each layer's public functions.
//!
//! A span has a name (`layer.operation`), a start, an end, the span that
//! caused it, and the request (trial, walker fleet, job slice) it served.
//! Every span feeds a per-name aggregate (count, total and self time); the
//! first [`SPAN_CAP`] spans are also kept whole. Both are written out once,
//! when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use osn_client::batch::{BatchLimits, BatchOsnClient, BatchOutcome, SubmitError, TicketId};
use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_graph::NodeId;
use osn_serde::Value;

use crate::stats::self_time;

/// Whole spans kept in memory for the written trace; later spans only
/// update the aggregates.
pub const SPAN_CAP: usize = 100_000;

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration, ns (0 for an unused name).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.total_ns as f64, self.count)
    }

    /// Mean self time, ns (0 for an unused name).
    pub fn mean_self_ns(&self) -> f64 {
        ratio(self.self_ns as f64, self.count)
    }
}

fn ratio(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

struct Frame {
    id: u64,
    start: u64,
    /// Index into `Tracer::children` where this frame's children begin.
    first_child: usize,
}

struct SpanRecord {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    request: u64,
    start: u64,
    end: u64,
}

/// In-memory span recorder (single-threaded, like the workloads).
pub struct Tracer {
    epoch: Instant,
    next_id: Cell<u64>,
    request: Cell<u64>,
    stack: RefCell<Vec<Frame>>,
    /// Closed child intervals of every open frame, innermost last.
    children: RefCell<Vec<(u64, u64)>>,
    /// Per-name aggregates; a handful of names, searched linearly.
    aggs: RefCell<Vec<(&'static str, Agg)>>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
    spans: RefCell<Vec<SpanRecord>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: Cell::new(0),
            request: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            children: RefCell::new(Vec::new()),
            aggs: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans that follow with request `id`.
    pub fn set_request(&self, id: u64) {
        self.request.set(id);
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let first_child = self.children.borrow().len();
        let start = self.now();
        self.stack.borrow_mut().push(Frame {
            id,
            start,
            first_child,
        });
        let out = f();
        let end = self.now();
        let frame = self.stack.borrow_mut().pop().expect("span frames nest");
        let mut children = self.children.borrow_mut();
        let own_self = self_time((frame.start, end), &children[frame.first_child..]);
        children.truncate(frame.first_child);
        let parent = self.stack.borrow().last().map(|p| p.id);
        if parent.is_some() {
            children.push((frame.start, end));
        }
        drop(children);
        let mut aggs = self.aggs.borrow_mut();
        let i = match aggs
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
        {
            Some(i) => i,
            None => {
                aggs.push((name, Agg::default()));
                aggs.len() - 1
            }
        };
        let agg = &mut aggs[i].1;
        agg.count += 1;
        agg.total_ns += end - frame.start;
        agg.self_ns += own_self;
        let mut spans = self.spans.borrow_mut();
        if spans.len() < SPAN_CAP {
            spans.push(SpanRecord {
                name,
                id,
                parent,
                request: self.request.get(),
                start: frame.start,
                end,
            });
        }
        out
    }

    /// Add `delta` to the counter `name`.
    pub fn count(&self, name: &'static str, delta: u64) {
        *self.counts.borrow_mut().entry(name).or_default() += delta;
    }

    /// The aggregate of span `name` so far.
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .borrow()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Agg::default, |&(_, a)| a)
    }

    /// The counter `name` so far.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.borrow().get(name).copied().unwrap_or(0)
    }

    /// Spans closed so far.
    pub fn spans_recorded(&self) -> u64 {
        self.aggs.borrow().iter().map(|(_, a)| a.count).sum()
    }

    /// Aggregates, counters and the kept spans as one document.
    pub fn to_value(&self) -> Value {
        let mut aggs = self.aggs.borrow().clone();
        aggs.sort_by_key(|&(name, _)| name);
        let spans = self.spans.borrow();
        Value::obj([
            (
                "aggregates",
                Value::Obj(
                    aggs.iter()
                        .map(|(name, a)| {
                            let v = Value::obj([
                                ("count", Value::Uint(a.count)),
                                ("total_ns", Value::Uint(a.total_ns)),
                                ("self_ns", Value::Uint(a.self_ns)),
                            ]);
                            (name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
            (
                "counts",
                Value::Obj(
                    self.counts
                        .borrow()
                        .iter()
                        .map(|(name, &c)| (name.to_string(), Value::Uint(c)))
                        .collect(),
                ),
            ),
            ("spans_recorded", Value::Uint(self.spans_recorded())),
            ("spans_kept", Value::Uint(spans.len() as u64)),
            (
                "spans",
                Value::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Value::obj([
                                ("name", Value::Str(s.name.into())),
                                ("id", Value::Uint(s.id)),
                                ("parent", s.parent.map_or(Value::Null, Value::Uint)),
                                ("request", Value::Uint(s.request)),
                                ("start_ns", Value::Uint(s.start)),
                                ("end_ns", Value::Uint(s.end)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// An [`OsnClient`] whose neighbor queries run inside `client.neighbors`
/// spans.
pub struct TracedClient<'t, C> {
    pub inner: C,
    pub tracer: &'t Tracer,
}

impl<C: OsnClient> OsnClient for TracedClient<'_, C> {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        let inner = &mut self.inner;
        self.tracer.span("client.neighbors", || inner.neighbors(u))
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.inner.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.inner.is_cached(u)
    }
}

/// A [`BatchOsnClient`] whose `submit` and `poll` calls run inside
/// `batch.submit` / `batch.poll` spans.
pub struct TracedBatch<'a, 't, B> {
    pub inner: &'a mut B,
    pub tracer: &'t Tracer,
}

impl<B: BatchOsnClient> BatchOsnClient for TracedBatch<'_, '_, B> {
    fn limits(&self) -> BatchLimits {
        self.inner.limits()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn submit(&mut self, ids: &[NodeId]) -> Result<TicketId, SubmitError> {
        let inner = &mut *self.inner;
        self.tracer.span("batch.submit", || inner.submit(ids))
    }

    fn poll(&mut self) -> Option<BatchOutcome> {
        let inner = &mut *self.inner;
        self.tracer.span("batch.poll", || inner.poll())
    }

    fn next_ready_at(&self) -> Option<f64> {
        self.inner.next_ready_at()
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.inner.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.inner.is_cached(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_children_to_the_parent_once() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("inner", || std::hint::black_box(0));
            t.span("inner", || std::hint::black_box(0));
        });
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }
}
