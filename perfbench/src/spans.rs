//! In-memory spans for the traced run.
//!
//! The benchmark, not the program, records the spans: around
//! [`asets_sim::Engine::step`] (the parent), around the policy's
//! `on_batch` and `select_many` through the [`Timed`] wrapper, and around
//! observer delivery through [`TimedObserver`]. Spans nest on a stack; a
//! span's *self* time is its duration minus what its children cover.
//! Nothing is written while the run is going — totals stay in memory and
//! are read once it ends.

use asets_core::obs::{
    CompletionInfo, DecisionRecord, EnginePhase, EpochSummary, MigrationEvent, Observer,
    SharedObserver,
};
use asets_core::policy::{LifecycleEvent, Scheduler};
use asets_core::table::TxnTable;
use asets_core::time::SimTime;
use asets_core::txn::TxnId;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `Engine::step` call: the parent of every other hot-path span.
    Step,
    /// Policy maintenance: `on_batch` (and the per-event hooks, should an
    /// engine arm ever call them).
    Maintain,
    /// Policy selection: `select_many` / `select`.
    Select,
    /// Observer delivery: every hook call into the wrapped observer.
    Deliver,
}

const LAYERS: usize = 4;

/// Aggregate of every span of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus time covered by child spans, nanoseconds.
    pub self_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    totals: [Total; LAYERS],
    maintain_events: u64,
}

/// Span recorder shared by the wrappers of one engine.
#[derive(Default)]
pub struct Tracer {
    state: RefCell<State>,
}

impl Tracer {
    /// A fresh, shareable tracer.
    pub fn shared() -> Rc<Tracer> {
        Rc::new(Tracer::default())
    }

    /// Run `f` inside a span of `layer`. The recorder is not borrowed
    /// while `f` runs, so spans nest freely.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.state.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
        let r = f();
        let end = Instant::now();
        let mut st = self.state.borrow_mut();
        let frame = st.stack.pop().expect("span stack underflow");
        debug_assert_eq!(frame.layer, layer, "spans must close in order");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        let t = &mut st.totals[layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
        r
    }

    /// Totals of `layer` so far.
    pub fn total(&self, layer: Layer) -> Total {
        self.state.borrow().totals[layer as usize]
    }

    /// Lifecycle events delivered through maintenance spans so far.
    pub fn maintain_events(&self) -> u64 {
        self.state.borrow().maintain_events
    }

    fn note_events(&self, n: usize) {
        self.state.borrow_mut().maintain_events += n as u64;
    }
}

/// A policy wrapper that times maintenance and selection.
///
/// It forwards every hook the engine uses — in particular `on_batch`,
/// `select_many`, `next_wakeup` and `attach_observer`. Falling back to a
/// trait default there would change the program under measurement: the
/// default `on_batch` replays per-event hooks instead of the policy's
/// coalesced pass, and the default `select_many` single-fills.
pub struct Timed<S> {
    inner: S,
    tracer: Rc<Tracer>,
}

impl<S: Scheduler> Timed<S> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: Rc<Tracer>) -> Timed<S> {
        Timed { inner, tracer }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        let inner = &mut self.inner;
        self.tracer.note_events(1);
        self.tracer
            .span(Layer::Maintain, || inner.on_ready(t, table, now));
    }

    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        let inner = &mut self.inner;
        self.tracer.note_events(1);
        self.tracer
            .span(Layer::Maintain, || inner.on_blocked_arrival(t, table, now));
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        let inner = &mut self.inner;
        self.tracer.note_events(1);
        self.tracer
            .span(Layer::Maintain, || inner.on_requeue(t, table, now));
    }

    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        let inner = &mut self.inner;
        self.tracer.note_events(1);
        self.tracer
            .span(Layer::Maintain, || inner.on_complete(t, table, now));
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Select, || inner.select(table, now))
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        let inner = &mut self.inner;
        self.tracer
            .span(Layer::Select, || inner.select_many(table, now, slots, out));
    }

    fn on_batch(&mut self, events: &[LifecycleEvent], table: &TxnTable, now: SimTime) {
        let inner = &mut self.inner;
        self.tracer.note_events(events.len());
        self.tracer
            .span(Layer::Maintain, || inner.on_batch(events, table, now));
    }

    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.inner.next_wakeup(now)
    }

    fn attach_observer(&mut self, obs: SharedObserver) {
        self.inner.attach_observer(obs);
    }
}

/// An observer wrapper that times every hook delivered to `inner`.
pub struct TimedObserver {
    inner: SharedObserver,
    tracer: Rc<Tracer>,
}

impl TimedObserver {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: SharedObserver, tracer: Rc<Tracer>) -> TimedObserver {
        TimedObserver { inner, tracer }
    }
}

impl Observer for TimedObserver {
    fn decision(&mut self, rec: &DecisionRecord) {
        let inner = &self.inner;
        self.tracer
            .span(Layer::Deliver, || inner.borrow_mut().decision(rec));
    }

    fn migration(&mut self, ev: &MigrationEvent) {
        let inner = &self.inner;
        self.tracer
            .span(Layer::Deliver, || inner.borrow_mut().migration(ev));
    }

    fn sched_point(&mut self, at: SimTime, latency_ns: u64) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner.borrow_mut().sched_point(at, latency_ns)
        });
    }

    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner.borrow_mut().dispatched(at, txn, preempted)
        });
    }

    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner.borrow_mut().arrived(at, txn, ready)
        });
    }

    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        let inner = &self.inner;
        self.tracer
            .span(Layer::Deliver, || inner.borrow_mut().became_ready(at, txn));
    }

    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner
                .borrow_mut()
                .served(server, txn, from, until, completed)
        });
    }

    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner.borrow_mut().completed(at, txn, info)
        });
    }

    fn engine_phase(&mut self, at: SimTime, phase: EnginePhase, wall_ns: u64) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner.borrow_mut().engine_phase(at, phase, wall_ns)
        });
    }

    fn on_epoch(&mut self, events: &[LifecycleEvent], summary: &EpochSummary) {
        let inner = &self.inner;
        self.tracer.span(Layer::Deliver, || {
            inner.borrow_mut().on_epoch(events, summary)
        });
    }

    fn wants_timing(&self) -> bool {
        self.inner.borrow().wants_timing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::default();
        tr.span(Layer::Step, || {
            spin(200_000);
            tr.span(Layer::Maintain, || spin(300_000));
            tr.span(Layer::Select, || {
                tr.span(Layer::Deliver, || spin(100_000));
            });
        });
        let step = tr.total(Layer::Step);
        let maintain = tr.total(Layer::Maintain);
        let select = tr.total(Layer::Select);
        let deliver = tr.total(Layer::Deliver);
        assert_eq!(step.calls, 1);
        assert_eq!(
            step.self_ns,
            step.total_ns - maintain.total_ns - select.total_ns,
            "parent self time is duration minus direct children"
        );
        assert_eq!(select.self_ns, select.total_ns - deliver.total_ns);
        assert_eq!(maintain.self_ns, maintain.total_ns, "a leaf is all self");
        assert!(step.self_ns >= 200_000);
        assert!(maintain.total_ns >= 300_000);
    }
}
