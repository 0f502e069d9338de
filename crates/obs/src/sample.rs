//! Deterministic span sampling: full fidelity for 1-in-N transactions,
//! exact counters and SLO sketches for all of them.
//!
//! Always-on observation of every span is affordable offline but not in a
//! soak: the flight recorder's ring churns, and every hook call pays the
//! inner observer's bookkeeping. [`SamplingObserver`] wraps any inner
//! observer and forwards *per-transaction* hooks (arrival, readiness,
//! dispatch, service intervals, completion, decision provenance) only for
//! transactions whose id falls on the sampling lattice — `id % period ==
//! 0` — so the choice is deterministic, reproducible across runs and
//! shards, and needs no RNG state. Aggregate accuracy is *not*
//! sampled: the wrapper keeps its own exact counters and a full
//! [`SloMonitor`] fed by every completion, so miss ratios and tardiness
//! percentiles remain exact while the traced population shrinks by N.
//!
//! Rarity-aware exceptions: migrations (a handful per run, the paper's
//! core signal) always pass through, as do engine epoch summaries (one per
//! scheduling point, already coalesced).
//!
//! The wrapper reports [`Observer::wants_timing`]` = false`: sampling
//! exists to make observation cheap, and the wall-clock reads on the
//! scheduling-point path are the largest fixed cost. The `obs_gate` CI
//! binary pins a 1-in-64 sampler within a few percent of the unobserved
//! engine.

use crate::metrics::MetricsRegistry;
use crate::slo::SloMonitor;
use asets_core::obs::{
    CompletionInfo, DecisionRecord, EnginePhase, EpochSummary, MigrationEvent, Observer,
};
use asets_core::policy::LifecycleEvent;
use asets_core::time::SimTime;
use asets_core::txn::TxnId;

/// Exact run-wide counts kept by the sampler regardless of the sampling
/// period. These are what the scrape endpoint's counter-conservation
/// checks consume: sampling never makes a counter approximate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleCounters {
    /// Scheduling points processed.
    pub sched_points: u64,
    /// Decision records emitted by the policy.
    pub decisions: u64,
    /// EDF↔HDF migrations.
    pub migrations: u64,
    /// Server hand-offs (dispatches).
    pub dispatches: u64,
    /// Arrivals delivered.
    pub arrivals: u64,
    /// Completions.
    pub completions: u64,
    /// Epochs reported by the engine.
    pub epochs: u64,
    /// Transactions whose spans were forwarded to the inner observer.
    pub sampled_txns: u64,
}

/// An [`Observer`] adapter that forwards per-transaction detail for a
/// deterministic 1-in-N subset while keeping exact aggregates itself.
///
/// See the module docs for the sampling contract. The inner observer sees
/// a coherent sub-stream: every hook mentioning a sampled transaction is
/// forwarded, so its spans still parse into complete
/// `arrival → … → completed` chains, and its bounded ring now covers a
/// period-times longer horizon for the same memory.
#[derive(Debug)]
pub struct SamplingObserver<O> {
    inner: O,
    period: u64,
    counters: SampleCounters,
    slo: SloMonitor,
}

impl<O: Observer> SamplingObserver<O> {
    /// Sample 1 in `period` transactions (`period == 1` forwards
    /// everything; useful as a parity baseline).
    ///
    /// # Panics
    /// If `period == 0`.
    pub fn new(inner: O, period: u64) -> SamplingObserver<O> {
        assert!(period > 0, "sampling period must be positive");
        SamplingObserver {
            inner,
            period,
            counters: SampleCounters::default(),
            slo: SloMonitor::new(),
        }
    }

    /// Whether `txn` is on the sampling lattice.
    #[inline]
    pub fn sampled(&self, txn: TxnId) -> bool {
        (txn.0 as u64).is_multiple_of(self.period)
    }

    /// The sampling period N.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The exact run-wide counters.
    pub fn counters(&self) -> SampleCounters {
        self.counters
    }

    /// The exact SLO monitor (fed by every completion, sampled or not).
    pub fn slo(&self) -> &SloMonitor {
        &self.slo
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwrap, handing back the inner observer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// The exact counters as a [`MetricsRegistry`] (for export alongside
    /// the inner observer's own metrics).
    pub fn registry(&self) -> MetricsRegistry {
        let c = self.counters;
        let mut m = MetricsRegistry::new();
        m.add("sample_sched_points_total", c.sched_points);
        m.add("sample_decisions_total", c.decisions);
        m.add("sample_migrations_total", c.migrations);
        m.add("sample_dispatches_total", c.dispatches);
        m.add("sample_arrivals_total", c.arrivals);
        m.add("sample_completions_total", c.completions);
        m.add("sample_epochs_total", c.epochs);
        m.add("sample_sampled_txns_total", c.sampled_txns);
        m.set("sample_period", self.period);
        m
    }
}

impl<O: Observer> Observer for SamplingObserver<O> {
    fn decision(&mut self, rec: &DecisionRecord) {
        self.counters.decisions += 1;
        if self.sampled(rec.chosen) {
            self.inner.decision(rec);
        }
    }

    fn migration(&mut self, ev: &MigrationEvent) {
        // Migrations are rare and are the paper's core diagnostic; never
        // sample them away.
        self.counters.migrations += 1;
        self.inner.migration(ev);
    }

    fn sched_point(&mut self, _at: SimTime, _latency_ns: u64) {
        self.counters.sched_points += 1;
    }

    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        self.counters.dispatches += 1;
        if self.sampled(txn) || preempted.is_some_and(|p| self.sampled(p)) {
            self.inner.dispatched(at, txn, preempted);
        }
    }

    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        self.counters.arrivals += 1;
        if self.sampled(txn) {
            self.counters.sampled_txns += 1;
            self.inner.arrived(at, txn, ready);
        }
    }

    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        if self.sampled(txn) {
            self.inner.became_ready(at, txn);
        }
    }

    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        if self.sampled(txn) {
            self.inner.served(server, txn, from, until, completed);
        }
    }

    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        self.counters.completions += 1;
        self.slo.record(info);
        if self.sampled(txn) {
            self.inner.completed(at, txn, info);
        }
    }

    fn engine_phase(&mut self, _at: SimTime, _phase: EnginePhase, _wall_ns: u64) {
        // wants_timing() == false: the engine never calls this; nothing to
        // forward even if it did, since spans would all be zero.
    }

    fn on_epoch(&mut self, events: &[LifecycleEvent], summary: &EpochSummary) {
        self.counters.epochs += 1;
        self.inner.on_epoch(events, summary);
    }

    fn wants_timing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_core::time::SimDuration;

    /// Records every hook it sees, for forwarding assertions.
    #[derive(Default)]
    struct Tap {
        arrived: Vec<TxnId>,
        completed: Vec<TxnId>,
        served: Vec<TxnId>,
        decisions: Vec<TxnId>,
        migrations: u64,
        epochs: u64,
    }

    impl Observer for Tap {
        fn decision(&mut self, rec: &DecisionRecord) {
            self.decisions.push(rec.chosen);
        }
        fn migration(&mut self, _ev: &MigrationEvent) {
            self.migrations += 1;
        }
        fn arrived(&mut self, _at: SimTime, txn: TxnId, _ready: bool) {
            self.arrived.push(txn);
        }
        fn served(
            &mut self,
            _server: u32,
            txn: TxnId,
            _from: SimTime,
            _until: SimTime,
            _completed: bool,
        ) {
            self.served.push(txn);
        }
        fn completed(&mut self, _at: SimTime, txn: TxnId, _info: &CompletionInfo) {
            self.completed.push(txn);
        }
        fn on_epoch(&mut self, _events: &[LifecycleEvent], _summary: &EpochSummary) {
            self.epochs += 1;
        }
    }

    fn info(tardy: u64, met: bool) -> CompletionInfo {
        CompletionInfo {
            finish: SimTime::from_units_int(10),
            deadline: SimTime::from_units_int(if met { 12 } else { 8 }),
            tardiness: SimDuration::from_ticks(tardy),
            queue_wait: SimDuration::ZERO,
            service: SimDuration::from_units_int(1),
            met_deadline: met,
        }
    }

    #[test]
    fn lattice_is_deterministic() {
        let s = SamplingObserver::new(Tap::default(), 4);
        assert!(s.sampled(TxnId(0)));
        assert!(!s.sampled(TxnId(1)));
        assert!(s.sampled(TxnId(8)));
        assert!(!s.sampled(TxnId(9)));
    }

    #[test]
    fn counters_exact_spans_sampled() {
        let mut s = SamplingObserver::new(Tap::default(), 4);
        let t = SimTime::ZERO;
        for id in 0..16u32 {
            s.arrived(t, TxnId(id), true);
            s.served(0, TxnId(id), t, SimTime::from_units_int(1), true);
            s.completed(t, TxnId(id), &info(u64::from(id), id % 2 == 0));
        }
        let c = s.counters();
        assert_eq!(c.arrivals, 16);
        assert_eq!(c.completions, 16);
        assert_eq!(c.sampled_txns, 4, "ids 0,4,8,12");
        // Exact SLO despite 1-in-4 span sampling.
        assert_eq!(s.slo().completions(), 16);
        assert_eq!(s.slo().misses(), 8);
        assert_eq!(s.slo().tardiness().max(), 15);
        // The inner observer saw only the lattice.
        let tap = s.into_inner();
        let lattice: Vec<TxnId> = (0..16).step_by(4).map(TxnId).collect();
        assert_eq!(tap.arrived, lattice);
        assert_eq!(tap.served, lattice);
        assert_eq!(tap.completed, lattice);
    }

    #[test]
    fn migrations_and_epochs_never_sampled_away() {
        use asets_core::obs::MigrationSubject;
        let mut s = SamplingObserver::new(Tap::default(), 64);
        s.migration(&MigrationEvent {
            at: SimTime::ZERO,
            subject: MigrationSubject::Txn(TxnId(7)),
            to_hdf: true,
        });
        s.on_epoch(
            &[],
            &EpochSummary {
                at: SimTime::ZERO,
                width: 0,
                epochs: 1,
                events: 0,
                max_width: 0,
            },
        );
        assert_eq!(s.inner().migrations, 1);
        assert_eq!(s.inner().epochs, 1);
        assert!(!s.wants_timing());
    }

    #[test]
    fn registry_mirrors_counters() {
        let mut s = SamplingObserver::new(Tap::default(), 2);
        s.sched_point(SimTime::ZERO, 0);
        s.arrived(SimTime::ZERO, TxnId(0), true);
        let m = s.registry();
        assert_eq!(m.counter("sample_sched_points_total"), 1);
        assert_eq!(m.counter("sample_arrivals_total"), 1);
        assert_eq!(m.counter("sample_sampled_txns_total"), 1);
        assert_eq!(m.gauge("sample_period"), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        SamplingObserver::new(Tap::default(), 0);
    }
}
