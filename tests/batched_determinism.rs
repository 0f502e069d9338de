//! Bit-identity oracle for the engine's epoch path.
//!
//! The engine settles the table for a whole scheduling point, then hands
//! every lifecycle event of that instant to the policy in one `on_batch`
//! call. The trait's default `on_batch` replays the per-event hooks one at
//! a time, in engine order; that replay is the reference. Policies that
//! override `on_batch` to coalesce maintenance (ASETS\*) change *when* index
//! work runs, never *what* is decided: for every policy kind, at M=1 and
//! M=4, outcomes (exact finish ticks), run statistics, traces, epoch
//! telemetry and the observer hook stream must equal the replay bit for
//! bit.

use asets_core::obs::{
    share, CompletionInfo, DecisionRecord, EpochSummary, MigrationEvent, SharedObserver,
};
use asets_core::prelude::*;
use asets_sim::{Engine, SimResult};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A recording tap: every hook's arguments, verbatim and in order, so two
/// runs can be compared hook for hook. Declines timing so latencies are 0
/// in both runs and the streams stay bit-comparable.
#[derive(Default, Debug, Clone, PartialEq)]
struct Tap {
    points: Vec<SimTime>,
    decisions: Vec<DecisionRecord>,
    migrations: Vec<MigrationEvent>,
    dispatches: Vec<(SimTime, TxnId, Option<TxnId>)>,
    arrivals: Vec<(SimTime, TxnId, bool)>,
    ready: Vec<(SimTime, TxnId)>,
    served: Vec<(u32, TxnId, SimTime, SimTime, bool)>,
    completions: Vec<(SimTime, TxnId, CompletionInfo)>,
    epochs: Vec<EpochSummary>,
    epoch_events: u64,
}

impl Observer for Tap {
    fn decision(&mut self, rec: &DecisionRecord) {
        self.decisions.push(*rec);
    }
    fn migration(&mut self, ev: &MigrationEvent) {
        self.migrations.push(*ev);
    }
    fn sched_point(&mut self, at: SimTime, _latency_ns: u64) {
        self.points.push(at);
    }
    fn dispatched(&mut self, at: SimTime, txn: TxnId, preempted: Option<TxnId>) {
        self.dispatches.push((at, txn, preempted));
    }
    fn arrived(&mut self, at: SimTime, txn: TxnId, ready: bool) {
        self.arrivals.push((at, txn, ready));
    }
    fn became_ready(&mut self, at: SimTime, txn: TxnId) {
        self.ready.push((at, txn));
    }
    fn served(&mut self, server: u32, txn: TxnId, from: SimTime, until: SimTime, completed: bool) {
        self.served.push((server, txn, from, until, completed));
    }
    fn completed(&mut self, at: SimTime, txn: TxnId, info: &CompletionInfo) {
        self.completions.push((at, txn, *info));
    }
    fn on_epoch(&mut self, events: &[asets_core::policy::LifecycleEvent], summary: &EpochSummary) {
        self.epochs.push(*summary);
        self.epoch_events += events.len() as u64;
    }
    fn wants_timing(&self) -> bool {
        false
    }
}

impl Tap {
    /// The hook stream with migrations dropped, for comparison against the
    /// hook-by-hook replay.
    ///
    /// Migration *granularity* is the one documented divergence of the
    /// coalescing `on_batch` (`refresh_into` in `asets_star.rs`): it
    /// refreshes each touched workflow once per epoch and reports the
    /// *net* EDF↔HDF crossing, while the replay narrates every
    /// intermediate step — a workflow that leaves the lists and re-enters
    /// on the other side within one instant crosses silently in the replay
    /// but visibly coalesced, and vice versa for flapping. Every other
    /// channel (decisions, dispatches, lifecycle spans, epochs) is
    /// bit-identical.
    fn sans_migrations(&self) -> Tap {
        let mut t = self.clone();
        t.migrations.clear();
        t
    }
}

/// A random dependent, weighted workload (the shard-determinism strategy).
fn workload_strategy(max_n: usize) -> impl Strategy<Value = Vec<TxnSpec>> {
    proptest::collection::vec(
        (
            0u64..60, // arrival
            1u64..20, // length
            0u64..40, // extra slack beyond length
            1u32..10, // weight
            proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        1..max_n,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (arr, len, slack, w, deps))| {
                let arrival = SimTime::from_units_int(arr);
                let length = SimDuration::from_units_int(len);
                let deadline = arrival + length + SimDuration::from_units_int(slack);
                let mut dep_ids: Vec<TxnId> = if i == 0 {
                    Vec::new()
                } else {
                    deps.into_iter()
                        .map(|idx| TxnId(idx.index(i) as u32))
                        .collect()
                };
                dep_ids.sort_unstable();
                dep_ids.dedup();
                TxnSpec {
                    arrival,
                    deadline,
                    length,
                    weight: Weight(w),
                    deps: dep_ids,
                }
            })
            .collect::<Vec<_>>()
    })
}

/// Every policy kind the factory can build, including both impact rules
/// and both balance-aware activation modes.
fn all_kinds() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Fcfs,
        PolicyKind::Edf,
        PolicyKind::Srpt,
        PolicyKind::LeastSlack,
        PolicyKind::Hdf,
        PolicyKind::Asets,
        PolicyKind::Mix { gamma: 2.0 },
        PolicyKind::Hvf,
        PolicyKind::LoadSwitch {
            threshold: 0.75,
            window: 10.0,
        },
        PolicyKind::Ready,
        PolicyKind::asets_star(),
        PolicyKind::AsetsStar {
            impact: ImpactRule::Symmetric,
        },
        PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::time_rate(0.01),
        },
        PolicyKind::BalanceAware {
            impact: ImpactRule::Paper,
            activation: ActivationMode::count_rate(0.1),
        },
    ]
}

/// The reference policy: forwards every [`Scheduler`] hook *except*
/// `on_batch`, so each epoch falls through to the trait default, which
/// replays the hooks one at a time in engine order.
struct HookByHook(Box<dyn Scheduler>);

impl Scheduler for HookByHook {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_ready(t, table, now);
    }
    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_blocked_arrival(t, table, now);
    }
    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_requeue(t, table, now);
    }
    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.0.on_complete(t, table, now);
    }
    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.0.select(table, now)
    }
    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        self.0.select_many(table, now, slots, out);
    }
    fn next_wakeup(&self, now: SimTime) -> Option<SimTime> {
        self.0.next_wakeup(now)
    }
    fn attach_observer(&mut self, obs: SharedObserver) {
        self.0.attach_observer(obs);
    }
}

/// An engine over `specs` under `kind` on an M-server pool with tracing,
/// running the policy's own `on_batch` or, with `replay`, the hook-by-hook
/// reference.
fn engine(
    specs: &[TxnSpec],
    kind: PolicyKind,
    servers: usize,
    replay: bool,
) -> Engine<Box<dyn Scheduler>> {
    let table = TxnTable::new(specs.to_vec()).expect("acyclic");
    let mut policy = kind.build(&table);
    if replay {
        policy = Box::new(HookByHook(policy));
    }
    Engine::new(specs.to_vec(), policy)
        .expect("acyclic")
        .with_servers(servers)
        .with_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The epoch contract: the policies' `on_batch` overrides decide
    /// exactly what the hook-by-hook replay decides, bit for bit, for every
    /// policy kind, at M=1 (the paper's model) and M=4.
    #[test]
    fn batched_engine_is_bit_identical(specs in workload_strategy(24)) {
        for kind in all_kinds() {
            for servers in [1usize, 4] {
                let reference = engine(&specs, kind, servers, true).run();
                let batched = engine(&specs, kind, servers, false).run();
                let tag = format!("{} M={}", kind.label(), servers);
                prop_assert_eq!(&batched.outcomes, &reference.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &reference.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &reference.trace, "{}", &tag);
                prop_assert_eq!(&batched.summary, &reference.summary, "{}", &tag);
                // Epoch telemetry is engine-side: same scheduling points,
                // same lifecycle events, same per-instant widths.
                prop_assert_eq!(&batched.epochs, &reference.epochs, "{}", &tag);
                prop_assert_eq!(
                    batched.epochs.epochs, batched.stats.scheduling_points,
                    "one epoch per scheduling point ({})", &tag
                );
            }
        }
    }
}

/// Run `specs` under `kind` observed by a fresh [`Tap`], returning the
/// result and the recorded hook stream.
fn run_tapped(
    specs: &[TxnSpec],
    kind: PolicyKind,
    servers: usize,
    replay: bool,
) -> (SimResult, Tap) {
    let tap = Rc::new(RefCell::new(Tap::default()));
    let r = engine(specs, kind, servers, replay)
        .with_observer(share(&tap))
        .run();
    let recorded = tap.borrow().clone();
    (r, recorded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Observation is a pure tap: with an observer attached, the policies'
    /// `on_batch` overrides still match the hook-by-hook replay bit for
    /// bit — outcomes, stats, trace, *and* the hook stream the observer
    /// heard (decisions, dispatches, lifecycle spans, epochs; migrations
    /// excluded, see [`Tap::sans_migrations`]) — for every policy kind at
    /// M=1 and M=4.
    #[test]
    fn observed_batched_is_bit_identical(specs in workload_strategy(24)) {
        for kind in all_kinds() {
            for servers in [1usize, 4] {
                let (reference, tap_ref) = run_tapped(&specs, kind, servers, true);
                let (batched, tap_b) = run_tapped(&specs, kind, servers, false);
                let tag = format!("{} M={}", kind.label(), servers);
                prop_assert_eq!(&batched.outcomes, &reference.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &reference.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &reference.trace, "{}", &tag);
                prop_assert_eq!(&batched.summary, &reference.summary, "{}", &tag);
                prop_assert_eq!(&batched.epochs, &reference.epochs, "{}", &tag);
                prop_assert_eq!(
                    tap_b.sans_migrations(), tap_ref.sans_migrations(),
                    "hook stream ({})", &tag
                );
                // And observation never changed what happened: the observed
                // run equals the unobserved one.
                let unobserved = engine(&specs, kind, servers, false).run();
                prop_assert_eq!(&batched.outcomes, &unobserved.outcomes, "{}", &tag);
                prop_assert_eq!(&batched.stats, &unobserved.stats, "{}", &tag);
                prop_assert_eq!(&batched.trace, &unobserved.trace, "{}", &tag);
            }
        }
    }
}

/// Epoch telemetry reports real coalescing: simultaneous arrivals land in
/// one epoch, and the width peak sees them all.
#[test]
fn epoch_stats_report_coalesced_widths() {
    let specs: Vec<TxnSpec> = (0..10)
        .map(|_| {
            TxnSpec::independent(
                SimTime::ZERO,
                SimTime::from_units_int(200),
                SimDuration::from_units_int(2),
                Weight::ONE,
            )
        })
        .collect();
    let table = TxnTable::new(specs.clone()).expect("acyclic");
    let policy = PolicyKind::asets_star().build(&table);
    let r = Engine::new(specs, policy).expect("acyclic").run();
    assert_eq!(r.epochs.epochs, r.stats.scheduling_points);
    assert_eq!(
        r.epochs.max_epoch_width, 10,
        "all ten simultaneous arrivals coalesce into the first epoch"
    );
    // Every lifecycle event is counted: 10 arrivals + 10 completions, plus
    // one requeue per pause (none here: FCFS-like drain, no preemptions).
    assert_eq!(r.epochs.events, 20 + r.stats.preemptions);
}
