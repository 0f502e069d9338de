//! The rebalancing driver: K shard threads, barrier-synchronized epochs,
//! lock-free cross-shard migration channels.
//!
//! Each shard thread steps its own engine through an *epoch window*
//! `[B, B')` without talking to anyone. All cross-shard traffic — the
//! calendar entries of migrated components — takes effect only at window
//! boundaries, where a [`RoundBarrier`] lines the threads up. Between
//! boundaries the only sharing is bounded lock-free SPSC rings ([`Chan`],
//! the [`crate::live::IngestRing`] idiom generalized to typed payloads),
//! and rings are *written during* a round but *read after* its last
//! barrier, so every entry is ordered by barrier happens-before, never by
//! delivery timing.
//!
//! Per round, each thread:
//!
//! 1. **runs** its engine up to (not including) the horizon,
//! 2. **reports** load / completions / movable components and waits (`#1`),
//! 3. shard 0 — the deterministic **leader** — takes all reports, plans
//!    migrations with [`plan_rebalance`] (greedy largest-work-first under
//!    the `2·work ≤ gap` rule), picks the next boundary, and publishes the
//!    plan (`#2`),
//! 4. **executes** its slice of the plan — extracting calendar entries for
//!    components it sends away and pushing them to the destination's ring —
//!    and waits (`#3`),
//! 5. **drains** its inboxes: migrated arrivals join the calendar. Rings are
//!    parity-paired — `chans[round & 1]` — so a neighbour racing ahead into
//!    round E+1 pushes into the *other* ring set and can never land an
//!    entry in a ring still being drained for round E; three barriers per
//!    round, not four.
//!
//! ## Why decisions stay deterministic
//!
//! * Every round-E push precedes barrier `#3` of round E, every round-E
//!   drain runs after `#3`, and round-E±1 traffic rides the other parity's
//!   rings. Reaching round E+2 — the same parity again — means passing
//!   barrier `#1` of round E+1, which waits on every thread's round-E
//!   drain; so each drain sees exactly the round-E entry set, every run.
//! * A migrated component is fully unarrived and every member's arrival
//!   lies strictly beyond the boundary, so the destination's clock only
//!   ever meets it in its future: time never runs backward.
//! * The leader is fixed (shard 0) and plans from the full report vector.
//! * No wall clock anywhere: horizons are simulated instants derived from
//!   the epoch cadence.
//!
//! A shard thread that panics poisons the barrier on its way out, so its
//! peers leave their waits instead of parking forever, and the run re-raises
//! the original panic.

use crate::engine::{Engine, SimResult, SpecPump};
use crate::sharded::{
    merge, EngineKnobs, RebalanceConfig, RebalanceEvent, RebalanceStats, ShardRun, ShardedResult,
    ShardedRuntime,
};
use asets_core::dag::DagError;
use asets_core::obs::{share, Observer};
use asets_core::policy::{PolicyKind, Scheduler};
use asets_core::shard::{partition, plan_rebalance, routing_keys, ComponentMove, MovableComponent};
use asets_core::table::TxnTable;
use asets_core::time::{SimDuration, SimTime};
use asets_core::txn::TxnId;
use std::cell::{RefCell, UnsafeCell};
use std::collections::BTreeMap;
use std::mem::MaybeUninit;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Slots per cross-shard ring, and so the migration entries the leader may
/// route through one channel per round (moves beyond it are replanned at
/// the next boundary). The value is pinned, not tuned: the budget binds on
/// skewed batches, so changing it changes which components move when, and
/// with them every migrate schedule (`tests/shard_determinism.rs` pins
/// those exactly).
pub(crate) const MSG_RING_CAPACITY: usize = 1018;

/// One migrated component member's calendar entry: its original arrival
/// instant (strictly beyond the boundary) and its id. Every engine holds the
/// full global table, so moving a transaction is pure calendar surgery.
type Arrival = (SimTime, TxnId);

/// Bounded lock-free SPSC ring of `Copy` messages — [`crate::live::IngestRing`]
/// generalized from `u32` job ids to typed payloads. Monotonic cursors,
/// slot = cursor % capacity; the producer owns `tail`, the consumer owns
/// `head`, and each reads the other side with `Acquire` to see slot writes.
///
/// The SPSC discipline is by construction: in the channel matrix
/// `chans[a][b]`, thread `a` is the only pusher and thread `b` the only
/// popper.
pub(crate) struct Chan<T: Copy> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor (monotonic).
    head: AtomicUsize,
    /// Producer cursor (monotonic).
    tail: AtomicUsize,
}

// SAFETY: a slot is written by the single producer strictly before the
// `Release` store of `tail`, and read by the single consumer strictly after
// the `Acquire` load of `tail` (and vice versa for reuse after `head`), so
// no slot is ever accessed concurrently. `T: Copy` means reads need no
// ownership transfer and abandoned messages need no drop.
unsafe impl<T: Copy + Send> Sync for Chan<T> {}

impl<T: Copy> Chan<T> {
    /// A ring holding up to `capacity` in-flight messages.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> Chan<T> {
        assert!(capacity > 0, "channel capacity must be positive");
        Chan {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: push `value`, or return `false` when the ring is
    /// full. In the threaded protocol a full ring is a planner bug, not
    /// backpressure — the receiver is parked at a barrier and will never
    /// drain mid-window — so callers assert the result.
    pub(crate) fn push(&self, value: T) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.slots.len() {
            return false;
        }
        // SAFETY: `head`'s Acquire proves the consumer is done with this
        // slot; only this thread writes slots (single producer).
        unsafe { (*self.slots[tail % self.slots.len()].get()).write(value) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side: pop the oldest message, if any.
    pub(crate) fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `tail`'s Acquire proves the producer initialized this
        // slot; only this thread reads slots (single consumer).
        let value = unsafe { (*self.slots[head % self.slots.len()].get()).assume_init() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

/// A peer shard panicked; the round can never complete.
struct Poisoned;

/// A reusable barrier that can be poisoned. [`std::sync::Barrier`] has no
/// poisoning, so a shard thread that panicked would leave its peers parked
/// in `wait` forever — and `thread::scope` waits on them.
struct RoundBarrier {
    threads: usize,
    state: Mutex<BarrierState>,
    cvar: Condvar,
}

struct BarrierState {
    /// Threads waiting in the current generation.
    arrived: usize,
    /// Bumped each time the last thread arrives.
    generation: u64,
    /// Set by a panicking thread; every current and later wait fails.
    poisoned: bool,
}

impl RoundBarrier {
    fn new(threads: usize) -> RoundBarrier {
        RoundBarrier {
            threads,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Block until every thread has arrived, or fail once a peer poisons
    /// the barrier.
    fn wait(&self) -> Result<(), Poisoned> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.poisoned {
            return Err(Poisoned);
        }
        let generation = st.generation;
        st.arrived += 1;
        if st.arrived == self.threads {
            st.arrived = 0;
            st.generation += 1;
            self.cvar.notify_all();
            return Ok(());
        }
        while st.generation == generation && !st.poisoned {
            st = self.cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.generation == generation {
            Err(Poisoned)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned = true;
        self.cvar.notify_all();
    }
}

/// Poisons the barrier if its shard thread unwinds.
struct PoisonOnPanic<'a>(&'a RoundBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One shard's boundary snapshot, published before barrier `#1`.
struct Report {
    /// Remaining work of owned, uncompleted transactions (ticks).
    load: u64,
    /// Completions on this shard's table. Every transaction completes on
    /// exactly one table (its final owner), so the global done test is
    /// `Σ completed == n`.
    completed: usize,
    /// The engine's next scheduling point at or beyond the boundary.
    next_point: Option<SimTime>,
    /// Fully-unarrived owned components, eligible for migration.
    movable: Vec<MovableComponent>,
}

/// The leader's verdict for one boundary, published before barrier `#2`.
#[derive(Clone)]
struct Plan {
    /// Every transaction completed: all threads exit this round.
    done: bool,
    /// No scheduling point anywhere, nothing in flight, work incomplete —
    /// provably unreachable; every thread panics rather than spinning.
    stalled: bool,
    /// Horizon of the next window. `boundary + epoch` while a migration is
    /// in flight; otherwise skipped ahead to cover the earliest next point.
    next_boundary: SimTime,
    /// Migrations to execute at this boundary.
    moves: Vec<ComponentMove>,
}

/// Static facts about one component, precomputed once in
/// [`ShardedRuntime::run_threaded`]: migration eligibility and planning
/// weight are functions of the specs alone, never of runtime state.
struct CompInfo {
    /// Earliest member arrival. The component is fully unarrived — hence
    /// movable — exactly while `min_arrival > horizon`.
    min_arrival: SimTime,
    /// Total member length in ticks (the planner's weight).
    work: u64,
}

/// Read-only protocol state borrowed into every worker thread.
struct Shared<'a> {
    k: usize,
    n: usize,
    epoch: SimDuration,
    /// `chans[round & 1][a][b]`: entries from shard `a` to shard `b`,
    /// double-buffered by round parity so a drain never shares a ring with
    /// a faster neighbour's next-round pushes.
    chans: &'a [Vec<Vec<Chan<Arrival>>>; 2],
    barrier: &'a RoundBarrier,
    reports: &'a [Mutex<Option<Report>>],
    plan_slot: &'a Mutex<Option<Plan>>,
    /// Component membership by routing key, members ascending.
    comp_members: &'a BTreeMap<u32, Vec<TxnId>>,
    /// Per-component static facts, same keys as `comp_members`.
    comp_info: &'a BTreeMap<u32, CompInfo>,
    /// The initial (static) partition; arrival restriction baseline.
    shard_of: &'a [u32],
}

impl<P: SpecPump> ShardedRuntime<P> {
    /// The driver behind [`ShardedRuntime::rebalance`] at K > 1: every
    /// engine holds the full global table with arrivals restricted to its
    /// owned transactions, the K engines run on K threads and trade
    /// components over [`Chan`]s, and results merge in global ids.
    ///
    /// # Panics
    /// If the epoch is zero, or re-raises the panic of any shard thread.
    pub(crate) fn run_threaded<O, F>(
        self,
        make: F,
        attach: bool,
        cfg: RebalanceConfig,
    ) -> Result<(ShardedResult, Vec<O>), DagError>
    where
        O: Observer + Send + 'static,
        F: Fn(usize, &TxnTable) -> O + Sync,
    {
        let epoch = cfg.epoch;
        assert!(!epoch.is_zero(), "epoch must be positive");
        let n = self.specs.len();
        let k = self.shards;
        let keys = routing_keys(&self.specs);
        let static_plan = partition(&self.specs, k);
        let shard_of = static_plan.shard_of;
        let mut comp_members: BTreeMap<u32, Vec<TxnId>> = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            comp_members.entry(key).or_default().push(TxnId(i as u32));
        }
        let comp_info: BTreeMap<u32, CompInfo> = comp_members
            .iter()
            .map(|(&key, members)| {
                let min_arrival = members
                    .iter()
                    .map(|&m| self.specs[m.index()].arrival)
                    .min()
                    .expect("components are non-empty");
                let work = members
                    .iter()
                    .map(|&m| self.specs[m.index()].length.ticks())
                    .sum();
                (key, CompInfo { min_arrival, work })
            })
            .collect();

        let chans: [Vec<Vec<Chan<Arrival>>>; 2] = std::array::from_fn(|_| {
            (0..k)
                .map(|_| (0..k).map(|_| Chan::new(MSG_RING_CAPACITY)).collect())
                .collect()
        });
        let barrier = RoundBarrier::new(k);
        let reports: Vec<Mutex<Option<Report>>> = (0..k).map(|_| Mutex::new(None)).collect();
        let plan_slot: Mutex<Option<Plan>> = Mutex::new(None);
        let shared = Shared {
            k,
            n,
            epoch,
            chans: &chans,
            barrier: &barrier,
            reports: &reports,
            plan_slot: &plan_slot,
            comp_members: &comp_members,
            comp_info: &comp_info,
            shard_of: &shard_of,
        };
        let knobs = EngineKnobs {
            servers: self.servers,
            trace: self.trace,
            backlog: self.backlog,
        };
        let kind = self.kind;
        // One validated master table; each worker thread gets a cheap clone
        // (shared spec/DAG storage, fresh state) instead of re-validating
        // the full batch K times.
        let master = TxnTable::new(self.specs.clone()).expect("validated global batch");
        let master_ref = &master;
        let make = &make;
        let shared_ref = &shared;

        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..k)
                .map(|s| {
                    scope.spawn(move || {
                        let _guard = PoisonOnPanic(shared_ref.barrier);
                        run_worker::<P, O>(
                            s,
                            master_ref.clone(),
                            kind,
                            knobs,
                            shared_ref,
                            |table| make(s, table),
                            attach,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut runs = Vec::with_capacity(k);
        for outcome in joined {
            match outcome {
                Ok(Some(run)) => runs.push(run),
                // A peer left a poisoned barrier: the panic is raised below.
                Ok(None) => {}
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }

        let mut stats = RebalanceStats::default();
        let mut shards = Vec::with_capacity(k);
        let mut observers = Vec::with_capacity(k);
        for (s, (result, obs, local)) in runs.into_iter().enumerate() {
            stats.migration_rounds += local.migration_rounds;
            stats.migrated_components += local.migrated_components;
            stats.migrated_txns += local.migrated_txns;
            stats.migrated_work += local.migrated_work;
            stats.barriers += local.barriers;
            stats.events.extend(local.events);
            let txns: Vec<TxnId> = result.outcomes.iter().map(|o| o.id).collect();
            shards.push(ShardRun {
                shard: s,
                txns,
                result,
            });
            observers.push(obs);
        }
        // The leader's log is in planner order within a boundary; publish it
        // by (instant, source, destination, key) instead.
        stats.events.sort_by_key(
            |&RebalanceEvent::Migration {
                 at, key, from, to, ..
             }| (at, from, to, key),
        );

        let merged = merge(&shards, self.trace, self.backlog.is_some());
        Ok((
            ShardedResult {
                merged,
                shards,
                shard_of,
                rebalance: Some(stats),
            },
            observers,
        ))
    }
}

/// One shard thread: build the policy and observer locally (they are
/// deliberately not `Sync`) over a cheap clone of the master table, then
/// run the barrier rounds until the leader declares the batch done.
/// Returns the finished result, the observer and this shard's slice of the
/// rebalance telemetry, or `None` when a peer panicked and poisoned the
/// barrier.
fn run_worker<P: SpecPump, O: Observer + 'static>(
    s: usize,
    table: TxnTable,
    kind: PolicyKind,
    knobs: EngineKnobs,
    shared: &Shared<'_>,
    make: impl FnOnce(&TxnTable) -> O,
    attach: bool,
) -> Option<(SimResult, O, RebalanceStats)> {
    let obs = make(&table);
    let policy = kind.build(&table);
    let pump = P::from_specs(table.specs());
    let mut engine: Engine<Box<dyn Scheduler>, P> =
        Engine::from_table(table, policy, pump).with_servers(knobs.servers);
    if knobs.trace {
        engine = engine.with_trace();
    }
    if let Some(interval) = knobs.backlog {
        engine = engine.with_backlog_sampling(interval);
    }
    let mut kept: Option<O> = None;
    let mut shared_obs: Option<Rc<RefCell<O>>> = None;
    if attach {
        let rc = Rc::new(RefCell::new(obs));
        engine = engine.with_observer(share(&rc));
        shared_obs = Some(rc);
    } else {
        kept = Some(obs);
    }
    engine.restrict_arrivals(|t| shared.shard_of[t.index()] == s as u32);

    // Evolving ownership, this shard's view: authoritative for everything
    // it reports (loads scan only owned ids). Every shard applies the
    // plan's moves, so all views agree after each execute phase.
    let mut owned: Vec<bool> = shared.shard_of.iter().map(|&o| o == s as u32).collect();
    // Owned components still plausibly movable, ascending by key (the
    // report order the leader expects). Compacted permanently once the
    // horizon passes a component's earliest arrival — the horizon is
    // monotone, so eligibility never comes back — or on loss of ownership;
    // migration gains re-insert in key order.
    let mut owned_comps: Vec<u32> = shared
        .comp_members
        .keys()
        .copied()
        .filter(|&key| owned[key as usize])
        .collect();
    // Owned, uncompleted transactions — the load scan's working set,
    // compacted in place as transactions finish so a round's report costs
    // O(alive), not O(n).
    let mut owned_alive: Vec<TxnId> = (0..shared.n as u32)
        .map(TxnId)
        .filter(|t| owned[t.index()])
        .collect();
    let mut stats = RebalanceStats::default();
    let mut horizon = SimTime::ZERO + shared.epoch;
    let mut epoch_idx: u64 = 0;
    let mut entries: Vec<Arrival> = Vec::new();

    loop {
        // This round's ring set: everything pushed in round E is drained in
        // round E from `chans[E & 1]`; a neighbour already in round E+1
        // writes the other set.
        let par = (epoch_idx & 1) as usize;

        // Run the window: every scheduling point strictly below the
        // horizon, no cross-shard interaction.
        let next_point = engine.run_window(horizon);

        // Report phase: boundary snapshot for the leader. Both scans
        // compact their working set as they go, so steady-state rounds cost
        // O(live work), not O(n).
        let report = {
            let table = engine.table();
            let mut load = 0u64;
            owned_alive.retain(|&id| {
                if !owned[id.index()] || table.state(id).is_completed() {
                    return false;
                }
                load += table.remaining(id).ticks();
                true
            });
            // A component is movable iff fully unarrived: under restricted
            // arrivals every member with `arrival > horizon` is still
            // `Pending`, so the static `min_arrival` test is exact.
            let mut movable = Vec::new();
            owned_comps.retain(|&key| {
                if !owned[key as usize] || shared.comp_info[&key].min_arrival <= horizon {
                    return false;
                }
                movable.push(MovableComponent {
                    key,
                    owner: s as u32,
                    work: shared.comp_info[&key].work,
                });
                true
            });
            Report {
                load,
                completed: engine.completed(),
                next_point,
                movable,
            }
        };
        *shared.reports[s].lock().unwrap() = Some(report);
        shared.barrier.wait().ok()?; // #1: all reports published

        if s == 0 {
            let reps: Vec<Report> = shared
                .reports
                .iter()
                .map(|slot| slot.lock().unwrap().take().expect("every shard reported"))
                .collect();
            let plan = leader_plan(&reps, horizon, shared, &mut stats);
            *shared.plan_slot.lock().unwrap() = Some(plan);
        }
        shared.barrier.wait().ok()?; // #2: plan published

        let plan = shared
            .plan_slot
            .lock()
            .unwrap()
            .clone()
            .expect("leader planned");
        assert!(
            !plan.stalled,
            "threaded run stalled on shard {s}: no scheduling points, nothing in flight, work incomplete"
        );
        if plan.done {
            break;
        }

        // Execute phase: this shard's slice of the migration plan. Every
        // shard applies the ownership updates that involve it; sources
        // additionally extract the calendar entries and ship them.
        for mv in &plan.moves {
            let members = &shared.comp_members[&mv.key];
            if mv.from == s as u32 {
                entries.clear();
                engine.extract_arrivals(members, &mut entries);
                debug_assert_eq!(
                    entries.len(),
                    members.len(),
                    "movable components are fully unarrived"
                );
                for &entry in &entries {
                    let sent = shared.chans[par][s][mv.to as usize].push(entry);
                    assert!(
                        sent,
                        "migration payload overflowed the ring (planner budget)"
                    );
                }
                for &m in members {
                    owned[m.index()] = false;
                }
            } else if mv.to == s as u32 {
                for &m in members {
                    owned[m.index()] = true;
                }
                owned_alive.extend_from_slice(members);
                // Keep the movable working set sorted by key so reports
                // list components in the same order every run.
                let pos = owned_comps.partition_point(|&key| key < mv.key);
                owned_comps.insert(pos, mv.key);
            }
        }
        shared.barrier.wait().ok()?; // #3: all boundary sends complete

        // Drain phase: this round's inboxes in sender order. Everything
        // sent this round is visible (the senders passed barrier #3 after
        // pushing); anything newer targets the other parity's rings.
        entries.clear();
        for from in 0..shared.k {
            if from == s {
                continue;
            }
            while let Some(entry) = shared.chans[par][from][s].pop() {
                entries.push(entry);
            }
        }
        if !entries.is_empty() {
            engine.admit_arrivals(&entries);
        }
        // No closing barrier: a fast peer's round-E+1 pushes land in the
        // other parity's rings, and its round-E+2 pushes — this parity
        // again — are fenced by barrier #1 of round E+1, which waits on
        // this thread's report (sequenced after this drain).
        horizon = plan.next_boundary;
        epoch_idx += 1;
    }

    let result = engine.finish();
    let obs = match shared_obs {
        Some(rc) => Rc::try_unwrap(rc)
            .unwrap_or_else(|_| panic!("engine retained the observer past run"))
            .into_inner(),
        None => kept.expect("unattached observer kept locally"),
    };
    Some((result, obs, stats))
}

/// The leader's boundary decision: done test, migration plan (flow-control
/// filtered to the per-channel budget), next horizon. Runs on shard 0
/// between barriers `#1` and `#2`; `stats` is the leader's local log, so
/// migration counters and events are recorded exactly once.
fn leader_plan(
    reports: &[Report],
    boundary: SimTime,
    shared: &Shared<'_>,
    stats: &mut RebalanceStats,
) -> Plan {
    stats.barriers += 1;
    let completed: usize = reports.iter().map(|r| r.completed).sum();
    let done = completed == shared.n;
    if done {
        return Plan {
            done,
            stalled: false,
            next_boundary: boundary + shared.epoch,
            moves: Vec::new(),
        };
    }

    let loads: Vec<u64> = reports.iter().map(|r| r.load).collect();
    let movable: Vec<MovableComponent> = reports
        .iter()
        .flat_map(|r| r.movable.iter().copied())
        .collect();
    let planned = plan_rebalance(&loads, &movable);
    // Flow control: a component's calendar entries must fit its channel
    // this round. Dropped moves are replanned at the next boundary from
    // fresh loads.
    let mut used: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    let mut moves = Vec::with_capacity(planned.len());
    for mv in planned {
        let len = shared.comp_members[&mv.key].len();
        let slot = used.entry((mv.from, mv.to)).or_insert(0);
        if *slot + len > MSG_RING_CAPACITY {
            continue;
        }
        *slot += len;
        moves.push(mv);
    }
    if !moves.is_empty() {
        stats.migration_rounds += 1;
    }
    for mv in &moves {
        let members = &shared.comp_members[&mv.key];
        stats.migrated_components += 1;
        stats.migrated_txns += members.len() as u64;
        stats.migrated_work += mv.work;
        stats.events.push(RebalanceEvent::Migration {
            at: boundary,
            key: mv.key,
            from: mv.from,
            to: mv.to,
            txns: members.len() as u32,
            work_ticks: mv.work,
        });
    }

    // Next horizon: migration payloads landing at this drain pin the next
    // boundary one epoch out; otherwise skip idle epochs so a quiet stretch
    // costs one barrier round, not span/epoch of them.
    let min_point = reports.iter().filter_map(|r| r.next_point).min();
    let (next_boundary, stalled) = if !moves.is_empty() {
        (boundary + shared.epoch, false)
    } else {
        match min_point {
            Some(m) => {
                let mut b = boundary + shared.epoch;
                while b <= m {
                    b += shared.epoch;
                }
                (b, false)
            }
            None => (boundary + shared.epoch, true),
        }
    };
    Plan {
        done,
        stalled,
        next_boundary,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedRuntime;
    use crate::testutil::{dep, ind, units};
    use asets_core::metrics::MetricsSummary;
    use asets_core::policy::PolicyKind;

    #[test]
    fn chan_wraps_and_preserves_fifo() {
        let chan: Chan<u64> = Chan::new(2);
        assert!(chan.push(1));
        assert!(chan.push(2));
        assert_eq!(chan.pop(), Some(1));
        assert!(chan.push(3), "slot freed by pop is reusable");
        assert_eq!(chan.pop(), Some(2));
        assert_eq!(chan.pop(), Some(3));
        assert_eq!(chan.pop(), None);
    }

    #[test]
    fn chan_full_rejects_push() {
        let chan: Chan<u64> = Chan::new(2);
        assert!(chan.push(1));
        assert!(chan.push(2));
        assert!(!chan.push(3), "bounded: third push must be refused");
        chan.pop();
        assert!(chan.push(3), "accepts again after a pop");
    }

    #[test]
    fn chan_carries_messages_across_threads() {
        // The ThreadSanitizer target: concurrent producer/consumer over one
        // ring, FIFO and no losses under real contention.
        const N: u64 = 10_000;
        let chan: Chan<u64> = Chan::new(64);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..N {
                    while !chan.push(i) {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut expect = 0u64;
            while expect < N {
                if let Some(v) = chan.pop() {
                    assert_eq!(v, expect, "FIFO order violated");
                    expect += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            assert_eq!(chan.pop(), None);
        });
    }

    /// Skewed batch: heavy singletons piled on one shard plus a big cheap
    /// chain that finishes instantly, leaving its shard idle.
    fn skewed_specs() -> Vec<asets_core::txn::TxnSpec> {
        let mut specs: Vec<asets_core::txn::TxnSpec> = (0..8).map(|_| ind(0, 100, 10)).collect();
        let first = specs.len() as u32;
        specs.push(ind(0, 100, 1));
        for i in 1..9u32 {
            specs.push(dep(0, 100, 1, &[first + i - 1]));
        }
        specs
    }

    #[test]
    fn threaded_run_completes_and_merges_exactly() {
        let specs = skewed_specs();
        let n = specs.len();
        let cfg = RebalanceConfig::migrate_every(units(5));
        let r = ShardedRuntime::new(specs, PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.completed, n as u64);
        assert_eq!(
            r.merged.summary,
            MetricsSummary::from_outcomes(&r.merged.outcomes)
        );
        let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
        assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        let reb = r.rebalance.unwrap();
        assert!(reb.barriers > 0, "threaded runs cross barriers");
    }

    #[test]
    fn threaded_is_bit_identical_across_runs() {
        let cfg = RebalanceConfig::migrate_every(units(7));
        let run = || {
            ShardedRuntime::new(skewed_specs(), PolicyKind::asets_star())
                .shards(4)
                .rebalance(cfg)
                .with_trace()
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.merged.outcomes, b.merged.outcomes);
        assert_eq!(a.merged.stats, b.merged.stats);
        assert_eq!(a.merged.trace, b.merged.trace);
        assert_eq!(a.rebalance, b.rebalance);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.txns, sb.txns, "per-shard completion sets must match");
        }
    }

    #[test]
    fn epoch_migration_moves_future_components() {
        // Shard imbalance visible at t=5: the shard with the heavy head
        // also owns heavy future singletons; migration hands them over.
        let mut specs = vec![ind(0, 200, 40), ind(0, 200, 1)];
        specs.extend((0..6).map(|i| ind(20 + i, 300, 10)));
        let r = ShardedRuntime::new(specs.clone(), PolicyKind::Srpt)
            .shards(2)
            .rebalance(RebalanceConfig::migrate_every(units(5)))
            .run()
            .unwrap();
        let reb = r.rebalance.as_ref().unwrap();
        assert_eq!(r.merged.stats.completed, specs.len() as u64);
        assert_eq!(
            r.merged.summary,
            MetricsSummary::from_outcomes(&r.merged.outcomes)
        );
        assert!(reb.migrated_components > 0, "imbalance must move work");
        // Counters stay consistent with the event log.
        let (mut comps, mut txns) = (0u64, 0u64);
        for RebalanceEvent::Migration { txns: m, .. } in &reb.events {
            comps += 1;
            txns += *m as u64;
        }
        assert_eq!(comps, reb.migrated_components);
        assert_eq!(txns, reb.migrated_txns);
    }

    #[test]
    fn quiet_stretches_skip_epochs() {
        // Arrivals at 0 and 1000 with a tiny epoch: without skip-ahead the
        // run would cross ~500 barriers; the leader jumps the gap.
        let mut specs = vec![ind(0, 10, 2), ind(0, 10, 2)];
        specs.push(ind(1000, 1010, 2));
        specs.push(ind(1000, 1010, 2));
        let cfg = RebalanceConfig::migrate_every(units(2));
        let r = ShardedRuntime::new(specs, PolicyKind::Edf)
            .shards(2)
            .rebalance(cfg)
            .run()
            .unwrap();
        assert_eq!(r.merged.stats.completed, 4);
        let reb = r.rebalance.unwrap();
        assert!(
            reb.barriers < 50,
            "idle epochs must be skipped, crossed {} barriers",
            reb.barriers
        );
    }

    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging() {
        use asets_core::obs::EpochSummary;
        use asets_core::policy::LifecycleEvent;

        /// Panics at shard 1's first epoch.
        struct Tripwire(usize);
        impl Observer for Tripwire {
            fn on_epoch(&mut self, _events: &[LifecycleEvent], _summary: &EpochSummary) {
                assert!(self.0 != 1, "tripwire on shard 1");
            }
        }

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                ShardedRuntime::new(skewed_specs(), PolicyKind::asets_star())
                    .shards(2)
                    .rebalance(RebalanceConfig::migrate_every(units(5)))
                    .run_observed(|shard, _table| Tripwire(shard))
            });
            let _ = tx.send(run.err().map(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            }));
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a shard panic must end the run, not hang it")
            .expect("the run must fail");
        assert!(
            message.contains("tripwire on shard 1"),
            "the shard's own panic is re-raised, got {message:?}"
        );
    }
}
