//! The off-the-shelf priority policies the paper compares against (§II-C,
//! §IV-A): FCFS, EDF, SRPT, Least-Slack, and HDF — plus `Ready`, the §III-B
//! wait-queue strawman.
//!
//! Each is a single [`KeyedQueue`] whose key realizes the policy's priority
//! (`select` peeks the minimum). Dependency handling is identical for all of
//! them: blocked transactions simply have not been reported ready yet, which
//! is exactly the paper's framing of deadline-/dependency-oblivious
//! baselines (DESIGN.md D6).

use super::{Ratio, Scheduler};
use crate::obs::{Candidate, DecisionRecord, DecisionRule, ObserverSlot, Winner};
use crate::queue::KeyedQueue;
use crate::table::TxnTable;
use crate::time::SimTime;
use crate::txn::TxnId;
use std::cmp::Reverse;

/// Emit a single-candidate provenance record for a plain priority policy:
/// there is no Eq. 1 comparison, just "this transaction had top priority in
/// a queue of `qlen`". The candidate rides in the `edf` arm of the record.
fn emit_single(obs: &ObserverSlot, table: &TxnTable, now: SimTime, chosen: TxnId, qlen: usize) {
    if !obs.is_attached() {
        return;
    }
    let rec = DecisionRecord {
        at: now,
        rule: DecisionRule::Priority,
        edf: Some(Candidate {
            txn: chosen,
            workflow: None,
            r: table.remaining(chosen),
            slack: table.slack(chosen, now),
            weight: table.weight(chosen).get(),
            deadline: table.deadline(chosen),
        }),
        hdf: None,
        impact_edf: 0,
        impact_hdf: 0,
        winner: Winner::Single,
        chosen,
        edf_len: qlen as u32,
        hdf_len: 0,
    };
    obs.emit(|o| o.decision(&rec));
}

/// First-Come-First-Served: priority = arrival time. Never preempts in
/// practice (the running transaction always has the earliest arrival among
/// ready ones).
#[derive(Debug, Default)]
pub struct Fcfs {
    queue: KeyedQueue<u64>,
    obs: ObserverSlot,
}

impl Fcfs {
    /// New empty FCFS policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Fcfs {
    fn name(&self) -> &str {
        "FCFS"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        // Key by arrival so that a dependent transaction released late still
        // takes its *submission* position in the line, the classical
        // definition.
        self.queue.insert(t.0, table.spec(t).arrival.ticks());
    }

    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {
        // Arrival time is static; nothing to re-key.
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let chosen = self.queue.peek_id().map(TxnId);
        if let Some(c) = chosen {
            emit_single(&self.obs, table, now, c, self.queue.len());
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // One ordered pass over the queue fills every slot without the
        // `top_k` allocation (same entries `top_k_into` would surface).
        for (_, id) in self.queue.iter().take(slots) {
            let c = TxnId(id);
            emit_single(&self.obs, table, now, c, self.queue.len());
            out.push(c);
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.obs.attach(obs);
    }
}

/// Earliest-Deadline-First: priority = `1/d_i` (paper §II-C), i.e. the
/// smallest deadline wins. Optimal when the system is not over-utilized;
/// suffers the domino effect under overload (§III-A.1).
#[derive(Debug, Default)]
pub struct Edf {
    queue: KeyedQueue<u64>,
    obs: ObserverSlot,
}

impl Edf {
    /// New empty EDF policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Edf {
    fn name(&self) -> &str {
        "EDF"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.insert(t.0, table.deadline(t).ticks());
    }

    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {
        // Deadline is static.
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let chosen = self.queue.peek_id().map(TxnId);
        if let Some(c) = chosen {
            emit_single(&self.obs, table, now, c, self.queue.len());
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // One ordered pass over the queue fills every slot without the
        // `top_k` allocation (same entries `top_k_into` would surface).
        for (_, id) in self.queue.iter().take(slots) {
            let c = TxnId(id);
            emit_single(&self.obs, table, now, c, self.queue.len());
            out.push(c);
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.obs.attach(obs);
    }
}

/// Shortest-Remaining-Processing-Time: the smallest `r_i` wins. Optimal for
/// mean response time (Schroeder & Harchol-Balter), hence optimal for
/// tardiness once *every* deadline is already missed (§III-A.1).
#[derive(Debug, Default)]
pub struct Srpt {
    queue: KeyedQueue<u64>,
    obs: ObserverSlot,
}

impl Srpt {
    /// New empty SRPT policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Srpt {
    fn name(&self) -> &str {
        "SRPT"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.insert(t.0, table.remaining(t).ticks());
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.rekey(t.0, table.remaining(t).ticks());
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let chosen = self.queue.peek_id().map(TxnId);
        if let Some(c) = chosen {
            emit_single(&self.obs, table, now, c, self.queue.len());
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // One ordered pass over the queue fills every slot without the
        // `top_k` allocation (same entries `top_k_into` would surface).
        for (_, id) in self.queue.iter().take(slots) {
            let c = TxnId(id);
            emit_single(&self.obs, table, now, c, self.queue.len());
            out.push(c);
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.obs.attach(obs);
    }
}

/// Least-Slack: priority = `1/s_i` (Abbott & Garcia-Molina). At any common
/// instant `t`, ordering by slack `d_i - (t + r_i)` is ordering by the
/// static quantity `d_i - r_i` (the latest start time), so the key is signed
/// `d - r` and only needs re-keying when `r` changes.
#[derive(Debug, Default)]
pub struct LeastSlack {
    queue: KeyedQueue<i128>,
    obs: ObserverSlot,
}

impl LeastSlack {
    /// New empty Least-Slack policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(table: &TxnTable, t: TxnId) -> i128 {
        table.deadline(t).ticks() as i128 - table.remaining(t).ticks() as i128
    }
}

impl Scheduler for LeastSlack {
    fn name(&self) -> &str {
        "LS"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.insert(t.0, Self::key(table, t));
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.rekey(t.0, Self::key(table, t));
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let chosen = self.queue.peek_id().map(TxnId);
        if let Some(c) = chosen {
            emit_single(&self.obs, table, now, c, self.queue.len());
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // One ordered pass over the queue fills every slot without the
        // `top_k` allocation (same entries `top_k_into` would surface).
        for (_, id) in self.queue.iter().take(slots) {
            let c = TxnId(id);
            emit_single(&self.obs, table, now, c, self.queue.len());
            out.push(c);
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.obs.attach(obs);
    }
}

/// Highest-Density-First: priority = `w_i / r_i` (Becchetti et al.) —
/// optimal for weighted tardiness when every deadline is already missed.
/// Reduces to SRPT when all weights are equal.
#[derive(Debug, Default)]
pub struct Hdf {
    queue: KeyedQueue<Reverse<Ratio>>,
    obs: ObserverSlot,
}

impl Hdf {
    /// New empty HDF policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(table: &TxnTable, t: TxnId) -> Reverse<Ratio> {
        Reverse(Ratio::new(
            table.weight(t).get() as u64,
            table.remaining(t).ticks(),
        ))
    }
}

impl Scheduler for Hdf {
    fn name(&self) -> &str {
        "HDF"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.insert(t.0, Self::key(table, t));
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.rekey(t.0, Self::key(table, t));
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        let chosen = self.queue.peek_id().map(TxnId);
        if let Some(c) = chosen {
            emit_single(&self.obs, table, now, c, self.queue.len());
        }
        chosen
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // One ordered pass over the queue fills every slot without the
        // `top_k` allocation (same entries `top_k_into` would surface).
        for (_, id) in self.queue.iter().take(slots) {
            let c = TxnId(id);
            emit_single(&self.obs, table, now, c, self.queue.len());
            out.push(c);
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.obs.attach(obs);
    }
}

/// The §III-B strawman: a Wait queue conceals blocked transactions, and the
/// ready ones are scheduled with transaction-level ASETS. Because the engine
/// only reports *ready* transactions to policies, `Ready` is exactly
/// transaction-level [`super::Asets`] run on a dependent workload — the
/// newtype exists so experiment reports and configs can name the strawman
/// explicitly.
#[derive(Debug, Default)]
pub struct Ready {
    inner: super::Asets,
}

impl Ready {
    /// New empty Ready policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Ready {
    fn name(&self) -> &str {
        "Ready"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_ready(t, table, now);
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_requeue(t, table, now);
    }

    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_complete(t, table, now);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        self.inner.select(table, now)
    }

    fn select_many(&mut self, table: &TxnTable, now: SimTime, slots: usize, out: &mut Vec<TxnId>) {
        // Deliberately single-fill (not forwarded to the inner multi-fill):
        // the strawman's Wait queue schedules one transaction per point,
        // and the engine's work-conservation pins rely on that shape.
        let _ = slots;
        if let Some(t) = self.select(table, now) {
            out.push(t);
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.inner.attach_observer(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::txn::{TxnSpec, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }

    /// Three ready transactions with deliberately conflicting orderings:
    ///   T0: a=0, d=30, r=2, w=1   (FCFS first, SRPT first)
    ///   T1: a=1, d=10, r=8, w=2   (EDF first, LS first: d-r=2)
    ///   T2: a=2, d=20, r=4, w=9   (HDF first: density 2.25)
    fn table() -> TxnTable {
        TxnTable::new(vec![
            TxnSpec::independent(at(0), at(30), units(2), Weight(1)),
            TxnSpec::independent(at(1), at(10), units(8), Weight(2)),
            TxnSpec::independent(at(2), at(20), units(4), Weight(9)),
        ])
        .unwrap()
    }

    fn readied(policy: &mut dyn Scheduler) -> TxnTable {
        let mut tbl = table();
        for t in 0..3u32 {
            tbl.arrive(TxnId(t), at(tbl.spec(TxnId(t)).arrival.ticks() / 1_000_000));
            policy.on_ready(TxnId(t), &tbl, at(2));
        }
        tbl
    }

    #[test]
    fn fcfs_picks_earliest_arrival() {
        let mut p = Fcfs::new();
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
    }

    #[test]
    fn edf_picks_earliest_deadline() {
        let mut p = Edf::new();
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(1)));
    }

    #[test]
    fn srpt_picks_shortest_remaining() {
        let mut p = Srpt::new();
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
    }

    #[test]
    fn ls_picks_least_slack() {
        let mut p = LeastSlack::new();
        let tbl = readied(&mut p);
        // d-r: T0=28, T1=2, T2=16.
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(1)));
    }

    #[test]
    fn hdf_picks_highest_density() {
        let mut p = Hdf::new();
        let tbl = readied(&mut p);
        // densities: T0=0.5, T1=0.25, T2=2.25.
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(2)));
    }

    #[test]
    fn hdf_reduces_to_srpt_at_equal_weights() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(30), units(5), Weight(3)),
            TxnSpec::independent(at(0), at(30), units(2), Weight(3)),
            TxnSpec::independent(at(0), at(30), units(9), Weight(3)),
        ])
        .unwrap();
        let mut hdf = Hdf::new();
        let mut srpt = Srpt::new();
        for t in 0..3u32 {
            tbl.arrive(TxnId(t), at(0));
            hdf.on_ready(TxnId(t), &tbl, at(0));
            srpt.on_ready(TxnId(t), &tbl, at(0));
        }
        assert_eq!(hdf.select(&tbl, at(0)), srpt.select(&tbl, at(0)));
    }

    #[test]
    fn completion_removes_from_queue() {
        let mut p = Edf::new();
        let mut tbl = readied(&mut p);
        tbl.start_running(TxnId(1));
        tbl.complete_into(TxnId(1), at(10), units(8), &mut Vec::new());
        p.on_complete(TxnId(1), &tbl, at(10));
        assert_eq!(
            p.select(&tbl, at(10)),
            Some(TxnId(2)),
            "next deadline after T1"
        );
    }

    #[test]
    fn srpt_requeue_reorders_after_partial_service() {
        // T1 (r=8) runs for 7 units, leaving r=1 < T0's r=2.
        let mut p = Srpt::new();
        let mut tbl = readied(&mut p);
        tbl.start_running(TxnId(1));
        tbl.preempt(TxnId(1), units(7));
        p.on_requeue(TxnId(1), &tbl, at(9));
        assert_eq!(p.select(&tbl, at(9)), Some(TxnId(1)));
    }

    #[test]
    fn ls_handles_negative_slack() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(1), units(10), Weight(1)), // d-r = -9
            TxnSpec::independent(at(0), at(100), units(1), Weight(1)), // d-r = 99
        ])
        .unwrap();
        let mut p = LeastSlack::new();
        for t in 0..2u32 {
            tbl.arrive(TxnId(t), at(0));
            p.on_ready(TxnId(t), &tbl, at(0));
        }
        assert_eq!(
            p.select(&tbl, at(0)),
            Some(TxnId(0)),
            "most negative slack first"
        );
    }

    #[test]
    fn select_many_ranks_top_k_without_popping() {
        let mut p = Edf::new();
        let tbl = readied(&mut p);
        let mut out = Vec::new();
        p.select_many(&tbl, at(2), 2, &mut out);
        assert_eq!(out, vec![TxnId(1), TxnId(2)], "deadlines 10 then 20");
        // Selection peeks: asking again yields the same (longer) ranking.
        let mut again = Vec::new();
        p.select_many(&tbl, at(2), 5, &mut again);
        assert_eq!(again, vec![TxnId(1), TxnId(2), TxnId(0)]);
        // A single slot agrees with plain select.
        let mut one = Vec::new();
        p.select_many(&tbl, at(2), 1, &mut one);
        assert_eq!(one, vec![p.select(&tbl, at(2)).unwrap()]);
    }

    #[test]
    fn default_select_many_fills_one_slot() {
        // Ready keeps the trait default via its inner ASETS policy: one
        // choice no matter how many slots are free.
        let mut p = Ready::new();
        let tbl = readied(&mut p);
        let mut out = Vec::new();
        p.select_many(&tbl, at(2), 3, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], p.select(&tbl, at(2)).unwrap());
    }

    #[test]
    fn empty_policies_select_none() {
        let tbl = table();
        for p in [
            &mut Fcfs::new() as &mut dyn Scheduler,
            &mut Edf::new(),
            &mut Srpt::new(),
            &mut LeastSlack::new(),
            &mut Hdf::new(),
            &mut Ready::new(),
        ] {
            assert_eq!(p.select(&tbl, at(0)), None);
        }
    }
}
