//! The MIX policy (Buttazzo, Spuri & Sensini, RTSS '95) — the related-work
//! baseline the paper contrasts ASETS\* against in §V.
//!
//! MIX assigns each transaction a priority that is a **static linear
//! combination of its absolute deadline and its value**:
//!
//! ```text
//! key_i = d_i − γ · w_i        (smallest key first)
//! ```
//!
//! where γ (the *value factor*, in time units per weight unit) is a fixed
//! system parameter: γ = 0 is plain EDF, large γ approaches Highest-Value
//! -First. The paper's criticism — which the experiments in this repo let
//! you verify — is precisely that γ is *static*: "ASETS\* automatically
//! adapts to different workloads, switching between HDF and EDF, while MIX
//! statically combines both of them using a system parameter".
//!
//! Implemented as an extension beyond the paper's evaluated set; exercised
//! by the `mix_parameter` ablation.

use super::Scheduler;
use crate::queue::KeyedQueue;
use crate::table::TxnTable;
use crate::time::{SimDuration, SimTime};
use crate::txn::TxnId;

/// The MIX scheduling policy.
#[derive(Debug)]
pub struct Mix {
    /// Value factor γ: how many time units of deadline one unit of weight
    /// buys.
    gamma: SimDuration,
    queue: KeyedQueue<i128>,
}

impl Mix {
    /// Build MIX with value factor `gamma`.
    pub fn new(gamma: SimDuration) -> Mix {
        Mix {
            gamma,
            queue: KeyedQueue::new(),
        }
    }

    /// The configured value factor.
    pub fn gamma(&self) -> SimDuration {
        self.gamma
    }

    fn key(&self, table: &TxnTable, t: TxnId) -> i128 {
        table.deadline(t).ticks() as i128
            - self.gamma.ticks() as i128 * table.weight(t).get() as i128
    }
}

impl Scheduler for Mix {
    fn name(&self) -> &str {
        "MIX"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue.insert(t.0, self.key(table, t));
    }

    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {
        // Deadline and weight are static; nothing to re-key.
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, _table: &TxnTable, _now: SimTime) -> Option<TxnId> {
        self.queue.peek_id().map(TxnId)
    }

    fn select_many(
        &mut self,
        _table: &TxnTable,
        _now: SimTime,
        slots: usize,
        out: &mut Vec<TxnId>,
    ) {
        // Static keys: one ordered pass fills every slot.
        out.extend(self.queue.iter().take(slots).map(|(_, id)| TxnId(id)));
    }
}

/// Highest-Value-First (Buttazzo et al., the other §V pole): priority is
/// the weight alone — deadline-oblivious, the mirror image of EDF's
/// value-obliviousness. Ties toward the smaller transaction id.
///
/// Included as the second related-work extension baseline; equivalent to
/// [`Mix`] in the γ → ∞ limit, but with exact (not scaled) ordering.
#[derive(Debug, Default)]
pub struct Hvf {
    queue: crate::queue::KeyedQueue<std::cmp::Reverse<u32>>,
}

impl Hvf {
    /// New empty HVF policy.
    pub fn new() -> Hvf {
        Hvf::default()
    }
}

impl Scheduler for Hvf {
    fn name(&self) -> &str {
        "HVF"
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, _now: SimTime) {
        self.queue
            .insert(t.0, std::cmp::Reverse(table.weight(t).get()));
    }

    fn on_requeue(&mut self, _t: TxnId, _table: &TxnTable, _now: SimTime) {
        // Weight is static.
    }

    fn on_complete(&mut self, t: TxnId, _table: &TxnTable, _now: SimTime) {
        self.queue.remove(t.0);
    }

    fn select(&mut self, _table: &TxnTable, _now: SimTime) -> Option<TxnId> {
        self.queue.peek_id().map(TxnId)
    }

    fn select_many(
        &mut self,
        _table: &TxnTable,
        _now: SimTime,
        slots: usize,
        out: &mut Vec<TxnId>,
    ) {
        // Static keys: one ordered pass fills every slot.
        out.extend(self.queue.iter().take(slots).map(|(_, id)| TxnId(id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::{TxnSpec, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }

    /// T0: d=10, w=1. T1: d=14, w=9.
    fn table() -> TxnTable {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(10), units(2), Weight(1)),
            TxnSpec::independent(at(0), at(14), units(2), Weight(9)),
        ])
        .unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        tbl
    }

    #[test]
    fn gamma_zero_is_edf() {
        let tbl = table();
        let mut p = Mix::new(SimDuration::ZERO);
        p.on_ready(TxnId(0), &tbl, at(0));
        p.on_ready(TxnId(1), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)), "earliest deadline");
    }

    #[test]
    fn large_gamma_prefers_value() {
        let tbl = table();
        // γ=1: keys 10−1=9 vs 14−9=5 → the heavy transaction wins despite
        // the later deadline.
        let mut p = Mix::new(units(1));
        p.on_ready(TxnId(0), &tbl, at(0));
        p.on_ready(TxnId(1), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
    }

    #[test]
    fn key_can_go_negative() {
        let tbl = TxnTable::new(vec![TxnSpec::independent(
            at(0),
            at(1),
            units(1),
            Weight(10),
        )])
        .unwrap();
        let mut p = Mix::new(units(1000));
        let mut tbl = tbl;
        tbl.arrive(TxnId(0), at(0));
        p.on_ready(TxnId(0), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn completion_removes() {
        let mut tbl = table();
        let mut p = Mix::new(units(1));
        p.on_ready(TxnId(0), &tbl, at(0));
        p.on_ready(TxnId(1), &tbl, at(0));
        tbl.start_running(TxnId(1));
        tbl.complete_into(TxnId(1), at(2), units(2), &mut Vec::new());
        p.on_complete(TxnId(1), &tbl, at(2));
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
    }

    #[test]
    fn hvf_picks_heaviest_regardless_of_deadline() {
        let tbl = table(); // T0: d=10 w=1; T1: d=14 w=9
        let mut p = Hvf::new();
        p.on_ready(TxnId(0), &tbl, at(0));
        p.on_ready(TxnId(1), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
    }

    #[test]
    fn hvf_ties_break_by_id() {
        let mut tbl = TxnTable::new(vec![
            TxnSpec::independent(at(0), at(10), units(2), Weight(5)),
            TxnSpec::independent(at(0), at(5), units(2), Weight(5)),
        ])
        .unwrap();
        tbl.arrive(TxnId(0), at(0));
        tbl.arrive(TxnId(1), at(0));
        let mut p = Hvf::new();
        p.on_ready(TxnId(0), &tbl, at(0));
        p.on_ready(TxnId(1), &tbl, at(0));
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(0)));
    }

    #[test]
    fn hvf_completion_removes() {
        let mut tbl = table();
        let mut p = Hvf::new();
        p.on_ready(TxnId(0), &tbl, at(0));
        p.on_ready(TxnId(1), &tbl, at(0));
        tbl.start_running(TxnId(1));
        tbl.complete_into(TxnId(1), at(2), units(2), &mut Vec::new());
        p.on_complete(TxnId(1), &tbl, at(2));
        assert_eq!(p.select(&tbl, at(2)), Some(TxnId(0)));
    }
}
