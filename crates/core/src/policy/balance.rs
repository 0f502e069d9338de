//! Balance-aware ASETS\* (§III-D): trading a little average-case performance
//! for a much better worst case.
//!
//! SRPT/HDF starve long transactions. The paper's aging scheme periodically
//! force-runs `T_old`, the pending transaction with the highest
//! weight-to-deadline ratio `w_i / d_i` ("the oldest transaction is the one
//! that has the earliest deadline", scaled by utility). How often is
//! controlled by an **activation rate**:
//!
//! * **time-based** rate `ρ_t`: one forced run per `1/ρ_t` time units
//!   (the paper sweeps `ρ_t ∈ [0.002, 0.01]`, i.e. periods 500 → 100);
//! * **count-based** rate `ρ_c`: one forced run per `1/ρ_c` scheduling
//!   points (paper sweeps `ρ_c ∈ [0.02, 0.1]`, i.e. every 50 → 10 points).
//!
//! When an activation is due, `T_old` is selected instead of the inner
//! policy's choice and *pinned* until it completes — a forced run that could
//! be preempted away at the next arrival would not fix starvation
//! (DESIGN.md D4).

use super::{Ratio, Scheduler};
use crate::queue::KeyedQueue;
use crate::table::TxnTable;
use crate::time::{SimDuration, SimTime};
use crate::txn::TxnId;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::fmt;

/// When the aging scheme fires (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ActivationMode {
    /// One forced `T_old` run every `period` of simulated time.
    TimeBased {
        /// The activation period `P^t = 1/ρ_t`.
        period: SimDuration,
    },
    /// One forced `T_old` run every `period` scheduling points.
    CountBased {
        /// The activation period `P^c = 1/ρ_c`, in scheduling points.
        period: u64,
    },
}

impl ActivationMode {
    /// Time-based mode from the paper's activation-rate parameterization
    /// (`rate` forced runs per time unit; e.g. `0.002` → period 500).
    ///
    /// # Panics
    /// If `rate` is not strictly positive and finite.
    pub fn time_rate(rate: f64) -> ActivationMode {
        assert!(
            rate.is_finite() && rate > 0.0,
            "activation rate must be positive"
        );
        ActivationMode::TimeBased {
            period: SimDuration::from_units(1.0 / rate),
        }
    }

    /// Count-based mode from an activation rate (`rate` forced runs per
    /// scheduling point; e.g. `0.02` → every 50 points).
    ///
    /// # Panics
    /// If `rate` is not in `(0, 1]`.
    pub fn count_rate(rate: f64) -> ActivationMode {
        assert!(
            rate.is_finite() && rate > 0.0 && rate <= 1.0,
            "count-based activation rate must be in (0, 1]"
        );
        ActivationMode::CountBased {
            period: (1.0 / rate).round().max(1.0) as u64,
        }
    }
}

impl fmt::Display for ActivationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivationMode::TimeBased { period } => {
                write!(f, "time:{:.0}", period.as_units())
            }
            ActivationMode::CountBased { period } => write!(f, "count:{period}"),
        }
    }
}

/// Balance-aware wrapper around any inner policy (the paper wraps ASETS\*
/// at the workflow level with weights; the wrapper is generic so the
/// ablation benches can also wrap plain ASETS).
#[derive(Debug)]
pub struct BalanceAware<S> {
    inner: S,
    mode: ActivationMode,
    /// Ready transactions keyed by `w_i / d_i`, max first — the `T_old` index.
    age: KeyedQueue<Reverse<Ratio>>,
    /// A forced transaction currently pinned to the server.
    pinned: Option<TxnId>,
    /// Next activation instant (time-based mode).
    next_at: SimTime,
    /// Scheduling points since the last activation (count-based mode).
    points: u64,
    name: String,
    /// Forced runs so far (observability for experiments).
    forced_runs: u64,
}

impl<S: Scheduler> BalanceAware<S> {
    /// Wrap `inner` with the given activation mode.
    pub fn new(inner: S, mode: ActivationMode) -> Self {
        let name = format!("{}-bal({})", inner.name(), mode);
        let next_at = match mode {
            ActivationMode::TimeBased { period } => SimTime::ZERO + period,
            ActivationMode::CountBased { .. } => SimTime::MAX,
        };
        BalanceAware {
            inner,
            mode,
            age: KeyedQueue::new(),
            pinned: None,
            next_at,
            points: 0,
            name,
            forced_runs: 0,
        }
    }

    /// Number of forced `T_old` runs so far.
    pub fn forced_runs(&self) -> u64 {
        self.forced_runs
    }

    /// The currently pinned forced transaction, if any.
    pub fn pinned(&self) -> Option<TxnId> {
        self.pinned
    }

    /// Borrow the wrapped policy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn age_key(table: &TxnTable, t: TxnId) -> Reverse<Ratio> {
        Reverse(Ratio::new(
            table.weight(t).get() as u64,
            table.deadline(t).ticks(),
        ))
    }

    /// Is an activation due at this scheduling point? (Does not consume it.)
    fn due(&self, now: SimTime) -> bool {
        match self.mode {
            ActivationMode::TimeBased { .. } => now >= self.next_at,
            ActivationMode::CountBased { period } => self.points >= period,
        }
    }

    /// Consume the pending activation.
    fn consume(&mut self, now: SimTime) {
        match self.mode {
            ActivationMode::TimeBased { period } => {
                // Advance past `now` — while the system idles, missed
                // activations are dropped rather than executed in a burst
                // (there was nothing to starve while the queue was empty).
                while self.next_at <= now {
                    self.next_at = self.next_at.saturating_add(period);
                }
            }
            ActivationMode::CountBased { .. } => self.points = 0,
        }
    }
}

impl<S: Scheduler> Scheduler for BalanceAware<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_ready(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.age.insert(t.0, Self::age_key(table, t));
        self.inner.on_ready(t, table, now);
    }

    fn on_blocked_arrival(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.inner.on_blocked_arrival(t, table, now);
    }

    fn on_requeue(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        // The age key (w/d) is static; only the inner policy re-keys.
        self.inner.on_requeue(t, table, now);
    }

    fn on_complete(&mut self, t: TxnId, table: &TxnTable, now: SimTime) {
        self.age.remove(t.0);
        if self.pinned == Some(t) {
            self.pinned = None;
        }
        self.inner.on_complete(t, table, now);
    }

    fn select(&mut self, table: &TxnTable, now: SimTime) -> Option<TxnId> {
        // A pinned forced run holds the server until it completes.
        if let Some(p) = self.pinned {
            debug_assert!(table.state(p).is_ready(), "pinned txn must still be live");
            return Some(p);
        }
        if let ActivationMode::CountBased { .. } = self.mode {
            self.points += 1;
        }
        if self.due(now) {
            if let Some(t_old) = self.age.peek_id().map(TxnId) {
                self.consume(now);
                self.pinned = Some(t_old);
                self.forced_runs += 1;
                return Some(t_old);
            }
            // Nothing ready: drop the activation (see `consume` rationale).
            self.consume(now);
        }
        self.inner.select(table, now)
    }

    fn next_wakeup(&self, _now: SimTime) -> Option<SimTime> {
        match self.mode {
            ActivationMode::TimeBased { .. } => Some(self.next_at),
            ActivationMode::CountBased { .. } => None,
        }
    }

    fn attach_observer(&mut self, obs: crate::obs::SharedObserver) {
        self.inner.attach_observer(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Srpt;
    use crate::time::SimDuration;
    use crate::txn::{TxnSpec, Weight};

    fn at(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }
    fn units(u: u64) -> SimDuration {
        SimDuration::from_units_int(u)
    }

    /// T0: long, heavy, early deadline — the starving transaction
    /// (w/d = 9/10). T1: short filler (w/d = 1/100).
    fn table() -> TxnTable {
        TxnTable::new(vec![
            TxnSpec::independent(at(0), at(10), units(50), Weight(9)),
            TxnSpec::independent(at(0), at(100), units(1), Weight(1)),
        ])
        .unwrap()
    }

    fn readied(p: &mut dyn Scheduler) -> TxnTable {
        let mut tbl = table();
        for t in 0..2u32 {
            tbl.arrive(TxnId(t), at(0));
            p.on_ready(TxnId(t), &tbl, at(0));
        }
        tbl
    }

    #[test]
    fn rates_map_to_periods() {
        assert_eq!(
            ActivationMode::time_rate(0.002),
            ActivationMode::TimeBased {
                period: SimDuration::from_units_int(500)
            }
        );
        assert_eq!(
            ActivationMode::count_rate(0.02),
            ActivationMode::CountBased { period: 50 }
        );
        assert_eq!(
            ActivationMode::count_rate(1.0),
            ActivationMode::CountBased { period: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_time_rate_panics() {
        ActivationMode::time_rate(0.0);
    }

    #[test]
    fn before_activation_behaves_like_inner() {
        let mut p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.01)); // period 100
        let tbl = readied(&mut p);
        // t=0 < 100: plain SRPT picks the short T1.
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)));
        assert_eq!(p.forced_runs(), 0);
    }

    #[test]
    fn time_based_activation_forces_t_old() {
        let mut p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.01));
        let tbl = readied(&mut p);
        // At t=100 the activation fires: T_old = argmax w/d = T0.
        assert_eq!(p.select(&tbl, at(100)), Some(TxnId(0)));
        assert_eq!(p.forced_runs(), 1);
        assert_eq!(p.pinned(), Some(TxnId(0)));
        // Pinned: stays selected even though SRPT would prefer T1.
        assert_eq!(p.select(&tbl, at(101)), Some(TxnId(0)));
    }

    #[test]
    fn pin_clears_on_completion() {
        let mut p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.01));
        let mut tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(100)), Some(TxnId(0)));
        tbl.start_running(TxnId(0));
        tbl.complete_into(TxnId(0), at(150), units(50), &mut Vec::new());
        p.on_complete(TxnId(0), &tbl, at(150));
        assert_eq!(p.pinned(), None);
        assert_eq!(
            p.select(&tbl, at(150)),
            Some(TxnId(1)),
            "back to inner policy"
        );
    }

    #[test]
    fn count_based_activation_every_k_points() {
        let mut p = BalanceAware::new(Srpt::new(), ActivationMode::count_rate(0.5)); // every 2
        let tbl = readied(&mut p);
        assert_eq!(p.select(&tbl, at(0)), Some(TxnId(1)), "point 1: inner");
        assert_eq!(p.select(&tbl, at(1)), Some(TxnId(0)), "point 2: forced");
        assert_eq!(p.forced_runs(), 1);
    }

    #[test]
    fn missed_activations_do_not_burst() {
        let mut p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.01));
        let tbl = readied(&mut p);
        // Jump far past several periods; only one forced run fires, and the
        // next activation is strictly in the future.
        assert_eq!(p.select(&tbl, at(1000)), Some(TxnId(0)));
        assert_eq!(p.forced_runs(), 1);
        assert!(p.next_wakeup(at(1000)).unwrap() > at(1000));
    }

    #[test]
    fn activation_with_empty_queue_is_dropped() {
        let mut p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.01));
        let tbl = table(); // nothing arrived
        assert_eq!(p.select(&tbl, at(100)), None);
        assert_eq!(p.forced_runs(), 0);
        assert!(
            p.next_wakeup(at(100)).unwrap() > at(100),
            "period advanced, no spin"
        );
    }

    #[test]
    fn next_wakeup_only_in_time_mode() {
        let p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.002));
        assert_eq!(p.next_wakeup(at(0)), Some(at(500)));
        let p = BalanceAware::new(Srpt::new(), ActivationMode::count_rate(0.1));
        assert_eq!(p.next_wakeup(at(0)), None);
    }

    #[test]
    fn name_encodes_mode() {
        let p = BalanceAware::new(Srpt::new(), ActivationMode::time_rate(0.002));
        assert_eq!(p.name(), "SRPT-bal(time:500)");
    }
}
