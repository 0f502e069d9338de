//! The lifecycle view of a flight dump: reassemble every transaction's
//! records, verify span-interval invariants, render per-transaction
//! timelines, and export Chrome/Perfetto trace-event JSON.
//!
//! A [`Timeline`] is built from in-memory recorders
//! ([`Timeline::from_recorders`]) or from a parsed dump
//! ([`Timeline::from_dump`]); both walk the same [`Record`]s, with no text
//! round trip. Shards' records are taken one recorder after another: under
//! static sharding every transaction's records come from one shard, so a
//! transaction's chain is the same whatever the shard order. Once built it
//! answers:
//!
//! * [`Timeline::of`] — the complete arrival→completion span chain of one
//!   transaction ([`TxnTimeline::render`] prints it);
//! * [`Timeline::check`] — per-server run segments never overlap, preempt
//!   edges match the pool's preemption stat, per-transaction causality
//!   (arrived ≤ ready ≤ first run ≤ completion, served time == service);
//! * [`Timeline::to_perfetto`] — a trace that loads in `ui.perfetto.dev`:
//!   one track per server per shard, an async slice per workflow, an
//!   instant marker per preemption. Emission order is deterministic, so
//!   the export is byte-stable for a fixed workload (golden-tested).

use crate::analysis::Dump;
use crate::recorder::{FlightRecorder, Record};
use asets_core::obs::CompletionInfo;
use asets_core::time::{SimDuration, SimTime, TICKS_PER_UNIT};
use asets_core::txn::TxnId;
use asets_core::workflow::WfId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A dispatch edge: the engine handed the transaction a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchEdge {
    /// When.
    pub at: SimTime,
    /// The transaction this dispatch displaced (its preemption victim).
    pub displaced: Option<TxnId>,
    /// The flight-recorder sequence number of the causing decision.
    pub decision_seq: Option<u64>,
}

/// A maximal contiguous run interval on one server (adjacent `served`
/// segments from consecutive scheduling points are coalesced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSegment {
    /// Server index within the shard.
    pub server: u32,
    /// Interval start.
    pub from: SimTime,
    /// Interval end.
    pub until: SimTime,
    /// Whether the transaction completed at `until`.
    pub completed: bool,
}

/// The reassembled lifecycle of one transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnTimeline {
    /// Shard label carried by the span lines (None for unsharded runs).
    pub shard: Option<u32>,
    /// Arrival instant and whether the transaction arrived ready.
    pub arrived: Option<(SimTime, bool)>,
    /// When the last dependency cleared (None when it arrived ready).
    pub ready_at: Option<SimTime>,
    /// Dispatch edges, in time order.
    pub dispatches: Vec<DispatchEdge>,
    /// Coalesced run segments, in time order.
    pub segments: Vec<RunSegment>,
    /// Instants this transaction was preempted, with the preemptor.
    pub preempted: Vec<(SimTime, TxnId)>,
    /// Completion summary, when the transaction finished inside the trace.
    pub completion: Option<CompletionInfo>,
}

/// Render `t` in time units, trimming the fraction when it is integral.
fn fmt_units(t: u64) -> String {
    if t.is_multiple_of(TICKS_PER_UNIT) {
        (t / TICKS_PER_UNIT).to_string()
    } else {
        format!("{:.6}", t as f64 / TICKS_PER_UNIT as f64)
    }
}

impl TxnTimeline {
    fn push_served(&mut self, server: u32, from: SimTime, until: SimTime, completed: bool) {
        if let Some(last) = self.segments.last_mut() {
            if last.server == server && last.until == from {
                last.until = until;
                last.completed |= completed;
                return;
            }
        }
        self.segments.push(RunSegment {
            server,
            from,
            until,
            completed,
        });
    }

    /// Total time on a server across all segments.
    pub fn served_total(&self) -> SimDuration {
        SimDuration::from_ticks(
            self.segments
                .iter()
                .map(|s| s.until.ticks() - s.from.ticks())
                .sum(),
        )
    }

    /// Human-readable span chain, one line per lifecycle edge, for
    /// `asets-obs timeline`.
    pub fn render(&self, txn: TxnId, workflow: Option<WfId>) -> String {
        let mut head = format!("txn {txn}");
        if let Some(s) = self.shard {
            let _ = write!(head, "  shard {s}");
        }
        if let Some(w) = workflow {
            let _ = write!(head, "  workflow W{}", w.0);
        }
        // (instant, rank-within-instant, text): rank keeps causal order at
        // one instant — arrive < ready < preempt(of this txn) < dispatch —
        // and run intervals sort by their start.
        let mut lines: Vec<(u64, u8, String)> = Vec::new();
        if let Some((at, ready)) = self.arrived {
            let state = if ready { "ready" } else { "blocked on deps" };
            lines.push((at.ticks(), 0, format!("arrived ({state})")));
        }
        if let Some(at) = self.ready_at {
            lines.push((at.ticks(), 1, "ready (deps cleared)".into()));
        }
        for &(at, by) in &self.preempted {
            lines.push((at.ticks(), 2, format!("preempted by {by}")));
        }
        for d in &self.dispatches {
            let mut s = String::from("dispatched");
            if let Some(seq) = d.decision_seq {
                let _ = write!(s, " [decision #{seq}]");
            }
            if let Some(v) = d.displaced {
                let _ = write!(s, " displacing {v}");
            }
            lines.push((d.at.ticks(), 3, s));
        }
        for seg in &self.segments {
            lines.push((
                seg.from.ticks(),
                4,
                format!(
                    "ran on server {} until t={}{}",
                    seg.server,
                    fmt_units(seg.until.ticks()),
                    if seg.completed { " (finished)" } else { "" }
                ),
            ));
        }
        if let Some(info) = &self.completion {
            let verdict = if info.met_deadline {
                "deadline met".to_string()
            } else {
                format!("MISSED by {}", fmt_units(info.tardiness.ticks()))
            };
            lines.push((
                info.finish.ticks(),
                5,
                format!(
                    "completed: deadline t={}, queue wait {}, service {} — {verdict}",
                    fmt_units(info.deadline.ticks()),
                    fmt_units(info.queue_wait.ticks()),
                    fmt_units(info.service.ticks()),
                ),
            ));
        }
        lines.sort_by_key(|l| (l.0, l.1));
        let mut out = head;
        out.push('\n');
        for (at, _, text) in lines {
            let _ = writeln!(out, "  t={:<12} {text}", fmt_units(at));
        }
        out
    }
}

/// A merged, queryable view over one or more recorders' lifecycle
/// records.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    txns: BTreeMap<u32, TxnTimeline>,
    /// `(shard, wf) → members`, shard `None` sorted first.
    wf_members: BTreeMap<(Option<u32>, u32), Vec<TxnId>>,
    /// Records the recorders' rings evicted before the view was built.
    evicted: u64,
}

impl Timeline {
    /// Reassemble in-memory recorders, taken in order. Recorders from a
    /// sharded run must already be remapped to global ids
    /// (`FlightRecorder::remap_txns`).
    pub fn from_recorders(recorders: &[FlightRecorder]) -> Timeline {
        let mut tl = Timeline::default();
        for r in recorders {
            for &(w, t) in r.workflow_members() {
                tl.add_member(r.shard(), w, t);
            }
            for (_, rec) in r.records() {
                tl.add(r.shard(), rec);
            }
            tl.evicted += r.evicted();
        }
        tl
    }

    /// Reassemble a parsed dump (possibly several shards concatenated).
    pub fn from_dump(dump: &Dump) -> Timeline {
        let mut tl = Timeline::default();
        for &(shard, w, t) in &dump.wf_members {
            tl.add_member(shard, w, t);
        }
        for ((_, rec), shard) in dump.records.iter().zip(&dump.shards) {
            tl.add(*shard, rec);
        }
        tl.evicted = dump.evicted();
        tl
    }

    fn add_member(&mut self, shard: Option<u32>, w: u32, t: TxnId) {
        self.wf_members.entry((shard, w)).or_default().push(t);
    }

    fn add(&mut self, shard: Option<u32>, rec: &Record) {
        match *rec {
            Record::Arrived { at, txn, ready } => {
                self.entry(txn, shard).arrived = Some((at, ready));
            }
            Record::Ready { at, txn } => self.entry(txn, shard).ready_at = Some(at),
            Record::Dispatch {
                at,
                txn,
                preempted,
                decision_seq,
            } => {
                self.entry(txn, shard).dispatches.push(DispatchEdge {
                    at,
                    displaced: preempted,
                    decision_seq,
                });
                if let Some(victim) = preempted {
                    self.entry(victim, shard).preempted.push((at, txn));
                }
            }
            Record::Served {
                server,
                txn,
                from,
                until,
                completed,
            } => self
                .entry(txn, shard)
                .push_served(server, from, until, completed),
            Record::Completed { at, txn, info } => {
                self.entry(txn, shard).completion = Some(CompletionInfo { finish: at, ..info });
            }
            Record::Decision(_)
            | Record::Migration(_)
            | Record::Rebalance(_)
            | Record::Admission(_) => {}
        }
    }

    /// Records the rings evicted before this view was built. A non-zero
    /// count means the head of some timelines is missing.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    fn entry(&mut self, txn: TxnId, shard: Option<u32>) -> &mut TxnTimeline {
        let t = self.txns.entry(txn.0).or_default();
        if t.shard.is_none() {
            t.shard = shard;
        }
        t
    }

    /// The lifecycle of one transaction, if it appears in the trace.
    pub fn of(&self, txn: TxnId) -> Option<&TxnTimeline> {
        self.txns.get(&txn.0)
    }

    /// All transactions in the trace, ascending by id.
    pub fn txns(&self) -> impl Iterator<Item = (TxnId, &TxnTimeline)> {
        self.txns.iter().map(|(id, t)| (TxnId(*id), t))
    }

    /// Members of workflow `w` on `shard`, from the snapshot header.
    pub fn workflow_members(&self, shard: Option<u32>, w: WfId) -> &[TxnId] {
        self.wf_members
            .get(&(shard, w.0))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The first workflow containing `txn` (transactions belong to exactly
    /// one weakly-connected component, so "first" is "the").
    pub fn workflow_of(&self, txn: TxnId) -> Option<WfId> {
        self.wf_members
            .iter()
            .find(|(_, members)| members.contains(&txn))
            .map(|((_, w), _)| WfId(*w))
    }

    /// Total preempt span-edges in the trace.
    pub fn preemption_edges(&self) -> u64 {
        self.txns.values().map(|t| t.preempted.len() as u64).sum()
    }

    /// Verify span-interval invariants. Returns human-readable violations
    /// (empty = trace is consistent). A view whose rings evicted records
    /// returns exactly one failure saying so: with the head of the run gone,
    /// per-transaction and per-server checks would report violations that
    /// never happened. Otherwise:
    ///
    /// * per (shard, server), run segments never overlap;
    /// * when `expected_preemptions` is given (the pool's `RunStats`
    ///   count), preempt span-edges must match it exactly;
    /// * per transaction: arrival ≤ ready ≤ first run ≤ completion, the
    ///   completing segment ends at the completion instant, and total
    ///   served time equals the recorded service requirement.
    pub fn check(&self, expected_preemptions: Option<u64>) -> Vec<String> {
        if self.evicted > 0 {
            return vec![format!(
                "ring evicted the first {} records; lifecycle checks need the whole run \
                 (record with a larger capacity)",
                self.evicted
            )];
        }
        let mut fails = Vec::new();

        // Per-(shard, server) interval overlap. Values are (from, until,
        // txn) in ticks.
        type Intervals = Vec<(u64, u64, u32)>;
        let mut by_server: BTreeMap<(Option<u32>, u32), Intervals> = BTreeMap::new();
        for (id, t) in self.txns() {
            for seg in &t.segments {
                by_server.entry((t.shard, seg.server)).or_default().push((
                    seg.from.ticks(),
                    seg.until.ticks(),
                    id.0,
                ));
            }
        }
        for ((shard, server), mut segs) in by_server {
            segs.sort_unstable();
            for w in segs.windows(2) {
                let (_, until_a, txn_a) = w[0];
                let (from_b, _, txn_b) = w[1];
                if from_b < until_a {
                    fails.push(format!(
                        "server {server}{} runs T{txn_a} and T{txn_b} concurrently \
                         (T{txn_b} starts at t={} before T{txn_a} ends at t={})",
                        shard.map(|s| format!(" (shard {s})")).unwrap_or_default(),
                        fmt_units(from_b),
                        fmt_units(until_a),
                    ));
                }
            }
        }

        if let Some(expected) = expected_preemptions {
            let edges = self.preemption_edges();
            if edges != expected {
                fails.push(format!(
                    "trace carries {edges} preempt edges but the run counted {expected}"
                ));
            }
        }

        for (id, t) in self.txns() {
            let Some((arrived, arrived_ready)) = t.arrived else {
                // Partial traces (e.g. filtered streams) only assert what
                // they carry.
                continue;
            };
            let ready = match (arrived_ready, t.ready_at) {
                (true, _) => arrived,
                (false, Some(r)) => r,
                (false, None) => {
                    if !t.segments.is_empty() {
                        fails.push(format!("{id} ran but never became ready"));
                    }
                    continue;
                }
            };
            if ready < arrived {
                fails.push(format!(
                    "{id} ready at t={} before arriving",
                    ready.as_units()
                ));
            }
            if let Some(first) = t.segments.first() {
                if first.from < ready {
                    fails.push(format!(
                        "{id} ran at t={} before ready at t={}",
                        fmt_units(first.from.ticks()),
                        fmt_units(ready.ticks()),
                    ));
                }
            }
            if let Some(info) = &t.completion {
                match t.segments.last() {
                    Some(last) if last.completed && last.until == info.finish => {}
                    _ => fails.push(format!(
                        "{id} completed at t={} but its last segment disagrees",
                        fmt_units(info.finish.ticks())
                    )),
                }
                if t.served_total() != info.service {
                    fails.push(format!(
                        "{id} served {} total but needed {}",
                        fmt_units(t.served_total().ticks()),
                        fmt_units(info.service.ticks()),
                    ));
                }
            }
        }
        fails
    }

    /// Export as Chrome/Perfetto trace-event JSON (open in
    /// `ui.perfetto.dev` or `chrome://tracing`). Mapping:
    ///
    /// * process = shard, thread = server → one track per server per shard;
    /// * one complete (`"X"`) slice per coalesced run segment, named by
    ///   transaction;
    /// * one async (`"b"`/`"e"`) slice per workflow spanning first member
    ///   arrival → last member completion, on its shard's process;
    /// * one instant (`"i"`) marker per preemption, on the victim's track.
    ///
    /// `ts`/`dur` are microseconds; one sim time unit = 10⁶ ticks is
    /// exported as one second. Emission order is deterministic (shards,
    /// then servers, then transactions, then time), so output is
    /// byte-stable for a fixed workload.
    pub fn to_perfetto(&self) -> String {
        let pid = |shard: Option<u32>| shard.unwrap_or(0);
        let mut entries: Vec<String> = Vec::new();

        // Track metadata: processes (shards) and threads (servers).
        let mut shards: Vec<Option<u32>> = self.txns.values().map(|t| t.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        let mut servers: Vec<(Option<u32>, u32)> = self
            .txns
            .values()
            .flat_map(|t| t.segments.iter().map(|s| (t.shard, s.server)))
            .collect();
        servers.sort_unstable();
        servers.dedup();
        for &shard in &shards {
            entries.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"shard {}\"}}}}",
                pid(shard),
                pid(shard),
            ));
        }
        for &(shard, server) in &servers {
            entries.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{server},\
                 \"args\":{{\"name\":\"server {server}\"}}}}",
                pid(shard),
            ));
        }

        // Run segments: complete slices per transaction, in time order.
        for (id, t) in self.txns() {
            for seg in &t.segments {
                entries.push(format!(
                    "{{\"name\":\"{id}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"txn\":{}}}}}",
                    seg.from.ticks(),
                    seg.until.ticks() - seg.from.ticks(),
                    pid(t.shard),
                    seg.server,
                    id.0,
                ));
            }
        }

        // Async workflow slices: first member arrival → last completion.
        for (&(shard, w), members) in &self.wf_members {
            let begin = members
                .iter()
                .filter_map(|m| {
                    self.of(*m)
                        .and_then(|t| t.arrived.map(|(at, _)| at.ticks()))
                })
                .min();
            let end = members
                .iter()
                .filter_map(|m| {
                    self.of(*m)
                        .and_then(|t| t.completion.as_ref().map(|c| c.finish.ticks()))
                })
                .max();
            let (Some(begin), Some(end)) = (begin, end) else {
                continue;
            };
            for (ph, ts) in [("b", begin), ("e", end)] {
                entries.push(format!(
                    "{{\"name\":\"W{w}\",\"cat\":\"workflow\",\"ph\":\"{ph}\",\
                     \"id\":\"s{}.w{w}\",\"ts\":{ts},\"pid\":{},\"tid\":0}}",
                    pid(shard),
                    pid(shard),
                ));
            }
        }

        // Preemption instants on the victim's last track before the event.
        for (id, t) in self.txns() {
            for &(at, by) in &t.preempted {
                let tid = t
                    .segments
                    .iter()
                    .rev()
                    .find(|s| s.until <= at)
                    .map(|s| s.server)
                    .unwrap_or(0);
                entries.push(format!(
                    "{{\"name\":\"preempt {id} by {by}\",\"cat\":\"preempt\",\"ph\":\"i\",\
                     \"ts\":{},\"pid\":{},\"tid\":{tid},\"s\":\"t\"}}",
                    at.ticks(),
                    pid(t.shard),
                ));
            }
        }

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&entries.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_core::obs::Observer;

    fn units(u: u64) -> SimTime {
        SimTime::from_units_int(u)
    }

    fn recorder_with_preemption() -> FlightRecorder {
        // T0 arrives ready, runs [0,2), is preempted by T1 at 2, T1 runs
        // [2,3) and completes, T0 resumes [3,5) and completes.
        let mut c = FlightRecorder::new(64);
        c.arrived(SimTime::ZERO, TxnId(0), true);
        c.dispatched(SimTime::ZERO, TxnId(0), None);
        c.arrived(units(2), TxnId(1), true);
        c.served(0, TxnId(0), SimTime::ZERO, units(2), false);
        c.dispatched(units(2), TxnId(1), Some(TxnId(0)));
        c.served(0, TxnId(1), units(2), units(3), true);
        c.completed(
            units(3),
            TxnId(1),
            &CompletionInfo {
                finish: units(3),
                deadline: units(4),
                tardiness: SimDuration::ZERO,
                queue_wait: SimDuration::ZERO,
                service: SimDuration::from_units_int(1),
                met_deadline: true,
            },
        );
        c.dispatched(units(3), TxnId(0), None);
        c.served(0, TxnId(0), units(3), units(5), true);
        c.completed(
            units(5),
            TxnId(0),
            &CompletionInfo {
                finish: units(5),
                deadline: units(4),
                tardiness: SimDuration::from_units_int(1),
                queue_wait: SimDuration::from_units_int(1),
                service: SimDuration::from_units_int(4),
                met_deadline: false,
            },
        );
        c
    }

    #[test]
    fn round_trip_reassembles_lifecycles() {
        let rec = recorder_with_preemption();
        let tl = Timeline::from_recorders(std::slice::from_ref(&rec));
        let parsed = Timeline::from_dump(&Dump::parse(&rec.dump()).unwrap());
        assert_eq!(
            parsed.txns().collect::<Vec<_>>(),
            tl.txns().collect::<Vec<_>>(),
            "the dump and the recorder build the same view"
        );
        let t0 = tl.of(TxnId(0)).unwrap();
        assert_eq!(t0.arrived, Some((SimTime::ZERO, true)));
        assert_eq!(t0.segments.len(), 2, "split by the preemption");
        assert_eq!(t0.preempted, vec![(units(2), TxnId(1))]);
        assert_eq!(t0.dispatches.len(), 2);
        assert!(!t0.completion.unwrap().met_deadline);
        assert_eq!(t0.served_total(), SimDuration::from_units_int(4));
        let t1 = tl.of(TxnId(1)).unwrap();
        assert_eq!(t1.segments.len(), 1);
        assert_eq!(t1.dispatches[0].displaced, Some(TxnId(0)));
        assert_eq!(tl.preemption_edges(), 1);
        assert!(tl.check(Some(1)).is_empty(), "{:?}", tl.check(Some(1)));
    }

    #[test]
    fn check_catches_overlap_and_preempt_miscount() {
        let mut c = FlightRecorder::new(64);
        c.arrived(SimTime::ZERO, TxnId(0), true);
        c.arrived(SimTime::ZERO, TxnId(1), true);
        // Overlapping intervals on server 0.
        c.served(0, TxnId(0), SimTime::ZERO, units(3), true);
        c.served(0, TxnId(1), units(1), units(4), true);
        let tl = Timeline::from_recorders(&[c]);
        let fails = tl.check(Some(2));
        assert!(
            fails.iter().any(|f| f.contains("concurrently")),
            "{fails:?}"
        );
        assert!(
            fails.iter().any(|f| f.contains("preempt edges")),
            "{fails:?}"
        );
    }

    #[test]
    fn coalesces_contiguous_segments() {
        let mut c = FlightRecorder::new(64);
        c.arrived(SimTime::ZERO, TxnId(0), true);
        c.served(0, TxnId(0), SimTime::ZERO, units(1), false);
        c.served(0, TxnId(0), units(1), units(2), false);
        c.served(0, TxnId(0), units(3), units(4), true);
        let tl = Timeline::from_recorders(&[c]);
        let t = tl.of(TxnId(0)).unwrap();
        assert_eq!(t.segments.len(), 2, "gap splits, adjacency coalesces");
        assert_eq!(t.segments[0].until, units(2));
    }

    #[test]
    fn render_lists_the_full_chain() {
        let tl = Timeline::from_recorders(&[recorder_with_preemption()]);
        let text = tl.of(TxnId(0)).unwrap().render(TxnId(0), None);
        let expect_order = [
            "arrived",
            "dispatched",
            "ran on server 0 until t=2",
            "preempted by T1",
            "dispatched",
            "ran on server 0 until t=5 (finished)",
            "completed",
        ];
        let mut pos = 0;
        for needle in expect_order {
            let found = text[pos..].find(needle);
            assert!(
                found.is_some(),
                "missing `{needle}` after {pos} in:\n{text}"
            );
            pos += found.unwrap();
        }
        assert!(text.contains("MISSED by 1"), "{text}");
    }

    #[test]
    fn perfetto_export_is_valid_shaped_json() {
        let c = recorder_with_preemption().with_shard(1);
        let tl = Timeline::from_recorders(&[c]);
        let json = tl.to_perfetto();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // Balanced braces/brackets — cheap structural sanity without a full
        // JSON parser (the workspace one is flat-only by design).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Deterministic: same input, same bytes.
        assert_eq!(json, tl.to_perfetto());
    }

    #[test]
    fn sharded_streams_keep_separate_servers_and_workflows() {
        let mut a = FlightRecorder::new(64).with_shard(0);
        let mut b = FlightRecorder::new(64).with_shard(1);
        a.arrived(SimTime::ZERO, TxnId(0), true);
        a.served(0, TxnId(0), SimTime::ZERO, units(2), true);
        b.arrived(SimTime::ZERO, TxnId(1), true);
        // Same server index, different shard: NOT an overlap.
        b.served(0, TxnId(1), SimTime::ZERO, units(2), true);
        a.wf_members.push((0, TxnId(0)));
        b.wf_members.push((0, TxnId(1)));
        let tl = Timeline::from_recorders(&[a, b]);
        assert!(tl.check(Some(0)).is_empty(), "{:?}", tl.check(Some(0)));
        assert_eq!(tl.workflow_members(Some(0), WfId(0)), &[TxnId(0)]);
        assert_eq!(tl.workflow_members(Some(1), WfId(0)), &[TxnId(1)]);
        assert_eq!(tl.workflow_of(TxnId(1)), Some(WfId(0)));
    }

    #[test]
    fn eviction_is_one_failure_not_false_violations() {
        let mut small = FlightRecorder::new(4);
        let full = recorder_with_preemption();
        for (_, rec) in full.records() {
            replay(&mut small, rec);
        }
        let tl = Timeline::from_recorders(&[small]);
        assert_eq!(tl.evicted(), full.len() as u64 - 4);
        let fails = tl.check(Some(1));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("ring evicted the first"), "{fails:?}");
        assert!(Timeline::from_recorders(&[full]).check(Some(1)).is_empty());
    }

    /// Feed one recorded lifecycle record back through the hooks.
    fn replay(rec: &mut FlightRecorder, r: &Record) {
        match *r {
            Record::Arrived { at, txn, ready } => rec.arrived(at, txn, ready),
            Record::Ready { at, txn } => rec.became_ready(at, txn),
            Record::Dispatch {
                at, txn, preempted, ..
            } => rec.dispatched(at, txn, preempted),
            Record::Served {
                server,
                txn,
                from,
                until,
                completed,
            } => rec.served(server, txn, from, until, completed),
            Record::Completed { at, txn, info } => rec.completed(at, txn, &info),
            _ => unreachable!("lifecycle fixture only"),
        }
    }
}
