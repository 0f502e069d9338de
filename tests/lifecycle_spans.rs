//! Lifecycle-span invariants on the sharded runtime.
//!
//! The flight recorder's lifecycle records are only useful evidence if
//! they are *consistent* physics:
//! a server can run one transaction at a time, every preemption the stats
//! count must appear as a preempt span-edge, and the per-transaction chain
//! must be causal (arrival ≤ ready ≤ first run, completing run ends at the
//! finish instant, served time sums to the service demand). This suite
//! pins all of that under proptest for multi-server runs at K=1 and K=4,
//! checks the streaming SLO sketch against exact offline percentiles,
//! byte-compares the Perfetto export of a fixed workload against a golden
//! file, ties every dispatch to the decision record that caused it, and
//! pins what a bounded ring that evicted the head of the run reports.

use asets_core::prelude::*;
use asets_obs::{Dump, FlightRecorder, QuantileSketch, Record, Timeline};
use asets_sim::ShardedRuntime;
use proptest::prelude::*;

/// A random dependent, weighted workload (same shape as the determinism
/// oracle's strategy). Dependencies only point to earlier ids, so the
/// batch is acyclic by construction.
fn workload_strategy(max_n: usize) -> impl Strategy<Value = Vec<TxnSpec>> {
    proptest::collection::vec(
        (
            0u64..60, // arrival
            1u64..20, // length
            0u64..40, // extra slack beyond length
            1u32..10, // weight
            proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        2..max_n,
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

/// Run `specs` sharded with a flight recorder (ring of `capacity`) per
/// shard and return the recorders (global ids) plus the merged run stats.
fn recorded_run(
    specs: Vec<TxnSpec>,
    shards: usize,
    servers: usize,
    capacity: usize,
) -> (Vec<FlightRecorder>, asets_sim::RunStats) {
    let (result, mut recorders) = ShardedRuntime::new(specs, PolicyKind::asets_star())
        .shards(shards)
        .servers(servers)
        .run_observed(|shard, table| {
            FlightRecorder::new(capacity)
                .with_shard(shard as u32)
                .with_workflows_from(table)
        })
        .expect("acyclic");
    for (r, run) in recorders.iter_mut().zip(&result.shards) {
        r.remap_txns(&run.txns);
    }
    (recorders, result.merged.stats)
}

/// [`recorded_run`] with a ring that never evicts, as the merged timeline.
fn traced_run(
    specs: Vec<TxnSpec>,
    shards: usize,
    servers: usize,
) -> (Timeline, asets_sim::RunStats) {
    let (recorders, stats) = recorded_run(specs, shards, servers, 1 << 20);
    (Timeline::from_recorders(&recorders), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any M≥2 run at K=1 and K=4: per-server span intervals never
    /// overlap, the preempt span-edge total equals the stats' preemption
    /// count, and every per-transaction chain is causal. `Timeline::check`
    /// enforces all of it; an empty failure list is the assertion.
    #[test]
    fn multi_server_spans_are_consistent(
        specs in workload_strategy(32),
        m in 2usize..4,
    ) {
        for k in [1usize, 4] {
            let (tl, stats) = traced_run(specs.clone(), k, m);
            let fails = tl.check(Some(stats.preemptions));
            prop_assert!(fails.is_empty(), "K={k} M={m}: {fails:?}");
            prop_assert_eq!(
                tl.preemption_edges(),
                stats.preemptions,
                "K={} M={}: span edges vs stats",
                k, m
            );
        }
    }

    /// The streaming SLO sketch never under-states a tardiness percentile
    /// and over-states by at most its documented relative error, measured
    /// against exact offline percentiles of the same run.
    #[test]
    fn slo_quantiles_match_exact_offline_percentiles(
        specs in workload_strategy(48),
    ) {
        let (tl, _) = traced_run(specs, 2, 2);
        let mut slo = asets_obs::SloMonitor::new();
        let mut exact: Vec<u64> = Vec::new();
        let mut completions: Vec<_> = tl
            .txns()
            .filter_map(|(id, t)| t.completion.map(|c| (c.finish.ticks(), id.0, c)))
            .collect();
        completions.sort_by_key(|&(finish, id, _)| (finish, id));
        for (_, _, info) in &completions {
            slo.record(info);
            exact.push(info.tardiness.ticks());
        }
        exact.sort_unstable();
        prop_assert!(!exact.is_empty());
        for q in [0.5, 0.95] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let approx = slo.tardiness().quantile(q).expect("non-empty");
            prop_assert!(approx >= truth, "q={q}: {approx} under-states {truth}");
            if truth > 0 {
                let rel = (approx - truth) as f64 / truth as f64;
                prop_assert!(
                    rel <= QuantileSketch::RELATIVE_ERROR,
                    "q={}: {} vs exact {} → rel err {}",
                    q, approx, truth, rel
                );
            } else {
                prop_assert_eq!(approx, 0, "zero tardiness is stored exactly");
            }
        }
    }
}

/// Golden-file pin of the Perfetto trace-event JSON: a small fixed
/// deep-chain workload at K=2, M=2 must export byte-identical output,
/// release after release. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test -q --test lifecycle_spans golden`.
#[test]
fn perfetto_export_matches_golden_file() {
    let specs = asets_workload::deep_chains(12, 3);
    let (tl, _) = traced_run(specs, 2, 2);
    let got = tl.to_perfetto();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/perfetto_deep_chains.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        got,
        want,
        "Perfetto export drifted from {}; regenerate with UPDATE_GOLDEN=1 \
         if the change is intentional",
        path.display()
    );
}

/// The golden trace is structurally sane Perfetto input: one complete-slice
/// per run segment, matching async begin/end pairs, and µs timestamps.
#[test]
fn perfetto_export_is_structurally_valid() {
    let specs = asets_workload::deep_chains(12, 3);
    let (tl, stats) = traced_run(specs, 2, 2);
    let text = tl.to_perfetto();
    assert!(
        text.starts_with("{\"displayTimeUnit\""),
        "trace is a JSON object with a traceEvents array"
    );
    assert!(text.contains("\"traceEvents\":["));
    assert!(text.trim_end().ends_with("]}"));
    let begins = text.matches("\"ph\":\"b\"").count();
    let ends = text.matches("\"ph\":\"e\"").count();
    assert_eq!(begins, ends, "async slices pair up");
    assert!(begins > 0, "workflow tracks present");
    let slices = text.matches("\"ph\":\"X\"").count();
    let total_segments: usize = tl.txns().map(|(_, t)| t.segments.len()).sum();
    assert_eq!(slices, total_segments, "one X slice per run segment");
    assert_eq!(
        text.matches("\"ph\":\"i\"").count() as u64,
        stats.preemptions,
        "one instant per preemption"
    );
}

/// The recorder stamps each dispatch with the `seq` of the decision that
/// chose it. On the deep-chain K=2, M=2 run every dispatch carries a stamp,
/// and the stamp names a decision record of the same shard in the same
/// dump, at the same instant, choosing the same transaction.
#[test]
fn every_dispatch_names_its_decision_record() {
    let specs = asets_workload::deep_chains(12, 3);
    let (recorders, stats) = recorded_run(specs, 2, 2, 1 << 20);
    let dump = Dump::parse(&asets_obs::dump_sharded(&recorders)).expect("dump parses");
    let mut decisions = std::collections::HashMap::new();
    for ((seq, rec), shard) in dump.records.iter().zip(&dump.shards) {
        if let Record::Decision(d) = rec {
            decisions.insert((*shard, *seq), (d.at, d.chosen));
        }
    }
    let mut dispatches = 0;
    for ((seq, rec), shard) in dump.records.iter().zip(&dump.shards) {
        let Record::Dispatch {
            at,
            txn,
            decision_seq,
            ..
        } = rec
        else {
            continue;
        };
        dispatches += 1;
        let d = decision_seq.unwrap_or_else(|| panic!("dispatch #{seq} of {txn} is unstamped"));
        assert_eq!(
            decisions.get(&(*shard, d)),
            Some(&(*at, *txn)),
            "dispatch #{seq} of {txn} at {at:?} (shard {shard:?}) names decision #{d}"
        );
    }
    assert!(dispatches as u64 >= stats.completed, "every txn dispatched");
    assert!(dump.dispatch_decision_mismatches().is_empty());
}

/// A bounded ring on a 60-transaction run evicts the head of the run,
/// lifecycle records included. The rebuilt timeline then reports one
/// eviction failure naming the count, not per-transaction causality
/// violations that never happened; the same run with a ring that holds
/// everything checks clean, from the recorders and from the parsed dump.
#[test]
fn evicted_ring_reports_one_failure_instead_of_false_violations() {
    let spec = asets_workload::TableISpec {
        n_txns: 60,
        ..asets_workload::TableISpec::general_case(0.9)
    };
    let specs = asets_workload::generate(&spec, 7).unwrap();

    let (small, stats) = recorded_run(specs.clone(), 1, 1, 16);
    let evicted = small[0].total_recorded() - 16;
    assert!(evicted > 0, "a 16-record ring must evict on 60 txns");
    for tl in [
        Timeline::from_recorders(&small),
        Timeline::from_dump(&Dump::parse(&small[0].dump()).unwrap()),
    ] {
        assert_eq!(tl.evicted(), evicted);
        let fails = tl.check(Some(stats.preemptions));
        assert_eq!(
            fails,
            [format!(
                "ring evicted the first {evicted} records; lifecycle checks need the whole run \
                 (record with a larger capacity)"
            )]
        );
    }

    let (full, stats) = recorded_run(specs, 1, 1, 1 << 20);
    assert_eq!(full[0].evicted(), 0);
    for tl in [
        Timeline::from_recorders(&full),
        Timeline::from_dump(&Dump::parse(&full[0].dump()).unwrap()),
    ] {
        assert_eq!(tl.evicted(), 0);
        assert!(tl.check(Some(stats.preemptions)).is_empty());
        assert_eq!(tl.txns().count(), 60);
    }
}
