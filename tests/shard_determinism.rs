//! Determinism oracle for the sharded runtime.
//!
//! The scale-out path is only trustworthy because it is anchored to an
//! exact baseline: `ShardedRuntime` at K=1 shards, M=1 servers must be
//! **bit-identical** to the plain single-server `Engine` — same outcomes
//! (exact finish ticks), same run statistics, same trace — for every
//! policy, on arbitrary dependent weighted workloads. Beyond K=1, sharded
//! runs must still satisfy the paper's aggregate definitions exactly:
//! the merged `MetricsSummary` equals a recompute over the concatenated
//! outcomes (Definitions 3–5), and per-shard stats add up to the merged
//! stats.

use asets_core::prelude::*;
use asets_sim::{simulate_traced, RebalanceConfig, RebalanceEvent, RebalanceStats, ShardedRuntime};
use proptest::prelude::*;

/// A random dependent, weighted workload (same shape as the policy-oracle
/// strategy). Dependencies only point to earlier ids, so the batch is
/// acyclic by construction.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K=1, M=1 is the seed engine, bit for bit, under every policy.
    #[test]
    fn k1_m1_is_bit_identical_to_engine(specs in workload_strategy(24)) {
        for kind in all_kinds() {
            let plain = simulate_traced(specs.clone(), kind).expect("acyclic");
            let sharded = ShardedRuntime::new(specs.clone(), kind)
                .shards(1)
                .servers(1)
                .with_trace()
                .run()
                .expect("acyclic");
            prop_assert_eq!(&sharded.merged.outcomes, &plain.outcomes, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.stats, &plain.stats, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.trace, &plain.trace, "{}", kind.label());
        }
    }

    /// Sharded runs complete every transaction exactly once, keep whole
    /// workflows on one shard, and their merged summary satisfies the
    /// paper's definitions exactly (recompute over concatenated outcomes).
    #[test]
    fn sharded_runs_are_complete_and_exact(
        specs in workload_strategy(32),
        k in 2usize..5,
    ) {
        let n = specs.len();
        let kind = PolicyKind::asets_star();
        let r = ShardedRuntime::new(specs.clone(), kind)
            .shards(k)
            .with_trace()
            .run()
            .expect("acyclic");

        // Completeness: every id exactly once, ascending.
        let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
        prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>());
        prop_assert_eq!(r.merged.stats.completed, n as u64);

        // Workflows never split: each dependency stays on its txn's shard.
        for (i, spec) in specs.iter().enumerate() {
            for d in &spec.deps {
                prop_assert_eq!(r.shard_of[d.index()], r.shard_of[i]);
            }
        }

        // Definitions 3–5: merged headline equals the whole-batch recompute.
        let recomputed = MetricsSummary::from_outcomes(&r.merged.outcomes);
        prop_assert_eq!(&r.merged.summary, &recomputed);

        // Count-weighted merge of per-shard summaries agrees with the
        // headline on every field it can reconstruct exactly.
        let parts: Vec<MetricsSummary> =
            r.shards.iter().map(|s| s.result.summary.clone()).collect();
        let merged = MetricsSummary::merge(&parts);
        prop_assert_eq!(merged.count, recomputed.count);
        prop_assert!((merged.total_tardiness - recomputed.total_tardiness).abs() < 1e-6);
        prop_assert!((merged.avg_weighted_tardiness - recomputed.avg_weighted_tardiness).abs() < 1e-6);
        prop_assert!((merged.miss_ratio - recomputed.miss_ratio).abs() < 1e-9);
        prop_assert!((merged.max_tardiness - recomputed.max_tardiness).abs() < 1e-9);

        // Per-shard mechanics add up.
        let stats_parts: Vec<_> = r.shards.iter().map(|s| s.result.stats.clone()).collect();
        prop_assert_eq!(&asets_sim::RunStats::merge(&stats_parts), &r.merged.stats);

        // The merged trace is globally time-ordered.
        let trace = r.merged.trace.as_ref().expect("tracing enabled");
        for w in trace.events.windows(2) {
            prop_assert!(w[0].at() <= w[1].at());
        }

        // Per-transaction finish times are shard-local decisions: each
        // shard alone is a valid single-server simulation, so dependents
        // still never finish before predecessors globally.
        for (i, spec) in specs.iter().enumerate() {
            for d in &spec.deps {
                prop_assert!(r.merged.outcomes[d.index()].finish <= r.merged.outcomes[i].finish);
            }
        }
    }

    /// With one shard there is nobody to migrate to, so the runtime with
    /// rebalancing enabled must *still* be the seed engine bit for bit,
    /// under every policy — and must report zero rebalancing actions.
    #[test]
    fn k1_with_rebalancing_is_bit_identical_to_engine(specs in workload_strategy(24)) {
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(7));
        for kind in all_kinds() {
            let plain = simulate_traced(specs.clone(), kind).expect("acyclic");
            let sharded = ShardedRuntime::new(specs.clone(), kind)
                .shards(1)
                .servers(1)
                .rebalance(cfg)
                .with_trace()
                .run()
                .expect("acyclic");
            prop_assert_eq!(&sharded.merged.outcomes, &plain.outcomes, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.stats, &plain.stats, "{}", kind.label());
            prop_assert_eq!(&sharded.merged.trace, &plain.trace, "{}", kind.label());
            let stats = sharded.rebalance.as_ref().expect("rebalanced run");
            prop_assert_eq!(stats, &RebalanceStats::default(), "{}", kind.label());
        }
    }

    /// Merge exactness survives rebalancing: with migration active at K>1
    /// on the threaded driver, every transaction still completes exactly
    /// once, the merged summary still equals the whole-batch recompute, and
    /// the telemetry counters are conserved against the event log.
    #[test]
    fn rebalanced_runs_are_complete_and_exact(
        specs in workload_strategy(32),
        k in 2usize..5,
        epoch in 3u64..20,
    ) {
        let n = specs.len();
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch));
        for kind in all_kinds() {
            let r = ShardedRuntime::new(specs.clone(), kind)
                .shards(k)
                .rebalance(cfg)
                .run()
                .expect("acyclic");

            // Completeness: every id exactly once, ascending.
            let ids: Vec<u32> = r.merged.outcomes.iter().map(|o| o.id.0).collect();
            prop_assert_eq!(ids, (0..n as u32).collect::<Vec<_>>(), "{}", kind.label());
            prop_assert_eq!(r.merged.stats.completed, n as u64, "{}", kind.label());

            // Definitions 3–5: merged headline equals the recompute.
            let recomputed = MetricsSummary::from_outcomes(&r.merged.outcomes);
            prop_assert_eq!(&r.merged.summary, &recomputed, "{}", kind.label());

            // Dependents never finish before predecessors, wherever they ran.
            for (i, spec) in specs.iter().enumerate() {
                for d in &spec.deps {
                    prop_assert!(
                        r.merged.outcomes[d.index()].finish <= r.merged.outcomes[i].finish
                    );
                }
            }

            // Telemetry counters are exactly the event log, re-aggregated.
            let stats = r.rebalance.as_ref().expect("rebalanced run");
            let mut migrations = 0u64;
            let mut mig_txns = 0u64;
            let mut mig_work = 0u64;
            let mut rounds = std::collections::BTreeSet::new();
            for &RebalanceEvent::Migration { at, from, to, txns, work_ticks, .. } in &stats.events {
                migrations += 1;
                mig_txns += txns as u64;
                mig_work += work_ticks;
                rounds.insert(at);
                prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
            }
            prop_assert_eq!(stats.migrated_components, migrations, "{}", kind.label());
            prop_assert_eq!(stats.migrated_txns, mig_txns, "{}", kind.label());
            prop_assert_eq!(stats.migrated_work, mig_work, "{}", kind.label());
            prop_assert_eq!(stats.migration_rounds, rounds.len() as u64, "{}", kind.label());
        }
    }

    /// More shards can only help ASETS* tardiness on independent-heavy
    /// workloads is *not* guaranteed in general — but determinism is:
    /// running the same configuration twice is bit-identical.
    #[test]
    fn sharded_runs_are_reproducible(
        specs in workload_strategy(24),
        k in 1usize..5,
        m in 1usize..3,
    ) {
        let kind = PolicyKind::asets_star();
        let a = ShardedRuntime::new(specs.clone(), kind)
            .shards(k)
            .servers(m)
            .with_trace()
            .run()
            .expect("acyclic");
        let b = ShardedRuntime::new(specs, kind)
            .shards(k)
            .servers(m)
            .with_trace()
            .run()
            .expect("acyclic");
        prop_assert_eq!(&a.merged.outcomes, &b.merged.outcomes);
        prop_assert_eq!(&a.merged.stats, &b.merged.stats);
        prop_assert_eq!(&a.merged.trace, &b.merged.trace);
        prop_assert_eq!(&a.shard_of, &b.shard_of);
    }
}

proptest! {
    // Threaded runs spawn real threads per case; fewer cases keep tier-1
    // wall time bounded without thinning the space much (each case covers
    // every policy kind).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The threaded driver is bit-identical across repeated executions:
    /// thread scheduling never leaks into outcomes, traces, telemetry or
    /// per-shard completion sets, for every policy kind at K∈{2,4}.
    #[test]
    fn threaded_runs_are_reproducible_bit_for_bit(
        specs in workload_strategy(20),
        k in 2usize..5,
        epoch in 3u64..16,
    ) {
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch));
        for kind in all_kinds() {
            let run = || {
                ShardedRuntime::new(specs.clone(), kind)
                    .shards(k)
                    .rebalance(cfg)
                    .with_trace()
                    .run()
                    .expect("acyclic")
            };
            let a = run();
            let b = run();
            prop_assert_eq!(&a.merged.outcomes, &b.merged.outcomes, "{}", kind.label());
            prop_assert_eq!(&a.merged.stats, &b.merged.stats, "{}", kind.label());
            prop_assert_eq!(&a.merged.trace, &b.merged.trace, "{}", kind.label());
            prop_assert_eq!(&a.rebalance, &b.rebalance, "{}", kind.label());
            prop_assert_eq!(&a.shard_of, &b.shard_of, "{}", kind.label());
            for (sa, sb) in a.shards.iter().zip(&b.shards) {
                prop_assert_eq!(&sa.txns, &sb.txns, "{}", kind.label());
            }
        }
    }

    /// Conservation under threaded rebalancing: replaying the event log
    /// over the static partition yields exactly the shard each
    /// transaction completed on — no transaction is lost, duplicated, or
    /// teleported outside a recorded migration.
    #[test]
    fn threaded_rebalancing_conserves_transactions(
        specs in workload_strategy(28),
        k in 2usize..5,
        epoch in 3u64..16,
    ) {
        let n = specs.len();
        let keys = asets_core::shard::routing_keys(&specs);
        let cfg = RebalanceConfig::migrate_every(SimDuration::from_units_int(epoch));
        let r = ShardedRuntime::new(specs, PolicyKind::asets_star())
            .shards(k)
            .rebalance(cfg)
            .run()
            .expect("acyclic");

        // Every id completes exactly once across the shard engines.
        let mut completed_on = vec![u32::MAX; n];
        for (s, shard) in r.shards.iter().enumerate() {
            for t in &shard.txns {
                prop_assert_eq!(completed_on[t.index()], u32::MAX, "txn {} completed twice", t.0);
                completed_on[t.index()] = s as u32;
            }
        }
        prop_assert!(
            completed_on.iter().all(|&s| s != u32::MAX),
            "every txn completes somewhere"
        );

        // Replay the globally ordered event log over the static partition:
        // a migration moves its whole component (all ids sharing the
        // routing key) from the current owner. The replayed final owner
        // must be exactly where each transaction completed.
        let mut owner: Vec<u32> = r.shard_of.clone();
        let stats = r.rebalance.as_ref().expect("threaded run");
        for &RebalanceEvent::Migration { key, from, to, txns, .. } in &stats.events {
            prop_assert!(from != to && (from as usize) < k && (to as usize) < k);
            let members: Vec<usize> = (0..n).filter(|&i| keys[i] == key).collect();
            prop_assert_eq!(members.len() as u32, txns, "whole components migrate");
            for &m in &members {
                prop_assert_eq!(owner[m], from, "migrations leave the current owner");
                owner[m] = to;
            }
        }
        for i in 0..n {
            prop_assert_eq!(
                completed_on[i],
                owner[i],
                "txn {} completed off its replayed owner",
                i
            );
        }
    }
}

/// FNV-1a over every `(id, finish tick)` pair of a merged run, in id order.
fn schedule_digest(outcomes: &[TxnOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        for word in [u64::from(o.id.0), o.finish.ticks()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The threaded migrate-only schedules of the rebalancing gate's batches
/// (`skewed_shards`, n = 4000, 16 pages, seed 11, epoch 200), pinned
/// exactly: a digest of every finish instant plus the makespan, average
/// tardiness and migrated-transaction count the gate reports. These are the
/// numbers the single-clock coordinated loop produced for the same configs
/// before it was removed; any drift means the planner, the per-channel
/// migration budget or the migration path changed.
#[test]
fn threaded_migrate_schedules_are_pinned() {
    // (batch, Zipf alpha, K, digest, makespan units, avg tardiness, migrated)
    const PINNED: [(&str, f64, usize, u64, u64, &str, u64); 6] = [
        (
            "skewed",
            1.5,
            2,
            817261415884154033,
            27973,
            "5009.5458",
            433,
        ),
        (
            "skewed",
            1.5,
            4,
            2030707717087735564,
            13998,
            "2367.4350",
            517,
        ),
        (
            "skewed",
            1.5,
            8,
            17265022503960474541,
            7027,
            "1040.5928",
            225,
        ),
        (
            "uniform",
            0.0,
            2,
            3719758894821393327,
            70417,
            "31755.4378",
            2,
        ),
        (
            "uniform",
            0.0,
            4,
            6990496803026509340,
            35215,
            "15352.8860",
            8,
        ),
        (
            "uniform",
            0.0,
            8,
            13407674076360654075,
            17610,
            "7158.1218",
            18,
        ),
    ];
    for (dist, alpha, k, digest, makespan, avg_tardiness, migrated) in PINNED {
        let specs = asets_workload::skewed_shards(4_000, 16, alpha, 11);
        let r = ShardedRuntime::new(specs, PolicyKind::asets_star())
            .shards(k)
            .rebalance(RebalanceConfig::migrate_every(SimDuration::from_units_int(
                200,
            )))
            .threaded()
            .run()
            .expect("acyclic");
        let got = (
            schedule_digest(&r.merged.outcomes),
            r.merged.stats.makespan,
            format!("{:.4}", r.merged.summary.avg_tardiness),
            r.rebalance.as_ref().expect("rebalanced run").migrated_txns,
        );
        let want = (
            digest,
            SimTime::from_units_int(makespan),
            avg_tardiness.to_string(),
            migrated,
        );
        assert_eq!(got, want, "{dist} K={k}");
    }
}
