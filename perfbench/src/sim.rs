//! The two simulated workloads: `table1_general` on the single-server
//! batched engine, `skewed_threaded` on the threaded rebalancing driver.

use crate::report::Report;
use crate::spans::{Layer, Timed, Tracer};
use crate::stats::{fastest, repeat_for, timed, Digest, Split};
use asets_core::policy::{PolicyKind, Scheduler};
use asets_core::shard::partition;
use asets_core::table::TxnTable;
use asets_core::time::SimDuration;
use asets_core::txn::TxnSpec;
use asets_sim::{Engine, RebalanceConfig, ShardedResult, ShardedRuntime, SimResult};
use asets_workload::{generate, skewed_shards, TableISpec};
use std::rc::Rc;

/// Utilization of the Table I batch: the backlog is stationary, yet about
/// half the transactions miss, so both ASETS\* lists carry work.
pub const TABLE1_UTILIZATION: f64 = 0.9;

/// The Table I general case (weights [1, 10], workflow chains ≤ 5) at
/// [`TABLE1_UTILIZATION`].
#[derive(Debug, Clone, Copy)]
pub struct Table1 {
    /// Transactions.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Table1 {
    /// Generate the specs.
    pub fn generate(&self) -> Vec<TxnSpec> {
        generate(
            &TableISpec {
                n_txns: self.n,
                ..TableISpec::general_case(TABLE1_UTILIZATION)
            },
            self.seed,
        )
        .expect("the Table I general case is a valid spec")
    }
}

/// Wall seconds of each set-up stage of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Workload generation.
    pub gen_s: f64,
    /// Table validation for the policy factory.
    pub table_s: f64,
    /// Policy build (workflow sets, lists).
    pub build_s: f64,
    /// Engine construction (its own table and pump).
    pub engine_s: f64,
}

impl SetupTimes {
    /// Seed to runnable engine.
    pub fn total(&self) -> f64 {
        self.gen_s + self.table_s + self.build_s + self.engine_s
    }
}

/// Everything a schedule must reproduce exactly: the paper's metrics and
/// a digest of every finish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quality {
    /// Transactions with an outcome.
    pub outcomes: u64,
    /// Transactions the engine counted complete.
    pub completed: u64,
    /// Outcomes whose ids are not exactly `0..n` in order.
    pub misplaced: u64,
    /// Bits of `avg_weighted_tardiness`.
    pub avg_wtardiness: u64,
    /// Bits of `max_weighted_tardiness`.
    pub max_wtardiness: u64,
    /// Bits of the p99.9 per-transaction weighted tardiness.
    pub p999_wtardiness: u64,
    /// Bits of `miss_ratio`.
    pub miss_ratio: u64,
    /// Digest of `(id, finish)` over all outcomes.
    pub digest: u64,
}

impl Quality {
    /// Read a finished run.
    pub fn of(r: &SimResult) -> Quality {
        let mut d = Digest::default();
        let mut misplaced = 0;
        let mut weighted: Vec<f64> = r
            .outcomes
            .iter()
            .map(|o| o.tardiness().as_units() * o.weight.0 as f64)
            .collect();
        weighted.sort_unstable_by(f64::total_cmp);
        for (i, o) in r.outcomes.iter().enumerate() {
            misplaced += u64::from(o.id.index() != i);
            d.add(o.id.0 as u64);
            d.add(o.finish.ticks());
        }
        Quality {
            outcomes: r.outcomes.len() as u64,
            completed: r.stats.completed,
            misplaced,
            avg_wtardiness: r.summary.avg_weighted_tardiness.to_bits(),
            max_wtardiness: r.summary.max_weighted_tardiness.to_bits(),
            p999_wtardiness: quantile_f64(&weighted, 0.999).to_bits(),
            miss_ratio: r.summary.miss_ratio.to_bits(),
            digest: d.value(),
        }
    }

    /// Transactions of an `n`-batch that did not complete exactly once.
    pub fn failed(&self, n: usize) -> u64 {
        let n = n as u64;
        let short = n.abs_diff(self.outcomes).max(n.abs_diff(self.completed));
        short.max(self.misplaced)
    }

    /// Put the end-to-end quality metrics into `report`.
    pub fn record(&self, report: &mut Report) {
        report.set("avg_wtardiness", f64::from_bits(self.avg_wtardiness));
        report.set("p999_wtardiness", f64::from_bits(self.p999_wtardiness));
        report.set("miss_ratio", f64::from_bits(self.miss_ratio));
    }

    /// Put the per-layer quality diagnostics into `report`.
    pub fn record_tail(&self, report: &mut Report) {
        report.set("max_wtardiness", f64::from_bits(self.max_wtardiness));
    }
}

/// Nearest-rank quantile of an ascending `f64` sample (0 when empty).
fn quantile_f64(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Checks every repetition of a run against the first.
#[derive(Debug, Default)]
pub struct SameEveryTime {
    first: Option<Quality>,
}

impl SameEveryTime {
    /// Count the repetition's operations and check it completed every
    /// transaction exactly once and matched the first repetition bit for
    /// bit.
    pub fn check(&mut self, what: &str, q: Quality, n: usize, report: &mut Report) {
        let failed = q.failed(n);
        report.ops(n as u64, failed);
        report.check(failed == 0, || {
            format!("{what}: {failed} of {n} transactions did not complete exactly once ({q:?})")
        });
        match self.first {
            None => self.first = Some(q),
            Some(first) => report.check(first == q, || {
                format!("{what}: schedule differs between repetitions: {first:?} vs {q:?}")
            }),
        }
    }

    /// The first repetition's quality.
    pub fn first(&self) -> Option<Quality> {
        self.first
    }
}

/// Build a runnable batched engine over `batch`, wrapping the built
/// policy with `wrap`.
pub fn setup<S: Scheduler>(
    batch: &Table1,
    wrap: impl FnOnce(Box<dyn Scheduler>) -> S,
) -> (Engine<S>, SetupTimes) {
    let (gen_s, specs) = timed(|| batch.generate());
    let (table_s, table) =
        timed(|| TxnTable::new(specs.clone()).expect("generated batches are DAGs"));
    let (build_s, policy) = timed(|| PolicyKind::asets_star().build(&table));
    drop(table);
    let (engine_s, engine) = timed(|| {
        Engine::new(specs, wrap(policy))
            .expect("generated batches are DAGs")
            .with_batching()
    });
    let times = SetupTimes {
        gen_s,
        table_s,
        build_s,
        engine_s,
    };
    (engine, times)
}

/// One untraced repetition: set up, then run to completion.
fn plain_rep(batch: &Table1) -> (SetupTimes, f64, SimResult) {
    let (engine, times) = setup(batch, |p| p);
    let (run_s, result) = timed(|| engine.run());
    (times, run_s, result)
}

/// One traced repetition: the same engine with the policy wrapped and
/// every `step` inside a span.
fn traced_rep(batch: &Table1) -> (SetupTimes, f64, SimResult, Rc<Tracer>) {
    let tracer = Tracer::shared();
    let t = Rc::clone(&tracer);
    let (mut engine, times) = setup(batch, move |p| Timed::new(p, t));
    let (run_s, result) = timed(|| {
        while tracer.span(Layer::Step, || engine.step()) {}
        engine.finish()
    });
    (times, run_s, result, tracer)
}

/// Run a single-engine workload: `--trace 0` fills the end-to-end
/// metrics, `--trace 1` the per-layer ones.
pub fn run_engine(batch: Table1, seconds: f64, trace: bool, report: &mut Report) {
    let n = batch.n;
    let split = Split::new(seconds, trace);
    let mut same = SameEveryTime::default();
    let mut setups = Vec::new();

    // Warm-up: caches, allocator arenas, page faults. Checked, not timed.
    let (_, _, warm) = plain_rep(&batch);
    same.check("warm-up", Quality::of(&warm), n, report);
    drop(warm);

    let mut runs = Vec::new();
    repeat_for(split.untraced, || {
        let (times, run_s, result) = plain_rep(&batch);
        same.check("untraced", Quality::of(&result), n, report);
        setups.push(times);
        runs.push(run_s);
    });
    repeat_for(split.setup, || setups.push(setup(&batch, |p| p).1));
    let run_s = fastest(runs.iter().copied());

    if !trace {
        report.set("txn_per_s", n as f64 / run_s);
        report.set("setup_s", fastest(setups.iter().map(SetupTimes::total)));
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        same.first()
            .expect("at least one repetition")
            .record(report);
        return;
    }

    let mut best: Option<(f64, SimResult, Rc<Tracer>)> = None;
    repeat_for(split.traced, || {
        let (times, traced_s, result, tracer) = traced_rep(&batch);
        // The traced program must produce the untraced schedule.
        same.check("traced", Quality::of(&result), n, report);
        setups.push(times);
        if best.as_ref().map_or(true, |(s, ..)| traced_s < *s) {
            best = Some((traced_s, result, tracer));
        }
    });
    let (traced_s, result, tracer) = best.expect("at least one traced repetition");

    report.set("workload.gen_s", fastest(setups.iter().map(|s| s.gen_s)));
    report.set("table.build_s", fastest(setups.iter().map(|s| s.table_s)));
    report.set("policy.build_s", fastest(setups.iter().map(|s| s.build_s)));
    report.set("engine.new_s", fastest(setups.iter().map(|s| s.engine_s)));
    // The policy build grows faster than linearly (one ancestor scan per
    // workflow root); a second size puts the growth on record.
    let half = Table1 {
        n: batch.n / 2,
        ..batch
    };
    let table = TxnTable::new(half.generate()).expect("generated batches are DAGs");
    let builds: Vec<f64> = (0..3)
        .map(|_| timed(|| PolicyKind::asets_star().build(&table)).0)
        .collect();
    let half_s = fastest(builds);
    report.set("policy.build_s_half_n", half_s);
    report.set(
        "policy.build_growth_2x",
        fastest(setups.iter().map(|s| s.build_s)) / half_s,
    );
    record_engine_layers(&tracer, &result, report);
    Quality::of(&result).record_tail(report);
    report.set("trace.overhead_ratio", traced_s / run_s);
    report.set("fail_ratio", report.failed as f64 / report.attempted as f64);
}

/// Policy and engine layers of one traced repetition.
pub fn record_engine_layers(tracer: &Tracer, result: &SimResult, report: &mut Report) {
    let maintain = tracer.total(Layer::Maintain);
    let select = tracer.total(Layer::Select);
    let step = tracer.total(Layer::Step);
    let deliver = tracer.total(Layer::Deliver);
    report.set("policy.maintain_ns", maintain.self_ns as f64);
    report.set("policy.maintain_calls", maintain.calls as f64);
    report.set(
        "policy.events_per_maintain",
        tracer.maintain_events() as f64 / maintain.calls.max(1) as f64,
    );
    report.set("policy.select_ns", select.self_ns as f64);
    report.set("policy.select_calls", select.calls as f64);
    report.set("engine.self_ns", step.self_ns as f64);
    report.set("engine.steps", step.calls as f64);
    report.set("engine.dispatches", result.stats.dispatches as f64);
    report.set("engine.preemptions", result.stats.preemptions as f64);
    report.set(
        "engine.completions_per_dispatch",
        result.stats.completed as f64 / result.stats.dispatches.max(1) as f64,
    );
    report.set("obs.deliver_ns", deliver.total_ns as f64);
    report.set("obs.deliver_calls", deliver.calls as f64);
}

/// Pages the skewed sessions hit.
const SKEWED_PAGES: u64 = 16;

/// Zipf skew of page popularity: imbalance-limited, so migration has
/// headroom.
const SKEWED_ALPHA: f64 = 1.5;

/// Shard threads (the host's CPU count).
const SHARDS: usize = 2;

/// Migration epoch, in time units.
const EPOCH_UNITS: u64 = 200;

/// The skewed sharded batch.
#[derive(Debug, Clone, Copy)]
pub struct Skewed {
    /// Transactions.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Skewed {
    fn generate(&self) -> Vec<TxnSpec> {
        skewed_shards(self.n, SKEWED_PAGES, SKEWED_ALPHA, self.seed)
    }

    fn runtime(&self) -> ShardedRuntime {
        ShardedRuntime::new(self.generate(), PolicyKind::asets_star())
            .shards(SHARDS)
            .rebalance(RebalanceConfig::migrate_every(SimDuration::from_units_int(
                EPOCH_UNITS,
            )))
            .threaded()
    }
}

fn sharded_rep(cfg: &Skewed) -> (f64, f64, ShardedResult) {
    let (setup_s, runtime) = timed(|| cfg.runtime());
    let (run_s, result) = timed(|| runtime.run().expect("generated batches are DAGs"));
    (setup_s, run_s, result)
}

/// Run the threaded rebalancing workload. The threaded runtime builds its
/// policies on its own threads, so its layers are read from its outputs
/// and from an outside timing of the partition step, not from spans.
pub fn run_sharded(cfg: Skewed, seconds: f64, trace: bool, report: &mut Report) {
    let n = cfg.n;
    let split = Split::new(seconds, trace);
    let mut same = SameEveryTime::default();
    let (_, _, warm) = sharded_rep(&cfg);
    same.check("warm-up", Quality::of(&warm.merged), n, report);

    let mut runs = Vec::new();
    let mut setups = Vec::new();
    let mut last = warm;
    repeat_for(split.untraced, || {
        let (setup_s, run_s, result) = sharded_rep(&cfg);
        same.check("run", Quality::of(&result.merged), n, report);
        setups.push(setup_s);
        runs.push(run_s);
        last = result;
    });
    repeat_for(split.setup, || setups.push(timed(|| cfg.runtime()).0));
    let run_s = fastest(runs.iter().copied());

    if !trace {
        report.set("txn_per_s", n as f64 / run_s);
        report.set("setup_s", fastest(setups.iter().copied()));
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        same.first()
            .expect("at least one repetition")
            .record(report);
        return;
    }

    // The traced half repeats the same runs with generation and the
    // partition step timed from outside; the overhead ratio compares the
    // two halves.
    let mut traced = Vec::new();
    let mut partitions = Vec::new();
    let mut gens = Vec::new();
    repeat_for(split.traced, || {
        let (gen_s, specs) = timed(|| cfg.generate());
        gens.push(gen_s);
        partitions.push(timed(|| partition(&specs, SHARDS)).0);
        let (_, run_s, result) = sharded_rep(&cfg);
        same.check("traced", Quality::of(&result.merged), n, report);
        traced.push(run_s);
        last = result;
    });

    let stats = &last.merged.stats;
    let reb = last.rebalance.clone().unwrap_or_default();
    let rounds = reb.barriers / 3;
    let busy: Vec<f64> = last
        .shards
        .iter()
        .map(|s| s.result.stats.busy.as_units())
        .collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    report.set("workload.gen_s", fastest(gens));
    report.set("sharded.partition_s", fastest(partitions));
    report.set("sharded.rounds", rounds as f64);
    report.set("sharded.move_rounds", reb.migration_rounds as f64);
    report.set(
        "sharded.useful_round_ratio",
        reb.migration_rounds as f64 / rounds.max(1) as f64,
    );
    report.set(
        "sharded.migrated_components",
        reb.migrated_components as f64,
    );
    report.set(
        "sharded.migrated_work",
        SimDuration::from_ticks(reb.migrated_work).as_units(),
    );
    report.set("sharded.shard_busy_skew", max_busy / mean_busy);
    report.set("engine.steps", stats.scheduling_points as f64);
    report.set("engine.dispatches", stats.dispatches as f64);
    report.set("engine.preemptions", stats.preemptions as f64);
    report.set(
        "engine.completions_per_dispatch",
        stats.completed as f64 / stats.dispatches.max(1) as f64,
    );
    Quality::of(&last.merged).record_tail(report);
    report.set("trace.overhead_ratio", fastest(traced) / run_s);
    report.set("fail_ratio", report.failed as f64 / report.attempted as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Table1 {
        Table1 { n: 3_000, seed }
    }

    #[test]
    fn timed_policy_gives_the_plain_schedule() {
        for batch in [small(101), small(5)] {
            let (_, _, plain) = plain_rep(&batch);
            let (_, _, traced, tracer) = traced_rep(&batch);
            assert_eq!(Quality::of(&plain), Quality::of(&traced));
            assert_eq!(plain.summary, traced.summary);
            assert_eq!(plain.stats, traced.stats);
            let maintain = tracer.total(Layer::Maintain);
            assert!(maintain.calls > 0 && tracer.total(Layer::Select).calls > 0);
            assert!(
                tracer.maintain_events() > maintain.calls,
                "on_batch must arrive coalesced, not replayed per event"
            );
            assert_eq!(
                tracer.total(Layer::Step).calls,
                plain.stats.scheduling_points + 1
            );
        }
    }

    #[test]
    fn quality_counts_every_transaction_once() {
        let batch = small(7);
        let (_, _, r) = plain_rep(&batch);
        let q = Quality::of(&r);
        assert_eq!(q.failed(batch.n), 0);
        assert_eq!(q.failed(batch.n + 1), 1, "a missing outcome is a failure");
    }

    #[test]
    fn metrics_are_computed_not_constant() {
        let mut a = Report::default();
        run_engine(small(101), 0.0, false, &mut a);
        let mut b = Report::default();
        run_engine(small(102), 0.0, false, &mut b);
        assert!(a.finish(false), "{:?}", a.failures());
        assert!(b.finish(false), "{:?}", b.failures());
        for m in [
            "avg_wtardiness",
            "p999_wtardiness",
            "miss_ratio",
            "txn_per_s",
        ] {
            assert_ne!(a.get(m), b.get(m), "{m} must depend on the seed");
        }
        assert_eq!(a.failed, 0);
        assert!(a.attempted >= 4 * 3_000);
    }

    #[test]
    fn sharded_repetitions_are_bit_identical() {
        let cfg = Skewed { n: 2_000, seed: 11 };
        let mut r = Report::default();
        run_sharded(cfg, 0.0, true, &mut r);
        assert!(r.finish(true), "{:?}", r.failures());
        assert!(r.get("sharded.rounds").unwrap() > 0.0);
    }
}
