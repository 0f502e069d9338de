//! The live serving workload: the §II-B stock database's user pages,
//! compiled once, tiled into a Zipf page stream and pushed through the
//! wall-clock front-end (ingest ring, admission, `LivePump`, observer
//! delivery) with simulated service made negligible, so the figures are
//! the scheduler's own cost.

use crate::report::Report;
use crate::sim::{Quality, SameEveryTime};
use crate::spans::{Layer, Timed, TimedObserver, Tracer};
use crate::stats::{fastest, quantile, repeat_for, tail_count, thread_cpu_ns, timed, Split};
use asets_core::obs::{share, CompletionInfo, Observer, SharedObserver, Tee};
use asets_core::policy::{PolicyKind, Scheduler};
use asets_core::table::TxnTable;
use asets_core::time::SimTime;
use asets_core::txn::{TxnId, TxnSpec};
use asets_obs::SloMonitor;
use asets_sim::live::{
    JobBoard, JobProducer, JobStatus, LiveConfig, LiveFrontend, LiveSnapshot, LiveStats,
};
use asets_sim::{simulate, Engine, LivePump, SimResult};
use asets_webdb::app::stock::{stock_database, stock_page_template, StockDbParams};
use asets_webdb::{compile_requests, CostModel, PageRequest};
use asets_workload::{Rng64, Zipf};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Zipf skew of page popularity over the database's users.
const ZIPF_ALPHA: f64 = 1.0;

/// Simulated ticks per wall microsecond: large enough that simulated
/// service takes no wall time, so the figures are the scheduler's cost.
const SCALE: u64 = 1_000_000_000;

/// Offered rate of the paced phase, pages per wall second (~3% of the
/// capacity phase's rate).
const PACED_RATE: f64 = 5_000.0;

/// Shape of the live workload.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Page jobs in the tiled stream.
    pub pages: usize,
    /// Seed of the database contents and of the page stream.
    pub seed: u64,
    /// Pages offered by the paced (latency) phase.
    pub paced_pages: usize,
}

/// The compiled, tiled request universe.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Every transaction of every page job, jobs contiguous.
    pub specs: Vec<TxnSpec>,
    /// `(first transaction, member count)` of each job.
    pub jobs: Vec<(u32, u32)>,
}

/// Wall seconds of each live set-up stage.
#[derive(Debug, Clone, Copy, Default)]
struct LiveSetup {
    compile_s: f64,
    tile_s: f64,
    frontend_s: f64,
    table_s: f64,
    build_s: f64,
    engine_s: f64,
}

impl LiveSetup {
    fn total(&self) -> f64 {
        self.compile_s + self.tile_s + self.frontend_s + self.table_s + self.build_s + self.engine_s
    }
}

/// Build the stock database and compile one page per user: the pages a
/// server can serve, as prepared plans.
pub fn compile_pages(seed: u64) -> (Vec<TxnSpec>, Vec<(u32, u32)>) {
    let params = StockDbParams::default();
    let db = stock_database(&params, seed).expect("the default stock database builds");
    let requests: Vec<PageRequest> = (0..params.n_users as i64)
        .map(|user| PageRequest {
            template: stock_page_template(user),
            submit: SimTime::ZERO,
        })
        .collect();
    let (specs, binding) =
        compile_requests(&requests, &db, &CostModel::default()).expect("stock pages compile");
    (specs, binding.jobs())
}

/// Tile `count` Zipf-chosen copies of the compiled pages into one
/// universe. Each copy keeps its page's dependencies, shifted to its own
/// transaction range.
pub fn tile(
    page_specs: &[TxnSpec],
    page_jobs: &[(u32, u32)],
    count: usize,
    alpha: f64,
    seed: u64,
) -> Universe {
    let zipf = Zipf::new(page_jobs.len() as u64, alpha);
    let mut rng = Rng64::new(seed).fork(0x7117);
    let mut specs = Vec::new();
    let mut jobs = Vec::with_capacity(count);
    for _ in 0..count {
        let (first, members) = page_jobs[(zipf.sample(&mut rng) - 1) as usize];
        let base = specs.len() as u32;
        for t in first..first + members {
            let mut spec = page_specs[t as usize].clone();
            for d in &mut spec.deps {
                *d = TxnId(d.0 - first + base);
            }
            specs.push(spec);
        }
        jobs.push((base, members));
    }
    Universe { specs, jobs }
}

/// The page stream as an offline batch: job `k` arrives at `k · gap`, with
/// its compiled SLA, where `gap` loads one server to 90%. Its schedule is
/// exact, so it carries the live workload's quality figures — the live
/// schedule itself depends on the wall-clock interleaving.
pub fn replay_batch(u: &Universe) -> Vec<TxnSpec> {
    let work: u64 = u.specs.iter().map(|s| s.length.ticks()).sum();
    let gap = work / u.jobs.len() as u64 * 10 / 9;
    let mut specs = u.specs.clone();
    for (k, &(first, members)) in u.jobs.iter().enumerate() {
        let at = SimTime::from_ticks(k as u64 * gap);
        for spec in &mut specs[first as usize..(first + members) as usize] {
            let sla = spec.deadline.saturating_since(spec.arrival);
            spec.arrival = at;
            spec.deadline = at + sla;
        }
    }
    specs
}

/// A front-end and engine ready to serve, plus the handles the run needs.
struct Served {
    engine: Engine<Box<dyn Scheduler>, LivePump>,
    producers: Vec<JobProducer>,
    board: Arc<JobBoard>,
    stats: Arc<LiveStats>,
    monitor: Rc<RefCell<SloMonitor>>,
    times: LiveSetup,
}

/// Seed to a serving engine: compile, tile, wire the front-end, build the
/// policy and the engine. `observe` picks what rides the engine in place
/// of the bare SLO monitor; `tracer` wraps the policy.
fn serve_setup(
    shape: &LiveShape,
    tracer: Option<&Rc<Tracer>>,
    observe: impl FnOnce(SharedObserver, &[(u32, u32)]) -> SharedObserver,
) -> Served {
    let mut times = LiveSetup::default();
    let (compile_s, (page_specs, page_jobs)) = timed(|| compile_pages(shape.seed));
    times.compile_s = compile_s;
    let (tile_s, u) = timed(|| tile(&page_specs, &page_jobs, shape.pages, ZIPF_ALPHA, shape.seed));
    times.tile_s = tile_s;
    let cfg = LiveConfig {
        scale: SCALE,
        // Admit everything: the in-flight bound is the whole universe.
        max_inflight: u.specs.len(),
        ..LiveConfig::default()
    };
    let (frontend_s, frontend) = timed(|| LiveFrontend::new(&u.specs, &u.jobs, cfg));
    times.frontend_s = frontend_s;
    let (table_s, table) = timed(|| TxnTable::new(u.specs.clone()).expect("pages are DAGs"));
    times.table_s = table_s;
    let (build_s, policy) = timed(|| PolicyKind::asets_star().build(&table));
    times.build_s = build_s;
    drop(table);
    let policy: Box<dyn Scheduler> = match tracer {
        Some(t) => Box::new(Timed::new(policy, Rc::clone(t))),
        None => policy,
    };
    let LiveFrontend {
        pump,
        producers,
        board,
        stats,
        ..
    } = frontend;
    let monitor = Rc::new(RefCell::new(SloMonitor::new()));
    let observer = observe(share(&monitor), &u.jobs);
    let (engine_s, engine) = timed(|| {
        Engine::with_pump(u.specs, policy, pump)
            .expect("pages are DAGs")
            .with_batching()
            .with_observer(observer)
    });
    times.engine_s = engine_s;
    Served {
        engine,
        producers,
        board,
        stats,
        monitor,
        times,
    }
}

/// What one serve phase left behind.
struct PhaseOut {
    wall_s: f64,
    retries: u64,
    late_max: Duration,
    snap: LiveSnapshot,
    unsettled: u64,
    monitor_completions: u64,
    result: SimResult,
    times: LiveSetup,
}

/// Drive `served` with one producer thread running `produce`; the engine
/// steps on this thread (inside `Step` spans when traced) until the
/// producer retired and everything drained.
fn serve(
    mut served: Served,
    offered: usize,
    tracer: Option<&Rc<Tracer>>,
    produce: impl FnOnce(JobProducer) -> (u64, Duration) + Send + 'static,
) -> PhaseOut {
    let producer = served.producers.remove(0);
    let start = Instant::now();
    let handle = std::thread::spawn(move || produce(producer));
    let engine = &mut served.engine;
    match tracer {
        Some(t) => while t.span(Layer::Step, || engine.step()) {},
        None => while engine.step() {},
    }
    let (retries, late_max) = handle.join().expect("the producer thread does not panic");
    let wall_s = start.elapsed().as_secs_f64();
    let unsettled = (0..offered as u32)
        .filter(|&j| served.board.status(j) != JobStatus::Done)
        .count() as u64;
    let monitor_completions = served.monitor.borrow().completions();
    PhaseOut {
        wall_s,
        retries,
        late_max,
        snap: served.stats.snapshot(),
        unsettled,
        monitor_completions,
        result: served.engine.finish(),
        times: served.times,
    }
}

/// Closed by backpressure: submit every job as fast as the ring takes
/// them, retrying on a full ring.
fn flood(jobs: usize) -> impl FnOnce(JobProducer) -> (u64, Duration) + Send + 'static {
    move |mut producer| {
        let mut retries = 0;
        for job in 0..jobs as u32 {
            while !producer.submit(job) {
                retries += 1;
                std::thread::yield_now();
            }
        }
        producer.finish();
        (retries, Duration::ZERO)
    }
}

/// Open loop at a fixed rate: job `k` is due at `t0 + k · period`; the
/// producer sleeps until then and records how late it actually sent.
fn paced(
    jobs: usize,
    t0: Instant,
    period: Duration,
) -> impl FnOnce(JobProducer) -> (u64, Duration) + Send + 'static {
    move |mut producer| {
        let mut retries = 0;
        let mut late_max = Duration::ZERO;
        for job in 0..jobs as u32 {
            let due = t0 + period * job;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
            while !producer.submit(job) {
                retries += 1;
                std::thread::yield_now();
            }
        }
        producer.finish();
        (retries, late_max)
    }
}

/// Check one phase's conservation and settlement; count its pages.
fn check_phase(what: &str, out: &PhaseOut, offered: usize, txns: u64, report: &mut Report) {
    let l = &out.snap;
    let offered = offered as u64;
    let failed = l.dropped + l.shed_overload + l.shed_infeasible + out.unsettled;
    report.ops(offered, failed);
    report.check(failed == 0, || {
        format!("{what}: {failed} of {offered} pages dropped, shed or unsettled ({l:?})")
    });
    report.check(l.submitted == offered, || {
        format!("{what}: {} of {offered} pages submitted", l.submitted)
    });
    report.check(
        l.admitted + l.shed_overload + l.shed_infeasible <= l.submitted,
        || format!("{what}: admission outcomes exceed submissions ({l:?})"),
    );
    report.check(
        l.completed_txns == l.delivered_txns && l.completed_txns == txns,
        || {
            format!(
                "{what}: {txns} transactions, {} delivered, {} completed",
                l.delivered_txns, l.completed_txns
            )
        },
    );
    report.check(out.monitor_completions == l.completed_txns, || {
        format!(
            "{what}: the SLO monitor saw {} completions, the pump {}",
            out.monitor_completions, l.completed_txns
        )
    });
    let outcomes = out.result.outcomes.len() as u64;
    report.check(
        outcomes == txns && out.result.stats.completed == txns,
        || format!("{what}: {outcomes} outcomes for {txns} transactions"),
    );
}

/// Records the wall instant each page's last fragment completes.
#[derive(Default)]
struct PageClock {
    job_of: Vec<u32>,
    remaining: Vec<u32>,
    done: Vec<Option<Instant>>,
}

impl PageClock {
    /// Start tracking the pages of a `(first, members)` job tiling.
    fn track(&mut self, jobs: &[(u32, u32)]) {
        self.job_of.clear();
        for (j, &(_, members)) in jobs.iter().enumerate() {
            self.job_of
                .extend(std::iter::repeat(j as u32).take(members as usize));
        }
        self.remaining = jobs.iter().map(|&(_, members)| members).collect();
        self.done = vec![None; jobs.len()];
    }
}

impl Observer for PageClock {
    fn completed(&mut self, _at: SimTime, txn: TxnId, _info: &CompletionInfo) {
        let job = self.job_of[txn.index()] as usize;
        self.remaining[job] -= 1;
        if self.remaining[job] == 0 {
            self.done[job] = Some(Instant::now());
        }
    }

    fn wants_timing(&self) -> bool {
        false
    }
}

/// One capacity repetition, untraced (the program as `asets-serve` runs
/// it) or traced (wrapped policy, timed observer, step spans).
fn capacity_rep(shape: &LiveShape, tracer: Option<&Rc<Tracer>>) -> PhaseOut {
    let served = serve_setup(shape, tracer, |monitor, _| match tracer {
        Some(t) => share(&Rc::new(RefCell::new(TimedObserver::new(
            monitor,
            Rc::clone(t),
        )))),
        None => monitor,
    });
    serve(served, shape.pages, tracer, flood(shape.pages))
}

/// The paced phase: page latencies from each page's due instant to its
/// last fragment's completion (nanoseconds, ascending), the transactions
/// of the offered pages, and the engine thread's CPU time.
struct Paced {
    latencies_ns: Vec<u64>,
    txns: u64,
    out: PhaseOut,
    cpu_ns: u64,
}

fn paced_run(shape: &LiveShape) -> Paced {
    let clock = Rc::new(RefCell::new(PageClock::default()));
    let served = serve_setup(shape, None, |monitor, jobs| {
        clock.borrow_mut().track(jobs);
        let tee = Tee::new().with(monitor).with(share(&clock));
        share(&Rc::new(RefCell::new(tee)))
    });
    let txns = clock.borrow().remaining[..shape.paced_pages]
        .iter()
        .map(|&m| m as u64)
        .sum();
    let period = Duration::from_secs_f64(1.0 / PACED_RATE);
    let t0 = Instant::now() + Duration::from_millis(2);
    let cpu0 = thread_cpu_ns();
    let out = serve(
        served,
        shape.paced_pages,
        None,
        paced(shape.paced_pages, t0, period),
    );
    let cpu_ns = thread_cpu_ns() - cpu0;
    let clock = clock.borrow();
    let mut latencies_ns: Vec<u64> = (0..shape.paced_pages)
        .filter_map(|k| {
            let due = t0 + period * k as u32;
            clock.done[k].map(|d| d.saturating_duration_since(due).as_nanos() as u64)
        })
        .collect();
    latencies_ns.sort_unstable();
    Paced {
        latencies_ns,
        txns,
        out,
        cpu_ns,
    }
}

/// Run the live workload: capacity repetitions for the end-to-end
/// figures; in traced runs also traced repetitions and one paced phase.
pub fn run_live(shape: LiveShape, seconds: f64, trace: bool, report: &mut Report) {
    // The offline replay of the page stream: exact, so checked for
    // repeatability like the simulated workloads.
    let mut same = SameEveryTime::default();
    let (page_specs, page_jobs) = compile_pages(shape.seed);
    let u = tile(&page_specs, &page_jobs, shape.pages, ZIPF_ALPHA, shape.seed);
    let txns = u.specs.len() as u64;
    let replay = replay_batch(&u);
    for what in ["replay", "replay again"] {
        let r = simulate(replay.clone(), PolicyKind::asets_star()).expect("pages are DAGs");
        same.check(what, Quality::of(&r), replay.len(), report);
    }
    drop((replay, u));

    let split = Split::new(seconds, trace);
    let warm = capacity_rep(&shape, None);
    check_phase("warm-up", &warm, shape.pages, txns, report);
    drop(warm);

    let mut best: Option<PhaseOut> = None;
    let mut setups = Vec::new();
    repeat_for(split.untraced, || {
        let out = capacity_rep(&shape, None);
        check_phase("capacity", &out, shape.pages, txns, report);
        setups.push(out.times);
        if best.as_ref().map_or(true, |b| out.wall_s < b.wall_s) {
            best = Some(out);
        }
    });
    repeat_for(split.setup, || {
        setups.push(serve_setup(&shape, None, |monitor, _| monitor).times)
    });
    let best = best.expect("at least one capacity repetition");
    if !trace {
        report.set("txn_per_s", txns as f64 / best.wall_s);
        report.set("setup_s", fastest(setups.iter().map(LiveSetup::total)));
        report.set("peak_rss_mb", crate::stats::peak_rss_mb());
        same.first().expect("the replay ran").record(report);
        return;
    }

    let mut traced: Option<(PhaseOut, Rc<Tracer>)> = None;
    repeat_for(split.traced, || {
        let tracer = Tracer::shared();
        let out = capacity_rep(&shape, Some(&tracer));
        check_phase("traced", &out, shape.pages, txns, report);
        setups.push(out.times);
        if traced.as_ref().map_or(true, |(b, _)| out.wall_s < b.wall_s) {
            traced = Some((out, tracer));
        }
    });
    let (traced, tracer) = traced.expect("at least one traced repetition");

    let paced = paced_run(&shape);
    check_phase("paced", &paced.out, shape.paced_pages, paced.txns, report);
    report.check(paced.latencies_ns.len() == shape.paced_pages, || {
        format!(
            "paced: {} latencies for {} pages",
            paced.latencies_ns.len(),
            shape.paced_pages
        )
    });

    let l = &best.snap;
    report.set("workload.gen_s", fastest(setups.iter().map(|s| s.tile_s)));
    report.set("table.build_s", fastest(setups.iter().map(|s| s.table_s)));
    report.set("policy.build_s", fastest(setups.iter().map(|s| s.build_s)));
    report.set("engine.new_s", fastest(setups.iter().map(|s| s.engine_s)));
    report.set(
        "live.frontend_new_s",
        fastest(setups.iter().map(|s| s.frontend_s)),
    );
    let compile_s = fastest(setups.iter().map(|s| s.compile_s));
    report.set("webdb.compile_s", compile_s);
    report.set(
        "webdb.compile_ms_per_page",
        compile_s * 1e3 / page_jobs.len() as f64,
    );
    crate::sim::record_engine_layers(&tracer, &traced.result, report);
    let step = tracer.total(Layer::Step);
    report.set(
        "live.step_ns",
        step.total_ns as f64 / step.calls.max(1) as f64,
    );
    report.set("live.pages_per_s", shape.pages as f64 / best.wall_s);
    report.set("live.ring_full_retries", best.retries as f64);
    report.set(
        "live.admit_ratio",
        l.admitted as f64 / l.submitted.max(1) as f64,
    );
    report.set("live.peak_inflight", l.peak_inflight as f64);
    report.set("live.heartbeats", paced.out.snap.heartbeats as f64);
    report.set(
        "live.cpu_us_per_page",
        paced.cpu_ns as f64 / 1e3 / shape.paced_pages as f64,
    );
    report.set(
        "live.gen_late_max_ms",
        paced.out.late_max.as_secs_f64() * 1e3,
    );
    let lat = &paced.latencies_ns;
    let us = |q: f64| quantile(lat, q).map_or(f64::NAN, |ns| ns as f64 / 1e3);
    report.set("live.page_p50_us", us(0.5));
    report.set("live.page_p90_us", us(0.9));
    report.set("live.page_p99_us", us(0.99));
    report.set("live.page_p999_us", us(0.999));
    report.set("live.latency_samples", lat.len() as f64);
    println!(
        "page latency: {} samples, {} above p99, {} above p99.9",
        lat.len(),
        tail_count(lat.len(), 0.99),
        tail_count(lat.len(), 0.999)
    );
    same.first().expect("the replay ran").record_tail(report);
    report.set("trace.overhead_ratio", traced.wall_s / best.wall_s);
    report.set("fail_ratio", report.failed as f64 / report.attempted as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use asets_sim::live::LiveUniverse;

    fn shape(seed: u64) -> LiveShape {
        LiveShape {
            pages: 400,
            seed,
            paced_pages: 200,
        }
    }

    #[test]
    fn tiled_universe_is_accepted_by_the_front_end() {
        let (specs, jobs) = compile_pages(3);
        assert_eq!(jobs.len(), StockDbParams::default().n_users);
        let u = tile(&specs, &jobs, 1_000, 1.0, 3);
        assert_eq!(u.jobs.len(), 1_000);
        let universe = LiveUniverse::new(&u.specs, &u.jobs);
        assert_eq!(universe.jobs(), 1_000);
        assert_eq!(universe.txns(), u.specs.len());
        // Dependencies stay inside their own page.
        for &(first, members) in &u.jobs {
            for t in first..first + members {
                for d in &u.specs[t as usize].deps {
                    assert!(
                        (first..t).contains(&d.0),
                        "dep {d:?} of {t} leaves its page"
                    );
                }
            }
        }
        TxnTable::new(u.specs.clone()).expect("the tiled universe is a DAG");
    }

    #[test]
    fn replay_is_an_exact_schedule() {
        let (specs, jobs) = compile_pages(5);
        let u = tile(&specs, &jobs, 300, 1.0, 5);
        let a = simulate(replay_batch(&u), PolicyKind::asets_star()).unwrap();
        let b = simulate(replay_batch(&u), PolicyKind::asets_star()).unwrap();
        assert_eq!(Quality::of(&a), Quality::of(&b));
        assert_eq!(a.outcomes.len(), u.specs.len());
    }

    #[test]
    fn traced_live_run_fills_every_live_layer() {
        let mut r = Report::default();
        run_live(shape(9), 0.0, true, &mut r);
        assert!(r.finish(true), "{:?}", r.failures());
        assert_eq!(r.failed, 0);
        assert_eq!(r.get("live.latency_samples"), Some(200.0));
        assert!(r.get("live.page_p50_us").unwrap() > 0.0);
        assert!(r.get("obs.deliver_calls").unwrap() > 0.0);
        assert!(r.get("webdb.compile_ms_per_page").unwrap() > 0.0);
    }

    #[test]
    fn untraced_live_metrics_depend_on_the_seed() {
        let mut a = Report::default();
        run_live(shape(1), 0.0, false, &mut a);
        let mut b = Report::default();
        run_live(shape(2), 0.0, false, &mut b);
        assert!(a.finish(false), "{:?}", a.failures());
        assert!(b.finish(false), "{:?}", b.failures());
        assert_ne!(a.get("avg_wtardiness"), b.get("avg_wtardiness"));
    }
}
