//! `rebalance_gate` — the rebalancing acceptance gate for skewed traffic.
//!
//! ```text
//! rebalance_gate [summary.json]
//! ```
//!
//! Runs the Zipf-skewed web batch ([`asets_workload::skewed_shards`]) and
//! its uniform (α = 0) twin through the sharded runtime at K ∈ {1, 2, 4, 8}
//! in two modes — static LPT placement, and epoch migration on the
//! threaded rebalancing driver — entirely in-process, and gates on
//! **simulated** throughput (`n / merged makespan`, the same metric
//! `shard_gate` uses) and tardiness:
//!
//! 1. **Skewed win**: at K = 4, rebalancing must reach at least **1.5x**
//!    the static-placement throughput. The skewed batch pins one shard
//!    with a huge-but-light hot-page star while heavy singletons crowd the
//!    rest; a rebalancer that cannot fix that is not doing its job.
//! 2. **Uniform no-regression**: at K = 4 on the uniform twin — where
//!    static LPT is already near-optimal — rebalancing must stay within
//!    **5 percent** of static throughput (no churn tax).
//! 3. **Tardiness win**: rebalanced K = 4 skewed must have at least
//!    **1.5x** lower average simulated tardiness than static placement.
//! 4. **Bit-identity**: two rebalanced K = 4 skewed runs must be
//!    bit-identical (outcomes, stats, telemetry) — thread scheduling must
//!    never leak into results.
//!
//! The full mode × K table is written as a provenance-stamped JSON summary
//! (same flat-results shape as the criterion shim) for the CI artifact.

use asets_core::policy::PolicyKind;
use asets_core::time::SimDuration;
use asets_core::txn::TxnSpec;
use asets_sim::{RebalanceConfig, ShardedResult, ShardedRuntime};
use asets_workload::skewed_shards;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Transactions per batch.
const N: usize = 4_000;
/// Pages in the Zipf popularity distribution. Few enough pages that the
/// hot-page star leaves real slack for the planner: at K = 4 the skewed
/// batch is imbalance-limited, not work-limited, so rebalancing headroom
/// exists for the tardiness gate to measure.
const PAGES: u64 = 16;
/// Zipf exponent of the skewed batch. At 1.5 the hot components are big
/// but the singleton tail still carries enough work to overload shards
/// unevenly; steeper skews collapse the batch into one giant star whose
/// balanced makespan already equals the work bound (no headroom left).
const ALPHA: f64 = 1.5;
/// Workload seed (any fixed value; the gate is deterministic given it).
const SEED: u64 = 11;
/// Shard counts visited by the table.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Migration epoch: ~10 planner rounds inside the n/2-tick arrival window.
const EPOCH_UNITS: u64 = 200;

/// One measured cell of the mode × K table.
struct Cell {
    dist: &'static str,
    mode: &'static str,
    k: usize,
    throughput: f64,
    makespan: f64,
    avg_tardiness: f64,
    wall_ms: f64,
    migrated: u64,
}

fn run_mode(specs: &[TxnSpec], mode: &str, k: usize) -> Result<ShardedResult, String> {
    let mut rt = ShardedRuntime::new(specs.to_vec(), PolicyKind::asets_star()).shards(k);
    if mode == "rebalanced" {
        rt = rt.rebalance(RebalanceConfig::migrate_every(SimDuration::from_units_int(
            EPOCH_UNITS,
        )));
    }
    rt.run()
        .map_err(|e| format!("batch failed to simulate: {e}"))
}

fn run_table() -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (dist, alpha) in [("skewed", ALPHA), ("uniform", 0.0)] {
        let specs = skewed_shards(N, PAGES, alpha, SEED);
        println!("{dist} batch (n={N}, pages={PAGES}, alpha={alpha}):");
        println!("  K   mode         txns/unit   makespan   avg_tard    wall_ms   migrated");
        for &k in &SHARD_COUNTS {
            for mode in ["static", "rebalanced"] {
                let started = Instant::now();
                let r =
                    run_mode(&specs, mode, k).map_err(|e| format!("{dist} {mode} K={k}: {e}"))?;
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let makespan = r.merged.stats.makespan.as_units();
                let migrated = r.rebalance.as_ref().map_or(0, |s| s.migrated_txns);
                let cell = Cell {
                    dist,
                    mode,
                    k,
                    throughput: N as f64 / makespan,
                    makespan,
                    avg_tardiness: r.merged.summary.avg_tardiness,
                    wall_ms,
                    migrated,
                };
                println!(
                    "  {k}   {mode:<11}  {:>9.3}   {makespan:>8.1}   {:>8.2}   {wall_ms:>8.1}   {migrated:>8}",
                    cell.throughput, cell.avg_tardiness
                );
                cells.push(cell);
            }
        }
    }
    Ok(cells)
}

fn cell_of<'a>(cells: &'a [Cell], dist: &str, mode: &str, k: usize) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.dist == dist && c.mode == mode && c.k == k)
        .expect("cell visited by run_table")
}

/// Gates 1–3: simulated throughput and tardiness, exact and
/// machine-independent.
fn check_gates(cells: &[Cell]) -> Result<(), String> {
    let skew_static = cell_of(cells, "skewed", "static", 4).throughput;
    let skew_rebalanced = cell_of(cells, "skewed", "rebalanced", 4).throughput;
    let win = skew_rebalanced / skew_static;
    if win < 1.5 {
        return Err(format!(
            "skewed K=4 rebalanced is only {win:.2}x static throughput (gate: >= 1.5x)"
        ));
    }
    println!("gate ok: skewed K=4 rebalanced is {win:.2}x static (>= 1.5x)");

    let uni_static = cell_of(cells, "uniform", "static", 4).throughput;
    let uni_rebalanced = cell_of(cells, "uniform", "rebalanced", 4).throughput;
    let parity = uni_rebalanced / uni_static;
    if (parity - 1.0).abs() > 0.05 {
        return Err(format!(
            "uniform K=4 rebalanced throughput is {:.2}% off static (gate: within 5%)",
            (parity - 1.0) * 100.0
        ));
    }
    println!(
        "gate ok: uniform K=4 rebalanced within 5% of static ({:+.2}%)",
        (parity - 1.0) * 100.0
    );

    let static_tard = cell_of(cells, "skewed", "static", 4).avg_tardiness;
    let rebalanced_tard = cell_of(cells, "skewed", "rebalanced", 4).avg_tardiness;
    let tard_win = static_tard / rebalanced_tard.max(f64::EPSILON);
    if tard_win < 1.5 {
        return Err(format!(
            "skewed K=4 rebalanced avg tardiness is only {tard_win:.2}x better than static \
             ({rebalanced_tard:.2} vs {static_tard:.2}; gate: >= 1.5x)"
        ));
    }
    println!(
        "gate ok: skewed K=4 rebalanced tardiness is {tard_win:.2}x better than static (>= 1.5x)"
    );
    Ok(())
}

/// Gate 4: two rebalanced K=4 skewed runs are bit-identical.
fn check_identity() -> Result<(), String> {
    let specs = skewed_shards(N, PAGES, ALPHA, SEED);
    let a = run_mode(&specs, "rebalanced", 4)?;
    let b = run_mode(&specs, "rebalanced", 4)?;
    if a.merged.outcomes != b.merged.outcomes
        || a.merged.stats != b.merged.stats
        || a.rebalance != b.rebalance
    {
        return Err("rebalanced K=4 skewed runs are not bit-identical across executions".into());
    }
    println!("gate ok: rebalanced K=4 skewed is bit-identical across repeated runs");
    Ok(())
}

/// Best-effort provenance, mirroring the criterion shim's stamp fields.
fn provenance() -> (String, String, String) {
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let date_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let host = std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.is_empty())
        .or_else(|| {
            std::process::Command::new("uname")
                .arg("-n")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (git_sha, date_unix, host)
}

fn write_summary(path: &str, cells: &[Cell]) -> Result<(), String> {
    let (git_sha, date_unix, host) = provenance();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"rebalance_gate\",");
    let _ = writeln!(out, "  \"git_sha\": \"{git_sha}\",");
    let _ = writeln!(out, "  \"date_unix\": \"{date_unix}\",");
    let _ = writeln!(out, "  \"host\": \"{host}\",");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(
        out,
        "  \"workload\": {{\"n\": {N}, \"pages\": {PAGES}, \"alpha_skewed\": {ALPHA}, \
         \"seed\": {SEED}, \"epoch\": {EPOCH_UNITS}, \"cores\": {cores}}},"
    );
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"group\": \"rebalance_gate\", \"id\": \"{}/{}/k{}\", \"throughput\": {:.6}, \
             \"makespan\": {:.1}, \"avg_tardiness\": {:.4}, \"wall_ms\": {:.2}, \
             \"migrated_txns\": {}}}{}",
            c.dist,
            c.mode,
            c.k,
            c.throughput,
            c.makespan,
            c.avg_tardiness,
            c.wall_ms,
            c.migrated,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).map_err(|e| format!("could not write {path}: {e}"))?;
    println!("gate summary written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_rebalance_gate.json");
    let run = run_table().and_then(|cells| {
        let gates = check_gates(&cells).and_then(|()| check_identity());
        write_summary(path, &cells)?;
        gates
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rebalance_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
