//! `asets-obs` — interrogate a scheduler flight-recorder dump: decision
//! provenance and transaction lifecycles, one file.
//!
//! ```text
//! asets-obs why <flight.jsonl> <T5> [<time-units>]   # why did T5 run (at t)?
//! asets-obs migrations <flight.jsonl> <K3|T5>        # EDF<->HDF history
//! asets-obs top <flight.jsonl> [k]                   # k widest-margin decisions
//! asets-obs check <flight.jsonl>                     # re-derive every winner
//! asets-obs summary <flight.jsonl>                   # record/decision counts
//! asets-obs timeline <flight.jsonl> <T5>             # arrival->completion chain
//! asets-obs slo <flight.jsonl> [window]              # tardiness/miss telemetry
//! ```
//!
//! Flight dumps come from `repro <figure> --obs-out <dir>`, `repro replay
//! ... --obs-out <dir>`, `repro spans <dir>`, or any run wired through
//! `asets_obs::FlightRecorder`. Transactions are named `T<n>` and
//! workflows `K<n>`, exactly as every other tool in this repo prints them.

use asets_core::obs::MigrationSubject;
use asets_core::time::SimTime;
use asets_core::txn::TxnId;
use asets_core::workflow::WfId;
use asets_obs::{Dump, Record, Timeline};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: asets-obs <why|migrations|top|check|summary|timeline|slo> <flight.jsonl> [args]\n\
         \x20 why <dump> <T5> [time-units]   decisions that chose T5 (at a given instant)\n\
         \x20 migrations <dump> <K3|T5>      list-migration history of a workflow/transaction\n\
         \x20 top <dump> [k]                 k widest-margin comparisons (default 10)\n\
         \x20 check <dump>                   re-derive every recorded winner from its r/s/w,\n\
         \x20                                match every dispatch to its decision, check the\n\
         \x20                                lifecycle records and, with a membership snapshot,\n\
         \x20                                dispatched heads against the winning workflow\n\
         \x20 summary <dump>                 event counts and decision breakdown\n\
         \x20 timeline <dump> <T5>           T5's arrival->ready->run->completion chain\n\
         \x20 slo <dump> [window]            tardiness/queue-wait quantiles + miss ratios"
    );
    ExitCode::FAILURE
}

/// Parse `T5` into a transaction id.
fn parse_txn(s: &str) -> Option<TxnId> {
    s.strip_prefix('T')?.parse().ok().map(TxnId)
}

/// Parse `K3` (workflow) or `T5` (transaction) into a migration subject.
fn parse_subject(s: &str) -> Option<MigrationSubject> {
    if let Some(w) = s.strip_prefix('K') {
        return w.parse().ok().map(|w| MigrationSubject::Workflow(WfId(w)));
    }
    parse_txn(s).map(MigrationSubject::Txn)
}

fn why(dump: &Dump, args: &[String]) -> Result<(), String> {
    let txn = args
        .first()
        .and_then(|s| parse_txn(s))
        .ok_or("why needs a transaction like T5")?;
    let at = match args.get(1) {
        Some(s) => Some(SimTime::from_units(
            s.parse::<f64>()
                .map_err(|e| format!("bad time {s:?}: {e}"))?,
        )),
        None => None,
    };
    let hits = dump.why(txn, at);
    if hits.is_empty() {
        // A transaction with no decisions may never have entered the
        // scheduler at all: check the live path's admission sheds.
        if let Some(shed) = dump.shed_of(txn) {
            println!(
                "[{:>10.3}] {txn} never ran: job {} ({} txns starting at T{}) was shed — {} \
                 ({} txns in flight)",
                shed.at.as_units(),
                shed.job,
                shed.txns,
                shed.first_txn.0,
                if shed.overload {
                    "in-flight bound"
                } else {
                    "SLA infeasible"
                },
                shed.inflight,
            );
            return Ok(());
        }
        let when = at.map_or(String::new(), |t| format!(" at {:.3}", t.as_units()));
        return Err(format!("no recorded decision chose {txn}{when}"));
    }
    for (seq, rec) in &hits {
        println!("#{seq} {rec}");
    }
    println!("{} decision(s) chose {txn}", hits.len());
    Ok(())
}

fn migrations(dump: &Dump, args: &[String]) -> Result<(), String> {
    let subject = args
        .first()
        .and_then(|s| parse_subject(s))
        .ok_or("migrations needs a subject like K3 or T5")?;
    let history = dump.migrations_of(subject);
    if history.is_empty() {
        println!("no migrations recorded for {}", args[0]);
        return Ok(());
    }
    for ev in &history {
        println!("{ev}");
    }
    println!("{} migration(s)", history.len());
    Ok(())
}

fn top(dump: &Dump, args: &[String]) -> Result<(), String> {
    let k = match args.first() {
        Some(s) => s
            .parse::<usize>()
            .map_err(|e| format!("bad k {s:?}: {e}"))?,
        None => 10,
    };
    let top = dump.top_by_margin(k);
    if top.is_empty() {
        println!("no two-sided comparisons in this dump");
        return Ok(());
    }
    for (seq, rec) in &top {
        println!("#{seq} {rec}");
    }
    Ok(())
}

fn check(dump: &Dump) -> Result<(), String> {
    let tl = Timeline::from_dump(dump);
    let comparisons = dump.decisions().filter(|(_, r)| r.is_comparison()).count();
    // Without a membership snapshot every workflow would look unknown.
    let failures = if dump.wf_members.is_empty() {
        dump.check()
    } else {
        dump.check_with_spans(&tl)
    };
    let mismatches = dump.dispatch_decision_mismatches();
    let span_fails = tl.check(None);
    for f in &failures {
        println!("FAIL #{}: {}", f.seq, f.reason);
    }
    for (seq, at, txn) in &mismatches {
        println!(
            "FAIL #{seq}: dispatch of {txn} at {:.3} has no matching decision",
            at.as_units()
        );
    }
    for f in &span_fails {
        println!("FAIL span: {f}");
    }
    if failures.is_empty() && mismatches.is_empty() && span_fails.is_empty() {
        println!(
            "ok: {} decisions ({comparisons} comparisons) re-derive, every dispatch matches, \
             {} transaction timeline(s) consistent",
            dump.decisions().count(),
            tl.txns().count()
        );
        Ok(())
    } else {
        Err(format!(
            "{} decision failure(s), {} dispatch mismatch(es), {} span failure(s)",
            failures.len(),
            mismatches.len(),
            span_fails.len()
        ))
    }
}

fn timeline_cmd(tl: &Timeline, args: &[String]) -> Result<(), String> {
    let txn = args
        .first()
        .and_then(|s| parse_txn(s))
        .ok_or("timeline needs a transaction like T5")?;
    let t = tl
        .of(txn)
        .ok_or_else(|| format!("no spans recorded for {txn}"))?;
    print!("{}", t.render(txn, tl.workflow_of(txn)));
    Ok(())
}

fn slo_cmd(tl: &Timeline, args: &[String]) -> Result<(), String> {
    let window = match args.first() {
        Some(s) => match s.parse::<usize>() {
            Ok(w) if w > 0 => w,
            _ => return Err(format!("bad window {s:?}: need a positive integer")),
        },
        None => asets_obs::DEFAULT_SLO_WINDOW,
    };
    let slo = asets_experiments::obs_support::slo_from_timeline(tl, window);
    println!("full run ({} completions):", slo.completions());
    print!("{}", slo.report());
    // Windowed quantiles: replay only the trailing `window` completions
    // into a fresh monitor, since the sketches themselves never forget.
    let mut completions: Vec<_> = tl
        .txns()
        .filter_map(|(id, t)| t.completion.map(|c| (c.finish.ticks(), id.0, c)))
        .collect();
    completions.sort_by_key(|&(finish, id, _)| (finish, id));
    if completions.len() > window {
        let mut tail = asets_obs::SloMonitor::with_window(window);
        for (_, _, info) in &completions[completions.len() - window..] {
            tail.record(info);
        }
        println!("\nlast {window} completions:");
        print!("{}", tail.report());
    }
    Ok(())
}

fn summary(dump: &Dump) {
    let mut decisions = 0usize;
    let mut comparisons = 0usize;
    let mut migrations = 0usize;
    let mut dispatches = 0usize;
    let mut preemptions = 0usize;
    let mut rebalances = 0usize;
    let mut admissions = 0usize;
    let mut lifecycle = 0usize;
    let mut edf_wins = 0usize;
    let mut hdf_wins = 0usize;
    for (_, ev) in &dump.records {
        match ev {
            Record::Decision(r) => {
                decisions += 1;
                if r.is_comparison() {
                    comparisons += 1;
                    match r.winner {
                        asets_core::obs::Winner::Edf => edf_wins += 1,
                        asets_core::obs::Winner::Hdf => hdf_wins += 1,
                        _ => {}
                    }
                }
            }
            Record::Migration(_) => migrations += 1,
            Record::Dispatch { preempted, .. } => {
                dispatches += 1;
                if preempted.is_some() {
                    preemptions += 1;
                }
            }
            Record::Rebalance(_) => rebalances += 1,
            Record::Admission(_) => admissions += 1,
            Record::Arrived { .. }
            | Record::Ready { .. }
            | Record::Served { .. }
            | Record::Completed { .. } => lifecycle += 1,
        }
    }
    println!("{} records", dump.records.len());
    println!("  decisions:  {decisions} ({comparisons} two-sided: {edf_wins} EDF, {hdf_wins} HDF)");
    println!("  migrations: {migrations}");
    println!("  dispatches: {dispatches} ({preemptions} preempting)");
    if lifecycle > 0 {
        println!("  lifecycle:  {lifecycle}");
    }
    if rebalances > 0 {
        println!("  rebalances: {rebalances}");
    }
    if admissions > 0 {
        println!("  admission sheds: {admissions}");
    }
    for p in &dump.profiles {
        let shard = p.shard.map_or(String::new(), |s| format!(" (shard {s})"));
        println!(
            "  profile {:<8} {} points, mean {:.0} ns, max {} ns{shard}",
            p.phase.token(),
            p.agg.count,
            p.agg.mean_ns(),
            p.agg.max_ns
        );
    }
    if let Some((seq, ev)) = dump.records.first() {
        println!(
            "  span: seq {seq}..{} / t {:.3}..{:.3}",
            dump.records.last().map(|(s, _)| *s).unwrap_or(*seq),
            ev.at().as_units(),
            dump.records
                .last()
                .map(|(_, e)| e.at().as_units())
                .unwrap_or(0.0)
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let rest = &args[2..];
    const COMMANDS: [&str; 7] = [
        "why",
        "migrations",
        "top",
        "check",
        "summary",
        "timeline",
        "slo",
    ];
    if !COMMANDS.contains(&cmd.as_str()) {
        return usage();
    }
    let dump = match Dump::load(Path::new(path)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match cmd.as_str() {
        "why" => why(&dump, rest),
        "migrations" => migrations(&dump, rest),
        "top" => top(&dump, rest),
        "check" if rest.is_empty() => check(&dump),
        "check" => Err("check reads one flight.jsonl; its lifecycle records are inside".into()),
        "summary" => {
            summary(&dump);
            Ok(())
        }
        "timeline" => timeline_cmd(&Timeline::from_dump(&dump), rest),
        "slo" => slo_cmd(&Timeline::from_dump(&dump), rest),
        _ => unreachable!("filtered against COMMANDS"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
