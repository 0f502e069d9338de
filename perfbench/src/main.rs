//! The repository's performance benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the crates' public entry points, checks every
//! output, prints each metric as `name value unit` and, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (from a separate, instrumented run). A failed output check prints
//! `"correct": false` and exits with status 1. See `README.md` for the
//! workloads, the metrics and the noise design.

mod live;
mod report;
mod sim;
mod spans;
mod stats;

use report::Report;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["table1_general", "skewed_threaded", "live_pages"];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        WORKLOADS.join("|")
    )
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn run(args: &Args, report: &mut Report) {
    let (s, trace) = (args.seconds, args.trace);
    match args.workload.as_str() {
        "table1_general" => sim::run_engine(
            sim::Table1 {
                n: 200_000,
                seed: args.seed.unwrap_or(101),
            },
            s,
            trace,
            report,
        ),
        "skewed_threaded" => sim::run_sharded(
            sim::Skewed {
                n: 40_000,
                seed: args.seed.unwrap_or(11),
            },
            s,
            trace,
            report,
        ),
        "live_pages" => live::run_live(
            live::LiveShape {
                pages: 20_000,
                seed: args.seed.unwrap_or(42),
                paced_pages: 10_000,
            },
            s,
            trace,
            report,
        ),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    run(&args, &mut report);
    let correct = report.finish(args.trace);
    for f in report.failures() {
        eprintln!("perfbench: check failed: {f}");
    }
    print!("{}", report.human(args.trace));
    println!("{}", report.json(args.trace, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload skewed_threaded --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, "skewed_threaded");
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload live_pages --trace 2").is_err());
        assert!(args("--workload live_pages --seconds").is_err());
        assert!(args("").is_err());
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// workloads and metrics this program emits.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let section = &text[start..];
            let end = section.find(']').expect("a closed list");
            section[..end]
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &section[i + m.len()..];
                    rest[..rest.find('"').unwrap()].to_string()
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(String::from));
        assert_eq!(names("end_to_end"), expect(report::END_TO_END));
        assert_eq!(names("per_layer"), expect(report::PER_LAYER));
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
