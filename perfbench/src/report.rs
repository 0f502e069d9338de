//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, emitted by every untraced run (`--trace 0`), in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("txn_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("avg_wtardiness", "wunits"),
    ("p999_wtardiness", "wunits"),
    ("miss_ratio", "ratio"),
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`), in
/// `BENCHMARK.json` order. A layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("max_wtardiness", "wunits"),
    ("workload.gen_s", "s"),
    ("table.build_s", "s"),
    ("policy.build_s", "s"),
    ("policy.build_s_half_n", "s"),
    ("policy.build_growth_2x", "ratio"),
    ("engine.new_s", "s"),
    ("policy.maintain_ns", "ns"),
    ("policy.maintain_calls", "count"),
    ("policy.events_per_maintain", "ratio"),
    ("policy.select_ns", "ns"),
    ("policy.select_calls", "count"),
    ("engine.self_ns", "ns"),
    ("engine.steps", "count"),
    ("engine.dispatches", "count"),
    ("engine.preemptions", "count"),
    ("engine.completions_per_dispatch", "ratio"),
    ("sharded.partition_s", "s"),
    ("sharded.rounds", "count"),
    ("sharded.move_rounds", "count"),
    ("sharded.useful_round_ratio", "ratio"),
    ("sharded.migrated_components", "count"),
    ("sharded.migrated_work", "units"),
    ("sharded.shard_busy_skew", "ratio"),
    ("live.pages_per_s", "1/s"),
    ("live.page_p50_us", "us"),
    ("live.page_p90_us", "us"),
    ("live.page_p99_us", "us"),
    ("live.page_p999_us", "us"),
    ("live.latency_samples", "count"),
    ("live.gen_late_max_ms", "ms"),
    ("live.ring_full_retries", "count"),
    ("live.admit_ratio", "ratio"),
    ("live.peak_inflight", "count"),
    ("live.heartbeats", "count"),
    ("live.step_ns", "ns"),
    ("live.cpu_us_per_page", "us"),
    ("live.frontend_new_s", "s"),
    ("obs.deliver_ns", "ns"),
    ("obs.deliver_calls", "count"),
    ("webdb.compile_s", "s"),
    ("webdb.compile_ms_per_page", "ms"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run found: its metrics, its operation counts and every output
/// check that failed.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (transactions or pages, over all repetitions).
    pub attempted: u64,
    /// Operations that did not complete exactly once.
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record metric `name`.
    ///
    /// # Panics
    /// If `name` is in neither metric table (a typo, not a run condition).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record an output check: a `false` fails the run with `what()`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count `n` operations, `failed` of which did not complete exactly
    /// once.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Every failed check, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The metrics a run of this kind must emit.
    pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Close the report: every end-to-end metric must have been computed
    /// and be finite and positive; per-layer metrics of bypassed layers
    /// read 0. Returns whether the run is correct.
    pub fn finish(&mut self, trace: bool) -> bool {
        for &(name, _) in Report::table(trace) {
            match self.values.get(name) {
                None if trace => {
                    self.values.insert(name, 0.0);
                }
                None => self
                    .failures
                    .push(format!("metric {name} was not computed")),
                Some(v) if !v.is_finite() => self
                    .failures
                    .push(format!("metric {name} is not finite: {v}")),
                Some(v) if !trace && *v <= 0.0 => self
                    .failures
                    .push(format!("metric {name} is not positive: {v}")),
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            self.failures.push("no operation was attempted".into());
        }
        self.failures.is_empty()
    }

    /// One line per metric, `name value unit`, for people.
    pub fn human(&self, trace: bool) -> String {
        let mut out = String::new();
        for &(name, unit) in Report::table(trace) {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "{name:<34} {v:>18.6} {unit}");
            }
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values keep every digit Rust prints for an
    /// `f64` (the shortest string that reads back to the same number).
    pub fn json(&self, trace: bool, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let mut first = true;
        for &(name, unit) in Report::table(trace) {
            let Some(v) = self.values.get(name).filter(|v| v.is_finite()) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn untraced_report_needs_every_metric_positive() {
        let mut r = Report::default();
        r.ops(10, 0);
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        assert!(r.finish(false));
        let line = r.json(false, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"txn_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}"));

        let mut missing = Report::default();
        missing.ops(1, 0);
        missing.set("txn_per_s", 0.0);
        assert!(!missing.finish(false));
        assert!(missing
            .failures()
            .iter()
            .any(|f| f.contains("not positive")));
        assert!(missing.failures().iter().any(|f| f.contains("setup_s")));
    }

    #[test]
    fn traced_report_zero_fills_bypassed_layers() {
        let mut r = Report::default();
        r.ops(1, 0);
        assert!(r.finish(true));
        assert_eq!(r.get("sharded.rounds"), Some(0.0));
        assert!(r
            .json(true, true)
            .contains("\"fail_ratio\": {\"value\": 0.0"));
    }

    #[test]
    fn failed_check_fails_the_run() {
        let mut r = Report::default();
        r.ops(1, 0);
        r.check(false, || "outcome count".into());
        assert!(!r.finish(true));
        assert_eq!(r.failures(), ["outcome count"]);
    }
}
