//! Repetition timing and small-sample statistics.
//!
//! Every timed quantity in the benchmark is the *fastest* of several
//! repetitions inside one run: on a shared VM a single timing swings by
//! ±20% inside one process, while the minimum tracks the work itself (see
//! `README.md`, "Noise design").

use std::time::{Duration, Instant};

/// Repetitions every run makes at least, whatever the time budget says.
pub const MIN_REPS: usize = 3;

/// Hard cap on repetitions, so a very fast workload cannot spin forever
/// collecting samples nobody needs.
pub const MAX_REPS: usize = 200;

/// How a run spends its `--seconds`: a tenth on set-up-only repetitions
/// (cheap set-ups get many samples), the rest on timed repetitions — all
/// untraced, or half untraced and half traced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Seconds of untraced timed repetitions.
    pub untraced: f64,
    /// Seconds of traced timed repetitions (0 in an untraced run).
    pub traced: f64,
    /// Seconds of set-up-only repetitions.
    pub setup: f64,
}

impl Split {
    /// Share of the budget spent on set-up-only repetitions.
    pub const SETUP_SHARE: f64 = 0.1;

    /// The split of `seconds` for a run with or without tracing.
    pub fn new(seconds: f64, trace: bool) -> Split {
        let setup = seconds * Split::SETUP_SHARE;
        let timed = seconds - setup;
        if trace {
            Split {
                untraced: timed / 2.0,
                traced: timed / 2.0,
                setup,
            }
        } else {
            Split {
                untraced: timed,
                traced: 0.0,
                setup,
            }
        }
    }
}

/// Call `f` while `seconds` last: at least [`MIN_REPS`] and at most
/// [`MAX_REPS`] times.
pub fn repeat_for(seconds: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut done = 0;
    while done < MIN_REPS || (done < MAX_REPS && start.elapsed() < budget) {
        f();
        done += 1;
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Smallest value of a sample (`NaN` when empty).
pub fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::NAN, f64::min)
}

/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least `q·n` values at or below it. `None` for an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sample must be sorted"
    );
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the `q` quantile — how many observations a
/// reported tail quantile actually rests on (e.g. 20 000 samples leave 20
/// beyond p99.9, so a p99.9 there is one of 20 extreme values, not a
/// stable figure).
pub fn tail_count(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU time the calling thread has consumed, in nanoseconds
/// (`/proc/thread-self/schedstat`, first field).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// FNV-1a over a stream of words: the digest that shows two schedules are
/// bit-identical without keeping both.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50));
        assert_eq!(quantile(&xs, 0.9), Some(90));
        assert_eq!(quantile(&xs, 0.99), Some(99));
        assert_eq!(quantile(&xs, 0.999), Some(100));
        assert_eq!(
            quantile(&xs, 0.0),
            Some(1),
            "rank clamps to the first value"
        );
        assert_eq!(quantile(&xs, 1.0), Some(100));
        assert_eq!(quantile(&[7], 0.5), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_of_small_odd_sample() {
        // Ranks ceil(0.5·5) = 3 and ceil(0.9·5) = 5.
        let xs = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&xs, 0.5), Some(30));
        assert_eq!(quantile(&xs, 0.9), Some(50));
    }

    #[test]
    fn tail_counts_match_ranks() {
        assert_eq!(tail_count(20_000, 0.99), 200);
        assert_eq!(tail_count(20_000, 0.999), 20);
        assert_eq!(tail_count(100, 0.5), 50);
        assert_eq!(
            tail_count(10, 0.999),
            0,
            "p99.9 of 10 samples is the maximum"
        );
        assert_eq!(tail_count(0, 0.99), 0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest([0.3, 0.1, 0.2]), 0.1);
        assert!(fastest([]).is_nan());
    }

    #[test]
    fn repetitions_are_bounded() {
        let mut calls = 0;
        repeat_for(0.0, || calls += 1);
        assert_eq!(calls, MIN_REPS);
        calls = 0;
        repeat_for(3600.0, || calls += 1);
        assert_eq!(calls, MAX_REPS);
    }

    #[test]
    fn split_spends_the_whole_budget() {
        let plain = Split::new(20.0, false);
        assert_eq!(plain.untraced + plain.setup, 20.0);
        assert_eq!(plain.traced, 0.0);
        let traced = Split::new(20.0, true);
        assert_eq!(traced.untraced, traced.traced);
        assert_eq!(traced.untraced + traced.traced + traced.setup, 20.0);
    }

    #[test]
    fn digest_separates_order() {
        let mut a = Digest::default();
        a.add(1);
        a.add(2);
        let mut b = Digest::default();
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        let before = thread_cpu_ns();
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        assert!(thread_cpu_ns() > before, "a busy thread accrues CPU time");
    }
}
