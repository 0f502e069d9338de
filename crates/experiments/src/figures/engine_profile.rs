//! Extension experiment: scheduler self-profile via the flight recorder.
//!
//! The engine stamps every scheduling point with three wall-clock phases
//! when an observer is attached — `maintain` (settle + arrivals + index
//! maintenance), `select` (the comparison itself, the same nanoseconds the
//! flight recorder's latency histogram sees), and `dispatch` (routing the
//! choice onto servers). This figure runs the deep-chain batch on the
//! sharded runtime at K ∈ {1, 4, 8} with a [`asets_obs::FlightRecorder`]
//! per shard and reports the mean nanoseconds per phase, summed across
//! shards, plus select's share of the total.
//!
//! The numbers are wall-clock, so absolute values move with the host; the
//! stable claims are the *shape* (maintain — which includes settling and
//! arrival ingestion — dominates; select and dispatch are each a fraction
//! of it) and that per-point cost does not grow with K (each shard
//! schedules only its own chains).

use crate::config::ExpConfig;
use crate::report::Report;
use asets_core::obs::EnginePhase;
use asets_core::policy::PolicyKind;
use asets_obs::{FlightRecorder, PhaseAgg};
use asets_sim::ShardedRuntime;
use asets_workload::deep_chains;

/// The shard counts the profile visits (ISSUE: K ∈ {1, 4, 8}).
pub const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Chain length shared with the scale-out sweep.
pub const CHAIN_LEN: usize = 25;

/// Sum one phase's aggregate across every shard's recorder.
fn phase_total(recorders: &[FlightRecorder], phase: EnginePhase) -> PhaseAgg {
    let mut agg = PhaseAgg::default();
    for c in recorders {
        let p = c.phase(phase);
        agg.count += p.count;
        agg.total_ns += p.total_ns;
        agg.max_ns = agg.max_ns.max(p.max_ns);
    }
    agg
}

/// Run the self-profile: K ∈ {1, 4, 8} shards over the deep-chain batch,
/// reporting mean wall-clock nanoseconds per phase per scheduling point.
pub fn run(cfg: &ExpConfig) -> Report {
    let specs = deep_chains(cfg.n_txns, CHAIN_LEN.min(cfg.n_txns));
    let mut report = Report::new(
        "Extension — engine self-profile: wall-clock per phase (spans attached)",
        "shards",
        vec![
            "maintain_ns".to_string(),
            "select_ns".to_string(),
            "dispatch_ns".to_string(),
            "select_share".to_string(),
        ],
    );
    for &k in &SHARD_COUNTS {
        let (_, recorders) = ShardedRuntime::new(specs.clone(), PolicyKind::asets_star())
            .shards(k)
            .servers(cfg.servers)
            .run_observed(|shard, _table| {
                FlightRecorder::new(FlightRecorder::DEFAULT_CAPACITY).with_shard(shard as u32)
            })
            .expect("deep chains are acyclic");
        let phases = EnginePhase::ALL.map(|p| phase_total(&recorders, p));
        let means = phases.map(|p| p.mean_ns());
        let total: f64 = means.iter().sum();
        let select = means[EnginePhase::Select as usize];
        report.push_row(
            k as f64,
            vec![
                means[EnginePhase::Maintain as usize],
                select,
                means[EnginePhase::Dispatch as usize],
                if total > 0.0 { select / total } else { 0.0 },
            ],
        );
    }
    report.note(
        "mean wall-clock ns per scheduling point, summed across shards; host-dependent \
         absolute values — the stable claims are the phase shape and flat per-point cost in K"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_every_shard_count_with_live_phases() {
        let cfg = ExpConfig::quick();
        let r = run(&cfg);
        assert_eq!(r.rows.len(), SHARD_COUNTS.len());
        for name in ["maintain_ns", "select_ns", "dispatch_ns"] {
            let series = r.series(name).unwrap();
            assert!(
                series.iter().all(|&v| v > 0.0),
                "{name} has a zero mean: {series:?}"
            );
        }
        for share in r.series("select_share").unwrap() {
            assert!((0.0..=1.0).contains(&share));
        }
    }
}
