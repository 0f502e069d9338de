//! # asets-obs
//!
//! Scheduler observability for the ASETS\* reproduction: the concrete
//! observers behind the `asets_core::obs` hook layer, plus the analysis
//! library the `asets-obs` CLI is built on.
//!
//! * [`FlightRecorder`] — the one recorder: a bounded ring of the last N
//!   [`Record`]s (decision provenance, migrations, dispatches stamped with
//!   their decision's `seq`, and every transaction's `arrival → ready →
//!   served* → completed` lifecycle) under one sequence counter, with a
//!   workflow-membership snapshot, a per-phase self-profile and run-wide
//!   [`MetricsRegistry`] counters/histograms; dumpable on demand
//!   ([`FlightRecorder::dump_to`]) or on panic ([`PanicDump`]).
//! * [`MetricsRegistry`] — counters and fixed-bucket [`Histogram`]s with
//!   Prometheus-text and JSON-lines exporters.
//! * [`Dump`] — the one parser: read a `flight.jsonl` back and query it: why a
//!   transaction ran, a workflow's EDF↔HDF migration history, top-k
//!   decisions by margin, and [`Dump::check`], which re-derives every
//!   recorded winner from its own `r`/`s`/`w` values.
//! * [`json`] — the flat single-line JSON read/write layer shared by the
//!   dump and metric formats (the workspace's serde is a no-op shim).
//! * [`Timeline`] — reassemble the lifecycle records of recorders or a
//!   dump, verify span-interval invariants, render per-transaction
//!   timelines, export Chrome/Perfetto trace JSON.
//! * [`SloMonitor`] / [`QuantileSketch`] — streaming tardiness/queue-wait
//!   percentiles and windowed deadline-miss ratio in fixed memory.
//! * [`SamplingObserver`] — deterministic 1-in-N span sampling around any
//!   inner observer, with exact counters and SLO sketches for the whole
//!   population.
//! * [`TelemetryBus`] / [`BusHandle`] — per-shard lock-free telemetry
//!   rings drained by a collector thread into merged scrape-able state.
//! * [`ScrapeServer`] — a hand-rolled `GET /metrics` + `/slo` + `/health`
//!   HTTP endpoint over the bus (or any snapshot source).
//!
//! ## Wiring
//!
//! ```
//! use asets_core::obs::share;
//! use asets_core::policy::PolicyKind;
//! use asets_core::time::{SimDuration, SimTime};
//! use asets_core::txn::{TxnSpec, Weight};
//! use asets_obs::{Dump, FlightRecorder};
//!
//! let specs = vec![
//!     TxnSpec::independent(
//!         SimTime::ZERO,
//!         SimTime::from_units_int(3),
//!         SimDuration::from_units_int(3),
//!         Weight::ONE,
//!     ),
//!     TxnSpec::independent(
//!         SimTime::ZERO,
//!         SimTime::from_units_int(7),
//!         SimDuration::from_units_int(5),
//!         Weight::ONE,
//!     ),
//! ];
//! let rec = FlightRecorder::shared(4096);
//! let result =
//!     asets_sim::simulate_observed(specs, PolicyKind::Asets, share(&rec)).unwrap();
//! let dump = Dump::parse(&rec.borrow().dump()).unwrap();
//! assert!(dump.check().is_empty(), "every decision re-derives");
//! assert!(dump.decisions().count() > 0);
//! assert_eq!(result.stats.completed, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod bus;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sample;
pub mod scrape;
pub mod slo;
pub mod timeline;

pub use analysis::{derive_impacts, CheckFailure, Dump, PhaseProfile};
pub use bus::{BusEvent, BusHandle, BusObserver, BusRing, BusState, TelemetryBus};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{
    dump_sharded, record_line, FlightRecorder, PanicDump, PhaseAgg, Record, LATENCY_NS_BOUNDS,
    LIST_LEN_BOUNDS,
};
pub use sample::{SampleCounters, SamplingObserver};
pub use scrape::{http_get, ScrapeServer};
pub use slo::{QuantileSketch, SloMonitor, DEFAULT_SLO_WINDOW};
pub use timeline::{DispatchEdge, RunSegment, Timeline, TxnTimeline};

// Re-export the hook layer so downstream users need only one obs import.
pub use asets_core::obs::{
    share, Candidate, CompletionInfo, DecisionRecord, DecisionRule, EnginePhase, EpochSummary,
    MigrationEvent, MigrationSubject, NoopObserver, Observer, ObserverSlot, SharedObserver, Winner,
};
