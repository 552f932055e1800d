//! # moat-telemetry — deterministic observability for the MOAT reproduction
//!
//! MOAT's own design argument is that the authoritative signal must be
//! cheap, always consistent, and derived from the thing itself (per-row
//! activation counters, not a sampled proxy). This crate applies the
//! same discipline to the simulators: every phase span and metric is
//! keyed to **simulation time and ACT counts, never wall-clock**, so an
//! armed run renders bit-identically across machines, thread counts,
//! shard orders, and checkpoint-resume splits — the telemetry artifact
//! is diffable exactly like the fault-sweep table and `FleetReport`.
//!
//! Three pillars:
//!
//! * [`TelemetryHook`] — the observation seam. It is the telemetry
//!   layer of `moat-sim`'s `Hooks` stack, after the fault and guard
//!   layers; telemetry observes the settled state and never mutates it.
//!   [`NoTelemetry`] is the disarmed unit type; its `ARMED =
//!   false` constant folds every instrumentation branch away, so the
//!   disarmed simulators stay bit-identical to (and as fast as) the
//!   uninstrumented build.
//! * [`PhaseProfile`] — the armed [`TelemetryHook`]: a per-phase
//!   "where does the simulated time go" profile, the rows behind
//!   `BENCH_perf.json`'s `profile_*` fields.
//! * [`MetricsRegistry`] — counters, gauges, and fixed-log2-bucket
//!   histograms ([`Log2Histogram`]) with commutative, associative
//!   merges. Renders (text and JSON, see [`TelemetrySink::render`]) are
//!   sorted by metric name, so the merge of any permutation of shard
//!   registries renders identically.
//!
//! Configuration follows the repo's env-var grammar
//! (`MOAT_TELEMETRY=level=off|full,sink=text|json`, see
//! [`TelemetryConfig`]) and is eagerly validated by `repro` with exit
//! code 2, like `MOAT_FAULTS` and its siblings. The [`log`] module is
//! the leveled replacement for scattered `eprintln!` degradation
//! warnings (`MOAT_LOG=error|warn|info`), silent by default so tests
//! stay quiet.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod hook;
pub mod log;
mod metrics;
mod profile;

pub use config::{TelemetryConfig, TelemetrySink};
pub use hook::{NoTelemetry, SimPhase, TelemetryHook};
pub use log::LogLevel;
pub use metrics::{log2_bucket, Log2Histogram, MetricsRegistry, LOG2_BUCKETS};
pub use profile::PhaseProfile;
