//! # moat-telemetry — deterministic observability for the MOAT reproduction
//!
//! MOAT's own design argument is that the authoritative signal must be
//! cheap, always consistent, and derived from the thing itself (per-row
//! activation counters, not a sampled proxy). This crate applies the
//! same discipline to the simulators: every span, event, and metric is
//! keyed to **simulation time and ACT counts, never wall-clock**, so an
//! armed run renders bit-identically across machines, thread counts,
//! shard orders, and checkpoint-resume splits — the telemetry artifact
//! is diffable exactly like the fault-sweep table and `FleetReport`.
//!
//! Three pillars:
//!
//! * [`TelemetryHook`] — the tracing seam. It rides the same
//!   event-horizon boundaries as the fault and guard hooks, as the
//!   telemetry layer of `moat-sim`'s `Hooks` stack, which orders the
//!   layers; telemetry observes the settled state and never mutates it.
//!   [`NoTelemetry`] is the disarmed unit type; its `ARMED =
//!   false` constant folds every instrumentation branch away, so the
//!   disarmed simulators stay bit-identical to (and as fast as) the
//!   uninstrumented build.
//! * [`MetricsRegistry`] — counters, gauges, and fixed-log2-bucket
//!   histograms ([`Log2Histogram`]) with commutative, associative
//!   merges. Renders (text and JSON) are sorted by metric name, so the
//!   merge of any permutation of shard registries renders identically.
//! * [`Tracer`] — the armed [`TelemetryHook`]: accumulates a per-phase
//!   "where does the simulated time go" [`PhaseProfile`] plus a bounded
//!   event/span log, exportable as deterministic text or as
//!   chrome://tracing trace-event JSON ([`Tracer::render_chrome`]).
//!
//! Configuration follows the repo's env-var grammar
//! (`MOAT_TELEMETRY=level=off|spans|full,sink=text|json|chrome`, see
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
mod tracer;

pub use config::{TelemetryConfig, TelemetryLevel, TelemetrySink};
pub use hook::{NoTelemetry, SimEvent, SimPhase, TelemetryHook};
pub use log::LogLevel;
pub use metrics::{log2_bucket, Log2Histogram, MetricsRegistry, LOG2_BUCKETS};
pub use tracer::{PhaseProfile, Tracer, MAX_RECORDED};
