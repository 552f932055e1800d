//! # moat — a reproduction of *MOAT: Securely Mitigating Rowhammer with
//! Per-Row Activation Counters* (ASPLOS 2025)
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dram`] | `moat-dram` | DDR5/PRAC/ABO substrate: timings, banks, refresh, ALERT protocol, security ledger |
//! | [`core`] | `moat-core` | the MOAT engine: CTA/CMA, ETH/ATH, safe counter reset, MOAT-L |
//! | [`trackers`] | `moat-trackers` | baselines: Panopticon (both variants), ideal SRAM tracker, Misra–Gries |
//! | [`sim`] | `moat-sim` | the security and performance simulators |
//! | [`attacks`] | `moat-attacks` | Jailbreak, Ratchet, Feinting, TSA, straddle, postponement, kernels |
//! | [`workloads`] | `moat-workloads` | Table-4-calibrated SPEC/GAP synthetic streams |
//! | [`trace`] | `moat-trace` | mmap-backed binary trace store (format v2) and content-addressed cache |
//! | [`analysis`] | `moat-analysis` | Appendix-A Ratchet model, feinting bound, throughput models, SRAM budgets |
//!
//! ## Quick taste
//!
//! ```
//! use moat::core::{MoatConfig, MoatEngine};
//! use moat::dram::Nanos;
//! use moat::sim::{hammer_attacker, SecurityConfig, SecuritySim};
//!
//! let mut sim = SecuritySim::new(
//!     SecurityConfig::paper_default(),
//!     Box::new(MoatEngine::new(MoatConfig::paper_default())),
//! );
//! let report = sim.run(&mut hammer_attacker(31_337), Nanos::from_millis(1));
//! assert!(report.max_pressure <= 99); // the paper's tolerated threshold
//! ```
//!
//! See `examples/` for runnable scenarios and `cargo run --release -p
//! moat-bench --bin repro -- all` for the full table/figure reproduction
//! harness.

#![warn(missing_docs)]

pub use moat_analysis as analysis;
pub use moat_attacks as attacks;
pub use moat_core as core;
pub use moat_dram as dram;
pub use moat_sim as sim;
pub use moat_trace as trace;
pub use moat_trackers as trackers;
pub use moat_workloads as workloads;
