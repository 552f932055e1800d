//! # moat-sim — security and performance simulators
//!
//! Two simulators drive every experiment in the reproduction:
//!
//! * [`SecuritySim`] — a single bank under attack by an adaptive
//!   [`Attacker`] with full defense visibility (threat model §2.1). Used
//!   for Jailbreak (Fig. 5), Ratchet (Fig. 10/15), the reset-policy study
//!   (Fig. 7), and the refresh-postponement attack (Fig. 16). It has two
//!   loops: the per-step reference [`SecuritySim::run`] and the
//!   event-horizon [`SecuritySim::run_semi_scripted`], which also runs
//!   every [`ScriptedAttacker`]. Their `_with` forms take a [`Hooks`]
//!   stack of fault, guard and telemetry layers.
//! * [`PerfSim`] — a DDR5 sub-channel of banks fed by a request stream,
//!   measuring completion time, ALERT rates, and mitigation counts. Used
//!   for Fig. 11, Tables 5–7, Fig. 17, and the performance attacks of §7.
//!
//! Both are assembled from [`BankUnit`]s: a bank + mitigation engine +
//! refresh engine + ground-truth security ledger.
//!
//! ```
//! use moat_core::{MoatConfig, MoatEngine};
//! use moat_dram::Nanos;
//! use moat_sim::{hammer_attacker, SecurityConfig, SecuritySim};
//!
//! let mut sim = SecuritySim::new(
//!     SecurityConfig::paper_default(),
//!     Box::new(MoatEngine::new(MoatConfig::paper_default())),
//! );
//! let report = sim.run(&mut hammer_attacker(7), Nanos::from_millis(1));
//! assert!(report.max_pressure <= 99); // MOAT's tolerated threshold
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod fault_hook;
mod faw;
mod frontend;
mod guard_hook;
mod hooks;
mod perf;
mod security;
mod unit;

pub use budget::SlotBudget;
pub use fault_hook::{FaultHook, NoFaults};
// The telemetry seam lives in `moat-telemetry` (it needs nothing from
// the simulators); re-exported here so every layer of `Hooks` is
// importable from one place.
pub use faw::FawTracker;
pub use frontend::{hammer_address, AddressAccess, AddressStream};
pub use guard_hook::{GuardHook, NoGuard};
pub use hooks::Hooks;
pub use moat_telemetry::{NoTelemetry, SimEvent, SimPhase, TelemetryHook};
pub use perf::{PerfConfig, PerfReport, PerfSim, Request, RequestStream, DEFAULT_CHUNK};
pub use security::{
    hammer_attacker, round_robin_attacker, AttackStep, Attacker, DefenseView, HammerAttacker,
    RoundRobinAttacker, RunGrant, Scripted, ScriptedAttacker, SecurityConfig, SecurityReport,
    SecuritySim, SemiRun, SemiScriptedAttacker, SemiStepped,
};
pub use unit::{BankUnit, BankUnitStats, BankUnitView};
