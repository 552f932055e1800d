//! The telemetry seam: [`TelemetryHook`], its disarmed unit type
//! [`NoTelemetry`], and the phase vocabulary.
//!
//! Mirrors the `FaultHook`/`GuardHook` compile-time switch discipline
//! from `moat-sim`: the security simulator's loops are generic over
//! `T: TelemetryHook` and guard every call with `if T::ARMED { ... }`.
//! With [`NoTelemetry`] the branches constant-fold away, so the
//! disarmed loops compile to exactly the uninstrumented code. The hook
//! is the telemetry layer of `moat-sim`'s `Hooks` stack, which states
//! where it runs; it observes and must never mutate the simulation.

use moat_dram::Nanos;

/// Where simulated time goes inside a simulator loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Activations flowing through the mitigation engine (the tracker
    /// update itself — MOAT's per-row counters, Panopticon's queue).
    EngineUpdate,
    /// ALERT episode churn: RFM drains and their tRFC-class stalls.
    EpisodeChurn,
    /// Periodic refresh (REF) windows.
    Refresh,
    /// Simulated time with no work attributed (attacker idles, slack).
    Idle,
}

impl SimPhase {
    /// Number of phases (array-profile width).
    pub const COUNT: usize = 4;

    /// Every phase, in fixed render order.
    pub const ALL: [SimPhase; SimPhase::COUNT] = [
        SimPhase::EngineUpdate,
        SimPhase::EpisodeChurn,
        SimPhase::Refresh,
        SimPhase::Idle,
    ];

    /// Stable index into a per-phase array.
    pub fn index(self) -> usize {
        match self {
            SimPhase::EngineUpdate => 0,
            SimPhase::EpisodeChurn => 1,
            SimPhase::Refresh => 2,
            SimPhase::Idle => 3,
        }
    }

    /// Render name; with `_` for `-`, the phase token of the `profile_*` keys.
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::EngineUpdate => "engine-update",
            SimPhase::EpisodeChurn => "episode-churn",
            SimPhase::Refresh => "refresh",
            SimPhase::Idle => "idle",
        }
    }
}

/// The observation seam the simulators thread through their loops.
///
/// [`on_phase`](Self::on_phase) has an empty default body;
/// [`NoTelemetry`] relies on `ARMED = false` to erase the call sites
/// entirely. Implementations observe — they must not mutate simulation
/// state, and they must derive everything they record from the
/// arguments (sim time, ACT counts), never from wall-clock.
pub trait TelemetryHook {
    /// Whether the simulator should call this hook at all. Call sites
    /// guard with `if T::ARMED`, so a `false` here constant-folds the
    /// instrumentation away.
    const ARMED: bool;

    /// Simulated time `[start, end)` was spent in `phase`, covering
    /// `units` units of work (ACTs for engine phases, RFMs for episode
    /// churn).
    fn on_phase(&mut self, _phase: SimPhase, _start: Nanos, _end: Nanos, _units: u64) {}
}

/// The disarmed hook: never called, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl TelemetryHook for NoTelemetry {
    const ARMED: bool = false;
}

/// A lent hook: the simulators can hold `&mut profile`, and the caller
/// keeps the hook (and what it recorded) after the run.
impl<T: TelemetryHook> TelemetryHook for &mut T {
    const ARMED: bool = T::ARMED;

    fn on_phase(&mut self, phase: SimPhase, start: Nanos, end: Nanos, units: u64) {
        (**self).on_phase(phase, start, end, units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_match_all_order() {
        for (i, phase) in SimPhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn no_telemetry_is_disarmed() {
        const { assert!(!NoTelemetry::ARMED) };
        // The default must be callable.
        let mut t = NoTelemetry;
        t.on_phase(SimPhase::Idle, Nanos::new(0), Nanos::new(1), 0);
    }
}
