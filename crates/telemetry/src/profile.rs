//! The armed [`TelemetryHook`]: [`PhaseProfile`], "where does the
//! simulated time go".

use moat_dram::Nanos;

use crate::hook::{SimPhase, TelemetryHook};

/// "Where does the simulated time go": per-phase work units and
/// virtual nanoseconds. Pure integers.
///
/// Armed as a simulator's telemetry layer, it adds every phase span
/// the simulator reports. Everything it records derives from the hook
/// arguments (sim time, ACT counts), so two runs with equal inputs
/// record equal profiles on any machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    units: [u64; SimPhase::COUNT],
    ns: [u64; SimPhase::COUNT],
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// Attributes `units` of work and `ns` virtual nanoseconds to
    /// `phase`.
    pub fn add(&mut self, phase: SimPhase, units: u64, ns: u64) {
        self.units[phase.index()] += units;
        self.ns[phase.index()] = self.ns[phase.index()].saturating_add(ns);
    }

    /// Work units attributed to `phase`.
    pub fn units(&self, phase: SimPhase) -> u64 {
        self.units[phase.index()]
    }

    /// Virtual nanoseconds attributed to `phase`.
    pub fn ns(&self, phase: SimPhase) -> u64 {
        self.ns[phase.index()]
    }

    /// Total attributed virtual nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// `phase`'s share of the total in permille (integer arithmetic, so
    /// the render is deterministic; 0 when nothing is attributed).
    pub fn permille(&self, phase: SimPhase) -> u64 {
        let total = self.total_ns();
        if total == 0 {
            0
        } else {
            // u128 intermediate: ns * 1000 can overflow u64.
            ((u128::from(self.ns(phase)) * 1000) / u128::from(total)) as u64
        }
    }
}

impl TelemetryHook for PhaseProfile {
    const ARMED: bool = true;

    fn on_phase(&mut self, phase: SimPhase, start: Nanos, end: Nanos, units: u64) {
        self.add(phase, units, end.as_u64().saturating_sub(start.as_u64()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_attribution_and_permille() {
        let attribute = |p: &mut PhaseProfile| {
            p.on_phase(SimPhase::EngineUpdate, Nanos::new(0), Nanos::new(750), 10);
            p.add(SimPhase::Idle, 0, 250);
            // A span that ends before it starts attributes no time.
            p.on_phase(SimPhase::Refresh, Nanos::new(9), Nanos::new(3), 0);
        };
        let mut p = PhaseProfile::new();
        attribute(&mut p);
        assert_eq!(p.total_ns(), 1000);
        assert_eq!(p.permille(SimPhase::EngineUpdate), 750);
        assert_eq!(p.permille(SimPhase::Idle), 250);
        assert_eq!(p.permille(SimPhase::Refresh), 0);
        attribute(&mut p);
        assert_eq!(p.units(SimPhase::EngineUpdate), 20);
        assert_eq!(
            p.permille(SimPhase::EngineUpdate),
            750,
            "shares survive accumulation"
        );
    }
}
