//! [`Hooks`]: the fault, guard and telemetry layers of one security
//! simulation, bundled into a single ordered value.

use moat_dram::{MitigationEngine, Nanos};
use moat_telemetry::{NoTelemetry, SimPhase, TelemetryHook};

use crate::fault_hook::{FaultHook, NoFaults};
use crate::guard_hook::{GuardHook, NoGuard};
use crate::unit::BankUnit;

/// The hook stack a [`SecuritySim`](crate::SecuritySim) threads through
/// its two loops: one [`FaultHook`], one [`GuardHook`] and one
/// [`TelemetryHook`].
///
/// # Order
///
/// At every boundary — each ACT slot of the per-step
/// [`run_with`](crate::SecuritySim::run_with), each event horizon of
/// [`run_semi_scripted_with`](crate::SecuritySim::run_semi_scripted_with)
/// — the layers run **fault → guard → telemetry**:
///
/// 1. the fault layer injects (SEU flips, stuck entries);
/// 2. the guard detects and repairs what was injected, so the engine's
///    promise for the coming grant is computed on checked state;
/// 3. telemetry attributes the simulated time that follows, from the
///    settled, post-repair state, to a [`SimPhase`]. It never mutates
///    the simulation.
///
/// Between boundaries only the fault layer acts (dropping an RFM, losing
/// an ALERT assertion, auditing a promised horizon).
///
/// # Cost
///
/// [`Hooks::default`] is the all-disarmed stack. Every call below is
/// guarded by its layer's `const ARMED`, so a disarmed layer
/// constant-folds out of the monomorphized loops.
///
/// # Lending hooks
///
/// The builder methods replace one layer each. The hook traits are
/// implemented for `&mut H`, so a caller lends its hooks and reads their
/// stats after the run:
///
/// ```
/// use moat_core::{MoatConfig, MoatEngine};
/// use moat_dram::Nanos;
/// use moat_sim::{hammer_attacker, Hooks, SecurityConfig, SecuritySim};
/// use moat_telemetry::PhaseProfile;
///
/// let mut sim = SecuritySim::new(
///     SecurityConfig::paper_default(),
///     MoatEngine::new(MoatConfig::paper_default()),
/// );
/// let mut profile = PhaseProfile::new();
/// let hooks = Hooks::default().telemetry(&mut profile);
/// sim.run_semi_scripted_with(&mut hammer_attacker(5), Nanos::from_millis(1), hooks);
/// assert!(profile.total_ns() > 0);
/// ```
#[derive(Debug)]
pub struct Hooks<F = NoFaults, G = NoGuard, T = NoTelemetry> {
    faults: F,
    guard: G,
    telemetry: T,
}

impl Default for Hooks {
    fn default() -> Self {
        Hooks {
            faults: NoFaults,
            guard: NoGuard,
            telemetry: NoTelemetry,
        }
    }
}

impl<F: FaultHook, G: GuardHook, T: TelemetryHook> Hooks<F, G, T> {
    /// This stack with `faults` as its fault layer.
    pub fn faults<F2: FaultHook>(self, faults: F2) -> Hooks<F2, G, T> {
        Hooks {
            faults,
            guard: self.guard,
            telemetry: self.telemetry,
        }
    }

    /// This stack with `guard` as its guard layer.
    pub fn guard<G2: GuardHook>(self, guard: G2) -> Hooks<F, G2, T> {
        Hooks {
            faults: self.faults,
            guard,
            telemetry: self.telemetry,
        }
    }

    /// This stack with `telemetry` as its telemetry layer.
    pub fn telemetry<T2: TelemetryHook>(self, telemetry: T2) -> Hooks<F, G, T2> {
        Hooks {
            faults: self.faults,
            guard: self.guard,
            telemetry,
        }
    }

    /// A boundary at `now`: inject, then detect/repair.
    #[inline]
    pub(crate) fn at_boundary<E: MitigationEngine>(&mut self, now: Nanos, unit: &mut BankUnit<E>) {
        if F::ARMED {
            self.faults.at_boundary(now, unit.engine_mut());
        }
        if G::ARMED {
            self.guard.at_boundary(now, unit);
        }
    }

    /// Whether the RFM about to issue at `now` is dropped.
    #[inline]
    pub(crate) fn drop_rfm(&mut self, now: Nanos) -> bool {
        F::ARMED && self.faults.drop_rfm(now)
    }

    /// Whether the ALERT assertion about to fire at `now` is lost.
    #[inline]
    pub(crate) fn lose_alert(&mut self, now: Nanos) -> bool {
        F::ARMED && self.faults.lose_alert(now)
    }

    /// Reports a promised horizon that proved unsound.
    #[inline]
    pub(crate) fn unsound_horizon(&mut self, now: Nanos, promised: u64, done: u64) {
        if F::ARMED {
            self.faults.on_unsound_horizon(now, promised, done);
        }
    }

    /// Records `[start, end)` spent in `phase` over `units` of work.
    #[inline]
    pub(crate) fn phase(&mut self, phase: SimPhase, start: Nanos, end: Nanos, units: u64) {
        if T::ARMED {
            self.telemetry.on_phase(phase, start, end, units);
        }
    }
}
