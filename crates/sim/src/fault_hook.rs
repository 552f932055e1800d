//! The fault-injection layer of the security simulator's
//! [`Hooks`](crate::Hooks) stack.
//!
//! Real in-DRAM trackers are SRAM subject to single-event upsets, and the
//! ALERT/RFM signalling can glitch; the [`FaultHook`] trait lets a plan
//! (see the `moat-faults` crate) corrupt the engine at event-horizon
//! boundaries, drop RFMs, and lose ALERT assertions — while measuring
//! when the engine's promised
//! [`min_acts_to_alert`](moat_dram::MitigationEngine::min_acts_to_alert)
//! horizon goes unsound.
//!
//! The hook is a *compile-time* switch: [`FaultHook::ARMED`] is an
//! associated `const`, and [`Hooks`](crate::Hooks) guards every
//! injection site with it. With the default [`NoFaults`] hook
//! (`ARMED = false`) all fault branches constant-fold away and the hot
//! loops compile to exactly the fault-free code.

use moat_dram::{MitigationEngine, Nanos};

/// A source of injected faults for one security simulation.
///
/// The simulator consults the hook at well-defined points:
///
/// * [`at_boundary`](Self::at_boundary) — once per boundary (each
///   iteration of the event-horizon loop; each ACT slot of the per-step
///   reference), *before* the defense priority match. This is
///   where SEU bit-flips land, via
///   [`MitigationEngine::apply_fault`].
/// * [`drop_rfm`](Self::drop_rfm) — once per RFM about to issue inside
///   an ALERT episode; returning `true` spends the RFM's time without
///   performing its mitigation.
/// * [`lose_alert`](Self::lose_alert) — once per ALERT assertion about
///   to fire; returning `true` silently clears the engine's request
///   latch (via [`moat_dram::EngineFault::LoseAlert`]) instead of
///   asserting, so the episode never starts.
/// * [`on_unsound_horizon`](Self::on_unsound_horizon) — reported when an
///   armed event-horizon run observes `alert_pending` flip strictly
///   inside an engine-guaranteed grant: the fault corrupted state out from under
///   the horizon invariant, and the attacker got `promised - done` free
///   ACTs the fault-free design would have stalled.
///
/// Injection decisions must be deterministic functions of the hook's own
/// state (seeded PRNG, counters) — never of wall-clock time — so a
/// faulted run replays bit-identically from its seed.
pub trait FaultHook {
    /// Whether this hook can inject anything at all. `false` removes
    /// every fault branch from the monomorphized simulation loops.
    const ARMED: bool;

    /// An event-horizon boundary at `now`; the hook may corrupt the
    /// engine through [`MitigationEngine::apply_fault`].
    fn at_boundary(&mut self, _now: Nanos, _engine: &mut dyn MitigationEngine) {}

    /// Whether the RFM about to issue at `now` is dropped (its time
    /// passes, its mitigation is lost).
    fn drop_rfm(&mut self, _now: Nanos) -> bool {
        false
    }

    /// Whether the ALERT assertion about to fire at `now` is lost.
    fn lose_alert(&mut self, _now: Nanos) -> bool {
        false
    }

    /// A promised horizon of `promised` event-free ACTs proved unsound:
    /// `alert_pending` flipped after only `done < promised` of them.
    fn on_unsound_horizon(&mut self, _now: Nanos, _promised: u64, _done: u64) {}
}

/// The disarmed hook: injects nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    const ARMED: bool = false;
}

/// A lent hook: [`Hooks`](crate::Hooks) can hold `&mut injector`, and
/// the caller keeps the injector (and its stats) after the run.
impl<F: FaultHook> FaultHook for &mut F {
    const ARMED: bool = F::ARMED;

    fn at_boundary(&mut self, now: Nanos, engine: &mut dyn MitigationEngine) {
        (**self).at_boundary(now, engine);
    }

    fn drop_rfm(&mut self, now: Nanos) -> bool {
        (**self).drop_rfm(now)
    }

    fn lose_alert(&mut self, now: Nanos) -> bool {
        (**self).lose_alert(now)
    }

    fn on_unsound_horizon(&mut self, now: Nanos, promised: u64, done: u64) {
        (**self).on_unsound_horizon(now, promised, done);
    }
}
