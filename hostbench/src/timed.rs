//! A forwarding wrapper that accumulates host time spent inside the
//! wrapped engine or attacker.
//!
//! Feinting's and Ratchet's ACT streams depend on the engine's state, so
//! swapping in a `NullEngine` would change the work itself; the only way
//! to measure their engine share is to time the real engine in place.
//! [`Timed`] forwards every engine trait method — `as_any` included, so
//! the attackers' downcasts still see the concrete engine — and times
//! each call on the simulation path; wrapped around a semi-scripted
//! attacker it times every `publish` (the attacker's self-model). Reports
//! stay bit-identical to the unwrapped run; the timer calls cost host
//! time, which the benchmark reports as the wrapper's overhead.

use std::any::Any;
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;
use std::time::Instant;

use moat_dram::{
    ActCount, EngineFault, IntegrityReport, MitigationEngine, RefMitigationMode, RowId,
};
use moat_sim::{DefenseView, RunGrant, SemiRun, SemiScriptedAttacker};

/// `inner` with every engine call (or attacker publish) timed.
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl<E> Timed<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        Timed {
            inner,
            ns: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// Host seconds spent inside the wrapped engine or attacker so far.
    pub fn seconds(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }

    /// Timed calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// The wrapper's own cost per call, measured around an empty call:
/// (seconds it attributes to the engine, seconds it adds to the run).
/// Subtracting `calls ×` these from a wrapped run's engine time and wall
/// time removes the timer from both sides of an engine share.
pub fn timer_cost() -> (f64, f64) {
    const CALLS: u32 = 1_000_000;
    let (ns, calls) = (Cell::new(0), Cell::new(0));
    let start = Instant::now();
    for _ in 0..CALLS {
        clock(&ns, &calls, || std::hint::black_box(()));
    }
    let total = start.elapsed().as_secs_f64() / f64::from(CALLS);
    (ns.get() as f64 / 1e9 / f64::from(CALLS), total)
}

/// Runs `f`, adding its host time to `ns` and one call to `calls`.
fn clock<R>(ns: &Cell<u64>, calls: &Cell<u64>, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    ns.set(ns.get() + start.elapsed().as_nanos() as u64);
    calls.set(calls.get() + 1);
    out
}

impl<E: MitigationEngine> MitigationEngine for Timed<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_precharge_update(&mut self, row: RowId, counter: ActCount) {
        clock(&self.ns, &self.calls, || {
            self.inner.on_precharge_update(row, counter)
        });
    }
    fn alert_pending(&self) -> bool {
        clock(&self.ns, &self.calls, || self.inner.alert_pending())
    }
    fn min_acts_to_alert(&self) -> u64 {
        clock(&self.ns, &self.calls, || self.inner.min_acts_to_alert())
    }
    fn select_ref_mitigation(&mut self) -> Option<RowId> {
        clock(&self.ns, &self.calls, || self.inner.select_ref_mitigation())
    }
    fn select_alert_mitigation(&mut self) -> Option<RowId> {
        clock(&self.ns, &self.calls, || {
            self.inner.select_alert_mitigation()
        })
    }
    fn on_mitigation_complete(&mut self, row: RowId) {
        clock(&self.ns, &self.calls, || {
            self.inner.on_mitigation_complete(row)
        });
    }
    fn on_refresh_group(
        &mut self,
        rows: Range<u32>,
        counter_of: &mut dyn FnMut(RowId) -> ActCount,
    ) {
        clock(&self.ns, &self.calls, || {
            self.inner.on_refresh_group(rows, counter_of)
        });
    }
    fn resets_counters_on_refresh(&self) -> bool {
        clock(&self.ns, &self.calls, || {
            self.inner.resets_counters_on_refresh()
        })
    }
    fn resets_counter_on_mitigation(&self) -> bool {
        clock(&self.ns, &self.calls, || {
            self.inner.resets_counter_on_mitigation()
        })
    }
    fn ops_per_mitigation(&self) -> u32 {
        clock(&self.ns, &self.calls, || self.inner.ops_per_mitigation())
    }
    fn ref_mitigation_mode(&self) -> RefMitigationMode {
        clock(&self.ns, &self.calls, || self.inner.ref_mitigation_mode())
    }
    fn sram_bytes_per_bank(&self) -> usize {
        self.inner.sram_bytes_per_bank()
    }
    fn effective_counter(&self, row: RowId, in_array: ActCount) -> ActCount {
        clock(&self.ns, &self.calls, || {
            self.inner.effective_counter(row, in_array)
        })
    }
    fn apply_fault(&mut self, fault: &EngineFault) -> bool {
        self.inner.apply_fault(fault)
    }
    fn guard_arm(&mut self) -> bool {
        self.inner.guard_arm()
    }
    fn integrity_check(&mut self) -> IntegrityReport {
        self.inner.integrity_check()
    }
    fn scrub_resync(&mut self, counter_of: &mut dyn FnMut(RowId) -> ActCount) -> u32 {
        self.inner.scrub_resync(counter_of)
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

impl SemiScriptedAttacker for Timed<Box<dyn SemiScriptedAttacker>> {
    fn publish(
        &mut self,
        view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        clock(&self.ns, &self.calls, || {
            self.inner.publish(view, buf, grant)
        })
    }

    fn name(&self) -> Cow<'_, str> {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_attacks::RatchetAttacker;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_dram::Nanos;
    use moat_sim::{SecurityConfig, SecuritySim};

    #[test]
    fn wrapped_engine_is_bit_identical_and_downcastable() {
        let engine = || MoatEngine::new(MoatConfig::paper_default());
        let dur = Nanos::from_millis(1);

        let mut plain = SecuritySim::new(SecurityConfig::paper_default(), engine());
        let want = plain.run_semi_scripted(&mut RatchetAttacker::new(64, 64), dur);

        let mut timed = SecuritySim::new(SecurityConfig::paper_default(), Timed::new(engine()));
        let got = timed.run_semi_scripted(&mut RatchetAttacker::new(64, 64), dur);
        assert_eq!(got, want);
        let wrapper = timed.unit().engine();
        assert!(wrapper.calls() > 0);
        assert!(wrapper.seconds() > 0.0);
        assert!(
            wrapper.as_any().is::<MoatEngine>(),
            "downcasts see the inner engine"
        );

        let mut sim = SecuritySim::new(SecurityConfig::paper_default(), engine());
        let mut attacker: Timed<Box<dyn SemiScriptedAttacker>> =
            Timed::new(Box::new(RatchetAttacker::new(64, 64)));
        assert_eq!(sim.run_semi_scripted(&mut attacker, dur), want);
        assert!(attacker.calls() > 0 && attacker.seconds() > 0.0);
    }
}
