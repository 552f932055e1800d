//! The refresh-postponement attack on Panopticon's Drain-All-Entries-on-REF
//! variant (Appendix B, Fig. 16).
//!
//! The drain variant empties the queue at every REF, so the exposure of an
//! enqueued row is normally bounded by one tREFI (~67 activations). But
//! DDR5 lets the controller postpone REFs — and the threat model lets the
//! attacker choose that policy. The attack:
//!
//! 1. Hammer row A until its counter sits one activation short of the next
//!    queueing threshold crossing, letting REFs proceed normally.
//! 2. Right after a REF, push A across the crossing — A enters the queue
//!    with the longest possible time to the next REF.
//! 3. Postpone the next two REFs: A now sits in the queue for 3 tREFI,
//!    absorbing up to ~201 further activations before the REF batch drains
//!    it — 128 + 200 ≈ 328 total, 2.6× the queueing threshold.

use std::borrow::Cow;

use moat_dram::RowId;
use moat_sim::{AttackStep, Attacker, DefenseView, RunGrant, SemiRun, SemiScriptedAttacker};
use moat_trackers::PanopticonEngine;

use crate::grant::push_panopticon_capped_single;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Hammer to one-below-crossing, then wait for a REF boundary.
    Align,
    /// A is enqueued: postpone REFs and keep hammering.
    Exploit,
    Done,
}

/// The postponement attacker against the drain-on-REF design.
///
/// # Examples
///
/// ```
/// use moat_attacks::PostponementAttacker;
/// use moat_dram::{DramConfig, Nanos};
/// use moat_sim::{SecurityConfig, SecuritySim};
/// use moat_trackers::{PanopticonConfig, PanopticonEngine};
///
/// let mut cfg = SecurityConfig::paper_default();
/// cfg.dram = DramConfig::builder().max_postponed_refs(2).build();
/// let mut sim = SecuritySim::new(
///     cfg,
///     Box::new(PanopticonEngine::new(PanopticonConfig::drain_variant())),
/// );
/// let mut attacker = PostponementAttacker::new(20_000, 128);
/// let report = sim.run(&mut attacker, Nanos::from_millis(1));
/// // Fig. 16: ≈328 activations (2.6× the queueing threshold of 128).
/// assert!(report.max_pressure >= 300, "got {}", report.max_pressure);
/// ```
#[derive(Debug)]
pub struct PostponementAttacker {
    row: RowId,
    threshold: u32,
    phase: Phase,
}

impl PostponementAttacker {
    /// Attacks `row` against a design with the given queueing `threshold`.
    pub fn new(row: u32, threshold: u32) -> Self {
        PostponementAttacker {
            row: RowId::new(row),
            threshold,
            phase: Phase::Align,
        }
    }

    fn enqueued(&self, view: &DefenseView<'_>) -> bool {
        view.engine()
            .as_any()
            .downcast_ref::<PanopticonEngine>()
            .is_some_and(|p| p.queue().contains(&self.row))
    }
}

impl Attacker for PostponementAttacker {
    fn step(&mut self, view: &DefenseView<'_>) -> AttackStep {
        match self.phase {
            Phase::Align => {
                let counter = view.unit.bank().counter(self.row).get();
                let to_crossing = self.threshold - (counter % self.threshold);
                if to_crossing > 1 {
                    return AttackStep::Act(self.row);
                }
                // One act short of the crossing: wait for the REF boundary
                // (maximize queue residency), then cross.
                let t_refi = view.unit.config().timing.t_refi;
                let since_ref = view.now % t_refi;
                if since_ref < view.unit.config().timing.t_rfc + view.unit.config().timing.t_rc * 2
                {
                    // A REF just happened: cross now.
                    self.phase = Phase::Exploit;
                    return AttackStep::Act(self.row);
                }
                AttackStep::Idle
            }
            Phase::Exploit => {
                if !self.enqueued(view)
                    && !view
                        .unit
                        .bank()
                        .counter(self.row)
                        .get()
                        .is_multiple_of(self.threshold)
                {
                    // Drained: the exposure window ended.
                    self.phase = Phase::Done;
                    return AttackStep::Stop;
                }
                // Postpone while the budget allows, hammer otherwise.
                let owed = view.unit.refresh().owed();
                if owed < view.unit.config().max_postponed_refs {
                    return AttackStep::PostponeRef;
                }
                AttackStep::Act(self.row)
            }
            Phase::Done => AttackStep::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!("postponement(t={})", self.threshold))
    }
}

/// The semi-scripted form: the align phase publishes the whole
/// hammer-to-one-below-crossing run and batches the wait for the REF
/// boundary as one idle stretch; the exploit phase publishes
/// postponements one slot at a time (each changes the REF schedule the
/// next decision reads) and hammers in whole grants while the attack row
/// sits in the queue — queue drains only happen at REF/RFM events, so
/// the drained check is constant across a grant. Hammer runs are
/// engine-aware via `push_panopticon_capped_single`: they model the
/// attack row's crossings of the *engine's* queueing threshold (which
/// may differ from the attacker's parameter) in closed form and end
/// exactly at any ACT that could overflow the queue.
impl SemiScriptedAttacker for PostponementAttacker {
    fn publish(
        &mut self,
        view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        match self.phase {
            Phase::Align => {
                let counter = view.unit.bank().counter(self.row).get();
                let to_crossing = self.threshold - (counter % self.threshold);
                if to_crossing > 1 {
                    let want = ((to_crossing - 1) as usize).min(grant.max);
                    let n =
                        push_panopticon_capped_single(view, buf, want, grant.alert_safe, self.row);
                    return SemiRun::Acts(n);
                }
                // One act short of the crossing: wait for the REF boundary
                // (maximize queue residency), then cross.
                let timing = view.unit.config().timing;
                let since_ref = view.now % timing.t_refi;
                if since_ref < timing.t_rfc + timing.t_rc * 2 {
                    self.phase = Phase::Exploit;
                    buf.push(self.row);
                    return SemiRun::Acts(1);
                }
                let slots = (timing.t_refi - since_ref)
                    .as_u64()
                    .div_ceil(timing.t_rc.as_u64())
                    .max(1);
                SemiRun::Idle(slots)
            }
            Phase::Exploit => {
                let enqueued = self.enqueued(view);
                if !enqueued
                    && !view
                        .unit
                        .bank()
                        .counter(self.row)
                        .get()
                        .is_multiple_of(self.threshold)
                {
                    // Drained: the exposure window ended.
                    self.phase = Phase::Done;
                    return SemiRun::Stop;
                }
                // Postpone while the budget allows, hammer otherwise.
                let owed = view.unit.refresh().owed();
                if owed < view.unit.config().max_postponed_refs {
                    return SemiRun::PostponeRef;
                }
                // Enqueued: own crossings can only add younger copies, so
                // the drained check stays false for the whole grant. Not
                // enqueued (counter exactly at a multiple): one act
                // decides the next publish.
                let want = if enqueued { grant.max } else { 1 };
                let n = push_panopticon_capped_single(view, buf, want, grant.alert_safe, self.row);
                SemiRun::Acts(n)
            }
            Phase::Done => SemiRun::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Attacker::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_dram::{DramConfig, Nanos};
    use moat_sim::{SecurityConfig, SecuritySim};
    use moat_trackers::PanopticonConfig;

    fn run(postpone_budget: u32) -> u32 {
        let mut cfg = SecurityConfig::paper_default();
        cfg.dram = DramConfig::builder()
            .max_postponed_refs(postpone_budget)
            .build();
        let mut sim = SecuritySim::new(
            cfg,
            Box::new(PanopticonEngine::new(PanopticonConfig::drain_variant())),
        );
        let mut attacker = PostponementAttacker::new(20_000, 128);
        sim.run(&mut attacker, Nanos::from_millis(1)).max_pressure
    }

    #[test]
    fn postponement_inflates_exposure_to_328() {
        // Fig. 16: 128 + ~200 activations before the REF batch drains A.
        let pressure = run(2);
        assert!(
            (300..=355).contains(&pressure),
            "expected ≈328, got {pressure}"
        );
    }

    #[test]
    fn without_postponement_drain_variant_holds_near_threshold() {
        let pressure = run(0);
        assert!(
            pressure <= 128 + 70,
            "no-postponement exposure {pressure} should stay ≤ threshold + 1 tREFI"
        );
    }

    #[test]
    fn more_postponement_is_worse() {
        assert!(run(2) > run(0));
    }
}
