//! The Feinting attack (§2.5, Table 2) against purely transparent
//! per-row-counter schemes (no ALERT path).
//!
//! The defender mitigates the highest-count row once per mitigation period.
//! The attacker maintains a pool of rows with *equal* counts, so each
//! mitigation wastes only one pool member's investment; the survivors keep
//! climbing. With `P` mitigation periods in the attack window and `A`
//! activations per period, the last survivor reaches approximately
//! `A · H(P)` activations (harmonic number `H`) — the feinting bound of
//! Table 2, which is why transparent schemes cannot tolerate low
//! thresholds and MOAT needs the reactive ALERT path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use std::borrow::Cow;

use moat_dram::RowId;
use moat_sim::{AttackStep, Attacker, DefenseView, RunGrant, SemiRun, SemiScriptedAttacker};

/// The feinting attacker: min-count round-robin over a shrinking pool.
///
/// Pool rows whose PRAC counter resets (mitigated or swept) are abandoned,
/// concentrating future activations on the survivors.
///
/// # Examples
///
/// ```
/// use moat_attacks::FeintingAttacker;
/// use moat_dram::Nanos;
/// use moat_sim::{SecurityConfig, SecuritySim, SlotBudget};
/// use moat_trackers::IdealSramTracker;
///
/// let mut cfg = SecurityConfig::paper_default();
/// cfg.alerts_enabled = false; // transparent scheme: REF-time only
/// let mut sim = SecuritySim::new(cfg, Box::new(IdealSramTracker::new(65536)));
/// let mut feint = FeintingAttacker::new(64, 20_000);
/// let report = sim.run(&mut feint, Nanos::from_millis(2));
/// // Even a perfect tracker leaks far past the mitigation rate's pace.
/// assert!(report.max_pressure > 200);
/// ```
#[derive(Debug)]
pub struct FeintingAttacker {
    /// (count, row) min-heap over the live pool.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    initial_pool: usize,
    /// First pool row (pool rows are `base_row + 6·slot`).
    base_row: u32,
    /// Per-grant touched marks for the semi-scripted form, slot-indexed:
    /// `touched[slot] == generation` ⇔ the slot's row was already
    /// published in the current grant, so its heap count *is* the
    /// modeled counter (mitigations cannot land mid-grant).
    touched: Vec<u64>,
    generation: u64,
}

impl FeintingAttacker {
    /// Creates a feinting pool of `pool_size` rows starting at `base_row`,
    /// spaced six rows apart (disjoint blast radii).
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero.
    pub fn new(pool_size: usize, base_row: u32) -> Self {
        assert!(pool_size > 0, "pool must be non-empty");
        FeintingAttacker {
            heap: (0..pool_size as u32)
                .map(|i| Reverse((0, base_row + 6 * i)))
                .collect(),
            initial_pool: pool_size,
            base_row,
            touched: vec![0; pool_size],
            generation: 0,
        }
    }

    /// Live pool size.
    pub fn live_rows(&self) -> usize {
        self.heap.len()
    }
}

impl Attacker for FeintingAttacker {
    fn step(&mut self, view: &DefenseView<'_>) -> AttackStep {
        while let Some(&Reverse((count, row))) = self.heap.peek() {
            let actual = view.unit.bank().counter(RowId::new(row)).get();
            if actual < count {
                // Mitigated (or swept): abandon — the feint succeeded.
                self.heap.pop();
                if self.heap.is_empty() {
                    return AttackStep::Stop;
                }
                continue;
            }
            self.heap.pop();
            self.heap.push(Reverse((actual + 1, row)));
            return AttackStep::Act(RowId::new(row));
        }
        AttackStep::Stop
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!("feinting(pool={})", self.initial_pool))
    }
}

/// The semi-scripted form: the min-count round-robin vectorizes into one
/// published run per grant. PRAC counters only reset at REF/RFM events —
/// grant boundaries — so the abandon-on-reset check fires at exactly the
/// same points as in the per-step reference, and a row already published
/// this grant needs no re-read: its heap count *is* the modeled counter
/// (tracked by O(1) generation marks per pool slot). Engine-agnostic by
/// design, the publish stays within the engine-guaranteed tier of the
/// grant.
impl SemiScriptedAttacker for FeintingAttacker {
    fn publish(
        &mut self,
        view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        let max = grant.alert_safe;
        self.generation += 1;
        let bank = view.unit.bank();
        while buf.len() < max {
            let Some(&Reverse((count, row))) = self.heap.peek() else {
                break;
            };
            let slot = ((row - self.base_row) / 6) as usize;
            let actual = if self.touched[slot] == self.generation {
                count
            } else {
                bank.counter(RowId::new(row)).get()
            };
            if actual < count {
                // Mitigated (or swept): abandon — the feint succeeded.
                self.heap.pop();
                continue;
            }
            self.heap.pop();
            self.heap.push(Reverse((actual + 1, row)));
            self.touched[slot] = self.generation;
            buf.push(RowId::new(row));
        }
        if buf.is_empty() {
            SemiRun::Stop
        } else {
            SemiRun::Acts(buf.len())
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Attacker::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_dram::Nanos;
    use moat_sim::{SecurityConfig, SecuritySim, SlotBudget};
    use moat_trackers::IdealSramTracker;

    /// Runs feinting against the ideal tracker with a mitigation rate of
    /// one aggressor per `k` tREFI for `periods` mitigation periods.
    fn feint(k: u32, pool: usize, millis: u64) -> u32 {
        let mut cfg = SecurityConfig::paper_default();
        cfg.alerts_enabled = false;
        cfg.budget = SlotBudget::per_aggressor(5, k);
        let mut sim = SecuritySim::new(cfg, Box::new(IdealSramTracker::new(65536)));
        // Base row 40_000: the refresh sweep needs ~24 ms to reach it.
        let mut attacker = FeintingAttacker::new(pool, 40_000);
        let report = sim.run(&mut attacker, Nanos::from_millis(millis));
        report.max_pressure
    }

    #[test]
    fn feinting_tracks_harmonic_bound() {
        // Over ~512 mitigation periods at 1 aggressor per 4 tREFI
        // (8 ms), the bound is A·H(P) = 268·H(512) ≈ 1822. The empirical
        // attack should land within ~25% of it (the strategy is
        // near-optimal, not exact).
        let p = 512usize;
        let a = 268.0;
        let h: f64 = (1..=p).map(|i| 1.0 / i as f64).sum();
        let bound = a * h;
        let measured = f64::from(feint(4, p, 8));
        assert!(
            measured > bound * 0.6,
            "measured {measured} far below bound {bound}"
        );
        assert!(
            measured < bound * 1.1,
            "measured {measured} exceeds bound {bound}"
        );
    }

    #[test]
    fn faster_mitigation_lowers_the_bound() {
        let slow = feint(4, 256, 6);
        let fast = feint(1, 256, 6);
        assert!(
            fast < slow,
            "1-per-tREFI ({fast}) should beat 1-per-4-tREFI ({slow})"
        );
    }

    #[test]
    fn pool_shrinks_as_rows_are_sacrificed() {
        let mut cfg = SecurityConfig::paper_default();
        cfg.alerts_enabled = false;
        let mut sim = SecuritySim::new(cfg, Box::new(IdealSramTracker::new(65536)));
        let mut attacker = FeintingAttacker::new(64, 40_000);
        sim.run(&mut attacker, Nanos::from_millis(2));
        assert!(attacker.live_rows() < 64, "live: {}", attacker.live_rows());
    }

    #[test]
    #[should_panic(expected = "pool must be non-empty")]
    fn zero_pool_rejected() {
        let _ = FeintingAttacker::new(0, 100);
    }
}
