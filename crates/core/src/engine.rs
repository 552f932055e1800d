//! The MOAT mitigation engine (§4, Appendix D).
//!
//! MOAT eschews Panopticon's multi-entry queue in favour of tracking a
//! single entry per bank (the CTA — *Current Tracked Addr*), plus a CMA
//! (*Currently Mitigated Addr*) register naming the row whose victims are
//! being refreshed. Crucially, and unlike Panopticon, **the CTA stores the
//! counter value alongside the row address**, which is what defeats
//! Jailbreak-style attacks: a row that keeps getting hammered while tracked
//! keeps raising its tracked count and crosses ATH, forcing an ALERT.
//!
//! The generalized MOAT-L design (Appendix D) tracks `L` entries for ABO
//! level `L`, always keeping the `L` highest-count rows seen since the last
//! mitigation and mitigating the highest-count one first.

use core::any::Any;
use core::ops::Range;

use moat_dram::{ActCount, EngineFault, IntegrityReport, MitigationEngine, RowId};

use crate::config::{MoatConfig, ResetPolicy};

/// One tracker entry: a row address plus its (shadow-aware) counter value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedEntry {
    /// The tracked aggressor row.
    pub row: RowId,
    /// The counter value MOAT attributes to the row.
    pub count: u32,
}

/// A trailing-row SRAM shadow counter for safe reset-on-refresh (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShadowCounter {
    row: RowId,
    count: u32,
}

/// Tracker slots of the largest MOAT, MOAT-L4 (Appendix D).
const MAX_TRACKED: usize = 4;

/// Trailing-row shadow counters: one per row of the blast radius (§4.3).
const SHADOW_SLOTS: usize = 2;

/// The row an unused tracker or shadow slot holds. Row indices are below
/// a bank's `u32` row count, so no bank has this row.
const NO_ROW: RowId = RowId::new(u32::MAX);

const EMPTY_ENTRY: TrackedEntry = TrackedEntry {
    row: NO_ROW,
    count: 0,
};

const EMPTY_SHADOW: ShadowCounter = ShadowCounter {
    row: NO_ROW,
    count: 0,
};

/// Parity byte over a tracked count: the XOR fold of its four bytes.
/// Any single-bit upset in the count flips exactly one bit of the fold,
/// so the SEU fault model (`EngineFault::FlipCounterBit`) is detected
/// with certainty; multi-bit corruption (`StuckEntry`) is detected
/// whenever the zeroed count had a non-zero fold.
#[inline]
fn parity_of(count: u32) -> u8 {
    let b = count.to_le_bytes();
    b[0] ^ b[1] ^ b[2] ^ b[3]
}

/// Parity shadow over one tracker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotShadow {
    row: RowId,
    parity: u8,
}

/// The armed integrity guard: a parity shadow of the tracker plus an
/// exact copy of the ALERT latch. Legitimate mutations re-derive the
/// shadow ([`MoatEngine::reguard`]); `apply_fault` deliberately does
/// not, which is what makes injected corruption visible to
/// [`MitigationEngine::integrity_check`].
#[derive(Debug, Clone, Default)]
struct MoatGuard {
    slots: Vec<SlotShadow>,
    alert: bool,
}

/// Running statistics the engine keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoatStats {
    /// Number of times an ALERT was requested.
    pub alerts_requested: u64,
    /// Rows handed out for proactive (REF-time) mitigation.
    pub proactive_selected: u64,
    /// Rows handed out for reactive (RFM) mitigation.
    pub reactive_selected: u64,
    /// Tracker insertions (new row displacing or filling an entry).
    pub insertions: u64,
}

/// The MOAT engine for one bank.
///
/// # Examples
///
/// ```
/// use moat_core::{MoatConfig, MoatEngine};
/// use moat_dram::{ActCount, MitigationEngine, RowId};
///
/// let mut moat = MoatEngine::new(MoatConfig::paper_default());
/// // A row crossing ETH (32) becomes tracked:
/// moat.on_precharge_update(RowId::new(7), ActCount::new(33));
/// assert_eq!(moat.cta().unwrap().row, RowId::new(7));
/// // A row crossing ATH (64) requests an ALERT:
/// moat.on_precharge_update(RowId::new(9), ActCount::new(65));
/// assert!(moat.alert_pending());
/// ```
#[derive(Debug, Clone)]
pub struct MoatEngine {
    config: MoatConfig,
    /// Cached display name (formatted once — `name()` is allocation-free).
    name: String,
    /// The tracked entries (1 for MOAT-L1; `L` for MOAT-L, Appendix D):
    /// the first `tracked` slots; the rest hold [`EMPTY_ENTRY`].
    tracker: [TrackedEntry; MAX_TRACKED],
    /// Number of live tracker entries.
    tracked: usize,
    /// Index of the highest-count entry (ties resolved to the highest
    /// index, matching `Iterator::max_by_key` over the tracker vector).
    /// Only meaningful while the tracker is non-empty.
    max_idx: usize,
    /// The row currently being mitigated (CMA register).
    cma: Option<RowId>,
    /// Trailing-row shadows for safe reset (§4.3); an unused slot holds
    /// [`EMPTY_SHADOW`].
    shadows: [ShadowCounter; SHADOW_SLOTS],
    alert_pending: bool,
    /// The single untracked row with the highest known standing count —
    /// attributed so a mitigation of exactly that row can retire the
    /// hazard (see [`min_acts_to_alert`](MitigationEngine::min_acts_to_alert)).
    hazard_row: Option<RowId>,
    /// Upper bound on `hazard_row`'s current effective count.
    hazard_count: u32,
    /// Upper bound on the effective count of every *other* untracked row
    /// (starts at ETH − 1: below ETH a row is never tracked, and raised
    /// whenever an attributed hazard is demoted or a count leaves the
    /// tracker unattributed). Never decays — conservative.
    hazard_base: u32,
    /// Armed integrity guard (`None` when disarmed — the default).
    guard: Option<MoatGuard>,
    stats: MoatStats,
}

impl MoatEngine {
    /// Creates a MOAT engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MoatConfig::validate`]).
    pub fn new(config: MoatConfig) -> Self {
        config.validate();
        MoatEngine {
            config,
            name: format!("moat-{}-ath{}-eth{}", config.level, config.ath, config.eth),
            tracker: [EMPTY_ENTRY; MAX_TRACKED],
            tracked: 0,
            max_idx: 0,
            cma: None,
            shadows: [EMPTY_SHADOW; SHADOW_SLOTS],
            alert_pending: false,
            hazard_row: None,
            hazard_count: 0,
            hazard_base: config.eth.saturating_sub(1),
            guard: None,
            stats: MoatStats::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &MoatConfig {
        &self.config
    }

    /// The CTA register: the highest-count tracked entry (MOAT-L1's single
    /// entry), or `None` when the tracker is empty. `O(1)` — the maximum
    /// is maintained incrementally by the precharge hook.
    pub fn cta(&self) -> Option<TrackedEntry> {
        self.tracker().get(self.max_idx).copied()
    }

    /// All tracked entries (1 for L1, up to `L` for MOAT-L).
    pub fn tracker(&self) -> &[TrackedEntry] {
        &self.tracker[..self.tracked]
    }

    /// The CMA register: the row currently undergoing mitigation.
    pub fn cma(&self) -> Option<RowId> {
        self.cma
    }

    /// The SRAM shadow count held for `row`, if it is currently shadowed
    /// (§4.3 safe reset). Exposed for adaptive attackers per the threat
    /// model (§2.1): while a shadow is active, the *effective* count the
    /// next activation reports is the shadow's, not the in-array
    /// counter's — which is what an engine-aware semi-scripted attacker
    /// must model to know exactly when its run trips the ALERT flag
    /// (`effective > ATH`).
    pub fn shadow_count(&self, row: RowId) -> Option<u32> {
        self.shadow(row).map(|s| s.count)
    }

    /// The shadow counter held for `row`, if `row` is shadowed.
    #[inline]
    fn shadow(&self, row: RowId) -> Option<&ShadowCounter> {
        self.shadows.iter().find(|s| s.row == row && row != NO_ROW)
    }

    /// Mutable [`shadow`](Self::shadow).
    #[inline]
    fn shadow_mut(&mut self, row: RowId) -> Option<&mut ShadowCounter> {
        self.shadows
            .iter_mut()
            .find(|s| s.row == row && row != NO_ROW)
    }

    /// Engine statistics.
    pub fn stats(&self) -> MoatStats {
        self.stats
    }

    /// The shadow-aware counter value for `row` given the in-array value,
    /// updating the shadow if `row` is shadowed. Called on every precharge.
    #[inline]
    fn bump_effective(&mut self, row: RowId, in_array: ActCount) -> u32 {
        if let Some(s) = self.shadow_mut(row) {
            s.count = s.count.saturating_add(1);
            s.count
        } else {
            in_array.get()
        }
    }

    /// Rebuilds the incrementally maintained maximum index and alert flag
    /// by rescanning the tracker. Only called on the rare mitigation
    /// events (entry removal, mitigation completion) — the per-ACT hot
    /// path maintains both without a rescan.
    fn resync(&mut self) {
        let was = self.alert_pending;
        let mut max_idx = 0;
        let mut max_count = 0;
        let mut any_above = false;
        for (i, e) in self.tracker().iter().enumerate() {
            // `>=` resolves ties to the highest index, matching the
            // behaviour of `max_by_key` over the same vector.
            if e.count >= max_count {
                max_count = e.count;
                max_idx = i;
            }
            any_above |= e.count > self.config.ath;
        }
        self.max_idx = max_idx;
        self.alert_pending = any_above;
        if any_above && !was {
            self.stats.alerts_requested += 1;
        }
    }

    /// Records that the entry at `idx` now holds `count`, folding the
    /// max-index and ALERT-flag maintenance into the caller's single pass.
    #[inline]
    fn note_count(&mut self, idx: usize, count: u32) {
        let cur = self.tracker[self.max_idx].count;
        if count > cur || (count == cur && idx >= self.max_idx) {
            self.max_idx = idx;
        }
        if count > self.config.ath && !self.alert_pending {
            self.alert_pending = true;
            self.stats.alerts_requested += 1;
        }
    }

    /// Removes and returns the highest-count tracked entry: the last
    /// live entry moves into its slot (a `swap_remove`), and the slot it
    /// leaves is cleared.
    fn take_max(&mut self) -> Option<TrackedEntry> {
        let last = self.tracked.checked_sub(1)?;
        let entry = self.tracker[self.max_idx];
        self.tracker[self.max_idx] = self.tracker[last];
        self.tracker[last] = EMPTY_ENTRY;
        self.tracked = last;
        // The removed count now stands on an untracked row (the CMA row
        // keeps absorbing ACTs until its mitigation completes — the very
        // window Jailbreak exploits), so the horizon must account for it.
        self.note_untracked(entry.row, entry.count);
        self.resync();
        Some(entry)
    }

    /// Records that `row` currently stands untracked at up to `count`
    /// activations, keeping the event-horizon watermark sound: the
    /// highest such count stays attributed to its row (so completing that
    /// row's mitigation can retire it), everything else folds into the
    /// unattributed base.
    #[inline]
    fn note_untracked(&mut self, row: RowId, count: u32) {
        if count <= self.hazard_base {
            return;
        }
        match self.hazard_row {
            Some(r) if r == row => self.hazard_count = self.hazard_count.max(count),
            _ => {
                if count > self.hazard_count {
                    self.hazard_base = self.hazard_base.max(self.hazard_count);
                    self.hazard_row = Some(row);
                    self.hazard_count = count;
                } else {
                    self.hazard_base = self.hazard_base.max(count);
                }
            }
        }
    }

    /// Re-derives the parity shadow from the current tracker and ALERT
    /// latch. Called at the end of every *legitimate* mutating trait hook
    /// — and pointedly **not** from [`MitigationEngine::apply_fault`], so
    /// injected corruption leaves the shadow stale and detectable. A no-op
    /// while the guard is disarmed.
    #[inline]
    fn reguard(&mut self) {
        if let Some(g) = self.guard.as_mut() {
            g.slots.clear();
            g.slots
                .extend(self.tracker[..self.tracked].iter().map(|e| SlotShadow {
                    row: e.row,
                    parity: parity_of(e.count),
                }));
            g.alert = self.alert_pending;
        }
    }

    /// Retires the attributed hazard when `row` stops being a standing
    /// threat — it was (re-)inserted into the tracker (the CTA maximum
    /// covers it again) or its counter was just reset by a completed
    /// mitigation.
    #[inline]
    fn clear_hazard_if(&mut self, row: RowId) {
        if self.hazard_row == Some(row) {
            self.hazard_row = None;
            self.hazard_count = 0;
        }
    }

    /// Applies a precharge of a tracked row, or of an untracked one at or
    /// above ETH: one fused scan over the (≤ L ≤ 4 entry) tracker finds
    /// the row's entry *and* the minimum entry, applies the
    /// update/insert/replace, and maintains the CTA maximum and ALERT flag
    /// incrementally — where the original implementation rescanned the
    /// tracker separately for each of those.
    #[cold]
    fn update_tracker(&mut self, row: RowId, effective: u32) {
        // Single pass: the row's entry if tracked, else the first minimum.
        let mut found = None;
        let mut min_idx = 0;
        let mut min_count = u32::MAX;
        for (i, e) in self.tracker().iter().enumerate() {
            if e.row == row {
                found = Some(i);
                break;
            }
            if e.count < min_count {
                min_count = e.count;
                min_idx = i;
            }
        }

        if let Some(i) = found {
            let e = &mut self.tracker[i];
            e.count = e.count.max(effective);
            let count = e.count;
            self.note_count(i, count);
        } else if effective >= self.config.eth {
            if self.tracked < self.config.tracker_entries() {
                self.tracker[self.tracked] = TrackedEntry {
                    row,
                    count: effective,
                };
                self.tracked += 1;
                self.stats.insertions += 1;
                self.note_count(self.tracked - 1, effective);
                self.clear_hazard_if(row);
            } else if effective > min_count {
                // Appendix D: replace the minimum-count entry if the
                // accessed row has a higher count.
                let displaced = self.tracker[min_idx];
                self.note_untracked(displaced.row, displaced.count);
                self.tracker[min_idx] = TrackedEntry {
                    row,
                    count: effective,
                };
                self.stats.insertions += 1;
                self.note_count(min_idx, effective);
                self.clear_hazard_if(row);
            } else {
                // Above ETH but not admitted: the row stands untracked at
                // `effective` and the horizon must remember it.
                self.note_untracked(row, effective);
            }
        }
    }
}

impl MitigationEngine for MoatEngine {
    fn name(&self) -> &str {
        &self.name
    }

    /// The per-ACT hot path. A row that is neither tracked nor at ETH
    /// changes nothing but its shadow, so that precharge costs the two
    /// shadow compares, one compare per tracker slot and the ETH compare;
    /// every other one runs the fused tracker scan (`update_tracker`).
    #[inline]
    fn on_precharge_update(&mut self, row: RowId, counter: ActCount) {
        let effective = self.bump_effective(row, counter);
        if effective >= self.config.eth || self.tracker.iter().any(|e| e.row == row) {
            self.update_tracker(row, effective);
        }
        self.reguard();
    }

    fn alert_pending(&self) -> bool {
        self.alert_pending
    }

    /// MOAT's event horizon: every tracked count is bounded by the CTA
    /// maximum, every untracked standing count by the hazard watermark,
    /// and a count can only grow by one per ACT — so no row can exceed
    /// ATH before `ATH + 1 − max(CTA, watermark)` further activations.
    fn min_acts_to_alert(&self) -> u64 {
        if self.alert_pending {
            return 0;
        }
        let tracked = self.tracker().get(self.max_idx).map_or(0, |e| e.count);
        let standing = tracked.max(self.hazard_count).max(self.hazard_base);
        u64::from((self.config.ath + 1).saturating_sub(standing)).max(1)
    }

    fn select_ref_mitigation(&mut self) -> Option<RowId> {
        // Mitigation-period boundary: latch CTA into CMA, invalidate CTA.
        let entry = self.take_max()?;
        self.cma = Some(entry.row);
        self.stats.proactive_selected += 1;
        self.reguard();
        Some(entry.row)
    }

    fn select_alert_mitigation(&mut self) -> Option<RowId> {
        let entry = self.take_max()?;
        self.cma = Some(entry.row);
        self.stats.reactive_selected += 1;
        self.reguard();
        Some(entry.row)
    }

    fn on_mitigation_complete(&mut self, row: RowId) {
        if self.cma == Some(row) {
            self.cma = None;
        }
        // The aggressor's counter was reset; reset its shadow too.
        if let Some(s) = self.shadow_mut(row) {
            s.count = 0;
        }
        // Counter and shadow are back to zero (MOAT spends a slot on the
        // reset), so an attributed hazard on this row is retired — this is
        // what restores a wide horizon after each ALERT episode.
        self.clear_hazard_if(row);
        self.resync();
        self.reguard();
    }

    fn on_refresh_group(
        &mut self,
        rows: Range<u32>,
        counter_of: &mut dyn FnMut(RowId) -> ActCount,
    ) {
        match self.config.reset_policy {
            ResetPolicy::None | ResetPolicy::Unsafe => {}
            ResetPolicy::Safe => {
                // §4.3: replace the shadow set with the trailing rows of the
                // freshly refreshed group (their victims in the *next* group
                // are not yet refreshed). Pre-reset counts are preserved,
                // shadow-aware in case a trailing row was already shadowed.
                let mut next = [EMPTY_SHADOW; SHADOW_SLOTS];
                for (slot, row) in next.iter_mut().zip(rows.rev()) {
                    let row = RowId::new(row);
                    let in_array = counter_of(row);
                    let count = self.shadow(row).map_or(in_array.get(), |s| s.count);
                    *slot = ShadowCounter { row, count };
                }
                self.shadows = next;
            }
        }
    }

    fn resets_counters_on_refresh(&self) -> bool {
        !matches!(self.config.reset_policy, ResetPolicy::None)
    }

    fn resets_counter_on_mitigation(&self) -> bool {
        true // MOAT spends the 5th REF slot resetting the aggressor counter.
    }

    fn sram_bytes_per_bank(&self) -> usize {
        // §6.5 / Appendix D: L tracker entries of 3 bytes (address +
        // counter), CMA of 2 bytes, and two shadow counters of 1 byte each.
        self.config.tracker_entries() * 3 + 2 + SHADOW_SLOTS
    }

    fn effective_counter(&self, row: RowId, in_array: ActCount) -> ActCount {
        self.shadow(row)
            .map_or(in_array, |s| ActCount::new(s.count))
    }

    /// SEUs land in the tracked-entry SRAM (the `L ≤ 4` counters the CTA
    /// maximum is computed over). After mutating a count the cached
    /// maximum and the ALERT flag are rebuilt via `resync`, so the engine
    /// stays internally consistent — but a previously promised horizon
    /// may now be unsound, which is exactly what the fault sweep
    /// measures. `LoseAlert` clears the request latch; the flag re-arms
    /// the next time a counter update crosses ATH.
    fn apply_fault(&mut self, fault: &EngineFault) -> bool {
        match *fault {
            EngineFault::FlipCounterBit { slot, bit } => {
                if self.tracked == 0 {
                    return false;
                }
                let slot = slot % self.tracked;
                self.tracker[slot].count ^= 1 << (bit % u32::BITS);
                self.resync();
                true
            }
            EngineFault::LoseAlert => {
                let was = self.alert_pending;
                self.alert_pending = false;
                was
            }
            EngineFault::StuckEntry { slot } => {
                if self.tracked == 0 {
                    return false;
                }
                let slot = slot % self.tracked;
                let changed = self.tracker[slot].count != 0;
                self.tracker[slot].count = 0;
                self.resync();
                changed
            }
        }
    }

    fn guard_arm(&mut self) -> bool {
        if self.guard.is_none() {
            self.guard = Some(MoatGuard::default());
        }
        self.reguard();
        true
    }

    /// Compares each tracker slot against its parity shadow and the ALERT
    /// latch against its shadow bit. Counter corruption is **detect-only**
    /// — a parity byte cannot reconstruct the pre-fault count, so the
    /// mismatched row is reported untrusted for the caller's conservative
    /// fallback (a forced mitigation resets the row to a trusted zero). A
    /// lost ALERT is fully shadowed and restored exactly.
    fn integrity_check(&mut self) -> IntegrityReport {
        let Some(guard) = self.guard.as_ref() else {
            return IntegrityReport::unguarded();
        };
        let mut report = IntegrityReport::clean();
        for (e, s) in self.tracker().iter().zip(guard.slots.iter()) {
            if e.row != s.row || parity_of(e.count) != s.parity {
                report.detected += 1;
                report.untrusted.push(e.row);
            }
        }
        let shadow_alert = guard.alert;
        if self.alert_pending != shadow_alert {
            report.detected += 1;
            report.repaired += 1;
            // The latch is a single shadowed bit: restore it exactly. The
            // request was already counted when the latch first set, so the
            // stats are left alone.
            self.alert_pending = shadow_alert;
        }
        report
    }

    /// Resyncs every tracked count against the authoritative effective
    /// counter (in-array value, §4.3-shadow-aware), rebuilds the CTA
    /// maximum and ALERT latch from the corrected counts, and re-arms the
    /// parity shadow. Setting a tracked count to the true standing count
    /// is sound by definition — the horizon promise is a statement about
    /// true counts reaching ATH.
    fn scrub_resync(&mut self, counter_of: &mut dyn FnMut(RowId) -> ActCount) -> u32 {
        if self.guard.is_none() {
            return 0;
        }
        let mut corrected = 0;
        for i in 0..self.tracked {
            let row = self.tracker[i].row;
            let truth = self.effective_counter(row, counter_of(row)).get();
            if self.tracker[i].count != truth {
                self.tracker[i].count = truth;
                corrected += 1;
            }
        }
        self.resync();
        self.reguard();
        corrected
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_dram::AboLevel;

    fn engine() -> MoatEngine {
        MoatEngine::new(MoatConfig::paper_default())
    }

    #[test]
    fn rows_below_eth_are_not_tracked() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(1), ActCount::new(31));
        assert!(m.cta().is_none());
        m.on_precharge_update(RowId::new(1), ActCount::new(32));
        assert_eq!(
            m.cta(),
            Some(TrackedEntry {
                row: RowId::new(1),
                count: 32
            })
        );
    }

    #[test]
    fn cta_tracks_highest_count() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(1), ActCount::new(40));
        m.on_precharge_update(RowId::new(2), ActCount::new(50));
        assert_eq!(m.cta().unwrap().row, RowId::new(2));
        // A lower-count row does not displace the CTA.
        m.on_precharge_update(RowId::new(3), ActCount::new(45));
        assert_eq!(m.cta().unwrap().row, RowId::new(2));
        // The tracked row's own activations raise its tracked count.
        m.on_precharge_update(RowId::new(2), ActCount::new(51));
        assert_eq!(m.cta().unwrap().count, 51);
    }

    #[test]
    fn alert_on_crossing_ath() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(5), ActCount::new(64));
        assert!(!m.alert_pending(), "count == ATH does not alert");
        m.on_precharge_update(RowId::new(5), ActCount::new(65));
        assert!(m.alert_pending(), "count > ATH alerts");
        assert_eq!(m.stats().alerts_requested, 1);
    }

    #[test]
    fn alert_mitigation_clears_pending() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(5), ActCount::new(70));
        assert!(m.alert_pending());
        let row = m.select_alert_mitigation().unwrap();
        assert_eq!(row, RowId::new(5));
        assert_eq!(m.cma(), Some(row));
        m.on_mitigation_complete(row);
        assert!(!m.alert_pending());
        assert_eq!(m.cma(), None);
        assert!(m.cta().is_none());
    }

    #[test]
    fn ref_mitigation_latches_cta_to_cma() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(9), ActCount::new(40));
        let row = m.select_ref_mitigation().unwrap();
        assert_eq!(row, RowId::new(9));
        assert_eq!(m.cma(), Some(RowId::new(9)));
        assert!(m.cta().is_none(), "CTA invalidated after latch");
        m.on_mitigation_complete(row);
        assert_eq!(m.cma(), None);
    }

    #[test]
    fn moat_l4_tracks_four_highest() {
        let mut m = MoatEngine::new(MoatConfig::with_ath(64).level(AboLevel::L4));
        for (r, c) in [(1u32, 40u32), (2, 45), (3, 50), (4, 55)] {
            m.on_precharge_update(RowId::new(r), ActCount::new(c));
        }
        assert_eq!(m.tracker().len(), 4);
        // Higher-count row replaces the minimum (row 1, count 40).
        m.on_precharge_update(RowId::new(5), ActCount::new(42));
        assert!(m.tracker().iter().all(|e| e.row != RowId::new(1)));
        assert!(m.tracker().iter().any(|e| e.row == RowId::new(5)));
        // Lower-count row does not.
        m.on_precharge_update(RowId::new(6), ActCount::new(33));
        assert!(m.tracker().iter().all(|e| e.row != RowId::new(6)));
        // Mitigation selects the maximum.
        assert_eq!(m.select_ref_mitigation(), Some(RowId::new(4)));
        assert_eq!(m.tracker().len(), 3);
    }

    #[test]
    fn sram_budget_matches_paper() {
        // §6.5 / Appendix D: 7 bytes (L1), 10 bytes (L2), 16 bytes (L4).
        let l1 = MoatEngine::new(MoatConfig::with_ath(64));
        let l2 = MoatEngine::new(MoatConfig::with_ath(64).level(AboLevel::L2));
        let l4 = MoatEngine::new(MoatConfig::with_ath(64).level(AboLevel::L4));
        assert_eq!(l1.sram_bytes_per_bank(), 7);
        assert_eq!(l2.sram_bytes_per_bank(), 10);
        assert_eq!(l4.sram_bytes_per_bank(), 16);
    }

    #[test]
    fn safe_reset_shadows_trailing_rows() {
        let mut m = engine();
        // Simulate the refresh of group rows 0..8 where row 6 has count 50
        // and row 7 has count 60.
        let mut counts = [0u32; 16];
        counts[6] = 50;
        counts[7] = 60;
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        // In-array counters are now reset (bank would do it); the shadow
        // preserves the counts, so the next activation sees count 61.
        m.on_precharge_update(RowId::new(7), ActCount::new(1));
        assert_eq!(
            m.cta().unwrap(),
            TrackedEntry {
                row: RowId::new(7),
                count: 61
            }
        );
        m.on_precharge_update(RowId::new(6), ActCount::new(1));
        assert_eq!(
            m.effective_counter(RowId::new(6), ActCount::new(1)).get(),
            51
        );
        // Row 5 was not shadowed: its effective count is the in-array one.
        assert_eq!(
            m.effective_counter(RowId::new(5), ActCount::new(1)).get(),
            1
        );
    }

    #[test]
    fn shadow_replaced_at_next_group() {
        let mut m = engine();
        let mut counts = [10u32; 24];
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        counts[14] = 30;
        counts[15] = 40;
        m.on_refresh_group(8..16, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        // Old shadows (rows 6,7) dropped; new ones are rows 14,15.
        assert_eq!(
            m.effective_counter(RowId::new(7), ActCount::new(2)).get(),
            2
        );
        assert_eq!(
            m.effective_counter(RowId::new(15), ActCount::new(0)).get(),
            40
        );
    }

    #[test]
    fn shadow_carried_over_when_group_refreshes_again() {
        // A trailing row that is still shadowed when its group is
        // refreshed again keeps its shadow count: the in-array counter
        // reads 60 but the shadow has seen one more activation (61).
        let mut m = engine();
        let mut counts = [0u32; 8];
        counts[6] = 50;
        counts[7] = 60;
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        m.on_precharge_update(RowId::new(7), ActCount::new(1)); // shadow 61
        assert_eq!(m.shadow_count(RowId::new(7)), Some(61));
        counts[6] = 5;
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        assert_eq!(m.shadow_count(RowId::new(7)), Some(61), "shadow kept");
        assert_eq!(m.shadow_count(RowId::new(6)), Some(50), "shadow kept");
        assert_eq!(
            m.effective_counter(RowId::new(7), ActCount::new(60)).get(),
            61
        );
    }

    #[test]
    fn shadowed_alert_fires_across_reset() {
        // A trailing row at ATH that is activated right after its group's
        // refresh still alerts (the unsafe design would not).
        let mut m = engine();
        let mut counts = [0u32; 8];
        counts[7] = 64;
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        m.on_precharge_update(RowId::new(7), ActCount::new(1));
        assert!(m.alert_pending(), "shadow count 65 > ATH must alert");
    }

    #[test]
    fn unsafe_reset_keeps_no_shadow() {
        let mut m = MoatEngine::new(MoatConfig::paper_default().reset_policy(ResetPolicy::Unsafe));
        let counts = [64u32; 8];
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        // The bank would have reset the in-array counter to 0; the next
        // precharge therefore reports count 1.
        m.on_precharge_update(RowId::new(7), ActCount::new(1));
        assert!(!m.alert_pending(), "unsafe reset forgets the 64 prior acts");
    }

    #[test]
    fn mitigation_resets_shadow() {
        let mut m = engine();
        let counts = [50u32; 8];
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        m.on_precharge_update(RowId::new(7), ActCount::new(1)); // shadow 51
        let row = m.select_ref_mitigation().unwrap();
        assert_eq!(row, RowId::new(7));
        m.on_mitigation_complete(row);
        assert_eq!(
            m.effective_counter(RowId::new(7), ActCount::new(0)).get(),
            0
        );
    }

    #[test]
    fn name_mentions_config() {
        let m = MoatEngine::new(MoatConfig::with_ath(128));
        assert_eq!(m.name(), "moat-L1-ath128-eth64");
    }

    #[test]
    fn horizon_starts_at_ath_minus_eth_slack() {
        // Fresh engine: no row can stand above ETH − 1, so the horizon is
        // ATH + 1 − (ETH − 1) = 34 for the paper's 64/32.
        let m = engine();
        assert_eq!(m.min_acts_to_alert(), 34);
    }

    #[test]
    fn horizon_shrinks_with_the_tracked_maximum() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(5), ActCount::new(50));
        assert_eq!(m.min_acts_to_alert(), 65 - 50);
        m.on_precharge_update(RowId::new(5), ActCount::new(64));
        assert_eq!(m.min_acts_to_alert(), 1, "one more ACT may alert");
        m.on_precharge_update(RowId::new(5), ActCount::new(65));
        assert!(m.alert_pending());
        assert_eq!(m.min_acts_to_alert(), 0);
    }

    #[test]
    fn horizon_recovers_after_alert_mitigation() {
        // The hammer cadence: alert at 65, RFM mitigates the row (counter
        // reset) — the hazard retires and the horizon re-opens.
        let mut m = engine();
        m.on_precharge_update(RowId::new(5), ActCount::new(65));
        let row = m.select_alert_mitigation().unwrap();
        assert_eq!(
            m.min_acts_to_alert(),
            1,
            "between select and completion the CMA row still stands at 65, \
             so the horizon collapses to the no-guarantee single step"
        );
        m.on_mitigation_complete(row);
        assert_eq!(m.min_acts_to_alert(), 34);
    }

    #[test]
    fn horizon_remembers_rows_the_tracker_let_go() {
        // L1: row A tracked at 63 gets displaced by row B at 64; B is then
        // mitigated. A still stands untracked at 63, and the horizon must
        // not forget it — 2 ACTs on A would alert (64, then 65 > ATH).
        let mut m = engine();
        m.on_precharge_update(RowId::new(1), ActCount::new(63));
        m.on_precharge_update(RowId::new(2), ActCount::new(64));
        let row = m.select_alert_mitigation().unwrap();
        assert_eq!(row, RowId::new(2));
        m.on_mitigation_complete(row);
        assert!(!m.alert_pending());
        assert!(
            m.min_acts_to_alert() <= 2,
            "horizon {} must cover row 1 standing at 63",
            m.min_acts_to_alert()
        );
    }

    #[test]
    fn horizon_covers_rejected_insertions() {
        // L1 with a full tracker: a row above ETH that fails to displace
        // the entry still stands at its count.
        let mut m = engine();
        m.on_precharge_update(RowId::new(1), ActCount::new(60));
        m.on_precharge_update(RowId::new(2), ActCount::new(55)); // rejected
        let row = m.select_ref_mitigation().unwrap();
        assert_eq!(row, RowId::new(1));
        m.on_mitigation_complete(row);
        // Row 2 still stands at 55 → at most 10 ACTs to an alert.
        assert!(
            m.min_acts_to_alert() <= 10,
            "horizon {} must cover the rejected row at 55",
            m.min_acts_to_alert()
        );
    }

    #[test]
    fn disarmed_guard_is_inert() {
        let mut m = engine();
        m.on_precharge_update(RowId::new(1), ActCount::new(50));
        let report = m.integrity_check();
        assert!(
            !report.guarded,
            "disarmed check is a no-op, not a clean bill"
        );
        assert_eq!(m.scrub_resync(&mut |_| ActCount::new(0)), 0);
        // A fault lands undetected without the guard.
        m.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 4 });
        assert!(!m.integrity_check().guarded);
    }

    #[test]
    fn guard_detects_injected_bit_flip() {
        let mut m = engine();
        assert!(m.guard_arm());
        m.on_precharge_update(RowId::new(1), ActCount::new(50));
        assert_eq!(m.integrity_check(), IntegrityReport::clean());
        assert!(m.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 4 }));
        let report = m.integrity_check();
        assert_eq!(report.detected, 1);
        assert_eq!(report.repaired, 0, "count corruption is detect-only");
        assert_eq!(report.untrusted, vec![RowId::new(1)]);
    }

    #[test]
    fn guard_repairs_lost_alert_exactly() {
        let mut m = engine();
        m.guard_arm();
        m.on_precharge_update(RowId::new(5), ActCount::new(65));
        assert!(m.alert_pending());
        assert!(m.apply_fault(&EngineFault::LoseAlert));
        assert!(!m.alert_pending());
        let report = m.integrity_check();
        assert_eq!(report.detected, 1);
        assert_eq!(report.repaired, 1);
        assert!(report.untrusted.is_empty());
        assert!(m.alert_pending(), "latch restored from the shadow bit");
    }

    #[test]
    fn legitimate_mutations_keep_the_shadow_in_sync() {
        let mut m = engine();
        m.guard_arm();
        m.on_precharge_update(RowId::new(1), ActCount::new(40));
        m.on_precharge_update(RowId::new(2), ActCount::new(65));
        let row = m.select_alert_mitigation().unwrap();
        m.on_mitigation_complete(row);
        let counts = [30u32; 8];
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        assert_eq!(m.integrity_check(), IntegrityReport::clean());
    }

    #[test]
    fn scrub_resyncs_tracker_to_authoritative_counts() {
        let mut m = engine();
        m.guard_arm();
        m.on_precharge_update(RowId::new(1), ActCount::new(60));
        // Corrupt the count low — the dangerous direction (horizon promises
        // too much).
        m.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 5 });
        assert_eq!(m.tracker()[0].count, 60 ^ (1 << 5));
        assert!(m.integrity_check().corrupt());
        let corrected = m.scrub_resync(&mut |_| ActCount::new(60));
        assert_eq!(corrected, 1);
        assert_eq!(m.tracker()[0].count, 60);
        assert_eq!(m.integrity_check(), IntegrityReport::clean());
    }

    #[test]
    fn scrub_restores_a_suppressed_alert_from_truth() {
        let mut m = engine();
        m.guard_arm();
        m.on_precharge_update(RowId::new(1), ActCount::new(65));
        assert!(m.alert_pending());
        // A flip that lowers the count below ATH also clears the latch via
        // the fault path's resync.
        m.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 6 });
        assert_eq!(m.tracker()[0].count, 1);
        assert!(!m.alert_pending());
        let corrected = m.scrub_resync(&mut |_| ActCount::new(65));
        assert_eq!(corrected, 1);
        assert!(m.alert_pending(), "truth 65 > ATH re-arms the latch");
    }

    #[test]
    fn scrub_is_shadow_aware() {
        let mut m = engine();
        m.guard_arm();
        let counts = [50u32; 8];
        m.on_refresh_group(0..8, &mut |r: RowId| ActCount::new(counts[r.as_usize()]));
        m.on_precharge_update(RowId::new(7), ActCount::new(1)); // shadow 51
        m.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 3 });
        // The in-array counter was reset by the refresh; the §4.3 shadow
        // (51) is the authority the scrub must consult.
        let corrected = m.scrub_resync(&mut |_| ActCount::new(1));
        assert_eq!(corrected, 1);
        assert_eq!(m.tracker()[0].count, 51);
    }

    #[test]
    fn horizon_is_sound_under_a_simulated_act_replay() {
        // Adversarial replay: repeatedly ask for the horizon, then issue
        // exactly that many ACTs concentrated on one row — alert_pending
        // must never fire before the promised count is exhausted.
        let mut m = MoatEngine::new(MoatConfig::with_ath(64).level(AboLevel::L2));
        let mut counts = [0u32; 8];
        let mut step = 0u32;
        for round in 0..200 {
            let n = m.min_acts_to_alert();
            if n == 0 {
                // Drain the alert like an RFM would.
                let row = m.select_alert_mitigation().expect("alerting entry");
                counts[row.as_usize()] = 0;
                m.on_mitigation_complete(row);
                continue;
            }
            let target = RowId::new(step % 3); // rotate hot rows
            step += 1;
            for k in 0..n {
                let c = &mut counts[target.as_usize()];
                *c += 1;
                m.on_precharge_update(target, ActCount::new(*c));
                assert!(
                    k + 1 >= n || !m.alert_pending(),
                    "round {round}: alert after {k} acts, horizon promised {n}"
                );
            }
        }
    }
}
