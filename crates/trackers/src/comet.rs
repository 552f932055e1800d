//! The CoMeT count-min-sketch tracker (PAPERS.md: "CoMeT: Count-Min-
//! Sketch-based Row Tracking to Mitigate RowHammer at Low Cost",
//! arXiv 2402.18769).
//!
//! CoMeT replaces per-row counters with a count-min sketch: `depth`
//! hash rows of `width` counters each; an activation increments one
//! counter per hash row, and a row's estimate is the *minimum* of its
//! `depth` counters. The estimate over-approximates the true count
//! (hash collisions only inflate it), so acting on the estimate never
//! misses an aggressor. Crossing the mitigation floor queues the row
//! for proactive mitigation; crossing the alert threshold raises
//! ALERT. Mitigation resets the row's sketch counters (the paper's
//! Counter Reset mechanism).

use core::any::Any;
use core::ops::Range;

use moat_dram::hash::fnv1a;
use moat_dram::{ActCount, EngineFault, MitigationEngine, RowId};

/// Configuration of a CoMeT bank tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CometConfig {
    /// Hash rows in the sketch (paper: 4).
    pub depth: usize,
    /// Counters per hash row.
    pub width: usize,
    /// Alert threshold on a row's minimum estimate.
    pub ath: u32,
    /// Estimates at or above this enter the proactive mitigation queue.
    pub mitigation_floor: u32,
}

impl CometConfig {
    /// A default comparable to MOAT's ATH=64 operating point.
    pub const fn paper_default() -> Self {
        CometConfig {
            depth: 4,
            width: 256,
            ath: 64,
            mitigation_floor: 32,
        }
    }

    /// A narrow-sketch variant stressing collision inflation.
    pub const fn narrow() -> Self {
        CometConfig {
            depth: 4,
            width: 64,
            ath: 64,
            mitigation_floor: 32,
        }
    }
}

impl Default for CometConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-depth hash seeds (fixed, so sketches are deterministic and two
/// engines with the same config behave identically).
const HASH_SEEDS: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x85EB_CA6B_27D4_EB4F,
    0x2545_F491_4F6C_DD1D,
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
];

/// The CoMeT engine for one bank.
///
/// # Examples
///
/// ```
/// use moat_dram::{ActCount, MitigationEngine, RowId};
/// use moat_trackers::{CometConfig, CometEngine};
///
/// let mut c = CometEngine::new(CometConfig::paper_default());
/// for _ in 0..64 {
///     c.on_precharge_update(RowId::new(9), ActCount::ZERO);
/// }
/// assert!(c.alert_pending());
/// assert!(c.estimate(RowId::new(9)) >= 64);
/// ```
#[derive(Debug, Clone)]
pub struct CometEngine {
    config: CometConfig,
    /// Cached display name (`name()` is allocation-free).
    name: String,
    /// Row-major sketch: `counters[d * width + w]`.
    counters: Vec<u32>,
    /// Cached per-depth maximum counter. Maintained as an upper bound:
    /// increments keep it exact, resets leave it stale-high (which only
    /// *shrinks* the advertised horizon — conservative, still sound);
    /// window resets restore exactness.
    depth_max: Vec<u32>,
    /// Rows whose estimate crossed the mitigation floor, awaiting a
    /// proactive slot (deduplicated).
    pending: Vec<RowId>,
    /// Rows whose estimate crossed the alert threshold; ALERT is
    /// pending while non-empty.
    alerting: Vec<RowId>,
}

impl CometEngine {
    /// Creates a CoMeT engine.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the seed pool, if `width`
    /// is zero, or if `ath` is zero.
    pub fn new(config: CometConfig) -> Self {
        assert!(
            config.depth > 0 && config.depth <= HASH_SEEDS.len(),
            "depth must be in 1..={}",
            HASH_SEEDS.len()
        );
        assert!(config.width > 0, "width must be non-zero");
        assert!(config.ath > 0, "alert threshold must be non-zero");
        CometEngine {
            config,
            name: format!("comet-{}x{}-ath{}", config.depth, config.width, config.ath),
            counters: vec![0; config.depth * config.width],
            depth_max: vec![0; config.depth],
            pending: Vec::new(),
            alerting: Vec::new(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// The sketch's estimate (minimum over hash rows) for `row`.
    pub fn estimate(&self, row: RowId) -> u32 {
        (0..self.config.depth)
            .map(|d| self.counters[d * self.config.width + self.index(d, row)])
            .min()
            .unwrap_or(0)
    }

    #[inline]
    fn index(&self, depth: usize, row: RowId) -> usize {
        // FNV-1a over the row index, salted per depth.
        let h = fnv1a(HASH_SEEDS[depth], row.index().to_le_bytes());
        (h % self.config.width as u64) as usize
    }

    /// The sketch-wide estimate bound: no row's estimate can exceed the
    /// minimum over depths of that depth's maximum counter.
    fn global_estimate_cap(&self) -> u32 {
        self.depth_max.iter().copied().min().unwrap_or(0)
    }

    /// Zeroes `row`'s counters in every hash row (the Counter Reset a
    /// completed mitigation performs) and drops it from both queues.
    fn reset_row(&mut self, row: RowId) {
        for d in 0..self.config.depth {
            let idx = d * self.config.width + self.index(d, row);
            self.counters[idx] = 0;
            // depth_max deliberately not recomputed: stale-high is a
            // sound (conservative) horizon, and exactness returns at the
            // next window reset.
        }
        self.pending.retain(|&r| r != row);
        self.alerting.retain(|&r| r != row);
    }
}

impl MitigationEngine for CometEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_precharge_update(&mut self, row: RowId, _counter: ActCount) {
        let mut estimate = u32::MAX;
        for d in 0..self.config.depth {
            let idx = d * self.config.width + self.index(d, row);
            self.counters[idx] = self.counters[idx].saturating_add(1);
            if self.counters[idx] > self.depth_max[d] {
                self.depth_max[d] = self.counters[idx];
            }
            estimate = estimate.min(self.counters[idx]);
        }
        if estimate >= self.config.mitigation_floor && !self.pending.contains(&row) {
            self.pending.push(row);
        }
        if estimate >= self.config.ath && !self.alerting.contains(&row) {
            self.alerting.push(row);
        }
    }

    fn alert_pending(&self) -> bool {
        !self.alerting.is_empty()
    }

    /// An ALERT needs some row's estimate to reach `ath`. Every
    /// estimate is bounded by the minimum over depths of that depth's
    /// maximum counter (`m`), and one ACT increments each depth's
    /// counters by at most one, so `m` — and with it any estimate —
    /// grows by at most one per ACT: no alert is possible for the next
    /// `ath - m` activations. The cached per-depth maxima are upper
    /// bounds after resets, which only makes the advertised bound
    /// smaller (conservative), never unsound.
    fn min_acts_to_alert(&self) -> u64 {
        if !self.alerting.is_empty() {
            return 0;
        }
        u64::from(self.config.ath.saturating_sub(self.global_estimate_cap())).max(1)
    }

    fn select_ref_mitigation(&mut self) -> Option<RowId> {
        // Serve the hottest queued row first; ALERT-time selection
        // (the trait default delegates here) then always clears the
        // worst offender.
        let (idx, _) = self
            .pending
            .iter()
            .enumerate()
            .max_by_key(|(_, &r)| self.estimate(r))?;
        Some(self.pending[idx])
    }

    fn on_mitigation_complete(&mut self, row: RowId) {
        self.reset_row(row);
    }

    fn on_refresh_group(
        &mut self,
        rows: Range<u32>,
        _counter_of: &mut dyn FnMut(RowId) -> ActCount,
    ) {
        // New tREFW window (the contiguous refresh engine wraps to row
        // 0): clear the sketch and restore exact per-depth maxima.
        if rows.start == 0 {
            self.counters.fill(0);
            self.depth_max.fill(0);
            self.pending.clear();
            self.alerting.clear();
        }
    }

    fn resets_counter_on_mitigation(&self) -> bool {
        false // the sketch, not the in-array PRAC counter, is the tracker.
    }

    fn sram_bytes_per_bank(&self) -> usize {
        // 2-byte counters plus a 2-byte tag per queue slot (the paper's
        // Recent Aggressor Table analogue, sized at one row per depth).
        self.config.depth * self.config.width * 2 + self.config.depth * 2
    }

    /// Sketch counters are SRAM: `FlipCounterBit` flips one bit of one
    /// counter (slot indexes the flat sketch), `StuckEntry` clears a
    /// counter, `LoseAlert` drops the pending rows that crossed the
    /// threshold. Cached maxima are re-derived; the horizon promise
    /// (deliberately) breaks.
    fn apply_fault(&mut self, fault: &EngineFault) -> bool {
        let changed = match *fault {
            EngineFault::FlipCounterBit { slot, bit } => {
                let slot = slot % self.counters.len();
                self.counters[slot] ^= 1 << (bit % 16);
                true
            }
            EngineFault::LoseAlert => {
                let was = !self.alerting.is_empty();
                self.alerting.clear();
                // Mask the counts so recompute cannot instantly re-raise.
                for c in &mut self.counters {
                    *c = (*c).min(self.config.ath - 1);
                }
                was
            }
            EngineFault::StuckEntry { slot } => {
                let slot = slot % self.counters.len();
                let changed = self.counters[slot] != 0;
                self.counters[slot] = 0;
                changed
            }
        };
        for d in 0..self.config.depth {
            self.depth_max[d] = self.counters[d * self.config.width..(d + 1) * self.config.width]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
        }
        changed
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_dram::testing::assert_horizon_sound;

    fn engine() -> CometEngine {
        CometEngine::new(CometConfig::paper_default())
    }

    #[test]
    fn estimate_never_underestimates() {
        let mut c = engine();
        for _ in 0..40 {
            c.on_precharge_update(RowId::new(3), ActCount::ZERO);
        }
        for _ in 0..10 {
            c.on_precharge_update(RowId::new(77), ActCount::ZERO);
        }
        assert!(c.estimate(RowId::new(3)) >= 40);
        assert!(c.estimate(RowId::new(77)) >= 10);
    }

    #[test]
    fn alert_on_threshold_and_counter_reset_clears_it() {
        let mut c = engine();
        for i in 0..64u32 {
            assert!(!c.alert_pending(), "early alert at {i}");
            c.on_precharge_update(RowId::new(5), ActCount::ZERO);
        }
        assert!(c.alert_pending());
        let row = c.select_alert_mitigation().expect("hot row queued");
        assert_eq!(row, RowId::new(5));
        c.on_mitigation_complete(row);
        assert!(!c.alert_pending());
        assert_eq!(c.estimate(RowId::new(5)), 0);
    }

    #[test]
    fn floor_queues_for_proactive_mitigation() {
        let mut c = engine();
        for _ in 0..32 {
            c.on_precharge_update(RowId::new(11), ActCount::ZERO);
        }
        assert!(!c.alert_pending());
        assert_eq!(c.select_ref_mitigation(), Some(RowId::new(11)));
    }

    #[test]
    fn hottest_pending_row_is_served_first() {
        let mut c = engine();
        for _ in 0..33 {
            c.on_precharge_update(RowId::new(1), ActCount::ZERO);
        }
        for _ in 0..50 {
            c.on_precharge_update(RowId::new(2), ActCount::ZERO);
        }
        assert_eq!(c.select_ref_mitigation(), Some(RowId::new(2)));
    }

    #[test]
    fn window_wrap_clears_the_sketch() {
        let mut c = engine();
        for _ in 0..50 {
            c.on_precharge_update(RowId::new(9), ActCount::ZERO);
        }
        c.on_refresh_group(64..72, &mut |_| ActCount::ZERO);
        assert!(c.estimate(RowId::new(9)) >= 50, "mid-window REF is inert");
        c.on_refresh_group(0..8, &mut |_| ActCount::ZERO);
        assert_eq!(c.estimate(RowId::new(9)), 0);
        assert_eq!(c.min_acts_to_alert(), 64);
    }

    #[test]
    fn horizon_tracks_the_global_estimate_cap() {
        let mut c = engine();
        assert_eq!(c.min_acts_to_alert(), 64);
        for i in 0..20 {
            c.on_precharge_update(RowId::new(4), ActCount::ZERO);
            assert_eq!(c.min_acts_to_alert(), 64 - i - 1);
        }
    }

    #[test]
    fn horizon_is_sound_under_replay() {
        // A few heavily hammered rows plus a spray of colliders.
        let acts: Vec<RowId> = (0..4000u32)
            .map(|i| {
                if i % 3 == 0 {
                    RowId::new(i % 5)
                } else {
                    RowId::new(100 + i % 97)
                }
            })
            .collect();
        assert_horizon_sound(&mut engine(), &acts, 4096);
        assert_horizon_sound(&mut CometEngine::new(CometConfig::narrow()), &acts, 4096);
    }

    #[test]
    fn sram_cost_is_the_sketch() {
        // 4 × 256 counters × 2 B + 4 × 2 B tags = 2056 B.
        assert_eq!(engine().sram_bytes_per_bank(), 2056);
    }

    #[test]
    fn faults_perturb_counters_and_rederive_caps() {
        let mut c = engine();
        for _ in 0..64 {
            c.on_precharge_update(RowId::new(8), ActCount::ZERO);
        }
        assert!(c.alert_pending());
        assert!(c.apply_fault(&EngineFault::LoseAlert));
        assert!(!c.alert_pending());
        assert!(c.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 3 }));
        let _ = c.apply_fault(&EngineFault::StuckEntry { slot: 0 });
        assert_eq!(c.counters[0], 0);
    }
}
