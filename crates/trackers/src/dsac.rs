//! The DSAC stochastic-approximate tracker (PAPERS.md: "DSAC:
//! Low-Cost Rowhammer Mitigation Using In-DRAM Stochastic and
//! Approximate Counting Algorithm", arXiv 2302.03591).
//!
//! DSAC keeps a small table of (row, count) entries like a
//! frequent-items summary, but replaces the deterministic eviction of
//! Misra–Gries/CBT designs with *stochastic replacement*: a miss on a
//! full table replaces the minimum-count entry only with probability
//! `1 / (min + 1)`, and the inserted row inherits `min + 1`. Decoy
//! rows that thrash a deterministic tracker now lose the coin flip
//! almost every time, while a genuinely hot row eventually wins one
//! and then counts deterministically. The draws come from a SplitMix64
//! stream seeded at construction, so a DSAC engine is bit-reproducible
//! from its seed — and its horizon bound holds for *every* draw
//! sequence, so soundness never depends on the randomness.

use core::any::Any;
use core::ops::Range;

use moat_dram::hash::SplitMix64;
use moat_dram::{ActCount, EngineFault, MitigationEngine, RowId};

/// Configuration of a DSAC bank tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DsacConfig {
    /// Table entries per bank.
    pub entries: usize,
    /// Alert threshold: an entry reaching this count raises ALERT.
    pub ath: u32,
    /// Entries at or above this count are worth a REF-time slot.
    pub mitigation_floor: u32,
    /// Seed of the replacement-draw stream.
    pub seed: u64,
}

impl DsacConfig {
    /// A default comparable to MOAT's ATH=64 operating point.
    pub const fn paper_default() -> Self {
        DsacConfig {
            entries: 16,
            ath: 64,
            mitigation_floor: 32,
            seed: 0xD5AC,
        }
    }

    /// A TRR-sized tiny table, thrashable in the deterministic designs
    /// DSAC improves on.
    pub const fn tiny_table() -> Self {
        DsacConfig {
            entries: 4,
            ath: 64,
            mitigation_floor: 32,
            seed: 0xD5AC,
        }
    }

    /// The same table with a different draw stream.
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for DsacConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The DSAC engine for one bank.
///
/// # Examples
///
/// ```
/// use moat_dram::{ActCount, MitigationEngine, RowId};
/// use moat_trackers::{DsacConfig, DsacEngine};
///
/// let mut d = DsacEngine::new(DsacConfig::paper_default());
/// for _ in 0..64 {
///     d.on_precharge_update(RowId::new(9), ActCount::ZERO);
/// }
/// assert!(d.alert_pending());
/// ```
#[derive(Debug, Clone)]
pub struct DsacEngine {
    config: DsacConfig,
    /// Cached display name (`name()` is allocation-free).
    name: String,
    entries: Vec<(RowId, u32)>,
    /// The replacement-draw stream.
    rng: SplitMix64,
    /// Incrementally maintained maximum entry count.
    max_count: u32,
    alert_pending: bool,
    /// Misses that lost the replacement coin flip (observability).
    rejected_replacements: u64,
}

impl DsacEngine {
    /// Creates a DSAC engine.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ath` is zero.
    pub fn new(config: DsacConfig) -> Self {
        assert!(config.entries > 0, "table must have entries");
        assert!(config.ath > 0, "alert threshold must be non-zero");
        DsacEngine {
            config,
            name: format!("dsac-{}e-ath{}", config.entries, config.ath),
            entries: Vec::with_capacity(config.entries),
            rng: SplitMix64::new(config.seed),
            max_count: 0,
            alert_pending: false,
            rejected_replacements: 0,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DsacConfig {
        &self.config
    }

    /// Current table contents (row, tracked count).
    pub fn entries(&self) -> &[(RowId, u32)] {
        &self.entries
    }

    /// Misses that lost the replacement coin flip so far.
    pub fn rejected_replacements(&self) -> u64 {
        self.rejected_replacements
    }

    fn recompute(&mut self) {
        self.max_count = self.entries.iter().map(|&(_, c)| c).max().unwrap_or(0);
        self.alert_pending = self.max_count >= self.config.ath;
    }
}

impl MitigationEngine for DsacEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_precharge_update(&mut self, row: RowId, _counter: ActCount) {
        if let Some(e) = self.entries.iter_mut().find(|(r, _)| *r == row) {
            e.1 = e.1.saturating_add(1);
            if e.1 > self.max_count {
                self.max_count = e.1;
            }
            if e.1 >= self.config.ath {
                self.alert_pending = true;
            }
        } else if self.entries.len() < self.config.entries {
            self.entries.push((row, 1));
            self.max_count = self.max_count.max(1);
            if self.config.ath == 1 {
                self.alert_pending = true;
            }
        } else {
            // Stochastic replacement: evict the minimum-count entry with
            // probability 1 / (min + 1); the new row inherits min + 1, so
            // the count an evicted aggressor may have reached stays
            // over-approximated (never forgotten downward).
            let (idx, min) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, c))| c)
                .map(|(i, &(_, c))| (i, c))
                .expect("table is full, hence non-empty");
            let span = u64::from(min) + 1;
            if self.rng.next_u64().is_multiple_of(span) {
                let new_count = min.saturating_add(1);
                self.entries[idx] = (row, new_count);
                if new_count > self.max_count {
                    self.max_count = new_count;
                }
                if new_count >= self.config.ath {
                    self.alert_pending = true;
                }
            } else {
                self.rejected_replacements += 1;
            }
        }
    }

    fn alert_pending(&self) -> bool {
        self.alert_pending
    }

    /// One ACT raises the table's maximum count by at most one — a hit
    /// increments a single entry, an insert starts at one, and a
    /// stochastic replacement inherits `min + 1 <= max + 1` — so with
    /// the maximum at `m`, no entry can reach `ath` for the next
    /// `ath - m` activations, **regardless of how the replacement
    /// draws fall**. The bound is sound for every seed.
    fn min_acts_to_alert(&self) -> u64 {
        if self.alert_pending {
            return 0;
        }
        u64::from(self.config.ath.saturating_sub(self.max_count)).max(1)
    }

    fn select_ref_mitigation(&mut self) -> Option<RowId> {
        let (idx, _) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| *c >= self.config.mitigation_floor)
            .max_by_key(|(_, (_, c))| *c)?;
        Some(self.entries[idx].0)
    }

    fn on_mitigation_complete(&mut self, row: RowId) {
        self.entries.retain(|&(r, _)| r != row);
        self.recompute();
    }

    fn on_refresh_group(
        &mut self,
        rows: Range<u32>,
        _counter_of: &mut dyn FnMut(RowId) -> ActCount,
    ) {
        // New tREFW window (the contiguous refresh engine wraps to row
        // 0): mitigated-or-not, last window's pressure is spent.
        if rows.start == 0 {
            self.entries.clear();
            self.recompute();
        }
    }

    fn resets_counter_on_mitigation(&self) -> bool {
        false // the table, not the in-array PRAC counter, is the tracker.
    }

    fn sram_bytes_per_bank(&self) -> usize {
        // 2-byte tag + 2-byte count per entry, plus the 8-byte LFSR/
        // draw state.
        self.config.entries * 4 + 8
    }

    /// Table entries are SRAM: `FlipCounterBit` flips a count bit,
    /// `StuckEntry` clears the slot, `LoseAlert` drops the pending
    /// request (masking counts below the threshold so the cleared flag
    /// sticks). The draw stream is untouched — SEUs hit storage, not
    /// the generator.
    fn apply_fault(&mut self, fault: &EngineFault) -> bool {
        let changed = match *fault {
            EngineFault::FlipCounterBit { slot, bit } => {
                if self.entries.is_empty() {
                    return false;
                }
                let slot = slot % self.entries.len();
                self.entries[slot].1 ^= 1 << (bit % 16);
                true
            }
            EngineFault::LoseAlert => {
                let was = self.alert_pending;
                for e in &mut self.entries {
                    e.1 = e.1.min(self.config.ath - 1);
                }
                self.recompute();
                self.alert_pending = false;
                return was;
            }
            EngineFault::StuckEntry { slot } => {
                if self.entries.is_empty() {
                    return false;
                }
                let slot = slot % self.entries.len();
                let changed = self.entries[slot].1 != 0;
                self.entries[slot].1 = 0;
                changed
            }
        };
        let alert_was = self.alert_pending;
        self.recompute();
        self.alert_pending = alert_was || self.max_count >= self.config.ath;
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

    fn engine() -> DsacEngine {
        DsacEngine::new(DsacConfig::paper_default())
    }

    #[test]
    fn hit_counts_deterministically() {
        let mut d = engine();
        for i in 0..64u32 {
            assert!(!d.alert_pending(), "early alert at {i}");
            d.on_precharge_update(RowId::new(9), ActCount::ZERO);
        }
        assert!(d.alert_pending());
        assert_eq!(d.select_ref_mitigation(), Some(RowId::new(9)));
    }

    #[test]
    fn replacement_is_stochastic_but_bounded() {
        let mut d = DsacEngine::new(DsacConfig::tiny_table());
        // Fill the table, then spray misses: some are rejected (the
        // stochastic part), none may push a count past min + 1.
        for r in 0..4u32 {
            d.on_precharge_update(RowId::new(r), ActCount::ZERO);
        }
        for r in 100..600u32 {
            let before = d.entries().iter().map(|&(_, c)| c).max().unwrap();
            d.on_precharge_update(RowId::new(r), ActCount::ZERO);
            let after = d.entries().iter().map(|&(_, c)| c).max().unwrap();
            assert!(after <= before + 1, "max may only creep by 1 per ACT");
        }
        assert!(
            d.rejected_replacements() > 0,
            "coin flips must lose sometimes"
        );
    }

    #[test]
    fn same_seed_same_trajectory_different_seed_diverges() {
        let run = |seed: u64| {
            let mut d = DsacEngine::new(DsacConfig::tiny_table().with_seed(seed));
            for i in 0..2000u32 {
                d.on_precharge_update(RowId::new(i % 37), ActCount::ZERO);
            }
            (d.entries().to_vec(), d.rejected_replacements())
        };
        assert_eq!(run(1), run(1), "seeded stochastic path is deterministic");
        assert_ne!(
            run(1),
            run(2),
            "different seeds must explore different replacements"
        );
    }

    #[test]
    fn mitigation_frees_the_slot() {
        let mut d = engine();
        for _ in 0..40 {
            d.on_precharge_update(RowId::new(3), ActCount::ZERO);
        }
        let row = d.select_ref_mitigation().unwrap();
        d.on_mitigation_complete(row);
        assert!(d.entries().iter().all(|&(r, _)| r != RowId::new(3)));
        assert_eq!(d.select_ref_mitigation(), None);
    }

    #[test]
    fn window_wrap_clears_the_table() {
        let mut d = engine();
        for _ in 0..40 {
            d.on_precharge_update(RowId::new(3), ActCount::ZERO);
        }
        d.on_refresh_group(8..16, &mut |_| ActCount::ZERO);
        assert!(!d.entries().is_empty(), "mid-window REF is inert");
        d.on_refresh_group(0..8, &mut |_| ActCount::ZERO);
        assert!(d.entries().is_empty());
        assert_eq!(d.min_acts_to_alert(), 64);
    }

    #[test]
    fn horizon_is_sound_for_every_seed() {
        // The bound must hold regardless of the draw stream: check a
        // thrashing mix under several seeds, including the tiny table
        // where replacements are constant.
        let acts: Vec<RowId> = (0..4000u32)
            .map(|i| {
                if i % 4 == 0 {
                    RowId::new(7)
                } else {
                    RowId::new(50 + i % 131)
                }
            })
            .collect();
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut d = DsacEngine::new(DsacConfig::paper_default().with_seed(seed));
            assert_horizon_sound(&mut d, &acts, 4096);
            let mut tiny = DsacEngine::new(DsacConfig::tiny_table().with_seed(seed));
            assert_horizon_sound(&mut tiny, &acts, 4096);
        }
    }

    #[test]
    fn sram_cost_counts_table_and_draw_state() {
        // 16 entries × 4 B + 8 B = 72 B.
        assert_eq!(engine().sram_bytes_per_bank(), 72);
    }

    #[test]
    fn faults_change_state_and_rederive_invariants() {
        let mut d = engine();
        for _ in 0..64 {
            d.on_precharge_update(RowId::new(2), ActCount::ZERO);
        }
        assert!(d.alert_pending());
        assert!(d.apply_fault(&EngineFault::LoseAlert));
        assert!(!d.alert_pending());
        assert!(d.apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 10 }));
        assert!(d.apply_fault(&EngineFault::StuckEntry { slot: 0 }));
        assert_eq!(d.entries()[0].1, 0);
    }
}
