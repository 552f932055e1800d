//! The refresh engine: periodic REF scheduling over spatially contiguous
//! groups, with optional REF postponement (Appendix B).
//!
//! A REF command is due every tREFI and refreshes the next refresh group
//! (8 spatially contiguous rows in the baseline, §4.3). The refresh pointer
//! wraps after covering the whole bank, so every row is refreshed at least
//! once per tREFW. The controller may postpone up to `max_postponed_refs`
//! REFs and later issue them back-to-back — the attack vector analysed in
//! Appendix B.

use crate::config::{DramConfig, RefreshOrder};
use crate::error::DramError;
use crate::types::Nanos;

/// Tracks the REF schedule and the spatially contiguous refresh pointer for
/// one bank.
///
/// # Examples
///
/// ```
/// use moat_dram::{DramConfig, Nanos, RefreshEngine};
///
/// let cfg = DramConfig::builder().rows_per_bank(64).build();
/// let mut refresh = RefreshEngine::new(&cfg);
/// assert!(!refresh.is_due(Nanos::ZERO));
/// assert!(refresh.is_due(cfg.timing.t_refi));
/// let group = refresh.perform(cfg.timing.t_refi);
/// assert_eq!(group.rows, 0..8);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshEngine {
    t_refi: Nanos,
    groups: u32,
    rows_per_group: u32,
    max_postponed: u32,
    order: RefreshOrder,
    /// Position in the sweep sequence (group index for contiguous order).
    sweep_pos: u32,
    /// Deadline of the next (non-postponed) REF.
    next_due: Nanos,
    /// Number of currently postponed REFs (owed to the DRAM).
    postponed: u32,
    /// Total REFs performed.
    refs_done: u64,
}

/// The outcome of one REF command: which rows were refreshed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshedGroup {
    /// Refresh group index.
    pub group: u32,
    /// Dense row range refreshed by this REF.
    pub rows: core::ops::Range<u32>,
}

impl RefreshEngine {
    /// Creates a refresh engine with the pointer at group 0 and the first
    /// REF due at one tREFI.
    pub fn new(config: &DramConfig) -> Self {
        RefreshEngine {
            t_refi: config.timing.t_refi,
            groups: config.refresh_groups(),
            rows_per_group: config.rows_per_refresh_group,
            max_postponed: config.max_postponed_refs,
            order: config.refresh_order,
            sweep_pos: 0,
            next_due: config.timing.t_refi,
            postponed: 0,
            refs_done: 0,
        }
    }

    /// Whether a REF is due at `now` (its deadline has passed). Postponed
    /// REFs are owed but not due until the (pushed-out) deadline arrives;
    /// they are then repaid back-to-back as a batch (Appendix B).
    pub fn is_due(&self, now: Nanos) -> bool {
        now >= self.next_due
    }

    /// Whether any postponed REFs are owed.
    pub fn owed(&self) -> u32 {
        self.postponed
    }

    /// Deadline of the next scheduled REF.
    pub fn next_due(&self) -> Nanos {
        self.next_due
    }

    /// The group the next REF will refresh.
    pub fn next_group(&self) -> u32 {
        match self.order {
            RefreshOrder::Contiguous => self.sweep_pos,
            RefreshOrder::Strided(stride) => {
                ((u64::from(self.sweep_pos) * u64::from(stride)) % u64::from(self.groups)) as u32
            }
        }
    }

    /// Total REFs performed so far.
    pub fn refs_done(&self) -> u64 {
        self.refs_done
    }

    /// Postpones the currently due REF (Appendix B).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::PostponeLimitExceeded`] if the configured
    /// postponement budget is exhausted.
    pub fn postpone(&mut self) -> Result<(), DramError> {
        if self.postponed >= self.max_postponed {
            return Err(DramError::PostponeLimitExceeded {
                max: self.max_postponed,
            });
        }
        self.postponed += 1;
        self.next_due += self.t_refi;
        Ok(())
    }

    /// Performs one REF at `now`: advances the refresh pointer and returns
    /// the refreshed group. If REFs were postponed, this repays one owed
    /// REF without moving the deadline (so the batch drains back-to-back);
    /// otherwise the next deadline moves one tREFI later.
    pub fn perform(&mut self, _now: Nanos) -> RefreshedGroup {
        let group = self.next_group();
        let rows = (group * self.rows_per_group)..((group + 1) * self.rows_per_group);
        self.sweep_pos += 1;
        if self.sweep_pos == self.groups {
            self.sweep_pos = 0;
        }
        self.refs_done += 1;
        if self.postponed > 0 {
            self.postponed -= 1;
        } else {
            self.next_due += self.t_refi;
        }
        RefreshedGroup { group, rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(max_postponed: u32) -> (DramConfig, RefreshEngine) {
        let cfg = DramConfig::builder()
            .rows_per_bank(64)
            .max_postponed_refs(max_postponed)
            .build();
        let e = RefreshEngine::new(&cfg);
        (cfg, e)
    }

    #[test]
    fn ref_due_every_trefi() {
        let (cfg, mut e) = engine(0);
        let t = cfg.timing.t_refi;
        assert!(!e.is_due(t - Nanos::new(1)));
        assert!(e.is_due(t));
        e.perform(t);
        assert!(!e.is_due(t));
        assert!(e.is_due(t * 2));
    }

    #[test]
    fn pointer_walks_contiguously_and_wraps() {
        let (cfg, mut e) = engine(0);
        let mut now = Nanos::ZERO;
        for i in 0..16u32 {
            now += cfg.timing.t_refi;
            let g = e.perform(now);
            assert_eq!(g.group, i % 8);
            assert_eq!(g.rows.start, (i % 8) * 8);
        }
        assert_eq!(e.refs_done(), 16);
    }

    #[test]
    fn next_group_names_the_next_refresh_and_each_sweep_partitions_the_bank() {
        // The bank unit prefetches `next_group()`'s rows one REF ahead,
        // so it must name what the next `perform` refreshes, in both
        // orders and across the sweep's wrap.
        for order in [RefreshOrder::Contiguous, RefreshOrder::Strided(3)] {
            let cfg = DramConfig::builder()
                .rows_per_bank(64)
                .refresh_order(order)
                .build();
            let per = cfg.rows_per_refresh_group;
            let mut e = RefreshEngine::new(&cfg);
            let mut now = Nanos::ZERO;
            for sweep in 0..3 {
                let mut refreshed = [false; 64];
                for _ in 0..cfg.refresh_groups() {
                    now += cfg.timing.t_refi;
                    let next = e.next_group();
                    let g = e.perform(now);
                    assert_eq!(g.group, next, "{order:?}, sweep {sweep}");
                    assert_eq!(g.rows, next * per..(next + 1) * per);
                    for r in g.rows {
                        assert!(!refreshed[r as usize], "{order:?}: row {r} twice");
                        refreshed[r as usize] = true;
                    }
                }
                assert!(
                    refreshed.iter().all(|&r| r),
                    "{order:?}: sweep {sweep} covers every row"
                );
            }
        }
    }

    #[test]
    fn postponement_respects_limit() {
        let (_, mut e) = engine(2);
        assert!(e.postpone().is_ok());
        assert!(e.postpone().is_ok());
        let err = e.postpone().unwrap_err();
        assert!(matches!(err, DramError::PostponeLimitExceeded { max: 2 }));
        assert_eq!(e.owed(), 2);
    }

    #[test]
    fn postponed_refs_are_repaid_as_a_batch() {
        // Appendix B: postpone 2 REFs → a batch of 3 REFs at the deadline.
        let (cfg, mut e) = engine(2);
        let t = cfg.timing.t_refi;
        e.postpone().unwrap(); // deadline 2·tREFI
        e.postpone().unwrap(); // deadline 3·tREFI
        assert!(!e.is_due(Nanos::ZERO));
        assert!(!e.is_due(t * 2));
        let batch_time = t * 3;
        assert!(e.is_due(batch_time));
        // Three REFs drain back-to-back at the deadline.
        e.perform(batch_time);
        assert!(e.is_due(batch_time), "owed REFs keep the deadline hot");
        assert_eq!(e.owed(), 1);
        e.perform(batch_time);
        assert!(e.is_due(batch_time));
        e.perform(batch_time);
        assert_eq!(e.owed(), 0);
        assert!(!e.is_due(batch_time));
        assert_eq!(e.next_due(), t * 4);
    }

    #[test]
    fn postponement_allows_up_to_201_acts_between_refs() {
        // Appendix B: with 2 postponed REFs an attacker gets up to ~201
        // activations between refresh batches (3 tREFI of ACT slots).
        let cfg = DramConfig::paper_baseline();
        let acts = 3 * cfg.timing.acts_per_trefi();
        assert_eq!(acts, 201);
    }
}
