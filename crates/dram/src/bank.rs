//! A DRAM bank with PRAC per-row activation counters.
//!
//! The bank is a *functional* model: it holds the per-row counter array,
//! enforces the tRC activation spacing, and performs counter updates at the
//! precharge that follows each activation (the paper runs a closed-page
//! policy, so every ACT is followed by an automatic precharge). Data values
//! are not modelled — Rowhammer analysis needs only command and counter
//! behaviour.

use core::ops::Range;

use crate::config::DramConfig;
use crate::error::DramError;
use crate::types::{ActCount, Nanos, RowId};

/// One DRAM bank: per-row PRAC counters plus activation timing state.
///
/// # Examples
///
/// ```
/// use moat_dram::{Bank, DramConfig, Nanos, RowId};
///
/// let cfg = DramConfig::builder().rows_per_bank(1024).build();
/// let mut bank = Bank::new(&cfg);
/// let count = bank.activate(RowId::new(3), Nanos::ZERO)?;
/// assert_eq!(count.get(), 1);
/// // A second ACT must wait at least tRC:
/// assert!(bank.activate(RowId::new(3), Nanos::new(10)).is_err());
/// # Ok::<(), moat_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    config: DramConfig,
    /// In-array PRAC counter per row.
    counters: Vec<u32>,
    /// Earliest time the next ACT may issue.
    next_ready: Nanos,
}

impl Bank {
    /// Creates a bank with all PRAC counters at zero.
    pub fn new(config: &DramConfig) -> Self {
        Bank {
            config: *config,
            counters: vec![0; config.rows_per_bank as usize],
            next_ready: Nanos::ZERO,
        }
    }

    /// The configuration this bank was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Activates `row` at time `now`, performing the closed-page
    /// activate/precharge pair and the PRAC read-modify-write.
    ///
    /// Returns the *post-increment* counter value, i.e. the value the
    /// precharge logic sees when deciding whether to request an ALERT
    /// (§2.6: "the ALERT signal is ... triggered during the precharge
    /// operation").
    ///
    /// # Errors
    ///
    /// Returns [`DramError::TimingViolation`] if `now` is earlier than
    /// tRC after the previous activation, and [`DramError::RowOutOfRange`]
    /// if `row` is outside the bank.
    #[inline]
    pub fn activate(&mut self, row: RowId, now: Nanos) -> Result<ActCount, DramError> {
        self.check_row(row)?;
        if now < self.next_ready {
            return Err(DramError::TimingViolation {
                earliest: self.next_ready,
                attempted: now,
            });
        }
        self.next_ready = now + self.config.timing.t_rc;
        let c = &mut self.counters[row.as_usize()];
        *c = c.saturating_add(1);
        Ok(ActCount::new(*c))
    }

    /// Earliest time the next ACT may issue.
    #[inline]
    pub fn next_ready(&self) -> Nanos {
        self.next_ready
    }

    /// Hints the cache to load the PRAC counter of `row`. Called by the
    /// batched issue pipeline ahead of the actual
    /// [`activate`](Self::activate); out-of-range rows are ignored (the
    /// activation itself still reports the error).
    #[inline]
    pub fn prefetch_counter(&self, row: RowId) {
        if let Some(c) = self.counters.get(row.as_usize()) {
            crate::hint::prefetch_read(c);
        }
    }

    /// Blocks the bank until `until` (used when the sub-channel is stalled
    /// by an ALERT or a REF occupies the bank).
    pub fn occupy_until(&mut self, until: Nanos) {
        self.next_ready = self.next_ready.max(until);
    }

    /// Reads the in-array PRAC counter of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn counter(&self, row: RowId) -> ActCount {
        ActCount::new(self.counters[row.as_usize()])
    }

    /// Overwrites the PRAC counter of `row` (used for randomized
    /// initialization of Panopticon-style designs, §3.3).
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn set_counter(&mut self, row: RowId, value: ActCount) {
        self.counters[row.as_usize()] = value.get();
    }

    /// Resets the PRAC counter of `row` to zero (e.g. after the extra
    /// activation MOAT spends to clear an aggressor's counter).
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn reset_counter(&mut self, row: RowId) {
        self.counters[row.as_usize()] = 0;
    }

    /// Resets the PRAC counters of every row in `rows` (refresh-time reset).
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the bank.
    pub fn reset_counters_in(&mut self, rows: Range<u32>) {
        self.counters[rows.start as usize..rows.end as usize].fill(0);
    }

    /// Number of rows in the bank.
    pub fn rows(&self) -> u32 {
        self.config.rows_per_bank
    }

    fn check_row(&self, row: RowId) -> Result<(), DramError> {
        if row.index() < self.config.rows_per_bank {
            Ok(())
        } else {
            Err(DramError::RowOutOfRange {
                row,
                rows_per_bank: self.config.rows_per_bank,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DramConfig {
        DramConfig::builder().rows_per_bank(64).build()
    }

    #[test]
    fn activation_increments_counter() {
        let mut b = Bank::new(&small());
        let mut now = Nanos::ZERO;
        for i in 1..=5u32 {
            let c = b.activate(RowId::new(7), now).unwrap();
            assert_eq!(c.get(), i);
            now += b.config().timing.t_rc;
        }
        assert_eq!(b.counter(RowId::new(7)).get(), 5);
    }

    #[test]
    fn trc_is_enforced() {
        let mut b = Bank::new(&small());
        b.activate(RowId::new(0), Nanos::ZERO).unwrap();
        let err = b.activate(RowId::new(1), Nanos::new(51)).unwrap_err();
        assert!(matches!(err, DramError::TimingViolation { .. }));
        assert!(b.activate(RowId::new(1), Nanos::new(52)).is_ok());
    }

    #[test]
    fn row_bounds_checked() {
        let mut b = Bank::new(&small());
        let err = b.activate(RowId::new(64), Nanos::ZERO).unwrap_err();
        assert!(matches!(err, DramError::RowOutOfRange { .. }));
    }

    #[test]
    fn occupy_until_blocks() {
        let mut b = Bank::new(&small());
        b.occupy_until(Nanos::new(1000));
        assert!(b.activate(RowId::new(0), Nanos::new(999)).is_err());
        assert!(b.activate(RowId::new(0), Nanos::new(1000)).is_ok());
    }

    #[test]
    fn counter_reset_operations() {
        let mut b = Bank::new(&small());
        let mut now = Nanos::ZERO;
        for r in 0..16u32 {
            b.activate(RowId::new(r), now).unwrap();
            now += b.config().timing.t_rc;
        }
        b.reset_counter(RowId::new(0));
        assert_eq!(b.counter(RowId::new(0)), ActCount::ZERO);
        b.reset_counters_in(8..16);
        for r in 8..16u32 {
            assert_eq!(b.counter(RowId::new(r)), ActCount::ZERO);
        }
        assert_eq!(b.counter(RowId::new(1)).get(), 1);
    }

    #[test]
    fn set_counter_for_randomized_init() {
        let mut b = Bank::new(&small());
        b.set_counter(RowId::new(3), ActCount::new(200));
        assert_eq!(b.counter(RowId::new(3)).get(), 200);
    }
}
