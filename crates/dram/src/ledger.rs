//! Ground-truth Rowhammer security accounting.
//!
//! The threat model (§2.1) declares an attack successful "when any row
//! receives more than the threshold number of activations without any
//! intervening mitigation or refresh". The ledger tracks, for every *victim*
//! row, the hammer pressure it has absorbed: the number of activations to
//! rows within the blast radius since the victim was last refreshed (by the
//! regular refresh sweep, by a victim-refresh mitigation, or by an RFM).
//!
//! The victim-centric view is the physically meaningful one, and it is what
//! makes the unsafe-reset vulnerability of Fig. 7(a) visible: resetting an
//! aggressor's *counter* at its own refresh does not reset the *pressure* on
//! victims in the next, not-yet-refreshed group.
//!
//! The ledger is maintained by the simulator, outside any mitigation engine,
//! so defenses cannot influence the ground truth they are judged against.

use core::ops::Range;

use crate::config::DramConfig;
use crate::hint::prefetch_read;
use crate::types::RowId;

/// Per-row ledger state, interleaved so one activation touches one run of
/// adjacent cells instead of two parallel arrays. The victim range
/// `row ± blast_radius` plus the aggressor's own epoch then span one or
/// two cache lines rather than three or four — a measurable difference
/// once the row space outgrows the last-level cache.
#[derive(Debug, Clone, Copy, Default)]
struct LedgerCell {
    /// Hammer pressure absorbed as a victim since the last refresh.
    pressure: u32,
    /// Activations as an aggressor since the last mitigation/neighborhood
    /// refresh.
    epoch: u32,
}

/// Per-bank ground-truth hammer-pressure ledger.
///
/// # Examples
///
/// ```
/// use moat_dram::{DramConfig, RowId, SecurityLedger};
///
/// let cfg = DramConfig::builder().rows_per_bank(64).build();
/// let mut ledger = SecurityLedger::new(&cfg);
/// for _ in 0..10 {
///     ledger.on_activate(RowId::new(8));
/// }
/// // Rows 6,7,9,10 have each absorbed 10 activations of pressure.
/// assert_eq!(ledger.pressure(RowId::new(9)), 10);
/// ledger.on_victim_refresh(RowId::new(8)); // mitigate aggressor 8
/// assert_eq!(ledger.pressure(RowId::new(9)), 0);
/// assert_eq!(ledger.max_pressure_ever(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SecurityLedger {
    rows_per_bank: u32,
    blast_radius: u32,
    /// Per-row pressure and epoch, interleaved (see [`LedgerCell`]).
    ///
    /// The *pressure* half tracks hammer pressure per victim row since its
    /// last refresh. The *epoch* half is the aggressor-centric count:
    /// activations of each row since it was last mitigated or since its
    /// neighborhood was covered by the refresh sweep — the paper's
    /// threat-model metric ("any row receives more than the threshold
    /// number of activations without any intervening mitigation or
    /// refresh", §2.1). Unlike victim pressure, the epoch cannot be
    /// inflated by two independent aggressors sharing a victim, which
    /// activation-counting designs inherently do not bound.
    cells: Vec<LedgerCell>,
    /// Highest pressure ever observed on any row (the "max ACTs on attack
    /// row" metric of Figs. 5 and 10).
    max_ever: u32,
    /// Row achieving `max_ever`.
    max_row: RowId,
    /// Highest epoch ever observed.
    max_epoch: u32,
}

impl SecurityLedger {
    /// Creates a ledger for one bank.
    pub fn new(config: &DramConfig) -> Self {
        SecurityLedger {
            rows_per_bank: config.rows_per_bank,
            blast_radius: config.blast_radius,
            cells: vec![LedgerCell::default(); config.rows_per_bank as usize],
            max_ever: 0,
            max_row: RowId::new(0),
            max_epoch: 0,
        }
    }

    /// Records an activation of `row`: every victim within the blast radius
    /// absorbs one unit of pressure, and the row's own epoch advances.
    ///
    /// This is the single hottest ledger operation (once per simulated
    /// ACT). An interior row at blast radius 2 updates one fixed
    /// five-cell window and compares its peak victim pressure with the
    /// all-time maximum once; rows within the radius of a bank edge, and
    /// any other radius, walk the victims one by one.
    #[inline]
    pub fn on_activate(&mut self, row: RowId) {
        let center = row.as_usize();
        let window = match center.checked_sub(2) {
            Some(lo) if self.blast_radius == 2 => self.cells.get_mut(lo..center + 3),
            _ => None,
        };
        let Some([a, b, c, d, e]) = window else {
            return self.on_activate_victim_loop(row);
        };
        a.pressure += 1;
        b.pressure += 1;
        d.pressure += 1;
        e.pressure += 1;
        c.epoch += 1;
        if c.epoch > self.max_epoch {
            self.max_epoch = c.epoch;
        }
        let peak = a.pressure.max(b.pressure).max(d.pressure).max(e.pressure);
        if peak > self.max_ever {
            self.record_peak(center, peak);
        }
    }

    /// Records `peak`, a victim pressure of an activation of row `center`
    /// above every earlier one. The row of record is the first victim in
    /// row order holding it: the one a running maximum with a strict `>`
    /// over ascending victims keeps.
    #[cold]
    #[inline(never)]
    fn record_peak(&mut self, center: usize, peak: u32) {
        let row = [center - 2, center - 1, center + 1, center + 2]
            .into_iter()
            .find(|&v| self.cells[v].pressure == peak)
            .expect("the peak is a victim's pressure");
        self.max_ever = peak;
        self.max_row = RowId::new(row as u32);
    }

    /// [`on_activate`](Self::on_activate) for a row within the blast
    /// radius of a bank edge, or at a radius other than 2: the victims are
    /// walked as two dense index ranges, below and above the aggressor,
    /// with the running maximum folded into the same pass.
    #[cold]
    #[inline(never)]
    fn on_activate_victim_loop(&mut self, row: RowId) {
        let center = row.index();
        let lo = center.saturating_sub(self.blast_radius) as usize;
        let hi = (center + self.blast_radius).min(self.rows_per_bank - 1) as usize;
        let center = center as usize;

        let mut max = self.max_ever;
        let mut max_row = self.max_row;
        for v in lo..center {
            let p = &mut self.cells[v].pressure;
            *p += 1;
            if *p > max {
                max = *p;
                max_row = RowId::new(v as u32);
            }
        }
        for v in (center + 1)..=hi {
            let p = &mut self.cells[v].pressure;
            *p += 1;
            if *p > max {
                max = *p;
                max_row = RowId::new(v as u32);
            }
        }
        self.max_ever = max;
        self.max_row = max_row;

        let e = &mut self.cells[center].epoch;
        *e += 1;
        if *e > self.max_epoch {
            self.max_epoch = *e;
        }
    }

    /// Hints the cache to load the ledger cells
    /// [`on_activate`](Self::on_activate) for `row` will touch. Called by the batched
    /// issue pipeline a few requests ahead of the activation so the loads
    /// overlap; has no observable effect on ledger state.
    #[inline]
    pub fn prefetch(&self, row: RowId) {
        let center = row.index().min(self.rows_per_bank - 1);
        let lo = center.saturating_sub(self.blast_radius) as usize;
        let hi = (center + self.blast_radius).min(self.rows_per_bank - 1) as usize;
        prefetch_read(&self.cells[lo]);
        prefetch_read(&self.cells[hi]);
    }

    /// Records a refresh of every row in `rows` (the regular refresh sweep):
    /// their pressure drops to zero. With the spatially contiguous
    /// ascending sweep, a row's epoch resets once the sweep covers its
    /// *upper* victims (its lower victims were refreshed just before), i.e.
    /// when row `r + blast_radius` is refreshed.
    pub fn on_refresh_rows(&mut self, rows: Range<u32>) {
        for c in &mut self.cells[rows.start as usize..rows.end as usize] {
            c.pressure = 0;
        }
        let lo = rows.start.saturating_sub(self.blast_radius) as usize;
        let hi = rows.end.saturating_sub(self.blast_radius) as usize;
        for c in &mut self.cells[lo..hi] {
            c.epoch = 0;
        }
    }

    /// Records a victim-refresh mitigation of aggressor `row`: all victims
    /// within the blast radius are refreshed and the aggressor's epoch
    /// resets.
    pub fn on_victim_refresh(&mut self, row: RowId) {
        for v in row.victims(self.blast_radius, self.rows_per_bank) {
            self.cells[v.as_usize()].pressure = 0;
        }
        self.cells[row.as_usize()].epoch = 0;
    }

    /// Records a refresh of a single victim row (partial, slot-by-slot
    /// mitigation during REF refreshes one victim at a time).
    pub fn on_refresh_single(&mut self, row: RowId) {
        self.cells[row.as_usize()].pressure = 0;
    }

    /// Current pressure on `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn pressure(&self, row: RowId) -> u32 {
        self.cells[row.as_usize()].pressure
    }

    /// Highest pressure ever observed on any row. A defense tolerating
    /// Rowhammer threshold `T` is secure iff this never exceeds `T`.
    pub fn max_pressure_ever(&self) -> u32 {
        self.max_ever
    }

    /// The row on which [`max_pressure_ever`](Self::max_pressure_ever) was
    /// observed.
    pub fn max_pressure_row(&self) -> RowId {
        self.max_row
    }

    /// Current maximum pressure across all rows (not the historical max).
    pub fn current_max_pressure(&self) -> u32 {
        self.cells.iter().map(|c| c.pressure).max().unwrap_or(0)
    }

    /// Current epoch (activations since last mitigation/neighborhood
    /// refresh) of `row` — the paper's per-aggressor metric.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn epoch(&self, row: RowId) -> u32 {
        self.cells[row.as_usize()].epoch
    }

    /// Highest per-aggressor epoch ever observed — the paper's
    /// threat-model metric (§2.1). For attacks on disjoint row pools this
    /// equals [`max_pressure_ever`](Self::max_pressure_ever); for benign
    /// workloads it is the bound the per-aggressor counters actually
    /// enforce, while victim pressure can be inflated by coincidentally
    /// adjacent hot rows.
    pub fn max_epoch_ever(&self) -> u32 {
        self.max_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> SecurityLedger {
        let cfg = DramConfig::builder().rows_per_bank(64).build();
        SecurityLedger::new(&cfg)
    }

    #[test]
    fn pressure_accumulates_on_victims_only() {
        let mut l = ledger();
        for _ in 0..7 {
            l.on_activate(RowId::new(10));
        }
        assert_eq!(l.pressure(RowId::new(8)), 7);
        assert_eq!(l.pressure(RowId::new(9)), 7);
        assert_eq!(
            l.pressure(RowId::new(10)),
            0,
            "aggressor itself is not a victim"
        );
        assert_eq!(l.pressure(RowId::new(11)), 7);
        assert_eq!(l.pressure(RowId::new(12)), 7);
        assert_eq!(l.pressure(RowId::new(13)), 0);
    }

    #[test]
    fn double_sided_pressure_sums() {
        let mut l = ledger();
        for _ in 0..5 {
            l.on_activate(RowId::new(10));
            l.on_activate(RowId::new(12));
        }
        // Row 11 is within radius of both aggressors.
        assert_eq!(l.pressure(RowId::new(11)), 10);
        assert_eq!(l.max_pressure_ever(), 10);
        assert_eq!(l.max_pressure_row(), RowId::new(11));
    }

    #[test]
    fn refresh_clears_pressure_but_not_history() {
        let mut l = ledger();
        for _ in 0..9 {
            l.on_activate(RowId::new(20));
        }
        l.on_refresh_rows(16..24);
        assert_eq!(l.pressure(RowId::new(21)), 0);
        assert_eq!(l.max_pressure_ever(), 9);
        assert_eq!(l.current_max_pressure(), 0);
    }

    #[test]
    fn victim_refresh_mitigates_aggressor() {
        let mut l = ledger();
        for _ in 0..3 {
            l.on_activate(RowId::new(5));
        }
        l.on_victim_refresh(RowId::new(5));
        for v in [3u32, 4, 6, 7] {
            assert_eq!(l.pressure(RowId::new(v)), 0);
        }
    }

    #[test]
    fn single_victim_refresh_is_partial() {
        let mut l = ledger();
        for _ in 0..3 {
            l.on_activate(RowId::new(5));
        }
        l.on_refresh_single(RowId::new(6));
        assert_eq!(l.pressure(RowId::new(6)), 0);
        assert_eq!(
            l.pressure(RowId::new(4)),
            3,
            "other victims still pressured"
        );
    }

    #[test]
    fn epoch_counts_aggressor_acts() {
        let mut l = ledger();
        for _ in 0..7 {
            l.on_activate(RowId::new(10));
        }
        assert_eq!(l.epoch(RowId::new(10)), 7);
        assert_eq!(l.epoch(RowId::new(11)), 0, "victims have no epoch");
        assert_eq!(l.max_epoch_ever(), 7);
    }

    #[test]
    fn epoch_resets_on_mitigation() {
        let mut l = ledger();
        for _ in 0..5 {
            l.on_activate(RowId::new(10));
        }
        l.on_victim_refresh(RowId::new(10));
        assert_eq!(l.epoch(RowId::new(10)), 0);
        assert_eq!(l.max_epoch_ever(), 5);
    }

    #[test]
    fn epoch_resets_when_sweep_covers_upper_victims() {
        let mut l = ledger();
        for _ in 0..5 {
            l.on_activate(RowId::new(10));
        }
        // Refreshing rows 8..16 covers row 10's upper victims (11, 12):
        // with radius 2, epochs of rows 6..14 reset.
        l.on_refresh_rows(8..16);
        assert_eq!(l.epoch(RowId::new(10)), 0);
        // Row 13's upper victim 15 is covered: epoch resets.
        for _ in 0..3 {
            l.on_activate(RowId::new(13));
        }
        l.on_refresh_rows(8..16);
        assert_eq!(l.epoch(RowId::new(13)), 0);
        // Row 14's upper victim 16 is NOT covered: epoch persists.
        for _ in 0..3 {
            l.on_activate(RowId::new(14));
        }
        l.on_refresh_rows(8..16);
        assert_eq!(l.epoch(RowId::new(14)), 3, "victim 16 still unrefreshed");
    }

    #[test]
    fn epoch_vs_pressure_for_adjacent_aggressors() {
        // Two aggressors flanking one victim: pressure sums, epochs do not
        // (the activation-counting design bound is per-aggressor).
        let mut l = ledger();
        for _ in 0..50 {
            l.on_activate(RowId::new(10));
            l.on_activate(RowId::new(12));
        }
        assert_eq!(l.pressure(RowId::new(11)), 100);
        assert_eq!(l.max_epoch_ever(), 50);
    }

    #[test]
    fn edge_rows_have_fewer_victims() {
        let mut l = ledger();
        l.on_activate(RowId::new(0));
        assert_eq!(l.pressure(RowId::new(1)), 1);
        assert_eq!(l.pressure(RowId::new(2)), 1);
        // No underflow / wraparound below row 0.
        assert_eq!(l.current_max_pressure(), 1);
    }
}
