//! MOAT configuration: the dual thresholds and the ABO level.

use moat_dram::AboLevel;

/// Configuration of a MOAT engine (§4).
///
/// MOAT uses two internal thresholds:
///
/// * **ETH** (Eligibility Threshold) — a row must reach this count to be
///   considered for proactive mitigation during REF. ETH reduces the energy
///   spent on mitigating cold rows (§6.4; default ATH/2).
/// * **ATH** (ALERT Threshold) — a row crossing this count triggers an
///   ALERT for reactive mitigation. ATH determines the tolerated Rowhammer
///   threshold (§4.4, §5.3).
///
/// # Examples
///
/// ```
/// use moat_core::MoatConfig;
///
/// let cfg = MoatConfig::with_ath(64); // paper default: ETH = ATH/2
/// assert_eq!(cfg.eth, 32);
/// assert_eq!(cfg.level.as_u8(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoatConfig {
    /// ALERT threshold (paper default 64).
    pub ath: u32,
    /// Eligibility threshold (paper default ATH/2 = 32).
    pub eth: u32,
    /// ABO mitigation level; MOAT-L tracks `level` entries (Appendix D).
    pub level: AboLevel,
    /// Counter-reset policy on refresh (§4.3 / Fig. 7).
    pub reset_policy: ResetPolicy,
}

/// What happens to PRAC counters when their rows are refreshed (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResetPolicy {
    /// Safe reset (§4.3): counters reset, but the trailing rows of the
    /// refreshed group are replicated into SRAM shadow counters first.
    #[default]
    Safe,
    /// Unsafe reset (Fig. 7a): counters reset with no shadow — vulnerable
    /// to straddling attacks that double the tolerated threshold.
    Unsafe,
    /// No reset: counters free-run (Panopticon-style).
    None,
}

impl MoatConfig {
    /// The paper's default configuration: ATH = 64, ETH = 32, level 1,
    /// safe reset (§6.1).
    pub const fn paper_default() -> Self {
        MoatConfig {
            ath: 64,
            eth: 32,
            level: AboLevel::L1,
            reset_policy: ResetPolicy::Safe,
        }
    }

    /// A configuration with the given ATH and the paper's ETH = ATH/2 rule.
    pub const fn with_ath(ath: u32) -> Self {
        MoatConfig {
            ath,
            eth: ath / 2,
            level: AboLevel::L1,
            reset_policy: ResetPolicy::Safe,
        }
    }

    /// Sets the eligibility threshold.
    #[must_use]
    pub const fn eth(mut self, eth: u32) -> Self {
        self.eth = eth;
        self
    }

    /// Sets the ABO level (MOAT-L2 / MOAT-L4, Appendix D).
    #[must_use]
    pub const fn level(mut self, level: AboLevel) -> Self {
        self.level = level;
        self
    }

    /// Sets the counter reset policy.
    #[must_use]
    pub const fn reset_policy(mut self, policy: ResetPolicy) -> Self {
        self.reset_policy = policy;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `eth > ath` or `ath == 0`.
    pub fn validate(&self) {
        assert!(self.ath > 0, "ATH must be non-zero");
        assert!(
            self.eth <= self.ath,
            "ETH ({}) must not exceed ATH ({})",
            self.eth,
            self.ath
        );
    }

    /// Number of tracker entries: the ABO level `L` (a single CTA for the
    /// default MOAT-L1).
    pub const fn tracker_entries(&self) -> usize {
        self.level.as_u8() as usize
    }
}

impl Default for MoatConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_ath64_eth32_l1() {
        let c = MoatConfig::paper_default();
        assert_eq!(c.ath, 64);
        assert_eq!(c.eth, 32);
        assert_eq!(c.level, AboLevel::L1);
        assert_eq!(c.tracker_entries(), 1);
        assert_eq!(c.reset_policy, ResetPolicy::Safe);
        c.validate();
    }

    #[test]
    fn with_ath_halves_eth() {
        assert_eq!(MoatConfig::with_ath(128).eth, 64);
        assert_eq!(MoatConfig::with_ath(32).eth, 16);
    }

    #[test]
    fn builder_style_setters() {
        let c = MoatConfig::with_ath(64)
            .eth(48)
            .level(AboLevel::L4)
            .reset_policy(ResetPolicy::None);
        assert_eq!(c.eth, 48);
        assert_eq!(c.tracker_entries(), 4);
        assert_eq!(c.reset_policy, ResetPolicy::None);
    }

    #[test]
    #[should_panic(expected = "must not exceed ATH")]
    fn validate_rejects_eth_above_ath() {
        MoatConfig::with_ath(64).eth(65).validate();
    }
}
