//! The ALERT Back-Off (ABO) protocol state machine (§2.6, Fig. 2, Fig. 8).
//!
//! When the DRAM asserts ALERT, the memory controller may continue normal
//! operation for 180 ns, then must stall the sub-channel and issue `L` RFM
//! commands (350 ns each), where `L` is the *ABO mitigation level* (MR71
//! op[1:0], legal values 1, 2, 4). The specification also mandates a minimum
//! of `L` activations between consecutive ALERT assertions — the slack the
//! Ratchet attack (§5) exploits.

use core::fmt;

use crate::error::DramError;
use crate::timing::DramTiming;
use crate::types::Nanos;

/// The ABO mitigation level (MR71 op\[1:0\]); JEDEC legal values are 1, 2, 4.
///
/// The level determines both the number of RFMs issued per ALERT and the
/// minimum number of activations between consecutive ALERTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AboLevel {
    /// One RFM per ALERT (tALERT = 530 ns) — MOAT's default (§6.1).
    #[default]
    L1,
    /// Two RFMs per ALERT.
    L2,
    /// Four RFMs per ALERT (tALERT = 1580 ns).
    L4,
}

impl AboLevel {
    /// All legal levels, in increasing order.
    pub const ALL: [AboLevel; 3] = [AboLevel::L1, AboLevel::L2, AboLevel::L4];

    /// The numeric level `L` (number of RFMs; min inter-ALERT ACTs).
    pub const fn as_u8(self) -> u8 {
        match self {
            AboLevel::L1 => 1,
            AboLevel::L2 => 2,
            AboLevel::L4 => 4,
        }
    }

    /// Parses a numeric level.
    ///
    /// # Errors
    ///
    /// Returns `None` for values other than 1, 2, or 4 (the JEDEC legal
    /// values).
    pub const fn from_u8(level: u8) -> Option<AboLevel> {
        match level {
            1 => Some(AboLevel::L1),
            2 => Some(AboLevel::L2),
            4 => Some(AboLevel::L4),
            _ => None,
        }
    }
}

impl fmt::Display for AboLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.as_u8())
    }
}

/// Where the protocol currently is within an ALERT episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AboPhase {
    /// No ALERT in progress.
    Idle,
    /// ALERT asserted; normal operation permitted until `stall_at`.
    ActWindow {
        /// Time at which the controller must stop normal operations.
        stall_at: Nanos,
    },
    /// RFM phase: the sub-channel is stalled.
    Rfm {
        /// RFMs still to issue (including any in flight).
        remaining: u8,
        /// Completion time of the RFM currently executing.
        busy_until: Nanos,
    },
}

/// The ABO protocol state machine for one sub-channel.
///
/// # Examples
///
/// ```
/// use moat_dram::{AboLevel, AboProtocol, DramTiming, Nanos};
///
/// let timing = DramTiming::ddr5_prac();
/// let mut abo = AboProtocol::new(AboLevel::L1, timing);
/// assert!(abo.can_assert());
/// let stall_at = abo.assert_alert(Nanos::ZERO)?;
/// assert_eq!(stall_at, Nanos::new(180));
/// let done = abo.start_rfm(stall_at)?;
/// assert_eq!(done, Nanos::new(530)); // tALERT for level 1
/// // A fresh ALERT now needs 1 activation first (level-1 spacing):
/// assert!(!abo.can_assert());
/// abo.on_act();
/// assert!(abo.can_assert());
/// # Ok::<(), moat_dram::DramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AboProtocol {
    level: AboLevel,
    timing: DramTiming,
    phase: AboPhase,
    /// Activations since the last ALERT episode completed.
    acts_since_episode: u64,
    /// Whether any ALERT has completed yet (the spacing rule only binds
    /// between consecutive ALERTs).
    had_episode: bool,
    alerts: u64,
    rfms: u64,
}

impl AboProtocol {
    /// Creates an idle protocol instance.
    pub fn new(level: AboLevel, timing: DramTiming) -> Self {
        AboProtocol {
            level,
            timing,
            phase: AboPhase::Idle,
            acts_since_episode: 0,
            had_episode: false,
            alerts: 0,
            rfms: 0,
        }
    }

    /// The configured mitigation level.
    pub fn level(&self) -> AboLevel {
        self.level
    }

    /// Current protocol phase.
    pub fn phase(&self) -> AboPhase {
        self.phase
    }

    /// Total ALERTs asserted.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }

    /// Total RFMs issued.
    pub fn rfms(&self) -> u64 {
        self.rfms
    }

    /// Activations recorded since the last ALERT episode completed.
    pub fn acts_since_episode(&self) -> u64 {
        self.acts_since_episode
    }

    /// Records a normal activation on the sub-channel (used to satisfy the
    /// minimum inter-ALERT activation rule). Saturating: a counter pinned
    /// at `u64::MAX` keeps satisfying the spacing rule instead of wrapping
    /// to zero and spuriously blocking ALERTs.
    pub fn on_act(&mut self) {
        self.acts_since_episode = self.acts_since_episode.saturating_add(1);
    }

    /// Records `n` activations at once — the batched form of
    /// [`on_act`](Self::on_act) used when a whole event-free run of ACTs
    /// is issued in one step. Saturating like `on_act`.
    pub fn on_acts(&mut self, n: u64) {
        self.acts_since_episode = self.acts_since_episode.saturating_add(n);
    }

    /// Whether an ALERT may be asserted now: the protocol must be idle and,
    /// if an ALERT episode has already completed, at least `L` activations
    /// must have occurred since.
    pub fn can_assert(&self) -> bool {
        matches!(self.phase, AboPhase::Idle)
            && (!self.had_episode || self.acts_since_episode >= u64::from(self.level.as_u8()))
    }

    /// Asserts ALERT at `now`. Returns the time at which the controller
    /// must stall (now + 180 ns).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AlertNotPermitted`] if
    /// [`can_assert`](Self::can_assert) is false.
    pub fn assert_alert(&mut self, now: Nanos) -> Result<Nanos, DramError> {
        if !self.can_assert() {
            return Err(DramError::AlertNotPermitted);
        }
        let stall_at = now + self.timing.t_abo_act_window;
        self.phase = AboPhase::ActWindow { stall_at };
        self.alerts = self.alerts.saturating_add(1);
        Ok(stall_at)
    }

    /// Executes the entire RFM phase of the current episode as one
    /// arithmetic step: `L` back-to-back RFMs starting at `now`. Returns
    /// the completion time, `now + L·tRFM` — exactly what chaining `L`
    /// [`start_rfm`](Self::start_rfm) calls from `now` would return, with
    /// identical end state (idle, spacing counter reset, totals bumped).
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AlertNotPermitted`] unless the protocol is in
    /// the activity window of an episode and the window has elapsed
    /// (`now ≥ stall_at`). A partially drained RFM phase must be finished
    /// with `start_rfm`.
    pub fn complete_episode(&mut self, now: Nanos) -> Result<Nanos, DramError> {
        match self.phase {
            AboPhase::ActWindow { stall_at } if now >= stall_at => {
                let rfms = u64::from(self.level.as_u8());
                self.rfms = self.rfms.saturating_add(rfms);
                self.phase = AboPhase::Idle;
                self.had_episode = true;
                self.acts_since_episode = 0;
                Ok(now + self.timing.t_rfm * rfms)
            }
            _ => Err(DramError::AlertNotPermitted),
        }
    }

    /// Issues the next RFM at `now`. Returns its completion time. When the
    /// final RFM completes, the protocol returns to idle and the
    /// inter-ALERT activation counter resets.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AlertNotPermitted`] if no ALERT is in progress,
    /// if the activity window has not yet elapsed, or if the previous RFM
    /// is still executing.
    pub fn start_rfm(&mut self, now: Nanos) -> Result<Nanos, DramError> {
        let remaining = match self.phase {
            AboPhase::ActWindow { stall_at } => {
                if now < stall_at {
                    return Err(DramError::AlertNotPermitted);
                }
                self.level.as_u8()
            }
            AboPhase::Rfm {
                remaining,
                busy_until,
            } => {
                if remaining == 0 || now < busy_until {
                    return Err(DramError::AlertNotPermitted);
                }
                remaining
            }
            AboPhase::Idle => return Err(DramError::AlertNotPermitted),
        };
        let busy_until = now + self.timing.t_rfm;
        self.rfms = self.rfms.saturating_add(1);
        let remaining = remaining - 1;
        if remaining == 0 {
            // Episode completes when this RFM finishes; record it now so the
            // caller can simply advance the clock to `busy_until`.
            self.phase = AboPhase::Idle;
            self.had_episode = true;
            self.acts_since_episode = 0;
        } else {
            self.phase = AboPhase::Rfm {
                remaining,
                busy_until,
            };
        }
        Ok(busy_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abo(level: AboLevel) -> AboProtocol {
        AboProtocol::new(level, DramTiming::ddr5_prac())
    }

    #[test]
    fn level_roundtrip() {
        for l in AboLevel::ALL {
            assert_eq!(AboLevel::from_u8(l.as_u8()), Some(l));
        }
        assert_eq!(AboLevel::from_u8(3), None);
        assert_eq!(AboLevel::from_u8(0), None);
        assert_eq!(AboLevel::L4.to_string(), "L4");
    }

    #[test]
    fn level1_episode_is_530ns() {
        let mut a = abo(AboLevel::L1);
        let stall = a.assert_alert(Nanos::new(1000)).unwrap();
        assert_eq!(stall, Nanos::new(1180));
        let done = a.start_rfm(stall).unwrap();
        assert_eq!(done, Nanos::new(1530));
        assert_eq!(a.phase(), AboPhase::Idle);
        assert_eq!(a.alerts(), 1);
        assert_eq!(a.rfms(), 1);
    }

    #[test]
    fn level4_issues_four_rfms() {
        let mut a = abo(AboLevel::L4);
        let stall = a.assert_alert(Nanos::ZERO).unwrap();
        let mut t = stall;
        for i in 0..4 {
            t = a.start_rfm(t).unwrap();
            if i < 3 {
                assert!(matches!(a.phase(), AboPhase::Rfm { .. }));
            }
        }
        assert_eq!(t, Nanos::new(180 + 4 * 350));
        assert_eq!(a.phase(), AboPhase::Idle);
        assert_eq!(a.rfms(), 4);
    }

    #[test]
    fn rfm_cannot_start_during_act_window() {
        let mut a = abo(AboLevel::L1);
        let stall = a.assert_alert(Nanos::ZERO).unwrap();
        assert!(a.start_rfm(stall - Nanos::new(1)).is_err());
        assert!(a.start_rfm(stall).is_ok());
    }

    #[test]
    fn inter_alert_spacing_enforced() {
        for level in AboLevel::ALL {
            let mut a = abo(level);
            let stall = a.assert_alert(Nanos::ZERO).unwrap();
            let mut t = stall;
            for _ in 0..level.as_u8() {
                t = a.start_rfm(t).unwrap();
            }
            // Immediately re-asserting is forbidden.
            assert!(!a.can_assert());
            assert!(a.assert_alert(t).is_err());
            // After L activations it becomes legal again.
            for _ in 0..level.as_u8() {
                assert!(!a.can_assert() || level.as_u8() == 0);
                a.on_act();
            }
            assert!(a.can_assert(), "level {level} should allow after L acts");
        }
    }

    #[test]
    fn first_alert_needs_no_prior_acts() {
        let mut a = abo(AboLevel::L4);
        assert!(a.can_assert());
        assert!(a.assert_alert(Nanos::ZERO).is_ok());
    }

    #[test]
    fn double_assert_rejected() {
        let mut a = abo(AboLevel::L1);
        a.assert_alert(Nanos::ZERO).unwrap();
        assert!(a.assert_alert(Nanos::new(10)).is_err());
    }

    #[test]
    fn rfm_without_alert_rejected() {
        let mut a = abo(AboLevel::L1);
        assert!(a.start_rfm(Nanos::ZERO).is_err());
    }

    #[test]
    fn complete_episode_matches_stepped_rfms() {
        // The flattened episode is bit-identical to chaining L start_rfm
        // calls: same completion time, same end state, same totals.
        for level in AboLevel::ALL {
            let mut stepped = abo(level);
            let mut flat = abo(level);
            for episode in 0..3u64 {
                let at = Nanos::new(10_000 * (episode + 1));
                let stall_s = stepped.assert_alert(at).unwrap();
                let stall_f = flat.assert_alert(at).unwrap();
                assert_eq!(stall_s, stall_f);
                let mut t = stall_s;
                for _ in 0..level.as_u8() {
                    t = stepped.start_rfm(t).unwrap();
                }
                let done = flat.complete_episode(stall_f).unwrap();
                assert_eq!(done, t, "level {level}, episode {episode}");
                assert_eq!(flat.phase(), stepped.phase());
                assert_eq!(flat.rfms(), stepped.rfms());
                assert_eq!(flat.acts_since_episode(), stepped.acts_since_episode());
                for _ in 0..level.as_u8() {
                    stepped.on_act();
                    flat.on_act();
                }
            }
        }
    }

    #[test]
    fn complete_episode_requires_closed_window() {
        let mut a = abo(AboLevel::L4);
        assert!(a.complete_episode(Nanos::ZERO).is_err(), "idle");
        let stall = a.assert_alert(Nanos::ZERO).unwrap();
        assert!(
            a.complete_episode(stall - Nanos::new(1)).is_err(),
            "window still open"
        );
        // A partially drained RFM phase must be finished per-step.
        let t = a.start_rfm(stall).unwrap();
        assert!(a.complete_episode(t).is_err(), "mid-RFM");
    }

    #[test]
    fn act_counter_saturates_instead_of_wrapping() {
        // Regression: a multi-hour virtual-time run keeps calling on_act /
        // on_acts; the spacing counter must pin at u64::MAX rather than
        // wrap to zero (which would spuriously forbid the next ALERT).
        let mut a = abo(AboLevel::L4);
        let stall = a.assert_alert(Nanos::ZERO).unwrap();
        a.complete_episode(stall).unwrap();
        a.on_acts(u64::MAX);
        assert!(a.can_assert());
        a.on_act(); // would wrap to 0 without saturation
        a.on_acts(u64::MAX);
        assert!(a.can_assert(), "saturated counter keeps satisfying spacing");
        assert_eq!(a.acts_since_episode(), u64::MAX);
    }

    #[test]
    fn episode_totals_accumulate_across_many_episodes() {
        // The alerts/rfms totals ride saturating adds; drive enough
        // episodes through both the stepped and flattened paths to pin
        // the accounting (one alert, L RFMs each).
        let mut a = abo(AboLevel::L2);
        let mut now = Nanos::ZERO;
        for i in 0..10_000u64 {
            let stall = a.assert_alert(now).unwrap();
            now = if i % 2 == 0 {
                a.complete_episode(stall).unwrap()
            } else {
                let t = a.start_rfm(stall).unwrap();
                a.start_rfm(t).unwrap()
            };
            a.on_acts(2);
            now += Nanos::new(104);
        }
        assert_eq!(a.alerts(), 10_000);
        assert_eq!(a.rfms(), 20_000);
    }
}
