//! tFAW enforcement: the DDR rolling four-activation window.
//!
//! DDR5 permits at most four ACTs to a rank within any tFAW window. The
//! paper invokes this limit only to cap the TSA attack at 17 concurrently
//! staggered banks (§7.3); tFAW is not part of Table 1, so the default
//! simulators do not enforce it (neither `PerfSim` nor `SecuritySim`
//! calls this tracker) and it is provided for users who want rank-level
//! fidelity.

use std::collections::VecDeque;

use moat_dram::Nanos;

/// A rolling-window tracker for the four-activation rule.
///
/// # Examples
///
/// ```
/// use moat_dram::Nanos;
/// use moat_sim::FawTracker;
///
/// let mut faw = FawTracker::new(Nanos::new(708)); // 4-ACT window
/// for i in 0..4 {
///     let t = faw.earliest(Nanos::new(i * 52));
///     faw.record(t);
/// }
/// // The fifth ACT must wait for the window to roll past the first:
/// assert_eq!(faw.earliest(Nanos::new(208)), Nanos::new(708));
/// ```
#[derive(Debug, Clone)]
pub struct FawTracker {
    t_faw: Nanos,
    /// Times of the most recent activations (at most four retained).
    recent: VecDeque<Nanos>,
}

impl FawTracker {
    /// A representative DDR5 tFAW for 8 KiB rows: 35 ns.
    pub fn ddr5_default() -> Self {
        Self::new(Nanos::new(35))
    }

    /// Creates a tracker with the given window.
    pub fn new(t_faw: Nanos) -> Self {
        FawTracker {
            t_faw,
            recent: VecDeque::with_capacity(4),
        }
    }

    /// The earliest time an ACT may issue at or after `now`.
    pub fn earliest(&self, now: Nanos) -> Nanos {
        if self.recent.len() < 4 {
            return now;
        }
        let oldest = self.recent[0];
        now.max(oldest + self.t_faw)
    }

    /// Records an ACT at `t` (must respect [`earliest`](Self::earliest)).
    pub fn record(&mut self, t: Nanos) {
        debug_assert!(t >= self.earliest(t), "tFAW violated");
        if self.recent.len() == 4 {
            self.recent.pop_front();
        }
        self.recent.push_back(t);
    }

    /// The maximum sustained activation rate in ACTs per second.
    pub fn max_rate_per_sec(&self) -> f64 {
        4.0 / self.t_faw.as_u64() as f64 * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_acts_pass_freely() {
        let mut f = FawTracker::new(Nanos::new(708));
        for i in 0..4u64 {
            let t = Nanos::new(i * 52);
            assert_eq!(f.earliest(t), t);
            f.record(t);
        }
    }

    #[test]
    fn fifth_act_waits_for_window() {
        let mut f = FawTracker::new(Nanos::new(708));
        for i in 0..4u64 {
            f.record(Nanos::new(i * 52));
        }
        assert_eq!(f.earliest(Nanos::new(208)), Nanos::new(708));
        f.record(Nanos::new(708));
        // Window now anchored at t=52.
        assert_eq!(f.earliest(Nanos::new(709)), Nanos::new(52 + 708));
    }

    #[test]
    fn sparse_traffic_never_blocked() {
        let mut f = FawTracker::ddr5_default();
        let mut t = Nanos::ZERO;
        for _ in 0..20 {
            assert_eq!(f.earliest(t), t);
            f.record(t);
            t += Nanos::new(1000);
        }
    }

    #[test]
    fn rate_math() {
        let f = FawTracker::ddr5_default();
        // 4 ACTs per 35 ns ≈ 114 M ACT/s per rank.
        assert!((1.1e8..1.2e8).contains(&f.max_rate_per_sec()));
        // Single-bank hammering (1/tRC ≈ 19.2 M/s) never trips it.
        assert!(f.max_rate_per_sec() > 1e9 / 52.0);
    }
}
