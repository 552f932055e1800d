//! # moat-guard — counter-integrity guard for the MOAT reproduction
//!
//! The fault layer (`moat-faults`) measures how injected tracker-state
//! corruption breaks the engines'
//! [`min_acts_to_alert`](moat_dram::MitigationEngine::min_acts_to_alert)
//! horizon; this crate closes the detect→recover loop, the way real PRAC
//! deployments protect counter reads with ECC and scrubbing:
//!
//! * [`RecoveryPlan`] — the policy: scrub cadence and whether detection
//!   triggers the conservative fallback. Armable from the
//!   [`MOAT_RECOVERY`](RecoveryPlan::ENV_VAR) environment variable.
//! * [`EngineGuard`] — the [`GuardHook`] implementation the security
//!   simulator threads through its loops. At every event-horizon
//!   boundary (immediately *after* the fault hook's injection point) it
//!   runs the engine's parity/ECC
//!   [`integrity_check`](moat_dram::MitigationEngine::integrity_check);
//!   repaired state (Panopticon tags, lost ALERT latches) is restored
//!   exactly, while detect-only corruption (MOAT counts — a parity byte
//!   cannot reconstruct the value) marks the row untrusted. With the
//!   fallback enabled, every untrusted row is force-mitigated on the
//!   spot — victims refreshed, counter reset to a trusted zero — so the
//!   horizon promise computed at that same boundary is sound again. On
//!   the plan's cadence, a **scrub** pass resyncs every tracked count
//!   against the authoritative in-array counters and closes the episode.
//! * [`RecoveryStats`] — the recovery telemetry: detections, repairs,
//!   fallback mitigations, scrubs, and time-to-resync.
//!
//! Determinism: the guard draws no randomness at all — its behaviour is
//! a pure function of the observed engine state and the plan — so a
//! guarded run replays bit-identically, and a disarmed guard
//! ([`NoGuard`](moat_sim::NoGuard)) constant-folds to the unguarded
//! loops (pinned by proptest in `tests/recovery_equivalence.rs`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use moat_dram::{MitigationEngine, Nanos};
use moat_sim::{BankUnit, GuardHook};

/// A recovery policy: how often to scrub, and whether detection triggers
/// the conservative fallback.
///
/// The plan is pure data: two guarded simulations under equal plans (and
/// equal inputs) produce bit-identical trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Scrub cadence in nanoseconds of simulated time: every
    /// `scrub_interval_ns` the tracker is resynced against the
    /// authoritative in-array counters. `0` disables scrubbing (the
    /// guard still detects and, if enabled, falls back).
    pub scrub_interval_ns: u64,
    /// Whether a row whose tracked count is untrusted is force-mitigated
    /// at the detecting boundary (victims refreshed, counter reset to a
    /// trusted zero) instead of waiting for the next scrub.
    pub fallback: bool,
}

impl RecoveryPlan {
    /// The environment variable [`from_env`](Self::from_env) reads.
    pub const ENV_VAR: &'static str = "MOAT_RECOVERY";

    /// Detect-only: no scrub, no fallback. Corruption is counted but
    /// never repaired beyond what the engine's own ECC shadow restores.
    pub fn detect_only() -> Self {
        RecoveryPlan {
            scrub_interval_ns: 0,
            fallback: false,
        }
    }

    /// The full recovery policy the headline measurement uses: a 500 µs
    /// scrub cadence plus the on-detection conservative fallback.
    pub fn full() -> Self {
        RecoveryPlan {
            scrub_interval_ns: 500_000,
            fallback: true,
        }
    }

    /// A scrub-only policy at `interval_ns` cadence (no fallback).
    pub fn scrub_every(interval_ns: u64) -> Self {
        RecoveryPlan {
            scrub_interval_ns: interval_ns,
            fallback: false,
        }
    }

    /// Parses a plan from a `key=value` list, e.g.
    /// `scrub=500000,fallback=on`. Unspecified fields default to
    /// [`detect_only`](Self::detect_only); underscores and dashes in
    /// keys are interchangeable.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending token.
    pub fn parse(spec: &str) -> Result<RecoveryPlan, String> {
        let mut plan = RecoveryPlan::detect_only();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("recovery spec token `{token}` is not key=value"))?;
            let key = key.trim().replace('-', "_");
            let value = value.trim();
            match key.as_str() {
                "scrub" => {
                    plan.scrub_interval_ns = value
                        .parse()
                        .map_err(|e| format!("scrub interval `{value}`: {e}"))?;
                }
                "fallback" => {
                    plan.fallback = match value {
                        "on" => true,
                        "off" => false,
                        _ => return Err(format!("fallback `{value}` must be `on` or `off`")),
                    };
                }
                _ => return Err(format!("unknown recovery spec key `{key}`")),
            }
        }
        Ok(plan)
    }

    /// The plan armed via the [`MOAT_RECOVERY`](Self::ENV_VAR)
    /// environment variable: `None` when unset or empty.
    ///
    /// # Errors
    ///
    /// Propagates [`parse`](Self::parse) errors on a malformed value.
    pub fn from_env() -> Result<Option<RecoveryPlan>, String> {
        match std::env::var(Self::ENV_VAR) {
            Ok(spec) if spec.trim().is_empty() => Ok(None),
            Ok(spec) => Self::parse(&spec).map(Some),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(_)) => {
                Err(format!("{} is set but not valid Unicode", Self::ENV_VAR))
            }
        }
    }
}

impl fmt::Display for RecoveryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrub={},fallback={}",
            self.scrub_interval_ns,
            if self.fallback { "on" } else { "off" }
        )
    }
}

/// What an [`EngineGuard`] actually did to a simulation — the recovery
/// telemetry the `repro recover` sweep renders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Boundary integrity checks performed.
    pub checks: u64,
    /// Checks that found at least one mismatch.
    pub detections: u64,
    /// Total mismatched slots/latches across all checks.
    pub detected: u64,
    /// Mismatches restored exactly from the engine's shadow (ECC-repair:
    /// Panopticon tags, lost ALERT latches).
    pub repaired: u64,
    /// Conservative fallback mitigations issued for untrusted rows.
    pub fallback_mitigations: u64,
    /// Scrub passes performed.
    pub scrubs: u64,
    /// Tracker slots a scrub corrected against the in-array counters.
    pub scrub_corrections: u64,
    /// Closed corruption episodes (first detection → full resync).
    pub resync_episodes: u64,
    /// Summed time-to-resync over closed episodes, in simulated ns.
    pub resync_ns_total: u64,
    /// An episode still open at the end of the run: corruption was
    /// detected after the last scrub (or scrubbing is disabled) and its
    /// resync never happened. Residual risk the table must surface.
    pub open_since: Option<Nanos>,
}

impl RecoveryStats {
    /// Mean time-to-resync over closed episodes, in simulated ns
    /// (`None` when no episode ever closed).
    pub fn mean_resync_ns(&self) -> Option<u64> {
        (self.resync_episodes > 0).then(|| self.resync_ns_total / self.resync_episodes)
    }

    /// Records these stats as counters (and one histogram observation per
    /// closed resync episode's mean) under `prefix` in a telemetry
    /// [`MetricsRegistry`](moat_telemetry::MetricsRegistry). Purely additive, so registries recorded from
    /// different shards merge deterministically regardless of order.
    pub fn record_metrics(&self, prefix: &str, reg: &mut moat_telemetry::MetricsRegistry) {
        reg.add(&format!("{prefix}.checks"), self.checks);
        reg.add(&format!("{prefix}.detections"), self.detections);
        reg.add(&format!("{prefix}.detected"), self.detected);
        reg.add(&format!("{prefix}.repaired"), self.repaired);
        reg.add(
            &format!("{prefix}.fallback_mitigations"),
            self.fallback_mitigations,
        );
        reg.add(&format!("{prefix}.scrubs"), self.scrubs);
        reg.add(
            &format!("{prefix}.scrub_corrections"),
            self.scrub_corrections,
        );
        reg.add(&format!("{prefix}.resync_episodes"), self.resync_episodes);
        if let Some(mean) = self.mean_resync_ns() {
            reg.observe(&format!("{prefix}.resync_ns"), mean);
        }
        if self.open_since.is_some() {
            reg.add(&format!("{prefix}.open_episodes"), 1);
        }
    }
}

/// The [`GuardHook`] implementation: boundary integrity checks, the
/// conservative fallback, and cadenced scrubbing, per a [`RecoveryPlan`].
///
/// The engine must be armed (see
/// [`MitigationEngine::guard_arm`]) **before** the run starts;
/// [`EngineGuard::arm`] does it through the unit. Arming mid-run would
/// baseline already-injected corruption into the shadow.
#[derive(Debug, Clone)]
pub struct EngineGuard {
    plan: RecoveryPlan,
    /// Next scrub deadline; anchored at the first observed boundary.
    next_scrub: Option<Nanos>,
    /// Untrusted (detect-only) corruption is outstanding: only a scrub
    /// closes the episode.
    dirty: bool,
    stats: RecoveryStats,
}

impl EngineGuard {
    /// Creates a guard executing `plan`.
    pub fn new(plan: RecoveryPlan) -> Self {
        EngineGuard {
            plan,
            next_scrub: None,
            dirty: false,
            stats: RecoveryStats::default(),
        }
    }

    /// The plan this guard executes.
    pub fn plan(&self) -> &RecoveryPlan {
        &self.plan
    }

    /// What has been detected and repaired so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Arms the engine's integrity shadow. Call once, before the run —
    /// the shadow baselines the current (trusted) state.
    pub fn arm<E: MitigationEngine>(&self, unit: &mut BankUnit<E>) -> bool {
        unit.engine_mut().guard_arm()
    }
}

impl GuardHook for EngineGuard {
    const ARMED: bool = true;

    fn at_boundary<E: MitigationEngine>(&mut self, now: Nanos, unit: &mut BankUnit<E>) {
        self.stats.checks += 1;
        let report = unit.integrity_check();
        if report.corrupt() {
            self.stats.detections += 1;
            self.stats.detected += u64::from(report.detected);
            self.stats.repaired += u64::from(report.repaired);
            if self.stats.open_since.is_none() {
                self.stats.open_since = Some(now);
            }
            if !report.untrusted.is_empty() {
                if self.plan.fallback {
                    // Conservative fallback: an untrusted count becomes a
                    // trusted zero via a full forced mitigation, so the
                    // promise computed at this same boundary is sound.
                    for &row in &report.untrusted {
                        unit.force_mitigate(row);
                        self.stats.fallback_mitigations += 1;
                    }
                }
                // Trust is only restored by the next scrub, even when the
                // fallback already neutralized the hazard.
                self.dirty = true;
            }
            if !self.dirty {
                // Everything this check found was restored exactly from
                // the shadow (ECC-repair): the episode closes here.
                if let Some(t0) = self.stats.open_since.take() {
                    self.stats.resync_episodes += 1;
                    self.stats.resync_ns_total += now.saturating_sub(t0).as_u64();
                }
            }
        }
        if self.plan.scrub_interval_ns > 0 {
            let interval = Nanos::new(self.plan.scrub_interval_ns);
            let due = *self.next_scrub.get_or_insert(now + interval);
            if now >= due {
                self.stats.scrubs += 1;
                self.stats.scrub_corrections += u64::from(unit.scrub_resync());
                if let Some(t0) = self.stats.open_since.take() {
                    self.stats.resync_episodes += 1;
                    self.stats.resync_ns_total += now.saturating_sub(t0).as_u64();
                }
                self.dirty = false;
                self.next_scrub = Some(now + interval);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_dram::{DramConfig, EngineFault, RowId};
    use moat_sim::SlotBudget;

    fn unit() -> BankUnit<MoatEngine> {
        let cfg = DramConfig::builder().rows_per_bank(1024).build();
        BankUnit::new(
            &cfg,
            MoatEngine::new(MoatConfig::paper_default()),
            SlotBudget::paper_default(),
        )
    }

    fn hammer(unit: &mut BankUnit<MoatEngine>, row: u32, times: u32, now: &mut Nanos) {
        for _ in 0..times {
            unit.activate(RowId::new(row), *now).unwrap();
            *now += unit.config().timing.t_rc;
        }
    }

    // -- RecoveryPlan parsing: one test per malformed form, matching the
    // -- per-form discipline of the MOAT_FAULTS tests.

    #[test]
    fn plan_rejects_token_without_equals() {
        assert!(RecoveryPlan::parse("scrub").is_err());
    }

    #[test]
    fn plan_rejects_non_numeric_scrub() {
        assert!(RecoveryPlan::parse("scrub=soon").is_err());
        assert!(RecoveryPlan::parse("scrub=-1").is_err());
        assert!(RecoveryPlan::parse("scrub=1e3").is_err(), "ns are integral");
    }

    #[test]
    fn plan_rejects_bad_fallback_value() {
        assert!(RecoveryPlan::parse("fallback=yes").is_err());
        assert!(RecoveryPlan::parse("fallback=1").is_err());
    }

    #[test]
    fn plan_rejects_unknown_key() {
        assert!(RecoveryPlan::parse("cadence=5").is_err());
    }

    #[test]
    fn plan_parses_round_trip() {
        let plan = RecoveryPlan::parse("scrub=500000, fallback=on").unwrap();
        assert_eq!(plan, RecoveryPlan::full());
        let again = RecoveryPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(again, plan);
        assert_eq!(
            RecoveryPlan::parse("").unwrap(),
            RecoveryPlan::detect_only(),
            "empty spec is detect-only"
        );
    }

    #[test]
    fn from_env_surfaces_malformed_values_as_errors() {
        // One serial test owns the env var: parallel sub-tests would
        // race on the process-global environment.
        let check = |value: &str, expect_err: bool| {
            std::env::set_var(RecoveryPlan::ENV_VAR, value);
            let result = RecoveryPlan::from_env();
            std::env::remove_var(RecoveryPlan::ENV_VAR);
            assert_eq!(
                result.is_err(),
                expect_err,
                "MOAT_RECOVERY={value:?} -> {result:?}"
            );
        };
        check("scrub", true); // missing =
        check("scrub=soon", true); // non-numeric interval
        check("fallback=yes", true); // bad fallback form
        check("cadence=5", true); // unknown key
        check("", false); // empty means unarmed, not an error
        check("   ", false);
        check("scrub=1000,fallback=off", false);
        assert_eq!(RecoveryPlan::from_env(), Ok(None), "unset means unarmed");

        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let bogus = std::ffi::OsString::from_vec(vec![0x66, 0xFF, 0x67]);
            std::env::set_var(RecoveryPlan::ENV_VAR, &bogus);
            let result = RecoveryPlan::from_env();
            std::env::remove_var(RecoveryPlan::ENV_VAR);
            assert!(
                result.is_err(),
                "a non-Unicode value must error, not silently disarm: {result:?}"
            );
        }
    }

    // -- EngineGuard behaviour against a real MOAT bank unit.

    #[test]
    fn fallback_neutralizes_an_untrusted_row_at_the_boundary() {
        let mut u = unit();
        let mut guard = EngineGuard::new(RecoveryPlan {
            scrub_interval_ns: 0,
            fallback: true,
        });
        assert!(guard.arm(&mut u));
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 60, &mut now);
        // Corrupt the tracked count low — the dangerous direction.
        u.engine_mut()
            .apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 5 });
        guard.at_boundary(now, &mut u);
        let stats = guard.stats();
        assert_eq!(stats.detections, 1);
        assert_eq!(stats.fallback_mitigations, 1);
        // The forced mitigation reset the in-array counter to a trusted 0.
        assert_eq!(u.bank().counter(RowId::new(10)).get(), 0);
        assert!(stats.open_since.is_some(), "trust waits for a scrub");
    }

    #[test]
    fn scrub_fires_on_cadence_and_closes_the_episode() {
        let mut u = unit();
        let mut guard = EngineGuard::new(RecoveryPlan::scrub_every(1_000));
        guard.arm(&mut u);
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 60, &mut now);
        u.engine_mut()
            .apply_fault(&EngineFault::FlipCounterBit { slot: 0, bit: 5 });
        guard.at_boundary(now, &mut u); // detects; anchors the cadence
        assert_eq!(guard.stats().scrubs, 0);
        guard.at_boundary(now + Nanos::new(500), &mut u); // not due yet
        assert_eq!(guard.stats().scrubs, 0);
        guard.at_boundary(now + Nanos::new(1_000), &mut u); // due
        let stats = guard.stats();
        assert_eq!(stats.scrubs, 1);
        assert_eq!(stats.scrub_corrections, 1, "count resynced from truth");
        assert_eq!(stats.resync_episodes, 1);
        assert_eq!(stats.resync_ns_total, 1_000, "detection -> scrub");
        assert!(stats.open_since.is_none());
        // The tracker is back to the authoritative count.
        assert_eq!(u.engine().tracker()[0].count, 60);
    }

    #[test]
    fn ecc_repaired_corruption_closes_immediately() {
        let mut u = unit();
        let mut guard = EngineGuard::new(RecoveryPlan::detect_only());
        guard.arm(&mut u);
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 70, &mut now);
        assert!(u.alert_pending());
        u.engine_mut().apply_fault(&EngineFault::LoseAlert);
        guard.at_boundary(now, &mut u);
        let stats = guard.stats();
        assert_eq!(stats.repaired, 1);
        assert_eq!(stats.resync_episodes, 1, "fully repaired in place");
        assert_eq!(stats.resync_ns_total, 0);
        assert!(stats.open_since.is_none());
        assert!(u.alert_pending(), "latch restored");
    }

    #[test]
    fn clean_boundaries_cost_nothing_but_a_check() {
        let mut u = unit();
        let mut guard = EngineGuard::new(RecoveryPlan::detect_only());
        guard.arm(&mut u);
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 40, &mut now);
        for i in 0..10u64 {
            guard.at_boundary(now + Nanos::new(i), &mut u);
        }
        let stats = guard.stats();
        assert_eq!(stats.checks, 10);
        assert_eq!(stats.detections, 0);
        assert_eq!(stats.scrubs, 0);
        assert_eq!(stats.mean_resync_ns(), None);
    }
}
