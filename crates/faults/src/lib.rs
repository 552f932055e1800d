//! # moat-faults — deterministic fault injection for the MOAT reproduction
//!
//! MOAT's security argument (escaped ACTs < ATH) silently assumes the
//! per-row activation counters, the Panopticon-style queue, and the
//! ALERT/RFM signalling are themselves fault-free — but a real in-DRAM
//! tracker is SRAM/DRAM state subject to single-event upsets. This crate
//! turns "is the horizon hint still sound under corruption" into a
//! measured quantity:
//!
//! * [`FaultPlan`] — a seeded description of *what* can go wrong and how
//!   often: SEU bit-flips in tracker state, dropped RFMs, lost ALERT
//!   assertions, stuck-at tracking entries. Armable from the
//!   [`MOAT_FAULTS`](FaultPlan::ENV_VAR) environment variable for CI
//!   chaos runs.
//! * [`FaultInjector`] — the [`FaultHook`] implementation the security
//!   simulator threads through its loops. All randomness comes from a
//!   SplitMix64 stream seeded by the plan, so a faulted run is
//!   bit-deterministic and replayable from `(plan, simulation inputs)`.
//! * [`FaultStats`] — what actually happened: injection counts, how many
//!   engine-promised horizons proved unsound, and when the first one
//!   broke.
//!
//! Injection fires at *event-horizon boundaries* (each iteration of the
//! simulator's event-horizon loop; every ACT slot of the per-step
//! reference), so rates are per-boundary probabilities. With every rate
//! at zero the injector consumes **no** randomness and mutates nothing —
//! the armed loops stay bit-identical to the disarmed build (pinned by
//! proptest in `moat-bench`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use moat_dram::hash::SplitMix64;
use moat_dram::{env, EngineFault, MitigationEngine, Nanos};
use moat_sim::FaultHook;

/// A seeded description of the faults to inject into one simulation.
///
/// All rates are per event-horizon-boundary probabilities in `[0, 1]`
/// (`drop_rfm` is per RFM, `lose_alert` per assertion attempt). The plan
/// is pure data: two simulations armed with equal plans (and equal
/// simulation inputs) produce bit-identical trajectories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the SplitMix64 fault stream.
    pub seed: u64,
    /// Probability of an SEU bit-flip in tracker state per boundary.
    pub seu_rate: f64,
    /// Probability that an issued RFM performs no mitigation.
    pub drop_rfm_rate: f64,
    /// Probability that an ALERT assertion is lost in flight.
    pub lose_alert_rate: f64,
    /// Probability of a stuck-at tracking entry per boundary.
    pub stuck_rate: f64,
}

impl FaultPlan {
    /// The environment variable [`from_env`](Self::from_env) reads.
    pub const ENV_VAR: &'static str = "MOAT_FAULTS";

    /// An armed-but-empty plan: every rate zero. Arming it changes
    /// nothing — the simulation stays bit-identical to the disarmed
    /// build (the rate-0 no-op property pinned in `moat-bench`).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            seu_rate: 0.0,
            drop_rfm_rate: 0.0,
            lose_alert_rate: 0.0,
            stuck_rate: 0.0,
        }
    }

    /// A plan injecting only SEU bit-flips at `rate` — the knob the
    /// fault-sensitivity sweep ladders.
    pub fn seu(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seu_rate: rate,
            ..Self::none(seed)
        }
    }

    /// Whether every rate is zero.
    pub fn is_empty(&self) -> bool {
        self.seu_rate <= 0.0
            && self.drop_rfm_rate <= 0.0
            && self.lose_alert_rate <= 0.0
            && self.stuck_rate <= 0.0
    }

    /// Parses a plan from a `key=value` list, e.g.
    /// `seed=42,seu=1e-3,drop-rfm=1e-4,lose-alert=1e-4,stuck=1e-5`.
    /// Unspecified fields default to seed 0 / rate 0; underscores and
    /// dashes in keys are interchangeable.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending token.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none(0);
        for pair in env::pairs(spec, "fault spec") {
            let (key, value) = pair?;
            plan.set(&key, value)?;
        }
        Ok(plan)
    }

    /// Applies one pair of the [`parse`](Self::parse) grammar, its key
    /// as [`env::pairs`] yields it (`drop_rfm`, not `drop-rfm`).
    ///
    /// # Errors
    ///
    /// Describes an unknown key, a malformed value, or a rate outside
    /// `[0, 1]`.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let rate = match key {
            "seed" => {
                self.seed = value
                    .parse()
                    .map_err(|e| format!("fault seed `{value}`: {e}"))?;
                return Ok(());
            }
            "seu" => &mut self.seu_rate,
            "drop_rfm" => &mut self.drop_rfm_rate,
            "lose_alert" => &mut self.lose_alert_rate,
            "stuck" => &mut self.stuck_rate,
            _ => return Err(format!("unknown fault spec key `{key}`")),
        };
        *rate = env::rate("fault", key, value)?;
        Ok(())
    }

    /// The plan armed via the [`MOAT_FAULTS`](Self::ENV_VAR) environment
    /// variable: `None` when unset or blank.
    ///
    /// # Errors
    ///
    /// The [`env::parsed`] errors of a non-Unicode or malformed value.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        env::parsed(Self::ENV_VAR, Self::parse)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={},seu={},drop-rfm={},lose-alert={},stuck={}",
            self.seed, self.seu_rate, self.drop_rfm_rate, self.lose_alert_rate, self.stuck_rate
        )
    }
}

/// When the engine's promised horizon first proved unsound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirstUnsound {
    /// Simulation time of the violating ACT.
    pub at: Nanos,
    /// The engine-guaranteed horizon that was in force.
    pub promised: u64,
    /// How many of the promised ACTs had completed when `alert_pending`
    /// flipped.
    pub done: u64,
}

/// What a [`FaultInjector`] actually did to a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Event-horizon boundaries observed.
    pub boundaries: u64,
    /// SEU bit-flips applied (attempts that changed engine state).
    pub seu_flips: u64,
    /// Stuck-at entry faults applied.
    pub stuck_entries: u64,
    /// RFMs whose mitigation was dropped.
    pub dropped_rfms: u64,
    /// ALERT assertions lost in flight.
    pub lost_alerts: u64,
    /// Engine-promised horizons that proved unsound.
    pub unsound_horizons: u64,
    /// ACTs that executed past a pending alert inside already-granted
    /// runs, summed over every unsound horizon — the measured damage of
    /// the injected corruption.
    pub escaped_acts: u64,
    /// The first unsound horizon, if any.
    pub first_unsound: Option<FirstUnsound>,
}

/// The [`FaultHook`] implementation: draws from a seeded SplitMix64
/// stream, corrupts the engine through
/// [`MitigationEngine::apply_fault`], and records [`FaultStats`].
///
/// SEU flips target one bit of one tracking slot. The bit position is
/// confined to the low `log2(rows_per_bank)` bits so a flipped
/// Panopticon row tag still names a real row — a flip into a nonexistent
/// row would be a detectable addressing error, not the silent corruption
/// this layer models. (All shipped configurations have power-of-two row
/// counts, making the confinement exact.) For MOAT the same bits land in
/// the tracked *count*, which is precisely the state whose corruption
/// can break the `min_acts_to_alert` bound.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Tracking slots to aim at (engines take the index modulo their own
    /// structure size; 8 covers every shipped design).
    slots: u64,
    /// Bit positions an SEU may flip: `floor(log2(rows_per_bank))`.
    bits: u64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `plan` against banks of `rows_per_bank`
    /// rows.
    pub fn new(plan: FaultPlan, rows_per_bank: u32) -> Self {
        let bits = u64::from(32 - rows_per_bank.max(2).leading_zeros() - 1);
        FaultInjector {
            plan,
            rng: SplitMix64::new(plan.seed),
            slots: 8,
            bits,
            stats: FaultStats::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What has been injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

impl FaultHook for FaultInjector {
    const ARMED: bool = true;

    fn at_boundary(&mut self, _now: Nanos, engine: &mut dyn MitigationEngine) {
        self.stats.boundaries += 1;
        if self.rng.chance(self.plan.seu_rate) {
            let fault = EngineFault::FlipCounterBit {
                slot: self.rng.below(self.slots) as usize,
                bit: self.rng.below(self.bits) as u32,
            };
            if engine.apply_fault(&fault) {
                self.stats.seu_flips += 1;
            }
        }
        if self.rng.chance(self.plan.stuck_rate) {
            let fault = EngineFault::StuckEntry {
                slot: self.rng.below(self.slots) as usize,
            };
            if engine.apply_fault(&fault) {
                self.stats.stuck_entries += 1;
            }
        }
    }

    fn drop_rfm(&mut self, _now: Nanos) -> bool {
        let dropped = self.rng.chance(self.plan.drop_rfm_rate);
        self.stats.dropped_rfms += u64::from(dropped);
        dropped
    }

    fn lose_alert(&mut self, _now: Nanos) -> bool {
        let lost = self.rng.chance(self.plan.lose_alert_rate);
        self.stats.lost_alerts += u64::from(lost);
        lost
    }

    fn on_unsound_horizon(&mut self, now: Nanos, promised: u64, done: u64) {
        self.stats.unsound_horizons += 1;
        self.stats.escaped_acts += promised.saturating_sub(done);
        if self.stats.first_unsound.is_none() {
            self.stats.first_unsound = Some(FirstUnsound {
                at: now,
                promised,
                done,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        // Different seeds diverge immediately.
        let mut c = SplitMix64::new(8);
        assert_ne!(xs[0], c.next_u64());
        // below() respects its bound.
        let mut d = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(d.below(8) < 8);
        }
        assert_eq!(d.below(0), 0);
    }

    #[test]
    fn chance_matches_rate_roughly_and_zero_is_free() {
        let mut rng = SplitMix64::new(1);
        let hits = (0..10_000).filter(|_| rng.chance(0.1)).count();
        assert!((800..1200).contains(&hits), "hits {hits}");
        // rate 0 consumes no randomness: the stream is untouched.
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        assert!(!a.chance(0.0));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn plan_parses_round_trip() {
        let plan =
            FaultPlan::parse("seed=42, seu=1e-3, drop-rfm=0.25, lose_alert=0.5, stuck=0").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.seu_rate, 1e-3);
        assert_eq!(plan.drop_rfm_rate, 0.25);
        assert_eq!(plan.lose_alert_rate, 0.5);
        assert!(plan.stuck_rate == 0.0);
        assert!(!plan.is_empty());
        // Display round-trips through parse.
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(again, plan);
    }

    #[test]
    fn plan_rejects_garbage() {
        assert!(FaultPlan::parse("seu").is_err(), "missing =");
        assert!(FaultPlan::parse("seu=2.0").is_err(), "rate > 1");
        assert!(FaultPlan::parse("seu=-0.1").is_err(), "negative rate");
        assert!(FaultPlan::parse("warp=0.1").is_err(), "unknown key");
        assert!(FaultPlan::parse("seed=abc").is_err(), "bad seed");
        assert!(
            FaultPlan::parse("").unwrap().is_empty(),
            "empty spec is the empty plan"
        );
    }

    #[test]
    fn from_env_surfaces_malformed_values_as_errors() {
        // One serial test owns the env var: parallel sub-tests would
        // race on the process-global environment.
        let check = |value: &str, expect_err: bool| {
            std::env::set_var(FaultPlan::ENV_VAR, value);
            let result = FaultPlan::from_env();
            std::env::remove_var(FaultPlan::ENV_VAR);
            assert_eq!(
                result.is_err(),
                expect_err,
                "MOAT_FAULTS={value:?} -> {result:?}"
            );
        };
        check("seu", true); // missing =
        check("seu=2.0", true); // rate out of range
        check("warp=0.1", true); // unknown key
        check("seed=abc", true); // non-numeric seed
        check("", false); // empty means unarmed, not an error
        check("   ", false);
        check("seed=7,seu=0.5", false);
        assert_eq!(FaultPlan::from_env(), Ok(None), "unset means unarmed");

        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let bogus = std::ffi::OsString::from_vec(vec![0x66, 0xFF, 0x67]);
            std::env::set_var(FaultPlan::ENV_VAR, &bogus);
            let result = FaultPlan::from_env();
            std::env::remove_var(FaultPlan::ENV_VAR);
            assert!(
                result.is_err(),
                "a non-Unicode value must error, not silently disarm: {result:?}"
            );
        }
    }

    #[test]
    fn empty_plan_injector_is_inert() {
        use moat_dram::NullEngine;
        let mut inj = FaultInjector::new(FaultPlan::none(3), 65_536);
        let mut engine = NullEngine::new();
        for i in 0..100u64 {
            inj.at_boundary(Nanos::new(i), &mut engine);
            assert!(!inj.drop_rfm(Nanos::new(i)));
            assert!(!inj.lose_alert(Nanos::new(i)));
        }
        let stats = inj.stats();
        assert_eq!(stats.boundaries, 100);
        assert_eq!(stats.seu_flips, 0);
        assert_eq!(stats.dropped_rfms, 0);
        assert_eq!(stats.lost_alerts, 0);
        assert!(stats.first_unsound.is_none());
    }

    #[test]
    fn injector_bit_range_tracks_rows() {
        let inj = FaultInjector::new(FaultPlan::seu(1, 0.5), 65_536);
        assert_eq!(inj.bits, 16);
        let inj = FaultInjector::new(FaultPlan::seu(1, 0.5), 1024);
        assert_eq!(inj.bits, 10);
    }

    #[test]
    fn first_unsound_records_only_the_first() {
        let mut inj = FaultInjector::new(FaultPlan::none(3), 1024);
        inj.on_unsound_horizon(Nanos::new(100), 10, 4);
        inj.on_unsound_horizon(Nanos::new(200), 8, 2);
        let stats = inj.stats();
        assert_eq!(stats.unsound_horizons, 2);
        assert_eq!(stats.escaped_acts, (10 - 4) + (8 - 2));
        assert_eq!(
            stats.first_unsound,
            Some(FirstUnsound {
                at: Nanos::new(100),
                promised: 10,
                done: 4,
            })
        );
    }
}
