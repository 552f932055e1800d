//! Fleet-level fault injection, riding the existing seeded [`FaultPlan`].
//!
//! The per-engine chaos layer ([`moat_faults`]) perturbs a *simulation*
//! (flipped counters, dropped RFMs). A fleet adds a second failure
//! domain — the serving infrastructure itself: a shard's worker can
//! crash, stall past its deadline, run slow, or receive a tenant stream
//! that poisons it. [`FleetFaultPlan`] extends the base plan with rates
//! for those four kinds. Every decision is drawn from a [`SplitMix64`]
//! seeded by `base.seed ^ fnv(shard index)`, so a pinned spec makes the
//! supervisor's retries, quarantines and incident log bit-reproducible —
//! the same discipline the engine-level chaos sweeps already follow.
//!
//! Spec grammar (environment variable [`FleetFaultPlan::ENV_VAR`]):
//! fleet keys `crash`, `stall`, `slow`, `poison` (rates in `[0, 1]`)
//! plus any token the base [`FaultPlan`] grammar accepts, e.g.
//! `seed=7,crash=0.05,stall=0.01,seu=1e-6`.

use moat_dram::env;
use moat_dram::hash::{fnv1a, SplitMix64};
use moat_faults::FaultPlan;
use std::fmt;

/// Hashes a shard index into a seed perturbation: FNV-1a over its
/// little-endian bytes, `base` XORed into the basis.
pub fn shard_seed(base: u64, shard_index: u32) -> u64 {
    fnv1a(base, shard_index.to_le_bytes())
}

/// A seeded plan of fleet-level failures layered over an engine-level
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFaultPlan {
    /// Engine-level chaos applied inside each shard's security sim, and
    /// the seed all fleet-level draws derive from.
    pub base: FaultPlan,
    /// Probability a shard's worker panics on an attempt.
    pub crash_rate: f64,
    /// Probability a shard stalls until its watchdog deadline fires.
    pub stall_rate: f64,
    /// Probability a shard completes but over its latency budget.
    pub slow_rate: f64,
    /// Probability one of a shard's tenant streams is poisoned (panics
    /// during materialization).
    pub poison_rate: f64,
}

impl FleetFaultPlan {
    /// The environment variable carrying the fleet fault spec.
    pub const ENV_VAR: &'static str = "MOAT_FLEET_FAULTS";

    /// A plan that injects nothing (all rates zero).
    pub fn none(seed: u64) -> Self {
        FleetFaultPlan {
            base: FaultPlan::none(seed),
            crash_rate: 0.0,
            stall_rate: 0.0,
            slow_rate: 0.0,
            poison_rate: 0.0,
        }
    }

    /// Parses a spec: fleet keys (`crash`, `stall`, `slow`, `poison`)
    /// are consumed here, every other pair goes to [`FaultPlan::set`]
    /// so the engine-level grammar (seed, seu, drop-rfm, lose-alert,
    /// stuck) keeps working verbatim.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending token.
    pub fn parse(spec: &str) -> Result<FleetFaultPlan, String> {
        let mut plan = FleetFaultPlan::none(0);
        for pair in env::pairs(spec, "fleet fault") {
            let (key, value) = pair?;
            let rate = match key.as_str() {
                "crash" => &mut plan.crash_rate,
                "stall" => &mut plan.stall_rate,
                "slow" => &mut plan.slow_rate,
                "poison" => &mut plan.poison_rate,
                _ => {
                    plan.base.set(&key, value)?;
                    continue;
                }
            };
            *rate = env::rate("fleet fault", &key, value)?;
        }
        Ok(plan)
    }

    /// The plan armed via [`ENV_VAR`](Self::ENV_VAR): `None` when unset
    /// or blank.
    ///
    /// # Errors
    ///
    /// The [`env::parsed`] errors of a non-Unicode or malformed value.
    pub fn from_env() -> Result<Option<FleetFaultPlan>, String> {
        env::parsed(Self::ENV_VAR, Self::parse)
    }

    /// Whether any fleet-level rate is non-zero.
    pub fn fleet_armed(&self) -> bool {
        self.crash_rate > 0.0
            || self.stall_rate > 0.0
            || self.slow_rate > 0.0
            || self.poison_rate > 0.0
    }

    /// Draws shard `shard_index`'s fate. Deterministic: the same plan
    /// and index always produce the same [`ShardFault`], independent of
    /// which worker thread evaluates it or in what order.
    ///
    /// `max_attempts` bounds the crash depth: a crashing shard panics on
    /// attempts `1..=crash_attempts` where `crash_attempts` is uniform
    /// in `1..=max_attempts + 1`, so some crashing shards recover on a
    /// retry and some exhaust the policy and quarantine.
    pub fn shard_fault(&self, shard_index: u32, max_attempts: u32) -> ShardFault {
        let mut rng = SplitMix64::new(shard_seed(self.base.seed, shard_index));
        let crash_attempts = if rng.chance(self.crash_rate) {
            1 + rng.below(u64::from(max_attempts) + 1) as u32
        } else {
            0
        };
        let stall = rng.chance(self.stall_rate);
        let slow = rng.chance(self.slow_rate);
        let poison_draw = if rng.chance(self.poison_rate) {
            Some(rng.next_u64())
        } else {
            None
        };
        ShardFault {
            crash_attempts,
            stall,
            slow,
            poison_draw,
        }
    }

    /// The engine-level plan for shard `shard_index`'s security sim:
    /// the base rates under a per-shard derived seed, so sibling shards
    /// see independent (but each reproducible) chaos streams.
    pub fn engine_plan(&self, shard_index: u32) -> FaultPlan {
        FaultPlan {
            seed: shard_seed(self.base.seed, shard_index),
            ..self.base
        }
    }
}

impl fmt::Display for FleetFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},crash={},stall={},slow={},poison={}",
            self.base, self.crash_rate, self.stall_rate, self.slow_rate, self.poison_rate
        )
    }
}

/// One shard's drawn fate for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFault {
    /// Panic on attempts `1..=crash_attempts` (0 = never crash).
    pub crash_attempts: u32,
    /// Stall until the watchdog deadline on every attempt.
    pub stall: bool,
    /// Complete, but sleep the configured slow latency first.
    pub slow: bool,
    /// Raw draw selecting which local tenant stream is poisoned
    /// (`draw % tenant_count` at materialization time).
    pub poison_draw: Option<u64>,
}

impl ShardFault {
    /// A benign fate (no injection).
    pub fn none() -> Self {
        ShardFault {
            crash_attempts: 0,
            stall: false,
            slow: false,
            poison_draw: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_routes_fleet_and_base_keys() {
        let p =
            FleetFaultPlan::parse("seed=7,crash=0.5,stall=0.25,seu=0.001,slow=1,poison=0").unwrap();
        assert_eq!(p.base.seed, 7);
        assert_eq!(p.crash_rate, 0.5);
        assert_eq!(p.stall_rate, 0.25);
        assert_eq!(p.slow_rate, 1.0);
        assert_eq!(p.poison_rate, 0.0);
        assert_eq!(p.base.seu_rate, 0.001);
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        assert!(FleetFaultPlan::parse("crash").is_err(), "missing =");
        assert!(FleetFaultPlan::parse("crash=x").is_err(), "non-numeric");
        assert!(FleetFaultPlan::parse("crash=1.5").is_err(), "rate > 1");
        assert!(FleetFaultPlan::parse("crash=-0.1").is_err(), "rate < 0");
        assert!(FleetFaultPlan::parse("scribble=1").is_err(), "unknown key");
        assert!(FleetFaultPlan::parse("seed=zz").is_err(), "bad base token");
    }

    #[test]
    fn display_round_trips_through_parse() {
        let p = FleetFaultPlan::parse(
            "seed=42,crash=0.125,stall=0.5,slow=0.25,poison=0.0625,seu=0.001",
        )
        .unwrap();
        assert_eq!(FleetFaultPlan::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn shard_fault_is_deterministic_and_seed_sensitive() {
        let p = FleetFaultPlan::parse("seed=9,crash=0.5,stall=0.5,slow=0.5,poison=0.5").unwrap();
        for shard in 0..32 {
            assert_eq!(p.shard_fault(shard, 3), p.shard_fault(shard, 3));
        }
        // At 50% rates across 32 shards, different shards must draw
        // different fates (probability of uniformity is ~2^-120).
        let fates: Vec<ShardFault> = (0..32).map(|s| p.shard_fault(s, 3)).collect();
        assert!(fates.iter().any(|f| *f != fates[0]));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let p = FleetFaultPlan::none(123);
        assert!(!p.fleet_armed());
        for shard in 0..64 {
            assert_eq!(p.shard_fault(shard, 3), ShardFault::none());
        }
    }

    #[test]
    fn crash_depth_spans_recoverable_and_fatal() {
        let p = FleetFaultPlan::parse("seed=5,crash=1").unwrap();
        let max_attempts = 3;
        let depths: Vec<u32> = (0..64)
            .map(|s| p.shard_fault(s, max_attempts).crash_attempts)
            .collect();
        assert!(depths.iter().all(|&d| (1..=max_attempts + 1).contains(&d)));
        assert!(
            depths.iter().any(|&d| d < max_attempts),
            "some shards must recover via retry"
        );
        assert!(
            depths.iter().any(|&d| d >= max_attempts),
            "some shards must exhaust the policy and quarantine"
        );
    }
}
