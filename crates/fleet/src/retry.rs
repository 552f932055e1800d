//! Deterministic retry policies shared by the sweep harness and the
//! fleet supervisor, and the panic-payload text both report.
//!
//! Both layers face the same problem — a unit of work (a sweep cell, a
//! shard attempt) that crashed or timed out and deserves another chance
//! before it is written off — and both need the *same* answer for every
//! run, because their outputs are diffed bit-for-bit across runs. A
//! [`RetryPolicy`] is therefore pure data: a bounded attempt count and an
//! exponential backoff schedule with **no jitter**. Two runs with equal
//! policies make identical retry decisions and sleep identical durations;
//! only the wall clock differs.

use std::any::Any;
use std::time::Duration;

/// A bounded-attempts, deterministic-exponential-backoff retry policy.
///
/// Attempt `1` is the initial try; attempts `2..=max_attempts` are
/// retries, each preceded by a backoff of
/// `base_backoff * multiplier^(attempt - 2)`, capped at `max_backoff`.
/// There is deliberately no jitter: retry schedules must be identical
/// across runs so that retried work stays bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Factor applied to the backoff for each further retry.
    pub multiplier: u32,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// The sweep harness's policy: one retry after 50 ms, doubling (the
    /// historical fixed 50 ms backoff, now expressed as the first rung
    /// of an exponential schedule).
    pub const fn sweep_default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(50),
            multiplier: 2,
            max_backoff: Duration::from_secs(1),
        }
    }

    /// The fleet supervisor's policy: two retries with a fast 10 ms
    /// first backoff quadrupling per retry (10 ms, 40 ms) — shards are
    /// small and a stalled one should quarantine quickly.
    pub const fn fleet_default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            multiplier: 4,
            max_backoff: Duration::from_millis(500),
        }
    }

    /// A policy with `max_attempts` attempts and the default exponential
    /// shape (`base` backoff doubling per retry, capped at 1 s).
    pub const fn with_attempts(max_attempts: u32, base: Duration) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: base,
            multiplier: 2,
            max_backoff: Duration::from_secs(1),
        }
    }

    /// The backoff to sleep before `attempt` (1-based): `None` for the
    /// initial attempt, the capped exponential rung for each retry.
    pub fn backoff_before(&self, attempt: u32) -> Option<Duration> {
        if attempt <= 1 {
            return None;
        }
        let rung = attempt - 2; // first retry sleeps the base backoff
        let factor = u64::from(self.multiplier).saturating_pow(rung);
        let backoff = self
            .base_backoff
            .saturating_mul(u32::try_from(factor).unwrap_or(u32::MAX));
        Some(backoff.min(self.max_backoff))
    }

    /// Runs `attempt_fn` up to [`max_attempts`](Self::max_attempts)
    /// times, sleeping the deterministic backoff before each retry.
    /// Returns the first `Ok` together with the attempt number that
    /// produced it, or the last `Err` with the total attempts made.
    pub fn run<R, E>(
        &self,
        mut attempt_fn: impl FnMut(u32) -> Result<R, E>,
    ) -> (Result<R, E>, u32) {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            if let Some(backoff) = self.backoff_before(attempt) {
                std::thread::sleep(backoff);
            }
            match attempt_fn(attempt) {
                Ok(r) => return (Ok(r), attempt),
                Err(e) if attempt >= attempts => return (Err(e), attempt),
                Err(_) => attempt += 1,
            }
        }
    }
}

/// Renders a caught panic payload as text: the `&str` or `String` a
/// `panic!` carries, or a fixed fallback for any other payload type.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_string(),
            |s| (*s).to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            multiplier: 4,
            max_backoff: Duration::from_millis(100),
        };
        assert_eq!(p.backoff_before(1), None, "first attempt never sleeps");
        assert_eq!(p.backoff_before(2), Some(Duration::from_millis(10)));
        assert_eq!(p.backoff_before(3), Some(Duration::from_millis(40)));
        assert_eq!(
            p.backoff_before(4),
            Some(Duration::from_millis(100)),
            "capped"
        );
        assert_eq!(p.backoff_before(5), Some(Duration::from_millis(100)));
    }

    #[test]
    fn sweep_default_keeps_the_historical_first_backoff() {
        let p = RetryPolicy::sweep_default();
        assert_eq!(p.max_attempts, 2);
        assert_eq!(p.backoff_before(2), Some(Duration::from_millis(50)));
    }

    #[test]
    fn run_retries_until_success_or_exhaustion() {
        let quick = RetryPolicy {
            base_backoff: Duration::from_millis(0),
            ..RetryPolicy::with_attempts(3, Duration::from_millis(0))
        };
        let (ok, attempts) = quick.run(|a| if a < 3 { Err("boom") } else { Ok(a) });
        assert_eq!(ok, Ok(3));
        assert_eq!(attempts, 3);

        let (err, attempts) = quick.run(|_| Err::<(), _>("always"));
        assert_eq!(err, Err("always"));
        assert_eq!(attempts, 3);

        let mut calls = 0;
        let once = RetryPolicy::with_attempts(1, Duration::from_millis(0));
        let (_, attempts) = once.run(|_| {
            calls += 1;
            Err::<(), _>(())
        });
        assert_eq!((calls, attempts), (1, 1), "max_attempts 1 means no retry");
    }

    #[test]
    fn panic_message_renders_every_payload() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        assert_eq!(panic_message(caught(|| panic!("static"))), "static");
        assert_eq!(panic_message(caught(|| panic!("shard {}", 3))), "shard 3");
        assert_eq!(
            panic_message(caught(|| std::panic::panic_any(7u32))),
            "non-string panic payload"
        );
    }

    #[test]
    fn huge_rungs_saturate_instead_of_overflowing() {
        let p = RetryPolicy {
            max_attempts: 80,
            base_backoff: Duration::from_millis(1),
            multiplier: 1000,
            max_backoff: Duration::from_millis(7),
        };
        assert_eq!(p.backoff_before(70), Some(Duration::from_millis(7)));
    }

    #[test]
    fn extreme_attempt_counts_pin_to_the_cap() {
        // The pathological corner: every quantity at its maximum. The
        // exponent saturates in u64, the factor clamps to u32::MAX, the
        // Duration multiply saturates, and the cap still wins — no
        // shift/mul overflow panic at any rung.
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_secs(u64::MAX),
            multiplier: u32::MAX,
            max_backoff: Duration::from_millis(250),
        };
        for attempt in [2, 3, 64, 65, 66, 1 << 20, u32::MAX - 1, u32::MAX] {
            assert_eq!(
                p.backoff_before(attempt),
                Some(Duration::from_millis(250)),
                "attempt {attempt} must clamp to max_backoff"
            );
        }
        // A zero multiplier degenerates cleanly: first retry sleeps the
        // base, later rungs collapse to zero rather than panicking.
        let zero = RetryPolicy {
            multiplier: 0,
            base_backoff: Duration::from_millis(5),
            ..p
        };
        assert_eq!(zero.backoff_before(2), Some(Duration::from_millis(5)));
        assert_eq!(zero.backoff_before(u32::MAX), Some(Duration::ZERO));
    }
}
