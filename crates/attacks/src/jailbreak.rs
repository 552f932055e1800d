//! The Jailbreak attack on Panopticon (§3).
//!
//! Panopticon's queue stores only row addresses, not counters, and services
//! entries in FIFO order. Jailbreak exploits both properties:
//!
//! 1. **Fill** — activate 8 decoy rows round-robin 128 times each, so all
//!    8 cross the queueing threshold within the same tREFI and fill the
//!    queue (the attack row last).
//! 2. **Hammer** — keep activating the youngest entry at 32 activations
//!    per tREFI, so one fresh copy enters the queue exactly as one entry
//!    drains (no overflow, hence no ALERT). While resident behind 7 older
//!    entries the row absorbs 8 × 128 = 1024 further activations, for a
//!    total of 1152 — 9× the design threshold of 128.
//!
//! The randomized variant (§3.3) defeats counter randomization
//! probabilistically: an iteration succeeds when all 8 decoys start
//! "heavy-weight" (within 32 activations of a threshold crossing, ~1/4
//! each), which happens once in 2¹⁶ iterations on average.

use std::borrow::Cow;

use moat_dram::{Nanos, RowId};
use moat_sim::{AttackStep, Attacker, DefenseView, RunGrant, SemiRun, SemiScriptedAttacker};

use crate::grant::{push_panopticon_capped, push_panopticon_capped_single, GrantLog};
use moat_trackers::PanopticonEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Phases of the deterministic Jailbreak pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Round-robin priming of the 8 decoy+attack rows.
    Fill { act: u32 },
    /// Paced hammering of the attack row.
    Hammer,
    /// Finished.
    Done,
}

/// The deterministic Jailbreak attacker (§3.2).
///
/// Targets a [`PanopticonEngine`]; generic inspection is done through the
/// queue exposed via downcasting, per the threat model.
///
/// # Examples
///
/// ```
/// use moat_attacks::JailbreakAttacker;
/// use moat_dram::Nanos;
/// use moat_sim::{SecurityConfig, SecuritySim};
/// use moat_trackers::{PanopticonConfig, PanopticonEngine};
///
/// let mut sim = SecuritySim::new(
///     SecurityConfig::paper_default(),
///     Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
/// );
/// let mut jailbreak = JailbreakAttacker::new(20_000);
/// let report = sim.run(&mut jailbreak, Nanos::from_millis(2));
/// assert!(report.max_pressure >= 1100, "got {}", report.max_pressure);
/// assert_eq!(report.alerts, 0, "Jailbreak never overflows the queue");
/// ```
#[derive(Debug)]
pub struct JailbreakAttacker {
    rows: Vec<RowId>,
    threshold: u32,
    acts_per_trefi: u32,
    phase: Phase,
    /// Activations issued on the attack row within the current tREFI.
    hammer_acts_this_trefi: u32,
    current_trefi: u64,
    /// Per-grant published-activation model for the semi-scripted form.
    grant: GrantLog<RowId>,
}

impl JailbreakAttacker {
    /// Creates the attack around 8 rows starting at `base_row`, spaced six
    /// rows apart so their blast radii never overlap. Pick `base_row` far
    /// from the refresh pointer's early sweep (e.g. 20 000).
    pub fn new(base_row: u32) -> Self {
        Self::with_rows((0..8).map(|i| base_row + 6 * i).collect(), 128, 32)
    }

    /// Full control: decoy/attack rows (attack row last), the queueing
    /// threshold, and the paced hammering rate per tREFI.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two rows are given.
    pub fn with_rows(rows: Vec<u32>, threshold: u32, acts_per_trefi: u32) -> Self {
        assert!(rows.len() >= 2, "need decoys plus an attack row");
        JailbreakAttacker {
            rows: rows.into_iter().map(RowId::new).collect(),
            threshold,
            acts_per_trefi,
            phase: Phase::Fill { act: 0 },
            hammer_acts_this_trefi: 0,
            current_trefi: 0,
            grant: GrantLog::default(),
        }
    }

    /// The attack row (the youngest queue entry).
    pub fn attack_row(&self) -> RowId {
        *self.rows.last().expect("validated non-empty")
    }

    fn queue_of<'a>(&self, view: &'a DefenseView<'_>) -> Option<&'a PanopticonEngine> {
        view.engine().as_any().downcast_ref::<PanopticonEngine>()
    }

    /// The hammer phase's stop condition: the attack row's first copy has
    /// been mitigated. Queue pops and in-flight changes only happen at
    /// REF/RFM events — horizon boundaries — so the condition is constant
    /// across one published grant (own activations can only *add* queue
    /// copies).
    fn hammer_done(&self, view: &DefenseView<'_>) -> bool {
        self.queue_of(view).is_some_and(|p| {
            !p.queue().contains(&self.attack_row())
                && view.unit.inflight_row() != Some(self.attack_row())
        })
    }
}

impl Attacker for JailbreakAttacker {
    fn step(&mut self, view: &DefenseView<'_>) -> AttackStep {
        match self.phase {
            Phase::Fill { act } => {
                let total = self.threshold * self.rows.len() as u32;
                if act >= total {
                    self.phase = Phase::Hammer;
                    return self.step(view);
                }
                let row = self.rows[(act as usize) % self.rows.len()];
                self.phase = Phase::Fill { act: act + 1 };
                AttackStep::Act(row)
            }
            Phase::Hammer => {
                // Stop once the attack row's first copy has been mitigated
                // (it left the queue and its mitigation completed — the
                // queue no longer holds it, or holds only younger copies
                // while the ledger shows the pressure collapsed).
                if self.hammer_done(view) {
                    self.phase = Phase::Done;
                    return AttackStep::Stop;
                }
                // Pace: at most `acts_per_trefi` on the attack row per
                // tREFI, so one queue copy per mitigation period.
                let trefi = view.now.as_u64() / view.unit.config().timing.t_refi.as_u64();
                if trefi != self.current_trefi {
                    self.current_trefi = trefi;
                    self.hammer_acts_this_trefi = 0;
                }
                if self.hammer_acts_this_trefi < self.acts_per_trefi {
                    self.hammer_acts_this_trefi += 1;
                    AttackStep::Act(self.attack_row())
                } else {
                    AttackStep::Idle
                }
            }
            Phase::Done => AttackStep::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!("jailbreak(t={})", self.threshold))
    }
}

/// The semi-scripted form: fill publishes whole decoy round-robin bursts,
/// hammer publishes its per-tREFI budget in one run and idles the rest of
/// the interval, re-observing the Panopticon queue only at drain points
/// (REF/RFM horizons). Both phases are engine-aware: they model their own
/// threshold crossings against the snapshot's queue occupancy (see
/// `push_panopticon_capped`), so runs extend past the engine's
/// conservative `alert_safe` tier — the hammer keeps the queue
/// permanently full, where that tier is a single slot — and end exactly
/// at any ACT that could overflow it. Bit-identical to the per-step
/// [`Attacker`] impl: every decision is a pure function of the snapshot
/// plus own state, and tREFI boundaries never fall inside a grant (the
/// REF deadline that caps each grant *is* the next tREFI multiple).
impl SemiScriptedAttacker for JailbreakAttacker {
    fn publish(
        &mut self,
        view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        match self.phase {
            Phase::Fill { act } => {
                let total = self.threshold * self.rows.len() as u32;
                if act >= total {
                    self.phase = Phase::Hammer;
                    return self.publish(view, buf, grant);
                }
                let want = ((total - act) as usize).min(grant.max);
                self.grant.clear();
                let rows = &self.rows;
                let start = act as usize;
                let n = push_panopticon_capped(
                    view,
                    buf,
                    &mut self.grant,
                    want,
                    grant.alert_safe,
                    |k| rows[(start + k) % rows.len()],
                );
                self.phase = Phase::Fill {
                    act: act + n as u32,
                };
                SemiRun::Acts(n)
            }
            Phase::Hammer => {
                if self.hammer_done(view) {
                    self.phase = Phase::Done;
                    return SemiRun::Stop;
                }
                let t_refi = view.unit.config().timing.t_refi;
                let trefi = view.now.as_u64() / t_refi.as_u64();
                if trefi != self.current_trefi {
                    self.current_trefi = trefi;
                    self.hammer_acts_this_trefi = 0;
                }
                let budget = self.acts_per_trefi - self.hammer_acts_this_trefi;
                if budget == 0 {
                    // Pacing satisfied: idle out the rest of this tREFI.
                    let t_rc = view.unit.config().timing.t_rc;
                    let boundary = (trefi + 1) * t_refi.as_u64();
                    let slots = (boundary - view.now.as_u64())
                        .div_ceil(t_rc.as_u64())
                        .max(1);
                    return SemiRun::Idle(slots);
                }
                let want = (budget as usize).min(grant.max);
                let n = push_panopticon_capped_single(
                    view,
                    buf,
                    want,
                    grant.alert_safe,
                    self.attack_row(),
                );
                self.hammer_acts_this_trefi += n as u32;
                SemiRun::Acts(n)
            }
            Phase::Done => SemiRun::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Attacker::name(self)
    }
}

/// One iteration of the randomized Jailbreak (§3.3), modelled at event
/// granularity.
///
/// Given the randomized initial counters, an iteration's outcome is fully
/// determined: a decoy becomes a queue entry within its 32 priming
/// activations iff its initial counter is within 32 of a threshold
/// crossing ("heavy-weight", probability 64/256 = 1/4). The attack row
/// then sits behind the successful decoys and absorbs 128 activations per
/// occupied slot ahead of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizedIteration {
    /// Decoys that entered the queue (0..=8).
    pub heavy_decoys: u32,
    /// Activations inflicted on the attack row this iteration.
    pub acts_on_attack_row: u32,
}

/// Fast model of the randomized Jailbreak: simulates `iterations`
/// iterations at iteration granularity (seeded, reproducible) and returns
/// the running maximum of activations on the attack row after each
/// iteration — the series plotted in Fig. 5.
///
/// Validated against the full event simulation in the integration tests.
#[derive(Debug)]
pub struct RandomizedJailbreak {
    threshold: u32,
    priming_acts: u32,
    rng: StdRng,
}

impl RandomizedJailbreak {
    /// Creates the model for a given queueing `threshold` (128 in the
    /// paper) with the paper's 32 priming activations per decoy.
    pub fn new(threshold: u32, seed: u64) -> Self {
        RandomizedJailbreak {
            threshold,
            priming_acts: 32,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs one iteration: samples 8 decoy initial counters and the attack
    /// row's counter, and computes the activations the attack row absorbs.
    pub fn iteration(&mut self) -> RandomizedIteration {
        // A decoy enqueues within `priming_acts` activations iff its
        // initial counter modulo threshold is within `priming_acts` of the
        // next crossing.
        let mut heavy = 0u32;
        for _ in 0..8 {
            let init: u32 = self.rng.random_range(0..256);
            if self.threshold - (init % self.threshold) <= self.priming_acts {
                heavy += 1;
            }
        }
        // One decoy entry is naturally mitigated while the pool is primed
        // and the attack row climbs to its own crossing (§3.3: "one row
        // gets mitigated over this time").
        let occupied = heavy.saturating_sub(1);
        let init_x: u32 = self.rng.random_range(0..256);
        let to_enqueue = self.threshold - (init_x % self.threshold);
        // While enqueued behind `occupied` entries, plus its own service
        // period, the paced attack row receives threshold acts per slot.
        let acts = to_enqueue + (occupied + 1) * self.threshold;
        RandomizedIteration {
            heavy_decoys: heavy,
            acts_on_attack_row: acts,
        }
    }

    /// The running-max series over `iterations` iterations: entry `i` is
    /// the best result seen in iterations `0..=i`.
    pub fn running_max(&mut self, iterations: u32) -> Vec<u32> {
        let mut best = 0;
        (0..iterations)
            .map(|_| {
                best = best.max(self.iteration().acts_on_attack_row);
                best
            })
            .collect()
    }

    /// Average time per iteration (§3.3: ≈256 µs including queue reset).
    pub fn iteration_time(&self) -> Nanos {
        Nanos::from_micros(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_row_is_last() {
        let j = JailbreakAttacker::new(1000);
        assert_eq!(j.attack_row(), RowId::new(1000 + 42));
    }

    #[test]
    #[should_panic(expected = "decoys")]
    fn needs_two_rows() {
        let _ = JailbreakAttacker::with_rows(vec![1], 128, 32);
    }

    #[test]
    fn randomized_iteration_bounds() {
        let mut r = RandomizedJailbreak::new(128, 7);
        for _ in 0..10_000 {
            let it = r.iteration();
            assert!(it.heavy_decoys <= 8);
            // Worst case: all 8 heavy → 7 occupied + self = 8 slots of 128
            // plus up to 128 to enqueue = 1152.
            assert!(it.acts_on_attack_row <= 1152);
            assert!(it.acts_on_attack_row >= 129);
        }
    }

    #[test]
    fn heavy_probability_is_one_quarter() {
        let mut r = RandomizedJailbreak::new(128, 11);
        let total: u32 = (0..20_000).map(|_| r.iteration().heavy_decoys).sum();
        let mean = total as f64 / 20_000.0;
        assert!((1.8..2.2).contains(&mean), "mean heavy decoys {mean} ≉ 2.0");
    }

    #[test]
    fn running_max_approaches_1145_within_2_20_iterations() {
        // Fig. 5: randomized Jailbreak reaches ≈1145 activations within
        // 2^20 iterations (success probability ≈ 2^-16 per iteration).
        let mut r = RandomizedJailbreak::new(128, 3);
        let series = r.running_max(1 << 20);
        let last = *series.last().unwrap();
        assert!(last >= 1100, "running max after 2^20 iterations: {last}");
        // Monotone non-decreasing by construction.
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn running_max_is_low_early() {
        let mut r = RandomizedJailbreak::new(128, 3);
        let series = r.running_max(16);
        assert!(
            series[15] < 1152,
            "all-heavy within 16 iterations is (almost) impossible"
        );
    }
}
