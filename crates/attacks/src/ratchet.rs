//! The Ratchet attack (§5): exploiting the activations JEDEC permits
//! between consecutive ALERTs to push rows beyond ATH.
//!
//! The attack has two parts:
//!
//! 1. **Priming** — bring a pool of `N` rows to exactly ATH activations
//!    each. Pool rows are drawn from refresh groups *behind* the refresh
//!    pointer, so the sweep cannot reset them again for almost a full
//!    tREFW; rows stolen by MOAT's proactive mitigation are re-primed.
//! 2. **Ratcheting** — trigger an ALERT on one row; the `3 + L`
//!    activations the ABO protocol permits around each ALERT (Fig. 8) are
//!    spread over the rows with the lowest counts, lifting the whole pool.
//!    As RFMs mitigate rows one per ALERT, the pool shrinks and the
//!    remaining activations concentrate — the last surviving row ends up
//!    `log_{M/3}(N) + M` activations above ATH (Appendix A).
//!
//! The per-step attacker is engine-agnostic: it only reads PRAC
//! counters, the refresh pointer, and the in-flight mitigation — all
//! information the threat model grants (§2.1). The semi-scripted form
//! additionally reads MOAT's shadow counters (same threat model) to
//! publish alert-edge-exact runs; against any other engine it falls
//! back to the grant's engine-guaranteed tier.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use std::borrow::Cow;

use moat_core::MoatEngine;
use moat_dram::RowId;
use moat_sim::{AttackStep, Attacker, DefenseView, RunGrant, SemiRun, SemiScriptedAttacker};

use crate::grant::GrantLog;

/// Phases of the Ratchet attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Priming,
    Ratcheting,
    Done,
}

/// The Ratchet attacker.
///
/// # Examples
///
/// ```
/// use moat_attacks::RatchetAttacker;
/// use moat_core::{MoatConfig, MoatEngine};
/// use moat_dram::Nanos;
/// use moat_sim::{SecurityConfig, SecuritySim};
///
/// let mut sim = SecuritySim::new(
///     SecurityConfig::paper_default(),
///     Box::new(MoatEngine::new(MoatConfig::paper_default())),
/// );
/// let mut ratchet = RatchetAttacker::new(64, 256);
/// let report = sim.run(&mut ratchet, Nanos::from_millis(8));
/// // The pool lets the attacker exceed ATH by a ratcheted margin, yet
/// // stay at or below the Appendix-A bound for this pool size (~89).
/// assert!(report.max_pressure > 64);
/// assert!(report.max_pressure <= 99);
/// ```
#[derive(Debug)]
pub struct RatchetAttacker {
    ath: u32,
    pool_target: usize,
    spacing: u32,
    phase: Phase,
    /// Rows already added to the pool (primed at least once).
    pool: Vec<RowId>,
    pool_set: HashSet<RowId>,
    /// Index of the pool row currently being primed/repaired.
    priming_idx: usize,
    /// Next candidate row index for pool growth.
    next_candidate: u32,
    /// Min-count heap for the ratcheting phase: (count, row).
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Rows the attacker observed being mitigated (for repair).
    last_inflight: Option<RowId>,
    repair: Vec<RowId>,
    /// Per-grant published-activation model for the semi-scripted form.
    grant: GrantLog<RowId>,
}

impl RatchetAttacker {
    /// Creates a Ratchet attack against ALERT threshold `ath` with a pool
    /// of `pool_size` rows (spaced six apart so blast radii are disjoint).
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero.
    pub fn new(ath: u32, pool_size: usize) -> Self {
        assert!(pool_size > 0, "pool must be non-empty");
        RatchetAttacker {
            ath,
            pool_target: pool_size,
            spacing: 6,
            phase: Phase::Priming,
            pool: Vec::with_capacity(pool_size),
            pool_set: HashSet::with_capacity(pool_size),
            priming_idx: 0,
            next_candidate: 0,
            heap: BinaryHeap::new(),
            last_inflight: None,
            repair: Vec::new(),
            grant: GrantLog::default(),
        }
    }

    /// The row for candidate index `i`: spaced, skipping the lowest group.
    fn candidate_row(&self, i: u32) -> u32 {
        8 + i * self.spacing
    }

    /// Tracks proactive mitigations so stolen pool rows get re-primed.
    fn watch_mitigations(&mut self, view: &DefenseView<'_>) {
        let inflight = view.unit.inflight_row();
        if let Some(prev) = self.last_inflight {
            if inflight != Some(prev) && self.pool_set.contains(&prev) {
                self.repair.push(prev);
            }
        }
        self.last_inflight = inflight;
    }
}

impl Attacker for RatchetAttacker {
    fn step(&mut self, view: &DefenseView<'_>) -> AttackStep {
        match self.phase {
            Phase::Priming => {
                self.watch_mitigations(view);

                // Repair rows whose counters were reset by proactive
                // mitigation while we primed the rest.
                while let Some(&row) = self.repair.last() {
                    if view.unit.bank().counter(row).get() < self.ath {
                        return AttackStep::Act(row);
                    }
                    self.repair.pop();
                }

                // Continue priming the current pool row to exactly ATH.
                while self.priming_idx < self.pool.len() {
                    let row = self.pool[self.priming_idx];
                    if view.unit.bank().counter(row).get() < self.ath {
                        return AttackStep::Act(row);
                    }
                    self.priming_idx += 1;
                }

                // Grow the pool with the next candidate behind the
                // refresh pointer.
                if self.pool.len() < self.pool_target {
                    let cand = self.candidate_row(self.next_candidate);
                    if cand >= view.unit.config().rows_per_bank {
                        // Ran out of rows; ratchet with what we have.
                        self.begin_ratchet();
                        return self.step(view);
                    }
                    let group = cand / view.unit.config().rows_per_refresh_group;
                    if u64::from(group) < view.unit.refresh().refs_done() {
                        self.next_candidate += 1;
                        let row = RowId::new(cand);
                        self.pool.push(row);
                        self.pool_set.insert(row);
                        return AttackStep::Act(row);
                    }
                    // Pointer has not reached the candidate's group yet.
                    return AttackStep::Idle;
                }

                self.begin_ratchet();
                self.step(view)
            }
            Phase::Ratcheting => {
                // Spread activations over the live rows with the lowest
                // counts; rows mitigated by RFMs (counter reset) drop out.
                while let Some(&Reverse((count, row))) = self.heap.peek() {
                    let actual = view.unit.bank().counter(RowId::new(row)).get();
                    if actual < count.min(self.ath) {
                        // Mitigated (reset by RFM or sweep): out of the pool.
                        self.heap.pop();
                        continue;
                    }
                    self.heap.pop();
                    self.heap.push(Reverse((actual + 1, row)));
                    return AttackStep::Act(RowId::new(row));
                }
                self.phase = Phase::Done;
                AttackStep::Stop
            }
            Phase::Done => AttackStep::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Owned(format!(
            "ratchet(ath={}, pool={})",
            self.ath, self.pool_target
        ))
    }
}

/// The semi-scripted form: each phase publishes a whole run keyed off the
/// snapshot's ledger/counter state, modeling its own counter increments
/// through a `GrantLog` so the repair → prime → grow cascade and the
/// min-count ratcheting heap vectorize without drifting from the
/// per-step reference. Mitigations, counter resets, and refresh-pointer
/// movement only happen at REF/RFM events — grant boundaries — so one
/// `watch_mitigations` observation per grant sees exactly the value
/// sequence the per-step attacker sees.
///
/// Against a [`MoatEngine`] the publish is engine-aware: MOAT's ALERT
/// flag flips exactly when an activation's *effective* count (the §4.3
/// shadow's if one is active, the in-array counter's otherwise) exceeds
/// the engine's ATH, so the attacker extends runs past the conservative
/// `alert_safe` tier — which collapses to one slot as soon as any pool
/// row stands at ATH — and ends them precisely at a tripping ACT.
/// Against any other engine it stays within the engine-guaranteed tier.
impl SemiScriptedAttacker for RatchetAttacker {
    fn publish(
        &mut self,
        view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        let moat = view.engine().as_any().downcast_ref::<MoatEngine>();
        let max = if moat.is_some() {
            grant.max
        } else {
            grant.alert_safe
        };
        // The exact MOAT flip condition for the next act on `row`, given
        // the acts already published for it in this grant.
        let trips = |log: &GrantLog<RowId>, row: RowId, counter: u32| -> bool {
            moat.is_some_and(|m| {
                let effective = m.shadow_count(row).unwrap_or(counter) + log.count(row) + 1;
                effective > m.config().ath
            })
        };
        match self.phase {
            Phase::Priming => {
                self.watch_mitigations(view);
                self.grant.clear();
                let bank = view.unit.bank();
                while buf.len() < max {
                    // Repair rows reset by proactive mitigation first.
                    if let Some(&row) = self.repair.last() {
                        let counter = bank.counter(row).get();
                        if counter + self.grant.count(row) < self.ath {
                            let ends = trips(&self.grant, row, counter);
                            buf.push(row);
                            self.grant.bump(row);
                            if ends {
                                return SemiRun::Acts(buf.len());
                            }
                            continue;
                        }
                        self.repair.pop();
                        continue;
                    }

                    // Continue priming the current pool row to exactly ATH.
                    if self.priming_idx < self.pool.len() {
                        let row = self.pool[self.priming_idx];
                        let counter = bank.counter(row).get();
                        if counter + self.grant.count(row) < self.ath {
                            let ends = trips(&self.grant, row, counter);
                            buf.push(row);
                            self.grant.bump(row);
                            if ends {
                                return SemiRun::Acts(buf.len());
                            }
                            continue;
                        }
                        self.priming_idx += 1;
                        continue;
                    }

                    // Grow the pool with the next candidate behind the
                    // refresh pointer.
                    if self.pool.len() < self.pool_target {
                        let cand = self.candidate_row(self.next_candidate);
                        if cand >= view.unit.config().rows_per_bank {
                            // Ran out of rows; flush, then ratchet.
                            break;
                        }
                        let group = cand / view.unit.config().rows_per_refresh_group;
                        if u64::from(group) < view.unit.refresh().refs_done() {
                            self.next_candidate += 1;
                            let row = RowId::new(cand);
                            self.pool.push(row);
                            self.pool_set.insert(row);
                            let ends = trips(&self.grant, row, bank.counter(row).get());
                            buf.push(row);
                            self.grant.bump(row);
                            if ends {
                                return SemiRun::Acts(buf.len());
                            }
                            continue;
                        }
                        // Pointer has not reached the candidate's group
                        // yet: flush any queued acts, then idle — the
                        // pointer only moves at the next REF, which ends
                        // the grant anyway.
                        if buf.is_empty() {
                            return SemiRun::Idle(u64::MAX);
                        }
                        break;
                    }

                    // Pool complete: flush, then ratchet.
                    break;
                }
                if !buf.is_empty() {
                    return SemiRun::Acts(buf.len());
                }
                self.begin_ratchet();
                self.publish(view, buf, grant)
            }
            Phase::Ratcheting => {
                self.grant.clear();
                let bank = view.unit.bank();
                while buf.len() < max {
                    let Some(&Reverse((count, row))) = self.heap.peek() else {
                        break;
                    };
                    let id = RowId::new(row);
                    let counter = bank.counter(id).get();
                    let actual = counter + self.grant.count(id);
                    if actual < count.min(self.ath) {
                        // Mitigated (reset by RFM or sweep): out of the pool.
                        self.heap.pop();
                        continue;
                    }
                    self.heap.pop();
                    self.heap.push(Reverse((actual + 1, row)));
                    let ends = trips(&self.grant, id, counter);
                    buf.push(id);
                    self.grant.bump(id);
                    if ends {
                        return SemiRun::Acts(buf.len());
                    }
                }
                if buf.is_empty() {
                    self.phase = Phase::Done;
                    return SemiRun::Stop;
                }
                SemiRun::Acts(buf.len())
            }
            Phase::Done => SemiRun::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        Attacker::name(self)
    }
}

impl RatchetAttacker {
    fn begin_ratchet(&mut self) {
        self.heap = self
            .pool
            .iter()
            .map(|r| Reverse((self.ath, r.index())))
            .collect();
        self.phase = Phase::Ratcheting;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_dram::Nanos;
    use moat_sim::{SecurityConfig, SecuritySim};

    fn run_ratchet(ath: u32, pool: usize, millis: u64) -> moat_sim::SecurityReport {
        let mut sim = SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::with_ath(ath))),
        );
        let mut attacker = RatchetAttacker::new(ath, pool);
        sim.run(&mut attacker, Nanos::from_millis(millis))
    }

    #[test]
    fn ratchet_exceeds_ath() {
        let report = run_ratchet(64, 128, 6);
        assert!(
            report.max_pressure > 64,
            "ratchet must beat ATH, got {}",
            report.max_pressure
        );
        assert!(report.alerts > 50, "alerts: {}", report.alerts);
    }

    #[test]
    fn ratchet_respects_appendix_a_bound() {
        // Appendix A: ATH + log_{4/3}(N) + 4 for level 1.
        for pool in [32usize, 128] {
            let report = run_ratchet(64, pool, 8);
            let bound = 64.0 + (pool as f64).ln() / (4.0f64 / 3.0).ln() + 4.0;
            assert!(
                f64::from(report.max_pressure) <= bound + 2.0,
                "pool {pool}: pressure {} exceeds model bound {bound:.1}",
                report.max_pressure
            );
        }
    }

    #[test]
    fn larger_pools_ratchet_higher() {
        let small = run_ratchet(64, 16, 4);
        let large = run_ratchet(64, 256, 8);
        assert!(
            large.max_pressure >= small.max_pressure,
            "small {} vs large {}",
            small.max_pressure,
            large.max_pressure
        );
    }

    #[test]
    #[should_panic(expected = "pool must be non-empty")]
    fn zero_pool_rejected() {
        let _ = RatchetAttacker::new(64, 0);
    }
}
