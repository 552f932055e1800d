//! A *bank unit*: one DRAM bank composed with its mitigation engine,
//! refresh engine, ground-truth security ledger, and the REF-time
//! mitigation scheduler. Both the security simulator and the performance
//! simulator are built out of bank units.

use moat_dram::{
    ActCount, Bank, DramConfig, DramError, IntegrityReport, MitigationEngine, Nanos,
    RefMitigationMode, RefreshEngine, RowId, SecurityLedger,
};

use crate::budget::SlotBudget;

/// How many requests ahead of the issue point the batched loops start
/// loading counter/ledger state. A request touches its PRAC counter's
/// cache line and the one or two lines its ledger window spans (five
/// 8-byte cells at blast radius 2), so this keeps well under the
/// outstanding-miss budget of current cores while covering several
/// hundred nanoseconds of issue work. Shared by the performance
/// simulator's chunked issue loop and [`BankUnit::activate_run`].
pub(crate) const PREFETCH_DISTANCE: usize = 12;

/// An aggressor mitigation in flight under gradual REF-time mitigation:
/// one REF slot is consumed per victim row (plus one for the counter
/// reset), and the full effect — victim refreshes and counter reset —
/// is applied atomically when the last slot completes (§2.2, §4.1).
///
/// Applying the effect at completion rather than slot-by-slot keeps the
/// `PRAC counter ≥ victim pressure` invariant exact: the counter and the
/// pressure reset at the same instant. Physically the victims are
/// refreshed during earlier slots, so the modeled pressure is an upper
/// bound on the real pressure — conservative in the safe direction, and
/// the accounting the paper's Jailbreak arithmetic uses (row H accrues
/// activations until its queue entry's mitigation period finishes).
#[derive(Debug, Clone)]
struct InflightMitigation {
    row: RowId,
    ops_left: u32,
}

/// Counters a bank unit accumulates while simulating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankUnitStats {
    /// REF commands performed.
    pub refs: u64,
    /// Aggressor mitigations completed via REF-time (proactive) slots.
    pub proactive_mitigations: u64,
    /// Aggressor mitigations completed via RFM (reactive, during ALERT).
    pub reactive_mitigations: u64,
    /// Activations performed.
    pub acts: u64,
}

/// One bank with everything attached to it.
///
/// `BankUnit` is generic over its mitigation engine. With a concrete
/// engine type (`BankUnit<MoatEngine>`) every per-ACT engine call is
/// statically dispatched and inlined into the simulation loop; the
/// default parameter `Box<dyn MitigationEngine>` preserves the original
/// fully type-erased behaviour for heterogeneous-engine experiments.
///
/// # Examples
///
/// ```
/// use moat_core::{MoatConfig, MoatEngine};
/// use moat_dram::{DramConfig, Nanos, RowId};
/// use moat_sim::{BankUnit, SlotBudget};
///
/// let cfg = DramConfig::builder().rows_per_bank(1024).build();
/// // Monomorphized (static dispatch):
/// let engine = MoatEngine::new(MoatConfig::paper_default());
/// let mut unit = BankUnit::new(&cfg, engine, SlotBudget::paper_default());
/// unit.activate(RowId::new(5), Nanos::ZERO)?;
/// assert_eq!(unit.stats().acts, 1);
/// # Ok::<(), moat_dram::DramError>(())
/// ```
#[derive(Debug)]
pub struct BankUnit<E: MitigationEngine = Box<dyn MitigationEngine>> {
    config: DramConfig,
    bank: Bank,
    engine: E,
    ledger: SecurityLedger,
    refresh: RefreshEngine,
    inflight: Option<InflightMitigation>,
    budget: SlotBudget,
    stats: BankUnitStats,
}

impl<E: MitigationEngine> BankUnit<E> {
    /// Composes a bank unit from a configuration, an engine, and a
    /// REF-time mitigation budget.
    pub fn new(config: &DramConfig, engine: E, budget: SlotBudget) -> Self {
        BankUnit {
            config: *config,
            bank: Bank::new(config),
            engine,
            ledger: SecurityLedger::new(config),
            refresh: RefreshEngine::new(config),
            inflight: None,
            budget,
            stats: BankUnitStats::default(),
        }
    }

    /// The DRAM configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Immutable access to the bank (attacker inspection, counter reads).
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// Mutable access to the bank (randomized counter initialization).
    pub fn bank_mut(&mut self) -> &mut Bank {
        &mut self.bank
    }

    /// The mitigation engine (attackers may downcast via
    /// [`MitigationEngine::as_any`], per the threat model).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable engine access, for fault injection
    /// ([`MitigationEngine::apply_fault`]). Out-of-band engine mutation
    /// voids the [`MitigationEngine::min_acts_to_alert`] horizon
    /// guarantee — which is exactly what the fault layer measures.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// A type-erased read-only view of this unit, used to hand the full
    /// defense state to adaptive attackers without making them generic
    /// over the engine type.
    ///
    /// The engine is erased via [`MitigationEngine::as_dyn`], so even when
    /// `E` is itself `Box<dyn MitigationEngine>` the view dispatches
    /// through a single vtable — not through the forwarding `Box` impl.
    pub fn as_view(&self) -> BankUnitView<'_> {
        BankUnitView {
            config: &self.config,
            bank: &self.bank,
            engine: self.engine.as_dyn(),
            ledger: &self.ledger,
            refresh: &self.refresh,
            inflight: self.inflight.as_ref().map(|m| m.row),
            stats: self.stats,
        }
    }

    /// The ground-truth security ledger.
    pub fn ledger(&self) -> &SecurityLedger {
        &self.ledger
    }

    /// The refresh engine.
    pub fn refresh(&self) -> &RefreshEngine {
        &self.refresh
    }

    /// Mutable refresh access (postponement attacks).
    pub fn refresh_mut(&mut self) -> &mut RefreshEngine {
        &mut self.refresh
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BankUnitStats {
        self.stats
    }

    /// The row currently being mitigated gradually, if any.
    pub fn inflight_row(&self) -> Option<RowId> {
        self.inflight.as_ref().map(|m| m.row)
    }

    /// Activates `row` at `now`: bank timing + counter update, ledger
    /// update, and the engine's precharge hook.
    ///
    /// # Errors
    ///
    /// Propagates [`DramError`] from the bank (tRC violation, bad row).
    #[inline]
    pub fn activate(&mut self, row: RowId, now: Nanos) -> Result<ActCount, DramError> {
        let counter = self.bank.activate(row, now)?;
        self.ledger.on_activate(row);
        self.engine.on_precharge_update(row, counter);
        self.stats.acts += 1;
        Ok(counter)
    }

    /// Whether this unit's engine wants an ALERT.
    #[inline]
    pub fn alert_pending(&self) -> bool {
        self.engine.alert_pending()
    }

    /// The engine's event-horizon hint: a sound lower bound on how many
    /// further activations this bank absorbs before
    /// [`alert_pending`](Self::alert_pending) could become true (see
    /// [`MitigationEngine::min_acts_to_alert`]).
    #[inline]
    pub fn min_acts_to_alert(&self) -> u64 {
        self.engine.min_acts_to_alert()
    }

    /// Activates an event-free run of rows back-to-back: `rows[i]` issues
    /// at `start + i·tRC`, with the chunk-prefetch scheme of the batched
    /// performance pipeline overlapping the counter/ledger cache misses of
    /// upcoming rows with the current activation's work. The caller
    /// guarantees the bank is ready at `start` and that no REF, ALERT, or
    /// episode boundary falls inside the run — exactly what the security
    /// simulator's event-horizon computation establishes.
    ///
    /// # Panics
    ///
    /// Panics with `attacker row within the bank` if a row is outside the
    /// bank, and with `event-free run respects bank timing` if the bank is
    /// not ready at `start` (the caller's horizon contract was violated).
    pub fn activate_run(&mut self, rows: &[RowId], start: Nanos, t_rc: Nanos) {
        let mut last_hint: Option<RowId> = None;
        let mut t = start;
        for (i, &row) in rows.iter().enumerate() {
            // Consecutive duplicates (hammer runs revisiting one row) are
            // skipped — their lines are already inbound.
            if let Some(&ahead) = rows.get(i + PREFETCH_DISTANCE) {
                if last_hint != Some(ahead) {
                    self.prefetch_activate(ahead);
                }
                last_hint = Some(ahead);
            }
            self.activate_in_run(row, t);
            t += t_rc;
        }
    }

    /// [`activate`](Self::activate) for one ACT of an event-free run,
    /// whose caller has established that the bank is ready at `now`.
    ///
    /// # Panics
    ///
    /// Panics with `attacker row within the bank` if `row` is outside the
    /// bank (the attacker's error), and with `event-free run respects bank
    /// timing` if the bank is not ready at `now` (the caller's horizon
    /// contract was violated).
    #[inline]
    pub(crate) fn activate_in_run(&mut self, row: RowId, now: Nanos) {
        match self.activate(row, now) {
            Ok(_) => {}
            Err(e @ DramError::RowOutOfRange { .. }) => {
                panic!("attacker row within the bank: {e:?}")
            }
            Err(e) => panic!("event-free run respects bank timing: {e:?}"),
        }
    }

    /// Hints the cache to load the row-indexed state a future
    /// [`activate`](Self::activate) of `row` will touch — the PRAC
    /// counter and the ledger's victim/epoch cells. The batched issue
    /// pipeline calls this a few requests ahead so the (otherwise
    /// serialized) cache misses of consecutive activations overlap, and
    /// [`perform_ref`](Self::perform_ref) calls it for the next REF's
    /// group. Purely a hint: no simulation state changes.
    #[inline]
    pub fn prefetch_activate(&self, row: RowId) {
        self.bank.prefetch_counter(row);
        self.ledger.prefetch(row);
    }

    /// Performs one REF at `now`: refreshes the due group, runs the
    /// engine's refresh hook and counter resets, and spends the REF-time
    /// mitigation budget. It ends by prefetching the group the next REF
    /// refreshes, so that REF finds its counter and ledger lines in
    /// cache; otherwise they are cold, as the sweep passed them a whole
    /// tREFW earlier.
    pub fn perform_ref(&mut self, now: Nanos) {
        let group = self.refresh.perform(now);
        // Engine snapshot hook runs before any counter reset (§4.3).
        let (engine, bank) = (&mut self.engine, &self.bank);
        engine.on_refresh_group(group.rows.clone(), &mut |r: RowId| bank.counter(r));
        if self.engine.resets_counters_on_refresh() {
            self.bank.reset_counters_in(group.rows.clone());
        }
        self.ledger.on_refresh_rows(group.rows.clone());
        self.stats.refs += 1;

        match self.engine.ref_mitigation_mode() {
            RefMitigationMode::Gradual => {
                let slots = self.budget.on_ref();
                for _ in 0..slots {
                    self.mitigation_slot();
                }
            }
            RefMitigationMode::DrainAll => {
                // Appendix B: a REF can fully mitigate up to two aggressors.
                for _ in 0..2 {
                    if let Some(row) = self.engine.select_ref_mitigation() {
                        self.complete_mitigation(row);
                        self.stats.proactive_mitigations += 1;
                    }
                }
            }
        }

        // With the paper's 8-row groups, two hints at the next group's
        // first and last rows reach its counters and every ledger cell
        // its REF resets: pressure in the group, epochs from
        // `blast_radius` rows below it.
        let per = self.config.rows_per_refresh_group;
        let first = self.refresh.next_group() * per;
        self.prefetch_activate(RowId::new(first));
        self.prefetch_activate(RowId::new(first + per - 1));
    }

    /// One RFM opportunity during an ALERT: the engine picks a row and it
    /// is mitigated in full (an RFM is worth five row refreshes, §2.6).
    pub fn rfm_mitigate(&mut self) {
        if let Some(row) = self.engine.select_alert_mitigation() {
            self.complete_mitigation(row);
            self.stats.reactive_mitigations += 1;
        }
    }

    /// Runs the engine's
    /// [`integrity_check`](MitigationEngine::integrity_check) against its
    /// parity/ECC shadow. A no-op report (`guarded == false`) when the
    /// engine's guard is disarmed.
    #[inline]
    pub fn integrity_check(&mut self) -> IntegrityReport {
        self.engine.integrity_check()
    }

    /// Scrubs the engine's tracker against the authoritative in-array
    /// counters (see [`MitigationEngine::scrub_resync`]), returning the
    /// number of corrected slots. Zero when the engine's guard is
    /// disarmed.
    pub fn scrub_resync(&mut self) -> u32 {
        let (engine, bank) = (&mut self.engine, &self.bank);
        engine.scrub_resync(&mut |r: RowId| bank.counter(r))
    }

    /// Forces a full, immediate mitigation of `row` — the integrity
    /// guard's conservative fallback for a row whose tracked count is
    /// untrusted: victims refreshed, counter reset to a trusted zero,
    /// engine notified. Counted as a proactive mitigation (it spends
    /// defense-side work, not attacker time).
    pub fn force_mitigate(&mut self, row: RowId) {
        self.complete_mitigation(row);
        self.stats.proactive_mitigations += 1;
    }

    /// Spends one gradual mitigation slot: starts a new in-flight
    /// aggressor if none, and applies the full mitigation when the last
    /// slot completes (see [`InflightMitigation`]).
    fn mitigation_slot(&mut self) {
        if self.inflight.is_none() {
            let Some(row) = self.engine.select_ref_mitigation() else {
                return;
            };
            self.inflight = Some(InflightMitigation {
                row,
                ops_left: self.engine.ops_per_mitigation(),
            });
            // The selection itself is free; fall through to spend this
            // slot on the first op.
        }
        let Some(m) = self.inflight.as_mut() else {
            return;
        };
        m.ops_left = m.ops_left.saturating_sub(1);
        if m.ops_left == 0 {
            let row = m.row;
            self.inflight = None;
            self.complete_mitigation(row);
            self.stats.proactive_mitigations += 1;
        }
    }

    /// Finalizes an instantaneous (RFM or drain-on-REF) mitigation of
    /// `row`: all victims refreshed, counter reset, engine notified.
    fn complete_mitigation(&mut self, row: RowId) {
        self.ledger.on_victim_refresh(row);
        if self.engine.resets_counter_on_mitigation() {
            self.bank.reset_counter(row);
        }
        self.engine.on_mitigation_complete(row);
    }
}

/// A type-erased, read-only snapshot view of a [`BankUnit`].
///
/// Attackers receive this through
/// [`DefenseView`](crate::DefenseView) so the `Attacker` trait stays
/// independent of the engine type the simulator was monomorphized with.
/// The accessors mirror the ones on `BankUnit`, so attacker code written
/// against `view.unit.bank()` etc. works unchanged.
#[derive(Debug, Clone, Copy)]
pub struct BankUnitView<'a> {
    config: &'a DramConfig,
    bank: &'a Bank,
    engine: &'a dyn MitigationEngine,
    ledger: &'a SecurityLedger,
    refresh: &'a RefreshEngine,
    inflight: Option<RowId>,
    stats: BankUnitStats,
}

impl<'a> BankUnitView<'a> {
    /// The DRAM configuration.
    pub fn config(&self) -> &'a DramConfig {
        self.config
    }

    /// The bank (counters, timing state).
    pub fn bank(&self) -> &'a Bank {
        self.bank
    }

    /// The mitigation engine, type-erased (downcast via
    /// [`MitigationEngine::as_any`] for design-specific inspection).
    pub fn engine(&self) -> &'a dyn MitigationEngine {
        self.engine
    }

    /// The ground-truth security ledger.
    pub fn ledger(&self) -> &'a SecurityLedger {
        self.ledger
    }

    /// The refresh engine.
    pub fn refresh(&self) -> &'a RefreshEngine {
        self.refresh
    }

    /// The row currently being mitigated gradually, if any.
    pub fn inflight_row(&self) -> Option<RowId> {
        self.inflight
    }

    /// Accumulated statistics at the time the view was taken.
    pub fn stats(&self) -> BankUnitStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_trackers::{PanopticonConfig, PanopticonEngine};

    fn moat_unit() -> BankUnit {
        let cfg = DramConfig::builder().rows_per_bank(1024).build();
        BankUnit::new(
            &cfg,
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
            SlotBudget::paper_default(),
        )
    }

    fn hammer<E: MitigationEngine>(unit: &mut BankUnit<E>, row: u32, times: u32, now: &mut Nanos) {
        for _ in 0..times {
            unit.activate(RowId::new(row), *now).unwrap();
            *now += unit.config().timing.t_rc;
        }
    }

    #[test]
    fn activation_flows_through_all_layers() {
        let mut u = moat_unit();
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 40, &mut now);
        assert_eq!(u.bank().counter(RowId::new(10)).get(), 40);
        assert_eq!(u.ledger().pressure(RowId::new(11)), 40);
        assert_eq!(u.stats().acts, 40);
        // 40 ≥ ETH(32): tracked by the engine.
        assert!(!u.alert_pending());
        hammer(&mut u, 10, 25, &mut now);
        assert!(u.alert_pending(), "65 > ATH(64)");
    }

    #[test]
    fn gradual_mitigation_takes_five_refs_for_moat() {
        let mut u = moat_unit();
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 40, &mut now);
        // 5 REFs at 1 slot each: 4 victims + counter reset.
        for i in 0..5u64 {
            now += u.config().timing.t_refi;
            u.perform_ref(now);
            assert_eq!(
                u.stats().proactive_mitigations,
                u64::from(i == 4),
                "completes exactly at the fifth REF"
            );
        }
        assert_eq!(u.bank().counter(RowId::new(10)).get(), 0, "counter reset");
        assert_eq!(u.ledger().pressure(RowId::new(11)), 0, "victims refreshed");
    }

    #[test]
    fn rfm_mitigates_in_full_immediately() {
        let mut u = moat_unit();
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 70, &mut now);
        assert!(u.alert_pending());
        u.rfm_mitigate();
        assert!(!u.alert_pending());
        assert_eq!(u.stats().reactive_mitigations, 1);
        assert_eq!(u.bank().counter(RowId::new(10)).get(), 0);
        assert_eq!(u.ledger().pressure(RowId::new(11)), 0);
    }

    #[test]
    fn panopticon_mitigation_takes_four_refs() {
        let cfg = DramConfig::builder().rows_per_bank(1024).build();
        let mut u = BankUnit::new(
            &cfg,
            Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
            SlotBudget::paper_default(),
        );
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 128, &mut now);
        for i in 0..4u64 {
            now += cfg.timing.t_refi;
            u.perform_ref(now);
            assert_eq!(u.stats().proactive_mitigations, u64::from(i == 3));
        }
        // Panopticon does not reset the counter on mitigation.
        assert_eq!(u.bank().counter(RowId::new(10)).get(), 128);
        assert_eq!(u.ledger().pressure(RowId::new(11)), 0);
    }

    #[test]
    fn refresh_resets_counters_for_moat_only() {
        let cfg = DramConfig::builder().rows_per_bank(1024).build();
        let mut moat = BankUnit::new(
            &cfg,
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
            SlotBudget::paper_default(),
        );
        let mut pano = BankUnit::new(
            &cfg,
            Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
            SlotBudget::paper_default(),
        );
        let mut now = Nanos::ZERO;
        hammer(&mut moat, 3, 10, &mut now);
        let mut now2 = Nanos::ZERO;
        hammer(&mut pano, 3, 10, &mut now2);
        // First REF refreshes group 0 (rows 0..8), containing row 3.
        moat.perform_ref(cfg.timing.t_refi);
        pano.perform_ref(cfg.timing.t_refi);
        assert_eq!(moat.bank().counter(RowId::new(3)).get(), 0);
        assert_eq!(pano.bank().counter(RowId::new(3)).get(), 10);
    }

    #[test]
    fn disabled_budget_never_mitigates_proactively() {
        let cfg = DramConfig::builder().rows_per_bank(1024).build();
        let mut u = BankUnit::new(
            &cfg,
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
            SlotBudget::disabled(),
        );
        let mut now = Nanos::ZERO;
        hammer(&mut u, 10, 40, &mut now);
        for _ in 0..20 {
            now += cfg.timing.t_refi;
            u.perform_ref(now);
        }
        assert_eq!(u.stats().proactive_mitigations, 0);
    }
}
