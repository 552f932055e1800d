//! The sub-channel's episode order (§2.6, Fig. 8): one definition of
//! "an RFM phase first, then a due all-bank REF, then an ALERT
//! assertion", shared by both [`SecuritySim`](crate::SecuritySim) loops
//! and [`PerfSim`](crate::PerfSim).
//!
//! Each caller keeps its own timing. It picks the instant `at` of the
//! next step, and the point `flatten_before` up to which an RFM phase
//! resolves in one step rather than RFM by RFM. `SecuritySim` steps at
//! its clock; `PerfSim` steps at the REF deadline or ALERT stall point
//! its next ACT would straddle, once the current stall has ended.

use moat_dram::{
    AboLevel, AboPhase, AboProtocol, DramTiming, EngineFault, MitigationEngine, Nanos,
};
use moat_telemetry::{SimPhase, TelemetryHook};

use crate::fault_hook::FaultHook;
use crate::guard_hook::GuardHook;
use crate::hooks::Hooks;
use crate::unit::BankUnit;

/// One sub-channel: its ABO protocol, the point it is stalled until (by a
/// REF or an RFM phase) and whether it may assert ALERT.
///
/// The REF deadline stays in each unit's refresh engine, because
/// attackers read it through
/// [`BankUnitView::refresh`](crate::BankUnitView::refresh) and a REF
/// postponement moves it. REF is all-bank, so the first unit's deadline
/// is the sub-channel's.
#[derive(Debug)]
pub(crate) struct SubChannel {
    abo: AboProtocol,
    stall_until: Nanos,
    alerts_enabled: bool,
    t_rfc: Nanos,
    t_rfm: Nanos,
}

impl SubChannel {
    /// An idle sub-channel at level `level` under `timing`.
    pub(crate) fn new(level: AboLevel, timing: DramTiming, alerts_enabled: bool) -> Self {
        SubChannel {
            abo: AboProtocol::new(level, timing),
            stall_until: Nanos::ZERO,
            alerts_enabled,
            t_rfc: timing.t_rfc,
            t_rfm: timing.t_rfm,
        }
    }

    /// The ABO protocol state.
    #[inline]
    pub(crate) fn abo(&self) -> &AboProtocol {
        &self.abo
    }

    /// The end of the latest REF or RFM phase.
    #[inline]
    pub(crate) fn stall_until(&self) -> Nanos {
        self.stall_until
    }

    /// Records `n` activations toward the inter-ALERT spacing rule.
    #[inline]
    pub(crate) fn on_acts(&mut self, n: u64) {
        self.abo.on_acts(n);
    }

    /// Applies the sub-channel's next episode step at `at`:
    ///
    /// 1. once the ALERT activity window has closed, an RFM phase — the
    ///    whole phase when its last RFM starts before `flatten_before`,
    ///    else one RFM;
    /// 2. else, with no episode in flight, a due all-bank REF;
    /// 3. else an ALERT assertion, as in [`assert_alert`](Self::assert_alert).
    ///
    /// Each RFM mitigates one row from every unit (§7.2), unless the fault
    /// layer drops it. After an RFM or REF step every bank, and the
    /// sub-channel, is busy until the step ends; the step returns how many
    /// units request an ALERT then. Step 3 returns `None`.
    pub(crate) fn advance<E, F, G, T>(
        &mut self,
        at: Nanos,
        flatten_before: Nanos,
        units: &mut [BankUnit<E>],
        hooks: &mut Hooks<F, G, T>,
    ) -> Option<usize>
    where
        E: MitigationEngine,
        F: FaultHook,
        G: GuardHook,
        T: TelemetryHook,
    {
        let (done, rfms) = match self.abo.phase() {
            AboPhase::ActWindow { stall_at } if at >= stall_at => {
                let level = u64::from(self.abo.level().as_u8());
                if at + self.t_rfm * (level - 1) < flatten_before {
                    let done = self.abo.complete_episode(at).expect("episode after window");
                    (done, level)
                } else {
                    (self.abo.start_rfm(at).expect("rfm after window"), 1)
                }
            }
            AboPhase::Rfm { busy_until, .. } => {
                let done = self.abo.start_rfm(at.max(busy_until)).expect("chained rfm");
                (done, 1)
            }
            AboPhase::Idle if units[0].refresh().is_due(at) => {
                // One pass over the units: a REF never reads a bank's
                // ready time, so occupying each bank right after its own
                // REF equals occupying every bank after all REFs.
                let end = at + self.t_rfc;
                let mut pending = 0;
                for u in units.iter_mut() {
                    u.perform_ref(at);
                    u.bank_mut().occupy_until(end);
                    pending += usize::from(u.alert_pending());
                }
                self.stall_until = self.stall_until.max(end);
                hooks.phase(SimPhase::Refresh, at, end, 1);
                return Some(pending);
            }
            _ => {
                let pending = units.iter().any(BankUnit::alert_pending);
                self.assert_alert(at, pending, units, hooks);
                return None;
            }
        };
        for _ in 0..rfms {
            if !hooks.drop_rfm(at) {
                for u in units.iter_mut() {
                    u.rfm_mitigate();
                }
            }
        }
        let mut pending = 0;
        for u in units.iter_mut() {
            u.bank_mut().occupy_until(done);
            pending += usize::from(u.alert_pending());
        }
        self.stall_until = self.stall_until.max(done);
        hooks.phase(SimPhase::EpisodeChurn, at, done, rfms);
        Some(pending)
    }

    /// Asserts ALERT at `at` when `pending` (some unit requests one), the
    /// sub-channel may assert, and the protocol permits it. When the fault
    /// layer loses the assertion in flight, the requesting units' latches
    /// clear instead; each re-arms when a counter next crosses its
    /// threshold.
    #[inline]
    pub(crate) fn assert_alert<E, F, G, T>(
        &mut self,
        at: Nanos,
        pending: bool,
        units: &mut [BankUnit<E>],
        hooks: &mut Hooks<F, G, T>,
    ) where
        E: MitigationEngine,
        F: FaultHook,
        G: GuardHook,
        T: TelemetryHook,
    {
        if self.alerts_enabled && pending && self.abo.can_assert() {
            if hooks.lose_alert(at) {
                for u in units.iter_mut().filter(|u| u.alert_pending()) {
                    u.engine_mut().apply_fault(&EngineFault::LoseAlert);
                }
            } else {
                self.abo.assert_alert(at).expect("can_assert checked");
            }
        }
    }
}
