//! The bank-level security simulator: an adaptive attacker versus one bank
//! unit under full DDR5/PRAC/ABO timing.
//!
//! The simulator is the referee for every security experiment in the paper
//! (Figs. 5, 7, 10, 15, 16): it enforces tRC spacing, schedules REFs,
//! drives the ABO protocol, and maintains the ground-truth
//! [`SecurityLedger`](moat_dram::SecurityLedger) outside the reach of the
//! defense. The attacker sees the complete defense state each step (threat
//! model §2.1) and decides the next activation.
//!
//! Two loops share the same state machine, and both step the bank's
//! sub-channel through the one episode order [`PerfSim`](crate::PerfSim)
//! also uses (an RFM phase, then a due REF, then an ALERT assertion):
//!
//! * [`SecuritySim::run`] steps an adaptive [`Attacker`] one ACT slot at a
//!   time — the bit-identical reference every experiment can fall back to.
//! * [`SecuritySim::run_semi_scripted`] runs between *event horizons*:
//!   between two state-changing events (next REF deadline, ABO
//!   activity-window close, earliest possible ALERT per
//!   [`MitigationEngine::min_acts_to_alert`]) the defense is inert. A
//!   [`SemiScriptedAttacker`] observes one [`DefenseView`] snapshot per
//!   horizon and publishes its next run — a burst of activations, an idle
//!   stretch, a REF postponement, or a stop — which issues as one batched
//!   pass through the bank unit. Every non-adaptive [`ScriptedAttacker`]
//!   is semi-scripted through a blanket impl, so scripts run here too.
//!
//! Each loop has a `_with` form taking a [`Hooks`] stack; the plain form
//! passes the all-disarmed default.

use std::borrow::Cow;

use moat_dram::{AboLevel, AboPhase, AboProtocol, DramConfig, MitigationEngine, Nanos, RowId};

use moat_telemetry::{SimPhase, TelemetryHook};

use crate::budget::SlotBudget;
use crate::fault_hook::FaultHook;
use crate::guard_hook::GuardHook;
use crate::hooks::Hooks;
use crate::subchannel::SubChannel;
use crate::unit::{BankUnit, BankUnitView};

/// Upper bound on the rows fetched per scripted run. The REF cadence caps
/// useful runs near tREFI/tRC (~75 ACTs) anyway; this only bounds the
/// reusable buffer.
const MAX_RUN: usize = 1024;

/// What the attacker does with its next ACT slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStep {
    /// Activate this row.
    Act(RowId),
    /// Let the slot pass unused.
    Idle,
    /// Postpone the next REF (the threat model lets the attacker choose
    /// the memory-system policy, §2.1 / Appendix B). Costs no time; if
    /// the postponement budget is exhausted the step degrades to `Idle`.
    PostponeRef,
    /// End the attack (the simulation stops).
    Stop,
}

/// Read-only view of the complete defense state, handed to the attacker
/// each step.
///
/// The view is type-erased (see [`BankUnitView`]) so attackers stay
/// independent of the engine type the simulator was monomorphized with.
#[derive(Debug)]
pub struct DefenseView<'a> {
    /// Current simulation time.
    pub now: Nanos,
    /// The bank unit under attack (bank counters, engine state, ledger,
    /// refresh pointer are all inspectable).
    pub unit: BankUnitView<'a>,
    /// The ABO protocol state.
    pub abo: &'a AboProtocol,
}

impl<'a> DefenseView<'a> {
    /// Convenience: the mitigation engine, for downcasting to a concrete
    /// design (`view.engine().as_any().downcast_ref::<PanopticonEngine>()`).
    pub fn engine(&self) -> &'a dyn MitigationEngine {
        self.unit.engine()
    }
}

/// An adaptive single-bank attacker.
pub trait Attacker {
    /// Chooses the next step given full visibility of the defense.
    fn step(&mut self, view: &DefenseView<'_>) -> AttackStep;

    /// A short name for reports. Returned as a [`Cow`] so implementations
    /// with a fixed or construction-time-cached name hand out a borrow —
    /// report formatting no longer allocates a `String` per cell.
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("attacker")
    }
}

/// A non-adaptive single-bank attacker: a script of activations that does
/// not depend on the defense state.
///
/// Every script is a [`SemiScriptedAttacker`] through a blanket impl, so
/// [`SecuritySim::run_semi_scripted`] drives it: the simulator asks for a
/// run of upcoming rows sized to the engine-guaranteed tier of the
/// current event horizon and issues the whole run through the bank unit
/// in one batched pass. Wrapping the same script in [`Scripted`] yields
/// the equivalent adaptive [`Attacker`] (one [`AttackStep::Act`] per
/// step, [`AttackStep::Stop`] at exhaustion), which is how the per-step
/// reference path executes it — both produce bit-identical
/// [`SecurityReport`]s.
pub trait ScriptedAttacker {
    /// Appends up to `max` upcoming activations to `buf` (the caller
    /// clears it) and returns how many were appended. `0` means the
    /// script is exhausted and the attack stops. Rows handed out are
    /// consumed: a row the simulator has to drop at an ALERT stall point
    /// is *not* replayed, matching the per-step semantics where a step's
    /// decision is spent whether or not its ACT lands.
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize;

    /// A short name for reports.
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("scripted")
    }
}

/// Adapter running any [`SemiScriptedAttacker`] as a per-step
/// [`Attacker`]: every step is a grant of exactly one slot. A script (a
/// [`ScriptedAttacker`], semi-scripted through its blanket impl) thus
/// takes one row per step and stops at exhaustion. This is the per-step
/// reference form the event-horizon loop is regression-tested against.
#[derive(Debug)]
pub struct Scripted<A> {
    inner: A,
    buf: Vec<RowId>,
}

impl<A: SemiScriptedAttacker> Scripted<A> {
    /// Wraps a semi-scripted attacker.
    pub fn new(inner: A) -> Self {
        Scripted {
            inner,
            buf: Vec::with_capacity(1),
        }
    }
}

impl<A: SemiScriptedAttacker> Attacker for Scripted<A> {
    fn step(&mut self, view: &DefenseView<'_>) -> AttackStep {
        self.buf.clear();
        match self.inner.publish(view, &mut self.buf, RunGrant::SINGLE) {
            SemiRun::Acts(_) => AttackStep::Act(self.buf[0]),
            SemiRun::Idle(_) => AttackStep::Idle,
            SemiRun::PostponeRef => AttackStep::PostponeRef,
            SemiRun::Stop => AttackStep::Stop,
        }
    }

    fn name(&self) -> Cow<'_, str> {
        self.inner.name()
    }
}

/// The grant handed to a [`SemiScriptedAttacker`] at each observation
/// point: how many back-to-back ACT slots the next published run may
/// cover, at two confidence tiers.
///
/// * [`max`](RunGrant::max) — the *hard event cap*: the number of slots
///   before the next simulator-side event (REF deadline, ALERT
///   activity-window stall point, a spacing-stalled ALERT becoming
///   assertable, end of the run). No published run may exceed it.
/// * [`alert_safe`](RunGrant::alert_safe) — the engine-guaranteed prefix
///   of `max`: within this many ACTs the engine's
///   [`min_acts_to_alert`](MitigationEngine::min_acts_to_alert) bound
///   proves `alert_pending` cannot flip, whatever rows are activated.
///
/// A conservative attacker publishes at most `alert_safe` rows and never
/// needs to reason about the defense. An *engine-aware* attacker (the
/// threat model gives it full visibility, §2.1) may publish up to `max`
/// rows, provided it ends the run at the first ACT that could set
/// `alert_pending` — the paper's adaptive attacks know their own
/// threshold crossings exactly, which is what lets Jailbreak publish
/// whole tREFI-sized hammer bursts through a queue its pacing keeps
/// permanently full (where the engine's conservative bound is a single
/// slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunGrant {
    /// Hard event cap: no published run may exceed this many ACTs.
    pub max: usize,
    /// Prefix of `max` within which the engine guarantees no ALERT can
    /// become pending (`alert_safe ≤ max`).
    pub alert_safe: usize,
}

impl RunGrant {
    /// A single-slot grant (the per-step reference form).
    pub const SINGLE: RunGrant = RunGrant {
        max: 1,
        alert_safe: 1,
    };
}

/// What a semi-scripted attacker publishes for its next grant of ACT
/// slots (see [`SemiScriptedAttacker`] — the batched analogue of
/// [`AttackStep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiRun {
    /// Activate the first `n` rows appended to the publish buffer,
    /// back-to-back at tRC spacing (`1 ≤ n ≤ grant.max`).
    Acts(usize),
    /// Let up to `n` slots pass unused. The simulator may truncate the
    /// idle stretch at the next event horizon and re-observe; publishing
    /// `u64::MAX` means "idle until something changes".
    Idle(u64),
    /// Postpone the next REF (one slot, like [`AttackStep::PostponeRef`]:
    /// costs no time, degrades to one idle slot when the postponement
    /// budget is exhausted).
    PostponeRef,
    /// End the attack.
    Stop,
}

/// A *semi-scripted* attacker: adaptive between event horizons, scripted
/// within one.
///
/// This is the protocol that lets [`SecuritySim::run_semi_scripted`]
/// extend event-horizon batching to the paper's adaptive attacks
/// (Jailbreak, Ratchet, refresh postponement, Feinting): the attacker
/// observes the complete defense state once per horizon and publishes its
/// next run conditional on it — the same observe-then-burst structure
/// real Rowhammer tooling uses.
///
/// # The publish contract
///
/// The simulator guarantees that no simulator-side event — REF, ALERT
/// assertion, episode phase change, mitigation — occurs inside a grant
/// of [`RunGrant::max`] slots. In return the published run must equal,
/// slot for slot, what the equivalent per-step [`Attacker`] would decide
/// at each of the granted slots: any state the decision depends on that
/// *does* evolve inside the grant (the attacker's own counters, its
/// per-tREFI pacing budget) must be modeled by the attacker when it
/// vectorizes, and a run longer than [`RunGrant::alert_safe`] must end
/// at the first ACT that could set the engine's `alert_pending` flag
/// (the per-step loop would assert the ALERT at the very next slot).
/// Rows handed out are consumed whether or not they land (an ACT
/// published into a closing ALERT window is dropped, exactly like the
/// per-step decision it replaces).
pub trait SemiScriptedAttacker {
    /// Observes `view` and publishes the next run: appends up to
    /// `grant.max` rows to `buf` (the caller clears it) for
    /// [`SemiRun::Acts`], or returns an idle/postpone/stop decision.
    fn publish(&mut self, view: &DefenseView<'_>, buf: &mut Vec<RowId>, grant: RunGrant)
        -> SemiRun;

    /// A short name for reports.
    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed("semi-scripted")
    }
}

/// Every non-adaptive script is trivially semi-scripted: it publishes its
/// next `alert_safe` rows (a script models nothing about the defense, so
/// it stays within the engine-guaranteed tier) and never looks at the
/// view.
impl<A: ScriptedAttacker + ?Sized> SemiScriptedAttacker for A {
    fn publish(
        &mut self,
        _view: &DefenseView<'_>,
        buf: &mut Vec<RowId>,
        grant: RunGrant,
    ) -> SemiRun {
        match self.next_run(buf, grant.alert_safe) {
            0 => SemiRun::Stop,
            n => SemiRun::Acts(n),
        }
    }

    fn name(&self) -> Cow<'_, str> {
        ScriptedAttacker::name(self)
    }
}

/// Configuration of a security simulation.
#[derive(Debug, Clone, Copy)]
pub struct SecurityConfig {
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// ABO mitigation level.
    pub abo_level: AboLevel,
    /// REF-time mitigation budget.
    pub budget: SlotBudget,
    /// Whether the DRAM may assert ALERT (disable to measure raw feinting
    /// bounds of purely transparent schemes).
    pub alerts_enabled: bool,
}

impl SecurityConfig {
    /// The paper's defaults: baseline DRAM, ABO level 1, one victim-op
    /// slot per REF, ALERTs enabled.
    pub fn paper_default() -> Self {
        SecurityConfig {
            dram: DramConfig::paper_baseline(),
            abo_level: AboLevel::L1,
            budget: SlotBudget::paper_default(),
            alerts_enabled: true,
        }
    }
}

impl Default for SecurityConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Outcome of a security simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecurityReport {
    /// Highest hammer pressure any victim row ever absorbed — the metric
    /// plotted in Figs. 5 and 10. A defense tolerates Rowhammer threshold
    /// `T` iff this stays ≤ `T`.
    pub max_pressure: u32,
    /// The victim row that absorbed it.
    pub max_pressure_row: RowId,
    /// Highest per-aggressor epoch (the paper's §2.1 metric: activations
    /// on one row without intervening mitigation or neighborhood refresh).
    pub max_epoch: u32,
    /// Total attacker activations performed.
    pub total_acts: u64,
    /// ALERTs asserted.
    pub alerts: u64,
    /// RFMs issued.
    pub rfms: u64,
    /// REFs performed.
    pub refs: u64,
    /// Aggressor mitigations completed during REF.
    pub proactive_mitigations: u64,
    /// Aggressor mitigations completed during RFM.
    pub reactive_mitigations: u64,
    /// Virtual time elapsed.
    pub elapsed: Nanos,
}

/// The single-bank security simulator: one bank unit on a sub-channel of
/// its own, whose REFs and ALERT episodes follow the same episode order
/// as [`PerfSim`](crate::PerfSim)'s.
///
/// Generic over the mitigation engine like
/// [`PerfSim`](crate::PerfSim): a concrete `E` statically dispatches
/// every per-ACT engine call, while the default `Box<dyn
/// MitigationEngine>` parameter keeps the original boxed construction
/// working unchanged.
///
/// # Examples
///
/// ```
/// use moat_core::{MoatConfig, MoatEngine};
/// use moat_dram::Nanos;
/// use moat_sim::{hammer_attacker, SecurityConfig, SecuritySim};
///
/// let mut sim = SecuritySim::new(
///     SecurityConfig::paper_default(),
///     Box::new(MoatEngine::new(MoatConfig::paper_default())),
/// );
/// // Hammer one row continuously for a millisecond of DRAM time:
/// let report = sim.run(&mut hammer_attacker(5), Nanos::from_millis(1));
/// // MOAT keeps the pressure bounded near ATH despite ~19k activations:
/// assert!(report.total_acts > 15_000);
/// assert!(report.max_pressure < 99);
/// ```
#[derive(Debug)]
pub struct SecuritySim<E: MitigationEngine = Box<dyn MitigationEngine>> {
    config: SecurityConfig,
    unit: BankUnit<E>,
    sub: SubChannel,
    now: Nanos,
}

impl<E: MitigationEngine> SecuritySim<E> {
    /// Creates a simulator for `engine` under `config`.
    pub fn new(config: SecurityConfig, engine: E) -> Self {
        let unit = BankUnit::new(&config.dram, engine, config.budget);
        let sub = SubChannel::new(config.abo_level, config.dram.timing, config.alerts_enabled);
        SecuritySim {
            config,
            unit,
            sub,
            now: Nanos::ZERO,
        }
    }

    /// The bank unit (for pre-run setup such as randomized counter
    /// initialization, and post-run inspection).
    pub fn unit(&self) -> &BankUnit<E> {
        &self.unit
    }

    /// Mutable bank unit access.
    pub fn unit_mut(&mut self) -> &mut BankUnit<E> {
        &mut self.unit
    }

    /// Current simulation time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Runs `attacker` one ACT slot at a time for `duration` of virtual
    /// time (or until it stops) and reports the outcome — the per-step
    /// reference. Can be called repeatedly; time continues.
    pub fn run(&mut self, attacker: &mut dyn Attacker, duration: Nanos) -> SecurityReport {
        self.run_with(attacker, duration, Hooks::default())
    }

    /// [`run`](Self::run) with a [`Hooks`] stack threaded through: every
    /// ACT slot is a boundary. With [`Hooks::default`] every hook branch
    /// constant-folds away and this *is* [`run`](Self::run).
    pub fn run_with<F: FaultHook, G: GuardHook, T: TelemetryHook>(
        &mut self,
        attacker: &mut dyn Attacker,
        duration: Nanos,
        mut hooks: Hooks<F, G, T>,
    ) -> SecurityReport {
        let end = self.now + duration;
        let t_rc = self.config.dram.timing.t_rc;

        while self.now < end {
            hooks.at_boundary(self.now, &mut self.unit);
            // An RFM phase never resolves in one step here: each RFM is
            // a boundary of its own.
            let now = self.now;
            let unit = std::slice::from_mut(&mut self.unit);
            if self.sub.advance(now, now, unit, &mut hooks).is_some() {
                self.now = self.sub.stall_until();
                continue;
            }

            // The attacker takes the next ACT slot.
            let step = {
                let view = DefenseView {
                    now: self.now,
                    unit: self.unit.as_view(),
                    abo: self.sub.abo(),
                };
                attacker.step(&view)
            };
            match step {
                AttackStep::Stop => break,
                AttackStep::Idle => {
                    hooks.phase(SimPhase::Idle, self.now, self.now + t_rc, 1);
                    self.now += t_rc;
                }
                AttackStep::PostponeRef => self.postpone_ref(t_rc, &mut hooks),
                AttackStep::Act(row) => self.act_one(row, t_rc, &mut hooks),
            }
        }

        self.report()
    }

    /// [`run_with`](Self::run_with) with only a fault layer. Kept as a
    /// forwarder for the host-time benchmark (`hostbench/`).
    pub fn run_with_faults<F: FaultHook>(
        &mut self,
        attacker: &mut dyn Attacker,
        duration: Nanos,
        faults: &mut F,
    ) -> SecurityReport {
        self.run_with(attacker, duration, Hooks::default().faults(faults))
    }

    /// [`run_semi_scripted`](Self::run_semi_scripted) over a script: every
    /// [`ScriptedAttacker`] is semi-scripted through the blanket impl.
    /// Kept as a forwarder for the host-time benchmark (`hostbench/`).
    pub fn run_batched<A: ScriptedAttacker + ?Sized>(
        &mut self,
        attacker: &mut A,
        duration: Nanos,
    ) -> SecurityReport {
        self.run_semi_scripted(attacker, duration)
    }

    /// [`run_semi_scripted_with`](Self::run_semi_scripted_with) over a
    /// script with only a fault layer. Kept as a forwarder for the
    /// host-time benchmark (`hostbench/`).
    pub fn run_batched_with_faults<A: ScriptedAttacker + ?Sized, F: FaultHook>(
        &mut self,
        attacker: &mut A,
        duration: Nanos,
        faults: &mut F,
    ) -> SecurityReport {
        self.run_semi_scripted_with(attacker, duration, Hooks::default().faults(faults))
    }

    /// Runs a [`SemiScriptedAttacker`] for `duration` of virtual time (or
    /// until it stops) — the event-horizon loop, for adaptive attackers
    /// and scripts alike.
    ///
    /// Between two state-changing events the defense is inert, so instead
    /// of re-entering the per-slot priority match of [`run`](Self::run),
    /// each iteration hands the attacker one [`DefenseView`] snapshot and
    /// a two-tier [`RunGrant`]: the slots provably free of simulator-side
    /// events (next REF deadline, ALERT stall point, end of the run), and
    /// within them the engine's
    /// [`min_acts_to_alert`](MitigationEngine::min_acts_to_alert) horizon.
    /// The attacker publishes its next run against that snapshot, which
    /// issues through the bank unit in one batched, prefetching pass.
    /// Published idle stretches batch the same way. An ALERT episode's RFM
    /// phase resolves in one step when its last RFM starts before the
    /// run ends.
    ///
    /// Purely a host-side optimization: under the publish contract on
    /// [`SemiScriptedAttacker`], the report is bit-identical to
    /// [`run`](Self::run) over the equivalent per-step attacker — for a
    /// script, [`Scripted::new`] of it (pinned by this crate's
    /// `batched_matches_per_step` proptests and the `semi_equivalence`
    /// proptests in `moat-attacks`). Like `run`, it can
    /// be called repeatedly and time continues.
    pub fn run_semi_scripted<A: SemiScriptedAttacker + ?Sized>(
        &mut self,
        attacker: &mut A,
        duration: Nanos,
    ) -> SecurityReport {
        self.run_semi_scripted_with(attacker, duration, Hooks::default())
    }

    /// [`run_semi_scripted`](Self::run_semi_scripted) with a [`Hooks`]
    /// stack threaded through: every event horizon is a boundary. With
    /// the fault layer armed, granted runs issue one ACT at a time with
    /// the engine's promise ([`RunGrant::alert_safe`]) checked after each:
    /// a fault that breaks it is reported via
    /// [`FaultHook::on_unsound_horizon`], and the rest of the grant still
    /// executes (the controller already committed to the burst; the
    /// escaped ACTs are the measured damage). With [`Hooks::default`] this
    /// *is* [`run_semi_scripted`](Self::run_semi_scripted).
    pub fn run_semi_scripted_with<A, F, G, T>(
        &mut self,
        attacker: &mut A,
        duration: Nanos,
        mut hooks: Hooks<F, G, T>,
    ) -> SecurityReport
    where
        A: SemiScriptedAttacker + ?Sized,
        F: FaultHook,
        G: GuardHook,
        T: TelemetryHook,
    {
        let end = self.now + duration;
        let t_rc = self.config.dram.timing.t_rc;
        let mut run: Vec<RowId> = Vec::with_capacity(MAX_RUN);

        while self.now < end {
            hooks.at_boundary(self.now, &mut self.unit);
            // An RFM phase whose last RFM starts before `end` resolves in
            // one step. One that `end` cuts stops where the per-step loop
            // stops, RFM by RFM, and the next call resumes it.
            let unit = std::slice::from_mut(&mut self.unit);
            if self.sub.advance(self.now, end, unit, &mut hooks).is_some() {
                self.now = self.sub.stall_until();
                continue;
            }

            // Publish the next run against a fresh snapshot.
            let grant = self.act_grant(end, t_rc);
            run.clear();
            let step = {
                let view = DefenseView {
                    now: self.now,
                    unit: self.unit.as_view(),
                    abo: self.sub.abo(),
                };
                attacker.publish(&view, &mut run, grant)
            };
            match step {
                SemiRun::Stop => break,
                SemiRun::PostponeRef => self.postpone_ref(t_rc, &mut hooks),
                SemiRun::Idle(want) => {
                    let n = self.idle_horizon(end, t_rc).min(want.max(1));
                    hooks.phase(SimPhase::Idle, self.now, self.now + t_rc * n, n);
                    self.now += t_rc * n;
                }
                SemiRun::Acts(n) => {
                    let n = n.min(run.len()).min(grant.max);
                    if n == 0 {
                        break;
                    }
                    if grant.max > 1 {
                        let t0 = self.now;
                        if F::ARMED {
                            let promised = self.engine_promise(grant.alert_safe);
                            self.issue_run_checked(&run[..n], promised, t_rc, &mut hooks);
                        } else if n == 1 {
                            // A one-ACT run (a script under a one-slot
                            // engine horizon) skips the prefetching pass.
                            self.unit.activate_in_run(run[0], self.now);
                            self.sub.on_acts(1);
                            self.now += t_rc;
                        } else {
                            self.unit.activate_run(&run[..n], self.now, t_rc);
                            self.sub.on_acts(n as u64);
                            self.now += t_rc * (n as u64);
                        }
                        hooks.phase(SimPhase::EngineUpdate, t0, self.now, n as u64);
                    } else {
                        // Inside an ALERT window, under a spacing-stalled
                        // ALERT, or with no engine guarantee.
                        self.act_one(run[0], t_rc, &mut hooks);
                    }
                }
            }
        }

        self.report()
    }

    /// One guarded ACT slot of `row`, shared by the per-step loop and the
    /// event-horizon loop's single-slot grants: an ACT that cannot finish
    /// before an ALERT window's stall point is dropped (consumed without
    /// landing) and the clock moves to the stall point. Always inlined:
    /// the event-horizon loop takes this path for every ACT of an ALERT
    /// window and every one-slot grant.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    #[inline(always)]
    fn act_one<F: FaultHook, G: GuardHook, T: TelemetryHook>(
        &mut self,
        row: RowId,
        t_rc: Nanos,
        hooks: &mut Hooks<F, G, T>,
    ) {
        if let AboPhase::ActWindow { stall_at } = self.sub.abo().phase() {
            if self.now + t_rc > stall_at {
                hooks.phase(SimPhase::Idle, self.now, stall_at, 0);
                self.now = stall_at;
                return;
            }
        }
        let t0 = self.now;
        let t = self.now.max(self.unit.bank().next_ready());
        self.unit
            .activate(row, t)
            .expect("attacker row within the bank");
        self.sub.on_acts(1);
        self.now = t + t_rc;
        hooks.phase(SimPhase::EngineUpdate, t0, self.now, 1);
    }

    /// Postpones the next REF. It costs no time, unless the postponement
    /// budget is exhausted: then the slot passes unused instead.
    fn postpone_ref<F: FaultHook, G: GuardHook, T: TelemetryHook>(
        &mut self,
        t_rc: Nanos,
        hooks: &mut Hooks<F, G, T>,
    ) {
        if self.unit.refresh_mut().postpone().is_err() {
            hooks.phase(SimPhase::Idle, self.now, self.now + t_rc, 1);
            self.now += t_rc;
        }
    }

    /// The engine-guaranteed ACT count behind a grant's `alert_safe`
    /// tier, or `u64::MAX` when the grant carries no engine promise.
    /// Only the idle-phase, no-pending-ALERT grant derives its
    /// `alert_safe` from
    /// [`min_acts_to_alert`](MitigationEngine::min_acts_to_alert);
    /// inside an ALERT activity window (and under a spacing-stalled
    /// ALERT) the flag legitimately flips mid-run without an assertion,
    /// so flagging those as unsound would be a false positive.
    fn engine_promise(&self, alert_safe: usize) -> u64 {
        if self.config.alerts_enabled
            && matches!(self.sub.abo().phase(), AboPhase::Idle)
            && !self.unit.alert_pending()
        {
            alert_safe as u64
        } else {
            u64::MAX
        }
    }

    /// Issues a granted run one ACT at a time, checking the engine's
    /// promise after each: with faults armed, `alert_pending` flipping
    /// strictly inside the `promised` engine-guaranteed ACTs means a
    /// fault corrupted state out from under the horizon invariant. Only
    /// the first violation per run is reported (the flag stays set until
    /// the next boundary). Called only on armed paths — the disarmed
    /// build issues the whole run through the batched
    /// [`BankUnit::activate_run`] pass.
    fn issue_run_checked<F: FaultHook, G: GuardHook, T: TelemetryHook>(
        &mut self,
        run: &[RowId],
        promised: u64,
        t_rc: Nanos,
        hooks: &mut Hooks<F, G, T>,
    ) {
        // `u64::MAX` marks a promise-free grant (see `engine_promise`):
        // the flag may flip mid-run legitimately, so nothing to check.
        let mut reported = promised == u64::MAX;
        for (i, &row) in run.iter().enumerate() {
            self.unit.activate_in_run(row, self.now);
            self.sub.on_acts(1);
            self.now += t_rc;
            let done = (i + 1) as u64;
            if !reported && done < promised && self.unit.alert_pending() {
                hooks.unsound_horizon(self.now, promised, done);
                reported = true;
            }
        }
    }

    /// How many idle slots (tRC each) are provably event-free from
    /// `self.now`: capped at the end of the run, the next REF deadline
    /// (REFs only fire while the ABO protocol is idle), and the stall
    /// point inside an ALERT activity window. Idle slots perform no ACTs,
    /// so neither the engine's alert horizon nor the inter-ALERT spacing
    /// rule can fire inside the stretch; the cap lands the clock on
    /// exactly the slot where the per-step loop would next act on the
    /// event (REFs are performed at the first slot at or past their
    /// deadline; an idling attacker overshoots the stall point by the
    /// same sub-tRC remainder in both modes).
    fn idle_horizon(&self, end: Nanos, t_rc: Nanos) -> u64 {
        let ceil_div = |d: Nanos| d.as_u64().div_ceil(t_rc.as_u64()).max(1);
        let n_end = ceil_div(end.saturating_sub(self.now));
        match self.sub.abo().phase() {
            AboPhase::Idle => {
                let n_ref = ceil_div(self.unit.refresh().next_due().saturating_sub(self.now));
                n_ref.min(n_end)
            }
            AboPhase::ActWindow { stall_at } => {
                ceil_div(stall_at.saturating_sub(self.now)).min(n_end)
            }
            AboPhase::Rfm { .. } => 1,
        }
    }

    /// The two-tier run grant from `self.now` (see [`RunGrant`]).
    /// `max == 1` (or a zero-slot ALERT window) means "no batching
    /// guarantee — step one slot".
    ///
    /// * **Idle** — no simulator-side event before the next REF deadline
    ///   and the end of the run, so the hard cap is their minimum — with
    ///   one exception: once an ALERT is pending but stalled on the
    ///   inter-ALERT spacing rule, the assertion fires after exactly the
    ///   ACTs still owed (`L − acts_since_episode`; the flag cannot clear
    ///   — mitigations only happen at REF/RFM events), so that count
    ///   hard-caps the run. The `alert_safe` tier additionally applies
    ///   the engine's
    ///   [`min_acts_to_alert`](MitigationEngine::min_acts_to_alert)
    ///   bound while no ALERT is requested: within it, `alert_pending`
    ///   provably stays false whatever rows are activated. Engine-aware
    ///   attackers may publish past it (up to `max`) under the publish
    ///   contract's end-at-the-tripping-ACT rule.
    /// * **ALERT activity window** — the episode's in-window ACT count is
    ///   precomputed from the stall point: no REF, no assertion, and no
    ///   mitigation can occur before `stall_at`, so the
    ///   ⌊(stall_at − now)/tRC⌋ ACTs that fit the window (~3 at DDR5
    ///   timings) issue as one batched run; the flag may flip inside the
    ///   window in both modes without an assertion, so the two tiers
    ///   coincide.
    fn act_grant(&self, end: Nanos, t_rc: Nanos) -> RunGrant {
        let now = self.now;
        if self.unit.bank().next_ready() > now {
            return RunGrant::SINGLE;
        }
        // Acts land at now + i·tRC; each bound counts the slots strictly
        // before its deadline (the per-step loop re-checks at ≥).
        let ceil_div = |d: Nanos| d.as_u64().div_ceil(t_rc.as_u64());
        let n_end = ceil_div(end.saturating_sub(now));
        match self.sub.abo().phase() {
            AboPhase::Idle => {
                let n_ref = ceil_div(self.unit.refresh().next_due().saturating_sub(now));
                let pending = self.config.alerts_enabled && self.unit.alert_pending();
                let n_hard = if pending {
                    // Spacing-stalled ALERT: can_assert() was false at
                    // step 3 (else the phase would be ActWindow), so the
                    // assertion fires after exactly this many owed ACTs —
                    // a simulator-side event that hard-caps every run.
                    let abo = self.sub.abo();
                    u64::from(abo.level().as_u8()).saturating_sub(abo.acts_since_episode())
                } else {
                    u64::MAX
                };
                let max = (n_ref.min(n_end).min(n_hard).min(MAX_RUN as u64) as usize).max(1);
                let n_alert = if !self.config.alerts_enabled || pending {
                    u64::MAX
                } else {
                    self.unit.min_acts_to_alert()
                };
                RunGrant {
                    max,
                    alert_safe: ((max as u64).min(n_alert) as usize).max(1),
                }
            }
            // An ACT must *finish* before the stall point (floor, not
            // ceil). A full window is ~3 ACTs; 0 falls through to the
            // per-step path, which advances to the stall point.
            AboPhase::ActWindow { stall_at } => {
                // A zero-slot window clamps to a single-slot grant: the
                // guarded step drops the published ACT at the stall
                // point, exactly like the per-step reference.
                let n_window = stall_at.saturating_sub(now).as_u64() / t_rc.as_u64();
                let max = (n_window.min(n_end).min(MAX_RUN as u64) as usize).max(1);
                RunGrant {
                    max,
                    alert_safe: max,
                }
            }
            AboPhase::Rfm { .. } => RunGrant::SINGLE,
        }
    }

    /// The report for everything simulated so far.
    pub fn report(&self) -> SecurityReport {
        let stats = self.unit.stats();
        SecurityReport {
            max_pressure: self.unit.ledger().max_pressure_ever(),
            max_pressure_row: self.unit.ledger().max_pressure_row(),
            max_epoch: self.unit.ledger().max_epoch_ever(),
            total_acts: stats.acts,
            alerts: self.sub.abo().alerts(),
            rfms: self.sub.abo().rfms(),
            refs: stats.refs,
            proactive_mitigations: stats.proactive_mitigations,
            reactive_mitigations: stats.reactive_mitigations,
            elapsed: self.now,
        }
    }
}

/// A trivial attacker that hammers a single row forever — the
/// single-row kernel of Fig. 13(a). Implements both [`Attacker`] (one
/// ACT per step) and [`ScriptedAttacker`] (whole event-horizon runs).
#[derive(Debug, Clone)]
pub struct HammerAttacker {
    row: RowId,
    /// Cached display name (formatted once — `name()` is allocation-free).
    name: String,
}

impl Attacker for HammerAttacker {
    fn step(&mut self, _view: &DefenseView<'_>) -> AttackStep {
        AttackStep::Act(self.row)
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }
}

impl ScriptedAttacker for HammerAttacker {
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
        buf.extend(std::iter::repeat_n(self.row, max));
        max
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }
}

/// Builds a [`HammerAttacker`] on `row`.
pub fn hammer_attacker(row: u32) -> HammerAttacker {
    HammerAttacker {
        row: RowId::new(row),
        name: format!("hammer({row})"),
    }
}

/// An attacker that cycles through a fixed set of rows — the multi-row
/// kernel of Fig. 13(b). Implements both [`Attacker`] and
/// [`ScriptedAttacker`].
#[derive(Debug, Clone)]
pub struct RoundRobinAttacker {
    rows: Vec<RowId>,
    next: usize,
    /// Cached display name (formatted once — `name()` is allocation-free).
    name: String,
}

impl RoundRobinAttacker {
    /// Advances the cursor with a branchless wrap (a compare/select
    /// instead of the integer division a `%` would cost per step).
    #[inline]
    fn advance(&mut self) -> RowId {
        let row = self.rows[self.next];
        let next = self.next + 1;
        self.next = if next == self.rows.len() { 0 } else { next };
        row
    }
}

impl Attacker for RoundRobinAttacker {
    fn step(&mut self, _view: &DefenseView<'_>) -> AttackStep {
        AttackStep::Act(self.advance())
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }
}

impl ScriptedAttacker for RoundRobinAttacker {
    fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
        for _ in 0..max {
            let row = self.advance();
            buf.push(row);
        }
        max
    }

    fn name(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.name)
    }
}

/// Builds a [`RoundRobinAttacker`] over `rows`.
///
/// # Panics
///
/// Panics if `rows` is empty.
pub fn round_robin_attacker(rows: Vec<u32>) -> RoundRobinAttacker {
    assert!(!rows.is_empty(), "need at least one row");
    RoundRobinAttacker {
        name: format!("round-robin({} rows)", rows.len()),
        rows: rows.into_iter().map(RowId::new).collect(),
        next: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_dram::NullEngine;

    fn moat_sim() -> SecuritySim {
        SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
        )
    }

    #[test]
    fn unmitigated_hammer_grows_without_bound() {
        let mut sim =
            SecuritySim::new(SecurityConfig::paper_default(), Box::new(NullEngine::new()));
        let report = sim.run(&mut hammer_attacker(10_000), Nanos::from_micros(200));
        // 200 µs ≈ 51 tREFI ≈ 3400 ACT slots; no mitigation, and the
        // refresh pointer is far from row 100.
        assert!(
            report.max_pressure > 3000,
            "pressure {}",
            report.max_pressure
        );
        assert_eq!(report.alerts, 0);
    }

    #[test]
    fn moat_bounds_single_row_hammer_near_ath() {
        let mut sim = moat_sim();
        let report = sim.run(&mut hammer_attacker(10_000), Nanos::from_millis(2));
        assert!(report.alerts > 0, "hammering past ATH must alert");
        // §4.4: with instantaneous ALERTs the bound is ATH+2; a lone
        // hammered row gains at most the 3 in-window ACTs on top.
        assert!(
            report.max_pressure <= 64 + 5,
            "pressure {} exceeds ATH plus the in-window slack",
            report.max_pressure
        );
    }

    #[test]
    fn moat_alert_rate_matches_ath_for_single_row() {
        // §7.2: one ALERT per ~65 activations of a single row (plus the
        // handful of in-window ACTs folded into each episode).
        let mut sim = moat_sim();
        let report = sim.run(&mut hammer_attacker(10_000), Nanos::from_millis(4));
        let acts_per_alert = report.total_acts as f64 / report.alerts as f64;
        assert!(
            (60.0..90.0).contains(&acts_per_alert),
            "acts per alert: {acts_per_alert}"
        );
    }

    #[test]
    fn refs_happen_on_schedule() {
        let mut sim = moat_sim();
        let report = sim.run(&mut hammer_attacker(0), Nanos::from_millis(1));
        // 1 ms / 3900 ns ≈ 256 REFs (a few may slip past the horizon).
        assert!((250..=258).contains(&report.refs), "refs: {}", report.refs);
    }

    #[test]
    fn idle_attacker_advances_time() {
        struct Lazy;
        impl Attacker for Lazy {
            fn step(&mut self, _v: &DefenseView<'_>) -> AttackStep {
                AttackStep::Idle
            }
        }
        let mut sim = moat_sim();
        let report = sim.run(&mut Lazy, Nanos::from_micros(50));
        assert_eq!(report.total_acts, 0);
        assert!(report.elapsed >= Nanos::from_micros(50));
    }

    #[test]
    fn stop_ends_early() {
        struct OneShot(bool);
        impl Attacker for OneShot {
            fn step(&mut self, _v: &DefenseView<'_>) -> AttackStep {
                if self.0 {
                    AttackStep::Stop
                } else {
                    self.0 = true;
                    AttackStep::Act(RowId::new(3))
                }
            }
        }
        let mut sim = moat_sim();
        let report = sim.run(&mut OneShot(false), Nanos::from_millis(10));
        assert_eq!(report.total_acts, 1);
        assert!(report.elapsed < Nanos::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "attacker row within the bank")]
    fn per_step_row_outside_the_bank_panics() {
        let rows = SecurityConfig::paper_default().dram.rows_per_bank;
        moat_sim().run(&mut hammer_attacker(rows + 5), Nanos::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "attacker row within the bank")]
    fn semi_scripted_row_outside_the_bank_panics() {
        let rows = SecurityConfig::paper_default().dram.rows_per_bank;
        moat_sim().run_semi_scripted(&mut hammer_attacker(rows + 5), Nanos::from_micros(10));
    }

    #[test]
    fn round_robin_spreads_pressure() {
        let mut sim = moat_sim();
        let report = sim.run(
            &mut round_robin_attacker(vec![10_010, 10_020, 10_030, 10_040, 10_050]),
            Nanos::from_millis(1),
        );
        assert!(report.total_acts > 10_000);
        assert!(
            report.max_pressure <= 99,
            "pressure {}",
            report.max_pressure
        );
    }

    #[test]
    fn batched_hammer_matches_per_step() {
        // The event-horizon loop is a host-side optimization only:
        // bit-identical reports to the per-step reference.
        for millis in [1u64, 4] {
            let mut per_step = moat_sim();
            let expect = per_step.run(
                &mut Scripted::new(hammer_attacker(10_000)),
                Nanos::from_millis(millis),
            );
            let mut batched = moat_sim();
            let got =
                batched.run_semi_scripted(&mut hammer_attacker(10_000), Nanos::from_millis(millis));
            assert_eq!(got, expect, "{millis} ms");
            assert!(got.alerts > 0, "the comparison must exercise episodes");
        }
    }

    #[test]
    fn batched_round_robin_matches_per_step() {
        let rows = vec![20_000, 20_006, 20_012, 20_018, 20_024];
        let mut per_step = moat_sim();
        let expect = per_step.run(
            &mut Scripted::new(round_robin_attacker(rows.clone())),
            Nanos::from_millis(2),
        );
        let mut batched = moat_sim();
        let got = batched.run_semi_scripted(&mut round_robin_attacker(rows), Nanos::from_millis(2));
        assert_eq!(got, expect);
        assert!(expect.refs > 0 && expect.alerts > 0);
    }

    #[test]
    fn batched_run_continues_across_calls() {
        // Time continues across calls exactly like the per-step mode:
        // splitting at the same instants, a batched pair of runs matches
        // a per-step pair, and the two modes can trade off mid-attack.
        let mut batched = moat_sim();
        batched.run_semi_scripted(&mut hammer_attacker(77), Nanos::from_millis(1));
        let batched_report =
            batched.run_semi_scripted(&mut hammer_attacker(77), Nanos::from_millis(1));
        let mut per_step = moat_sim();
        per_step.run(
            &mut Scripted::new(hammer_attacker(77)),
            Nanos::from_millis(1),
        );
        let per_step_report = per_step.run(
            &mut Scripted::new(hammer_attacker(77)),
            Nanos::from_millis(1),
        );
        assert_eq!(batched_report, per_step_report);
        // And a mode switch mid-attack stays on the same trajectory.
        let mut mixed = moat_sim();
        mixed.run_semi_scripted(&mut hammer_attacker(77), Nanos::from_millis(1));
        let mixed_report = mixed.run(
            &mut Scripted::new(hammer_attacker(77)),
            Nanos::from_millis(1),
        );
        assert_eq!(mixed_report, per_step_report);
    }

    #[test]
    fn batched_run_stops_at_script_end() {
        // A finite script ends the event-horizon run early, exactly like
        // an adaptive attacker returning Stop.
        #[derive(Debug)]
        struct Finite(u64, RowId);
        impl ScriptedAttacker for Finite {
            fn next_run(&mut self, buf: &mut Vec<RowId>, max: usize) -> usize {
                let n = (max as u64).min(self.0) as usize;
                buf.extend(std::iter::repeat_n(self.1, n));
                self.0 -= n as u64;
                n
            }
        }
        let mut batched = moat_sim();
        let got =
            batched.run_semi_scripted(&mut Finite(1000, RowId::new(9)), Nanos::from_millis(50));
        let mut per_step = moat_sim();
        let expect = per_step.run(
            &mut Scripted::new(Finite(1000, RowId::new(9))),
            Nanos::from_millis(50),
        );
        assert_eq!(got, expect);
        // The script hands out exactly 1000 rows; a handful are dropped
        // at ALERT stall points (consumed without landing) in both modes.
        assert!(
            (900..=1000).contains(&got.total_acts),
            "acts {}",
            got.total_acts
        );
        assert!(got.elapsed < Nanos::from_millis(1));
    }

    #[test]
    fn batched_hammer_matches_per_step_for_panopticon() {
        // The Panopticon-family horizon (queue threshold distance) keeps
        // the event-horizon loop exact for both variants, including overflow
        // ALERTs and drain-on-REF episodes.
        use moat_trackers::{PanopticonConfig, PanopticonEngine};
        for pano in [
            PanopticonConfig::paper_default(),
            PanopticonConfig::drain_variant(),
        ] {
            let mk =
                || SecuritySim::new(SecurityConfig::paper_default(), PanopticonEngine::new(pano));
            let mut per_step = mk();
            let expect = per_step.run(
                &mut Scripted::new(hammer_attacker(20_000)),
                Nanos::from_millis(4),
            );
            let mut batched = mk();
            let got =
                batched.run_semi_scripted(&mut hammer_attacker(20_000), Nanos::from_millis(4));
            assert_eq!(got, expect, "drain_on_ref={}", pano.drain_on_ref);
            assert!(expect.refs > 0);
        }
    }

    #[test]
    fn moat_horizon_batches_spacing_and_window_acts() {
        // With a level-4 protocol the spacing rule owes 4 ACTs after each
        // episode and each 180 ns window fits 3 ACTs; both now batch.
        // This pins the arithmetic against the per-step reference on a
        // run dense with episodes.
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = moat_dram::AboLevel::L4;
        let mk = || {
            SecuritySim::new(
                cfg,
                Box::new(MoatEngine::new(MoatConfig::paper_default()))
                    as Box<dyn moat_dram::MitigationEngine>,
            )
        };
        let mut per_step = mk();
        let expect = per_step.run(
            &mut Scripted::new(hammer_attacker(10_000)),
            Nanos::from_millis(3),
        );
        let mut batched = mk();
        let got = batched.run_semi_scripted(&mut hammer_attacker(10_000), Nanos::from_millis(3));
        assert_eq!(got, expect);
        assert!(got.alerts > 10, "episodes must be exercised");
    }

    #[test]
    fn batched_moat_bound_matches_per_step_invariant() {
        let mut sim = moat_sim();
        let report = sim.run_semi_scripted(&mut hammer_attacker(10_000), Nanos::from_millis(2));
        assert!(report.alerts > 0);
        assert!(
            report.max_pressure <= 64 + 5,
            "pressure {} exceeds ATH plus the in-window slack",
            report.max_pressure
        );
    }

    #[test]
    fn semi_scripted_matches_per_step_for_scripts() {
        // Every ScriptedAttacker is trivially semi-scripted; the semi
        // loop must land on the identical trajectory, including ALERT
        // episodes and REFs.
        for millis in [1u64, 4] {
            let mut per_step = moat_sim();
            let expect = per_step.run(
                &mut Scripted::new(hammer_attacker(10_000)),
                Nanos::from_millis(millis),
            );
            let mut semi = moat_sim();
            let got =
                semi.run_semi_scripted(&mut hammer_attacker(10_000), Nanos::from_millis(millis));
            assert_eq!(got, expect, "{millis} ms");
            assert!(got.alerts > 0, "the comparison must exercise episodes");
        }
        let rows = vec![20_000, 20_006, 20_012, 20_018, 20_024];
        let mut per_step = moat_sim();
        let expect = per_step.run(
            &mut Scripted::new(round_robin_attacker(rows.clone())),
            Nanos::from_millis(2),
        );
        let mut semi = moat_sim();
        let got = semi.run_semi_scripted(&mut round_robin_attacker(rows), Nanos::from_millis(2));
        assert_eq!(got, expect);
    }

    #[test]
    fn semi_scripted_alert_at_published_run_boundary() {
        // A single-row hammer against MOAT makes min_acts_to_alert exact:
        // the granted run ends on precisely the ACT that trips the ALERT,
        // so every episode in this run asserts at a published run
        // boundary. The semi path must stay bit-identical through all of
        // them, for every ABO level.
        for level in moat_dram::AboLevel::ALL {
            let mut cfg = SecurityConfig::paper_default();
            cfg.abo_level = level;
            let mk = || {
                SecuritySim::new(
                    cfg,
                    Box::new(MoatEngine::new(MoatConfig::paper_default()))
                        as Box<dyn moat_dram::MitigationEngine>,
                )
            };
            let mut per_step = mk();
            let expect = per_step.run(
                &mut Scripted::new(hammer_attacker(10_000)),
                Nanos::from_millis(3),
            );
            let mut semi = mk();
            let got = semi.run_semi_scripted(&mut hammer_attacker(10_000), Nanos::from_millis(3));
            assert_eq!(got, expect, "{level}");
            assert!(got.alerts > 10, "episodes must be exercised at {level}");
        }
    }

    #[test]
    fn semi_scripted_idle_batches_to_the_same_trajectory() {
        // A semi-scripted attacker that alternates bursts with long
        // published idles: the batched idle stretch must land the clock
        // exactly where per-step idling does, across REF boundaries.
        #[derive(Debug, Clone)]
        struct BurstyIdler {
            row: RowId,
            burst: u64,
            left: u64,
        }
        impl SemiScriptedAttacker for BurstyIdler {
            fn publish(
                &mut self,
                view: &DefenseView<'_>,
                buf: &mut Vec<RowId>,
                grant: RunGrant,
            ) -> SemiRun {
                let max = grant.alert_safe;
                if self.left == 0 {
                    return SemiRun::Stop;
                }
                // Idle through the second half of every tREFI. The
                // half-tREFI point is an attacker-internal decision
                // boundary, so published bursts must be capped at it —
                // that is the publish contract.
                let t_refi = view.unit.config().timing.t_refi.as_u64();
                let t_rc = view.unit.config().timing.t_rc.as_u64();
                let into = view.now.as_u64() % t_refi;
                let half = t_refi.div_ceil(2);
                if into >= half {
                    let slots = (t_refi - into).div_ceil(t_rc).max(1);
                    return SemiRun::Idle(slots);
                }
                let to_half = (half - into).div_ceil(t_rc).max(1);
                let n = (max as u64).min(self.burst).min(self.left).min(to_half) as usize;
                buf.extend(std::iter::repeat_n(self.row, n));
                self.left -= n as u64;
                SemiRun::Acts(n)
            }
        }
        let attacker = BurstyIdler {
            row: RowId::new(40_000),
            burst: 17,
            left: 5_000,
        };
        let mut per_step = moat_sim();
        let expect = per_step.run(&mut Scripted::new(attacker.clone()), Nanos::from_millis(4));
        let mut semi = moat_sim();
        let got = semi.run_semi_scripted(&mut attacker.clone(), Nanos::from_millis(4));
        assert_eq!(got, expect);
        assert!(expect.refs > 0 && expect.total_acts > 1_000);
    }

    #[test]
    fn semi_scripted_postpone_matches_per_step() {
        // PostponeRef flows through the semi loop one slot at a time,
        // including budget-exhausted degradation to an idle slot.
        #[derive(Debug, Clone)]
        struct PostponeThenHammer {
            row: RowId,
            left: u64,
        }
        impl SemiScriptedAttacker for PostponeThenHammer {
            fn publish(
                &mut self,
                view: &DefenseView<'_>,
                buf: &mut Vec<RowId>,
                grant: RunGrant,
            ) -> SemiRun {
                if self.left == 0 {
                    return SemiRun::Stop;
                }
                if view.unit.refresh().owed() < view.unit.config().max_postponed_refs {
                    return SemiRun::PostponeRef;
                }
                let n = (grant.alert_safe as u64).min(self.left) as usize;
                buf.extend(std::iter::repeat_n(self.row, n));
                self.left -= n as u64;
                SemiRun::Acts(n)
            }
        }
        let mut cfg = SecurityConfig::paper_default();
        cfg.dram = moat_dram::DramConfig::builder()
            .max_postponed_refs(2)
            .build();
        let mk = || {
            SecuritySim::new(
                cfg,
                Box::new(MoatEngine::new(MoatConfig::paper_default()))
                    as Box<dyn moat_dram::MitigationEngine>,
            )
        };
        let attacker = PostponeThenHammer {
            row: RowId::new(30_000),
            left: 3_000,
        };
        let mut per_step = mk();
        let expect = per_step.run(&mut Scripted::new(attacker.clone()), Nanos::from_millis(2));
        let mut semi = mk();
        let got = semi.run_semi_scripted(&mut attacker.clone(), Nanos::from_millis(2));
        assert_eq!(got, expect);
        assert!(expect.refs > 0);
    }

    #[test]
    fn semi_scripted_continues_across_calls_and_modes() {
        let mut semi = moat_sim();
        semi.run_semi_scripted(&mut hammer_attacker(77), Nanos::from_millis(1));
        let semi_report = semi.run_semi_scripted(&mut hammer_attacker(77), Nanos::from_millis(1));
        let mut per_step = moat_sim();
        per_step.run(
            &mut Scripted::new(hammer_attacker(77)),
            Nanos::from_millis(1),
        );
        let per_step_report = per_step.run(
            &mut Scripted::new(hammer_attacker(77)),
            Nanos::from_millis(1),
        );
        assert_eq!(semi_report, per_step_report);
        // The two loops interleave on the same trajectory.
        let mut mixed = moat_sim();
        mixed.run(
            &mut Scripted::new(hammer_attacker(77)),
            Nanos::from_millis(1),
        );
        let mixed_report = mixed.run_semi_scripted(&mut hammer_attacker(77), Nanos::from_millis(1));
        assert_eq!(mixed_report, per_step_report);
    }

    #[test]
    fn attacker_names_are_cached_borrows() {
        let h = hammer_attacker(5);
        assert_eq!(Attacker::name(&h), "hammer(5)");
        assert!(
            matches!(Attacker::name(&h), Cow::Borrowed(_)),
            "name() must not allocate per call"
        );
        let rr = round_robin_attacker(vec![1, 2, 3]);
        assert_eq!(ScriptedAttacker::name(&rr), "round-robin(3 rows)");
        assert!(matches!(ScriptedAttacker::name(&rr), Cow::Borrowed(_)));
        let wrapped = Scripted::new(hammer_attacker(9));
        assert_eq!(wrapped.name(), "hammer(9)");
    }

    #[test]
    fn round_robin_wrap_matches_modulo() {
        let mut a = round_robin_attacker(vec![7, 8, 9]);
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        // Mix single steps and runs to cross the wrap both ways.
        for chunk in [1usize, 4, 2, 7, 3] {
            buf.clear();
            assert_eq!(ScriptedAttacker::next_run(&mut a, &mut buf, chunk), chunk);
            seen.extend(buf.iter().map(|r| r.index()));
        }
        let expect: Vec<u32> = (0..17).map(|i| 7 + i % 3).collect();
        assert_eq!(seen, expect);
    }
}
