//! The sub-channel performance simulator (§6, §7).
//!
//! A DDR5 sub-channel of banks executes a stream of activation requests
//! under the full REF + ABO timing. ALERT stalls the entire sub-channel
//! (180 ns of permitted activity, then `L` × 350 ns of RFM), exactly like
//! the paper's model, so the performance effects of MOAT's design
//! parameters (ATH, ETH, level, mitigation rate) fall out of the same
//! machinery the security simulator uses: the REFs and ALERT episodes
//! follow the one sub-channel episode order both simulators share.
//!
//! Slowdown is measured by running the identical request stream with
//! ALERTs enabled and disabled and comparing completion times — the
//! paper's "normalized to a system that does not incur any ALERTs".

use moat_dram::{AboLevel, AboPhase, BankId, DramConfig, MitigationEngine, Nanos, RowId};

use crate::budget::SlotBudget;
use crate::hooks::Hooks;
use crate::subchannel::SubChannel;
use crate::unit::{BankUnit, PREFETCH_DISTANCE};

/// One activation request: issue `gap` after the previous request's
/// intended issue point, to `bank`/`row`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Inter-arrival gap from the previous request's intent time.
    pub gap: Nanos,
    /// Target bank.
    pub bank: BankId,
    /// Target row.
    pub row: RowId,
}

/// Default number of requests per batch of the chunked front-end (the
/// chunk-size knob; see [`PerfSim::set_chunk_size`]).
///
/// Large enough to amortize the per-chunk bookkeeping and give the issue
/// loop a deep prefetch window, small enough that a chunk of `Request`s
/// (16 bytes each, the `u64` gap's alignment padding included: 16 KiB
/// per chunk) stays within L1.
pub const DEFAULT_CHUNK: usize = 1024;

/// A source of requests (workload generators implement this).
pub trait RequestStream {
    /// The next request, or `None` when the workload is complete.
    fn next_request(&mut self) -> Option<Request>;

    /// Refills `buf` with the next batch of requests and returns how many
    /// were written; `0` means the stream is exhausted.
    ///
    /// `buf` is cleared and filled up to its *capacity* — the caller
    /// chooses the chunk size by pre-reserving (an unallocated buffer
    /// gets [`DEFAULT_CHUNK`]) and reuses the same buffer across calls,
    /// so a steady-state simulation allocates nothing per batch.
    ///
    /// The concatenation of all chunks is exactly the sequence repeated
    /// [`next_request`](Self::next_request) calls would produce, for any
    /// buffer capacity. Implementations override the default only to
    /// amortize per-request overhead (hoisting RNG state, heap handles,
    /// or dispatch out of the per-request path) — never to change the
    /// sequence.
    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        buf.clear();
        if buf.capacity() == 0 {
            buf.reserve(DEFAULT_CHUNK);
        }
        while buf.len() < buf.capacity() {
            match self.next_request() {
                Some(r) => buf.push(r),
                None => break,
            }
        }
        buf.len()
    }
}

impl<I: Iterator<Item = Request>> RequestStream for I {
    fn next_request(&mut self) -> Option<Request> {
        self.next()
    }
}

/// Configuration of a performance simulation.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// Number of banks simulated in the sub-channel (32 at paper scale;
    /// experiments may scale down and extrapolate).
    pub banks: u16,
    /// ABO mitigation level.
    pub abo_level: AboLevel,
    /// REF-time mitigation budget per bank.
    pub budget: SlotBudget,
    /// Whether ALERT assertion is honoured (disable for the baseline).
    pub alerts_enabled: bool,
}

impl PerfConfig {
    /// Paper-scale defaults: 32 banks, level 1, one victim-op per REF.
    pub fn paper_default() -> Self {
        PerfConfig {
            dram: DramConfig::paper_baseline(),
            banks: 32,
            abo_level: AboLevel::L1,
            budget: SlotBudget::paper_default(),
            alerts_enabled: true,
        }
    }

    /// Sets the number of banks.
    #[must_use]
    pub fn banks(mut self, banks: u16) -> Self {
        self.banks = banks;
        self
    }

    /// Enables or disables ALERT.
    #[must_use]
    pub fn alerts(mut self, enabled: bool) -> Self {
        self.alerts_enabled = enabled;
        self
    }
}

/// Outcome of a performance simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Time at which the last request completed.
    pub completion_time: Nanos,
    /// Requests executed.
    pub total_acts: u64,
    /// ALERTs asserted on the sub-channel.
    pub alerts: u64,
    /// RFMs issued.
    pub rfms: u64,
    /// REF commands performed on the sub-channel.
    ///
    /// REF is an *all-bank* command: every [`BankUnit`] performs the same
    /// REFs at the same instants and therefore carries an identical
    /// per-unit `refs` counter. This field is that shared per-bank count
    /// — **not** a sum over banks, unlike `total_acts` and the mitigation
    /// counters, which genuinely differ per bank and are summed.
    pub refs: u64,
    /// Aggressor mitigations completed during REF, summed over banks.
    pub proactive_mitigations: u64,
    /// Aggressor mitigations completed during RFM, summed over banks.
    pub reactive_mitigations: u64,
    /// ALERTs per tREFI interval (the Fig. 11b metric).
    pub alerts_per_trefi: f64,
    /// Mitigations + ALERT mitigations per bank per tREFW (Table 5).
    pub mitigations_per_bank_per_trefw: f64,
    /// Highest hammer pressure observed on any row of any bank.
    pub max_pressure: u32,
    /// Highest per-aggressor epoch observed (the paper's §2.1 metric).
    pub max_epoch: u32,
}

impl PerfReport {
    /// Slowdown of `self` relative to a baseline run of the same stream:
    /// `completion_time / baseline.completion_time − 1`.
    pub fn slowdown_vs(&self, baseline: &PerfReport) -> f64 {
        self.completion_time.as_u64() as f64 / baseline.completion_time.as_u64() as f64 - 1.0
    }
}

/// The sub-channel performance simulator: the banks' units on one
/// sub-channel, which applies REFs and ALERT episodes in the same order
/// as [`SecuritySim`](crate::SecuritySim)'s.
///
/// `PerfSim` is generic over the mitigation-engine type. Instantiating it
/// with a concrete engine (`PerfSim<MoatEngine>`, as the experiment
/// harness does) monomorphizes the per-ACT loop — the engine's precharge
/// hook inlines straight into [`run`](Self::run). The default parameter
/// `Box<dyn MitigationEngine>` keeps the original dynamic-dispatch form
/// available for heterogeneous-engine sweeps; both forms produce
/// bit-identical reports on the same stream.
///
/// # Examples
///
/// ```
/// use moat_core::{MoatConfig, MoatEngine};
/// use moat_dram::{BankId, Nanos, RowId};
/// use moat_sim::{PerfConfig, PerfSim, Request};
///
/// let cfg = PerfConfig::paper_default().banks(2);
/// // Monomorphized over MoatEngine — the fast path:
/// let mut sim = PerfSim::new(cfg, || MoatEngine::new(MoatConfig::paper_default()));
/// let stream = (0..1000u32).map(|i| Request {
///     gap: Nanos::new(60),
///     bank: BankId::new((i % 2) as u16),
///     row: RowId::new(i % 64),
/// });
/// let report = sim.run(stream);
/// assert_eq!(report.total_acts, 1000);
/// ```
#[derive(Debug)]
pub struct PerfSim<E: MitigationEngine = Box<dyn MitigationEngine>> {
    config: PerfConfig,
    units: Vec<BankUnit<E>>,
    sub: SubChannel,
    last_end: Nanos,
    /// Number of banks whose engine currently requests an ALERT,
    /// maintained incrementally so the per-ACT loop never rescans all
    /// banks.
    pending_alerts: usize,
    /// Requests fetched per batch by [`run`](Self::run).
    chunk_size: usize,
}

/// Issue-loop state that persists across request chunks: the closed-loop
/// arrival clock plus the pre-resolved next-REF deadline (which only
/// moves when a REF is performed).
#[derive(Debug, Clone, Copy)]
struct IssueState {
    intent: Nanos,
    shift: Nanos,
    ref_due: Nanos,
}

/// The lookahead's duplicate-skip key: `bank << 32 | row` in one `u64`,
/// so two requests share a key exactly when they share bank and row.
#[inline]
fn lookahead_key(req: &Request) -> u64 {
    (u64::from(req.bank.index()) << 32) | u64::from(req.row.index())
}

/// The key before a chunk's first lookahead. No request reaches it: a
/// bank index is 16 bits wide, so every key is below `1 << 48`.
const NO_LOOKAHEAD_KEY: u64 = u64::MAX;

/// `PerfSim`'s `flatten_before` for [`SubChannel::advance`]: every RFM
/// phase resolves in one step.
const ALWAYS_FLATTEN: Nanos = Nanos::new(u64::MAX);

impl<E: MitigationEngine> PerfSim<E> {
    /// Creates a simulator; `engine_factory` builds one engine per bank.
    pub fn new<F>(config: PerfConfig, mut engine_factory: F) -> Self
    where
        F: FnMut() -> E,
    {
        let units = (0..config.banks)
            .map(|_| BankUnit::new(&config.dram, engine_factory(), config.budget))
            .collect();
        PerfSim {
            config,
            units,
            sub: SubChannel::new(config.abo_level, config.dram.timing, config.alerts_enabled),
            last_end: Nanos::ZERO,
            pending_alerts: 0,
            chunk_size: DEFAULT_CHUNK,
        }
    }

    /// The simulated bank units.
    pub fn units(&self) -> &[BankUnit<E>] {
        &self.units
    }

    /// Sets the number of requests [`run`](Self::run) fetches per batch
    /// (default [`DEFAULT_CHUNK`]). The chunk size is a pure host-side
    /// performance knob: reports are bit-identical for every value,
    /// including `1`.
    pub fn set_chunk_size(&mut self, requests: usize) {
        self.chunk_size = requests.max(1);
    }

    /// Runs the stream to completion and reports.
    ///
    /// The arrival process is closed-loop: when a request is delayed past
    /// its intended issue time (by a REF, an ALERT stall, or a bank
    /// conflict), every subsequent intent shifts by that delay — the
    /// rate-mode cores slip together when the memory system falls behind.
    /// This is what makes ALERT stalls visible in the completion-time
    /// ratio the paper reports as slowdown.
    ///
    /// Requests are pulled in batches of
    /// [`set_chunk_size`](Self::set_chunk_size) through
    /// [`RequestStream::next_chunk`] into one reusable buffer, and the
    /// issue loop uses the chunk as a lookahead window: the counter and
    /// ledger cache lines of upcoming requests are prefetched while the
    /// current request is scheduled, and the REF/ALERT retry loop is only
    /// entered for requests that actually straddle an episode boundary.
    /// The batching is purely host-side: reports are bit-identical to
    /// [`run_per_request`](Self::run_per_request) on the same stream.
    pub fn run<S: RequestStream>(&mut self, mut stream: S) -> PerfReport {
        let mut st = IssueState {
            intent: Nanos::ZERO,
            shift: Nanos::ZERO,
            // Hoisted out of the issue loop: the next REF deadline only
            // moves when a REF is performed.
            ref_due: self.units[0].refresh().next_due(),
        };
        let mut chunk: Vec<Request> = Vec::with_capacity(self.chunk_size);
        loop {
            let n = stream.next_chunk(&mut chunk);
            if n == 0 {
                break;
            }
            self.issue_chunk(&chunk, &mut st);
        }
        self.drain_trailing_alert();
        self.report()
    }

    /// The per-request reference implementation of [`run`](Self::run):
    /// one `next_request` pull and one full scheduling pass per request,
    /// no batching, no prefetch. Kept as the semantic baseline the
    /// batched pipeline is regression-tested against (and measured
    /// against in the throughput benchmark).
    pub fn run_per_request<S: RequestStream>(&mut self, mut stream: S) -> PerfReport {
        let mut st = IssueState {
            intent: Nanos::ZERO,
            shift: Nanos::ZERO,
            ref_due: self.units[0].refresh().next_due(),
        };
        while let Some(req) = stream.next_request() {
            self.issue_request(&req, &mut st);
        }
        self.drain_trailing_alert();
        self.report()
    }

    /// Issues one chunk of requests. The fast path — no REF due, no ALERT
    /// activity window closing — is a straight line; requests that
    /// straddle an episode boundary drop into
    /// [`resolve_straddle`](Self::resolve_straddle).
    ///
    /// The lookahead skips a request whose packed [`lookahead_key`]
    /// equals the previous one's: one `u64` compare, because comparing
    /// the bank first mispredicts at the scaled sweep's 2-bank shape,
    /// where half of all consecutive requests switch bank.
    fn issue_chunk(&mut self, chunk: &[Request], st: &mut IssueState) {
        let n_units = self.units.len();
        let mut last_key = NO_LOOKAHEAD_KEY;
        for (i, req) in chunk.iter().enumerate() {
            // The chunk is the lookahead window: start loading the
            // row-indexed state of a request several positions ahead so
            // its cache misses overlap with the scheduling work in
            // between. Consecutive duplicates (hammer kernels revisiting
            // one row) are skipped — their lines are already inbound.
            // Out-of-range banks are skipped too; the issue itself still
            // panics on them below.
            if let Some(ahead) = chunk.get(i + PREFETCH_DISTANCE) {
                let key = lookahead_key(ahead);
                let b = ahead.bank.as_usize();
                if key != last_key && b < n_units {
                    self.units[b].prefetch_activate(ahead.row);
                }
                last_key = key;
            }
            self.issue_request(req, st);
        }
    }

    /// Schedules and performs one activation request.
    #[inline]
    fn issue_request(&mut self, req: &Request, st: &mut IssueState) {
        let t_rc = self.config.dram.timing.t_rc;
        st.intent += req.gap;
        let eff_intent = st.intent + st.shift;
        let bank_idx = req.bank.as_usize();
        assert!(bank_idx < self.units.len(), "request to unknown bank");
        let bank_ready = self.units[bank_idx].bank().next_ready();

        let t_cand = eff_intent.max(self.sub.stall_until()).max(bank_ready);
        // Pre-resolved episode boundaries: a candidate slot that stays
        // before the next REF deadline (Idle) or finishes inside the
        // ALERT activity window needs no retry.
        let fast = match self.sub.abo().phase() {
            AboPhase::Idle => t_cand < st.ref_due,
            AboPhase::ActWindow { stall_at } => t_cand + t_rc <= stall_at,
            _ => false,
        };
        let t = if fast {
            t_cand
        } else {
            self.resolve_straddle(bank_idx, eff_intent, st)
        };

        let unit = &mut self.units[bank_idx];
        let was = unit.alert_pending();
        unit.activate(req.row, t)
            .expect("issue time respects bank timing");
        match (was, unit.alert_pending()) {
            (false, true) => self.pending_alerts += 1,
            (true, false) => self.pending_alerts -= 1,
            _ => {}
        }
        self.sub.on_acts(1);
        st.shift += t - eff_intent;
        self.last_end = t + t_rc;

        // Assert ALERT at the precharge that crossed the threshold.
        let pending = self.pending_alerts > 0;
        let hooks = &mut Hooks::default();
        self.sub
            .assert_alert(self.last_end, pending, &mut self.units, hooks);
    }

    /// The retry loop for requests that straddle an episode boundary:
    /// while the candidate slot reaches a due REF, or the ACT cannot
    /// finish before an ALERT window's stall point, runs that episode
    /// step and re-times the request. Returns the clean issue slot. Cold
    /// by construction — benign streams enter it roughly once per tREFI.
    #[cold]
    fn resolve_straddle(
        &mut self,
        bank_idx: usize,
        eff_intent: Nanos,
        st: &mut IssueState,
    ) -> Nanos {
        let t_rc = self.config.dram.timing.t_rc;
        loop {
            let bank_ready = self.units[bank_idx].bank().next_ready();
            let t_cand = eff_intent.max(self.sub.stall_until()).max(bank_ready);
            let deadline = match self.sub.abo().phase() {
                AboPhase::Idle if st.ref_due <= t_cand => st.ref_due,
                AboPhase::ActWindow { stall_at } if t_cand + t_rc > stall_at => stall_at,
                _ => return t_cand,
            };
            self.episode_at(deadline);
            st.ref_due = self.units[0].refresh().next_due();
        }
    }

    /// Drains a trailing ALERT episode after the stream ends.
    fn drain_trailing_alert(&mut self) {
        if let AboPhase::ActWindow { stall_at } = self.sub.abo().phase() {
            self.episode_at(stall_at);
            self.last_end = self.last_end.max(self.sub.stall_until());
        }
    }

    /// Runs the sub-channel's episode step due at `deadline` (a REF
    /// deadline or an ALERT stall point) once the current stall has
    /// ended.
    fn episode_at(&mut self, deadline: Nanos) {
        let at = deadline.max(self.sub.stall_until());
        let hooks = &mut Hooks::default();
        if let Some(pending) = self.sub.advance(at, ALWAYS_FLATTEN, &mut self.units, hooks) {
            self.pending_alerts = pending;
        }
    }

    /// The report for everything simulated so far.
    pub fn report(&self) -> PerfReport {
        let elapsed = self.last_end.max(Nanos::new(1));
        let t_refi = self.config.dram.timing.t_refi.as_u64() as f64;
        let t_refw = self.config.dram.timing.t_refw.as_u64() as f64;
        let trefi_intervals = (elapsed.as_u64() as f64 / t_refi).max(1.0);
        let trefw_windows = (elapsed.as_u64() as f64 / t_refw).max(1e-12);

        let mut acts = 0;
        let mut refs = 0;
        let mut proactive = 0;
        let mut reactive = 0;
        let mut max_pressure = 0;
        let mut max_epoch = 0;
        for u in &self.units {
            let s = u.stats();
            acts += s.acts;
            // REF is an all-bank command, so every unit's `refs` counter
            // is identical; `max` here selects that shared per-bank count
            // rather than summing it `banks` times over (acts and the
            // mitigation counters, by contrast, differ per bank and are
            // summed). Pinned by the `refs_are_per_bank_not_summed` test.
            debug_assert!(
                refs == 0 || s.refs == refs,
                "all-bank REF invariant violated: {} vs {refs}",
                s.refs
            );
            refs = refs.max(s.refs);
            proactive += s.proactive_mitigations;
            reactive += s.reactive_mitigations;
            max_pressure = max_pressure.max(u.ledger().max_pressure_ever());
            max_epoch = max_epoch.max(u.ledger().max_epoch_ever());
        }
        let banks = self.units.len() as f64;
        PerfReport {
            completion_time: self.last_end,
            total_acts: acts,
            alerts: self.sub.abo().alerts(),
            rfms: self.sub.abo().rfms(),
            refs,
            proactive_mitigations: proactive,
            reactive_mitigations: reactive,
            alerts_per_trefi: self.sub.abo().alerts() as f64 / trefi_intervals,
            mitigations_per_bank_per_trefw: (proactive + reactive) as f64 / banks / trefw_windows,
            max_pressure,
            max_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moat_core::{MoatConfig, MoatEngine};
    use moat_dram::RefreshOrder;

    fn small_cfg(banks: u16, alerts: bool) -> PerfConfig {
        let dram = DramConfig::builder().rows_per_bank(4096).build();
        PerfConfig {
            dram,
            banks,
            abo_level: AboLevel::L1,
            budget: SlotBudget::paper_default(),
            alerts_enabled: alerts,
        }
    }

    fn moat_factory() -> Box<dyn MitigationEngine> {
        Box::new(MoatEngine::new(MoatConfig::paper_default()))
    }

    fn uniform_stream(n: u32, banks: u16, gap: u64) -> impl Iterator<Item = Request> {
        (0..n).map(move |i| Request {
            gap: Nanos::new(gap),
            bank: BankId::new((i % u32::from(banks)) as u16),
            row: RowId::new((i * 37) % 4096),
        })
    }

    #[test]
    fn completes_all_requests() {
        let mut sim = PerfSim::new(small_cfg(4, true), moat_factory);
        let r = sim.run(uniform_stream(5000, 4, 20));
        assert_eq!(r.total_acts, 5000);
        assert!(r.completion_time > Nanos::ZERO);
    }

    #[test]
    fn benign_uniform_traffic_never_alerts() {
        let mut sim = PerfSim::new(small_cfg(4, true), moat_factory);
        let r = sim.run(uniform_stream(20_000, 4, 30));
        assert_eq!(r.alerts, 0, "uniform traffic stays below ATH");
        assert!(r.refs > 0, "REFs happen during the run");
    }

    #[test]
    fn hammering_stream_alerts_and_slows_down() {
        // All requests to one bank, one row: ALERT every ~65 ACTs.
        let hot = |n: u32| {
            (0..n).map(|_| Request {
                gap: Nanos::new(52),
                bank: BankId::new(0),
                row: RowId::new(9),
            })
        };
        let mut with = PerfSim::new(small_cfg(1, true), moat_factory);
        let with_alerts = with.run(hot(10_000));
        let mut without = PerfSim::new(small_cfg(1, false), moat_factory);
        let baseline = without.run(hot(10_000));
        assert!(with_alerts.alerts > 100);
        let slowdown = with_alerts.slowdown_vs(&baseline);
        // Fig. 13a: single-row hammering loses ~10% throughput.
        assert!(
            (0.02..0.30).contains(&slowdown),
            "slowdown {slowdown} out of range"
        );
        // Security holds while performance degrades.
        assert!(with_alerts.max_pressure < 99);
    }

    #[test]
    fn refs_occur_roughly_every_trefi() {
        let mut sim = PerfSim::new(small_cfg(2, true), moat_factory);
        let r = sim.run(uniform_stream(50_000, 2, 60));
        let expected = r.completion_time.as_u64() / 3900;
        assert!(
            (r.refs as i64 - expected as i64).abs() <= 2,
            "refs {} vs expected {expected}",
            r.refs
        );
    }

    #[test]
    fn disabled_alerts_never_assert() {
        let hot = (0..5000u32).map(|_| Request {
            gap: Nanos::new(52),
            bank: BankId::new(0),
            row: RowId::new(9),
        });
        let mut sim = PerfSim::new(small_cfg(1, false), moat_factory);
        let r = sim.run(hot);
        assert_eq!(r.alerts, 0);
        assert_eq!(r.rfms, 0);
    }

    #[test]
    fn refs_are_per_bank_not_summed() {
        // REF is all-bank: every unit performs the same REFs, and the
        // report exposes that shared per-bank count (while acts are
        // summed across banks). This test pins the intended semantics of
        // the acts-sum / refs-max asymmetry in `report`.
        let mut sim = PerfSim::new(small_cfg(4, true), moat_factory);
        let r = sim.run(uniform_stream(40_000, 4, 60));
        assert!(r.refs > 0);
        for u in sim.units() {
            assert_eq!(
                u.stats().refs,
                r.refs,
                "every bank performs the same all-bank REFs"
            );
        }
        assert_eq!(
            r.total_acts,
            sim.units().iter().map(|u| u.stats().acts).sum::<u64>(),
            "acts genuinely differ per bank and are summed"
        );
    }

    #[test]
    fn batched_run_matches_per_request_run() {
        // The chunked pipeline is a host-side optimization only: for any
        // chunk size (including degenerate ones), the report must be
        // bit-identical to the unbatched reference loop.
        let streams: [&dyn Fn() -> Box<dyn Iterator<Item = Request>>; 2] =
            [&|| Box::new(uniform_stream(30_000, 4, 25)), &|| {
                Box::new((0..20_000u32).map(|_| Request {
                    gap: Nanos::new(52),
                    bank: BankId::new(0),
                    row: RowId::new(9),
                }))
            }];
        for (si, mk) in streams.iter().enumerate() {
            let banks = if si == 0 { 4 } else { 1 };
            let mut reference = PerfSim::new(small_cfg(banks, true), moat_factory);
            let expect = reference.run_per_request(mk());
            for chunk in [1usize, 7, 256, DEFAULT_CHUNK] {
                let mut sim = PerfSim::new(small_cfg(banks, true), moat_factory);
                sim.set_chunk_size(chunk);
                let got = sim.run(mk());
                assert_eq!(got, expect, "stream {si}, chunk {chunk}");
            }
        }
    }

    /// A fixed 2-bank stream whose consecutive `(bank, row)` pairs mix
    /// every case the lookahead key must tell apart: exact repeats (one
    /// hint), the same row on the other bank, and (bank 0, row 1) /
    /// (bank 1, row 0) pairs that a sum or XOR of bank and row would
    /// merge. The hot rows 0 and 1 also drive ALERTs and RFMs.
    fn lookahead_stream() -> impl Iterator<Item = Request> {
        (0..6000u32).map(|i| {
            let r = 2 + (i / 8 * 37) % 4000;
            let (bank, row) = match i % 8 {
                0 => (0, 1),
                1 => (1, 0),
                2 | 3 => (0, r),
                4 => (1, r),
                5 => (1, 0),
                6 => (0, 1),
                _ => (0, 0),
            };
            Request {
                gap: Nanos::new(11),
                bank: BankId::new(bank),
                row: RowId::new(row),
            }
        })
    }

    #[test]
    fn lookahead_dedup_rule_is_pinned() {
        // Pinned values: the report must not move when the lookahead key
        // changes form, at either chunk size.
        let expect = PerfReport {
            completion_time: Nanos::new(246_956),
            total_acts: 6000,
            alerts: 31,
            rfms: 31,
            refs: 63,
            proactive_mitigations: 20,
            reactive_mitigations: 52,
            alerts_per_trefi: 0.489_560_893_438_507_2,
            mitigations_per_bank_per_trefw: 4_664.798_587_602_65,
            max_pressure: 99,
            max_epoch: 66,
        };
        for chunk in [DEFAULT_CHUNK, 61] {
            let mut sim = PerfSim::new(small_cfg(2, true), || {
                MoatEngine::new(MoatConfig::paper_default())
            });
            sim.set_chunk_size(chunk);
            let got = sim.run(lookahead_stream());
            assert_eq!(got, expect, "chunk {chunk}");
        }
    }

    /// A REF-heavy 32-bank stream on 2048-row banks (256 refresh groups),
    /// long enough to wrap the refresh sweep more than three times. Each
    /// bank spends 96 of every 256 of its requests on one hot row, the
    /// trailing row (`row % 8` of 6 or 7) of a group that changes every
    /// phase: the row crosses ETH and ATH, so REF-time mitigations,
    /// ALERTs and RFMs all run, and phases that straddle their group's
    /// REF carry the row's count in a §4.3 shadow.
    fn ref_heavy_stream() -> impl Iterator<Item = Request> {
        (0..320_000u32).map(|i| {
            let (bank, k) = (i % 32, i / 32);
            let phase = k / 256;
            let row = if k % 256 < 96 {
                8 * ((phase * 21 + bank * 37) % 256) + 6 + phase % 2
            } else {
                (k * 97 + bank * 13) % 2048
            };
            Request {
                gap: Nanos::new(10),
                bank: BankId::new(bank as u16),
                row: RowId::new(row),
            }
        })
    }

    #[test]
    fn ref_heavy_32_bank_reports_are_pinned() {
        // Pinned values: every REF runs on all 32 units, so a change to
        // the per-bank REF work (snapshot, resets, slots, prefetch) that
        // moves any bit moves these reports. Both orders, because the
        // strided sweep visits the groups out of row order.
        for (order, proactive, per_trefw) in [
            (RefreshOrder::Contiguous, 1249, 694.987_185_738_874_1),
            (RefreshOrder::Strided(77), 1248, 694.708_856_869_935_9),
        ] {
            let dram = DramConfig::builder()
                .rows_per_bank(2048)
                .refresh_order(order)
                .build();
            let cfg = PerfConfig {
                dram,
                ..PerfConfig::paper_default()
            };
            let mut sim = PerfSim::new(cfg, || MoatEngine::new(MoatConfig::paper_default()));
            let got = sim.run(ref_heavy_stream());
            assert!(got.refs > 3 * u64::from(dram.refresh_groups()));
            let expect = PerfReport {
                completion_time: Nanos::new(3_592_872),
                total_acts: 320_000,
                alerts: 39,
                rfms: 39,
                refs: 921,
                proactive_mitigations: proactive,
                reactive_mitigations: 1248,
                alerts_per_trefi: 0.042_333_820_965_511_71,
                mitigations_per_bank_per_trefw: per_trefw,
                max_pressure: 70,
                max_epoch: 68,
            };
            assert_eq!(got, expect, "{order:?}");
        }
    }

    #[test]
    fn default_next_chunk_respects_capacity_and_order() {
        let mut s = uniform_stream(100, 2, 10);
        let mut buf = Vec::with_capacity(32);
        let mut seen = Vec::new();
        loop {
            // UFCS: on iterator streams the method name would otherwise
            // collide with the unstable `Iterator::next_chunk`.
            let n = RequestStream::next_chunk(&mut s, &mut buf);
            if n == 0 {
                break;
            }
            assert!(n <= buf.capacity());
            seen.extend_from_slice(&buf);
        }
        let all: Vec<Request> = uniform_stream(100, 2, 10).collect();
        assert_eq!(seen, all);
        // An unallocated buffer gets the default chunk capacity.
        let mut empty_buf = Vec::new();
        let mut s2 = uniform_stream(10, 2, 10);
        assert_eq!(RequestStream::next_chunk(&mut s2, &mut empty_buf), 10);
        assert!(empty_buf.capacity() >= DEFAULT_CHUNK);
    }

    #[test]
    #[should_panic(expected = "unknown bank")]
    fn request_to_missing_bank_panics() {
        let mut sim = PerfSim::new(small_cfg(1, true), moat_factory);
        let bad = std::iter::once(Request {
            gap: Nanos::ZERO,
            bank: BankId::new(5),
            row: RowId::new(0),
        });
        let _ = sim.run(bad);
    }
}
