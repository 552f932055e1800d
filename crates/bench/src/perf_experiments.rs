//! Performance-experiment reproductions: Table 4 (generator calibration),
//! Fig. 11, Tables 5–7, Fig. 17, and the performance attacks of Figs. 12
//! and 13.
//!
//! Every experiment runs each workload stream twice — ALERTs enabled and
//! disabled — and reports the completion-time ratio, the paper's
//! "normalized to a system that does not incur any ALERTs". The ALERT-free
//! baseline is engine-independent (REF timing only).
//!
//! One [`PerfLab`] serves a whole `repro` run. It loads each profile's
//! stream and computes its baseline once, and simulates each distinct
//! (profile, MOAT configuration, budget) cell once: a cell that several
//! tables print, such as the default ATH 64 cell, runs once per run. All
//! simulations run on the monomorphized `PerfSim<MoatEngine>` fast path,
//! and [`crate::run_sweep`] fans the new cells across cores — with
//! results bit-identical to a serial run.

use std::collections::{HashMap, HashSet};

use moat_analysis::RatchetModel;
use moat_attacks::{multi_row_stream, single_row_stream, tsa_stream};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, DramConfig, Nanos};
use moat_sim::{
    PerfConfig, PerfReport, PerfSim, Request, RequestStream, SlotBudget, DEFAULT_CHUNK,
};
use moat_trace::{TraceCache, TraceFile, TraceReplay};
use moat_workloads::{trace_key, HistogramCheck, WorkloadProfile, WorkloadStream, PROFILES};
use rayon::prelude::*;

use crate::scale::Scale;
use crate::sweep::{run_cells, run_sweep, SweepCell, SweepStats};

/// Default budget of cached requests across all in-memory materialized
/// workload streams: 16 M requests ≈ 256 MB (a `Request` is 16 bytes).
/// The scaled configuration's 21 profiles sum to ~9 M requests and fit
/// comfortably; at paper scale the estimates blow past the budget and
/// the lab **spills to the mmap-backed trace cache** instead — recorded
/// once, replayed zero-copy by every subsequent cell (and every
/// subsequent run, via the on-disk [`TraceCache`]).
const STREAM_CACHE_BUDGET: u64 = 16_000_000;

/// The generator seed of the lab's streams, part of each stream's
/// trace-cache content address. Table 4 measures the same streams the
/// perf tables replay, each loaded once per `repro` run.
pub(crate) const STREAM_SEED: u64 = 0xA0A7;

/// One profile's stream as the lab holds it: a flat in-memory vector
/// (fits the request budget), a validated mmap-backed trace from the
/// on-disk cache (paper scale), or neither — regenerated live on every
/// replay. All three replay the exact sequence the live generator emits,
/// pinned by the sweep-equality tests.
#[derive(Debug)]
enum CachedStream {
    Memory(Vec<Request>),
    Mapped(TraceFile),
    Live,
}

/// A cell's key in the lab's memo: profile, MOAT configuration and
/// budget. Budgets are stored reduced, so equal rates share a key.
type CellKey = (&'static str, MoatConfig, SlotBudget);

fn cell_key(cell: &SweepCell) -> CellKey {
    (cell.profile.name, cell.moat, cell.budget)
}

/// A replay of one [`CachedStream`]: the one request source of
/// baselines, sweep cells and Table 4.
enum Replay<'a> {
    Memory(std::iter::Copied<std::slice::Iter<'a, Request>>),
    Mapped(TraceReplay<'a>),
    Live(Box<WorkloadStream>),
}

impl RequestStream for Replay<'_> {
    fn next_request(&mut self) -> Option<Request> {
        match self {
            Replay::Memory(requests) => requests.next(),
            Replay::Mapped(trace) => trace.next_request(),
            Replay::Live(stream) => stream.next_request(),
        }
    }

    fn next_chunk(&mut self, buf: &mut Vec<Request>) -> usize {
        match self {
            Replay::Memory(requests) => RequestStream::next_chunk(requests, buf),
            Replay::Mapped(trace) => trace.next_chunk(buf),
            Replay::Live(stream) => stream.next_chunk(buf),
        }
    }
}

/// The performance lab that every perf table of a `repro` run shares:
/// each profile's stream and ALERT-free baseline, loaded once, and every
/// cell it has simulated, so a cell that several tables print runs once.
/// Cells replay flat requests instead of re-running the heap-merge
/// generator, which otherwise dominates a cell's wall time.
#[derive(Debug)]
pub struct PerfLab {
    scale: Scale,
    dram: DramConfig,
    /// Each loaded profile's stream and ALERT-free completion time.
    streams: HashMap<&'static str, (CachedStream, Nanos)>,
    /// Each simulated cell's (slowdown, report).
    memo: HashMap<CellKey, (f64, PerfReport)>,
    /// Remaining request budget for in-memory materialization.
    cache_budget: u64,
    /// The on-disk cache, opened lazily on the first spill.
    trace_cache: Option<TraceCache>,
}

impl PerfLab {
    /// Creates a lab at the given scale.
    pub fn new(scale: Scale) -> Self {
        PerfLab {
            scale,
            dram: DramConfig::paper_baseline(),
            streams: HashMap::new(),
            memo: HashMap::new(),
            cache_budget: STREAM_CACHE_BUDGET,
            trace_cache: None,
        }
    }

    /// Overrides the in-memory stream-materialization budget (in
    /// requests). `0` disables materialization and the trace cache alike:
    /// every replay regenerates its stream live, the reference the
    /// equality tests compare against. Otherwise profiles whose streams
    /// exceed the remaining budget spill to the on-disk trace cache.
    pub fn set_stream_cache_budget(&mut self, requests: u64) {
        self.cache_budget = requests;
    }

    /// Points the lab's trace cache at a specific directory (mainly for
    /// tests; the default is [`TraceCache::default_dir`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn set_trace_dir(&mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<()> {
        self.trace_cache = Some(TraceCache::open(dir)?);
        Ok(())
    }

    /// How many profiles currently replay from the mmap-backed cache (as
    /// opposed to in-memory vectors or live generation).
    pub fn mapped_streams(&self) -> usize {
        self.streams
            .values()
            .filter(|(s, _)| matches!(s, CachedStream::Mapped(_)))
            .count()
    }

    fn perf_config(&self, level: AboLevel, budget: SlotBudget, alerts: bool) -> PerfConfig {
        PerfConfig {
            dram: self.dram,
            banks: self.scale.banks,
            abo_level: level,
            budget,
            alerts_enabled: alerts,
        }
    }

    fn stream(&self, profile: &WorkloadProfile) -> WorkloadStream {
        WorkloadStream::new(profile, &self.dram, self.scale.generator(STREAM_SEED))
    }

    /// Loads the `profiles` not loaded yet, **in parallel**: each one's
    /// stream and its ALERT-free baseline (engine-independent: with
    /// ALERTs disabled only REF timing shapes the completion time).
    ///
    /// Profiles are admitted in name order. A stream that fits the
    /// remaining materialization budget is generated **once** into a
    /// flat request vector; one beyond it goes through the on-disk
    /// [`TraceCache`], which replays a hit and records a miss, so the
    /// trace persists across runs. If the disk is unavailable, the
    /// profile regenerates live on every replay.
    pub fn load(&mut self, profiles: &[&'static WorkloadProfile]) {
        #[derive(PartialEq)]
        enum Plan {
            Memory,
            Disk,
            Live,
        }

        let mut missing = profiles.to_vec();
        missing.retain(|p| !self.streams.contains_key(p.name));
        missing.sort_by_key(|p| p.name);
        missing.dedup_by_key(|p| p.name);
        // Greedy in-memory admission, against the size the generator
        // itself budgets per bank-window (the emitted count can exceed
        // the estimate slightly; the budget is a guide, not a cap). A
        // zero budget disables materialization entirely.
        let mut jobs = Vec::with_capacity(missing.len());
        for p in missing {
            let est = WorkloadStream::acts_per_bank_per_window(p, &self.dram)
                * u64::from(self.scale.banks)
                * u64::from(self.scale.windows);
            let plan = if self.cache_budget == 0 {
                Plan::Live
            } else if est <= self.cache_budget {
                self.cache_budget -= est;
                Plan::Memory
            } else {
                Plan::Disk
            };
            jobs.push((p, plan));
        }
        // Open the disk cache lazily, only when something actually spills.
        if self.trace_cache.is_none() && jobs.iter().any(|(_, plan)| *plan == Plan::Disk) {
            self.trace_cache = match TraceCache::open_default() {
                Ok(cache) => Some(cache),
                Err(e) => {
                    moat_telemetry::log::warn(
                        "moat-bench",
                        format_args!(
                            "trace cache unavailable ({e}); over-budget streams regenerate live"
                        ),
                    );
                    None
                }
            };
        }

        let shared: &PerfLab = self;
        let loaded: Vec<(&'static str, CachedStream, Nanos)> = jobs
            .into_par_iter()
            .map(|(p, plan)| {
                let stream = match plan {
                    Plan::Memory => CachedStream::Memory(shared.materialize(p)),
                    Plan::Disk => {
                        let key = trace_key(p, &shared.dram, shared.scale.generator(STREAM_SEED));
                        let cache = shared.trace_cache.as_ref();
                        match cache.map(|c| c.open_or_record(&key, || shared.stream(p))) {
                            Some(Ok(trace)) => CachedStream::Mapped(trace),
                            Some(Err(e)) => {
                                moat_telemetry::log::warn(
                                    "moat-bench",
                                    format_args!(
                                        "recording {} failed ({e}); regenerating live",
                                        p.name
                                    ),
                                );
                                CachedStream::Live
                            }
                            // The cache failed to open; `load` warned above.
                            None => CachedStream::Live,
                        }
                    }
                    Plan::Live => CachedStream::Live,
                };
                let cfg = shared.perf_config(AboLevel::L1, SlotBudget::paper_default(), false);
                let base = PerfSim::new(cfg, moat_factory(MoatConfig::paper_default()))
                    .run(shared.replay(p, &stream))
                    .completion_time;
                (p.name, stream, base)
            })
            .collect();
        for (name, stream, base) in loaded {
            self.streams.insert(name, (stream, base));
        }
    }

    /// Drains `profile`'s generator into a flat request vector — exactly
    /// the sequence the live stream emits, in chunk-sized passes.
    fn materialize(&self, profile: &WorkloadProfile) -> Vec<Request> {
        let mut stream = self.stream(profile);
        let mut out = Vec::new();
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
        while stream.next_chunk(&mut chunk) > 0 {
            out.extend_from_slice(&chunk);
        }
        out
    }

    /// Replays `profile`'s `stream` from memory, the mapped trace, or the
    /// live generator.
    fn replay<'a>(&self, profile: &WorkloadProfile, stream: &'a CachedStream) -> Replay<'a> {
        match stream {
            CachedStream::Memory(requests) => Replay::Memory(requests.iter().copied()),
            CachedStream::Mapped(trace) => Replay::Mapped(trace.replay()),
            CachedStream::Live => Replay::Live(Box::new(self.stream(profile))),
        }
    }

    /// Each of `cells`' (slowdown, report), in input order, and the
    /// [`SweepStats`] of this call. The lab loads the cells' profiles and
    /// simulates each distinct cell it has not simulated yet once, fanned
    /// across cores through [`run_cells`]; every other cell is read from
    /// the memo, so the stats count only the cells this call simulated.
    pub(crate) fn sweep(&mut self, cells: &[SweepCell]) -> (Vec<(f64, PerfReport)>, SweepStats) {
        self.load(&cells.iter().map(|c| c.profile).collect::<Vec<_>>());
        let mut seen = HashSet::new();
        let fresh: Vec<SweepCell> = cells
            .iter()
            .filter(|c| !self.memo.contains_key(&cell_key(c)) && seen.insert(cell_key(c)))
            .copied()
            .collect();
        let (simulated, stats) = run_cells(fresh, |cell| {
            let result = self.simulate(&cell);
            ((cell_key(&cell), result), result.1.total_acts)
        });
        self.memo.extend(simulated);
        let results = cells.iter().map(|c| self.memo[&cell_key(c)]).collect();
        (results, stats)
    }

    /// Simulates `cell` against its loaded profile and returns
    /// (slowdown, report), bypassing the memo.
    pub(crate) fn simulate(&self, cell: &SweepCell) -> (f64, PerfReport) {
        let (stream, base) = &self.streams[cell.profile.name];
        let cfg = self.perf_config(cell.moat.level, cell.budget, true);
        let report =
            PerfSim::new(cfg, moat_factory(cell.moat)).run(self.replay(cell.profile, stream));
        let slowdown = report.completion_time.as_u64() as f64 / base.as_u64() as f64 - 1.0;
        (slowdown.max(0.0), report)
    }
}

/// A factory of monomorphized MOAT engines: `PerfSim<MoatEngine>` inlines
/// the per-ACT engine hooks instead of dispatching through a vtable.
fn moat_factory(cfg: MoatConfig) -> impl FnMut() -> MoatEngine {
    move || MoatEngine::new(cfg)
}

/// Table 4: the generator's per-bank-per-tREFW histogram, measured on
/// the lab's streams, next to the paper's numbers.
pub fn table4(lab: &mut PerfLab) -> String {
    lab.load(&PROFILES.iter().collect::<Vec<_>>());
    let lab: &PerfLab = lab;
    let mut out = String::from(
        "Table 4: workload characteristics (generated vs paper, rows per bank per tREFW)\n\
         workload    | ACT-PKI | 32+ gen/paper | 64+ gen/paper | 128+ gen/paper\n",
    );
    let rows: Vec<String> = PROFILES
        .par_iter()
        .map(|p| {
            let stream = lab.replay(p, &lab.streams[p.name].0);
            let h = HistogramCheck::measure(stream, &lab.dram, lab.scale.banks, lab.scale.windows);
            format!(
                "  {:<10} | {:>7.1} | {:>6.0}/{:<5} | {:>6.0}/{:<5} | {:>6.0}/{:<4}\n",
                p.name, p.act_pki, h.act32, p.act32, h.act64, p.act64, h.act128, p.act128
            )
        })
        .collect();
    for row in rows {
        out.push_str(&row);
    }
    out
}

/// Fig. 11: per-workload normalized performance and ALERTs-per-tREFI for
/// MOAT at ATH 64 and ATH 128 (ETH = ATH/2).
pub fn fig11(lab: &mut PerfLab) -> String {
    let cells: Vec<SweepCell> = PROFILES
        .iter()
        .flat_map(|p| {
            [
                SweepCell::new(p, MoatConfig::with_ath(64)),
                SweepCell::new(p, MoatConfig::with_ath(128)),
            ]
        })
        .collect();
    let (outcomes, _) = run_sweep(lab, &cells);

    let mut out = String::from(
        "Fig. 11: MOAT performance (normalized) and ALERT rate per tREFI\n\
         workload    | perf@ATH64 | alerts/tREFI | perf@ATH128 | alerts/tREFI\n",
    );
    let mut slow64 = Vec::new();
    let mut slow128 = Vec::new();
    for (p, pair) in PROFILES.iter().zip(outcomes.chunks_exact(2)) {
        let (o64, o128) = (&pair[0], &pair[1]);
        slow64.push(o64.slowdown);
        slow128.push(o128.slowdown);
        out.push_str(&format!(
            "  {:<10} |     {:.4} |       {:.4} |      {:.4} |       {:.4}\n",
            p.name,
            1.0 / (1.0 + o64.slowdown),
            o64.report.alerts_per_trefi,
            1.0 / (1.0 + o128.slowdown),
            o128.report.alerts_per_trefi
        ));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.push_str(&format!(
        "  average slowdown: ATH64 {:.2}% (paper 0.28%), ATH128 {:.2}% (paper ~0%)\n",
        avg(&slow64) * 100.0,
        avg(&slow128) * 100.0
    ));
    out
}

/// Table 5: the ETH sweep at ATH 64 — mitigations+ALERTs per tREFW per
/// bank, and slowdown.
pub fn table5(lab: &mut PerfLab) -> String {
    let mut out = String::from(
        "Table 5: impact of ETH (ATH 64)\n\
         ETH | mitig.+ALERT per tREFW per bank | avg slowdown (paper)\n",
    );
    let paper = [
        (0u32, 1729u32, 0.21),
        (16, 1329, 0.21),
        (32, 835, 0.28),
        (48, 505, 0.69),
    ];
    let cells: Vec<SweepCell> = paper
        .iter()
        .flat_map(|&(eth, _, _)| {
            PROFILES
                .iter()
                .map(move |p| SweepCell::new(p, MoatConfig::with_ath(64).eth(eth)))
        })
        .collect();
    let (outcomes, _) = run_sweep(lab, &cells);

    for (row, (eth, paper_mit, paper_slow)) in outcomes.chunks_exact(PROFILES.len()).zip(paper) {
        let mitigations: f64 = row
            .iter()
            .map(|o| o.report.mitigations_per_bank_per_trefw)
            .sum();
        let avg_mit = mitigations / PROFILES.len() as f64;
        let avg_slow = row.iter().map(|o| o.slowdown).sum::<f64>() / PROFILES.len() as f64 * 100.0;
        out.push_str(&format!(
            "  {eth:>2} | {avg_mit:>8.0} (paper {paper_mit:>4}) | {avg_slow:.2}% (paper {paper_slow}%)\n"
        ));
    }
    out
}

/// Table 6: mitigation-rate sweep at ATH 64.
pub fn table6(lab: &mut PerfLab) -> String {
    let mut out = String::from(
        "Table 6: impact of mitigation rate (ATH 64)\n\
         rate                     | avg slowdown (paper)\n",
    );
    let rows: [(&str, SlotBudget, f64); 5] = [
        (
            "1 aggressor per 1 tREFI",
            SlotBudget::per_aggressor(5, 1),
            0.0,
        ),
        (
            "1 aggressor per 3 tREFI",
            SlotBudget::per_aggressor(5, 3),
            0.12,
        ),
        (
            "1 aggressor per 5 tREFI",
            SlotBudget::per_aggressor(5, 5),
            0.28,
        ),
        (
            "1 aggressor per 10 tREFI",
            SlotBudget::per_aggressor(5, 10),
            0.51,
        ),
        ("none (ALERT only)", SlotBudget::disabled(), 0.91),
    ];
    let cells: Vec<SweepCell> = rows
        .iter()
        .flat_map(|&(_, budget, _)| {
            PROFILES.iter().map(move |p| SweepCell {
                profile: p,
                moat: MoatConfig::with_ath(64),
                budget,
            })
        })
        .collect();
    let (outcomes, _) = run_sweep(lab, &cells);

    for (row, (label, _, paper)) in outcomes.chunks_exact(PROFILES.len()).zip(rows) {
        let avg = row.iter().map(|o| o.slowdown).sum::<f64>() / PROFILES.len() as f64 * 100.0;
        out.push_str(&format!("  {label:<24} | {avg:.2}% (paper {paper}%)\n"));
    }
    out
}

/// Table 7: ATH × ABO-level sweep — slowdown plus the Appendix-A safe
/// threshold.
pub fn table7(lab: &mut PerfLab) -> String {
    let model = RatchetModel::default();
    let mut out = String::from(
        "Table 7: impact of ATH and level on slowdown and safe TRH\n\
         ATH | design  | avg slowdown (paper) | safe-TRH model (paper)\n",
    );
    let paper: [(u32, u8, f64, u32); 9] = [
        (32, 1, 3.90, 69),
        (32, 2, 5.60, 56),
        (32, 4, 9.50, 50),
        (64, 1, 0.28, 99),
        (64, 2, 0.34, 87),
        (64, 4, 0.45, 82),
        (128, 1, 0.0, 161),
        (128, 2, 0.0, 150),
        (128, 4, 0.0, 145),
    ];
    let cells: Vec<SweepCell> = paper
        .iter()
        .flat_map(|&(ath, level, _, _)| {
            let abo = AboLevel::from_u8(level).expect("legal level");
            PROFILES
                .iter()
                .map(move |p| SweepCell::new(p, MoatConfig::with_ath(ath).level(abo)))
        })
        .collect();
    let (outcomes, _) = run_sweep(lab, &cells);

    for (row, (ath, level, paper_slow, paper_trh)) in
        outcomes.chunks_exact(PROFILES.len()).zip(paper)
    {
        let avg = row.iter().map(|o| o.slowdown).sum::<f64>() / PROFILES.len() as f64 * 100.0;
        out.push_str(&format!(
            "  {ath:>3} | MOAT-L{level} | {avg:>5.2}% (paper {paper_slow:>4.2}%) | {} (paper {paper_trh})\n",
            model.safe_trh(ath, level)
        ));
    }
    out
}

/// Fig. 17: MOAT-L1/L2/L4 normalized performance and ALERT rates at
/// ATH 64.
pub fn fig17(lab: &mut PerfLab) -> String {
    let cells: Vec<SweepCell> = PROFILES
        .iter()
        .flat_map(|p| {
            AboLevel::ALL
                .iter()
                .map(move |&level| SweepCell::new(p, MoatConfig::with_ath(64).level(level)))
        })
        .collect();
    let (outcomes, _) = run_sweep(lab, &cells);

    let mut out = String::from(
        "Fig. 17: MOAT generalized to ABO levels (ATH 64, ETH 32)\n\
         workload    | L1 perf/alerts | L2 perf/alerts | L4 perf/alerts\n",
    );
    let mut sums = [0.0f64; 3];
    let mut alert_sums = [0.0f64; 3];
    for (p, triple) in PROFILES.iter().zip(outcomes.chunks_exact(3)) {
        let mut cells_out = Vec::new();
        for (i, o) in triple.iter().enumerate() {
            sums[i] += o.slowdown;
            alert_sums[i] += o.report.alerts_per_trefi;
            cells_out.push(format!(
                "{:.4}/{:.4}",
                1.0 / (1.0 + o.slowdown),
                o.report.alerts_per_trefi
            ));
        }
        out.push_str(&format!(
            "  {:<10} | {} | {} | {}\n",
            p.name, cells_out[0], cells_out[1], cells_out[2]
        ));
    }
    let n = PROFILES.len() as f64;
    out.push_str(&format!(
        "  avg slowdown: L1 {:.2}% (paper 0.28%), L2 {:.2}% (paper 0.34%), L4 {:.2}% (paper 0.44%)\n",
        sums[0] / n * 100.0,
        sums[1] / n * 100.0,
        sums[2] / n * 100.0
    ));
    if alert_sums[0] > 0.0 {
        out.push_str(&format!(
            "  ALERT ratio vs L1: L2 {:.2}x (paper 0.52x), L4 {:.2}x (paper 0.27x)\n",
            alert_sums[1] / alert_sums[0],
            alert_sums[2] / alert_sums[0]
        ));
    }
    out
}

fn attack_loss<S: RequestStream + Clone>(stream: S, banks: u16) -> (f64, u64) {
    let config = PerfConfig::paper_default().banks(banks);
    let with = PerfSim::new(config, moat_factory(MoatConfig::paper_default())).run(stream.clone());
    let base = PerfSim::new(
        config.alerts(false),
        moat_factory(MoatConfig::paper_default()),
    )
    .run(stream);
    (with.slowdown_vs(&base).max(0.0), with.alerts)
}

/// Fig. 13: the basic performance-attack kernels.
pub fn fig13() -> String {
    let mut out = String::from("Fig. 13: basic performance-attack kernels (ATH 64)\n");
    let (single, _) = attack_loss(single_row_stream(30_000, 0, 30_000), 1);
    let (multi, _) = attack_loss(
        multi_row_stream(6_000, 0, &[30_000, 30_006, 30_012, 30_018, 30_024]),
        1,
    );
    out.push_str(&format!(
        "  single-row (A)^N:      throughput loss {:.1}% (paper ~10%)\n",
        single * 100.0
    ));
    out.push_str(&format!(
        "  multi-row (ABCDE)^N:   throughput loss {:.1}% (paper ~10%)\n",
        multi * 100.0
    ));
    out
}

/// Fig. 12: the Torrent-of-Staggered-ALERT attack.
pub fn fig12() -> String {
    let mut out = String::from("Fig. 12: Torrent-of-Staggered-ALERT (TSA)\n");
    for (banks, paper) in [(4u16, 24.0), (17, 52.0)] {
        let (loss, alerts) = attack_loss(tsa_stream(banks, 64, 30_000).into_iter(), banks);
        out.push_str(&format!(
            "  {banks:>2} banks: throughput loss {:.1}% (paper ~{paper}%), {alerts} alerts\n",
            loss * 100.0
        ));
    }
    let model = moat_analysis::ThroughputModel::default();
    out.push_str(&format!(
        "  theoretical ceiling under continuous ALERTs: {:.0}% loss (§7.3: 64%)\n",
        (1.0 - model.continuous_alert_throughput(1)) * 100.0
    ));
    out
}

/// Dispatches a performance experiment by name; the sweeps read and
/// fill `lab`.
pub fn run_perf(name: &str, lab: &mut PerfLab) -> Option<String> {
    Some(match name {
        "table4" => table4(lab),
        "fig11" => fig11(lab),
        "table5" => table5(lab),
        "table6" => table6(lab),
        "table7" => table7(lab),
        "fig17" => fig17(lab),
        "fig12" => fig12(),
        "fig13" => fig13(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepOutcome;

    const TINY: Scale = Scale {
        banks: 1,
        windows: 1,
    };

    fn profiles(names: &[&str]) -> Vec<&'static WorkloadProfile> {
        names
            .iter()
            .map(|n| WorkloadProfile::by_name(n).unwrap())
            .collect()
    }

    /// One default-budget ATH 64 cell per profile.
    fn cells(profiles: &[&'static WorkloadProfile]) -> Vec<SweepCell> {
        profiles
            .iter()
            .map(|p| SweepCell::new(p, MoatConfig::with_ath(64)))
            .collect()
    }

    /// Each outcome's slowdown bits and report, for bit-equality checks.
    fn results(outcomes: &[SweepOutcome]) -> Vec<(u64, PerfReport)> {
        outcomes
            .iter()
            .map(|o| (o.slowdown.to_bits(), o.report))
            .collect()
    }

    #[test]
    fn lab_reuses_baselines() {
        // A profile loads once per lab: a second sweep over it, at another
        // configuration, materializes nothing and keeps its baseline.
        let mut lab = PerfLab::new(TINY);
        let p = WorkloadProfile::by_name("x264").unwrap();
        run_sweep(&mut lab, &[SweepCell::new(p, MoatConfig::with_ath(64))]);
        let (budget, base) = (lab.cache_budget, lab.streams[p.name].1);
        run_sweep(&mut lab, &[SweepCell::new(p, MoatConfig::with_ath(128))]);
        assert_eq!(lab.streams.len(), 1);
        assert_eq!(lab.cache_budget, budget, "the stream is materialized once");
        assert_eq!(lab.streams[p.name].1, base);
        assert_eq!(lab.memo.len(), 2);
    }

    #[test]
    fn precompute_fills_cache_identically() {
        // Loading profiles together (in parallel) and one lab per profile
        // give the same baselines.
        let profiles = profiles(&["x264", "gcc", "tc"]);
        let mut parallel = PerfLab::new(TINY);
        parallel.load(&profiles);
        for p in &profiles {
            let mut serial = PerfLab::new(TINY);
            serial.load(&[p]);
            assert_eq!(
                serial.streams[p.name].1, parallel.streams[p.name].1,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn materialized_sweep_matches_live_generation() {
        // Stream materialization is a host-side cache only: cells replay
        // the exact sequence the live generator emits, so slowdowns and
        // reports are bit-identical with the cache on or off.
        let profiles = profiles(&["x264", "gcc", "roms"]);
        let mut cached = PerfLab::new(TINY);
        let (from_memory, _) = run_sweep(&mut cached, &cells(&profiles));
        assert!(
            cached
                .streams
                .values()
                .all(|(s, _)| matches!(s, CachedStream::Memory(_))),
            "all profiles fit the budget"
        );
        let mut live = PerfLab::new(TINY);
        live.set_stream_cache_budget(0);
        let (from_live, _) = run_sweep(&mut live, &cells(&profiles));
        assert!(live
            .streams
            .values()
            .all(|(s, _)| matches!(s, CachedStream::Live)));
        for p in &profiles {
            assert_eq!(cached.streams[p.name].1, live.streams[p.name].1);
        }
        assert_eq!(results(&from_memory), results(&from_live));
    }

    #[test]
    fn mmap_trace_sweep_matches_live_generation() {
        // The disk route of the stream cache: with a tiny in-memory
        // budget every profile spills to the mmap-backed trace cache,
        // and replayed baselines and cells stay bit-identical to live
        // generation. A second lab on the same directory replays without
        // recording.
        let dir = std::env::temp_dir().join(format!("moat-lab-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profiles = profiles(&["x264", "tc"]);
        let run = |budget: u64, dir: Option<&std::path::Path>| {
            let mut lab = PerfLab::new(TINY);
            lab.set_stream_cache_budget(budget);
            if let Some(dir) = dir {
                lab.set_trace_dir(dir).unwrap();
            }
            let (outcomes, _) = run_sweep(&mut lab, &cells(&profiles));
            let baselines: Vec<Nanos> = profiles.iter().map(|p| lab.streams[p.name].1).collect();
            (lab.mapped_streams(), baselines, results(&outcomes))
        };

        // A budget of one request: everything spills to disk.
        let mapped = run(1, Some(&dir));
        assert_eq!(mapped.0, 2, "both profiles spilled to disk");
        let live = run(0, None);
        assert_eq!(live.0, 0);
        let replayed = run(1, Some(&dir)); // pure cache hits now
        assert_eq!(replayed.0, 2);
        assert_eq!(mapped.1, live.1, "mapped baselines");
        assert_eq!(replayed.1, live.1, "replayed baselines");
        assert_eq!(mapped.2, live.2);
        assert_eq!(replayed.2, live.2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn light_workload_has_negligible_slowdown() {
        let mut lab = PerfLab::new(TINY);
        let p = WorkloadProfile::by_name("tc").unwrap(); // no 64+ rows
        let (outcomes, _) = run_sweep(&mut lab, &[SweepCell::new(p, MoatConfig::with_ath(64))]);
        let (s, r) = (outcomes[0].slowdown, outcomes[0].report);
        assert!(s < 0.01, "tc slowdown {s}");
        assert_eq!(r.alerts, 0, "tc has no rows that can reach ATH");
    }

    #[test]
    fn table4_reads_the_lab_streams() {
        // Table 4 loads the streams the perf tables then replay: a sweep
        // after it loads nothing new.
        let mut lab = PerfLab::new(TINY);
        let out = table4(&mut lab);
        assert_eq!(lab.streams.len(), PROFILES.len());
        assert!(out.contains("x264"));
        let budget = lab.cache_budget;
        run_sweep(&mut lab, &cells(&profiles(&["x264", "tc"])));
        assert_eq!(lab.cache_budget, budget);
        assert_eq!(lab.streams.len(), PROFILES.len());
    }
}
