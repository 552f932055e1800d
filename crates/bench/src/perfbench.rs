//! Simulator-throughput benchmark behind `repro --json`: measures the
//! monomorphized hot path against the boxed (dynamic-dispatch) path and
//! the parallel sweep against a serial run, and serializes the numbers to
//! `BENCH_perf.json` so the perf trajectory is tracked across PRs.

use std::time::Instant;

use moat_attacks::{FeintingAttacker, JailbreakAttacker, PostponementAttacker, RatchetAttacker};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{BankId, DramConfig, MitigationEngine, Nanos, RowId};
use moat_fleet::{FleetConfig, FleetSupervisor, FleetTopology};
use moat_sim::{
    hammer_attacker, Attacker, Hooks, PerfConfig, PerfSim, Request, RequestStream, Scripted,
    SecurityConfig, SecuritySim, SemiScriptedAttacker, SlotBudget, DEFAULT_CHUNK,
};
use moat_telemetry::{PhaseProfile, SimPhase, TelemetryLevel, Tracer};
use moat_trace::{Fingerprint, TraceCache, TraceKey};
use moat_trackers::registry::{self, EngineSpec};
use moat_trackers::{IdealSramTracker, PanopticonConfig, PanopticonEngine};
use moat_workloads::{WorkloadProfile, PROFILES};

use crate::scale::Scale;
use crate::sweep::{run_sweep, SweepCell};
use crate::PerfLab;

/// The profiles the paper-scale trace-backed sweep measurement runs:
/// moderate ACT-PKI SPEC workloads, big enough that their full-scale
/// streams genuinely exceed the in-memory budget's purpose (a few
/// million requests each) but small enough that the one-time recording
/// pass stays in seconds.
const FULL_SWEEP_PROFILES: [&str; 3] = ["cactuBSSN", "cam4", "blender"];

/// Throughput of one hot-path measurement.
#[derive(Debug, Clone, Copy)]
pub struct HotPathResult {
    /// Simulated ACTs per host second on `PerfSim<MoatEngine>`.
    pub mono_acts_per_sec: f64,
    /// Simulated ACTs per host second on `PerfSim<Box<dyn MitigationEngine>>`.
    pub boxed_acts_per_sec: f64,
    /// Requests simulated per run.
    pub acts: u64,
}

impl HotPathResult {
    /// Monomorphized over boxed speedup (dispatch effect only).
    pub fn speedup(&self) -> f64 {
        self.mono_acts_per_sec / self.boxed_acts_per_sec.max(1e-9)
    }
}

/// Throughput of the security simulator on a scripted attack, per-step
/// versus the event-horizon loop.
#[derive(Debug, Clone, Copy)]
pub struct SecurityPathResult {
    /// Simulated ACTs per host second through the per-step reference
    /// (`SecuritySim::run` over the `Scripted` adapter).
    pub step_acts_per_sec: f64,
    /// Simulated ACTs per host second through the event-horizon loop
    /// (`SecuritySim::run_semi_scripted`).
    pub batched_acts_per_sec: f64,
    /// Attacker activations simulated per run.
    pub acts: u64,
}

impl SecurityPathResult {
    /// Batched over per-step speedup.
    pub fn speedup(&self) -> f64 {
        self.batched_acts_per_sec / self.step_acts_per_sec.max(1e-9)
    }
}

/// Throughput of the security simulator on the Fig. 5/16 *adaptive*
/// attacks (Jailbreak on Panopticon, refresh postponement on the
/// drain-on-REF variant), per-step versus the semi-scripted
/// event-horizon path (see `measure_adaptive` for why these two cells
/// make the path-sensitive metric).
#[derive(Debug, Clone, Copy)]
pub struct AdaptivePathResult {
    /// Simulated ACTs per host second through the per-step reference
    /// (`SecuritySim::run` over the adaptive `Attacker` impls).
    pub step_acts_per_sec: f64,
    /// Simulated ACTs per host second through
    /// `SecuritySim::run_semi_scripted` over the same attacks.
    pub batched_acts_per_sec: f64,
    /// Attacker activations simulated per pass over the suite.
    pub acts: u64,
}

impl AdaptivePathResult {
    /// Semi-scripted over per-step speedup.
    pub fn speedup(&self) -> f64 {
        self.batched_acts_per_sec / self.step_acts_per_sec.max(1e-9)
    }
}

/// Throughput of the mmap-backed trace store.
#[derive(Debug, Clone, Copy)]
pub struct TraceStoreResult {
    /// Raw mmap replay decode rate: requests per host second drained
    /// through `TraceReplay::next_chunk` (no simulation attached).
    pub replay_acts_per_sec: f64,
    /// Aggregate simulated ACTs per host second of a paper-scale
    /// (32 banks × 2 tREFW) sweep whose cells replay mmap'd traces from
    /// the cache — the `--full` configuration's sweep hot path.
    pub full_sweep_acts_per_sec: f64,
    /// Cells in the paper-scale sweep measurement.
    pub full_sweep_cells: usize,
}

/// Throughput of the fleet supervisor: a small clean (fault-free)
/// fleet fanned across the worker pool, end to end through shard
/// materialization, both simulators, and the merged report.
#[derive(Debug, Clone, Copy)]
pub struct FleetPathResult {
    /// Aggregate simulated ACTs per host second (perf + security acts
    /// across all shards over the fleet's wall time).
    pub acts_per_sec: f64,
    /// Shards in the measured fleet.
    pub shards: u32,
    /// Tenant streams multiplexed across those shards.
    pub tenants: u32,
}

/// Throughput of the cross-mitigation arena: a small engine slice of
/// the registry zoo run through the full cell grid (perf + four
/// attacks per variant) on the arena's chunked worker queue.
#[derive(Debug, Clone, Copy)]
pub struct ArenaPathResult {
    /// Aggregate simulated ACTs per host second across the probe's
    /// cells over the arena's wall time.
    pub acts_per_sec: f64,
    /// Cells in the measured arena probe.
    pub cells: usize,
}

/// Per-phase simulated-time attribution for one named security cell,
/// produced by running the cell through the traced event-horizon path
/// with a [`Tracer`]. Attribution is keyed to simulated nanoseconds,
/// not host wall-clock, so the profile is bit-stable across machines
/// and runs.
#[derive(Debug, Clone)]
pub struct CellPhaseProfile {
    /// Cell label used in JSON keys (`profile_{cell}_{phase}_ns`).
    pub cell: &'static str,
    /// Simulated nanoseconds and units attributed per [`SimPhase`].
    pub profile: PhaseProfile,
}

impl CellPhaseProfile {
    /// One summary line: each phase's share of simulated time, in the
    /// fixed [`SimPhase::ALL`] order, zero-time zero-unit phases elided.
    fn summary_line(&self) -> String {
        let mut parts = Vec::new();
        for phase in SimPhase::ALL {
            let pm = self.profile.permille(phase);
            if pm == 0 && self.profile.units(phase) == 0 {
                continue;
            }
            parts.push(format!("{} {}.{}%", phase.name(), pm / 10, pm % 10));
        }
        format!("  phase profile {:<8}: {}\n", self.cell, parts.join(", "))
    }
}

/// The full benchmark report serialized into `BENCH_perf.json`.
#[derive(Debug, Clone)]
pub struct PerfBenchReport {
    /// 32-bank uniform benign stream.
    pub uniform: HotPathResult,
    /// Single-bank single-row hammer (ALERT-heavy).
    pub hammer: HotPathResult,
    /// Security simulator on the single-row hammer attack, per-step vs
    /// event-horizon batched.
    pub security: SecurityPathResult,
    /// Security simulator on the adaptive attack suite, per-step vs
    /// semi-scripted.
    pub adaptive: AdaptivePathResult,
    /// The mmap-backed trace store: raw replay decode rate and the
    /// paper-scale trace-backed sweep.
    pub trace: TraceStoreResult,
    /// The fleet supervisor on a small clean sharded topology.
    pub fleet: FleetPathResult,
    /// The cross-mitigation arena on a small zoo slice.
    pub arena: ArenaPathResult,
    /// Wall seconds for the (profile × ATH) sweep run serially.
    pub sweep_serial_seconds: f64,
    /// Wall seconds for the same sweep through the parallel runner.
    pub sweep_parallel_seconds: f64,
    /// Aggregate simulated ACTs per host second of the parallel sweep.
    pub sweep_acts_per_sec: f64,
    /// Worker threads the parallel sweep used.
    pub threads: usize,
    /// Sweep cells measured.
    pub cells: usize,
    /// Deterministic per-phase simulated-time profiles of the Feinting
    /// and Ratchet security cells (see `measure_profiles`).
    pub profiles: Vec<CellPhaseProfile>,
}

impl PerfBenchReport {
    /// Parallel-sweep speedup over the serial run.
    pub fn sweep_speedup(&self) -> f64 {
        self.sweep_serial_seconds / self.sweep_parallel_seconds.max(1e-9)
    }

    /// Serializes the report as a JSON object. The per-phase profile
    /// fields lead (they are deterministic; everything after them is
    /// machine-sensitive throughput), then the flat metric fields.
    pub fn to_json(&self) -> String {
        let mut profile_fields = String::new();
        for p in &self.profiles {
            for phase in SimPhase::ALL {
                let key = format!("profile_{}_{}_ns", p.cell, phase.name().replace('-', "_"));
                profile_fields.push_str(&format!("  \"{key}\": {},\n", p.profile.ns(phase)));
            }
        }
        format!(
            "{{\n{profile_fields}  \
             \"uniform_mono_acts_per_sec\": {:.0},\n  \
             \"uniform_boxed_acts_per_sec\": {:.0},\n  \
             \"hammer_mono_acts_per_sec\": {:.0},\n  \
             \"hammer_boxed_acts_per_sec\": {:.0},\n  \
             \"security_step_acts_per_sec\": {:.0},\n  \
             \"security_batched_acts_per_sec\": {:.0},\n  \
             \"security_batched_speedup\": {:.3},\n  \
             \"adaptive_step_acts_per_sec\": {:.0},\n  \
             \"adaptive_batched_acts_per_sec\": {:.0},\n  \
             \"adaptive_batched_speedup\": {:.3},\n  \
             \"trace_replay_acts_per_sec\": {:.0},\n  \
             \"full_sweep_cells\": {},\n  \
             \"full_sweep_acts_per_sec\": {:.0},\n  \
             \"fleet_shards\": {},\n  \
             \"fleet_acts_per_sec\": {:.0},\n  \
             \"arena_cells\": {},\n  \
             \"arena_acts_per_sec\": {:.0},\n  \
             \"sweep_cells\": {},\n  \
             \"sweep_serial_seconds\": {:.3},\n  \
             \"sweep_parallel_seconds\": {:.3},\n  \
             \"sweep_speedup\": {:.3},\n  \
             \"sweep_acts_per_sec\": {:.0},\n  \
             \"threads\": {}\n}}\n",
            self.uniform.mono_acts_per_sec,
            self.uniform.boxed_acts_per_sec,
            self.hammer.mono_acts_per_sec,
            self.hammer.boxed_acts_per_sec,
            self.security.step_acts_per_sec,
            self.security.batched_acts_per_sec,
            self.security.speedup(),
            self.adaptive.step_acts_per_sec,
            self.adaptive.batched_acts_per_sec,
            self.adaptive.speedup(),
            self.trace.replay_acts_per_sec,
            self.trace.full_sweep_cells,
            self.trace.full_sweep_acts_per_sec,
            self.fleet.shards,
            self.fleet.acts_per_sec,
            self.arena.cells,
            self.arena.acts_per_sec,
            self.cells,
            self.sweep_serial_seconds,
            self.sweep_parallel_seconds,
            self.sweep_speedup(),
            self.sweep_acts_per_sec,
            self.threads,
        )
    }

    /// Compares this run against a previously committed `BENCH_perf.json`
    /// and reports a perf-smoke verdict: `Err` when any gated metric
    /// dropped by more than `max_regression` (e.g. `0.20` for the CI
    /// gate's 20%), `Ok` with a per-metric summary otherwise.
    ///
    /// Seven metrics are gated: `uniform_mono_acts_per_sec` (the
    /// steady-state hot path every experiment rides on — required in the
    /// baseline), plus `sweep_acts_per_sec`,
    /// `security_batched_acts_per_sec`, `adaptive_batched_acts_per_sec`,
    /// `full_sweep_acts_per_sec`, `fleet_acts_per_sec`, and
    /// `arena_acts_per_sec` (the sweep harness, the batched and
    /// semi-scripted security paths, the trace-backed paper-scale sweep,
    /// the fleet supervisor, and the cross-mitigation arena; skipped
    /// with a note when an older baseline lacks them).
    /// The remaining fields are informational and machine-sensitive.
    ///
    /// `sweep_acts_per_sec`, `full_sweep_acts_per_sec`,
    /// `fleet_acts_per_sec`, and `arena_acts_per_sec` scale with the
    /// worker-thread count, so they are only comparable when this run
    /// used as many threads as the baseline run (`threads` in the JSON).
    /// On a mismatch — a single-core CI runner against a multi-core
    /// baseline, or vice versa — those gates are skipped with an
    /// explicit note instead of reporting a spurious regression or a
    /// spurious pass.
    pub fn check_regression(
        &self,
        baseline_json: &str,
        max_regression: f64,
    ) -> Result<String, String> {
        // (key, current value, required in baseline, thread-scaled)
        let gated: [(&str, f64, bool, bool); 7] = [
            (
                "uniform_mono_acts_per_sec",
                self.uniform.mono_acts_per_sec,
                true,
                false,
            ),
            ("sweep_acts_per_sec", self.sweep_acts_per_sec, false, true),
            (
                "security_batched_acts_per_sec",
                self.security.batched_acts_per_sec,
                false,
                false,
            ),
            (
                "adaptive_batched_acts_per_sec",
                self.adaptive.batched_acts_per_sec,
                false,
                false,
            ),
            (
                "full_sweep_acts_per_sec",
                self.trace.full_sweep_acts_per_sec,
                false,
                true,
            ),
            ("fleet_acts_per_sec", self.fleet.acts_per_sec, false, true),
            ("arena_acts_per_sec", self.arena.acts_per_sec, false, true),
        ];
        let baseline_threads = json_number(baseline_json, "threads");
        let mut lines = Vec::new();
        let mut failures = Vec::new();
        for (key, current, required, thread_scaled) in gated {
            if !required && current == 0.0 {
                // Zero means "not measured this run" (e.g. the trace
                // cache directory could not be created): skip rather
                // than report a spurious regression.
                lines.push(format!("perf smoke: {key} not measured this run — skipped"));
                continue;
            }
            if thread_scaled {
                match baseline_threads {
                    Some(t) if t == self.threads as f64 => {}
                    Some(t) => {
                        lines.push(format!(
                            "perf smoke: {key} skipped — parallel-scaling metric, but this \
                             run used {} thread(s) vs the baseline's {t:.0}",
                            self.threads
                        ));
                        continue;
                    }
                    None => {
                        lines.push(format!(
                            "perf smoke: {key} skipped — parallel-scaling metric, but the \
                             baseline does not record its thread count"
                        ));
                        continue;
                    }
                }
            }
            let Some(baseline) = json_number(baseline_json, key) else {
                if required {
                    return Err(format!("baseline JSON has no numeric \"{key}\" field"));
                }
                lines.push(format!("perf smoke: {key} absent from baseline — skipped"));
                continue;
            };
            let ratio = current / baseline.max(1e-9);
            let line =
                format!("perf smoke: {key} {current:.0} vs baseline {baseline:.0} ({ratio:.2}x)");
            if ratio < 1.0 - max_regression {
                failures.push(format!(
                    "{line} — regressed more than {:.0}%",
                    max_regression * 100.0
                ));
            } else {
                lines.push(line);
            }
        }
        if failures.is_empty() {
            Ok(lines.join("\n"))
        } else {
            Err(failures.join("\n"))
        }
    }

    /// Human-readable summary printed by `repro --json`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "Simulator performance\n  \
             uniform 32-bank stream : {:>6.1} M ACTs/s mono, {:>6.1} M boxed\n  \
             single-row hammer      : {:>6.1} M ACTs/s mono, {:>6.1} M boxed\n  \
             security hammer sim    : {:>6.1} M ACTs/s batched, {:>6.1} M per-step ({:.2}x)\n  \
             adaptive attack suite  : {:>6.1} M ACTs/s semi-scripted, {:>6.1} M per-step ({:.2}x)\n  \
             trace store            : {:>6.1} M req/s raw mmap replay, {:.1} M ACTs/s paper-scale sweep ({} cells)\n  \
             fleet supervisor       : {:>6.1} M ACTs/s across {} shards x {} tenants\n  \
             arena probe            : {:>6.1} M ACTs/s across {} cells\n  \
             sweep ({} cells)       : serial {:.2}s, parallel {:.2}s ({:.2}x on {} threads), {:.1} M ACTs/s\n",
            self.uniform.mono_acts_per_sec / 1e6,
            self.uniform.boxed_acts_per_sec / 1e6,
            self.hammer.mono_acts_per_sec / 1e6,
            self.hammer.boxed_acts_per_sec / 1e6,
            self.security.batched_acts_per_sec / 1e6,
            self.security.step_acts_per_sec / 1e6,
            self.security.speedup(),
            self.adaptive.batched_acts_per_sec / 1e6,
            self.adaptive.step_acts_per_sec / 1e6,
            self.adaptive.speedup(),
            self.trace.replay_acts_per_sec / 1e6,
            self.trace.full_sweep_acts_per_sec / 1e6,
            self.trace.full_sweep_cells,
            self.fleet.acts_per_sec / 1e6,
            self.fleet.shards,
            self.fleet.tenants,
            self.arena.acts_per_sec / 1e6,
            self.arena.cells,
            self.cells,
            self.sweep_serial_seconds,
            self.sweep_parallel_seconds,
            self.sweep_speedup(),
            self.threads,
            self.sweep_acts_per_sec / 1e6,
        );
        if !self.profiles.is_empty() {
            out.push_str("Where simulated time goes (deterministic per-phase attribution)\n");
            for p in &self.profiles {
                out.push_str(&p.summary_line());
            }
        }
        out
    }
}

/// Extracts the numeric value of `"key": <number>` from the flat JSON
/// object `BENCH_perf.json` uses. Not a general JSON parser — the file
/// is generated by [`PerfBenchReport::to_json`] and has exactly this
/// shape — but tolerant of whitespace and field order.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The canonical hot-path measurement stream: a saturating uniform
/// round-robin over `banks` banks with Knuth-hashed rows. Shared with the
/// criterion micro-benchmarks so both measure the same workload.
pub fn uniform_stream(n: u32, banks: u16) -> impl Iterator<Item = Request> + Clone {
    (0..n).map(move |i| Request {
        gap: Nanos::new(2),
        bank: BankId::new((i % u32::from(banks)) as u16),
        row: RowId::new(i.wrapping_mul(2654435761) % 65_536),
    })
}

fn hammer_stream(n: u32) -> impl Iterator<Item = Request> + Clone {
    (0..n).map(|_| Request {
        gap: Nanos::new(52),
        bank: BankId::new(0),
        row: RowId::new(30_000),
    })
}

/// Times two runs of one computation that must agree. A warm-up pass
/// (pays one-time page faults and lets the CPU settle) runs each once
/// and asserts their results are equal — `what` names the broken
/// invariant otherwise. Then three interleaved rounds, so neither
/// side systematically benefits from running last, keep each side's
/// best time. Returns the warm-up result and the two best times in
/// seconds.
fn best_of_3<R: PartialEq + std::fmt::Debug>(
    what: &str,
    a: impl Fn() -> R,
    b: impl Fn() -> R,
) -> (R, f64, f64) {
    let result = a();
    assert_eq!(result, b(), "{what}");
    let time = |run: &dyn Fn() -> R| {
        let start = Instant::now();
        run();
        start.elapsed().as_secs_f64()
    };
    let (mut a_secs, mut b_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        a_secs = a_secs.min(time(&a));
        b_secs = b_secs.min(time(&b));
    }
    (result, a_secs, b_secs)
}

/// Measures one stream on both dispatch paths and checks the reports are
/// bit-identical (the monomorphization must not change numerics).
fn measure<S>(stream: S, banks: u16, acts: u64) -> HotPathResult
where
    S: Iterator<Item = Request> + Clone,
{
    let config = PerfConfig::paper_default().banks(banks);
    let (_, mono_secs, boxed_secs) = best_of_3(
        "dispatch strategy changed simulation results",
        || {
            PerfSim::new(config, || MoatEngine::new(MoatConfig::paper_default()))
                .run(stream.clone())
        },
        || {
            PerfSim::new(config, || {
                Box::new(MoatEngine::new(MoatConfig::paper_default())) as Box<dyn MitigationEngine>
            })
            .run(stream.clone())
        },
    );
    HotPathResult {
        mono_acts_per_sec: acts as f64 / mono_secs.max(1e-9),
        boxed_acts_per_sec: acts as f64 / boxed_secs.max(1e-9),
        acts,
    }
}

/// Measures the security simulator on the single-row hammer attack:
/// the per-step reference (`run` over the `Scripted` adapter) against
/// the event-horizon loop (`run_semi_scripted`), asserting along the way
/// that both produce bit-identical reports.
fn measure_security(duration: Nanos) -> SecurityPathResult {
    let mk = || {
        SecuritySim::new(
            SecurityConfig::paper_default(),
            MoatEngine::new(MoatConfig::paper_default()),
        )
    };
    let (report, step_secs, batched_secs) = best_of_3(
        "event-horizon batching changed the security report",
        || mk().run(&mut Scripted::new(hammer_attacker(30_000)), duration),
        || mk().run_semi_scripted(&mut hammer_attacker(30_000), duration),
    );
    let acts = report.total_acts;
    SecurityPathResult {
        step_acts_per_sec: acts as f64 / step_secs.max(1e-9),
        batched_acts_per_sec: acts as f64 / batched_secs.max(1e-9),
        acts,
    }
}

/// One cell of the adaptive benchmark suite: times the same attack
/// through the per-step reference and the semi-scripted path with
/// [`best_of_3`] (asserting bit-identical reports), and accumulates
/// acts plus the best wall times into the aggregate.
fn adaptive_cell<E, A>(
    mk_sim: impl Fn() -> SecuritySim<E>,
    mk_attacker: impl Fn() -> A,
    duration: Nanos,
    acts: &mut u64,
    step_secs: &mut f64,
    batched_secs: &mut f64,
) where
    E: MitigationEngine,
    A: Attacker + SemiScriptedAttacker,
{
    let (report, step, semi) = best_of_3(
        "semi-scripted batching changed the security report",
        || mk_sim().run(&mut mk_attacker(), duration),
        || mk_sim().run_semi_scripted(&mut mk_attacker(), duration),
    );
    *acts += report.total_acts;
    *step_secs += step;
    *batched_secs += semi;
}

/// Measures the Fig. 5/16 adaptive sweeps — Jailbreak against
/// deterministic Panopticon and the refresh-postponement probe against
/// the drain-on-REF variant — through the per-step reference and
/// `run_semi_scripted`, reporting aggregate simulated ACTs per host
/// second for each path.
///
/// These are the cells the semi-scripted protocol was built for: their
/// per-step cost is dominated by the simulator loop itself, which the
/// event-horizon grants amortize away (the attackers publish whole
/// tREFI-sized bursts by modeling their own queue crossings). The other
/// two adaptive attacks also run semi-scripted in their figures, but
/// their host time is dominated by work both modes share — Feinting by
/// the tracker update and its min-count heap, Ratchet by the ALERT
/// episode churn its ratcheting phase deliberately provokes — so they
/// would only dilute this path-sensitive metric toward 1× without
/// measuring the path.
fn measure_adaptive() -> AdaptivePathResult {
    let mut acts = 0u64;
    let mut step_secs = 0.0f64;
    let mut batched_secs = 0.0f64;

    // Fig. 5: Jailbreak against deterministic Panopticon.
    adaptive_cell(
        || {
            SecuritySim::new(
                SecurityConfig::paper_default(),
                PanopticonEngine::new(PanopticonConfig::paper_default()),
            )
        },
        || JailbreakAttacker::new(20_000),
        Nanos::from_millis(4),
        &mut acts,
        &mut step_secs,
        &mut batched_secs,
    );

    // Fig. 16: refresh postponement against the drain-on-REF variant.
    let mut post_cfg = SecurityConfig::paper_default();
    post_cfg.dram = DramConfig::builder().max_postponed_refs(2).build();
    adaptive_cell(
        || {
            SecuritySim::new(
                post_cfg,
                PanopticonEngine::new(PanopticonConfig::drain_variant()),
            )
        },
        || PostponementAttacker::new(20_000, 128),
        Nanos::from_millis(1),
        &mut acts,
        &mut step_secs,
        &mut batched_secs,
    );

    AdaptivePathResult {
        step_acts_per_sec: acts as f64 / step_secs.max(1e-9),
        batched_acts_per_sec: acts as f64 / batched_secs.max(1e-9),
        acts,
    }
}

/// Measures the trace store: raw mmap replay decode rate over a
/// synthetic trace, and a paper-scale (32 banks × 2 tREFW) sweep whose
/// cells replay mmap'd workload traces from the on-disk cache — the
/// `--full` sweep hot path. The recording pass happens at most once
/// (entries are content-addressed and persist in the cache directory);
/// every later invocation is pure replay. When the cache directory is
/// unavailable (read-only checkout, sandbox) both metrics report `0` —
/// "not measured" — which the perf-smoke gate skips instead of flagging
/// the live-generation fallback as a regression.
fn measure_trace_store() -> TraceStoreResult {
    let Ok(cache) = TraceCache::open_default() else {
        return TraceStoreResult {
            replay_acts_per_sec: 0.0,
            full_sweep_acts_per_sec: 0.0,
            full_sweep_cells: 0,
        };
    };

    // Raw decode rate: a 2M-request synthetic trace, drained chunk-wise.
    let n: u32 = 2_000_000;
    let replay_acts_per_sec = (|| -> Option<f64> {
        let mut fp = Fingerprint::new();
        fp.write_str("bench-uniform-32").write_u64(u64::from(n));
        let key = TraceKey::new("bench-uniform", fp.finish());
        let trace = cache.open_or_record(&key, || uniform_stream(n, 32)).ok()?;
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let mut replay = trace.replay();
            let mut chunk: Vec<Request> = Vec::with_capacity(DEFAULT_CHUNK);
            let mut gaps = 0u64;
            while replay.next_chunk(&mut chunk) > 0 {
                // Touch every decoded request so the drain cannot be
                // optimized away.
                gaps += chunk.iter().map(|r| r.gap.as_u64()).sum::<u64>();
            }
            assert!(gaps > 0);
            best = best.min(start.elapsed().as_secs_f64());
        }
        Some(f64::from(n) / best.max(1e-9))
    })()
    .unwrap_or(0.0);

    // Paper-scale sweep over mmap'd traces: a 1-request in-memory budget
    // forces every profile through the trace cache.
    let profiles: Vec<&'static WorkloadProfile> = FULL_SWEEP_PROFILES
        .iter()
        .map(|name| WorkloadProfile::by_name(name).expect("known profile"))
        .collect();
    let mut lab = PerfLab::new(Scale::full());
    lab.set_stream_cache_budget(1);
    lab.precompute_baselines(&profiles); // records on the first ever run
    let cells: Vec<SweepCell> = profiles
        .iter()
        .flat_map(|p| {
            [
                SweepCell::new(p, MoatConfig::with_ath(64)),
                SweepCell::new(p, MoatConfig::with_ath(128)),
            ]
        })
        .collect();
    let (_, stats) = run_sweep(&mut lab, &cells);

    TraceStoreResult {
        replay_acts_per_sec,
        full_sweep_acts_per_sec: stats.acts_per_sec(),
        full_sweep_cells: cells.len(),
    }
}

/// Measures the fleet supervisor end to end on a small clean fleet:
/// shard materialization, both simulators per shard, and the merged
/// report, fanned across the worker pool. Fault-free so the number
/// tracks the supervised hot path, not retry churn; best-of-2 because a
/// whole fleet pass dominates the benchmark's time budget.
fn measure_fleet() -> FleetPathResult {
    let shards = 16u32;
    let tenants = 128u32;
    let config = FleetConfig::new(FleetTopology::with_shards(shards), tenants, 96, 0xF1EE7);
    let supervisor = FleetSupervisor::new(config);
    let order: Vec<u32> = (0..shards).collect();
    let threads = rayon::current_num_threads();
    let mut best = 0.0f64;
    for _ in 0..2 {
        let (report, stats) = supervisor.run_with(&order, threads, None);
        assert!(
            !report.degraded(),
            "clean fleet benchmark must not quarantine shards"
        );
        best = best.max(stats.acts_per_sec());
    }
    FleetPathResult {
        acts_per_sec: best,
        shards,
        tenants,
    }
}

/// Measures the cross-mitigation arena on a two-engine zoo slice (MOAT
/// and CoMeT — one counter-table engine, one sketch engine) through the
/// real `repro arena` pipeline, without a checkpoint store: the full
/// perf + attack grid per variant on the chunked worker queue, and the
/// rendered table. Small enough to stay in the benchmark's time budget,
/// real enough that a regression in any shared arena layer (grid
/// assembly, cell supervision, the boxed engine seam) moves it.
fn measure_arena() -> ArenaPathResult {
    let selection: Vec<&'static EngineSpec> = ["moat", "comet"]
        .iter()
        .map(|name| registry::spec(name).expect("registry engine"))
        .collect();
    let threads = rayon::current_num_threads();
    let mut best = 0.0f64;
    let mut cells = 0;
    for _ in 0..2 {
        let start = Instant::now();
        let (_, reg, acts) = crate::arena_cmd::run_arena(&selection, threads, None, false);
        cells = reg.counter("arena.cells.total") as usize;
        best = best.max(acts as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    ArenaPathResult {
        acts_per_sec: best,
        cells,
    }
}

/// Attributes simulated time per phase inside two security cells —
/// Feinting against the ideal SRAM tracker and Ratchet against MOAT-L1 —
/// by running each through the event-horizon loop with a [`Tracer`] at
/// `Spans` level (no per-event recording, just phase attribution). Both
/// cells use the exact constructions of their security experiments,
/// scaled down to the cheapest figure point, so the profile describes
/// the real cells rather than a proxy. The numbers are simulated
/// nanoseconds, so the resulting JSON fields are bit-identical across
/// hosts and runs — and say nothing about host time: on the host,
/// Feinting spends most of its time in engine calls and Ratchet does
/// not (see README §Per-phase profiling).
pub fn measure_profiles() -> Vec<CellPhaseProfile> {
    // Feinting (Fig. 6 shape): k = 3 tREFI per mitigation, 64 feint
    // periods, ALERT disabled — time should pool in tracker updates.
    let feinting = {
        let (k, periods) = (3u32, 64u32);
        let mut cfg = SecurityConfig::paper_default();
        cfg.alerts_enabled = false;
        cfg.budget = SlotBudget::per_aggressor(5, k);
        let mut sim = SecuritySim::new(cfg, Box::new(IdealSramTracker::new(65_536)));
        let mut attacker = FeintingAttacker::new(periods as usize, 40_000);
        let duration = Nanos::new(u64::from(periods) * u64::from(k) * 3_900 + 1_000_000);
        let mut tracer = Tracer::new(TelemetryLevel::Spans);
        let hooks = Hooks::default().telemetry(&mut tracer);
        sim.run_semi_scripted_with(&mut attacker, duration, hooks);
        *tracer.profile()
    };

    // Ratchet (Fig. 15 shape): 64 aggressors ratcheting over a 256-row
    // pool — the ALERT-episode-churn stress case.
    let ratchet = {
        let mut sim = SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
        );
        let mut attacker = RatchetAttacker::new(64, 256);
        let mut tracer = Tracer::new(TelemetryLevel::Spans);
        let hooks = Hooks::default().telemetry(&mut tracer);
        sim.run_semi_scripted_with(&mut attacker, Nanos::from_millis(8), hooks);
        *tracer.profile()
    };

    vec![
        CellPhaseProfile {
            cell: "feinting",
            profile: feinting,
        },
        CellPhaseProfile {
            cell: "ratchet",
            profile: ratchet,
        },
    ]
}

/// Runs the full benchmark at the given scale.
pub fn bench_perf(scale: Scale) -> PerfBenchReport {
    let uniform_n: u32 = 400_000;
    let hammer_n: u32 = 200_000;
    let uniform = measure(uniform_stream(uniform_n, 32), 32, u64::from(uniform_n));
    let hammer = measure(hammer_stream(hammer_n), 1, u64::from(hammer_n));
    let security = measure_security(Nanos::from_millis(20));
    let adaptive = measure_adaptive();
    let trace = measure_trace_store();
    let fleet = measure_fleet();
    let arena = measure_arena();

    // Sweep scaling: one ATH-64 cell per workload profile.
    let cells: Vec<SweepCell> = PROFILES
        .iter()
        .map(|p| SweepCell::new(p, MoatConfig::with_ath(64)))
        .collect();

    let mut serial_lab = PerfLab::new(scale);
    let profiles: Vec<_> = cells.iter().map(|c| c.profile).collect();
    serial_lab.precompute_baselines(&profiles);
    let start = Instant::now();
    for cell in &cells {
        let _ = serial_lab.run_moat_shared(cell.profile, cell.moat, cell.budget);
    }
    let sweep_serial_seconds = start.elapsed().as_secs_f64();

    let mut parallel_lab = PerfLab::new(scale);
    parallel_lab.precompute_baselines(&profiles);
    let start = Instant::now();
    let (_, stats) = run_sweep(&mut parallel_lab, &cells);
    let sweep_parallel_seconds = start.elapsed().as_secs_f64();

    PerfBenchReport {
        uniform,
        hammer,
        security,
        adaptive,
        trace,
        fleet,
        arena,
        sweep_serial_seconds,
        sweep_parallel_seconds,
        sweep_acts_per_sec: stats.acts_per_sec(),
        threads: stats.threads,
        cells: cells.len(),
        profiles: measure_profiles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_and_boxed_reports_are_identical() {
        let r = measure(uniform_stream(20_000, 4), 4, 20_000);
        assert!(r.mono_acts_per_sec > 0.0);
        assert!(r.boxed_acts_per_sec > 0.0);
    }

    fn sample_report() -> PerfBenchReport {
        PerfBenchReport {
            uniform: HotPathResult {
                mono_acts_per_sec: 2.0e7,
                boxed_acts_per_sec: 1.5e7,
                acts: 100,
            },
            hammer: HotPathResult {
                mono_acts_per_sec: 3.0e7,
                boxed_acts_per_sec: 2.0e7,
                acts: 100,
            },
            security: SecurityPathResult {
                step_acts_per_sec: 1.1e7,
                batched_acts_per_sec: 3.3e7,
                acts: 100,
            },
            adaptive: AdaptivePathResult {
                step_acts_per_sec: 5.0e6,
                batched_acts_per_sec: 1.5e7,
                acts: 100,
            },
            trace: TraceStoreResult {
                replay_acts_per_sec: 2.5e8,
                full_sweep_acts_per_sec: 4.0e7,
                full_sweep_cells: 6,
            },
            fleet: FleetPathResult {
                acts_per_sec: 2.4e7,
                shards: 16,
                tenants: 128,
            },
            arena: ArenaPathResult {
                acts_per_sec: 1.8e7,
                cells: 20,
            },
            sweep_serial_seconds: 2.0,
            sweep_parallel_seconds: 0.5,
            sweep_acts_per_sec: 1.6e7,
            threads: 4,
            cells: 21,
            profiles: sample_profiles(),
        }
    }

    fn sample_profiles() -> Vec<CellPhaseProfile> {
        let mut feinting = PhaseProfile::new();
        feinting.add(SimPhase::EngineUpdate, 100, 6_000);
        feinting.add(SimPhase::Refresh, 10, 3_000);
        feinting.add(SimPhase::Idle, 0, 1_000);
        let mut ratchet = PhaseProfile::new();
        ratchet.add(SimPhase::EngineUpdate, 50, 5_000);
        ratchet.add(SimPhase::EpisodeChurn, 40, 5_000);
        vec![
            CellPhaseProfile {
                cell: "feinting",
                profile: feinting,
            },
            CellPhaseProfile {
                cell: "ratchet",
                profile: ratchet,
            },
        ]
    }

    #[test]
    fn measured_profiles_are_deterministic_and_nonempty() {
        let a = measure_profiles();
        let b = measure_profiles();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].cell, "feinting");
        assert_eq!(a[1].cell, "ratchet");
        for (x, y) in a.iter().zip(&b) {
            assert!(x.profile.total_ns() > 0, "{} profile is empty", x.cell);
            assert!(
                x.profile.units(SimPhase::EngineUpdate) > 0,
                "{} attributed no ACTs to the engine",
                x.cell
            );
            for phase in SimPhase::ALL {
                assert_eq!(x.profile.ns(phase), y.profile.ns(phase), "{}", x.cell);
                assert_eq!(x.profile.units(phase), y.profile.units(phase), "{}", x.cell);
            }
        }
    }

    #[test]
    fn json_shape_is_valid_enough() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"security_batched_speedup\": 3.000"));
        assert!(json.contains("\"adaptive_batched_speedup\": 3.000"));
        assert!(json.contains("\"sweep_speedup\": 4.000"));
        assert!(json.contains("\"full_sweep_acts_per_sec\": 40000000"));
        assert!(json.contains("\"fleet_acts_per_sec\": 24000000"));
        assert!(json.contains("\"fleet_shards\": 16"));
        assert!(json.contains("\"arena_acts_per_sec\": 18000000"));
        assert!(json.contains("\"arena_cells\": 20"));
        // Per-phase profile fields: 2 cells x 6 phases, simulated ns.
        assert!(json.contains("\"profile_feinting_engine_update_ns\": 6000"));
        assert!(json.contains("\"profile_feinting_refresh_ns\": 3000"));
        assert!(json.contains("\"profile_ratchet_episode_churn_ns\": 5000"));
        assert!(json.contains("\"profile_ratchet_stream_decode_ns\": 0"));
        assert_eq!(json.matches(':').count(), 35);
        assert!(report.summary().contains("Simulator performance"));
        assert!(report.summary().contains("Where simulated time goes"));
        assert!(report.summary().contains("phase profile feinting"));
        assert!(report.summary().contains("engine-update 60.0%"));
        assert!(report.summary().contains("security hammer sim"));
        assert!(report.summary().contains("adaptive attack suite"));
        assert!(report.summary().contains("trace store"));
        assert!(report.summary().contains("fleet supervisor"));
        assert!(report.summary().contains("arena probe"));

        // The perf-smoke gate reads its own serialization back.
        assert_eq!(json_number(&json, "uniform_mono_acts_per_sec"), Some(2.0e7));
        assert_eq!(
            json_number(&json, "security_batched_acts_per_sec"),
            Some(3.3e7)
        );
        assert_eq!(json_number(&json, "threads"), Some(4.0));
        assert_eq!(json_number(&json, "missing"), None);
        report
            .check_regression(&json, 0.20)
            .expect("identical run is not a regression");
        // A baseline 2x faster on the uniform metric trips the 20% gate.
        let fast_baseline = json.replace("20000000", "40000000");
        assert!(report.check_regression(&fast_baseline, 0.20).is_err());
        // ...but is within a 60% tolerance.
        report
            .check_regression(&fast_baseline, 0.60)
            .expect("50% drop within 60% tolerance");
    }

    #[test]
    fn regression_gate_covers_sweep_and_security_metrics() {
        let report = sample_report();
        let json = report.to_json();
        // Sweep regression: baseline sweeps 2x faster than this run.
        let sweep_fast = json.replace(
            "\"sweep_acts_per_sec\": 16000000",
            "\"sweep_acts_per_sec\": 32000000",
        );
        let err = report.check_regression(&sweep_fast, 0.20).unwrap_err();
        assert!(err.contains("sweep_acts_per_sec"), "{err}");
        // Security regression: baseline batched path 2x faster.
        let sec_fast = json.replace(
            "\"security_batched_acts_per_sec\": 33000000",
            "\"security_batched_acts_per_sec\": 66000000",
        );
        let err = report.check_regression(&sec_fast, 0.20).unwrap_err();
        assert!(err.contains("security_batched_acts_per_sec"), "{err}");
        // The trace-backed paper-scale sweep is gated too.
        let full_fast = json.replace(
            "\"full_sweep_acts_per_sec\": 40000000",
            "\"full_sweep_acts_per_sec\": 80000000",
        );
        let err = report.check_regression(&full_fast, 0.20).unwrap_err();
        assert!(err.contains("full_sweep_acts_per_sec"), "{err}");
        // The semi-scripted adaptive path is gated too.
        let adaptive_fast = json.replace(
            "\"adaptive_batched_acts_per_sec\": 15000000",
            "\"adaptive_batched_acts_per_sec\": 30000000",
        );
        let err = report.check_regression(&adaptive_fast, 0.20).unwrap_err();
        assert!(err.contains("adaptive_batched_acts_per_sec"), "{err}");
        // The fleet supervisor path is gated too.
        let fleet_fast = json.replace(
            "\"fleet_acts_per_sec\": 24000000",
            "\"fleet_acts_per_sec\": 48000000",
        );
        let err = report.check_regression(&fleet_fast, 0.20).unwrap_err();
        assert!(err.contains("fleet_acts_per_sec"), "{err}");
        // The cross-mitigation arena path is gated too.
        let arena_fast = json.replace(
            "\"arena_acts_per_sec\": 18000000",
            "\"arena_acts_per_sec\": 36000000",
        );
        let err = report.check_regression(&arena_fast, 0.20).unwrap_err();
        assert!(err.contains("arena_acts_per_sec"), "{err}");
        // A zero current value means "not measured this run" (trace
        // cache unavailable): skipped, not a spurious regression.
        let mut unmeasured = report.clone();
        unmeasured.trace.full_sweep_acts_per_sec = 0.0;
        let ok = unmeasured.check_regression(&json, 0.20).unwrap();
        assert!(ok.contains("not measured"), "{ok}");
        // Pre-batching baselines lack the new keys: skipped with a note,
        // the uniform gate still applies.
        let old_baseline = "{\n  \"uniform_mono_acts_per_sec\": 20000000\n}\n";
        let ok = report.check_regression(old_baseline, 0.20).unwrap();
        assert!(ok.contains("skipped"), "{ok}");
        // A baseline missing the required uniform key is an error.
        assert!(report
            .check_regression("{\"sweep_acts_per_sec\": 1}", 0.20)
            .is_err());
    }

    #[test]
    fn parallel_gates_skip_on_thread_count_mismatch() {
        // A single-core run against a multi-core baseline (or vice
        // versa) must not fail — or spuriously pass — the
        // parallel-scaling gates: they are skipped with a printed
        // reason, while the serial gates still apply.
        let report = sample_report();
        let json = report.to_json();

        // Baseline recorded on 8 threads, this run on 4: even a sweep
        // rate 10x above ours is not a regression verdict.
        let eight_thread_baseline = json
            .replace("\"threads\": 4", "\"threads\": 8")
            .replace(
                "\"sweep_acts_per_sec\": 16000000",
                "\"sweep_acts_per_sec\": 160000000",
            )
            .replace(
                "\"full_sweep_acts_per_sec\": 40000000",
                "\"full_sweep_acts_per_sec\": 400000000",
            )
            .replace(
                "\"fleet_acts_per_sec\": 24000000",
                "\"fleet_acts_per_sec\": 240000000",
            )
            .replace(
                "\"arena_acts_per_sec\": 18000000",
                "\"arena_acts_per_sec\": 180000000",
            );
        let ok = report
            .check_regression(&eight_thread_baseline, 0.20)
            .expect("thread mismatch must skip, not fail");
        assert!(
            ok.contains("sweep_acts_per_sec skipped")
                && ok.contains("full_sweep_acts_per_sec skipped")
                && ok.contains("fleet_acts_per_sec skipped")
                && ok.contains("arena_acts_per_sec skipped"),
            "{ok}"
        );
        assert!(ok.contains("4 thread(s) vs the baseline's 8"), "{ok}");

        // The serial gates still bite under a thread mismatch.
        let serial_regression = eight_thread_baseline.replace(
            "\"uniform_mono_acts_per_sec\": 20000000",
            "\"uniform_mono_acts_per_sec\": 40000000",
        );
        assert!(report.check_regression(&serial_regression, 0.20).is_err());

        // A baseline without a threads field cannot be compared either.
        let no_threads = json.replace("\"threads\": 4", "\"thread_count\": 4");
        let ok = report.check_regression(&no_threads, 0.20).unwrap();
        assert!(ok.contains("does not record its thread count"), "{ok}");

        // Matching thread counts keep the parallel gates armed.
        let sweep_fast = json.replace(
            "\"sweep_acts_per_sec\": 16000000",
            "\"sweep_acts_per_sec\": 32000000",
        );
        assert!(report.check_regression(&sweep_fast, 0.20).is_err());
    }
}
