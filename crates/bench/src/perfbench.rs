//! Simulator-throughput benchmark behind `repro --json`: measures the
//! monomorphized hot path against the boxed (dynamic-dispatch) path and
//! the parallel sweep against a serial run, and serializes the numbers to
//! `BENCH_perf.json` so the perf trajectory is tracked across PRs.
//!
//! Each measurement appends its fields (key, value, JSON precision,
//! gate kind — each written once) and its summary line to one
//! [`PerfBenchReport`]; the JSON, the gate and the summary loop over it.

use std::time::Instant;

use moat_attacks::{FeintingAttacker, JailbreakAttacker, PostponementAttacker, RatchetAttacker};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{BankId, DramConfig, MitigationEngine, Nanos, RowId};
use moat_fleet::{FleetConfig, FleetSupervisor, FleetTopology};
use moat_sim::{
    hammer_attacker, Attacker, Hooks, PerfConfig, PerfSim, Request, RequestStream, Scripted,
    SecurityConfig, SecuritySim, SemiScriptedAttacker, SlotBudget, DEFAULT_CHUNK,
};
use moat_telemetry::{PhaseProfile, SimPhase};
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

/// The field holding the parallel sweep's worker-thread count, which
/// the thread-scaled gates compare with the baseline's.
const THREADS: &str = "threads";

/// How the `--baseline` perf smoke treats a field. A gated field carries
/// its line's position in the verdict, which lists the gates in the
/// order they were introduced rather than in JSON order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Written to the JSON, never compared.
    Info,
    /// Compared; the baseline must carry the key.
    Required(u8),
    /// Compared when the baseline carries the key (an older one skips it
    /// with a note); a zero value means "not measured" and skips too.
    IfPresent(u8),
    /// As `IfPresent`, but scales with the worker threads: compared only
    /// when `threads` matches the baseline's, skipped with a note
    /// otherwise rather than reporting a spurious regression or pass.
    ThreadScaled(u8),
}

/// One `BENCH_perf.json` field.
#[derive(Debug, Clone)]
struct Metric {
    key: String,
    /// Counts ride as `f64` too: exact below 2^53, they print as the
    /// same integers.
    value: f64,
    /// Digits after the decimal point in the JSON.
    decimals: usize,
    gate: Gate,
}

/// The full benchmark report serialized into `BENCH_perf.json`.
#[derive(Debug, Clone, Default)]
pub struct PerfBenchReport {
    /// Every field in JSON order: the per-phase profile rows lead (they
    /// are deterministic), the machine-sensitive throughput rows follow
    /// in measurement order.
    metrics: Vec<Metric>,
    /// Summary lines in measurement order.
    lines: Vec<String>,
}

impl PerfBenchReport {
    /// Serializes the report as a JSON object, one field per line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("  \"{}\": {:.*}", m.key, m.decimals, m.value))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    /// Compares this run against a previously committed `BENCH_perf.json`
    /// and reports a perf-smoke verdict: `Err` when any gated metric
    /// dropped by more than `max_regression` (e.g. `0.20` for the CI
    /// gate's 20%), `Ok` with a per-metric summary otherwise.
    ///
    /// The gated metrics are the ones recorded with a gate below: the
    /// uniform hot path every experiment rides on (the baseline must
    /// carry it), the sweep harness, the batched and semi-scripted
    /// security paths, the trace-backed paper-scale sweep, the fleet
    /// supervisor and the arena. The last four scale with the worker
    /// threads, so they are compared only when `threads` matches the
    /// baseline's. The other fields are informational.
    pub fn check_regression(
        &self,
        baseline_json: &str,
        max_regression: f64,
    ) -> Result<String, String> {
        let threads = self
            .metrics
            .iter()
            .find(|m| m.key == THREADS)
            .map_or(0.0, |m| m.value);
        let baseline_threads = json_number(baseline_json, THREADS);
        let mut gated: Vec<(u8, &Metric)> = self
            .metrics
            .iter()
            .filter_map(|m| match m.gate {
                Gate::Info => None,
                Gate::Required(n) | Gate::IfPresent(n) | Gate::ThreadScaled(n) => Some((n, m)),
            })
            .collect();
        gated.sort_unstable_by_key(|&(line, _)| line);
        let mut lines = Vec::new();
        let mut failures = Vec::new();
        for (_, metric) in gated {
            let (key, current, gate) = (&metric.key, metric.value, metric.gate);
            let required = matches!(gate, Gate::Required(_));
            if !required && current == 0.0 {
                // Zero means "not measured this run" (e.g. the trace
                // cache directory could not be created): skip rather
                // than report a spurious regression.
                lines.push(format!("perf smoke: {key} not measured this run — skipped"));
                continue;
            }
            if matches!(gate, Gate::ThreadScaled(_)) && baseline_threads != Some(threads) {
                let why = match baseline_threads {
                    Some(t) => {
                        format!("this run used {threads:.0} thread(s) vs the baseline's {t:.0}")
                    }
                    None => "the baseline does not record its thread count".to_string(),
                };
                lines.push(format!(
                    "perf smoke: {key} skipped — parallel-scaling metric, but {why}"
                ));
                continue;
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
        format!("Simulator performance\n{}", self.lines.concat())
    }

    fn push(&mut self, key: impl Into<String>, value: f64, decimals: usize, gate: Gate) {
        self.metrics.push(Metric {
            key: key.into(),
            value,
            decimals,
            gate,
        });
    }

    /// Simulated ACTs per host second of `PerfSim<MoatEngine>` (mono) and
    /// `PerfSim<Box<dyn MitigationEngine>>` (boxed), on the 32-bank
    /// uniform benign stream and on the single-row hammer (ALERT-heavy).
    fn record_dispatch(&mut self, uniform: (f64, f64), hammer: (f64, f64)) {
        self.push("uniform_mono_acts_per_sec", uniform.0, 0, Gate::Required(0));
        self.push("uniform_boxed_acts_per_sec", uniform.1, 0, Gate::Info);
        self.push("hammer_mono_acts_per_sec", hammer.0, 0, Gate::Info);
        self.push("hammer_boxed_acts_per_sec", hammer.1, 0, Gate::Info);
        for (label, (mono, boxed)) in [
            ("uniform 32-bank stream", uniform),
            ("single-row hammer", hammer),
        ] {
            let (mono, boxed) = (mono / 1e6, boxed / 1e6);
            self.lines.push(format!(
                "  {label:<22} : {mono:>6.1} M ACTs/s mono, {boxed:>6.1} M boxed\n"
            ));
        }
    }

    /// Simulated ACTs per host second of the security simulator on the
    /// single-row hammer, per-step and through the event-horizon
    /// (semi-scripted) loop.
    fn record_security(&mut self, step: f64, semi: f64) {
        let speedup = semi / step.max(1e-9);
        self.push("security_step_acts_per_sec", step, 0, Gate::Info);
        self.push("security_batched_acts_per_sec", semi, 0, Gate::IfPresent(2));
        self.push("security_batched_speedup", speedup, 3, Gate::Info);
        let (step, semi) = (step / 1e6, semi / 1e6);
        self.lines.push(format!(
            "  security hammer sim    : {semi:>6.1} M ACTs/s batched, {step:>6.1} M per-step \
             ({speedup:.2}x)\n"
        ));
    }

    /// As [`record_security`](Self::record_security), on the adaptive
    /// attack suite.
    fn record_adaptive(&mut self, step: f64, semi: f64) {
        let speedup = semi / step.max(1e-9);
        self.push("adaptive_step_acts_per_sec", step, 0, Gate::Info);
        self.push("adaptive_batched_acts_per_sec", semi, 0, Gate::IfPresent(3));
        self.push("adaptive_batched_speedup", speedup, 3, Gate::Info);
        let (step, semi) = (step / 1e6, semi / 1e6);
        self.lines.push(format!(
            "  adaptive attack suite  : {semi:>6.1} M ACTs/s semi-scripted, {step:>6.1} M \
             per-step ({speedup:.2}x)\n"
        ));
    }

    /// The trace store: raw mmap replay's requests per host second, and
    /// the aggregate simulated ACTs per host second of the paper-scale
    /// sweep over `cells` trace-backed cells.
    fn record_trace_store(&mut self, replay: f64, sweep: f64, cells: usize) {
        self.push("trace_replay_acts_per_sec", replay, 0, Gate::Info);
        self.push("full_sweep_cells", cells as f64, 0, Gate::Info);
        self.push("full_sweep_acts_per_sec", sweep, 0, Gate::ThreadScaled(4));
        let (replay, sweep) = (replay / 1e6, sweep / 1e6);
        self.lines.push(format!(
            "  trace store            : {replay:>6.1} M req/s raw mmap replay, {sweep:.1} M \
             ACTs/s paper-scale sweep ({cells} cells)\n"
        ));
    }

    /// The fleet supervisor: perf + security ACTs across all shards per
    /// host second of the fleet's wall time.
    fn record_fleet(&mut self, acts_per_sec: f64, shards: u32, tenants: u32) {
        self.push("fleet_shards", f64::from(shards), 0, Gate::Info);
        self.push("fleet_acts_per_sec", acts_per_sec, 0, Gate::ThreadScaled(5));
        self.lines.push(format!(
            "  fleet supervisor       : {:>6.1} M ACTs/s across {shards} shards x {tenants} \
             tenants\n",
            acts_per_sec / 1e6
        ));
    }

    /// The arena probe: aggregate simulated ACTs per host second across
    /// its `cells` over the arena's wall time.
    fn record_arena(&mut self, acts_per_sec: f64, cells: usize) {
        self.push("arena_cells", cells as f64, 0, Gate::Info);
        self.push("arena_acts_per_sec", acts_per_sec, 0, Gate::ThreadScaled(6));
        self.lines.push(format!(
            "  arena probe            : {:>6.1} M ACTs/s across {cells} cells\n",
            acts_per_sec / 1e6
        ));
    }

    /// The sweep harness: wall seconds of `cells` run serially and through
    /// the parallel runner on `threads` workers, and the parallel run's
    /// aggregate simulated ACTs per host second.
    fn record_sweep(&mut self, cells: usize, secs: (f64, f64), acts: f64, threads: usize) {
        let (serial, parallel) = secs;
        let speedup = serial / parallel.max(1e-9);
        self.push("sweep_cells", cells as f64, 0, Gate::Info);
        self.push("sweep_serial_seconds", serial, 3, Gate::Info);
        self.push("sweep_parallel_seconds", parallel, 3, Gate::Info);
        self.push("sweep_speedup", speedup, 3, Gate::Info);
        self.push("sweep_acts_per_sec", acts, 0, Gate::ThreadScaled(1));
        self.push(THREADS, threads as f64, 0, Gate::Info);
        self.lines.push(format!(
            "  sweep ({cells} cells)       : serial {serial:.2}s, parallel {parallel:.2}s \
             ({speedup:.2}x on {threads} threads), {:.1} M ACTs/s\n",
            acts / 1e6
        ));
    }

    /// Simulated nanoseconds per [`SimPhase`] of each named cell, as
    /// `profile_{cell}_{phase}_ns` fields ahead of every other field,
    /// and one summary line per cell giving each phase's share in the
    /// fixed [`SimPhase::ALL`] order (zero-time zero-unit phases
    /// elided). Recorded last, so its lines close the summary.
    fn record_profiles(&mut self, profiles: &[(&str, PhaseProfile)]) {
        let throughput_rows = self.metrics.len();
        if !profiles.is_empty() {
            self.lines
                .push("Where simulated time goes (deterministic per-phase attribution)\n".into());
        }
        for (cell, profile) in profiles {
            let mut shares = Vec::new();
            for phase in SimPhase::ALL {
                let key = format!("profile_{cell}_{}_ns", phase.name().replace('-', "_"));
                self.push(key, profile.ns(phase) as f64, 0, Gate::Info);
                let pm = profile.permille(phase);
                if pm != 0 || profile.units(phase) != 0 {
                    shares.push(format!("{} {}.{}%", phase.name(), pm / 10, pm % 10));
                }
            }
            let shares = shares.join(", ");
            self.lines
                .push(format!("  phase profile {cell:<8}: {shares}\n"));
        }
        // The profile rows lead the JSON.
        self.metrics.rotate_left(throughput_rows);
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
/// round-robin over `banks` banks with Knuth-hashed rows.
pub(crate) fn uniform_stream(n: u32, banks: u16) -> impl Iterator<Item = Request> + Clone {
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
/// Returns simulated ACTs per host second, monomorphized then boxed.
fn measure<S>(stream: S, banks: u16, acts: u64) -> (f64, f64)
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
    let acts = acts as f64;
    (acts / mono_secs.max(1e-9), acts / boxed_secs.max(1e-9))
}

/// Measures the security simulator on the single-row hammer attack:
/// the per-step reference (`run` over the `Scripted` adapter) against
/// the event-horizon loop (`run_semi_scripted`), asserting along the way
/// that both produce bit-identical reports.
fn measure_security(bench: &mut PerfBenchReport, duration: Nanos) {
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
    let acts = report.total_acts as f64;
    bench.record_security(acts / step_secs.max(1e-9), acts / batched_secs.max(1e-9));
}

/// One cell of the adaptive benchmark suite: times the same attack
/// through the per-step reference and the semi-scripted path with
/// [`best_of_3`] (asserting bit-identical reports). Returns the acts and
/// the two best wall times.
fn adaptive_cell<E, A>(
    mk_sim: impl Fn() -> SecuritySim<E>,
    mk_attacker: impl Fn() -> A,
    duration: Nanos,
) -> (u64, f64, f64)
where
    E: MitigationEngine,
    A: Attacker + SemiScriptedAttacker,
{
    let (report, step, semi) = best_of_3(
        "semi-scripted batching changed the security report",
        || mk_sim().run(&mut mk_attacker(), duration),
        || mk_sim().run_semi_scripted(&mut mk_attacker(), duration),
    );
    (report.total_acts, step, semi)
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
fn measure_adaptive(bench: &mut PerfBenchReport) {
    let mut post_cfg = SecurityConfig::paper_default();
    post_cfg.dram = DramConfig::builder().max_postponed_refs(2).build();
    let cells = [
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
        ),
        // Fig. 16: refresh postponement against the drain-on-REF variant.
        adaptive_cell(
            || {
                SecuritySim::new(
                    post_cfg,
                    PanopticonEngine::new(PanopticonConfig::drain_variant()),
                )
            },
            || PostponementAttacker::new(20_000, 128),
            Nanos::from_millis(1),
        ),
    ];
    let acts = cells.iter().map(|c| c.0).sum::<u64>() as f64;
    let step_secs: f64 = cells.iter().map(|c| c.1).sum();
    let batched_secs: f64 = cells.iter().map(|c| c.2).sum();
    bench.record_adaptive(acts / step_secs.max(1e-9), acts / batched_secs.max(1e-9));
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
fn measure_trace_store(bench: &mut PerfBenchReport) {
    let Ok(cache) = TraceCache::open_default() else {
        return bench.record_trace_store(0.0, 0.0, 0);
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
    lab.load(&profiles); // records on the first ever run
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

    bench.record_trace_store(replay_acts_per_sec, stats.acts_per_sec(), cells.len());
}

/// Measures the fleet supervisor end to end on a small clean fleet:
/// shard materialization, both simulators per shard, and the merged
/// report, fanned across the worker pool. Fault-free so the number
/// tracks the supervised hot path, not retry churn; best-of-2 because a
/// whole fleet pass dominates the benchmark's time budget.
fn measure_fleet(bench: &mut PerfBenchReport) {
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
    bench.record_fleet(best, shards, tenants);
}

/// Measures the cross-mitigation arena on a two-engine zoo slice (MOAT
/// and CoMeT — one counter-table engine, one sketch engine) through the
/// real `repro arena` pipeline, without a checkpoint store: the full
/// perf + attack grid per variant on the chunked worker queue, and the
/// rendered table. Small enough to stay in the benchmark's time budget,
/// real enough that a regression in any shared arena layer (grid
/// assembly, cell supervision, the boxed engine seam) moves it.
fn measure_arena(bench: &mut PerfBenchReport) {
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
    bench.record_arena(best, cells);
}

/// Attributes simulated time per phase inside two security cells —
/// Feinting against the ideal SRAM tracker and Ratchet against MOAT-L1 —
/// by running each through the event-horizon loop with a lent
/// [`PhaseProfile`] as its telemetry layer. Both
/// cells use the exact constructions of their security experiments,
/// scaled down to the cheapest figure point, so the profile describes
/// the real cells rather than a proxy. The numbers are simulated
/// nanoseconds, so the resulting JSON fields are bit-identical across
/// hosts and runs — and say nothing about host time: on the host,
/// Feinting spends most of its time in engine calls and Ratchet does
/// not (see README §Per-phase profiling).
fn measure_profiles() -> [(&'static str, PhaseProfile); 2] {
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
        let mut profile = PhaseProfile::new();
        let hooks = Hooks::default().telemetry(&mut profile);
        sim.run_semi_scripted_with(&mut attacker, duration, hooks);
        profile
    };

    // Ratchet (Fig. 15 shape): 64 aggressors ratcheting over a 256-row
    // pool — the ALERT-episode-churn stress case.
    let ratchet = {
        let mut sim = SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::paper_default())),
        );
        let mut attacker = RatchetAttacker::new(64, 256);
        let mut profile = PhaseProfile::new();
        let hooks = Hooks::default().telemetry(&mut profile);
        sim.run_semi_scripted_with(&mut attacker, Nanos::from_millis(8), hooks);
        profile
    };

    [("feinting", feinting), ("ratchet", ratchet)]
}

/// Measures the sweep harness: one ATH-64 cell per workload profile,
/// run serially and through the parallel runner.
fn measure_sweep(bench: &mut PerfBenchReport, scale: Scale) {
    let cells: Vec<SweepCell> = PROFILES
        .iter()
        .map(|p| SweepCell::new(p, MoatConfig::with_ath(64)))
        .collect();

    let mut serial_lab = PerfLab::new(scale);
    let profiles: Vec<_> = cells.iter().map(|c| c.profile).collect();
    serial_lab.load(&profiles);
    let start = Instant::now();
    for cell in &cells {
        let _ = serial_lab.simulate(cell);
    }
    let serial_seconds = start.elapsed().as_secs_f64();

    let mut parallel_lab = PerfLab::new(scale);
    parallel_lab.load(&profiles);
    let start = Instant::now();
    let (_, stats) = run_sweep(&mut parallel_lab, &cells);
    let parallel_seconds = start.elapsed().as_secs_f64();
    let secs = (serial_seconds, parallel_seconds);
    bench.record_sweep(cells.len(), secs, stats.acts_per_sec(), stats.threads);
}

/// Runs the full benchmark at the given scale.
pub fn bench_perf(scale: Scale) -> PerfBenchReport {
    let mut bench = PerfBenchReport::default();
    let (uniform_n, hammer_n) = (400_000u32, 200_000u32);
    bench.record_dispatch(
        measure(uniform_stream(uniform_n, 32), 32, u64::from(uniform_n)),
        measure(hammer_stream(hammer_n), 1, u64::from(hammer_n)),
    );
    measure_security(&mut bench, Nanos::from_millis(20));
    measure_adaptive(&mut bench);
    measure_trace_store(&mut bench);
    measure_fleet(&mut bench);
    measure_arena(&mut bench);
    measure_sweep(&mut bench, scale);
    bench.record_profiles(&measure_profiles());
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mono_and_boxed_reports_are_identical() {
        let (mono, boxed) = measure(uniform_stream(20_000, 4), 4, 20_000);
        assert!(mono > 0.0);
        assert!(boxed > 0.0);
    }

    fn sample_report() -> PerfBenchReport {
        sample_report_with_full_sweep(4.0e7)
    }

    /// The sample report whose paper-scale sweep read `full_sweep`
    /// ACTs per host second.
    fn sample_report_with_full_sweep(full_sweep: f64) -> PerfBenchReport {
        let mut report = PerfBenchReport::default();
        report.record_dispatch((2.0e7, 1.5e7), (3.0e7, 2.0e7));
        report.record_security(1.1e7, 3.3e7);
        report.record_adaptive(5.0e6, 1.5e7);
        report.record_trace_store(2.5e8, full_sweep, 6);
        report.record_fleet(2.4e7, 16, 128);
        report.record_arena(1.8e7, 20);
        report.record_sweep(21, (2.0, 0.5), 1.6e7, 4);
        report.record_profiles(&sample_profiles());
        report
    }

    fn sample_profiles() -> [(&'static str, PhaseProfile); 2] {
        let mut feinting = PhaseProfile::new();
        feinting.add(SimPhase::EngineUpdate, 100, 6_000);
        feinting.add(SimPhase::Refresh, 10, 3_000);
        feinting.add(SimPhase::Idle, 0, 1_000);
        let mut ratchet = PhaseProfile::new();
        ratchet.add(SimPhase::EngineUpdate, 50, 5_000);
        ratchet.add(SimPhase::EpisodeChurn, 40, 5_000);
        [("feinting", feinting), ("ratchet", ratchet)]
    }

    #[test]
    fn measured_profiles_are_deterministic_and_nonempty() {
        let a = measure_profiles();
        let b = measure_profiles();
        assert_eq!(a[0].0, "feinting");
        assert_eq!(a[1].0, "ratchet");
        for ((cell, x), (_, y)) in a.iter().zip(&b) {
            assert!(x.total_ns() > 0, "{cell} profile is empty");
            assert!(
                x.units(SimPhase::EngineUpdate) > 0,
                "{cell} attributed no ACTs to the engine"
            );
            for phase in SimPhase::ALL {
                assert_eq!(x.ns(phase), y.ns(phase), "{cell}");
                assert_eq!(x.units(phase), y.units(phase), "{cell}");
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
        // Per-phase profile fields: 2 cells x 4 phases, simulated ns.
        assert!(json.contains("\"profile_feinting_engine_update_ns\": 6000"));
        assert!(json.contains("\"profile_feinting_refresh_ns\": 3000"));
        assert!(json.contains("\"profile_ratchet_episode_churn_ns\": 5000"));
        assert_eq!(json.matches(':').count(), 31);
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
        let ok = sample_report_with_full_sweep(0.0)
            .check_regression(&json, 0.20)
            .unwrap();
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

    /// `to_json()` of [`sample_report`], byte for byte.
    const SAMPLE_JSON: &str = r#"{
  "profile_feinting_engine_update_ns": 6000,
  "profile_feinting_episode_churn_ns": 0,
  "profile_feinting_refresh_ns": 3000,
  "profile_feinting_idle_ns": 1000,
  "profile_ratchet_engine_update_ns": 5000,
  "profile_ratchet_episode_churn_ns": 5000,
  "profile_ratchet_refresh_ns": 0,
  "profile_ratchet_idle_ns": 0,
  "uniform_mono_acts_per_sec": 20000000,
  "uniform_boxed_acts_per_sec": 15000000,
  "hammer_mono_acts_per_sec": 30000000,
  "hammer_boxed_acts_per_sec": 20000000,
  "security_step_acts_per_sec": 11000000,
  "security_batched_acts_per_sec": 33000000,
  "security_batched_speedup": 3.000,
  "adaptive_step_acts_per_sec": 5000000,
  "adaptive_batched_acts_per_sec": 15000000,
  "adaptive_batched_speedup": 3.000,
  "trace_replay_acts_per_sec": 250000000,
  "full_sweep_cells": 6,
  "full_sweep_acts_per_sec": 40000000,
  "fleet_shards": 16,
  "fleet_acts_per_sec": 24000000,
  "arena_cells": 20,
  "arena_acts_per_sec": 18000000,
  "sweep_cells": 21,
  "sweep_serial_seconds": 2.000,
  "sweep_parallel_seconds": 0.500,
  "sweep_speedup": 4.000,
  "sweep_acts_per_sec": 16000000,
  "threads": 4
}
"#;

    /// `summary()` of [`sample_report`], byte for byte.
    const SAMPLE_SUMMARY: &str = "\
Simulator performance
  uniform 32-bank stream :   20.0 M ACTs/s mono,   15.0 M boxed
  single-row hammer      :   30.0 M ACTs/s mono,   20.0 M boxed
  security hammer sim    :   33.0 M ACTs/s batched,   11.0 M per-step (3.00x)
  adaptive attack suite  :   15.0 M ACTs/s semi-scripted,    5.0 M per-step (3.00x)
  trace store            :  250.0 M req/s raw mmap replay, 40.0 M ACTs/s paper-scale sweep (6 cells)
  fleet supervisor       :   24.0 M ACTs/s across 16 shards x 128 tenants
  arena probe            :   18.0 M ACTs/s across 20 cells
  sweep (21 cells)       : serial 2.00s, parallel 0.50s (4.00x on 4 threads), 16.0 M ACTs/s
Where simulated time goes (deterministic per-phase attribution)
  phase profile feinting: engine-update 60.0%, refresh 30.0%, idle 10.0%
  phase profile ratchet : engine-update 50.0%, episode-churn 50.0%
";

    /// Every `check_regression` verdict of the baselines built in
    /// [`gate_verdicts_are_pinned`], byte for byte.
    const GATE_VERDICTS: &str = r#"== identical
Ok:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 20000000 (1.00x)
perf smoke: sweep_acts_per_sec 16000000 vs baseline 16000000 (1.00x)
perf smoke: security_batched_acts_per_sec 33000000 vs baseline 33000000 (1.00x)
perf smoke: adaptive_batched_acts_per_sec 15000000 vs baseline 15000000 (1.00x)
perf smoke: full_sweep_acts_per_sec 40000000 vs baseline 40000000 (1.00x)
perf smoke: fleet_acts_per_sec 24000000 vs baseline 24000000 (1.00x)
perf smoke: arena_acts_per_sec 18000000 vs baseline 18000000 (1.00x)
== 2x uniform
Err:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 40000000 (0.50x) — regressed more than 20%
== 2x uniform, 60% tolerance
Ok:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 40000000 (0.50x)
perf smoke: sweep_acts_per_sec 16000000 vs baseline 16000000 (1.00x)
perf smoke: security_batched_acts_per_sec 33000000 vs baseline 33000000 (1.00x)
perf smoke: adaptive_batched_acts_per_sec 15000000 vs baseline 15000000 (1.00x)
perf smoke: full_sweep_acts_per_sec 40000000 vs baseline 40000000 (1.00x)
perf smoke: fleet_acts_per_sec 24000000 vs baseline 24000000 (1.00x)
perf smoke: arena_acts_per_sec 18000000 vs baseline 18000000 (1.00x)
== 2x sweep
Err:
perf smoke: sweep_acts_per_sec 16000000 vs baseline 32000000 (0.50x) — regressed more than 20%
== 8 threads
Ok:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 20000000 (1.00x)
perf smoke: sweep_acts_per_sec skipped — parallel-scaling metric, but this run used 4 thread(s) vs the baseline's 8
perf smoke: security_batched_acts_per_sec 33000000 vs baseline 33000000 (1.00x)
perf smoke: adaptive_batched_acts_per_sec 15000000 vs baseline 15000000 (1.00x)
perf smoke: full_sweep_acts_per_sec skipped — parallel-scaling metric, but this run used 4 thread(s) vs the baseline's 8
perf smoke: fleet_acts_per_sec skipped — parallel-scaling metric, but this run used 4 thread(s) vs the baseline's 8
perf smoke: arena_acts_per_sec skipped — parallel-scaling metric, but this run used 4 thread(s) vs the baseline's 8
== 8 threads, 2x uniform
Err:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 40000000 (0.50x) — regressed more than 20%
== no threads field
Ok:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 20000000 (1.00x)
perf smoke: sweep_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
perf smoke: security_batched_acts_per_sec 33000000 vs baseline 33000000 (1.00x)
perf smoke: adaptive_batched_acts_per_sec 15000000 vs baseline 15000000 (1.00x)
perf smoke: full_sweep_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
perf smoke: fleet_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
perf smoke: arena_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
== pre-batching
Ok:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 20000000 (1.00x)
perf smoke: sweep_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
perf smoke: security_batched_acts_per_sec absent from baseline — skipped
perf smoke: adaptive_batched_acts_per_sec absent from baseline — skipped
perf smoke: full_sweep_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
perf smoke: fleet_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
perf smoke: arena_acts_per_sec skipped — parallel-scaling metric, but the baseline does not record its thread count
== uniform missing
Err:
baseline JSON has no numeric "uniform_mono_acts_per_sec" field
== full sweep not measured
Ok:
perf smoke: uniform_mono_acts_per_sec 20000000 vs baseline 20000000 (1.00x)
perf smoke: sweep_acts_per_sec 16000000 vs baseline 16000000 (1.00x)
perf smoke: security_batched_acts_per_sec 33000000 vs baseline 33000000 (1.00x)
perf smoke: adaptive_batched_acts_per_sec 15000000 vs baseline 15000000 (1.00x)
perf smoke: full_sweep_acts_per_sec not measured this run — skipped
perf smoke: fleet_acts_per_sec 24000000 vs baseline 24000000 (1.00x)
perf smoke: arena_acts_per_sec 18000000 vs baseline 18000000 (1.00x)
"#;

    #[test]
    fn json_and_summary_bytes_are_pinned() {
        let report = sample_report();
        assert_eq!(report.to_json(), SAMPLE_JSON);
        assert_eq!(report.summary(), SAMPLE_SUMMARY);
    }

    /// Renders a gate verdict as `Ok:` or `Err:`, then its lines.
    fn verdict(result: Result<String, String>) -> String {
        match result {
            Ok(lines) => format!("Ok:\n{lines}"),
            Err(lines) => format!("Err:\n{lines}"),
        }
    }

    #[test]
    fn gate_verdicts_are_pinned() {
        let report = sample_report();
        let json = report.to_json();
        let uniform_2x = json.replace("20000000", "40000000");
        let eight_threads = json
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
        let cases = [
            ("identical", &report, json.clone(), 0.20),
            ("2x uniform", &report, uniform_2x.clone(), 0.20),
            ("2x uniform, 60% tolerance", &report, uniform_2x, 0.60),
            (
                "2x sweep",
                &report,
                json.replace(
                    "\"sweep_acts_per_sec\": 16000000",
                    "\"sweep_acts_per_sec\": 32000000",
                ),
                0.20,
            ),
            ("8 threads", &report, eight_threads.clone(), 0.20),
            (
                "8 threads, 2x uniform",
                &report,
                eight_threads.replace(
                    "\"uniform_mono_acts_per_sec\": 20000000",
                    "\"uniform_mono_acts_per_sec\": 40000000",
                ),
                0.20,
            ),
            (
                "no threads field",
                &report,
                json.replace("\"threads\": 4", "\"thread_count\": 4"),
                0.20,
            ),
            (
                "pre-batching",
                &report,
                "{\n  \"uniform_mono_acts_per_sec\": 20000000\n}\n".to_string(),
                0.20,
            ),
            (
                "uniform missing",
                &report,
                "{\"sweep_acts_per_sec\": 1}".to_string(),
                0.20,
            ),
            (
                "full sweep not measured",
                &sample_report_with_full_sweep(0.0),
                json,
                0.20,
            ),
        ];
        let verdicts: String = cases
            .into_iter()
            .map(|(name, current, baseline, max_regression)| {
                let verdict = verdict(current.check_regression(&baseline, max_regression));
                format!("== {name}\n{verdict}\n")
            })
            .collect();
        assert_eq!(verdicts, GATE_VERDICTS);
    }
}
