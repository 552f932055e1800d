//! `full-sweep`: paper scale (32 banks × 2 tREFW) — cactuBSSN, cam4 and
//! blender × ATH 64/128 — replayed from the mmap-backed trace cache.
//!
//! Every set-up starts from a fresh trace-cache directory: it records
//! each stream with `TraceCache::open_or_record` (the trace **write**
//! path), re-opens it with a full checksum pass, and computes the
//! ALERT-free baseline; the timed cells replay the mapped traces (the
//! **read** path). The only workload that uses `moat-trace`, and the
//! only one beyond the in-memory stream budget.

use std::path::PathBuf;
use std::time::Instant;

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, DramConfig, MitigationEngine, Nanos, NullEngine};
use moat_sim::{PerfConfig, PerfReport, PerfSim, RequestStream, SlotBudget, DEFAULT_CHUNK};
use moat_trace::{TraceCache, TraceFile, TraceKey};
use moat_workloads::{trace_key, GeneratorConfig, WorkloadProfile, WorkloadStream};

use crate::cells::{self, Rep, Threads};
use crate::check::{compare_fields, digest_fields, perf_fields, Checks, Fnv};
use crate::metrics::Values;
use crate::paper_perf::drain;
use crate::spans::{self, Span, Tracer};
use crate::{derive, Workload};

/// Paper scale: banks per sub-channel and refresh windows per stream.
const BANKS: u16 = 32;
const WINDOWS: u32 = 2;
/// The profiles swept.
const PROFILES: [&str; 3] = ["cactuBSSN", "cam4", "blender"];
/// The ATH values swept (ETH = ATH/2).
const ATHS: [u32; 2] = [64, 128];

/// Where the trace caches live, relative to the working directory (the
/// repository root); removed when the workload is dropped.
const WORK_DIR: &str = ".hostbench-work";

/// A recorded, verified trace and its ALERT-free completion time.
#[derive(Debug)]
struct Loaded {
    trace: TraceFile,
    baseline: Nanos,
}

/// The workload.
#[derive(Debug)]
pub struct FullSweep {
    seed: u64,
    dram: DramConfig,
    profiles: Vec<&'static WorkloadProfile>,
    /// This process's directory under [`WORK_DIR`].
    root: PathBuf,
    loaded: Vec<Loaded>,
}

fn perf_config(dram: DramConfig, alerts: bool) -> PerfConfig {
    PerfConfig {
        dram,
        banks: BANKS,
        abo_level: AboLevel::L1,
        budget: SlotBudget::paper_default(),
        alerts_enabled: alerts,
    }
}

impl FullSweep {
    /// The workload for `seed` (which seeds the generator).
    ///
    /// # Errors
    ///
    /// Fails when the work directory cannot be created.
    pub fn new(seed: u64) -> std::io::Result<Self> {
        let root = PathBuf::from(WORK_DIR).join(format!("full-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(FullSweep {
            seed,
            dram: DramConfig::paper_baseline(),
            profiles: PROFILES
                .iter()
                .map(|n| WorkloadProfile::by_name(n).expect("profile exists"))
                .collect(),
            root,
            loaded: Vec::new(),
        })
    }

    fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            banks: BANKS,
            windows: WINDOWS,
            seed: derive(self.seed, "full-sweep generator"),
        }
    }

    /// (profile index, ATH) per cell.
    fn cells(&self) -> Vec<(usize, u32)> {
        (0..self.profiles.len())
            .flat_map(|p| ATHS.map(|ath| (p, ath)))
            .collect()
    }

    /// Host seconds summed over every cell's replay through `engine`
    /// with ALERTs off (the identical issue timeline).
    fn ablation<E: MitigationEngine>(&self, engine: impl Fn(u32) -> E + Sync) -> f64 {
        let rep = cells::run(
            &Tracer::off(),
            self.cells(),
            Threads::Harness,
            |(p, ath)| {
                let r = PerfSim::new(perf_config(self.dram, false), || engine(ath))
                    .run(self.loaded[p].trace.replay());
                (r.total_acts, r.total_acts)
            },
        );
        rep.cell_secs.iter().sum()
    }
}

impl FullSweep {
    /// The trace write path alone: every recorded stream re-recorded from
    /// its own replay into a throwaway cache, minus the time the same
    /// replays take to decode. Recording a live stream instead would bury
    /// the write cost under generation time and its noise.
    fn write_probe(&self) -> f64 {
        let dir = self.root.join("write-probe");
        let cache = TraceCache::open(&dir).expect("creating the write-probe cache");
        let mut secs = 0.0;
        for (i, l) in self.loaded.iter().enumerate() {
            let key = TraceKey::new(format!("write-probe-{i}"), l.trace.fingerprint());
            let start = Instant::now();
            cache
                .record(&key, l.trace.replay())
                .expect("re-recording a trace");
            secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let mut replay = l.trace.replay();
            let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
            while replay.next_chunk(&mut chunk) > 0 {}
            secs -= start.elapsed().as_secs_f64();
        }
        let _ = std::fs::remove_dir_all(&dir);
        secs
    }
}

impl Drop for FullSweep {
    fn drop(&mut self) {
        self.loaded.clear();
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (fails harmlessly while
        // another run's directory is still there).
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

impl Workload for FullSweep {
    type Out = (PerfReport, f64);

    fn setup(&mut self, tr: &Tracer) {
        // Unmap and delete the previous set-up's traces first.
        self.loaded.clear();
        let _ = std::fs::remove_dir_all(&self.root);
        let cache = TraceCache::open(self.root.join("cache"))
            .expect("creating a fresh trace-cache directory");
        let (dram, gen) = (self.dram, self.generator());
        let rep = cells::run(
            tr,
            self.profiles.clone(),
            Threads::Harness,
            |profile: &WorkloadProfile| {
                let key = trace_key(profile, &dram, gen);
                let recorded = tr.span("trace.record", || {
                    cache.open_or_record(&key, || WorkloadStream::new(profile, &dram, gen))
                });
                let path = recorded.expect("recording a trace").path().to_path_buf();
                let trace = tr
                    .span("trace.open_verify", || TraceFile::open_strict(&path))
                    .expect("verifying a freshly recorded trace");
                let baseline = tr.span("sim.perf.baseline", || {
                    PerfSim::new(perf_config(dram, false), || {
                        MoatEngine::new(MoatConfig::paper_default())
                    })
                    .run(trace.replay())
                    .completion_time
                });
                let n = trace.len();
                (Loaded { trace, baseline }, n)
            },
        );
        self.loaded = rep
            .outs
            .into_iter()
            .map(|l| l.expect("set-up of a profile"))
            .collect();
    }

    fn run(&self, tr: &Tracer, threads: Threads) -> Rep<Self::Out> {
        cells::run(tr, self.cells(), threads, |(p, ath): (usize, u32)| {
            let loaded = &self.loaded[p];
            let report = tr.span("sim.perf", || {
                PerfSim::new(perf_config(self.dram, true), || {
                    MoatEngine::new(MoatConfig::with_ath(ath))
                })
                .run(loaded.trace.replay())
            });
            let slowdown =
                (report.completion_time.as_u64() as f64 / loaded.baseline.as_u64() as f64 - 1.0)
                    .max(0.0);
            ((report, slowdown), report.total_acts)
        })
    }

    fn digest(out: &Self::Out, h: &mut Fnv) {
        digest_fields(h, &perf_fields(&out.0));
        h.u64(out.1.to_bits());
    }

    fn check(&self, rep: &Rep<Self::Out>, checks: &mut Checks) {
        let cells = self.cells();
        let k = (derive(self.seed, "full-sweep sample") % cells.len() as u64) as usize;
        let (p, ath) = cells[k];
        let profile = self.profiles[p];
        // Live generation through the per-request loop: checks the replay
        // and the batched loop in one comparison.
        let live = WorkloadStream::new(profile, &self.dram, self.generator());
        let reference = PerfSim::new(perf_config(self.dram, true), || {
            MoatEngine::new(MoatConfig::with_ath(ath))
        })
        .run_per_request(live);
        let verdict = match &rep.outs[k] {
            Some((report, _)) => compare_fields(&perf_fields(report), &perf_fields(&reference)),
            None => Err("cell failed".to_string()),
        };
        checks.record(
            format!(
                "sampled cell {k} ({} ATH {ath}): mmap replay = live generation through PerfSim::run_per_request",
                profile.name
            ),
            verdict,
        );
    }

    fn describe(&self, rep: &Rep<Self::Out>) -> Vec<String> {
        self.cells()
            .iter()
            .zip(&rep.outs)
            .map(|(&(p, ath), out)| match out {
                Some((r, slowdown)) => format!(
                    "  {:<10} ATH {ath:>3}: {} ACTs, {} ALERTs, slowdown {:.4}%",
                    self.profiles[p].name,
                    r.total_acts,
                    r.alerts,
                    100.0 * slowdown
                ),
                None => format!("  {:<10} ATH {ath:>3}: FAILED", self.profiles[p].name),
            })
            .collect()
    }

    fn probe(&self, spans: &[Span], rep: &Rep<Self::Out>, out: &mut Values, _checks: &mut Checks) {
        let st = spans::self_times(spans);
        let get = |l: &str| st.get(l).copied().unwrap_or(0.0);

        // Generation alone, for the same streams: record minus this is the
        // trace write path's own cost.
        let tr = Tracer::on();
        let (dram, gen) = (self.dram, self.generator());
        let generated = cells::run(
            &tr,
            self.profiles.clone(),
            Threads::Harness,
            |profile: &WorkloadProfile| {
                let mut stream = tr.span("workloads.plan", || {
                    WorkloadStream::new(profile, &dram, gen)
                });
                let n = tr.span("workloads.emit", || drain(&mut stream).len() as u64);
                (n, n)
            },
        );
        let gen_st = spans::self_times(&tr.spans());
        let plan = gen_st.get("workloads.plan").copied().unwrap_or(0.0);
        let emit = gen_st.get("workloads.emit").copied().unwrap_or(0.0);
        out.set("workloads.plan_s", plan);
        out.set("workloads.emit_s", emit);
        out.set("workloads.emit_reqs_per_s", generated.acts as f64 / emit);
        let write = self.write_probe();
        out.set("trace.write_s", write);
        out.set("trace.open_verify_s", get("trace.open_verify"));
        let bytes: u64 = self
            .loaded
            .iter()
            .filter_map(|l| std::fs::metadata(l.trace.path()).ok())
            .map(|m| m.len())
            .sum();
        out.set("trace.bytes", bytes as f64);

        // Raw decode: drain every replay with no simulator.
        let start = Instant::now();
        let mut decoded = 0u64;
        let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
        for l in &self.loaded {
            let mut replay = l.trace.replay();
            while replay.next_chunk(&mut chunk) > 0 {
                decoded += chunk.len() as u64;
            }
        }
        let decode_rate = decoded as f64 / start.elapsed().as_secs_f64();
        out.set("trace.decode_reqs_per_s", decode_rate);

        out.set("perf.baseline_s", get("sim.perf.baseline"));
        let null = self.ablation(|_| NullEngine);
        let moat_off = self.ablation(|ath| MoatEngine::new(MoatConfig::with_ath(ath)));
        let acts: u64 = rep.outs.iter().flatten().map(|o| o.0.total_acts).sum();
        out.set("perf.loop_s", null);
        out.set("perf.host_ns_per_act", 1e9 * null / acts as f64);
        out.set("engine.moat_perf_s", moat_off - null);
        out.set(
            "perf.alerts",
            rep.outs.iter().flatten().map(|o| o.0.alerts).sum::<u64>() as f64,
        );
        println!(
            "trace: {bytes} bytes recorded; record {:.4} s (generation alone {:.4} s); write path {write:.4} s; \
             verify {:.4} s; decode {:.0} M req/s",
            get("trace.record"),
            plan + emit,
            get("trace.open_verify"),
            decode_rate / 1e6
        );
        println!(
            "ablation (ALERTs off, same cells): PerfSim<NullEngine> {null:.4} s, PerfSim<MoatEngine> {moat_off:.4} s"
        );
    }
}
