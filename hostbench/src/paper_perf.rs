//! `paper-perf`: the scaled PerfLab sweeps of `repro all` — Fig. 11 (ATH
//! 64/128), Table 5 (ETH 0/16/32/48 @ ATH 64) and Table 7 (ATH 32/64/128
//! × L1/L2/L4) — 315 `PerfSim<MoatEngine>` cells over the 21 profiles.
//!
//! Set-up materializes every profile's stream (`WorkloadStream::new` +
//! `next_chunk`) and computes its ALERT-free baseline; the timed part is
//! the sweep through the harness.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, DramConfig, MitigationEngine, Nanos, NullEngine};
use moat_sim::{
    PerfConfig, PerfReport, PerfSim, Request, RequestStream, SlotBudget, DEFAULT_CHUNK,
};
use moat_workloads::{GeneratorConfig, WorkloadStream, PROFILES};

use crate::cells::{self, Rep, Threads};
use crate::check::{compare_fields, digest_fields, perf_fields, Checks, Fnv};
use crate::metrics::Values;
use crate::spans::{self, Span, Tracer};
use crate::{derive, Workload};

/// Banks per simulated sub-channel (the scaled configuration).
const BANKS: u16 = 2;
/// Refresh windows of virtual time per stream.
const WINDOWS: u32 = 1;

/// One sweep cell: a profile under one MOAT configuration.
#[derive(Debug, Clone, Copy)]
struct Cell {
    profile: usize,
    moat: MoatConfig,
}

/// One row the paper reports an average slowdown for.
#[derive(Debug)]
struct Row {
    label: String,
    cells: Vec<usize>,
    paper_pct: f64,
}

/// A materialized profile stream and its ALERT-free completion time.
#[derive(Debug)]
struct Stream {
    requests: Vec<Request>,
    baseline: Nanos,
}

/// The workload.
#[derive(Debug)]
pub struct PaperPerf {
    seed: u64,
    dram: DramConfig,
    cells: Vec<Cell>,
    rows: Vec<Row>,
    streams: Vec<Stream>,
}

fn perf_config(dram: DramConfig, level: AboLevel, alerts: bool) -> PerfConfig {
    PerfConfig {
        dram,
        banks: BANKS,
        abo_level: level,
        budget: SlotBudget::paper_default(),
        alerts_enabled: alerts,
    }
}

/// Drains a stream into one flat vector, chunk by chunk.
pub fn drain(stream: &mut impl RequestStream) -> Vec<Request> {
    let mut out = Vec::new();
    let mut chunk = Vec::with_capacity(DEFAULT_CHUNK);
    while stream.next_chunk(&mut chunk) > 0 {
        out.extend_from_slice(&chunk);
    }
    out
}

impl PaperPerf {
    /// The workload for `seed` (which seeds every profile's generator).
    pub fn new(seed: u64) -> Self {
        let n = PROFILES.len();
        let mut cells = Vec::new();
        // Fig. 11 interleaves ATH 64 / 128 per profile (as `repro fig11`);
        // only the ATH-64 average has a paper slowdown (0.28%).
        for profile in 0..n {
            for ath in [64, 128] {
                cells.push(Cell {
                    profile,
                    moat: MoatConfig::with_ath(ath),
                });
            }
        }
        let mut rows = vec![Row {
            label: "Fig. 11 ATH 64".to_string(),
            cells: (0..n).map(|p| 2 * p).collect(),
            paper_pct: 0.28,
        }];
        // Tables 5 and 7: one row of all profiles per configuration.
        let mut push_row = |label: String, paper_pct: f64, moat: MoatConfig| {
            let first = cells.len();
            cells.extend((0..n).map(|profile| Cell { profile, moat }));
            rows.push(Row {
                label,
                cells: (first..first + n).collect(),
                paper_pct,
            });
        };
        for (eth, paper) in [(0, 0.21), (16, 0.21), (32, 0.28), (48, 0.69)] {
            push_row(
                format!("Table 5 ETH {eth}"),
                paper,
                MoatConfig::with_ath(64).eth(eth),
            );
        }
        let table7 = [
            (32, 1, 3.90),
            (32, 2, 5.60),
            (32, 4, 9.50),
            (64, 1, 0.28),
            (64, 2, 0.34),
            (64, 4, 0.45),
            (128, 1, 0.0),
            (128, 2, 0.0),
            (128, 4, 0.0),
        ];
        for (ath, level, paper) in table7 {
            let abo = AboLevel::from_u8(level).expect("legal ABO level");
            push_row(
                format!("Table 7 ATH {ath} L{level}"),
                paper,
                MoatConfig::with_ath(ath).level(abo),
            );
        }
        PaperPerf {
            seed,
            dram: DramConfig::paper_baseline(),
            cells,
            rows,
            streams: Vec::new(),
        }
    }

    fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            banks: BANKS,
            windows: WINDOWS,
            seed: derive(self.seed, "paper-perf generator"),
        }
    }

    /// Mean |simulated − paper| average slowdown over the paper's rows,
    /// in percentage points, plus the per-row averages.
    fn slowdown_error(&self, rep: &Rep<(PerfReport, f64)>) -> (f64, Vec<(String, f64, f64)>) {
        let rows: Vec<(String, f64, f64)> = self
            .rows
            .iter()
            .map(|row| {
                let sum: f64 = row
                    .cells
                    .iter()
                    .map(|&i| rep.outs[i].as_ref().map_or(f64::NAN, |o| o.1))
                    .sum();
                (
                    row.label.clone(),
                    100.0 * sum / row.cells.len() as f64,
                    row.paper_pct,
                )
            })
            .collect();
        let err = rows
            .iter()
            .map(|(_, sim, paper)| (sim - paper).abs())
            .sum::<f64>()
            / rows.len() as f64;
        (err, rows)
    }

    /// Host seconds summed over every cell's run of `engine` with ALERTs
    /// off (the identical issue timeline), through the harness.
    fn ablation<E: MitigationEngine>(&self, engine: impl Fn(MoatConfig) -> E + Sync) -> f64 {
        let rep = cells::run(
            &Tracer::off(),
            self.cells.clone(),
            Threads::Harness,
            |c: Cell| {
                let cfg = perf_config(self.dram, c.moat.level, false);
                let r = PerfSim::new(cfg, || engine(c.moat))
                    .run(self.streams[c.profile].requests.iter().copied());
                (r.total_acts, r.total_acts)
            },
        );
        rep.cell_secs.iter().sum()
    }
}

impl Workload for PaperPerf {
    type Out = (PerfReport, f64);

    fn setup(&mut self, tr: &Tracer) {
        self.streams.clear();
        let (dram, gen) = (self.dram, self.generator());
        let rep = cells::run(
            tr,
            (0..PROFILES.len()).collect(),
            Threads::Harness,
            |i: usize| {
                let profile = &PROFILES[i];
                let mut stream = tr.span("workloads.plan", || {
                    WorkloadStream::new(profile, &dram, gen)
                });
                let requests = tr.span("workloads.emit", || drain(&mut stream));
                let baseline = tr.span("sim.perf.baseline", || {
                    let cfg = perf_config(dram, AboLevel::L1, false);
                    PerfSim::new(cfg, || MoatEngine::new(MoatConfig::paper_default()))
                        .run(requests.iter().copied())
                        .completion_time
                });
                let n = requests.len() as u64;
                (Stream { requests, baseline }, n)
            },
        );
        self.streams = rep
            .outs
            .into_iter()
            .map(|s| s.expect("materializing a profile stream"))
            .collect();
    }

    fn run(&self, tr: &Tracer, threads: Threads) -> Rep<Self::Out> {
        cells::run(tr, self.cells.clone(), threads, |c: Cell| {
            let stream = &self.streams[c.profile];
            let report = tr.span("sim.perf", || {
                let cfg = perf_config(self.dram, c.moat.level, true);
                PerfSim::new(cfg, || MoatEngine::new(c.moat)).run(stream.requests.iter().copied())
            });
            let slowdown =
                (report.completion_time.as_u64() as f64 / stream.baseline.as_u64() as f64 - 1.0)
                    .max(0.0);
            ((report, slowdown), report.total_acts)
        })
    }

    fn digest(out: &Self::Out, h: &mut Fnv) {
        digest_fields(h, &perf_fields(&out.0));
        h.u64(out.1.to_bits());
    }

    fn check(&self, rep: &Rep<Self::Out>, checks: &mut Checks) {
        let k = (derive(self.seed, "paper-perf sample") % self.cells.len() as u64) as usize;
        let c = self.cells[k];
        let stream = &self.streams[c.profile];
        let reference = PerfSim::new(perf_config(self.dram, c.moat.level, true), || {
            MoatEngine::new(c.moat)
        })
        .run_per_request(stream.requests.iter().copied());
        let name = format!(
            "sampled cell {k} ({} ATH {} ETH {} L{}) = PerfSim::run_per_request",
            PROFILES[c.profile].name,
            c.moat.ath,
            c.moat.eth,
            c.moat.level.as_u8()
        );
        let verdict = match &rep.outs[k] {
            Some((report, _)) => compare_fields(&perf_fields(report), &perf_fields(&reference)),
            None => Err("cell failed".to_string()),
        };
        checks.record(name, verdict);
    }

    fn describe(&self, rep: &Rep<Self::Out>) -> Vec<String> {
        let (err, rows) = self.slowdown_error(rep);
        let mut lines = vec![format!(
            "slowdown_err_pp: {err:.4} (mean |simulated - paper| average slowdown over {} rows)",
            rows.len()
        )];
        for (label, sim, paper) in rows {
            lines.push(format!(
                "  {label:<18} simulated {sim:.3}% paper {paper:.2}%"
            ));
        }
        lines
    }

    fn probe(&self, spans: &[Span], rep: &Rep<Self::Out>, out: &mut Values, _checks: &mut Checks) {
        let st = spans::self_times(spans);
        let get = |l: &str| st.get(l).copied().unwrap_or(0.0);
        let requests: usize = self.streams.iter().map(|s| s.requests.len()).sum();
        out.set("workloads.plan_s", get("workloads.plan"));
        out.set("workloads.emit_s", get("workloads.emit"));
        out.set(
            "workloads.emit_reqs_per_s",
            requests as f64 / get("workloads.emit"),
        );
        out.set("perf.baseline_s", get("sim.perf.baseline"));

        let null = self.ablation(|_| NullEngine);
        let moat_off = self.ablation(MoatEngine::new);
        let acts: u64 = rep.outs.iter().flatten().map(|o| o.0.total_acts).sum();
        out.set("perf.loop_s", null);
        out.set("perf.host_ns_per_act", 1e9 * null / acts as f64);
        out.set("engine.moat_perf_s", moat_off - null);
        out.set(
            "perf.alerts",
            rep.outs.iter().flatten().map(|o| o.0.alerts).sum::<u64>() as f64,
        );
        out.set("fidelity.slowdown_err_pp", self.slowdown_error(rep).0);
        println!(
            "ablation (ALERTs off, same cells): PerfSim<NullEngine> {null:.4} s, PerfSim<MoatEngine> {moat_off:.4} s \
             -> engine update {:.4} s of {moat_off:.4} s ({:.1}%)",
            moat_off - null,
            100.0 * (moat_off - null) / moat_off
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_the_papers_315_cells_and_14_rows() {
        let w = PaperPerf::new(1);
        assert_eq!(w.cells.len(), 315);
        assert_eq!(w.rows.len(), 14);
        assert!(w.rows.iter().all(|r| r.cells.len() == PROFILES.len()));
    }

    #[test]
    fn seed_plumbing_reaches_the_generator() {
        let (a, b) = (PaperPerf::new(1), PaperPerf::new(2));
        assert_eq!(a.generator().seed, PaperPerf::new(1).generator().seed);
        assert_ne!(a.generator().seed, b.generator().seed);
        // Different seeds generate different request streams.
        let dram = DramConfig::paper_baseline();
        let first = |w: &PaperPerf| {
            let mut s = WorkloadStream::new(&PROFILES[0], &dram, w.generator());
            (0..64).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(first(&a), first(&PaperPerf::new(1)));
        assert_ne!(first(&a), first(&b));
    }
}
