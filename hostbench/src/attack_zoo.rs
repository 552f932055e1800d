//! `attack-zoo`: every registry engine variant (moat, panopticon,
//! abacus, comet, dsac, cnc-prac; two variants each) against hammer and
//! round-robin (`run_batched`) and Jailbreak, Ratchet and Feinting
//! (`run_semi_scripted`) — 60 `SecuritySim` cells through the harness.
//!
//! No generator and no perf sim: the "no change" control for generator
//! and perf-loop work, and the workload where engine cost shows. The
//! seed picks the aggressor rows (hammer, round-robin, Jailbreak decoys,
//! the Feinting pool's base row); pool sizes stay fixed so every seed
//! does the same amount of work.

use std::time::Instant;

use moat_attacks::{FeintingAttacker, JailbreakAttacker, RatchetAttacker};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{MitigationEngine, Nanos};
use moat_faults::{FaultInjector, FaultPlan};
use moat_sim::{
    hammer_attacker, round_robin_attacker, Attacker, SecurityConfig, SecurityReport, SecuritySim,
    SemiScriptedAttacker, SlotBudget,
};
use moat_trackers::registry::{self, EngineSpec, EngineVariant};
use moat_trackers::IdealSramTracker;

use crate::cells::{self, Rep, Threads};
use crate::check::{compare_fields, digest_fields, security_fields, Checks, Fnv};
use crate::metrics::Values;
use crate::spans::{self, Span, Tracer};
use crate::timed::{timer_cost, Timed};
use crate::{derive, Workload};

/// Virtual time every cell simulates.
const HORIZON: Nanos = Nanos::from_millis(32);

/// The attack battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    Hammer,
    RoundRobin,
    Jailbreak,
    Ratchet,
    Feinting,
}

const ATTACKS: [Attack; 5] = [
    Attack::Hammer,
    Attack::RoundRobin,
    Attack::Jailbreak,
    Attack::Ratchet,
    Attack::Feinting,
];

impl Attack {
    fn name(self) -> &'static str {
        match self {
            Attack::Hammer => "hammer",
            Attack::RoundRobin => "round-robin",
            Attack::Jailbreak => "jailbreak",
            Attack::Ratchet => "ratchet",
            Attack::Feinting => "feinting",
        }
    }

    /// Non-adaptive attacks run through the batched (scripted) loop.
    fn scripted(self) -> bool {
        matches!(self, Attack::Hammer | Attack::RoundRobin)
    }
}

/// One cell: an engine variant against one attack.
#[derive(Debug, Clone, Copy)]
struct Cell {
    spec: &'static EngineSpec,
    variant: &'static EngineVariant,
    attack: Attack,
}

/// The seed-derived aggressor rows.
#[derive(Debug, Clone, Copy)]
struct Rows {
    hammer: u32,
    round_robin: u32,
    jailbreak: u32,
    feinting: u32,
}

/// Rows in [16 384, 49 152): clear of the refresh pointer's early sweep
/// and of the bank's top edge for every pool shape used here.
fn row(seed: u64, salt: &str) -> u32 {
    16_384 + (derive(seed, salt) % 32_768) as u32
}

/// The workload.
#[derive(Debug)]
pub struct AttackZoo {
    seed: u64,
    rows: Rows,
    cells: Vec<Cell>,
}

impl AttackZoo {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut cells = Vec::new();
        for spec in registry::ENGINES {
            for variant in spec.variants {
                for attack in ATTACKS {
                    cells.push(Cell {
                        spec,
                        variant,
                        attack,
                    });
                }
            }
        }
        AttackZoo {
            seed,
            rows: Rows {
                hammer: row(seed, "hammer"),
                round_robin: row(seed, "round-robin"),
                jailbreak: row(seed, "jailbreak"),
                feinting: row(seed, "feinting"),
            },
            cells,
        }
    }

    /// The attacker of `attack`, as a per-step [`Attacker`] (the
    /// reference path).
    fn attacker(&self, attack: Attack) -> Box<dyn Attacker> {
        let r = self.rows;
        match attack {
            Attack::Hammer => Box::new(hammer_attacker(r.hammer)),
            Attack::RoundRobin => Box::new(round_robin_attacker(
                (0..16).map(|i| r.round_robin + 2 * i).collect(),
            )),
            Attack::Jailbreak => Box::new(JailbreakAttacker::new(r.jailbreak)),
            Attack::Ratchet => Box::new(RatchetAttacker::new(64, 256)),
            Attack::Feinting => Box::new(FeintingAttacker::new(64, r.feinting)),
        }
    }

    /// Runs `attack` on `sim` through the event-horizon loops, the
    /// scripted ones under `faults` (pass `None` for `NoFaults`).
    fn simulate<E: MitigationEngine>(
        &self,
        tr: &Tracer,
        sim: &mut SecuritySim<E>,
        attack: Attack,
        faults: Option<&mut FaultInjector>,
    ) -> SecurityReport {
        let r = self.rows;
        let rr = || round_robin_attacker((0..16).map(|i| r.round_robin + 2 * i).collect());
        match (attack, faults) {
            (Attack::Hammer, None) => tr.span("sim.security.batched", || {
                sim.run_batched(&mut hammer_attacker(r.hammer), HORIZON)
            }),
            (Attack::Hammer, Some(inj)) => {
                sim.run_batched_with_faults(&mut hammer_attacker(r.hammer), HORIZON, inj)
            }
            (Attack::RoundRobin, None) => tr.span("sim.security.batched", || {
                sim.run_batched(&mut rr(), HORIZON)
            }),
            (Attack::RoundRobin, Some(inj)) => sim.run_batched_with_faults(&mut rr(), HORIZON, inj),
            (Attack::Jailbreak, _) => tr.span("sim.security.semi", || {
                sim.run_semi_scripted(&mut JailbreakAttacker::new(r.jailbreak), HORIZON)
            }),
            (Attack::Ratchet, _) => tr.span("sim.security.semi", || {
                sim.run_semi_scripted(&mut RatchetAttacker::new(64, 256), HORIZON)
            }),
            (Attack::Feinting, _) => tr.span("sim.security.semi", || {
                sim.run_semi_scripted(&mut FeintingAttacker::new(64, r.feinting), HORIZON)
            }),
        }
    }

    fn run_cell(
        &self,
        tr: &Tracer,
        cell: Cell,
        faults: Option<&mut FaultInjector>,
    ) -> SecurityReport {
        let mut sim = SecuritySim::new(SecurityConfig::paper_default(), (cell.variant.build)());
        self.simulate(tr, &mut sim, cell.attack, faults)
    }

    /// `faults.armed_empty_overhead_pct`: the scripted cells with
    /// `NoFaults` and with an armed injector holding an empty plan,
    /// alternated; reports must be bit-identical.
    fn armed_empty_probe(&self, checks: &mut Checks) -> f64 {
        let off = Tracer::off();
        let scripted: Vec<Cell> = self
            .cells
            .iter()
            .copied()
            .filter(|c| c.attack.scripted())
            .collect();
        let plan = FaultPlan::none(derive(self.seed, "fault plan"));
        let rows = SecurityConfig::paper_default().dram.rows_per_bank;
        let (overhead, identical) = cells::paired_overhead(&scripted, |&cell, armed| {
            let mut injector = FaultInjector::new(plan, rows);
            self.run_cell(&off, cell, armed.then_some(&mut injector))
        });
        checks.expect(
            "armed empty FaultPlan is bit-identical to NoFaults (scripted cells)",
            identical,
            || "reports differ".to_string(),
        );
        overhead
    }

    /// The attacker of a semi-scripted cell, boxed for [`Timed`].
    fn semi_attacker(&self, attack: Attack) -> Box<dyn SemiScriptedAttacker> {
        let r = self.rows;
        match attack {
            Attack::Jailbreak => Box::new(JailbreakAttacker::new(r.jailbreak)),
            Attack::Ratchet => Box::new(RatchetAttacker::new(64, 256)),
            Attack::Feinting => Box::new(FeintingAttacker::new(64, r.feinting)),
            Attack::Hammer | Attack::RoundRobin => unreachable!("scripted attacks run batched"),
        }
    }

    /// `attacks.*`: every semi-scripted cell of `rep` once more, serially,
    /// with its attacker wrapped in [`Timed`] (the reports must not
    /// change). Returns (host seconds in `publish`, their share of those
    /// cells' host time in percent, the base), timer cost removed.
    fn attacker_probe(&self, rep: &Rep<SecurityReport>, checks: &mut Checks) -> (f64, f64, String) {
        let (mut wall, mut inside, mut calls) = (0.0, 0.0, 0u64);
        let mut identical = true;
        let semi = self
            .cells
            .iter()
            .zip(&rep.outs)
            .filter(|(c, _)| !c.attack.scripted());
        for (cell, want) in semi {
            let mut sim = SecuritySim::new(SecurityConfig::paper_default(), (cell.variant.build)());
            let mut attacker = Timed::new(self.semi_attacker(cell.attack));
            let start = Instant::now();
            let got = sim.run_semi_scripted(&mut attacker, HORIZON);
            wall += start.elapsed().as_secs_f64();
            inside += attacker.seconds();
            calls += attacker.calls();
            identical &= want.as_ref() == Some(&got);
        }
        checks.expect(
            "attacker timing wrapper leaves the semi-scripted reports bit-identical",
            identical,
            || "reports differ".to_string(),
        );
        let (cost_inside, cost_total) = timer_cost();
        let publish = inside - calls as f64 * cost_inside;
        let wall = wall - calls as f64 * cost_total;
        let base = format!(
            "{publish:.4} s in {calls} publish calls of {wall:.4} s of semi-scripted cells"
        );
        (publish, 100.0 * publish / wall, base)
    }
}

/// Host seconds each side of [`engine_share`] accumulates at least.
const SHARE_SECONDS: f64 = 0.3;

/// Runs one engine-bound cell plain and with the engine wrapped in
/// [`Timed`], alternating, until each side has run [`SHARE_SECONDS`],
/// and returns (engine share %, wrapper overhead %, the base the share
/// was measured on). The wrapper's own per-call cost
/// ([`timer_cost`]) is taken out of both the engine time and the
/// wrapped wall time.
fn engine_share<E, F>(
    label: &str,
    cfg: SecurityConfig,
    engine: impl Fn() -> E,
    duration: Nanos,
    attacker: F,
    checks: &mut Checks,
) -> (f64, f64, String)
where
    E: MitigationEngine,
    F: Fn() -> Box<dyn SemiScriptedAttacker>,
{
    let (mut plain, mut wrapped, mut inside, mut calls) = (0.0, 0.0, 0.0, 0u64);
    let mut runs = 0;
    let mut identical = true;
    while plain < SHARE_SECONDS || wrapped < SHARE_SECONDS {
        let mut sim = SecuritySim::new(cfg, engine());
        let start = Instant::now();
        let want = sim.run_semi_scripted(&mut *attacker(), duration);
        plain += start.elapsed().as_secs_f64();

        let mut sim = SecuritySim::new(cfg, Timed::new(engine()));
        let start = Instant::now();
        let got = sim.run_semi_scripted(&mut *attacker(), duration);
        wrapped += start.elapsed().as_secs_f64();
        inside += sim.unit().engine().seconds();
        calls += sim.unit().engine().calls();
        identical &= got == want;
        runs += 1;
    }
    checks.expect(
        format!("{label}: timing wrapper leaves the report bit-identical"),
        identical,
        || "reports differ".to_string(),
    );
    let (cost_inside, cost_total) = timer_cost();
    let engine_secs = inside - calls as f64 * cost_inside;
    let wall = wrapped - calls as f64 * cost_total;
    let base = format!(
        "{engine_secs:.4} s engine of {wall:.4} s over {runs} runs, {calls} engine calls \
         (timer cost {:.1} ns/call removed; plain runs {plain:.4} s)",
        cost_total * 1e9
    );
    (
        100.0 * engine_secs / wall,
        100.0 * (wrapped / plain - 1.0),
        base,
    )
}

impl Workload for AttackZoo {
    type Out = SecurityReport;

    /// The zoo has no inputs to build beyond the seed's rows; its set-up
    /// is one untimed warm-up repetition (allocator, page tables, lazy
    /// engine tables), so the timed repetitions start warm.
    fn setup(&mut self, tr: &Tracer) {
        self.run(tr, Threads::Harness);
    }

    fn run(&self, tr: &Tracer, threads: Threads) -> Rep<Self::Out> {
        cells::run(tr, self.cells.clone(), threads, |c: Cell| {
            let report = self.run_cell(tr, c, None);
            (report, report.total_acts)
        })
    }

    fn digest(out: &Self::Out, h: &mut Fnv) {
        digest_fields(h, &security_fields(out));
    }

    fn check(&self, rep: &Rep<Self::Out>, checks: &mut Checks) {
        let k = (derive(self.seed, "attack-zoo sample") % self.cells.len() as u64) as usize;
        let c = self.cells[k];
        let mut sim = SecuritySim::new(SecurityConfig::paper_default(), (c.variant.build)());
        let reference = sim.run(&mut *self.attacker(c.attack), HORIZON);
        let name = format!(
            "sampled cell {k} ({}-{} vs {}) = per-step SecuritySim::run",
            c.spec.name,
            c.variant.label,
            c.attack.name()
        );
        let verdict = match &rep.outs[k] {
            Some(report) => compare_fields(&security_fields(report), &security_fields(&reference)),
            None => Err("cell failed".to_string()),
        };
        checks.record(name, verdict);
    }

    fn describe(&self, rep: &Rep<Self::Out>) -> Vec<String> {
        let escaped = rep
            .outs
            .iter()
            .flatten()
            .map(|r| r.max_pressure)
            .max()
            .unwrap_or(0);
        vec![format!(
            "cells: {} engine variants x {} attacks, {} ms horizon; max escaped pressure {escaped}",
            self.cells.len() / ATTACKS.len(),
            ATTACKS.len(),
            HORIZON.as_u64() / 1_000_000
        )]
    }

    fn probe(&self, spans: &[Span], rep: &Rep<Self::Out>, out: &mut Values, checks: &mut Checks) {
        // Host time summed over each engine's cells in the traced pass.
        let mut per_engine = std::collections::BTreeMap::<&str, f64>::new();
        let timed_root = spans.iter().find(|s| s.layer == "root.timed");
        for s in spans
            .iter()
            .filter(|s| s.layer == "bench.cell" && s.cell != spans::NONE)
        {
            if timed_root.is_some_and(|r| s.start >= r.start && s.end <= r.end) {
                let cell = self.cells[s.cell as usize - 1];
                *per_engine.entry(cell.spec.name).or_insert(0.0) += (s.end - s.start) as f64 / 1e9;
            }
        }
        for (engine, metric) in [
            ("moat", "engine.moat_s"),
            ("panopticon", "engine.panopticon_s"),
            ("abacus", "engine.abacus_s"),
            ("comet", "engine.comet_s"),
            ("dsac", "engine.dsac_s"),
            ("cnc-prac", "engine.cnc-prac_s"),
        ] {
            out.set(metric, per_engine.get(engine).copied().unwrap_or(0.0));
        }
        let st = spans::self_times(spans);
        let batched = st.get("sim.security.batched").copied().unwrap_or(0.0);
        let semi = st.get("sim.security.semi").copied().unwrap_or(0.0);
        let acts: u64 = rep.outs.iter().flatten().map(|r| r.total_acts).sum();
        out.set("security.batched_s", batched);
        out.set("security.semi_s", semi);
        out.set(
            "security.host_ns_per_act",
            1e9 * (batched + semi) / acts as f64,
        );

        let (publish, share, base) = self.attacker_probe(rep, checks);
        out.set("attacks.publish_s", publish);
        out.set("attacks.share_pct", share);
        println!("attacker self-models: {share:.1}% of semi-scripted host time; base: {base}");

        let armed = self.armed_empty_probe(checks);
        out.set("faults.armed_empty_overhead_pct", armed);
        println!("armed-but-empty FaultInjector vs NoFaults on the scripted cells: {armed:+.2}% host time");

        // ROADMAP's question: are the Feinting and Ratchet cells
        // host-engine-bound? The same cells BENCH_perf.json profiles in
        // simulated ns: Feinting (k = 3, 64 periods, ALERTs off) on the
        // ideal SRAM tracker, Ratchet (pool 256, 8 ms) on MOAT-L1.
        let (k, periods) = (3u32, 64u64);
        let mut feint_cfg = SecurityConfig::paper_default();
        feint_cfg.alerts_enabled = false;
        feint_cfg.budget = SlotBudget::per_aggressor(5, k);
        let (feint, feint_over, feint_base) = engine_share(
            "feinting",
            feint_cfg,
            || IdealSramTracker::new(65_536),
            Nanos::new(periods * u64::from(k) * 3_900 + 1_000_000),
            || Box::new(FeintingAttacker::new(periods as usize, 40_000)),
            checks,
        );
        let (ratchet, ratchet_over, ratchet_base) = engine_share(
            "ratchet",
            SecurityConfig::paper_default(),
            || MoatEngine::new(MoatConfig::paper_default()),
            Nanos::from_millis(8),
            || Box::new(RatchetAttacker::new(64, 256)),
            checks,
        );
        out.set("engine.share_feinting", feint);
        out.set("engine.share_ratchet", ratchet);
        out.set(
            "engine.wrapper_overhead_pct",
            (feint_over + ratchet_over) / 2.0,
        );
        let verdict = |share: f64| {
            if share >= 50.0 {
                "host-engine-bound"
            } else {
                "NOT host-engine-bound"
            }
        };
        println!(
            "engine.share_feinting (Ideal-SRAM): {feint:.1}% of host time -> {}; base: {feint_base}; wrapper overhead {feint_over:+.1}%",
            verdict(feint)
        );
        println!(
            "engine.share_ratchet (MOAT-L1): {ratchet:.1}% of host time -> {}; base: {ratchet_base}; wrapper overhead {ratchet_over:+.1}%",
            verdict(ratchet)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_sixty_cells_over_six_engines() {
        let w = AttackZoo::new(3);
        assert_eq!(w.cells.len(), 60);
        let engines: std::collections::BTreeSet<_> = w.cells.iter().map(|c| c.spec.name).collect();
        assert_eq!(engines.len(), 6);
    }

    #[test]
    fn seed_picks_rows_deterministically() {
        let (a, b, c) = (AttackZoo::new(1), AttackZoo::new(1), AttackZoo::new(2));
        assert_eq!(a.rows.hammer, b.rows.hammer);
        assert_ne!(
            (
                a.rows.hammer,
                a.rows.round_robin,
                a.rows.jailbreak,
                a.rows.feinting
            ),
            (
                c.rows.hammer,
                c.rows.round_robin,
                c.rows.jailbreak,
                c.rows.feinting
            )
        );
    }

    #[test]
    fn same_seed_same_digest_and_a_corrupted_cell_fails_the_check() {
        let w = AttackZoo::new(5);
        let moat_hammer = |w: &AttackZoo| {
            let cells: Vec<Cell> = w
                .cells
                .iter()
                .copied()
                .filter(|c| c.spec.name == "moat" && c.attack.scripted())
                .collect();
            cells::run(&Tracer::off(), cells, Threads::Harness, |c: Cell| {
                let mut sim =
                    SecuritySim::new(SecurityConfig::paper_default(), (c.variant.build)());
                let r = w.simulate(&Tracer::off(), &mut sim, c.attack, None);
                (r, r.total_acts)
            })
        };
        let a = moat_hammer(&w);
        let b = moat_hammer(&AttackZoo::new(5));
        let c = moat_hammer(&AttackZoo::new(6));
        let fold = <AttackZoo as Workload>::digest;
        assert_eq!(a.digest(fold), b.digest(fold));
        assert_ne!(
            a.digest(fold),
            c.digest(fold),
            "different rows, different outputs"
        );

        let mut corrupt = a;
        corrupt.outs[0].as_mut().unwrap().alerts += 1;
        assert_ne!(corrupt.digest(fold), b.digest(fold));
        let want = b.outs[0].unwrap();
        let got = corrupt.outs[0].unwrap();
        assert!(compare_fields(&security_fields(&got), &security_fields(&want)).is_err());
    }
}
