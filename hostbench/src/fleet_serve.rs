//! `fleet-serve`: `FleetSupervisor::run_with` on a clean fleet — 16
//! shards × 16 tenants per shard × 512 ACTs per tenant (the CLI's
//! per-shard tenant count and quota) on the harness's worker threads.
//!
//! Fleet host time is almost all per-tenant `WorkloadStream::new`
//! planning, so generator planning work shows here far more than in
//! `paper-perf`. The traced run breaks a shard down by calling
//! `moat_fleet::run_shard` and, on the same tenant inputs, the generator
//! and simulator functions a shard is built from (tenant
//! materialization, multiplex, perf pair, security) — without touching
//! the fleet crate.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::BankId;
use moat_faults::FaultInjector;
use moat_fleet::faults::shard_seed;
use moat_fleet::{
    run_shard, FleetConfig, FleetReport, FleetSupervisor, FleetTopology, ShardFault, ShardId,
    ShardReport,
};
use moat_sim::{
    hammer_attacker, PerfConfig, PerfReport, PerfSim, Request, RequestStream, SecurityConfig,
    SecurityReport, SecuritySim,
};
use moat_workloads::{GeneratorConfig, WorkloadStream, PROFILES};

use crate::cells::{self, Rep, Threads};
use crate::check::{Checks, Fnv};
use crate::metrics::Values;
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile};
use crate::{derive, idle_pct, Workload};

/// Shards in the fleet.
const SHARDS: u32 = 16;
/// Tenants per shard (the `repro fleet` default: 1024 over 64 shards).
const TENANTS_PER_SHARD: u32 = 16;
/// Request quota per tenant (the `repro fleet` default).
const ACTS_PER_TENANT: u32 = 512;
/// Requests taken from one tenant per multiplexer turn (as the shard).
const MUX_BURST: usize = 32;

/// The workload.
#[derive(Debug)]
pub struct FleetServe {
    config: FleetConfig,
}

/// What a shard's building blocks produce, for comparison with
/// [`ShardReport`].
#[derive(Debug, PartialEq)]
struct Parts {
    perf: PerfReport,
    slowdown: f64,
    security: SecurityReport,
    unsound: u64,
    escaped: u64,
}

impl FleetServe {
    /// The workload for `seed` (the fleet seed: tenant profiles, tenant
    /// streams and fault draws all derive from it).
    pub fn new(seed: u64) -> Self {
        FleetServe {
            config: FleetConfig::new(
                FleetTopology::with_shards(SHARDS),
                SHARDS * TENANTS_PER_SHARD,
                ACTS_PER_TENANT,
                derive(seed, "fleet seed"),
            ),
        }
    }

    fn shards(&self) -> Vec<ShardId> {
        self.config.topology.iter().collect()
    }

    /// One tenant's request quota: its profile and stream seed derive
    /// from the fleet seed exactly as the shard derives them.
    fn materialize_tenant(&self, tr: &Tracer, tenant: u32) -> Vec<Request> {
        let seed = shard_seed(self.config.seed ^ 0x007E_4A47, tenant);
        let profile = &PROFILES[(seed % PROFILES.len() as u64) as usize];
        let dram = SecurityConfig::paper_default().dram;
        let generator = GeneratorConfig {
            banks: self.config.topology.banks_per_rank,
            windows: 1,
            seed,
        };
        let mut stream = tr.span("workloads.plan", || {
            WorkloadStream::new(profile, &dram, generator)
        });
        tr.span("workloads.emit", || {
            let quota = self.config.acts_per_tenant as usize;
            let mut out = Vec::with_capacity(quota);
            let mut chunk = Vec::with_capacity(quota.clamp(64, 1024));
            while out.len() < quota && stream.next_chunk(&mut chunk) > 0 {
                let take = chunk.len().min(quota - out.len());
                out.extend_from_slice(&chunk[..take]);
            }
            out
        })
    }

    /// A shard built from its parts: tenant materialization, the
    /// round-robin multiplex, the perf pair (ALERTs on and off) and the
    /// hammer security run under the shard's empty engine fault plan.
    /// `reference` swaps in the per-request perf loop and the per-step
    /// security loop.
    fn shard_parts(&self, tr: &Tracer, shard: ShardId, reference: bool) -> Parts {
        let config = &self.config;
        let tenants: Vec<u32> = (shard.index..config.tenants)
            .step_by(SHARDS as usize)
            .collect();
        let requests: Vec<Vec<Request>> = tr.span("fleet.tenant_materialize", || {
            tenants
                .iter()
                .map(|&t| self.materialize_tenant(tr, t))
                .collect()
        });
        let banks = config.topology.banks_per_rank;
        let merged = tr.span("fleet.multiplex", || multiplex(&requests, banks));
        let moat = || MoatEngine::new(MoatConfig::paper_default());
        let (perf, slowdown) = tr.span("fleet.perf_pair", || {
            let run = |alerts: bool| {
                let mut sim = PerfSim::new(
                    PerfConfig::paper_default().banks(banks).alerts(alerts),
                    moat,
                );
                tr.span("sim.perf", || {
                    if reference {
                        sim.run_per_request(merged.iter().copied())
                    } else {
                        sim.run(merged.iter().copied())
                    }
                })
            };
            let enabled = run(true);
            let baseline = run(false);
            (enabled, enabled.slowdown_vs(&baseline))
        });
        let (security, stats) = tr.span("fleet.security", || {
            let mut injector = FaultInjector::new(
                config.faults.engine_plan(shard.index),
                SecurityConfig::paper_default().dram.rows_per_bank,
            );
            let mut sim = SecuritySim::new(SecurityConfig::paper_default(), moat());
            let mut attacker = hammer_attacker(5 + shard.index % 32);
            let report = tr.span("sim.security.batched", || {
                if reference {
                    sim.run_with_faults(&mut attacker, config.security_window, &mut injector)
                } else {
                    sim.run_batched_with_faults(
                        &mut attacker,
                        config.security_window,
                        &mut injector,
                    )
                }
            });
            (report, injector.stats())
        });
        Parts {
            perf,
            slowdown,
            security,
            unsound: stats.unsound_horizons,
            escaped: stats.escaped_acts,
        }
    }
}

/// Round-robin multiplex in [`MUX_BURST`] turns, remapping banks by
/// tenant position — the shard's memory-controller view of its tenants.
fn multiplex(tenant_requests: &[Vec<Request>], banks: u16) -> Vec<Request> {
    let total: usize = tenant_requests.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut cursors = vec![0usize; tenant_requests.len()];
    while merged.len() < total {
        for (pos, (reqs, cursor)) in tenant_requests.iter().zip(cursors.iter_mut()).enumerate() {
            let burst = MUX_BURST.min(reqs.len() - *cursor);
            merged.extend(reqs[*cursor..*cursor + burst].iter().map(|r| Request {
                gap: r.gap,
                bank: BankId::new((r.bank.index() + pos as u16) % banks),
                row: r.row,
            }));
            *cursor += burst;
        }
    }
    merged
}

/// `Ok` when the parts reproduce the shard's report.
fn compare(parts: &Parts, report: &ShardReport) -> Result<(), String> {
    let pairs = [
        ("perf_acts", parts.perf.total_acts, report.perf_acts),
        ("alerts", parts.perf.alerts, report.alerts),
        (
            "alerts_per_trefi",
            parts.perf.alerts_per_trefi.to_bits(),
            report.alerts_per_trefi.to_bits(),
        ),
        (
            "slowdown",
            parts.slowdown.to_bits(),
            report.slowdown.to_bits(),
        ),
        (
            "security_acts",
            parts.security.total_acts,
            report.security_acts,
        ),
        (
            "security_alerts",
            parts.security.alerts,
            report.security_alerts,
        ),
        (
            "max_pressure",
            u64::from(parts.security.max_pressure),
            u64::from(report.max_pressure),
        ),
        ("unsound_horizons", parts.unsound, report.unsound_horizons),
        ("escaped_acts", parts.escaped, report.escaped_acts),
    ];
    let diffs: Vec<String> = pairs
        .iter()
        .filter(|p| p.1 != p.2)
        .map(|(name, got, want)| format!("{name}: {got} vs run_shard {want}"))
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join(", "))
    }
}

impl Workload for FleetServe {
    type Out = FleetReport;

    /// A fleet run has no inputs to build before `run_with` (tenant
    /// streams are materialized inside each shard); its set-up is one
    /// untimed warm-up fleet run, so timed repetitions start warm.
    fn setup(&mut self, tr: &Tracer) {
        self.run(tr, Threads::Harness);
    }

    fn run(&self, tr: &Tracer, threads: Threads) -> Rep<Self::Out> {
        let workers = match threads {
            Threads::Harness => rayon::current_num_threads(),
            Threads::Serial => 1,
        };
        let order: Vec<u32> = (0..SHARDS).collect();
        let (report, stats) = tr.span("fleet.run_with", || {
            FleetSupervisor::new(self.config).run_with(&order, workers, None)
        });
        // The whole fleet run is one cell; quarantined or retried shards
        // fail the first-attempt check instead.
        Rep {
            outs: vec![Some(report)],
            cell_secs: vec![stats.wall_seconds],
            wall: stats.wall_seconds,
            acts: stats.simulated_acts,
            threads: workers,
        }
    }

    fn digest(out: &Self::Out, h: &mut Fnv) {
        h.bytes(out.render().as_bytes());
    }

    fn check(&self, rep: &Rep<Self::Out>, checks: &mut Checks) {
        checks.expect(
            "every shard completes on its first attempt",
            rep.outs.iter().flatten().all(|r| r.completed == SHARDS),
            || "quarantined or retried shards".to_string(),
        );
        let k = (derive(self.config.seed, "fleet-serve sample") % u64::from(SHARDS)) as u32;
        let shard = self.config.topology.shard(k);
        let reference = self.shard_parts(&Tracer::off(), shard, true);
        let report = run_shard(&self.config, shard, &ShardFault::none(), 1);
        checks.record(
            format!("sampled shard {k}: run_shard = per-request PerfSim + per-step SecuritySim"),
            compare(&reference, &report),
        );
    }

    fn describe(&self, rep: &Rep<Self::Out>) -> Vec<String> {
        rep.outs
            .iter()
            .flatten()
            .map(|r| {
                format!(
                    "fleet: {} shards x {} tenants x {} ACTs: {} perf ACTs, {} ALERTs, slowdown p50 {:.4}%",
                    r.shards,
                    TENANTS_PER_SHARD,
                    ACTS_PER_TENANT,
                    r.perf_acts,
                    r.alerts,
                    100.0 * r.slowdown.0
                )
            })
            .collect()
    }

    fn probe(&self, _spans: &[Span], rep: &Rep<Self::Out>, out: &mut Values, checks: &mut Checks) {
        let off = Tracer::off();
        // Whole shards, through the harness: per-shard host times.
        let shards = cells::run(&off, self.shards(), Threads::Harness, |s: ShardId| {
            let report = run_shard(&self.config, s, &ShardFault::none(), 1);
            let acts = report.perf_acts + report.security_acts;
            (report, acts)
        });
        let shard_ms: Vec<f64> = shards.cell_secs.iter().map(|s| s * 1e3).collect();
        out.set("fleet.shard_p50_ms", median(&shard_ms));
        out.set(
            "fleet.shard_max_ms",
            percentile(&shard_ms, 100.0).unwrap_or(0.0),
        );
        out.set("sweep.cell_p50_ms", median(&shard_ms));
        out.set(
            "sweep.cell_p95_ms",
            percentile(&shard_ms, 95.0).unwrap_or(0.0),
        );
        out.set("sweep.idle_pct", idle_pct(&shards));

        // The same shards from their parts, traced.
        let tr = Tracer::on();
        let parts = cells::run(&tr, self.shards(), Threads::Harness, |s: ShardId| {
            (self.shard_parts(&tr, s, false), 0)
        });
        let mismatches: Vec<String> = parts
            .outs
            .iter()
            .zip(&shards.outs)
            .enumerate()
            .filter_map(|(i, pair)| match pair {
                (Some(p), Some(r)) => compare(p, r).err().map(|e| format!("shard {i}: {e}")),
                _ => Some(format!("shard {i} failed")),
            })
            .collect();
        checks.expect(
            "shard parts reproduce run_shard on every shard",
            mismatches.is_empty(),
            || mismatches.join("; "),
        );
        let st = spans::self_times(&tr.spans());
        let get = |l: &str| st.get(l).copied().unwrap_or(0.0);
        let plan = get("workloads.plan");
        let materialize = plan + get("workloads.emit") + get("fleet.tenant_materialize");
        let perf_pair = get("sim.perf") + get("fleet.perf_pair");
        let security = get("sim.security.batched") + get("fleet.security");
        let shard_total: f64 = shards.cell_secs.iter().sum();
        // Worker time of the timed `run_with` not spent in the three
        // named parts: multiplex, supervision, merge and idle workers.
        let residual = rep.threads as f64 * rep.wall - materialize - perf_pair - security;
        out.set("workloads.plan_s", plan);
        out.set("workloads.emit_s", get("workloads.emit"));
        let requests = f64::from(self.config.tenants) * f64::from(ACTS_PER_TENANT);
        out.set(
            "workloads.emit_reqs_per_s",
            requests / get("workloads.emit"),
        );
        out.set("fleet.tenant_materialize_s", materialize);
        out.set("fleet.perf_pair_s", perf_pair);
        out.set("fleet.security_s", security);
        out.set("fleet.residual_s", residual);
        println!(
            "shards: {} run_shard calls, {:.4} s total; parts: materialize {materialize:.4} s \
             (planning {plan:.4} s), multiplex {:.4} s, perf pair {perf_pair:.4} s, security {security:.4} s",
            shards.outs.len(),
            shard_total,
            get("fleet.multiplex")
        );

        let armed = self.armed_empty_probe(checks);
        out.set("faults.armed_empty_overhead_pct", armed);
        println!("armed-but-empty FaultInjector vs NoFaults on the shards' security runs: {armed:+.2}% host time");
    }
}

impl FleetServe {
    /// Host-time overhead of the armed-but-empty injector every clean
    /// shard passes to its security run, against `NoFaults`, alternated
    /// over three rounds of every shard.
    fn armed_empty_probe(&self, checks: &mut Checks) -> f64 {
        let rows = SecurityConfig::paper_default().dram.rows_per_bank;
        let window = self.config.security_window;
        let (overhead, identical) = cells::paired_overhead(&self.shards(), |shard, armed| {
            let mut sim = SecuritySim::new(
                SecurityConfig::paper_default(),
                MoatEngine::new(MoatConfig::paper_default()),
            );
            let mut attacker = hammer_attacker(5 + shard.index % 32);
            if armed {
                let plan = self.config.faults.engine_plan(shard.index);
                sim.run_batched_with_faults(
                    &mut attacker,
                    window,
                    &mut FaultInjector::new(plan, rows),
                )
            } else {
                sim.run_batched(&mut attacker, window)
            }
        });
        checks.expect(
            "armed empty FaultPlan is bit-identical to NoFaults (shard security runs)",
            identical,
            || "reports differ".to_string(),
        );
        overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_reproduce_run_shard_and_the_seed_reaches_the_tenants() {
        let mut w = FleetServe::new(9);
        // A smaller fleet keeps the debug-build test quick.
        w.config.tenants = SHARDS * 2;
        w.config.acts_per_tenant = 64;
        let shard = w.config.topology.shard(3);
        let report = run_shard(&w.config, shard, &ShardFault::none(), 1);
        assert_eq!(
            compare(&w.shard_parts(&Tracer::off(), shard, false), &report),
            Ok(())
        );
        assert_eq!(
            compare(&w.shard_parts(&Tracer::off(), shard, true), &report),
            Ok(())
        );

        let tenant = |seed| FleetServe::new(seed).materialize_tenant(&Tracer::off(), 3);
        assert_eq!(tenant(9), tenant(9));
        assert_ne!(tenant(9), tenant(10));
    }
}
