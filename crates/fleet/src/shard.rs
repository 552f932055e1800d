//! One shard's serving run: tenant multiplexing onto a per-shard
//! `PerfSim`/`SecuritySim` pair.
//!
//! A shard is one rank's bank set. Its tenants are the fleet-wide tenant
//! ids striped across shards (`tenant % shards == shard.index`); each
//! tenant is a [`WorkloadStream`] drawn from the paper's profile table,
//! seeded per-tenant so the fleet's traffic is reproducible down to the
//! request. The shard multiplexes its tenants round-robin in small
//! bursts — the memory-controller view of many users sharing a rank —
//! and runs the merged stream through a perf sim (ALERTs on vs. off for
//! slowdown) and a security sim with the shard's derived engine-level
//! fault plan.
//!
//! `run_shard` is a *pure function* of (config, shard index, fault):
//! no clocks, no global state. That is what lets the supervisor retry
//! it, run it on any worker thread, or replay it from a checkpoint and
//! still merge bit-identical fleet reports.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{BankId, MitigationEngine};
use moat_faults::FaultInjector;
use moat_guard::EngineGuard;
use moat_sim::{
    hammer_attacker, Hooks, PerfConfig, PerfSim, Request, RequestStream, SecurityConfig,
    SecuritySim,
};
use moat_trackers::registry;
use moat_workloads::{GeneratorConfig, WorkloadStream, PROFILES};

use crate::faults::{shard_seed, ShardFault};
use crate::supervisor::FleetConfig;
use crate::topology::ShardId;

/// Requests taken from one tenant per multiplexer turn — small enough
/// that tenants genuinely interleave within a tREFI, large enough to
/// mimic a scheduler's burst locality.
const MUX_BURST: usize = 32;

/// What one shard measured. Everything here is deterministic simulation
/// output — no wall-clock times — so reports can be diffed bit-for-bit
/// across runs, thread counts, and checkpoint replays.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The shard's flat fleet index.
    pub shard_index: u32,
    /// Tenants assigned to this shard (including poisoned ones).
    pub tenants: u32,
    /// Global ids of tenant streams that panicked during
    /// materialization and were dropped from the mux.
    pub poisoned: Vec<u32>,
    /// Requests executed by the perf sim.
    pub perf_acts: u64,
    /// ALERTs asserted during the perf run.
    pub alerts: u64,
    /// ALERTs per tREFI (the Fig. 11b metric, per shard).
    pub alerts_per_trefi: f64,
    /// Slowdown of the ALERT-enabled run vs. the ALERT-free baseline.
    pub slowdown: f64,
    /// Attacker activations executed by the security sim.
    pub security_acts: u64,
    /// ALERTs asserted during the security run.
    pub security_alerts: u64,
    /// Highest hammer pressure observed on the shard's victim rows.
    pub max_pressure: u32,
    /// Mitigation horizons the injected engine faults proved unsound.
    pub unsound_horizons: u64,
    /// Activations that escaped mitigation due to injected faults.
    pub escaped_acts: u64,
    /// Tracker-state corruptions the integrity guard detected (0 when
    /// no recovery policy is armed).
    pub integrity_detected: u64,
    /// Corruptions the guard restored exactly from its shadow.
    pub integrity_repaired: u64,
    /// Conservative fallback mitigations issued for untrusted rows.
    pub fallback_mitigations: u64,
    /// Scrub passes resyncing the tracker against in-array counters.
    pub scrubs: u64,
    /// Whether the fault plan marked this shard slow (recorded from the
    /// *plan decision*, not measured time, to keep reports deterministic).
    pub slow_injected: bool,
}

impl ShardReport {
    /// Serializes to a single-line `key=value` record for the
    /// checkpoint store. Floats are stored as `f64::to_bits` hex so a
    /// replayed shard merges bit-identically with a live one.
    pub fn to_record(&self) -> String {
        let poisoned = self
            .poisoned
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join("+");
        format!(
            "shard={} tenants={} poisoned={} perf_acts={} alerts={} \
             alerts_per_trefi={:016x} slowdown={:016x} security_acts={} \
             security_alerts={} max_pressure={} unsound={} escaped={} \
             idet={} irep={} ifb={} iscr={} slow={}",
            self.shard_index,
            self.tenants,
            poisoned,
            self.perf_acts,
            self.alerts,
            self.alerts_per_trefi.to_bits(),
            self.slowdown.to_bits(),
            self.security_acts,
            self.security_alerts,
            self.max_pressure,
            self.unsound_horizons,
            self.escaped_acts,
            self.integrity_detected,
            self.integrity_repaired,
            self.fallback_mitigations,
            self.scrubs,
            self.slow_injected,
        )
    }

    /// Parses a [`to_record`](Self::to_record) line. `None` on any
    /// mismatch — the caller falls back to re-running the shard live.
    pub fn parse(record: &str) -> Option<ShardReport> {
        let mut fields = std::collections::HashMap::new();
        for token in record.split_whitespace() {
            let (k, v) = token.split_once('=')?;
            fields.insert(k, v);
        }
        let int = |k: &str| fields.get(k)?.parse::<u64>().ok();
        let narrow = |k: &str| u32::try_from(int(k)?).ok();
        let bits = |k: &str| {
            u64::from_str_radix(fields.get(k)?, 16)
                .map(f64::from_bits)
                .ok()
        };
        let poisoned = match *fields.get("poisoned")? {
            "" => Vec::new(),
            list => list
                .split('+')
                .map(|t| t.parse::<u32>().ok())
                .collect::<Option<Vec<u32>>>()?,
        };
        Some(ShardReport {
            shard_index: narrow("shard")?,
            tenants: narrow("tenants")?,
            poisoned,
            perf_acts: int("perf_acts")?,
            alerts: int("alerts")?,
            alerts_per_trefi: bits("alerts_per_trefi")?,
            slowdown: bits("slowdown")?,
            security_acts: int("security_acts")?,
            security_alerts: int("security_alerts")?,
            max_pressure: narrow("max_pressure")?,
            unsound_horizons: int("unsound")?,
            escaped_acts: int("escaped")?,
            integrity_detected: int("idet")?,
            integrity_repaired: int("irep")?,
            fallback_mitigations: int("ifb")?,
            scrubs: int("iscr")?,
            slow_injected: fields.get("slow")?.parse::<bool>().ok()?,
        })
    }
}

/// The global tenant ids striped onto `shard` (`id % shards == index`).
pub fn shard_tenants(config: &FleetConfig, shard: ShardId) -> Vec<u32> {
    let shards = config.topology.shards();
    (shard.index..config.tenants)
        .step_by(shards as usize)
        .collect()
}

/// Deterministic per-tenant stream seed.
fn tenant_seed(fleet_seed: u64, tenant: u32) -> u64 {
    shard_seed(fleet_seed ^ 0x007E_4A47, tenant)
}

/// Materializes tenant `tenant`'s request quota by re-planning `stream`
/// for it. Panics if the fleet fault plan poisoned this stream — the
/// caller catches it per-tenant.
fn materialize_tenant(
    config: &FleetConfig,
    tenant: u32,
    poisoned: bool,
    stream: &mut WorkloadStream,
) -> Vec<Request> {
    assert!(
        !poisoned,
        "poisoned tenant stream {tenant}: generator state corrupt"
    );
    let seed = tenant_seed(config.seed, tenant);
    let profile = &PROFILES[(seed % PROFILES.len() as u64) as usize];
    let dram = SecurityConfig::paper_default().dram;
    stream.replan(
        profile,
        &dram,
        GeneratorConfig {
            banks: config.topology.banks_per_rank,
            windows: 1,
            seed,
        },
    );
    let quota = config.acts_per_tenant as usize;
    let mut out = Vec::with_capacity(quota);
    let mut chunk = Vec::with_capacity(quota.clamp(64, 1024));
    while out.len() < quota {
        if stream.next_chunk(&mut chunk) == 0 {
            break;
        }
        let take = chunk.len().min(quota - out.len());
        out.extend_from_slice(&chunk[..take]);
    }
    out
}

/// Round-robin multiplex of per-tenant request vectors in
/// [`MUX_BURST`]-sized turns, remapping banks by tenant position so
/// co-located tenants spread across the rank's banks.
fn multiplex(tenant_requests: &[Vec<Request>], banks: u16) -> Vec<Request> {
    let total: usize = tenant_requests.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut cursors = vec![0usize; tenant_requests.len()];
    let mut remaining = total;
    while remaining > 0 {
        for (pos, (reqs, cursor)) in tenant_requests.iter().zip(cursors.iter_mut()).enumerate() {
            let burst = MUX_BURST.min(reqs.len() - *cursor);
            for r in &reqs[*cursor..*cursor + burst] {
                merged.push(Request {
                    gap: r.gap,
                    bank: BankId::new((r.bank.index() + pos as u16) % banks),
                    row: r.row,
                });
            }
            *cursor += burst;
            remaining -= burst;
        }
    }
    merged
}

/// Materializes every tenant's quota through one re-planned stream,
/// catching a poisoned tenant (the one at position `poison_local`) so the
/// shard serves the rest. Returns the survivors' requests in tenant order
/// and the poisoned tenant ids.
fn materialize_tenants(
    config: &FleetConfig,
    tenants: &[u32],
    poison_local: Option<usize>,
) -> (Vec<Vec<Request>>, Vec<u32>) {
    let mut stream = WorkloadStream::default();
    let mut poisoned = Vec::new();
    let mut tenant_requests = Vec::with_capacity(tenants.len());
    for (pos, &tenant) in tenants.iter().enumerate() {
        let is_poisoned = poison_local == Some(pos);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            materialize_tenant(config, tenant, is_poisoned, &mut stream)
        })) {
            Ok(requests) => tenant_requests.push(requests),
            Err(_) => poisoned.push(tenant),
        }
    }
    (tenant_requests, poisoned)
}

/// Runs one shard to completion and returns its report.
///
/// Panics (deliberately) when the fault plan crashes this attempt; the
/// supervisor's `catch_unwind` turns that into a retry. A poisoned
/// tenant, by contrast, is caught *here* at tenant granularity: the
/// tenant is dropped, recorded in [`ShardReport::poisoned`], and the
/// shard completes degraded — a bad user stream must not take out the
/// rank serving its neighbours.
pub fn run_shard(
    config: &FleetConfig,
    shard: ShardId,
    fault: &ShardFault,
    attempt: u32,
) -> ShardReport {
    assert!(
        fault.crash_attempts < attempt,
        "injected shard worker crash ({shard}, attempt {attempt})"
    );

    let tenants = shard_tenants(config, shard);
    let poison_local = fault
        .poison_draw
        .filter(|_| !tenants.is_empty())
        .map(|draw| (draw % tenants.len() as u64) as usize);

    let (tenant_requests, poisoned) = materialize_tenants(config, &tenants, poison_local);

    let banks = config.topology.banks_per_rank;
    let merged = multiplex(&tenant_requests, banks);

    // Engine dispatch: the default `"moat"` mix stays on the concrete
    // monomorphized path (the per-ACT hooks inline into the sim loops);
    // every other registry name runs the boxed dynamic-dispatch form.
    // Both forms produce bit-identical reports for the same engine.
    match config.engine_of(shard.index) {
        "moat" => measure_shard(config, shard, fault, &tenants, poisoned, &merged, || {
            MoatEngine::new(MoatConfig::paper_default())
        }),
        name => {
            let spec = registry::spec(name).unwrap_or_else(|| {
                panic!("unknown fleet engine {name:?} (validate names eagerly)")
            });
            measure_shard(config, shard, fault, &tenants, poisoned, &merged, || {
                spec.build()
            })
        }
    }
}

/// The measurement half of [`run_shard`], generic over the mitigation
/// engine: the multiplexed perf pair (ALERTs on vs. off) and the
/// security run under the shard's derived fault plan.
fn measure_shard<E, F>(
    config: &FleetConfig,
    shard: ShardId,
    fault: &ShardFault,
    tenants: &[u32],
    poisoned: Vec<u32>,
    merged: &[Request],
    engine: F,
) -> ShardReport
where
    E: MitigationEngine,
    F: Fn() -> E,
{
    let banks = config.topology.banks_per_rank;
    // Perf: the same multiplexed stream with ALERTs honoured and
    // ignored; the ratio is the shard's tenant-visible slowdown.
    let (perf, slowdown) = if merged.is_empty() {
        (None, 0.0)
    } else {
        let run = |alerts: bool| {
            let cfg = PerfConfig::paper_default().banks(banks).alerts(alerts);
            let mut sim = PerfSim::new(cfg, &engine);
            sim.run(merged.iter().copied())
        };
        let enabled = run(true);
        let baseline = run(false);
        let slowdown = enabled.slowdown_vs(&baseline);
        (Some(enabled), slowdown)
    };

    // Security: a hammer adversary on this rank under the shard's
    // derived engine-level fault plan, with the counter-integrity guard
    // armed when the config carries a recovery policy.
    let mut injector = FaultInjector::new(
        config.faults.engine_plan(shard.index),
        SecurityConfig::paper_default().dram.rows_per_bank,
    );
    let mut security_sim = SecuritySim::new(SecurityConfig::paper_default(), engine());
    let mut attacker = hammer_attacker(5 + shard.index % 32);
    let hooks = Hooks::default().faults(&mut injector);
    let (security, recovery) = match config.recovery {
        None => (
            security_sim.run_semi_scripted_with(&mut attacker, config.security_window, hooks),
            None,
        ),
        Some(plan) => {
            let mut guard = EngineGuard::new(plan);
            guard.arm(security_sim.unit_mut());
            let report = security_sim.run_semi_scripted_with(
                &mut attacker,
                config.security_window,
                hooks.guard(&mut guard),
            );
            (report, Some(guard.stats()))
        }
    };
    let fault_stats = injector.stats();

    ShardReport {
        shard_index: shard.index,
        tenants: tenants.len() as u32,
        poisoned,
        perf_acts: perf.as_ref().map_or(0, |p| p.total_acts),
        alerts: perf.as_ref().map_or(0, |p| p.alerts),
        alerts_per_trefi: perf.as_ref().map_or(0.0, |p| p.alerts_per_trefi),
        slowdown,
        security_acts: security.total_acts,
        security_alerts: security.alerts,
        max_pressure: security.max_pressure,
        unsound_horizons: fault_stats.unsound_horizons,
        escaped_acts: fault_stats.escaped_acts,
        integrity_detected: recovery.map_or(0, |r| r.detected),
        integrity_repaired: recovery.map_or(0, |r| r.repaired),
        fallback_mitigations: recovery.map_or(0, |r| r.fallback_mitigations),
        scrubs: recovery.map_or(0, |r| r.scrubs),
        slow_injected: fault.slow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::FleetConfig;
    use crate::topology::FleetTopology;

    fn tiny_config() -> FleetConfig {
        FleetConfig::new(FleetTopology::with_shards(4), 16, 64, 0xF1EE7)
    }

    #[test]
    fn tenants_stripe_across_shards_without_overlap() {
        let config = tiny_config();
        let mut seen = Vec::new();
        for shard in config.topology.iter() {
            seen.extend(shard_tenants(&config, shard));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn run_shard_is_deterministic() {
        let config = tiny_config();
        let shard = config.topology.shard(1);
        let a = run_shard(&config, shard, &ShardFault::none(), 1);
        let b = run_shard(&config, shard, &ShardFault::none(), 1);
        assert_eq!(a, b);
        assert!(a.perf_acts > 0, "tenants must generate traffic");
        assert!(a.security_acts > 0);
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let config = tiny_config();
        let shard = config.topology.shard(2);
        let report = run_shard(&config, shard, &ShardFault::none(), 1);
        let parsed = ShardReport::parse(&report.to_record()).expect("record parses");
        assert_eq!(parsed, report);

        let mut with_poison = report.clone();
        with_poison.poisoned = vec![2, 6];
        let parsed = ShardReport::parse(&with_poison.to_record()).unwrap();
        assert_eq!(parsed, with_poison);

        assert_eq!(ShardReport::parse("gibberish"), None);
        assert_eq!(
            ShardReport::parse("shard=1 tenants=2"),
            None,
            "missing fields"
        );
    }

    #[test]
    fn record_rejects_fields_wider_than_u32() {
        let config = tiny_config();
        let record =
            run_shard(&config, config.topology.shard(0), &ShardFault::none(), 1).to_record();
        assert!(ShardReport::parse(&record).is_some());
        // 2^32 would truncate to 0: a corrupt `shard=` would replay as
        // shard 0's result instead of falling back to a live run.
        for key in ["shard", "tenants", "max_pressure"] {
            let corrupt: Vec<String> = record
                .split(' ')
                .map(|token| match token.split_once('=') {
                    Some((k, _)) if k == key => format!("{k}=4294967296"),
                    _ => token.to_string(),
                })
                .collect();
            let corrupt = corrupt.join(" ");
            assert_ne!(corrupt, record, "{key} is in the record");
            assert_eq!(ShardReport::parse(&corrupt), None, "{key}=2^32");
        }
    }

    #[test]
    fn crash_fault_panics_until_attempt_exceeds_depth() {
        let config = tiny_config();
        let shard = config.topology.shard(0);
        let fault = ShardFault {
            crash_attempts: 2,
            ..ShardFault::none()
        };
        for attempt in [1, 2] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_shard(&config, shard, &fault, attempt)
            }));
            assert!(result.is_err(), "attempt {attempt} must crash");
        }
        let ok = run_shard(&config, shard, &fault, 3);
        assert_eq!(ok, run_shard(&config, shard, &ShardFault::none(), 1));
    }

    #[test]
    fn recovery_policy_closes_unsound_horizons_in_shard() {
        use crate::faults::FleetFaultPlan;
        use moat_faults::FaultPlan;
        use moat_guard::RecoveryPlan;

        let mut config = tiny_config();
        config.faults = FleetFaultPlan {
            base: FaultPlan::seu(0xF1EE7, 1e-2),
            ..FleetFaultPlan::none(0xF1EE7)
        };
        let shard = config.topology.shard(1);
        let unguarded = run_shard(&config, shard, &ShardFault::none(), 1);
        assert_eq!(unguarded.integrity_detected, 0, "no guard, no telemetry");

        let guarded_config = config.with_recovery(RecoveryPlan::full());
        let guarded = run_shard(&guarded_config, shard, &ShardFault::none(), 1);
        assert!(
            guarded.integrity_detected > 0,
            "SEU at 1e-2 must corrupt tracker state the guard sees"
        );
        assert_eq!(
            guarded.unsound_horizons, 0,
            "the full recovery policy closes every horizon"
        );
        assert_eq!(guarded.escaped_acts, 0);
        assert!(guarded.unsound_horizons <= unguarded.unsound_horizons);

        // The extended record (integrity fields included) round-trips.
        let parsed = ShardReport::parse(&guarded.to_record()).expect("record parses");
        assert_eq!(parsed, guarded);
        // Legacy records without the integrity keys are rejected, which
        // makes the supervisor fall back to a live re-run.
        let legacy = guarded
            .to_record()
            .split_whitespace()
            .filter(|t| !t.starts_with("idet") && !t.starts_with("irep"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(ShardReport::parse(&legacy), None);
    }

    #[test]
    fn heterogeneous_engine_mix_stripes_and_stays_deterministic() {
        let config = tiny_config().with_engines(&["moat", "panopticon", "comet"]);
        assert_eq!(config.engine_of(0), "moat");
        assert_eq!(config.engine_of(1), "panopticon");
        assert_eq!(config.engine_of(2), "comet");
        assert_eq!(config.engine_of(3), "moat");

        // A registry-dispatched (boxed) shard is as deterministic as the
        // monomorphized MOAT path.
        let shard = config.topology.shard(2);
        let a = run_shard(&config, shard, &ShardFault::none(), 1);
        let b = run_shard(&config, shard, &ShardFault::none(), 1);
        assert_eq!(a, b);
        assert!(a.perf_acts > 0);
        assert!(a.security_acts > 0);
    }

    #[test]
    fn reused_stream_materializes_what_fresh_streams_do() {
        let config = tiny_config();
        let tenants = shard_tenants(&config, config.topology.shard(1));
        assert!(tenants.len() >= 3);
        // The third tenant re-plans the stream the first one left behind.
        let (reused, poisoned) = materialize_tenants(&config, &tenants, Some(1));
        assert_eq!(poisoned, [tenants[1]]);
        let fresh: Vec<Vec<Request>> = tenants
            .iter()
            .filter(|t| !poisoned.contains(t))
            .map(|&t| materialize_tenant(&config, t, false, &mut WorkloadStream::default()))
            .collect();
        assert!(
            reused == fresh,
            "re-planning one stream changed a tenant's requests"
        );
    }

    #[test]
    fn poisoned_tenant_is_dropped_not_fatal() {
        let config = tiny_config();
        let shard = config.topology.shard(3);
        let clean = run_shard(&config, shard, &ShardFault::none(), 1);
        let fault = ShardFault {
            poison_draw: Some(1),
            ..ShardFault::none()
        };
        let degraded = run_shard(&config, shard, &fault, 1);
        assert_eq!(degraded.poisoned.len(), 1);
        assert!(
            degraded.perf_acts < clean.perf_acts,
            "dropped tenant's traffic is gone"
        );
        assert_eq!(degraded.tenants, clean.tenants, "assignment unchanged");
    }
}
