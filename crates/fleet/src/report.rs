//! The merged fleet report and its structured incident log.
//!
//! Merging is the determinism choke point: outcomes arrive from worker
//! threads in arbitrary completion order, so [`FleetReport::merge`]
//! consumes them **sorted by shard index** and derives every field —
//! aggregates, percentiles, incidents — by that single canonical order.
//! [`FleetReport::render`] is the diffable artifact: it contains
//! simulation results only, never wall-clock measurements, so two runs
//! of the same seed diff clean byte-for-byte regardless of machine
//! load. Wall-clock throughput lives in the separate [`FleetStats`],
//! which the CLI prints to stderr.
//!
//! Incident taxonomy (one line per incident, shard-ordered):
//!
//! | kind                | meaning                                             |
//! |---------------------|-----------------------------------------------------|
//! | `slow-shard`        | shard completed but over its latency budget         |
//! | `retry-recovered`   | shard failed, then a retry attempt succeeded        |
//! | `quarantined-crash` | every attempt panicked; coverage lost               |
//! | `quarantined-stall` | watchdog deadline fired on the final attempt        |
//! | `poisoned-tenant`   | a tenant stream panicked and was dropped from the mux |
//! | `blast-radius`      | shard's max pressure breached the blast threshold   |
//! | `scrub-resync`      | guard detected tracker corruption and recovered it (no horizon broke) |
//! | `integrity-degraded`| corruption broke mitigation horizons despite the armed guard |

use std::fmt;
use std::fmt::Write as _;

use moat_telemetry::MetricsRegistry;

use crate::supervisor::{FleetConfig, QuarantineReason, ShardOutcome, ShardState};

/// One structured incident in the fleet's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Taxonomy kind (see module docs).
    pub kind: &'static str,
    /// Shard index the incident is attributed to.
    pub shard_index: u32,
    /// Shard coordinates, pre-rendered (`ch03.d1.r0`).
    pub shard: String,
    /// Deterministic human-readable detail.
    pub detail: String,
}

impl Incident {
    /// Builds the integrity incident for a shard (or sweep cell) whose
    /// guard saw corruption: `scrub-resync` when every mitigation
    /// horizon held, `integrity-degraded` when some broke anyway. This
    /// is the single source of both the taxonomy decision and the
    /// detail strings — [`FleetReport::merge`] and the recovery sweep
    /// both call it, so the two surfaces can never drift.
    pub fn integrity(
        shard_index: u32,
        shard: String,
        detected: u64,
        repaired: u64,
        fallback_mitigations: u64,
        scrubs: u64,
        unsound_horizons: u64,
    ) -> Incident {
        if unsound_horizons == 0 {
            Incident {
                kind: "scrub-resync",
                shard_index,
                shard,
                detail: format!(
                    "{detected} corruptions recovered ({repaired} repaired, \
                     {fallback_mitigations} fallback mitigations, {scrubs} scrubs)",
                ),
            }
        } else {
            Incident {
                kind: "integrity-degraded",
                shard_index,
                shard,
                detail: format!(
                    "{unsound_horizons} unsound horizons despite {detected} detections"
                ),
            }
        }
    }

    /// Renders the incident with a caller-chosen noun for the indexed
    /// unit — `"shard"` in fleet reports, `"cell"` in sweep tables.
    /// [`Display`](fmt::Display) is the `"shard"` spelling.
    pub fn render_as(&self, noun: &str) -> String {
        format!(
            "[{}] {} {} ({}): {}",
            self.kind, noun, self.shard_index, self.shard, self.detail
        )
    }
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_as("shard"))
    }
}

/// The merged, deterministic result of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Shards in the topology.
    pub shards: u32,
    /// Fleet-wide tenants configured.
    pub tenants: u32,
    /// Master seed.
    pub seed: u64,
    /// Topology summary, pre-rendered (`16ch x 2d x 2r x 8 banks`).
    pub topology: String,
    /// The engine mix striped across shards, pre-rendered
    /// (`moat` or `moat+panopticon+comet`).
    pub engines: String,
    /// Shards whose first attempt succeeded.
    pub completed: u32,
    /// Shards that succeeded only after retry.
    pub recovered: u32,
    /// Shards quarantined (no report).
    pub quarantined: u32,
    /// Shard reports replayed from a checkpoint.
    pub replayed: u32,
    /// Tenants dropped as poisoned, fleet-wide.
    pub poisoned_tenants: u32,
    /// Requests executed across all surviving shards' perf sims.
    pub perf_acts: u64,
    /// ALERTs across surviving perf sims.
    pub alerts: u64,
    /// Mean ALERTs per tREFI across surviving shards.
    pub alerts_per_trefi: f64,
    /// Attacker activations across surviving security sims.
    pub security_acts: u64,
    /// ALERTs across surviving security sims.
    pub security_alerts: u64,
    /// Highest hammer pressure on any surviving shard.
    pub max_pressure: u32,
    /// Injected-fault unsound horizons, summed.
    pub unsound_horizons: u64,
    /// Activations escaping mitigation under injected faults, summed.
    pub escaped_acts: u64,
    /// Tracker corruptions the integrity guard detected, summed.
    pub integrity_detected: u64,
    /// Corruptions restored exactly from the guard's shadow, summed.
    pub integrity_repaired: u64,
    /// Conservative fallback mitigations issued, summed.
    pub fallback_mitigations: u64,
    /// Scrub passes performed across shards, summed.
    pub scrubs: u64,
    /// Slowdown percentiles over surviving shards: (p50, p90, p99, max).
    pub slowdown: (f64, f64, f64, f64),
    /// Structured incident log, shard-ordered.
    pub incidents: Vec<Incident>,
}

/// Max-pressure level above which a shard logs a blast-radius incident
/// (clean MOAT keeps hammer pressure below 99).
const BLAST_THRESHOLD: u32 = 256;

impl FleetReport {
    /// Merges shard outcomes (already sorted by shard index) into the
    /// fleet report.
    pub fn merge(config: &FleetConfig, outcomes: &[ShardOutcome]) -> FleetReport {
        debug_assert!(outcomes
            .windows(2)
            .all(|w| w[0].shard.index < w[1].shard.index));
        let t = config.topology;
        let mut report = FleetReport {
            shards: t.shards(),
            tenants: config.tenants,
            seed: config.seed,
            topology: format!(
                "{}ch x {}d x {}r x {} banks",
                t.channels, t.dimms_per_channel, t.ranks_per_dimm, t.banks_per_rank
            ),
            engines: config.engines.join("+"),
            completed: 0,
            recovered: 0,
            quarantined: 0,
            replayed: 0,
            poisoned_tenants: 0,
            perf_acts: 0,
            alerts: 0,
            alerts_per_trefi: 0.0,
            security_acts: 0,
            security_alerts: 0,
            max_pressure: 0,
            unsound_horizons: 0,
            escaped_acts: 0,
            integrity_detected: 0,
            integrity_repaired: 0,
            fallback_mitigations: 0,
            scrubs: 0,
            slowdown: (0.0, 0.0, 0.0, 0.0),
            incidents: Vec::new(),
        };

        let mut slowdowns: Vec<f64> = Vec::new();
        let mut trefi_sum = 0.0;
        for outcome in outcomes {
            let shard = outcome.shard;
            match &outcome.state {
                ShardState::Completed => report.completed += 1,
                ShardState::Recovered { attempts } => {
                    report.recovered += 1;
                    report.incidents.push(Incident {
                        kind: "retry-recovered",
                        shard_index: shard.index,
                        shard: shard.to_string(),
                        detail: format!("succeeded on attempt {attempts}"),
                    });
                }
                ShardState::Quarantined { reason, attempts } => {
                    report.quarantined += 1;
                    let (kind, what) = match reason {
                        QuarantineReason::Crash => ("quarantined-crash", "worker panicked"),
                        QuarantineReason::Timeout => ("quarantined-stall", "watchdog deadline"),
                    };
                    report.incidents.push(Incident {
                        kind,
                        shard_index: shard.index,
                        shard: shard.to_string(),
                        detail: format!("{what} on all {attempts} attempts"),
                    });
                }
            }
            if outcome.replayed {
                report.replayed += 1;
            }
            let Some(r) = &outcome.report else { continue };
            report.perf_acts += r.perf_acts;
            report.alerts += r.alerts;
            trefi_sum += r.alerts_per_trefi;
            report.security_acts += r.security_acts;
            report.security_alerts += r.security_alerts;
            report.max_pressure = report.max_pressure.max(r.max_pressure);
            report.unsound_horizons += r.unsound_horizons;
            report.escaped_acts += r.escaped_acts;
            report.integrity_detected += r.integrity_detected;
            report.integrity_repaired += r.integrity_repaired;
            report.fallback_mitigations += r.fallback_mitigations;
            report.scrubs += r.scrubs;
            slowdowns.push(r.slowdown);
            for &tenant in &r.poisoned {
                report.poisoned_tenants += 1;
                report.incidents.push(Incident {
                    kind: "poisoned-tenant",
                    shard_index: shard.index,
                    shard: shard.to_string(),
                    detail: format!("tenant {tenant} dropped from mux"),
                });
            }
            if r.slow_injected {
                report.incidents.push(Incident {
                    kind: "slow-shard",
                    shard_index: shard.index,
                    shard: shard.to_string(),
                    detail: "completed over latency budget".to_string(),
                });
            }
            if r.max_pressure > BLAST_THRESHOLD {
                report.incidents.push(Incident {
                    kind: "blast-radius",
                    shard_index: shard.index,
                    shard: shard.to_string(),
                    detail: format!(
                        "max pressure {} breached threshold {BLAST_THRESHOLD}",
                        r.max_pressure
                    ),
                });
            }
            // Recovery incidents fire only under an armed guard: a
            // shard whose corruption was fully absorbed reports
            // recovered coverage (`scrub-resync`) instead of silently
            // carrying untrusted state; residual broken horizons under
            // the guard are the real integrity losses.
            if config.recovery.is_some() && r.integrity_detected > 0 {
                report.incidents.push(Incident::integrity(
                    shard.index,
                    shard.to_string(),
                    r.integrity_detected,
                    r.integrity_repaired,
                    r.fallback_mitigations,
                    r.scrubs,
                    r.unsound_horizons,
                ));
            }
        }

        let survivors = slowdowns.len();
        if survivors > 0 {
            slowdowns.sort_by(f64::total_cmp);
            let pct = |p: f64| {
                // Nearest-rank percentile over the sorted survivors.
                let rank = ((p / 100.0) * survivors as f64).ceil() as usize;
                slowdowns[rank.clamp(1, survivors) - 1]
            };
            report.slowdown = (pct(50.0), pct(90.0), pct(99.0), slowdowns[survivors - 1]);
            report.alerts_per_trefi = trefi_sum / survivors as f64;
        }
        report
    }

    /// Derives the fleet's telemetry [`MetricsRegistry`] from the
    /// merged report. Because the report itself is merged in canonical
    /// shard order, the registry — and therefore its render — is
    /// bit-identical across shard permutations, worker thread counts,
    /// and checkpoint-resume splits. Only integer simulation results go
    /// in; the float-valued fields (slowdown percentiles, alerts/tREFI)
    /// stay in the report render where their formatting is pinned.
    pub fn telemetry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.gauge_max("fleet.shards", u64::from(self.shards));
        reg.gauge_max("fleet.tenants", u64::from(self.tenants));
        reg.add("fleet.shards.completed", u64::from(self.completed));
        reg.add("fleet.shards.recovered", u64::from(self.recovered));
        reg.add("fleet.shards.quarantined", u64::from(self.quarantined));
        // `replayed` is deliberately absent, for the same reason it is
        // absent from `render`: it is provenance, not a simulation
        // result, and the telemetry artifact must stay bit-identical
        // across resume splits.
        reg.add("fleet.tenants.poisoned", u64::from(self.poisoned_tenants));
        reg.add("fleet.perf.acts", self.perf_acts);
        reg.add("fleet.perf.alerts", self.alerts);
        reg.add("fleet.security.acts", self.security_acts);
        reg.add("fleet.security.alerts", self.security_alerts);
        reg.gauge_max("fleet.security.max_pressure", u64::from(self.max_pressure));
        reg.add("fleet.faults.unsound_horizons", self.unsound_horizons);
        reg.add("fleet.faults.escaped_acts", self.escaped_acts);
        reg.add("fleet.integrity.detected", self.integrity_detected);
        reg.add("fleet.integrity.repaired", self.integrity_repaired);
        reg.add(
            "fleet.integrity.fallback_mitigations",
            self.fallback_mitigations,
        );
        reg.add("fleet.integrity.scrubs", self.scrubs);
        for i in &self.incidents {
            reg.add(&format!("fleet.incidents.{}", i.kind), 1);
        }
        reg
    }

    /// Fraction of shards whose results made it into the merge.
    pub fn coverage(&self) -> f64 {
        if self.shards == 0 {
            return 1.0;
        }
        f64::from(self.completed + self.recovered) / f64::from(self.shards)
    }

    /// Whether any shard's coverage was lost.
    pub fn degraded(&self) -> bool {
        self.quarantined > 0
    }

    /// Renders the deterministic report artifact: simulation results
    /// and the incident log, never wall-clock data. CI diffs this
    /// byte-for-byte between same-seed runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fleet report");
        let _ = writeln!(out, "  topology            {}", self.topology);
        let _ = writeln!(out, "  engines             {}", self.engines);
        let _ = writeln!(out, "  shards              {}", self.shards);
        let _ = writeln!(out, "  tenants             {}", self.tenants);
        let _ = writeln!(out, "  seed                {:#x}", self.seed);
        let _ = writeln!(
            out,
            "  coverage            {:.2}% ({} completed, {} recovered, {} quarantined){}",
            self.coverage() * 100.0,
            self.completed,
            self.recovered,
            self.quarantined,
            if self.degraded() { "  [DEGRADED]" } else { "" },
        );
        // `replayed` is deliberately absent: it is provenance (how the
        // numbers were obtained), not a simulation result, and a resumed
        // run must render byte-identically to an uninterrupted one.
        let _ = writeln!(out, "  perf acts           {}", self.perf_acts);
        let _ = writeln!(out, "  alerts              {}", self.alerts);
        let _ = writeln!(out, "  alerts/tREFI        {:.6}", self.alerts_per_trefi);
        let (p50, p90, p99, max) = self.slowdown;
        let _ = writeln!(
            out,
            "  slowdown            p50 {:.4}%  p90 {:.4}%  p99 {:.4}%  max {:.4}%",
            p50 * 100.0,
            p90 * 100.0,
            p99 * 100.0,
            max * 100.0,
        );
        let _ = writeln!(out, "  security acts       {}", self.security_acts);
        let _ = writeln!(out, "  security alerts     {}", self.security_alerts);
        let _ = writeln!(out, "  max pressure        {}", self.max_pressure);
        if self.unsound_horizons > 0 || self.escaped_acts > 0 {
            let _ = writeln!(
                out,
                "  injected faults     {} unsound horizons, {} escaped acts",
                self.unsound_horizons, self.escaped_acts,
            );
        }
        if self.integrity_detected > 0 || self.scrubs > 0 {
            let _ = writeln!(
                out,
                "  integrity           {} detected, {} repaired, {} fallback mitigations, {} scrubs",
                self.integrity_detected,
                self.integrity_repaired,
                self.fallback_mitigations,
                self.scrubs,
            );
        }
        if self.incidents.is_empty() {
            let _ = writeln!(out, "  incidents           none");
        } else {
            let _ = writeln!(out, "  incidents           {}", self.incidents.len());
            for i in &self.incidents {
                let _ = writeln!(out, "    {i}");
            }
        }
        out
    }
}

/// Wall-clock throughput of a fleet run — kept apart from
/// [`FleetReport`] so the diffable artifact stays machine-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Wall-clock duration of the run.
    pub wall_seconds: f64,
    /// Simulated activations (perf + security) across surviving shards.
    pub simulated_acts: u64,
    /// Worker threads used.
    pub threads: usize,
}

impl FleetStats {
    /// Simulated activations per wall-clock second — the gated
    /// `fleet_acts_per_sec` metric.
    pub fn acts_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.simulated_acts as f64 / self.wall_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardReport;
    use crate::supervisor::{FleetConfig, ShardOutcome, ShardState};
    use crate::topology::FleetTopology;

    fn outcome(index: u32, state: ShardState, report: Option<ShardReport>) -> ShardOutcome {
        let topology = FleetTopology::with_shards(8);
        ShardOutcome {
            shard: topology.shard(index),
            state,
            report,
            error: None,
            replayed: false,
        }
    }

    fn shard_report(index: u32, slowdown: f64) -> ShardReport {
        ShardReport {
            shard_index: index,
            tenants: 2,
            poisoned: Vec::new(),
            perf_acts: 100,
            alerts: 3,
            alerts_per_trefi: 0.5,
            slowdown,
            security_acts: 50,
            security_alerts: 1,
            max_pressure: 90,
            unsound_horizons: 0,
            escaped_acts: 0,
            integrity_detected: 0,
            integrity_repaired: 0,
            fallback_mitigations: 0,
            scrubs: 0,
            slow_injected: false,
        }
    }

    #[test]
    fn merge_marks_degraded_coverage_and_orders_incidents() {
        let config = FleetConfig::new(FleetTopology::with_shards(8), 16, 32, 1);
        let outcomes: Vec<ShardOutcome> = (0..8)
            .map(|i| {
                if i == 3 {
                    outcome(
                        i,
                        ShardState::Quarantined {
                            reason: QuarantineReason::Crash,
                            attempts: 3,
                        },
                        None,
                    )
                } else {
                    outcome(
                        i,
                        ShardState::Completed,
                        Some(shard_report(i, 0.01 * f64::from(i))),
                    )
                }
            })
            .collect();
        let report = FleetReport::merge(&config, &outcomes);
        assert!(report.degraded());
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.completed, 7);
        assert_eq!(report.perf_acts, 700);
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].kind, "quarantined-crash");
        assert!(report.render().contains("[DEGRADED]"));
        assert!(report.render().contains("quarantined-crash"));
        assert!((report.coverage() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank_over_survivors() {
        let config = FleetConfig::new(FleetTopology::with_shards(4), 8, 32, 1);
        let outcomes: Vec<ShardOutcome> = (0..4)
            .map(|i| {
                outcome(
                    i,
                    ShardState::Completed,
                    Some(shard_report(i, f64::from(i) / 100.0)),
                )
            })
            .collect();
        let report = FleetReport::merge(&config, &outcomes);
        let (p50, p90, p99, max) = report.slowdown;
        assert_eq!(p50, 0.01);
        assert_eq!(p90, 0.03);
        assert_eq!(p99, 0.03);
        assert_eq!(max, 0.03);
    }

    #[test]
    fn blast_and_poison_incidents_are_recorded() {
        let config = FleetConfig::new(FleetTopology::with_shards(2), 4, 32, 1);
        let mut hot = shard_report(0, 0.0);
        hot.max_pressure = 400;
        let mut poisoned = shard_report(1, 0.0);
        poisoned.poisoned = vec![3];
        let outcomes = vec![
            outcome(0, ShardState::Completed, Some(hot)),
            outcome(1, ShardState::Recovered { attempts: 2 }, Some(poisoned)),
        ];
        let report = FleetReport::merge(&config, &outcomes);
        let kinds: Vec<&str> = report.incidents.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec!["blast-radius", "retry-recovered", "poisoned-tenant"]
        );
        assert_eq!(report.poisoned_tenants, 1);
        assert_eq!(report.max_pressure, 400);
        assert!(!report.degraded(), "recovered shards keep full coverage");
    }

    #[test]
    fn recovery_incidents_distinguish_recovered_from_degraded() {
        let config = FleetConfig::new(FleetTopology::with_shards(2), 4, 32, 1)
            .with_recovery(moat_guard::RecoveryPlan::full());
        let mut recovered = shard_report(0, 0.0);
        recovered.integrity_detected = 5;
        recovered.integrity_repaired = 2;
        recovered.fallback_mitigations = 3;
        recovered.scrubs = 7;
        let mut degraded = shard_report(1, 0.0);
        degraded.integrity_detected = 4;
        degraded.unsound_horizons = 2;
        let outcomes = vec![
            outcome(0, ShardState::Completed, Some(recovered.clone())),
            outcome(1, ShardState::Completed, Some(degraded)),
        ];
        let report = FleetReport::merge(&config, &outcomes);
        let kinds: Vec<&str> = report.incidents.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec!["scrub-resync", "integrity-degraded"]);
        assert_eq!(report.integrity_detected, 9);
        assert_eq!(report.fallback_mitigations, 3);
        assert!(report.render().contains("integrity"));
        assert!(
            !report.degraded(),
            "counter corruption is recovered coverage, not quarantine"
        );

        // The same outcomes under an unguarded config stay silent: the
        // recovery incidents only narrate an armed guard.
        let unguarded = FleetConfig::new(FleetTopology::with_shards(2), 4, 32, 1);
        let report = FleetReport::merge(&unguarded, &outcomes);
        assert!(report
            .incidents
            .iter()
            .all(|i| i.kind != "scrub-resync" && i.kind != "integrity-degraded"));
    }

    #[test]
    fn acts_per_sec_guards_zero_wall_time() {
        let stats = FleetStats {
            wall_seconds: 0.0,
            simulated_acts: 10,
            threads: 1,
        };
        assert_eq!(stats.acts_per_sec(), 0.0);
    }
}
