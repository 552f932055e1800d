//! The `repro fleet` subcommand: fleet-scale sharded serving under the
//! self-healing supervisor.
//!
//! `repro fleet [--shards N] [--tenants M] [--acts N] [--threads T]
//! [--resume]` runs an `N`-shard multi-channel/rank/DIMM fleet serving
//! `M` tenant streams and prints the merged [`FleetReport`] to stdout.
//! That artifact is deterministic — CI diffs two same-seed runs
//! byte-for-byte — so all wall-clock output (the `fleet_acts_per_sec`
//! throughput line) goes to **stderr**.
//!
//! Fault injection rides [`FleetFaultPlan::ENV_VAR`]
//! (`MOAT_FLEET_FAULTS=seed=N,crash=R,stall=R,slow=R,poison=R,...`),
//! with any engine-level `MOAT_FAULTS` token accepted in the same spec.
//!
//! `--resume` replays completed shards from
//! `.repro-checkpoint/fleet-<key>/`, where the key fingerprints the
//! full configuration (topology, tenants, quota, seed, fault plan) so a
//! resume can never mix shards from different runs. A fresh run (no
//! `--resume`) discards the store for its key first.

use std::path::Path;

use moat_fleet::{FleetConfig, FleetFaultPlan, FleetSupervisor, FleetTopology, ShardStore};
use moat_guard::RecoveryPlan;
use moat_telemetry::{log, TelemetryLevel};
use moat_trackers::registry;

use crate::checkpoint::Checkpoint;
use crate::sweep::fnv1a;
use crate::telemetry_cli::{effective_config, take_telemetry_flag};

/// Default shard count (the acceptance-scale topology).
const DEFAULT_SHARDS: u32 = 64;
/// Default fleet-wide tenant count.
const DEFAULT_TENANTS: u32 = 1024;
/// Default per-tenant request quota.
const DEFAULT_ACTS_PER_TENANT: u32 = 512;
/// Default master seed.
const DEFAULT_SEED: u64 = 0xF1EE7;

/// FNV-1a over a string, for the checkpoint key's fingerprints.
fn fnv(s: &str) -> u32 {
    fnv1a(0, s.bytes()) as u32
}

/// The parsed `repro fleet` invocation.
#[derive(Debug, Clone)]
struct FleetArgs {
    shards: u32,
    tenants: u32,
    acts_per_tenant: u32,
    threads: usize,
    resume: bool,
    /// Engine mix striped across shards (registry names, validated
    /// eagerly at parse time). `None` keeps the homogeneous MOAT
    /// default.
    engines: Option<Vec<&'static str>>,
}

fn parse_args(args: &[String]) -> Result<FleetArgs, String> {
    let mut parsed = FleetArgs {
        shards: DEFAULT_SHARDS,
        tenants: DEFAULT_TENANTS,
        acts_per_tenant: DEFAULT_ACTS_PER_TENANT,
        threads: rayon::current_num_threads(),
        resume: false,
        engines: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--shards" => {
                parsed.shards = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--tenants" => {
                parsed.tenants = value_of("--tenants")?
                    .parse()
                    .map_err(|e| format!("--tenants: {e}"))?;
            }
            "--acts" => {
                parsed.acts_per_tenant = value_of("--acts")?
                    .parse()
                    .map_err(|e| format!("--acts: {e}"))?;
            }
            "--threads" => {
                parsed.threads = value_of("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if parsed.threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--resume" => parsed.resume = true,
            "--engines" => {
                // Validated against the registry here — before any shard
                // runs — and mapped to the specs' 'static names so the
                // Copy `FleetConfig` can carry the mix.
                let selection = registry::parse_selection(value_of("--engines")?)?;
                parsed.engines = Some(selection.into_iter().map(|s| s.name).collect());
            }
            other => {
                return Err(format!(
                    "unknown fleet argument `{other}` \
                     (usage: repro fleet [--shards N] [--tenants M] [--acts N] [--threads T] \
                     [--engines a,b,...] [--resume] [--telemetry])"
                ))
            }
        }
    }
    if parsed.shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(parsed)
}

/// A [`ShardStore`] over the on-disk [`Checkpoint`], with the same
/// non-fatal degradation discipline as `repro all`: a broken store
/// means live re-runs, never a failed run.
struct FleetCheckpoint(Checkpoint);

impl ShardStore for FleetCheckpoint {
    fn lookup(&self, shard: u32) -> Option<String> {
        self.0.lookup(&format!("shard-{shard:05}"))
    }
    fn record(&self, shard: u32, record: &str) {
        if let Err(e) = self.0.record(&format!("shard-{shard:05}"), record) {
            log::warn(
                "fleet",
                format_args!("could not checkpoint shard {shard}: {e}"),
            );
        }
    }
}

/// Runs `repro fleet` and returns the deterministic report for stdout.
/// Wall-clock throughput is printed to stderr here, keeping the
/// returned artifact machine-independent.
///
/// # Errors
///
/// Returns a usage/parse error message (including a malformed
/// [`FleetFaultPlan::ENV_VAR`] value).
pub fn run_fleet_command(args: &[String]) -> Result<String, String> {
    let (rest, telemetry_flag) = take_telemetry_flag(args);
    let tel = effective_config(telemetry_flag)?;
    let parsed = parse_args(&rest)?;
    let faults = FleetFaultPlan::from_env()?.unwrap_or_else(|| FleetFaultPlan::none(DEFAULT_SEED));
    let recovery = RecoveryPlan::from_env()?;

    let topology = FleetTopology::with_shards(parsed.shards);
    let mut config = FleetConfig::new(
        topology,
        parsed.tenants,
        parsed.acts_per_tenant,
        DEFAULT_SEED,
    );
    config = config.with_faults(faults);
    if let Some(plan) = recovery {
        config = config.with_recovery(plan);
    }
    if let Some(engines) = &parsed.engines {
        // `FleetConfig` is `Copy`, so the mix rides as a 'static slice;
        // one leak per invocation of an explicitly heterogeneous run.
        config = config.with_engines(Box::leak(engines.clone().into_boxed_slice()));
    }

    // Key the store by everything that shapes a shard's record, so
    // `--resume` can only ever replay this exact configuration. An
    // armed recovery policy extends the key (guarded shard records are
    // not interchangeable with unguarded ones), as does a non-default
    // engine mix (a comet shard's record must never resume a moat run).
    let key = format!(
        "fleet-{}s-{}t-{}a-{:016x}-{:08x}{}{}",
        parsed.shards,
        parsed.tenants,
        parsed.acts_per_tenant,
        config.seed,
        fnv(&config.faults.to_string()),
        match config.recovery {
            Some(plan) => format!("-r{:08x}", fnv(&plan.to_string())),
            None => String::new(),
        },
        if config.engines == ["moat"] {
            String::new()
        } else {
            format!("-e{:08x}", fnv(&config.engines.join("+")))
        },
    );
    let root = Path::new(".");
    let open = if parsed.resume {
        Checkpoint::open_named(root, &key)
    } else {
        Checkpoint::open_named_fresh(root, &key)
    };
    let store = match open {
        Ok(cp) => Some(FleetCheckpoint(cp)),
        Err(e) => {
            log::warn(
                "fleet",
                format_args!("fleet checkpoint store unavailable ({e}); running without resume"),
            );
            None
        }
    };

    let supervisor = FleetSupervisor::new(config);
    let order: Vec<u32> = (0..topology.shards()).collect();
    let (report, stats) = supervisor.run_with(
        &order,
        parsed.threads,
        store.as_ref().map(|s| s as &dyn ShardStore),
    );

    eprintln!(
        "fleet: {} shards on {} threads, {} replayed, {:.2}s wall, fleet_acts_per_sec {:.0}",
        report.shards,
        stats.threads,
        report.replayed,
        stats.wall_seconds,
        stats.acts_per_sec(),
    );
    // The telemetry section is *appended after* the report so the
    // disarmed artifact CI byte-diffs stays untouched.
    if tel.level == TelemetryLevel::Off {
        Ok(report.render())
    } else {
        Ok(format!(
            "{}\n{}",
            report.render(),
            report.render_telemetry(tel.sink)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_accepts_documented_flags() {
        let a = parse_args(&strings(&[
            "--shards",
            "16",
            "--tenants",
            "128",
            "--acts",
            "64",
            "--threads",
            "2",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(a.shards, 16);
        assert_eq!(a.tenants, 128);
        assert_eq!(a.acts_per_tenant, 64);
        assert_eq!(a.threads, 2);
        assert!(a.resume);
    }

    #[test]
    fn parse_resolves_engine_mix_through_the_registry() {
        let a = parse_args(&strings(&["--engines", "moat,panopticon,comet"])).unwrap();
        assert_eq!(
            a.engines.as_deref(),
            Some(&["moat", "panopticon", "comet"][..])
        );
        assert!(
            parse_args(&strings(&["--engines", "tortuga"])).is_err(),
            "unknown engine must fail before any shard runs"
        );
        assert!(
            parse_args(&strings(&["--engines", "moat,,comet"])).is_err(),
            "empty item"
        );
    }

    #[test]
    fn parse_rejects_malformed_invocations() {
        assert!(
            parse_args(&strings(&["--shards"])).is_err(),
            "missing value"
        );
        assert!(
            parse_args(&strings(&["--shards", "x"])).is_err(),
            "non-numeric"
        );
        assert!(
            parse_args(&strings(&["--shards", "0"])).is_err(),
            "zero shards"
        );
        assert!(
            parse_args(&strings(&["--threads", "0"])).is_err(),
            "zero threads"
        );
        assert!(
            parse_args(&strings(&["--frobnicate"])).is_err(),
            "unknown flag"
        );
    }

    #[test]
    fn fleet_reports_are_pinned() {
        // The report `repro fleet --shards 16 --tenants 96 --acts 64`
        // prints, clean and under CI's crash plan, pinned by FNV-1a
        // across builds; CI's fleet smoke only diffs two runs of one
        // build.
        let render = |faults: FleetFaultPlan| {
            let config = FleetConfig::new(FleetTopology::with_shards(16), 96, 64, DEFAULT_SEED)
                .with_faults(faults);
            let order: Vec<u32> = (0..16).collect();
            FleetSupervisor::new(config)
                .run_with(&order, 2, None)
                .0
                .render()
        };
        let clean = render(FleetFaultPlan::none(DEFAULT_SEED));
        let chaos = render(FleetFaultPlan::parse("seed=97,crash=0.4").unwrap());
        assert!(chaos.contains("quarantined-crash"), "{chaos}");
        assert_eq!(fnv1a(0, clean.bytes()), 0xeb23_f7b2_a72a_0b14, "{clean}");
        assert_eq!(fnv1a(0, chaos.bytes()), 0x77d2_efe2_29bf_bc23, "{chaos}");
    }

    #[test]
    fn defaults_hit_the_acceptance_scale() {
        let a = parse_args(&[]).unwrap();
        assert!(a.shards >= 64);
        assert!(a.tenants >= 1000);
    }
}
