//! `repro recover sweep` — the recovery table.
//!
//! Runs the fault grid of `repro faults sweep` with a guard ladder:
//! every engine × attack × SEU-rate cell runs once unguarded and once
//! per recovery policy rung (scrub-only at two cadences, and the full
//! scrub + conservative-fallback policy). The guard rung is
//! deliberately **excluded** from the cell seed, so the unguarded rung
//! reproduces the fault sweep's numbers bit-for-bit and every guard
//! rung faces the identical injected fault stream.
//!
//! The headline the table quantifies: guarded MOAT closes its unsound
//! ACT horizons to zero, at a cost visible in the fallback-mitigation
//! and scrub columns. The base fault plan comes from
//! [`MOAT_FAULTS`](FaultPlan::ENV_VAR) when armed; the full rung's
//! recovery policy can be overridden via
//! [`MOAT_RECOVERY`](RecoveryPlan::ENV_VAR).

use moat_faults::FaultPlan;
use moat_fleet::Incident;
use moat_guard::RecoveryPlan;
use moat_telemetry::MetricsRegistry;

use crate::faults_cmd::{base_plan, sweep, GuardRung, CELL_DURATION};
use crate::sweep::CellOutcome;
use crate::telemetry_cli::{append_registry, effective_config, take_telemetry_flag};

/// The guard ladder: unguarded baseline, scrub-only at two cadences,
/// and the full policy (scrub + conservative fallback).
fn guard_ladder(full: RecoveryPlan) -> [GuardRung; 4] {
    [
        ("none", None),
        ("scrub-500u", Some(RecoveryPlan::scrub_every(500_000))),
        ("scrub-50u", Some(RecoveryPlan::scrub_every(50_000))),
        ("full", Some(full)),
    ]
}

/// Renders the recovery table, plus the sweep's telemetry registry.
/// Both are bit-identical across runs with equal base fault plans and
/// full-rung policies (CI diffs two runs). The table ends with an
/// integrity-incident section rendered through the same [`Incident`]
/// path the fleet report uses (`cell` noun instead of `shard`), so the
/// two surfaces' taxonomy and detail strings can never drift. Incident
/// lines contain no `|`, keeping the table's column-indexed consumers
/// (CI's awk gate) unaffected.
pub fn recover_sweep(base: FaultPlan, full: RecoveryPlan) -> (String, MetricsRegistry) {
    let (rows, mut reg) = sweep(base, &guard_ladder(full));
    let mut incidents: Vec<Incident> = Vec::new();

    let mut out = format!(
        "Recovery: guard ladder x SEU ladder x engine x attack ({} ms virtual time/cell)\n\
         base plan: {base}\n\
         full policy: {full}\n\
         engine      | attack      | seu   | guard      | acts   | unsound | escaped | det   | rep   | fb    | scrubs | resync-ns\n",
        CELL_DURATION.as_u64() / 1_000_000,
    );
    for (index, (cell, outcome)) in rows.iter().enumerate() {
        match outcome {
            CellOutcome::Ok {
                result: (report, stats, recovery),
                ..
            } => {
                if let Some(r) = recovery {
                    let key = format!("recover.{}.{}.{}", cell.engine, cell.attack, cell.guard.0);
                    r.record_metrics(&key, &mut reg);
                    if r.detected > 0 {
                        incidents.push(Incident::integrity(
                            index as u32,
                            format!(
                                "{}/{}/{}/{}",
                                cell.engine, cell.attack, cell.rate_label, cell.guard.0
                            ),
                            r.detected,
                            r.repaired,
                            r.fallback_mitigations,
                            r.scrubs,
                            stats.unsound_horizons,
                        ));
                    }
                }
                let (det, rep, fb, scrubs, resync) = match recovery {
                    Some(r) => (
                        r.detected.to_string(),
                        r.repaired.to_string(),
                        r.fallback_mitigations.to_string(),
                        r.scrubs.to_string(),
                        match r.mean_resync_ns() {
                            Some(ns) => ns.to_string(),
                            None if r.open_since.is_some() => "open".to_string(),
                            None => "-".to_string(),
                        },
                    ),
                    None => (
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ),
                };
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | {:<10} | {:>6} | {:>7} | {:>7} | {:>5} | {:>5} | {:>5} | {:>6} | {resync}\n",
                    cell.engine,
                    cell.attack,
                    cell.rate_label,
                    cell.guard.0,
                    report.total_acts,
                    stats.unsound_horizons,
                    stats.escaped_acts,
                    det,
                    rep,
                    fb,
                    scrubs,
                ));
            }
            CellOutcome::Failed { attempts, message } => {
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | {:<10} | FAILED after {attempts} attempts: {message}\n",
                    cell.engine, cell.attack, cell.rate_label, cell.guard.0,
                ));
            }
        }
    }
    if incidents.is_empty() {
        out.push_str("integrity incidents: none\n");
    } else {
        out.push_str(&format!("integrity incidents: {}\n", incidents.len()));
        for i in &incidents {
            out.push_str(&format!("  {}\n", i.render_as("cell")));
        }
    }
    (out, reg)
}

/// Dispatches `repro recover <subcommand>`.
///
/// # Errors
///
/// Returns a usage or diagnostic message for the caller to print to
/// stderr (with a nonzero exit).
pub fn run_recover_command(args: &[String]) -> Result<String, String> {
    let usage = "usage: repro recover sweep [--telemetry]\n\
                 (set MOAT_FAULTS=seed=N[,...] to pin the base fault plan and \
                 MOAT_RECOVERY=scrub=NS[,fallback=on|off] to override the full rung's policy. \
                 --telemetry, or MOAT_TELEMETRY with a level above off, appends the sweep's \
                 metrics registry)";
    let (rest, telemetry_flag) = take_telemetry_flag(args);
    if rest.first().map(String::as_str) != Some("sweep") {
        return Err(usage.to_string());
    }
    let base = base_plan()?;
    let full = RecoveryPlan::from_env()
        .map_err(|e| format!("invalid {}: {e}", RecoveryPlan::ENV_VAR))?
        .unwrap_or_else(RecoveryPlan::full);
    let tel = effective_config(telemetry_flag)?;
    let (table, reg) = recover_sweep(base, full);
    Ok(append_registry(table, &reg, tel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults_cmd::{ENGINES, SEU_LADDER};
    use crate::sweep::fnv1a;

    #[test]
    fn sweep_is_deterministic_and_covers_grid() {
        let base = FaultPlan::none(0xFA17);
        let (a, _) = recover_sweep(base, RecoveryPlan::full());
        let (b, _) = recover_sweep(base, RecoveryPlan::full());
        assert_eq!(a, b, "same plans, bit-identical table");
        for engine in ENGINES {
            assert!(a.contains(engine), "missing engine {engine}");
        }
        for (label, _) in guard_ladder(RecoveryPlan::full()) {
            assert!(
                a.contains(&format!("| {label:<10} |")),
                "missing guard rung {label}"
            );
        }
        assert!(!a.contains("FAILED"), "no cell should crash:\n{a}");
    }

    #[test]
    fn guarded_moat_closes_the_unsound_horizons() {
        // The headline: at SEU 1e-2 under hammer, unguarded MOAT breaks
        // its promised ACT horizons (the fault sweep's result, same
        // seeds); the full guard closes every one of them.
        let (table, _) = recover_sweep(FaultPlan::none(0xFA17), RecoveryPlan::full());
        let unsound_at = |guard: &str| -> u64 {
            table
                .lines()
                .find(|l| {
                    l.contains("moat")
                        && l.contains("hammer")
                        && l.contains("| 1e-2  |")
                        && l.contains(&format!("| {guard:<10} |"))
                })
                .and_then(|l| l.split('|').nth(5))
                .and_then(|f| f.trim().parse().ok())
                .unwrap_or_else(|| panic!("row moat/hammer/1e-2/{guard} missing in:\n{table}"))
        };
        assert!(
            unsound_at("none") > 0,
            "unguarded MOAT must break at SEU 1e-2:\n{table}"
        );
        assert_eq!(
            unsound_at("full"),
            0,
            "the full guard must close every horizon:\n{table}"
        );
    }

    #[test]
    fn unguarded_rung_reproduces_the_fault_sweep() {
        // Same seed derivation, same duration: the `none` rung must
        // agree with `repro faults sweep` on the shared columns.
        let base = FaultPlan::none(0xFA17);
        let (faults, _) = crate::faults_cmd::faults_sweep(base);
        let (recover, _) = recover_sweep(base, RecoveryPlan::full());
        let faults_unsound = |engine: &str, rate: &str| -> String {
            faults
                .lines()
                .find(|l| l.contains(engine) && l.contains(&format!("| {rate:<5} |")))
                .and_then(|l| l.split('|').nth(7))
                .map(|f| f.trim().to_string())
                .unwrap()
        };
        let recover_unsound = |engine: &str, rate: &str| -> String {
            recover
                .lines()
                .find(|l| {
                    l.contains(engine)
                        && l.contains("hammer")
                        && l.contains(&format!("| {rate:<5} |"))
                        && l.contains("| none       |")
                })
                .and_then(|l| l.split('|').nth(5))
                .map(|f| f.trim().to_string())
                .unwrap()
        };
        for engine in ENGINES {
            for (rate, _) in SEU_LADDER {
                assert_eq!(
                    faults_unsound(engine, rate),
                    recover_unsound(engine, rate),
                    "{engine}/{rate}: the unguarded rung must reproduce the fault sweep"
                );
            }
        }
    }

    #[test]
    fn recovery_table_is_pinned() {
        // Pins the artifact's bytes (FNV-1a) across builds; CI's
        // recovery smoke only diffs two runs of one build.
        let table = run_recover_command(&["sweep".to_string()]).unwrap();
        assert_eq!(fnv1a(0, table.bytes()), 0x185b_7937_531a_198c, "{table}");
    }

    #[test]
    fn command_dispatch_and_usage() {
        assert!(run_recover_command(&[]).is_err());
        assert!(run_recover_command(&["bogus".to_string()]).is_err());
    }
}
