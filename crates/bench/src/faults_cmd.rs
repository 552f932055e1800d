//! `repro faults sweep` — the fault-sensitivity table — and the fault
//! grid and attack battery it shares with `repro recover sweep` and
//! `repro arena`.
//!
//! Ladders the SEU rate of a seeded [`FaultPlan`] across two engines
//! (MOAT and Panopticon) × two attacks (single-row hammer and
//! round-robin feinting) and reports, per cell, the injections that
//! actually landed, how many engine-promised ACT horizons proved
//! unsound, the ACTs that escaped past a pending alert inside
//! already-granted runs, and when the first horizon broke. The base
//! plan (seed and the non-SEU rates) comes from the
//! [`MOAT_FAULTS`](FaultPlan::ENV_VAR) environment variable when armed,
//! so the CI chaos run can pin a fixed seed; unset, a built-in seed is
//! used. Equal seeds give bit-identical tables — the table itself is
//! the determinism artifact CI diffs across two runs.
//!
//! The grid's cells carry an optional recovery rung: `repro recover
//! sweep` runs every cell once per rung of its guard ladder, and this
//! table is the grid cut to its unguarded `none` rung. A cell's fault
//! seed derives from its engine, attack and SEU rate only, so every
//! rung of a cell faces the identical injected fault stream.
//!
//! Cells run through the crash-isolated sweep harness
//! ([`try_run_cells`]): a cell that panics under corruption is retried
//! once and, if it fails again, reported as a `FAILED` row while every
//! sibling cell still prints.

use moat_attacks::{JailbreakAttacker, RatchetAttacker};
use moat_dram::Nanos;
use moat_faults::{FaultInjector, FaultPlan, FaultStats};
use moat_guard::{EngineGuard, RecoveryPlan, RecoveryStats};
use moat_sim::{
    hammer_attacker, round_robin_attacker, FaultHook, GuardHook, Hooks, SecurityConfig,
    SecurityReport, SecuritySim, TelemetryHook,
};
use moat_telemetry::MetricsRegistry;
use moat_trackers::registry;

use crate::sweep::{cell_metrics, fnv1a, try_run_cells, CellOutcome};
use crate::telemetry_cli::{append_registry, effective_config, take_telemetry_flag};

/// Virtual time each fault-grid cell simulates (per-boundary fault
/// rates make the injected-fault count proportional to this).
pub(crate) const CELL_DURATION: Nanos = Nanos::from_millis(4);

/// The SEU-rate ladder: label shown in the table, probability used.
/// Labels are fixed strings so the table renders identically on every
/// platform regardless of float formatting.
pub(crate) const SEU_LADDER: [(&str, f64); 4] =
    [("0", 0.0), ("1e-4", 1e-4), ("1e-3", 1e-3), ("1e-2", 1e-2)];

/// The fault grid's engines, built through the central registry at
/// their default configurations. The grid stays at the MOAT/Panopticon
/// contrast to bound runtime; the full zoo runs through `repro arena`.
pub(crate) const ENGINES: [&str; 2] = ["moat", "panopticon"];
/// The fault grid's attacks: the scripted half of [`BATTERY`].
const ATTACKS: [&str; 2] = ["hammer", "round-robin"];

/// The attack battery, by name, of every `repro` security grid.
pub(crate) const BATTERY: [&str; 4] = ["hammer", "round-robin", "jailbreak", "ratchet"];

/// Runs the [`BATTERY`] attack `name` on `sim` for `duration` under
/// `hooks`.
pub(crate) fn attack<F: FaultHook, G: GuardHook, T: TelemetryHook>(
    sim: &mut SecuritySim,
    name: &str,
    duration: Nanos,
    hooks: Hooks<F, G, T>,
) -> SecurityReport {
    match name {
        "hammer" => sim.run_semi_scripted_with(&mut hammer_attacker(5), duration, hooks),
        "round-robin" => sim.run_semi_scripted_with(
            &mut round_robin_attacker((0..16).map(|i| i * 2).collect()),
            duration,
            hooks,
        ),
        "jailbreak" => {
            sim.run_semi_scripted_with(&mut JailbreakAttacker::new(20_000), duration, hooks)
        }
        "ratchet" => {
            sim.run_semi_scripted_with(&mut RatchetAttacker::new(64, 128), duration, hooks)
        }
        other => unreachable!("unknown attack {other}"),
    }
}

/// A recovery rung: its table label and the guard's policy (`None`
/// runs unguarded).
pub(crate) type GuardRung = (&'static str, Option<RecoveryPlan>);

/// One cell of the fault grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultCell {
    pub(crate) engine: &'static str,
    pub(crate) attack: &'static str,
    pub(crate) rate_label: &'static str,
    pub(crate) guard: GuardRung,
    plan: FaultPlan,
}

/// What a fault-grid cell reports: the attack's security report, the
/// injector's stats, and the guard's stats on a guarded rung.
pub(crate) type CellResult = (SecurityReport, FaultStats, Option<RecoveryStats>);

/// Derives a per-cell seed from the base seed and the cell's fault
/// coordinates, so every cell draws an independent, reproducible fault
/// stream — shared by all of its recovery rungs.
fn cell_seed(base: u64, engine: &str, attack: &str, rate_label: &str) -> u64 {
    fnv1a(base, [engine, attack, rate_label].join("/").into_bytes())
}

/// Runs one cell: an event-horizon security simulation with the cell's
/// fault plan armed and, on a guarded rung, an [`EngineGuard`] at the
/// boundaries. The activation count feeds the sweep statistics.
fn run_cell(cell: FaultCell) -> (CellResult, u64) {
    let config = SecurityConfig::paper_default();
    let mut injector = FaultInjector::new(cell.plan, config.dram.rows_per_bank);
    let engine = registry::build(cell.engine)
        .unwrap_or_else(|| unreachable!("unknown engine {}", cell.engine));
    let mut sim = SecuritySim::new(config, engine);
    let hooks = Hooks::default().faults(&mut injector);
    let (report, recovery) = match cell.guard.1 {
        None => (attack(&mut sim, cell.attack, CELL_DURATION, hooks), None),
        Some(plan) => {
            let mut guard = EngineGuard::new(plan);
            guard.arm(sim.unit_mut());
            let report = attack(
                &mut sim,
                cell.attack,
                CELL_DURATION,
                hooks.guard(&mut guard),
            );
            (report, Some(guard.stats()))
        }
    };
    ((report, injector.stats(), recovery), report.total_acts)
}

/// Runs the fault grid — engine × attack × SEU rate × `guards` rung, in
/// table order — through the crash-isolated harness. Returns each cell
/// with its outcome, and the harness's cell-accounting registry.
pub(crate) fn sweep(
    base: FaultPlan,
    guards: &[GuardRung],
) -> (Vec<(FaultCell, CellOutcome<CellResult>)>, MetricsRegistry) {
    let mut cells = Vec::new();
    for engine in ENGINES {
        for attack in ATTACKS {
            for (rate_label, rate) in SEU_LADDER {
                let plan = FaultPlan {
                    seu_rate: rate,
                    seed: cell_seed(base.seed, engine, attack, rate_label),
                    ..base
                };
                for &guard in guards {
                    cells.push(FaultCell {
                        engine,
                        attack,
                        rate_label,
                        guard,
                        plan,
                    });
                }
            }
        }
    }
    let (outcomes, stats) = try_run_cells(cells.clone(), run_cell);
    let reg = cell_metrics(&outcomes, &stats);
    let rows = cells
        .into_iter()
        .zip(outcomes)
        .map(|(cell, (outcome, _wall))| (cell, outcome));
    (rows.collect(), reg)
}

/// The base fault plan: [`MOAT_FAULTS`](FaultPlan::ENV_VAR) when armed,
/// else the built-in seed.
pub(crate) fn base_plan() -> Result<FaultPlan, String> {
    Ok(FaultPlan::from_env()
        .map_err(|e| format!("invalid {}: {e}", FaultPlan::ENV_VAR))?
        .unwrap_or_else(|| FaultPlan::none(0xFA17)))
}

/// Renders the fault-sensitivity table, plus the sweep's derived
/// telemetry registry: crash-isolation accounting from the harness and
/// per engine × attack fault aggregates from the Ok cells. Both are
/// built from the outcomes in input order, so they are bit-identical
/// across runs with equal base plans and across worker thread counts
/// (CI asserts this by diffing two runs).
pub fn faults_sweep(base: FaultPlan) -> (String, MetricsRegistry) {
    let (rows, mut reg) = sweep(base, &[("none", None)]);
    let mut out = format!(
        "Fault sensitivity: SEU ladder x engine x attack ({} ms virtual time/cell)\n\
         base plan: {base}\n\
         engine      | attack      | seu   | acts   | maxP | flips | stuck | unsound | escaped | first-unsound\n",
        CELL_DURATION.as_u64() / 1_000_000,
    );
    for (cell, outcome) in &rows {
        match outcome {
            CellOutcome::Ok {
                result: (report, stats, _),
                ..
            } => {
                let first = match stats.first_unsound {
                    Some(f) => format!("@{}ns {}/{}", f.at.as_u64(), f.done, f.promised),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | {:>6} | {:>4} | {:>5} | {:>5} | {:>7} | {:>7} | {first}\n",
                    cell.engine,
                    cell.attack,
                    cell.rate_label,
                    report.total_acts,
                    report.max_pressure,
                    stats.seu_flips,
                    stats.stuck_entries,
                    stats.unsound_horizons,
                    stats.escaped_acts,
                ));
                let key = format!("faults.{}.{}", cell.engine, cell.attack);
                reg.add(&format!("{key}.acts"), report.total_acts);
                reg.add(&format!("{key}.seu_flips"), stats.seu_flips);
                reg.add(&format!("{key}.stuck_entries"), stats.stuck_entries);
                reg.add(&format!("{key}.unsound_horizons"), stats.unsound_horizons);
                reg.add(&format!("{key}.escaped_acts"), stats.escaped_acts);
                reg.gauge_max(
                    &format!("{key}.max_pressure"),
                    u64::from(report.max_pressure),
                );
            }
            CellOutcome::Failed { attempts, message } => {
                out.push_str(&format!(
                    "  {:<10} | {:<11} | {:<5} | FAILED after {attempts} attempts: {message}\n",
                    cell.engine, cell.attack, cell.rate_label,
                ));
            }
        }
    }
    (out, reg)
}

/// Dispatches `repro faults <subcommand>`.
///
/// # Errors
///
/// Returns a usage or diagnostic message for the caller to print to
/// stderr (with a nonzero exit).
pub fn run_faults_command(args: &[String]) -> Result<String, String> {
    let usage = "usage: repro faults sweep [--telemetry]\n\
                 (set MOAT_FAULTS=seed=N[,drop-rfm=R,lose-alert=R,stuck=R] to pin the base plan; \
                 the sweep ladders the SEU rate itself. --telemetry, or MOAT_TELEMETRY with a \
                 level above off, appends the sweep's metrics registry)";
    let (rest, telemetry_flag) = take_telemetry_flag(args);
    if rest.first().map(String::as_str) != Some("sweep") {
        return Err(usage.to_string());
    }
    let base = base_plan()?;
    let tel = effective_config(telemetry_flag)?;
    let (table, reg) = faults_sweep(base);
    Ok(append_registry(table, &reg, tel))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_covers_grid() {
        let base = FaultPlan::none(0xFA17);
        let (a, _) = faults_sweep(base);
        let (b, _) = faults_sweep(base);
        assert_eq!(a, b, "same base plan, bit-identical table");
        for engine in ENGINES {
            assert!(a.contains(engine), "missing engine {engine}");
        }
        for attack in ATTACKS {
            assert!(a.contains(attack), "missing attack {attack}");
        }
        for (label, _) in SEU_LADDER {
            assert!(
                a.contains(&format!("| {label:<5} |")),
                "missing rate {label}"
            );
        }
        assert!(!a.contains("FAILED"), "no cell should crash:\n{a}");
    }

    #[test]
    fn seu_ladder_hurts_moat_not_panopticon() {
        // The design insight the table measures: MOAT's horizon bound
        // rides the tracked per-row counts, so downward SEU flips desync
        // the tracker from the in-array counters and break the bound;
        // Panopticon's bound rides queue occupancy, which tag flips do
        // not change.
        let (table, _) = faults_sweep(FaultPlan::none(0xFA17));
        let unsound_at = |engine: &str, rate: &str| -> u64 {
            table
                .lines()
                .find(|l| l.contains(engine) && l.contains(&format!("| {rate:<5} |")))
                .and_then(|l| l.split('|').nth(7))
                .and_then(|f| f.trim().parse().ok())
                .unwrap_or_else(|| panic!("row {engine}/{rate} missing in:\n{table}"))
        };
        assert_eq!(unsound_at("moat", "0"), 0, "no faults, no unsoundness");
        assert!(
            unsound_at("moat", "1e-2") > 0,
            "SEU flips must break MOAT's counter-derived horizon:\n{table}"
        );
        assert_eq!(
            unsound_at("panopticon", "1e-2"),
            0,
            "Panopticon's occupancy bound should survive tag flips:\n{table}"
        );
    }

    #[test]
    fn cell_seeds_are_distinct() {
        let mut seeds: Vec<u64> = Vec::new();
        for engine in ENGINES {
            for attack in ATTACKS {
                for (label, _) in SEU_LADDER {
                    seeds.push(cell_seed(1, engine, attack, label));
                }
            }
        }
        let total = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "cell seeds must not collide");
    }

    #[test]
    fn fault_tables_are_pinned() {
        // CI's chaos and telemetry smokes diff two runs of one build;
        // this pins the artifact's bytes (FNV-1a) across builds, so a
        // change that moved every run at once cannot pass unnoticed.
        let plain = run_faults_command(&["sweep".to_string()]).unwrap();
        let traced = run_faults_command(&["sweep".to_string(), "--telemetry".to_string()]).unwrap();
        assert!(traced.starts_with(&plain), "telemetry only appends");
        assert_eq!(fnv1a(0, plain.bytes()), 0x00f4_1d03_e8f8_e6b7, "{plain}");
        assert_eq!(fnv1a(0, traced.bytes()), 0x2ec3_6557_deaa_4c3e, "{traced}");
    }

    #[test]
    fn command_dispatch_and_usage() {
        assert!(run_faults_command(&[]).is_err());
        assert!(run_faults_command(&["bogus".to_string()]).is_err());
    }
}
