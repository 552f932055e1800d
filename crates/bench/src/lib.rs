//! # moat-bench — the experiment harness
//!
//! One regeneration function per table and figure of the paper's
//! evaluation, dispatched by name through [`run_experiment`] (the names,
//! in paper order, are [`ALL_EXPERIMENTS`]). The `repro` binary runs
//! them and prints the same rows/series the paper reports: `repro all`
//! runs everything at the default scale, `repro fig11` one experiment,
//! and `--full` selects the paper-size configuration.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablation_experiments;
mod arena_cmd;
mod checkpoint;
mod faults_cmd;
mod fleet_cmd;
mod perf_experiments;
mod perfbench;
mod recover_cmd;
mod scale;
mod security_experiments;
mod sweep;
mod telemetry_cli;
mod trace_cmd;

pub use ablation_experiments::{ablation_refresh_order, ablation_tracker_class, energy};
pub use arena_cmd::run_arena_command;
pub use checkpoint::{Checkpoint, CHECKPOINT_DIR};
pub use faults_cmd::{faults_sweep, run_faults_command};
pub use fleet_cmd::run_fleet_command;
pub use perf_experiments::{
    fig11, fig12, fig13, fig17, run_perf, table4, table5, table6, table7, PerfLab,
};
pub use perfbench::{bench_perf, uniform_stream, PerfBenchReport};
pub use recover_cmd::{recover_sweep, run_recover_command};
pub use scale::Scale;
pub use security_experiments::{
    fig10_fig15, fig16, fig5, fig7, fig8, moat_bound_check, run_security, table2,
};
pub use sweep::{
    cell_metrics, run_cells, run_sweep, try_run_cells, CellOutcome, SweepCell, SweepOutcome,
    SweepStats,
};
pub use telemetry_cli::{effective_config, render_registry, take_telemetry_flag};
pub use trace_cmd::run_trace_command;

/// The storage table (§6.5 / Appendix D).
pub fn storage() -> String {
    let mut out = String::from(
        "Storage overheads (SRAM)\n design      | bytes/bank | bytes/chip (32 banks)\n",
    );
    for level in [1u8, 2, 4] {
        let b = moat_analysis::moat_budget(level);
        out.push_str(&format!(
            "  {:<10} | {:>10} | {:>10}\n",
            b.design, b.bytes_per_bank, b.bytes_per_chip
        ));
    }
    let p = moat_analysis::panopticon_budget();
    out.push_str(&format!(
        "  {:<10} | {:>10} | {:>10}\n",
        p.design, p.bytes_per_bank, p.bytes_per_chip
    ));
    let i = moat_analysis::ideal_sram_budget(65_536);
    out.push_str(&format!(
        "  {:<10} | {:>10} | {:>10}\n",
        i.design, i.bytes_per_bank, i.bytes_per_chip
    ));
    out
}

/// All experiment names in paper order, followed by the ablations, then
/// Fig. 13 and the storage table: the order `repro all` runs them in.
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "table2",
    "fig5",
    "fig7",
    "fig8",
    "fig10",
    "fig16",
    "check",
    "table4",
    "fig11",
    "table5",
    "table6",
    "table7",
    "fig17",
    "fig12",
    "ablation-refresh",
    "ablation-trackers",
    "energy",
    "fig13",
    "storage",
];

/// Runs an experiment by name (figures 13 and storage are included under
/// their own names too).
pub fn run_experiment(name: &str, scale: Scale) -> Option<String> {
    if name == "storage" {
        return Some(storage());
    }
    if name == "fig13" {
        return Some(fig13());
    }
    match name {
        "ablation-refresh" => return Some(ablation_refresh_order()),
        "ablation-trackers" => return Some(ablation_tracker_class()),
        "energy" => return Some(energy(scale)),
        _ => {}
    }
    run_security(name).or_else(|| run_perf(name, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_table_mentions_all_designs() {
        let s = storage();
        assert!(s.contains("MOAT-L1"));
        assert!(s.contains("Panopticon"));
        assert!(s.contains("Ideal-SRAM"));
    }

    #[test]
    fn every_listed_experiment_dispatches() {
        // Dispatch-only check for the cheap ones; the expensive perf
        // sweeps are run by `repro all` and `repro <name>`, not here.
        for name in ["fig8", "storage"] {
            assert!(run_experiment(name, Scale::scaled()).is_some());
        }
    }
}
