//! Demonstrates the trace store's paper-scale win: the same 6-cell
//! `--full` sweep (3 moderate workloads × 2 ATH configurations) run with
//! live per-cell stream regeneration versus mmap-backed trace replay.
//!
//! ```sh
//! cargo run --release -p moat-bench --example fullsweep_compare
//! ```
//!
//! The first invocation records the three traces (once, content-addressed
//! under `.trace-cache/v2`); subsequent invocations are pure replay.

use moat_bench::{run_sweep, PerfLab, Scale, SweepCell};
use moat_core::MoatConfig;
use moat_workloads::WorkloadProfile;

fn main() {
    let profiles: Vec<&'static WorkloadProfile> = ["cactuBSSN", "cam4", "blender"]
        .iter()
        .map(|n| WorkloadProfile::by_name(n).unwrap())
        .collect();
    let cells: Vec<SweepCell> = profiles
        .iter()
        .flat_map(|p| {
            [
                SweepCell::new(p, MoatConfig::with_ath(64)),
                SweepCell::new(p, MoatConfig::with_ath(128)),
            ]
        })
        .collect();

    // Live generation per cell: the pre-trace behaviour at --full, where
    // every cell re-runs the heap-merge generator (a zero budget turns
    // off both materialization and the trace cache).
    let mut live = PerfLab::new(Scale::full());
    live.set_stream_cache_budget(0);
    live.load(&profiles);
    let (_, live_stats) = run_sweep(&mut live, &cells);
    println!(
        "live regeneration : {:>5.1} M ACTs/s ({:.2}s for {} cells)",
        live_stats.acts_per_sec() / 1e6,
        live_stats.wall_seconds,
        cells.len()
    );

    // Trace-cache replay: records on the first ever run, replays the
    // mmap'd bytes afterwards.
    let mut mapped = PerfLab::new(Scale::full());
    mapped.set_stream_cache_budget(1);
    mapped.load(&profiles);
    let (_, map_stats) = run_sweep(&mut mapped, &cells);
    println!(
        "mmap trace replay : {:>5.1} M ACTs/s ({:.2}s for {} cells)",
        map_stats.acts_per_sec() / 1e6,
        map_stats.wall_seconds,
        cells.len()
    );
    println!(
        "speedup           : {:.1}x",
        map_stats.acts_per_sec() / live_stats.acts_per_sec().max(1e-9)
    );
}
