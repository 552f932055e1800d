//! Host-time benchmark of the MOAT reproduction.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <paper-perf|attack-zoo|fleet-serve|full-sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload builds its inputs from
//! `--seed`, sets up (timed as `setup_s`), then repeats its timed part
//! for `--seconds` and reports medians. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` instead runs a traced pass (spans
//! around every call into a layer) plus per-layer ablations and prints
//! the per-layer metrics. Human-readable results go first; the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for the workloads and the layer map.

mod attack_zoo;
mod cells;
mod check;
mod fleet_serve;
mod full_sweep;
mod metrics;
mod paper_perf;
mod procstat;
mod spans;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cells::{Rep, Threads};
use check::{Checks, Fnv};
use metrics::{Values, END_TO_END, PER_LAYER};
use spans::{Span, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untraced/traced pass pairs in a traced run (for the overhead).
const TRACE_PAIRS: usize = 2;

/// One benchmark workload.
pub trait Workload {
    /// One cell's simulated output.
    type Out: Send;

    /// Everything before the first timed simulated ACT. Called repeatedly;
    /// each call replaces the previous state.
    fn setup(&mut self, tr: &Tracer);

    /// One timed repetition of every cell.
    fn run(&self, tr: &Tracer, threads: Threads) -> Rep<Self::Out>;

    /// Folds one cell's simulated output into a digest.
    fn digest(out: &Self::Out, h: &mut Fnv);

    /// The seed-sampled reference-path check (and any other
    /// workload-specific output check) against `rep`.
    fn check(&self, rep: &Rep<Self::Out>, checks: &mut Checks);

    /// Extra result lines (deterministic simulated figures).
    fn describe(&self, rep: &Rep<Self::Out>) -> Vec<String>;

    /// Per-layer metrics: from the traced pass's `spans` and `rep`, plus
    /// the workload's ablation passes.
    fn probe(&self, spans: &[Span], rep: &Rep<Self::Out>, out: &mut Values, checks: &mut Checks);
}

/// Derives an independent sub-seed from the run's seed.
pub fn derive(seed: u64, salt: &str) -> u64 {
    Fnv::default().u64(seed).bytes(salt.as_bytes()).finish()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload <paper-perf|attack-zoo|fleet-serve|full-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "paper-perf" => drive(paper_perf::PaperPerf::new(seed), &args),
        "attack-zoo" => drive(attack_zoo::AttackZoo::new(seed), &args),
        "fleet-serve" => drive(fleet_serve::FleetServe::new(seed), &args),
        "full-sweep" => match full_sweep::FullSweep::new(seed) {
            Ok(w) => drive(w, &args),
            Err(e) => {
                eprintln!("hostbench: full-sweep work directory: {e}");
                ExitCode::FAILURE
            }
        },
        other => {
            eprintln!("hostbench: unknown workload {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Times `f`, returning its output and wall seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn drive<W: Workload>(mut w: W, args: &Args) -> ExitCode {
    println!(
        "hostbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    let mut checks = Checks::default();
    let mut values = Values::default();
    let cells_run;
    let cells_failed;
    if args.trace {
        (cells_run, cells_failed) = traced(&mut w, &mut values, &mut checks);
    } else {
        (cells_run, cells_failed) = untraced(&mut w, args, &mut values, &mut checks);
    }

    println!("checks:");
    for c in checks.all() {
        match &c.failure {
            None => println!("  ok    {}", c.name),
            Some(why) => println!("  FAIL  {}: {why}", c.name),
        }
    }
    let attempted = cells_run + checks.attempted();
    let failed = cells_failed + checks.failed();
    println!(
        "fail_ratio: {failed}/{attempted} = {:.4} (cells {cells_failed}/{cells_run}, checks {}/{})",
        failed as f64 / attempted.max(1) as f64,
        checks.failed(),
        checks.attempted()
    );
    let defs: &[metrics::Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", values.json(failed == 0, attempted, failed, defs));
    ExitCode::SUCCESS
}

/// The end-to-end run: set up [`SETUP_REPS`] times, then repeat the timed
/// part for `--seconds`. Returns (cells run, cells failed).
fn untraced<W: Workload>(
    w: &mut W,
    args: &Args,
    values: &mut Values,
    checks: &mut Checks,
) -> (usize, usize) {
    let off = Tracer::off();
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| timed(|| w.setup(&off)).1).collect();

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut walls, mut cpus, mut rates, mut digests) = (vec![], vec![], vec![], vec![]);
    let (mut cells_run, mut cells_failed) = (0, 0);
    let mut last = None;
    while last.is_none() || start.elapsed() < budget {
        let cpu0 = procstat::cpu_seconds();
        let (rep, wall) = timed(|| w.run(&off, Threads::Harness));
        cpus.push(procstat::cpu_seconds() - cpu0);
        walls.push(wall);
        rates.push(rep.acts as f64 / wall);
        digests.push(rep.digest(W::digest));
        cells_run += rep.outs.len();
        cells_failed += rep.failed();
        last = Some(rep);
    }
    let rep = last.expect("at least one repetition ran");

    println!("setup_s: {}", stats::summary(&setups, 1.0, "s"));
    println!("wall_s: {}", stats::summary(&walls, 1.0, "s"));
    println!("cpu_s: {}", stats::summary(&cpus, 1.0, "s"));
    println!("sim_acts_per_s: {}", stats::summary(&rates, 1e-6, "M/s"));
    println!(
        "cells per repetition: {} on {} threads; {}",
        rep.outs.len(),
        rep.threads,
        stats::summary(&rep.cell_secs, 1e3, "ms per cell (last repetition)")
    );
    for line in w.describe(&rep) {
        println!("{line}");
    }
    println!("digest: {:016x}", digests[0]);
    checks.expect(
        "digest repeats across repetitions",
        digests.iter().all(|&d| d == digests[0]),
        || format!("digests {digests:x?}"),
    );
    w.check(&rep, checks);
    check::headline_cells(checks);

    values.set("wall_s", stats::median(&walls));
    values.set("setup_s", stats::median(&setups));
    values.set("cpu_s", stats::median(&cpus));
    values.set("sim_acts_per_s", stats::median(&rates));
    println!(
        "peak_rss_mb: {:.2} MiB (process peak)",
        procstat::peak_rss_mb()
    );
    (cells_run, cells_failed)
}

/// The traced run: alternating untraced and traced passes (set-up + one
/// repetition each) for the tracing overhead, the layer accounting of
/// the last traced pass, a serial pass for the thread-count digest
/// check, and the workload's per-layer probes. Returns (cells run,
/// cells failed).
fn traced<W: Workload>(w: &mut W, values: &mut Values, checks: &mut Checks) -> (usize, usize) {
    let off = Tracer::off();
    let (mut plain, mut traced) = (vec![], vec![]);
    let (mut cells_run, mut cells_failed) = (0, 0);
    let mut digests = vec![];
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        let (rep, secs) = timed(|| {
            w.setup(&off);
            w.run(&off, Threads::Harness)
        });
        plain.push(secs);
        digests.push(rep.digest(W::digest));
        cells_run += rep.outs.len();
        cells_failed += rep.failed();

        let tr = Tracer::on();
        let (rep, secs) = timed(|| {
            tr.span("root.setup", || w.setup(&tr));
            tr.span("root.timed", || w.run(&tr, Threads::Harness))
        });
        traced.push(secs);
        digests.push(rep.digest(W::digest));
        cells_run += rep.outs.len();
        cells_failed += rep.failed();
        last = Some((tr, rep, secs));
    }
    let (tr, rep, traced_wall) = last.expect("TRACE_PAIRS > 0");
    let spans = tr.spans();

    let serial = w.run(&off, Threads::Serial);
    cells_run += serial.outs.len();
    cells_failed += serial.failed();
    let serial_digest = serial.digest(W::digest);
    println!(
        "digest: {:016x} ({} threads and 1 thread)",
        digests[0], rep.threads
    );
    checks.expect(
        "digest repeats across passes and thread counts",
        digests.iter().all(|&d| d == serial_digest),
        || format!("passes {digests:x?} vs serial {serial_digest:x}"),
    );

    // Layer accounting over the last traced pass.
    let attributed = spans::attributed(&spans);
    let self_times = spans::self_times(&spans);
    let roots: f64 = ["root.setup", "root.timed"]
        .iter()
        .filter_map(|l| attributed.get(l))
        .sum();
    let layer_sum: f64 = attributed.values().sum::<f64>() - roots;
    let overhead = stats::median(&traced) / stats::median(&plain) - 1.0;
    println!("layer accounting (traced pass: set-up + one repetition, {traced_wall:.4} s wall):");
    println!("  layer                         wall-attributed s   self thread-s");
    let mut by_crate: BTreeMap<&str, f64> = BTreeMap::new();
    for (layer, secs) in &attributed {
        println!(
            "  {layer:<30} {secs:>16.4} {:>15.4}",
            self_times.get(layer).copied().unwrap_or(0.0)
        );
        *by_crate.entry(crate_of(layer)).or_insert(0.0) += secs;
    }
    println!("  by crate:");
    for (krate, secs) in &by_crate {
        println!(
            "    {krate:<28} {secs:>10.4} s  {:>6.2}%",
            100.0 * secs / traced_wall
        );
    }
    println!(
        "  sum of layers {layer_sum:.4} s vs traced wall {traced_wall:.4} s: residual {:.4} s ({:.2}%)",
        traced_wall - layer_sum,
        100.0 * (traced_wall - layer_sum) / traced_wall
    );
    println!(
        "  untraced set-up + repetition {} vs traced {}: tracing overhead {:+.2}%",
        stats::summary(&plain, 1.0, "s"),
        stats::summary(&traced, 1.0, "s"),
        100.0 * overhead
    );
    values.set(
        "layers.residual_pct",
        100.0 * (traced_wall - layer_sum) / traced_wall,
    );
    values.set("layers.tracing_overhead_pct", 100.0 * overhead);

    // The harness's cells in the traced repetition.
    let cell_ms: Vec<f64> = rep.cell_secs.iter().map(|s| s * 1e3).collect();
    values.set("sweep.cell_p50_ms", stats::median(&cell_ms));
    values.set(
        "sweep.cell_p95_ms",
        stats::percentile(&cell_ms, 95.0).unwrap_or(0.0),
    );
    values.set("sweep.idle_pct", idle_pct(&rep));
    println!("sweep cells: {}", stats::summary(&rep.cell_secs, 1e3, "ms"));

    for line in w.describe(&rep) {
        println!("{line}");
    }
    w.probe(&spans, &rep, values, checks);
    w.check(&rep, checks);
    check::headline_cells(checks);
    values.set("process.peak_rss_mb", procstat::peak_rss_mb());
    println!("per-layer metrics (-> the end-to-end metric each should move):");
    for d in &PER_LAYER {
        println!(
            "  {:<34} {:>14.4} {:<6} -> {}",
            d.name,
            values.get(d.name).unwrap_or(0.0),
            d.unit,
            d.note
        );
    }
    (cells_run, cells_failed)
}

/// Idle share of the harness's thread-time: (threads × wall − Σ cell
/// time) / (threads × wall), in percent.
pub fn idle_pct<O>(rep: &Rep<O>) -> f64 {
    let capacity = rep.threads as f64 * rep.wall;
    let busy: f64 = rep.cell_secs.iter().sum();
    100.0 * (capacity - busy).max(0.0) / capacity
}

/// The workspace crate a layer name belongs to.
fn crate_of(layer: &str) -> &'static str {
    match layer.split('.').next().unwrap_or("") {
        "workloads" => "moat-workloads",
        "trace" => "moat-trace",
        "sim" => "moat-sim (+ engine update)",
        "fleet" => "moat-fleet",
        "bench" => "moat-bench (run_cells)",
        _ => "unattributed (benchmark glue)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload paper-perf --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("paper-perf", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn derived_seeds_differ_by_seed_and_salt() {
        assert_eq!(derive(1, "a"), derive(1, "a"));
        assert_ne!(derive(1, "a"), derive(2, "a"));
        assert_ne!(derive(1, "a"), derive(1, "b"));
    }

    #[test]
    fn idle_share_of_an_unbalanced_repetition() {
        let rep: Rep<()> = Rep {
            outs: vec![Some(()), Some(())],
            cell_secs: vec![1.0, 0.5],
            wall: 1.0,
            acts: 0,
            threads: 2,
        };
        assert_eq!(idle_pct(&rep), 25.0);
    }
}
