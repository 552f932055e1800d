//! Command-line reproduction runner: regenerates every table and figure
//! of the paper's evaluation (`cargo run --release -p moat-bench --bin
//! repro -- all`). Each experiment's host wall time goes to stderr as
//! `[<name> took X.Xs]`; stdout carries only the canonical output.
//!
//! Usage:
//!   repro list                  list experiment and subcommand names
//!   repro all [--full]          run everything, checkpointing each
//!                               experiment's output as it completes
//!   repro all --resume          resume a crashed `all` run: replay the
//!                               checkpointed outputs, execute the rest
//!   repro `<name>`... [--full]  run selected experiments
//!   repro bench                 run the simulator-throughput benchmark
//!   repro faults sweep          fault-sensitivity table: SEU-rate
//!                               ladder x engine x attack (set
//!                               MOAT_FAULTS=seed=N,... to pin the base
//!                               fault plan; see `moat-faults`)
//!   repro recover sweep         recovery table: guard ladder x SEU
//!                               ladder x engine x attack (set
//!                               MOAT_RECOVERY=scrub=NS[,fallback=on|off]
//!                               to override the full rung's policy; see
//!                               `moat-guard`)
//!   repro arena [--engines a,b,...] [--threads T] [--resume]
//!                               cross-mitigation arena: every selected
//!                               engine variant x the attack battery +
//!                               a perf workload, one comparison table
//!                               (escaped ACTs, ALERT rate, slowdown,
//!                               SRAM). Selection defaults to the whole
//!                               registry; MOAT_ARENA_ENGINES overrides
//!                               it when --engines is absent. The table
//!                               is bit-identical across thread counts
//!                               and --resume splits
//!   repro fleet [--shards N] [--tenants M] [--acts N] [--threads T] [--resume]
//!                               fleet-scale sharded serving under the
//!                               self-healing shard supervisor; set
//!                               MOAT_FLEET_FAULTS=seed=N,crash=R,... to
//!                               inject shard-level faults (see
//!                               `moat-fleet`). --resume replays shards
//!                               completed by an interrupted run from
//!                               .repro-checkpoint/
//!   repro trace record [profile ...] [--full]
//!                               record workload streams into the binary
//!                               trace cache (see `moat-trace`)
//!   repro trace info|verify `<file>`
//!                               inspect / fully validate a v2 trace
//!   repro trace convert `<in>` `<out>`
//!                               convert text v1 <-> binary v2 traces
//!   repro ... --telemetry       append deterministic telemetry after
//!                               the canonical output (`all`, `faults
//!                               sweep`, `recover sweep`, `arena` and
//!                               `fleet` accept it); MOAT_TELEMETRY=level=off|
//!                               spans|full,sink=text|json|chrome takes
//!                               precedence when set, and
//!                               MOAT_LOG=error|warn|info tunes the
//!                               stderr degradation log (default warn)
//!   repro --json [names...]     also write BENCH_perf.json (ACTs/sec,
//!                               sweep wall time, mono-vs-boxed speedup,
//!                               per-phase simulated-time profiles)
//!   repro --json --baseline `<file>`
//!                               perf smoke: additionally compare against
//!                               a committed BENCH_perf.json and exit
//!                               non-zero if a gated metric regressed by
//!                               more than 20% (the gates and their
//!                               thread-count rule are defined in
//!                               `crates/bench/src/perfbench.rs`)
//!
//! The performance sweeps fan their (profile × config) cells across all
//! cores; `--full` selects the paper-size configuration (32 banks,
//! 2 tREFW windows). At `--full` the materialized streams exceed the
//! in-memory budget and ride the on-disk trace cache: the first run
//! records every stream once, every later sweep cell (and every later
//! run) replays the mmap'd bytes.

use std::time::Instant;

use moat_bench::{
    bench_perf, effective_config, render_registry, run_arena_command, run_experiment,
    run_faults_command, run_fleet_command, run_recover_command, run_trace_command, Checkpoint,
    Scale, ALL_EXPERIMENTS,
};
use moat_telemetry::{log, MetricsRegistry, TelemetryLevel};

/// Allowed fractional drop of any gated metric (the fields
/// `crates/bench/src/perfbench.rs` records with a gate) before the
/// `--baseline` perf smoke fails the run.
const MAX_PERF_REGRESSION: f64 = 0.20;

/// The subcommands `main` dispatches besides the experiments; `repro
/// list` prints them after [`ALL_EXPERIMENTS`].
const SUBCOMMANDS: [&str; 6] = ["bench", "trace", "faults", "recover", "arena", "fleet"];

/// Writes `contents` to `path` with the same atomic tmp + `rename(2)`
/// publish discipline as the trace cache and the experiment checkpoints:
/// readers (CI's perf-smoke baseline copy, the committed-artifact diff)
/// never observe a torn file.
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.{}.tmp", std::process::id());
    let publish = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if publish.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    publish
}

/// Validates every environment variable the harness consumes, before
/// any work starts: a malformed `MOAT_FAULTS`, `MOAT_FLEET_FAULTS`,
/// `MOAT_RECOVERY`, `MOAT_IO_FAULTS`, `MOAT_TRACE_DIR`,
/// `MOAT_ARENA_ENGINES`, `MOAT_TELEMETRY`, or `MOAT_LOG` fails the
/// invocation with a clear
/// message instead of being silently ignored (which would run an
/// *unfaulted* experiment while the operator believes chaos is armed,
/// or an *unobserved* one while they believe telemetry is recording)
/// or panicking deep inside a sweep.
fn validate_env() {
    let results = [
        moat_faults::FaultPlan::from_env().map(|_| ()),
        moat_fleet::FleetFaultPlan::from_env().map(|_| ()),
        moat_guard::RecoveryPlan::from_env().map(|_| ()),
        moat_trace::failpoint::IoFaultConfig::from_env().map(|_| ()),
        moat_trace::TraceCache::env_dir().map(|_| ()),
        moat_trackers::registry::selection_from_env().map(|_| ()),
        moat_telemetry::TelemetryConfig::from_env().map(|_| ()),
        moat_telemetry::log::LogLevel::from_env().map(|_| ()),
    ];
    let errors: Vec<String> = results.into_iter().filter_map(Result::err).collect();
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("repro: {e}");
        }
        std::process::exit(2);
    }
}

fn main() {
    validate_env();
    // MOAT_LOG was just validated, so arming the degradation logger
    // cannot fail here; the default is `warn` when the variable is
    // unset (tests stay silent — only the CLI arms the level).
    log::init_from_env().expect("MOAT_LOG validated at startup");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let json = args.iter().any(|a| a == "--json");
    let resume = args.iter().any(|a| a == "--resume");
    let baseline = args.iter().position(|a| a == "--baseline").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--baseline needs a path to a committed BENCH_perf.json");
            std::process::exit(2);
        }
        let path = args[i + 1].clone();
        args.drain(i..=i + 1);
        path
    });
    args.retain(|a| a != "--full" && a != "--json" && a != "--resume");
    let scale = if full { Scale::full() } else { Scale::scaled() };

    let usage = "usage: repro <list|all [--resume]|bench|trace ...|faults ...|recover ...|arena ... [--resume]|fleet ... [--resume]|experiment...> [--full] [--json] [--telemetry] [--baseline <file>]";
    if args.is_empty() && !json && baseline.is_none() {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    if args.first().is_some_and(|a| a == "help" || a == "--help") {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    if args.first().is_some_and(|a| a == "list") {
        for name in ALL_EXPERIMENTS.iter().chain(&SUBCOMMANDS) {
            println!("{name}");
        }
        return;
    }
    // Subcommands parse their own arguments. `--resume` was stripped
    // above, so it goes back to the two that checkpoint.
    let subcommand = match args.first().map(String::as_str) {
        Some("trace") => Some(run_trace_command(&args[1..], scale)),
        Some("faults") => Some(run_faults_command(&args[1..])),
        Some("recover") => Some(run_recover_command(&args[1..])),
        Some(name @ ("arena" | "fleet")) => {
            let mut rest = args[1..].to_vec();
            if resume {
                rest.push("--resume".to_string());
            }
            Some(if name == "arena" {
                run_arena_command(&rest)
            } else {
                run_fleet_command(&rest)
            })
        }
        _ => None,
    };
    if let Some(result) = subcommand {
        match result {
            Ok(out) => print!("{out}"),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
        return;
    }

    // The sub-commands above strip `--telemetry` themselves (the flag
    // flows to them inside `&args[1..]`); from here on it belongs to
    // the experiment runner. The env grammar was validated at startup,
    // so resolving the effective config cannot fail.
    let telemetry_flag = args.iter().any(|a| a == "--telemetry");
    args.retain(|a| a != "--telemetry");
    let telemetry = effective_config(telemetry_flag).expect("MOAT_TELEMETRY validated at startup");

    let all_mode = args.first().is_some_and(|a| a == "all");
    if resume && !all_mode {
        eprintln!("--resume only applies to `repro all`");
        std::process::exit(2);
    }
    let selected: Vec<String> = if all_mode {
        ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    // `repro all` checkpoints each experiment's output as it completes
    // (atomic tmp + rename), so a crashed sweep resumes with `--resume`
    // instead of starting over. A fresh `all` discards prior entries. A
    // broken checkpoint store is never fatal: the run degrades to
    // executing everything live.
    let checkpoint = if all_mode {
        let root = std::path::Path::new(".");
        let open = if resume {
            Checkpoint::open(root, scale)
        } else {
            Checkpoint::open_fresh(root, scale)
        };
        match open {
            Ok(cp) => Some(cp),
            Err(e) => {
                log::warn(
                    "repro",
                    format_args!("checkpoint store unavailable ({e}); running without resume"),
                );
                None
            }
        }
    } else {
        None
    };

    let mut failed = false;
    let mut bench_report = None;
    let mut tel_reg = MetricsRegistry::new();
    // Host wall time per experiment goes to stderr, so stdout stays
    // byte-comparable across runs.
    let took = |name: &str, start: Instant| {
        eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
    };
    for name in &selected {
        let start = Instant::now();
        if name == "bench" {
            let report = bench_perf(scale);
            println!("{}", report.summary());
            took(name, start);
            bench_report = Some(report);
            tel_reg.add("repro.experiments.run", 1);
            continue;
        }
        if resume {
            if let Some(out) = checkpoint.as_ref().and_then(|cp| cp.lookup(name)) {
                println!("{out}({name} resumed from checkpoint)");
                tel_reg.add("repro.experiments.resumed", 1);
                continue;
            }
        }
        match run_experiment(name, scale) {
            Some(out) => {
                println!("{out}");
                took(name, start);
                tel_reg.add("repro.experiments.run", 1);
                if let Some(cp) = &checkpoint {
                    match cp.record(name, &out) {
                        Ok(()) => tel_reg.add("repro.checkpoint.records", 1),
                        Err(e) => {
                            log::warn("repro", format_args!("could not checkpoint {name}: {e}"))
                        }
                    }
                }
            }
            None => {
                eprintln!("unknown experiment: {name}");
                tel_reg.add("repro.experiments.unknown", 1);
                failed = true;
            }
        }
    }

    if json || baseline.is_some() {
        // Reuse the benchmark if the selection already ran it.
        let report = bench_report.unwrap_or_else(|| {
            let report = bench_perf(scale);
            println!("{}", report.summary());
            report
        });
        if json {
            let path = "BENCH_perf.json";
            match write_atomic(path, &report.to_json()) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    failed = true;
                }
            }
        }
        if let Some(baseline_path) = baseline {
            match std::fs::read_to_string(&baseline_path) {
                Ok(baseline_json) => {
                    match report.check_regression(&baseline_json, MAX_PERF_REGRESSION) {
                        Ok(line) => println!("{line}"),
                        Err(msg) => {
                            eprintln!("{msg}");
                            failed = true;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("failed to read baseline {baseline_path}: {e}");
                    failed = true;
                }
            }
        }
    }
    // Telemetry rides after every canonical artifact (summaries, JSON
    // confirmation, smoke verdicts) so armed runs only ever *append*
    // to the disarmed output — CI byte-diffs of the artifacts above
    // are unaffected by arming.
    if telemetry.level != TelemetryLevel::Off {
        print!("{}", render_registry(&tel_reg, telemetry.sink));
    }
    if failed {
        std::process::exit(1);
    }
}
