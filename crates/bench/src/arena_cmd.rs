//! `repro arena` — the cross-mitigation comparison arena.
//!
//! Runs every selected engine (each config-grid variant from the
//! [`registry`]) against the full attack battery plus a performance
//! workload and renders one comparison table: escaped ACTs (the max
//! hammer pressure any victim absorbed), ALERT rate, slowdown versus
//! an ALERT-free baseline, and the engine's SRAM cost. The engine list
//! comes from `--engines` (a comma-separated subset of registry
//! names), from [`registry::ENV_ENGINES`] when the flag is absent, and
//! defaults to the whole zoo.
//!
//! The rendered table is a determinism artifact: cells are independent
//! seeded simulations, results are assembled in input order, and every
//! float crosses the checkpoint boundary as `f64::to_bits` hex — so
//! the table is bit-identical across `--threads 1` and `--threads N`,
//! and across a run split by `--resume` (CI diffs exactly that).
//! Wall-clock chatter (replay counts, throughput) goes to stderr.
//!
//! `--resume` replays completed cells from
//! `.repro-checkpoint/arena-<key>/`, where the key fingerprints the
//! engine selection and the cell grid — a resume can never mix cells
//! from a different selection. A fresh run discards the store first.
//! Live cells run crash-isolated through the sweep harness (one retry),
//! on a queue of `--threads` workers, and are recorded as they finish.

use std::path::Path;
use std::time::Instant;

use moat_dram::{MitigationEngine, Nanos, NullEngine};
use moat_sim::{Hooks, PerfConfig, PerfSim, SecurityConfig, SecuritySim};
use moat_telemetry::{log, MetricsRegistry};
use moat_trackers::registry::{self, EngineSpec, EngineVariant};

use crate::checkpoint::Checkpoint;
use crate::faults_cmd::{attack, BATTERY};
use crate::perfbench::uniform_stream;
use crate::sweep::{fnv1a, isolate, CellOutcome};
use crate::telemetry_cli::{append_registry, effective_config, take_telemetry_flag};

/// Virtual time each security cell simulates.
const CELL_DURATION: Nanos = Nanos::from_millis(2);
/// Requests in each perf cell's stream (and its baseline's).
const PERF_REQUESTS: u32 = 30_000;
/// Banks in the perf cell's sub-channel.
const PERF_BANKS: u16 = 8;

/// One cell of the arena grid: a (engine, variant) pair against one
/// attack of the whole [`BATTERY`], or the variant's perf run
/// (`attack == "perf"`). Jailbreak and Ratchet carry engine-aware
/// self-models (they downcast to Panopticon and MOAT respectively);
/// against every other engine those models degrade to their
/// conservative engine-guaranteed tiers, which is exactly the
/// degradation this grid keeps honest.
#[derive(Debug, Clone, Copy)]
struct ArenaCell {
    spec: &'static EngineSpec,
    variant: &'static EngineVariant,
    attack: &'static str,
}

impl ArenaCell {
    /// The checkpoint entry name (unique across the grid).
    fn name(&self) -> String {
        format!("{}-{}-{}", self.spec.name, self.variant.label, self.attack)
    }
}

/// A completed cell's result, as stored in (and parsed back from) the
/// checkpoint record. Floats travel as `to_bits` hex so a replayed
/// cell is bit-identical to a live one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CellResult {
    Security {
        acts: u64,
        escaped: u32,
        epoch: u32,
        alerts: u64,
        rfms: u64,
    },
    Perf {
        slowdown_bits: u64,
        alerts: u64,
        acts: u64,
    },
}

impl CellResult {
    fn to_record(self) -> String {
        match self {
            CellResult::Security {
                acts,
                escaped,
                epoch,
                alerts,
                rfms,
            } => format!(
                "sec acts={acts} escaped={escaped} epoch={epoch} alerts={alerts} rfms={rfms}"
            ),
            CellResult::Perf {
                slowdown_bits,
                alerts,
                acts,
            } => format!("perf slowdown={slowdown_bits:016x} alerts={alerts} acts={acts}"),
        }
    }

    fn parse(record: &str) -> Option<CellResult> {
        let mut fields = record.split_whitespace();
        let kind = fields.next()?;
        let mut value = |key: &str, radix: u32| -> Option<u64> {
            let field = fields.next()?;
            let rest = field.strip_prefix(key)?.strip_prefix('=')?;
            u64::from_str_radix(rest, radix).ok()
        };
        match kind {
            "sec" => Some(CellResult::Security {
                acts: value("acts", 10)?,
                escaped: u32::try_from(value("escaped", 10)?).ok()?,
                epoch: u32::try_from(value("epoch", 10)?).ok()?,
                alerts: value("alerts", 10)?,
                rfms: value("rfms", 10)?,
            }),
            "perf" => Some(CellResult::Perf {
                slowdown_bits: value("slowdown", 16)?,
                alerts: value("alerts", 10)?,
                acts: value("acts", 10)?,
            }),
            _ => None,
        }
    }

    /// Simulated ACTs the cell executed, whichever kind it is.
    fn acts(self) -> u64 {
        match self {
            CellResult::Security { acts, .. } | CellResult::Perf { acts, .. } => acts,
        }
    }
}

/// Runs one cell live. The perf cell computes its own ALERT-free
/// baseline (engine-independent: with ALERTs disabled only REF timing
/// shapes completion), keeping every cell self-contained — a
/// prerequisite for arbitrary resume splits.
fn run_cell(cell: &ArenaCell) -> CellResult {
    if cell.attack == "perf" {
        let config = PerfConfig::paper_default().banks(PERF_BANKS);
        let base = PerfSim::new(config.alerts(false), || NullEngine)
            .run(uniform_stream(PERF_REQUESTS, PERF_BANKS))
            .completion_time;
        let report = PerfSim::new(config, || (cell.variant.build)())
            .run(uniform_stream(PERF_REQUESTS, PERF_BANKS));
        let slowdown =
            (report.completion_time.as_u64() as f64 / base.as_u64() as f64 - 1.0).max(0.0);
        CellResult::Perf {
            slowdown_bits: slowdown.to_bits(),
            alerts: report.alerts,
            acts: report.total_acts,
        }
    } else {
        let mut sim = SecuritySim::new(SecurityConfig::paper_default(), (cell.variant.build)());
        let r = attack(&mut sim, cell.attack, CELL_DURATION, Hooks::default());
        CellResult::Security {
            acts: r.total_acts,
            escaped: r.max_pressure,
            epoch: r.max_epoch,
            alerts: r.alerts,
            rfms: r.rfms,
        }
    }
}

/// Replays `cell` from the store when `resume` allows — an `Ok` with
/// zero attempts, since nothing ran — otherwise runs it live through
/// [`isolate`] and records the result.
fn supervise_cell(
    cell: &ArenaCell,
    store: Option<&Checkpoint>,
    resume: bool,
) -> CellOutcome<CellResult> {
    let name = cell.name();
    if resume {
        // A corrupt record falls through to a live re-run.
        if let Some(result) = store
            .and_then(|s| s.lookup(&name))
            .and_then(|r| CellResult::parse(&r))
        {
            return CellOutcome::Ok {
                attempts: 0,
                result,
            };
        }
    }
    let outcome = isolate(|| run_cell(cell));
    if let (Some(store), CellOutcome::Ok { result, .. }) = (store, &outcome) {
        if let Err(e) = store.record(&name, &result.to_record()) {
            log::warn(
                "arena",
                format_args!("could not checkpoint cell {name}: {e}"),
            );
        }
    }
    outcome
}

/// The parsed `repro arena` invocation.
#[derive(Debug, Clone)]
struct ArenaArgs {
    selection: Vec<&'static EngineSpec>,
    threads: usize,
    resume: bool,
}

/// Parses the arena flags, resolving the engine selection eagerly:
/// `--engines` wins, then [`registry::ENV_ENGINES`], then the whole
/// registry. A malformed selection from either source is an error
/// *here*, before any cell runs.
fn parse_args(args: &[String]) -> Result<ArenaArgs, String> {
    let mut engines: Option<Vec<&'static EngineSpec>> = None;
    let mut threads = rayon::current_num_threads();
    let mut resume = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--engines" => {
                engines = Some(registry::parse_selection(value_of("--engines")?)?);
            }
            "--threads" => {
                threads = value_of("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "--resume" => resume = true,
            other => {
                return Err(format!(
                    "unknown arena argument `{other}` \
                     (usage: repro arena [--engines a,b,...] [--threads T] [--resume] [--telemetry])"
                ))
            }
        }
    }
    let selection = match engines {
        Some(sel) => sel,
        None => {
            registry::selection_from_env()?.unwrap_or_else(|| registry::ENGINES.iter().collect())
        }
    };
    Ok(ArenaArgs {
        selection,
        threads,
        resume,
    })
}

/// The full cell grid for a selection, in canonical render order.
fn grid(selection: &[&'static EngineSpec]) -> Vec<ArenaCell> {
    let mut cells = Vec::new();
    for spec in selection {
        for variant in spec.variants {
            cells.push(ArenaCell {
                spec,
                variant,
                attack: "perf",
            });
            for attack in BATTERY {
                cells.push(ArenaCell {
                    spec,
                    variant,
                    attack,
                });
            }
        }
    }
    cells
}

/// FNV-1a over the grid's cell names, for the checkpoint key.
fn grid_fingerprint(cells: &[ArenaCell]) -> u64 {
    fnv1a(
        0,
        cells
            .iter()
            .flat_map(|c| c.name().into_bytes().into_iter().chain([b'\n'])),
    )
}

/// ALERTs per million ACTs, rendered from the integer pair (so a
/// replayed cell formats identically to a live one).
fn alert_rate(alerts: u64, acts: u64) -> String {
    if acts == 0 {
        return "-".to_string();
    }
    format!("{:.2}", alerts as f64 * 1_000_000.0 / acts as f64)
}

/// Renders the arena table from the outcomes, in grid order.
fn render(
    cells: &[ArenaCell],
    outcomes: &[CellOutcome<CellResult>],
    reg: &mut MetricsRegistry,
) -> String {
    let mut out = format!(
        "Cross-mitigation arena: engine x config x attack ({} ms virtual time per security cell, \
         {PERF_REQUESTS} requests per perf cell)\n",
        CELL_DURATION.as_u64() / 1_000_000,
    );
    for (cell, outcome) in cells.iter().zip(outcomes) {
        let result = match outcome {
            CellOutcome::Ok { result, .. } => *result,
            CellOutcome::Failed { message, .. } => {
                out.push_str(&format!(
                    "  {}/{} {}: FAILED: {message}\n",
                    cell.spec.name, cell.variant.label, cell.attack
                ));
                reg.add("arena.cells.failed", 1);
                continue;
            }
        };
        match result {
            CellResult::Perf {
                slowdown_bits,
                alerts,
                acts,
            } => {
                // The perf cell leads each variant block: name the
                // variant, its SRAM bill, and the workload slowdown.
                let sram = (cell.variant.build)().sram_bytes_per_bank();
                let slowdown = f64::from_bits(slowdown_bits);
                out.push_str(&format!(
                    "== {}/{}: sram {} B/bank | slowdown {:.2}% | alerts/Macts {}\n",
                    cell.spec.name,
                    cell.variant.label,
                    sram,
                    slowdown * 100.0,
                    alert_rate(alerts, acts),
                ));
                reg.gauge_max(
                    &format!("arena.{}.{}.sram_bytes", cell.spec.name, cell.variant.label),
                    sram as u64,
                );
            }
            CellResult::Security {
                acts,
                escaped,
                epoch,
                alerts,
                rfms,
            } => {
                out.push_str(&format!(
                    "  {:<11} | acts {:>7} | escaped {:>4} | epoch {:>4} | alerts/Macts {:>8} | rfms {:>4}\n",
                    cell.attack,
                    acts,
                    escaped,
                    epoch,
                    alert_rate(alerts, acts),
                    rfms,
                ));
                let key = format!(
                    "arena.{}.{}.{}",
                    cell.spec.name, cell.variant.label, cell.attack
                );
                reg.add(&format!("{key}.acts"), acts);
                reg.add(&format!("{key}.alerts"), alerts);
                reg.gauge_max(&format!("{key}.escaped"), u64::from(escaped));
            }
        }
    }
    out
}

/// Runs the arena over `selection` with an explicit worker count and
/// optional checkpoint store. Returns the rendered table, the telemetry
/// registry (whose `arena.cells.total` and `arena.cells.replayed`
/// counters carry the stderr accounting) and the simulated ACTs of every
/// completed cell — the perf benchmark's arena probe. The table and
/// registry are bit-identical for any `threads` and any resume split of
/// the same selection.
pub(crate) fn run_arena(
    selection: &[&'static EngineSpec],
    threads: usize,
    store: Option<&Checkpoint>,
    resume: bool,
) -> (String, MetricsRegistry, u64) {
    let cells = grid(selection);
    let outcomes = rayon::queue::chunked_map(
        cells.clone(),
        |cell| supervise_cell(&cell, store, resume),
        threads,
    );
    let mut acts = 0;
    let mut replayed = 0;
    for outcome in &outcomes {
        if let CellOutcome::Ok { attempts, result } = outcome {
            acts += result.acts();
            replayed += u64::from(*attempts == 0);
        }
    }
    let mut reg = MetricsRegistry::new();
    reg.add("arena.cells.total", cells.len() as u64);
    reg.add("arena.cells.replayed", replayed);
    let table = render(&cells, &outcomes, &mut reg);
    (table, reg, acts)
}

/// Runs `repro arena` and returns the deterministic table for stdout.
///
/// # Errors
///
/// Returns a usage/parse error message — including a malformed
/// `--engines` list or [`registry::ENV_ENGINES`] value — before any
/// cell has run.
pub fn run_arena_command(args: &[String]) -> Result<String, String> {
    let (rest, telemetry_flag) = take_telemetry_flag(args);
    let tel = effective_config(telemetry_flag)?;
    let parsed = parse_args(&rest)?;

    let cells = grid(&parsed.selection);
    let key = format!("arena-{:016x}", grid_fingerprint(&cells));
    let root = Path::new(".");
    let open = if parsed.resume {
        Checkpoint::open_named(root, &key)
    } else {
        Checkpoint::open_named_fresh(root, &key)
    };
    let store = match open {
        Ok(cp) => Some(cp),
        Err(e) => {
            log::warn(
                "arena",
                format_args!("arena checkpoint store unavailable ({e}); running without resume"),
            );
            None
        }
    };

    let started = Instant::now();
    let (table, reg, _) = run_arena(
        &parsed.selection,
        parsed.threads,
        store.as_ref(),
        parsed.resume,
    );
    eprintln!(
        "arena: {} cells ({} engines) on {} threads, {} replayed, {:.2}s wall",
        cells.len(),
        parsed.selection.len(),
        parsed.threads,
        reg.counter("arena.cells.replayed"),
        started.elapsed().as_secs_f64(),
    );
    Ok(append_registry(table, &reg, tel))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn subset(names: &str) -> Vec<&'static EngineSpec> {
        registry::parse_selection(names).unwrap()
    }

    #[test]
    fn parse_accepts_documented_flags() {
        let a = parse_args(&strings(&[
            "--engines",
            "moat,dsac",
            "--threads",
            "2",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(a.selection.len(), 2);
        assert_eq!(a.selection[1].name, "dsac");
        assert_eq!(a.threads, 2);
        assert!(a.resume);
    }

    #[test]
    fn parse_rejects_malformed_invocations() {
        assert!(
            parse_args(&strings(&["--engines"])).is_err(),
            "missing value"
        );
        assert!(
            parse_args(&strings(&["--engines", "tortuga"])).is_err(),
            "unknown engine"
        );
        assert!(
            parse_args(&strings(&["--engines", "moat,,dsac"])).is_err(),
            "empty item"
        );
        assert!(
            parse_args(&strings(&["--engines", "moat,moat"])).is_err(),
            "duplicate"
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
    fn default_selection_is_the_whole_zoo() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.selection.len(), registry::ENGINES.len());
    }

    #[test]
    fn record_roundtrip_is_lossless() {
        let cases = [
            CellResult::Security {
                acts: 123_456,
                escaped: 99,
                epoch: 64,
                alerts: 7,
                rfms: 31,
            },
            CellResult::Perf {
                slowdown_bits: 0.0123_f64.to_bits(),
                alerts: 2,
                acts: 30_000,
            },
        ];
        for case in cases {
            assert_eq!(CellResult::parse(&case.to_record()), Some(case));
        }
        assert_eq!(CellResult::parse("garbage"), None);
        assert_eq!(CellResult::parse("sec acts=1"), None, "truncated");
    }

    #[test]
    fn arena_is_bit_identical_across_thread_counts() {
        // The acceptance invariant: the new engines' tables must not
        // depend on worker scheduling.
        let sel = subset("abacus,comet,dsac,cnc-prac");
        let (one, _, _) = run_arena(&sel, 1, None, false);
        let (many, _, _) = run_arena(&sel, 4, None, false);
        assert_eq!(one, many);
        for spec in &sel {
            assert!(one.contains(spec.name), "missing engine {}", spec.name);
        }
        for attack in BATTERY {
            assert!(one.contains(attack), "missing attack {attack}");
        }
        assert!(!one.contains("FAILED"), "no cell should crash:\n{one}");
    }

    #[test]
    fn arena_resume_split_is_bit_identical() {
        let sel = subset("moat,cnc-prac");
        let root = std::env::temp_dir().join(format!("moat-arena-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Checkpoint::open_named(&root, "arena-split").unwrap();
        let (fresh, _, _) = run_arena(&sel, 2, Some(&store), false);

        // Simulate an interrupted run: drop half the recorded cells,
        // then resume. The table must come out byte-identical, with the
        // surviving half replayed rather than re-run.
        let completed = store.completed();
        assert_eq!(completed.len(), grid(&sel).len());
        for name in completed.iter().step_by(2) {
            std::fs::remove_file(
                root.join(crate::checkpoint::CHECKPOINT_DIR)
                    .join("arena-split")
                    .join(format!("{name}.out")),
            )
            .unwrap();
        }
        let (resumed, reg, _) = run_arena(&sel, 2, Some(&store), true);
        assert_eq!(fresh, resumed, "resume split must not change the artifact");
        assert_eq!(
            reg.counter("arena.cells.replayed") as usize,
            completed.len() - completed.len().div_ceil(2)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn moat_comet_table_is_pinned() {
        // CI's arena smoke diffs two runs of one build; this pins the
        // table's bytes (FNV-1a) across builds, so a change that moved
        // every run at once cannot pass unnoticed.
        let (table, _, _) = run_arena(&subset("moat,comet"), 2, None, false);
        let digest = fnv1a(0, table.bytes());
        assert_eq!(digest, 0x9685_6491_da90_fcce, "arena table moved:\n{table}");
    }

    #[test]
    fn moat_keeps_hammer_bounded_in_the_arena() {
        let sel = subset("moat");
        let (table, _, _) = run_arena(&sel, 1, None, false);
        let hammer = table
            .lines()
            .skip_while(|l| !l.starts_with("== moat/ath64"))
            .find(|l| l.trim_start().starts_with("hammer"))
            .expect("hammer row");
        let escaped: u32 = hammer
            .split('|')
            .find_map(|f| f.trim().strip_prefix("escaped"))
            .and_then(|v| v.trim().parse().ok())
            .expect("escaped field");
        assert!(escaped <= 99, "MOAT tolerates 99: {hammer}");
    }
}
