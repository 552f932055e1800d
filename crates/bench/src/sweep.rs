//! The parallel sweep runner shared by every figure and table.
//!
//! Every experiment in the paper is a grid of independent cells. For the
//! performance tables a cell is a workload stream run under one MOAT
//! configuration ([`run_sweep`]); for the security figures it is one
//! attacker/configuration pair on [`SecuritySim`](moat_sim::SecuritySim)
//! (routed through [`run_cells`] by `security_experiments`). Both fan
//! their cells across cores with [`rayon`] — the performance sweeps after
//! precomputing the per-workload ALERT-free baselines (also in parallel,
//! since they are engine-independent and shared by every cell of a
//! profile). Results come back **in input order** regardless of
//! scheduling, and each cell is seeded identically to a serial run, so
//! every parallel sweep is bit-for-bit reproducible.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use moat_core::MoatConfig;
use moat_fleet::{panic_message, RetryPolicy};
use moat_sim::{PerfReport, SlotBudget};
use moat_workloads::WorkloadProfile;
use rayon::prelude::*;

use crate::perf_experiments::PerfLab;

/// One cell of a performance sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// The workload to stream.
    pub profile: &'static WorkloadProfile,
    /// The MOAT configuration under test.
    pub moat: MoatConfig,
    /// The REF-time mitigation budget.
    pub budget: SlotBudget,
}

impl SweepCell {
    /// A cell at the paper's default mitigation budget.
    pub fn new(profile: &'static WorkloadProfile, moat: MoatConfig) -> Self {
        SweepCell {
            profile,
            moat,
            budget: SlotBudget::paper_default(),
        }
    }
}

/// The outcome of one sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct SweepOutcome {
    /// The cell that produced this outcome.
    pub cell: SweepCell,
    /// Slowdown versus the ALERT-free baseline (≥ 0).
    pub slowdown: f64,
    /// The full performance report.
    pub report: PerfReport,
    /// Host wall-clock seconds spent simulating this cell.
    pub wall_seconds: f64,
}

impl SweepOutcome {
    /// Simulated activations per host second for this cell.
    pub fn acts_per_sec(&self) -> f64 {
        self.report.total_acts as f64 / self.wall_seconds.max(1e-9)
    }
}

/// Timing summary of a whole sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepStats {
    /// Wall-clock seconds for the whole sweep (baselines + cells).
    pub wall_seconds: f64,
    /// Sum of per-cell wall seconds (≈ what a serial run would cost).
    pub cell_seconds: f64,
    /// Total simulated activations across all cells.
    pub total_acts: u64,
    /// Worker threads used.
    pub threads: usize,
}

impl SweepStats {
    /// Aggregate simulated activations per host second.
    pub fn acts_per_sec(&self) -> f64 {
        self.total_acts as f64 / self.wall_seconds.max(1e-9)
    }
}

/// The crash-isolated outcome of one sweep cell.
///
/// Produced by [`try_run_cells`] (and `repro arena`'s queue): a cell
/// whose `run` closure panics is caught and retried under
/// [`RetryPolicy::sweep_default`] (deterministic backoff — a transient
/// cause gets a moment to clear); a cell that panics on every attempt
/// is reported here as [`CellOutcome::Failed`] instead of tearing down
/// the sibling workers. Outcomes come back in input order like every
/// other sweep result.
#[derive(Debug, Clone)]
pub enum CellOutcome<R> {
    /// The cell completed (possibly only on a retry).
    Ok {
        /// The attempt that succeeded (1 = the initial run; 0 = a
        /// `repro arena` cell replayed from its checkpoint, not run).
        attempts: u32,
        /// The cell's result.
        result: R,
    },
    /// The cell panicked on every attempt.
    Failed {
        /// Attempts made (the policy's `max_attempts`).
        attempts: u32,
        /// The panic payload, stringified when possible.
        message: String,
    },
}

impl<R> CellOutcome<R> {
    /// The result, if the cell completed.
    pub fn ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok { result, .. } => Some(result),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the cell failed both attempts.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }
}

/// Runs one cell crash-isolated: `run` executes under
/// [`std::panic::catch_unwind`], retried under
/// [`RetryPolicy::sweep_default`] — one retry after a deterministic
/// 50 ms backoff. This is the one isolation path of every `repro` grid:
/// [`try_run_cells`] fans it across the worker pool, and `repro arena`
/// calls it per cell on its own `--threads` queue.
pub(crate) fn isolate<R>(run: impl Fn() -> R) -> CellOutcome<R> {
    match RetryPolicy::sweep_default().run(|_| panic::catch_unwind(AssertUnwindSafe(&run))) {
        (Ok(result), attempts) => CellOutcome::Ok { attempts, result },
        (Err(payload), attempts) => CellOutcome::Failed {
            attempts,
            message: panic_message(payload),
        },
    }
}

/// FNV-1a over `bytes`, its offset basis XORed with `seed`: the one hash
/// behind per-cell fault seeds and checkpoint keys. Stable across
/// platforms and releases, unlike `std`'s hashers.
pub(crate) fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325 ^ seed, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Runs independent experiment cells in parallel with crash isolation,
/// returning per-cell outcomes in input order plus aggregate timing.
///
/// Each cell runs through `isolate`, so a panicking cell never kills
/// its sibling workers or loses their results. A crashed cell retries
/// once after a deterministic 50 ms backoff (a transient cause, an
/// evicted cache file or briefly exhausted resource, often clears); a
/// cell that panics on every attempt is marked [`CellOutcome::Failed`]
/// with the panic message. Failed cells contribute their wall time to
/// [`SweepStats::cell_seconds`] but no activations to `total_acts`.
///
/// `run` must be a pure function of the cell (each cell seeds its own
/// simulators), which keeps the parallel run bit-identical to a serial
/// loop over `cells` in order — including the retry, which re-runs the
/// same pure computation. Results are collected through the chunked
/// lock-free queue of the [`rayon`] shim, so ordering is deterministic
/// regardless of scheduling.
pub fn try_run_cells<C, R, F>(cells: Vec<C>, run: F) -> (Vec<(CellOutcome<R>, f64)>, SweepStats)
where
    C: Send + Clone,
    R: Send,
    F: Fn(C) -> (R, u64) + Sync,
{
    let start = Instant::now();
    let timed: Vec<(CellOutcome<R>, u64, f64)> = cells
        .into_par_iter()
        .map(|cell| {
            let cell_start = Instant::now();
            let (outcome, acts) = match isolate(|| run(cell.clone())) {
                CellOutcome::Ok {
                    attempts,
                    result: (result, acts),
                } => (CellOutcome::Ok { attempts, result }, acts),
                CellOutcome::Failed { attempts, message } => {
                    (CellOutcome::Failed { attempts, message }, 0)
                }
            };
            (outcome, acts, cell_start.elapsed().as_secs_f64())
        })
        .collect();

    let stats = SweepStats {
        wall_seconds: start.elapsed().as_secs_f64(),
        cell_seconds: timed.iter().map(|t| t.2).sum(),
        total_acts: timed.iter().map(|t| t.1).sum(),
        threads: rayon::current_num_threads(),
    };
    (timed.into_iter().map(|t| (t.0, t.2)).collect(), stats)
}

/// Runs independent experiment cells in parallel, returning results in
/// input order plus aggregate timing.
///
/// This is the one parallel harness behind every figure and table: `run`
/// maps a cell to `(result, simulated_acts)` — the activation count feeds
/// [`SweepStats`] — and must be a pure function of the cell (each cell
/// seeds its own simulators), which is what makes the parallel run
/// bit-identical to a serial loop over `cells` in order. Each result
/// comes back paired with its cell's wall-clock seconds (the same
/// measurements `cell_seconds` sums), so callers never need a second,
/// nested timer.
///
/// Cells run crash-isolated through [`try_run_cells`]: a panicking cell
/// is retried once and never interrupts its siblings. Because this
/// entry point promises a result for *every* cell, it re-raises after
/// the whole sweep completes if any cell still failed — with a message
/// naming each failed cell index and its panic text. Callers that want
/// to keep partial results use [`try_run_cells`] directly.
///
/// # Panics
///
/// After all cells have run, if any cell panicked on both attempts.
pub fn run_cells<C, R, F>(cells: Vec<C>, run: F) -> (Vec<(R, f64)>, SweepStats)
where
    C: Send + Clone,
    R: Send,
    F: Fn(C) -> (R, u64) + Sync,
{
    let (outcomes, stats) = try_run_cells(cells, run);
    let total = outcomes.len();
    let mut results = Vec::with_capacity(total);
    let mut failures = Vec::new();
    for (index, (outcome, wall_seconds)) in outcomes.into_iter().enumerate() {
        match outcome {
            CellOutcome::Ok { result, .. } => results.push((result, wall_seconds)),
            CellOutcome::Failed { attempts, message } => {
                failures.push(format!("cell {index} ({attempts} attempts): {message}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {total} sweep cells failed after retries:\n  {}",
        failures.len(),
        failures.join("\n  "),
    );
    (results, stats)
}

/// Derives a sweep's telemetry [`MetricsRegistry`](moat_telemetry::MetricsRegistry)
/// from its crash-isolated outcomes: cell start/retry/finish accounting
/// plus an attempt histogram. Outcomes arrive in input order, and
/// wall-clock measurements are deliberately excluded, so the registry —
/// and its render — is bit-identical across worker thread counts and
/// retried runs of the same cells.
pub fn cell_metrics<R>(
    outcomes: &[(CellOutcome<R>, f64)],
    stats: &SweepStats,
) -> moat_telemetry::MetricsRegistry {
    let mut reg = moat_telemetry::MetricsRegistry::new();
    reg.add("sweep.cells.started", outcomes.len() as u64);
    reg.add("sweep.acts", stats.total_acts);
    for (outcome, _wall) in outcomes {
        let attempts = match outcome {
            CellOutcome::Ok { attempts, .. } => {
                reg.add("sweep.cells.finished", 1);
                if *attempts > 1 {
                    reg.add("sweep.cells.retried", 1);
                }
                *attempts
            }
            CellOutcome::Failed { attempts, .. } => {
                reg.add("sweep.cells.failed", 1);
                *attempts
            }
        };
        reg.observe("sweep.cell.attempts", u64::from(attempts));
    }
    reg
}

/// Runs performance-sweep `cells` in parallel against `lab`, returning
/// outcomes in input order plus aggregate timing.
///
/// Baselines for every distinct profile are computed first (in
/// parallel); the cells then fan out across cores through
/// [`run_cells`]. Results are bit-identical to running each cell
/// serially in order.
pub fn run_sweep(lab: &mut PerfLab, cells: &[SweepCell]) -> (Vec<SweepOutcome>, SweepStats) {
    let start = Instant::now();

    let mut profiles: Vec<&'static WorkloadProfile> = cells.iter().map(|c| c.profile).collect();
    profiles.sort_by_key(|p| p.name);
    profiles.dedup_by_key(|p| p.name);
    lab.precompute_baselines(&profiles);

    let shared: &PerfLab = lab;
    let (timed, mut stats) = run_cells(cells.to_vec(), |cell| {
        let (slowdown, report) = shared.run_moat_shared(cell.profile, cell.moat, cell.budget);
        let outcome = SweepOutcome {
            cell,
            slowdown,
            report,
            wall_seconds: 0.0, // filled from the harness's measurement below
        };
        (outcome, report.total_acts)
    });
    let outcomes = timed
        .into_iter()
        .map(|(mut outcome, wall_seconds)| {
            outcome.wall_seconds = wall_seconds;
            outcome
        })
        .collect();
    // The sweep's wall clock includes the baseline precompute.
    stats.wall_seconds = start.elapsed().as_secs_f64();
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use moat_workloads::PROFILES;

    #[test]
    fn parallel_sweep_matches_serial_run() {
        let scale = Scale {
            banks: 1,
            windows: 1,
        };
        let cells: Vec<SweepCell> = PROFILES
            .iter()
            .take(4)
            .map(|p| SweepCell::new(p, MoatConfig::with_ath(64)))
            .collect();

        let mut lab = PerfLab::new(scale);
        let (parallel, stats) = run_sweep(&mut lab, &cells);

        let mut serial_lab = PerfLab::new(scale);
        for (cell, outcome) in cells.iter().zip(&parallel) {
            let (slowdown, report) = serial_lab.run_moat(cell.profile, cell.moat, cell.budget);
            assert_eq!(report, outcome.report, "cell {}", cell.profile.name);
            assert_eq!(slowdown.to_bits(), outcome.slowdown.to_bits());
        }
        assert_eq!(
            stats.total_acts,
            parallel.iter().map(|o| o.report.total_acts).sum::<u64>()
        );
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn run_cells_is_deterministic_and_ordered() {
        let cells: Vec<u32> = (0..64).collect();
        let (a, stats) = run_cells(cells.clone(), |c| (c * 7, u64::from(c)));
        let (b, _) = run_cells(cells.clone(), |c| (c * 7, u64::from(c)));
        let results = |v: &[(u32, f64)]| v.iter().map(|t| t.0).collect::<Vec<_>>();
        assert_eq!(results(&a), results(&b), "same cells, same results");
        assert_eq!(results(&a), cells.iter().map(|c| c * 7).collect::<Vec<_>>());
        assert_eq!(stats.total_acts, cells.iter().map(|&c| u64::from(c)).sum());
        // The per-cell walls the harness hands back are the ones
        // cell_seconds aggregates.
        let summed: f64 = a.iter().map(|t| t.1).sum();
        assert!((summed - stats.cell_seconds).abs() < 1e-12);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn poisoned_cell_is_isolated_retried_and_siblings_report() {
        use std::sync::atomic::{AtomicU32, Ordering};

        let poisoned_attempts = AtomicU32::new(0);
        let cells: Vec<u32> = (0..8).collect();
        let (outcomes, stats) = try_run_cells(cells, |c| {
            if c == 3 {
                poisoned_attempts.fetch_add(1, Ordering::SeqCst);
                panic!("poisoned cell {c}");
            }
            (c * 7, u64::from(c))
        });

        assert_eq!(outcomes.len(), 8, "every cell reports, poisoned included");
        assert_eq!(
            poisoned_attempts.load(Ordering::SeqCst),
            2,
            "poisoned cell is retried exactly once"
        );
        for (i, (outcome, wall)) in outcomes.iter().enumerate() {
            assert!(*wall >= 0.0);
            if i == 3 {
                match outcome {
                    CellOutcome::Failed { attempts, message } => {
                        assert_eq!(*attempts, 2);
                        assert!(message.contains("poisoned cell 3"), "got {message:?}");
                    }
                    CellOutcome::Ok { .. } => panic!("poisoned cell reported Ok"),
                }
            } else {
                match outcome {
                    CellOutcome::Ok { result, attempts } => {
                        assert_eq!(*result, (i as u32) * 7, "sibling result intact");
                        assert_eq!(*attempts, 1);
                    }
                    CellOutcome::Failed { message, .. } => {
                        panic!("sibling cell {i} killed by poisoned cell: {message}")
                    }
                }
            }
        }
        // The failed cell contributes wall time but no activations.
        assert_eq!(stats.total_acts, (0u64..8).sum::<u64>() - 3);
    }

    #[test]
    fn flaky_cell_succeeds_on_retry() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let first_attempt = AtomicBool::new(true);
        let (outcomes, stats) = try_run_cells(vec![42u32], |c| {
            if first_attempt.swap(false, Ordering::SeqCst) {
                panic!("transient failure");
            }
            (c, 5u64)
        });
        match &outcomes[0].0 {
            CellOutcome::Ok { result, attempts } => {
                assert_eq!(*result, 42);
                assert_eq!(*attempts, 2, "success on the retry is recorded as such");
            }
            CellOutcome::Failed { message, .. } => panic!("retry did not recover: {message}"),
        }
        assert_eq!(stats.total_acts, 5, "the successful retry's acts count");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(0, []), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(0, *b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(0, *b"foobar"), 0x8594_4171_F739_67E8);
        assert_ne!(fnv1a(1, *b"a"), fnv1a(0, *b"a"), "the seed moves the basis");
    }

    #[test]
    fn run_cells_reports_failures_only_after_all_siblings_complete() {
        use std::sync::atomic::{AtomicU32, Ordering};

        let siblings_done = AtomicU32::new(0);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run_cells((0..8u32).collect(), |c| {
                if c == 2 {
                    panic!("deliberate poison");
                }
                siblings_done.fetch_add(1, Ordering::SeqCst);
                (c, 0u64)
            })
        }));
        let message = panic_message(caught.expect_err("a poisoned cell must surface"));
        assert!(
            message.contains("1 of 8 sweep cells failed"),
            "got {message:?}"
        );
        assert!(message.contains("cell 2"), "got {message:?}");
        assert!(message.contains("deliberate poison"), "got {message:?}");
        assert_eq!(
            siblings_done.load(Ordering::SeqCst),
            7,
            "every sibling ran to completion before the failure surfaced"
        );
    }

    #[test]
    fn outcomes_preserve_cell_order() {
        let scale = Scale {
            banks: 1,
            windows: 1,
        };
        let cells: Vec<SweepCell> = PROFILES
            .iter()
            .take(6)
            .map(|p| SweepCell::new(p, MoatConfig::with_ath(128)))
            .collect();
        let mut lab = PerfLab::new(scale);
        let (outcomes, _) = run_sweep(&mut lab, &cells);
        for (cell, outcome) in cells.iter().zip(&outcomes) {
            assert_eq!(cell.profile.name, outcome.cell.profile.name);
        }
    }
}
