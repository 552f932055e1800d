//! The self-healing shard supervisor.
//!
//! Every shard attempt runs on its own worker thread under
//! `catch_unwind`, watched by a deadline: the supervisor waits
//! [`FleetConfig::deadline`] for the attempt's result and treats
//! silence as a failure exactly like a panic. Failures retry under the
//! shared deterministic [`RetryPolicy`]; a shard that exhausts its
//! attempts is **quarantined** — its coverage is marked degraded in the
//! merged report and an incident is logged, but its siblings and the
//! run itself complete. The state machine per shard:
//!
//! ```text
//! running ──ok──────────────────────────▶ completed
//!    │ panic/timeout
//!    ▼
//! retrying ──ok──▶ recovered (incident: retry-recovered)
//!    │ attempts exhausted
//!    ▼
//! quarantined (incident: quarantined-crash | quarantined-stall)
//! ```
//!
//! Determinism: fates are drawn per shard from the seeded
//! [`FleetFaultPlan`] and shard results are pure
//! functions of `(config, shard)`, so the merged report is bit-identical
//! for any submission order, thread count, or resume-from-checkpoint
//! split — the chaos tests pin exactly that.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moat_dram::Nanos;
use moat_guard::RecoveryPlan;

use crate::faults::FleetFaultPlan;
use crate::report::{FleetReport, FleetStats};
use crate::retry::{panic_message, RetryPolicy};
use crate::shard::{run_shard, ShardReport};
use crate::topology::{FleetTopology, ShardId};

/// Configuration of a fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Physical shape: channels × DIMMs × ranks.
    pub topology: FleetTopology,
    /// Fleet-wide tenant count, striped across shards.
    pub tenants: u32,
    /// Request quota each tenant contributes to its shard's mux.
    pub acts_per_tenant: u32,
    /// Master seed for tenant streams and fault draws.
    pub seed: u64,
    /// Watchdog deadline per shard attempt.
    pub deadline: Duration,
    /// Injected latency for a slow-marked shard.
    pub slow_latency: Duration,
    /// Virtual duration of each shard's security-sim adversary run.
    pub security_window: Nanos,
    /// Max-pressure level above which a shard logs a blast-radius
    /// incident (clean MOAT keeps hammer pressure below 99).
    pub blast_threshold: u32,
    /// Retry policy for failed shard attempts.
    pub retry: RetryPolicy,
    /// Fleet- and engine-level fault injection.
    pub faults: FleetFaultPlan,
    /// Per-shard recovery policy: when set, every shard's security sim
    /// runs with an armed counter-integrity guard executing this plan,
    /// so transient tracker corruption is detected and recovered
    /// in-shard instead of surfacing as lost coverage.
    pub recovery: Option<RecoveryPlan>,
    /// Mitigation-engine mix, as `moat_trackers::registry` names. Shard
    /// `i` runs `engines[i % engines.len()]` — one name gives a
    /// homogeneous fleet, several stripe a heterogeneous one across the
    /// shards. `"moat"` keeps the monomorphized fast path; every other
    /// name is built through the registry (callers validate names
    /// eagerly; an unknown name panics inside the shard worker and
    /// quarantines that shard).
    pub engines: &'static [&'static str],
}

impl FleetConfig {
    /// A config with supervisor defaults: 2 s watchdog, 25 ms slow
    /// latency, 1 ms security window, blast threshold 256, the fleet
    /// retry policy, and no fault injection.
    pub fn new(topology: FleetTopology, tenants: u32, acts_per_tenant: u32, seed: u64) -> Self {
        FleetConfig {
            topology,
            tenants,
            acts_per_tenant,
            seed,
            deadline: Duration::from_secs(2),
            slow_latency: Duration::from_millis(25),
            security_window: Nanos::from_millis(1),
            blast_threshold: 256,
            retry: RetryPolicy::fleet_default(),
            faults: FleetFaultPlan::none(seed),
            recovery: None,
            engines: &["moat"],
        }
    }

    /// Replaces the fault plan (keeping its seed independent of the
    /// stream seed).
    #[must_use]
    pub fn with_faults(mut self, faults: FleetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the per-shard counter-integrity guard with `recovery`.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPlan) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Sets the engine mix striped across shards (registry names; see
    /// [`FleetConfig::engines`]).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    #[must_use]
    pub fn with_engines(mut self, engines: &'static [&'static str]) -> Self {
        assert!(!engines.is_empty(), "engine mix must not be empty");
        self.engines = engines;
        self
    }

    /// The engine name shard `index` runs.
    pub fn engine_of(&self, index: u32) -> &'static str {
        self.engines[index as usize % self.engines.len()]
    }
}

/// Terminal state of one shard after supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// First attempt succeeded.
    Completed,
    /// A retry succeeded after `attempts - 1` failures.
    Recovered {
        /// Total attempts made (≥ 2).
        attempts: u32,
    },
    /// All attempts failed; the shard's coverage is lost for this run.
    Quarantined {
        /// Why the final attempt failed.
        reason: QuarantineReason,
        /// Total attempts made.
        attempts: u32,
    },
}

/// Why a shard was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The worker panicked on every attempt.
    Crash,
    /// The watchdog deadline fired on the final attempt.
    Timeout,
}

/// One shard's supervision outcome: its state plus the report when any
/// attempt completed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Which shard.
    pub shard: ShardId,
    /// Terminal supervision state.
    pub state: ShardState,
    /// The completed report (`None` iff quarantined).
    pub report: Option<ShardReport>,
    /// The final attempt's failure message for quarantined shards.
    pub error: Option<String>,
    /// Whether the report was replayed from a checkpoint instead of
    /// computed live.
    pub replayed: bool,
}

/// A store of completed shard records for checkpoint/resume. Each
/// shard is recorded the moment it completes live, so a run killed
/// midway keeps every shard it finished. Only successful shards are
/// recorded — a quarantined shard re-runs on resume, because the
/// interruption may have *been* the failure.
pub trait ShardStore: Sync {
    /// The recorded line for `shard`, if any.
    fn lookup(&self, shard: u32) -> Option<String>;
    /// Durably records `record` for `shard`.
    fn record(&self, shard: u32, record: &str);
}

/// The fleet supervisor: runs every shard under watchdog + retry +
/// quarantine and merges the surviving reports.
#[derive(Debug, Clone, Copy)]
pub struct FleetSupervisor {
    config: FleetConfig,
}

impl FleetSupervisor {
    /// Creates a supervisor for `config`.
    pub fn new(config: FleetConfig) -> Self {
        FleetSupervisor { config }
    }

    /// The supervised configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the whole fleet with the ambient worker count and natural
    /// shard order.
    pub fn run(&self, store: Option<&dyn ShardStore>) -> (FleetReport, FleetStats) {
        let order: Vec<u32> = (0..self.config.topology.shards()).collect();
        self.run_with(&order, rayon::current_num_threads(), store)
    }

    /// Runs the fleet with an explicit submission `order` and worker
    /// `threads`. The merged report is bit-identical for every order
    /// permutation and thread count — outcomes are re-sorted by shard
    /// index before merging.
    pub fn run_with(
        &self,
        order: &[u32],
        threads: usize,
        store: Option<&dyn ShardStore>,
    ) -> (FleetReport, FleetStats) {
        let started = Instant::now();
        let config = self.config;
        let mut outcomes = rayon::queue::chunked_map(
            order.to_vec(),
            |index| supervise_shard(&config, index, store),
            threads.max(1),
        );
        outcomes.sort_by_key(|o| o.shard.index);
        let simulated_acts: u64 = outcomes
            .iter()
            .filter_map(|o| o.report.as_ref())
            .map(|r| r.perf_acts + r.security_acts)
            .sum();
        let report = FleetReport::merge(&config, &outcomes);
        let stats = FleetStats {
            wall_seconds: started.elapsed().as_secs_f64(),
            simulated_acts,
            threads,
        };
        (report, stats)
    }
}

/// Supervises one shard: checkpoint replay, then watched attempts under
/// [`FleetConfig::retry`], then classification into a [`ShardOutcome`].
/// A shard that completes live is recorded in `store` at once, so an
/// interrupted run keeps every shard finished before the interruption.
fn supervise_shard(
    config: &FleetConfig,
    index: u32,
    store: Option<&dyn ShardStore>,
) -> ShardOutcome {
    let shard = config.topology.shard(index);

    if let Some(record) = store.and_then(|s| s.lookup(index)) {
        // A corrupt record falls through to a live re-run.
        if let Some(report) = ShardReport::parse(&record).filter(|r| r.shard_index == index) {
            return ShardOutcome {
                shard,
                state: ShardState::Completed,
                report: Some(report),
                error: None,
                replayed: true,
            };
        }
    }

    let (result, attempts) = config
        .retry
        .run(|attempt| run_attempt(config, shard, attempt));
    match result {
        Ok(report) => {
            if let Some(store) = store {
                store.record(index, &report.to_record());
            }
            ShardOutcome {
                shard,
                state: if attempts == 1 {
                    ShardState::Completed
                } else {
                    ShardState::Recovered { attempts }
                },
                report: Some(report),
                error: None,
                replayed: false,
            }
        }
        Err(error) => {
            let fault = config.faults.shard_fault(index, config.retry.max_attempts);
            let reason = if fault.stall || error.starts_with("watchdog deadline") {
                QuarantineReason::Timeout
            } else {
                QuarantineReason::Crash
            };
            ShardOutcome {
                shard,
                state: ShardState::Quarantined { reason, attempts },
                report: None,
                error: Some(error),
                replayed: false,
            }
        }
    }
}

/// One watched attempt: the shard body runs on a dedicated thread; the
/// supervisor waits at most [`FleetConfig::deadline`] for its verdict.
/// A panic or a timeout is the attempt's `Err` message. A timed-out
/// worker is cancelled via a shared flag and detached — a genuinely
/// wedged worker cannot block its supervisor.
fn run_attempt(config: &FleetConfig, shard: ShardId, attempt: u32) -> Result<ShardReport, String> {
    let fault = config
        .faults
        .shard_fault(shard.index, config.retry.max_attempts);
    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let worker_cancel = Arc::clone(&cancel);
    let config = *config;

    let handle = std::thread::spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if fault.stall {
                // A stalled shard never answers; it only notices
                // cancellation. The watchdog is what ends this attempt.
                while !worker_cancel.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                panic!("stalled shard cancelled by watchdog");
            }
            if fault.slow {
                std::thread::sleep(config.slow_latency);
            }
            run_shard(&config, shard, &fault, attempt)
        }));
        let _ = tx.send(result.map_err(panic_message));
    });

    match rx.recv_timeout(config.deadline) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(_) => {
            cancel.store(true, Ordering::Relaxed);
            // Deliberately do not join: the worker may be wedged beyond
            // the cancellation point. It exits on its own or at process
            // end; the attempt is already charged as failed.
            Err(format!("watchdog deadline {:?} exceeded", config.deadline))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FleetTopology;
    use std::sync::Mutex;

    fn tiny_config() -> FleetConfig {
        let mut c = FleetConfig::new(FleetTopology::with_shards(4), 8, 48, 0xBEEF);
        c.retry = RetryPolicy {
            base_backoff: Duration::from_millis(0),
            ..RetryPolicy::fleet_default()
        };
        c
    }

    #[test]
    fn clean_fleet_completes_every_shard() {
        let (report, stats) = FleetSupervisor::new(tiny_config()).run_with(&[0, 1, 2, 3], 2, None);
        assert_eq!(report.completed, 4);
        assert_eq!(report.quarantined, 0);
        assert!(!report.degraded());
        assert!(stats.simulated_acts > 0);
    }

    #[test]
    fn report_is_identical_across_order_and_threads() {
        let sup = FleetSupervisor::new(tiny_config());
        let (a, _) = sup.run_with(&[0, 1, 2, 3], 1, None);
        let (b, _) = sup.run_with(&[3, 1, 0, 2], 4, None);
        assert_eq!(a.render(), b.render());
    }

    #[derive(Default)]
    struct MemStore(Mutex<std::collections::HashMap<u32, String>>);

    impl ShardStore for MemStore {
        fn lookup(&self, shard: u32) -> Option<String> {
            self.0.lock().unwrap().get(&shard).cloned()
        }
        fn record(&self, shard: u32, record: &str) {
            self.0.lock().unwrap().insert(shard, record.to_string());
        }
    }

    #[test]
    fn resume_replays_recorded_shards_bit_identically() {
        let sup = FleetSupervisor::new(tiny_config());
        let store = MemStore::default();
        // Seed the store with two shards' records, as if a prior run
        // was interrupted after completing them.
        let (full, _) = sup.run_with(&[0, 1, 2, 3], 2, Some(&store));
        assert_eq!(store.0.lock().unwrap().len(), 4);
        let partial = MemStore::default();
        for shard in [1u32, 2] {
            let record = store.lookup(shard).unwrap();
            partial.record(shard, &record);
        }
        let (resumed, _) = sup.run_with(&[0, 1, 2, 3], 2, Some(&partial));
        assert_eq!(resumed.render(), full.render());
        assert_eq!(partial.0.lock().unwrap().len(), 4, "live shards recorded");
    }

    /// A store that, when shard 3 is looked up, snapshots how many
    /// shards are already recorded.
    #[derive(Default)]
    struct SnapshotStore {
        inner: MemStore,
        recorded_before_3: Mutex<Option<usize>>,
    }

    impl ShardStore for SnapshotStore {
        fn lookup(&self, shard: u32) -> Option<String> {
            if shard == 3 {
                *self.recorded_before_3.lock().unwrap() = Some(self.inner.0.lock().unwrap().len());
            }
            self.inner.lookup(shard)
        }
        fn record(&self, shard: u32, record: &str) {
            self.inner.record(shard, record);
        }
    }

    #[test]
    fn each_shard_is_recorded_as_it_completes() {
        // One thread runs the shards in order, so an interruption while
        // shard 3 runs must find shards 0-2 already in the store.
        let store = SnapshotStore::default();
        FleetSupervisor::new(tiny_config()).run_with(&[0, 1, 2, 3], 1, Some(&store));
        assert_eq!(*store.recorded_before_3.lock().unwrap(), Some(3));
        assert_eq!(store.inner.0.lock().unwrap().len(), 4);
    }

    #[test]
    fn corrupt_checkpoint_record_falls_back_to_live_run() {
        let sup = FleetSupervisor::new(tiny_config());
        let clean = MemStore::default();
        let (expected, _) = sup.run_with(&[0, 1, 2, 3], 2, Some(&clean));
        let corrupt = MemStore::default();
        corrupt.record(0, "not a record");
        let (report, _) = sup.run_with(&[0, 1, 2, 3], 2, Some(&corrupt));
        assert_eq!(report.render(), expected.render());
    }
}
