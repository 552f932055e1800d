//! Chaos tests: injected I/O failures and armed-but-empty fault plans
//! must never change results — only routes.
//!
//! * The trace cache degrades to live generation under record-time
//!   write errors (ENOSPC) and replay-time mmap failures, with
//!   bit-identical `PerfReport`s (and `SecurityReport`s untouched by
//!   the armed failpoints).
//! * An armed [`FaultInjector`] carrying an all-zero [`FaultPlan`]
//!   leaves the per-step and event-horizon security loops bit-identical
//!   to the disarmed build across random kernels × engines — the fault
//!   hooks are true no-ops at rate 0.
//!
//! The failpoint state is process-global, so every test that arms it
//! holds [`FAILPOINT_LOCK`] and disarms before releasing.

use std::sync::{Mutex, MutexGuard};

use moat_bench::{run_sweep, PerfLab, Scale, SweepCell};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{MitigationEngine, Nanos};
use moat_faults::{FaultInjector, FaultPlan};
use moat_sim::{round_robin_attacker, Hooks, Scripted, SecurityConfig, SecuritySim};
use moat_trace::failpoint::{self, IoFaultConfig};
use moat_trackers::{PanopticonConfig, PanopticonEngine};
use moat_workloads::WorkloadProfile;
use proptest::prelude::*;

/// Serializes tests that arm the process-global failpoints.
static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

fn lock_failpoints() -> MutexGuard<'static, ()> {
    FAILPOINT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moat-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_scale() -> Scale {
    Scale {
        banks: 1,
        windows: 1,
    }
}

/// Sweeps one profile's default cell through `lab` and a pure-live
/// reference, asserting bit-identical slowdown and report.
fn assert_matches_live(lab: &mut PerfLab, profile: &'static WorkloadProfile) {
    let mut live = PerfLab::new(tiny_scale());
    live.set_stream_cache_budget(0);
    let cell = [SweepCell::new(profile, MoatConfig::with_ath(64))];
    let (from_lab, _) = run_sweep(lab, &cell);
    let (from_live, _) = run_sweep(&mut live, &cell);
    assert_eq!(
        from_lab[0].report, from_live[0].report,
        "PerfReport must survive the fallback"
    );
    assert_eq!(
        from_lab[0].slowdown.to_bits(),
        from_live[0].slowdown.to_bits()
    );
}

#[test]
fn record_time_write_failure_falls_back_to_live() {
    let _guard = lock_failpoints();
    let dir = temp_dir("enospc");
    let profile = WorkloadProfile::by_name("x264").unwrap();

    failpoint::arm(IoFaultConfig {
        fail_writes_after: Some(0), // every trace write reports ENOSPC
        ..IoFaultConfig::default()
    });
    let before = failpoint::injected();

    let mut lab = PerfLab::new(tiny_scale());
    lab.set_stream_cache_budget(1); // nothing fits in memory
    lab.set_trace_dir(&dir).unwrap();
    assert_matches_live(&mut lab, profile);
    assert_eq!(lab.mapped_streams(), 0, "no stream can have spilled");
    assert!(
        failpoint::injected() > before,
        "the write failpoint must actually have fired"
    );

    failpoint::disarm();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_time_mmap_failure_falls_back_to_live() {
    let _guard = lock_failpoints();
    let dir = temp_dir("mmap");
    let profile = WorkloadProfile::by_name("tc").unwrap();

    // Record the trace with healthy I/O first.
    {
        let mut recorder = PerfLab::new(tiny_scale());
        recorder.set_stream_cache_budget(1);
        recorder.set_trace_dir(&dir).unwrap();
        recorder.load(&[profile]);
        assert_eq!(recorder.mapped_streams(), 1, "stream must spill to disk");
    }

    failpoint::arm(IoFaultConfig {
        fail_mmaps_after: Some(0), // every map attempt fails
        ..IoFaultConfig::default()
    });
    let before = failpoint::injected();

    let mut lab = PerfLab::new(tiny_scale());
    lab.set_stream_cache_budget(1);
    lab.set_trace_dir(&dir).unwrap();
    assert_matches_live(&mut lab, profile);
    assert_eq!(lab.mapped_streams(), 0, "no map can have succeeded");
    assert!(
        failpoint::injected() > before,
        "the mmap failpoint must actually have fired"
    );

    failpoint::disarm();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn armed_io_faults_leave_security_reports_untouched() {
    // The security simulator never touches the trace store; armed I/O
    // failpoints must not couple into its reports.
    let _guard = lock_failpoints();
    let duration = Nanos::from_millis(1);
    let run = || {
        let mut sim = SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(MoatEngine::new(MoatConfig::paper_default())) as Box<dyn MitigationEngine>,
        );
        sim.run_semi_scripted(&mut round_robin_attacker((0..8).collect()), duration)
    };
    let clean = run();
    failpoint::arm(IoFaultConfig {
        fail_writes_after: Some(0),
        fail_mmaps_after: Some(0),
        fail_reads_after: Some(0),
    });
    let chaotic = run();
    failpoint::disarm();
    assert_eq!(clean, chaotic);
}

fn boxed_engine(idx: usize) -> Box<dyn MitigationEngine> {
    match idx {
        0 => Box::new(MoatEngine::new(MoatConfig::paper_default())),
        _ => Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
    }
}

fn rows_per_bank() -> u32 {
    SecurityConfig::paper_default().dram.rows_per_bank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite invariant: arming an *empty* fault plan is a true
    /// no-op. Both loops, over scripted and adaptive attackers, stay
    /// bit-identical to their disarmed forms across random kernels ×
    /// engines, and the injector confirms nothing was injected.
    #[test]
    fn armed_empty_plan_is_bit_identical(
        seed in 0u64..u64::MAX,
        rows in prop::collection::vec(0u32..256, 1..24),
        engine_idx in 0usize..2,
        millis in 1u64..3,
    ) {
        let duration = Nanos::from_millis(millis);
        let config = SecurityConfig::paper_default();
        let plan = FaultPlan::none(seed);
        prop_assert!(plan.is_empty());

        // Scripted attacker, event-horizon loop.
        let mut clean = SecuritySim::new(config, boxed_engine(engine_idx));
        let r_clean = clean.run_semi_scripted(&mut round_robin_attacker(rows.clone()), duration);
        let mut armed = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut injector = FaultInjector::new(plan, rows_per_bank());
        let r_armed = armed.run_semi_scripted_with(
            &mut round_robin_attacker(rows.clone()),
            duration,
            Hooks::default().faults(&mut injector),
        );
        prop_assert_eq!(r_clean, r_armed, "scripted event-horizon run diverged");
        let stats = injector.stats();
        prop_assert_eq!(stats.seu_flips, 0);
        prop_assert_eq!(stats.dropped_rfms, 0);
        prop_assert_eq!(stats.lost_alerts, 0);
        prop_assert_eq!(stats.unsound_horizons, 0);

        // Per-step mode.
        let mut clean = SecuritySim::new(config, boxed_engine(engine_idx));
        let r_clean = clean.run(
            &mut Scripted::new(round_robin_attacker(rows.clone())),
            duration,
        );
        let mut armed = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut injector = FaultInjector::new(plan, rows_per_bank());
        let r_armed = armed.run_with(
            &mut Scripted::new(round_robin_attacker(rows.clone())),
            duration,
            Hooks::default().faults(&mut injector),
        );
        prop_assert_eq!(r_clean, r_armed, "per-step mode diverged");

        // Adaptive attacker (the deterministic feinting attacker),
        // event-horizon loop.
        let mut clean = SecuritySim::new(config, boxed_engine(engine_idx));
        let r_clean = clean.run_semi_scripted(
            &mut moat_attacks::FeintingAttacker::new(4, rows[0]),
            duration,
        );
        let mut armed = SecuritySim::new(config, boxed_engine(engine_idx));
        let mut injector = FaultInjector::new(plan, rows_per_bank());
        let r_armed = armed.run_semi_scripted_with(
            &mut moat_attacks::FeintingAttacker::new(4, rows[0]),
            duration,
            Hooks::default().faults(&mut injector),
        );
        prop_assert_eq!(r_clean, r_armed, "adaptive event-horizon run diverged");
    }
}
