//! Telemetry's read-only contract, pinned: arming a [`PhaseProfile`] on
//! either security loop — the per-step loop or the event-horizon loop,
//! on either engine family — must not change a single bit of the report
//! the disarmed path produces, and two armed runs of the same cell must
//! record the same profile.

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{MitigationEngine, Nanos};
use moat_sim::{
    hammer_attacker, Hooks, NoTelemetry, Scripted, SecurityConfig, SecurityReport, SecuritySim,
    TelemetryHook,
};
use moat_telemetry::PhaseProfile;
use moat_trackers::{PanopticonConfig, PanopticonEngine};

fn moat_sim() -> SecuritySim<MoatEngine> {
    SecuritySim::new(
        SecurityConfig::paper_default(),
        MoatEngine::new(MoatConfig::paper_default()),
    )
}

fn pano_sim() -> SecuritySim<PanopticonEngine> {
    SecuritySim::new(
        SecurityConfig::paper_default(),
        PanopticonEngine::new(PanopticonConfig::paper_default()),
    )
}

const DURATION: Nanos = Nanos::from_millis(2);

/// Runs a hammer on the per-step loop, or on the event-horizon loop
/// when `semi` (scripted attackers ride the blanket impl), with
/// `telemetry` as the telemetry layer.
fn run<E: MitigationEngine, T: TelemetryHook>(
    mut sim: SecuritySim<E>,
    semi: bool,
    telemetry: T,
) -> SecurityReport {
    let hooks = Hooks::default().telemetry(telemetry);
    if semi {
        sim.run_semi_scripted_with(&mut hammer_attacker(30_000), DURATION, hooks)
    } else {
        sim.run_with(&mut Scripted::new(hammer_attacker(30_000)), DURATION, hooks)
    }
}

/// The profile an armed run of one cell records, after checking that
/// the armed report equals the disarmed one bit for bit and that the
/// profile attributed simulated time.
fn armed_profile<E: MitigationEngine>(sim: fn() -> SecuritySim<E>, semi: bool) -> PhaseProfile {
    let cell = format!("{} (semi: {semi})", std::any::type_name::<E>());
    let mut profile = PhaseProfile::new();
    let armed = run(sim(), semi, &mut profile);
    assert_eq!(
        run(sim(), semi, NoTelemetry),
        armed,
        "{cell}: report changed under telemetry"
    );
    assert!(profile.total_ns() > 0, "{cell}: no time was attributed");
    profile
}

/// Every (loop × engine) cell: the armed report equals the disarmed
/// report bit for bit.
#[test]
fn armed_tracer_never_changes_the_security_report() {
    for semi in [false, true] {
        armed_profile(moat_sim, semi);
        armed_profile(pano_sim, semi);
    }
}

/// Two armed runs of the same cell record equal profiles — and so equal
/// `Debug` renders, which the hooked pins digest. Telemetry is keyed to
/// sim time, never the host clock.
#[test]
fn armed_renders_are_bit_identical_across_runs() {
    for semi in [false, true] {
        assert_eq!(armed_profile(moat_sim, semi), armed_profile(moat_sim, semi));
        assert_eq!(armed_profile(pano_sim, semi), armed_profile(pano_sim, semi));
    }
}
