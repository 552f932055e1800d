//! Absolute pins of *armed* hook output.
//!
//! The equivalence tests elsewhere compare two paths of one build, so a
//! change that moves a hook's call point, or the fault RNG's draw
//! order, in every path at once would pass all of them. These pins
//! catch that: each cell runs one attack against one engine with the
//! whole hook stack armed — an SEU + drop-RFM + lose-ALERT
//! [`FaultPlan`], a scrubbing [`EngineGuard`] with the conservative
//! fallback, and a [`PhaseProfile`] — and folds four outputs into one
//! FNV-1a digest:
//!
//! * the [`SecurityReport`](moat_sim::SecurityReport);
//! * [`FaultInjector::stats`];
//! * [`EngineGuard::stats`];
//! * the per-phase profile, as the name, units and nanoseconds of each
//!   phase that recorded any (the phases a summary line shows).
//!
//! The grid is {per-step, semi-scripted} × {MOAT, Panopticon} ×
//! {hammer, round-robin, Feinting}. A digest may only change together
//! with a deliberate change to what the hooks observe or inject.

use moat_attacks::FeintingAttacker;
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{MitigationEngine, Nanos};
use moat_faults::{FaultInjector, FaultPlan};
use moat_guard::{EngineGuard, RecoveryPlan};
use moat_sim::{
    hammer_attacker, round_robin_attacker, Attacker, Hooks, SecurityConfig, SecuritySim,
    SemiScriptedAttacker,
};
use moat_telemetry::{PhaseProfile, SimPhase};
use moat_trackers::{PanopticonConfig, PanopticonEngine};

const DURATION: Nanos = Nanos::from_millis(2);

/// Every fault kind the simulator injects at a boundary, an RFM, or an
/// assertion, at rates that fire many times inside [`DURATION`].
const PLAN: FaultPlan = FaultPlan {
    seed: 0x5EED_F00D,
    seu_rate: 2e-3,
    drop_rfm_rate: 0.1,
    lose_alert_rate: 0.1,
    stuck_rate: 0.0,
};

/// Scrub every 50 µs and force-mitigate every untrusted row.
const RECOVERY: RecoveryPlan = RecoveryPlan {
    scrub_interval_ns: 50_000,
    fallback: true,
};

#[derive(Debug, Clone, Copy)]
enum Mode {
    PerStep,
    Semi,
}

fn engine(name: &str) -> Box<dyn MitigationEngine> {
    match name {
        "moat" => Box::new(MoatEngine::new(MoatConfig::paper_default())),
        _ => Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
    }
}

/// Folds `text` into a running FNV-1a hash.
fn fnv(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs one armed cell and digests its four outputs.
fn digest<A: Attacker + SemiScriptedAttacker>(
    mode: Mode,
    engine_name: &str,
    mut attacker: A,
) -> u64 {
    let config = SecurityConfig::paper_default();
    let mut sim = SecuritySim::new(config, engine(engine_name));
    let mut faults = FaultInjector::new(PLAN, config.dram.rows_per_bank);
    let mut guard = EngineGuard::new(RECOVERY);
    assert!(
        guard.arm(sim.unit_mut()),
        "{engine_name} has no guard shadow"
    );
    let mut profile = PhaseProfile::new();
    let hooks = Hooks::default()
        .faults(&mut faults)
        .guard(&mut guard)
        .telemetry(&mut profile);
    let report = match mode {
        Mode::PerStep => sim.run_with(&mut attacker, DURATION, hooks),
        Mode::Semi => sim.run_semi_scripted_with(&mut attacker, DURATION, hooks),
    };
    assert!(report.total_acts > 0 && profile.total_ns() > 0);
    [
        format!("{report:?}"),
        format!("{:?}", faults.stats()),
        format!("{:?}", guard.stats()),
        SimPhase::ALL
            .iter()
            .filter(|&&phase| profile.units(phase) != 0 || profile.ns(phase) != 0)
            .map(|&phase| {
                let (units, ns) = (profile.units(phase), profile.ns(phase));
                format!("{} {units} {ns}\n", phase.name())
            })
            .collect(),
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325, |h, part| fnv(h, part))
}

fn cell(mode: Mode, engine_name: &str, attack: &str) -> u64 {
    match attack {
        "hammer" => digest(mode, engine_name, hammer_attacker(5)),
        "round-robin" => digest(
            mode,
            engine_name,
            round_robin_attacker((0..16).map(|i| 2_000 + 2 * i).collect()),
        ),
        _ => digest(mode, engine_name, FeintingAttacker::new(16, 1_000)),
    }
}

#[test]
fn armed_hook_outputs_are_pinned() {
    let pins: [(Mode, &str, &str, u64); 12] = [
        (Mode::PerStep, "moat", "hammer", 0xd341_5538_a70f_e86a),
        (Mode::PerStep, "moat", "round-robin", 0xc0af_76c1_752e_7f93),
        (Mode::PerStep, "moat", "feinting", 0x2cf3_f578_2ec2_86ac),
        (Mode::PerStep, "pano", "hammer", 0xea1d_e102_0b64_df08),
        (Mode::PerStep, "pano", "round-robin", 0x5436_f9f7_b3b8_f3c8),
        (Mode::PerStep, "pano", "feinting", 0x93eb_95b1_90c6_1130),
        (Mode::Semi, "moat", "hammer", 0xbc5c_c233_b9e2_699e),
        (Mode::Semi, "moat", "round-robin", 0xf260_94cb_8e70_dbc7),
        (Mode::Semi, "moat", "feinting", 0x0138_65cb_3007_cdcb),
        (Mode::Semi, "pano", "hammer", 0xfaf7_1358_2416_51da),
        (Mode::Semi, "pano", "round-robin", 0xd78f_2f54_2916_7089),
        (Mode::Semi, "pano", "feinting", 0xce36_308c_cd0a_506f),
    ];
    let mut drift = Vec::new();
    for (mode, engine_name, attack, want) in pins {
        let got = cell(mode, engine_name, attack);
        if got != want {
            drift.push(format!(
                "{mode:?}/{engine_name}/{attack}: {got:#018x} (pinned {want:#018x})"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "armed hook output drifted:\n{}",
        drift.join("\n")
    );
}
