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
//! The grid is {L1, L4} × {per-step, semi-scripted} × {MOAT, Panopticon}
//! × {hammer, round-robin, Feinting}. At L1 an ALERT episode is one RFM;
//! at L4 it is four, so the L4 rows also pin where the hooks run inside
//! an episode: the per-step loop keeps a boundary between its RFMs, and
//! the semi-scripted loop resolves the episode in one step. A digest may
//! only change together with a deliberate change to what the hooks
//! observe or inject.

use moat_attacks::FeintingAttacker;
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, MitigationEngine, Nanos};
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
    level: AboLevel,
    mode: Mode,
    engine_name: &str,
    mut attacker: A,
) -> u64 {
    let config = SecurityConfig {
        abo_level: level,
        ..SecurityConfig::paper_default()
    };
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

fn cell(level: AboLevel, mode: Mode, engine_name: &str, attack: &str) -> u64 {
    match attack {
        "hammer" => digest(level, mode, engine_name, hammer_attacker(5)),
        "round-robin" => digest(
            level,
            mode,
            engine_name,
            round_robin_attacker((0..16).map(|i| 2_000 + 2 * i).collect()),
        ),
        _ => digest(level, mode, engine_name, FeintingAttacker::new(16, 1_000)),
    }
}

#[test]
fn armed_hook_outputs_are_pinned() {
    use AboLevel::{L1, L4};
    use Mode::{PerStep, Semi};
    let pins: [(AboLevel, Mode, &str, &str, u64); 24] = [
        (L1, PerStep, "moat", "hammer", 0xd341_5538_a70f_e86a),
        (L1, PerStep, "moat", "round-robin", 0xc0af_76c1_752e_7f93),
        (L1, PerStep, "moat", "feinting", 0x2cf3_f578_2ec2_86ac),
        (L1, PerStep, "pano", "hammer", 0xea1d_e102_0b64_df08),
        (L1, PerStep, "pano", "round-robin", 0x5436_f9f7_b3b8_f3c8),
        (L1, PerStep, "pano", "feinting", 0x93eb_95b1_90c6_1130),
        (L1, Semi, "moat", "hammer", 0xbc5c_c233_b9e2_699e),
        (L1, Semi, "moat", "round-robin", 0xf260_94cb_8e70_dbc7),
        (L1, Semi, "moat", "feinting", 0x0138_65cb_3007_cdcb),
        (L1, Semi, "pano", "hammer", 0xfaf7_1358_2416_51da),
        (L1, Semi, "pano", "round-robin", 0xd78f_2f54_2916_7089),
        (L1, Semi, "pano", "feinting", 0xce36_308c_cd0a_506f),
        (L4, PerStep, "moat", "hammer", 0x248c_a1c3_3e8b_fe02),
        (L4, PerStep, "moat", "round-robin", 0x4c29_6fcf_95e6_a148),
        (L4, PerStep, "moat", "feinting", 0xb67c_ed3a_e4ce_9c63),
        (L4, PerStep, "pano", "hammer", 0x447b_a9ea_8bfc_5208),
        (L4, PerStep, "pano", "round-robin", 0xbf4b_3ca2_9ca1_7a90),
        (L4, PerStep, "pano", "feinting", 0x6286_8bc5_b6ae_1b4c),
        (L4, Semi, "moat", "hammer", 0x941e_f472_72a6_71cb),
        (L4, Semi, "moat", "round-robin", 0x744a_77f4_e33f_cece),
        (L4, Semi, "moat", "feinting", 0x59c9_5e51_d190_7f37),
        (L4, Semi, "pano", "hammer", 0xdc80_e159_8bed_c118),
        (L4, Semi, "pano", "round-robin", 0x1462_d43f_1629_32e0),
        (L4, Semi, "pano", "feinting", 0xd671_bd51_2748_60f5),
    ];
    let mut drift = Vec::new();
    for (level, mode, engine_name, attack, want) in pins {
        let got = cell(level, mode, engine_name, attack);
        if got != want {
            drift.push(format!(
                "{level}/{mode:?}/{engine_name}/{attack}: {got:#018x} (pinned {want:#018x})"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "armed hook output drifted:\n{}",
        drift.join("\n")
    );
}
