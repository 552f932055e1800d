//! Ablation studies beyond the paper's tables, each isolating one design
//! choice: the contiguous refresh order behind §4.3's safe reset
//! (`ablation-refresh`), the tracker class of Fig. 1a
//! (`ablation-trackers`), and §6.5's energy accounting (`energy`).

use moat_attacks::{BlacksmithAttacker, StraddleAttacker};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{DramConfig, MitigationEngine, Nanos, RefreshOrder};
use moat_sim::{SecurityConfig, SecuritySim, SlotBudget};
use moat_trackers::MisraGriesTracker;
use moat_workloads::{WorkloadStream, PROFILES};

use crate::perf_experiments::PerfLab;
use crate::sweep::{run_sweep, SweepCell};

/// Refresh-order ablation: §4.3's safe reset is only safe because the
/// sweep is spatially contiguous. A strided sweep leaves a group-leading
/// row's lower victims unrefreshed for ~half a tREFW, so the straddle
/// attack doubles the exposure even with the shadow counters in place.
pub fn ablation_refresh_order() -> String {
    let mut out =
        String::from("Ablation: refresh sweep order vs the straddle attack (safe reset, ATH 64)\n");
    for (label, order) in [
        ("contiguous (paper §4.3)", RefreshOrder::Contiguous),
        ("strided (stride 4097)", RefreshOrder::Strided(4097)),
    ] {
        let pressure = straddle_with_order(order);
        out.push_str(&format!(
            "  {label:<24}: max victim pressure = {pressure}\n"
        ));
    }
    out.push_str(
        "  (the shadow counters assume the trailing rows are the only exposed ones,\n   which holds only for a contiguous ascending sweep)\n",
    );
    out
}

fn straddle_with_order(order: RefreshOrder) -> u32 {
    let mut cfg = SecurityConfig::paper_default();
    cfg.dram = DramConfig::builder().refresh_order(order).build();
    cfg.budget = SlotBudget::disabled();
    let mut sim = SecuritySim::new(cfg, Box::new(MoatEngine::new(MoatConfig::paper_default())));
    // Row 2048 leads group 256; its lower victims live in group 255.
    // Under stride 4097 group 256 is refreshed at sweep position 256
    // (~1 ms) but group 255 only at position 4351 (~17 ms).
    let mut attacker = StraddleAttacker::new(2048, 64);
    sim.run(&mut attacker, Nanos::from_millis(3)).max_pressure
}

/// Tracker-class ablation (Fig. 1a): the Blacksmith-style decoy pattern
/// against a 4-entry SRAM tracker, a 32-entry one, and MOAT.
pub fn ablation_tracker_class() -> String {
    let mut out = String::from(
        "Ablation: tracker class vs Blacksmith-style thrashing (2 aggressors, 12 decoys)\n",
    );
    type EngineFactory = Box<dyn Fn() -> Box<dyn MitigationEngine>>;
    let designs: Vec<(&str, EngineFactory, bool)> = vec![
        (
            "misra-gries 4 entries",
            Box::new(|| Box::new(MisraGriesTracker::new(4, 16)) as Box<dyn MitigationEngine>),
            false,
        ),
        (
            "misra-gries 32 entries",
            Box::new(|| Box::new(MisraGriesTracker::new(32, 16)) as Box<dyn MitigationEngine>),
            false,
        ),
        (
            "MOAT (PRAC, ATH 64)",
            Box::new(|| {
                Box::new(MoatEngine::new(MoatConfig::paper_default())) as Box<dyn MitigationEngine>
            }),
            true,
        ),
    ];
    for (label, factory, alerts) in designs {
        let mut cfg = SecurityConfig::paper_default();
        cfg.alerts_enabled = alerts;
        let mut sim = SecuritySim::new(cfg, factory());
        let mut attack = BlacksmithAttacker::new(2, 12, 0xB5);
        let r = sim.run(&mut attack, Nanos::from_millis(4));
        out.push_str(&format!(
            "  {label:<22}: max aggressor activations = {}\n",
            r.max_epoch
        ));
    }
    out.push_str("  (in-SRAM tracking thrashes; in-DRAM counters cannot be evicted)\n");
    out
}

/// §6.5 energy accounting over the benign workloads' default cells.
pub fn energy(lab: &mut PerfLab) -> String {
    let model = moat_analysis::EnergyModel::paper_default();
    let dram = DramConfig::paper_baseline();
    let cells: Vec<SweepCell> = PROFILES
        .iter()
        .map(|p| SweepCell::new(p, MoatConfig::paper_default()))
        .collect();
    let mut act_overheads = Vec::new();
    for o in run_sweep(lab, &cells).0 {
        let baseline_acts = WorkloadStream::acts_per_bank_per_window(o.cell.profile, &dram) as f64;
        act_overheads.push(model.activation_overhead(
            o.report.mitigations_per_bank_per_trefw,
            5,
            baseline_acts,
        ));
    }
    let avg_act = act_overheads.iter().sum::<f64>() / act_overheads.len() as f64;
    format!(
        "Energy (§6.5): mitigation raises activations by {:.2}% on average\n  (paper: 2.3%); implied DRAM energy overhead {:.2}% (paper: <0.5%)\n",
        avg_act * 100.0,
        model.energy_overhead(avg_act) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_order_breaks_safe_reset() {
        let contiguous = straddle_with_order(RefreshOrder::Contiguous);
        let strided = straddle_with_order(RefreshOrder::Strided(4097));
        assert!(contiguous <= 70, "contiguous: {contiguous}");
        assert!(strided >= 120, "strided: {strided}");
    }
}
