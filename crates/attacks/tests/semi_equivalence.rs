//! Semi-scripted ≡ per-step equivalence for the adaptive attackers.
//!
//! The per-step [`Attacker`](moat_sim::Attacker) impls of Jailbreak,
//! Ratchet, Postponement, and Feinting are the bit-identical reference;
//! these proptests pin `SecuritySim::run_semi_scripted` over the
//! semi-scripted forms against `SecuritySim::run` over the per-step
//! forms across randomized attack parameters, defense shapes, and ABO
//! levels — in the style of the `batched_matches_per_step` suite for
//! scripts in `moat-sim`.

use moat_attacks::{FeintingAttacker, JailbreakAttacker, PostponementAttacker, RatchetAttacker};
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::{AboLevel, DramConfig, MitigationEngine, Nanos};
use moat_sim::{SecurityConfig, SecurityReport, SecuritySim, SlotBudget};
use moat_trackers::{IdealSramTracker, PanopticonConfig, PanopticonEngine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Jailbreak over random decoy counts × Panopticon queue depths ×
    /// queueing thresholds × pacing rates × ABO levels × both queue
    /// variants. Small queues and thresholds make overflow ALERTs (and
    /// drain-variant REF ALERTs) land inside and at the edges of
    /// published runs.
    #[test]
    fn jailbreak_semi_matches_per_step(
        decoys in 1usize..9,
        base in 1_000u32..50_000,
        spacing in 4u32..9,
        entries in 1usize..9,
        threshold in 8u32..160,
        acts_per_trefi in 1u32..48,
        level_idx in 0usize..3,
        drain_coin in 0u8..2,
        millis in 1u64..4,
    ) {
        let rows: Vec<u32> = (0..=decoys as u32).map(|i| base + spacing * i).collect();
        let pano = PanopticonConfig {
            queue_entries: entries,
            queue_threshold: threshold,
            drain_on_ref: drain_coin == 1,
        };
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = AboLevel::ALL[level_idx];
        let mk_attacker =
            || JailbreakAttacker::with_rows(rows.clone(), threshold, acts_per_trefi);

        let mut per_step = SecuritySim::new(cfg, PanopticonEngine::new(pano));
        let expect = per_step.run(&mut mk_attacker(), Nanos::from_millis(millis));
        let mut semi = SecuritySim::new(cfg, PanopticonEngine::new(pano));
        let got = semi.run_semi_scripted(&mut mk_attacker(), Nanos::from_millis(millis));
        prop_assert_eq!(got, expect);
    }

    /// Ratchet over random ATH × pool sizes × ABO levels × budgets
    /// against MOAT — the ledger/episode-keyed phases (priming repairs,
    /// pool growth behind the refresh pointer, min-count ratcheting)
    /// must vectorize without drift.
    #[test]
    fn ratchet_semi_matches_per_step(
        ath_idx in 0usize..3,
        pool in 4usize..96,
        level_idx in 0usize..3,
        budget_kind in 0u8..2,
        millis in 2u64..6,
    ) {
        let ath = [32u32, 64, 96][ath_idx];
        let level = AboLevel::ALL[level_idx];
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = level;
        cfg.budget = if budget_kind == 0 {
            SlotBudget::paper_default()
        } else {
            SlotBudget::per_aggressor(5, 2)
        };
        let engine = || {
            Box::new(MoatEngine::new(MoatConfig::with_ath(ath).level(level)))
                as Box<dyn MitigationEngine>
        };

        let mut per_step = SecuritySim::new(cfg, engine());
        let expect = per_step.run(&mut RatchetAttacker::new(ath, pool), Nanos::from_millis(millis));
        let mut semi = SecuritySim::new(cfg, engine());
        let got = semi
            .run_semi_scripted(&mut RatchetAttacker::new(ath, pool), Nanos::from_millis(millis));
        prop_assert_eq!(got, expect);
    }

    /// Postponement over random postponement budgets × thresholds against
    /// the drain-on-REF Panopticon — PostponeRef slots, batched align
    /// idles, and the enqueued-exposure hammer grants all on one
    /// trajectory.
    #[test]
    fn postponement_semi_matches_per_step(
        budget in 0u32..4,
        threshold in 32u32..200,
        row in 10_000u32..50_000,
        level_idx in 0usize..3,
        micros in 300u64..1500,
    ) {
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = AboLevel::ALL[level_idx];
        cfg.dram = DramConfig::builder().max_postponed_refs(budget).build();
        let engine = || PanopticonEngine::new(PanopticonConfig::drain_variant());

        let mut per_step = SecuritySim::new(cfg, engine());
        let expect = per_step.run(
            &mut PostponementAttacker::new(row, threshold),
            Nanos::from_micros(micros),
        );
        let mut semi = SecuritySim::new(cfg, engine());
        let got = semi.run_semi_scripted(
            &mut PostponementAttacker::new(row, threshold),
            Nanos::from_micros(micros),
        );
        prop_assert_eq!(got, expect);
    }

    /// Feinting over random pool sizes × mitigation rates with ALERTs
    /// disabled (the Table 2 configuration): the min-count heap
    /// vectorizes over full tREFI-sized grants.
    #[test]
    fn feinting_semi_matches_per_step(
        pool in 4usize..192,
        rate in 1u32..6,
        base in 20_000u32..50_000,
        millis in 1u64..5,
    ) {
        let mut cfg = SecurityConfig::paper_default();
        cfg.alerts_enabled = false;
        cfg.budget = SlotBudget::per_aggressor(5, rate);
        let engine = || Box::new(IdealSramTracker::new(65536)) as Box<dyn MitigationEngine>;

        let mut per_step = SecuritySim::new(cfg, engine());
        let expect = per_step.run(
            &mut FeintingAttacker::new(pool, base),
            Nanos::from_millis(millis),
        );
        let mut semi = SecuritySim::new(cfg, engine());
        let got = semi.run_semi_scripted(
            &mut FeintingAttacker::new(pool, base),
            Nanos::from_millis(millis),
        );
        prop_assert_eq!(got, expect);
    }
}

/// Runs `mk_sim`/`mk_attacker` in two chunks split at `split`, semi
/// against per-step, and returns the (identical) final report.
fn chunked_pair<E, A, F, G>(
    mk_sim: &F,
    mk_attacker: &G,
    split: Nanos,
    total: Nanos,
) -> SecurityReport
where
    E: MitigationEngine,
    A: moat_sim::Attacker + moat_sim::SemiScriptedAttacker,
    F: Fn() -> SecuritySim<E>,
    G: Fn() -> A,
{
    let mut per_step = mk_sim();
    let mut a = mk_attacker();
    per_step.run(&mut a, split);
    let expect = per_step.run(&mut a, total - split);

    let mut semi = mk_sim();
    let mut b = mk_attacker();
    semi.run_semi_scripted(&mut b, split);
    let got = semi.run_semi_scripted(&mut b, total - split);
    assert_eq!(got, expect, "split at {split}");
    expect
}

/// A run boundary landing on every edge of the ALERT episode state
/// machine — inside the activity window, at the stall point, inside each
/// RFM, and between RFMs — must resume through the per-RFM drain path
/// bit-identically, at every ABO level. A hammer against a low-ATH MOAT
/// asserts an episode every ~16 ACTs (≈ 830 ns), so a split grid walking
/// tRC/2 steps across an 8 µs stretch crosses every phase edge of many
/// episodes, for every level.
#[test]
fn semi_run_boundary_on_every_rfm_phase_edge() {
    for level in AboLevel::ALL {
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = level;
        let mk_sim = move || {
            SecuritySim::new(
                cfg,
                Box::new(MoatEngine::new(MoatConfig::with_ath(16).level(level)))
                    as Box<dyn MitigationEngine>,
            )
        };
        let mk_attacker = || moat_sim::hammer_attacker(20_000);

        // Sanity: the window we slice through must be dense in episodes.
        let probe = mk_sim().run_semi_scripted(&mut mk_attacker(), Nanos::from_micros(10));
        assert!(probe.alerts > 2, "{level}: probe alerts {}", probe.alerts);

        let total = Nanos::from_micros(60);
        let mut split = Nanos::from_micros(2);
        while split < Nanos::from_micros(10) {
            chunked_pair(&mk_sim, &mk_attacker, split, total);
            split += Nanos::new(26); // tRC/2: hits on- and off-edge points
        }
    }
}

/// The same boundary slicing driven by an *adaptive* semi-script: an
/// oversubscribed Jailbreak whose fill phase overflows a 4-entry queue in
/// a burst around 9–11 µs. The grid slices straight through that burst.
#[test]
fn jailbreak_semi_run_boundary_slicing_matches_per_step() {
    for level in [AboLevel::L1, AboLevel::L4] {
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = level;
        let rows: Vec<u32> = (0..24u32).map(|i| 20_000 + 6 * i).collect();
        let pano = PanopticonConfig {
            queue_entries: 4,
            queue_threshold: 8,
            drain_on_ref: false,
        };
        let mk_sim = || SecuritySim::new(cfg, PanopticonEngine::new(pano));
        let mk_attacker = || JailbreakAttacker::with_rows(rows.clone(), 8, 4);

        // Sanity: the slicing window must contain the overflow burst.
        let probe = mk_sim().run_semi_scripted(&mut mk_attacker(), Nanos::from_micros(14));
        assert!(probe.alerts > 2, "{level}: probe alerts {}", probe.alerts);

        let total = Nanos::from_micros(60);
        let mut split = Nanos::from_micros(8);
        while split < Nanos::from_micros(13) {
            chunked_pair(&mk_sim, &mk_attacker, split, total);
            split += Nanos::new(26);
        }
    }
}

/// Same phase-edge slicing for the MOAT-driven Ratchet run, whose
/// ratcheting phase lives entirely in the episode machinery (one ALERT
/// per handful of ACTs).
#[test]
fn ratchet_run_boundary_slicing_matches_per_step() {
    for level in [AboLevel::L1, AboLevel::L4] {
        let mut cfg = SecurityConfig::paper_default();
        cfg.abo_level = level;
        let engine = move || {
            Box::new(MoatEngine::new(MoatConfig::with_ath(32).level(level)))
                as Box<dyn MitigationEngine>
        };
        let mk_sim = || SecuritySim::new(cfg, engine());
        let mk_attacker = || RatchetAttacker::new(32, 24);

        let total = Nanos::from_millis(3);
        // The pool primes in the first ~1.5 ms; slice through the
        // episode-dense ratcheting stretch at sub-tRC resolution.
        let mut split = Nanos::from_micros(1_700);
        while split < Nanos::from_micros(1_703) {
            let report = chunked_pair(&mk_sim, &mk_attacker, split, total);
            assert!(report.alerts > 0, "{level}: slicing must cross episodes");
            split += Nanos::new(13);
        }
    }
}

/// The engine-aware self-models must degrade conservatively when their
/// downcast misses: Jailbreak probes the engine for Panopticon's queue
/// and Ratchet for MOAT's ledger, and against any other engine they
/// fall back to conservative grant caps. Against every engine in the
/// registry zoo, both attackers must complete without panicking, make
/// progress, and stay bit-identical between the semi-scripted and
/// per-step paths — i.e. the fallback never silently assumes the
/// MOAT/Panopticon internals it couldn't find.
#[test]
fn engine_aware_attackers_degrade_conservatively_across_the_zoo() {
    let cfg = SecurityConfig::paper_default();
    let horizon = Nanos::from_millis(1);
    for spec in moat_trackers::registry::ENGINES {
        let mk_sim = || SecuritySim::new(cfg, spec.build());

        let expect = mk_sim().run(&mut JailbreakAttacker::new(20_000), horizon);
        let got = mk_sim().run_semi_scripted(&mut JailbreakAttacker::new(20_000), horizon);
        assert_eq!(got, expect, "{}: jailbreak semi ≡ per-step", spec.name);
        assert!(
            got.total_acts > 0,
            "{}: jailbreak must make progress",
            spec.name
        );

        let expect = mk_sim().run(&mut RatchetAttacker::new(64, 32), horizon);
        let got = mk_sim().run_semi_scripted(&mut RatchetAttacker::new(64, 32), horizon);
        assert_eq!(got, expect, "{}: ratchet semi ≡ per-step", spec.name);
        assert!(
            got.total_acts > 0,
            "{}: ratchet must make progress",
            spec.name
        );
    }
}

/// Fig. 5 anchor: the deterministic Jailbreak result (1152 ACTs on the
/// attack row, no ALERTs) is reproduced bit-identically by the
/// semi-scripted path.
#[test]
fn jailbreak_semi_reproduces_fig5_anchor() {
    let mk_sim = || {
        SecuritySim::new(
            SecurityConfig::paper_default(),
            Box::new(PanopticonEngine::new(PanopticonConfig::paper_default())),
        )
    };
    let expect = mk_sim().run(&mut JailbreakAttacker::new(20_000), Nanos::from_millis(2));
    let got =
        mk_sim().run_semi_scripted(&mut JailbreakAttacker::new(20_000), Nanos::from_millis(2));
    assert_eq!(got, expect);
    assert!(got.max_pressure >= 1100, "got {}", got.max_pressure);
    assert_eq!(got.alerts, 0, "Jailbreak never overflows the queue");
}

/// Fig. 16 anchor: the postponement exposure (~328 ACTs at budget 2)
/// through the semi-scripted path.
#[test]
fn postponement_semi_reproduces_fig16_anchor() {
    let mut cfg = SecurityConfig::paper_default();
    cfg.dram = DramConfig::builder().max_postponed_refs(2).build();
    let mk_sim = || {
        SecuritySim::new(
            cfg,
            Box::new(PanopticonEngine::new(PanopticonConfig::drain_variant())),
        )
    };
    let expect = mk_sim().run(
        &mut PostponementAttacker::new(20_000, 128),
        Nanos::from_millis(1),
    );
    let got = mk_sim().run_semi_scripted(
        &mut PostponementAttacker::new(20_000, 128),
        Nanos::from_millis(1),
    );
    assert_eq!(got, expect);
    assert!(
        (300..=355).contains(&got.max_pressure),
        "got {}",
        got.max_pressure
    );
}

/// An ALERT asserted exactly at a published run boundary: Panopticon's
/// horizon (queue threshold distance) grants runs that end on precisely
/// the overflow ACT, so the fill phase of an oversubscribed Jailbreak
/// asserts at run boundaries over and over. Also pins that the episode
/// accounting (alerts, RFMs, drops at the stall point) survives the
/// boundary.
#[test]
fn alert_at_published_run_boundary_is_exact() {
    let rows: Vec<u32> = (0..48u32).map(|i| 30_000 + 6 * i).collect();
    let pano = PanopticonConfig {
        queue_entries: 2,
        queue_threshold: 4,
        drain_on_ref: false,
    };
    let mut cfg = SecurityConfig::paper_default();
    cfg.abo_level = AboLevel::L2;
    let mk_sim = || SecuritySim::new(cfg, PanopticonEngine::new(pano));
    let mk_attacker = || JailbreakAttacker::with_rows(rows.clone(), 4, 8);

    let expect = mk_sim().run(&mut mk_attacker(), Nanos::from_millis(1));
    let got = mk_sim().run_semi_scripted(&mut mk_attacker(), Nanos::from_millis(1));
    assert_eq!(got, expect);
    assert!(got.alerts > 5, "boundary ALERTs must fire: {}", got.alerts);
    // L2 issues two RFMs per episode; the attacker's Stop may cut the
    // final episode before its RFM phase drains (in both modes alike).
    assert!(
        got.rfms >= (got.alerts - 1) * 2,
        "rfms {} vs alerts {}",
        got.rfms,
        got.alerts
    );
}
