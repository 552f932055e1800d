//! The central engine registry: one table mapping engine names to
//! constructors and per-engine config grids.
//!
//! Every surface that selects engines by name — the `repro faults` and
//! `repro recover` sweeps, the cross-mitigation `repro arena`, and the
//! fleet's heterogeneous shard configs — resolves through this module
//! instead of keeping its own `match` over engine names. Adding an
//! engine is therefore one [`EngineSpec`] entry here (plus the engine
//! itself); every sweep, the arena grid, and the CLI validation pick
//! it up automatically.
//!
//! Constructors are plain `fn` pointers over fixed configurations, so
//! a registry build is deterministic: the same name always yields a
//! bit-identical engine (DSAC's stochastic path is seeded by its
//! config, which is part of the spec).

use moat_core::{MoatConfig, MoatEngine};
use moat_dram::MitigationEngine;

use crate::{
    AbacusConfig, AbacusEngine, CncPracConfig, CncPracEngine, CometConfig, CometEngine, DsacConfig,
    DsacEngine, PanopticonConfig, PanopticonEngine,
};

/// A nullary engine constructor. Plain function pointers keep the
/// registry `const`-constructible and trivially `Send + Sync`.
pub type BuildFn = fn() -> Box<dyn MitigationEngine>;

/// One configuration point of an engine's grid.
#[derive(Debug, Clone, Copy)]
pub struct EngineVariant {
    /// Grid label (unique within the engine), e.g. `"default"`.
    pub label: &'static str,
    /// Constructs the engine at this configuration.
    pub build: BuildFn,
}

/// A registered engine: its selection name, a one-line summary, and
/// its config grid (`variants[0]` is the canonical default).
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// The name sweeps and CLIs select this engine by.
    pub name: &'static str,
    /// One-line description for listings.
    pub summary: &'static str,
    /// The config grid; never empty, `variants[0]` is the default.
    pub variants: &'static [EngineVariant],
}

impl EngineSpec {
    /// Builds the engine at its default configuration.
    pub fn build(&self) -> Box<dyn MitigationEngine> {
        (self.variants[0].build)()
    }
}

fn moat_default() -> Box<dyn MitigationEngine> {
    Box::new(MoatEngine::new(MoatConfig::paper_default()))
}
fn moat_ath128() -> Box<dyn MitigationEngine> {
    Box::new(MoatEngine::new(MoatConfig::with_ath(128)))
}
fn panopticon_default() -> Box<dyn MitigationEngine> {
    Box::new(PanopticonEngine::new(PanopticonConfig::paper_default()))
}
fn panopticon_drain() -> Box<dyn MitigationEngine> {
    Box::new(PanopticonEngine::new(PanopticonConfig::drain_variant()))
}
fn abacus_default() -> Box<dyn MitigationEngine> {
    Box::new(AbacusEngine::new(AbacusConfig::paper_default()))
}
fn abacus_small() -> Box<dyn MitigationEngine> {
    Box::new(AbacusEngine::new(AbacusConfig::small_table()))
}
fn comet_default() -> Box<dyn MitigationEngine> {
    Box::new(CometEngine::new(CometConfig::paper_default()))
}
fn comet_narrow() -> Box<dyn MitigationEngine> {
    Box::new(CometEngine::new(CometConfig::narrow()))
}
fn dsac_default() -> Box<dyn MitigationEngine> {
    Box::new(DsacEngine::new(DsacConfig::paper_default()))
}
fn dsac_tiny() -> Box<dyn MitigationEngine> {
    Box::new(DsacEngine::new(DsacConfig::tiny_table()))
}
fn cnc_prac_default() -> Box<dyn MitigationEngine> {
    Box::new(CncPracEngine::new(CncPracConfig::paper_default()))
}
fn cnc_prac_low() -> Box<dyn MitigationEngine> {
    Box::new(CncPracEngine::new(CncPracConfig::low_threshold()))
}

/// Every registered engine, in the canonical comparison order.
pub const ENGINES: &[EngineSpec] = &[
    EngineSpec {
        name: "moat",
        summary: "per-row activation counters with ETH/ATH episodes (the paper)",
        variants: &[
            EngineVariant {
                label: "ath64",
                build: moat_default,
            },
            EngineVariant {
                label: "ath128",
                build: moat_ath128,
            },
        ],
    },
    EngineSpec {
        name: "panopticon",
        summary: "8-entry FIFO of threshold crossings, ALERT on overflow",
        variants: &[
            EngineVariant {
                label: "t128",
                build: panopticon_default,
            },
            EngineVariant {
                label: "drain",
                build: panopticon_drain,
            },
        ],
    },
    EngineSpec {
        name: "abacus",
        summary: "all-bank shared activation counters (RAC table)",
        variants: &[
            EngineVariant {
                label: "512c",
                build: abacus_default,
            },
            EngineVariant {
                label: "128c",
                build: abacus_small,
            },
        ],
    },
    EngineSpec {
        name: "comet",
        summary: "count-min-sketch row tracking with counter reset",
        variants: &[
            EngineVariant {
                label: "4x256",
                build: comet_default,
            },
            EngineVariant {
                label: "4x64",
                build: comet_narrow,
            },
        ],
    },
    EngineSpec {
        name: "dsac",
        summary: "stochastic-replacement approximate counting (seeded)",
        variants: &[
            EngineVariant {
                label: "16e",
                build: dsac_default,
            },
            EngineVariant {
                label: "4e",
                build: dsac_tiny,
            },
        ],
    },
    EngineSpec {
        name: "cnc-prac",
        summary: "coalescing service queue over PRAC counters",
        variants: &[
            EngineVariant {
                label: "t128",
                build: cnc_prac_default,
            },
            EngineVariant {
                label: "t64",
                build: cnc_prac_low,
            },
        ],
    },
];

/// All registered engine names, in comparison order.
pub fn names() -> Vec<&'static str> {
    ENGINES.iter().map(|s| s.name).collect()
}

/// Looks up an engine by its selection name.
pub fn spec(name: &str) -> Option<&'static EngineSpec> {
    ENGINES.iter().find(|s| s.name == name)
}

/// Builds an engine by name at its default configuration.
pub fn build(name: &str) -> Option<Box<dyn MitigationEngine>> {
    spec(name).map(EngineSpec::build)
}

/// Parses a comma-separated engine selection (`"moat,comet"`) against
/// the registry. Rejects unknown names, empty items, and duplicates —
/// eagerly, with messages that name the valid choices.
pub fn parse_selection(list: &str) -> Result<Vec<&'static EngineSpec>, String> {
    let mut selected: Vec<&'static EngineSpec> = Vec::new();
    for item in list.split(',') {
        let item = item.trim();
        if item.is_empty() {
            return Err(format!(
                "empty engine name in selection {list:?} (expected a comma-separated subset of: {})",
                names().join(", ")
            ));
        }
        let Some(spec) = spec(item) else {
            return Err(format!(
                "unknown engine {item:?} (known engines: {})",
                names().join(", ")
            ));
        };
        if selected.iter().any(|s| s.name == spec.name) {
            return Err(format!("engine {item:?} selected twice"));
        }
        selected.push(spec);
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_builds_every_variant_with_unique_names() {
        let mut seen = Vec::new();
        for spec in ENGINES {
            assert!(!seen.contains(&spec.name), "duplicate name {}", spec.name);
            seen.push(spec.name);
            assert!(!spec.variants.is_empty(), "{}: empty grid", spec.name);
            let mut labels = Vec::new();
            for v in spec.variants {
                assert!(!labels.contains(&v.label), "{}: dup label", spec.name);
                labels.push(v.label);
                let engine = (v.build)();
                assert!(!engine.name().is_empty());
                assert!(
                    engine.min_acts_to_alert() >= 1,
                    "{}: idle engines promise",
                    spec.name
                );
            }
        }
        assert_eq!(seen.len(), 6, "moat + panopticon + four new engines");
    }

    #[test]
    fn registry_builds_are_deterministic() {
        // Same name, same engine — including DSAC's seeded draw stream.
        use moat_dram::{ActCount, RowId};
        for spec in ENGINES {
            let mut a = spec.build();
            let mut b = spec.build();
            for i in 0..3000u32 {
                let row = RowId::new(i % 23);
                let count = ActCount::new(i / 23 + 1);
                a.on_precharge_update(row, count);
                b.on_precharge_update(row, count);
                assert_eq!(a.alert_pending(), b.alert_pending(), "{}", spec.name);
                assert_eq!(
                    a.min_acts_to_alert(),
                    b.min_acts_to_alert(),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn selection_parses_known_subsets() {
        let sel = parse_selection("moat,cnc-prac").unwrap();
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].name, "moat");
        assert_eq!(sel[1].name, "cnc-prac");
        // Whitespace is tolerated around items.
        assert_eq!(parse_selection(" comet , dsac ").unwrap().len(), 2);
    }

    #[test]
    fn selection_rejects_malformed_lists() {
        for bad in ["", "moat,", ",moat", "moat,,comet", "tortuga", "moat,moat"] {
            assert!(parse_selection(bad).is_err(), "accepted {bad:?}");
        }
    }
}
