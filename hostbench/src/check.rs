//! Output checks that feed the `failed` / `attempted` counts.
//!
//! Nothing here compares against a golden digest, so a fidelity fix that
//! legitimately moves simulated numbers does not break the benchmark.
//! Three kinds of check:
//!
//! * the paper's headline cells (fixed inputs, paper-pinned outcomes);
//! * one seed-sampled cell per workload, re-run through the reference
//!   path (per-request `PerfSim`, per-step `SecuritySim`) and compared
//!   field by field;
//! * a digest of every cell's simulated outputs, which must repeat
//!   across repetitions and across worker-thread counts.

use moat_analysis::FeintingModel;
use moat_attacks::JailbreakAttacker;
use moat_core::{MoatConfig, MoatEngine};
use moat_dram::Nanos;
use moat_sim::{hammer_attacker, PerfReport, SecurityConfig, SecurityReport, SecuritySim};
use moat_trackers::{PanopticonConfig, PanopticonEngine};

/// FNV-1a, 64-bit: the digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a word in (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Every field of a [`PerfReport`], floats as raw bits, in declaration
/// order — the unit of field-by-field comparison and of digesting.
pub fn perf_fields(r: &PerfReport) -> [(&'static str, u64); 11] {
    [
        ("completion_time", r.completion_time.as_u64()),
        ("total_acts", r.total_acts),
        ("alerts", r.alerts),
        ("rfms", r.rfms),
        ("refs", r.refs),
        ("proactive_mitigations", r.proactive_mitigations),
        ("reactive_mitigations", r.reactive_mitigations),
        ("alerts_per_trefi", r.alerts_per_trefi.to_bits()),
        (
            "mitigations_per_bank_per_trefw",
            r.mitigations_per_bank_per_trefw.to_bits(),
        ),
        ("max_pressure", u64::from(r.max_pressure)),
        ("max_epoch", u64::from(r.max_epoch)),
    ]
}

/// Every field of a [`SecurityReport`], in declaration order.
pub fn security_fields(r: &SecurityReport) -> [(&'static str, u64); 10] {
    [
        ("max_pressure", u64::from(r.max_pressure)),
        ("max_pressure_row", u64::from(r.max_pressure_row.index())),
        ("max_epoch", u64::from(r.max_epoch)),
        ("total_acts", r.total_acts),
        ("alerts", r.alerts),
        ("rfms", r.rfms),
        ("refs", r.refs),
        ("proactive_mitigations", r.proactive_mitigations),
        ("reactive_mitigations", r.reactive_mitigations),
        ("elapsed", r.elapsed.as_u64()),
    ]
}

/// Folds a field list into `h`.
pub fn digest_fields(h: &mut Fnv, fields: &[(&'static str, u64)]) {
    for &(_, v) in fields {
        h.u64(v);
    }
}

/// `Ok` when both field lists agree, else the differing fields.
pub fn compare_fields(
    got: &[(&'static str, u64)],
    want: &[(&'static str, u64)],
) -> Result<(), String> {
    let diffs: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g.1 != w.1)
        .map(|(g, w)| format!("{}: {} vs reference {}", g.0, g.1, w.1))
        .collect();
    if diffs.is_empty() && got.len() == want.len() {
        Ok(())
    } else {
        Err(diffs.join(", "))
    }
}

/// One check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// `None` on success, else why it failed.
    pub failure: Option<String>,
}

/// The checks a run made.
#[derive(Debug, Default)]
pub struct Checks {
    list: Vec<Check>,
}

impl Checks {
    /// Records a verdict.
    pub fn record(&mut self, name: impl Into<String>, verdict: Result<(), String>) {
        self.list.push(Check {
            name: name.into(),
            failure: verdict.err(),
        });
    }

    /// Records a boolean condition with its explanation.
    pub fn expect(&mut self, name: impl Into<String>, ok: bool, detail: impl FnOnce() -> String) {
        let verdict = if ok { Ok(()) } else { Err(detail()) };
        self.record(name, verdict);
    }

    /// Checks made.
    pub fn attempted(&self) -> usize {
        self.list.len()
    }

    /// Checks that failed.
    pub fn failed(&self) -> usize {
        self.list.iter().filter(|c| c.failure.is_some()).count()
    }

    /// Every check, in the order made.
    pub fn all(&self) -> &[Check] {
        &self.list
    }
}

/// The paper's headline cells (fixed inputs, independent of the seed):
/// Jailbreak inflicts exactly 1152 ACTs on Panopticon t128 without an
/// ALERT (§3.2), MOAT ATH 64 holds a hammer at ≤ 99 with ALERTs firing
/// (§6), and the Feinting bound at the default rate is 2170..=2220
/// (Table 2).
pub fn headline_cells(checks: &mut Checks) {
    let mut sim = SecuritySim::new(
        SecurityConfig::paper_default(),
        PanopticonEngine::new(PanopticonConfig::paper_default()),
    );
    let jb = sim.run_semi_scripted(&mut JailbreakAttacker::new(20_000), Nanos::from_millis(2));
    checks.expect(
        "headline: Jailbreak = 1152 on Panopticon t128",
        jb.max_pressure == 1152 && jb.alerts == 0,
        || format!("max_pressure {} alerts {}", jb.max_pressure, jb.alerts),
    );

    let mut sim = SecuritySim::new(
        SecurityConfig::paper_default(),
        MoatEngine::new(MoatConfig::paper_default()),
    );
    let hammer = sim.run_batched(&mut hammer_attacker(31_000), Nanos::from_millis(4));
    checks.expect(
        "headline: MOAT ATH-64 hammer <= 99 with ALERTs",
        hammer.max_pressure <= 99 && hammer.alerts > 0,
        || {
            format!(
                "max_pressure {} alerts {}",
                hammer.max_pressure, hammer.alerts
            )
        },
    );

    let bound = FeintingModel::default().bound(4).trh_bound;
    checks.expect(
        "headline: Feinting bound in 2170..=2220",
        (2170..=2220).contains(&bound),
        || format!("bound {bound}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_cells_pass_at_this_commit() {
        let mut checks = Checks::default();
        headline_cells(&mut checks);
        assert_eq!(checks.attempted(), 3);
        assert_eq!(checks.failed(), 0, "{:?}", checks.all());
    }

    #[test]
    fn corrupted_perf_report_fails_the_field_check() {
        let report = PerfReport {
            completion_time: Nanos::new(1_000),
            total_acts: 10,
            alerts: 2,
            rfms: 2,
            refs: 1,
            proactive_mitigations: 0,
            reactive_mitigations: 2,
            alerts_per_trefi: 0.5,
            mitigations_per_bank_per_trefw: 3.0,
            max_pressure: 60,
            max_epoch: 60,
        };
        assert!(compare_fields(&perf_fields(&report), &perf_fields(&report)).is_ok());
        let mut corrupt = report;
        corrupt.alerts_per_trefi = 0.5000001;
        let err = compare_fields(&perf_fields(&corrupt), &perf_fields(&report)).unwrap_err();
        assert!(err.starts_with("alerts_per_trefi:"), "{err}");

        let mut checks = Checks::default();
        checks.record(
            "sampled cell",
            compare_fields(&perf_fields(&corrupt), &perf_fields(&report)),
        );
        assert_eq!(checks.failed(), 1);
    }

    #[test]
    fn digest_sees_every_field() {
        let report = SecurityReport {
            max_pressure: 90,
            max_pressure_row: moat_dram::RowId::new(4),
            max_epoch: 90,
            total_acts: 1000,
            alerts: 3,
            rfms: 3,
            refs: 20,
            proactive_mitigations: 4,
            reactive_mitigations: 3,
            elapsed: Nanos::new(50_000),
        };
        let base = {
            let mut h = Fnv::default();
            digest_fields(&mut h, &security_fields(&report));
            h.finish()
        };
        let mut corrupt = report;
        corrupt.refs += 1;
        let mut h = Fnv::default();
        digest_fields(&mut h, &security_fields(&corrupt));
        assert_ne!(h.finish(), base);
    }
}
