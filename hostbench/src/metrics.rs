//! The benchmark's metric catalogue: every metric's name, unit,
//! direction, and — for per-layer metrics — the end-to-end metric it
//! should move and on which workload. `BENCHMARK.json` lists the same
//! names, units and directions (pinned by a test).

use std::collections::BTreeMap;

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For per-layer metrics: the end-to-end metric it should move, on
    /// which workload. For end-to-end metrics: what it measures.
    pub note: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        note,
    }
}

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: [Def; 4] = [
    def(
        "wall_s",
        "s",
        "lower",
        "host wall time of one timed repetition, tracing off (median over repetitions)",
    ),
    def(
        "setup_s",
        "s",
        "lower",
        "host time before the first timed simulated ACT (median over set-ups)",
    ),
    def(
        "cpu_s",
        "s",
        "lower",
        "process user+sys CPU over one timed repetition (median)",
    ),
    def(
        "sim_acts_per_s",
        "1/s",
        "higher",
        "simulated ACTs per host second of wall_s (median)",
    ),
];

/// Per-layer metrics, reported by every workload from the traced run; a
/// layer a workload never calls reports 0.
pub const PER_LAYER: [Def; 40] = [
    def(
        "workloads.plan_s",
        "s",
        "lower",
        "setup_s on paper-perf/full-sweep; wall_s on fleet-serve",
    ),
    def(
        "workloads.emit_s",
        "s",
        "lower",
        "setup_s on paper-perf/full-sweep",
    ),
    def(
        "workloads.emit_reqs_per_s",
        "1/s",
        "higher",
        "setup_s on paper-perf/full-sweep",
    ),
    def("trace.write_s", "s", "lower", "setup_s on full-sweep"),
    def("trace.open_verify_s", "s", "lower", "setup_s on full-sweep"),
    def("trace.bytes", "B", "lower", "setup_s on full-sweep"),
    def(
        "trace.decode_reqs_per_s",
        "1/s",
        "higher",
        "wall_s on full-sweep",
    ),
    def(
        "perf.baseline_s",
        "s",
        "lower",
        "setup_s on paper-perf/full-sweep",
    ),
    def(
        "perf.loop_s",
        "s",
        "lower",
        "wall_s on paper-perf/full-sweep",
    ),
    def(
        "perf.host_ns_per_act",
        "ns",
        "lower",
        "wall_s on paper-perf/full-sweep",
    ),
    def(
        "perf.alerts",
        "count",
        "lower",
        "simulated, exact: moves only with the model",
    ),
    def(
        "engine.moat_perf_s",
        "s",
        "lower",
        "wall_s on paper-perf/full-sweep",
    ),
    def("engine.moat_s", "s", "lower", "wall_s on attack-zoo"),
    def("engine.panopticon_s", "s", "lower", "wall_s on attack-zoo"),
    def("engine.abacus_s", "s", "lower", "wall_s on attack-zoo"),
    def("engine.comet_s", "s", "lower", "wall_s on attack-zoo"),
    def("engine.dsac_s", "s", "lower", "wall_s on attack-zoo"),
    def("engine.cnc-prac_s", "s", "lower", "wall_s on attack-zoo"),
    def(
        "engine.share_feinting",
        "%",
        "lower",
        "wall_s on attack-zoo (feinting cells)",
    ),
    def(
        "engine.share_ratchet",
        "%",
        "lower",
        "wall_s on attack-zoo (ratchet cells)",
    ),
    def("attacks.publish_s", "s", "lower", "wall_s on attack-zoo"),
    def(
        "attacks.share_pct",
        "%",
        "lower",
        "wall_s on attack-zoo (semi-scripted cells)",
    ),
    def(
        "engine.wrapper_overhead_pct",
        "%",
        "lower",
        "none: cost of the timing wrapper itself",
    ),
    def("security.batched_s", "s", "lower", "wall_s on attack-zoo"),
    def("security.semi_s", "s", "lower", "wall_s on attack-zoo"),
    def(
        "security.host_ns_per_act",
        "ns",
        "lower",
        "wall_s on attack-zoo",
    ),
    def(
        "faults.armed_empty_overhead_pct",
        "%",
        "lower",
        "wall_s on attack-zoo/fleet-serve",
    ),
    def(
        "fleet.tenant_materialize_s",
        "s",
        "lower",
        "wall_s on fleet-serve",
    ),
    def("fleet.perf_pair_s", "s", "lower", "wall_s on fleet-serve"),
    def("fleet.security_s", "s", "lower", "wall_s on fleet-serve"),
    def("fleet.shard_p50_ms", "ms", "lower", "wall_s on fleet-serve"),
    def(
        "fleet.shard_max_ms",
        "ms",
        "lower",
        "wall_s on fleet-serve (the slowest shard sets it)",
    ),
    def("fleet.residual_s", "s", "lower", "wall_s on fleet-serve"),
    def(
        "sweep.cell_p50_ms",
        "ms",
        "lower",
        "wall_s on paper-perf/attack-zoo",
    ),
    def(
        "sweep.cell_p95_ms",
        "ms",
        "lower",
        "wall_s on paper-perf/attack-zoo",
    ),
    def(
        "sweep.idle_pct",
        "%",
        "lower",
        "wall_s on paper-perf/attack-zoo",
    ),
    def(
        "layers.residual_pct",
        "%",
        "lower",
        "none: traced wall time no layer span covers",
    ),
    def(
        "layers.tracing_overhead_pct",
        "%",
        "lower",
        "none: traced minus untraced wall, over untraced",
    ),
    def(
        "process.peak_rss_mb",
        "MiB",
        "lower",
        "none: peak resident set size of the traced run's process",
    ),
    def(
        "fidelity.slowdown_err_pp",
        "pp",
        "lower",
        "simulated, exact: paper-perf's mean |simulated - paper| slowdown",
    ),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (a catalogue name) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: `defs` in catalogue order, unmeasured ones as 0.
    pub fn json(&self, correct: bool, attempted: usize, failed: usize, defs: &[Def]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = compact.matches("\"better\":").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "no extra metrics"
        );
    }

    #[test]
    fn json_line_has_every_metric_and_the_counts() {
        let mut v = Values::default();
        v.set("wall_s", 1.25);
        let line = v.json(true, 10, 0, &END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
