//! The `MOAT_TELEMETRY` configuration: whether to print the metrics
//! registry and how to render it. Same `key=value` grammar, eager
//! validation, and `Display`-round-trips-through-`parse` contract as
//! `MOAT_FAULTS`.

use std::fmt;

use moat_dram::env;

use crate::metrics::MetricsRegistry;

/// How a telemetry artifact is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetrySink {
    /// Deterministic human-readable text (the default).
    #[default]
    Text,
    /// Deterministic JSON (sorted keys, integer values).
    Json,
}

impl TelemetrySink {
    /// The grammar token for this sink.
    pub fn name(self) -> &'static str {
        match self {
            TelemetrySink::Text => "text",
            TelemetrySink::Json => "json",
        }
    }

    /// `reg` rendered for this sink, newline-terminated so callers can
    /// append it directly.
    pub fn render(self, reg: &MetricsRegistry) -> String {
        match self {
            TelemetrySink::Text => reg.render(),
            TelemetrySink::Json => format!("{}\n", reg.render_json()),
        }
    }
}

/// The parsed `MOAT_TELEMETRY` value.
///
/// Pure data, like `FaultPlan`: two runs armed with equal configs (and
/// equal simulation inputs) produce bit-identical telemetry artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Whether the metrics registry is printed at all (`level=full`).
    pub armed: bool,
    /// Render sink.
    pub sink: TelemetrySink,
}

impl TelemetryConfig {
    /// The environment variable [`from_env`](Self::from_env) reads.
    pub const ENV_VAR: &'static str = "MOAT_TELEMETRY";

    /// The disarmed config: `level=off,sink=text`.
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// The armed text config: `level=full,sink=text` — what a bare
    /// `--telemetry` flag arms when the env var is unset.
    pub fn full() -> Self {
        TelemetryConfig {
            armed: true,
            sink: TelemetrySink::Text,
        }
    }

    /// Parses a config from a `key=value` list, e.g.
    /// `level=full,sink=json`. Unspecified fields default to
    /// `level=off,sink=text`; underscores and dashes in keys are
    /// interchangeable.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending token.
    pub fn parse(spec: &str) -> Result<TelemetryConfig, String> {
        let mut config = TelemetryConfig::default();
        for pair in env::pairs(spec, "telemetry spec") {
            let (key, value) = pair?;
            match key.as_str() {
                "level" => {
                    config.armed = match value {
                        "off" => false,
                        "full" => true,
                        other => return Err(format!("telemetry level `{other}` is not off|full")),
                    };
                }
                "sink" => {
                    config.sink = match value {
                        "text" => TelemetrySink::Text,
                        "json" => TelemetrySink::Json,
                        other => return Err(format!("telemetry sink `{other}` is not text|json")),
                    };
                }
                _ => return Err(format!("unknown telemetry spec key `{key}`")),
            }
        }
        Ok(config)
    }

    /// The config armed via the [`MOAT_TELEMETRY`](Self::ENV_VAR)
    /// environment variable: `None` when unset or blank.
    ///
    /// # Errors
    ///
    /// The [`env::parsed`] errors of a non-Unicode or malformed value.
    pub fn from_env() -> Result<Option<TelemetryConfig>, String> {
        env::parsed(Self::ENV_VAR, Self::parse)
    }
}

impl fmt::Display for TelemetryConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let level = if self.armed { "full" } else { "off" };
        write!(f, "level={level},sink={}", self.sink.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        for (level, armed) in [("off", false), ("full", true)] {
            for sink in [TelemetrySink::Text, TelemetrySink::Json] {
                let spec = format!("level={level},sink={}", sink.name());
                let config = TelemetryConfig::parse(&spec).unwrap();
                assert_eq!(config, TelemetryConfig { armed, sink });
                assert_eq!(config.to_string(), spec, "Display round-trips");
            }
        }
    }

    #[test]
    fn parse_defaults_tolerates_whitespace_and_dashes() {
        assert_eq!(TelemetryConfig::parse("").unwrap(), TelemetryConfig::off());
        assert_eq!(
            TelemetryConfig::parse(" level = full , sink = json ,, ").unwrap(),
            TelemetryConfig {
                armed: true,
                sink: TelemetrySink::Json,
            }
        );
        // Dashes and underscores in keys are interchangeable (no
        // multi-word keys yet, but the normalization is part of the
        // shared grammar).
        assert!(TelemetryConfig::parse("level=full").unwrap().armed);
    }

    #[test]
    fn parse_rejects_each_malformed_form() {
        for bad in [
            "level",           // not key=value
            "level=verbose",   // unknown level
            "level=spans",     // removed level
            "sink=flamegraph", // unknown sink
            "sink=chrome",     // removed sink
            "depth=3",         // unknown key
            "level=off,sink",  // trailing non-key=value token
            "level=Full",      // grammar is lowercase
        ] {
            assert!(
                TelemetryConfig::parse(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn from_env_surfaces_each_malformed_form_and_tolerates_absence() {
        // Malformed values only — a valid value set here could race
        // another test reading the variable in parallel into arming.
        let var = TelemetryConfig::ENV_VAR;
        let check = |value: &str, expect_err: bool| {
            std::env::set_var(var, value);
            let result = TelemetryConfig::from_env();
            std::env::remove_var(var);
            assert_eq!(result.is_err(), expect_err, "{var}={value:?} -> {result:?}");
        };
        check("level", true); // not key=value
        check("level=verbose", true); // unknown level
        check("sink=flamegraph", true); // unknown sink
        check("depth=3", true); // unknown key
        check("", false); // empty means off, not an error
        check("  ", false);
        assert_eq!(
            TelemetryConfig::from_env(),
            Ok(None),
            "unset means disarmed"
        );

        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let bogus = std::ffi::OsString::from_vec(vec![0x66, 0xFF, 0x67]);
            std::env::set_var(var, &bogus);
            let result = TelemetryConfig::from_env();
            std::env::remove_var(var);
            assert!(result.is_err(), "non-Unicode must error: {result:?}");
        }
    }

    #[test]
    fn off_is_disarmed_full_is_armed() {
        assert!(!TelemetryConfig::off().armed);
        assert!(TelemetryConfig::full().armed);
        assert_eq!(TelemetryConfig::full().to_string(), "level=full,sink=text");
    }

    #[test]
    fn registry_renders_are_newline_terminated() {
        let mut reg = MetricsRegistry::new();
        reg.add("a", 1);
        for sink in [TelemetrySink::Text, TelemetrySink::Json] {
            assert!(sink.render(&reg).ends_with('\n'));
        }
    }
}
