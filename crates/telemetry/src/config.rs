//! The `MOAT_TELEMETRY` configuration: how much to record and how to
//! render it. Same `key=value` grammar, eager validation, and
//! `Display`-round-trips-through-`parse` contract as `MOAT_FAULTS`.

use std::fmt;

use moat_dram::env;

/// How much the armed tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryLevel {
    /// Telemetry disarmed: the hooks are never invoked.
    #[default]
    Off,
    /// Aggregates only: the per-phase profile and the metric counters,
    /// but no individual event/span log (bounded memory regardless of
    /// simulated duration).
    Spans,
    /// Aggregates plus the bounded event/span log needed for a
    /// chrome://tracing timeline.
    Full,
}

impl TelemetryLevel {
    /// The grammar token for this level.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Spans => "spans",
            TelemetryLevel::Full => "full",
        }
    }
}

/// How a telemetry artifact is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetrySink {
    /// Deterministic human-readable text (the default).
    #[default]
    Text,
    /// Deterministic JSON (sorted keys, integer values).
    Json,
    /// chrome://tracing trace-event JSON (load via `about:tracing` or
    /// Perfetto; timestamps are virtual nanoseconds, not wall-clock).
    Chrome,
}

impl TelemetrySink {
    /// The grammar token for this sink.
    pub fn name(self) -> &'static str {
        match self {
            TelemetrySink::Text => "text",
            TelemetrySink::Json => "json",
            TelemetrySink::Chrome => "chrome",
        }
    }
}

/// The parsed `MOAT_TELEMETRY` value.
///
/// Pure data, like `FaultPlan`: two runs armed with equal configs (and
/// equal simulation inputs) produce bit-identical telemetry artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Recording level.
    pub level: TelemetryLevel,
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

    /// The fully armed text config: `level=full,sink=text` — what a
    /// bare `--telemetry` flag arms when the env var is unset.
    pub fn full() -> Self {
        TelemetryConfig {
            level: TelemetryLevel::Full,
            sink: TelemetrySink::Text,
        }
    }

    /// Whether any recording happens at all.
    pub fn armed(&self) -> bool {
        self.level != TelemetryLevel::Off
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
                    config.level = match value {
                        "off" => TelemetryLevel::Off,
                        "spans" => TelemetryLevel::Spans,
                        "full" => TelemetryLevel::Full,
                        other => {
                            return Err(format!("telemetry level `{other}` is not off|spans|full"))
                        }
                    };
                }
                "sink" => {
                    config.sink = match value {
                        "text" => TelemetrySink::Text,
                        "json" => TelemetrySink::Json,
                        "chrome" => TelemetrySink::Chrome,
                        other => {
                            return Err(format!("telemetry sink `{other}` is not text|json|chrome"))
                        }
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
        write!(f, "level={},sink={}", self.level.name(), self.sink.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Spans,
            TelemetryLevel::Full,
        ] {
            for sink in [
                TelemetrySink::Text,
                TelemetrySink::Json,
                TelemetrySink::Chrome,
            ] {
                let spec = format!("level={},sink={}", level.name(), sink.name());
                let config = TelemetryConfig::parse(&spec).unwrap();
                assert_eq!(config.level, level);
                assert_eq!(config.sink, sink);
                assert_eq!(config.to_string(), spec, "Display round-trips");
            }
        }
    }

    #[test]
    fn parse_defaults_tolerates_whitespace_and_dashes() {
        assert_eq!(TelemetryConfig::parse("").unwrap(), TelemetryConfig::off());
        assert_eq!(
            TelemetryConfig::parse(" level = full , sink = chrome ,, ").unwrap(),
            TelemetryConfig {
                level: TelemetryLevel::Full,
                sink: TelemetrySink::Chrome,
            }
        );
        // Dashes and underscores in keys are interchangeable (no
        // multi-word keys yet, but the normalization is part of the
        // shared grammar).
        assert!(TelemetryConfig::parse("level=full").unwrap().armed());
    }

    #[test]
    fn parse_rejects_each_malformed_form() {
        for bad in [
            "level",           // not key=value
            "level=verbose",   // unknown level
            "sink=flamegraph", // unknown sink
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
        assert!(!TelemetryConfig::off().armed());
        assert!(TelemetryConfig::full().armed());
        assert_eq!(TelemetryConfig::full().to_string(), "level=full,sink=text");
    }
}
