//! Shared CLI plumbing for the telemetry layer.
//!
//! Every `repro` subcommand that can emit a telemetry summary resolves
//! its effective [`TelemetryConfig`] the same way: the
//! [`MOAT_TELEMETRY`](TelemetryConfig::ENV_VAR) environment variable
//! when set (the operator's explicit choice always wins), else
//! full-level text when the subcommand's `--telemetry` flag was passed,
//! else off. The summary is *appended after* the subcommand's normal
//! output, so the disarmed artifacts CI diffs byte-for-byte (the fleet
//! report, the chaos table) are untouched.

use moat_telemetry::{MetricsRegistry, TelemetryConfig, TelemetryLevel, TelemetrySink};

/// Resolves the effective telemetry configuration for a subcommand.
///
/// # Errors
///
/// Returns the parse diagnostic when `MOAT_TELEMETRY` is set but
/// malformed (the `repro` binary also pre-validates this and exits 2,
/// so library callers get the same message either way).
pub fn effective_config(telemetry_flag: bool) -> Result<TelemetryConfig, String> {
    let env = TelemetryConfig::from_env()?;
    Ok(match env {
        Some(cfg) => cfg,
        None if telemetry_flag => TelemetryConfig::full(),
        None => TelemetryConfig::off(),
    })
}

/// Renders a metrics registry for the requested sink. The chrome sink
/// carries no spans at registry scope, so it degrades to the JSON
/// object. Always newline-terminated so callers can append it directly.
pub fn render_registry(reg: &MetricsRegistry, sink: TelemetrySink) -> String {
    match sink {
        TelemetrySink::Text => reg.render(),
        TelemetrySink::Json | TelemetrySink::Chrome => {
            let mut s = reg.render_json();
            s.push('\n');
            s
        }
    }
}

/// `artifact` as a subcommand prints it: unchanged when `tel` is off,
/// else followed by a blank line and `reg` rendered for `tel`'s sink.
pub(crate) fn append_registry(
    artifact: String,
    reg: &MetricsRegistry,
    tel: TelemetryConfig,
) -> String {
    if tel.level == TelemetryLevel::Off {
        artifact
    } else {
        format!("{artifact}\n{}", render_registry(reg, tel.sink))
    }
}

/// Strips a `--telemetry` flag out of `args`, returning the remaining
/// arguments and whether the flag was present.
pub fn take_telemetry_flag(args: &[String]) -> (Vec<String>, bool) {
    let mut found = false;
    let rest = args
        .iter()
        .filter(|a| {
            if *a == "--telemetry" {
                found = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_extraction_preserves_other_args() {
        let args = vec![
            "sweep".to_string(),
            "--telemetry".to_string(),
            "--full".to_string(),
        ];
        let (rest, flag) = take_telemetry_flag(&args);
        assert!(flag);
        assert_eq!(rest, vec!["sweep".to_string(), "--full".to_string()]);

        let (rest, flag) = take_telemetry_flag(&rest);
        assert!(!flag);
        assert_eq!(rest.len(), 2);
    }

    #[test]
    fn registry_renders_are_newline_terminated() {
        let mut reg = MetricsRegistry::new();
        reg.add("a", 1);
        for sink in [
            TelemetrySink::Text,
            TelemetrySink::Json,
            TelemetrySink::Chrome,
        ] {
            assert!(render_registry(&reg, sink).ends_with('\n'));
        }
    }
}
