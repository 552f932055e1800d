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

use moat_telemetry::{MetricsRegistry, TelemetryConfig};

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

/// `artifact` as a subcommand prints it: unchanged when `tel` is off,
/// else followed by a blank line and `reg` rendered for `tel`'s sink.
pub(crate) fn append_registry(
    artifact: String,
    reg: &MetricsRegistry,
    tel: TelemetryConfig,
) -> String {
    if tel.armed {
        format!("{artifact}\n{}", tel.sink.render(reg))
    } else {
        artifact
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
}
