//! Leveled degradation logging: the structured replacement for the
//! scattered `eprintln!` warnings.
//!
//! The level is process-global and **silent until initialized** — a
//! plain `cargo test` run never prints degradation chatter. Binaries
//! that want the warnings (the `repro` CLI) call
//! [`init_from_env`] once at startup, which arms the level from
//! [`MOAT_LOG`](LogLevel::ENV_VAR) (defaulting to `warn` when unset).
//! Messages go to stderr so they never contaminate the deterministic
//! stdout artifacts CI diffs.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

use moat_dram::env;

/// A log severity, ordered `Error < Warn < Info` by verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Unrecoverable degradations only.
    Error = 1,
    /// Recoverable degradations (fallbacks, skipped gates) — the
    /// default for the CLI.
    Warn = 2,
    /// Progress notes (live regeneration, checkpoint replays).
    Info = 3,
}

impl LogLevel {
    /// The environment variable [`from_env`](Self::from_env) reads.
    pub const ENV_VAR: &'static str = "MOAT_LOG";

    /// The grammar token for this level.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
        }
    }

    /// Parses a single level token (`error|warn|info`).
    ///
    /// # Errors
    ///
    /// Returns a description of the offending token.
    pub fn parse(spec: &str) -> Result<LogLevel, String> {
        match spec.trim() {
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            other => Err(format!("log level `{other}` is not error|warn|info")),
        }
    }

    /// The level set via the [`MOAT_LOG`](Self::ENV_VAR) environment
    /// variable: `None` when unset or blank.
    ///
    /// # Errors
    ///
    /// The [`env::parsed`] errors of a non-Unicode or malformed value.
    pub fn from_env() -> Result<Option<LogLevel>, String> {
        env::parsed(Self::ENV_VAR, Self::parse)
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// 0 = uninitialized (silent); otherwise a `LogLevel` discriminant.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global level. `None` silences logging again (used
/// by tests that probe the gate itself).
pub fn set_level(level: Option<LogLevel>) {
    LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// The current process-global level; `None` while uninitialized.
pub fn level() -> Option<LogLevel> {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Some(LogLevel::Error),
        2 => Some(LogLevel::Warn),
        3 => Some(LogLevel::Info),
        _ => None,
    }
}

/// Arms the global level from [`MOAT_LOG`](LogLevel::ENV_VAR),
/// defaulting to [`LogLevel::Warn`] when the variable is unset or
/// empty. Called once by the `repro` CLI after eager validation.
///
/// # Errors
///
/// Propagates the malformed-value error so the caller can exit 2.
pub fn init_from_env() -> Result<(), String> {
    set_level(Some(LogLevel::from_env()?.unwrap_or(LogLevel::Warn)));
    Ok(())
}

fn emit(severity: LogLevel, target: &str, message: fmt::Arguments<'_>) {
    if level().is_some_and(|armed| severity <= armed) {
        eprintln!("{severity}: [{target}] {message}");
    }
}

/// Logs an unrecoverable degradation (shown at every armed level).
pub fn error(target: &str, message: fmt::Arguments<'_>) {
    emit(LogLevel::Error, target, message);
}

/// Logs a recoverable degradation (shown at `warn` and `info`).
pub fn warn(target: &str, message: fmt::Arguments<'_>) {
    emit(LogLevel::Warn, target, message);
}

/// Logs a progress note (shown only at `info`).
pub fn info(target: &str, message: fmt::Arguments<'_>) {
    emit(LogLevel::Info, target, message);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar_and_rejects_the_rest() {
        assert_eq!(LogLevel::parse("error").unwrap(), LogLevel::Error);
        assert_eq!(LogLevel::parse(" warn ").unwrap(), LogLevel::Warn);
        assert_eq!(LogLevel::parse("info").unwrap(), LogLevel::Info);
        for bad in ["", "debug", "WARN", "warn,info", "2"] {
            assert!(LogLevel::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn from_env_surfaces_each_malformed_form_and_tolerates_absence() {
        // Malformed values only — a valid value set here could race a
        // parallel test of the gate itself into a different level.
        let check = |value: &str, expect_err: bool| {
            std::env::set_var(LogLevel::ENV_VAR, value);
            let result = LogLevel::from_env();
            std::env::remove_var(LogLevel::ENV_VAR);
            assert_eq!(
                result.is_err(),
                expect_err,
                "{}={value:?} -> {result:?}",
                LogLevel::ENV_VAR
            );
        };
        check("debug", true); // unknown level
        check("WARN", true); // grammar is lowercase
        check("warn,info", true); // one level, not a list
        check("2", true); // names, not numbers
        check("", false); // empty means default, not an error
        assert_eq!(LogLevel::from_env(), Ok(None), "unset means default");

        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStringExt;
            let bogus = std::ffi::OsString::from_vec(vec![0x77, 0xFE]);
            std::env::set_var(LogLevel::ENV_VAR, &bogus);
            let result = LogLevel::from_env();
            std::env::remove_var(LogLevel::ENV_VAR);
            assert!(result.is_err(), "non-Unicode must error: {result:?}");
        }
    }

    #[test]
    fn verbosity_ordering_gates_correctly() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for l in [LogLevel::Error, LogLevel::Warn, LogLevel::Info] {
            assert_eq!(LogLevel::parse(&l.to_string()).unwrap(), l);
        }
    }
}
