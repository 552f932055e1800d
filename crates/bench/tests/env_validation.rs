//! The repro binary's fail-fast contract for its environment: it reads
//! six `MOAT_*` variables, and a malformed value of one of them, or any
//! other `MOAT_*` variable, is rejected at startup with exit code 2 and
//! a `repro:`-prefixed message — never silently ignored (which would run
//! an *unfaulted* or *unobserved* experiment while the operator believes
//! chaos or telemetry is armed).

use std::ffi::OsStr;
use std::process::{Command, Output};

/// `repro` without the `MOAT_*` variables of the test's own environment,
/// so each case runs under exactly the variables it sets.
fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MOAT_") {
            cmd.env_remove(name);
        }
    }
    cmd
}

/// `repro list` with `var=value` set.
fn list_with(var: &str, value: impl AsRef<OsStr>) -> Output {
    repro()
        .arg("list")
        .env(var, value)
        .output()
        .expect("repro binary runs")
}

#[test]
fn each_malformed_observability_env_form_exits_2() {
    let cases: [(&str, &str); 8] = [
        ("MOAT_TELEMETRY", "level"),           // not key=value
        ("MOAT_TELEMETRY", "level=verbose"),   // unknown level
        ("MOAT_TELEMETRY", "sink=flamegraph"), // unknown sink
        ("MOAT_TELEMETRY", "depth=3"),         // unknown key
        ("MOAT_TELEMETRY", "level=Full"),      // grammar is lowercase
        ("MOAT_LOG", "debug"),                 // unknown level
        ("MOAT_LOG", "WARN"),                  // grammar is lowercase
        ("MOAT_LOG", "warn,info"),             // one level, not a list
    ];
    for (var, bad) in cases {
        let out = list_with(var, bad);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={bad} must fail the invocation with exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("repro: "),
            "{var}={bad} must explain itself on stderr, got: {stderr}"
        );
    }
}

#[cfg(unix)]
#[test]
fn non_unicode_observability_env_exits_2() {
    use std::os::unix::ffi::OsStringExt;
    for var in ["MOAT_TELEMETRY", "MOAT_LOG"] {
        let bogus = std::ffi::OsString::from_vec(vec![0x66, 0xFF, 0x67]);
        let out = list_with(var, &bogus);
        assert_eq!(
            out.status.code(),
            Some(2),
            "non-Unicode {var} must fail the invocation with exit 2"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("not valid Unicode"),
            "non-Unicode {var} must be named on stderr, got: {stderr}"
        );
    }
}

#[test]
fn each_malformed_value_exits_2_with_its_message() {
    // One case per form each grammar has: a token without `=`, an
    // unknown key, a malformed value, and a rate outside [0, 1].
    let cases: [(&str, &str, &str); 21] = [
        (
            "MOAT_FAULTS",
            "seu",
            "fault spec token `seu` is not key=value",
        ),
        ("MOAT_FAULTS", "warp=0.1", "unknown fault spec key `warp`"),
        (
            "MOAT_FAULTS",
            "seed=abc",
            "fault seed `abc`: invalid digit found in string",
        ),
        (
            "MOAT_FAULTS",
            "seu=abc",
            "fault rate `seu=abc`: invalid float literal",
        ),
        (
            "MOAT_FAULTS",
            "drop-rfm=-0.1",
            "fault rate `drop_rfm=-0.1` outside [0, 1]",
        ),
        (
            "MOAT_FLEET_FAULTS",
            "crash",
            "fleet fault token `crash` is not key=value",
        ),
        (
            "MOAT_FLEET_FAULTS",
            "scribble=1",
            "unknown fault spec key `scribble`",
        ),
        (
            "MOAT_FLEET_FAULTS",
            "crash=x",
            "fleet fault rate `crash=x`: invalid float literal",
        ),
        (
            "MOAT_FLEET_FAULTS",
            "crash=2",
            "fleet fault rate `crash=2` outside [0, 1]",
        ),
        (
            "MOAT_FLEET_FAULTS",
            "seu=2",
            "fault rate `seu=2` outside [0, 1]",
        ),
        (
            "MOAT_RECOVERY",
            "scrub",
            "recovery spec token `scrub` is not key=value",
        ),
        (
            "MOAT_RECOVERY",
            "cadence=5",
            "unknown recovery spec key `cadence`",
        ),
        (
            "MOAT_RECOVERY",
            "fallback=maybe",
            "fallback `maybe` must be `on` or `off`",
        ),
        (
            "MOAT_RECOVERY",
            "scrub=soon",
            "scrub interval `soon`: invalid digit found in string",
        ),
        (
            "MOAT_TRACE_DIR",
            "",
            "MOAT_TRACE_DIR is set but empty (unset it to use the default directory)",
        ),
        (
            "MOAT_TELEMETRY",
            "level",
            "telemetry spec token `level` is not key=value",
        ),
        (
            "MOAT_TELEMETRY",
            "depth=3",
            "unknown telemetry spec key `depth`",
        ),
        (
            "MOAT_TELEMETRY",
            "level=verbose",
            "telemetry level `verbose` is not off|full",
        ),
        (
            "MOAT_TELEMETRY",
            "level=spans",
            "telemetry level `spans` is not off|full",
        ),
        (
            "MOAT_TELEMETRY",
            "sink=chrome",
            "telemetry sink `chrome` is not text|json",
        ),
        (
            "MOAT_LOG",
            "debug",
            "log level `debug` is not error|warn|info",
        ),
    ];
    let check = |var: &str, value: &OsStr, line: &str| {
        let out = list_with(var, value);
        assert_eq!(out.status.code(), Some(2), "{var}={value:?} must exit 2");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("repro: {line}\n"),
            "{var}={value:?}"
        );
    };
    for (var, value, line) in cases {
        check(var, value.as_ref(), line);
    }
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        let bogus = OsStr::from_bytes(&[0x66, 0xFF, 0x67]);
        for var in [
            "MOAT_FAULTS",
            "MOAT_FLEET_FAULTS",
            "MOAT_RECOVERY",
            "MOAT_TRACE_DIR",
            "MOAT_TELEMETRY",
            "MOAT_LOG",
        ] {
            check(var, bogus, &format!("{var} is set but not valid Unicode"));
        }
    }
}

#[test]
fn unknown_moat_variables_exit_2() {
    for (var, value) in [
        ("MOAT_FAULT", "seed=1"),
        ("MOAT_ARENA_ENGINES", "moat"),
        ("MOAT_IO_FAULTS", "write=0"),
    ] {
        let out = list_with(var, value);
        assert_eq!(out.status.code(), Some(2), "{var}={value} must exit 2");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "repro: {var} is set, but repro reads only MOAT_FAULTS, MOAT_FLEET_FAULTS, \
                 MOAT_RECOVERY, MOAT_TRACE_DIR, MOAT_TELEMETRY, MOAT_LOG\n"
            ),
        );
    }
}

#[test]
fn malformed_arena_engines_flag_exits_2() {
    for bad in ["", "tortuga", "moat,", ",moat", "moat,,dsac", "moat,moat"] {
        let out = repro()
            .args(["arena", "--engines", bad])
            .output()
            .expect("repro binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "arena --engines {bad:?} must exit 2 before running any cell"
        );
    }
}

#[test]
fn well_formed_observability_env_is_accepted() {
    let out = repro()
        .arg("list")
        .env("MOAT_TELEMETRY", "level=full,sink=json")
        .env("MOAT_LOG", "info")
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(0), "valid grammar must not fail");
}

#[test]
fn ci_specs_and_a_blank_value_are_accepted() {
    for (var, value) in [
        (
            "MOAT_FAULTS",
            "seed=3405691582,drop-rfm=1e-4,lose-alert=1e-4",
        ),
        ("MOAT_FAULTS", "seed=3405691582,seu=1e-3"),
        ("MOAT_FAULTS", ""),
        ("MOAT_FAULTS", " "),
        ("MOAT_FLEET_FAULTS", "seed=97,crash=0.4"),
        ("MOAT_FLEET_FAULTS", "seed=97,seu=1e-3"),
        ("MOAT_RECOVERY", "scrub=500000,fallback=on"),
    ] {
        let out = list_with(var, value);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{var}={value:?} must be accepted"
        );
    }
}
