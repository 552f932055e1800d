//! `repro list` names everything `repro` dispatches: every experiment
//! `repro all` runs, then every subcommand.

use std::process::Command;

/// The subcommands `repro` dispatches by name besides the experiments.
const SUBCOMMANDS: [&str; 6] = ["bench", "trace", "faults", "recover", "arena", "fleet"];

#[test]
fn list_names_every_dispatchable_experiment_and_subcommand() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("repro binary runs");
    assert!(out.status.success(), "repro list failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("repro list prints UTF-8");
    let listed: Vec<&str> = stdout.lines().collect();
    let dispatchable = moat_bench::ALL_EXPERIMENTS
        .iter()
        .chain(&["fig13", "storage"])
        .chain(&SUBCOMMANDS);
    for name in dispatchable {
        assert!(
            listed.contains(name),
            "`repro list` omits `{name}`; it printed {listed:?}"
        );
    }
}
