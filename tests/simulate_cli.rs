//! The `crowdfill simulate` binary end to end: its epitaph is the health
//! report, which carries the progress pane once — not once more after it.

use std::process::Command;

#[test]
fn simulate_prints_the_progress_pane_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_crowdfill"))
        .args(["simulate", "--rows", "6", "--seed", "3"])
        .env("OBS_LEVEL", "off")
        .output()
        .expect("run crowdfill simulate");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(out.status.success(), "not fulfilled:\n{stdout}");
    let panes = stdout
        .lines()
        .filter(|line| line.trim_start().starts_with("progress:"))
        .count();
    assert_eq!(panes, 1, "{stdout}");
}
