//! `repro` CLI edges: an unwritable output path, a missing or unknown
//! check and an unknown app are usage errors (exit 2), never a panic;
//! a reader that closes stdout early ends `repro` quietly.

use std::process::{Command, Stdio};

/// Run `repro` with whitespace-separated `args`, assert a clean exit 2,
/// and return its stderr.
fn repro(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    stderr
}

#[test]
fn unwritable_output_path_exits_2() {
    // A path under a regular file can never be created.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    for cmd in ["trace quicksort", "chaos quicksort --faults drop=0.01"] {
        let stderr = repro(&format!("{cmd} --scale quick --json {bad}"));
        let want = format!("repro: cannot write {bad}");
        assert!(stderr.contains(&want), "{stderr}");
    }
}

#[test]
fn bare_check_prints_usage() {
    let stderr = repro("check");
    let want = "usage: repro check protocol | liveness | mutants | hb";
    assert!(stderr.contains(want), "{stderr}");
}

#[test]
fn interleave_is_an_unknown_check() {
    for check in ["interleave", "tla"] {
        let stderr = repro(&format!("check {check}"));
        assert!(
            stderr.contains(&format!("unknown check '{check}'")),
            "{stderr}"
        );
    }
}

#[test]
fn metrics_prints_the_counter_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["metrics", "UTS", "--scale", "quick"])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("## UTS / DistWS on 16x8 (seed 0)\n"),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("tasks_allocated ")),
        "{stdout}"
    );
}

#[test]
fn metrics_unknown_app_exits_2() {
    let stderr = repro("metrics nope");
    assert!(stderr.contains("unknown app 'nope'"), "{stderr}");
}

#[test]
fn closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["metrics", "UTS", "--scale", "quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    // Close the read end before `repro` prints its first line.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
