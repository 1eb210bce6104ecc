//! Bakes the git commit into the `repro` binary so a stale build is
//! visible at a glance (`repro bench` prints it when it records or
//! replays a trajectory): a binary built from an older checkout
//! replays the wrong code.

use std::process::Command;

fn main() {
    // Re-run when HEAD moves (commit, checkout, rebase).
    println!("cargo:rerun-if-changed=../../.git/HEAD");
    println!("cargo:rerun-if-changed=../../.git/refs");
    let hash = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    let suffix = if dirty { "-dirty" } else { "" };
    println!("cargo:rustc-env=DISTWS_BUILD_HASH={hash}{suffix}");
}
