//! `diag` CLI edges: bad input is a usage error (exit 2), never a panic.

use std::process::Command;

#[test]
fn unknown_app_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_diag"))
        .arg("nope")
        .output()
        .expect("spawn diag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("usage: diag"), "stderr: {stderr}");
}
