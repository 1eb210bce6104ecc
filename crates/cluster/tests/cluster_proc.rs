//! Real-process cluster property tests (`harness = false`).
//!
//! This binary is both the test driver and the place executable: the
//! launcher re-execs it with `--place N ...`, exactly like `repro
//! cluster` re-execs `repro cluster-place`. Run via `cargo test -p
//! distws-cluster --test cluster_proc`.
//!
//! 1. `exactly_once_across_sigkill_restart` — 3 places over Unix
//!    sockets, one real SIGKILL at 150 ms and a restart at 500 ms:
//!    the run must complete, pass the happens-before validator and
//!    the conformance automaton on the merged trace, and the merged
//!    trace must show every spawned task starting exactly once.
//! 2. `doctored_duplicate_execution_rejected` — the negative control:
//!    duplicating a surviving `task_start`/`task_end` pair in that
//!    same merged trace must make the happens-before validator
//!    object. Without this, test 1's "0 violations" would also pass
//!    on a checker that checks nothing.
//!
//! (The wire-level duplicate-`TaskMigrate` drop has a unit test in
//! `place.rs`; this file covers the end-to-end, multi-process story.)
//!
//! A passing kill run removes its `$TMPDIR/distws-cluster-proc-*`
//! directory; a failing one keeps it on purpose. Its per-place logs
//! and `merged.trace.jsonl` are the evidence for the open
//! duplicate-execution bug (ROADMAP.md item 18).

use distws_analyze::validate_str;
use distws_cluster::{run_cluster, run_place, KillSpec, LaunchConfig, PlaceConfig, Transport};
use std::collections::HashMap;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--place") {
        run_as_place(&args);
        return;
    }
    // libtest-compatible filtering is not needed; run both checks.
    let mut failed = 0;
    for (name, test) in [
        (
            "exactly_once_across_sigkill_restart",
            exactly_once_across_sigkill_restart as fn() -> Result<(), String>,
        ),
        (
            "doctored_duplicate_execution_rejected",
            doctored_duplicate_execution_rejected as fn() -> Result<(), String>,
        ),
    ] {
        match test() {
            Ok(()) => println!("test {name} ... ok"),
            Err(e) => {
                println!("test {name} ... FAILED\n  {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Hidden per-place entry point (same argv shape the launcher emits).
fn run_as_place(args: &[String]) {
    let mut cfg = PlaceConfig::new(0, 1, 2, PathBuf::from("."), "quicksort");
    let mut trace: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args[*i].clone()
        };
        match args[i].as_str() {
            "--place" => cfg.place = take(&mut i).parse().unwrap(),
            "--places" => cfg.places = take(&mut i).parse().unwrap(),
            "--wpp" => cfg.wpp = take(&mut i).parse().unwrap(),
            "--epoch" => cfg.epoch = take(&mut i).parse().unwrap(),
            "--transport" => {
                cfg.transport = match take(&mut i).as_str() {
                    "tcp" => Transport::Tcp,
                    _ => Transport::Unix,
                }
            }
            "--dir" => cfg.dir = PathBuf::from(take(&mut i)),
            "--app" => cfg.app = take(&mut i),
            "--policy" => cfg.policy = take(&mut i),
            "--seed" => cfg.seed = take(&mut i).parse().unwrap(),
            "--trace" => trace = Some(take(&mut i)),
            "--report" => cfg.report_path = Some(PathBuf::from(take(&mut i))),
            "--round-timeout-ms" => cfg.round_timeout_ms = take(&mut i).parse().unwrap(),
            "--run-deadline-ms" => cfg.run_deadline_ms = take(&mut i).parse().unwrap(),
            other => {
                eprintln!("cluster_proc place: unexpected argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cfg.trace_path = trace.map(PathBuf::from).unwrap_or_else(|| {
        cfg.dir
            .join(format!("trace-p{}-e{}.jsonl", cfg.place, cfg.epoch))
    });
    match run_place(cfg) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("cluster_proc place: {e}");
            std::process::exit(2);
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("distws-cluster-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn launch_config(dir: PathBuf, kills: Vec<KillSpec>) -> LaunchConfig {
    LaunchConfig {
        app: "quicksort@64".to_string(),
        policy: "distws".to_string(),
        places: 3,
        wpp: 2,
        seed: 42,
        transport: Transport::Unix,
        dir,
        kills,
        round_timeout_ms: 120_000,
        run_deadline_ms: 120_000,
        exe: std::env::current_exe().unwrap(),
        place_args: Vec::new(),
    }
}

fn exactly_once_across_sigkill_restart() -> Result<(), String> {
    // A tiny run can finish before the 150 ms kill fires; retry until
    // the SIGKILL actually landed (the property is about surviving a
    // kill, not about fault-free runs — those are covered elsewhere).
    for attempt in 0..5 {
        let dir = fresh_dir(&format!("kill{attempt}"));
        let cfg = launch_config(
            dir.clone(),
            vec![KillSpec {
                place: 1,
                kill_ms: 150,
                restart_ms: Some(500),
            }],
        );
        let outcome = run_cluster(&cfg).map_err(|e| format!("launch failed: {e}"))?;
        if outcome.kills_delivered == 0 {
            continue; // run outran the kill; try again
        }
        if !outcome.ok() {
            return Err(format!(
                "run not ok: exit={} hb={:?} conform={:?}",
                outcome.exit_code, outcome.hb_violations, outcome.conform_violations
            ));
        }
        let merged = std::fs::read_to_string(&outcome.merged_path)
            .map_err(|e| format!("read merged: {e}"))?;
        check_exactly_once(&merged)?;
        let _ = std::fs::remove_dir_all(&dir);
        return Ok(());
    }
    Err("SIGKILL never landed in 5 attempts (runs too fast?)".to_string())
}

/// Every spawned task starts exactly once and ends exactly once in
/// the merged stream.
fn check_exactly_once(merged: &str) -> Result<(), String> {
    let mut spawned: HashMap<u64, u64> = HashMap::new();
    let mut started: HashMap<u64, u64> = HashMap::new();
    let mut ended: HashMap<u64, u64> = HashMap::new();
    for line in merged.lines() {
        let v = match distws_json::Value::parse(line) {
            Ok(v) => v,
            Err(_) => continue,
        };
        let (Some(ev), Some(task)) = (
            v.get("ev").and_then(distws_json::Value::as_str),
            v.get("task").and_then(distws_json::Value::as_u64),
        ) else {
            continue;
        };
        let bucket = match ev {
            "spawn" => &mut spawned,
            "task_start" => &mut started,
            "task_end" => &mut ended,
            _ => continue,
        };
        *bucket.entry(task).or_insert(0) += 1;
    }
    if spawned.is_empty() {
        return Err("merged trace has no spawn events".to_string());
    }
    for (&id, &n) in &started {
        if n != 1 {
            return Err(format!("task {id} started {n} times in the merged trace"));
        }
    }
    for (&id, &n) in &ended {
        if n != 1 {
            return Err(format!("task {id} ended {n} times in the merged trace"));
        }
    }
    for &id in spawned.keys() {
        if !started.contains_key(&id) || !ended.contains_key(&id) {
            return Err(format!("spawned task {id} never ran to completion"));
        }
    }
    Ok(())
}

/// Doctor a clean merged trace by duplicating one task's
/// `task_start`/`task_end` pair (as if a re-execution had leaked
/// through the supersede rule) — the happens-before validator must
/// reject it.
fn doctored_duplicate_execution_rejected() -> Result<(), String> {
    let dir = fresh_dir("clean");
    let cfg = launch_config(dir.clone(), Vec::new());
    let outcome = run_cluster(&cfg).map_err(|e| format!("launch failed: {e}"))?;
    if !outcome.ok() {
        return Err(format!("clean run not ok: exit={}", outcome.exit_code));
    }
    let merged =
        std::fs::read_to_string(&outcome.merged_path).map_err(|e| format!("read merged: {e}"))?;
    let dup_target = merged
        .lines()
        .find(|l| l.contains("\"ev\":\"task_start\""))
        .ok_or("no task_start in merged trace")?
        .to_string();
    let task_field = dup_target
        .split("\"task\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .ok_or("no task id on the task_start line")?
        .to_string();
    let mut doctored = String::new();
    for line in merged.lines() {
        doctored.push_str(line);
        doctored.push('\n');
        // Replay the pair right after the original (same worker, so
        // the validator sees a double execution, not interleaving).
        if line.contains(&format!("\"task\":{task_field}"))
            && (line.contains("\"ev\":\"task_start\"") || line.contains("\"ev\":\"task_end\""))
        {
            doctored.push_str(line);
            doctored.push('\n');
        }
    }
    let report = validate_str(&doctored);
    let _ = std::fs::remove_dir_all(&dir);
    if report.violations.is_empty() {
        return Err(format!(
            "validator accepted a trace with task {task_field} executed twice"
        ));
    }
    Ok(())
}
