//! Vector-clock happens-before validation of `distws-trace` JSONL
//! runs.
//!
//! A trace is a linearization of one simulated (or real) run: one
//! JSON object per line with `t` (virtual ns), `w` (global worker),
//! `p` (place) and `ev` (event kind) plus per-kind payload fields.
//! This module reconstructs the **causal order** from that stream and
//! checks the orderings the scheduler's correctness argument relies
//! on — the ones the fault-recovery path (steal timeouts, place
//! failure, task recovery, lease reclaim) is most likely to perturb:
//!
//! 1. every task's `spawn` happens-before its `task_start`;
//! 2. every relocation (`migration`, `task_recover`) of a task
//!    happens-before its `task_start`, and the last relocation's
//!    destination is the place that executed it;
//! 3. `task_start` happens-before `task_end` (the finish-latch release
//!    point — the engine decrements the enclosing latch when the
//!    worker frees at task end), on the same worker;
//! 4. **exactly-once**: one `task_start` and one `task_end` per task
//!    id, no spawned task left unexecuted;
//! 5. per-worker timestamps are monotonically non-decreasing (the
//!    invariant the steal-timeout net-log drain once broke) — except
//!    for `migration`/`message`, which can be place-level actions
//!    attributed to a representative worker (e.g. a lifeline push).
//!
//! Each worker is a vector-clock process. An event's clock is the join
//! of the worker's previous clock with the clocks of its causal
//! predecessors (the task's spawn for `steal_success`/`task_start`,
//! plus relocations for `task_start`), ticked in the worker's
//! component. "Happens-before" is then the strict component-wise
//! order — *not* file order, so an event stream that merely sorts
//! wrongly-attributed events by timestamp still fails.

use distws_json::Value;
use std::collections::BTreeMap;

/// One validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbViolation {
    /// 1-based JSONL line of the offending event (0 = end-of-trace
    /// check with no single line).
    pub line: u64,
    /// Task id involved, when the check is per-task.
    pub task: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.task {
            Some(t) => write!(f, "line {}: task {}: {}", self.line, t, self.message),
            None => write!(f, "line {}: {}", self.line, self.message),
        }
    }
}

/// Validation summary.
#[derive(Debug, Clone)]
pub struct HbReport {
    /// Events consumed.
    pub events: u64,
    /// Distinct task ids seen.
    pub tasks: u64,
    /// Distinct workers seen.
    pub workers: u64,
    /// All failures, in detection order.
    pub violations: Vec<HbViolation>,
}

impl HbReport {
    /// Whether the trace passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A vector clock over a dense worker index space.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Vc(Vec<u64>);

impl Vc {
    fn join(&mut self, other: &Vc) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.0[i] {
                self.0[i] = v;
            }
        }
    }

    fn tick(&mut self, idx: usize) {
        if idx >= self.0.len() {
            self.0.resize(idx + 1, 0);
        }
        self.0[idx] += 1;
    }

    /// Strict happens-before: `self ≤ other` componentwise and
    /// `self ≠ other`.
    fn before(&self, other: &Vc) -> bool {
        let n = self.0.len().max(other.0.len());
        let get = |v: &Vc, i: usize| v.0.get(i).copied().unwrap_or(0);
        let mut strictly = false;
        for i in 0..n {
            let (a, b) = (get(self, i), get(other, i));
            if a > b {
                return false;
            }
            if a < b {
                strictly = true;
            }
        }
        strictly
    }
}

/// Per-task causal bookkeeping.
#[derive(Debug, Clone, Default)]
struct TaskInfo {
    spawn: Option<(u64, Vc)>,           // (line, clock)
    relocations: Vec<(u64, Vc, u64)>,   // (line, clock, destination place)
    start: Option<(u64, Vc, u32, u64)>, // (line, clock, worker, place)
    end: Option<(u64, Vc, u32)>,        // (line, clock, worker)
    starts: u64,
    ends: u64,
}

/// Validate a whole trace given as JSONL text. Parse errors and
/// missing fields are reported as violations on their line; the
/// remaining lines are still checked.
pub fn validate_str(trace: &str) -> HbReport {
    validate_lines(trace.lines())
}

/// Validate a trace given line by line (no trailing-newline
/// requirements; blank lines are skipped).
pub fn validate_lines<'a>(lines: impl Iterator<Item = &'a str>) -> HbReport {
    let mut violations: Vec<HbViolation> = Vec::new();
    let mut tasks: BTreeMap<u64, TaskInfo> = BTreeMap::new();
    // worker id -> (dense index, last clock, last t_ns).
    let mut worker_idx: BTreeMap<u32, usize> = BTreeMap::new();
    let mut worker_vc: Vec<Vc> = Vec::new();
    let mut worker_t: Vec<u64> = Vec::new();
    let mut events = 0u64;

    for (lineno0, raw) in lines.enumerate() {
        let line = lineno0 as u64 + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let v = match Value::parse(raw) {
            Ok(v) => v,
            Err(e) => {
                violations.push(HbViolation {
                    line,
                    task: None,
                    message: format!("unparseable event: {e}"),
                });
                continue;
            }
        };
        let (Some(t_ns), Some(w), Some(p), Some(ev)) = (
            v.get("t").and_then(Value::as_u64),
            v.get("w").and_then(Value::as_u64),
            v.get("p").and_then(Value::as_u64),
            v.get("ev").and_then(Value::as_str),
        ) else {
            violations.push(HbViolation {
                line,
                task: None,
                message: "event missing t/w/p/ev fields".to_string(),
            });
            continue;
        };
        events += 1;
        let w = w as u32;

        let widx = *worker_idx.entry(w).or_insert_with(|| {
            worker_vc.push(Vc::default());
            worker_t.push(0);
            worker_vc.len() - 1
        });

        // Check 5: per-worker monotonic time — but only for events the
        // worker performs on its own timeline. `migration` and
        // `message` can be *place-level* actions (a lifeline push has
        // no thief worker yet) attributed to a representative worker
        // whose own timeline may already hold future-stamped events
        // from a synchronous steal sequence, so they are exempt. So are
        // `place_fail` and `task_recover`: the simulator stamps them at
        // the kill instant on worker 0 of the dead place, which may have
        // run ahead of that instant the same way.
        let own_timeline = !matches!(ev, "migration" | "message" | "place_fail" | "task_recover");
        if own_timeline {
            if t_ns < worker_t[widx] {
                violations.push(HbViolation {
                    line,
                    task: None,
                    message: format!(
                        "worker {w} time went backwards: {} -> {t_ns} ns",
                        worker_t[widx]
                    ),
                });
            }
            worker_t[widx] = worker_t[widx].max(t_ns);
        }

        // Build this event's clock: previous worker clock joined with
        // causal predecessors, ticked.
        let mut vc = worker_vc[widx].clone();
        let task_id = v.get("task").and_then(Value::as_u64);
        if let Some(tid) = task_id {
            let info = tasks.entry(tid).or_default();
            match ev {
                "task_start" => {
                    if let Some((_, svc)) = &info.spawn {
                        vc.join(svc);
                    }
                    for (_, rvc, _) in &info.relocations {
                        vc.join(rvc);
                    }
                }
                "steal_success" | "migration" | "task_recover" => {
                    if let Some((_, svc)) = &info.spawn {
                        vc.join(svc);
                    }
                }
                "task_end" => {
                    if let Some((_, svc, _, _)) = &info.start {
                        vc.join(svc);
                    }
                }
                _ => {}
            }
        }
        vc.tick(widx);

        if let Some(tid) = task_id {
            let info = tasks.get_mut(&tid).expect("entry created above");
            match ev {
                "spawn" => {
                    if info.spawn.is_some() {
                        violations.push(HbViolation {
                            line,
                            task: Some(tid),
                            message: "task spawned twice".to_string(),
                        });
                    } else {
                        info.spawn = Some((line, vc.clone()));
                    }
                }
                "migration" | "task_recover" => {
                    let to = v.get("to").and_then(Value::as_u64).unwrap_or(u64::MAX);
                    if info.start.is_some() {
                        violations.push(HbViolation {
                            line,
                            task: Some(tid),
                            message: format!("{ev} after the task already started"),
                        });
                    }
                    info.relocations.push((line, vc.clone(), to));
                }
                "task_start" => {
                    info.starts += 1;
                    if info.start.is_none() {
                        info.start = Some((line, vc.clone(), w, p));
                    }
                }
                "task_end" => {
                    info.ends += 1;
                    if info.end.is_none() {
                        info.end = Some((line, vc.clone(), w));
                    }
                }
                _ => {}
            }
        }

        worker_vc[widx] = vc;
    }

    // End-of-trace structural checks.
    for (&tid, info) in &tasks {
        let t = Some(tid);
        let mut bad = |line: u64, message: String| {
            violations.push(HbViolation {
                line,
                task: t,
                message,
            })
        };
        // Check 4: exactly-once.
        if info.starts > 1 {
            bad(
                info.start.as_ref().map(|s| s.0).unwrap_or(0),
                format!("executed {} times (exactly-once violated)", info.starts),
            );
        }
        if info.starts == 0 && info.spawn.is_some() {
            bad(
                info.spawn.as_ref().map(|s| s.0).unwrap_or(0),
                "spawned but never executed".to_string(),
            );
        }
        if info.starts > 0 && info.ends == 0 {
            bad(
                info.start.as_ref().map(|s| s.0).unwrap_or(0),
                "started but never finished".to_string(),
            );
        }
        if info.ends > info.starts {
            bad(
                info.end.as_ref().map(|e| e.0).unwrap_or(0),
                format!("{} ends for {} starts", info.ends, info.starts),
            );
        }
        let Some((sline, svc, sworker, splace)) = &info.start else {
            continue;
        };
        // Check 1: spawn happens-before start.
        match &info.spawn {
            None => bad(*sline, "executed without a spawn event".to_string()),
            Some((_, spawn_vc)) => {
                if !spawn_vc.before(svc) {
                    bad(*sline, "spawn does not happen-before execution".to_string());
                }
            }
        }
        // Check 2: relocations happen-before start; last destination
        // is the executing place.
        for (rline, rvc, _) in &info.relocations {
            if !rvc.before(svc) {
                bad(
                    *rline,
                    "migration/recovery does not happen-before execution".to_string(),
                );
            }
        }
        if let Some((_, _, to)) = info.relocations.last() {
            if *to != *splace {
                bad(
                    *sline,
                    format!("executed at place {splace} but last relocation went to {to}"),
                );
            }
        }
        // Check 3: start happens-before end, same worker.
        if let Some((eline, evc, eworker)) = &info.end {
            if !svc.before(evc) {
                bad(
                    *eline,
                    "execution does not happen-before its finish-latch release".to_string(),
                );
            }
            if eworker != sworker {
                bad(
                    *eline,
                    format!("started on worker {sworker} but ended on worker {eworker}"),
                );
            }
        }
    }

    HbReport {
        events,
        tasks: tasks.len() as u64,
        workers: worker_idx.len() as u64,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(t: u64, w: u32, p: u32, ev: &str, task: Option<u64>) -> String {
        let mut o = Value::object();
        o.set("t", t);
        o.set("w", w);
        o.set("p", p);
        o.set("ev", ev);
        if let Some(id) = task {
            o.set("task", id);
        }
        o.render()
    }

    #[test]
    fn clean_trace_passes() {
        let trace = [
            line(0, 0, 0, "spawn", Some(1)),
            line(10, 0, 0, "task_start", Some(1)),
            line(20, 0, 0, "spawn", Some(2)),
            line(30, 0, 0, "task_end", Some(1)),
            line(40, 1, 0, "task_start", Some(2)),
            line(50, 1, 0, "task_end", Some(2)),
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.events, 6);
        assert_eq!(r.tasks, 2);
        assert_eq!(r.workers, 2);
    }

    #[test]
    fn execution_before_spawn_is_flagged() {
        let trace = [
            line(0, 0, 0, "task_start", Some(1)),
            line(5, 0, 0, "task_end", Some(1)),
            line(9, 1, 0, "spawn", Some(1)),
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("spawn does not happen-before")));
    }

    #[test]
    fn double_execution_is_flagged() {
        let trace = [
            line(0, 0, 0, "spawn", Some(7)),
            line(1, 0, 0, "task_start", Some(7)),
            line(2, 0, 0, "task_end", Some(7)),
            line(3, 1, 0, "task_start", Some(7)),
            line(4, 1, 0, "task_end", Some(7)),
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("exactly-once")));
    }

    #[test]
    fn lost_task_is_flagged() {
        let trace = line(0, 0, 0, "spawn", Some(3));
        let r = validate_str(&trace);
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("never executed")));
    }

    #[test]
    fn migration_destination_must_match_executing_place() {
        let mig = {
            let mut o = Value::object();
            o.set("t", 5u64);
            o.set("w", 0u32);
            o.set("p", 0u32);
            o.set("ev", "migration");
            o.set("task", 4u64);
            o.set("from", 0u32);
            o.set("to", 2u32);
            o.render()
        };
        let trace = [
            line(0, 0, 0, "spawn", Some(4)),
            mig,
            line(10, 5, 1, "task_start", Some(4)), // wrong place: 1 != 2
            line(20, 5, 1, "task_end", Some(4)),
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(
            r.violations
                .iter()
                .any(|v| v.message.contains("last relocation")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn backwards_worker_time_is_flagged() {
        let trace = [
            line(100, 0, 0, "spawn", Some(1)),
            line(50, 0, 0, "task_start", Some(1)),
            line(60, 0, 0, "task_end", Some(1)),
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("time went backwards")));
    }

    #[test]
    fn place_level_fault_events_may_trail_the_worker_clock() {
        // Worker 2 has already stepped to 450 ns when its place is
        // killed at 410 ns; the kill and the recovery it triggers are
        // stamped on worker 2 at the kill instant.
        let recover = {
            let mut o = Value::object();
            o.set("t", 410u64);
            o.set("w", 2u32);
            o.set("p", 1u32);
            o.set("ev", "task_recover");
            o.set("task", 7u64);
            o.set("from", 1u32);
            o.set("to", 0u32);
            o.render()
        };
        let trace = [
            line(450, 2, 1, "steal_attempt", None),
            line(410, 2, 1, "place_fail", None),
            recover,
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.events, 3);
    }

    #[test]
    fn end_on_different_worker_is_flagged() {
        let trace = [
            line(0, 0, 0, "spawn", Some(1)),
            line(1, 0, 0, "task_start", Some(1)),
            line(2, 3, 1, "task_end", Some(1)),
        ]
        .join("\n");
        let r = validate_str(&trace);
        assert!(r
            .violations
            .iter()
            .any(|v| v.message.contains("ended on worker")));
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let trace = format!(
            "{}\nnot json at all\n{}\n{}",
            line(0, 0, 0, "spawn", Some(1)),
            line(1, 0, 0, "task_start", Some(1)),
            line(2, 0, 0, "task_end", Some(1)),
        );
        let r = validate_str(&trace);
        assert_eq!(r.events, 3);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].message.contains("unparseable"));
        assert_eq!(r.violations[0].line, 2);
    }
}
