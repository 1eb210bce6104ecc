//! Fault-injection integration tests: exactly-once execution under
//! lossy networks and place failures, deterministic chaos, and the
//! byte-identity guarantee of the empty fault plan.

use distws_core::rng::SplitMix64;
use distws_core::{ClusterConfig, Locality, PlaceId, TaskSpec};
use distws_netsim::{FaultPlan, LinkFault, Partition};
use distws_sched::{AdaptiveWs, DistWs, DistWsNs, LifelineWs, Policy, RandomWs, X10Ws};
use distws_sim::{FaultConfig, SimConfig, Simulation};
use distws_trace::{TraceEvent, TraceEventKind, TraceSink};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn all_policies() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(X10Ws),
        Box::new(DistWs::default()),
        Box::new(DistWsNs::default()),
        Box::new(RandomWs),
        Box::new(LifelineWs::default()),
        Box::new(AdaptiveWs::default()),
    ]
}

/// A schedule-independent task graph: one root per place, each
/// spawning `kids` flexible children. Every body bumps the counter, so
/// `counter == places * (1 + kids)` proves each body ran exactly once
/// regardless of where recovery re-homed it.
fn spread_roots(places: u32, kids: usize, counter: &Arc<AtomicU64>) -> Vec<TaskSpec> {
    (0..places)
        .map(|p| {
            let c0 = Arc::clone(counter);
            TaskSpec::new(PlaceId(p), Locality::Sensitive, 20_000, "root", move |s| {
                c0.fetch_add(1, Ordering::Relaxed);
                for _ in 0..kids {
                    let c = Arc::clone(&c0);
                    s.spawn(TaskSpec::new(
                        s.here(),
                        Locality::Flexible,
                        40_000,
                        "kid",
                        move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        },
                    ));
                }
            })
        })
        .collect()
}

/// Counts how many times each task id started — the ground truth for
/// exactly-once (a recovered task may arrive twice, but must run once).
#[derive(Default)]
struct StartSink {
    starts: HashMap<u64, u32>,
    saw_fail: bool,
    saw_recover: bool,
    saw_dropped_msg: bool,
}

impl TraceSink for StartSink {
    fn record(&mut self, ev: TraceEvent) {
        match ev.kind {
            TraceEventKind::TaskStart { task } => {
                *self.starts.entry(task.0).or_default() += 1;
            }
            TraceEventKind::PlaceFail => self.saw_fail = true,
            TraceEventKind::TaskRecover { .. } => self.saw_recover = true,
            TraceEventKind::Message { dropped: true, .. } => self.saw_dropped_msg = true,
            _ => {}
        }
    }
}

fn assert_exactly_once(sink: &StartSink, label: &str) {
    for (task, n) in &sink.starts {
        assert_eq!(*n, 1, "{label}: task {task} started {n} times");
    }
}

#[test]
fn exactly_once_under_random_fault_plans_for_all_policies() {
    // Property loop in the house style: a seeded stream generates the
    // fault plans; every policy must execute every task exactly once
    // under each of them.
    let mut rng = SplitMix64::new(0xC4A05);
    for round in 0..6 {
        let drop_p = (rng.below(6) as f64) / 100.0; // 0–5 % loss
        let dup_p = (rng.below(3) as f64) / 100.0;
        let jitter = rng.below(3_000);
        let kill_place = 1 + rng.below(3) as u32; // never place 0
        let kill_at = 50_000 + rng.below(400_000);
        let with_kill = rng.below(2) == 0;
        for policy in all_policies() {
            let name = policy.name().to_string();
            let label = format!("round {round} / {name}");
            let counter = Arc::new(AtomicU64::new(0));
            let roots = spread_roots(4, 10, &counter);
            let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
            cfg.faults = FaultConfig {
                net: FaultPlan {
                    default: LinkFault {
                        drop_p,
                        dup_p,
                        jitter_ns: jitter,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                kills: if with_kill {
                    vec![(PlaceId(kill_place), kill_at)]
                } else {
                    Vec::new()
                },
                seed: rng.next_u64(),
                ..Default::default()
            };
            let mut sink = StartSink::default();
            let mut sim = Simulation::with_config(cfg, policy);
            let (report, _) = sim.run_roots_traced("prop", roots, &mut sink);
            assert_eq!(
                counter.load(Ordering::Relaxed),
                4 * 11,
                "{label}: a task body was lost or re-run"
            );
            assert_eq!(report.tasks_spawned, report.tasks_executed, "{label}");
            assert_exactly_once(&sink, &label);
            if with_kill {
                assert_eq!(report.faults.places_failed, 1, "{label}");
            }
        }
    }
}

#[test]
fn fail_stop_recovers_queued_tasks() {
    // Kill place 2 while its deques still hold work: the queued tasks
    // must re-arrive elsewhere and run exactly once.
    let counter = Arc::new(AtomicU64::new(0));
    let roots = spread_roots(4, 16, &counter);
    let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
    cfg.faults = FaultConfig {
        kills: vec![(PlaceId(2), 100_000)],
        ..Default::default()
    };
    let mut sink = StartSink::default();
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    let (report, _) = sim.run_roots_traced("kill", roots, &mut sink);
    assert_eq!(counter.load(Ordering::Relaxed), 4 * 17);
    assert_eq!(report.faults.places_failed, 1);
    assert!(
        report.faults.tasks_recovered > 0,
        "the kill at 100 µs must strand queued tasks: {:?}",
        report.faults
    );
    assert!(sink.saw_fail, "PlaceFail must be traced");
    assert!(sink.saw_recover, "TaskRecover must be traced");
    assert_exactly_once(&sink, "kill");
}

#[test]
fn restarted_place_rejoins_and_takes_work() {
    let counter = Arc::new(AtomicU64::new(0));
    // Long tail of flexible work so the restarted place has something
    // to steal when it comes back.
    let roots = spread_roots(4, 40, &counter);
    let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
    cfg.faults = FaultConfig {
        kills: vec![(PlaceId(1), 80_000)],
        restarts: vec![(PlaceId(1), 300_000)],
        ..Default::default()
    };
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    let report = sim.run_roots("restart", roots);
    assert_eq!(counter.load(Ordering::Relaxed), 4 * 41);
    assert_eq!(report.tasks_spawned, report.tasks_executed);
    assert_eq!(report.faults.places_failed, 1);
}

#[test]
fn restart_while_workers_busy_preserves_in_flight_tasks() {
    // Kill/restart gap (50 µs → 70 µs) far shorter than the kids'
    // 300 µs bodies, so every worker on place 1 is still Busy with a
    // pre-kill task when the restart lands. Those workers must rejoin
    // via their own Free events: a forced wake would overwrite
    // `running`/`finishing_latch` and the shared latch below would
    // never release its continuation.
    use distws_core::FinishLatch;

    let counter = Arc::new(AtomicU64::new(0));
    let kids_per_root = 10;
    let cc = Arc::clone(&counter);
    let cont = TaskSpec::new(PlaceId(0), Locality::Flexible, 1_000, "cont", move |_| {
        cc.fetch_add(1, Ordering::Relaxed);
    });
    let latch = FinishLatch::new(2 * kids_per_root, cont);
    let roots: Vec<TaskSpec> = (0..2u32)
        .map(|p| {
            let c0 = Arc::clone(&counter);
            let l0 = Arc::clone(&latch);
            TaskSpec::new(PlaceId(p), Locality::Sensitive, 20_000, "root", move |s| {
                c0.fetch_add(1, Ordering::Relaxed);
                for _ in 0..kids_per_root {
                    let c = Arc::clone(&c0);
                    s.spawn(
                        TaskSpec::new(s.here(), Locality::Flexible, 300_000, "kid", move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        })
                        .with_latch(Arc::clone(&l0)),
                    );
                }
            })
        })
        .collect();
    let mut cfg = SimConfig::new(ClusterConfig::new(2, 2));
    cfg.faults = FaultConfig {
        kills: vec![(PlaceId(1), 50_000)],
        restarts: vec![(PlaceId(1), 70_000)],
        ..Default::default()
    };
    let mut sink = StartSink::default();
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    let (report, _) = sim.run_roots_traced("busy-restart", roots, &mut sink);
    assert_eq!(
        counter.load(Ordering::Relaxed),
        2 + 2 * kids_per_root as u64 + 1,
        "a body was lost or the finish continuation never fired"
    );
    assert_eq!(latch.pending(), 0, "latch left with outstanding children");
    assert_eq!(report.tasks_spawned, report.tasks_executed);
    assert_exactly_once(&sink, "busy-restart");
}

#[test]
fn lossy_network_terminates_and_reports_drops() {
    for policy in all_policies() {
        let name = policy.name().to_string();
        let counter = Arc::new(AtomicU64::new(0));
        let roots = spread_roots(4, 8, &counter);
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.faults = FaultConfig {
            net: FaultPlan::uniform_loss(0.05),
            ..Default::default()
        };
        let mut sink = StartSink::default();
        let mut sim = Simulation::with_config(cfg, policy);
        let (report, _) = sim.run_roots_traced("lossy", roots, &mut sink);
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 9, "{name}");
        assert_exactly_once(&sink, &name);
        // Root launches to places 1–3 cross the wire under every
        // policy, so 5% loss is observable in the report and trace.
        assert!(report.faults.msgs_dropped > 0, "{name}: no drops counted");
        assert!(
            sink.saw_dropped_msg,
            "{name}: dropped messages must be traced"
        );
        assert_eq!(
            report.faults.msgs_dropped,
            report.messages.dropped.total(),
            "{name}: summary and per-kind counters disagree"
        );
    }
}

/// The retry budget bounds how hard a thief hammers one victim: the
/// original probe plus `budget` backoff retries, then it moves on. A
/// killed place answers nothing, so every probe against it times out
/// and the full retry ladder is exercised — yet no `StealTimeout`
/// event may ever carry an attempt number past `budget + 1`.
#[test]
fn retry_budget_bounds_timeout_attempts() {
    #[derive(Default)]
    struct TimeoutSink {
        timeouts: u32,
        max_attempt: u32,
    }
    impl TraceSink for TimeoutSink {
        fn record(&mut self, ev: TraceEvent) {
            if let TraceEventKind::StealTimeout { attempt, .. } = ev.kind {
                self.timeouts += 1;
                self.max_attempt = self.max_attempt.max(attempt);
            }
        }
    }
    for budget in [0u32, 2, 3] {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = spread_roots(3, 10, &counter);
        let mut cfg = SimConfig::new(ClusterConfig::new(3, 2));
        cfg.faults = FaultConfig {
            kills: vec![(PlaceId(2), 50_000)],
            retry: distws_sched::RetryPolicy {
                budget,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sink = TimeoutSink::default();
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        let (report, _) = sim.run_roots_traced("budget", roots, &mut sink);
        assert!(
            sink.timeouts > 0,
            "budget {budget}: dead victim never probed"
        );
        assert!(
            sink.max_attempt <= budget + 1,
            "budget {budget}: a thief kept retrying past exhaustion \
             (max attempt {})",
            sink.max_attempt
        );
        assert_eq!(
            sink.max_attempt,
            budget + 1,
            "budget {budget}: the ladder never ran to exhaustion \
             against a dead place"
        );
        assert_eq!(
            report.faults.steal_timeouts as u32, sink.timeouts,
            "budget {budget}: counter and trace disagree"
        );
    }
}

#[test]
fn slow_place_stretches_the_run() {
    let mk = |factor: f64| {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = spread_roots(2, 20, &counter);
        let mut cfg = SimConfig::new(ClusterConfig::new(2, 2));
        cfg.faults = FaultConfig {
            slow: vec![(PlaceId(1), factor)],
            ..Default::default()
        };
        let mut sim = Simulation::with_config(cfg, Box::new(X10Ws));
        sim.run_roots("slow", roots).makespan_ns
    };
    let base = mk(1.0);
    let slowed = mk(4.0);
    assert!(
        slowed > base,
        "4x straggler must stretch the makespan ({base} -> {slowed})"
    );
}

#[test]
fn same_fault_seed_gives_byte_identical_reports() {
    let run = || {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = spread_roots(4, 12, &counter);
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.faults = FaultConfig {
            net: FaultPlan {
                default: LinkFault {
                    drop_p: 0.08,
                    dup_p: 0.02,
                    jitter_ns: 2_000,
                    ..Default::default()
                },
                ..Default::default()
            },
            kills: vec![(PlaceId(3), 150_000)],
            seed: 0xD00F,
            ..Default::default()
        };
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        distws_json::to_string_pretty(&sim.run_roots("det", roots))
    };
    assert_eq!(run(), run(), "same fault seed, same chaos report");
}

#[test]
fn different_fault_seeds_differ() {
    let run = |seed: u64| {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = spread_roots(4, 12, &counter);
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.faults = FaultConfig {
            net: FaultPlan::uniform_loss(0.1),
            seed,
            ..Default::default()
        };
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        sim.run_roots("seeds", roots)
    };
    let a = run(1);
    let b = run(2);
    // Drops land on different messages; the runs must still both
    // conserve tasks. (Makespans may coincide, counters rarely do.)
    assert_eq!(a.tasks_executed, b.tasks_executed);
    assert!(
        a.faults.msgs_dropped != b.faults.msgs_dropped || a.makespan_ns != b.makespan_ns,
        "fault seed had no observable effect"
    );
}

/// The one-path guarantee: a fault config that never fires changes
/// nothing — not one virtual-time value, counter, or trace byte. Two
/// inputs: an *empty* plan with the retry/detection knobs at exotic
/// values, and a *non-empty* plan that is inert (a zero-length
/// partition window) over a workload whose only way to spread is the
/// remote steal protocol.
#[test]
fn empty_fault_plan_is_byte_identical() {
    #[derive(Default)]
    struct Jsonl(String);
    impl TraceSink for Jsonl {
        fn record(&mut self, ev: TraceEvent) {
            self.0.push_str(&ev.to_jsonl());
            self.0.push('\n');
        }
    }

    let run = |roots: Vec<TaskSpec>, faults: FaultConfig| {
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.faults = faults;
        let mut sink = Jsonl::default();
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        let (report, _) = sim.run_roots_traced("ident", roots, &mut sink);
        (
            report.steals.remote,
            distws_json::to_string_pretty(&report),
            sink.0,
        )
    };
    let spread = || spread_roots(4, 12, &Arc::new(AtomicU64::new(0)));
    // 64 flexible tasks homed on place 0: places 1–3 get work only by
    // stealing it remotely.
    let hot = || -> Vec<TaskSpec> {
        (0..64)
            .map(|_| TaskSpec::new(PlaceId(0), Locality::Flexible, 40_000, "leaf", |_| {}))
            .collect()
    };

    let exotic = FaultConfig {
        retry: distws_sched::RetryPolicy {
            timeout_ns: 1,
            backoff_base_ns: 999,
            backoff_max_ns: 1_000,
            jitter_ns: 777,
            budget: 9,
        },
        detect_ns: 1,
        lease_timeout_ns: 2,
        seed: 0xDEAD_BEEF,
        // A slow factor of exactly 1.0 is a no-op.
        slow: vec![(PlaceId(1), 1.0)],
        ..Default::default()
    };
    assert!(exotic.net.is_empty(), "no link fault, no partition");
    let inert = FaultConfig {
        net: FaultPlan {
            partitions: vec![Partition {
                a: PlaceId(1),
                b: PlaceId(2),
                from_ns: 0,
                until_ns: 0,
            }],
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(
        !inert.net.is_empty(),
        "a partition, if one that never holds"
    );

    let (_, base_report, base_trace) = run(spread(), FaultConfig::default());
    let (_, exotic_report, exotic_trace) = run(spread(), exotic);
    assert_eq!(
        base_report, exotic_report,
        "empty plan perturbed the report"
    );
    assert_eq!(base_trace, exotic_trace, "empty plan perturbed the trace");
    assert!(base_report.contains("\"msgs_dropped\": 0"));

    let (remote, hot_report, hot_trace) = run(hot(), FaultConfig::default());
    assert!(remote > 0, "the hot workload must steal remotely");
    let (_, inert_report, inert_trace) = run(hot(), inert);
    assert_eq!(hot_report, inert_report, "inert plan perturbed the report");
    assert_eq!(hot_trace, inert_trace, "inert plan perturbed the trace");
}

#[test]
fn invalid_fault_configs_are_rejected() {
    let try_cfg = |faults: FaultConfig| {
        std::panic::catch_unwind(move || {
            let counter = Arc::new(AtomicU64::new(0));
            let roots = spread_roots(2, 2, &counter);
            let mut cfg = SimConfig::new(ClusterConfig::new(2, 1));
            cfg.faults = faults;
            let mut sim = Simulation::with_config(cfg, Box::new(X10Ws));
            sim.run_roots("invalid", roots)
        })
    };
    assert!(
        try_cfg(FaultConfig {
            kills: vec![(PlaceId(0), 1_000)],
            ..Default::default()
        })
        .is_err(),
        "killing place 0 must be rejected"
    );
    assert!(
        try_cfg(FaultConfig {
            kills: vec![(PlaceId(7), 1_000)],
            ..Default::default()
        })
        .is_err(),
        "out-of-range kill must be rejected"
    );
    assert!(
        try_cfg(FaultConfig {
            slow: vec![(PlaceId(1), 0.5)],
            ..Default::default()
        })
        .is_err(),
        "sub-1.0 slow factor must be rejected"
    );
}

/// Run `roots` traced and feed the JSONL stream to the happens-before
/// validator (`distws-analyze`): spawn hb execution, migration hb
/// remote execution, execution hb finish-latch release, exactly-once
/// per task id, per-worker monotonic timestamps.
fn run_and_validate_hb(policy: Box<dyn Policy>, faults: FaultConfig, label: &str) {
    let counter = Arc::new(AtomicU64::new(0));
    let roots = spread_roots(4, 10, &counter);
    let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
    cfg.faults = faults;
    let mut sink = distws_trace::JsonlSink::new(Vec::new());
    let mut sim = Simulation::with_config(cfg, policy);
    let (report, _) = sim.run_roots_traced("hb", roots, &mut sink);
    assert_eq!(report.tasks_spawned, report.tasks_executed, "{label}");
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    let hb = distws_analyze::validate_str(&jsonl);
    assert!(
        hb.ok(),
        "{label}: happens-before violations:\n{}",
        hb.violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        hb.tasks, report.tasks_executed,
        "{label}: validator task count"
    );
}

#[test]
fn traces_satisfy_happens_before_fault_free_for_all_policies() {
    for policy in all_policies() {
        let name = policy.name().to_string();
        run_and_validate_hb(policy, FaultConfig::default(), &name);
    }
}

#[test]
fn traces_satisfy_happens_before_under_loss_for_all_policies() {
    // 1% loss exercises timeouts, retries and retransmissions; the
    // causal order and exactly-once guarantees must survive them.
    for policy in all_policies() {
        let name = format!("{} +1% loss", policy.name());
        let faults = FaultConfig {
            net: FaultPlan::uniform_loss(0.01),
            seed: 0x11B,
            ..Default::default()
        };
        run_and_validate_hb(policy, faults, &name);
    }
}

#[test]
fn hb_validator_flags_a_doctored_trace() {
    // Sanity-check the oracle itself: re-run fault-free, then corrupt
    // the stream (drop the first task_start) and expect a violation.
    let counter = Arc::new(AtomicU64::new(0));
    let roots = spread_roots(2, 4, &counter);
    let cfg = SimConfig::new(ClusterConfig::new(2, 2));
    let mut sink = distws_trace::JsonlSink::new(Vec::new());
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    let _ = sim.run_roots_traced("doctored", roots, &mut sink);
    let jsonl = String::from_utf8(sink.into_inner()).unwrap();
    let mut dropped = false;
    let doctored: Vec<&str> = jsonl
        .lines()
        .filter(|l| {
            if !dropped && l.contains("\"ev\":\"task_start\"") {
                dropped = true;
                return false;
            }
            true
        })
        .collect();
    assert!(dropped, "trace should contain a task_start to drop");
    let hb = distws_analyze::validate_lines(doctored.iter().copied());
    assert!(
        !hb.ok(),
        "validator must flag a task that ends without starting"
    );
}
