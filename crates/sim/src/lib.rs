//! # distws-sim
//!
//! A deterministic discrete-event simulator of a multi-place
//! work-stealing cluster.
//!
//! ## Why a simulator?
//!
//! The paper's evaluation runs on 16 nodes × 8 cores with InfiniBand.
//! The reproduction regenerates every figure at the same 128-worker
//! scale on any host by executing the *real* application task graphs
//! under **virtual time**: task bodies run for real (producing real
//! meshes, clusterings, sorted arrays …), while the engine charges each
//! task its calibrated compute cost plus every scheduling overhead the
//! paper discusses — deque operations, intra-place steals, network
//! latency and bandwidth for migrations and remote data references, and
//! L1 cache misses from a per-worker cache model.
//!
//! ## Model summary
//!
//! * Each worker is an entity with a private deque, an L1 cache model
//!   and a busy-until clock; each place has a shared FIFO deque.
//! * Task bodies execute eagerly at task start (single host thread, in
//!   virtual-time order), recording child spawns, data accesses and
//!   data-dependent extra compute; children are *released* at evenly
//!   interpolated points across the parent's execution window, so a
//!   coarse task feeds the cluster while it runs, as in a real
//!   help-first runtime.
//! * Idle workers execute their policy's steal sequence (Algorithm 1);
//!   a fully failed sequence parks the worker ("dormant") until new
//!   work is enqueued — the engine then wakes all co-located dormant
//!   workers plus a bounded number of remote ones, which re-run the
//!   sequence and pay the same probe costs a spinning worker would.
//!   This keeps message counts finite and runs deterministic while
//!   preserving the cost structure of continuous polling.
//! * Cross-place `async at` launches, task migrations and remote data
//!   references all go through `distws-netsim`, which accounts every
//!   message for Table III.
//!
//! Determinism: same seed + same workload + same policy ⇒ identical
//! [`distws_core::RunReport`], event for event (property-tested).

#![forbid(unsafe_code)]

pub mod calendar;
mod engine;
pub mod faults;
mod scope;
mod worker_index;

pub use engine::{SimConfig, Simulation};
pub use faults::{FaultConfig, FaultSpec, TimeSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use distws_core::{ClusterConfig, Locality, PlaceId, TaskSpec};
    use distws_sched::{DistWs, DistWsNs, RandomWs, X10Ws};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// n independent flexible tasks of equal cost, all homed at place 0.
    fn flat_roots(n: usize, cost: u64, counter: &Arc<AtomicU64>) -> Vec<TaskSpec> {
        (0..n)
            .map(|_| {
                let c = Arc::clone(counter);
                TaskSpec::new(PlaceId(0), Locality::Flexible, cost, "flat", move |_s| {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect()
    }

    #[test]
    fn single_worker_runs_everything_sequentially() {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = flat_roots(10, 1_000, &counter);
        let mut sim = Simulation::new(ClusterConfig::new(1, 1), Box::new(X10Ws));
        let report = sim.run_roots("flat", roots);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert_eq!(report.tasks_spawned, 10);
        assert_eq!(report.tasks_executed, 10);
        // Makespan at least the pure work.
        assert!(report.makespan_ns >= 10_000);
        assert_eq!(report.steals.total(), 0);
        assert_eq!(report.messages.total(), 0);
    }

    #[test]
    fn co_located_workers_share_via_local_steals() {
        let counter = Arc::new(AtomicU64::new(0));
        // A single root spawns 64 children: once every worker is busy,
        // help-first pushes land in the spawner's own deque, so the
        // other workers must steal them.
        let c0 = Arc::clone(&counter);
        let root = TaskSpec::new(PlaceId(0), Locality::Sensitive, 10_000, "root", move |s| {
            for _ in 0..64 {
                let c = Arc::clone(&c0);
                s.spawn(TaskSpec::new(
                    s.here(),
                    Locality::Sensitive,
                    100_000,
                    "child",
                    move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    },
                ));
            }
        });
        let mut sim = Simulation::new(ClusterConfig::new(1, 4), Box::new(X10Ws));
        let report = sim.run_roots("flat", vec![root]);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        // All four workers must have participated: makespan well under
        // the sequential 6.4 ms.
        assert!(
            report.makespan_ns < 3 * 64 * 100_000 / 4,
            "makespan {} suggests no intra-place stealing",
            report.makespan_ns
        );
        assert!(report.steals.local_private > 0);
        assert_eq!(report.steals.remote, 0);
    }

    #[test]
    fn x10ws_never_crosses_places() {
        let counter = Arc::new(AtomicU64::new(0));
        // All work at place 0 of a 4-place cluster: X10WS leaves
        // places 1–3 idle.
        let roots = flat_roots(64, 100_000, &counter);
        let mut sim = Simulation::new(ClusterConfig::new(4, 2), Box::new(X10Ws));
        let report = sim.run_roots("flat", roots);
        assert_eq!(report.steals.remote, 0);
        assert_eq!(report.messages.task_migrations, 0);
        let u = &report.utilization.per_place;
        assert!(u[0] > 0.5, "home place should be busy, got {u:?}");
        assert!(
            u[1] < 0.05 && u[2] < 0.05 && u[3] < 0.05,
            "remote places must stay idle: {u:?}"
        );
    }

    #[test]
    fn distws_balances_across_places() {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = flat_roots(64, 100_000, &counter);
        let mut x10 = Simulation::new(ClusterConfig::new(4, 2), Box::new(X10Ws));
        let r_x10 = x10.run_roots("flat", flat_roots(64, 100_000, &counter));
        let mut dist = Simulation::new(ClusterConfig::new(4, 2), Box::new(DistWs::default()));
        let r_dist = dist.run_roots("flat", roots);
        assert!(r_dist.steals.remote > 0, "DistWS must steal remotely");
        assert!(
            r_dist.makespan_ns < r_x10.makespan_ns,
            "DistWS {} should beat X10WS {} on imbalanced flexible work",
            r_dist.makespan_ns,
            r_x10.makespan_ns
        );
        // With 8 workers on 64×100µs, DistWS should get decent speedup.
        assert!(
            r_dist.self_speedup() > 3.0,
            "speedup {}",
            r_dist.self_speedup()
        );
    }

    #[test]
    fn sensitive_tasks_never_migrate_under_distws() {
        let counter = Arc::new(AtomicU64::new(0));
        let roots: Vec<TaskSpec> = (0..32)
            .map(|_| {
                let c = Arc::clone(&counter);
                TaskSpec::new(PlaceId(0), Locality::Sensitive, 50_000, "s", move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let mut sim = Simulation::new(ClusterConfig::new(4, 2), Box::new(DistWs::default()));
        let report = sim.run_roots("sens", roots);
        assert_eq!(report.steals.remote, 0);
        assert_eq!(report.messages.task_migrations, 0);
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn distws_ns_migrates_sensitive_tasks() {
        let roots: Vec<TaskSpec> = (0..64)
            .map(|_| TaskSpec::new(PlaceId(0), Locality::Sensitive, 100_000, "s", |_| {}))
            .collect();
        let mut sim = Simulation::new(ClusterConfig::new(4, 2), Box::new(DistWsNs::default()));
        let report = sim.run_roots("sens", roots);
        assert!(report.steals.remote > 0, "NS must migrate sensitive tasks");
    }

    #[test]
    fn spawned_children_run() {
        let counter = Arc::new(AtomicU64::new(0));
        let c0 = Arc::clone(&counter);
        let root = TaskSpec::new(PlaceId(0), Locality::Flexible, 10_000, "root", move |s| {
            for _ in 0..10 {
                let c = Arc::clone(&c0);
                s.spawn(TaskSpec::new(
                    s.here(),
                    Locality::Flexible,
                    5_000,
                    "child",
                    move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    },
                ));
            }
        });
        let mut sim = Simulation::new(ClusterConfig::new(2, 2), Box::new(DistWs::default()));
        let report = sim.run_roots("spawn", vec![root]);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert_eq!(report.tasks_spawned, 11);
        assert_eq!(report.tasks_executed, 11);
    }

    #[test]
    fn cross_place_spawn_is_a_message() {
        let root = TaskSpec::new(PlaceId(0), Locality::Sensitive, 1_000, "root", |s| {
            // async at (P1): sensitive child homed at a different place.
            s.spawn(TaskSpec::new(
                PlaceId(1),
                Locality::Sensitive,
                1_000,
                "remote-child",
                |_| {},
            ));
        });
        let mut sim = Simulation::new(ClusterConfig::new(2, 1), Box::new(X10Ws));
        let report = sim.run_roots("xspawn", vec![root]);
        assert_eq!(report.tasks_executed, 2);
        assert!(
            report.messages.total() > 0,
            "cross-place launch must be counted"
        );
    }

    #[test]
    fn finish_latch_orders_phases() {
        use distws_core::FinishLatch;
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let o2 = Arc::clone(&order);
        let cont = TaskSpec::new(
            PlaceId(0),
            Locality::Sensitive,
            1_000,
            "phase2",
            move |_| {
                o2.lock().unwrap().push("phase2");
            },
        );
        let latch = FinishLatch::new(8, cont);
        let roots: Vec<TaskSpec> = (0..8)
            .map(|_| {
                let o = Arc::clone(&order);
                TaskSpec::new(
                    PlaceId(0),
                    Locality::Flexible,
                    50_000,
                    "phase1",
                    move |_| {
                        o.lock().unwrap().push("phase1");
                    },
                )
                .with_latch(Arc::clone(&latch))
            })
            .collect();
        let mut sim = Simulation::new(ClusterConfig::new(2, 2), Box::new(DistWs::default()));
        let report = sim.run_roots("phases", roots);
        assert_eq!(report.tasks_executed, 9);
        let seen = order.lock().unwrap();
        assert_eq!(seen.len(), 9);
        assert_eq!(
            *seen.last().unwrap(),
            "phase2",
            "continuation must run last"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let roots: Vec<TaskSpec> = (0..40)
                .map(|i| {
                    TaskSpec::new(
                        PlaceId(i % 4),
                        if i % 3 == 0 {
                            Locality::Sensitive
                        } else {
                            Locality::Flexible
                        },
                        10_000 + (i as u64 * 7_919) % 90_000,
                        "mix",
                        |_| {},
                    )
                })
                .collect();
            let mut sim = Simulation::new(ClusterConfig::new(4, 2), Box::new(DistWs::default()));
            sim.run_roots("det", roots)
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.utilization.per_place, b.utilization.per_place);
    }

    #[test]
    fn random_ws_also_balances() {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = flat_roots(64, 100_000, &counter);
        let mut sim = Simulation::new(ClusterConfig::new(4, 2), Box::new(RandomWs));
        let report = sim.run_roots("flat", roots);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert!(report.steals.remote > 0);
    }

    #[test]
    fn utilization_is_bounded() {
        let counter = Arc::new(AtomicU64::new(0));
        let roots = flat_roots(100, 50_000, &counter);
        let mut sim = Simulation::new(ClusterConfig::new(4, 2), Box::new(DistWs::default()));
        let report = sim.run_roots("flat", roots);
        for &u in &report.utilization.per_place {
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
    }

    #[test]
    fn remote_data_refs_are_charged() {
        use distws_core::ObjectId;
        // A task at place 0 reading data homed at place 1.
        let root = TaskSpec::new(PlaceId(0), Locality::Sensitive, 1_000, "reader", |s| {
            s.read(ObjectId(1), 0, 4_096, PlaceId(1));
        });
        let mut sim = Simulation::new(ClusterConfig::new(2, 1), Box::new(X10Ws));
        let report = sim.run_roots("rref", vec![root]);
        assert_eq!(report.remote_refs, 1);
        assert!(report.messages.data_requests == 1 && report.messages.data_replies == 1);
    }

    #[test]
    fn carried_footprint_makes_accesses_local_after_migration() {
        use distws_core::{Footprint, ObjectId};
        // Flexible tasks homed at place 0, each encapsulating its data.
        // When stolen to place 1, accesses to the carried object must
        // NOT become remote references.
        let roots: Vec<TaskSpec> = (0..16)
            .map(|i| {
                let obj = ObjectId(100 + i);
                TaskSpec::new(PlaceId(0), Locality::Flexible, 200_000, "enc", move |s| {
                    s.read(obj, 0, 1_024, PlaceId(0));
                })
                .with_footprint(Footprint::single(obj, 1_024, PlaceId(0)))
            })
            .collect();
        let mut sim = Simulation::new(ClusterConfig::new(2, 1), Box::new(DistWs::default()));
        let report = sim.run_roots("enc", roots);
        assert!(
            report.steals.remote > 0,
            "test needs at least one migration"
        );
        assert_eq!(
            report.remote_refs, 0,
            "carried data must be local at the thief"
        );
        // Migration payloads include the 1 KiB footprints.
        assert!(report.messages.bytes > 1_024);
    }
}
