//! # distws-runtime
//!
//! A real multithreaded work-stealing runtime executing the same
//! [`distws_core::Workload`]s and [`distws_sched::Policy`]s as the
//! discrete-event simulator.
//!
//! One OS thread per worker; places are groups of workers inside one
//! process. Each worker owns a lock-free Chase–Lev private deque
//! (`distws-deque`), each place owns a shared FIFO deque and an
//! *inbox* standing in for the network: cross-place spawns are
//! delivered there and picked up by Algorithm 1's `ProbeNetwork` step,
//! optionally after an injected latency that emulates the cluster
//! interconnect.
//!
//! Faithfulness notes (vs `distws-sim`):
//!
//! * steal order, deque structure and the task-mapping rule are the
//!   *same policy code*;
//! * time is real, so reports carry wall-clock makespans and real
//!   steal counts, but no cache model or virtual cost accounting;
//! * the lifeline protocol's quiesce/push machinery is simulator-only;
//!   under this runtime `Quiesce` degrades to a short sleep before the
//!   next steal round (documented degradation, asserted in tests).
//!
//! Application results are identical across both engines and all
//! policies — the suite's workloads validate themselves after every
//! run.

mod board;
pub mod shared;
mod worker;

pub use board::SharedBoard;
pub use shared::{IdleAction, IdleGate, WorkerStats};

use distws_core::rng::SplitMix64;
use distws_core::{
    ClusterConfig, FaultSummary, PlaceId, RunReport, StealCounts, TaskSpec, UtilizationSummary,
    Workload,
};
use distws_deque::SharedFifo;
use distws_metrics::{Counter, MetricsSink};
use distws_sched::{Policy, RetryPolicy};
use distws_trace::SharedSink;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use worker::{RtTask, WorkerHarness};

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Cluster shape (places × workers per place = OS threads).
    pub cluster: ClusterConfig,
    /// Injected one-way latency for cross-place deliveries (emulates
    /// the interconnect; `None` = deliver immediately).
    pub net_delay: Option<Duration>,
    /// Seed for the per-worker policy RNGs.
    pub seed: u64,
    /// Probability that a cross-place delivery is "lost" on its first
    /// transmission. The runtime's inbox is shared memory, so loss is
    /// emulated sender-side: each loss delays the delivery by one
    /// retransmission round ([`RetryPolicy::timeout_ns`]) and bumps
    /// the drop/retransmission counters — the task itself is never
    /// lost, keeping exactly-once execution by construction. Clamped
    /// to 0.9 so retransmission always terminates.
    pub drop_p: f64,
    /// Timeout parameters for emulated loss.
    pub retry: RetryPolicy,
}

impl RuntimeConfig {
    /// Defaults for a cluster shape.
    pub fn new(cluster: ClusterConfig) -> Self {
        RuntimeConfig {
            cluster,
            net_delay: None,
            seed: 0x5EED,
            drop_p: 0.0,
            retry: RetryPolicy::default(),
        }
    }
}

/// Shared run state visible to all workers.
pub(crate) struct RunShared {
    pub cfg: ClusterConfig,
    pub board: SharedBoard,
    pub shared: Vec<SharedFifo<RtTask>>,
    /// Stealer handles, registered by each worker thread at startup.
    pub stealers: Vec<std::sync::OnceLock<distws_deque::Stealer<RtTask>>>,
    /// Per-place network inbox: (ready-at, task).
    pub inbox: Vec<Mutex<VecDeque<(Instant, RtTask)>>>,
    pub net_delay: Option<Duration>,
    pub spawned: AtomicU64,
    pub completed: AtomicU64,
    pub done: AtomicBool,
    // steal counters
    pub steals_private: AtomicU64,
    pub steals_shared: AtomicU64,
    pub steals_remote: AtomicU64,
    pub steals_failed: AtomicU64,
    pub messages: AtomicU64,
    pub total_est_ns: AtomicU64,
    // fault emulation
    /// First-transmission loss probability for cross-place deliveries.
    pub drop_p: f64,
    pub retry: RetryPolicy,
    /// Seeded stream deciding which deliveries are "lost". A mutex is
    /// fine: it is touched only on cross-place sends when `drop_p > 0`.
    pub drop_rng: Mutex<SplitMix64>,
    pub msgs_dropped: AtomicU64,
    pub retransmissions: AtomicU64,
    /// Trace sink shared by all workers (null unless
    /// [`Runtime::run_roots_traced`] was used).
    pub trace: SharedSink,
    /// Run start — the zero point of the wall-clock trace timeline.
    pub epoch: Instant,
}

impl RunShared {
    /// Register this worker's stealer handle (called once per thread).
    pub fn register_stealer(
        &self,
        w: distws_core::GlobalWorkerId,
        s: distws_deque::Stealer<RtTask>,
    ) {
        self.stealers[w.index()]
            .set(s)
            .ok()
            .expect("stealer registered twice");
    }

    /// Block until every worker has registered (startup barrier).
    pub fn wait_registry(&self) {
        while self.stealers.iter().any(|s| s.get().is_none()) {
            std::thread::yield_now();
        }
    }

    /// The stealer handle of a worker.
    pub fn stealer(&self, w: distws_core::GlobalWorkerId) -> &distws_deque::Stealer<RtTask> {
        self.stealers[w.index()].get().expect("registry incomplete")
    }

    /// Route a freshly spawned task toward its home place. `from` is
    /// the spawning place (or `None` for roots).
    pub fn route(&self, task: RtTask, from: Option<PlaceId>) {
        self.spawned.fetch_add(1, Ordering::SeqCst);
        self.total_est_ns
            .fetch_add(task.spec_est, Ordering::Relaxed);
        let home = task.home;
        let cross_place = from.map(|f| f != home).unwrap_or(true);
        if cross_place {
            // `async at (p)`: a network delivery.
            self.messages.fetch_add(1, Ordering::Relaxed);
            let mut ready = match self.net_delay {
                Some(d) => Instant::now() + d,
                None => Instant::now(),
            };
            if self.drop_p > 0.0 {
                // Emulated loss: the sender keeps retransmitting until
                // a transmission "arrives", so the delivery is delayed
                // by one timeout per loss but never actually lost.
                let p = self.drop_p.min(0.9);
                let mut rng = self.drop_rng.lock().unwrap();
                while rng.next_f64() < p {
                    self.msgs_dropped.fetch_add(1, Ordering::Relaxed);
                    self.retransmissions.fetch_add(1, Ordering::Relaxed);
                    ready += Duration::from_nanos(self.retry.timeout_ns.max(1));
                }
            }
            self.inbox[home.index()]
                .lock()
                .unwrap()
                .push_back((ready, task));
        } else {
            // Local spawn: the worker maps it directly (help-first);
            // handled by the caller — reaching here means the caller
            // chose inbox delivery anyway.
            self.inbox[home.index()]
                .lock()
                .unwrap()
                .push_back((Instant::now(), task));
        }
    }
}

/// The threaded runtime.
pub struct Runtime {
    cfg: RuntimeConfig,
    policy: Box<dyn Policy>,
}

impl Runtime {
    /// A runtime with default configuration for a cluster shape.
    pub fn new(cluster: ClusterConfig, policy: Box<dyn Policy>) -> Self {
        Runtime {
            cfg: RuntimeConfig::new(cluster),
            policy,
        }
    }

    /// A runtime with an explicit configuration.
    pub fn with_config(cfg: RuntimeConfig, policy: Box<dyn Policy>) -> Self {
        Runtime { cfg, policy }
    }

    /// Run a workload to completion on real threads and validate it.
    pub fn run_app(&mut self, app: &dyn Workload) -> RunReport {
        let roots = app.roots(&self.cfg.cluster);
        let report = self.run_roots(&app.name(), roots);
        if let Err(e) = app.validate() {
            panic!(
                "workload '{}' failed validation under {}: {e}",
                app.name(),
                report.scheduler
            );
        }
        report
    }

    /// Run explicit root tasks to completion.
    pub fn run_roots(&mut self, name: &str, roots: Vec<TaskSpec>) -> RunReport {
        self.run_roots_traced(name, roots, SharedSink::null())
    }

    /// Run a workload with engine self-metrics folded into `metrics`
    /// after completion. The threaded runtime's counters come from its
    /// per-run atomics, so — unlike the simulator's — they are only as
    /// deterministic as the thread schedule that produced them.
    pub fn run_app_metered(
        &mut self,
        app: &dyn Workload,
        metrics: &mut dyn MetricsSink,
    ) -> RunReport {
        let roots = app.roots(&self.cfg.cluster);
        let report = self.run_roots_metered(&app.name(), roots, metrics);
        if let Err(e) = app.validate() {
            panic!(
                "workload '{}' failed validation under {}: {e}",
                app.name(),
                report.scheduler
            );
        }
        report
    }

    /// [`Self::run_roots`] + post-run metrics fold (see
    /// [`Self::run_app_metered`]).
    pub fn run_roots_metered(
        &mut self,
        name: &str,
        roots: Vec<TaskSpec>,
        metrics: &mut dyn MetricsSink,
    ) -> RunReport {
        let report = self.run_roots(name, roots);
        if metrics.enabled() {
            metrics.add(Counter::TasksAllocated, report.tasks_spawned);
            metrics.add(Counter::steal_successes(0), report.steals.local_private);
            metrics.add(Counter::steal_successes(1), report.steals.local_shared);
            metrics.add(Counter::steal_successes(2), report.steals.remote);
            metrics.add(Counter::MsgsSent, report.messages.total());
            metrics.add(Counter::MsgsDropped, report.faults.msgs_dropped);
            metrics.add(Counter::MsgsRetried, report.faults.retransmissions);
        }
        report
    }

    /// Like [`Self::run_roots`], but streams [`distws_trace`] events
    /// into `sink`. Event timestamps are wall-clock nanoseconds since
    /// run start; unlike the simulator's traces they are **not**
    /// deterministic across runs.
    pub fn run_roots_traced(
        &mut self,
        name: &str,
        roots: Vec<TaskSpec>,
        sink: SharedSink,
    ) -> RunReport {
        let cluster = self.cfg.cluster.clone();
        let np = cluster.places as usize;
        let shared = Arc::new(RunShared {
            cfg: cluster.clone(),
            board: SharedBoard::new(cluster.clone()),
            shared: (0..np).map(|_| SharedFifo::new()).collect(),
            stealers: (0..cluster.total_workers() as usize)
                .map(|_| std::sync::OnceLock::new())
                .collect(),
            inbox: (0..np).map(|_| Mutex::new(VecDeque::new())).collect(),
            net_delay: self.cfg.net_delay,
            spawned: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            done: AtomicBool::new(false),
            steals_private: AtomicU64::new(0),
            steals_shared: AtomicU64::new(0),
            steals_remote: AtomicU64::new(0),
            steals_failed: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            total_est_ns: AtomicU64::new(0),
            drop_p: self.cfg.drop_p,
            retry: self.cfg.retry,
            drop_rng: Mutex::new(SplitMix64::new(self.cfg.seed ^ 0xFA17)),
            msgs_dropped: AtomicU64::new(0),
            retransmissions: AtomicU64::new(0),
            trace: sink,
            epoch: Instant::now(),
        });

        let start = Instant::now();
        for spec in roots {
            shared.route(RtTask::from_spec(spec), None);
        }

        let mut handles = Vec::new();
        for w in cluster.worker_ids() {
            let harness = WorkerHarness::new(
                w,
                Arc::clone(&shared),
                self.policy.clone_box(),
                self.cfg.seed ^ (0x9E37 + w.0 as u64),
            );
            handles.push(std::thread::spawn(move || harness.run()));
        }

        // Quiescence detection: children are counted as spawned while
        // their parent is still uncompleted, so spawned == completed
        // can only be observed when no task is running or pending.
        loop {
            std::thread::sleep(Duration::from_micros(500));
            let s = shared.spawned.load(Ordering::SeqCst);
            let c = shared.completed.load(Ordering::SeqCst);
            if s == c {
                shared.done.store(true, Ordering::SeqCst);
                break;
            }
        }
        let mut busy = vec![0u64; cluster.total_workers() as usize];
        let mut merged = WorkerStats::default();
        for (i, h) in handles.into_iter().enumerate() {
            let stats = h.join().expect("worker panicked");
            busy[i] = stats.busy_ns;
            merged.merge(&stats);
        }
        let makespan = start.elapsed().as_nanos() as u64;
        shared.trace.with(|s| s.flush());

        let wpp = cluster.workers_per_place as usize;
        let per_place = (0..np)
            .map(|p| {
                let b: u64 = busy[p * wpp..(p + 1) * wpp].iter().sum();
                (b as f64 / (makespan as f64 * wpp as f64)).min(1.0)
            })
            .collect();

        RunReport {
            scheduler: self.policy.name().to_string(),
            app: name.to_string(),
            config: cluster,
            makespan_ns: makespan,
            total_work_ns: shared.total_est_ns.load(Ordering::Relaxed),
            tasks_spawned: shared.spawned.load(Ordering::SeqCst),
            tasks_executed: shared.completed.load(Ordering::SeqCst),
            steals: StealCounts {
                local_private: shared.steals_private.load(Ordering::Relaxed),
                local_shared: shared.steals_shared.load(Ordering::Relaxed),
                remote: shared.steals_remote.load(Ordering::Relaxed),
                failed_attempts: shared.steals_failed.load(Ordering::Relaxed),
            },
            messages: distws_core::MessageCounts {
                task_migrations: shared.messages.load(Ordering::Relaxed),
                ..Default::default()
            },
            cache: Default::default(),
            utilization: UtilizationSummary { per_place },
            remote_refs: 0,
            faults: FaultSummary {
                msgs_dropped: shared.msgs_dropped.load(Ordering::Relaxed),
                retransmissions: shared.retransmissions.load(Ordering::Relaxed),
                ..Default::default()
            },
            percentiles: distws_core::RunPercentiles {
                steal_local_private_ns: merged.steal_local_private.summary(),
                steal_local_shared_ns: merged.steal_local_shared.summary(),
                steal_remote_ns: merged.steal_remote.summary(),
                task_granularity_ns: merged.granularity.summary(),
                dormancy_ns: merged.dormancy.summary(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distws_core::Locality;
    use distws_sched::{DistWs, X10Ws};
    use std::sync::atomic::AtomicU64 as A64;

    #[test]
    fn runs_flat_tasks_on_real_threads() {
        let counter = Arc::new(A64::new(0));
        let roots: Vec<TaskSpec> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                TaskSpec::new(PlaceId(0), Locality::Flexible, 1_000, "t", move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let mut rt = Runtime::new(ClusterConfig::new(2, 2), Box::new(DistWs::default()));
        let report = rt.run_roots("flat", roots);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(report.tasks_spawned, 100);
        assert_eq!(report.tasks_executed, 100);
    }

    #[test]
    fn nested_spawns_complete() {
        let counter = Arc::new(A64::new(0));
        let c0 = Arc::clone(&counter);
        let root = TaskSpec::new(PlaceId(0), Locality::Flexible, 0, "root", move |s| {
            for _ in 0..8 {
                let c1 = Arc::clone(&c0);
                s.spawn(TaskSpec::new(
                    s.here(),
                    Locality::Flexible,
                    0,
                    "mid",
                    move |s2| {
                        for _ in 0..8 {
                            let c2 = Arc::clone(&c1);
                            s2.spawn(TaskSpec::new(
                                s2.here(),
                                Locality::Flexible,
                                0,
                                "leaf",
                                move |_| {
                                    c2.fetch_add(1, Ordering::Relaxed);
                                },
                            ));
                        }
                    },
                ));
            }
        });
        let mut rt = Runtime::new(ClusterConfig::new(2, 2), Box::new(DistWs::default()));
        let report = rt.run_roots("nested", vec![root]);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(report.tasks_executed, 1 + 8 + 64);
    }

    #[test]
    fn cross_place_spawn_arrives() {
        let counter = Arc::new(A64::new(0));
        let c0 = Arc::clone(&counter);
        let root = TaskSpec::new(PlaceId(0), Locality::Sensitive, 0, "root", move |s| {
            let c = Arc::clone(&c0);
            s.spawn(TaskSpec::new(
                PlaceId(1),
                Locality::Sensitive,
                0,
                "remote",
                move |s2| {
                    assert_eq!(
                        s2.here(),
                        PlaceId(1),
                        "sensitive task must run at its place"
                    );
                    c.fetch_add(1, Ordering::Relaxed);
                },
            ));
        });
        let mut rt = Runtime::new(ClusterConfig::new(2, 1), Box::new(X10Ws));
        rt.run_roots("xspawn", vec![root]);
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn finish_latch_releases_continuation_on_threads() {
        use distws_core::FinishLatch;
        let flag = Arc::new(A64::new(0));
        let f = Arc::clone(&flag);
        let cont = TaskSpec::new(PlaceId(0), Locality::Sensitive, 0, "cont", move |_| {
            f.fetch_add(1_000, Ordering::Relaxed);
        });
        let latch = FinishLatch::new(10, cont);
        let roots: Vec<TaskSpec> = (0..10)
            .map(|_| {
                let f = Arc::clone(&flag);
                TaskSpec::new(PlaceId(0), Locality::Flexible, 0, "child", move |_| {
                    f.fetch_add(1, Ordering::Relaxed);
                })
                .with_latch(Arc::clone(&latch))
            })
            .collect();
        let mut rt = Runtime::new(ClusterConfig::new(2, 2), Box::new(DistWs::default()));
        let report = rt.run_roots("latch", roots);
        assert_eq!(flag.load(Ordering::Relaxed), 1_010);
        assert_eq!(report.tasks_executed, 11);
    }

    #[test]
    fn lossy_delivery_never_loses_tasks() {
        // 40 cross-place spawns under 40% emulated loss: every task
        // must still execute exactly once (loss only delays delivery),
        // and the report must account for the drops.
        let counter = Arc::new(A64::new(0));
        let c0 = Arc::clone(&counter);
        let root = TaskSpec::new(PlaceId(0), Locality::Sensitive, 0, "root", move |s| {
            for i in 0..40u32 {
                let c = Arc::clone(&c0);
                s.spawn(TaskSpec::new(
                    PlaceId(1 + i % 3),
                    Locality::Sensitive,
                    0,
                    "remote",
                    move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    },
                ));
            }
        });
        let mut cfg = RuntimeConfig::new(ClusterConfig::new(4, 1));
        cfg.drop_p = 0.4;
        cfg.retry.timeout_ns = 50_000;
        let mut rt = Runtime::with_config(cfg, Box::new(X10Ws));
        let report = rt.run_roots("lossy", vec![root]);
        assert_eq!(counter.load(Ordering::Relaxed), 40);
        assert_eq!(report.tasks_spawned, report.tasks_executed);
        assert!(
            report.faults.msgs_dropped > 0,
            "40% loss over 40 deliveries must drop something"
        );
        assert_eq!(report.faults.msgs_dropped, report.faults.retransmissions);
    }

    #[test]
    fn net_delay_is_tolerated() {
        let counter = Arc::new(A64::new(0));
        let c0 = Arc::clone(&counter);
        let root = TaskSpec::new(PlaceId(0), Locality::Sensitive, 0, "root", move |s| {
            for p in 0..2u32 {
                let c = Arc::clone(&c0);
                s.spawn(TaskSpec::new(
                    PlaceId(p),
                    Locality::Sensitive,
                    0,
                    "child",
                    move |_| {
                        c.fetch_add(1, Ordering::Relaxed);
                    },
                ));
            }
        });
        let mut cfg = RuntimeConfig::new(ClusterConfig::new(2, 1));
        cfg.net_delay = Some(Duration::from_micros(200));
        let mut rt = Runtime::with_config(cfg, Box::new(X10Ws));
        rt.run_roots("delay", vec![root]);
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }
}
