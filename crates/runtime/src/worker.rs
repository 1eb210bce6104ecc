//! Worker threads: each runs Algorithm 1's acquire loop against real
//! lock-free deques.

use crate::shared::{IdleAction, IdleGate, WorkerStats};
use crate::RunShared;
use distws_core::rng::SplitMix64;
use distws_core::{
    FinishLatch, GlobalWorkerId, Locality, PlaceId, TaskBody, TaskId, TaskScope, TaskSpec,
};
use distws_deque::chase_lev::{deque, Worker};
use distws_sched::{DequeChoice, Policy, StealStep, TaskMeta};
use distws_trace::{SharedSink, StealTier, TraceEvent, TraceEventKind, TraceSink};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A task inside the threaded runtime.
pub(crate) struct RtTask {
    pub home: PlaceId,
    pub locality: Locality,
    pub spec_est: u64,
    #[allow(dead_code)]
    pub label: &'static str,
    pub latch: Option<Arc<FinishLatch>>,
    pub body: TaskBody,
}

impl RtTask {
    /// Convert a [`TaskSpec`] (footprints carry no runtime meaning
    /// here — there is no cost accounting on real threads).
    pub fn from_spec(spec: TaskSpec) -> Self {
        RtTask {
            home: spec.home,
            locality: spec.locality,
            spec_est: spec.est_cost_ns,
            label: spec.label,
            latch: spec.latch,
            body: spec.body,
        }
    }
}

/// One worker thread's state.
pub(crate) struct WorkerHarness {
    id: GlobalWorkerId,
    place: PlaceId,
    shared: Arc<RunShared>,
    policy: Box<dyn Policy>,
    rng: SplitMix64,
    trace: SharedSink,
    /// Steal-round buffer, reused across rounds.
    steal_buf: Vec<StealStep>,
}

impl WorkerHarness {
    pub fn new(
        id: GlobalWorkerId,
        shared: Arc<RunShared>,
        policy: Box<dyn Policy>,
        seed: u64,
    ) -> Self {
        let place = shared.cfg.place_of(id);
        let trace = shared.trace.clone();
        WorkerHarness {
            id,
            place,
            shared,
            policy,
            rng: SplitMix64::new(seed),
            trace,
            steal_buf: Vec::new(),
        }
    }

    /// Nanoseconds since the run started (the trace clock).
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn emit(&mut self, kind: TraceEventKind) {
        if self.trace.enabled() {
            let ev = TraceEvent {
                t_ns: self.now_ns(),
                worker: self.id,
                place: self.place,
                kind,
            };
            self.trace.with(|s| s.record(ev));
        }
    }

    /// Thread entry point. Returns busy time + histogram observations.
    pub fn run(mut self) -> WorkerStats {
        // Deques are created lazily per thread and registered through
        // the shared registry; to keep this simple and lock-free at
        // steady state, the registry is built with a barrier below.
        let (worker, stealer) = deque::<RtTask>();
        self.shared.register_stealer(self.id, stealer);
        // Wait until every worker registered (barrier).
        self.shared.wait_registry();

        let mut stats = WorkerStats::default();
        let mut gate = IdleGate::default();
        loop {
            if self.shared.done.load(Ordering::SeqCst) {
                break;
            }
            let got = self.acquire(&worker, &mut stats);
            self.policy.note_result(self.id, got.is_some());
            match got {
                Some(task) => {
                    if let Some(span) = gate.note_work() {
                        stats.dormancy.record(span);
                        self.emit(TraceEventKind::Wakeup);
                    }
                    let dur = self.execute(&worker, task);
                    stats.granularity.record(dur);
                    stats.busy_ns += dur;
                }
                None => {
                    self.shared.steals_failed.fetch_add(1, Ordering::Relaxed);
                    match gate.note_idle() {
                        IdleAction::Yield => std::thread::yield_now(),
                        IdleAction::Park { newly_dormant } => {
                            if newly_dormant {
                                self.emit(TraceEventKind::Dormant);
                            }
                            gate.nap();
                        }
                    }
                }
            }
        }
        stats
    }

    /// Algorithm 1 lines 9–29 against the real deques. The board is
    /// racy here (other threads publish while a round is walked), so
    /// the round is asked for eagerly, not phase by phase.
    fn acquire(&mut self, worker: &Worker<RtTask>, stats: &mut WorkerStats) -> Option<RtTask> {
        let mut steps = std::mem::take(&mut self.steal_buf);
        self.policy
            .steal_sequence_into(self.id, &self.shared.board, &mut self.rng, &mut steps);
        let got = self.walk_steps(&steps, worker, stats);
        self.steal_buf = steps;
        got
    }

    fn walk_steps(
        &mut self,
        steps: &[StealStep],
        worker: &Worker<RtTask>,
        stats: &mut WorkerStats,
    ) -> Option<RtTask> {
        let wpp = self.shared.cfg.workers_per_place;
        for &step in steps {
            match step {
                StealStep::PollPrivate => {
                    if let Some(t) = worker.pop() {
                        self.shared.board.set_private_len(self.id, worker.len());
                        return Some(t);
                    }
                }
                StealStep::ProbeNetwork => {
                    // Line 11 / line 19: emitted whether or not anything
                    // arrived, so `repro conform` can justify every
                    // remote attempt in this worker's timeline.
                    self.emit(TraceEventKind::NetProbe);
                    if let Some(t) = self.probe_inbox(worker) {
                        return Some(t);
                    }
                }
                StealStep::StealCoWorker => {
                    self.emit(TraceEventKind::StealAttempt {
                        tier: StealTier::LocalPrivate,
                    });
                    let started = Instant::now();
                    let local = self.id.local(wpp).0;
                    for off in 1..wpp {
                        let v = self
                            .shared
                            .cfg
                            .global(self.place, distws_core::WorkerId((local + off) % wpp));
                        if let Some(t) = self.shared.stealer(v).steal_with_retries(4) {
                            self.shared.steals_private.fetch_add(1, Ordering::Relaxed);
                            let latency = started.elapsed().as_nanos() as u64;
                            stats.steal_local_private.record(latency);
                            self.emit(TraceEventKind::StealSuccess {
                                tier: StealTier::LocalPrivate,
                                task: TaskId(0),
                                victim: self.place,
                                latency_ns: latency,
                            });
                            return Some(t);
                        }
                    }
                }
                StealStep::StealLocalShared => {
                    self.emit(TraceEventKind::StealAttempt {
                        tier: StealTier::LocalShared,
                    });
                    let started = Instant::now();
                    let q = &self.shared.shared[self.place.index()];
                    if let Some(t) = q.take() {
                        self.shared.board.set_shared_len(self.place, q.len());
                        self.shared.steals_shared.fetch_add(1, Ordering::Relaxed);
                        let latency = started.elapsed().as_nanos() as u64;
                        stats.steal_local_shared.record(latency);
                        self.emit(TraceEventKind::StealSuccess {
                            tier: StealTier::LocalShared,
                            task: TaskId(0),
                            victim: self.place,
                            latency_ns: latency,
                        });
                        return Some(t);
                    }
                }
                StealStep::StealRemoteShared(victim) => {
                    self.emit(TraceEventKind::StealAttempt {
                        tier: StealTier::Remote,
                    });
                    let started = Instant::now();
                    // Clone the Arc so the deque borrow doesn't pin
                    // `self` (the retry loop below needs `&mut self`
                    // for tracing and backoff jitter).
                    let shared = Arc::clone(&self.shared);
                    let q = &shared.shared[victim.index()];
                    let budget = self.shared.steal_retry_budget;
                    let mut attempt = 0u32;
                    let chunk = loop {
                        attempt += 1;
                        if !q.is_empty() {
                            let c = q.take_chunk(self.policy.remote_chunk_for(q.len()));
                            self.shared.board.set_shared_len(victim, q.len());
                            if !c.is_empty() {
                                break c;
                            }
                        }
                        // Empty-handed probe. On real threads there is
                        // no lost reply to wait out, so a "timeout" is
                        // simply a fruitless probe; while the retry
                        // budget lasts, back off and re-probe the same
                        // victim (work may get published meanwhile).
                        if attempt > budget {
                            break Vec::new();
                        }
                        self.shared.steal_timeouts.fetch_add(1, Ordering::Relaxed);
                        self.shared.steal_retries.fetch_add(1, Ordering::Relaxed);
                        self.emit(TraceEventKind::StealTimeout { victim, attempt });
                        let backoff = self.shared.retry.backoff_ns(attempt, &mut self.rng);
                        std::thread::sleep(Duration::from_nanos(backoff));
                    };
                    if chunk.is_empty() {
                        continue;
                    }
                    // A distributed steal is a message exchange.
                    self.shared.messages.fetch_add(2, Ordering::Relaxed);
                    self.shared
                        .steals_remote
                        .fetch_add(chunk.len() as u64, Ordering::Relaxed);
                    if let Some(d) = self.shared.net_delay {
                        std::thread::sleep(d);
                    }
                    let mut iter = chunk.into_iter();
                    let first = iter.next();
                    for t in iter {
                        assert!(
                            self.policy.may_migrate(t.locality),
                            "{} migrated a non-migratable task",
                            self.policy.name()
                        );
                        worker.push(t);
                    }
                    self.shared.board.set_private_len(self.id, worker.len());
                    if let Some(t) = &first {
                        assert!(self.policy.may_migrate(t.locality));
                    }
                    let latency = started.elapsed().as_nanos() as u64;
                    stats.steal_remote.record(latency);
                    self.emit(TraceEventKind::StealSuccess {
                        tier: StealTier::Remote,
                        task: TaskId(0),
                        victim,
                        latency_ns: latency,
                    });
                    return first;
                }
                StealStep::Quiesce => {
                    // Lifeline push machinery is simulator-only; on
                    // real threads quiescing degrades to a nap before
                    // the next round.
                    std::thread::sleep(Duration::from_micros(100));
                    return None;
                }
            }
        }
        None
    }

    /// Drain one ready inbox delivery and map it (Algorithm 1 lines
    /// 1–8). Returns a task if the mapping handed it straight to us.
    fn probe_inbox(&mut self, worker: &Worker<RtTask>) -> Option<RtTask> {
        let task = {
            let mut inbox = self.shared.inbox[self.place.index()].lock().unwrap();
            match inbox.front() {
                Some((ready, _)) if *ready <= Instant::now() => inbox.pop_front().map(|(_, t)| t),
                _ => None,
            }
        }?;
        let meta = TaskMeta {
            home: self.place,
            locality: task.locality,
            spawned_at: self.place,
            est_cost_ns: task.spec_est,
            footprint_bytes: 0,
        };
        match self
            .policy
            .map_task(&meta, &self.shared.board, &mut self.rng)
        {
            DequeChoice::Private => Some(task),
            DequeChoice::Shared => {
                let q = &self.shared.shared[self.place.index()];
                q.push(task);
                self.shared.board.set_shared_len(self.place, q.len());
                // We are idle and just published work: take it back via
                // the normal shared-deque path on the next step; the
                // publish still matters because remote thieves can now
                // see it.
                let _ = worker;
                None
            }
        }
    }

    /// Execute one task body; returns its wall-clock duration in ns.
    fn execute(&mut self, worker: &Worker<RtTask>, task: RtTask) -> u64 {
        self.shared.board.worker_busy(self.place);
        self.emit(TraceEventKind::TaskStart { task: TaskId(0) });
        let started = Instant::now();
        {
            let here = self.place;
            let id = self.id;
            let harness_ptr: *mut WorkerHarness = self;
            let mut scope = RtScope {
                here,
                home: task.home,
                worker: id,
                deque: worker,
                harness: harness_ptr,
            };
            (task.body)(&mut scope);
        }
        let elapsed = started.elapsed().as_nanos() as u64;
        self.emit(TraceEventKind::TaskEnd { task: TaskId(0) });
        self.shared.board.set_private_len(self.id, worker.len());
        self.shared.board.worker_idle(self.place);
        // Completion: release the latch continuation (counted as
        // spawned *before* this completion is counted, so quiescence
        // detection can never fire early).
        if let Some(latch) = &task.latch {
            if let Some(cont) = latch.complete_one() {
                self.route_spawn(worker, cont);
            }
        }
        self.shared.completed.fetch_add(1, Ordering::SeqCst);
        elapsed
    }

    /// Route a task spawned at this place (locally mapped when homed
    /// here, network-delivered otherwise).
    fn route_spawn(&mut self, worker: &Worker<RtTask>, spec: TaskSpec) {
        let task = RtTask::from_spec(spec);
        if task.home == self.place {
            self.shared.spawned.fetch_add(1, Ordering::SeqCst);
            self.shared
                .total_est_ns
                .fetch_add(task.spec_est, Ordering::Relaxed);
            let meta = TaskMeta {
                home: self.place,
                locality: task.locality,
                spawned_at: self.place,
                est_cost_ns: task.spec_est,
                footprint_bytes: 0,
            };
            match self
                .policy
                .map_task(&meta, &self.shared.board, &mut self.rng)
            {
                DequeChoice::Private => {
                    worker.push(task);
                    self.shared.board.set_private_len(self.id, worker.len());
                }
                DequeChoice::Shared => {
                    let q = &self.shared.shared[self.place.index()];
                    q.push(task);
                    self.shared.board.set_shared_len(self.place, q.len());
                }
            }
        } else {
            self.shared.route(task, Some(self.place));
        }
    }
}

/// The scope handed to running task bodies.
struct RtScope<'a> {
    here: PlaceId,
    home: PlaceId,
    worker: GlobalWorkerId,
    deque: &'a Worker<RtTask>,
    harness: *mut WorkerHarness,
}

impl<'a> RtScope<'a> {
    fn harness(&mut self) -> &mut WorkerHarness {
        // SAFETY: the scope lives strictly inside `execute`, which has
        // exclusive access to the harness; the raw pointer breaks the
        // borrow cycle between the body closure and the harness.
        unsafe { &mut *self.harness }
    }
}

impl<'a> TaskScope for RtScope<'a> {
    fn here(&self) -> PlaceId {
        self.here
    }

    fn home(&self) -> PlaceId {
        self.home
    }

    fn worker(&self) -> GlobalWorkerId {
        self.worker
    }

    fn task_id(&self) -> TaskId {
        TaskId(0) // task ids are a simulator concept
    }

    fn spawn(&mut self, spec: TaskSpec) {
        let deque = self.deque;
        self.harness().route_spawn(deque, spec);
    }

    fn charge(&mut self, _ns: u64) {
        // Real time is real: virtual charges are a simulator concept.
    }

    fn access(&mut self, _access: distws_core::Access) {
        // No cache/traffic model on real threads.
    }
}
