//! The discrete-event engine.

use crate::calendar::CalendarQueue;
use crate::faults::FaultConfig;
use crate::scope::SimScope;
use crate::worker_index::WorkerIndex;
use distws_cachesim::{Cache, CacheConfig};
use distws_core::rng::SplitMix64;
use distws_core::{
    Access, CacheSummary, ClusterConfig, CostModel, FaultSummary, FinishLatch, Footprint,
    GlobalWorkerId, Locality, PlaceId, RunReport, StealCounts, TaskBody, TaskId, TaskSpec,
    UtilizationSummary, Workload,
};
use distws_deque::{SeqPrivateDeque, SeqSharedFifo};
use distws_metrics::{Counter, Gauge, MetricsSink, NullMetrics, Phase};
use distws_netsim::{MsgKind, Network, SendFate, Topology};
use distws_sched::{
    ClusterView, DequeChoice, Policy, RetryPolicy, StealPhase, StealStep, TaskMeta,
};
use distws_trace::{
    Histogram, MessageKind, NullSink, PlaceSample, StealTier, TimeSeries, TraceEvent,
    TraceEventKind, TraceSink,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn trace_msg_kind(kind: MsgKind) -> MessageKind {
    match kind {
        MsgKind::StealRequest => MessageKind::StealRequest,
        MsgKind::StealReply => MessageKind::StealReply,
        MsgKind::TaskMigrate => MessageKind::TaskMigrate,
        MsgKind::DataRequest => MessageKind::DataRequest,
        MsgKind::DataReply => MessageKind::DataReply,
        MsgKind::Control => MessageKind::Control,
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster shape.
    pub cluster: ClusterConfig,
    /// Virtual-time cost constants.
    pub cost: CostModel,
    /// Interconnect topology.
    pub topology: Topology,
    /// L1 model per worker; `None` disables cache accounting.
    pub cache: Option<CacheConfig>,
    /// RNG seed — same seed ⇒ identical run.
    pub seed: u64,
    /// On a shared-deque enqueue, how many *remote* dormant workers are
    /// prodded to retry their steal loop (bounds wake storms; local
    /// dormant workers are always prodded).
    pub remote_wake_limit: usize,
    /// Safety valve: abort if the event count explodes.
    pub max_events: u64,
    /// Virtual-time interval of the telemetry sampler. `None` (the
    /// default) disables sampling; `Some(dt)` makes traced runs return
    /// a per-place queue-depth/utilization [`TimeSeries`].
    pub sample_interval_ns: Option<u64>,
    /// Fault injection. The default is empty, and an empty config is
    /// guaranteed not to change a single virtual-time value, counter
    /// or random draw relative to a fault-free build.
    pub faults: FaultConfig,
}

impl SimConfig {
    /// Defaults for a given cluster shape.
    pub fn new(cluster: ClusterConfig) -> Self {
        SimConfig {
            cluster,
            cost: CostModel::default(),
            topology: Topology::FullyConnected,
            cache: Some(CacheConfig::l1d()),
            seed: 0x5EED,
            remote_wake_limit: 4,
            max_events: 500_000_000,
            sample_interval_ns: None,
            faults: FaultConfig::default(),
        }
    }
}

/// A simulation: configuration + policy. Reusable across runs (each
/// `run_*` call builds fresh state).
pub struct Simulation {
    cfg: SimConfig,
    policy: Box<dyn Policy>,
}

impl Simulation {
    /// Simulation with default cost model, topology, cache and seed.
    pub fn new(cluster: ClusterConfig, policy: Box<dyn Policy>) -> Self {
        Simulation {
            cfg: SimConfig::new(cluster),
            policy,
        }
    }

    /// Simulation with a fully explicit configuration.
    pub fn with_config(cfg: SimConfig, policy: Box<dyn Policy>) -> Self {
        Simulation { cfg, policy }
    }

    /// Mutable access to the configuration (tune costs, seed, …).
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.cfg
    }

    /// Run a [`Workload`]: generate its roots, execute to completion,
    /// and validate its result (panicking on an application-level
    /// wrong answer — scheduling must never change answers).
    pub fn run_app(&mut self, app: &dyn Workload) -> RunReport {
        self.run_app_traced(app, &mut NullSink).0
    }

    /// Run an explicit set of root tasks.
    pub fn run_roots(&mut self, name: &str, roots: Vec<TaskSpec>) -> RunReport {
        self.run_roots_traced(name, roots, &mut NullSink).0
    }

    /// [`Self::run_app`] with structured event tracing into `sink`.
    /// Also returns the telemetry time series when
    /// [`SimConfig::sample_interval_ns`] is set. Tracing never changes
    /// virtual time: the report is identical to an untraced run.
    pub fn run_app_traced(
        &mut self,
        app: &dyn Workload,
        sink: &mut dyn TraceSink,
    ) -> (RunReport, Option<TimeSeries>) {
        self.run_app_metered(app, sink, &mut NullMetrics)
    }

    /// [`Self::run_roots`] with structured event tracing into `sink`.
    pub fn run_roots_traced(
        &mut self,
        name: &str,
        roots: Vec<TaskSpec>,
        sink: &mut dyn TraceSink,
    ) -> (RunReport, Option<TimeSeries>) {
        self.run_roots_metered(name, roots, sink, &mut NullMetrics)
    }

    /// [`Self::run_app_traced`] with engine self-metrics into
    /// `metrics`. Metering only observes: the report is byte-identical
    /// to a [`NullMetrics`] run (property-tested in `distws-bench`).
    pub fn run_app_metered(
        &mut self,
        app: &dyn Workload,
        sink: &mut dyn TraceSink,
        metrics: &mut dyn MetricsSink,
    ) -> (RunReport, Option<TimeSeries>) {
        let roots = app.roots(&self.cfg.cluster);
        let out = self.run_roots_metered(&app.name(), roots, sink, metrics);
        if let Err(e) = app.validate() {
            panic!(
                "workload '{}' failed validation under {}: {e}",
                app.name(),
                out.0.scheduler
            );
        }
        out
    }

    /// [`Self::run_roots_traced`] with engine self-metrics into
    /// `metrics`.
    pub fn run_roots_metered(
        &mut self,
        name: &str,
        roots: Vec<TaskSpec>,
        sink: &mut dyn TraceSink,
        metrics: &mut dyn MetricsSink,
    ) -> (RunReport, Option<TimeSeries>) {
        let mut engine = Engine::new(&self.cfg, self.policy.as_mut(), sink, metrics);
        engine.inject_roots(roots);
        engine.run();
        let series = engine.take_series();
        (engine.into_report(name), series)
    }
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// Arena index of an in-flight [`Task`] — the 4-byte handle that moves
/// through deques and the event queue instead of the ~200-byte task.
type TaskRef = u32;

/// Arena index of an interned [`FinishLatch`].
type LatchRef = u32;

/// `LatchRef` sentinel for "task carries no latch".
const NO_LATCH: LatchRef = u32::MAX;

/// A runnable task instance inside the engine.
struct Task {
    id: TaskId,
    locality: Locality,
    /// Place named by the original `async (p)`.
    origin_home: PlaceId,
    spawned_at: PlaceId,
    spawner: Option<GlobalWorkerId>,
    /// Current owner place (thief place after a migration).
    exec_home: PlaceId,
    /// True once the task migrated with its footprint copied along.
    carried: bool,
    est: u64,
    footprint: Footprint,
    latch: LatchRef,
    body: TaskBody,
}

/// Slots per [`TaskArena`] chunk (about 88 KiB of tasks).
const ARENA_CHUNK: usize = 1024;

/// Slab arena of in-flight tasks. Slots are recycled through a LIFO
/// free list the moment a task starts executing, so the live slot
/// count tracks the number of *queued* tasks, not tasks ever spawned.
///
/// Slots sit in fixed-size chunks that are never reallocated. A single
/// doubling buffer would need, at each growth, a free block twice its
/// size; whether glibc finds one depends on the holes earlier runs in
/// the process left, which makes peak RSS differ by megabytes from one
/// run to the next.
#[derive(Default)]
struct TaskArena {
    chunks: Vec<Vec<Option<Task>>>,
    free: Vec<TaskRef>,
}

impl TaskArena {
    fn alloc(&mut self, task: Task) -> TaskRef {
        if let Some(r) = self.free.pop() {
            *self.slot_mut(r) = Some(task);
            return r;
        }
        if self.chunks.last().is_none_or(|c| c.len() == ARENA_CHUNK) {
            self.chunks.push(Vec::with_capacity(ARENA_CHUNK));
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(Some(task));
        (last * ARENA_CHUNK + self.chunks[last].len() - 1) as TaskRef
    }

    fn slot_mut(&mut self, r: TaskRef) -> &mut Option<Task> {
        let i = r as usize;
        &mut self.chunks[i / ARENA_CHUNK][i % ARENA_CHUNK]
    }

    /// Remove the task, recycling its slot immediately. A `TaskRef` is
    /// a unique handle (exactly one queue or event holds it), so the
    /// slot is provably occupied; the panic documents that invariant.
    fn take(&mut self, r: TaskRef) -> Task {
        let Some(task) = self.slot_mut(r).take() else {
            panic!("task slot {r} already freed");
        };
        self.free.push(r);
        task
    }

    fn get(&self, r: TaskRef) -> &Task {
        let i = r as usize;
        match &self.chunks[i / ARENA_CHUNK][i % ARENA_CHUNK] {
            Some(task) => task,
            None => panic!("task slot {r} already freed"),
        }
    }

    fn get_mut(&mut self, r: TaskRef) -> &mut Task {
        match self.slot_mut(r) {
            Some(task) => task,
            None => panic!("task slot {r} already freed"),
        }
    }
}

/// Interning arena for finish latches: tasks carry a `LatchRef`
/// instead of an `Arc<FinishLatch>` clone. A latch's slot is freed as
/// soon as its pending count drains to zero (every outstanding task
/// holding the ref accounts for at least one pending completion, so a
/// live ref can never point at a freed slot); re-arming a drained
/// latch simply re-interns it.
#[derive(Default)]
struct LatchArena {
    slots: Vec<Option<Arc<FinishLatch>>>,
    free: Vec<LatchRef>,
    /// `Arc` pointer → slot. Entries are removed on free, so pointer
    /// reuse by a later allocation can never alias a stale slot.
    by_ptr: BTreeMap<usize, LatchRef>,
}

impl LatchArena {
    fn intern(&mut self, latch: Arc<FinishLatch>) -> LatchRef {
        let key = Arc::as_ptr(&latch) as usize;
        if let Some(&i) = self.by_ptr.get(&key) {
            return i;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(latch);
                i
            }
            None => {
                self.slots.push(Some(latch));
                (self.slots.len() - 1) as LatchRef
            }
        };
        self.by_ptr.insert(key, i);
        i
    }

    /// Count one completion, freeing the slot once the latch drains.
    fn complete_one(&mut self, r: LatchRef) -> Option<TaskSpec> {
        let Some(latch) = self.slots[r as usize].as_ref() else {
            panic!("latch slot {r} already freed");
        };
        let cont = latch.complete_one();
        if latch.pending() == 0 {
            let key = Arc::as_ptr(latch) as usize;
            self.by_ptr.remove(&key);
            self.slots[r as usize] = None;
            self.free.push(r);
        }
        cont
    }
}

enum EventKind {
    /// Task lands at its `exec_home`: map & enqueue.
    Arrive(TaskRef),
    /// Worker finished its current task.
    Free(GlobalWorkerId),
    /// Prod a parked worker to retry acquiring work. `strong` also
    /// wakes quiesced (lifeline) workers.
    Wake(GlobalWorkerId, bool),
    /// Fail-stop: the place's queued tasks are recovered elsewhere,
    /// its workers halt at the next task boundary.
    PlaceFail(PlaceId, /* hard (SIGKILL-style, silent) */ bool),
    /// A killed place rejoins the cluster empty-handed.
    PlaceRestart(PlaceId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerStatus {
    /// Parked with nothing to do.
    Dormant,
    /// Executing a task body.
    Busy,
    /// Lifeline protocol: parked until a lifeline push (strong wake).
    Quiesced,
}

struct WorkerState {
    deque: SeqPrivateDeque<TaskRef>,
    cache: Option<Cache>,
    status: WorkerStatus,
    /// Pending Wake event already scheduled (dedup).
    wake_pending: bool,
    /// Whether this worker currently counts toward its place's busy
    /// count (claimed by a mapped task or actually executing).
    counted: bool,
    /// Time until which the worker's CPU is occupied (tasks + steal
    /// rounds are serialized on this clock, so accounted time can never
    /// exceed wall time).
    avail_at: u64,
    busy_ns: u64,
    overhead_ns: u64,
    /// Latch of the task currently executing, processed at `Free`.
    finishing_latch: LatchRef,
}

struct PlaceState {
    shared: SeqSharedFifo<TaskRef>,
    /// Places quiesced on us (they named us as a lifeline).
    lifeline_dependents: Vec<PlaceId>,
    /// Round-robin cursor for private-deque target selection.
    rr: u32,
}

/// Incrementally maintained cluster status — the `ClusterView` handed
/// to policies (the paper's per-place status object, §VI.B).
struct Board {
    cfg: ClusterConfig,
    busy: Vec<u32>,
    shared_len: Vec<usize>,
    private_len: Vec<usize>,
}

impl ClusterView for Board {
    fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
    fn busy_workers(&self, p: PlaceId) -> u32 {
        self.busy[p.index()]
    }
    fn shared_len(&self, p: PlaceId) -> usize {
        self.shared_len[p.index()]
    }
    fn private_len(&self, w: GlobalWorkerId) -> usize {
        self.private_len[w.index()]
    }
}

/// The distribution observations folded into `RunReport.percentiles`.
/// Maintained unconditionally — they are ordinary run metrics, so a
/// traced and an untraced run produce identical reports.
#[derive(Default)]
struct Hists {
    steal_local_private: Histogram,
    steal_local_shared: Histogram,
    steal_remote: Histogram,
    granularity: Histogram,
    dormancy: Histogram,
}

struct Engine<'p> {
    cfg: SimConfig,
    policy: &'p mut dyn Policy,
    rng: SplitMix64,
    queue: CalendarQueue<EventKind>,
    tasks: TaskArena,
    latches: LatchArena,
    workers: Vec<WorkerState>,
    places: Vec<PlaceState>,
    board: Board,
    /// Worker sets, maintained by `refresh_bits` after every
    /// `counted`/`status`/`wake_pending` mutation, so that task mapping
    /// and wakeups look workers up by place instead of scanning for
    /// them: `idle` = unclaimed and not Busy, `dormant` = Dormant with
    /// no Wake in flight, `quiesced` = Quiesced with no Wake in flight
    /// (workers a wake would actually move).
    idle: WorkerIndex,
    dormant: WorkerIndex,
    quiesced: WorkerIndex,
    /// Reusable buffers for wakeups, the steal loop and task execution.
    wake_buf: Vec<GlobalWorkerId>,
    steal_buf: Vec<StealStep>,
    chunk_buf: Vec<TaskRef>,
    spawn_buf: Vec<TaskSpec>,
    access_buf: Vec<Access>,
    net: Network,
    steals: StealCounts,
    remote_refs: u64,
    tasks_spawned: u64,
    tasks_executed: u64,
    total_work: u64,
    next_task: u64,
    makespan: u64,
    events: u64,
    trace: &'p mut dyn TraceSink,
    /// Cached `trace.enabled()` — the per-site check.
    tracing: bool,
    metrics: &'p mut dyn MetricsSink,
    /// Cached `metrics.enabled()` — the per-site check.
    metering: bool,
    series: Option<TimeSeries>,
    hists: Hists,
    /// Task currently executing per worker (for `TaskEnd` pairing).
    running: Vec<Option<TaskId>>,
    /// When each parked worker went dormant/quiesced (dormancy hist).
    parked_since: Vec<Option<u64>>,
    /// Fault injection. There is no fault-free mode: a clean run is
    /// the same code over an all-alive, nominal-speed cluster and a
    /// network that delivers everything (no random draw, no timeout).
    alive: Vec<bool>,
    /// Per-place straggler multiplier (1.0 = nominal speed).
    slow: Vec<f64>,
    /// Dedicated stream for backoff jitter — independent of both the
    /// scheduling RNG and the network's drop/dup stream.
    fault_rng: SplitMix64,
    fault_stats: FaultSummary,
    retry: RetryPolicy,
    detect_ns: u64,
    lease_timeout_ns: u64,
}

impl<'p> Engine<'p> {
    fn new(
        cfg: &SimConfig,
        policy: &'p mut dyn Policy,
        trace: &'p mut dyn TraceSink,
        metrics: &'p mut dyn MetricsSink,
    ) -> Self {
        let cluster = cfg.cluster.clone();
        cfg.faults
            .validate(cluster.places)
            .unwrap_or_else(|e| panic!("invalid fault config: {e}"));
        let nw = cluster.total_workers() as usize;
        let np = cluster.places as usize;
        let workers = (0..nw)
            .map(|_| WorkerState {
                deque: SeqPrivateDeque::new(),
                // Built on first access: most workloads declare none.
                cache: None,
                status: WorkerStatus::Dormant,
                wake_pending: false,
                counted: false,
                avail_at: 0,
                busy_ns: 0,
                overhead_ns: 0,
                finishing_latch: NO_LATCH,
            })
            .collect();
        let places = (0..np)
            .map(|_| PlaceState {
                shared: SeqSharedFifo::new(),
                lifeline_dependents: Vec::new(),
                rr: 0,
            })
            .collect();
        let mut engine = Engine {
            cfg: cfg.clone(),
            policy,
            rng: SplitMix64::new(cfg.seed),
            queue: CalendarQueue::new(),
            tasks: TaskArena::default(),
            latches: LatchArena::default(),
            workers,
            places,
            // Every worker starts Dormant, unclaimed, with no wake in
            // flight.
            idle: WorkerIndex::full(&cluster),
            dormant: WorkerIndex::full(&cluster),
            quiesced: WorkerIndex::empty(&cluster),
            wake_buf: Vec::new(),
            steal_buf: Vec::new(),
            chunk_buf: Vec::new(),
            spawn_buf: Vec::new(),
            access_buf: Vec::new(),
            board: Board {
                cfg: cluster.clone(),
                busy: vec![0; np],
                shared_len: vec![0; np],
                private_len: vec![0; nw],
            },
            net: {
                let mut net = Network::new(cluster.places, cfg.cost.clone(), cfg.topology);
                net.set_recording(trace.enabled());
                net.set_fault_plan(cfg.faults.net.clone(), cfg.faults.seed);
                net
            },
            steals: StealCounts::default(),
            remote_refs: 0,
            tasks_spawned: 0,
            tasks_executed: 0,
            total_work: 0,
            next_task: 0,
            makespan: 0,
            events: 0,
            tracing: trace.enabled(),
            trace,
            metering: metrics.enabled(),
            metrics,
            series: cfg
                .sample_interval_ns
                .map(|dt| TimeSeries::new(cluster.places, cluster.workers_per_place, dt)),
            hists: Hists::default(),
            running: vec![None; nw],
            parked_since: vec![None; nw],
            alive: vec![true; np],
            slow: {
                let mut slow = vec![1.0; np];
                for (p, f) in &cfg.faults.slow {
                    slow[p.index()] = *f;
                }
                slow
            },
            // Offset so the backoff jitter stream never mirrors the
            // network's drop/dup stream even though both derive from
            // the same fault seed.
            fault_rng: SplitMix64::new(cfg.faults.seed ^ 0x9E3779B97F4A7C15),
            fault_stats: FaultSummary::default(),
            retry: cfg.faults.retry,
            detect_ns: cfg.faults.detect_ns,
            lease_timeout_ns: cfg.faults.lease_timeout_ns,
        };
        for (p, at) in &cfg.faults.kills {
            engine.schedule(*at, EventKind::PlaceFail(*p, false));
        }
        for (p, at) in &cfg.faults.hard_kills {
            engine.schedule(*at, EventKind::PlaceFail(*p, true));
        }
        for (p, at) in &cfg.faults.restarts {
            engine.schedule(*at, EventKind::PlaceRestart(*p));
        }
        engine
    }

    // -- telemetry -----------------------------------------------------------

    /// Emit one trace event. Callers must have checked `self.tracing`.
    fn emit(&mut self, t_ns: u64, w: GlobalWorkerId, kind: TraceEventKind) {
        let place = self.cfg.cluster.place_of(w);
        self.trace.record(TraceEvent {
            t_ns,
            worker: w,
            place,
            kind,
        });
    }

    /// Drain the network's message log (non-empty only while tracing)
    /// and emit one `Message` event per record, stamped with `t_ns` and
    /// attributed to `w` (the worker whose action caused the traffic).
    fn drain_net(&mut self, t_ns: u64, w: GlobalWorkerId) {
        if !self.tracing {
            return;
        }
        for m in self.net.take_log() {
            self.trace.record(TraceEvent {
                t_ns,
                worker: w,
                place: m.src,
                kind: TraceEventKind::Message {
                    kind: trace_msg_kind(m.kind),
                    to: m.dst,
                    bytes: m.bytes,
                    dropped: m.dropped,
                },
            });
        }
    }

    /// Record samples for every grid instant the clock has passed.
    fn sample_series(&mut self, now: u64) {
        let Some(mut series) = self.series.take() else {
            return;
        };
        while series.due(now) {
            let np = self.cfg.cluster.places as usize;
            let wpp = self.cfg.cluster.workers_per_place as usize;
            let mut places = Vec::with_capacity(np);
            for p in 0..np {
                let mut s = PlaceSample {
                    queue_depth: self.board.shared_len[p] as u64,
                    ..Default::default()
                };
                for wi in p * wpp..(p + 1) * wpp {
                    s.queue_depth += self.board.private_len[wi] as u64;
                    match self.workers[wi].status {
                        WorkerStatus::Busy => s.busy_workers += 1,
                        WorkerStatus::Dormant | WorkerStatus::Quiesced => s.dormant_workers += 1,
                    }
                }
                places.push(s);
            }
            series.push(places);
            if self.metering {
                // Counter track point at the same grid instant, so the
                // Chrome-trace overlay lines up with the series.
                let t = series.samples().last().map_or(0, |s| s.t_ns);
                self.metrics.sample(t);
            }
        }
        self.series = Some(series);
    }

    /// Take the collected telemetry series (after `run`).
    fn take_series(&mut self) -> Option<TimeSeries> {
        self.series.take()
    }

    /// A worker obtained work after being parked: close the dormancy
    /// episode and emit the wakeup marker.
    fn note_unparked(&mut self, t: u64, w: GlobalWorkerId) {
        if let Some(since) = self.parked_since[w.index()].take() {
            self.hists.dormancy.record(t.saturating_sub(since));
            if self.tracing {
                self.emit(t, w, TraceEventKind::Wakeup);
            }
        }
    }

    /// A worker found no work and parked (dormant or quiesced).
    fn note_parked(&mut self, t: u64, w: GlobalWorkerId) {
        if self.parked_since[w.index()].is_none() {
            self.parked_since[w.index()] = Some(t);
            if self.tracing {
                self.emit(t, w, TraceEventKind::Dormant);
            }
        }
    }

    // -- fault machinery -----------------------------------------------------

    /// Reliable cross-place send of a task-carrying message: the
    /// sender retransmits after an ack timeout until one copy gets
    /// through. Returns the total delay from `now` to delivery. Over a
    /// network that drops nothing the first copy lands, so this is
    /// exactly [`Network::send`].
    fn reliable_send(
        &mut self,
        now: u64,
        src: PlaceId,
        dst: PlaceId,
        kind: MsgKind,
        bytes: u64,
    ) -> u64 {
        let mut delay = 0u64;
        let mut attempts = 0u32;
        loop {
            match self.net.transmit(now + delay, src, dst, kind, bytes) {
                SendFate::Delivered { cost_ns } => return delay + cost_ns,
                SendFate::Dropped => {
                    self.fault_stats.retransmissions += 1;
                    delay += self.retry.timeout_ns.max(1);
                    attempts += 1;
                    assert!(
                        attempts < 100_000,
                        "reliable send {src:?}->{dst:?} starved — is a partition window unbounded?"
                    );
                }
            }
        }
    }

    /// Re-enqueue a task stranded at the failed place `from`: back to
    /// its origin home if that place is alive, else to place 0 (which
    /// can never be killed). The task has not started executing, so
    /// re-enqueueing preserves exactly-once. `extra_ns` is added on
    /// top of the detection delay (hard kills recover via the silent
    /// path: silence detection plus the lease grace).
    fn recover_task(&mut self, now: u64, tr: TaskRef, from: PlaceId, extra_ns: u64) {
        let origin_home = self.tasks.get(tr).origin_home;
        let target = if self.alive[origin_home.index()] {
            origin_home
        } else {
            PlaceId(0)
        };
        {
            let task = self.tasks.get_mut(tr);
            task.exec_home = target;
            task.carried = false;
        }
        self.fault_stats.tasks_recovered += 1;
        if self.tracing {
            let task = self.tasks.get(tr).id;
            let w = self.cfg.cluster.global(from, distws_core::WorkerId(0));
            self.emit(
                now,
                w,
                TraceEventKind::TaskRecover {
                    task,
                    from,
                    to: target,
                },
            );
        }
        self.schedule(now + self.detect_ns + extra_ns, EventKind::Arrive(tr));
    }

    /// `hard` marks a SIGKILL-style death: the place cannot announce
    /// its failure, so recovery of its queued tasks additionally waits
    /// out the lease grace on top of silence detection.
    fn on_place_fail(&mut self, now: u64, p: PlaceId, hard: bool) {
        if !self.alive[p.index()] {
            return;
        }
        let extra_ns = if hard { self.lease_timeout_ns } else { 0 };
        self.alive[p.index()] = false;
        self.fault_stats.places_failed += 1;
        if self.tracing {
            let w = self.cfg.cluster.global(p, distws_core::WorkerId(0));
            self.emit(now, w, TraceEventKind::PlaceFail);
        }
        // Recover the place's queued (never-started) tasks: shared
        // FIFO first, then each worker's private deque.
        while let Some(t) = self.places[p.index()].shared.take() {
            self.recover_task(now, t, p, extra_ns);
        }
        self.board.shared_len[p.index()] = 0;
        let wpp = self.cfg.cluster.workers_per_place;
        for i in 0..wpp {
            let w = self.cfg.cluster.global(p, distws_core::WorkerId(i));
            while let Some(t) = self.workers[w.index()].deque.pop() {
                self.recover_task(now, t, p, extra_ns);
            }
            self.board.private_len[w.index()] = 0;
            // Busy workers finish their current task (bodies already
            // ran — side effects exist) and halt at the Free boundary;
            // parked ones halt immediately.
            if self.workers[w.index()].status != WorkerStatus::Busy {
                self.unclaim(w);
                self.workers[w.index()].status = WorkerStatus::Dormant;
                self.refresh_bits(w);
            }
        }
        // No lifeline pushes to or from a dead place.
        self.places[p.index()].lifeline_dependents.clear();
        for place in &mut self.places {
            place.lifeline_dependents.retain(|d| *d != p);
        }
    }

    fn on_place_restart(&mut self, now: u64, p: PlaceId) {
        if self.alive[p.index()] {
            return;
        }
        self.alive[p.index()] = true;
        if self.tracing {
            let w = self.cfg.cluster.global(p, distws_core::WorkerId(0));
            self.emit(now, w, TraceEventKind::PlaceRestart);
        }
        // The place rejoins empty-handed: its workers resume the steal
        // loop with a small stagger.
        let wpp = self.cfg.cluster.workers_per_place;
        for i in 0..wpp {
            let w = self.cfg.cluster.global(p, distws_core::WorkerId(i));
            {
                let ws = &mut self.workers[w.index()];
                // A worker still Busy from before the kill has a
                // pending Free event for its in-flight task; forcing
                // it Dormant here would let a wake start a second task
                // and orphan the first one's latch. It rejoins via
                // on_free, whose alive-check now passes.
                if ws.status == WorkerStatus::Busy {
                    continue;
                }
                ws.status = WorkerStatus::Dormant;
                ws.avail_at = ws.avail_at.max(now);
            }
            self.refresh_bits(w);
            self.wake(now, w, self.cfg.cost.shared_deque_op_ns + w.0 as u64, true);
        }
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        self.queue.push(time, kind);
        if self.metering {
            self.metrics.add(Counter::EventQueuePushes, 1);
            self.metrics
                .gauge_max(Gauge::EventQueueMaxDepth, self.queue.len() as u64);
        }
    }

    fn make_task(
        &mut self,
        spec: TaskSpec,
        spawned_at: PlaceId,
        spawner: Option<GlobalWorkerId>,
    ) -> TaskRef {
        self.next_task += 1;
        self.tasks_spawned += 1;
        if self.metering {
            self.metrics.add(Counter::TasksAllocated, 1);
        }
        let latch = match spec.latch {
            Some(l) => self.latches.intern(l),
            None => NO_LATCH,
        };
        self.tasks.alloc(Task {
            id: TaskId(self.next_task),
            locality: spec.locality,
            origin_home: spec.home,
            spawned_at,
            spawner,
            exec_home: spec.home,
            carried: false,
            est: spec.est_cost_ns,
            footprint: spec.footprint,
            latch,
            body: spec.body,
        })
    }

    fn inject_roots(&mut self, roots: Vec<TaskSpec>) {
        // Roots conceptually originate from X10's main activity:
        // worker 0 at place 0.
        let main = GlobalWorkerId(0);
        for spec in roots {
            let home = spec.home;
            let fp = spec.migration_bytes();
            let tr = self.make_task(spec, home, None);
            if self.tracing {
                let task = self.tasks.get(tr).id;
                self.emit(0, main, TraceEventKind::Spawn { task });
            }
            // Distributing roots to other places is real communication.
            if home == PlaceId(0) {
                self.schedule(0, EventKind::Arrive(tr));
            } else {
                let bytes = self.cfg.cost.closure_bytes + fp;
                let cost = self.reliable_send(0, PlaceId(0), home, MsgKind::TaskMigrate, bytes);
                self.drain_net(0, main);
                self.schedule(cost, EventKind::Arrive(tr));
            }
        }
    }

    fn run(&mut self) {
        // The whole loop is EventDispatch wall time; TaskExecution and
        // TraceEmission nest inside and are attributed exclusively.
        if self.metering {
            self.metrics.phase_start(Phase::EventDispatch);
        }
        while let Some((now, kind)) = self.queue.pop() {
            self.events += 1;
            if self.metering {
                self.metrics.add(Counter::EventsProcessed, 1);
                self.metrics.add(Counter::EventQueuePops, 1);
            }
            assert!(
                self.events <= self.cfg.max_events,
                "event budget exceeded ({}) — runaway simulation?",
                self.cfg.max_events
            );
            self.makespan = self.makespan.max(now);
            if self.series.is_some() {
                if self.metering {
                    self.metrics.phase_start(Phase::TraceEmission);
                }
                self.sample_series(now);
                if self.metering {
                    self.metrics.phase_end(Phase::TraceEmission);
                }
            }
            match kind {
                EventKind::Arrive(tr) => self.map_and_enqueue(now, tr),
                EventKind::Free(w) => self.on_free(now, w),
                EventKind::Wake(w, strong) => self.on_wake(now, w, strong),
                EventKind::PlaceFail(p, hard) => self.on_place_fail(now, p, hard),
                EventKind::PlaceRestart(p) => self.on_place_restart(now, p),
            }
        }
        if self.series.is_some() {
            // Close the telemetry grid out to the makespan.
            if self.metering {
                self.metrics.phase_start(Phase::TraceEmission);
            }
            self.sample_series(self.makespan);
            if self.metering {
                self.metrics.phase_end(Phase::TraceEmission);
            }
        }
        if self.metering {
            self.metrics.phase_start(Phase::TraceEmission);
        }
        self.trace.flush();
        if self.metering {
            self.metrics.phase_end(Phase::TraceEmission);
            // Fold the network's totals in once the wire is quiet.
            self.metrics.add(Counter::MsgsSent, self.net.sent_total());
            self.metrics
                .add(Counter::MsgsDropped, self.net.dropped_total());
            self.metrics.add(
                Counter::MsgsRetried,
                self.fault_stats.retransmissions + self.fault_stats.steal_retries,
            );
            self.metrics.phase_end(Phase::EventDispatch);
        }
        assert_eq!(
            self.tasks_spawned, self.tasks_executed,
            "task conservation violated: spawned {} executed {}",
            self.tasks_spawned, self.tasks_executed
        );
    }

    // -- worker bookkeeping --------------------------------------------------

    fn place_of(&self, w: GlobalWorkerId) -> PlaceId {
        self.cfg.cluster.place_of(w)
    }

    /// Recompute worker `w`'s membership of the three worker sets from
    /// its state. Must follow every mutation of `counted`, `status` or
    /// `wake_pending`.
    #[inline]
    fn refresh_bits(&mut self, w: GlobalWorkerId) {
        let ws = &self.workers[w.index()];
        let unpended = !ws.wake_pending;
        self.idle
            .set(w, !ws.counted && ws.status != WorkerStatus::Busy);
        self.dormant
            .set(w, ws.status == WorkerStatus::Dormant && unpended);
        self.quiesced
            .set(w, ws.status == WorkerStatus::Quiesced && unpended);
    }

    fn claim(&mut self, w: GlobalWorkerId) {
        let p = self.place_of(w).index();
        if !self.workers[w.index()].counted {
            self.workers[w.index()].counted = true;
            self.board.busy[p] += 1;
            self.refresh_bits(w);
        }
    }

    fn unclaim(&mut self, w: GlobalWorkerId) {
        let p = self.place_of(w).index();
        if self.workers[w.index()].counted {
            self.workers[w.index()].counted = false;
            self.board.busy[p] -= 1;
            self.refresh_bits(w);
        }
    }

    fn wake(&mut self, now: u64, w: GlobalWorkerId, delay: u64, strong: bool) {
        let ws = &mut self.workers[w.index()];
        if ws.wake_pending || ws.status == WorkerStatus::Busy {
            return;
        }
        if ws.status == WorkerStatus::Quiesced && !strong {
            return;
        }
        ws.wake_pending = true;
        self.refresh_bits(w);
        self.schedule(now + delay, EventKind::Wake(w, strong));
    }

    fn on_wake(&mut self, now: u64, w: GlobalWorkerId, strong: bool) {
        self.workers[w.index()].wake_pending = false;
        self.refresh_bits(w);
        match self.workers[w.index()].status {
            WorkerStatus::Busy => {}
            WorkerStatus::Quiesced if !strong => {}
            _ => self.acquire(now, w),
        }
    }

    fn on_free(&mut self, now: u64, w: GlobalWorkerId) {
        self.tasks_executed += 1;
        if let Some(task) = self.running[w.index()].take() {
            if self.tracing {
                self.emit(now, w, TraceEventKind::TaskEnd { task });
            }
        }
        let latch = std::mem::replace(&mut self.workers[w.index()].finishing_latch, NO_LATCH);
        // Leave Busy state before acquiring again.
        self.workers[w.index()].status = WorkerStatus::Dormant;
        self.refresh_bits(w);
        if latch != NO_LATCH {
            if let Some(cont) = self.latches.complete_one(latch) {
                // Release the continuation from this place.
                let here = self.place_of(w);
                let cont_home = cont.home;
                let fp = cont.migration_bytes();
                let tr = self.make_task(cont, here, Some(w));
                if self.tracing {
                    let task = self.tasks.get(tr).id;
                    self.emit(now, w, TraceEventKind::Spawn { task });
                }
                if cont_home == here {
                    self.schedule(now, EventKind::Arrive(tr));
                } else {
                    let bytes = self.cfg.cost.closure_bytes + fp;
                    let cost =
                        self.reliable_send(now, here, cont_home, MsgKind::TaskMigrate, bytes);
                    self.drain_net(now, w);
                    self.schedule(now + cost, EventKind::Arrive(tr));
                }
            }
        }
        // A worker on a failed place flushes its finished task (the
        // body already ran) and halts instead of stealing again.
        if !self.alive[self.place_of(w).index()] {
            self.unclaim(w);
            return;
        }
        self.acquire(now, w);
    }

    // -- mapping (Algorithm 1 lines 1–8) --------------------------------------

    fn map_and_enqueue(&mut self, now: u64, tr: TaskRef) {
        let place = self.tasks.get(tr).exec_home;
        // A task landing at a dead place was in flight when the place
        // failed (or was queued behind the failure event): recover it.
        if !self.alive[place.index()] {
            self.recover_task(now, tr, place, 0);
            return;
        }
        let meta = {
            let task = self.tasks.get(tr);
            TaskMeta {
                home: place,
                locality: task.locality,
                spawned_at: task.spawned_at,
                est_cost_ns: task.est,
                footprint_bytes: task.footprint.total_bytes(),
            }
        };
        let choice = self.policy.map_task(&meta, &self.board, &mut self.rng);
        match choice {
            DequeChoice::Private => {
                let spawner = self.tasks.get(tr).spawner;
                let target = self.pick_private_target(place, spawner);
                let cap_before = self.workers[target.index()].deque.capacity();
                self.workers[target.index()].deque.push(tr);
                self.board.private_len[target.index()] += 1;
                if self.metering {
                    let d = &self.workers[target.index()].deque;
                    if d.capacity() > cap_before {
                        self.metrics.add(Counter::DequeGrows, 1);
                    }
                    let len = d.len() as u64;
                    self.metrics.gauge_max(Gauge::PrivateDequeMaxDepth, len);
                }
                self.claim(target);
                let d = self.cfg.cost.private_deque_op_ns;
                self.wake(now, target, d, true);
            }
            DequeChoice::Shared => {
                // Lifeline push path: hand the task straight to a
                // quiesced dependent instead of pooling it.
                if self.policy.uses_lifelines()
                    && !self.places[place.index()].lifeline_dependents.is_empty()
                {
                    // Dead dependents were purged at fail time, but a
                    // dependent may die between purge and push; skip
                    // any that did.
                    while let Some(&q) = self.places[place.index()].lifeline_dependents.first() {
                        self.places[place.index()].lifeline_dependents.remove(0);
                        if self.alive[q.index()] {
                            self.push_to_lifeline(now, place, q, tr);
                            return;
                        }
                    }
                }
                let cap_before = self.places[place.index()].shared.capacity();
                self.places[place.index()].shared.push(tr);
                self.board.shared_len[place.index()] += 1;
                if self.metering {
                    let q = &self.places[place.index()].shared;
                    if q.capacity() > cap_before {
                        self.metrics.add(Counter::DequeGrows, 1);
                    }
                    let len = q.len() as u64;
                    self.metrics.gauge_max(Gauge::SharedDequeMaxDepth, len);
                }
                self.wake_for_shared(now, place);
            }
        }
        // Any arrival of work also prods quiesced workers of the place
        // (they re-run their loop and re-quiesce if they lose the race),
        // collected first as in `wake_for_shared`.
        let mut targets = std::mem::take(&mut self.wake_buf);
        targets.extend(self.quiesced.iter_in(place));
        for w in targets.drain(..) {
            let d = self.cfg.cost.shared_deque_op_ns + w.0 as u64;
            self.wake(now, w, d, true);
        }
        self.wake_buf = targets;
    }

    fn pick_private_target(
        &mut self,
        place: PlaceId,
        spawner: Option<GlobalWorkerId>,
    ) -> GlobalWorkerId {
        let wpp = self.cfg.cluster.workers_per_place;
        // Prefer an idle (unclaimed, parked) worker — Algorithm 1 maps
        // tasks on under-utilized places directly to idle workers: the
        // lowest-numbered one.
        if let Some(w) = self.idle.first_in(place) {
            return w;
        }
        // Help-first: the spawning worker keeps its own children.
        if let Some(s) = spawner {
            if self.place_of(s) == place {
                return s;
            }
        }
        // Round-robin fallback.
        let p = &mut self.places[place.index()];
        let w = self
            .cfg
            .cluster
            .global(place, distws_core::WorkerId(p.rr % wpp));
        p.rr = p.rr.wrapping_add(1);
        w
    }

    fn wake_for_shared(&mut self, now: u64, place: PlaceId) {
        let base = self.cfg.cost.shared_deque_op_ns;
        // Whom to prod is decided before anyone is: a wake removes the
        // woken worker from `dormant`, and nobody else.
        let mut targets = std::mem::take(&mut self.wake_buf);
        // All dormant co-located workers, in ascending worker order.
        targets.extend(self.dormant.iter_in(place));
        let local = targets.len();
        // A bounded number of remote dormant workers (they will pay
        // their own probe round trips when they retry): the first
        // dormant unpended worker of each of the next places that has
        // one. Places that have none cost nothing to pass over.
        targets.extend(
            self.dormant
                .places_after(place)
                .filter_map(|p| self.dormant.first_in(p))
                .take(self.cfg.remote_wake_limit),
        );
        for &w in &targets[..local] {
            self.wake(now, w, base + w.0 as u64, false);
        }
        // Discovery delay: one network round trip.
        let remote = base + 2 * self.cfg.cost.net_latency_ns;
        for &w in &targets[local..] {
            self.wake(now, w, remote + w.0 as u64, false);
        }
        targets.clear();
        self.wake_buf = targets;
    }

    fn push_to_lifeline(&mut self, now: u64, from: PlaceId, to: PlaceId, tr: TaskRef) {
        let (locality, bytes) = {
            let task = self.tasks.get(tr);
            (task.locality, task.footprint.total_bytes())
        };
        assert!(
            self.policy.may_migrate(locality),
            "lifeline push of non-migratable task"
        );
        let cost = self.reliable_send(
            now,
            from,
            to,
            MsgKind::TaskMigrate,
            self.cfg.cost.closure_bytes + bytes,
        );
        {
            let task = self.tasks.get_mut(tr);
            task.exec_home = to;
            task.carried = true;
        }
        self.steals.remote += 1;
        // A lifeline push is a tier-2 acquisition with no thief-side
        // attempt, so only the success counter moves.
        if self.metering {
            self.metrics.add(Counter::steal_successes(2), 1);
        }
        if self.tracing {
            // The push is place-level (no thief worker yet); attribute
            // it to the victim place's first worker.
            let task = self.tasks.get(tr).id;
            let w = self.cfg.cluster.global(from, distws_core::WorkerId(0));
            self.drain_net(now, w);
            self.emit(now, w, TraceEventKind::Migration { task, from, to });
        }
        self.schedule(now + cost, EventKind::Arrive(tr));
    }

    // -- stealing (Algorithm 1 lines 9–29) ------------------------------------

    fn acquire(&mut self, now: u64, w: GlobalWorkerId) {
        let place = self.place_of(w);
        // A worker on a dead place never steals again (until restart).
        if !self.alive[place.index()] {
            self.unclaim(w);
            self.workers[w.index()].status = WorkerStatus::Dormant;
            self.refresh_bits(w);
            return;
        }
        // Serialize this worker's activities: a steal round cannot
        // start before the previous round / task ended.
        let now = now.max(self.workers[w.index()].avail_at);
        let mut overhead = 0u64;
        let mut got: Option<TaskRef> = None;
        // A two-phase round (`Policy` docs): the distributed sweep is
        // built only once every local tier has failed, and a round that
        // ends before that burns the sweep's rng draws instead.
        let mut steps = std::mem::take(&mut self.steal_buf);
        self.policy
            .steal_phase(StealPhase::Local, w, &self.board, &mut self.rng, &mut steps);
        let mut quiesce = self.walk_steps(now, w, &steps, &mut overhead, &mut got);
        let ended_locally = got.is_some() || quiesce;
        let local = steps.len();
        let next = if ended_locally {
            StealPhase::Skip
        } else {
            StealPhase::Remote
        };
        self.policy
            .steal_phase(next, w, &self.board, &mut self.rng, &mut steps);
        if !ended_locally {
            quiesce = self.walk_steps(now, w, &steps[local..], &mut overhead, &mut got);
        }
        self.steal_buf = steps;

        if quiesce {
            self.workers[w.index()].overhead_ns += overhead;
            self.workers[w.index()].avail_at = now + overhead;
            self.makespan = self.makespan.max(now + overhead);
            self.unclaim(w);
            self.workers[w.index()].status = WorkerStatus::Quiesced;
            self.refresh_bits(w);
            self.note_parked(now + overhead, w);
            // Register on the lifeline partners.
            let partners = self
                .policy
                .lifeline_partners(place, self.cfg.cluster.places);
            for o in partners {
                let deps = &mut self.places[o.index()].lifeline_dependents;
                if !deps.contains(&place) {
                    deps.push(place);
                }
            }
            return;
        }

        self.workers[w.index()].overhead_ns += overhead;
        self.workers[w.index()].avail_at = now + overhead;
        self.makespan = self.makespan.max(now + overhead);
        self.policy.note_result(w, got.is_some());
        match got {
            Some(tr) => self.start_task(now + overhead, w, tr),
            None => {
                self.steals.failed_attempts += 1;
                self.unclaim(w);
                self.workers[w.index()].status = WorkerStatus::Dormant;
                self.refresh_bits(w);
                self.note_parked(now + overhead, w);
            }
        }
    }

    /// Execute steal steps in order until one yields a task (left in
    /// `got`) or tells the worker to quiesce (returns `true`), adding
    /// what the attempts cost to `overhead`.
    fn walk_steps(
        &mut self,
        now: u64,
        w: GlobalWorkerId,
        steps: &[StealStep],
        overhead: &mut u64,
        got: &mut Option<TaskRef>,
    ) -> bool {
        let place = self.place_of(w);
        for &step in steps {
            if self.metering {
                if let Some(tier) = step.tier_index() {
                    self.metrics.add(Counter::steal_attempts(tier), 1);
                }
            }
            match step {
                StealStep::PollPrivate => {
                    *overhead += self.cfg.cost.private_deque_op_ns;
                    if let Some(t) = self.workers[w.index()].deque.pop() {
                        self.board.private_len[w.index()] -= 1;
                        *got = Some(t);
                    }
                }
                StealStep::ProbeNetwork => {
                    if self.tracing {
                        self.emit(now + *overhead, w, TraceEventKind::NetProbe);
                    }
                    *overhead += self.cfg.cost.network_probe_ns;
                }
                StealStep::StealCoWorker => {
                    if self.tracing {
                        self.emit(
                            now + *overhead,
                            w,
                            TraceEventKind::StealAttempt {
                                tier: StealTier::LocalPrivate,
                            },
                        );
                    }
                    let wpp = self.cfg.cluster.workers_per_place;
                    let local = w.local(wpp).0;
                    for off in 1..wpp {
                        let v = self
                            .cfg
                            .cluster
                            .global(place, distws_core::WorkerId((local + off) % wpp));
                        *overhead += self.cfg.cost.private_deque_op_ns;
                        if let Some(t) = self.workers[v.index()].deque.steal() {
                            self.board.private_len[v.index()] -= 1;
                            *overhead += self.cfg.cost.local_steal_ns;
                            self.note_steal(
                                now,
                                w,
                                StealTier::LocalPrivate,
                                t,
                                place,
                                1,
                                *overhead,
                            );
                            *got = Some(t);
                            break;
                        }
                    }
                }
                StealStep::StealLocalShared => {
                    if self.tracing {
                        self.emit(
                            now + *overhead,
                            w,
                            TraceEventKind::StealAttempt {
                                tier: StealTier::LocalShared,
                            },
                        );
                    }
                    *overhead += self.cfg.cost.shared_deque_op_ns;
                    if let Some(t) = self.places[place.index()].shared.take() {
                        self.board.shared_len[place.index()] -= 1;
                        self.note_steal(now, w, StealTier::LocalShared, t, place, 1, *overhead);
                        *got = Some(t);
                    }
                }
                StealStep::StealRemoteShared(victim) => {
                    if self.tracing {
                        self.emit(
                            now + *overhead,
                            w,
                            TraceEventKind::StealAttempt {
                                tier: StealTier::Remote,
                            },
                        );
                    }
                    *got = self.remote_steal(now, overhead, w, place, victim);
                }
                StealStep::Quiesce => return true,
            }
            if got.is_some() {
                break;
            }
        }
        false
    }

    /// A steal found work: count it in the report, the metrics sink and
    /// the tier's latency histogram, and emit the trace line. `n` tasks
    /// were acquired (a remote chunk; 1 on the local tiers), `task`
    /// being the one the thief runs next, `latency_ns` into the round.
    #[allow(clippy::too_many_arguments)]
    fn note_steal(
        &mut self,
        now: u64,
        w: GlobalWorkerId,
        tier: StealTier,
        task: TaskRef,
        victim: PlaceId,
        n: u64,
        latency_ns: u64,
    ) {
        let (count, hist) = match tier {
            StealTier::LocalPrivate => (
                &mut self.steals.local_private,
                &mut self.hists.steal_local_private,
            ),
            StealTier::LocalShared => (
                &mut self.steals.local_shared,
                &mut self.hists.steal_local_shared,
            ),
            StealTier::Remote => (&mut self.steals.remote, &mut self.hists.steal_remote),
        };
        *count += n;
        hist.record(latency_ns);
        if self.metering {
            self.metrics.add(Counter::steal_successes(tier as usize), n);
        }
        if self.tracing {
            let task = self.tasks.get(task).id;
            self.emit(
                now + latency_ns,
                w,
                TraceEventKind::StealSuccess {
                    tier,
                    task,
                    victim,
                    latency_ns,
                },
            );
        }
    }

    /// Remote steal probe (Algorithm 1 line 24), the one protocol for
    /// reliable and unreliable interconnects alike. The probe carries a
    /// timeout: a lost request, lost reply, lost migration payload or
    /// dead victim all surface as a timeout, after which the thief
    /// backs off exponentially (with jitter) and retries the same
    /// victim while its budget lasts, then falls through to the next
    /// victim in the steal order. A chunk whose migration payload is
    /// lost stays owned by the victim (lease): it is re-enqueued there
    /// once the lease expires — never lost, never double-run. When
    /// every message is delivered and the victim is alive the first
    /// attempt always returns, so a clean run never reaches the timeout.
    fn remote_steal(
        &mut self,
        now: u64,
        overhead: &mut u64,
        w: GlobalWorkerId,
        place: PlaceId,
        victim: PlaceId,
    ) -> Option<TaskRef> {
        let mut attempt: u32 = 1;
        loop {
            let send_t = now + *overhead;
            let req = self
                .net
                .transmit(send_t, place, victim, MsgKind::StealRequest, 64);
            // A dead victim never answers, whatever happened to the
            // request on the wire.
            if self.alive[victim.index()] {
                if let SendFate::Delivered { cost_ns: c_req } = req {
                    if self.board.shared_len[victim.index()] == 0 {
                        if let SendFate::Delivered { cost_ns: c_rep } = self.net.transmit(
                            send_t + c_req,
                            victim,
                            place,
                            MsgKind::StealReply,
                            16,
                        ) {
                            // Clean round trip, empty victim.
                            *overhead += c_req + c_rep;
                            self.drain_net(now + *overhead, w);
                            self.steals.failed_attempts += 1;
                            return None;
                        }
                        // Reply lost → thief times out below.
                    } else {
                        let victim_len = self.board.shared_len[victim.index()];
                        let chunk = self.policy.remote_chunk_for(victim_len);
                        let mut taken = std::mem::take(&mut self.chunk_buf);
                        self.places[victim.index()]
                            .shared
                            .take_chunk_into(chunk, &mut taken);
                        self.board.shared_len[victim.index()] -= taken.len();
                        // The reply's own envelope, then closure and
                        // encapsulated footprint per task in the chunk.
                        let mut bytes = self.cfg.cost.closure_bytes;
                        for &t in &taken {
                            let task = self.tasks.get(t);
                            assert!(
                                self.policy.may_migrate(task.locality),
                                "policy {} migrated a non-migratable task",
                                self.policy.name()
                            );
                            bytes += self.cfg.cost.closure_bytes + task.footprint.total_bytes();
                        }
                        match self.net.transmit(
                            send_t + c_req,
                            victim,
                            place,
                            MsgKind::TaskMigrate,
                            bytes,
                        ) {
                            SendFate::Delivered { cost_ns: c_mig } => {
                                *overhead += c_req + c_mig;
                                self.drain_net(now + *overhead, w);
                                let first = taken.first().copied();
                                if let Some(first) = first {
                                    let n = taken.len() as u64;
                                    self.note_steal(
                                        now,
                                        w,
                                        StealTier::Remote,
                                        first,
                                        victim,
                                        n,
                                        *overhead,
                                    );
                                }
                                // The thief runs the first task; the
                                // chunk extras land at its place and
                                // are re-mapped there, feeding
                                // co-located workers.
                                let arrive_at = now + *overhead;
                                for (i, &t) in taken.iter().enumerate() {
                                    let task = self.tasks.get_mut(t);
                                    task.exec_home = place;
                                    task.carried = true;
                                    if self.tracing {
                                        let task = task.id;
                                        self.emit(
                                            arrive_at,
                                            w,
                                            TraceEventKind::Migration {
                                                task,
                                                from: victim,
                                                to: place,
                                            },
                                        );
                                    }
                                    if i > 0 {
                                        self.schedule(arrive_at, EventKind::Arrive(t));
                                    }
                                }
                                taken.clear();
                                self.chunk_buf = taken;
                                return first;
                            }
                            SendFate::Dropped => {
                                // Migration payload lost. The victim
                                // retains ownership of the chunk via
                                // its lease table and re-enqueues the
                                // tasks (still homed there) when the
                                // lease expires; the thief times out.
                                self.fault_stats.lease_reclaims += taken.len() as u64;
                                let reclaim_at = send_t + c_req + self.lease_timeout_ns;
                                for &t in &taken {
                                    self.schedule(reclaim_at, EventKind::Arrive(t));
                                }
                                taken.clear();
                                self.chunk_buf = taken;
                            }
                        }
                    }
                }
            }
            // Timeout: request, reply or payload never arrived — or
            // the victim is dead.
            *overhead += self.retry.timeout_ns;
            self.drain_net(now + *overhead, w);
            self.fault_stats.steal_timeouts += 1;
            self.steals.failed_attempts += 1;
            if self.tracing {
                self.emit(
                    now + *overhead,
                    w,
                    TraceEventKind::StealTimeout { victim, attempt },
                );
            }
            if attempt > self.retry.budget {
                return None;
            }
            self.fault_stats.steal_retries += 1;
            *overhead += self.retry.backoff_ns(attempt, &mut self.fault_rng);
            attempt += 1;
        }
    }

    // -- execution -------------------------------------------------------------

    fn start_task(&mut self, t: u64, w: GlobalWorkerId, tr: TaskRef) {
        // Take the task out of the arena; its slot is immediately
        // reusable by the children this execution spawns.
        let task = self.tasks.take(tr);
        let place = self.place_of(w);
        self.claim(w);
        self.workers[w.index()].status = WorkerStatus::Busy;
        self.refresh_bits(w);
        self.note_unparked(t, w);
        if self.tracing {
            self.emit(t, w, TraceEventKind::TaskStart { task: task.id });
        }
        self.running[w.index()] = Some(task.id);

        // Run the body for real, recording its behaviour into the
        // engine's reusable spawn/access buffers.
        let mut scope = SimScope::with_buffers(
            place,
            task.origin_home,
            w,
            task.id,
            std::mem::take(&mut self.spawn_buf),
            std::mem::take(&mut self.access_buf),
        );
        if self.metering {
            self.metrics.phase_start(Phase::TaskExecution);
        }
        (task.body)(&mut scope);
        if self.metering {
            self.metrics.phase_end(Phase::TaskExecution);
        }

        // Pure compute.
        let work = task.est + scope.charged;
        self.total_work += work;
        let mut duration = work;

        // Spawn bookkeeping cost (help-first push per child; DistWS
        // additionally pays the mapping/status overhead per spawn).
        let per_spawn = self.cfg.cost.private_deque_op_ns
            + if self.policy.has_mapping_overhead() {
                self.cfg.cost.mapping_overhead_ns
            } else {
                0
            };
        duration += scope.spawned.len() as u64 * per_spawn;

        // Data accesses: remote references + cache model.
        for a in &scope.accesses {
            let local = a.home == place || (task.carried && task.footprint.contains(a.obj));
            if !local {
                if self.alive[a.home.index()] {
                    // Request + data reply; each lost leg is
                    // retransmitted after an ack timeout.
                    let req = self.reliable_send(t, place, a.home, MsgKind::DataRequest, 64);
                    let rep =
                        self.reliable_send(t + req, a.home, place, MsgKind::DataReply, a.bytes);
                    duration += req + rep;
                } else {
                    // Data homed at a dead place: modelled as served
                    // by a replica after the failure-detection delay
                    // (no messages charged) — see docs/faults.md.
                    duration += self.detect_ns;
                }
                self.remote_refs += 1;
                if self.tracing {
                    self.drain_net(t, w);
                    self.emit(
                        t,
                        w,
                        TraceEventKind::RemoteRef {
                            task: task.id,
                            home: a.home,
                            bytes: a.bytes,
                        },
                    );
                }
            }
            if let Some(geometry) = self.cfg.cache {
                let cache = self.workers[w.index()]
                    .cache
                    .get_or_insert_with(|| Cache::new(geometry));
                let misses = cache.access(a.obj.0, a.offset, a.bytes);
                duration += misses * self.cfg.cost.l1_miss_penalty_ns;
            }
        }

        // Straggler model: a slow place stretches everything its
        // workers do (compute, spawn bookkeeping, stalls).
        let f = self.slow[place.index()];
        if f != 1.0 {
            duration = (duration as f64 * f) as u64;
        }

        self.hists.granularity.record(duration);
        self.workers[w.index()].busy_ns += duration;
        let finish = t + duration;
        self.workers[w.index()].avail_at = finish;
        self.makespan = self.makespan.max(finish);

        // Release children at evenly interpolated points of the
        // execution window (a coarse task feeds the cluster while it
        // runs, as under a real help-first runtime).
        let n = scope.spawned.len() as u64;
        for (i, spec) in scope.spawned.drain(..).enumerate() {
            let rt = t + duration * (i as u64 + 1) / (n + 1);
            let child_home = spec.home;
            let fp = spec.migration_bytes();
            let child = self.make_task(spec, place, Some(w));
            if self.tracing {
                let task = self.tasks.get(child).id;
                self.emit(rt, w, TraceEventKind::Spawn { task });
            }
            if child_home == place {
                self.schedule(rt, EventKind::Arrive(child));
            } else {
                // Cross-place `async at` launch: a real message
                // (retransmitted under faults until one copy lands).
                let bytes = self.cfg.cost.closure_bytes + fp;
                let cost = self.reliable_send(rt, place, child_home, MsgKind::TaskMigrate, bytes);
                self.drain_net(rt, w);
                self.schedule(rt + cost, EventKind::Arrive(child));
            }
        }

        // Hand the (now empty) buffers back for the next execution.
        scope.accesses.clear();
        self.spawn_buf = scope.spawned;
        self.access_buf = scope.accesses;

        self.workers[w.index()].finishing_latch = task.latch;
        self.schedule(finish, EventKind::Free(w));
    }

    // -- reporting ---------------------------------------------------------------

    fn into_report(self, app: &str) -> RunReport {
        let cluster = self.cfg.cluster.clone();
        let wpp = cluster.workers_per_place as usize;
        let makespan = self.makespan.max(1);
        let mut per_place = Vec::with_capacity(cluster.places as usize);
        for p in 0..cluster.places as usize {
            let total: u64 = self.workers[p * wpp..(p + 1) * wpp]
                .iter()
                .map(|w| w.busy_ns + w.overhead_ns)
                .sum();
            per_place.push(total as f64 / (makespan as f64 * wpp as f64));
        }
        let mut cache = CacheSummary::default();
        for w in &self.workers {
            if let Some(c) = &w.cache {
                cache.accesses += c.stats().accesses;
                cache.misses += c.stats().misses;
            }
        }
        RunReport {
            scheduler: self.policy.name().to_string(),
            app: app.to_string(),
            config: cluster,
            makespan_ns: self.makespan,
            total_work_ns: self.total_work,
            tasks_spawned: self.tasks_spawned,
            tasks_executed: self.tasks_executed,
            steals: self.steals,
            messages: *self.net.counts(),
            cache,
            utilization: UtilizationSummary { per_place },
            remote_refs: self.remote_refs,
            percentiles: distws_core::RunPercentiles {
                steal_local_private_ns: self.hists.steal_local_private.summary(),
                steal_local_shared_ns: self.hists.steal_local_shared.summary(),
                steal_remote_ns: self.hists.steal_remote.summary(),
                task_granularity_ns: self.hists.granularity.summary(),
                dormancy_ns: self.hists.dormancy.summary(),
            },
            faults: FaultSummary {
                msgs_dropped: self.net.counts().dropped.total(),
                msgs_duplicated: self.net.counts().duplicated.total(),
                ..self.fault_stats
            },
        }
    }
}
