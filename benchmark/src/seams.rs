//! Seams the traced run puts between the simulator and the layers it
//! calls through trait objects: the policy, the trace sink, the metrics
//! sink and the workload's task scope. Each forwards unchanged, so the
//! simulated run — and `sim_digest` — is the one the plain run produces;
//! only host time is added, and `spans.overhead_pct` reports how much.

use crate::spans::Folded;
use distws_core::rng::SplitMix64;
use distws_core::{
    Access, ClusterConfig, GlobalWorkerId, Locality, PlaceId, TaskId, TaskScope, TaskSpec, Workload,
};
use distws_metrics::{Counter, EngineMetrics, Gauge, MetricsSink, Phase};
use distws_sched::{ClusterView, DequeChoice, Policy, StealStep, TaskMeta};
use distws_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// What [`SpanPolicy`] saw.
#[derive(Debug, Default)]
pub struct PolicyStats {
    /// `Policy::map_task` calls.
    pub map_task: Folded,
    /// `Policy::steal_sequence_into` calls.
    pub steal_seq: Folded,
    /// Steal steps the sequences contained in total.
    pub steal_steps: AtomicU64,
    /// `map_task` calls answered `DequeChoice::Private`.
    pub mapped_private: AtomicU64,
    /// `map_task` calls answered `DequeChoice::Shared`.
    pub mapped_shared: AtomicU64,
}

/// A [`Policy`] that times the two Algorithm 1 entry points of the
/// policy it wraps.
pub struct SpanPolicy {
    inner: Box<dyn Policy>,
    stats: Arc<PolicyStats>,
}

impl SpanPolicy {
    /// Wrap `inner`; the returned handle stays readable after the
    /// simulator has consumed the policy.
    pub fn wrap(inner: Box<dyn Policy>) -> (Box<dyn Policy>, Arc<PolicyStats>) {
        let stats = Arc::new(PolicyStats::default());
        (
            Box::new(SpanPolicy {
                inner,
                stats: Arc::clone(&stats),
            }),
            stats,
        )
    }
}

impl Policy for SpanPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> DequeChoice {
        let start = Instant::now();
        let choice = self.inner.map_task(meta, view, rng);
        self.stats.map_task.record_since(start);
        match choice {
            DequeChoice::Private => &self.stats.mapped_private,
            DequeChoice::Shared => &self.stats.mapped_shared,
        }
        .fetch_add(1, Ordering::Relaxed);
        choice
    }

    fn steal_sequence(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> Vec<StealStep> {
        let mut out = Vec::new();
        self.steal_sequence_into(thief, view, rng, &mut out);
        out
    }

    fn steal_sequence_into(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        let start = Instant::now();
        self.inner.steal_sequence_into(thief, view, rng, out);
        self.stats.steal_seq.record_since(start);
        self.stats
            .steal_steps
            .fetch_add(out.len() as u64, Ordering::Relaxed);
    }

    fn may_migrate(&self, locality: Locality) -> bool {
        self.inner.may_migrate(locality)
    }

    fn remote_chunk(&self) -> usize {
        self.inner.remote_chunk()
    }

    fn remote_chunk_for(&self, victim_len: usize) -> usize {
        self.inner.remote_chunk_for(victim_len)
    }

    fn has_mapping_overhead(&self) -> bool {
        self.inner.has_mapping_overhead()
    }

    fn lifeline_partners(&self, place: PlaceId, places: u32) -> Vec<PlaceId> {
        self.inner.lifeline_partners(place, places)
    }

    fn uses_lifelines(&self) -> bool {
        self.inner.uses_lifelines()
    }

    fn note_result(&mut self, thief: GlobalWorkerId, found: bool) {
        self.inner.note_result(thief, found);
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(SpanPolicy {
            inner: self.inner.clone_box(),
            stats: Arc::clone(&self.stats),
        })
    }
}

// ---------------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------------

/// A [`TraceSink`] that times every `record` and `flush` of the sink
/// it wraps.
pub struct SpanSink<S: TraceSink> {
    /// The wrapped sink.
    pub inner: S,
    /// `record` calls.
    pub record: Folded,
    /// `flush` calls.
    pub flush: Folded,
}

impl<S: TraceSink> SpanSink<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        SpanSink {
            inner,
            record: Folded::default(),
            flush: Folded::default(),
        }
    }
}

impl<S: TraceSink> TraceSink for SpanSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, ev: TraceEvent) {
        let start = Instant::now();
        self.inner.record(ev);
        self.record.record_since(start);
    }

    fn flush(&mut self) {
        let start = Instant::now();
        self.inner.flush();
        self.flush.record_since(start);
    }
}

/// A [`TraceSink`] that forwards to `inner` and keeps a copy of the
/// first `keep` events, the input of the `to_jsonl` replay driver.
pub struct TeeSink<S: TraceSink> {
    /// The wrapped sink.
    pub inner: S,
    /// The first events recorded.
    pub head: Vec<TraceEvent>,
    keep: usize,
}

impl<S: TraceSink> TeeSink<S> {
    /// Wrap `inner`, keeping at most `keep` events.
    pub fn new(inner: S, keep: usize) -> Self {
        TeeSink {
            inner,
            head: Vec::new(),
            keep,
        }
    }
}

impl<S: TraceSink> TraceSink for TeeSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, ev: TraceEvent) {
        if self.head.len() < self.keep {
            self.head.push(ev);
        }
        self.inner.record(ev);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

// ---------------------------------------------------------------------------
// Metrics sink
// ---------------------------------------------------------------------------

/// A [`MetricsSink`] over [`EngineMetrics`] that also counts how often
/// the engine calls it, how often each phase is entered and how deep the
/// event queue is when it is popped. The phase
/// boundaries themselves are the engine's: `phase_start`/`phase_end`
/// forward to [`EngineMetrics`], whose exclusive phase totals become
/// the per-phase spans.
#[derive(Debug, Default)]
pub struct SpanMetrics {
    /// The recording sink.
    pub inner: EngineMetrics,
    /// `add` + `gauge_max` + `sample` calls.
    pub calls: u64,
    /// Entries per phase, indexed like [`Phase::ALL`].
    pub phase_entries: [u64; Phase::COUNT],
    /// Event-queue depth (pushes − pops so far) summed over every pop:
    /// divided by the pops it is the depth a pop typically finds.
    pub depth_at_pop_sum: u64,
}

impl MetricsSink for SpanMetrics {
    fn add(&mut self, c: Counter, n: u64) {
        self.calls += 1;
        if c == Counter::EventQueuePops {
            self.depth_at_pop_sum += self.inner.counter(Counter::EventQueuePushes)
                - self.inner.counter(Counter::EventQueuePops);
        }
        self.inner.add(c, n);
    }

    fn gauge_max(&mut self, g: Gauge, v: u64) {
        self.calls += 1;
        self.inner.gauge_max(g, v);
    }

    fn phase_start(&mut self, p: Phase) {
        self.phase_entries[p.index()] += 1;
        self.inner.phase_start(p);
    }

    fn phase_end(&mut self, p: Phase) {
        self.inner.phase_end(p);
    }

    fn sample(&mut self, t_ns: u64) {
        self.calls += 1;
        self.inner.sample(t_ns);
    }
}

// ---------------------------------------------------------------------------
// Workload: record the data accesses task bodies make
// ---------------------------------------------------------------------------

/// One `TaskScope::access` call, with the worker whose cache model the
/// engine replays it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRec {
    /// Global index of the executing worker.
    pub worker: u32,
    /// Object touched.
    pub obj: u64,
    /// Byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub bytes: u64,
}

/// The access stream of one run, in execution order, capped at
/// `limit` records (`dropped` counts the rest).
#[derive(Debug, Default)]
pub struct AccessLog {
    /// Recorded accesses.
    pub recs: Vec<AccessRec>,
    /// Accesses beyond the cap.
    pub dropped: u64,
    limit: usize,
}

/// A [`Workload`] that runs `inner` unchanged while recording every
/// data access its task bodies make, so the cache model can be replayed
/// in isolation on exactly the stream the run fed it.
pub struct RecordingWorkload<'a> {
    inner: &'a dyn Workload,
    log: Arc<Mutex<AccessLog>>,
}

impl<'a> RecordingWorkload<'a> {
    /// Wrap `inner`, keeping at most `limit` access records.
    pub fn new(inner: &'a dyn Workload, limit: usize) -> Self {
        RecordingWorkload {
            inner,
            log: Arc::new(Mutex::new(AccessLog {
                limit,
                ..AccessLog::default()
            })),
        }
    }

    /// Take the recorded stream.
    pub fn take_log(&self) -> AccessLog {
        std::mem::take(&mut *self.log.lock().expect("access log lock"))
    }
}

fn recording(mut spec: TaskSpec, log: Arc<Mutex<AccessLog>>) -> TaskSpec {
    let body = spec.body;
    spec.body = Box::new(move |scope: &mut dyn TaskScope| {
        let mut rec = RecScope {
            inner: scope,
            log: &log,
            local: Vec::new(),
        };
        body(&mut rec);
        if !rec.local.is_empty() {
            let mut guard = log.lock().expect("access log lock");
            let room = guard.limit.saturating_sub(guard.recs.len());
            let take = room.min(rec.local.len());
            guard.recs.extend_from_slice(&rec.local[..take]);
            guard.dropped += (rec.local.len() - take) as u64;
        }
    });
    spec
}

struct RecScope<'s> {
    inner: &'s mut dyn TaskScope,
    log: &'s Arc<Mutex<AccessLog>>,
    local: Vec<AccessRec>,
}

impl TaskScope for RecScope<'_> {
    fn here(&self) -> PlaceId {
        self.inner.here()
    }

    fn home(&self) -> PlaceId {
        self.inner.home()
    }

    fn worker(&self) -> GlobalWorkerId {
        self.inner.worker()
    }

    fn task_id(&self) -> TaskId {
        self.inner.task_id()
    }

    fn spawn(&mut self, spec: TaskSpec) {
        self.inner.spawn(recording(spec, Arc::clone(self.log)));
    }

    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns);
    }

    fn access(&mut self, access: Access) {
        self.local.push(AccessRec {
            worker: self.inner.worker().0,
            obj: access.obj.0,
            offset: access.offset,
            bytes: access.bytes,
        });
        self.inner.access(access);
    }
}

impl Workload for RecordingWorkload<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn roots(&self, cfg: &ClusterConfig) -> Vec<TaskSpec> {
        self.inner
            .roots(cfg)
            .into_iter()
            .map(|spec| recording(spec, Arc::clone(&self.log)))
            .collect()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}
