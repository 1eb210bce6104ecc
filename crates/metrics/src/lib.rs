//! # distws-metrics
//!
//! Low-overhead self-profiling for the execution engines: monotonic
//! [`Counter`]s, high-water [`Gauge`]s, phase-sliced wall-clock timers
//! ([`Phase`]) and a peak-RSS probe. `repro bench` records the
//! counters and gauges into `BENCH_*.json`; the repo benchmark reads
//! the timers and the probe.
//!
//! The design mirrors the trace layer's pay-for-what-you-use contract:
//! instrumentation sites go through a [`MetricsSink`] and are gated on
//! a cached `enabled()` bit, so a run with [`NullMetrics`] pays one
//! predictable branch per site and produces a report byte-identical to
//! an uninstrumented build (property-tested in `distws-bench`).
//!
//! Two kinds of data live here and must never be conflated:
//!
//! * **Deterministic**: counters and gauges are pure functions of the
//!   simulated execution — same seed, same values, asserted in CI.
//! * **Wall-clock**: phase timers and the RSS probe read the host
//!   clock and `/proc`; they vary run to run and machine to machine.
//!   [`MetricsSnapshot::to_json`] keeps them under separate keys, and
//!   the `BENCH_*.json` trajectory files store only the deterministic
//!   part.

#![forbid(unsafe_code)]

use distws_json::Value;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// A monotonic event counter. The catalog is closed (fixed array
/// storage, no allocation on the hot path) and every name is a stable
/// wire name in `BENCH_*.json` — append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Events popped from the engine's queue and dispatched.
    EventsProcessed,
    /// Events pushed onto the engine's queue.
    EventQueuePushes,
    /// Events popped from the engine's queue (equals
    /// [`Counter::EventsProcessed`] in the simulator; kept separate so
    /// an engine with re-queueing can distinguish them).
    EventQueuePops,
    /// Task instances allocated.
    TasksAllocated,
    /// Deque buffer growths (private or shared) observed at push.
    DequeGrows,
    /// Steal attempts against co-located private deques (tier 0).
    StealAttemptsLocalPrivate,
    /// Steal attempts against the local shared deque (tier 1).
    StealAttemptsLocalShared,
    /// Steal attempts against remote shared deques (tier 2).
    StealAttemptsRemote,
    /// Successful tier-0 steals.
    StealSuccessesLocalPrivate,
    /// Successful tier-1 steals.
    StealSuccessesLocalShared,
    /// Tasks obtained by tier-2 steals (chunked steals count every
    /// task; lifeline pushes count here without a matching attempt).
    StealSuccessesRemote,
    /// Messages transmitted across places (including lost copies).
    MsgsSent,
    /// Messages lost in flight to fault injection.
    MsgsDropped,
    /// Retransmissions plus steal retries after timeouts.
    MsgsRetried,
}

impl Counter {
    /// Every counter, in stable serialization order.
    pub const ALL: [Counter; 14] = [
        Counter::EventsProcessed,
        Counter::EventQueuePushes,
        Counter::EventQueuePops,
        Counter::TasksAllocated,
        Counter::DequeGrows,
        Counter::StealAttemptsLocalPrivate,
        Counter::StealAttemptsLocalShared,
        Counter::StealAttemptsRemote,
        Counter::StealSuccessesLocalPrivate,
        Counter::StealSuccessesLocalShared,
        Counter::StealSuccessesRemote,
        Counter::MsgsSent,
        Counter::MsgsDropped,
        Counter::MsgsRetried,
    ];

    /// Number of counters in the catalog.
    pub const COUNT: usize = Self::ALL.len();

    /// Position in [`Counter::ALL`] (the storage index).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).unwrap()
    }

    /// Stable wire name (the `BENCH_*.json` key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsProcessed => "events_processed",
            Counter::EventQueuePushes => "event_queue_pushes",
            Counter::EventQueuePops => "event_queue_pops",
            Counter::TasksAllocated => "tasks_allocated",
            Counter::DequeGrows => "deque_grows",
            Counter::StealAttemptsLocalPrivate => "steal_attempts.local_private",
            Counter::StealAttemptsLocalShared => "steal_attempts.local_shared",
            Counter::StealAttemptsRemote => "steal_attempts.remote",
            Counter::StealSuccessesLocalPrivate => "steal_successes.local_private",
            Counter::StealSuccessesLocalShared => "steal_successes.local_shared",
            Counter::StealSuccessesRemote => "steal_successes.remote",
            Counter::MsgsSent => "msgs_sent",
            Counter::MsgsDropped => "msgs_dropped",
            Counter::MsgsRetried => "msgs_retried",
        }
    }

    /// The attempt counter of steal tier `i` (0 = local private,
    /// 1 = local shared, 2 = remote) — pairs with
    /// `distws_sched::StealStep::tier_index`.
    pub fn steal_attempts(tier: usize) -> Counter {
        match tier {
            0 => Counter::StealAttemptsLocalPrivate,
            1 => Counter::StealAttemptsLocalShared,
            2 => Counter::StealAttemptsRemote,
            other => panic!("no steal tier {other}"),
        }
    }

    /// The success counter of steal tier `i`.
    pub fn steal_successes(tier: usize) -> Counter {
        match tier {
            0 => Counter::StealSuccessesLocalPrivate,
            1 => Counter::StealSuccessesLocalShared,
            2 => Counter::StealSuccessesRemote,
            other => panic!("no steal tier {other}"),
        }
    }
}

/// A high-water-mark gauge: `record` keeps the maximum ever seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Deepest the engine's event queue ever got.
    EventQueueMaxDepth,
    /// Deepest any single private deque ever got.
    PrivateDequeMaxDepth,
    /// Deepest any single shared deque ever got.
    SharedDequeMaxDepth,
}

impl Gauge {
    /// Every gauge, in stable serialization order.
    pub const ALL: [Gauge; 3] = [
        Gauge::EventQueueMaxDepth,
        Gauge::PrivateDequeMaxDepth,
        Gauge::SharedDequeMaxDepth,
    ];

    /// Number of gauges in the catalog.
    pub const COUNT: usize = Self::ALL.len();

    /// Position in [`Gauge::ALL`] (the storage index).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|g| *g == self).unwrap()
    }

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::EventQueueMaxDepth => "event_queue_max_depth",
            Gauge::PrivateDequeMaxDepth => "private_deque_max_depth",
            Gauge::SharedDequeMaxDepth => "shared_deque_max_depth",
        }
    }
}

/// A wall-clock phase of engine execution. Phases nest (task execution
/// happens inside event dispatch); the recorder attributes time
/// *exclusively*, so the three phase totals partition the instrumented
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Popping events and running engine bookkeeping.
    EventDispatch,
    /// Executing application task bodies.
    TaskExecution,
    /// Emitting traces and telemetry (sink flushes, series sampling).
    TraceEmission,
}

impl Phase {
    /// Every phase, in stable serialization order.
    pub const ALL: [Phase; 3] = [
        Phase::EventDispatch,
        Phase::TaskExecution,
        Phase::TraceEmission,
    ];

    /// Number of phases in the catalog.
    pub const COUNT: usize = Self::ALL.len();

    /// Position in [`Phase::ALL`] (the storage index).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|p| *p == self).unwrap()
    }

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::EventDispatch => "event_dispatch",
            Phase::TaskExecution => "task_execution",
            Phase::TraceEmission => "trace_emission",
        }
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

/// Receiver of engine self-metrics. Instrumentation sites are written
///
/// ```ignore
/// if self.metering {
///     self.metrics.add(Counter::EventsProcessed, 1);
/// }
/// ```
///
/// with `metering` a cached `enabled()`, exactly like the trace
/// layer's `TraceSink` — a disabled run pays one branch per site.
///
/// Sinks observe; they must never feed back into scheduling. The
/// engine upholds the contract that a metered run's `RunReport` is
/// byte-identical to a [`NullMetrics`] run.
pub trait MetricsSink {
    /// Whether callers should record at all. Sites must check this
    /// (or a cached copy) before calling the other methods.
    fn enabled(&self) -> bool {
        true
    }

    /// Increment a counter by `n`.
    fn add(&mut self, c: Counter, n: u64);

    /// Offer a gauge observation; the sink keeps the maximum.
    fn gauge_max(&mut self, g: Gauge, v: u64);

    /// Enter a wall-clock phase (phases nest; see [`Phase`]).
    fn phase_start(&mut self, _p: Phase) {}

    /// Leave the most recently entered phase (must be `p`).
    fn phase_end(&mut self, _p: Phase) {}

    /// Offer a time-series sample point at virtual time `t_ns`
    /// (recording sinks snapshot all counters for counter-track
    /// overlays; see `distws_trace::bridge`).
    fn sample(&mut self, _t_ns: u64) {}
}

/// Discards everything; `enabled()` is `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMetrics;

impl MetricsSink for NullMetrics {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&mut self, _c: Counter, _n: u64) {}

    fn gauge_max(&mut self, _g: Gauge, _v: u64) {}
}

/// One point of the in-run counter time series: every counter's value
/// at virtual time `t_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Virtual time of the sample (the telemetry grid instant).
    pub t_ns: u64,
    /// Counter values at that instant, indexed like [`Counter::ALL`].
    pub counters: Vec<u64>,
}

/// The recording sink: fixed arrays indexed by catalog position, an
/// exclusive-attribution phase stack, and an optional counter time
/// series on the engine's telemetry grid.
#[derive(Debug)]
pub struct EngineMetrics {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    phase_ns: [u64; Phase::COUNT],
    /// (phase, start of its current exclusive segment).
    stack: Vec<(Phase, Instant)>,
    samples: Vec<CounterSample>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// A sink with all counters zero.
    pub fn new() -> Self {
        EngineMetrics {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            phase_ns: [0; Phase::COUNT],
            stack: Vec::with_capacity(4),
            samples: Vec::new(),
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Current value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// Exclusive wall-clock nanoseconds attributed to a phase so far.
    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.phase_ns[p.index()]
    }

    /// The collected counter time series (one point per telemetry
    /// grid instant the engine sampled), oldest first.
    pub fn samples(&self) -> &[CounterSample] {
        &self.samples
    }

    /// Freeze into a serializable snapshot (counters, gauges, phases;
    /// the sample series stays on the sink for the trace bridge).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.to_vec(),
            gauges: self.gauges.to_vec(),
            phase_ns: self.phase_ns.to_vec(),
        }
    }
}

impl MetricsSink for EngineMetrics {
    fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g.index()];
        if v > *slot {
            *slot = v;
        }
    }

    fn phase_start(&mut self, p: Phase) {
        let now = Instant::now();
        // Close the parent's running segment: time up to here is the
        // parent's, not the nested phase's.
        if let Some((parent, since)) = self.stack.last_mut() {
            self.phase_ns[parent.index()] += since.elapsed().as_nanos() as u64;
            *since = now;
        }
        self.stack.push((p, now));
    }

    fn phase_end(&mut self, p: Phase) {
        let Some((top, since)) = self.stack.pop() else {
            panic!("phase_end({p:?}) with no open phase");
        };
        assert!(top == p, "phase_end({p:?}) while {top:?} is open");
        self.phase_ns[top.index()] += since.elapsed().as_nanos() as u64;
        // The parent resumes its own exclusive segment now.
        if let Some((_, since)) = self.stack.last_mut() {
            *since = Instant::now();
        }
    }

    fn sample(&mut self, t_ns: u64) {
        self.samples.push(CounterSample {
            t_ns,
            counters: self.counters.to_vec(),
        });
    }
}

// ---------------------------------------------------------------------------
// Snapshot + JSON
// ---------------------------------------------------------------------------

/// A frozen view of the metrics at the end of a run. A `BENCH_*.json`
/// cell embeds its counters and gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed like [`Counter::ALL`]. Deterministic.
    pub counters: Vec<u64>,
    /// Gauge values, indexed like [`Gauge::ALL`]. Deterministic.
    pub gauges: Vec<u64>,
    /// Exclusive phase times, indexed like [`Phase::ALL`]. Wall clock
    /// — NOT deterministic.
    pub phase_ns: Vec<u64>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: vec![0; Counter::COUNT],
            gauges: vec![0; Gauge::COUNT],
            phase_ns: vec![0; Phase::COUNT],
        }
    }
}

impl MetricsSnapshot {
    /// Value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// Exclusive wall-clock nanoseconds of a phase.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_ns[p.index()]
    }

    /// Deterministic JSON: `{"counters":{..},"gauges":{..},
    /// "phases_ns":{..}}` with catalog-ordered keys. The `counters`
    /// and `gauges` objects are the deterministic part; `phases_ns`
    /// is wall clock.
    pub fn to_json(&self) -> Value {
        let mut o = Value::object();
        let mut counters = Value::object();
        for c in Counter::ALL {
            counters.set(c.name(), self.counters[c.index()]);
        }
        o.set("counters", counters);
        let mut gauges = Value::object();
        for g in Gauge::ALL {
            gauges.set(g.name(), self.gauges[g.index()]);
        }
        o.set("gauges", gauges);
        let mut phases = Value::object();
        for p in Phase::ALL {
            phases.set(p.name(), self.phase_ns[p.index()]);
        }
        o.set("phases_ns", phases);
        o
    }

    /// Parse the [`Self::to_json`] shape back. Unknown keys are
    /// ignored and missing keys read as 0, so old snapshots survive
    /// catalog growth.
    pub fn from_json(v: &Value) -> Option<MetricsSnapshot> {
        let field = |section: &str, name: &str| {
            v.get(section)
                .and_then(|s| s.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        v.get("counters")?;
        Some(MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| field("counters", c.name()))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|g| field("gauges", g.name()))
                .collect(),
            phase_ns: Phase::ALL
                .iter()
                .map(|p| field("phases_ns", p.name()))
                .collect(),
        })
    }

    /// The fixed-width counter/gauge/phase table `diag metrics`
    /// prints. Output is pinned by a fixture test.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<34} {:>14}\n", "counter", "value"));
        for c in Counter::ALL {
            out.push_str(&format!("{:<34} {:>14}\n", c.name(), self.counter(c)));
        }
        out.push_str(&format!("{:<34} {:>14}\n", "gauge", "value"));
        for g in Gauge::ALL {
            out.push_str(&format!("{:<34} {:>14}\n", g.name(), self.gauge(g)));
        }
        out.push_str(&format!("{:<34} {:>14}\n", "phase (wall ns)", "value"));
        for p in Phase::ALL {
            out.push_str(&format!("{:<34} {:>14}\n", p.name(), self.phase(p)));
        }
        out
    }
}

impl distws_json::ToJson for MetricsSnapshot {
    fn to_json(&self) -> Value {
        MetricsSnapshot::to_json(self)
    }
}

// ---------------------------------------------------------------------------
// Peak RSS
// ---------------------------------------------------------------------------

/// Peak resident set size of this process in KiB, read from
/// `/proc/self/status` (`VmHWM`). Returns `None` where the procfs
/// field is unavailable (non-Linux hosts) — callers record 0.
///
/// Note the value is a process-wide high-water mark: in a multi-cell
/// bench run, later cells inherit the peak of earlier ones.
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Extract `VmHWM` (in KiB) from `/proc/self/status` text.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_indices_are_their_positions() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn null_metrics_is_disabled() {
        assert!(!NullMetrics.enabled());
        assert!(EngineMetrics::new().enabled());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut m = EngineMetrics::new();
        m.add(Counter::EventsProcessed, 3);
        m.add(Counter::EventsProcessed, 2);
        m.gauge_max(Gauge::EventQueueMaxDepth, 7);
        m.gauge_max(Gauge::EventQueueMaxDepth, 4);
        assert_eq!(m.counter(Counter::EventsProcessed), 5);
        assert_eq!(m.gauge(Gauge::EventQueueMaxDepth), 7);
        assert_eq!(m.counter(Counter::MsgsSent), 0);
    }

    #[test]
    fn nested_phases_attribute_exclusively() {
        let mut m = EngineMetrics::new();
        m.phase_start(Phase::EventDispatch);
        m.phase_start(Phase::TaskExecution);
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.phase_end(Phase::TaskExecution);
        m.phase_end(Phase::EventDispatch);
        assert!(m.phase_ns(Phase::TaskExecution) >= 1_000_000);
        // Dispatch got only the (tiny) time outside the nested phase.
        assert!(m.phase_ns(Phase::EventDispatch) < m.phase_ns(Phase::TaskExecution));
    }

    #[test]
    #[should_panic(expected = "phase_end")]
    fn mismatched_phase_end_panics() {
        let mut m = EngineMetrics::new();
        m.phase_start(Phase::EventDispatch);
        m.phase_end(Phase::TaskExecution);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let mut m = EngineMetrics::new();
        m.add(Counter::TasksAllocated, 42);
        m.add(Counter::StealSuccessesRemote, 9);
        m.gauge_max(Gauge::SharedDequeMaxDepth, 13);
        let snap = m.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.to_json().render(), snap.to_json().render());
        assert!(snap.to_json().render().starts_with("{\"counters\":{"));
    }

    #[test]
    fn samples_capture_counter_values() {
        let mut m = EngineMetrics::new();
        m.add(Counter::EventsProcessed, 1);
        m.sample(100);
        m.add(Counter::EventsProcessed, 1);
        m.sample(200);
        assert_eq!(m.samples().len(), 2);
        assert_eq!(m.samples()[0].counters[Counter::EventsProcessed.index()], 1);
        assert_eq!(m.samples()[1].counters[Counter::EventsProcessed.index()], 2);
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(12_345));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn peak_rss_reads_procfs_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("/proc/self/status has VmHWM on Linux");
            assert!(kb > 0);
        }
    }

    #[test]
    fn render_table_is_pinned() {
        let mut m = EngineMetrics::new();
        m.add(Counter::EventsProcessed, 12);
        m.gauge_max(Gauge::EventQueueMaxDepth, 3);
        let table = m.snapshot().render_table();
        assert!(table.contains("events_processed                               12\n"));
        assert!(table.contains("event_queue_max_depth                           3\n"));
    }
}
