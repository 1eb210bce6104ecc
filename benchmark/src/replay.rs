//! Replay drivers: after the traced run, replay the run's own operation
//! counts against one layer's public API in isolation and time it.
//!
//! A driver's time over the plain repetition's wall time is that
//! layer's *estimated* share: the isolated layer runs with warmer
//! caches than inside the engine, so shares are lower bounds. Every
//! driver returns the operation count it performed, which the unit
//! tests compare with the run counter it was derived from.

use crate::seams::AccessRec;
use distws_cachesim::{Cache, CacheConfig};
use distws_core::rng::SplitMix64;
use distws_core::{CostModel, Locality, MessageCounts, PlaceId, TaskScope, TaskSpec};
use distws_deque::{SeqPrivateDeque, SeqSharedFifo};
use distws_json::Value;
use distws_netsim::{FaultPlan, MsgKind, Network, Topology};
use distws_sim::calendar::CalendarQueue;
use distws_trace::{Histogram, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Operations performed and the host seconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Operations the driver performed.
    pub ops: u64,
    /// Host seconds.
    pub secs: f64,
}

impl Timed {
    /// `ops` operations that began at `start` and end now.
    pub fn since(ops: u64, start: Instant) -> Timed {
        Timed {
            ops,
            secs: start.elapsed().as_secs_f64(),
        }
    }

    /// Nanoseconds per operation, 0 with no operations.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.ops as f64
        }
    }

    /// Operations per second, 0 with no time.
    pub fn per_s(&self) -> f64 {
        if self.secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / self.secs
        }
    }
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.ops += other.ops;
        self.secs += other.secs;
    }
}

/// What the hold model needs of an event queue.
trait EventQueue {
    fn push_at(&mut self, time: u64, item: u64);
    fn pop_time(&mut self) -> u64;
}

impl EventQueue for CalendarQueue<u64> {
    fn push_at(&mut self, time: u64, item: u64) {
        self.push(time, item);
    }
    fn pop_time(&mut self) -> u64 {
        self.pop().expect("hold model pops only what it pushed").0
    }
}

impl EventQueue for BinaryHeap<Reverse<(u64, u64)>> {
    fn push_at(&mut self, time: u64, item: u64) {
        self.push(Reverse((time, item)));
    }
    fn pop_time(&mut self) -> u64 {
        self.pop()
            .expect("hold model pops only what it pushed")
            .0
             .0
    }
}

/// The hold-model schedule both event queues replay: `pushes` pushes
/// and as many pops, holding about `depth` events, each re-push a
/// pseudo-random task grain after the event it follows.
fn hold_model(q: &mut impl EventQueue, pushes: u64, depth: u64) -> Timed {
    let mut rng = SplitMix64::new(0xCA1E);
    let depth = depth.clamp(1, pushes.max(1)).min(pushes);
    let start = Instant::now();
    for i in 0..depth {
        q.push_at(rng.below(20_000), i);
    }
    for i in depth..pushes {
        let now = q.pop_time();
        q.push_at(now + 1 + rng.below(20_000), i);
    }
    for _ in 0..depth {
        black_box(q.pop_time());
    }
    Timed::since(pushes * 2, start)
}

/// `sim::calendar`: replay `pushes` pushes and pops on the calendar
/// queue, holding the depth the run's pops typically found. Returns the
/// calendar timing and the timing of a `BinaryHeap` on the same
/// schedule.
pub fn calendar(pushes: u64, depth: u64) -> (Timed, Timed) {
    (
        hold_model(&mut CalendarQueue::<u64>::new(), pushes, depth),
        hold_model(&mut BinaryHeap::<Reverse<(u64, u64)>>::new(), pushes, depth),
    )
}

/// `deque::seq`: push and pop `private` task handles through a private
/// deque in sibling-sized LIFO bursts, and `shared` through a shared
/// FIFO. Returns `(private, shared)` timings; each task costs two ops.
pub fn seq_deques(private: u64, shared: u64, burst: u64) -> (Timed, Timed) {
    let burst = burst.max(1);
    let start = Instant::now();
    let mut d: SeqPrivateDeque<u32> = SeqPrivateDeque::new();
    let mut done = 0;
    while done < private {
        let n = burst.min(private - done);
        for i in 0..n {
            d.push(black_box((done + i) as u32));
        }
        for _ in 0..n {
            black_box(d.pop());
        }
        done += n;
    }
    let p = Timed::since(private * 2, start);
    let start = Instant::now();
    let mut s: SeqSharedFifo<u32> = SeqSharedFifo::new();
    let mut done = 0;
    while done < shared {
        let n = burst.min(shared - done);
        for i in 0..n {
            s.push(black_box((done + i) as u32));
        }
        for _ in 0..n {
            black_box(s.take());
        }
        done += n;
    }
    (p, Timed::since(shared * 2, start))
}

/// `core::task`: build and drop `tasks` task descriptors shaped like a
/// tree task (boxed closure over an `Arc` and an id).
pub fn taskspecs(tasks: u64) -> Timed {
    let shared = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut batch: Vec<TaskSpec> = Vec::with_capacity(8);
    for id in 0..tasks {
        let run = Arc::clone(&shared);
        batch.push(TaskSpec::new(
            PlaceId((id % 8) as u32),
            Locality::Flexible,
            10_000,
            "replay",
            move |_s: &mut dyn TaskScope| {
                run.fetch_add(id, Ordering::Relaxed);
            },
        ));
        if batch.len() == 8 {
            black_box(&batch);
            batch.clear();
        }
    }
    black_box(&batch);
    Timed::since(tasks, start)
}

/// Per-kind `(kind, count)` list of a run's messages.
fn message_kinds(m: &MessageCounts) -> [(MsgKind, u64); 6] {
    [
        (MsgKind::StealRequest, m.steal_requests),
        (MsgKind::StealReply, m.steal_replies),
        (MsgKind::TaskMigrate, m.task_migrations),
        (MsgKind::DataRequest, m.data_requests),
        (MsgKind::DataReply, m.data_replies),
        (MsgKind::Control, m.control),
    ]
}

/// `netsim`: send the run's messages, kind by kind at the run's mean
/// payload, over a network of `places` places. With a non-empty `plan`
/// every message goes through the fault-aware `transmit`.
pub fn netsim(messages: &MessageCounts, places: u32, plan: Option<&FaultPlan>) -> Timed {
    let total = messages.total();
    let mean_bytes = messages.bytes.checked_div(total).unwrap_or(0);
    let places = places.max(2);
    let mut net = Network::new(places, CostModel::default(), Topology::FullyConnected);
    if let Some(plan) = plan {
        net.set_fault_plan(plan.clone(), 0xFA17);
    }
    let start = Instant::now();
    let mut cost = 0u64;
    let mut i = 0u32;
    for (kind, count) in message_kinds(messages) {
        for _ in 0..count {
            let src = PlaceId(i % places);
            let dst = PlaceId((i + 1 + i / places % (places - 1)) % places);
            i = i.wrapping_add(1);
            cost = cost.wrapping_add(match plan {
                None => net.send(src, dst, kind, mean_bytes),
                Some(_) => net
                    .transmit(cost, src, dst, kind, mean_bytes)
                    .cost()
                    .unwrap_or(0),
            });
        }
    }
    black_box(cost);
    Timed::since(total, start)
}

/// `cachesim`: replay the recorded access stream, each worker's
/// accesses against its own cold L1 model as in the engine. Returns the
/// timing over line accesses and the misses the replay saw.
pub fn cachesim(recs: &[AccessRec], workers: u32) -> (Timed, u64) {
    let mut caches: Vec<Cache> = (0..workers.max(1))
        .map(|_| Cache::new(CacheConfig::l1d()))
        .collect();
    let n = caches.len();
    let start = Instant::now();
    for r in recs {
        black_box(caches[r.worker as usize % n].access(r.obj, r.offset, r.bytes));
    }
    let mut t = Timed::since(0, start);
    let mut misses = 0;
    for c in &caches {
        t.ops += c.stats().accesses;
        misses += c.stats().misses;
    }
    (t, misses)
}

/// `json`: parse every line of a JSONL corpus, then render the parsed
/// values back. Returns `(parse, render)` timings with bytes as ops.
pub fn json(corpus: &str) -> (Timed, Timed) {
    let start = Instant::now();
    let values: Vec<Value> = corpus
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .collect();
    let parse = Timed::since(corpus.len() as u64, start);
    let start = Instant::now();
    let mut bytes = 0u64;
    for v in &values {
        bytes += black_box(v.render()).len() as u64;
    }
    (parse, Timed::since(bytes, start))
}

/// `trace::event`: encode each event as its JSONL line.
pub fn to_jsonl(events: &[TraceEvent]) -> Timed {
    let start = Instant::now();
    for ev in events {
        black_box(ev.to_jsonl());
    }
    Timed::since(events.len() as u64, start)
}

/// `trace::hist`: record `samples` task-grain-sized values.
pub fn hist_record(samples: u64) -> Timed {
    let mut rng = SplitMix64::new(0x4157);
    let mut h = Histogram::new();
    let start = Instant::now();
    for _ in 0..samples {
        h.record(10_000 + rng.below(90_000));
    }
    black_box(h.count());
    Timed::since(samples, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_pops_everything_it_pushes() {
        for (pushes, depth) in [(0u64, 4u64), (3, 10), (100, 7), (100, 100)] {
            let mut q = BinaryHeap::<Reverse<(u64, u64)>>::new();
            assert_eq!(hold_model(&mut q, pushes, depth).ops, pushes * 2);
            assert!(q.is_empty(), "pushes={pushes} depth={depth}");
        }
    }

    #[test]
    fn calendar_and_heap_replay_the_same_op_count() {
        let (cal, heap) = calendar(10_000, 64);
        assert_eq!(cal.ops, 20_000);
        assert_eq!(heap.ops, 20_000);
    }

    #[test]
    fn netsim_replays_every_message_of_the_run() {
        let m = MessageCounts {
            steal_requests: 700,
            steal_replies: 650,
            task_migrations: 120,
            data_requests: 30,
            data_replies: 30,
            control: 5,
            bytes: 1_535 * 100,
            ..MessageCounts::default()
        };
        assert_eq!(netsim(&m, 8, None).ops, m.total());
        let lossy = FaultPlan::uniform_loss(0.1);
        assert_eq!(netsim(&m, 8, Some(&lossy)).ops, m.total());
    }

    #[test]
    fn deque_and_taskspec_ops_follow_the_task_counts() {
        let (p, s) = seq_deques(1_001, 333, 8);
        assert_eq!((p.ops, s.ops), (2_002, 666));
        assert_eq!(taskspecs(1_234).ops, 1_234);
    }

    #[test]
    fn json_round_trips_the_corpus() {
        let corpus = "{\"t\":1,\"ev\":\"spawn\"}\n{\"t\":2,\"ev\":\"task_start\",\"task\":7}\n";
        let (parse, render) = json(corpus);
        assert_eq!(parse.ops, corpus.len() as u64);
        // Rendering drops only the newlines.
        assert_eq!(render.ops, corpus.len() as u64 - 2);
    }
}
