//! # distws-netsim
//!
//! Simulated cluster interconnect.
//!
//! The paper's testbed connects 16 nodes with 10 Gbit/s InfiniBand and
//! communicates through MVAPICH2. The scheduling results depend on two
//! properties of that fabric which this crate models exactly:
//!
//! 1. every cross-place interaction costs *latency + size/bandwidth*
//!    (per message), so remote steals are orders of magnitude more
//!    expensive than local deque operations, and
//! 2. the number of messages and bytes moved is observable — Table III
//!    of the paper counts messages transmitted across nodes per
//!    scheduler.
//!
//! [`Network::send`] charges a message between two places and returns
//! its virtual-time cost; intra-place "sends" are free and uncounted,
//! mirroring shared-memory communication within a node.

#![forbid(unsafe_code)]

pub mod fault;
pub mod topology;

pub use fault::{FaultPlan, LinkFault, Partition, SendFate};
pub use topology::Topology;

use distws_core::{CostModel, MessageCounts, PlaceId, SplitMix64};

/// Classification of cross-place messages, matching the events of
/// Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A thief probing a remote shared deque.
    StealRequest,
    /// The victim's reply (may carry zero tasks).
    StealReply,
    /// Migration payload: serialized closure + encapsulated footprint.
    TaskMigrate,
    /// Request for data homed at a remote place.
    DataRequest,
    /// Reply carrying remote data.
    DataReply,
    /// Termination detection / place-status control traffic.
    Control,
}

/// One recorded cross-place message (see [`Network::set_recording`]).
/// The network has no clock; the engine drains the log right after the
/// call that produced the messages and stamps virtual time itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRecord {
    /// Sending place.
    pub src: PlaceId,
    /// Receiving place.
    pub dst: PlaceId,
    /// Message classification.
    pub kind: MsgKind,
    /// Payload bytes.
    pub bytes: u64,
    /// Whether fault injection lost this message in flight. A dropped
    /// message still appears in the log (and in the sent counters) so
    /// the recording and `counts()` never disagree about what the
    /// sender transmitted.
    pub dropped: bool,
}

/// The simulated interconnect: cost model + topology + accounting.
#[derive(Debug, Clone)]
pub struct Network {
    cost: CostModel,
    topo: Topology,
    places: u32,
    counts: MessageCounts,
    /// Messages per directed edge, row-major `[src][dst]`.
    per_edge: Vec<u64>,
    /// Per-message log, populated only while `recording` (tracing).
    recording: bool,
    log: Vec<MsgRecord>,
    /// Fault injection: plan + dedicated random stream. `faulty` caches
    /// `!plan.is_empty()` so the clean path stays one branch and zero
    /// random draws.
    faults: FaultPlan,
    fault_rng: SplitMix64,
    faulty: bool,
}

impl Network {
    /// A network over `places` places with the given cost model and
    /// topology.
    pub fn new(places: u32, cost: CostModel, topo: Topology) -> Self {
        Network {
            cost,
            topo,
            places,
            counts: MessageCounts::default(),
            per_edge: vec![0; (places as usize) * (places as usize)],
            recording: false,
            log: Vec::new(),
            faults: FaultPlan::default(),
            fault_rng: SplitMix64::new(0),
            faulty: false,
        }
    }

    /// Install a fault plan with its own seeded random stream. An
    /// empty plan restores the exact fault-free behaviour (no random
    /// draws, identical costs and counters).
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.faulty = !plan.is_empty();
        self.faults = plan;
        self.fault_rng = SplitMix64::new(seed);
    }

    /// The installed fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Enable or disable per-message logging. Off by default so
    /// untraced runs pay one branch per send and no allocation.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.log = Vec::new();
        }
    }

    /// Drain the messages logged since the last call, in send order.
    /// Empty unless [`Self::set_recording`] was turned on.
    pub fn take_log(&mut self) -> Vec<MsgRecord> {
        std::mem::take(&mut self.log)
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The topology in use.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Send one message. Returns the virtual-time cost in ns. Messages
    /// within one place cost nothing and are not counted (shared
    /// memory).
    pub fn send(&mut self, src: PlaceId, dst: PlaceId, kind: MsgKind, payload_bytes: u64) -> u64 {
        if src == dst {
            return 0;
        }
        debug_assert!(src.0 < self.places && dst.0 < self.places);
        match kind {
            MsgKind::StealRequest => self.counts.steal_requests += 1,
            MsgKind::StealReply => self.counts.steal_replies += 1,
            MsgKind::TaskMigrate => self.counts.task_migrations += 1,
            MsgKind::DataRequest => self.counts.data_requests += 1,
            MsgKind::DataReply => self.counts.data_replies += 1,
            MsgKind::Control => self.counts.control += 1,
        }
        self.counts.bytes += payload_bytes;
        self.per_edge[src.index() * self.places as usize + dst.index()] += 1;
        if self.recording {
            self.log.push(MsgRecord {
                src,
                dst,
                kind,
                bytes: payload_bytes,
                dropped: false,
            });
        }
        let hops = self.topo.hops(src, dst, self.places) as u64;
        hops * self.cost.net_latency_ns + self.cost.transfer_ns(payload_bytes)
    }

    /// Fault-aware send. With an empty fault plan this is exactly
    /// [`Self::send`] — same cost, same counters, no random draws.
    /// With faults installed the message may be dropped (random loss
    /// or a partition window at virtual time `now`), delayed (jitter /
    /// latency spike) or duplicated; drops and duplicates are counted
    /// per kind and logged (dropped messages with `dropped: true`).
    pub fn transmit(
        &mut self,
        now: u64,
        src: PlaceId,
        dst: PlaceId,
        kind: MsgKind,
        payload_bytes: u64,
    ) -> SendFate {
        if !self.faulty || src == dst {
            return SendFate::Delivered {
                cost_ns: self.send(src, dst, kind, payload_bytes),
            };
        }
        let link = self.faults.link(src, dst);
        // Partition cuts are deterministic (no draw); random loss
        // draws only when the link is actually lossy, so plans that
        // only add jitter keep the drop stream untouched.
        let lost = self.faults.partitioned(now, src, dst)
            || (link.drop_p > 0.0 && self.fault_rng.next_f64() < link.drop_p);
        if lost {
            // The sender still paid for the transmission: count the
            // send as usual, then mark it dropped.
            self.send(src, dst, kind, payload_bytes);
            if let Some(rec) = self.log.last_mut() {
                rec.dropped = true;
            }
            self.bump_dropped(kind);
            return SendFate::Dropped;
        }
        let mut cost = self.send(src, dst, kind, payload_bytes);
        if link.jitter_ns > 0 {
            cost += self.fault_rng.below(link.jitter_ns + 1);
        }
        if link.spike_p > 0.0 && self.fault_rng.next_f64() < link.spike_p {
            cost += link.spike_ns;
        }
        if link.dup_p > 0.0 && self.fault_rng.next_f64() < link.dup_p {
            // The duplicate is extra traffic on the wire: count it as
            // a second send plus a duplication mark. The receiver
            // deduplicates, so it never affects scheduling.
            self.send(src, dst, kind, payload_bytes);
            self.bump_duplicated(kind);
        }
        SendFate::Delivered { cost_ns: cost }
    }

    fn bump_dropped(&mut self, kind: MsgKind) {
        let d = &mut self.counts.dropped;
        match kind {
            MsgKind::StealRequest => d.steal_requests += 1,
            MsgKind::StealReply => d.steal_replies += 1,
            MsgKind::TaskMigrate => d.task_migrations += 1,
            MsgKind::DataRequest => d.data_requests += 1,
            MsgKind::DataReply => d.data_replies += 1,
            MsgKind::Control => d.control += 1,
        }
    }

    fn bump_duplicated(&mut self, kind: MsgKind) {
        let d = &mut self.counts.duplicated;
        match kind {
            MsgKind::StealRequest => d.steal_requests += 1,
            MsgKind::StealReply => d.steal_replies += 1,
            MsgKind::TaskMigrate => d.task_migrations += 1,
            MsgKind::DataRequest => d.data_requests += 1,
            MsgKind::DataReply => d.data_replies += 1,
            MsgKind::Control => d.control += 1,
        }
    }

    /// Accumulated message counters (Table III source data).
    pub fn counts(&self) -> &MessageCounts {
        &self.counts
    }

    /// Total messages sent across all kinds (metrics `msgs_sent`).
    pub fn sent_total(&self) -> u64 {
        self.counts.total()
    }

    /// Total messages lost in flight (metrics `msgs_dropped`).
    pub fn dropped_total(&self) -> u64 {
        self.counts.dropped.total()
    }

    /// Messages sent on the directed edge `src → dst`.
    pub fn edge_count(&self, src: PlaceId, dst: PlaceId) -> u64 {
        self.per_edge[src.index() * self.places as usize + dst.index()]
    }

    /// Reset all counters (between experiment phases).
    pub fn reset_counts(&mut self) {
        self.counts = MessageCounts::default();
        self.per_edge.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(4, CostModel::default(), Topology::FullyConnected)
    }

    #[test]
    fn intra_place_is_free_and_uncounted() {
        let mut n = net();
        assert_eq!(
            n.send(PlaceId(1), PlaceId(1), MsgKind::DataRequest, 1_000),
            0
        );
        assert_eq!(n.counts().total(), 0);
        assert_eq!(n.counts().bytes, 0);
    }

    #[test]
    fn cross_place_charges_latency_plus_bandwidth() {
        let mut n = net();
        let cost = n.send(PlaceId(0), PlaceId(1), MsgKind::DataReply, 1_000);
        let cm = CostModel::default();
        assert_eq!(cost, cm.net_latency_ns + cm.transfer_ns(1_000));
        assert_eq!(n.counts().data_replies, 1);
        assert_eq!(n.counts().bytes, 1_000);
        assert_eq!(n.edge_count(PlaceId(0), PlaceId(1)), 1);
        assert_eq!(n.edge_count(PlaceId(1), PlaceId(0)), 0);
    }

    #[test]
    fn ring_topology_multiplies_latency_by_hops() {
        let mut n = Network::new(8, CostModel::default(), Topology::Ring);
        let near = n.send(PlaceId(0), PlaceId(1), MsgKind::Control, 0);
        let far = n.send(PlaceId(0), PlaceId(4), MsgKind::Control, 0);
        assert_eq!(far, 4 * near);
    }

    #[test]
    fn recording_logs_each_cross_place_message_in_order() {
        let mut n = net();
        n.set_recording(true);
        n.send(PlaceId(0), PlaceId(0), MsgKind::Control, 8); // intra: not logged
        n.send(PlaceId(0), PlaceId(2), MsgKind::StealRequest, 64);
        n.send(PlaceId(2), PlaceId(0), MsgKind::TaskMigrate, 100);
        let log = n.take_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, MsgKind::StealRequest);
        assert_eq!((log[0].src, log[0].dst), (PlaceId(0), PlaceId(2)));
        assert_eq!(log[1].kind, MsgKind::TaskMigrate);
        assert_eq!(log[1].bytes, 100);
        assert!(n.take_log().is_empty(), "take_log drains");
    }

    #[test]
    fn recording_off_by_default_and_clears_on_disable() {
        let mut n = net();
        n.send(PlaceId(0), PlaceId(1), MsgKind::Control, 8);
        assert!(n.take_log().is_empty());
        n.set_recording(true);
        n.send(PlaceId(0), PlaceId(1), MsgKind::Control, 8);
        n.set_recording(false);
        assert!(n.take_log().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut n = net();
        n.send(PlaceId(0), PlaceId(1), MsgKind::TaskMigrate, 10);
        n.reset_counts();
        assert_eq!(n.counts().total(), 0);
        assert_eq!(n.edge_count(PlaceId(0), PlaceId(1)), 0);
    }

    #[test]
    fn transmit_with_empty_plan_matches_send_exactly() {
        let mut a = net();
        let mut b = net();
        b.set_fault_plan(FaultPlan::none(), 123);
        for (src, dst, bytes) in [(0u32, 1u32, 100u64), (2, 3, 0), (1, 1, 50)] {
            let plain = a.send(PlaceId(src), PlaceId(dst), MsgKind::DataReply, bytes);
            let fate = b.transmit(7, PlaceId(src), PlaceId(dst), MsgKind::DataReply, bytes);
            assert_eq!(fate, SendFate::Delivered { cost_ns: plain });
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn certain_loss_drops_counts_and_logs() {
        let mut n = net();
        n.set_fault_plan(FaultPlan::uniform_loss(1.0), 42); // clamps to 0.9
        n.set_recording(true);
        let mut dropped = 0;
        for _ in 0..200 {
            if n.transmit(0, PlaceId(0), PlaceId(1), MsgKind::StealRequest, 64) == SendFate::Dropped
            {
                dropped += 1;
            }
        }
        assert!(dropped > 100, "0.9 loss should drop most of 200");
        assert_eq!(n.counts().dropped.steal_requests, dropped);
        // Drops are still sends: the recording and counts agree.
        assert_eq!(n.counts().steal_requests, 200);
        let log = n.take_log();
        assert_eq!(log.len(), 200);
        assert_eq!(log.iter().filter(|r| r.dropped).count(), dropped as usize);
    }

    #[test]
    fn partition_window_cuts_deterministically() {
        let mut n = net();
        let mut plan = FaultPlan::none();
        plan.partitions.push(Partition {
            a: PlaceId(0),
            b: PlaceId(1),
            from_ns: 100,
            until_ns: 200,
        });
        n.set_fault_plan(plan, 1);
        assert!(matches!(
            n.transmit(50, PlaceId(0), PlaceId(1), MsgKind::Control, 0),
            SendFate::Delivered { .. }
        ));
        assert_eq!(
            n.transmit(150, PlaceId(1), PlaceId(0), MsgKind::Control, 0),
            SendFate::Dropped
        );
        assert!(matches!(
            n.transmit(150, PlaceId(0), PlaceId(2), MsgKind::Control, 0),
            SendFate::Delivered { .. }
        ));
        assert!(matches!(
            n.transmit(200, PlaceId(0), PlaceId(1), MsgKind::Control, 0),
            SendFate::Delivered { .. }
        ));
        assert_eq!(n.counts().dropped.control, 1);
    }

    #[test]
    fn jitter_bounds_and_duplication_counts() {
        let mut n = net();
        let mut plan = FaultPlan::none();
        plan.default.jitter_ns = 500;
        plan.default.dup_p = 0.9;
        n.set_fault_plan(plan, 9);
        let base = CostModel::default().net_latency_ns;
        let mut sent = 0u64;
        for _ in 0..100 {
            match n.transmit(0, PlaceId(0), PlaceId(1), MsgKind::Control, 0) {
                SendFate::Delivered { cost_ns } => {
                    assert!((base..=base + 500).contains(&cost_ns));
                    sent += 1;
                }
                SendFate::Dropped => unreachable!("no loss configured"),
            }
        }
        let dups = n.counts().duplicated.control;
        assert!(dups > 50, "0.9 dup should duplicate most of 100");
        // Duplicates show up as extra wire traffic.
        assert_eq!(n.counts().control, sent + dups);
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        let run = |seed: u64| {
            let mut n = net();
            n.set_fault_plan(FaultPlan::uniform_loss(0.3), seed);
            (0..64)
                .map(|_| {
                    n.transmit(0, PlaceId(0), PlaceId(1), MsgKind::DataRequest, 64)
                        == SendFate::Dropped
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }
}
