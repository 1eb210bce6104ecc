//! Virtual-time cost model of the simulated cluster.
//!
//! All costs are in **virtual nanoseconds**. Defaults approximate the
//! paper's testbed: InfiniBand 10 Gbit/s between nodes via MVAPICH2
//! (≈ microseconds of software latency per message, ~0.8 ns per byte of
//! payload), sub-microsecond shared-memory deque operations within a
//! place. The scheduling conclusions depend on the *ratios* (remote
//! steal ≫ local steal ≫ deque op), not on exact constants; every
//! constant is a public field so experiments can sweep them.

/// Cost constants used by the discrete-event engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Push/pop on a worker's private deque (uncontended, lock-free).
    pub private_deque_op_ns: u64,
    /// Operation on the place's shared deque (lock + FIFO op).
    pub shared_deque_op_ns: u64,
    /// Stealing from a co-located worker's private deque (CAS on the
    /// top end, possible retry).
    pub local_steal_ns: u64,
    /// One-way network latency between two places (software stack +
    /// wire). Charged per message.
    pub net_latency_ns: u64,
    /// Transfer cost per byte of message payload (1 / bandwidth).
    /// 10 Gbit/s ⇒ 0.8 ns/byte.
    pub net_ns_per_byte_num: u64,
    /// Denominator for the per-byte cost so we can express 0.8 ns/byte
    /// in integer arithmetic (num=4, den=5).
    pub net_ns_per_byte_den: u64,
    /// Fixed size in bytes of a serialized task closure (headers,
    /// captured scalars) on top of its data footprint.
    pub closure_bytes: u64,
    /// Extra bookkeeping charged to every spawn under schedulers that
    /// maintain the dual-deque structure and probe place status
    /// (DistWS / DistWS-NS). Reproduces the paper's single-node
    /// slowdown vs X10WS (§VIII.1).
    pub mapping_overhead_ns: u64,
    /// Cost of probing the network for incoming tasks (Algorithm 1
    /// line 11) — a non-blocking poll.
    pub network_probe_ns: u64,
    /// Penalty per L1 miss (memory stall), charged when the cache model
    /// is enabled.
    pub l1_miss_penalty_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            private_deque_op_ns: 50,
            shared_deque_op_ns: 250,
            local_steal_ns: 1_000,
            net_latency_ns: 5_000,
            net_ns_per_byte_num: 4,
            net_ns_per_byte_den: 5,
            closure_bytes: 256,
            mapping_overhead_ns: 120,
            network_probe_ns: 200,
            l1_miss_penalty_ns: 8,
        }
    }
}

impl CostModel {
    /// Wire-transfer time for `bytes` of payload, excluding latency.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        bytes * self.net_ns_per_byte_num / self.net_ns_per_byte_den
    }

    /// Total cost of one message of `bytes` payload: latency + transfer.
    #[inline]
    pub fn message_ns(&self, bytes: u64) -> u64 {
        self.net_latency_ns + self.transfer_ns(bytes)
    }

    /// Cost of migrating a task across places: a steal-request /
    /// steal-reply round trip plus the serialized closure and its data
    /// footprint on the reply.
    #[inline]
    pub fn migration_ns(&self, footprint_bytes: u64) -> u64 {
        self.message_ns(64) + self.message_ns(self.closure_bytes + footprint_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_order_sanely() {
        let c = CostModel::default();
        // remote steal ≫ local steal ≫ shared deque op ≫ private op
        assert!(c.migration_ns(0) > c.local_steal_ns);
        assert!(c.local_steal_ns > c.shared_deque_op_ns);
        assert!(c.shared_deque_op_ns > c.private_deque_op_ns);
    }

    #[test]
    fn bandwidth_math() {
        let c = CostModel::default();
        // 10 Gbit/s = 1.25 GB/s → 0.8 ns per byte.
        assert_eq!(c.transfer_ns(1_000), 800);
        assert_eq!(c.message_ns(0), c.net_latency_ns);
    }

    #[test]
    fn migration_includes_round_trip() {
        let c = CostModel::default();
        assert!(c.migration_ns(4096) >= 2 * c.net_latency_ns + c.transfer_ns(4096));
    }
}
