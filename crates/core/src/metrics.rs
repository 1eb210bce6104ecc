//! Run metrics: everything the paper's evaluation section reports.
//!
//! One [`RunReport`] per (application × scheduler × cluster shape) run
//! carries the raw numbers behind Fig. 3 (steals-to-task ratio), Fig. 5
//! and Fig. 6 (speedups), Fig. 7 (per-node utilization), Table II (L1d
//! miss rates) and Table III (messages transmitted across nodes).

use crate::topology::ClusterConfig;
use distws_json::impl_to_json;

/// Steal-operation counters, split by the tiers of Algorithm 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealCounts {
    /// Successful steals from a co-located worker's private deque.
    pub local_private: u64,
    /// Successful steals from the thief's own place's shared deque.
    pub local_shared: u64,
    /// Successful steals from a *remote* place's shared deque
    /// (distributed steals); tasks, not chunks.
    pub remote: u64,
    /// Steal attempts (any tier) that found nothing.
    pub failed_attempts: u64,
}

impl StealCounts {
    /// All successful steals.
    pub fn total(&self) -> u64 {
        self.local_private + self.local_shared + self.remote
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &StealCounts) {
        self.local_private += other.local_private;
        self.local_shared += other.local_shared;
        self.remote += other.remote;
        self.failed_attempts += other.failed_attempts;
    }
}

/// Per-message-kind counters, one bucket per `MsgKind`. Used for the
/// fault-injection layer's dropped/duplicated accounting so chaos
/// reports can say *which* traffic class a lossy link hurt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Steal request probes.
    pub steal_requests: u64,
    /// Replies to steal requests.
    pub steal_replies: u64,
    /// Task-migration payloads.
    pub task_migrations: u64,
    /// Remote data-reference requests.
    pub data_requests: u64,
    /// Remote data-reference replies.
    pub data_replies: u64,
    /// Control traffic.
    pub control: u64,
}

impl KindCounts {
    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.steal_requests
            + self.steal_replies
            + self.task_migrations
            + self.data_requests
            + self.data_replies
            + self.control
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &KindCounts) {
        self.steal_requests += other.steal_requests;
        self.steal_replies += other.steal_replies;
        self.task_migrations += other.task_migrations;
        self.data_requests += other.data_requests;
        self.data_replies += other.data_replies;
        self.control += other.control;
    }
}

/// Cross-place message counters (Table III). Intra-place scheduling
/// does not send messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Steal request probes sent to remote places.
    pub steal_requests: u64,
    /// Replies to steal requests (success or failure).
    pub steal_replies: u64,
    /// Task-migration payloads (closure + footprint).
    pub task_migrations: u64,
    /// Remote data-reference requests.
    pub data_requests: u64,
    /// Remote data-reference replies (carrying data).
    pub data_replies: u64,
    /// Control traffic: termination detection, status exchange.
    pub control: u64,
    /// Total payload bytes moved across places.
    pub bytes: u64,
    /// Messages lost to fault injection, per kind. Lost messages are
    /// *also* counted in the per-kind sent counters above — the sender
    /// paid to transmit them; they just never arrived.
    pub dropped: KindCounts,
    /// Messages duplicated in flight by fault injection, per kind.
    /// Duplicates add traffic (and are counted in the sent counters)
    /// but are deduplicated at the receiver.
    pub duplicated: KindCounts,
}

impl MessageCounts {
    /// Total number of messages transmitted across nodes (the paper's
    /// Table III metric).
    pub fn total(&self) -> u64 {
        self.steal_requests
            + self.steal_replies
            + self.task_migrations
            + self.data_requests
            + self.data_replies
            + self.control
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &MessageCounts) {
        self.steal_requests += other.steal_requests;
        self.steal_replies += other.steal_replies;
        self.task_migrations += other.task_migrations;
        self.data_requests += other.data_requests;
        self.data_replies += other.data_replies;
        self.control += other.control;
        self.bytes += other.bytes;
        self.dropped.merge(&other.dropped);
        self.duplicated.merge(&other.duplicated);
    }
}

/// L1 data-cache accounting (Table II).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Total line accesses replayed against the model.
    pub accesses: u64,
    /// Misses among them.
    pub misses: u64,
}

impl CacheSummary {
    /// Miss rate in percent, 0 when no accesses were recorded.
    pub fn miss_rate_pct(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }

    /// Accumulate another summary into this one.
    pub fn merge(&mut self, other: &CacheSummary) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }
}

/// Per-place CPU utilization (Fig. 7): fraction of the makespan each
/// place's workers spent executing task bodies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UtilizationSummary {
    /// Utilization per place, each in `[0, 1]`.
    pub per_place: Vec<f64>,
}

impl UtilizationSummary {
    /// The finite per-place samples. A place whose workers never ran
    /// (zero elapsed time) can surface as NaN/∞ when a caller divides
    /// by a zero makespan; every derived statistic ignores such
    /// entries instead of poisoning the whole summary.
    fn finite(&self) -> impl Iterator<Item = f64> + '_ {
        self.per_place.iter().copied().filter(|u| u.is_finite())
    }

    /// Mean utilization across places (0.0 when no place reported a
    /// finite utilization).
    pub fn mean(&self) -> f64 {
        let (sum, n) = self.finite().fold((0.0, 0u32), |(s, n), u| (s + u, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Max − min utilization, the paper's "disparity" (≈35 % for
    /// X10WS). 0.0 for empty, single-place and all-non-finite inputs —
    /// disparity needs at least two comparable places.
    pub fn disparity(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut n = 0u32;
        for u in self.finite() {
            min = min.min(u);
            max = max.max(u);
            n += 1;
        }
        if n < 2 {
            0.0
        } else {
            max - min
        }
    }
}

/// Percentile summary of one virtual-time distribution, folded out of
/// the trace layer's histograms (all values in ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PercentileSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest recorded sample.
    pub max: u64,
}

/// The distribution summaries folded into a run: steal latency per
/// tier of Algorithm 1, task granularity and dormancy duration.
/// Engines maintain these unconditionally (they are ordinary run
/// metrics), so traced and untraced runs report identical values;
/// engines without the histogram machinery report all-zero
/// (`count == 0`) summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunPercentiles {
    /// Latency of successful steals from co-located private deques.
    pub steal_local_private_ns: PercentileSummary,
    /// Latency of successful steals from the local shared deque.
    pub steal_local_shared_ns: PercentileSummary,
    /// Latency of successful remote (distributed) steals.
    pub steal_remote_ns: PercentileSummary,
    /// Per-task execution time (granularity).
    pub task_granularity_ns: PercentileSummary,
    /// Dormant-until-wakeup episode durations.
    pub dormancy_ns: PercentileSummary,
}

/// Fault-injection and recovery counters for one run. All-zero on a
/// fault-free run (the default), so fault-free reports carry an inert
/// block rather than an absent one — JSON diffs stay structural.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Messages lost in flight (drops + partition cuts), all kinds.
    pub msgs_dropped: u64,
    /// Messages duplicated in flight, all kinds.
    pub msgs_duplicated: u64,
    /// Remote steal probes that timed out (request or reply lost, or
    /// the victim was dead).
    pub steal_timeouts: u64,
    /// Backoff retries performed after steal timeouts.
    pub steal_retries: u64,
    /// Reliable-channel retransmissions of task-carrying messages.
    pub retransmissions: u64,
    /// Tasks re-enqueued away from a failed place (fail-stop recovery).
    pub tasks_recovered: u64,
    /// Migrated tasks reclaimed by the victim after a lease expired
    /// (the migration payload was lost in flight).
    pub lease_reclaims: u64,
    /// Places that suffered a fail-stop during the run.
    pub places_failed: u64,
}

impl FaultSummary {
    /// Whether the run saw no fault activity at all.
    pub fn is_clean(&self) -> bool {
        *self == FaultSummary::default()
    }

    /// Accumulate another summary into this one.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.msgs_dropped += other.msgs_dropped;
        self.msgs_duplicated += other.msgs_duplicated;
        self.steal_timeouts += other.steal_timeouts;
        self.steal_retries += other.steal_retries;
        self.retransmissions += other.retransmissions;
        self.tasks_recovered += other.tasks_recovered;
        self.lease_reclaims += other.lease_reclaims;
        self.places_failed += other.places_failed;
    }
}

/// Complete result of one run: application outcome metrics under one
/// scheduler on one cluster shape.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheduler name (`"X10WS"`, `"DistWS"`, `"DistWS-NS"`, ...).
    pub scheduler: String,
    /// Application name.
    pub app: String,
    /// Cluster shape of the run.
    pub config: ClusterConfig,
    /// Virtual-time makespan of the run in ns.
    pub makespan_ns: u64,
    /// Sum of task-body compute time in ns (= sequential execution
    /// time of the same task graph on one worker, ignoring scheduling).
    pub total_work_ns: u64,
    /// Tasks spawned during the run.
    pub tasks_spawned: u64,
    /// Tasks executed to completion (must equal `tasks_spawned`).
    pub tasks_executed: u64,
    /// Steal counters.
    pub steals: StealCounts,
    /// Cross-place message counters.
    pub messages: MessageCounts,
    /// Cache model summary.
    pub cache: CacheSummary,
    /// Per-place utilization.
    pub utilization: UtilizationSummary,
    /// Remote data references performed by tasks running away from
    /// their data (0 under X10WS, the cost DistWS-NS pays).
    pub remote_refs: u64,
    /// Latency/granularity/dormancy percentile summaries from the
    /// trace layer (all-zero when the run traced into a null sink).
    pub percentiles: RunPercentiles,
    /// Fault-injection and recovery counters (all-zero when the run
    /// was fault-free).
    pub faults: FaultSummary,
}

impl_to_json!(StealCounts {
    local_private,
    local_shared,
    remote,
    failed_attempts
});
impl_to_json!(KindCounts {
    steal_requests,
    steal_replies,
    task_migrations,
    data_requests,
    data_replies,
    control,
});
impl_to_json!(MessageCounts {
    steal_requests,
    steal_replies,
    task_migrations,
    data_requests,
    data_replies,
    control,
    bytes,
    dropped,
    duplicated,
});
impl_to_json!(FaultSummary {
    msgs_dropped,
    msgs_duplicated,
    steal_timeouts,
    steal_retries,
    retransmissions,
    tasks_recovered,
    lease_reclaims,
    places_failed,
});
impl_to_json!(CacheSummary { accesses, misses });
impl_to_json!(UtilizationSummary { per_place });
impl_to_json!(PercentileSummary {
    count,
    p50,
    p95,
    p99,
    max
});
impl_to_json!(RunPercentiles {
    steal_local_private_ns,
    steal_local_shared_ns,
    steal_remote_ns,
    task_granularity_ns,
    dormancy_ns,
});
impl_to_json!(RunReport {
    scheduler,
    app,
    config,
    makespan_ns,
    total_work_ns,
    tasks_spawned,
    tasks_executed,
    steals,
    messages,
    cache,
    utilization,
    remote_refs,
    percentiles,
    faults,
});

impl RunReport {
    /// Speedup relative to a sequential execution time.
    pub fn speedup_vs(&self, sequential_ns: u64) -> f64 {
        sequential_ns as f64 / self.makespan_ns.max(1) as f64
    }

    /// Self-relative speedup: total work divided by makespan. Bounded
    /// above by the worker count.
    pub fn self_speedup(&self) -> f64 {
        self.total_work_ns as f64 / self.makespan_ns.max(1) as f64
    }

    /// Fig. 3 metric: successful steals / tasks spawned.
    pub fn steals_to_task_ratio(&self) -> f64 {
        if self.tasks_spawned == 0 {
            0.0
        } else {
            self.steals.total() as f64 / self.tasks_spawned as f64
        }
    }

    /// Mean task granularity in ns (Table I metric).
    pub fn mean_task_granularity_ns(&self) -> f64 {
        if self.tasks_executed == 0 {
            0.0
        } else {
            self.total_work_ns as f64 / self.tasks_executed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            scheduler: "DistWS".into(),
            app: "test".into(),
            config: ClusterConfig::new(2, 2),
            makespan_ns: 1_000,
            total_work_ns: 3_000,
            tasks_spawned: 10,
            tasks_executed: 10,
            steals: StealCounts {
                local_private: 2,
                local_shared: 1,
                remote: 1,
                failed_attempts: 5,
            },
            messages: MessageCounts::default(),
            cache: CacheSummary {
                accesses: 200,
                misses: 20,
            },
            utilization: UtilizationSummary {
                per_place: vec![0.9, 0.5],
            },
            remote_refs: 0,
            percentiles: RunPercentiles::default(),
            faults: FaultSummary::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.self_speedup() - 3.0).abs() < 1e-9);
        assert!((r.steals_to_task_ratio() - 0.4).abs() < 1e-9);
        assert!((r.cache.miss_rate_pct() - 10.0).abs() < 1e-9);
        assert!((r.utilization.disparity() - 0.4).abs() < 1e-9);
        assert!((r.utilization.mean() - 0.7).abs() < 1e-9);
        assert!((r.mean_task_granularity_ns() - 300.0).abs() < 1e-9);
        assert!((r.speedup_vs(2_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn counters_merge() {
        let mut a = StealCounts {
            local_private: 1,
            local_shared: 2,
            remote: 3,
            failed_attempts: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.total(), 12);
        let mut m = MessageCounts {
            steal_requests: 1,
            bytes: 10,
            ..Default::default()
        };
        m.merge(&MessageCounts {
            steal_replies: 2,
            bytes: 5,
            ..Default::default()
        });
        assert_eq!(m.total(), 3);
        assert_eq!(m.bytes, 15);
    }

    #[test]
    fn empty_utilization_is_safe() {
        let u = UtilizationSummary::default();
        assert_eq!(u.mean(), 0.0);
        assert_eq!(u.disparity(), 0.0);
    }

    #[test]
    fn single_place_utilization_has_no_disparity() {
        let u = UtilizationSummary {
            per_place: vec![0.7],
        };
        assert!((u.mean() - 0.7).abs() < 1e-12);
        assert_eq!(
            u.disparity(),
            0.0,
            "one place cannot be disparate with itself"
        );
    }

    #[test]
    fn non_finite_entries_are_ignored() {
        // A place with zero elapsed time divides to NaN (or ∞ with a
        // zero makespan); statistics must skip it, not become NaN.
        let u = UtilizationSummary {
            per_place: vec![0.8, f64::NAN, 0.2, f64::INFINITY],
        };
        assert!((u.mean() - 0.5).abs() < 1e-12);
        assert!((u.disparity() - 0.6).abs() < 1e-12);
        let all_bad = UtilizationSummary {
            per_place: vec![f64::NAN, f64::NAN],
        };
        assert_eq!(all_bad.mean(), 0.0);
        assert_eq!(all_bad.disparity(), 0.0);
    }

    #[test]
    fn report_is_serializable() {
        let body = distws_json::to_string_pretty(&report());
        assert!(body.contains("\"makespan_ns\": 1000"));
        assert!(body.contains("\"percentiles\""));
        // Same report twice ⇒ byte-identical JSON (regression-oracle
        // property the trace layer depends on).
        assert_eq!(body, distws_json::to_string_pretty(&report()));
    }

    #[test]
    fn percentile_summaries_default_to_zero() {
        let p = RunPercentiles::default();
        assert_eq!(p.task_granularity_ns.count, 0);
        assert_eq!(p.steal_remote_ns.p99, 0);
    }

    #[test]
    fn fault_summary_defaults_clean_and_merges() {
        let mut f = FaultSummary::default();
        assert!(f.is_clean());
        f.merge(&FaultSummary {
            msgs_dropped: 3,
            steal_timeouts: 2,
            tasks_recovered: 1,
            ..Default::default()
        });
        f.merge(&FaultSummary {
            msgs_dropped: 1,
            places_failed: 1,
            ..Default::default()
        });
        assert!(!f.is_clean());
        assert_eq!(f.msgs_dropped, 4);
        assert_eq!(f.steal_timeouts, 2);
        assert_eq!(f.places_failed, 1);
    }

    #[test]
    fn dropped_and_duplicated_ride_along_in_message_counts() {
        let mut m = MessageCounts {
            steal_requests: 5,
            ..MessageCounts::default()
        };
        m.dropped.steal_requests = 2;
        m.duplicated.task_migrations = 1;
        // total() counts sent messages only; drops are a subset of
        // sends and duplicates extra traffic tracked separately.
        assert_eq!(m.total(), 5);
        assert_eq!(m.dropped.total(), 2);
        assert_eq!(m.duplicated.total(), 1);
        let mut other = MessageCounts::default();
        other.dropped.control = 7;
        m.merge(&other);
        assert_eq!(m.dropped.total(), 9);
        let body = distws_json::to_string_pretty(&m);
        assert!(body.contains("\"dropped\""));
        assert!(body.contains("\"duplicated\""));
    }
}
