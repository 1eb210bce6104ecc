//! The policy ⇄ engine interface: what policies can observe
//! ([`ClusterView`]) and what they decide ([`DequeChoice`],
//! [`StealStep`]).

use distws_core::{ClusterConfig, GlobalWorkerId, Locality, PlaceId};

/// Metadata of a task at mapping time (the policy never sees the
/// closure).
#[derive(Debug, Clone, Copy)]
pub struct TaskMeta {
    /// Home place from the `async (p)` statement.
    pub home: PlaceId,
    /// Locality annotation.
    pub locality: Locality,
    /// Place where the spawn was executed (≠ home for cross-place
    /// `async at`).
    pub spawned_at: PlaceId,
    /// Estimated compute granularity in ns (what a runtime can learn
    /// from profiling; used by [`crate::AdaptiveWs`]).
    pub est_cost_ns: u64,
    /// Bytes the task would carry on migration.
    pub footprint_bytes: u64,
}

impl TaskMeta {
    /// Metadata carrying only placement facts (granularity/footprint
    /// zeroed) — convenient in tests of annotation-driven policies.
    pub fn basic(home: PlaceId, locality: Locality, spawned_at: PlaceId) -> Self {
        TaskMeta {
            home,
            locality,
            spawned_at,
            est_cost_ns: 0,
            footprint_bytes: 0,
        }
    }
}

/// Where a newly arrived task is enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeChoice {
    /// A private worker deque at the home place. The engine picks the
    /// worker: the spawning worker itself for a local spawn (help-first),
    /// otherwise an idle worker if one exists (Algorithm 1's
    /// "mapping a task directly to an idle worker"), else round-robin.
    Private,
    /// The home place's shared FIFO deque — the pool visible to
    /// distributed stealing.
    Shared,
}

/// One step of the steal protocol, executed in order by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealStep {
    /// Pop the thief's own private deque (Algorithm 1 line 9).
    PollPrivate,
    /// Probe the network for tasks launched at this place by remote
    /// spawners (line 11 / line 19 re-probe). Charged but non-blocking.
    ProbeNetwork,
    /// Steal (chunk 1) from a co-located worker's private deque
    /// (line 13).
    StealCoWorker,
    /// Take from the thief place's own shared deque (line 15).
    StealLocalShared,
    /// Distributed steal from the shared deque of a specific remote
    /// place (lines 22–27), taking [`crate::Policy::remote_chunk`]
    /// tasks.
    StealRemoteShared(PlaceId),
    /// Lifeline protocol: go quiescent; the engine will wake this
    /// worker when a lifeline partner pushes work.
    Quiesce,
}

impl StealStep {
    /// The Algorithm 1 steal tier this step probes, as the stable wire
    /// name used by the trace layer (`distws_trace::StealTier`), or
    /// `None` for steps that are not steals (own-deque polls, network
    /// probes, quiescing).
    pub fn tier_name(self) -> Option<&'static str> {
        match self {
            StealStep::StealCoWorker => Some("local_private"),
            StealStep::StealLocalShared => Some("local_shared"),
            StealStep::StealRemoteShared(_) => Some("remote"),
            StealStep::PollPrivate | StealStep::ProbeNetwork | StealStep::Quiesce => None,
        }
    }

    /// The steal tier as a dense index (0 = local private, 1 = local
    /// shared, 2 = remote) — how the metrics layer addresses its
    /// per-tier attempt/success counters. `None` for non-steal steps.
    pub fn tier_index(self) -> Option<usize> {
        match self {
            StealStep::StealCoWorker => Some(0),
            StealStep::StealLocalShared => Some(1),
            StealStep::StealRemoteShared(_) => Some(2),
            StealStep::PollPrivate | StealStep::ProbeNetwork | StealStep::Quiesce => None,
        }
    }
}

/// Which part of a steal round [`crate::Policy::steal_phase`] is asked
/// for. The contract is on [`crate::Policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealPhase {
    /// The steps a thief walks first (Algorithm 1 lines 9–15 for the
    /// sweeping policies).
    Local,
    /// The steps it walks once those have all failed (lines 18–29).
    Remote,
    /// The round ended inside the `Local` steps: make the `rng` draws
    /// `Remote` would have made, and nothing else.
    Skip,
}

/// Engine state a policy may observe when making decisions.
///
/// The view is deliberately narrow: the paper's runtime keeps one
/// status object per place (§VI.B) readable without synchronization,
/// and the policies consult nothing else.
pub trait ClusterView {
    /// Cluster shape.
    fn config(&self) -> &ClusterConfig;

    /// Number of workers at `p` currently executing a task body.
    fn busy_workers(&self, p: PlaceId) -> u32;

    /// Length of the shared deque at `p` (lock-free snapshot).
    fn shared_len(&self, p: PlaceId) -> usize;

    /// Length of worker `w`'s private deque.
    fn private_len(&self, w: GlobalWorkerId) -> usize;

    /// §VI.B: a place is *active* if any of its workers is running an
    /// activity (not suspended / stopped / searching).
    fn is_place_active(&self, p: PlaceId) -> bool {
        self.busy_workers(p) > 0
    }

    /// Algorithm 1 line 5: a place is under-utilized if it could host
    /// more parallelism — spare thread slots exist, or fewer workers
    /// than the thread cap are busy.
    fn is_under_utilized(&self, p: PlaceId) -> bool {
        let cfg = self.config();
        cfg.spare_threads > 0 || self.busy_workers(p) < cfg.max_threads_per_place
    }
}

/// A trivially constructible view for unit tests and doc examples.
#[derive(Debug, Clone)]
pub struct StaticView {
    /// Cluster shape.
    pub config: ClusterConfig,
    /// Busy workers per place.
    pub busy: Vec<u32>,
    /// Shared-deque length per place.
    pub shared: Vec<usize>,
    /// Private-deque length per worker.
    pub private: Vec<usize>,
}

impl StaticView {
    /// A view of an entirely idle cluster.
    pub fn idle(config: ClusterConfig) -> Self {
        let places = config.places as usize;
        let workers = config.total_workers() as usize;
        StaticView {
            config,
            busy: vec![0; places],
            shared: vec![0; places],
            private: vec![0; workers],
        }
    }

    /// A view of a fully busy cluster.
    pub fn saturated(config: ClusterConfig) -> Self {
        let mut v = Self::idle(config);
        let wpp = v.config.workers_per_place;
        v.busy = vec![wpp; v.config.places as usize];
        v
    }
}

impl ClusterView for StaticView {
    fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn busy_workers(&self, p: PlaceId) -> u32 {
        self.busy[p.index()]
    }

    fn shared_len(&self, p: PlaceId) -> usize {
        self.shared[p.index()]
    }

    fn private_len(&self, w: GlobalWorkerId) -> usize {
        self.private[w.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_status_flags() {
        let cfg = ClusterConfig::new(2, 4);
        let mut v = StaticView::idle(cfg);
        assert!(!v.is_place_active(PlaceId(0)));
        assert!(v.is_under_utilized(PlaceId(0)));
        v.busy[0] = 4;
        assert!(v.is_place_active(PlaceId(0)));
        assert!(!v.is_under_utilized(PlaceId(0)));
        v.busy[0] = 3;
        assert!(v.is_under_utilized(PlaceId(0)));
    }

    #[test]
    fn spare_threads_mark_under_utilized() {
        let mut cfg = ClusterConfig::new(1, 2);
        cfg.spare_threads = 1;
        let mut v = StaticView::idle(cfg);
        v.busy[0] = 2;
        assert!(
            v.is_under_utilized(PlaceId(0)),
            "spares>0 must imply under-utilized"
        );
    }
}
