//! **AdaptiveWS** — runtime locality classification (the paper's
//! "computed on the fly" alternative, §II).
//!
//! The paper's prototype relies on programmer annotations but notes
//! that the attributes characterising locality-flexibility — task
//! granularity, the amount of data a task references, remote-access
//! overheads — "can be derived a priori through static analyses, or can
//! be computed on the fly as the program is executing". This policy
//! implements the on-the-fly variant: it *ignores* the annotation and
//! classifies each task at mapping time from attributes a profiling
//! runtime would have:
//!
//! * a task is treated as flexible when its estimated compute time
//!   exceeds `profit_factor ×` the modelled cost of migrating it
//!   (round-trip latency + footprint transfer) — i.e. when a steal
//!   would pay for itself (§II condition (c)/(d));
//! * everything else is pinned like a sensitive task.
//!
//! The `adaptive` experiment in `distws-bench` compares this policy
//! against annotation-driven DistWS across the whole suite — measuring
//! how much of the annotation's benefit a profile-guided runtime can
//! recover, and what it loses on tasks whose *semantic* affinity
//! (copy-back requirements, follow-up accesses) is invisible to cost
//! heuristics.

use crate::policies::ChunkPolicy;
use crate::view::{ClusterView, DequeChoice, StealPhase, StealStep, TaskMeta};
use crate::Policy;
use distws_core::rng::SplitMix64;
use distws_core::{CostModel, GlobalWorkerId, Locality};

/// Runtime-classified selective distributed work stealing.
#[derive(Debug, Clone)]
pub struct AdaptiveWs {
    /// Cost model used to estimate migration cost (should match the
    /// engine's).
    pub cost: CostModel,
    /// A task is flexible when `est_cost ≥ profit_factor × migration
    /// cost`.
    pub profit_factor: u64,
    /// Distributed-steal chunking.
    pub chunk_policy: ChunkPolicy,
    inner: crate::policies::DistWs,
}

impl Default for AdaptiveWs {
    fn default() -> Self {
        AdaptiveWs {
            cost: CostModel::default(),
            profit_factor: 4,
            chunk_policy: ChunkPolicy::Fixed(2),
            inner: crate::policies::DistWs::default(),
        }
    }
}

impl AdaptiveWs {
    /// The classification heuristic: would stealing this task pay for
    /// itself by at least `profit_factor`?
    pub fn classify(&self, est_cost_ns: u64, footprint_bytes: u64) -> Locality {
        let migration = self.cost.migration_ns(footprint_bytes);
        if est_cost_ns >= self.profit_factor * migration {
            Locality::Flexible
        } else {
            Locality::Sensitive
        }
    }
}

impl Policy for AdaptiveWs {
    fn name(&self) -> &'static str {
        "AdaptiveWS"
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> DequeChoice {
        // Re-classify from runtime-observable attributes, ignoring the
        // programmer's annotation, then apply Algorithm 1's mapping.
        let reclassified = TaskMeta {
            locality: self.classify(meta.est_cost_ns, meta.footprint_bytes),
            ..*meta
        };
        self.inner.map_task(&reclassified, view, rng)
    }

    fn steal_sequence_into(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        self.inner.steal_sequence_into(thief, view, rng, out);
    }

    fn steal_phase(
        &mut self,
        phase: StealPhase,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        self.inner.steal_phase(phase, thief, view, rng, out);
    }

    fn may_migrate(&self, _locality: Locality) -> bool {
        // The annotation is deliberately overridden: whatever the
        // heuristic pooled in a shared deque is fair game. Remote-
        // reference and copy-back costs of misclassified tasks are
        // charged by the engine — that *is* the experiment.
        true
    }

    fn remote_chunk(&self) -> usize {
        self.chunk_policy.amount(2)
    }

    fn remote_chunk_for(&self, victim_len: usize) -> usize {
        self.chunk_policy.amount(victim_len)
    }

    fn note_result(&mut self, thief: GlobalWorkerId, found: bool) {
        self.inner.note_result(thief, found);
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::StaticView;
    use distws_core::{ClusterConfig, PlaceId};

    #[test]
    fn classification_follows_profitability() {
        let p = AdaptiveWs::default();
        let migration_empty = p.cost.migration_ns(0);
        // Coarse, data-free task: flexible.
        assert_eq!(p.classify(100 * migration_empty, 0), Locality::Flexible);
        // Tiny task: sensitive.
        assert_eq!(p.classify(migration_empty / 2, 0), Locality::Sensitive);
        // Coarse but data-heavy: the footprint pushes migration cost up.
        let heavy_bytes = 100 << 20;
        assert_eq!(
            p.classify(100 * migration_empty, heavy_bytes),
            Locality::Sensitive,
            "100 MiB footprint must not be worth a 100×-empty-migration task"
        );
    }

    #[test]
    fn annotation_is_ignored() {
        let mut p = AdaptiveWs::default();
        let cfg = ClusterConfig::new(2, 2);
        let view = StaticView::saturated(cfg);
        let mut rng = SplitMix64::new(1);
        // Programmer says Sensitive, heuristic says coarse-and-free:
        // maps to the shared deque anyway (saturated place).
        let meta = TaskMeta {
            est_cost_ns: 1_000_000_000,
            footprint_bytes: 0,
            ..TaskMeta::basic(PlaceId(0), Locality::Sensitive, PlaceId(0))
        };
        assert_eq!(p.map_task(&meta, &view, &mut rng), DequeChoice::Shared);
        // Programmer says Flexible, heuristic says too fine: private.
        let meta = TaskMeta {
            est_cost_ns: 100,
            footprint_bytes: 0,
            ..TaskMeta::basic(PlaceId(0), Locality::Flexible, PlaceId(0))
        };
        assert_eq!(p.map_task(&meta, &view, &mut rng), DequeChoice::Private);
    }

    #[test]
    fn migrates_anything_it_pooled() {
        let p = AdaptiveWs::default();
        assert!(p.may_migrate(Locality::Sensitive));
        assert!(p.may_migrate(Locality::Flexible));
    }
}
