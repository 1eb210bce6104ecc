//! Lifeline-graph global load balancing (Saraswat et al., PPoPP 2011),
//! the comparator of the paper's §X UTS study.
//!
//! Protocol: a thief first performs `w` *random* distributed steal
//! attempts. If all fail, instead of spinning it **quiesces** after
//! registering with the places on its outgoing *lifeline edges*; a
//! registered place that later has surplus work *pushes* tasks to its
//! quiesced dependents. The lifeline graph is a cyclic hypercube: with
//! base `b`, place `i` has outgoing edges to `(i + b^k) mod P`.
//!
//! The paper reports that this two-step balancer beats DistWS on UTS
//! (a workload where *every* task is flexible and work is extremely
//! bursty), while DistWS beats plain random stealing by ~9% — our
//! reproduction regenerates exactly that comparison.

use crate::protocol::{self, LIFELINE_BASE, LIFELINE_RANDOM_ATTEMPTS};
use crate::view::{ClusterView, DequeChoice, StealStep, TaskMeta};
use crate::Policy;
use distws_core::rng::SplitMix64;
use distws_core::{GlobalWorkerId, Locality, PlaceId};

/// Lifeline-based load balancing policy.
#[derive(Debug, Clone)]
pub struct LifelineWs {
    /// Random steal attempts before quiescing (Saraswat et al. use
    /// small w; default 2).
    pub random_attempts: u32,
    /// Base of the cyclic hypercube lifeline graph (default 2).
    pub base: u32,
}

impl Default for LifelineWs {
    fn default() -> Self {
        LifelineWs {
            random_attempts: LIFELINE_RANDOM_ATTEMPTS,
            base: LIFELINE_BASE,
        }
    }
}

impl LifelineWs {
    /// Outgoing lifeline edges of `place` in a `places`-node cluster:
    /// `(place + base^k) mod places` for each power below `places`,
    /// deduplicated, excluding self-loops.
    pub fn edges(place: PlaceId, places: u32, base: u32) -> Vec<PlaceId> {
        let mut out = Vec::new();
        let mut step = 1u64;
        while step < places as u64 {
            let t = PlaceId(((place.0 as u64 + step) % places as u64) as u32);
            if t != place && !out.contains(&t) {
                out.push(t);
            }
            step *= base.max(2) as u64;
        }
        out
    }
}

impl Policy for LifelineWs {
    fn name(&self) -> &'static str {
        "LifelineWS"
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        _rng: &mut SplitMix64,
    ) -> DequeChoice {
        // Flexible tasks are pooled per place so both random steals and
        // lifeline pushes can take them; sensitive tasks stay private.
        match meta.locality {
            Locality::Sensitive => DequeChoice::Private,
            Locality::Flexible => {
                if protocol::map_flexible_private(
                    view.is_place_active(meta.home),
                    view.is_under_utilized(meta.home),
                ) {
                    DequeChoice::Private
                } else {
                    DequeChoice::Shared
                }
            }
        }
    }

    fn steal_sequence_into(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        let cfg = view.config();
        let place = cfg.place_of(thief);
        out.clear();
        out.extend_from_slice(&protocol::local_steps());
        if cfg.places > 1 {
            for _ in 0..self.random_attempts {
                let mut v = PlaceId(rng.below(cfg.places as u64) as u32);
                if v == place {
                    v = PlaceId((v.0 + 1) % cfg.places);
                }
                out.push(StealStep::StealRemoteShared(v));
            }
            // All random attempts failed: quiesce on the lifelines.
            out.push(StealStep::Quiesce);
        }
    }

    fn may_migrate(&self, locality: Locality) -> bool {
        locality.remotely_stealable()
    }

    fn remote_chunk(&self) -> usize {
        1
    }

    fn lifeline_partners(&self, place: PlaceId, places: u32) -> Vec<PlaceId> {
        Self::edges(place, places, self.base)
    }

    fn uses_lifelines(&self) -> bool {
        true
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::StaticView;
    use distws_core::ClusterConfig;

    #[test]
    fn hypercube_edges_base_two() {
        // 8 places: edges from 0 go to +1, +2, +4.
        let e = LifelineWs::edges(PlaceId(0), 8, 2);
        assert_eq!(e, vec![PlaceId(1), PlaceId(2), PlaceId(4)]);
        // wrap-around
        let e = LifelineWs::edges(PlaceId(7), 8, 2);
        assert_eq!(e, vec![PlaceId(0), PlaceId(1), PlaceId(3)]);
    }

    #[test]
    fn edges_have_no_self_loops_or_dups() {
        for places in [2u32, 3, 4, 16] {
            for p in 0..places {
                let e = LifelineWs::edges(PlaceId(p), places, 2);
                assert!(!e.contains(&PlaceId(p)));
                let mut d = e.clone();
                d.dedup();
                assert_eq!(d.len(), e.len());
            }
        }
    }

    #[test]
    fn sequence_ends_in_quiesce() {
        let cfg = ClusterConfig::new(8, 2);
        let view = StaticView::saturated(cfg);
        let mut p = LifelineWs::default();
        let mut rng = SplitMix64::new(1);
        let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
        assert_eq!(*seq.last().unwrap(), StealStep::Quiesce);
        let remotes = seq
            .iter()
            .filter(|s| matches!(s, StealStep::StealRemoteShared(_)))
            .count();
        assert_eq!(remotes, 2);
    }

    #[test]
    fn single_place_never_quiesces() {
        let cfg = ClusterConfig::new(1, 4);
        let view = StaticView::saturated(cfg);
        let mut p = LifelineWs::default();
        let mut rng = SplitMix64::new(1);
        let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
        assert!(!seq.contains(&StealStep::Quiesce));
    }
}
