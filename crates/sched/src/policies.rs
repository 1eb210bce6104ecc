//! The concrete policies: X10WS (baseline), DistWS (the paper's
//! contribution), DistWS-NS (non-selective ablation) and RandomWS
//! (randomized distributed stealing used in the §X UTS comparison).

use crate::protocol;
use crate::view::{ClusterView, DequeChoice, StealPhase, StealStep, TaskMeta};
use crate::Policy;
use distws_core::rng::SplitMix64;
use distws_core::{GlobalWorkerId, Locality, PlaceId};
use std::cmp::Reverse;

/// Order in which a thief visits remote victim places.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimOrder {
    /// Random permutation per steal round (default; matches DistWS's
    /// "explore all available places" on a switched fabric).
    Random,
    /// Nearest-first on a ring: places at ring distance 1, 2, … — the
    /// ordering the paper's footnote 2 recommends for sparse fabrics.
    NearestFirstRing,
}

impl VictimOrder {
    /// Remote places in visiting order for a thief at `from`.
    pub fn victims(self, from: PlaceId, places: u32, rng: &mut SplitMix64) -> Vec<PlaceId> {
        let mut others: Vec<PlaceId> = (0..places).map(PlaceId).filter(|p| *p != from).collect();
        match self {
            VictimOrder::Random => rng.shuffle(&mut others),
            VictimOrder::NearestFirstRing => {
                others.sort_by_key(|p| {
                    let d = from.0.abs_diff(p.0);
                    (d.min(places - d), p.0)
                });
            }
        }
        others
    }

    /// `rng` draws ordering the victims of one round costs in a
    /// `places`-place cluster: the Fisher–Yates shuffle of the
    /// `places − 1` other places, or none for the fixed ring order.
    fn draws(self, places: u32) -> u64 {
        match self {
            VictimOrder::Random => u64::from(places.saturating_sub(2)),
            VictimOrder::NearestFirstRing => 0,
        }
    }
}

/// How many tasks a distributed steal takes from the victim's shared
/// deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// A fixed number of tasks (the paper's DistWS uses 2).
    Fixed(usize),
    /// Half of the victim's deque (Olivier & Prins' StealHalf, the
    /// §V.B.3 comparison).
    Half,
}

impl ChunkPolicy {
    /// Tasks to take from a victim holding `victim_len` tasks.
    pub fn amount(self, victim_len: usize) -> usize {
        match self {
            ChunkPolicy::Fixed(n) => n,
            ChunkPolicy::Half => (victim_len / 2).max(1),
        }
    }
}

/// Per-thief consecutive-failure counters driving steal backoff.
#[derive(Debug, Clone, Default)]
struct FailBackoff {
    fails: Vec<u32>,
}

impl FailBackoff {
    /// Remote victims to probe this round: the full sweep while work
    /// was recently found, shrinking quickly over consecutive dry
    /// rounds (the thief keeps rotating via the random permutation, it
    /// just stops paying a full cluster sweep when the system is
    /// quiescent or only trickling work).
    fn budget(&self, thief: GlobalWorkerId, places: u32) -> usize {
        match self.fails.get(thief.index()).copied().unwrap_or(0) {
            0 => places as usize,
            1 => 4,
            _ => 2,
        }
    }

    fn note(&mut self, thief: GlobalWorkerId, found: bool) {
        let i = thief.index();
        if self.fails.len() <= i {
            self.fails.resize(i + 1, 0);
        }
        self.fails[i] = if found {
            0
        } else {
            self.fails[i].saturating_add(1)
        };
    }
}

/// Precomputed victim bookkeeping: the "every place but mine" base
/// lists (and their ring-distance-sorted variants) are built once per
/// cluster size, and one reusable scratch buffer replaces the per-round
/// collect + sort of [`VictimOrder::victims`]. The randomized order
/// performs the exact same Fisher–Yates draws over the exact same base
/// list, and the sort key carries each victim's position in that order,
/// so steal sequences are unchanged byte for byte (pinned against a
/// reference implementation in `tests/victim_order.rs`).
#[derive(Debug, Clone, Default)]
struct VictimCache {
    places: u32,
    /// `base[from]` = all other places in ascending id order.
    base: Vec<Vec<PlaceId>>,
    /// `ring[from]` = all other places by ring distance, then id.
    ring: Vec<Vec<PlaceId>>,
    /// Per-round working buffer: `(shared_len, position in the visiting
    /// order, place)`, sorted on the first two.
    scratch: Vec<(Reverse<usize>, u32, PlaceId)>,
}

impl VictimCache {
    fn ensure(&mut self, places: u32) {
        if self.places == places && !self.base.is_empty() {
            return;
        }
        self.places = places;
        let others = |from: u32| (0..places).map(PlaceId).filter(move |p| p.0 != from);
        self.base = (0..places).map(|from| others(from).collect()).collect();
        self.ring = (0..places)
            .map(|from| {
                let mut v: Vec<PlaceId> = others(from).collect();
                v.sort_by_key(|p| {
                    let d = from.abs_diff(p.0);
                    (d.min(places - d), p.0)
                });
                v
            })
            .collect();
    }
}

/// Append the distributed-stealing tail of Algorithm 1 (lines 18–29):
/// visit up to `budget` remote places' shared deques, re-probing the
/// network after every failed attempt.
fn push_remote_visits(
    steps: &mut Vec<StealStep>,
    from: PlaceId,
    view: &dyn ClusterView,
    order: VictimOrder,
    budget: usize,
    rng: &mut SplitMix64,
    cache: &mut VictimCache,
) {
    cache.ensure(view.config().places);
    let VictimCache {
        base,
        ring,
        scratch,
        ..
    } = cache;
    let list = match order {
        VictimOrder::Random => &base[from.0 as usize],
        VictimOrder::NearestFirstRing => &ring[from.0 as usize],
    };
    scratch.clear();
    scratch.extend(list.iter().map(|p| (Reverse(0), 0, *p)));
    if order == VictimOrder::Random {
        // Same draws, same swaps as shuffling the bare place list.
        rng.shuffle(scratch);
    }
    let mut loaded = 0;
    for (pos, e) in scratch.iter_mut().enumerate() {
        let len = view.shared_len(e.2);
        loaded += usize::from(len > 0);
        (e.0, e.1) = (Reverse(len), pos as u32);
    }
    // §VI.B: every place maintains a status object that lets thieves
    // "identify idle or lightly-loaded places" — so probe the places
    // with visibly pooled work first, and don't pay round trips to
    // places the status board already shows empty beyond a small
    // staleness allowance. Descending length, ties in visiting order:
    // the position makes every key distinct, so the unstable sort
    // yields exactly the stable `sort_by_key(Reverse(len))` order.
    scratch.sort_unstable_by_key(|&(len, pos, _)| (len, pos));
    let keep = (loaded + 2).min(budget);
    for &(_, _, victim) in scratch.iter().take(keep) {
        // Lines 22–27 + the line 19 re-probe after a failed attempt.
        steps.extend(protocol::remote_visit(victim));
    }
}

/// What a sweeping policy keeps between steal rounds.
#[derive(Debug, Clone, Default)]
struct Sweep {
    backoff: FailBackoff,
    cache: VictimCache,
}

impl Sweep {
    /// The steal round of the sweeping policies, phase by phase: lines
    /// 9–15, then the sweep of lines 18–29, whose only `rng` use is
    /// ordering the victims.
    fn phase(
        &mut self,
        phase: StealPhase,
        order: VictimOrder,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        let cfg = view.config();
        match phase {
            StealPhase::Local => {
                out.clear();
                out.extend_from_slice(&protocol::local_steps());
            }
            StealPhase::Remote => {
                let from = cfg.place_of(thief);
                let budget = self.backoff.budget(thief, cfg.places);
                push_remote_visits(out, from, view, order, budget, rng, &mut self.cache);
            }
            StealPhase::Skip => rng.skip(order.draws(cfg.places)),
        }
    }
}

// ---------------------------------------------------------------------------
// X10WS
// ---------------------------------------------------------------------------

/// X10's shipped scheduler (§III): help-first work stealing confined to
/// a place. Every task goes to a private deque; idle workers steal only
/// from co-located workers. No shared deques, no cross-place stealing,
/// no mapping overhead.
#[derive(Debug, Clone, Default)]
pub struct X10Ws;

impl Policy for X10Ws {
    fn name(&self) -> &'static str {
        "X10WS"
    }

    fn map_task(
        &mut self,
        _meta: &TaskMeta,
        _view: &dyn ClusterView,
        _rng: &mut SplitMix64,
    ) -> DequeChoice {
        DequeChoice::Private
    }

    fn steal_sequence_into(
        &mut self,
        _thief: GlobalWorkerId,
        _view: &dyn ClusterView,
        _rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        // Lines 9–13 only: X10WS never consults the shared deque or the
        // network beyond the inbox probe.
        out.clear();
        out.extend_from_slice(&protocol::local_steps()[..3]);
    }

    fn may_migrate(&self, _locality: Locality) -> bool {
        false
    }

    fn remote_chunk(&self) -> usize {
        1
    }

    fn has_mapping_overhead(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// DistWS
// ---------------------------------------------------------------------------

/// The paper's scheduler: selective distributed work-stealing on
/// locality-flexible tasks (Algorithm 1).
#[derive(Debug, Clone)]
pub struct DistWs {
    /// Remote victim visiting order.
    pub victim_order: VictimOrder,
    /// Tasks per distributed steal (paper: fixed 2).
    pub chunk_policy: ChunkPolicy,
    /// Algorithm 1 line 5: map flexible tasks to a *private* deque on
    /// idle/under-utilized places. Disable for the mapping-rule
    /// ablation (flexible tasks then always go to the shared deque).
    pub respect_utilization: bool,
    sweep: Sweep,
}

impl Default for DistWs {
    fn default() -> Self {
        DistWs {
            victim_order: VictimOrder::Random,
            chunk_policy: ChunkPolicy::Fixed(protocol::REMOTE_STEAL_CHUNK),
            respect_utilization: true,
            sweep: Sweep::default(),
        }
    }
}

impl DistWs {
    /// DistWS with a non-default fixed remote chunk size (§V.B.3).
    pub fn with_chunk(chunk: usize) -> Self {
        assert!(chunk > 0);
        DistWs {
            chunk_policy: ChunkPolicy::Fixed(chunk),
            ..Default::default()
        }
    }

    /// DistWS with Olivier & Prins' StealHalf chunking (§V.B.3).
    pub fn steal_half() -> Self {
        DistWs {
            chunk_policy: ChunkPolicy::Half,
            ..Default::default()
        }
    }

    /// DistWS with a specific victim ordering.
    pub fn with_victim_order(order: VictimOrder) -> Self {
        DistWs {
            victim_order: order,
            ..Default::default()
        }
    }

    /// DistWS without the idle/under-utilized mapping rule (ablation).
    pub fn without_utilization_rule() -> Self {
        DistWs {
            respect_utilization: false,
            ..Default::default()
        }
    }
}

impl Policy for DistWs {
    fn name(&self) -> &'static str {
        "DistWS"
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        _rng: &mut SplitMix64,
    ) -> DequeChoice {
        match meta.locality {
            // Line 3: sensitive tasks always to a private deque at p.
            Locality::Sensitive => DequeChoice::Private,
            // Lines 5–8: flexible tasks to a private deque when the
            // place is idle or under-utilized, else to the shared deque.
            Locality::Flexible => {
                if self.respect_utilization
                    && protocol::map_flexible_private(
                        view.is_place_active(meta.home),
                        view.is_under_utilized(meta.home),
                    )
                {
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
        self.steal_phase(StealPhase::Local, thief, view, rng, out);
        self.steal_phase(StealPhase::Remote, thief, view, rng, out);
    }

    fn steal_phase(
        &mut self,
        phase: StealPhase,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        self.sweep
            .phase(phase, self.victim_order, thief, view, rng, out);
    }

    fn may_migrate(&self, locality: Locality) -> bool {
        locality.remotely_stealable()
    }

    fn remote_chunk(&self) -> usize {
        self.chunk_policy.amount(protocol::REMOTE_STEAL_CHUNK)
    }

    fn remote_chunk_for(&self, victim_len: usize) -> usize {
        self.chunk_policy.amount(victim_len)
    }

    fn note_result(&mut self, thief: GlobalWorkerId, found: bool) {
        self.sweep.backoff.note(thief, found);
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// DistWS-NS
// ---------------------------------------------------------------------------

/// The non-selective ablation (§VIII.3): identical deque structure and
/// steal protocol to DistWS, but tasks are mapped to private and shared
/// deques in round-robin fashion *ignoring* their locality annotation,
/// and any task — sensitive included — may be stolen remotely.
#[derive(Debug, Clone)]
pub struct DistWsNs {
    victim_order: VictimOrder,
    chunk: usize,
    rr: u64,
    sweep: Sweep,
}

impl Default for DistWsNs {
    fn default() -> Self {
        DistWsNs {
            victim_order: VictimOrder::Random,
            chunk: protocol::REMOTE_STEAL_CHUNK,
            rr: 0,
            sweep: Sweep::default(),
        }
    }
}

impl Policy for DistWsNs {
    fn name(&self) -> &'static str {
        "DistWS-NS"
    }

    fn map_task(
        &mut self,
        _meta: &TaskMeta,
        _view: &dyn ClusterView,
        _rng: &mut SplitMix64,
    ) -> DequeChoice {
        // Round-robin between private and shared deques "so that there
        // are opportunities for both local and remote execution".
        self.rr = self.rr.wrapping_add(1);
        if self.rr.is_multiple_of(2) {
            DequeChoice::Private
        } else {
            DequeChoice::Shared
        }
    }

    fn steal_sequence_into(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        self.steal_phase(StealPhase::Local, thief, view, rng, out);
        self.steal_phase(StealPhase::Remote, thief, view, rng, out);
    }

    fn steal_phase(
        &mut self,
        phase: StealPhase,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        self.sweep
            .phase(phase, self.victim_order, thief, view, rng, out);
    }

    fn may_migrate(&self, _locality: Locality) -> bool {
        true
    }

    fn remote_chunk(&self) -> usize {
        self.chunk
    }

    fn note_result(&mut self, thief: GlobalWorkerId, found: bool) {
        self.sweep.backoff.note(thief, found);
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// RandomWS
// ---------------------------------------------------------------------------

/// Randomized distributed work stealing: the classical baseline the §X
/// UTS study compares against (lifeline load balancing with lifelines
/// disabled degenerates to this). Mapping follows DistWS's rule so the
/// same tasks are exposed for distributed stealing, but a thief probes
/// a *single random victim per round* instead of sweeping all places,
/// and steals chunk = 1.
#[derive(Debug, Clone, Default)]
pub struct RandomWs;

impl Policy for RandomWs {
    fn name(&self) -> &'static str {
        "RandomWS"
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> DequeChoice {
        DistWs::default().map_task(meta, view, rng)
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
            // One random victim per round; a missed steal does not
            // inform future steals (the property lifelines fix).
            let mut v = PlaceId(rng.below(cfg.places as u64) as u32);
            if v == place {
                v = PlaceId((v.0 + 1) % cfg.places);
            }
            out.push(StealStep::StealRemoteShared(v));
        }
    }

    fn may_migrate(&self, locality: Locality) -> bool {
        locality.remotely_stealable()
    }

    fn remote_chunk(&self) -> usize {
        1
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

    fn meta(locality: Locality) -> TaskMeta {
        TaskMeta::basic(PlaceId(0), locality, PlaceId(0))
    }

    #[test]
    fn x10ws_never_uses_shared_or_remote() {
        let cfg = ClusterConfig::new(4, 2);
        let view = StaticView::saturated(cfg);
        let mut p = X10Ws;
        let mut rng = SplitMix64::new(1);
        assert_eq!(
            p.map_task(&meta(Locality::Flexible), &view, &mut rng),
            DequeChoice::Private
        );
        let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
        assert!(seq.iter().all(|s| !matches!(
            s,
            StealStep::StealRemoteShared(_) | StealStep::StealLocalShared
        )));
        assert!(!p.may_migrate(Locality::Flexible));
    }

    #[test]
    fn distws_maps_sensitive_private_always() {
        let cfg = ClusterConfig::new(2, 2);
        let view = StaticView::saturated(cfg);
        let mut p = DistWs::default();
        let mut rng = SplitMix64::new(1);
        assert_eq!(
            p.map_task(&meta(Locality::Sensitive), &view, &mut rng),
            DequeChoice::Private
        );
    }

    #[test]
    fn distws_flexible_mapping_depends_on_utilization() {
        let cfg = ClusterConfig::new(2, 2);
        let mut p = DistWs::default();
        let mut rng = SplitMix64::new(1);
        // Fully utilized place → shared deque.
        let view = StaticView::saturated(cfg.clone());
        assert_eq!(
            p.map_task(&meta(Locality::Flexible), &view, &mut rng),
            DequeChoice::Shared
        );
        // Under-utilized place → private deque (Algorithm 1 line 5–6).
        let mut view = StaticView::saturated(cfg.clone());
        view.busy[0] = 1;
        assert_eq!(
            p.map_task(&meta(Locality::Flexible), &view, &mut rng),
            DequeChoice::Private
        );
        // Idle place → private deque.
        let view = StaticView::idle(cfg);
        assert_eq!(
            p.map_task(&meta(Locality::Flexible), &view, &mut rng),
            DequeChoice::Private
        );
    }

    #[test]
    fn distws_steal_sequence_matches_algorithm_order() {
        let cfg = ClusterConfig::new(4, 2);
        let mut view = StaticView::saturated(cfg);
        // Every place advertises pooled work, so the full sweep runs.
        view.shared = vec![1; 4];
        let mut p = DistWs::default();
        let mut rng = SplitMix64::new(1);
        let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
        assert_eq!(
            &seq[..4],
            &[
                StealStep::PollPrivate,
                StealStep::ProbeNetwork,
                StealStep::StealCoWorker,
                StealStep::StealLocalShared
            ]
        );
        // Remote tail: visits every other place exactly once, each
        // followed by a network re-probe.
        let victims: Vec<PlaceId> = seq[4..]
            .iter()
            .filter_map(|s| match s {
                StealStep::StealRemoteShared(p) => Some(*p),
                _ => None,
            })
            .collect();
        let mut sorted: Vec<u32> = victims.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        assert_eq!(seq.len(), 4 + 2 * 3);
    }

    #[test]
    fn distws_guards_sensitive_migration() {
        let p = DistWs::default();
        assert!(p.may_migrate(Locality::Flexible));
        assert!(!p.may_migrate(Locality::Sensitive));
        assert_eq!(p.remote_chunk(), 2);
    }

    #[test]
    fn distws_ns_round_robins_and_migrates_anything() {
        let cfg = ClusterConfig::new(2, 2);
        let view = StaticView::saturated(cfg);
        let mut p = DistWsNs::default();
        let mut rng = SplitMix64::new(1);
        let choices: Vec<_> = (0..4)
            .map(|_| p.map_task(&meta(Locality::Sensitive), &view, &mut rng))
            .collect();
        assert_eq!(
            choices,
            vec![
                DequeChoice::Shared,
                DequeChoice::Private,
                DequeChoice::Shared,
                DequeChoice::Private
            ]
        );
        assert!(p.may_migrate(Locality::Sensitive));
    }

    #[test]
    fn random_ws_probes_single_victim() {
        let cfg = ClusterConfig::new(8, 2);
        let view = StaticView::saturated(cfg);
        let mut p = RandomWs;
        let mut rng = SplitMix64::new(1);
        let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
        let remotes = seq
            .iter()
            .filter(|s| matches!(s, StealStep::StealRemoteShared(_)))
            .count();
        assert_eq!(remotes, 1);
        // Never targets itself.
        for _ in 0..100 {
            let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
            for s in seq {
                if let StealStep::StealRemoteShared(v) = s {
                    assert_ne!(v, PlaceId(0));
                }
            }
        }
    }

    #[test]
    fn chunk_policies() {
        assert_eq!(ChunkPolicy::Fixed(2).amount(100), 2);
        assert_eq!(ChunkPolicy::Half.amount(100), 50);
        assert_eq!(
            ChunkPolicy::Half.amount(1),
            1,
            "StealHalf takes at least one"
        );
        let p = DistWs::steal_half();
        assert_eq!(p.remote_chunk_for(10), 5);
        assert_eq!(DistWs::with_chunk(4).remote_chunk_for(10), 4);
    }

    #[test]
    fn status_board_truncates_sweep_to_loaded_places() {
        let cfg = ClusterConfig::new(8, 2);
        let mut view = StaticView::saturated(cfg);
        // Only two places advertise work: probe them first, plus a
        // small staleness allowance — never the full 7-victim sweep.
        view.shared = vec![0; 8];
        view.shared[3] = 5;
        view.shared[6] = 1;
        let mut p = DistWs::default();
        let mut rng = SplitMix64::new(2);
        let seq = p.steal_sequence(GlobalWorkerId(0), &view, &mut rng);
        let victims: Vec<PlaceId> = seq
            .iter()
            .filter_map(|s| match s {
                StealStep::StealRemoteShared(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(
            victims.len(),
            4,
            "2 loaded + 2 staleness probes: {victims:?}"
        );
        assert_eq!(victims[0], PlaceId(3), "most loaded place probed first");
        assert_eq!(victims[1], PlaceId(6));
    }

    /// A view that counts `shared_len` reads.
    struct CountingView {
        inner: StaticView,
        shared_len_reads: std::cell::Cell<usize>,
    }

    impl ClusterView for CountingView {
        fn config(&self) -> &ClusterConfig {
            self.inner.config()
        }
        fn busy_workers(&self, p: PlaceId) -> u32 {
            self.inner.busy_workers(p)
        }
        fn shared_len(&self, p: PlaceId) -> usize {
            self.shared_len_reads.set(self.shared_len_reads.get() + 1);
            self.inner.shared_len(p)
        }
        fn private_len(&self, w: GlobalWorkerId) -> usize {
            self.inner.private_len(w)
        }
    }

    #[test]
    fn round_ending_in_the_prefix_reads_no_board_and_burns_the_sweep_draws() {
        for order in [VictimOrder::Random, VictimOrder::NearestFirstRing] {
            for places in [1u32, 2, 3, 16, 128] {
                let mut inner = StaticView::saturated(ClusterConfig::new(places, 2));
                inner.shared = (0..places as usize).map(|p| p % 3).collect();
                let view = CountingView {
                    inner,
                    shared_len_reads: std::cell::Cell::new(0),
                };
                let thief = GlobalWorkerId(1);
                let label = format!("{order:?} on {places} places");

                let mut eager_rng = SplitMix64::new(11);
                let eager =
                    DistWs::with_victim_order(order).steal_sequence(thief, &view, &mut eager_rng);
                assert_eq!(view.shared_len_reads.get(), places as usize - 1, "{label}");

                // The round the engine asks for when a local tier hits.
                view.shared_len_reads.set(0);
                let mut p = DistWs::with_victim_order(order);
                let mut rng = SplitMix64::new(11);
                let mut steps = Vec::new();
                p.steal_phase(StealPhase::Local, thief, &view, &mut rng, &mut steps);
                assert_eq!(steps, protocol::local_steps(), "{label}");
                p.steal_phase(StealPhase::Skip, thief, &view, &mut rng, &mut steps);
                assert_eq!(steps, protocol::local_steps(), "{label}: Skip wrote steps");
                assert_eq!(view.shared_len_reads.get(), 0, "{label}");
                assert_eq!(rng, eager_rng, "{label}: Skip is not the sweep's draws");

                // The round it asks for when they all miss.
                let mut rng = SplitMix64::new(11);
                p.steal_phase(StealPhase::Local, thief, &view, &mut rng, &mut steps);
                p.steal_phase(StealPhase::Remote, thief, &view, &mut rng, &mut steps);
                assert_eq!(steps, eager, "{label}");
                assert_eq!(rng, eager_rng, "{label}");
            }
        }
    }

    #[test]
    fn victim_order_ring_is_distance_sorted() {
        let mut rng = SplitMix64::new(1);
        let v = VictimOrder::NearestFirstRing.victims(PlaceId(0), 8, &mut rng);
        let d: Vec<u32> = v.iter().map(|p| p.0.min(8 - p.0)).collect();
        let mut s = d.clone();
        s.sort_unstable();
        assert_eq!(d, s);
    }

    #[test]
    fn backoff_shrinks_remote_sweep_after_dry_rounds() {
        let cfg = ClusterConfig::new(8, 2);
        let mut view = StaticView::saturated(cfg);
        // Every place advertises pooled work (the status-board
        // truncation is tested separately below).
        view.shared = vec![1; 8];
        let mut p = DistWs::default();
        let mut rng = SplitMix64::new(1);
        let thief = GlobalWorkerId(0);
        let remotes = |seq: &[StealStep]| {
            seq.iter()
                .filter(|s| matches!(s, StealStep::StealRemoteShared(_)))
                .count()
        };
        // Fresh thief: full sweep of the 7 other places.
        assert_eq!(remotes(&p.steal_sequence(thief, &view, &mut rng)), 7);
        p.note_result(thief, false);
        p.note_result(thief, false);
        // After two dry rounds: down to 2 victims per round.
        assert_eq!(remotes(&p.steal_sequence(thief, &view, &mut rng)), 2);
        // A success resets the budget.
        p.note_result(thief, true);
        assert_eq!(remotes(&p.steal_sequence(thief, &view, &mut rng)), 7);
        // Backoff is per thief.
        assert_eq!(
            remotes(&p.steal_sequence(GlobalWorkerId(5), &view, &mut rng)),
            7
        );
    }

    #[test]
    fn victim_order_random_is_complete_permutation() {
        let mut rng = SplitMix64::new(9);
        let v = VictimOrder::Random.victims(PlaceId(3), 16, &mut rng);
        assert_eq!(v.len(), 15);
        let mut ids: Vec<u32> = v.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..16u32).filter(|i| *i != 3).collect::<Vec<_>>());
    }
}
