//! Algorithm 1's protocol constants, shared by the policies, the
//! engines and the model checker (`distws-analyze`).
//!
//! The paper fixes several magic numbers and orderings in §V's
//! Algorithm 1. They used to live inline in `policies.rs`; extracting
//! them here makes them a single source of truth that the explicit-
//! state protocol model (`distws_analyze::protocol`) and the trace
//! conformance checker (`distws_analyze::conform`) consume directly,
//! so the model can never silently drift from the implementation.
//!
//! Line map (Algorithm 1, §V):
//!
//! | Lines | Rule | Here |
//! |---|---|---|
//! | 3 | sensitive tasks → private deque | [`map_flexible_private`] callers (sensitive is unconditional) |
//! | 5–8 | flexible → private iff place idle or under-utilized, else shared | [`map_flexible_private`] |
//! | 9 | poll own private deque | [`local_steps`]`[0]` |
//! | 11 | probe the network | [`local_steps`]`[1]` |
//! | 13 | steal 1 task from a co-located worker | [`local_steps`]`[2]`, [`LOCAL_STEAL_CHUNK`] |
//! | 15 | take from the local shared deque | [`local_steps`]`[3]` |
//! | 18–29 | distributed steal sweep, chunk 2 | [`remote_visit`], [`REMOTE_STEAL_CHUNK`] |
//! | 19 | re-probe the network after every failed remote steal | [`remote_visit`]`[1]` |

use crate::view::StealStep;
use distws_core::PlaceId;

/// Algorithm 1 line 13: a steal from a co-located worker's private
/// deque takes exactly one task (classic Chase–Lev steal granularity).
pub const LOCAL_STEAL_CHUNK: usize = 1;

/// §V.B.3 / Algorithm 1 line 24: a distributed steal takes two tasks —
/// one to execute immediately, one to amortize the migration round trip.
pub const REMOTE_STEAL_CHUNK: usize = 2;

/// Retries against the *same* victim after a steal-probe timeout
/// before the thief moves to the next victim in the sweep
/// ([`crate::retry::RetryPolicy::budget`]'s default). Finite by
/// construction: the liveness layer's `steal-progress` property
/// (`distws_analyze::liveness`) checks that no fair execution retries
/// forever without acquiring work, which is exactly the bug an
/// unbounded budget would introduce.
pub const STEAL_RETRY_BUDGET: u32 = 2;

/// Base of the lifeline hypercube graph (§ Saraswat et al.): place
/// `i`'s lifelines go to `(i + base^k) mod P`. Shared with
/// [`crate::lifeline::LifelineWs`]'s default so the model checker's
/// `lifeline-wakeup` property and the runtime agree on the wakeup
/// topology.
pub const LIFELINE_BASE: u32 = 2;

/// Random-victim attempts a lifeline thief makes before falling back
/// to its lifeline edges and going dormant
/// ([`crate::lifeline::LifelineWs`]'s default). Bounded so a failed
/// sweep terminates in the dormant state the `lifeline-wakeup`
/// property guards.
pub const LIFELINE_RANDOM_ATTEMPTS: u32 = 2;

/// The steal tiers of Algorithm 1 in protocol order, as the stable wire
/// names used by the trace layer (`distws_trace::StealTier`). A worker's
/// steal round must attempt tiers in non-decreasing index order; a
/// success at tier *i* is justified only by failed attempts at every
/// tier before it in the same round.
pub const STEAL_TIER_ORDER: [&str; 3] = ["local_private", "local_shared", "remote"];

/// Rank of a steal tier (by wire name) in [`STEAL_TIER_ORDER`], or
/// `None` for strings that are not steal tiers.
pub fn tier_rank(name: &str) -> Option<usize> {
    STEAL_TIER_ORDER.iter().position(|t| *t == name)
}

/// Algorithm 1 lines 9–15: the intra-place prefix every full-protocol
/// policy runs before considering distributed steals, in order — poll
/// own private deque (9), probe the network (11), steal from a
/// co-located worker (13), take from the local shared deque (15).
pub fn local_steps() -> [StealStep; 4] {
    [
        StealStep::PollPrivate,      // line 9
        StealStep::ProbeNetwork,     // line 11
        StealStep::StealCoWorker,    // line 13
        StealStep::StealLocalShared, // line 15
    ]
}

/// Algorithm 1 lines 22–27 + line 19: one remote visit of the
/// distributed sweep — a chunked steal from `victim`'s shared deque
/// followed by the mandated network re-probe before the next victim.
pub fn remote_visit(victim: PlaceId) -> [StealStep; 2] {
    [
        StealStep::StealRemoteShared(victim),
        // Line 19: after a failed distributed steal, first probe the
        // network before exploring other places.
        StealStep::ProbeNetwork,
    ]
}

/// Algorithm 1 lines 5–8, the mapping predicate for locality-flexible
/// tasks: map to a *private* deque when the home place is idle
/// (`!place_active`) or under-utilized, else pool on the *shared* deque
/// where distributed thieves can see it. Sensitive tasks (line 3) never
/// consult this — they are unconditionally private.
pub fn map_flexible_private(place_active: bool, under_utilized: bool) -> bool {
    !place_active || under_utilized
}

/// Incarnation-epoch fencing predicate (PR 7 recovery): a custody
/// lease taken under epoch `lease_epoch` is *stale* relative to an
/// incarnation that died at `dying_epoch` iff it was taken under that
/// incarnation or an earlier one. The strict successor epoch (the
/// restarted place) is live. Both `distws_cluster::place` (coordinator
/// sweep + custody poll) and the protocol model's cluster-era
/// transitions call this one predicate, so the fence can't drift
/// between implementation and model.
pub fn lease_is_stale(lease_epoch: u32, dying_epoch: u32) -> bool {
    lease_epoch <= dying_epoch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_matches_steal_step_tier_names() {
        // The protocol order must agree with the order the steps appear
        // in the canonical local prefix + remote tail.
        let [_, _, co, shared] = local_steps();
        assert_eq!(co.tier_name(), Some(STEAL_TIER_ORDER[0]));
        assert_eq!(shared.tier_name(), Some(STEAL_TIER_ORDER[1]));
        let [remote, reprobe] = remote_visit(PlaceId(1));
        assert_eq!(remote.tier_name(), Some(STEAL_TIER_ORDER[2]));
        assert_eq!(reprobe, StealStep::ProbeNetwork, "line 19 re-probe");
    }

    #[test]
    fn tier_rank_is_total_over_tier_names() {
        assert_eq!(tier_rank("local_private"), Some(0));
        assert_eq!(tier_rank("local_shared"), Some(1));
        assert_eq!(tier_rank("remote"), Some(2));
        assert_eq!(tier_rank("network"), None);
    }

    #[test]
    fn mapping_predicate_truth_table() {
        // (active, under-utilized) → private?
        assert!(map_flexible_private(false, false), "idle place");
        assert!(map_flexible_private(false, true));
        assert!(map_flexible_private(true, true), "under-utilized place");
        assert!(!map_flexible_private(true, false), "saturated place pools");
    }

    #[test]
    fn chunk_constants_match_the_paper() {
        assert_eq!(LOCAL_STEAL_CHUNK, 1, "line 13");
        assert_eq!(REMOTE_STEAL_CHUNK, 2, "§V.B.3");
    }

    #[test]
    fn epoch_fencing_is_a_strict_successor_rule() {
        // Leases under the dying epoch or earlier are stale; only the
        // restarted incarnation's strictly larger epoch is live.
        assert!(lease_is_stale(0, 0));
        assert!(lease_is_stale(3, 3));
        assert!(lease_is_stale(2, 5));
        assert!(!lease_is_stale(1, 0));
        assert!(!lease_is_stale(6, 5));
    }
}
