//! # distws-sched
//!
//! The scheduling policies of the paper, expressed engine-agnostically.
//!
//! A [`Policy`] answers the two questions of Algorithm 1:
//!
//! 1. **Task mapping** (lines 1–8): when a task is spawned at / arrives
//!    at its home place, does it go to a worker's *private deque* or to
//!    the place's *shared deque*?
//! 2. **Stealing** (lines 9–29): when a worker runs out of work, in
//!    what order does it look for more — its own private deque, the
//!    network, co-located workers, the local shared deque, remote
//!    shared deques?
//!
//! Both the deterministic discrete-event simulator (`distws-sim`) and
//! the real threaded runtime (`distws-runtime`) drive these policies,
//! so every experiment compares *identical decision logic* under
//! different substrates.
//!
//! Implemented policies:
//!
//! | Policy | Paper role |
//! |---|---|
//! | [`X10Ws`] | X10's shipped scheduler: help-first intra-place stealing, no cross-place steals |
//! | [`DistWs`] | the contribution: flexible tasks on shared deques, selective distributed stealing, chunk = 2 |
//! | [`DistWsNs`] | non-selective ablation: round-robin private/shared mapping, any task stealable remotely |
//! | [`RandomWs`] | randomized distributed stealing (§X UTS comparison) |
//! | [`LifelineWs`] | lifeline-graph global load balancing (Saraswat et al., §X) |
//! | [`AdaptiveWs`] | extension: annotation-free, profile-style classification (§II "computed on the fly") |

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod lifeline;
pub mod policies;
pub mod protocol;
pub mod retry;
pub mod view;

pub use adaptive::AdaptiveWs;
pub use lifeline::LifelineWs;
pub use policies::{ChunkPolicy, DistWs, DistWsNs, RandomWs, VictimOrder, X10Ws};
pub use protocol::{LOCAL_STEAL_CHUNK, REMOTE_STEAL_CHUNK, STEAL_TIER_ORDER};
pub use retry::RetryPolicy;
pub use view::{ClusterView, DequeChoice, StealPhase, StealStep, TaskMeta};

use distws_core::rng::SplitMix64;
use distws_core::Locality;

/// A scheduling policy: the mapping rule plus the steal protocol.
///
/// Methods take `&mut self` so policies may keep cheap local state
/// (round-robin counters, per-thief victim cursors). Engines that run
/// workers on multiple OS threads clone one policy instance per worker
/// via [`Policy::clone_box`].
///
/// # The two-phase steal round
///
/// Algorithm 1 short-circuits: lines 9–15 stay inside the place and
/// only a thief they all fail sweeps the cluster (18–29). An engine can
/// ask for the round the same way, through [`Policy::steal_phase`]:
///
/// 1. [`StealPhase::Local`] — the steps to try first;
/// 2. if none of them found a task, [`StealPhase::Remote`] — the steps
///    to try next, appended to the same buffer;
/// 3. if the round ended inside the first part,
///    [`StealPhase::Skip`] instead of `Remote`.
///
/// [`Policy::steal_sequence_into`] is the same round asked for at once,
/// and for every policy it **is** `Local` followed by `Remote` on one
/// buffer. The two ways of asking produce the same run, byte for byte,
/// because of three rules:
///
/// * **What a `Remote` phase may read.** The thief, the view, the
///   policy's own state as of the last [`Policy::note_result`], and
///   `rng`. Walking a `Local` part that finds nothing pops and takes
///   from empty deques only, so in an engine whose view changes with
///   the thief's own actions alone (the simulator) none of these
///   differs from what an eager call at the start of the round would
///   have read. An engine whose view other threads write while the
///   thief walks (the threaded runtime, the cluster) asks eagerly.
/// * **`Skip` burns the draws `Remote` would have made.** The engine
///   hands one `rng` stream to every round of every thief (and to
///   [`Policy::map_task`]); if a round that stops early left the
///   sweep's draws unmade, every later victim order of the run would
///   shift. `SplitMix64` is a counter generator, so `Skip` is
///   [`SplitMix64::skip`] by a count that depends on the cluster shape
///   alone — O(1), no view read.
/// * **The defaults are the eager round.** Unless overridden, `Local`
///   is the whole of `steal_sequence_into`, `Remote` appends nothing
///   and `Skip` does nothing. A wrapper that forwards only
///   `steal_sequence_into` (a timing seam, a recording proxy) is
///   therefore correct as it stands, and one that forwards
///   `steal_phase` forwards all three phases or none: there is no way
///   to forward half of the contract.
pub trait Policy: Send {
    /// Short display name (`"X10WS"`, `"DistWS"`, ...).
    fn name(&self) -> &'static str;

    /// Algorithm 1 lines 1–8: choose the deque for a task arriving at
    /// its home place.
    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> DequeChoice;

    /// Algorithm 1 lines 9–29 into a caller-owned buffer (cleared
    /// first): the ordered steal attempts an idle worker performs. The
    /// engine executes steps until one yields a task; a fully failed
    /// sequence counts one failed steal round.
    fn steal_sequence_into(
        &mut self,
        thief: distws_core::GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    );

    /// [`Self::steal_sequence_into`] into a fresh `Vec`.
    fn steal_sequence(
        &mut self,
        thief: distws_core::GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> Vec<StealStep> {
        let mut out = Vec::new();
        self.steal_sequence_into(thief, view, rng, &mut out);
        out
    }

    /// One phase of a two-phase steal round (see the trait docs):
    /// `Local` clears `out` and writes the steps to walk first,
    /// `Remote` appends the steps to walk after those all failed,
    /// `Skip` leaves `out` alone and advances `rng` past the draws
    /// `Remote` would have made. The default is the eager round.
    fn steal_phase(
        &mut self,
        phase: StealPhase,
        thief: distws_core::GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        match phase {
            StealPhase::Local => self.steal_sequence_into(thief, view, rng, out),
            StealPhase::Remote | StealPhase::Skip => {}
        }
    }

    /// Whether a task of the given locality may ever migrate across
    /// places under this policy. Engines assert this on every
    /// migration, so the paper's guarantee — sensitive tasks never
    /// leave their place under DistWS — is machine-checked.
    fn may_migrate(&self, locality: Locality) -> bool;

    /// Number of tasks a remote steal takes at once (§V.B.3:
    /// [`protocol::REMOTE_STEAL_CHUNK`]).
    fn remote_chunk(&self) -> usize {
        protocol::REMOTE_STEAL_CHUNK
    }

    /// Chunk size given the victim's observed shared-deque length —
    /// lets policies implement Olivier & Prins' *StealHalf* (§V.B.3's
    /// comparison point: thieves take half the victim's deque).
    /// Default: the fixed [`Policy::remote_chunk`].
    fn remote_chunk_for(&self, _victim_len: usize) -> usize {
        self.remote_chunk()
    }

    /// Whether the policy maintains the dual-deque structure and place
    /// status (and therefore pays the per-spawn mapping overhead the
    /// paper observes as single-node slowdown).
    fn has_mapping_overhead(&self) -> bool {
        true
    }

    /// Lifeline partners of a place (outgoing lifeline edges); empty
    /// for non-lifeline policies.
    fn lifeline_partners(
        &self,
        _place: distws_core::PlaceId,
        _places: u32,
    ) -> Vec<distws_core::PlaceId> {
        Vec::new()
    }

    /// Whether the engine should run lifeline wake/push machinery.
    fn uses_lifelines(&self) -> bool {
        false
    }

    /// Feedback hook: the engine reports whether the thief's last
    /// steal round found work. Policies use it for failure backoff
    /// (after repeated dry rounds, probe fewer remote victims per
    /// round instead of hammering the whole cluster — standard
    /// practice since Dinan et al., SC'09). Default: ignore.
    fn note_result(&mut self, _thief: distws_core::GlobalWorkerId, _found: bool) {}

    /// Clone into a boxed trait object (one policy instance per worker
    /// thread in the threaded runtime).
    fn clone_box(&self) -> Box<dyn Policy>;
}

impl Clone for Box<dyn Policy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
