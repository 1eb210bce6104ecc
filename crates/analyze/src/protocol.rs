//! Explicit-state model checking of Algorithm 1's distributed
//! work-stealing protocol.
//!
//! Where `distws-deque`'s explorer tests check the *primitives*
//! (Chase–Lev deque, shared FIFO) under preemption-bounded thread
//! interleavings, this module checks the *protocol built on them*: the paper's §V Algorithm 1 —
//! task mapping, the five-tier steal order with the line 19 re-probe,
//! chunk sizes, migration of flexible tasks, and finish-latch
//! termination — plus the fault transitions of the fault-injection
//! layer (message drop with lease reclaim, duplicate delivery,
//! fail-stop place kill, restart) and, for [`Era::Cluster`] scenarios,
//! the `distws-cluster` recovery protocol: incarnation-epoch fencing,
//! custody polls (`TaskQuery`/`TaskAnswer`), lease settlement lag
//! (`TaskMoved`), and the disown fence for stale-incarnation copies.
//!
//! Exploration runs on the shared engine ([`crate::reduce`]): memoized
//! DFS with optional ample-set partial-order reduction, keyed either
//! on the raw bit-packed state ([`crate::canon::raw_key`], full mode)
//! or on a canonical symmetry-orbit representative
//! ([`crate::canon::canonical_key`], reduced mode). Transitions are
//! generated from the protocol rules exported by
//! `distws_sched::protocol` — the same constants the real policies
//! consume — while an independent set of checks validates each
//! transition against Algorithm 1. The two code paths are deliberately
//! separate so a seeded protocol mutant (a bug injected into the
//! *generator*) is caught by the *checker*, not masked by it.
//!
//! ## Algorithm 1 line ↔ model transition map
//!
//! | Lines | Algorithm 1 | Model transition |
//! |---|---|---|
//! | 1–3 | sensitive task → private deque at home | `deliver` → [`Ctx::map_deliver`], sensitive arm |
//! | 5–8 | flexible task → private iff idle/under-utilized else shared | `deliver` → [`Ctx::map_deliver`], `map_flexible_private` |
//! | 9 | poll own private deque | [`Phase::Idle`] step |
//! | 11 | probe the network | [`Phase::Probe`] step |
//! | 13 | steal 1 from a co-located worker | [`Phase::CoWorker`] step, `LOCAL_STEAL_CHUNK` |
//! | 15 | take from the local shared deque | [`Phase::LocalShared`] step |
//! | 18–29 | distributed sweep over remote places, chunk 2 | [`Phase::Remote`] step, `REMOTE_STEAL_CHUNK` |
//! | 19 | re-probe the network after a failed remote steal | `probed` flag inside [`Phase::Remote`] |
//! | — | finish-latch quiescence | `Busy` finish step + terminal-state check |
//!
//! ## Cluster-era ↔ model transition map (`distws-cluster`)
//!
//! | Wire protocol | Model transition |
//! |---|---|
//! | place death (SIGKILL) | cluster kill: all workers die, located tasks → [`Loc::Vanished`] |
//! | late `TaskMoved` from the dead incarnation | stale ghost (budgeted by `max_dups`), dropped by the disown fence |
//! | coordinator death sweep | `SweepOpen`: a lease under a dead incarnation epoch → [`Lease::InDoubt`] |
//! | `TaskQuery` / `TaskAnswer` | custody poll: each live place answers yes (settle) or no (accumulate) |
//! | all live places disclaim | `Reinject`: the vanished task re-enters in flight toward home-or-0 |
//! | `TaskMoved` settlement lag | `LeaseConfirm`: a migrated task's lease catches up to its holder |
//! | restart (`Hello` with a new epoch) | cluster restart: `epochs[k] += 1`, dead workers rejoin idle |
//!
//! ## Properties proved (on every explored schedule)
//!
//! 1. **No sensitive migration** — a remote steal never takes a
//!    sensitive task off its home place.
//! 2. **Exactly-once** — no task id executes twice (including across
//!    custody reinjection and stale-incarnation copies).
//! 3. **No lost latch decrement** — every terminal state has the finish
//!    latch at exactly zero.
//! 4. **Termination** — every terminal (transition-free) state is fully
//!    quiescent: all tasks `Done`, nothing in flight, no custody left
//!    in doubt. (Schedules are finite-state; livelocks that require an
//!    adversarial scheduler to recur forever — e.g. perpetual steal
//!    ping-pong — exist in any work-stealing system and are excluded
//!    probabilistically, exactly as in the lifeline termination
//!    argument of Saraswat et al.)

use crate::canon;
use crate::reduce::{explore_system, ExploreStats, Mode, Outcome, StepClass, Succ, System};
use distws_sched::protocol as proto;
use std::collections::BTreeSet;

/// A task in a model scenario.
#[derive(Debug, Clone, Copy)]
pub struct ModelTask {
    /// Home place.
    pub home: u8,
    /// Locality-sensitive (never stealable remotely)?
    pub sensitive: bool,
    /// Spawned by this task's completion (`None` = root, in flight at
    /// time zero).
    pub parent: Option<usize>,
}

/// Optional fault transitions, mirroring the fault-injection layer's
/// semantics: dropped migrate payloads are lease-reclaimed at the
/// victim, duplicate deliveries are deduplicated by task id, a
/// fail-stop kill recovers queued tasks elsewhere, and a restart
/// rejoins the place empty-handed. In [`Era::Cluster`] scenarios the
/// kill is a real SIGKILL (running tasks vanish and recovery goes
/// through the custody poll) and `max_dups` budgets late
/// stale-incarnation `TaskMoved` copies instead of plain duplicates.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelFaults {
    /// Migrate payloads the network may drop (lease reclaim each).
    pub max_drops: u8,
    /// Deliveries the network may duplicate (dedup must discard each).
    pub max_dups: u8,
    /// A fail-stop kill of this place may fire at any point (never
    /// place 0, which hosts recovery).
    pub kill_place: Option<u8>,
    /// The killed place may rejoin once.
    pub restart: bool,
}

/// Which protocol generation a scenario models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Era {
    /// The in-process simulator protocol of PRs 1–4: kills respect
    /// task boundaries and recovery re-homes queued tasks directly.
    Sim,
    /// The `distws-cluster` protocol of PR 7: incarnation epochs,
    /// custody polls, lease settlement lag and disown fences.
    Cluster,
}

/// Stable lowercase era name (stats table, TLA+ header).
pub fn era_name(era: Era) -> &'static str {
    match era {
        Era::Sim => "sim",
        Era::Cluster => "cluster",
    }
}

/// One model configuration to explore.
#[derive(Debug, Clone)]
pub struct ProtocolScenario {
    /// Scenario name (stable; used by `repro check --scenario`).
    pub name: &'static str,
    /// Places in the cluster.
    pub places: u8,
    /// Workers per place.
    pub workers_per_place: u8,
    /// The task set (ids are indices).
    pub tasks: Vec<ModelTask>,
    /// Fault transitions to explore.
    pub faults: ModelFaults,
    /// Protocol generation.
    pub era: Era,
    /// Whether full (unreduced) exploration is feasible in CI budgets.
    /// `false` marks the scale scenarios that exist to demonstrate the
    /// reductions; `repro check protocol --full`/`--compare` skip them
    /// unless capped.
    pub full_ok: bool,
}

/// A protocol bug seeded into the transition *generator*. Every mutant
/// must be caught by the independent transition *checker* — that
/// detection power is what the mutation tests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMutant {
    /// Skip the line 19 network re-probe after a failed remote steal.
    SkipReprobe,
    /// Let remote steals take tasks from private deques — including
    /// sensitive tasks.
    StealSensitiveRemotely,
    /// Steal 2 tasks from a co-located worker (line 13 chunk is 1).
    LocalChunkTwo,
    /// Map flexible tasks to private deques unconditionally (ignore
    /// the lines 5–8 utilization predicate).
    MapFlexiblePrivateAlways,
    /// Skip the finish-latch decrement when a migrated task completes.
    SkipLatchDecrement,
    /// Fail-stop recovery forgets the failed place's queued tasks
    /// instead of re-homing them.
    DropRecoveredTasks,
    /// Duplicate deliveries are re-mapped instead of discarded by the
    /// task-id dedup.
    DupDeliveryRemaps,
    /// Cluster era: a late `TaskMoved` copy from a dead incarnation is
    /// re-mapped instead of being dropped by the disown fence.
    SkipDisownFence,
    /// Cluster era: the death sweep accepts a lease held under a
    /// stale incarnation epoch instead of opening a custody poll.
    AcceptStaleEpochLease,
    /// Livelock: the line 19 re-probe loop never backs off — a worker
    /// whose sweep comes up empty starts a new round instead of
    /// parking dormant, spinning forever.
    ReprobeNoBackoff,
    /// Livelock: the remote-sweep retry budget is ignored — a failed
    /// visit does not clear the victim's `untried` bit, so the sweep
    /// revisits the same empty place forever.
    RetryBudgetIgnored,
    /// Livelock: the lifeline wakeup is lost — a delivery maps the
    /// task but never wakes the dormant workers at the place, so the
    /// task parks silently in a sleeping worker's private deque.
    LostLifelineWakeup,
    /// Livelock: a restarted place re-parks recovered tasks forever —
    /// a delivery of a task at the rejoined incarnation puts it back
    /// in flight instead of mapping it.
    RestartReparkLoop,
}

impl ProtocolMutant {
    /// All seeded mutants, in catch-test order. The last four are
    /// livelock mutants: they violate no safety invariant reachable by
    /// the terminal checks alone and must be caught by the liveness
    /// layer as fair accepting cycles ([`crate::liveness`]).
    pub const ALL: [ProtocolMutant; 13] = [
        ProtocolMutant::SkipReprobe,
        ProtocolMutant::StealSensitiveRemotely,
        ProtocolMutant::LocalChunkTwo,
        ProtocolMutant::MapFlexiblePrivateAlways,
        ProtocolMutant::SkipLatchDecrement,
        ProtocolMutant::DropRecoveredTasks,
        ProtocolMutant::DupDeliveryRemaps,
        ProtocolMutant::SkipDisownFence,
        ProtocolMutant::AcceptStaleEpochLease,
        ProtocolMutant::ReprobeNoBackoff,
        ProtocolMutant::RetryBudgetIgnored,
        ProtocolMutant::LostLifelineWakeup,
        ProtocolMutant::RestartReparkLoop,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMutant::SkipReprobe => "skip-reprobe",
            ProtocolMutant::StealSensitiveRemotely => "steal-sensitive-remotely",
            ProtocolMutant::LocalChunkTwo => "local-chunk-two",
            ProtocolMutant::MapFlexiblePrivateAlways => "map-flexible-private-always",
            ProtocolMutant::SkipLatchDecrement => "skip-latch-decrement",
            ProtocolMutant::DropRecoveredTasks => "drop-recovered-tasks",
            ProtocolMutant::DupDeliveryRemaps => "dup-delivery-remaps",
            ProtocolMutant::SkipDisownFence => "skip-disown-fence",
            ProtocolMutant::AcceptStaleEpochLease => "accept-stale-epoch-lease",
            ProtocolMutant::ReprobeNoBackoff => "reprobe-no-backoff",
            ProtocolMutant::RetryBudgetIgnored => "retry-budget-ignored",
            ProtocolMutant::LostLifelineWakeup => "lost-lifeline-wakeup",
            ProtocolMutant::RestartReparkLoop => "restart-repark-loop",
        }
    }

    /// Is this a seeded *livelock* (progress) bug rather than a safety
    /// bug? Livelock mutants are caught by the nested-DFS liveness
    /// layer as fair accepting cycles, not by the safety checker.
    pub fn is_livelock(self) -> bool {
        matches!(
            self,
            ProtocolMutant::ReprobeNoBackoff
                | ProtocolMutant::RetryBudgetIgnored
                | ProtocolMutant::LostLifelineWakeup
                | ProtocolMutant::RestartReparkLoop
        )
    }

    /// The scenario whose exploration must catch this mutant.
    pub fn catch_scenario(self) -> &'static str {
        match self {
            ProtocolMutant::SkipReprobe => "reprobe_sweep",
            ProtocolMutant::StealSensitiveRemotely => "sensitive_pinning",
            ProtocolMutant::LocalChunkTwo => "coworker_chunk",
            ProtocolMutant::MapFlexiblePrivateAlways => "saturation_mapping",
            ProtocolMutant::SkipLatchDecrement => "saturation_mapping",
            ProtocolMutant::DropRecoveredTasks => "kill_recover",
            ProtocolMutant::DupDeliveryRemaps => "dup_delivery",
            ProtocolMutant::SkipDisownFence => "cluster_reclaim",
            ProtocolMutant::AcceptStaleEpochLease => "cluster_epoch",
            ProtocolMutant::ReprobeNoBackoff => "reprobe_sweep",
            ProtocolMutant::RetryBudgetIgnored => "sensitive_pinning",
            ProtocolMutant::LostLifelineWakeup => "spawn_tree",
            ProtocolMutant::RestartReparkLoop => "kill_restart",
        }
    }

    /// The property expected to catch this mutant: `"safety"` for the
    /// invariant mutants, or the liveness property name (see
    /// [`crate::liveness::Property`]) for the livelock mutants. The
    /// mutant runner reports the *actual* catching properties and the
    /// mutation tests pin this expectation against them.
    pub fn catch_property(self) -> &'static str {
        match self {
            ProtocolMutant::ReprobeNoBackoff | ProtocolMutant::RetryBudgetIgnored => {
                "steal-progress"
            }
            ProtocolMutant::LostLifelineWakeup => "lifeline-wakeup",
            ProtocolMutant::RestartReparkLoop => "eventual-execution",
            _ => "safety",
        }
    }
}

/// Where a task is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Loc {
    /// Parent has not completed yet.
    NotSpawned,
    /// On the network, destined for place `to`.
    InFlight { to: u8 },
    /// In worker `w`'s private deque.
    Private { w: u8 },
    /// In place `p`'s shared deque.
    Shared { p: u8 },
    /// Executing on worker `w`.
    Running { w: u8 },
    /// Completed.
    Done,
    /// Forgotten by buggy fail-stop recovery (mutants only).
    Lost,
    /// Cluster era: was located at an incarnation that died; only the
    /// custody poll may bring it back.
    Vanished,
}

/// Cluster-era custody of a task, as the coordinator sees it. The
/// coordinator's view deliberately *lags* the ground truth
/// ([`Loc`]) — settlement is a separate `LeaseConfirm` transition,
/// which is exactly the window the PR 7 races live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Lease {
    /// No custody claim (sim era, in flight, or done).
    None,
    /// Place `p` holds the task under incarnation epoch `e`.
    Held { p: u8, e: u8 },
    /// A death sweep opened a custody poll; `answered` is the bitmask
    /// of places that have disclaimed custody so far.
    InDoubt { answered: u8 },
}

/// A worker's position inside the Algorithm 1 steal automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Phase {
    /// About to run line 9 (poll own private deque).
    Idle,
    /// Line 11: probe the network.
    Probe,
    /// Line 13: steal from a co-located worker.
    CoWorker,
    /// Line 15: take from the local shared deque.
    LocalShared,
    /// Lines 18–29: the distributed sweep. `untried` is the bitmask of
    /// places not yet visited this round; `probed` records whether the
    /// network has been probed since the last failed remote attempt
    /// (line 19 bookkeeping — the checker flags an attempt with
    /// `probed == false`).
    Remote { untried: u8, probed: bool },
    /// Executing `task`.
    Busy { task: u8 },
    /// Parked (woken by newly mapped local work).
    Dormant,
    /// Halted by a place failure.
    Dead,
}

/// A fixed-capacity inline vector: derefs to a slice of its live
/// prefix, compares/hashes by that prefix, and clones by `memcpy`.
/// The model state is cloned once per generated transition — tens of
/// millions of times per scale-tier run — and inline storage removes
/// the seven heap round-trips a `Vec`-backed state paid per clone.
#[derive(Clone, Copy)]
pub(crate) struct FixedVec<T: Copy, const N: usize> {
    buf: [T; N],
    len: u8,
}

impl<T: Copy, const N: usize> FixedVec<T, N> {
    pub(crate) fn filled(v: T, len: usize) -> FixedVec<T, N> {
        assert!(len <= N, "FixedVec capacity exceeded");
        FixedVec {
            buf: [v; N],
            len: len as u8,
        }
    }
}

impl<T: Copy, const N: usize> From<Vec<T>> for FixedVec<T, N> {
    fn from(v: Vec<T>) -> FixedVec<T, N> {
        assert!(!v.is_empty() && v.len() <= N, "FixedVec capacity");
        let mut buf = [v[0]; N];
        buf[..v.len()].copy_from_slice(&v);
        FixedVec {
            buf,
            len: v.len() as u8,
        }
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for FixedVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

impl<T: Copy, const N: usize> std::ops::DerefMut for FixedVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len as usize]
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a FixedVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for FixedVec<T, N> {
    fn eq(&self, other: &FixedVec<T, N>) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Eq, const N: usize> Eq for FixedVec<T, N> {}

impl<T: Copy + std::hash::Hash, const N: usize> std::hash::Hash for FixedVec<T, N> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for FixedVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self[..].fmt(f)
    }
}

/// One global model state. Task-indexed arrays are bounded by the
/// canonicalizer's 16-task scratch limit; place/worker arrays by the
/// packed key's 8-place / 16-worker encoding widths.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct State {
    pub(crate) tasks: FixedVec<Loc, 16>,
    /// Executions per task (exactly-once ⇒ never exceeds 1).
    pub(crate) exec: FixedVec<u8, 16>,
    /// Cluster era: the coordinator's custody view per task.
    pub(crate) lease: FixedVec<Lease, 16>,
    /// Tasks that ever migrated off their home place (bitmask).
    pub(crate) migrated: u16,
    /// Tasks with a duplicate delivery still in flight (bitmask).
    pub(crate) dup_ghost: u16,
    /// Ghosts that are stale-incarnation `TaskMoved` copies (bitmask;
    /// subset of `dup_ghost`): the disown fence must drop them.
    pub(crate) stale_ghost: u16,
    /// Ghost destination per task (255 = none).
    pub(crate) dup_dest: FixedVec<u8, 16>,
    pub(crate) latch: i16,
    pub(crate) phases: FixedVec<Phase, 16>,
    pub(crate) alive: FixedVec<bool, 8>,
    /// Cluster era: per-place incarnation epoch (bumped on restart).
    pub(crate) epochs: FixedVec<u8, 8>,
    pub(crate) drops_left: u8,
    pub(crate) dups_left: u8,
    pub(crate) killed: bool,
    pub(crate) restarted: bool,
}

/// The process a transition belongs to, for the weak-fairness
/// acceptance conditions of the liveness layer ([`crate::liveness`]).
/// Weak fairness is imposed per agent: a continuously enabled agent
/// must eventually step. Fault injections are adversarial — the
/// environment is never *obliged* to kill or restart a place — so
/// [`Agent::Env`] transitions carry no fairness obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Agent {
    /// Message delivery, duplicate arrival, and the cluster
    /// coordinator (sweep / custody poll / reinject).
    Net,
    /// Worker `w` (global index) walking the Algorithm 1 automaton.
    Worker(u8),
    /// Adversarial fault scheduler: kill, restart, stale-copy races.
    Env,
}

/// Compact label for one generated transition — the readable vocabulary
/// lasso counterexamples are printed in. Tags are data, not strings:
/// the successor hot path must not allocate per transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepTag {
    /// Network delivers task `t` at place `to` (Algorithm 1 lines 1–8).
    Deliver { t: u8, to: u8 },
    /// Network duplicates the delivery of `t` (ghost seeded).
    DupDeliver { t: u8, to: u8 },
    /// Arrival at a dead place re-routes `t` toward place 0.
    Reroute { t: u8 },
    /// A duplicate / stale `TaskMoved` copy of `t` surfaces.
    GhostArrive { t: u8 },
    /// Fail-stop kill of place `p`.
    Kill { p: u8 },
    /// Kill of place `p` racing a late `TaskMoved` copy of task `t`.
    KillStaleCopy { p: u8, t: u8 },
    /// Place `p` rejoins (new incarnation in the cluster era).
    Restart { p: u8 },
    /// Death sweep puts task `t`'s lease in doubt (custody poll opens).
    LeaseDoubt { t: u8 },
    /// A `TaskMoved` note settles `t`'s lease at its holder.
    LeaseConfirm { t: u8 },
    /// The named custodian disclaims `t`; the custody poll opens.
    Disclaim { t: u8 },
    /// Place `q` answers the custody poll for task `t`.
    PollAnswer { t: u8, q: u8 },
    /// Every live place disclaimed: `t` reinjected toward home-or-0.
    Reinject { t: u8 },
    /// Worker `w` polls its private deque empty (line 9 miss).
    PollEmpty { w: u8 },
    /// Worker `w` pops task `t` from its private deque (line 9 hit).
    PollRun { w: u8, t: u8 },
    /// Worker `w` probes the network (line 11).
    ProbeAdvance { w: u8 },
    /// Worker `w` steals task `t` from co-located worker `v` (line 13).
    CoSteal { w: u8, v: u8, t: u8 },
    /// Worker `w` finds no co-located victim (line 13 miss).
    CoStealFail { w: u8 },
    /// Worker `w` takes task `t` from the local shared deque (line 15).
    TakeShared { w: u8, t: u8 },
    /// Worker `w` finds the local shared deque empty (line 15 miss).
    SharedEmpty { w: u8 },
    /// Worker `w` parks dormant: sweep exhausted, no visible work.
    Park { w: u8 },
    /// Worker `w` restarts its steal round: sweep exhausted but local
    /// work became visible mid-round.
    NewRound { w: u8 },
    /// Worker `w`'s remote steal at place `q` fails (lines 22–27 miss).
    VisitFail { w: u8, q: u8 },
    /// Worker `w` steals task `t` (chunk head) from place `q`.
    RemoteSteal { w: u8, q: u8, t: u8 },
    /// Worker `w`'s steal from place `q` loses its migrate payload.
    StealDropped { w: u8, q: u8 },
    /// Worker `w` completes task `t` (finish-latch decrement, spawns).
    Complete { w: u8, t: u8 },
    /// Stutter self-loop added at states with no fair transition
    /// (terminal or environment-only): the standard stutter extension
    /// of maximal finite runs, so a quiescent deadlock with work left
    /// behind shows up as a fair accepting cycle, not a silent dead
    /// end.
    Stutter,
}

impl StepTag {
    /// The agent obliged (or not, for [`Agent::Env`]) by weak fairness
    /// to take this transition.
    pub(crate) fn agent(self) -> Agent {
        use StepTag::*;
        match self {
            Deliver { .. } | DupDeliver { .. } | Reroute { .. } | GhostArrive { .. } => Agent::Net,
            LeaseDoubt { .. } | LeaseConfirm { .. } | Disclaim { .. } => Agent::Net,
            PollAnswer { .. } | Reinject { .. } => Agent::Net,
            Kill { .. } | KillStaleCopy { .. } | Restart { .. } | Stutter => Agent::Env,
            PollEmpty { w } | PollRun { w, .. } | ProbeAdvance { w } => Agent::Worker(w),
            CoSteal { w, .. } | CoStealFail { w } => Agent::Worker(w),
            TakeShared { w, .. } | SharedEmpty { w } => Agent::Worker(w),
            Park { w } | NewRound { w } => Agent::Worker(w),
            VisitFail { w, .. } | RemoteSteal { w, .. } | StealDropped { w, .. } => {
                Agent::Worker(w)
            }
            Complete { w, .. } => Agent::Worker(w),
        }
    }

    /// Is this a futile steal-retry step? The `steal-progress` property
    /// rejects fair cycles that take retry steps forever without any
    /// intervening acquisition or completion.
    pub(crate) fn is_retry(self) -> bool {
        matches!(
            self,
            StepTag::PollEmpty { .. }
                | StepTag::ProbeAdvance { .. }
                | StepTag::CoStealFail { .. }
                | StepTag::SharedEmpty { .. }
                | StepTag::NewRound { .. }
                | StepTag::VisitFail { .. }
        )
    }

    /// Readable rendering for lasso counterexamples.
    pub(crate) fn render(self) -> String {
        use StepTag::*;
        match self {
            Deliver { t, to } => format!("deliver task {t} at place {to}"),
            DupDeliver { t, to } => {
                format!("network duplicates delivery of task {t} to place {to}")
            }
            Reroute { t } => format!("re-route task {t} (dead destination) toward place 0"),
            GhostArrive { t } => format!("late duplicate copy of task {t} arrives"),
            Kill { p } => format!("kill place {p}"),
            KillStaleCopy { p, t } => {
                format!("kill place {p} with a stale TaskMoved copy of task {t} in flight")
            }
            Restart { p } => format!("restart place {p}"),
            LeaseDoubt { t } => format!("coordinator: stale lease on task {t} put in doubt"),
            LeaseConfirm { t } => format!("coordinator: lease on task {t} settles at its holder"),
            Disclaim { t } => format!("coordinator: custodian disclaims task {t}"),
            PollAnswer { t, q } => format!("place {q} answers the custody poll for task {t}"),
            Reinject { t } => format!("coordinator: reinject task {t}"),
            PollEmpty { w } => format!("worker {w}: private deque empty (line 9)"),
            PollRun { w, t } => format!("worker {w}: run task {t} from its private deque"),
            ProbeAdvance { w } => format!("worker {w}: probe the network (line 11)"),
            CoSteal { w, v, t } => format!("worker {w}: steal task {t} from co-worker {v}"),
            CoStealFail { w } => format!("worker {w}: no co-located victim (line 13)"),
            TakeShared { w, t } => format!("worker {w}: take task {t} from the shared deque"),
            SharedEmpty { w } => format!("worker {w}: local shared deque empty (line 15)"),
            Park { w } => format!("worker {w}: park dormant"),
            NewRound { w } => format!("worker {w}: sweep exhausted, new steal round"),
            VisitFail { w, q } => format!("worker {w}: failed remote steal at place {q}"),
            RemoteSteal { w, q, t } => format!("worker {w}: remote-steal task {t} from place {q}"),
            StealDropped { w, q } => format!("worker {w}: migrate payload from place {q} dropped"),
            Complete { w, t } => format!("worker {w}: complete task {t}"),
            Stutter => "(stutter — no fair transition enabled)".to_string(),
        }
    }
}

/// A labeled successor: the state plus the reduction class and the
/// transition tag the liveness layer needs. The safety path strips the
/// tag back off via [`Ctx::successors`].
pub(crate) struct LSucc {
    pub(crate) state: State,
    pub(crate) class: StepClass,
    pub(crate) tag: StepTag,
}

/// Scenario + mutant context shared by the transition generator.
pub(crate) struct Ctx<'a> {
    pub(crate) sc: &'a ProtocolScenario,
    pub(crate) mutant: Option<ProtocolMutant>,
}

/// Fixed-capacity task-index list for the successor hot path. The
/// generator builds several of these per worker per state; collecting
/// them into heap `Vec`s was a measurable slice of exploration wall
/// time at the scale tier. Capacity matches the canonicalizer's
/// 16-task scratch bound.
#[derive(Clone, Copy)]
struct TaskBuf {
    buf: [u8; 16],
    len: usize,
}

impl TaskBuf {
    fn new() -> TaskBuf {
        TaskBuf {
            buf: [0; 16],
            len: 0,
        }
    }
    fn push(&mut self, t: usize) {
        self.buf[self.len] = t as u8;
        self.len += 1;
    }
    fn is_empty(&self) -> bool {
        self.len == 0
    }
    fn len(&self) -> usize {
        self.len
    }
    fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
    }
    fn get(&self, i: usize) -> usize {
        self.buf[i] as usize
    }
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.buf[..self.len].iter().map(|&t| t as usize)
    }
}

impl<'a> Ctx<'a> {
    fn wpp(&self) -> usize {
        self.sc.workers_per_place as usize
    }

    pub(crate) fn workers(&self) -> usize {
        self.sc.places as usize * self.wpp()
    }

    pub(crate) fn place_of(&self, w: usize) -> u8 {
        (w / self.wpp()) as u8
    }

    fn is(&self, m: ProtocolMutant) -> bool {
        self.mutant == Some(m)
    }

    fn cluster(&self) -> bool {
        self.sc.era == Era::Cluster
    }

    fn busy_at(&self, s: &State, p: u8) -> u32 {
        (0..self.workers())
            .filter(|&w| self.place_of(w) == p && matches!(s.phases[w], Phase::Busy { .. }))
            .count() as u32
    }

    /// The place currently holding `t`, if it is queued or running.
    fn cur_place(&self, s: &State, t: usize) -> Option<u8> {
        match s.tasks[t] {
            Loc::Private { w } | Loc::Running { w } => Some(self.place_of(w as usize)),
            Loc::Shared { p } => Some(p),
            _ => None,
        }
    }

    /// Is a lease held by place `p` under epoch `e` fenced off by
    /// incarnation death? Uses the shared wire predicate
    /// (`distws_sched::protocol::lease_is_stale`) — the same rule
    /// `distws-cluster`'s coordinator sweep applies.
    fn lease_stale(&self, s: &State, p: u8, e: u8) -> bool {
        let cur = s.epochs[p as usize] as u32;
        if s.alive[p as usize] {
            cur > 0 && proto::lease_is_stale(e as u32, cur - 1)
        } else {
            proto::lease_is_stale(e as u32, cur)
        }
    }

    /// Work a parking worker would see: its own private deque or the
    /// local shared deque (the engine's acquire is atomic in virtual
    /// time, so a worker never parks past visible local work).
    fn work_visible(&self, s: &State, w: usize) -> bool {
        let p = self.place_of(w);
        s.tasks.iter().any(|l| {
            matches!(l, Loc::Private { w: pw } if *pw as usize == w)
                || matches!(l, Loc::Shared { p: sp } if *sp == p)
        })
    }

    /// Liveness atomic proposition (`eventual-execution`): a task that
    /// has not reached [`Loc::Done`]. [`Loc::Lost`] is excluded — a
    /// lost task is a *safety* violation (flagged at terminals), not a
    /// progress obligation the scheduler could still discharge.
    pub(crate) fn unfinished_task(&self, s: &State) -> Option<usize> {
        s.tasks
            .iter()
            .position(|l| !matches!(l, Loc::Done | Loc::Lost))
    }

    /// Liveness atomic proposition (`lifeline-wakeup`): a dormant
    /// worker with a pending lifeline push — work already mapped at
    /// its place (its own private deque or the place's shared pool)
    /// or a delivery still in flight toward its place.
    pub(crate) fn lost_wakeup(&self, s: &State) -> Option<usize> {
        (0..self.workers()).find(|&w| {
            s.phases[w] == Phase::Dormant && {
                let p = self.place_of(w);
                s.tasks.iter().any(|l| match *l {
                    Loc::Private { w: pw } => pw as usize == w,
                    Loc::Shared { p: sp } => sp == p,
                    Loc::InFlight { to } => to == p,
                    _ => false,
                })
            }
        })
    }

    /// Algorithm 1 lines 1–8: map a delivered task at place `x`. The
    /// checker recomputes the lines 5–8 predicate independently and
    /// flags any divergence (catches `MapFlexiblePrivateAlways`). In
    /// the cluster era the mapping also records the custody lease
    /// under the place's current incarnation epoch.
    fn map_deliver(&self, s: &mut State, t: usize, x: u8, bad: &mut BTreeSet<String>) {
        let sensitive = self.sc.tasks[t].sensitive;
        let to_private = if sensitive {
            true // line 3
        } else {
            let busy = self.busy_at(s, x);
            let active = busy > 0;
            let under = busy < self.sc.workers_per_place as u32;
            let faithful = proto::map_flexible_private(active, under);
            let chosen = if self.is(ProtocolMutant::MapFlexiblePrivateAlways) {
                true
            } else {
                faithful
            };
            if chosen != faithful {
                bad.insert(format!(
                    "task {t}: flexible task mapped to a {} deque at place {x} against \
                     Algorithm 1 lines 5-8 (place {})",
                    if chosen { "private" } else { "shared" },
                    if faithful {
                        "is idle/under-utilized"
                    } else {
                        "is saturated"
                    },
                ));
            }
            chosen
        };
        if to_private {
            // The engine prefers a parked/idle worker; first non-busy
            // worker at x, else worker 0 of x.
            let base = x as usize * self.wpp();
            let target = (base..base + self.wpp())
                .find(|&w| !matches!(s.phases[w], Phase::Busy { .. } | Phase::Dead))
                .unwrap_or(base);
            s.tasks[t] = Loc::Private { w: target as u8 };
            // The lifeline push: mapping work at a place wakes its
            // dormant workers. The lost-wakeup livelock mutant drops
            // exactly this signal, parking the task in a sleeping
            // worker's deque forever.
            if s.phases[target] == Phase::Dormant && !self.is(ProtocolMutant::LostLifelineWakeup) {
                s.phases[target] = Phase::Idle;
            }
        } else {
            s.tasks[t] = Loc::Shared { p: x };
            let base = x as usize * self.wpp();
            if !self.is(ProtocolMutant::LostLifelineWakeup) {
                for w in base..base + self.wpp() {
                    if s.phases[w] == Phase::Dormant {
                        s.phases[w] = Phase::Idle;
                    }
                }
            }
        }
        if self.cluster() {
            s.lease[t] = Lease::Held {
                p: x,
                e: s.epochs[x as usize],
            };
        }
    }

    /// A worker begins executing `t`.
    fn start(&self, s: &mut State, w: usize, t: usize) {
        s.tasks[t] = Loc::Running { w: w as u8 };
        s.phases[w] = Phase::Busy { task: t as u8 };
    }

    /// All successor states of `s`, labeled with the transition tag and
    /// fairness agent, recording property violations into `bad` as
    /// transitions are generated. The safety path consumes this through
    /// [`Ctx::successors`]; the liveness layer needs the labels for its
    /// acceptance conditions and lasso counterexamples.
    pub(crate) fn successors_labeled(&self, s: &State, bad: &mut BTreeSet<String>) -> Vec<LSucc> {
        let mut out: Vec<LSucc> = Vec::new();
        let push = |out: &mut Vec<LSucc>, n: State, class: StepClass, tag: StepTag| {
            out.push(LSucc {
                state: n,
                class,
                tag,
            });
        };

        // --- Network delivery (the engine's Arrive event) -----------
        for t in 0..s.tasks.len() {
            let Loc::InFlight { to } = s.tasks[t] else {
                continue;
            };
            if !s.alive[to as usize] {
                // Arrival at a dead place: recovery re-routes to place 0.
                let mut n = s.clone();
                n.tasks[t] = Loc::InFlight { to: 0 };
                push(
                    &mut out,
                    n,
                    StepClass::Other,
                    StepTag::Reroute { t: t as u8 },
                );
                continue;
            }
            if self.is(ProtocolMutant::RestartReparkLoop)
                && s.restarted
                && Some(to) == self.sc.faults.kill_place
            {
                // Livelock mutant: the rejoined incarnation re-parks
                // every recovered task instead of mapping it — the
                // delivery puts the task straight back in flight, a
                // self-loop the liveness layer must flag as a fair
                // non-progress cycle.
                push(
                    &mut out,
                    s.clone(),
                    StepClass::Other,
                    StepTag::Deliver { t: t as u8, to },
                );
                continue;
            }
            let mut n = s.clone();
            self.map_deliver(&mut n, t, to, bad);
            push(
                &mut out,
                n,
                StepClass::Other,
                StepTag::Deliver { t: t as u8, to },
            );
            if !self.cluster() && s.dups_left > 0 && s.dup_ghost & (1 << t) == 0 {
                // The network also duplicated this delivery.
                let mut n = s.clone();
                self.map_deliver(&mut n, t, to, bad);
                n.dup_ghost |= 1 << t;
                n.dup_dest[t] = to;
                n.dups_left -= 1;
                push(
                    &mut out,
                    n,
                    StepClass::Other,
                    StepTag::DupDeliver { t: t as u8, to },
                );
            }
        }

        // --- Duplicate / stale-copy arrival -------------------------
        for t in 0..s.tasks.len() {
            if s.dup_ghost & (1 << t) == 0 {
                continue;
            }
            let mut n = s.clone();
            n.dup_ghost &= !(1 << t);
            let stale = s.stale_ghost & (1 << t) != 0;
            n.stale_ghost &= !(1 << t);
            let dest = n.dup_dest[t];
            n.dup_dest[t] = 255;
            if stale {
                // A `TaskMoved` copy leased under a dead incarnation
                // epoch arrives late. Faithful receivers drop it at
                // the disown fence; the mutant re-maps it.
                if self.is(ProtocolMutant::SkipDisownFence) && n.alive[dest as usize] {
                    bad.insert(format!(
                        "task {t}: stale-incarnation copy at place {dest} re-mapped; the \
                         disown fence must drop copies leased under a dead epoch"
                    ));
                    self.map_deliver(&mut n, t, dest, bad);
                }
            } else if self.is(ProtocolMutant::DupDeliveryRemaps) && n.alive[dest as usize] {
                // Buggy dedup: the second copy is mapped again.
                self.map_deliver(&mut n, t, dest, bad);
            }
            // Faithful: the place's task table already saw this id —
            // the duplicate is discarded.
            push(
                &mut out,
                n,
                StepClass::Other,
                StepTag::GhostArrive { t: t as u8 },
            );
        }

        // --- Fail-stop kill and restart -----------------------------
        if let Some(k) = self.sc.faults.kill_place {
            if !s.killed {
                match self.sc.era {
                    Era::Sim => {
                        let mut n = s.clone();
                        n.killed = true;
                        n.alive[k as usize] = false;
                        for w in 0..self.workers() {
                            if self.place_of(w) == k && !matches!(n.phases[w], Phase::Busy { .. }) {
                                n.phases[w] = Phase::Dead;
                            }
                        }
                        // Recover the failed place's queued tasks (running
                        // tasks finish at the next task boundary).
                        for t in 0..n.tasks.len() {
                            let queued_here = match n.tasks[t] {
                                Loc::Shared { p } => p == k,
                                Loc::Private { w } => self.place_of(w as usize) == k,
                                _ => false,
                            };
                            if queued_here {
                                if self.is(ProtocolMutant::DropRecoveredTasks) {
                                    n.tasks[t] = Loc::Lost;
                                } else {
                                    let home = self.sc.tasks[t].home;
                                    let dest = if home != k { home } else { 0 };
                                    n.tasks[t] = Loc::InFlight { to: dest };
                                }
                            }
                        }
                        push(&mut out, n, StepClass::Other, StepTag::Kill { p: k });
                    }
                    Era::Cluster => {
                        // A real SIGKILL: every worker dies mid-step and
                        // every task located at the incarnation vanishes.
                        // Recovery is the coordinator's job (sweep →
                        // custody poll → reinject), not the kill's.
                        let mut base = s.clone();
                        base.killed = true;
                        base.alive[k as usize] = false;
                        for w in 0..self.workers() {
                            if self.place_of(w) == k {
                                base.phases[w] = Phase::Dead;
                            }
                        }
                        let mut vanished: Vec<usize> = Vec::new();
                        for t in 0..base.tasks.len() {
                            let here = match base.tasks[t] {
                                Loc::Shared { p } => p == k,
                                Loc::Private { w } | Loc::Running { w } => {
                                    self.place_of(w as usize) == k
                                }
                                _ => false,
                            };
                            if here {
                                base.tasks[t] = Loc::Vanished;
                                vanished.push(t);
                            }
                        }
                        if s.dups_left > 0 {
                            // The dying incarnation may have a TaskMoved
                            // copy of a vanished task still in flight —
                            // the disown-fence race. It will surface at
                            // the lowest live place.
                            let dest = (0..self.sc.places).find(|&q| q != k && s.alive[q as usize]);
                            if let Some(dest) = dest {
                                for &t in &vanished {
                                    let mut n = base.clone();
                                    n.dup_ghost |= 1 << t;
                                    n.stale_ghost |= 1 << t;
                                    n.dup_dest[t] = dest;
                                    n.dups_left -= 1;
                                    push(
                                        &mut out,
                                        n,
                                        StepClass::Other,
                                        StepTag::KillStaleCopy { p: k, t: t as u8 },
                                    );
                                }
                            }
                        }
                        push(&mut out, base, StepClass::Other, StepTag::Kill { p: k });
                    }
                }
            } else if self.sc.faults.restart && !s.restarted {
                let mut n = s.clone();
                n.restarted = true;
                n.alive[k as usize] = true;
                if self.cluster() {
                    // The rejoining place is a *new incarnation*: the
                    // epoch bump is what fences stale leases and stale
                    // TaskMoved copies.
                    n.epochs[k as usize] = n.epochs[k as usize].saturating_add(1);
                }
                for w in 0..self.workers() {
                    if self.place_of(w) == k && n.phases[w] == Phase::Dead {
                        n.phases[w] = Phase::Idle;
                    }
                }
                push(&mut out, n, StepClass::Other, StepTag::Restart { p: k });
            }
        }

        // --- Cluster coordinator: sweep, custody poll, settlement ---
        if self.cluster() {
            let alive_mask: u8 = (0..self.sc.places)
                .filter(|&q| s.alive[q as usize])
                .fold(0, |m, q| m | (1 << q));
            for t in 0..s.tasks.len() {
                match s.lease[t] {
                    Lease::None => {}
                    Lease::Held { p, e } => {
                        if self.lease_stale(s, p, e) {
                            // Death sweep: custody claimed by a dead
                            // incarnation is in doubt. The checker
                            // recomputes the fencing predicate; the
                            // stale-epoch mutant accepts the lease.
                            let mut n = s.clone();
                            if self.is(ProtocolMutant::AcceptStaleEpochLease) {
                                bad.insert(format!(
                                    "task {t}: stale-epoch lease (place {p} epoch {e}) accepted \
                                     as live custody; incarnation fencing requires a custody poll"
                                ));
                                n.lease[t] = Lease::Held {
                                    p,
                                    e: n.epochs[p as usize],
                                };
                            } else {
                                n.lease[t] = Lease::InDoubt { answered: 0 };
                            }
                            if n != *s {
                                push(
                                    &mut out,
                                    n,
                                    StepClass::Other,
                                    StepTag::LeaseDoubt { t: t as u8 },
                                );
                            }
                        } else if let Some(q) = self.cur_place(s, t) {
                            if q != p {
                                // LeaseConfirm: the TaskMoved note from a
                                // migration catches up with the
                                // coordinator.
                                let mut n = s.clone();
                                n.lease[t] = Lease::Held {
                                    p: q,
                                    e: n.epochs[q as usize],
                                };
                                push(
                                    &mut out,
                                    n,
                                    StepClass::Other,
                                    StepTag::LeaseConfirm { t: t as u8 },
                                );
                            }
                        } else if s.tasks[t] == Loc::Vanished {
                            // The lease names a live incarnation that does
                            // not actually hold the task: it migrated away
                            // and vanished with the dead place before the
                            // TaskMoved note settled. The named custodian
                            // disclaims, which opens the custody poll.
                            let mut n = s.clone();
                            n.lease[t] = Lease::InDoubt {
                                answered: if s.alive[p as usize] { 1 << p } else { 0 },
                            };
                            push(
                                &mut out,
                                n,
                                StepClass::Other,
                                StepTag::Disclaim { t: t as u8 },
                            );
                        }
                    }
                    Lease::InDoubt { answered } => {
                        for q in 0..self.sc.places {
                            if !s.alive[q as usize] || answered & (1 << q) != 0 {
                                continue;
                            }
                            let mut n = s.clone();
                            if self.cur_place(s, t) == Some(q) {
                                // TaskAnswer: yes — q holds the task, the
                                // lease settles there.
                                n.lease[t] = Lease::Held {
                                    p: q,
                                    e: n.epochs[q as usize],
                                };
                            } else {
                                // TaskAnswer: no.
                                n.lease[t] = Lease::InDoubt {
                                    answered: answered | (1 << q),
                                };
                            }
                            push(
                                &mut out,
                                n,
                                StepClass::Other,
                                StepTag::PollAnswer { t: t as u8, q },
                            );
                        }
                        if answered & alive_mask == alive_mask && s.tasks[t] == Loc::Vanished {
                            // Every live place disclaimed custody: the
                            // task is provably gone — reinject toward
                            // home, or place 0 if home is down.
                            let mut n = s.clone();
                            let home = self.sc.tasks[t].home;
                            let dest = if n.alive[home as usize] { home } else { 0 };
                            n.tasks[t] = Loc::InFlight { to: dest };
                            n.lease[t] = Lease::None;
                            push(
                                &mut out,
                                n,
                                StepClass::Other,
                                StepTag::Reinject { t: t as u8 },
                            );
                        }
                    }
                }
            }
        }

        // --- Worker steps -------------------------------------------
        for w in 0..self.workers() {
            let p = self.place_of(w);
            match s.phases[w] {
                Phase::Dead | Phase::Dormant => {}
                Phase::Idle => {
                    // Line 9: poll own private deque.
                    let mut mine = TaskBuf::new();
                    for t in 0..s.tasks.len() {
                        if matches!(s.tasks[t], Loc::Private { w: pw } if pw as usize == w) {
                            mine.push(t);
                        }
                    }
                    if mine.is_empty() {
                        let mut n = s.clone();
                        // Statement merging: the line 11 probe is an
                        // unconditional, invisible, process-local step
                        // (the PhaseAdvance ample argument), so the
                        // faithful model folds it into the failed
                        // line 9 poll instead of storing the transient
                        // Probe state. Mutant runs keep the unfused
                        // automaton.
                        n.phases[w] = if self.mutant.is_none() {
                            Phase::CoWorker
                        } else {
                            Phase::Probe
                        };
                        // Once no delivery can ever land at this place
                        // again, the empty poll reads a deque that is
                        // empty on every deferred execution (its only
                        // external writer is `map_deliver`; co-worker
                        // steals can only remove) — a pure τ-step.
                        let class = if self.mutant.is_none() && self.place_delivery_dead(s, p) {
                            StepClass::FreeVisit
                        } else {
                            StepClass::Other
                        };
                        push(&mut out, n, class, StepTag::PollEmpty { w: w as u8 });
                    } else {
                        for t in mine.iter() {
                            let mut n = s.clone();
                            self.start(&mut n, w, t);
                            push(
                                &mut out,
                                n,
                                StepClass::Other,
                                StepTag::PollRun {
                                    w: w as u8,
                                    t: t as u8,
                                },
                            );
                        }
                    }
                }
                Phase::Probe => {
                    // Line 11: the probe itself is a pure step here —
                    // arrivals are the asynchronous deliver transition.
                    // This is the ample-eligible phase advance: it
                    // touches only this worker's control state, and the
                    // mapping/steal rules read phases solely through
                    // the busy/dead classification, which Probe →
                    // CoWorker does not change.
                    let mut n = s.clone();
                    n.phases[w] = Phase::CoWorker;
                    push(
                        &mut out,
                        n,
                        StepClass::PhaseAdvance,
                        StepTag::ProbeAdvance { w: w as u8 },
                    );
                }
                Phase::CoWorker => {
                    // Line 13: steal from a co-located worker.
                    let base = p as usize * self.wpp();
                    let mut any = false;
                    for v in base..base + self.wpp() {
                        if v == w {
                            continue;
                        }
                        let mut theirs = TaskBuf::new();
                        for t in 0..s.tasks.len() {
                            if matches!(s.tasks[t], Loc::Private { w: pw } if pw as usize == v) {
                                theirs.push(t);
                            }
                        }
                        if theirs.is_empty() {
                            continue;
                        }
                        any = true;
                        let chunk = if self.is(ProtocolMutant::LocalChunkTwo) {
                            2
                        } else {
                            proto::LOCAL_STEAL_CHUNK
                        };
                        let mut take = theirs;
                        take.truncate(chunk);
                        if take.len() > proto::LOCAL_STEAL_CHUNK {
                            bad.insert(format!(
                                "worker {w}: co-located steal took {} tasks; Algorithm 1 \
                                 line 13 chunk is {}",
                                take.len(),
                                proto::LOCAL_STEAL_CHUNK,
                            ));
                        }
                        let mut n = s.clone();
                        self.start(&mut n, w, take.get(0));
                        for extra in take.iter().skip(1) {
                            n.tasks[extra] = Loc::Private { w: w as u8 };
                        }
                        push(
                            &mut out,
                            n,
                            StepClass::Other,
                            StepTag::CoSteal {
                                w: w as u8,
                                v: v as u8,
                                t: take.get(0) as u8,
                            },
                        );
                    }
                    if !any {
                        let mut n = s.clone();
                        // Statement merging again: at a statically
                        // workless place the line 15 shared poll is a
                        // fact, so the faithful model advances straight
                        // into the remote sweep instead of storing the
                        // transient LocalShared state.
                        n.phases[w] = if self.mutant.is_none()
                            && self.sc.places > 1
                            && self.place_statically_empty(p)
                        {
                            Phase::Remote {
                                untried: self.sweep_mask(p),
                                probed: true,
                            }
                        } else {
                            Phase::LocalShared
                        };
                        // With no co-located worker to rob, the advance
                        // reads nothing at all — a pure phase step.
                        let class = if self.wpp() == 1 {
                            StepClass::PhaseAdvance
                        } else if self.mutant.is_none()
                            && self.place_delivery_dead(s, p)
                            && self.all_places_workless(s)
                        {
                            // The failed co-worker probe read deques
                            // that can never gain a task again: no
                            // delivery can land here and no steal can
                            // succeed anywhere (private deques' only
                            // other source). Deterministic-fail → τ.
                            StepClass::FreeVisit
                        } else {
                            StepClass::Other
                        };
                        push(&mut out, n, class, StepTag::CoStealFail { w: w as u8 });
                    }
                }
                Phase::LocalShared => {
                    // Line 15: take from the local shared deque.
                    let mut pooled = TaskBuf::new();
                    for t in 0..s.tasks.len() {
                        if matches!(s.tasks[t], Loc::Shared { p: sp } if sp == p) {
                            pooled.push(t);
                        }
                    }
                    if pooled.is_empty() {
                        let mut n = s.clone();
                        let mut class = StepClass::Other;
                        n.phases[w] = if self.sc.places > 1 {
                            // At a statically workless place the empty
                            // poll is a fact, not a race outcome, and
                            // the advance to the remote sweep is a
                            // deterministic τ-step (same argument as
                            // the FreeVisit remote case).
                            if self.mutant.is_none()
                                && (self.place_statically_empty(p) || self.place_workless(s, p))
                            {
                                class = StepClass::FreeVisit;
                            }
                            // The line 11 probe already ran this round.
                            Phase::Remote {
                                untried: self.sweep_mask(p),
                                probed: true,
                            }
                        } else if self.work_visible(s, w)
                            || self.is(ProtocolMutant::ReprobeNoBackoff)
                        {
                            // The no-backoff livelock mutant never
                            // parks: an empty round restarts at line 9.
                            Phase::Idle
                        } else {
                            Phase::Dormant
                        };
                        push(&mut out, n, class, StepTag::SharedEmpty { w: w as u8 });
                    } else {
                        for t in pooled.iter() {
                            let mut n = s.clone();
                            self.start(&mut n, w, t);
                            push(
                                &mut out,
                                n,
                                StepClass::Other,
                                StepTag::TakeShared {
                                    w: w as u8,
                                    t: t as u8,
                                },
                            );
                        }
                    }
                }
                Phase::Remote { untried, probed } => {
                    if untried == 0 {
                        // Sweep exhausted: park — unless local work
                        // appeared mid-round (the engine's atomic
                        // acquire would have seen it).
                        let visible =
                            self.work_visible(s, w) || self.is(ProtocolMutant::ReprobeNoBackoff);
                        let mut n = s.clone();
                        n.phases[w] = if visible { Phase::Idle } else { Phase::Dormant };
                        // Parking reads only this worker's private
                        // deque and the local shared pool; if neither
                        // can ever gain a task again the outcome is
                        // fixed on every deferred execution, and
                        // Remote{∅} → Dormant are both non-busy, so
                        // the flip is invisible. τ.
                        let class = if !visible
                            && self.mutant.is_none()
                            && self.place_delivery_dead(s, p)
                            && self.place_workless(s, p)
                        {
                            StepClass::FreeVisit
                        } else {
                            StepClass::Other
                        };
                        let tag = if visible {
                            StepTag::NewRound { w: w as u8 }
                        } else {
                            StepTag::Park { w: w as u8 }
                        };
                        push(&mut out, n, class, tag);
                        continue;
                    }
                    for q in 0..self.sc.places {
                        if untried & (1 << q) == 0 {
                            continue;
                        }
                        // Line 19 check: every remote attempt must be
                        // preceded by a network probe since the last
                        // failed one.
                        if !probed {
                            bad.insert(format!(
                                "worker {w}: remote steal attempt at place {q} without \
                                 the line 19 network re-probe after the previous failed \
                                 attempt"
                            ));
                        }
                        // Livelock mutant: the retry budget is ignored —
                        // a failed visit leaves the victim's untried
                        // bit set, so the sweep can revisit it forever.
                        let rest = if self.is(ProtocolMutant::RetryBudgetIgnored) {
                            untried
                        } else {
                            untried & !(1 << q)
                        };
                        let after_fail = Phase::Remote {
                            untried: rest,
                            probed: !self.is(ProtocolMutant::SkipReprobe),
                        };
                        // Victim pool: the remote shared deque — plus,
                        // under the sensitive-steal mutant, the remote
                        // workers' private deques.
                        let mut pool = TaskBuf::new();
                        if s.alive[q as usize] {
                            if self.is(ProtocolMutant::StealSensitiveRemotely) {
                                for t in 0..s.tasks.len() {
                                    if matches!(s.tasks[t], Loc::Private { w: pw }
                                        if self.place_of(pw as usize) == q)
                                    {
                                        pool.push(t);
                                    }
                                }
                            }
                            for t in 0..s.tasks.len() {
                                if matches!(s.tasks[t], Loc::Shared { p: sp } if sp == q) {
                                    pool.push(t);
                                }
                            }
                        }
                        if pool.is_empty() {
                            let mut n = s.clone();
                            n.phases[w] = after_fail;
                            // Against a statically workless place the
                            // failure is not a race outcome but a fact;
                            // the visit is then a pure τ-step (mutants
                            // widen the victim pool, so they disable
                            // the classification).
                            let class = if self.mutant.is_none()
                                && (self.place_statically_empty(q) || self.place_workless(s, q))
                            {
                                StepClass::FreeVisit
                            } else {
                                StepClass::Other
                            };
                            push(&mut out, n, class, StepTag::VisitFail { w: w as u8, q });
                            continue;
                        }
                        let mut take = pool;
                        take.truncate(proto::REMOTE_STEAL_CHUNK);
                        for t in take.iter() {
                            if self.sc.tasks[t].sensitive {
                                bad.insert(format!(
                                    "task {t}: sensitive task migrated off its home place \
                                     {q} by a remote steal"
                                ));
                            }
                        }
                        // Successful steal: first task executes, the
                        // extra rides along into the thief's private
                        // deque (migration wrapping). In the cluster
                        // era the lease deliberately stays at the
                        // victim until the TaskMoved note lands — the
                        // LeaseConfirm transition models that lag.
                        let mut n = s.clone();
                        for t in take.iter() {
                            n.migrated |= 1 << t;
                        }
                        self.start(&mut n, w, take.get(0));
                        for extra in take.iter().skip(1) {
                            n.tasks[extra] = Loc::Private { w: w as u8 };
                        }
                        push(
                            &mut out,
                            n,
                            StepClass::Other,
                            StepTag::RemoteSteal {
                                w: w as u8,
                                q,
                                t: take.get(0) as u8,
                            },
                        );
                        if s.drops_left > 0 {
                            // The migrate payload is lost in flight:
                            // the thief times out empty-handed and the
                            // victim lease-reclaims the tasks.
                            let mut n = s.clone();
                            for t in take.iter() {
                                n.tasks[t] = Loc::InFlight { to: q };
                            }
                            n.phases[w] = after_fail;
                            n.drops_left -= 1;
                            push(
                                &mut out,
                                n,
                                StepClass::Other,
                                StepTag::StealDropped { w: w as u8, q },
                            );
                        }
                    }
                }
                Phase::Busy { task } => {
                    let t = task as usize;
                    let mut n = s.clone();
                    n.exec[t] = n.exec[t].saturating_add(1);
                    if n.exec[t] > 1 {
                        bad.insert(format!(
                            "task {t}: executed {} times (exactly-once violated)",
                            n.exec[t]
                        ));
                    }
                    // Guarded for the dup-remap mutant: only clear the
                    // location this worker actually owns.
                    if n.tasks[t] == (Loc::Running { w: w as u8 }) {
                        n.tasks[t] = Loc::Done;
                        if self.cluster() {
                            n.lease[t] = Lease::None;
                        }
                    }
                    // Completion spawns the children.
                    for c in 0..n.tasks.len() {
                        if self.sc.tasks[c].parent == Some(t) && n.tasks[c] == Loc::NotSpawned {
                            n.tasks[c] = Loc::InFlight {
                                to: self.sc.tasks[c].home,
                            };
                            n.latch += 1;
                        }
                    }
                    let skip_dec =
                        self.is(ProtocolMutant::SkipLatchDecrement) && s.migrated & (1 << t) != 0;
                    if !skip_dec {
                        n.latch -= 1;
                        if n.latch < 0 {
                            bad.insert("finish latch decremented below zero".to_string());
                        }
                    }
                    n.phases[w] = if n.alive[p as usize] {
                        Phase::Idle
                    } else {
                        Phase::Dead
                    };
                    push(
                        &mut out,
                        n,
                        StepClass::Completion,
                        StepTag::Complete {
                            w: w as u8,
                            t: task,
                        },
                    );
                }
            }
        }

        out
    }

    /// Unlabeled successor view for the safety engine (`crate::reduce`).
    fn successors(&self, s: &State, bad: &mut BTreeSet<String>) -> Vec<Succ<State>> {
        self.successors_labeled(s, bad)
            .into_iter()
            .map(|l| Succ {
                state: l.state,
                class: l.class,
            })
            .collect()
    }

    /// Quiescence checks on a transition-free state.
    fn check_terminal(&self, s: &State, bad: &mut BTreeSet<String>) {
        for (t, loc) in s.tasks.iter().enumerate() {
            if *loc != Loc::Done {
                bad.insert(format!(
                    "termination violated: terminal state with task {t} {}",
                    match loc {
                        Loc::Lost => "lost by fail-stop recovery".to_string(),
                        Loc::Vanished => "vanished with a dead incarnation".to_string(),
                        other => format!("stuck at {other:?}"),
                    }
                ));
            }
        }
        if s.latch != 0 && s.tasks.iter().all(|l| *l == Loc::Done) {
            bad.insert(format!(
                "finish latch stuck at {} in a terminal state (lost decrement)",
                s.latch
            ));
        }
    }

    /// Ample-set nomination (see `crate::reduce` and `docs/analysis.md`
    /// §5 for the class-by-class independence argument). Only consulted
    /// by the reduced exploration mode.
    fn ample(&self, s: &State, succs: &[Succ<State>]) -> Option<usize> {
        self.ample_classes(s, succs.len(), |i| succs[i].class)
    }

    /// Labeled-successor view of the same nomination, used by the
    /// liveness certificate scan (`crate::liveness`) so reduced-mode
    /// liveness walks exactly the graph the safety engine walks.
    pub(crate) fn ample_labeled(&self, s: &State, succs: &[LSucc]) -> Option<usize> {
        self.ample_classes(s, succs.len(), |i| succs[i].class)
    }

    /// Shared ample-set body, generic over how a successor's
    /// [`StepClass`] is fetched so the safety and liveness engines
    /// cannot drift apart.
    fn ample_classes<F: Fn(usize) -> StepClass>(
        &self,
        s: &State,
        n: usize,
        class: F,
    ) -> Option<usize> {
        // A pending kill conflicts with everything (it overwrites
        // worker phases wholesale); no reduction until it has fired.
        let kill_inert = self.sc.faults.kill_place.is_none() || s.killed;
        if !kill_inert {
            return None;
        }
        // Drained tail: every task sits at a terminal location and the
        // fault/custody machinery is fully resolved. The only enabled
        // transitions are workers independently walking their scan
        // cycle toward Dormant. Each such step touches only its own
        // worker's control state; every read it makes (task locations,
        // place liveness, co-worker private deques) is frozen; and the
        // per-worker remote-sweep visit choices pairwise commute (each
        // clears a distinct untried bit and all fail). The cycle is
        // also acyclic (it ends in Dormant), so the visited proviso
        // never bites. Any single successor is therefore a sound
        // ample set — this collapses an O(c^W) product of scan chains
        // into a single interleaving.
        if self.mutant.is_none() && self.drained(s) {
            return Some(0);
        }
        // Probe → CoWorker: deterministic, invisible, process-local.
        if let Some(i) = (0..n).find(|&i| class(i) == StepClass::PhaseAdvance) {
            return Some(i);
        }
        // A sweep step against a statically workless place: a pure
        // τ-step by the FreeVisit confluence argument — any co-enabled
        // transition either commutes with it exactly or (the worker's
        // own successful steal) erases the untried mask it touched.
        if let Some(i) = (0..n).find(|&i| class(i) == StepClass::FreeVisit) {
            return Some(i);
        }
        // A completion commutes with every other enabled transition
        // when nothing can observe the worker's busy bit flipping or
        // race the lease it clears: no delivery pending or creatable
        // (spawn/drop), no ghost, and cluster custody fully settled.
        let no_inflight = !s.tasks.iter().any(|l| matches!(l, Loc::InFlight { .. }));
        if no_inflight
            && s.dup_ghost == 0
            && s.drops_left == 0
            && self.no_spawnable_children(s)
            && self.cluster_quiet(s)
        {
            if let Some(i) = (0..n).find(|&i| class(i) == StepClass::Completion) {
                return Some(i);
            }
        }
        None
    }

    /// The remote-sweep victim mask for a worker at place `p`.
    /// Statically workless places are elided from the faithful sweep
    /// outright: every visit there fails, so skipping them composes
    /// the FreeVisit τ-steps into the sweep entry (mutants widen the
    /// victim pool and keep the full sweep).
    fn sweep_mask(&self, p: u8) -> u8 {
        (0..self.sc.places)
            .filter(|&q| q != p)
            .filter(|&q| self.mutant.is_some() || !self.place_statically_empty(q))
            .fold(0u8, |m, q| m | (1 << q))
    }

    /// No task is ever routed to `q`'s shared pool on any reachable
    /// path: deliveries target the `InFlight` destination, which is
    /// always a task's home or place 0 (init, spawn, recovery reroute,
    /// cluster reinject), and steals move tasks into *private* deques.
    /// A remote-sweep visit against such a place always fails, so it
    /// only clears the sweeping worker's own untried bit — the
    /// [`StepClass::FreeVisit`] τ-confluence argument.
    fn place_statically_empty(&self, q: u8) -> bool {
        q != 0 && self.sc.tasks.iter().all(|t| t.home != q)
    }

    /// Dynamic counterpart of [`Self::place_statically_empty`]: from
    /// `s` onward, `q`'s shared pool is empty and will stay empty on
    /// every execution. `Loc::Shared` is written in exactly one spot —
    /// a flexible delivery targeting `q` under saturation — so the
    /// pool is dead once no flexible task routed to `q` (home or
    /// in-flight destination; deliveries, reroutes, and reinjects all
    /// target those) can still reach the delivery pipeline. The
    /// predicate is *stable*: it only flips false→true, never back, so
    /// a sweep visit against such a place is a pure τ-step by the same
    /// confluence argument as the static case. Fault machinery that
    /// could resurrect a delivery (a pending kill turning running
    /// tasks `Lost`, ghost copies, undropped deliveries) disables it
    /// wholesale, as do mutants (which widen victim pools and re-map
    /// ghosts).
    fn place_workless(&self, s: &State, q: u8) -> bool {
        if !self.quiescence_gate(s) {
            return false;
        }
        (0..s.tasks.len()).all(|t| {
            if matches!(s.tasks[t], Loc::Shared { p } if p == q) {
                return false;
            }
            if self.sc.tasks[t].sensitive {
                // Faithful mapping pins sensitive tasks to private
                // deques (Algorithm 1 line 3); they can never surface
                // in a shared pool.
                return true;
            }
            let routed_here =
                self.sc.tasks[t].home == q || matches!(s.tasks[t], Loc::InFlight { to } if to == q);
            !(routed_here
                && matches!(
                    s.tasks[t],
                    Loc::NotSpawned | Loc::InFlight { .. } | Loc::Lost | Loc::Vanished
                ))
        })
    }

    /// Shared gate for the dynamic-quiescence predicates: mutants
    /// widen victim pools and re-map ghost copies, ghost/duplicate
    /// machinery can replay a delivery, and a kill that has not fired
    /// yet can turn running tasks back into routable ones.
    fn quiescence_gate(&self, s: &State) -> bool {
        self.mutant.is_none()
            && s.dup_ghost == 0
            && s.dups_left == 0
            && (self.sc.faults.kill_place.is_none() || s.killed)
    }

    /// No delivery can ever land at place `p` again: no task routed
    /// there (home, or current in-flight destination) can still reach
    /// the delivery pipeline. Unlike [`Self::place_workless`] this
    /// counts sensitive tasks too — it freezes the *private* deques of
    /// `p`'s workers, whose only external writer is `map_deliver`.
    /// Stable for the same reasons as `place_workless`.
    fn place_delivery_dead(&self, s: &State, p: u8) -> bool {
        if !self.quiescence_gate(s) {
            return false;
        }
        (0..s.tasks.len()).all(|t| {
            let routed_here =
                self.sc.tasks[t].home == p || matches!(s.tasks[t], Loc::InFlight { to } if to == p);
            !(routed_here
                && matches!(
                    s.tasks[t],
                    Loc::NotSpawned | Loc::InFlight { .. } | Loc::Lost | Loc::Vanished
                ))
        })
    }

    /// Every shared pool in the system is dead ([`Self::place_workless`]
    /// for all places): no remote or local-shared steal can ever
    /// succeed again, so private deques can only gain tasks through
    /// deliveries.
    fn all_places_workless(&self, s: &State) -> bool {
        (0..self.sc.places).all(|q| self.place_workless(s, q))
    }

    /// Every task is at a terminal location and every non-worker
    /// transition source is spent: no delivery, ghost arrival, kill,
    /// restart, or coordinator step can ever fire again. See the
    /// drained-tail ample class in [`Ctx::ample`].
    fn drained(&self, s: &State) -> bool {
        s.tasks.iter().all(|l| matches!(l, Loc::Done | Loc::Lost))
            && s.dup_ghost == 0
            && (self.sc.faults.kill_place.is_none()
                || (s.killed && (!self.sc.faults.restart || s.restarted)))
            && (!self.cluster() || s.lease.iter().all(|l| *l == Lease::None))
    }

    /// No running task would spawn a child on completion (spawns
    /// create deliveries, whose mapping reads the busy classification
    /// that completions change).
    fn no_spawnable_children(&self, s: &State) -> bool {
        for w in 0..self.workers() {
            if let Phase::Busy { task } = s.phases[w] {
                let t = task as usize;
                if (0..s.tasks.len())
                    .any(|c| self.sc.tasks[c].parent == Some(t) && s.tasks[c] == Loc::NotSpawned)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Cluster-era custody machinery is inert: every lease settled at
    /// its holder's current incarnation, nothing vanished or in doubt.
    fn cluster_quiet(&self, s: &State) -> bool {
        if !self.cluster() {
            return true;
        }
        for t in 0..s.tasks.len() {
            if s.tasks[t] == Loc::Vanished {
                return false;
            }
            match s.lease[t] {
                Lease::InDoubt { .. } => return false,
                Lease::Held { p, e } => {
                    if self.lease_stale(s, p, e) || self.cur_place(s, t) != Some(p) {
                        return false;
                    }
                }
                Lease::None => {}
            }
        }
        true
    }
}

pub(crate) fn init_state(sc: &ProtocolScenario) -> State {
    let ctx = Ctx { sc, mutant: None };
    State {
        tasks: sc
            .tasks
            .iter()
            .map(|t| {
                if t.parent.is_none() {
                    Loc::InFlight { to: t.home }
                } else {
                    Loc::NotSpawned
                }
            })
            .collect::<Vec<_>>()
            .into(),
        exec: FixedVec::filled(0, sc.tasks.len()),
        lease: FixedVec::filled(Lease::None, sc.tasks.len()),
        migrated: 0,
        dup_ghost: 0,
        stale_ghost: 0,
        dup_dest: FixedVec::filled(255, sc.tasks.len()),
        latch: sc.tasks.iter().filter(|t| t.parent.is_none()).count() as i16,
        phases: FixedVec::filled(Phase::Idle, ctx.workers()),
        alive: FixedVec::filled(true, sc.places as usize),
        epochs: FixedVec::filled(0, sc.places as usize),
        drops_left: sc.faults.max_drops,
        dups_left: sc.faults.max_dups,
        killed: false,
        restarted: false,
    }
}

/// The protocol model plugged into the shared engine: raw bit-packed
/// keys in full mode, canonical symmetry-orbit keys plus ample-set
/// reduction in reduced mode.
struct ProtoSys<'a> {
    ctx: Ctx<'a>,
    mode: Mode,
    canon: canon::Canonizer,
}

impl System for ProtoSys<'_> {
    type State = State;
    type Key = canon::Key;

    fn initial(&self) -> State {
        init_state(self.ctx.sc)
    }

    fn successors(&self, s: &State, bad: &mut BTreeSet<String>) -> Vec<Succ<State>> {
        self.ctx.successors(s, bad)
    }

    fn check_terminal(&self, s: &State, bad: &mut BTreeSet<String>) {
        self.ctx.check_terminal(s, bad);
    }

    fn key(&self, s: &State) -> canon::Key {
        match self.mode {
            Mode::Full => canon::raw_key(self.ctx.sc, s),
            Mode::Reduced => self.canon.key(self.ctx.sc, s),
        }
    }

    fn ample(&self, s: &State, succs: &[Succ<State>]) -> Option<usize> {
        self.ctx.ample(s, succs)
    }
}

/// Exhaustively explore one scenario, optionally with a seeded
/// protocol mutant, in the requested [`Mode`]; `cap` bounds stored
/// states (see [`ExploreStats::truncated`]). Violations are
/// deduplicated and sorted.
pub fn explore_protocol_mode(
    sc: &ProtocolScenario,
    mutant: Option<ProtocolMutant>,
    mode: Mode,
    cap: Option<u64>,
) -> (Outcome, ExploreStats) {
    assert!(sc.places >= 1 && sc.places <= 8, "u8 place bitmask");
    assert!(sc.tasks.len() <= 16, "u16 task bitmasks");
    assert!(
        sc.places as usize * sc.workers_per_place as usize <= 16,
        "compact worker encoding"
    );
    assert_ne!(sc.faults.kill_place, Some(0), "place 0 hosts recovery");
    let sys = ProtoSys {
        ctx: Ctx { sc, mutant },
        mode,
        canon: canon::Canonizer::new(sc),
    };
    explore_system(&sys, mode, cap)
}

/// Exhaustively explore one scenario in full (unreduced) mode —
/// the PR 4 behavior, kept as the compatibility surface.
pub fn explore_protocol(sc: &ProtocolScenario, mutant: Option<ProtocolMutant>) -> Outcome {
    explore_protocol_mode(sc, mutant, Mode::Full, None).0
}

fn flex(home: u8) -> ModelTask {
    ModelTask {
        home,
        sensitive: false,
        parent: None,
    }
}

fn sens(home: u8) -> ModelTask {
    ModelTask {
        home,
        sensitive: true,
        parent: None,
    }
}

fn child(home: u8, parent: usize) -> ModelTask {
    ModelTask {
        home,
        sensitive: false,
        parent: Some(parent),
    }
}

fn sens_child(home: u8, parent: usize) -> ModelTask {
    ModelTask {
        home,
        sensitive: true,
        parent: Some(parent),
    }
}

/// The base scenarios explored by `repro check protocol` and CI. All
/// must be violation-free without a mutant; each mutant is caught by
/// its [`ProtocolMutant::catch_scenario`]. Scenarios with
/// `full_ok: false` are the scale tier: they exist to demonstrate the
/// reductions and are only explored reduced (or capped).
pub fn builtin_scenarios() -> Vec<ProtocolScenario> {
    let sim = |name, places, workers_per_place, tasks: Vec<ModelTask>, faults| ProtocolScenario {
        name,
        places,
        workers_per_place,
        tasks,
        faults,
        era: Era::Sim,
        full_ok: true,
    };
    vec![
        // Sensitive tasks stay pinned while flexible work is raided.
        sim(
            "sensitive_pinning",
            2,
            1,
            vec![sens(0), flex(0), flex(0)],
            ModelFaults::default(),
        ),
        // Intra-place stealing: line 13's chunk of one.
        sim(
            "coworker_chunk",
            1,
            2,
            vec![sens(0), sens(0), sens(0)],
            ModelFaults::default(),
        ),
        // A saturated place pools flexible work; remote thieves take
        // chunked steals and migrated tasks release the latch.
        sim(
            "saturation_mapping",
            2,
            2,
            vec![flex(0), flex(0), flex(0), flex(0)],
            ModelFaults::default(),
        ),
        // A three-place sweep: failed remote attempts must re-probe
        // (line 19) before the next victim.
        sim(
            "reprobe_sweep",
            3,
            1,
            vec![flex(0), flex(0), flex(0)],
            ModelFaults::default(),
        ),
        // Completion spawns children across places; the finish latch
        // tracks the whole tree.
        sim(
            "spawn_tree",
            2,
            2,
            vec![flex(0), child(0, 0), child(1, 0), child(1, 0)],
            ModelFaults::default(),
        ),
        // A dropped migrate payload is lease-reclaimed at the victim.
        sim(
            "drop_reclaim",
            2,
            1,
            vec![flex(0), flex(0), flex(0)],
            ModelFaults {
                max_drops: 1,
                ..Default::default()
            },
        ),
        // A fail-stop kill: queued tasks are recovered, running tasks
        // finish at the task boundary, the latch still reaches zero.
        sim(
            "kill_recover",
            3,
            1,
            vec![flex(0), flex(1), flex(1)],
            ModelFaults {
                kill_place: Some(1),
                ..Default::default()
            },
        ),
        // The killed place additionally rejoins empty-handed.
        sim(
            "kill_restart",
            3,
            1,
            vec![flex(0), flex(1), flex(1)],
            ModelFaults {
                kill_place: Some(1),
                restart: true,
                ..Default::default()
            },
        ),
        // Duplicate deliveries must be discarded by task-id dedup.
        sim(
            "dup_delivery",
            2,
            1,
            vec![flex(0), flex(0)],
            ModelFaults {
                max_dups: 1,
                ..Default::default()
            },
        ),
        // ---- Scale tier (ROADMAP item 5): the reductions at work ----
        // Six flexible roots over three places: the smallest scenario
        // where full exploration visibly blows past the legacy sizes.
        ProtocolScenario {
            name: "mid_fanout",
            places: 3,
            workers_per_place: 2,
            tasks: vec![flex(0), flex(0), flex(0), flex(0), flex(0), flex(0)],
            faults: ModelFaults::default(),
            era: Era::Sim,
            full_ok: false,
        },
        // An eight-task spawn chain hopping across three places: deep
        // rather than wide, so completions dominate the interleavings.
        ProtocolScenario {
            name: "deep_spawn_chain",
            places: 3,
            workers_per_place: 2,
            tasks: vec![
                flex(0),
                child(1, 0),
                child(2, 1),
                child(0, 2),
                child(1, 3),
                child(2, 4),
                child(0, 5),
                child(1, 6),
            ],
            faults: ModelFaults::default(),
            era: Era::Sim,
            full_ok: false,
        },
        // The acceptance-bar scenario: 4 places x 2 workers x 8 tasks,
        // all homed at place 0 so places 1-3 are fully symmetric. Eight
        // independent roots land in one burst: six sensitive (pinned,
        // saturating the home place) and two flexible (spilled to the
        // shared deque once the place saturates, then raided by six
        // remote workers racing their scan cycles).
        ProtocolScenario {
            name: "wide_fanout",
            places: 4,
            workers_per_place: 2,
            tasks: vec![
                flex(0),
                flex(0),
                sens(0),
                sens(0),
                sens(0),
                sens(0),
                sens(0),
                sens(0),
            ],
            faults: ModelFaults::default(),
            era: Era::Sim,
            full_ok: false,
        },
        // Same scale, inverted locality: two migratable coordinators
        // fan out *pinned* work (the paper's selective locality-aware
        // tasks). The flexible parents can be raided across the
        // cluster, but every child they spawn must execute at place 0;
        // spawn staggering interleaves deliveries with completions.
        ProtocolScenario {
            name: "mixed_sensitive_fanout",
            places: 4,
            workers_per_place: 2,
            tasks: vec![
                sens(0),
                sens(0),
                flex(0),
                flex(0),
                sens_child(0, 2),
                sens_child(0, 2),
                sens_child(0, 3),
                sens_child(0, 3),
            ],
            faults: ModelFaults::default(),
            era: Era::Sim,
            full_ok: false,
        },
        // ---- Cluster era: the PR 7 races, model-side ---------------
        // A SIGKILL strands tasks at the dead incarnation; the sweep,
        // custody poll and reinject recover them, and a late TaskMoved
        // copy must die at the disown fence.
        ProtocolScenario {
            name: "cluster_reclaim",
            places: 3,
            workers_per_place: 1,
            tasks: vec![flex(0), flex(1), flex(1)],
            faults: ModelFaults {
                kill_place: Some(1),
                max_dups: 1,
                ..Default::default()
            },
            era: Era::Cluster,
            full_ok: true,
        },
        // The killed place rejoins as a new incarnation: the epoch
        // bump must fence every lease held under the dead epoch.
        ProtocolScenario {
            name: "cluster_epoch",
            places: 3,
            workers_per_place: 1,
            tasks: vec![flex(0), flex(1), flex(1)],
            faults: ModelFaults {
                kill_place: Some(1),
                restart: true,
                max_dups: 1,
                ..Default::default()
            },
            era: Era::Cluster,
            full_ok: true,
        },
    ]
}

/// Find a builtin scenario by name.
pub fn scenario_by_name(name: &str) -> Option<ProtocolScenario> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

/// Explore every builtin scenario fault-free/mutant-free, reduced.
/// (The PR 4 surface explored full; with the scale tier in the suite,
/// reduced is the only mode that covers every scenario — the
/// `--compare` cross-validation is what keeps it honest.)
pub fn check_protocol_all() -> Vec<(&'static str, Outcome)> {
    builtin_scenarios()
        .iter()
        .map(|sc| {
            (
                sc.name,
                explore_protocol_mode(sc, None, Mode::Reduced, None).0,
            )
        })
        .collect()
}

/// Result of one mutation test.
#[derive(Debug, Clone)]
pub struct MutantCheck {
    /// Mutant name.
    pub mutant: &'static str,
    /// Scenario explored.
    pub scenario: &'static str,
    /// The property expected to catch this mutant: `"safety"` or a
    /// liveness property name ([`ProtocolMutant::catch_property`]).
    pub property: &'static str,
    /// Whether the *designated* property caught it (and nothing
    /// crashed).
    pub caught: bool,
    /// Everything that flagged the mutant: `"safety"` and/or liveness
    /// property names. A livelock mutant may trip several.
    pub caught_by: Vec<&'static str>,
    /// The safety violations found.
    pub violations: Vec<String>,
    /// The designated liveness property's lasso counterexample, for
    /// livelock mutants.
    pub lasso: Option<crate::liveness::Lasso>,
    /// A panic message, if the exploration *errored* instead of
    /// finishing — distinguished from a catch so a crash can never
    /// masquerade as detection power.
    pub error: Option<String>,
}

/// Re-inject every seeded protocol bug — safety and livelock — and
/// report which property caught it. CI requires every mutant caught
/// by its designated property (and none errored). Mutants are always
/// explored in full mode: reduction soundness arguments assume the
/// faithful generator, so mutated generators get the unreduced
/// treatment.
pub fn check_protocol_mutants() -> Vec<MutantCheck> {
    ProtocolMutant::ALL
        .iter()
        .map(|&m| {
            let name = m.catch_scenario();
            let sc = scenario_by_name(name).expect("catch scenario exists");
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let outcome = explore_protocol(&sc, Some(m));
                let liveness = crate::liveness::check_liveness(&sc, Some(m), Mode::Full, None);
                (outcome, liveness)
            }));
            match run {
                Ok((outcome, liveness)) => {
                    let mut caught_by = Vec::new();
                    if !outcome.violations.is_empty() {
                        caught_by.push("safety");
                    }
                    let mut lasso = None;
                    for r in &liveness {
                        if !r.holds {
                            caught_by.push(r.property.name());
                            if r.property.name() == m.catch_property() {
                                lasso = r.lasso.clone();
                            }
                        }
                    }
                    MutantCheck {
                        mutant: m.name(),
                        scenario: name,
                        property: m.catch_property(),
                        caught: caught_by.contains(&m.catch_property()),
                        caught_by,
                        violations: outcome.violations,
                        lasso,
                        error: None,
                    }
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    MutantCheck {
                        mutant: m.name(),
                        scenario: name,
                        property: m.catch_property(),
                        caught: false,
                        caught_by: Vec::new(),
                        violations: Vec::new(),
                        lasso: None,
                        error: Some(msg),
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_base_scenarios_are_clean_reduced() {
        for sc in builtin_scenarios() {
            // The scale tier is exercised by `repro check protocol`
            // (release binary, CI wall budget), not debug unit tests.
            if !sc.full_ok {
                continue;
            }
            let (outcome, stats) = explore_protocol_mode(&sc, None, Mode::Reduced, None);
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                sc.name,
                outcome.violations
            );
            assert!(outcome.states > 10, "{} explored too little", sc.name);
            assert!(outcome.terminals > 0, "{} never terminated", sc.name);
            assert!(!stats.truncated);
        }
    }

    #[test]
    fn reduced_and_full_verdicts_agree_on_every_legacy_scenario() {
        for sc in builtin_scenarios() {
            if !sc.full_ok {
                continue;
            }
            let (full, _) = explore_protocol_mode(&sc, None, Mode::Full, None);
            let (reduced, _) = explore_protocol_mode(&sc, None, Mode::Reduced, None);
            assert_eq!(
                full.violations.is_empty(),
                reduced.violations.is_empty(),
                "{}: verdicts diverged (full {:?}, reduced {:?})",
                sc.name,
                full.violations,
                reduced.violations
            );
            assert!(
                reduced.states <= full.states,
                "{}: reduction grew the state space ({} > {})",
                sc.name,
                reduced.states,
                full.states
            );
            // Keep the full scenarios explorable in CI.
            assert!(
                full.states < 2_000_000,
                "{} exploded to {} states",
                sc.name,
                full.states
            );
        }
    }

    #[test]
    fn every_seeded_mutant_is_caught_with_the_right_message() {
        // Safety mutants must trip a violation containing the needle;
        // livelock mutants must be caught by their designated
        // temporal property with a lasso counterexample.
        let safety_needles = [
            ("skip-reprobe", "line 19"),
            ("steal-sensitive-remotely", "sensitive task migrated"),
            ("local-chunk-two", "line 13 chunk"),
            ("map-flexible-private-always", "lines 5-8"),
            ("skip-latch-decrement", "latch stuck"),
            ("drop-recovered-tasks", "lost by fail-stop"),
            ("dup-delivery-remaps", "exactly-once"),
            ("skip-disown-fence", "disown fence"),
            ("accept-stale-epoch-lease", "stale-epoch"),
        ];
        let checks = check_protocol_mutants();
        assert_eq!(checks.len(), ProtocolMutant::ALL.len());
        for check in &checks {
            assert!(
                check.error.is_none(),
                "mutant {} errored on {}: {:?}",
                check.mutant,
                check.scenario,
                check.error
            );
            assert!(
                check.caught,
                "mutant {} escaped its designated property {} on {} (caught by {:?})",
                check.mutant, check.property, check.scenario, check.caught_by
            );
            if check.property == "safety" {
                let needle = safety_needles
                    .iter()
                    .find(|(m, _)| *m == check.mutant)
                    .map(|(_, n)| *n)
                    .unwrap_or_else(|| panic!("no needle for {}", check.mutant));
                assert!(
                    check.violations.iter().any(|v| v.contains(needle)),
                    "mutant {} caught for the wrong reason on {}: {:?}",
                    check.mutant,
                    check.scenario,
                    check.violations
                );
            } else {
                let lasso = check
                    .lasso
                    .as_ref()
                    .unwrap_or_else(|| panic!("livelock mutant {} has no lasso", check.mutant));
                assert!(
                    !lasso.cycle.is_empty(),
                    "mutant {}: empty lasso cycle",
                    check.mutant
                );
            }
        }
    }

    #[test]
    fn fault_scenarios_still_terminate_cleanly() {
        for name in [
            "drop_reclaim",
            "kill_recover",
            "kill_restart",
            "dup_delivery",
            "cluster_reclaim",
            "cluster_epoch",
        ] {
            let sc = scenario_by_name(name).unwrap();
            let o = explore_protocol(&sc, None);
            assert!(o.violations.is_empty(), "{name}: {:?}", o.violations);
            assert!(o.terminals > 0, "{name}");
        }
    }

    #[test]
    fn cluster_recovery_exercises_the_custody_poll() {
        // The reclaim scenario must actually reach vanished tasks,
        // custody doubt and reinjection — otherwise the cluster
        // transitions are dead code and the two cluster mutants prove
        // nothing.
        let sc = scenario_by_name("cluster_reclaim").unwrap();
        let ctx = Ctx {
            sc: &sc,
            mutant: None,
        };
        let mut seen_vanished = false;
        let mut seen_doubt = false;
        let mut seen_reinject = false;
        let sys = ProtoSys {
            ctx: Ctx {
                sc: &sc,
                mutant: None,
            },
            mode: Mode::Full,
            canon: canon::Canonizer::new(&sc),
        };
        let mut bad = BTreeSet::new();
        let mut stack = vec![sys.initial()];
        let mut seen = std::collections::HashSet::new();
        seen.insert(sys.key(&stack[0]));
        while let Some(s) = stack.pop() {
            for t in 0..s.tasks.len() {
                if s.tasks[t] == Loc::Vanished {
                    seen_vanished = true;
                    if matches!(s.lease[t], Lease::InDoubt { .. }) {
                        seen_doubt = true;
                    }
                }
                if matches!(s.tasks[t], Loc::InFlight { .. }) && s.killed && s.exec[t] == 0 {
                    seen_reinject = true;
                }
            }
            for succ in ctx.successors(&s, &mut bad) {
                let k = sys.key(&succ.state);
                if seen.insert(k) {
                    stack.push(succ.state);
                }
            }
        }
        assert!(seen_vanished, "kill never stranded a task");
        assert!(seen_doubt, "sweep never opened a custody poll");
        assert!(seen_reinject, "custody never reinjected a task");
    }
}
