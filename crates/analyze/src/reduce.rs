//! The exploration engine: memoized DFS with optional partial-order
//! reduction, used by the protocol model checker ([`crate::protocol`]).
//!
//! A model implements [`System`]: an initial state, a successor
//! generator that records property violations as it fires transitions,
//! a terminal-state check, and a memoization key (the hook where
//! [`crate::canon`] plugs in symmetry canonicalization — any function
//! mapping each state to a fixed member of its symmetry orbit is a
//! sound quotient).
//!
//! ## Partial-order reduction (ample sets)
//!
//! With `reduce = true` the engine asks the model for an *ample*
//! successor at each state ([`System::ample`]): a single transition
//! that provably commutes with every transition of every other
//! process, cannot be disabled by them, cannot enable a dependent
//! transition of another process, and is invisible to the checked
//! properties. When the model nominates one, the engine expands only
//! that transition instead of the full successor set — the classic
//! persistent-singleton special case of ample-set POR, where the
//! commutation argument is made per transition *class* by the model
//! (see `docs/analysis.md` §5 for the class-by-class justification).
//!
//! **Soundness escape hatch (condition C3):** an ample transition
//! closing a cycle could defer the transitions of other processes
//! forever (the *ignoring problem*). The engine guards with the
//! classic DFS stack proviso: if the nominated successor is on the
//! current DFS path (a back-edge), the state is expanded in full
//! instead. Every cycle in the reduced graph closes a back-edge at
//! some state, so every cycle contains at least one fully expanded
//! state — the textbook C3 discharge for depth-first search with
//! memoization. Reconvergence onto an already-*finished* state (a
//! cross- or forward-edge, the overwhelmingly common case in this
//! confluent protocol) keeps the reduction.
//!
//! The reduction never suppresses a violation that the generator
//! reports while *firing* a transition (ample transitions are still
//! generated through the same checked path), and the cross-validation
//! suite (`repro check protocol --compare`) re-verifies on every
//! legacy scenario that the reduced and full explorations return the
//! same verdict.

use std::collections::{BTreeSet, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A minimal Fx-style multiply-rotate hasher for the memo tables. The
/// packed `[u64; N]` keys hash through `write_u64` only, and the memo
/// sets see millions of lookups per run — SipHash's DoS resistance
/// buys nothing here and costs ~30% of exploration wall time.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        // 2^64 / φ, the classic Fibonacci-hashing multiplier.
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Result of exploring one scenario (re-exported as
/// `distws_analyze::Outcome`).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Distinct global states visited (after canonicalization).
    pub states: u64,
    /// Distinct quiescent (transition-free) states.
    pub terminals: u64,
    /// Property violations found on any path (deduplicated, sorted).
    pub violations: Vec<String>,
}

/// Engine-side counters for one exploration, surfaced by
/// `repro check protocol` so reduction wins are visible and
/// regressions obvious.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct states stored (equals `Outcome::states`).
    pub states: u64,
    /// Transitions fired (edges of the explored graph).
    pub transitions: u64,
    /// Peak depth of the DFS path.
    pub peak_queue: u64,
    /// States expanded through a singleton ample set.
    pub ample_states: u64,
    /// States expanded in full (no ample nominee, or the stack
    /// proviso fired).
    pub full_states: u64,
    /// Times the stack proviso (C3 cycle guard: the ample successor
    /// was on the current DFS path) forced a full expansion of a
    /// state that had an ample nominee.
    pub proviso_fallbacks: u64,
    /// Exploration stopped early at the state cap (verdict unsound —
    /// the caller must surface this).
    pub truncated: bool,
}

/// One labeled successor produced by [`System::successors`].
#[derive(Debug, Clone)]
pub struct Succ<S> {
    /// The post-state.
    pub state: S,
    /// Transition-class label the model's [`System::ample`] hook and
    /// the stats use to reason about reducibility.
    pub class: StepClass,
}

/// Coarse transition classes shared by the models. The engine never
/// interprets these beyond bookkeeping — the *model* decides which
/// classes are ample-eligible, because the commutation argument lives
/// with the model's semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// A deterministic, invisible, process-local control step (e.g. a
    /// worker advancing Probe → CoWorker): commutes with everything.
    PhaseAdvance,
    /// A task completion whose effects are isolated at runtime (no
    /// pending arrival can observe the worker's busy bit flip).
    Completion,
    /// A remote-sweep step against a place that can *statically* never
    /// hold stealable work (no task homed there, so no delivery,
    /// spawn, recovery or reinject path ever routes work to it). The
    /// visit always fails, touches only the sweeping worker's own
    /// untried mask, and strongly commutes with every co-enabled
    /// transition — prioritizing it is a τ-confluence reduction.
    FreeVisit,
    /// Everything else: interleaved in full.
    Other,
}

/// A transition system the engine can explore.
pub trait System {
    /// Full (working) state representation.
    type State: Clone;
    /// Memoization key. For symmetry reduction return a canonical
    /// orbit representative ([`crate::canon`]); identity otherwise.
    type Key: Clone + Eq + Hash;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// All successors of `s`, recording property violations into
    /// `bad` as transitions are generated.
    fn successors(&self, s: &Self::State, bad: &mut BTreeSet<String>) -> Vec<Succ<Self::State>>;

    /// Quiescence checks on a transition-free state.
    fn check_terminal(&self, s: &Self::State, bad: &mut BTreeSet<String>);

    /// Memoization key of `s` (canonical packed encoding for the
    /// symmetry-reduced models).
    fn key(&self, s: &Self::State) -> Self::Key;

    /// Nominate the index of a singleton ample set among `succs`, or
    /// `None` to expand in full. Only consulted when the engine runs
    /// with `reduce = true`; the model must only nominate transitions
    /// whose class-level independence argument holds (see module
    /// docs).
    fn ample(&self, _s: &Self::State, _succs: &[Succ<Self::State>]) -> Option<usize> {
        None
    }
}

/// Exploration mode of [`explore_system`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full interleaving expansion (no POR); canonicalization still
    /// applies through [`System::key`].
    Full,
    /// Ample-set partial-order reduction with the visited proviso.
    Reduced,
}

/// Exhaustively explore `sys`, optionally with ample-set reduction.
/// `cap` bounds the number of stored states; when hit, exploration
/// stops and `stats.truncated` is set (the outcome is then a *partial*
/// verdict and must not be reported as proof).
pub fn explore_system<S: System>(sys: &S, mode: Mode, cap: Option<u64>) -> (Outcome, ExploreStats) {
    let mut seen: HashSet<S::Key, FxBuild> = HashSet::default();
    let mut bad: BTreeSet<String> = BTreeSet::new();
    let mut stats = ExploreStats::default();
    let mut terminals = 0u64;

    // One open state on the DFS path: its not-yet-explored successors
    // (consumed back to front so finished ones free their memory) and
    // its key, kept so on_path can be maintained without
    // re-canonicalizing at pop time. An ample-restricted frame holds
    // just the nominated successor, whose key the proviso check
    // already computed (`pending_key`) — canonicalization is the hot
    // path, so it is never recomputed at pop time.
    struct Frame<St, K> {
        pending: Vec<Succ<St>>,
        pending_key: Option<K>,
        key: K,
    }
    let mut path: Vec<Frame<S::State, S::Key>> = Vec::new();
    let mut on_path: HashSet<S::Key, FxBuild> = HashSet::default();

    // Expand a newly visited state into a frame; `None` for terminals.
    // The caller must already have inserted `k` into `on_path`, so a
    // nominated successor that maps onto the state's own orbit (a
    // quotient self-loop) correctly counts as a back-edge.
    let enter = |s: S::State,
                 k: S::Key,
                 on_path: &HashSet<S::Key, FxBuild>,
                 bad: &mut BTreeSet<String>,
                 stats: &mut ExploreStats,
                 terminals: &mut u64|
     -> Option<Frame<S::State, S::Key>> {
        let mut succs = sys.successors(&s, bad);
        if succs.is_empty() {
            *terminals += 1;
            sys.check_terminal(&s, bad);
            return None;
        }
        // Ample-set reduction: keep only the nominated singleton
        // unless the stack proviso (C3) fires on a back-edge.
        if mode == Mode::Reduced {
            if let Some(i) = sys.ample(&s, &succs) {
                debug_assert!(i < succs.len());
                let nk = sys.key(&succs[i].state);
                if on_path.contains(&nk) {
                    stats.proviso_fallbacks += 1;
                } else {
                    let only = succs.swap_remove(i);
                    succs.clear();
                    succs.push(only);
                    stats.ample_states += 1;
                    return Some(Frame {
                        pending: succs,
                        pending_key: Some(nk),
                        key: k,
                    });
                }
            }
        }
        stats.full_states += 1;
        Some(Frame {
            pending: succs,
            pending_key: None,
            key: k,
        })
    };

    let init = sys.initial();
    let ikey = sys.key(&init);
    seen.insert(ikey.clone());
    on_path.insert(ikey.clone());
    match enter(
        init,
        ikey.clone(),
        &on_path,
        &mut bad,
        &mut stats,
        &mut terminals,
    ) {
        Some(f) => {
            path.push(f);
            stats.peak_queue = 1;
        }
        None => {
            on_path.remove(&ikey);
        }
    }

    while let Some(top) = path.last_mut() {
        let Some(succ) = top.pending.pop() else {
            let done = path.pop().expect("path nonempty");
            on_path.remove(&done.key);
            continue;
        };
        stats.transitions += 1;
        let k = match top.pending_key.take() {
            Some(k) => k,
            None => sys.key(&succ.state),
        };
        if seen.contains(&k) {
            continue;
        }
        if cap.is_some_and(|c| seen.len() as u64 >= c) {
            stats.truncated = true;
            continue;
        }
        seen.insert(k.clone());
        on_path.insert(k.clone());
        match enter(
            succ.state,
            k.clone(),
            &on_path,
            &mut bad,
            &mut stats,
            &mut terminals,
        ) {
            Some(f) => {
                path.push(f);
                stats.peak_queue = stats.peak_queue.max(path.len() as u64);
            }
            None => {
                on_path.remove(&k);
            }
        }
    }

    stats.states = seen.len() as u64;
    (
        Outcome {
            states: seen.len() as u64,
            terminals,
            violations: bad.into_iter().collect(),
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy system: `n` independent counters each stepping 0→1→2.
    /// Every interleaving reaches the same terminal; the counters'
    /// steps are genuinely independent, so nominating the first
    /// incomplete counter is a valid persistent singleton.
    struct Counters {
        n: usize,
        reduce_ok: bool,
    }

    impl System for Counters {
        type State = Vec<u8>;
        type Key = Vec<u8>;
        fn initial(&self) -> Vec<u8> {
            vec![0; self.n]
        }
        fn successors(&self, s: &Vec<u8>, _bad: &mut BTreeSet<String>) -> Vec<Succ<Vec<u8>>> {
            (0..self.n)
                .filter(|&i| s[i] < 2)
                .map(|i| {
                    let mut n = s.clone();
                    n[i] += 1;
                    Succ {
                        state: n,
                        class: StepClass::PhaseAdvance,
                    }
                })
                .collect()
        }
        fn check_terminal(&self, s: &Vec<u8>, bad: &mut BTreeSet<String>) {
            if s.iter().any(|&c| c != 2) {
                bad.insert("terminal with an unfinished counter".into());
            }
        }
        fn key(&self, s: &Vec<u8>) -> Vec<u8> {
            s.clone()
        }
        fn ample(&self, _s: &Vec<u8>, succs: &[Succ<Vec<u8>>]) -> Option<usize> {
            if self.reduce_ok { Some(0) } else { None }.filter(|_| !succs.is_empty())
        }
    }

    #[test]
    fn full_explores_the_grid() {
        let sys = Counters {
            n: 3,
            reduce_ok: false,
        };
        let (out, stats) = explore_system(&sys, Mode::Full, None);
        assert_eq!(out.states, 27, "3^3 grid");
        assert_eq!(out.terminals, 1);
        assert!(out.violations.is_empty());
        assert!(!stats.truncated);
    }

    #[test]
    fn reduction_collapses_independent_interleavings() {
        let sys = Counters {
            n: 3,
            reduce_ok: true,
        };
        let (out, stats) = explore_system(&sys, Mode::Reduced, None);
        assert_eq!(out.terminals, 1, "same verdict");
        assert!(out.violations.is_empty());
        assert!(
            out.states < 27,
            "reduced exploration stored {} states",
            out.states
        );
        assert_eq!(out.states, 7, "a single chain through the grid");
        assert!(stats.ample_states > 0);
    }

    #[test]
    fn cap_truncates_and_reports_it() {
        let sys = Counters {
            n: 4,
            reduce_ok: false,
        };
        let (out, stats) = explore_system(&sys, Mode::Full, Some(10));
        assert!(stats.truncated);
        assert!(out.states <= 10, "cap respected, got {}", out.states);
    }
}
