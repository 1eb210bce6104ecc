//! Liveness checking for the protocol model: accepting-cycle
//! detection with weak fairness, reported as lasso counterexamples.
//!
//! The safety layer ([`crate::protocol`] + [`crate::reduce`]) proves
//! reachability properties: no reachable state violates an invariant,
//! and every *terminal* state is quiescent. This module adds the
//! temporal half — that fair executions actually *reach* quiescence —
//! as three built-in properties over the same state graph:
//!
//! * **`eventual-execution`** — every spawned task is eventually
//!   executed: no fair run keeps some task outside `{Done, Lost}`
//!   forever (`Lost` is excluded because a task lost to fail-stop
//!   recovery is a *safety* violation, already reported by
//!   [`Ctx::check_terminal`]).
//! * **`lifeline-wakeup`** — every dormant worker with a pending
//!   lifeline push eventually wakes: no fair run traps a worker in
//!   `Phase::Dormant` while work sits in its private deque, its
//!   place's shared pool, or in flight towards its place.
//! * **`steal-progress`** — no infinite steal-retry loop without
//!   intervening progress: no fair run takes failed poll / probe /
//!   sweep-visit steps infinitely often. (Successful acquisitions
//!   cannot themselves repeat forever: every acquisition makes the
//!   thief `Busy`, and a `Busy` worker's only step increments the
//!   monotone per-task `exec` counter, so acquisition/completion
//!   edges can never sit on a cycle — see `docs/analysis.md` §6.)
//!
//! # Two-phase architecture
//!
//! Checking Büchi emptiness with nested DFS costs roughly twice a
//! safety sweep *times* the fairness-automaton product. The faithful
//! model makes almost all of that avoidable: `work_visible` is
//! local-only, so a worker can only keep scanning while its own
//! place shows no work — and every transition that would hand it
//! work makes it `Busy` (frozen-footprint lemma). The faithful state
//! graph is therefore *acyclic*, and phase 1 exploits that:
//!
//! 1. **Certificate scan** — one DFS over the scenario's graph in the
//!    requested [`Mode`] (raw or canonical keys, ample sets with the
//!    C3 stack proviso — the same graph the safety engine walks). If
//!    no back-edge exists, the graph is a DAG: the only infinite
//!    runs are *stutter extensions* of maximal finite runs, so each
//!    property reduces to a predicate on the stutter-eligible states
//!    (states with no fair transition). Cost ≈ one safety sweep.
//! 2. **Fairness-product NDFS** — only when phase 1 finds a cycle
//!    (in practice: livelock mutants). A
//!    Courcoubetis–Vardi–Wolper nested DFS over the state graph
//!    crossed with a weak-fairness *token* automaton, always in full
//!    (unreduced, raw-key) mode: the token tracks concrete worker
//!    identities, which symmetry canonicalization would scramble,
//!    and livelock-mutant graphs are small enough that reduction
//!    buys nothing.
//!
//! # Fairness encoding
//!
//! Agents are the workers (slots `1..=W`) plus the delivery network
//! (slot `W+1`); fault injections (kill, restart, ghost-copy
//! arrival) and stutter are *environment* steps carrying no fairness
//! obligation — the properties must hold even if the adversary never
//! acts. Weak fairness per agent is folded into the acceptance
//! condition with the classic token construction (Choueka's flag
//! argument, as in SPIN): the product state carries a token cycling
//! through the agents; the token leaves agent `j` when `j` steps or
//! is disabled, and acceptance requires the token's round-trip
//! (token = 0), so any accepting cycle gives every continuously
//! enabled agent infinitely many steps. States with no fair
//! transition get an explicit stutter self-loop — standard LTL
//! semantics for maximal finite runs, which also turns a deadlock
//! with work left behind into a (trivially fair) accepting cycle.
//!
//! A violation is reported as a **lasso**: a stem of readable
//! transition names from the initial state, then the repeating
//! cycle. Surface: `repro check liveness` and the livelock half of
//! `repro check mutants`.

use crate::canon::{self, Key};
use crate::protocol::{
    init_state, Agent, Ctx, LSucc, ProtocolMutant, ProtocolScenario, State, StepTag,
};
use crate::reduce::{FxBuild, Mode};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A built-in temporal property. Names double as the `catch_property`
/// vocabulary in [`ProtocolMutant`] and the `repro` CLI surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Every spawned task is eventually executed.
    EventualExecution,
    /// Every dormant worker with a pending lifeline push eventually
    /// wakes.
    LifelineWakeup,
    /// No infinite steal-retry loop without intervening progress.
    StealProgress,
}

impl Property {
    pub const ALL: [Property; 3] = [
        Property::EventualExecution,
        Property::LifelineWakeup,
        Property::StealProgress,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Property::EventualExecution => "eventual-execution",
            Property::LifelineWakeup => "lifeline-wakeup",
            Property::StealProgress => "steal-progress",
        }
    }

    /// The property written as a TLA+ temporal formula, as
    /// `repro check --list` prints it.
    pub fn formula(self) -> &'static str {
        match self {
            Property::EventualExecution => "\\A t \\in TaskIds : <>(tstate[t] = \"done\")",
            Property::LifelineWakeup => {
                "\\A w \\in WorkerIds : (Dormant(w) /\\ PendingPush(w)) ~> ~Dormant(w)"
            }
            Property::StealProgress => "([]<> StealRetry) => ([]<> Progress)",
        }
    }
}

/// A counterexample to a liveness property: a finite stem from the
/// initial state followed by a cycle repeated forever, both in
/// readable transition names.
#[derive(Debug, Clone)]
pub struct Lasso {
    pub stem: Vec<String>,
    pub cycle: Vec<String>,
}

/// Verdict and exploration statistics for one property on one
/// scenario/mutant pair.
#[derive(Debug, Clone)]
pub struct LivenessReport {
    pub property: Property,
    /// `true` when no fair accepting cycle exists.
    pub holds: bool,
    /// Present exactly when `holds` is false (unless truncated).
    pub lasso: Option<Lasso>,
    /// States visited by the phase-1 certificate scan (partial if a
    /// back-edge aborted it early).
    pub graph_states: u64,
    /// Transitions traversed by the phase-1 certificate scan.
    pub graph_transitions: u64,
    /// Whether phase 1 found a back-edge (forcing the NDFS).
    pub cyclic: bool,
    /// Fairness-product states explored by the NDFS (0 on the
    /// acyclic fast path).
    pub product_states: u64,
    /// The state cap fired; the verdict only covers the explored
    /// prefix.
    pub truncated: bool,
}

/// Check all three properties on one scenario, optionally under a
/// seeded mutant. `mode` selects the phase-1 graph (the NDFS, when
/// needed, always runs full); `cap` bounds stored states in either
/// phase.
pub fn check_liveness(
    sc: &ProtocolScenario,
    mutant: Option<ProtocolMutant>,
    mode: Mode,
    cap: Option<u64>,
) -> Vec<LivenessReport> {
    let ctx = Ctx { sc, mutant };
    let cert = certificate_scan(&ctx, mode, cap);
    Property::ALL
        .iter()
        .map(|&property| {
            let base = LivenessReport {
                property,
                holds: true,
                lasso: None,
                graph_states: cert.states,
                graph_transitions: cert.transitions,
                cyclic: cert.cyclic,
                product_states: 0,
                truncated: cert.truncated,
            };
            if cert.truncated {
                return base;
            }
            if !cert.cyclic {
                // Acyclic certificate: the only infinite runs are
                // stutter extensions, so the property fails iff some
                // stutter-eligible state satisfies its bad
                // predicate. Stutter steps are never retries, so
                // `steal-progress` holds outright.
                let stem = match property {
                    Property::EventualExecution => &cert.stutter_stem[0],
                    Property::LifelineWakeup => &cert.stutter_stem[1],
                    Property::StealProgress => &None,
                };
                return match stem {
                    Some(tags) => LivenessReport {
                        holds: false,
                        lasso: Some(Lasso {
                            stem: tags.iter().map(|t| t.render()).collect(),
                            cycle: vec![StepTag::Stutter.render()],
                        }),
                        ..base
                    },
                    None => base,
                };
            }
            let (holds, lasso, product_states, truncated) = ndfs(&ctx, property, cap);
            LivenessReport {
                holds,
                lasso,
                product_states,
                truncated,
                ..base
            }
        })
        .collect()
}

/// Phase-1 result: acyclicity certificate plus, per predicate
/// property, the stem to the first stutter-eligible state whose bad
/// predicate holds (`[0]` = eventual-execution, `[1]` =
/// lifeline-wakeup).
struct Cert {
    cyclic: bool,
    states: u64,
    transitions: u64,
    stutter_stem: [Option<Vec<StepTag>>; 2],
    truncated: bool,
}

/// One DFS over the scenario graph in `mode`, mirroring the safety
/// engine's reduction choices (ample nomination via
/// [`Ctx::ample_labeled`], C3 on-stack proviso), looking for a
/// back-edge and for bad stutter-eligible states. Aborts on the
/// first back-edge: phase 2 re-derives everything it needs.
fn certificate_scan(ctx: &Ctx, mode: Mode, cap: Option<u64>) -> Cert {
    let canonizer = canon::Canonizer::new(ctx.sc);
    let key_of = |s: &State| -> Key {
        match mode {
            Mode::Full => canon::raw_key(ctx.sc, s),
            Mode::Reduced => canonizer.key(ctx.sc, s),
        }
    };
    let mut scratch = BTreeSet::new();

    struct Frame {
        key: Key,
        succs: Vec<LSucc>,
        /// Successor indices still to explore (ample pick or all).
        order: Vec<usize>,
        next: usize,
        via: Option<StepTag>,
    }

    let mut cert = Cert {
        cyclic: false,
        states: 0,
        transitions: 0,
        stutter_stem: [None, None],
        truncated: false,
    };
    let mut seen: HashSet<Key, FxBuild> = HashSet::default();
    let mut cyan: HashSet<Key, FxBuild> = HashSet::default();
    let mut stack: Vec<Frame> = Vec::new();

    let enter = |s: State,
                 via: Option<StepTag>,
                 cert: &mut Cert,
                 seen: &mut HashSet<Key, FxBuild>,
                 cyan: &mut HashSet<Key, FxBuild>,
                 stack: &mut Vec<Frame>,
                 scratch: &mut BTreeSet<String>| {
        let key = key_of(&s);
        cert.states += 1;
        seen.insert(key);
        cyan.insert(key);
        let succs = ctx.successors_labeled(&s, scratch);
        scratch.clear();
        // Stutter eligibility: no fair (non-environment) transition.
        if !succs.iter().any(|l| l.tag.agent() != Agent::Env) {
            let stem = || {
                let mut tags: Vec<StepTag> = stack.iter().filter_map(|f| f.via).collect();
                tags.extend(via);
                tags
            };
            if cert.stutter_stem[0].is_none() && ctx.unfinished_task(&s).is_some() {
                cert.stutter_stem[0] = Some(stem());
            }
            if cert.stutter_stem[1].is_none() && ctx.lost_wakeup(&s).is_some() {
                cert.stutter_stem[1] = Some(stem());
            }
        }
        // Ample nomination with the C3 stack proviso: a nominated
        // singleton whose target closes a cycle forces full
        // expansion, exactly as in `reduce::explore_system`.
        let ample = if succs.is_empty() {
            None
        } else {
            ctx.ample_labeled(&s, &succs)
        };
        let order: Vec<usize> = match ample {
            Some(i) if !cyan.contains(&key_of(&succs[i].state)) => vec![i],
            _ => (0..succs.len()).collect(),
        };
        stack.push(Frame {
            key,
            succs,
            order,
            next: 0,
            via,
        });
    };

    enter(
        init_state(ctx.sc),
        None,
        &mut cert,
        &mut seen,
        &mut cyan,
        &mut stack,
        &mut scratch,
    );

    while let Some(top) = stack.last_mut() {
        if top.next >= top.order.len() {
            cyan.remove(&top.key);
            stack.pop();
            continue;
        }
        let i = top.order[top.next];
        top.next += 1;
        cert.transitions += 1;
        let child = top.succs[i].state.clone();
        let via = top.succs[i].tag;
        let ckey = key_of(&child);
        if cyan.contains(&ckey) {
            cert.cyclic = true;
            return cert;
        }
        if seen.contains(&ckey) {
            continue;
        }
        if let Some(c) = cap {
            if cert.states >= c {
                cert.truncated = true;
                return cert;
            }
        }
        enter(
            child,
            Some(via),
            &mut cert,
            &mut seen,
            &mut cyan,
            &mut stack,
            &mut scratch,
        );
    }
    cert
}

/// Fairness-token product state identity: scenario key plus packed
/// token (low 7 bits) and steal-retry flag (bit 7).
type PKey = (Key, u8);

fn pack(tok: u8, flag: bool) -> u8 {
    debug_assert!(tok < 0x80);
    tok | ((flag as u8) << 7)
}

/// The fairness slot a transition credits: workers are `1..=W`, the
/// delivery network is `W+1` (= `k`), environment steps credit
/// nobody.
fn slot_of(tag: StepTag, k: u8) -> Option<u8> {
    match tag.agent() {
        Agent::Worker(w) => Some(w + 1),
        Agent::Net => Some(k),
        Agent::Env => None,
    }
}

/// Advance the weak-fairness token across one transition. At 0 the
/// token starts a new round at agent 1; it passes agent `j` when `j`
/// is the stepping agent or is disabled in the source state, and
/// wraps to 0 after agent `k`. Any cycle that returns the token to 0
/// therefore gives every continuously enabled agent a step.
fn advance(tok: u8, taken: Option<u8>, enabled: u32, k: u8) -> u8 {
    let mut j = if tok == 0 { 1 } else { tok };
    for _ in 0..k {
        if j == 0 || !(taken == Some(j) || enabled & (1u32 << j) == 0) {
            break;
        }
        j = if j == k { 0 } else { j + 1 };
    }
    j
}

fn accept(ctx: &Ctx, prop: Property, s: &State, tok: u8, flag: bool) -> bool {
    tok == 0
        && match prop {
            Property::EventualExecution => ctx.unfinished_task(s).is_some(),
            Property::LifelineWakeup => ctx.lost_wakeup(s).is_some(),
            Property::StealProgress => flag,
        }
}

/// Product successor: state, token, flag, and the base transition's
/// tag (stutter self-loops synthesized for states with no fair
/// transition).
type PSucc = (State, u8, bool, StepTag);

fn product_succs(
    ctx: &Ctx,
    prop: Property,
    s: &State,
    tok: u8,
    flag: bool,
    k: u8,
    scratch: &mut BTreeSet<String>,
) -> Vec<PSucc> {
    let base = ctx.successors_labeled(s, scratch);
    scratch.clear();
    let mut enabled = 0u32;
    for l in &base {
        if let Some(j) = slot_of(l.tag, k) {
            enabled |= 1 << j;
        }
    }
    let acc = accept(ctx, prop, s, tok, flag);
    // Leaving an accept state resets the steal-retry flag (the
    // degeneralization step): an accepting cycle must then re-set it,
    // i.e. contain a fresh retry.
    let carried = if acc { false } else { flag };
    let mut out: Vec<PSucc> = base
        .into_iter()
        .map(|l| {
            let tok2 = advance(tok, slot_of(l.tag, k), enabled, k);
            let flag2 = match prop {
                Property::StealProgress => carried || l.tag.is_retry(),
                _ => false,
            };
            (l.state, tok2, flag2, l.tag)
        })
        .collect();
    if enabled == 0 {
        // No fair transition: stutter extension. Every agent is
        // disabled, so the token free-wheels to 0 and stays there.
        let flag2 = match prop {
            Property::StealProgress => carried,
            _ => false,
        };
        out.push((s.clone(), advance(tok, None, 0, k), flag2, StepTag::Stutter));
    }
    out
}

struct NFrame {
    state: State,
    tok: u8,
    flag: bool,
    key: PKey,
    succs: Vec<PSucc>,
    next: usize,
    via: Option<StepTag>,
}

const CYAN: u8 = 1;
const BLUE: u8 = 2;
const RED: u8 = 3;

/// Nested DFS (Courcoubetis–Vardi–Wolper, with the all-blue shortcut
/// and report-on-cyan improvements) for a fair accepting cycle of
/// `prop` over the full (raw-key, unreduced) fairness product.
/// Returns `(holds, lasso, product_states, truncated)`.
fn ndfs(ctx: &Ctx, prop: Property, cap: Option<u64>) -> (bool, Option<Lasso>, u64, bool) {
    let k = ctx.workers() as u8 + 1;
    let mut scratch = BTreeSet::new();
    let mut colors: HashMap<PKey, u8, FxBuild> = HashMap::default();
    let mut stack: Vec<NFrame> = Vec::new();

    let push = |state: State,
                tok: u8,
                flag: bool,
                key: PKey,
                via: Option<StepTag>,
                colors: &mut HashMap<PKey, u8, FxBuild>,
                stack: &mut Vec<NFrame>,
                scratch: &mut BTreeSet<String>| {
        colors.insert(key, CYAN);
        let succs = product_succs(ctx, prop, &state, tok, flag, k, scratch);
        stack.push(NFrame {
            state,
            tok,
            flag,
            key,
            succs,
            next: 0,
            via,
        });
    };

    let init = init_state(ctx.sc);
    let ikey = (canon::raw_key(ctx.sc, &init), pack(0, false));
    push(
        init,
        0,
        false,
        ikey,
        None,
        &mut colors,
        &mut stack,
        &mut scratch,
    );

    // Lasso stem/cycle reconstruction from the blue stack, the red
    // stack, and the closing edge into a cyan (on-blue-stack) state.
    let build_lasso = |blue: &[NFrame], red: &[NFrame], closing: (PKey, StepTag)| -> Lasso {
        let (ckey, ctag) = closing;
        let at = blue
            .iter()
            .position(|f| f.key == ckey)
            .expect("cyan state must be on the blue stack");
        let stem = blue[1..=at]
            .iter()
            .filter_map(|f| f.via)
            .collect::<Vec<_>>();
        let mut cycle: Vec<StepTag> = blue[at + 1..].iter().filter_map(|f| f.via).collect();
        cycle.extend(red.iter().skip(1).filter_map(|f| f.via));
        cycle.push(ctag);
        Lasso {
            stem: stem.into_iter().map(|t| t.render()).collect(),
            cycle: cycle.into_iter().map(|t| t.render()).collect(),
        }
    };

    while let Some(top) = stack.last() {
        if top.next < top.succs.len() {
            let i = top.next;
            stack.last_mut().expect("non-empty").next += 1;
            let top = stack.last().expect("non-empty");
            let (cs, ct, cf, tag) = top.succs[i].clone();
            let ckey = (canon::raw_key(ctx.sc, &cs), pack(ct, cf));
            match colors.get(&ckey).copied() {
                None => {
                    if let Some(c) = cap {
                        if colors.len() as u64 >= c {
                            return (true, None, colors.len() as u64, true);
                        }
                    }
                    push(
                        cs,
                        ct,
                        cf,
                        ckey,
                        Some(tag),
                        &mut colors,
                        &mut stack,
                        &mut scratch,
                    );
                }
                Some(CYAN) => {
                    // All-blue shortcut: an edge back into the DFS
                    // stack closes an accepting cycle if either end
                    // accepts.
                    let child_acc = {
                        let at = stack.iter().position(|f| f.key == ckey);
                        match at {
                            Some(at) => {
                                accept(ctx, prop, &stack[at].state, stack[at].tok, stack[at].flag)
                            }
                            None => false,
                        }
                    };
                    let top_acc = accept(ctx, prop, &top.state, top.tok, top.flag);
                    if child_acc || top_acc {
                        let lasso = build_lasso(&stack, &[], (ckey, tag));
                        return (false, Some(lasso), colors.len() as u64, false);
                    }
                }
                _ => {}
            }
            continue;
        }
        // Post-order: red search from accepting states.
        let seed_acc = accept(ctx, prop, &top.state, top.tok, top.flag);
        if seed_acc {
            let mut red: Vec<NFrame> = Vec::new();
            let seed = stack.last().expect("non-empty");
            red.push(NFrame {
                state: seed.state.clone(),
                tok: seed.tok,
                flag: seed.flag,
                key: seed.key,
                succs: product_succs(ctx, prop, &seed.state, seed.tok, seed.flag, k, &mut scratch),
                next: 0,
                via: None,
            });
            while let Some(rt) = red.last_mut() {
                if rt.next >= rt.succs.len() {
                    red.pop();
                    continue;
                }
                let (cs, ct, cf, tag) = rt.succs[rt.next].clone();
                rt.next += 1;
                let ckey = (canon::raw_key(ctx.sc, &cs), pack(ct, cf));
                match colors.get(&ckey).copied() {
                    Some(CYAN) => {
                        // A cyan state is an ancestor of the seed on
                        // the blue stack: red path (seed → here) plus
                        // blue path (here → seed) closes a cycle
                        // through the accepting seed.
                        let lasso = build_lasso(&stack, &red, (ckey, tag));
                        return (false, Some(lasso), colors.len() as u64, false);
                    }
                    Some(BLUE) => {
                        colors.insert(ckey, RED);
                        let succs = product_succs(ctx, prop, &cs, ct, cf, k, &mut scratch);
                        red.push(NFrame {
                            state: cs,
                            tok: ct,
                            flag: cf,
                            key: ckey,
                            succs,
                            next: 0,
                            via: Some(tag),
                        });
                    }
                    _ => {} // RED: proven cycle-free; skip.
                }
            }
        }
        let top = stack.pop().expect("non-empty");
        colors.insert(top.key, BLUE);
    }
    (true, None, colors.len() as u64, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::builtin_scenarios;

    fn scenario(name: &str) -> ProtocolScenario {
        builtin_scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown scenario {name}"))
    }

    /// Every faithful (non-scale) scenario satisfies all three
    /// properties via the acyclic fast path — including the fault
    /// scenarios: a kill must not break progress for survivors.
    #[test]
    fn faithful_scenarios_satisfy_all_properties() {
        for sc in builtin_scenarios().iter().filter(|s| s.full_ok) {
            let reports = check_liveness(sc, None, Mode::Reduced, None);
            for r in &reports {
                assert!(
                    r.holds,
                    "{}: {} violated: {:?}",
                    sc.name,
                    r.property.name(),
                    r.lasso
                );
                assert!(!r.cyclic, "{}: faithful graph must be acyclic", sc.name);
                assert!(!r.truncated);
                assert!(r.graph_states > 0 && r.graph_transitions > 0);
            }
        }
    }

    /// Reduced and full phase-1 graphs agree on every verdict
    /// (the `--full --compare` cross-check, in-tree).
    #[test]
    fn reduced_and_full_verdicts_agree() {
        for sc in builtin_scenarios().iter().filter(|s| s.full_ok) {
            let red = check_liveness(sc, None, Mode::Reduced, None);
            let full = check_liveness(sc, None, Mode::Full, None);
            for (r, f) in red.iter().zip(&full) {
                assert_eq!(r.property, f.property);
                assert_eq!(
                    r.holds,
                    f.holds,
                    "{}: {} verdict differs reduced vs full",
                    sc.name,
                    r.property.name()
                );
                assert_eq!(r.cyclic, f.cyclic, "{}: cyclicity differs", sc.name);
            }
        }
    }

    /// Every livelock mutant is caught by its designated property
    /// with a concrete stem+cycle lasso on its catch scenario.
    #[test]
    fn livelock_mutants_are_caught_with_lassos() {
        for m in ProtocolMutant::ALL {
            if !m.is_livelock() {
                continue;
            }
            let sc = scenario(m.catch_scenario());
            let reports = check_liveness(&sc, Some(m), Mode::Full, None);
            let r = reports
                .iter()
                .find(|r| r.property.name() == m.catch_property())
                .expect("designated property is a liveness property");
            assert!(
                !r.holds,
                "{} must violate {} on {}",
                m.name(),
                m.catch_property(),
                sc.name
            );
            let lasso = r.lasso.as_ref().expect("violation carries a lasso");
            assert!(
                !lasso.cycle.is_empty(),
                "{}: lasso cycle must be non-empty",
                m.name()
            );
            for step in lasso.stem.iter().chain(&lasso.cycle) {
                assert!(!step.is_empty());
            }
        }
    }

    /// The pure-livelock mutants are invisible to the safety checker
    /// — the whole reason the liveness layer exists. (The lost-wakeup
    /// mutant deadlocks with work parked, which safety also flags as
    /// a stuck terminal.)
    #[test]
    fn spin_livelocks_are_safety_clean() {
        for m in [
            ProtocolMutant::ReprobeNoBackoff,
            ProtocolMutant::RetryBudgetIgnored,
            ProtocolMutant::RestartReparkLoop,
        ] {
            let sc = scenario(m.catch_scenario());
            let outcome = crate::protocol::explore_protocol(&sc, Some(m));
            assert!(
                outcome.violations.is_empty(),
                "{} should evade safety but was flagged: {:?}",
                m.name(),
                outcome.violations
            );
        }
    }

    /// The fairness token rejects spurious cycles: a livelock mutant
    /// graph is cyclic, but unfair cycles (e.g. one worker spinning
    /// while another could still complete work) must not be reported
    /// for properties whose bad predicate they don't sustain fairly.
    /// `reprobe-no-backoff` spins *after* all work completes, so
    /// `eventual-execution` and `lifeline-wakeup` still hold even
    /// though the graph has accepting-shaped churn for progress.
    #[test]
    fn fairness_filters_spurious_violations() {
        let m = ProtocolMutant::ReprobeNoBackoff;
        let sc = scenario(m.catch_scenario());
        let reports = check_liveness(&sc, Some(m), Mode::Full, None);
        for r in &reports {
            assert!(r.cyclic, "mutant graph should be cyclic");
            match r.property {
                Property::StealProgress => assert!(!r.holds),
                _ => assert!(
                    r.holds,
                    "{} spuriously violated by a pure spin mutant: {:?}",
                    r.property.name(),
                    r.lasso
                ),
            }
        }
    }

    #[test]
    fn token_advance_round_trips() {
        // 2 workers + net: k = 3. All enabled, agent 1 steps from 0.
        let en = 0b1110u32;
        assert_eq!(advance(0, Some(1), en, 3), 2);
        // Token waits for an agent that doesn't step.
        assert_eq!(advance(2, Some(1), en, 3), 2);
        // Stepping agent carries the token past it.
        assert_eq!(advance(2, Some(2), en, 3), 3);
        assert_eq!(advance(3, Some(3), en, 3), 0);
        // Disabled agents are skipped (weak fairness).
        assert_eq!(advance(2, None, 0b0010, 3), 0);
        // Everything disabled: free-wheel to 0 in one step.
        assert_eq!(advance(0, None, 0, 3), 0);
        assert_eq!(advance(2, None, 0, 3), 0);
    }
}
