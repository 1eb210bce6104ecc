//! # distws-analyze
//!
//! The correctness-tooling layer: std-only analysis passes that turn
//! the reproduction's implicit invariants (seeded-RNG discipline,
//! deterministic output ordering, causally-ordered traces, a sound
//! Algorithm 1) into machine-checked ones. The deques are checked
//! where they live: `distws-deque`'s tests run the shipped Chase–Lev
//! and shared-FIFO code under a preemption-bounded schedule explorer.
//!
//! * [`lint`] — a token-level determinism lint over the workspace's
//!   `src/` trees (string/comment-aware hand-rolled lexer, seven
//!   rules, per-file `// distws-lint: allow(rule)` pragmas). Surface:
//!   `repro lint`.
//! * [`hb`] — a vector-clock happens-before validator over
//!   `distws-trace` JSONL runs: spawn ≺ execution, migration ≺ remote
//!   execution, execution ≺ finish-latch release, exactly-once per
//!   task id, per-worker monotonic time. Surface: `repro check hb`,
//!   plus the fault property tests and the chaos sweep.
//! * [`protocol`] — an explicit-state model checker for Algorithm 1
//!   itself: task mapping, the five-tier steal order with the line 19
//!   re-probe, chunk sizes, migration wrapping and finish-latch
//!   termination, explored over every schedule of small place/worker/
//!   task configurations, with optional fault transitions (drop, dup,
//!   fail-stop kill, restart), cluster-era recovery transitions
//!   (incarnation epochs, custody polls, disown fences mirroring
//!   `distws-cluster`) and seeded protocol mutants that the checker
//!   must catch. Surface: `repro check protocol` and
//!   `repro check mutants`.
//! * [`liveness`] — temporal checking over the same protocol graph:
//!   a nested-DFS accepting-cycle detector with weak fairness on
//!   workers and message delivery, checking eventual task execution,
//!   lifeline wakeup, and steal-retry progress, with lasso (stem +
//!   cycle) counterexamples for the seeded livelock mutants. Surface:
//!   `repro check liveness` and the liveness half of
//!   `repro check mutants`.
//! * [`reduce`] — the shared memoized-DFS exploration engine with
//!   ample-set partial-order reduction (visited-proviso cycle guard),
//!   used by [`protocol`].
//! * [`canon`] — symmetry canonicalization (place/task orbit
//!   representatives) and compact bit-packed state keys for the
//!   protocol model's reduced mode.
//! * [`conform`] — a steal-order conformance pass that replays real
//!   `*.trace.jsonl` streams against the Algorithm 1 automaton: tier
//!   monotonicity per worker round, success justification by prior
//!   failed attempts, the line 19 re-probe between remote attempts,
//!   and the per-policy remote chunk bound. Surface: `repro conform`,
//!   plus `repro trace` and `repro chaos --validate`.
//!
//! All passes are deterministic: same input, same report, byte for
//! byte — the tooling obeys the invariants it enforces.

#![forbid(unsafe_code)]

pub mod canon;
pub mod conform;
pub mod hb;
pub mod lexer;
pub mod lint;
pub mod liveness;
pub mod protocol;
pub mod reduce;

pub use conform::{conform_lines, conform_str, ConformConfig, ConformReport, ConformViolation};
pub use hb::{validate_lines, validate_str, HbReport, HbViolation};
pub use lint::{lint_source, lint_workspace, Rule, Violation};
pub use liveness::{check_liveness, Lasso, LivenessReport, Property};
pub use protocol::{
    builtin_scenarios as protocol_scenarios, check_protocol_all, check_protocol_mutants, era_name,
    explore_protocol, explore_protocol_mode, scenario_by_name, Era, ModelFaults, ModelTask,
    MutantCheck, ProtocolMutant, ProtocolScenario,
};
pub use reduce::{ExploreStats, Mode, Outcome};
