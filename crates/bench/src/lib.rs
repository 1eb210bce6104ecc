//! # distws-bench
//!
//! The experiment harness: one function per table/figure of the
//! paper's evaluation (§VII–§X), each returning machine-readable rows.
//! The `repro` binary prints them as the paper formats them, and
//! EXPERIMENTS.md is generated from these results. [`perf`] is the
//! deterministic perf trajectory (`repro bench`); [`scale`] holds its
//! cluster-scale workload.
//!
//! | function | paper artifact |
//! |---|---|
//! | [`fig3_steal_ratio`] | Fig. 3 — steals-to-task ratio |
//! | [`fig4_sequential`] | Fig. 4 — sequential execution times |
//! | [`fig5_speedups`] | Fig. 5 — speedup vs workers, X10WS vs DistWS |
//! | [`fig6_three_way`] | Fig. 6 — X10WS vs DistWS-NS vs DistWS at 128 workers |
//! | [`fig7_utilization`] | Fig. 7 — per-node CPU utilization |
//! | [`table1_granularity`] | Table I — task granularities |
//! | [`table2_cache`] | Table II — L1d miss rates |
//! | [`table3_messages`] | Table III — messages across nodes |
//! | [`granularity_study`] | §VIII.2 — micro-app study |
//! | [`uts_study`] | §X — UTS vs random/lifeline stealing |
//! | [`ablation_chunk`] | §V.B.3 — remote chunk size |
//! | [`ablation_mapping_rule`] | Alg. 1 line 5 — idle/under-utilized rule |
//! | [`ablation_victim_order`] | footnote 2 — ring victim ordering |

#![forbid(unsafe_code)]

pub mod checkjson;
pub mod perf;
pub mod scale;

use distws_apps as apps;
use distws_core::{ClusterConfig, RunReport, Workload};
use distws_json::impl_to_json;
use distws_netsim::Topology;
use distws_sched::{
    AdaptiveWs, DistWs, DistWsNs, LifelineWs, Policy, RandomWs, VictimOrder, X10Ws,
};
use distws_sim::{FaultSpec, SimConfig, Simulation};

/// Input scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny inputs — smoke and unit tests.
    Quick,
    /// Reduced default inputs — the shipped tables.
    Default,
    /// Paper-sized inputs where feasible (slow).
    Paper,
}

/// The paper's seven-application suite at a scale, paper order.
pub fn suite(scale: Scale) -> Vec<Box<dyn Workload>> {
    match scale {
        Scale::Quick => apps::quick_suite(),
        Scale::Default => apps::paper_suite(),
        Scale::Paper => vec![
            Box::new(apps::Quicksort::paper()),
            Box::new(apps::TuringRing::paper()),
            Box::new(apps::KMeans::paper()),
            Box::new(apps::Agglomerative::new(8_192, 23)),
            Box::new(apps::DelaunayGen::paper()),
            Box::new(apps::DelaunayRefine::paper()),
            Box::new(apps::NBody::paper()),
        ],
    }
}

/// Find an application of [`suite`] by (case-insensitive) name.
/// `"quicksort"`, `"Quicksort"` and `"quick"` all find Quicksort.
pub fn app_by_name(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    let want = name.to_ascii_lowercase();
    let mut apps = suite(scale);
    let idx = apps
        .iter()
        .position(|a| a.name().to_ascii_lowercase() == want)
        .or_else(|| {
            apps.iter()
                .position(|a| a.name().to_ascii_lowercase().starts_with(&want))
        })?;
    Some(apps.swap_remove(idx))
}

/// Construct a policy by (case-insensitive) display name.
pub fn policy_by_name(name: &str) -> Option<Box<dyn Policy>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "x10ws" => Box::new(X10Ws),
        "distws" => Box::new(DistWs::default()),
        "distws-ns" | "distwsns" => Box::new(DistWsNs::default()),
        "randomws" | "random" => Box::new(RandomWs),
        "lifelinews" | "lifeline" => Box::new(LifelineWs::default()),
        "adaptivews" | "adaptive" => Box::new(AdaptiveWs::default()),
        _ => return None,
    })
}

/// The paper's evaluation cluster at a scale (full scale: 16 × 8).
pub fn eval_cluster(scale: Scale) -> ClusterConfig {
    match scale {
        Scale::Quick => ClusterConfig::new(4, 2),
        _ => ClusterConfig::paper(),
    }
}

/// Worker counts of the Fig. 5 sweep at a scale.
pub fn worker_sweep(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Quick => vec![1, 2, 8, 16],
        _ => vec![1, 2, 4, 8, 16, 32, 64, 128],
    }
}

fn simulate(cluster: ClusterConfig, policy: Box<dyn Policy>, app: &dyn Workload) -> RunReport {
    Simulation::new(cluster, policy).run_app(app)
}

fn simulate_topo(
    cluster: ClusterConfig,
    policy: Box<dyn Policy>,
    app: &dyn Workload,
    topo: Topology,
) -> RunReport {
    let mut cfg = SimConfig::new(cluster);
    cfg.topology = topo;
    Simulation::with_config(cfg, policy).run_app(app)
}

// ---------------------------------------------------------------------------
// Fig. 3
// ---------------------------------------------------------------------------

/// One row of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Application name.
    pub app: String,
    /// Successful steals (all tiers) under DistWS at full scale.
    pub steals: u64,
    /// Tasks spawned.
    pub tasks: u64,
    /// Steals-to-task ratio (paper: 1e-4 .. 1e-5 territory).
    pub ratio: f64,
}

/// Fig. 3: steals-to-task ratios under DistWS on the evaluation
/// cluster.
pub fn fig3_steal_ratio(scale: Scale) -> Vec<Fig3Row> {
    suite(scale)
        .iter()
        .map(|app| {
            let r = simulate(
                eval_cluster(scale),
                Box::new(DistWs::default()),
                app.as_ref(),
            );
            Fig3Row {
                app: app.name(),
                steals: r.steals.total(),
                tasks: r.tasks_spawned,
                ratio: r.steals_to_task_ratio(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 4
// ---------------------------------------------------------------------------

/// One row of Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Application name.
    pub app: String,
    /// Sequential (1 worker, X10WS) virtual execution time in ms.
    pub seq_ms: f64,
    /// Tasks in the sequential run.
    pub tasks: u64,
}

/// Fig. 4: sequential execution time per application.
pub fn fig4_sequential(scale: Scale) -> Vec<Fig4Row> {
    suite(scale)
        .iter()
        .map(|app| {
            let r = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), app.as_ref());
            Fig4Row {
                app: app.name(),
                seq_ms: r.makespan_ns as f64 / 1e6,
                tasks: r.tasks_spawned,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 5
// ---------------------------------------------------------------------------

/// One (app, workers, scheduler) point of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Application name.
    pub app: String,
    /// Total workers (places × 8 above 8).
    pub workers: u32,
    /// Scheduler name.
    pub scheduler: String,
    /// Speedup over the 1-worker sequential run.
    pub speedup: f64,
    /// Makespan in ms.
    pub makespan_ms: f64,
}

/// Fig. 5: speedups of X10WS and DistWS across the worker sweep.
pub fn fig5_speedups(scale: Scale) -> Vec<Fig5Point> {
    let mut out = Vec::new();
    for app in suite(scale) {
        let seq = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), app.as_ref());
        let seq_ns = seq.makespan_ns;
        for &w in &worker_sweep(scale) {
            let cluster = ClusterConfig::for_total_workers(w);
            for policy in [
                Box::new(X10Ws) as Box<dyn Policy>,
                Box::new(DistWs::default()) as Box<dyn Policy>,
            ] {
                let name = policy.name().to_string();
                let r = simulate(cluster.clone(), policy, app.as_ref());
                out.push(Fig5Point {
                    app: app.name(),
                    workers: w,
                    scheduler: name,
                    speedup: r.speedup_vs(seq_ns),
                    makespan_ms: r.makespan_ns as f64 / 1e6,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 6 / Tables II & III (shared three-way runs)
// ---------------------------------------------------------------------------

/// One (app, scheduler) row of the 128-worker three-way comparison,
/// feeding Fig. 6 (speedups), Table II (miss rates) and Table III
/// (messages).
#[derive(Debug, Clone)]
pub struct ThreeWayRow {
    /// Application name.
    pub app: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Speedup over sequential.
    pub speedup: f64,
    /// L1d miss rate in percent.
    pub l1d_miss_pct: f64,
    /// Messages transmitted across nodes.
    pub messages: u64,
    /// Remote data references.
    pub remote_refs: u64,
}

/// The three-way comparison on the evaluation cluster.
pub fn three_way(scale: Scale) -> Vec<ThreeWayRow> {
    let mut out = Vec::new();
    for app in suite(scale) {
        let seq = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), app.as_ref());
        for policy in [
            Box::new(X10Ws) as Box<dyn Policy>,
            Box::new(DistWsNs::default()) as Box<dyn Policy>,
            Box::new(DistWs::default()) as Box<dyn Policy>,
        ] {
            let name = policy.name().to_string();
            let r = simulate(eval_cluster(scale), policy, app.as_ref());
            out.push(ThreeWayRow {
                app: app.name(),
                scheduler: name,
                speedup: r.speedup_vs(seq.makespan_ns),
                l1d_miss_pct: r.cache.miss_rate_pct(),
                messages: r.messages.total(),
                remote_refs: r.remote_refs,
            });
        }
    }
    out
}

/// Fig. 6 view of [`three_way`].
pub fn fig6_three_way(scale: Scale) -> Vec<ThreeWayRow> {
    three_way(scale)
}

/// Table II view of [`three_way`].
pub fn table2_cache(scale: Scale) -> Vec<ThreeWayRow> {
    three_way(scale)
}

/// Table III view of [`three_way`].
pub fn table3_messages(scale: Scale) -> Vec<ThreeWayRow> {
    three_way(scale)
}

// ---------------------------------------------------------------------------
// Fig. 7
// ---------------------------------------------------------------------------

/// One (app, scheduler) utilization line of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Application name.
    pub app: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Average CPU utilization per place, in percent.
    pub per_place_pct: Vec<f64>,
    /// Max − min utilization (the paper's "disparity", ~35 % X10WS).
    pub disparity_pct: f64,
    /// Mean utilization.
    pub mean_pct: f64,
}

/// Fig. 7: per-node CPU utilization under X10WS, DistWS-NS and DistWS.
pub fn fig7_utilization(scale: Scale) -> Vec<Fig7Row> {
    let mut out = Vec::new();
    for app in suite(scale) {
        for policy in [
            Box::new(X10Ws) as Box<dyn Policy>,
            Box::new(DistWsNs::default()) as Box<dyn Policy>,
            Box::new(DistWs::default()) as Box<dyn Policy>,
        ] {
            let name = policy.name().to_string();
            let r = simulate(eval_cluster(scale), policy, app.as_ref());
            out.push(Fig7Row {
                app: app.name(),
                scheduler: name,
                per_place_pct: r.utilization.per_place.iter().map(|u| u * 100.0).collect(),
                disparity_pct: r.utilization.disparity() * 100.0,
                mean_pct: r.utilization.mean() * 100.0,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application name.
    pub app: String,
    /// Mean task granularity in ms.
    pub granularity_ms: f64,
    /// Tasks in the run.
    pub tasks: u64,
}

/// Table I: mean task granularities (from the sequential run: total
/// compute / tasks).
pub fn table1_granularity(scale: Scale) -> Vec<Table1Row> {
    suite(scale)
        .iter()
        .map(|app| {
            let r = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), app.as_ref());
            Table1Row {
                app: app.name(),
                granularity_ms: r.mean_task_granularity_ns() / 1e6,
                tasks: r.tasks_executed,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §VIII.2 granularity study
// ---------------------------------------------------------------------------

/// One (micro-app, scheduler) row of the granularity study.
#[derive(Debug, Clone)]
pub struct GranularityRow {
    /// Micro-application name.
    pub app: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Mean task granularity in ms.
    pub granularity_ms: f64,
    /// Speedup over sequential.
    pub speedup: f64,
}

/// §VIII.2: the five fine-grained micro-apps under X10WS vs DistWS —
/// the paper's evidence that only coarse tasks are worth stealing
/// remotely.
pub fn granularity_study(scale: Scale) -> Vec<GranularityRow> {
    let mut out = Vec::new();
    for app in apps::micro::micro_suite() {
        let seq = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), app.as_ref());
        for policy in [
            Box::new(X10Ws) as Box<dyn Policy>,
            Box::new(DistWs::default()) as Box<dyn Policy>,
        ] {
            let name = policy.name().to_string();
            let r = simulate(eval_cluster(scale), policy, app.as_ref());
            out.push(GranularityRow {
                app: app.name(),
                scheduler: name,
                granularity_ms: seq.mean_task_granularity_ns() / 1e6,
                speedup: r.speedup_vs(seq.makespan_ns),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// §X UTS study
// ---------------------------------------------------------------------------

/// One row of the UTS comparison.
#[derive(Debug, Clone)]
pub struct UtsRow {
    /// Scheduler name.
    pub scheduler: String,
    /// Speedup over sequential.
    pub speedup: f64,
    /// Remote steals (incl. lifeline pushes).
    pub remote_steals: u64,
}

/// §X: UTS under random stealing, DistWS, and lifeline-based load
/// balancing. Expected shape: lifeline ≥ DistWS > random.
pub fn uts_study(scale: Scale) -> Vec<UtsRow> {
    let app = match scale {
        Scale::Quick => apps::Uts::quick(),
        _ => apps::Uts::default(),
    };
    let seq = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), &app);
    [
        Box::new(RandomWs) as Box<dyn Policy>,
        Box::new(DistWs::default()) as Box<dyn Policy>,
        Box::new(LifelineWs::default()) as Box<dyn Policy>,
    ]
    .into_iter()
    .map(|policy| {
        let name = policy.name().to_string();
        let r = simulate(eval_cluster(scale), policy, &app);
        UtsRow {
            scheduler: name,
            speedup: r.speedup_vs(seq.makespan_ns),
            remote_steals: r.steals.remote,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Extension: adaptive (annotation-free) classification
// ---------------------------------------------------------------------------

/// One row of the adaptive-classification study.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Application name.
    pub app: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Speedup over sequential.
    pub speedup: f64,
    /// Remote data references (cost of misclassification).
    pub remote_refs: u64,
}

/// Extension experiment: can a profile-guided runtime recover the
/// programmer annotation's benefit? Runs the suite under X10WS,
/// annotation-driven DistWS, and annotation-free [`AdaptiveWs`].
pub fn adaptive_study(scale: Scale) -> Vec<AdaptiveRow> {
    let mut out = Vec::new();
    for app in suite(scale) {
        let seq = simulate(ClusterConfig::new(1, 1), Box::new(X10Ws), app.as_ref());
        for policy in [
            Box::new(X10Ws) as Box<dyn Policy>,
            Box::new(DistWs::default()) as Box<dyn Policy>,
            Box::new(AdaptiveWs::default()) as Box<dyn Policy>,
        ] {
            let name = policy.name().to_string();
            let r = simulate(eval_cluster(scale), policy, app.as_ref());
            out.push(AdaptiveRow {
                app: app.name(),
                scheduler: name,
                speedup: r.speedup_vs(seq.makespan_ns),
                remote_refs: r.remote_refs,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Varied parameter rendered as text.
    pub variant: String,
    /// Application name.
    pub app: String,
    /// Makespan in ms.
    pub makespan_ms: f64,
    /// Remote steals.
    pub remote_steals: u64,
}

/// §V.B.3 ablation: remote steal chunk size ∈ {1, 2, 4, 8} on DMG and
/// the Turing ring. The paper found 2 best for structured *and*
/// bursty graphs.
pub fn ablation_chunk(scale: Scale) -> Vec<AblationRow> {
    let mut out = Vec::new();
    let apps: Vec<Box<dyn Workload>> = match scale {
        Scale::Quick => vec![
            Box::new(apps::DelaunayGen::quick()),
            Box::new(apps::TuringRing::quick()),
        ],
        _ => vec![
            Box::new(apps::DelaunayGen::default()),
            Box::new(apps::TuringRing::default()),
        ],
    };
    for app in &apps {
        let variants: Vec<(String, DistWs)> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|c| (format!("chunk={c}"), DistWs::with_chunk(c)))
            .chain(std::iter::once((
                "chunk=half".to_string(),
                DistWs::steal_half(),
            )))
            .collect();
        for (label, policy) in variants {
            let r = simulate(eval_cluster(scale), Box::new(policy), app.as_ref());
            out.push(AblationRow {
                variant: label,
                app: app.name(),
                makespan_ms: r.makespan_ns as f64 / 1e6,
                remote_steals: r.steals.remote,
            });
        }
    }
    out
}

/// Algorithm 1 line 5 ablation: the idle/under-utilized private-
/// mapping rule on vs off.
pub fn ablation_mapping_rule(scale: Scale) -> Vec<AblationRow> {
    let mut out = Vec::new();
    let apps: Vec<Box<dyn Workload>> = match scale {
        Scale::Quick => vec![
            Box::new(apps::DelaunayGen::quick()),
            Box::new(apps::Uts::quick()),
        ],
        _ => vec![
            Box::new(apps::DelaunayGen::default()),
            Box::new(apps::Uts::default()),
        ],
    };
    for app in &apps {
        for (label, policy) in [
            ("rule=on", DistWs::default()),
            ("rule=off", DistWs::without_utilization_rule()),
        ] {
            let r = simulate(eval_cluster(scale), Box::new(policy), app.as_ref());
            out.push(AblationRow {
                variant: label.to_string(),
                app: app.name(),
                makespan_ms: r.makespan_ns as f64 / 1e6,
                remote_steals: r.steals.remote,
            });
        }
    }
    out
}

/// Footnote 2 ablation: victim ordering on a ring interconnect —
/// nearest-first vs random.
pub fn ablation_victim_order(scale: Scale) -> Vec<AblationRow> {
    let app: Box<dyn Workload> = match scale {
        Scale::Quick => Box::new(apps::DelaunayGen::quick()),
        _ => Box::new(apps::DelaunayGen::default()),
    };
    [
        ("victims=random", VictimOrder::Random),
        ("victims=ring-nearest", VictimOrder::NearestFirstRing),
    ]
    .into_iter()
    .map(|(label, order)| {
        let r = simulate_topo(
            eval_cluster(scale),
            Box::new(DistWs::with_victim_order(order)),
            app.as_ref(),
            Topology::Ring,
        );
        AblationRow {
            variant: label.to_string(),
            app: app.name(),
            makespan_ms: r.makespan_ns as f64 / 1e6,
            remote_steals: r.steals.remote,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Chaos sweeps (fault injection)
// ---------------------------------------------------------------------------

/// Fault-intensity levels of a chaos sweep. The spec's probabilistic
/// knobs are multiplied by each level; structural faults (kills,
/// restarts, partitions) are active at any level above zero. Level 0
/// is the fault-free baseline the other rows degrade against.
pub const CHAOS_LEVELS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// One intensity level of a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Application name.
    pub app: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Fault intensity (multiplier on the spec's probabilities).
    pub level: f64,
    /// Makespan in ms.
    pub makespan_ms: f64,
    /// Makespan degradation vs the level-0 baseline, in percent.
    pub degradation_pct: f64,
    /// Tasks executed (exactly-once: equals tasks spawned, asserted).
    pub tasks: u64,
    /// Messages lost in flight.
    pub msgs_dropped: u64,
    /// Messages duplicated in flight.
    pub msgs_duplicated: u64,
    /// Remote steal probes that timed out.
    pub steal_timeouts: u64,
    /// Backoff retries after steal timeouts.
    pub steal_retries: u64,
    /// Reliable-channel retransmissions of task-carrying messages.
    pub retransmissions: u64,
    /// Tasks re-enqueued away from failed places.
    pub tasks_recovered: u64,
    /// Migrations reclaimed by the victim after a lost payload.
    pub lease_reclaims: u64,
    /// Places that suffered a fail-stop.
    pub places_failed: u64,
}

/// Run one application under one policy across [`CHAOS_LEVELS`]
/// intensities of a fault spec. The level-0 run doubles as the
/// baseline that `%`-relative times in the spec resolve against and
/// that degradation is measured from. Every run revalidates the
/// workload and asserts spawned == executed, so each returned row is
/// also a proof of exactly-once execution at that fault level.
/// Returns `None` when the app or policy name is unknown.
pub fn chaos_sweep(
    app_name: &str,
    policy_name: &str,
    spec: &FaultSpec,
    scale: Scale,
    seed: u64,
) -> Option<Vec<ChaosRow>> {
    let cluster = eval_cluster(scale);
    let mut out = Vec::new();
    let mut baseline_ns = 0u64;
    for &level in &CHAOS_LEVELS {
        let app = app_by_name(app_name, scale)?;
        let policy = policy_by_name(policy_name)?;
        let mut cfg = SimConfig::new(cluster.clone());
        cfg.seed = seed;
        if level > 0.0 {
            cfg.faults = spec.resolve(baseline_ns, level, seed);
        }
        let r = Simulation::with_config(cfg, policy).run_app(app.as_ref());
        assert_eq!(
            r.tasks_spawned, r.tasks_executed,
            "{app_name} level {level}: a task was lost or re-executed"
        );
        if level == 0.0 {
            baseline_ns = r.makespan_ns;
        }
        let degradation_pct = if baseline_ns > 0 {
            100.0 * (r.makespan_ns as f64 / baseline_ns as f64 - 1.0)
        } else {
            0.0
        };
        out.push(ChaosRow {
            app: r.app.clone(),
            scheduler: r.scheduler.clone(),
            level,
            makespan_ms: r.makespan_ns as f64 / 1e6,
            degradation_pct,
            tasks: r.tasks_executed,
            msgs_dropped: r.faults.msgs_dropped,
            msgs_duplicated: r.faults.msgs_duplicated,
            steal_timeouts: r.faults.steal_timeouts,
            steal_retries: r.faults.steal_retries,
            retransmissions: r.faults.retransmissions,
            tasks_recovered: r.faults.tasks_recovered,
            lease_reclaims: r.faults.lease_reclaims,
            places_failed: r.faults.places_failed,
        });
    }
    Some(out)
}

/// What [`chaos_sweep_validated`] proved about the sweep's traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosValidation {
    /// Fault levels whose event streams passed the validators.
    pub levels_validated: usize,
    /// Total trace events checked across all levels.
    pub events_checked: usize,
    /// Total task lifecycles proven exactly-once and causally ordered.
    pub tasks_checked: usize,
    /// Total steal attempts replayed through the Algorithm 1
    /// steal-order automaton.
    pub steal_attempts_checked: usize,
    /// Total successful steals whose tier the automaton justified.
    pub steals_justified: usize,
}

/// Like [`chaos_sweep`], but every level runs **traced** and its JSONL
/// event stream is checked by the happens-before validator
/// (`distws-analyze`): spawn happens-before execution, migrations
/// happen-before remote execution, execution happens-before the
/// finish-latch release, and every task runs exactly once — even while
/// faults drop messages and kill places mid-run. Each level's stream
/// is additionally replayed against the Algorithm 1 steal-order
/// automaton ([`distws_analyze::conform_str`]) under the policy's
/// chunk/re-probe contract.
///
/// Tracing does not perturb the simulation (the PR 1 invariant: traced
/// and untraced runs produce byte-identical reports), so the returned
/// rows are exactly what [`chaos_sweep`] returns for the same inputs.
///
/// # Panics
/// Panics with the violation list if any level's trace breaks a
/// happens-before or exactly-once property — this is a correctness
/// assertion in the same spirit as the exactly-once `assert_eq!` in
/// the untraced sweep.
pub fn chaos_sweep_validated(
    app_name: &str,
    policy_name: &str,
    spec: &FaultSpec,
    scale: Scale,
    seed: u64,
) -> Option<(Vec<ChaosRow>, ChaosValidation)> {
    let cluster = eval_cluster(scale);
    let mut out = Vec::new();
    let mut validation = ChaosValidation {
        levels_validated: 0,
        events_checked: 0,
        tasks_checked: 0,
        steal_attempts_checked: 0,
        steals_justified: 0,
    };
    let conform_cfg = distws_analyze::ConformConfig::for_policy(policy_name)
        .unwrap_or_else(distws_analyze::ConformConfig::generic);
    let mut baseline_ns = 0u64;
    for &level in &CHAOS_LEVELS {
        let app = app_by_name(app_name, scale)?;
        let policy = policy_by_name(policy_name)?;
        let mut cfg = SimConfig::new(cluster.clone());
        cfg.seed = seed;
        if level > 0.0 {
            cfg.faults = spec.resolve(baseline_ns, level, seed);
        }
        let mut sink = distws_trace::JsonlSink::new(Vec::new());
        let (r, _) = Simulation::with_config(cfg, policy).run_app_traced(app.as_ref(), &mut sink);
        assert_eq!(
            r.tasks_spawned, r.tasks_executed,
            "{app_name} level {level}: a task was lost or re-executed"
        );
        let jsonl = String::from_utf8(sink.into_inner()).expect("trace is UTF-8");
        let hb = distws_analyze::validate_str(&jsonl);
        assert!(
            hb.ok(),
            "{app_name} level {level}: happens-before violations:\n{}",
            hb.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let conform = distws_analyze::conform_str(&jsonl, &conform_cfg);
        assert!(
            conform.ok(),
            "{app_name} level {level}: steal-order conformance violations:\n{}",
            conform
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        validation.levels_validated += 1;
        validation.events_checked += hb.events as usize;
        validation.tasks_checked += hb.tasks as usize;
        validation.steal_attempts_checked += conform.attempts as usize;
        validation.steals_justified += conform.successes as usize;
        if level == 0.0 {
            baseline_ns = r.makespan_ns;
        }
        let degradation_pct = if baseline_ns > 0 {
            100.0 * (r.makespan_ns as f64 / baseline_ns as f64 - 1.0)
        } else {
            0.0
        };
        out.push(ChaosRow {
            app: r.app.clone(),
            scheduler: r.scheduler.clone(),
            level,
            makespan_ms: r.makespan_ns as f64 / 1e6,
            degradation_pct,
            tasks: r.tasks_executed,
            msgs_dropped: r.faults.msgs_dropped,
            msgs_duplicated: r.faults.msgs_duplicated,
            steal_timeouts: r.faults.steal_timeouts,
            steal_retries: r.faults.steal_retries,
            retransmissions: r.faults.retransmissions,
            tasks_recovered: r.faults.tasks_recovered,
            lease_reclaims: r.faults.lease_reclaims,
            places_failed: r.faults.places_failed,
        });
    }
    Some((out, validation))
}

// ---------------------------------------------------------------------------
// JSON output (`repro --json DIR`)
// ---------------------------------------------------------------------------

impl_to_json!(Fig3Row {
    app,
    steals,
    tasks,
    ratio
});
impl_to_json!(Fig4Row { app, seq_ms, tasks });
impl_to_json!(Fig5Point {
    app,
    workers,
    scheduler,
    speedup,
    makespan_ms
});
impl_to_json!(ThreeWayRow {
    app,
    scheduler,
    speedup,
    l1d_miss_pct,
    messages,
    remote_refs
});
impl_to_json!(Fig7Row {
    app,
    scheduler,
    per_place_pct,
    disparity_pct,
    mean_pct
});
impl_to_json!(Table1Row {
    app,
    granularity_ms,
    tasks
});
impl_to_json!(GranularityRow {
    app,
    scheduler,
    granularity_ms,
    speedup
});
impl_to_json!(UtsRow {
    scheduler,
    speedup,
    remote_steals
});
impl_to_json!(AdaptiveRow {
    app,
    scheduler,
    speedup,
    remote_refs
});
impl_to_json!(AblationRow {
    variant,
    app,
    makespan_ms,
    remote_steals
});
impl_to_json!(ChaosRow {
    app,
    scheduler,
    level,
    makespan_ms,
    degradation_pct,
    tasks,
    msgs_dropped,
    msgs_duplicated,
    steal_timeouts,
    steal_retries,
    retransmissions,
    tasks_recovered,
    lease_reclaims,
    places_failed
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_rows_cover_the_suite() {
        let rows = fig3_steal_ratio(Scale::Quick);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.tasks > 0);
            // At quick scale tasks are few and coarse, so ratios are far
            // above the paper's 1e-4 (a task may even be re-stolen after
            // arriving in a chunk); they must still be bounded.
            assert!(
                r.ratio >= 0.0 && r.ratio < 2.0,
                "{}: ratio {}",
                r.app,
                r.ratio
            );
        }
    }

    #[test]
    fn fig5_speedup_grows_with_workers_for_distws() {
        let pts = fig5_speedups(Scale::Quick);
        // For DMG under DistWS, 16 workers must beat 1 worker.
        let dmg: Vec<&Fig5Point> = pts
            .iter()
            .filter(|p| p.app == "DMG" && p.scheduler == "DistWS")
            .collect();
        let s1 = dmg.iter().find(|p| p.workers == 1).unwrap().speedup;
        let s16 = dmg.iter().find(|p| p.workers == 16).unwrap().speedup;
        assert!(s16 > s1 * 2.0, "DMG DistWS speedup 1w={s1} 16w={s16}");
    }

    #[test]
    fn three_way_has_21_rows() {
        let rows = three_way(Scale::Quick);
        assert_eq!(rows.len(), 21);
    }

    #[test]
    fn uts_study_shapes() {
        let rows = uts_study(Scale::Quick);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.speedup > 0.5, "{}: speedup {}", r.scheduler, r.speedup);
        }
    }

    #[test]
    fn adaptive_study_runs_whole_suite() {
        let rows = adaptive_study(Scale::Quick);
        assert_eq!(rows.len(), 21);
        for r in &rows {
            assert!(
                r.speedup > 0.2,
                "{} under {}: speedup {}",
                r.app,
                r.scheduler,
                r.speedup
            );
        }
    }

    #[test]
    fn chaos_sweep_degrades_but_never_loses_tasks() {
        let spec = FaultSpec::parse("drop=0.05,kill=1@40%").unwrap();
        let rows = chaos_sweep("quicksort", "DistWS", &spec, Scale::Quick, 0x5EED).unwrap();
        assert_eq!(rows.len(), CHAOS_LEVELS.len());
        let base = &rows[0];
        assert_eq!(base.level, 0.0);
        assert_eq!(base.msgs_dropped, 0, "level 0 must be fault-free");
        assert_eq!(base.places_failed, 0);
        let full = rows.last().unwrap();
        assert!(full.msgs_dropped > 0, "5% loss must drop something");
        assert_eq!(full.places_failed, 1, "the kill fires at level 1.0");
        // Task counts may legitimately differ across levels (quicksort's
        // recursion tree depends on the order the all-to-all pieces
        // land in); exactly-once per level is asserted inside
        // chaos_sweep, and validation proves the output is sorted.
        for r in &rows {
            assert!(r.tasks > 0, "level {}: no tasks ran", r.level);
        }
    }

    #[test]
    fn chaos_sweep_is_deterministic_in_the_seed() {
        use distws_json::ToJson;
        let spec = FaultSpec::parse("drop=0.1,jitter=2us").unwrap();
        let a = chaos_sweep("k-means", "LifelineWS", &spec, Scale::Quick, 42).unwrap();
        let b = chaos_sweep("k-means", "LifelineWS", &spec, Scale::Quick, 42).unwrap();
        let render = |rows: &[ChaosRow]| {
            rows.iter()
                .map(|r| r.to_json().render())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b), "same seed, same chaos report");
    }

    #[test]
    fn ablations_run() {
        assert_eq!(ablation_chunk(Scale::Quick).len(), 10);
        assert_eq!(ablation_mapping_rule(Scale::Quick).len(), 4);
        assert_eq!(ablation_victim_order(Scale::Quick).len(), 2);
    }
}
