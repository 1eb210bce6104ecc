//! The `repro bench` harness: the deterministic perf trajectory.
//!
//! Runs a fixed matrix of apps × policies × cluster shapes with engine
//! self-metrics enabled and records, per cell, what the seed alone
//! determines — tasks, engine events, virtual makespan and the
//! counter/gauge snapshot — into the schema-versioned
//! `BENCH_{quick,full,scale}.json` files at the repo root. [`replay`]
//! re-runs a recorded file's suite at the file's seed and lists every
//! stored value that is not bit for bit the file's, so a committed file
//! pins the schedule on any machine.
//!
//! Nothing wall-clock is written or compared: wall time, throughput and
//! RSS are measured by the repo benchmark (`benchmark/`).

use crate::scale::ScaleFanout;
use crate::{app_by_name, policy_by_name, Scale};
use distws_apps as apps;
use distws_core::{ClusterConfig, Workload};
use distws_json::{ToJson, Value};
use distws_metrics::{Counter, EngineMetrics, Gauge, MetricsSnapshot};
use distws_sim::{SimConfig, Simulation};
use distws_trace::NullSink;

/// Version of the `BENCH_*.json` layout. Bump on any breaking change
/// to cell fields; the loader rejects mismatches so a stale committed
/// file fails loudly instead of replaying garbage.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Which benchmark matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchSuite {
    /// 3 apps × 2 policies on a 4×2 cluster — well under a second.
    Quick,
    /// 4 apps × 3 policies on the paper cluster (16×8) plus a first
    /// above-paper size (32×16 = 512 workers).
    Full,
    /// The engine at cluster scale: [`ScaleFanout`] under DistWS from
    /// 8×8 × 100k tasks to 128×16 × 1M tasks.
    Scale,
}

impl BenchSuite {
    /// Every suite, in `--suite` help order.
    pub const ALL: [BenchSuite; 3] = [BenchSuite::Quick, BenchSuite::Full, BenchSuite::Scale];

    /// Wire name (`--suite` value and the `suite` JSON field).
    pub fn name(self) -> &'static str {
        match self {
            BenchSuite::Quick => "quick",
            BenchSuite::Full => "full",
            BenchSuite::Scale => "scale",
        }
    }

    /// Parse a `--suite` value.
    pub fn by_name(name: &str) -> Option<BenchSuite> {
        Self::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// The committed trajectory file of this suite.
    pub fn default_out(self) -> String {
        format!("BENCH_{}.json", self.name())
    }
}

/// The workload of a matrix point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchApp {
    /// An application resolved by [`bench_app`] at default scale.
    Suite(&'static str),
    /// [`ScaleFanout`] with this many tasks, salted with the run seed.
    Fanout(u64),
}

/// One (app, policy, cluster) point of the matrix.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// The workload.
    pub app: BenchApp,
    /// Policy name (resolvable by [`policy_by_name`]).
    pub policy: &'static str,
    /// Cluster shape.
    pub cluster: ClusterConfig,
}

/// The fixed matrix of a suite. Fixed means fixed: cells are only ever
/// appended (a replay matches cells by position and identity).
pub fn matrix(suite: BenchSuite) -> Vec<BenchPoint> {
    let point = |app, policy, places, workers| BenchPoint {
        app,
        policy,
        cluster: ClusterConfig::new(places, workers),
    };
    let mut points = Vec::new();
    match suite {
        BenchSuite::Quick => {
            for app in ["Quicksort", "k-Means", "UTS"] {
                for policy in ["X10WS", "DistWS"] {
                    points.push(point(BenchApp::Suite(app), policy, 4, 2));
                }
            }
        }
        BenchSuite::Full => {
            // 16×8 is ClusterConfig::paper(); 32×16 is the first
            // above-paper point (512 workers).
            for (places, workers) in [(16, 8), (32, 16)] {
                for app in ["Quicksort", "k-Means", "UTS", "DMG"] {
                    for policy in ["X10WS", "DistWS", "LifelineWS"] {
                        points.push(point(BenchApp::Suite(app), policy, places, workers));
                    }
                }
            }
        }
        BenchSuite::Scale => {
            for (places, workers, tasks) in [
                (8, 8, 100_000),
                (32, 16, 100_000),
                (64, 16, 250_000),
                (128, 16, 1_000_000),
            ] {
                points.push(point(BenchApp::Fanout(tasks), "DistWS", places, workers));
            }
        }
    }
    points
}

/// Resolve a benchmark app name at a scale. Extends [`app_by_name`]
/// with UTS (which lives outside the paper's seven-app suite).
pub fn bench_app(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    if name.eq_ignore_ascii_case("uts") {
        return Some(match scale {
            Scale::Quick => Box::new(apps::Uts::quick()),
            _ => Box::new(apps::Uts::default()),
        });
    }
    app_by_name(name, scale)
}

/// One recorded cell of `BENCH_*.json`. Every field is a function of
/// the seed.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Application display name.
    pub app: String,
    /// Policy display name.
    pub policy: String,
    /// Cluster places.
    pub places: u32,
    /// Workers per place.
    pub workers_per_place: u32,
    /// Tasks executed.
    pub tasks: u64,
    /// Virtual makespan in milliseconds.
    pub makespan_ms: f64,
    /// Engine events processed.
    pub events: u64,
    /// Counter/gauge snapshot. A fresh run also carries the wall-clock
    /// phase timers; they are never written or compared.
    pub metrics: MetricsSnapshot,
}

impl BenchCell {
    /// Cell identity: a replayed cell must match it in place.
    pub fn key(&self) -> (String, String, u32, u32) {
        (
            self.app.clone(),
            self.policy.clone(),
            self.places,
            self.workers_per_place,
        )
    }

    /// `"app / policy on PxW"`, how errors and drift lines name a cell.
    pub fn label(&self) -> String {
        format!(
            "{} / {} on {}x{}",
            self.app, self.policy, self.places, self.workers_per_place
        )
    }

    /// Every stored value, named. Floats render in Rust's shortest
    /// round-trip form, so equal strings mean equal bits.
    fn values(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("tasks", self.tasks.to_string()),
            ("events", self.events.to_string()),
            ("makespan_ms", self.makespan_ms.to_string()),
        ];
        out.extend(
            Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.metrics.counter(c).to_string())),
        );
        out.extend(
            Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.metrics.gauge(g).to_string())),
        );
        out
    }
}

/// A whole `BENCH_*.json` document.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Layout version — see [`BENCH_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Suite wire name (`"quick"` / `"full"` / `"scale"`).
    pub suite: String,
    /// The seed every cell ran with.
    pub seed: u64,
    /// One entry per matrix point, matrix order.
    pub cells: Vec<BenchCell>,
}

impl ToJson for BenchCell {
    fn to_json(&self) -> Value {
        let mut metrics = self.metrics.to_json();
        if let Value::Object(sections) = &mut metrics {
            sections.retain(|(key, _)| key != "phases_ns");
        }
        let mut o = Value::object();
        o.set("app", &self.app)
            .set("policy", &self.policy)
            .set("places", self.places)
            .set("workers_per_place", self.workers_per_place)
            .set("tasks", self.tasks)
            .set("makespan_ms", self.makespan_ms)
            .set("events", self.events)
            .set("metrics", metrics);
        o
    }
}
distws_json::impl_to_json!(BenchReport {
    schema_version,
    suite,
    seed,
    cells
});

/// Run one workload under a named policy with metrics enabled, then
/// validate its answer. Errors name the cell.
pub fn run_workload(
    app: &dyn Workload,
    policy: &str,
    cluster: &ClusterConfig,
    seed: u64,
) -> Result<BenchCell, String> {
    let policy = policy_by_name(policy).ok_or_else(|| format!("unknown policy '{policy}'"))?;
    let mut cfg = SimConfig::new(cluster.clone());
    cfg.seed = seed;
    let mut metrics = EngineMetrics::new();
    // `run_app_metered` without its panicking validation, so a wrong
    // answer is an error that names the cell.
    let (report, _) = Simulation::with_config(cfg, policy).run_roots_metered(
        &app.name(),
        app.roots(cluster),
        &mut NullSink,
        &mut metrics,
    );
    let metrics = metrics.snapshot();
    let cell = BenchCell {
        app: report.app,
        policy: report.scheduler,
        places: cluster.places,
        workers_per_place: cluster.workers_per_place,
        tasks: report.tasks_executed,
        makespan_ms: report.makespan_ns as f64 / 1e6,
        events: metrics.counter(Counter::EventsProcessed),
        metrics,
    };
    app.validate()
        .map_err(|e| format!("{}: invalid result: {e}", cell.label()))?;
    Ok(cell)
}

/// Run one matrix point (see [`run_workload`]).
pub fn run_cell(point: &BenchPoint, seed: u64) -> Result<BenchCell, String> {
    let app: Box<dyn Workload> = match point.app {
        BenchApp::Suite(name) => {
            bench_app(name, Scale::Default).ok_or_else(|| format!("unknown bench app '{name}'"))?
        }
        BenchApp::Fanout(tasks) => Box::new(ScaleFanout::new(tasks, seed)),
    };
    run_workload(app.as_ref(), point.policy, &point.cluster, seed)
}

/// Run a whole suite, one run per cell.
pub fn run_suite(suite: BenchSuite, seed: u64) -> Result<BenchReport, String> {
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        suite: suite.name().to_string(),
        seed,
        cells: matrix(suite)
            .iter()
            .map(|p| run_cell(p, seed))
            .collect::<Result<_, _>>()?,
    })
}

/// Parse a `BENCH_*.json` document, validating its schema version.
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let v = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema_version = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {schema_version} (this binary reads {BENCH_SCHEMA_VERSION})"
        ));
    }
    let suite = v
        .get("suite")
        .and_then(Value::as_str)
        .ok_or("missing suite")?
        .to_string();
    let seed = v
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or("missing seed")?;
    let mut cells = Vec::new();
    for (i, c) in v
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("missing cells")?
        .iter()
        .enumerate()
    {
        let field = |k: &str| c.get(k).ok_or(format!("cell {i}: missing {k}"));
        let bad = |k: &str| format!("cell {i}: bad {k}");
        let str_field = |k: &str| field(k)?.as_str().map(str::to_string).ok_or_else(|| bad(k));
        let u64_field = |k: &str| field(k)?.as_u64().ok_or_else(|| bad(k));
        let u32_field = |k: &str| u32::try_from(u64_field(k)?).map_err(|_| bad(k));
        cells.push(BenchCell {
            app: str_field("app")?,
            policy: str_field("policy")?,
            places: u32_field("places")?,
            workers_per_place: u32_field("workers_per_place")?,
            tasks: u64_field("tasks")?,
            makespan_ms: field("makespan_ms")?
                .as_f64()
                .ok_or_else(|| bad("makespan_ms"))?,
            events: u64_field("events")?,
            metrics: MetricsSnapshot::from_json(field("metrics")?).ok_or_else(|| bad("metrics"))?,
        });
    }
    Ok(BenchReport {
        schema_version,
        suite,
        seed,
        cells,
    })
}

/// Compare recorded cells with replayed ones pairwise, in order: one
/// line per cell whose identity differs, else one per differing value.
pub fn drift(recorded: &[BenchCell], replayed: &[BenchCell]) -> Vec<String> {
    let mut out = Vec::new();
    for (want, got) in recorded.iter().zip(replayed) {
        let cell = want.label();
        if want.key() != got.key() {
            out.push(format!("{cell}: replayed as {}", got.label()));
            continue;
        }
        for ((field, was), (_, now)) in want.values().into_iter().zip(got.values()) {
            if was != now {
                out.push(format!("{cell}: {field} {was} -> {now}"));
            }
        }
    }
    out
}

/// Replay a recorded trajectory: re-run its suite's cells at its seed
/// and return the [`drift`] lines, plus one line if the file does not
/// hold exactly the suite's cells. Empty means the file replays bit for
/// bit. `Err` means a cell could not be run or validated. This is
/// `repro bench --check`.
pub fn replay(recorded: &BenchReport) -> Result<Vec<String>, String> {
    let suite = BenchSuite::by_name(&recorded.suite)
        .ok_or_else(|| format!("unknown suite '{}'", recorded.suite))?;
    let points = matrix(suite);
    let replayed = points
        .iter()
        .take(recorded.cells.len())
        .map(|p| run_cell(p, recorded.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = drift(&recorded.cells, &replayed);
    if recorded.cells.len() != points.len() {
        out.push(format!(
            "suite {}: {} cells recorded, {} in the suite",
            suite.name(),
            recorded.cells.len(),
            points.len()
        ));
    }
    Ok(out)
}

/// The terminal table `repro bench` prints.
pub fn render_bench_table(report: &BenchReport) -> String {
    let mut out = format!(
        "{:<12} {:<12} {:>8} {:>10} {:>10} {:>13}\n",
        "app", "policy", "cluster", "tasks", "events", "makespan(ms)"
    );
    for c in &report.cells {
        out.push_str(&format!(
            "{:<12} {:<12} {:>8} {:>10} {:>10} {:>13.3}\n",
            c.app,
            c.policy,
            format!("{}x{}", c.places, c.workers_per_place),
            c.tasks,
            c.events,
            c.makespan_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use distws_core::{Locality, PlaceId, TaskScope, TaskSpec};

    fn quick_cell(seed: u64) -> BenchCell {
        let app = bench_app("Quicksort", Scale::Quick).unwrap();
        run_workload(app.as_ref(), "DistWS", &ClusterConfig::new(2, 2), seed).unwrap()
    }

    #[test]
    fn cell_counters_are_deterministic_in_the_seed() {
        let cells = [quick_cell(7), quick_cell(7)];
        assert!(drift(&cells[..1], &cells[1..]).is_empty());
        // Sanity: the engine actually counted things.
        let a = &cells[0];
        assert!(a.events > 0);
        assert!(a.metrics.counter(Counter::EventQueuePushes) >= a.events);
    }

    #[test]
    fn report_json_roundtrips_without_wall_clock_fields() {
        let report = BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            suite: "quick".into(),
            seed: 42,
            cells: vec![quick_cell(42)],
        };
        let text = distws_json::to_string_pretty(&report);
        for wall in ["wall_ms", "events_per_sec", "peak_rss_kb", "phases_ns"] {
            assert!(!text.contains(wall), "{wall} in {text}");
        }
        let back = parse_report(&text).unwrap();
        assert_eq!((back.seed, back.cells.len()), (42, 1));
        assert!(drift(&report.cells, &back.cells).is_empty());
        assert_eq!(distws_json::to_string_pretty(&back), text);
    }

    #[test]
    fn parse_rejects_other_schema_versions() {
        let text = r#"{"schema_version": 1, "suite": "quick", "seed": 1, "cells": []}"#;
        let err = parse_report(text).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");
    }

    #[test]
    fn drift_names_the_cell_and_every_differing_field() {
        let base = [quick_cell(1)];
        let mut other = base.clone();
        other[0].events += 1;
        other[0].metrics.counters[Counter::MsgsSent.index()] += 1;
        let lines = drift(&base, &other);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("Quicksort / DistWS on 2x2: events "));
        assert!(lines[1].starts_with("Quicksort / DistWS on 2x2: msgs_sent "));
        other[0].places = 3;
        assert_eq!(drift(&base, &other).len(), 1, "identity drift is one line");
    }

    #[test]
    fn matrix_shapes_are_fixed() {
        let shape = |suite| matrix(suite).len();
        assert_eq!(BenchSuite::ALL.map(shape), [6, 24, 4]);
        assert!(matrix(BenchSuite::Full)
            .iter()
            .any(|p| p.cluster.places == 32));
        let tasks: u64 = matrix(BenchSuite::Scale)
            .iter()
            .map(|p| match p.app {
                BenchApp::Fanout(tasks) => tasks,
                BenchApp::Suite(name) => panic!("{name} in the scale suite"),
            })
            .sum();
        assert_eq!(tasks, 1_450_000);
        assert_eq!(BenchSuite::by_name("Scale"), Some(BenchSuite::Scale));
        assert_eq!(BenchSuite::Scale.default_out(), "BENCH_scale.json");
    }

    /// Runs one task and then claims a wrong answer.
    struct WrongAnswer;

    impl Workload for WrongAnswer {
        fn name(&self) -> String {
            "WrongAnswer".into()
        }

        fn roots(&self, _: &ClusterConfig) -> Vec<TaskSpec> {
            vec![TaskSpec::new(
                PlaceId(0),
                Locality::Flexible,
                1_000,
                "wrong",
                |_: &mut dyn TaskScope| {},
            )]
        }

        fn validate(&self) -> Result<(), String> {
            Err("checksum mismatch".into())
        }
    }

    #[test]
    fn a_cell_whose_workload_fails_validation_fails() {
        let err = run_workload(&WrongAnswer, "DistWS", &ClusterConfig::new(2, 2), 0).unwrap_err();
        assert_eq!(
            err,
            "WrongAnswer / DistWS on 2x2: invalid result: checksum mismatch"
        );
    }

    #[test]
    fn bench_app_resolves_uts_and_suite_apps() {
        assert!(bench_app("UTS", Scale::Quick).is_some());
        assert!(bench_app("uts", Scale::Quick).is_some());
        assert!(bench_app("Quicksort", Scale::Quick).is_some());
        assert!(bench_app("no-such-app", Scale::Quick).is_none());
    }
}
