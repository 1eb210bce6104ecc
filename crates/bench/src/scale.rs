//! `repro scale` — the cluster-scale engine sweep.
//!
//! Where `repro bench` tracks throughput on the paper's applications
//! at the paper's modest cluster shapes, this sweep measures the
//! *engine itself* at cluster scale: a synthetic locality-flexible
//! fanout workload driven across a places × workers × tasks grid that
//! tops out above a million tasks on a 128-place × 16-worker cluster
//! (2048 simulated workers). Each cell records events/sec, wall time
//! and peak RSS into `BENCH_scale.json` (schema v1), which CI gates
//! the same way as the bench trajectory.
//!
//! The workload is deliberately engine-bound: per-task virtual compute
//! is tiny and uniform, so events/sec here is dominated by the event
//! queue, the arenas, task mapping and the steal protocol — exactly
//! the paths the calendar-queue/arena rework optimizes.

use crate::policy_by_name;
use distws_core::{ClusterConfig, Locality, PlaceId, TaskScope, TaskSpec, Workload};
use distws_json::{impl_to_json, Value};
use distws_metrics::{peak_rss_kb, Counter, EngineMetrics};
use distws_sim::{SimConfig, Simulation};
use distws_trace::NullSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layout version of `BENCH_scale.json`.
pub const SCALE_SCHEMA_VERSION: u64 = 1;

/// Default on-disk trajectory file.
pub const SCALE_DEFAULT_OUT: &str = "BENCH_scale.json";

// ---------------------------------------------------------------------------
// The synthetic workload
// ---------------------------------------------------------------------------

/// Deterministic K-ary fanout over heap-numbered task ids: task `i`
/// spawns tasks `i*K + 1 ..= i*K + K` (ids below the target count), so
/// the task DAG is a complete K-ary tree fixed by `(tasks, fanout)` —
/// no shared allocation, no rng. Every task is locality-flexible with
/// home `id % places`, mixing intra- and inter-place arrivals; each
/// folds a SplitMix64-style hash of its id into an atomic checksum the
/// post-run validation recomputes serially.
pub struct ScaleFanout {
    /// Total tasks (ids `0..tasks`).
    pub tasks: u64,
    /// Children per interior task.
    pub fanout: u64,
    /// Virtual compute per task (ns). Small, so the engine dominates.
    pub grain_ns: u64,
    /// Checksum salt.
    pub seed: u64,
    state: Mutex<Option<Arc<ScaleRun>>>,
}

struct ScaleRun {
    tasks: u64,
    fanout: u64,
    grain_ns: u64,
    seed: u64,
    places: u32,
    executed: AtomicU64,
    checksum: AtomicU64,
}

/// SplitMix64 finalizer: the per-task checksum contribution.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ScaleFanout {
    /// A fanout tree of `tasks` tasks, eight children per interior
    /// node (shallow and wide: ~7 levels at a million tasks).
    pub fn new(tasks: u64, seed: u64) -> Self {
        assert!(tasks > 0);
        ScaleFanout {
            tasks,
            fanout: 8,
            grain_ns: 10_000,
            seed,
            state: Mutex::new(None),
        }
    }
}

fn fanout_task(run: Arc<ScaleRun>, id: u64) -> TaskSpec {
    let home = PlaceId((id % run.places as u64) as u32);
    let grain = run.grain_ns;
    TaskSpec::new(
        home,
        Locality::Flexible,
        grain,
        "scale-fanout",
        move |s: &mut dyn TaskScope| {
            run.executed.fetch_add(1, Ordering::Relaxed);
            run.checksum
                .fetch_add(mix(run.seed ^ id), Ordering::Relaxed);
            let first = id * run.fanout + 1;
            let last = (first + run.fanout).min(run.tasks);
            for child in first..last.max(first) {
                s.spawn(fanout_task(Arc::clone(&run), child));
            }
        },
    )
}

impl Workload for ScaleFanout {
    fn name(&self) -> String {
        "ScaleFanout".into()
    }

    fn roots(&self, cfg: &ClusterConfig) -> Vec<TaskSpec> {
        let run = Arc::new(ScaleRun {
            tasks: self.tasks,
            fanout: self.fanout,
            grain_ns: self.grain_ns,
            seed: self.seed,
            places: cfg.places,
            executed: AtomicU64::new(0),
            checksum: AtomicU64::new(0),
        });
        *self.state.lock().unwrap() = Some(Arc::clone(&run));
        vec![fanout_task(run, 0)]
    }

    fn validate(&self) -> Result<(), String> {
        let guard = self.state.lock().unwrap();
        let run = guard.as_ref().ok_or("scale fanout never ran")?;
        let executed = run.executed.load(Ordering::Relaxed);
        if executed != self.tasks {
            return Err(format!(
                "executed {executed} of {} fanout tasks",
                self.tasks
            ));
        }
        let mut want = 0u64;
        for id in 0..self.tasks {
            want = want.wrapping_add(mix(self.seed ^ id));
        }
        let got = run.checksum.load(Ordering::Relaxed);
        if got != want {
            return Err(format!("fanout checksum {got:#x} != {want:#x}"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// One grid point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePoint {
    /// Cluster places.
    pub places: u32,
    /// Workers per place.
    pub workers_per_place: u32,
    /// Fanout task count.
    pub tasks: u64,
}

/// The fixed sweep grid, small to large. Fixed means fixed: cells are
/// only ever appended (the committed baseline matches on identity).
pub fn scale_matrix() -> Vec<ScalePoint> {
    vec![
        ScalePoint {
            places: 8,
            workers_per_place: 8,
            tasks: 100_000,
        },
        ScalePoint {
            places: 32,
            workers_per_place: 16,
            tasks: 100_000,
        },
        ScalePoint {
            places: 64,
            workers_per_place: 16,
            tasks: 250_000,
        },
        ScalePoint {
            places: 128,
            workers_per_place: 16,
            tasks: 1_000_000,
        },
    ]
}

/// One measured cell of `BENCH_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Cluster places.
    pub places: u32,
    /// Workers per place.
    pub workers_per_place: u32,
    /// Tasks executed (deterministic; equals the grid target).
    pub tasks: u64,
    /// Engine events processed (deterministic).
    pub events: u64,
    /// Virtual makespan in milliseconds (deterministic).
    pub makespan_ms: f64,
    /// Wall-clock run time in milliseconds (machine-dependent).
    pub wall_ms: f64,
    /// Engine events per wall-clock second — the gated throughput.
    pub events_per_sec: f64,
    /// Process peak RSS in KiB after the cell (0 where unavailable;
    /// process-wide high-water mark, so later cells inherit earlier
    /// peaks).
    pub peak_rss_kb: u64,
}

impl ScaleCell {
    /// Cell identity used to match against a baseline.
    pub fn key(&self) -> (u32, u32, u64) {
        (self.places, self.workers_per_place, self.tasks)
    }
}

/// A whole `BENCH_scale.json` document.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Layout version — see [`SCALE_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// The seed every cell ran with.
    pub seed: u64,
    /// One entry per grid point, grid order (filtered runs keep order).
    pub cells: Vec<ScaleCell>,
}

impl_to_json!(ScaleCell {
    places,
    workers_per_place,
    tasks,
    events,
    makespan_ms,
    wall_ms,
    events_per_sec,
    peak_rss_kb
});
impl_to_json!(ScaleReport {
    schema_version,
    seed,
    cells
});

/// Run one grid point under DistWS and validate the fanout.
pub fn run_scale_cell(point: &ScalePoint, seed: u64) -> ScaleCell {
    let app = ScaleFanout::new(point.tasks, seed);
    let policy = policy_by_name("DistWS").expect("DistWS policy");
    let mut cfg = SimConfig::new(ClusterConfig::new(point.places, point.workers_per_place));
    cfg.seed = seed;
    let mut sim = Simulation::with_config(cfg, policy);
    let mut metrics = EngineMetrics::new();
    let start = Instant::now();
    let (report, _) = sim.run_app_metered(&app, &mut NullSink, &mut metrics);
    let wall = start.elapsed();
    app.validate()
        .unwrap_or_else(|e| panic!("scale cell {point:?}: {e}"));
    assert_eq!(
        report.tasks_executed, point.tasks,
        "scale cell {point:?} task count"
    );
    let snapshot = metrics.snapshot();
    let events = snapshot.counter(Counter::EventsProcessed);
    ScaleCell {
        places: point.places,
        workers_per_place: point.workers_per_place,
        tasks: report.tasks_executed,
        events,
        makespan_ms: report.makespan_ns as f64 / 1e6,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
    }
}

/// Run the sweep over every grid point with `tasks <= max_tasks`
/// (`u64::MAX` = the full grid). `progress` is called before each cell.
pub fn run_scale(
    seed: u64,
    max_tasks: u64,
    mut progress: impl FnMut(usize, &ScalePoint),
) -> ScaleReport {
    let points: Vec<ScalePoint> = scale_matrix()
        .into_iter()
        .filter(|p| p.tasks <= max_tasks)
        .collect();
    let mut cells = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        progress(i, point);
        cells.push(run_scale_cell(point, seed));
    }
    ScaleReport {
        schema_version: SCALE_SCHEMA_VERSION,
        seed,
        cells,
    }
}

/// Parse a `BENCH_scale.json` document, validating its schema version.
pub fn parse_scale_report(text: &str) -> Result<ScaleReport, String> {
    let v = Value::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema_version = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if schema_version != SCALE_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {schema_version} (this binary reads {SCALE_SCHEMA_VERSION})"
        ));
    }
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
        let u64_field = |k: &str| {
            c.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("cell {i}: missing {k}"))
        };
        let f64_field = |k: &str| {
            c.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("cell {i}: missing {k}"))
        };
        cells.push(ScaleCell {
            places: u64_field("places")? as u32,
            workers_per_place: u64_field("workers_per_place")? as u32,
            tasks: u64_field("tasks")?,
            events: u64_field("events")?,
            makespan_ms: f64_field("makespan_ms")?,
            wall_ms: f64_field("wall_ms")?,
            events_per_sec: f64_field("events_per_sec")?,
            peak_rss_kb: u64_field("peak_rss_kb")?,
        });
    }
    Ok(ScaleReport {
        schema_version,
        seed,
        cells,
    })
}

/// A cell that fell behind the baseline.
#[derive(Debug, Clone)]
pub struct ScaleRegression {
    /// Identity of the regressed cell.
    pub point: ScalePoint,
    /// Baseline events/sec.
    pub baseline_eps: f64,
    /// Current events/sec.
    pub current_eps: f64,
    /// Drop relative to baseline, in percent (positive = slower).
    pub drop_pct: f64,
}

/// What [`compare_scale`] found.
#[derive(Debug, Clone, Default)]
pub struct ScaleComparison {
    /// Cells whose events/sec dropped by more than the threshold.
    pub slower: Vec<ScaleRegression>,
    /// Cells whose schedule is not the baseline's, one printable line
    /// per differing field.
    pub drifted: Vec<String>,
}

impl ScaleComparison {
    /// Nothing slower, nothing drifted.
    pub fn is_clean(&self) -> bool {
        self.slower.is_empty() && self.drifted.is_empty()
    }
}

/// Compare `current` against a committed `baseline`, cell by cell
/// (matched on places/workers/tasks — cells missing on either side are
/// skipped, so partial CI runs and a growing grid both work). Reports
/// every cell whose events/sec dropped by more than `threshold_pct`,
/// and, when both ran the same seed, every cell whose `events` or
/// `makespan_ms` is not bit for bit the baseline's (`tasks` is part of
/// the match): the schedule is a function of the seed alone.
pub fn compare_scale(
    current: &ScaleReport,
    baseline: &ScaleReport,
    threshold_pct: f64,
) -> ScaleComparison {
    let mut out = ScaleComparison::default();
    for cur in &current.cells {
        let Some(base) = baseline.cells.iter().find(|b| b.key() == cur.key()) else {
            continue;
        };
        if current.seed == baseline.seed {
            let cell = format!(
                "{}x{} x {} tasks",
                cur.places, cur.workers_per_place, cur.tasks
            );
            if cur.events != base.events {
                out.drifted
                    .push(format!("{cell}: events {} -> {}", base.events, cur.events));
            }
            if cur.makespan_ms.to_bits() != base.makespan_ms.to_bits() {
                out.drifted.push(format!(
                    "{cell}: makespan_ms {} -> {}",
                    base.makespan_ms, cur.makespan_ms
                ));
            }
        }
        if base.events_per_sec <= 0.0 {
            continue;
        }
        let drop_pct = (base.events_per_sec - cur.events_per_sec) / base.events_per_sec * 100.0;
        if drop_pct > threshold_pct {
            out.slower.push(ScaleRegression {
                point: ScalePoint {
                    places: cur.places,
                    workers_per_place: cur.workers_per_place,
                    tasks: cur.tasks,
                },
                baseline_eps: base.events_per_sec,
                current_eps: cur.events_per_sec,
                drop_pct,
            });
        }
    }
    out
}

/// The human table for `repro scale`.
pub fn render_scale_table(report: &ScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>13} {:>10} {:>13} {:>10}\n",
        "cluster", "tasks", "events", "makespan(ms)", "wall(ms)", "events/sec", "rss(MiB)"
    ));
    for c in &report.cells {
        out.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>13.3} {:>10.1} {:>13.0} {:>10.1}\n",
            format!("{}x{}", c.places, c.workers_per_place),
            c.tasks,
            c.events,
            c.makespan_ms,
            c.wall_ms,
            c.events_per_sec,
            c.peak_rss_kb as f64 / 1024.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_tree_covers_every_id_exactly_once() {
        // 1000 tasks, fanout 8: ids 0..1000 each spawned exactly once.
        let app = ScaleFanout::new(1_000, 7);
        let policy = policy_by_name("DistWS").unwrap();
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.seed = 1;
        let mut sim = Simulation::with_config(cfg, policy);
        let report = sim.run_app(&app);
        assert_eq!(report.tasks_executed, 1_000);
        app.validate().unwrap();
    }

    #[test]
    fn fanout_is_deterministic_in_the_seed() {
        let run = |seed| {
            let app = ScaleFanout::new(500, 3);
            let policy = policy_by_name("DistWS").unwrap();
            let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
            cfg.seed = seed;
            let r = Simulation::with_config(cfg, policy).run_app(&app);
            app.validate().unwrap();
            (r.makespan_ns, r.steals, r.messages.total())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, 0);
    }

    #[test]
    fn validate_catches_a_wrong_checksum() {
        let app = ScaleFanout::new(100, 1);
        let policy = policy_by_name("DistWS").unwrap();
        let mut cfg = SimConfig::new(ClusterConfig::new(2, 2));
        cfg.seed = 1;
        Simulation::with_config(cfg, policy).run_app(&app);
        app.validate().unwrap();
        // Corrupt the checksum: validation must fail loudly.
        app.state
            .lock()
            .unwrap()
            .as_ref()
            .unwrap()
            .checksum
            .fetch_add(1, Ordering::Relaxed);
        assert!(app.validate().is_err());
    }

    #[test]
    fn scale_report_roundtrips_through_json() {
        let report = ScaleReport {
            schema_version: SCALE_SCHEMA_VERSION,
            seed: 5,
            cells: vec![run_scale_cell(
                &ScalePoint {
                    places: 2,
                    workers_per_place: 2,
                    tasks: 200,
                },
                5,
            )],
        };
        let text = distws_json::to_string_pretty(&report);
        let back = parse_scale_report(&text).unwrap();
        assert_eq!(back.seed, 5);
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].key(), report.cells[0].key());
        assert_eq!(back.cells[0].events, report.cells[0].events);
    }

    #[test]
    fn compare_flags_only_real_regressions_and_drift() {
        let cell = run_scale_cell(
            &ScalePoint {
                places: 2,
                workers_per_place: 2,
                tasks: 100,
            },
            1,
        );
        let base = ScaleReport {
            schema_version: SCALE_SCHEMA_VERSION,
            seed: 1,
            cells: vec![cell.clone()],
        };
        let mut slow = base.clone();
        slow.cells[0].events_per_sec = cell.events_per_sec / 10.0;
        assert!(compare_scale(&base, &base, 10.0).is_clean());
        let r = compare_scale(&slow, &base, 10.0);
        assert_eq!(r.slower.len(), 1);
        assert!(r.slower[0].drop_pct > 80.0);
        assert!(r.drifted.is_empty());
        // A schedule that is not the baseline's is flagged however fast
        // it ran, field by field ...
        let mut other_schedule = base.clone();
        other_schedule.cells[0].events += 1;
        other_schedule.cells[0].makespan_ms += 1e-6;
        let r = compare_scale(&other_schedule, &base, 10.0);
        assert!(r.slower.is_empty());
        assert_eq!(r.drifted.len(), 2, "{:?}", r.drifted);
        assert!(r.drifted[0].contains("events") && r.drifted[1].contains("makespan_ms"));
        // ... unless it ran another seed, which is another schedule.
        other_schedule.seed += 1;
        assert!(compare_scale(&other_schedule, &base, 10.0).is_clean());
        // Unknown cells on either side are skipped, not flagged.
        let other = ScaleReport {
            schema_version: SCALE_SCHEMA_VERSION,
            seed: 1,
            cells: vec![],
        };
        assert!(compare_scale(&slow, &other, 10.0).is_clean());
    }
}
