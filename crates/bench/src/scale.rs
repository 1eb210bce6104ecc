//! The workload of `repro bench --suite scale`: a synthetic
//! locality-flexible fanout tree that drives the *engine itself* at
//! cluster scale, up to a million tasks on a 128-place × 16-worker
//! cluster (2048 simulated workers).
//!
//! The workload is deliberately engine-bound: per-task virtual compute
//! is tiny and uniform, so the run is dominated by the event queue, the
//! arenas, task mapping and the steal protocol.

use distws_core::{ClusterConfig, Locality, PlaceId, TaskScope, TaskSpec, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_by_name;
    use distws_sim::{SimConfig, Simulation};

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
}
