//! Benchmark-owned synthetic task trees.
//!
//! Both the fanout workloads and `hot-steal` are complete K-ary trees
//! over heap-numbered ids (`ScaleFanout`'s shape in `distws-bench`), so
//! the task count is fixed by the input and validation can recompute
//! the expected checksum serially. They differ only in the parameters
//! below. The seed reaches a tree as `salt` and changes inputs only:
//! the checksum, each task's virtual grain, and which tasks are
//! locality-sensitive.

use distws_core::{ClusterConfig, Locality, PlaceId, TaskScope, TaskSpec, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shape and annotation rule of one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Total tasks (ids `0..tasks`).
    pub tasks: u64,
    /// Children per interior task.
    pub arity: u64,
    /// Base virtual compute per task (ns); small, so the engine dominates.
    pub grain_ns: u64,
    /// Per-task grain varies in `[grain_ns, grain_ns + jitter_ns)` with
    /// the salt, so the simulated makespan depends on the seed.
    pub jitter_ns: u64,
    /// Tasks are homed round-robin over the first `home_places` places
    /// (0 = every place of the cluster). A small value piles all work on
    /// a few places, which is what makes remote stealing pay.
    pub home_places: u32,
    /// One task in this many is `Sensitive`, chosen by the salt
    /// (0 = every task is `Flexible`).
    pub sensitive_one_in: u64,
}

/// A complete K-ary task tree as a [`Workload`].
pub struct Tree {
    name: &'static str,
    shape: TreeShape,
    salt: u64,
    state: Mutex<Option<Arc<TreeRun>>>,
}

struct TreeRun {
    shape: TreeShape,
    salt: u64,
    homes: u32,
    executed: AtomicU64,
    checksum: AtomicU64,
}

/// SplitMix64 finalizer: the per-task hash behind checksum, grain and
/// sensitivity.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Tree {
    /// A tree of the given shape whose inputs are derived from `salt`.
    pub fn new(name: &'static str, shape: TreeShape, salt: u64) -> Self {
        assert!(shape.tasks > 0 && shape.arity > 0);
        Tree {
            name,
            shape,
            salt,
            state: Mutex::new(None),
        }
    }

    /// Task count, fixed by the input.
    pub fn tasks(&self) -> u64 {
        self.shape.tasks
    }
}

fn tree_task(run: Arc<TreeRun>, id: u64) -> TaskSpec {
    let h = mix(run.salt ^ id);
    let shape = run.shape;
    let home = PlaceId((id % run.homes as u64) as u32);
    let locality = if shape.sensitive_one_in > 0 && (h >> 32).is_multiple_of(shape.sensitive_one_in)
    {
        Locality::Sensitive
    } else {
        Locality::Flexible
    };
    let grain = shape.grain_ns
        + if shape.jitter_ns > 0 {
            (h >> 8) % shape.jitter_ns
        } else {
            0
        };
    TaskSpec::new(
        home,
        locality,
        grain,
        "tree",
        move |s: &mut dyn TaskScope| {
            run.executed.fetch_add(1, Ordering::Relaxed);
            run.checksum.fetch_add(h, Ordering::Relaxed);
            let first = id * shape.arity + 1;
            let last = (first + shape.arity).min(shape.tasks);
            for child in first..last.max(first) {
                s.spawn(tree_task(Arc::clone(&run), child));
            }
        },
    )
}

impl Workload for Tree {
    fn name(&self) -> String {
        self.name.into()
    }

    fn roots(&self, cfg: &ClusterConfig) -> Vec<TaskSpec> {
        let homes = match self.shape.home_places {
            0 => cfg.places,
            n => n.min(cfg.places),
        };
        let run = Arc::new(TreeRun {
            shape: self.shape,
            salt: self.salt,
            homes,
            executed: AtomicU64::new(0),
            checksum: AtomicU64::new(0),
        });
        *self.state.lock().expect("tree state lock") = Some(Arc::clone(&run));
        vec![tree_task(run, 0)]
    }

    fn validate(&self) -> Result<(), String> {
        let guard = self.state.lock().expect("tree state lock");
        let run = guard.as_ref().ok_or("tree never ran")?;
        let executed = run.executed.load(Ordering::Relaxed);
        if executed != self.shape.tasks {
            return Err(format!(
                "executed {executed} of {} tree tasks",
                self.shape.tasks
            ));
        }
        let want =
            (0..self.shape.tasks).fold(0u64, |acc, id| acc.wrapping_add(mix(self.salt ^ id)));
        let got = run.checksum.load(Ordering::Relaxed);
        if got != want {
            return Err(format!("tree checksum {got:#x} != {want:#x}"));
        }
        Ok(())
    }
}
