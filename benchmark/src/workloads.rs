//! The six workloads: what each cell runs, on which cluster, and how
//! the seed turns into inputs.
//!
//! Sizes are fixed for the 2-core reference box so that one repetition
//! takes roughly a second and a whole run (three set-ups plus
//! `run_seconds` of measurement) stays under 20 s; README.md records
//! the measured figures. `Size::Smoke` divides every input by 20.

use crate::trees::{mix, Tree, TreeShape};
use distws_apps as apps;
use distws_core::{ClusterConfig, Workload};
use distws_sim::FaultSpec;

/// Names of the workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "fanout-wide",
    "fanout-narrow",
    "hot-steal",
    "hot-steal-faulty",
    "fanout-observed",
    "paper-suite",
];

/// Why each workload was chosen, in [`WORKLOADS`] order: the `why` lines
/// of `BENCHMARK.json`.
pub const WHY: [&str; 6] = [
    "8-ary fanout on 128x16: almost no steals, yet the cost per event is highest here, so it isolates whatever grows with the place count",
    "same tree, 1M tasks on 8x8: event queue, arenas, task allocation and deques do the work and steal rounds none; the memory workload",
    "4-ary tree homed on 2 of 32 places, 1 task in 4 sensitive: the paper's mechanism, remote steals and probes dominate",
    "hot-steal under drop, dup, jitter, a kill and a restart: the faulty twin of the steal path, retries, leases and recovery",
    "fanout on 32x16 into a JSONL sink with engine metrics and the sampler on: trace, json and metrics are most of the wall",
    "the seven paper applications on 16x8: real task bodies, cache model and data references; carries the paper's result",
];

/// The paper applications, in `paper-suite` cell order; also the
/// suffixes of the `apps.cell_wall_s.*` layer metrics.
pub const PAPER_APPS: [&str; 7] = [
    "quicksort",
    "turing-ring",
    "kmeans",
    "agglomerative",
    "dmg",
    "dmr",
    "nbody",
];

/// Fault clauses of `hot-steal-faulty`; `%` times resolve against the
/// fault-free DistWS makespan of the same cell.
pub const HOT_STEAL_FAULTS: &str = "drop=0.01,dup=0.005,jitter=2us,kill=5@30%,restart=5@60%";

/// Virtual-time telemetry interval of `fanout-observed`.
pub const OBSERVED_SAMPLE_INTERVAL_NS: u64 = 100_000;

/// Input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// 1/20 of every input: `check.sh --smoke`.
    Smoke,
}

impl Size {
    fn of(self, n: u64) -> u64 {
        match self {
            Size::Full => n,
            Size::Smoke => (n / 20).max(64),
        }
    }
}

/// One simulated run: an application on a cluster shape.
pub struct Cell {
    /// Short name, unique within the workload.
    pub label: &'static str,
    /// Cluster shape of the run.
    pub cluster: ClusterConfig,
    /// The application, its inputs already derived from the seed.
    pub app: Box<dyn Workload>,
    /// Task count fixed by the input, where the input fixes one.
    pub expected_tasks: Option<u64>,
}

/// Everything generated from `--seed` for one workload. The simulator
/// only ever sees these inputs, never the seed.
pub struct Inputs {
    /// Cells of one repetition, in run order.
    pub cells: Vec<Cell>,
    /// Fault clauses, for `hot-steal-faulty`.
    pub faults: Option<FaultSpec>,
    /// Seed of the fault plan's random stream.
    pub fault_seed: u64,
    /// Whether cells run with a JSONL trace sink, engine metrics and the
    /// telemetry sampler switched on (`fanout-observed`).
    pub observed: bool,
}

const FANOUT: TreeShape = TreeShape {
    tasks: 0,
    arity: 8,
    grain_ns: 10_000,
    jitter_ns: 1_024,
    home_places: 0,
    sensitive_one_in: 0,
};

const HOT_STEAL: TreeShape = TreeShape {
    tasks: 0,
    arity: 4,
    grain_ns: 10_000,
    jitter_ns: 0,
    home_places: 2,
    sensitive_one_in: 4,
};

fn tree_cell(
    label: &'static str,
    shape: TreeShape,
    tasks: u64,
    places: u32,
    workers: u32,
    salt: u64,
) -> Cell {
    let tree = Tree::new(label, TreeShape { tasks, ..shape }, salt);
    Cell {
        label,
        cluster: ClusterConfig::new(places, workers),
        expected_tasks: Some(tree.tasks()),
        app: Box::new(tree),
    }
}

fn app_cell(label: &'static str, app: Box<dyn Workload>) -> Cell {
    Cell {
        label,
        cluster: ClusterConfig::paper(),
        app,
        expected_tasks: None,
    }
}

/// Build the inputs of workload `name` from `seed`; `None` for an
/// unknown name. Same seed ⇒ same inputs.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Inputs> {
    // Independent streams per use, all derived from the one seed.
    let salt = mix(seed);
    let fault_seed = mix(seed ^ 0xFA01);
    let app_seed = |k: u64| mix(seed ^ (0xA990 + k));

    let n = |full: u64| size.of(full);
    let (cells, faults, observed) = match name {
        "fanout-wide" => (
            vec![tree_cell("fanout", FANOUT, n(60_000), 128, 16, salt)],
            None,
            false,
        ),
        "fanout-narrow" => (
            vec![tree_cell("fanout", FANOUT, n(1_000_000), 8, 8, salt)],
            None,
            false,
        ),
        "hot-steal" => (
            vec![tree_cell("hot-steal", HOT_STEAL, n(850_000), 32, 16, salt)],
            None,
            false,
        ),
        "hot-steal-faulty" => (
            vec![tree_cell("hot-steal", HOT_STEAL, n(850_000), 32, 16, salt)],
            Some(FaultSpec::parse(HOT_STEAL_FAULTS).expect("built-in fault spec parses")),
            false,
        ),
        "fanout-observed" => (
            vec![tree_cell("fanout", FANOUT, n(75_000), 32, 16, salt)],
            None,
            true,
        ),
        "paper-suite" => (
            vec![
                app_cell(
                    PAPER_APPS[0],
                    Box::new(apps::Quicksort::new(n(1 << 21) as usize, app_seed(0))),
                ),
                // The Turing ring takes no seed, and the makespan of DMG
                // swings 3x with where its seed drops the point blobs:
                // both keep one input, so that `makespan_ms` measures
                // the scheduler and not the draw.
                app_cell(
                    PAPER_APPS[1],
                    Box::new(apps::TuringRing::new(n(1_024) as usize, n(1 << 18), 64)),
                ),
                app_cell(
                    PAPER_APPS[2],
                    Box::new(apps::KMeans::new(
                        n(131_072) as usize,
                        4,
                        4,
                        16,
                        app_seed(2),
                    )),
                ),
                app_cell(
                    PAPER_APPS[3],
                    Box::new(apps::Agglomerative::new(n(4_096) as usize, app_seed(3))),
                ),
                app_cell(
                    PAPER_APPS[4],
                    Box::new(apps::DelaunayGen::new(n(40_000) as usize, 256, 16, 31)),
                ),
                app_cell(
                    PAPER_APPS[5],
                    Box::new(apps::DelaunayRefine::new(
                        n(1_000) as usize,
                        128,
                        30.0,
                        app_seed(5),
                    )),
                ),
                app_cell(
                    PAPER_APPS[6],
                    Box::new(apps::NBody::new(n(4_096) as usize, 3, 0.5, app_seed(6))),
                ),
            ],
            None,
            false,
        ),
        _ => return None,
    };
    Some(Inputs {
        cells,
        faults,
        fault_seed,
        observed,
    })
}
