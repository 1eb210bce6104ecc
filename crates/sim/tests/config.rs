//! Configuration-space tests: the engine must behave sensibly across
//! cost models, topologies, cache settings and wake limits.

use distws_core::{ClusterConfig, CostModel, Locality, PlaceId, StealCounts, TaskSpec};
use distws_netsim::Topology;
use distws_sched::{DistWs, X10Ws};
use distws_sim::{SimConfig, Simulation};

fn imbalanced_roots(n: usize, cost: u64) -> Vec<TaskSpec> {
    (0..n)
        .map(|_| TaskSpec::new(PlaceId(0), Locality::Flexible, cost, "t", |_| {}))
        .collect()
}

#[test]
fn free_network_makes_distributed_stealing_near_perfect() {
    // With a zero-cost network, DistWS should spread an extreme hotspot
    // almost perfectly.
    let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
    cfg.cost = CostModel {
        net_latency_ns: 0,
        net_ns_per_byte_num: 0,
        mapping_overhead_ns: 0,
        network_probe_ns: 0,
        ..CostModel::default()
    };
    cfg.cache = None;
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    let report = sim.run_roots("free-net", imbalanced_roots(64, 1_000_000));
    let ideal = 64 * 1_000_000 / 8;
    assert!(
        report.makespan_ns < ideal * 13 / 10,
        "free network should reach ≥75% of ideal: makespan {} vs ideal {}",
        report.makespan_ns,
        ideal
    );
}

#[test]
fn expensive_network_suppresses_stealing_benefit() {
    // A 100× latency network: remote steals barely pay; makespan must
    // exceed the cheap-network makespan.
    let run = |latency: u64| {
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.cost.net_latency_ns = latency;
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        sim.run_roots("net-sweep", imbalanced_roots(64, 1_000_000))
            .makespan_ns
    };
    let cheap = run(1_000);
    let dear = run(500_000);
    assert!(
        dear > cheap,
        "500µs-latency run ({dear}) should be slower than 1µs ({cheap})"
    );
}

#[test]
fn ring_topology_runs_and_charges_hop_distances() {
    let mut cfg = SimConfig::new(ClusterConfig::new(8, 1));
    cfg.topology = Topology::Ring;
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    let report = sim.run_roots("ring", imbalanced_roots(32, 500_000));
    assert_eq!(report.tasks_executed, 32);
    assert!(
        report.steals.remote > 0,
        "hotspot must be drained over the ring"
    );
}

#[test]
fn cache_model_can_be_disabled() {
    let mut cfg = SimConfig::new(ClusterConfig::new(2, 2));
    cfg.cache = None;
    let mut sim = Simulation::with_config(cfg, Box::new(X10Ws));
    let report = sim.run_roots("nocache", imbalanced_roots(10, 10_000));
    assert_eq!(report.cache.accesses, 0);
    assert_eq!(report.cache.misses, 0);
}

#[test]
fn remote_wake_limit_zero_still_completes() {
    // Without remote wakes, work still drains (local workers and the
    // steal loop of awake workers find it) — it just takes longer, and
    // no remote worker is ever prodded into a steal. Limits 1 and 4 pin
    // the budgeted ring walk: makespan, steals and messages as recorded
    // before the place-level summary replaced the place-by-place scan.
    let steals = |local_shared, remote, failed_attempts| StealCounts {
        local_private: 0,
        local_shared,
        remote,
        failed_attempts,
    };
    let recorded = [
        (0usize, 4_031_626u64, steals(38, 0, 6), 8u64),
        (1, 1_087_645, steals(20, 32, 33), 76),
        (4, 1_097_457, steals(20, 32, 36), 80),
    ];
    for (limit, makespan_ns, steals, messages) in recorded {
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.remote_wake_limit = limit;
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        let report = sim.run_roots("nowake", imbalanced_roots(40, 200_000));
        assert_eq!(report.tasks_executed, 40, "limit {limit}");
        assert_eq!(report.makespan_ns, makespan_ns, "limit {limit}");
        assert_eq!(report.steals, steals, "limit {limit}");
        assert_eq!(report.messages.total(), messages, "limit {limit}");
    }
}

#[test]
fn seed_changes_steal_pattern_but_not_results() {
    let run = |seed: u64| {
        let mut cfg = SimConfig::new(ClusterConfig::new(4, 2));
        cfg.seed = seed;
        let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
        sim.run_roots("seeded", imbalanced_roots(64, 300_000))
    };
    let a = run(1);
    let b = run(2);
    // Same work gets done either way.
    assert_eq!(a.tasks_executed, b.tasks_executed);
    assert_eq!(a.total_work_ns, b.total_work_ns);
}

#[test]
#[should_panic(expected = "event budget exceeded")]
fn event_budget_guards_against_runaway() {
    let mut cfg = SimConfig::new(ClusterConfig::new(2, 2));
    cfg.max_events = 10;
    let mut sim = Simulation::with_config(cfg, Box::new(DistWs::default()));
    sim.run_roots("runaway", imbalanced_roots(100, 1_000));
}

#[test]
fn single_place_schedulers_are_equivalent_within_tolerance() {
    // The paper's single-node observation: with no cross-place steals
    // possible, DistWS ≈ X10WS (small deltas either way — DistWS pays
    // mapping overhead but its shared-deque handoff is cheaper than a
    // private-deque steal). Neither may dominate by more than 10 %.
    let spawny_root = || {
        vec![TaskSpec::new(
            PlaceId(0),
            Locality::Flexible,
            1_000,
            "root",
            |s| {
                for _ in 0..500 {
                    s.spawn(TaskSpec::new(
                        s.here(),
                        Locality::Flexible,
                        20_000,
                        "c",
                        |_| {},
                    ));
                }
            },
        )]
    };
    let mut x10 = Simulation::new(ClusterConfig::new(1, 4), Box::new(X10Ws));
    let rx = x10.run_roots("sp", spawny_root());
    let mut dws = Simulation::new(ClusterConfig::new(1, 4), Box::new(DistWs::default()));
    let rd = dws.run_roots("sp", spawny_root());
    assert_eq!(rd.steals.remote, 0);
    let (lo, hi) = (rx.makespan_ns * 9 / 10, rx.makespan_ns * 11 / 10);
    assert!(
        (lo..=hi).contains(&rd.makespan_ns),
        "DistWS ({}) deviates >10% from X10WS ({}) on one place",
        rd.makespan_ns,
        rx.makespan_ns
    );
}
