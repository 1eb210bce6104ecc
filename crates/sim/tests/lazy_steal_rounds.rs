//! Lazy ≡ eager steal rounds.
//!
//! The engine asks a policy for a steal round in two phases
//! (`Policy::steal_phase`) and builds the distributed sweep only when
//! the local tiers fail. A wrapper that forwards every `Policy` method
//! *except* `steal_phase` takes the trait's defaults, under which the
//! first phase is the whole eager `steal_sequence_into` — the engine as
//! it was before rounds became lazy. Both must produce the same run,
//! byte for byte: report, trace and counters.

use distws_core::rng::SplitMix64;
use distws_core::{ClusterConfig, GlobalWorkerId, Locality, PlaceId, TaskScope, TaskSpec};
use distws_metrics::EngineMetrics;
use distws_sched::{
    AdaptiveWs, ClusterView, DequeChoice, DistWs, DistWsNs, LifelineWs, Policy, RandomWs,
    StealStep, TaskMeta, X10Ws,
};
use distws_sim::{FaultSpec, SimConfig, Simulation};
use distws_trace::JsonlSink;

/// Forwards what `Policy` had before `steal_phase` existed, like the
/// benchmark's timing seam does.
struct EagerOnly(Box<dyn Policy>);

impl Policy for EagerOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> DequeChoice {
        self.0.map_task(meta, view, rng)
    }

    fn steal_sequence_into(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        self.0.steal_sequence_into(thief, view, rng, out);
    }

    fn may_migrate(&self, locality: Locality) -> bool {
        self.0.may_migrate(locality)
    }

    fn remote_chunk(&self) -> usize {
        self.0.remote_chunk()
    }

    fn remote_chunk_for(&self, victim_len: usize) -> usize {
        self.0.remote_chunk_for(victim_len)
    }

    fn has_mapping_overhead(&self) -> bool {
        self.0.has_mapping_overhead()
    }

    fn lifeline_partners(&self, place: PlaceId, places: u32) -> Vec<PlaceId> {
        self.0.lifeline_partners(place, places)
    }

    fn uses_lifelines(&self) -> bool {
        self.0.uses_lifelines()
    }

    fn note_result(&mut self, thief: GlobalWorkerId, found: bool) {
        self.0.note_result(thief, found);
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(EagerOnly(self.0.clone_box()))
    }
}

fn all_policies() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(X10Ws),
        Box::new(DistWs::default()),
        Box::new(DistWsNs::default()),
        Box::new(RandomWs),
        Box::new(LifelineWs::default()),
        Box::new(AdaptiveWs::default()),
    ]
}

/// Two-level trees homed on at most three places, one task in four
/// sensitive: the loaded places saturate and pool work on their shared
/// deques (rounds that end in the local tiers), every other place has
/// to sweep for it (rounds that need the tail).
fn roots(places: u32, seed: u64) -> Vec<TaskSpec> {
    let mut rng = SplitMix64::new(seed);
    (0..24)
        .map(|i| {
            let cost = 5_000 + rng.below(60_000);
            let kids = 2 + rng.below(5);
            let grandkids = rng.below(3);
            let locality = |n: u64| {
                if n.is_multiple_of(4) {
                    Locality::Sensitive
                } else {
                    Locality::Flexible
                }
            };
            let home = PlaceId(i % places.min(3));
            TaskSpec::new(
                home,
                locality(i as u64),
                cost,
                "root",
                move |s: &mut dyn TaskScope| {
                    for k in 0..kids {
                        let here = s.here();
                        s.spawn(TaskSpec::new(
                            here,
                            locality(k + 1),
                            cost / 2 + 500,
                            "kid",
                            move |s: &mut dyn TaskScope| {
                                for _ in 0..grandkids {
                                    let here = s.here();
                                    s.spawn(TaskSpec::new(
                                        here,
                                        Locality::Flexible,
                                        cost / 4 + 500,
                                        "grandkid",
                                        |_| {},
                                    ));
                                }
                            },
                        ));
                    }
                },
            )
        })
        .collect()
}

/// Everything a run leaves behind that must not depend on how the
/// round was asked for.
#[derive(Debug, PartialEq)]
struct Outcome {
    report_json: String,
    trace_jsonl: Vec<u8>,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    makespan_ns: u64,
}

fn run(cfg: &SimConfig, policy: Box<dyn Policy>, seed: u64) -> Outcome {
    let mut sim = Simulation::with_config(cfg.clone(), policy);
    let mut sink = JsonlSink::new(Vec::new());
    let mut metrics = EngineMetrics::new();
    let (report, _) = sim.run_roots_metered(
        "lazy-vs-eager",
        roots(cfg.cluster.places, seed),
        &mut sink,
        &mut metrics,
    );
    assert_eq!(report.tasks_spawned, report.tasks_executed);
    let snapshot = metrics.snapshot();
    Outcome {
        report_json: distws_json::to_string(&report),
        trace_jsonl: sink.into_inner(),
        counters: snapshot.counters,
        gauges: snapshot.gauges,
        makespan_ns: report.makespan_ns,
    }
}

#[test]
fn lazy_rounds_reproduce_eager_rounds_byte_for_byte() {
    let faults =
        FaultSpec::parse("drop=0.02,dup=0.01,kill=1@30%,restart=1@60%").expect("fault spec parses");
    let mut rounds_compared = 0;
    for (places, wpp) in [(2u32, 2u32), (8, 8), (32, 4), (128, 2)] {
        for policy in all_policies() {
            for seed in 0..8u64 {
                let label = format!("{} {places}x{wpp} seed {seed}", policy.name());
                let mut cfg = SimConfig::new(ClusterConfig::new(places, wpp));
                cfg.seed = 0x5EED ^ seed;
                let lazy = run(&cfg, policy.clone_box(), seed);
                let eager = run(&cfg, Box::new(EagerOnly(policy.clone_box())), seed);
                assert!(!lazy.trace_jsonl.is_empty(), "{label}: no trace");
                assert!(lazy == eager, "{label}: fault-free runs differ");

                cfg.faults = faults.resolve(eager.makespan_ns, 1.0, seed);
                let lazy = run(&cfg, policy.clone_box(), seed);
                let eager = run(&cfg, Box::new(EagerOnly(policy.clone_box())), seed);
                assert!(lazy == eager, "{label}: faulty runs differ");
                rounds_compared += 2;
            }
        }
    }
    assert_eq!(rounds_compared, 4 * 6 * 8 * 2);
}
