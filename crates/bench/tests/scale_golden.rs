//! Golden schedules at cluster shapes that stress the engine's worker
//! index: 128×16 (a place is a quarter word, 32 words in all) and 5×24
//! (place ranges straddle word boundaries and do not divide 64).
//!
//! DistWS drives the idle and dormant sets, Lifeline the quiesced one.
//! The constants were recorded at the commit before the index replaced
//! the engine's raw bitset scans; any change to which worker a mapping
//! or a wake picks, or in what order, moves at least the trace hash.

use distws_bench::policy_by_name;
use distws_bench::scale::ScaleFanout;
use distws_core::{ClusterConfig, StealCounts};
use distws_metrics::{Counter, EngineMetrics};
use distws_sim::{FaultSpec, SimConfig, Simulation};
use distws_trace::JsonlSink;

/// What a run leaves behind, in the order the table below lists it.
#[derive(Debug, PartialEq, Eq)]
struct Schedule {
    events: u64,
    makespan_ns: u64,
    steals: StealCounts,
    messages: u64,
    trace_fnv: u64,
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(places: u32, wpp: u32, policy: &str) -> Schedule {
    run_traced(places, wpp, policy, None).0
}

/// Run the fanout under `faults` (absolute times only) and also return
/// the trace bytes.
fn run_traced(places: u32, wpp: u32, policy: &str, faults: Option<&str>) -> (Schedule, Vec<u8>) {
    let app = ScaleFanout::new(20_000, 0);
    let mut cfg = SimConfig::new(ClusterConfig::new(places, wpp));
    cfg.seed = 0;
    if let Some(spec) = faults {
        cfg.faults = FaultSpec::parse(spec)
            .expect("valid fault spec")
            .resolve(0, 1.0, 0);
    }
    let mut sim = Simulation::with_config(cfg, policy_by_name(policy).expect("known policy"));
    let mut sink = JsonlSink::new(Vec::new());
    let mut metrics = EngineMetrics::new();
    let (report, _) = sim.run_app_metered(&app, &mut sink, &mut metrics);
    assert_eq!(report.tasks_executed, 20_000);
    let trace = sink.into_inner();
    let schedule = Schedule {
        events: metrics.snapshot().counter(Counter::EventsProcessed),
        makespan_ns: report.makespan_ns,
        steals: report.steals,
        messages: report.messages.total(),
        trace_fnv: fnv1a(&trace),
    };
    (schedule, trace)
}

#[test]
fn wide_and_ragged_schedules_match_the_recorded_ones() {
    let golden = [
        (
            (128, 16, "DistWS"),
            Schedule {
                events: 43_207,
                makespan_ns: 229_467,
                steals: StealCounts {
                    local_private: 1_133,
                    local_shared: 17_202,
                    remote: 944,
                    failed_attempts: 8_391,
                },
                messages: 32_102,
                trace_fnv: 8383184517566299904,
            },
        ),
        (
            (128, 16, "LifelineWS"),
            Schedule {
                events: 42_830,
                makespan_ns: 204_749,
                steals: StealCounts {
                    local_private: 967,
                    local_shared: 17_285,
                    remote: 1_181,
                    failed_attempts: 4_541,
                },
                messages: 30_644,
                trace_fnv: 2664028851282142218,
            },
        ),
        (
            (5, 24, "DistWS"),
            Schedule {
                events: 40_148,
                makespan_ns: 2_045_185,
                steals: StealCounts {
                    local_private: 40,
                    local_shared: 19_852,
                    remote: 24,
                    failed_attempts: 408,
                },
                messages: 16_567,
                trace_fnv: 18360288282726450763,
            },
        ),
        (
            (5, 24, "LifelineWS"),
            Schedule {
                events: 40_137,
                makespan_ns: 2_039_390,
                steals: StealCounts {
                    local_private: 29,
                    local_shared: 19_854,
                    remote: 33,
                    failed_attempts: 255,
                },
                messages: 16_562,
                trace_fnv: 5677179553819135834,
            },
        ),
    ];
    for ((places, wpp, policy), want) in golden {
        assert_eq!(run(places, wpp, policy), want, "{policy} on {places}x{wpp}");
    }
}

/// The fault paths write keys no fault-free trace has (`"dropped"`,
/// `"attempt"`, the place-level events); pin one such trace byte for
/// byte as well. Recorded at the commit before the trace encoder wrote
/// bytes directly instead of rendering a JSON value tree.
#[test]
fn faulty_schedule_matches_the_recorded_one() {
    let (got, trace) = run_traced(
        5,
        24,
        "DistWS",
        Some("drop=0.05,dup=0.02,kill=3@800us,restart=3@1400us"),
    );
    let trace = String::from_utf8(trace).expect("ASCII trace");
    for needle in [
        r#""dropped":true"#,
        r#""ev":"steal_timeout""#,
        r#""ev":"place_fail""#,
        r#""ev":"place_restart""#,
        r#""ev":"task_recover""#,
    ] {
        assert!(trace.contains(needle), "no {needle} in the faulty trace");
    }
    let want = Schedule {
        events: 43_254,
        makespan_ns: 2_434_700,
        steals: StealCounts {
            local_private: 45,
            local_shared: 19_106,
            remote: 1_279,
            failed_attempts: 968,
        },
        messages: 19_669,
        trace_fnv: 368470932273383691,
    };
    assert_eq!(got, want);
}
