//! Golden reports for the seven paper applications on the paper's
//! 16×8 cluster, under DistWS and X10WS.
//!
//! These are the only tier-1 byte checks of finish-latch continuations,
//! non-empty footprints, cross-place spawns and remote data references
//! together: the tree workloads carry none of them. Each constant is
//! the FNV-1a of the run's `RunReport` JSON; any change to what the
//! engine schedules, charges or counts moves it. `run_app` validates
//! every application's answer, so a wrong result fails here too.

use distws_apps::quick_suite;
use distws_bench::policy_by_name;
use distws_core::ClusterConfig;
use distws_sim::Simulation;

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn paper_apps_on_16x8_match_the_recorded_reports() {
    let golden: [(&str, [u64; 2]); 7] = [
        ("Quicksort", [17309236837682980746, 4067495898902811521]),
        ("TuringRing", [13001381292070920122, 8430210955536174460]),
        ("k-Means", [9126880774211034597, 5884153246102737444]),
        ("Agglomerative", [9564017134098387745, 14057888536399705066]),
        ("DMG", [9352591301205962170, 5362678940494244461]),
        ("DMR", [3647528363146150254, 16789457798712809899]),
        ("n-Body", [11067530435881890563, 16946806284946371592]),
    ];
    let mut drift = Vec::new();
    let (mut remote_steals, mut remote_refs) = (0, 0);
    for (i, (name, want)) in golden.iter().enumerate() {
        for (policy, &want) in ["DistWS", "X10WS"].iter().zip(want) {
            // A fresh instance per run: applications keep their result
            // inside for `validate`.
            let app = quick_suite().swap_remove(i);
            assert_eq!(app.name(), *name, "suite order");
            let mut sim = Simulation::new(
                ClusterConfig::paper(),
                policy_by_name(policy).expect("known policy"),
            );
            let report = sim.run_app(app.as_ref());
            assert_eq!(
                report.tasks_executed, report.tasks_spawned,
                "{name} {policy}"
            );
            remote_steals += report.steals.remote;
            remote_refs += report.remote_refs;
            let got = fnv1a(distws_json::to_string(&report).as_bytes());
            if got != want {
                drift.push(format!("{name} {policy}: {want} -> {got}"));
            }
        }
    }
    // The inputs must keep reaching the paths this test exists for:
    // tasks that migrate with their footprint, and remote references.
    assert!(remote_steals > 0 && remote_refs > 0, "inputs too small");
    assert!(drift.is_empty(), "report drift:\n{}", drift.join("\n"));
}
