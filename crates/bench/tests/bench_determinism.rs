//! The committed trajectories replay: [`replay`], the function behind
//! `repro bench --check`, re-runs a recorded file's cells at its seed
//! and must find every stored value — tasks, events, makespan, every
//! counter and gauge — bit for bit. Any change to the schedule the
//! engine produces for a seed fails here.
//!
//! In debug this covers all of `BENCH_quick.json` and the two 100k-task
//! cells of `BENCH_scale.json`; CI replays all three files whole, in
//! release.

use distws_bench::perf::{drift, parse_report, replay, BenchReport};
use distws_metrics::Counter;

fn committed(name: &str) -> BenchReport {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_report(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn quick_trajectory_replays_bit_for_bit() {
    assert_eq!(replay(&committed("BENCH_quick.json")), Ok(vec![]));
}

#[test]
fn scale_trajectory_100k_cells_replay_bit_for_bit() {
    let mut scale = committed("BENCH_scale.json");
    scale.cells.truncate(2);
    assert!(scale.cells.iter().all(|c| c.tasks == 100_000));
    // The cells replay; the only drift is the two cells cut off.
    assert_eq!(
        replay(&scale),
        Ok(vec![
            "suite scale: 2 cells recorded, 4 in the suite".to_string()
        ])
    );
}

#[test]
fn one_edited_value_is_one_drift_line_naming_cell_and_field() {
    let recorded = committed("BENCH_quick.json");

    let mut edited = recorded.clone();
    edited.cells[3].metrics.counters[Counter::MsgsSent.index()] += 1;
    let lines = drift(&edited.cells, &recorded.cells);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].starts_with("k-Means / DistWS on 4x2: msgs_sent "),
        "{lines:?}"
    );

    let mut edited = recorded.clone();
    let ms = &mut edited.cells[0].makespan_ms;
    *ms = f64::from_bits(ms.to_bits() + 1);
    let lines = drift(&edited.cells, &recorded.cells);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].starts_with("Quicksort / X10WS on 4x2: makespan_ms "),
        "{lines:?}"
    );
}
