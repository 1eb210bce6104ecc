//! The metric catalog: every name the benchmark prints, with unit and
//! direction, and — for layer metrics — the end-to-end metric and
//! workloads each is predicted to move (every other pairing is
//! predicted unchanged). `/BENCHMARK.json` is printed from this table by
//! `manifest` and compared with it by `check-manifest`, so the two
//! cannot drift.

use crate::workloads::{WHY, WORKLOADS};
use distws_json::Value;

/// How the driver starts the benchmark; it appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 8;

/// An end-to-end metric with its regression bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The five end-to-end metrics; every workload reports all of them.
///
/// `makespan_ms` and `distws_speedup` are simulated and repeat exactly
/// for one seed; their bounds are not zero only because the driver
/// compares medians over *different* seeds, and the inputs — hence the
/// simulated schedule — change with the seed (README.md, "Bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "makespan_ms",
        unit: "ms",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "distws_speedup",
        unit: "x",
        better: "higher",
        bound: 0.1,
    },
];

/// A per-layer metric and the prediction attached to it.
pub struct Layer {
    /// `<crate>.<module>.<measure>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// `(end-to-end metric, workloads)` it should move; empty for the
    /// ungated metrics that have no end-to-end metric yet.
    pub moves: &'static [(&'static str, &'static [&'static str])],
}

const FANOUTS: &[&str] = &["fanout-wide", "fanout-narrow"];
const NARROW: &[&str] = &["fanout-narrow"];
const STEALS: &[&str] = &["hot-steal", "hot-steal-faulty"];
const FAULTY: &[&str] = &["hot-steal-faulty"];
const OBSERVED: &[&str] = &["fanout-observed"];
const SUITE: &[&str] = &["paper-suite"];

const ENGINE: &[(&str, &[&str])] = &[("tasks_per_s", FANOUTS)];
const SCHED: &[(&str, &[&str])] = &[("tasks_per_s", &["fanout-wide", "hot-steal"])];
const TRACE: &[(&str, &[&str])] = &[("tasks_per_s", OBSERVED)];
const ARENA: &[(&str, &[&str])] = &[("tasks_per_s", NARROW), ("peak_rss_mb", NARROW)];
const NET: &[(&str, &[&str])] = &[("tasks_per_s", STEALS)];
const RECOVERY: &[(&str, &[&str])] = &[("makespan_ms", FAULTY)];
const APPS: &[(&str, &[&str])] = &[("tasks_per_s", SUITE)];
const UNGATED: &[(&str, &[&str])] = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static [(&'static str, &'static [&'static str])],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

/// Every per-layer metric, in print order.
pub const LAYERS: &[Layer] = &[
    // Seams inside the real run.
    layer(
        "sim.engine.dispatch_self_ns_per_event",
        "ns",
        "lower",
        ENGINE,
    ),
    layer("sim.engine.events_per_task", "ratio", "lower", ENGINE),
    layer("sim.engine.task_exec_share", "ratio", "higher", ENGINE),
    layer("sim.engine.trace_emission_share", "ratio", "lower", ENGINE),
    layer("sim.engine.unattributed_share", "ratio", "lower", ENGINE),
    layer("sched.steal_seq_calls", "count", "lower", SCHED),
    layer("sched.steal_seq_ns_per_call", "ns", "lower", SCHED),
    layer("sched.steal_steps_per_call", "ratio", "lower", SCHED),
    layer("sched.map_task_calls", "count", "lower", SCHED),
    layer("sched.map_task_ns_per_call", "ns", "lower", SCHED),
    layer("sched.share_of_wall", "ratio", "lower", SCHED),
    layer(
        "sched.steal_success_ratio.local_private",
        "ratio",
        "higher",
        SCHED,
    ),
    layer(
        "sched.steal_success_ratio.local_shared",
        "ratio",
        "higher",
        SCHED,
    ),
    layer("sched.steal_success_ratio.remote", "ratio", "higher", SCHED),
    layer("trace.sink_events", "count", "lower", TRACE),
    layer("trace.sink_ns_per_event", "ns", "lower", TRACE),
    layer("trace.bytes_per_event", "B", "lower", TRACE),
    layer("trace.mb_per_s", "MB/s", "higher", TRACE),
    layer("trace.share_of_wall", "ratio", "lower", TRACE),
    layer("trace.overhead_pct", "%", "lower", TRACE),
    layer("metrics.sink_calls", "count", "lower", TRACE),
    layer("metrics.overhead_pct", "%", "lower", TRACE),
    // Replay drivers.
    layer("sim.calendar.ops", "count", "lower", ARENA),
    layer("sim.calendar.ns_per_op", "ns", "lower", ARENA),
    layer("sim.calendar.vs_binaryheap_ratio", "ratio", "lower", ARENA),
    layer("sim.calendar.share_of_wall", "ratio", "lower", ARENA),
    layer("deque.seq_private_ns_per_op", "ns", "lower", ARENA),
    layer("deque.seq_shared_ns_per_op", "ns", "lower", ARENA),
    layer("deque.grows", "count", "lower", ARENA),
    layer("core.taskspec_ns_per_task", "ns", "lower", ARENA),
    layer("netsim.msgs", "count", "lower", NET),
    layer("netsim.bytes", "B", "lower", NET),
    layer("netsim.ns_per_send", "ns", "lower", NET),
    layer("netsim.ns_per_send_faulty", "ns", "lower", NET),
    layer("netsim.dropped", "count", "lower", NET),
    layer("netsim.share_of_wall", "ratio", "lower", NET),
    layer("sched.retry.timeouts", "count", "lower", RECOVERY),
    layer("sched.retry.retries", "count", "lower", RECOVERY),
    layer("sim.faults.lease_reclaims", "count", "lower", RECOVERY),
    layer("sim.faults.tasks_recovered", "count", "lower", RECOVERY),
    layer("cachesim.accesses", "count", "lower", APPS),
    layer("cachesim.ns_per_access", "ns", "lower", APPS),
    layer(
        "cachesim.miss_rate_pct",
        "%",
        "lower",
        &[("tasks_per_s", SUITE), ("makespan_ms", SUITE)],
    ),
    layer("cachesim.share_of_wall", "ratio", "lower", APPS),
    layer("apps.body_ns_per_task", "ns", "lower", APPS),
    layer("apps.roots_validate_share", "ratio", "lower", APPS),
    layer("apps.cell_wall_s.quicksort", "s", "lower", APPS),
    layer("apps.cell_wall_s.turing-ring", "s", "lower", APPS),
    layer("apps.cell_wall_s.kmeans", "s", "lower", APPS),
    layer("apps.cell_wall_s.agglomerative", "s", "lower", APPS),
    layer("apps.cell_wall_s.dmg", "s", "lower", APPS),
    layer("apps.cell_wall_s.dmr", "s", "lower", APPS),
    layer("apps.cell_wall_s.nbody", "s", "lower", APPS),
    layer("json.render_mb_per_s", "MB/s", "higher", TRACE),
    layer("json.parse_mb_per_s", "MB/s", "higher", TRACE),
    layer("trace.to_jsonl_ns_per_event", "ns", "lower", TRACE),
    layer("trace.hist_record_ns", "ns", "lower", TRACE),
    layer("analyze.hb_events_per_s", "1/s", "higher", TRACE),
    layer("analyze.conform_events_per_s", "1/s", "higher", TRACE),
    layer("analyze.violations", "count", "lower", TRACE),
    // Ungated: no end-to-end metric yet.
    layer("deque.chase_lev_ns_per_op", "ns", "lower", UNGATED),
    layer("deque.shared_fifo_ns_per_op", "ns", "lower", UNGATED),
    layer("runtime.tasks_per_s", "1/s", "higher", UNGATED),
    layer("runtime.remote_steal_share", "ratio", "lower", UNGATED),
    layer("cluster.wire.encode_ns_per_frame", "ns", "lower", UNGATED),
    layer("cluster.wire.decode_ns_per_frame", "ns", "lower", UNGATED),
    layer("cluster.wire.bytes_per_task_migrate", "B", "lower", UNGATED),
    layer("cluster.wire.stream_roundtrip_us", "us", "lower", UNGATED),
    layer("spans.overhead_pct", "%", "lower", UNGATED),
];

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// `/BENCHMARK.json` as this catalog defines it: exactly the contract's
/// keys, nothing else.
pub fn manifest() -> Value {
    let list = |items: Vec<Value>| Value::Array(items);
    let mut doc = Value::object();
    doc.set("command", COMMAND.to_vec())
        .set("paths", PATHS.to_vec())
        .set("run_seconds", RUN_SECONDS)
        .set(
            "workloads",
            list(
                WORKLOADS
                    .iter()
                    .zip(WHY)
                    .map(|(name, why)| {
                        let mut o = Value::object();
                        o.set("name", *name).set("why", why);
                        o
                    })
                    .collect(),
            ),
        )
        .set(
            "end_to_end",
            list(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut o = Value::object();
                        o.set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better)
                            .set("bound", m.bound);
                        o
                    })
                    .collect(),
            ),
        )
        .set(
            "per_layer",
            list(
                LAYERS
                    .iter()
                    .map(|m| {
                        let mut o = Value::object();
                        o.set("name", m.name)
                            .set("unit", m.unit)
                            .set("better", m.better);
                        o
                    })
                    .collect(),
            ),
        );
    doc
}

/// Problems with the catalog itself: the contract's limits on names,
/// units and counts, and every `→` target of the prediction table.
pub fn catalog_problems() -> Vec<String> {
    let mut errs = Vec::new();
    if !(2..=8).contains(&WORKLOADS.len())
        || !(1..=16).contains(&END_TO_END.len())
        || !(1..=128).contains(&LAYERS.len())
    {
        errs.push("workload or metric count outside the contract's limits".into());
    }
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(LAYERS.iter().map(|m| m.name));
    for (i, n) in names.iter().enumerate() {
        if !name_ok(n) {
            errs.push(format!("name `{n}` breaks the name rule"));
        }
        if names[..i].contains(n) {
            errs.push(format!("name `{n}` is used twice"));
        }
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(LAYERS.iter().map(|m| m.unit));
    for u in units {
        if !unit_ok(u) {
            errs.push(format!("unit `{u}` breaks the unit rule"));
        }
    }
    for m in &END_TO_END {
        if !(0.0..=0.25).contains(&m.bound) {
            errs.push(format!("`{}`: bound {} outside 0..0.25", m.name, m.bound));
        }
    }
    for why in WHY {
        if why.len() > 200 || why.contains('\n') {
            errs.push(format!(
                "why `{why}` is not one line of at most 200 characters"
            ));
        }
    }
    for l in LAYERS {
        for (metric, workloads) in l.moves {
            if !END_TO_END.iter().any(|m| m.name == *metric) {
                errs.push(format!(
                    "`{}` → unknown end-to-end metric `{metric}`",
                    l.name
                ));
            }
            for w in *workloads {
                if !WORKLOADS.contains(w) {
                    errs.push(format!("`{}` → unknown workload `{w}`", l.name));
                }
            }
        }
    }
    errs
}

/// Check the text of `/BENCHMARK.json`: the catalog must be within the
/// contract's limits and the file must say exactly what the catalog
/// says. Returns every problem found.
pub fn check_manifest(text: &str) -> Vec<String> {
    let mut errs = catalog_problems();
    if text.len() > 64 * 1024 {
        errs.push("BENCHMARK.json exceeds 64 KiB".into());
    }
    match Value::parse(text) {
        Ok(doc) if doc == manifest() => {}
        Ok(_) => errs.push(
            "BENCHMARK.json differs from the catalog; regenerate it with \
             `bash benchmark/run.sh manifest > BENCHMARK.json`"
                .into(),
        ),
        Err(e) => errs.push(format!("BENCHMARK.json does not parse: {e}")),
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_is_within_the_contracts_limits() {
        assert_eq!(catalog_problems(), Vec::<String>::new());
    }

    #[test]
    fn the_committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(check_manifest(&text), Vec::<String>::new());
    }

    #[test]
    fn a_manifest_that_drifted_is_refused() {
        let text = manifest().render().replace("fanout-wide", "fanout-wider");
        assert_eq!(check_manifest(&text).len(), 1);
        assert!(!check_manifest("{").is_empty());
    }
}
