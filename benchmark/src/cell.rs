//! Running one cell through the simulator's public API and checking
//! what comes back.

use crate::workloads::{Cell, Inputs, OBSERVED_SAMPLE_INTERVAL_NS};
use distws_core::{RunReport, Workload};
use distws_metrics::{EngineMetrics, MetricsSink, NullMetrics};
use distws_sched::{DistWs, Policy, X10Ws};
use distws_sim::{FaultConfig, SimConfig, Simulation};
use distws_trace::{BufferedJsonlSink, NullSink, TraceSink};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The two schedulers the benchmark compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// The paper's contribution; every measured cell runs it.
    DistWs,
    /// X10's shipped scheduler; the reference cell of `distws_speedup`.
    X10Ws,
}

impl Sched {
    /// A fresh policy instance.
    pub fn policy(self) -> Box<dyn Policy> {
        match self {
            Sched::DistWs => Box::new(DistWs::default()),
            Sched::X10Ws => Box::new(X10Ws),
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Continue a report digest over a trace's hash.
    pub fn with_trace(mut self, trace: &HashingWriter) -> Fnv {
        self.update(&trace.hash.0.to_le_bytes());
        self
    }

    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// A writer that keeps a running hash and byte count of what passes
/// through it, plus the first `keep` bytes themselves (0 = keep none).
#[derive(Debug, Default)]
pub struct HashingWriter {
    /// FNV-1a of every byte written.
    pub hash: Fnv,
    /// Bytes written.
    pub bytes: u64,
    /// Prefix kept for the analysers.
    pub kept: Vec<u8>,
    keep: usize,
}

impl HashingWriter {
    /// A writer keeping at most the first `keep` bytes.
    pub fn keeping(keep: usize) -> Self {
        HashingWriter {
            keep,
            ..HashingWriter::default()
        }
    }

    /// Whether every byte written was also kept.
    pub fn kept_all(&self) -> bool {
        self.kept.len() as u64 == self.bytes
    }
}

impl Write for HashingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hash.update(buf);
        self.bytes += buf.len() as u64;
        let room = self.keep.saturating_sub(self.kept.len());
        self.kept.extend_from_slice(&buf[..room.min(buf.len())]);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one run of one cell produced.
pub struct CellRun {
    /// The simulator's report.
    pub report: RunReport,
    /// Host seconds inside `run_app_metered` (roots + run + validate).
    pub wall_s: f64,
    /// FNV-1a of the report JSON.
    pub report_digest: u64,
    /// `report_digest` continued over the trace's hash when the run
    /// traced into a [`HashingWriter`]: the cell's `sim_digest`.
    pub digest: u64,
}

/// Simulator configuration of a cell: `SimConfig` defaults plus the
/// workload's fault plan and telemetry interval. The RNG seed stays at
/// its default; `--seed` reaches the simulator only through inputs.
pub fn sim_config(inputs: &Inputs, cell: &Cell, faults: &FaultConfig) -> SimConfig {
    let mut cfg = SimConfig::new(cell.cluster.clone());
    cfg.faults = faults.clone();
    if inputs.observed {
        cfg.sample_interval_ns = Some(OBSERVED_SAMPLE_INTERVAL_NS);
    }
    cfg
}

/// Run `app` — the cell's application, or a seam around it — with the
/// given policy, sink and metrics. An `Err` is a
/// failed operation: the run panicked (which covers a failed
/// `Workload::validate`, an engine assertion or task conservation) or
/// executed another task count than the input fixes.
pub fn run_with(
    cfg: SimConfig,
    cell: &Cell,
    app: &dyn Workload,
    policy: Box<dyn Policy>,
    sink: &mut dyn TraceSink,
    metrics: &mut dyn MetricsSink,
) -> Result<(RunReport, f64), String> {
    let mut sim = Simulation::with_config(cfg, policy);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        sim.run_app_metered(app, sink, metrics).0
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let report = outcome.map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("cell {} panicked: {msg}", cell.label)
    })?;
    if report.tasks_spawned != report.tasks_executed {
        return Err(format!(
            "cell {}: spawned {} but executed {}",
            cell.label, report.tasks_spawned, report.tasks_executed
        ));
    }
    if let Some(want) = cell.expected_tasks {
        if report.tasks_executed != want {
            return Err(format!(
                "cell {}: executed {} tasks, input fixes {want}",
                cell.label, report.tasks_executed
            ));
        }
    }
    Ok((report, wall_s))
}

/// FNV-1a of a report's JSON rendering.
pub fn report_digest(report: &RunReport) -> Fnv {
    let mut h = Fnv::default();
    h.update(distws_json::to_string(report).as_bytes());
    h
}

/// Run `cell` the way the workload defines it: untraced and unmetered,
/// or — on an observed workload — into a buffered JSONL sink over a
/// hashing writer with engine metrics on. `keep` bounds how much of the
/// trace is kept for the analysers.
pub fn run_cell(
    inputs: &Inputs,
    cell: &Cell,
    sched: Sched,
    faults: &FaultConfig,
    keep: usize,
) -> Result<(CellRun, Option<HashingWriter>), String> {
    let cfg = sim_config(inputs, cell, faults);
    if !inputs.observed {
        let (report, wall_s) = run_with(
            cfg,
            cell,
            cell.app.as_ref(),
            sched.policy(),
            &mut NullSink,
            &mut NullMetrics,
        )?;
        let digest = report_digest(&report).0;
        return Ok((
            CellRun {
                report,
                wall_s,
                report_digest: digest,
                digest,
            },
            None,
        ));
    }
    let mut sink = BufferedJsonlSink::new(HashingWriter::keeping(keep));
    let mut metrics = EngineMetrics::new();
    let (report, wall_s) = run_with(
        cfg,
        cell,
        cell.app.as_ref(),
        sched.policy(),
        &mut sink,
        &mut metrics,
    )?;
    let writer = sink
        .into_inner()
        .map_err(|e| format!("trace writer: {e}"))?;
    let report_digest = report_digest(&report);
    Ok((
        CellRun {
            report,
            wall_s,
            report_digest: report_digest.0,
            digest: report_digest.with_trace(&writer).0,
        },
        Some(writer),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build, Size, WORKLOADS};

    fn digest(workload: &str, seed: u64) -> Vec<u64> {
        let inputs = build(workload, seed, Size::Smoke).expect("known workload");
        inputs
            .cells
            .iter()
            .map(|c| {
                run_cell(&inputs, c, Sched::DistWs, &FaultConfig::default(), 0)
                    .expect("smoke cell runs")
                    .0
                    .digest
            })
            .collect()
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for w in WORKLOADS {
            assert_eq!(digest(w, 3), digest(w, 3), "{w}: same seed");
            assert_ne!(digest(w, 3), digest(w, 4), "{w}: other seed");
        }
    }

    #[test]
    fn observed_digest_covers_the_trace_bytes() {
        let inputs = build("fanout-observed", 0, Size::Smoke).expect("known workload");
        let (run, writer) = run_cell(
            &inputs,
            &inputs.cells[0],
            Sched::DistWs,
            &FaultConfig::default(),
            usize::MAX,
        )
        .expect("smoke cell runs");
        let writer = writer.expect("observed cells trace");
        assert!(writer.bytes > 0 && writer.kept_all());
        assert_ne!(run.digest, run.report_digest);
        let mut h = Fnv::default();
        h.update(&writer.kept);
        assert_eq!(h, writer.hash);
    }

    #[test]
    fn a_wrong_task_count_is_a_failed_operation() {
        let mut inputs = build("fanout-narrow", 0, Size::Smoke).expect("known workload");
        inputs.cells[0].expected_tasks = Some(1);
        let err = run_cell(
            &inputs,
            &inputs.cells[0],
            Sched::DistWs,
            &FaultConfig::default(),
            0,
        )
        .err()
        .expect("count mismatch fails");
        assert!(err.contains("input fixes 1"), "{err}");
    }
}
