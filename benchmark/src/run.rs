//! The plain run: set-up, timed repetitions, the five end-to-end
//! metrics. Also the reference child the set-up spawns.

use crate::cell::{run_cell, CellRun, Fnv, Sched};
use crate::stats::{median, quartiles};
use crate::workloads::{build, Inputs, Size};
use distws_analyze::conform::{conform_str, ConformConfig};
use distws_analyze::hb;
use distws_metrics::peak_rss_kb;
use distws_sim::FaultConfig;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Set-ups per plain run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Fewest timed repetitions, however short `--seconds` is.
pub const MIN_REPS: usize = 3;

/// Bytes of trace the analysers get at most (a whole `fanout-observed`
/// trace is ~56 MB).
pub const TRACE_KEEP: usize = 96 << 20;

/// What the reference child reports back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    /// Per cell: fault-free DistWS makespan the fault plan's `%` times
    /// resolve against (0 on fault-free workloads).
    pub baseline_ns: Vec<u64>,
    /// Per cell: makespan of the reference cell (same configuration,
    /// policy X10WS).
    pub ref_ns: Vec<u64>,
    /// Happens-before plus conformance violations in the DistWS trace,
    /// when the child was asked to check it.
    pub violations: Option<u64>,
}

/// Resolve the workload's fault plan for one cell.
pub fn resolve_faults(inputs: &Inputs, baseline_ns: u64) -> FaultConfig {
    match &inputs.faults {
        Some(spec) => spec.resolve(baseline_ns, 1.0, inputs.fault_seed),
        None => FaultConfig::default(),
    }
}

/// Count happens-before and Algorithm 1 conformance violations in a
/// DistWS JSONL trace.
pub fn trace_violations(trace: &str) -> u64 {
    let cfg = ConformConfig::for_policy("DistWS").expect("DistWS is a named policy");
    (hb::validate_str(trace).violations.len() + conform_str(trace, &cfg).violations.len()) as u64
}

/// Body of the `ref` subcommand: run the reference cells (and, on a
/// faulty workload, the fault-free baseline first) and print what the
/// parent needs, one `key cell value` line each. Runs in a child
/// process so the timed process's `VmHWM` covers measured cells only.
pub fn reference_main(name: &str, seed: u64, size: Size, check_trace: bool) -> Result<(), String> {
    let inputs = build(name, seed, size).ok_or_else(|| format!("unknown workload {name}"))?;
    for (i, cell) in inputs.cells.iter().enumerate() {
        let mut baseline = 0;
        if inputs.faults.is_some() {
            let (run, _) = run_cell(&inputs, cell, Sched::DistWs, &FaultConfig::default(), 0)?;
            baseline = run.report.makespan_ns;
        }
        let faults = resolve_faults(&inputs, baseline);
        let (run, _) = run_cell(&inputs, cell, Sched::X10Ws, &faults, 0)?;
        println!("baseline_ns {i} {baseline}");
        println!("ref_ns {i} {}", run.report.makespan_ns);
        if check_trace && inputs.observed {
            let (_, obs) = run_cell(&inputs, cell, Sched::DistWs, &faults, TRACE_KEEP)?;
            let writer = obs.expect("observed cells trace");
            if !writer.kept_all() {
                return Err(format!(
                    "trace of {} bytes exceeds the analysers' cap",
                    writer.bytes
                ));
            }
            let text = String::from_utf8(writer.kept).map_err(|e| e.to_string())?;
            println!("violations {i} {}", trace_violations(&text));
        }
    }
    Ok(())
}

/// Spawn the reference child and parse its report.
pub fn reference(
    exe: &Path,
    name: &str,
    seed: u64,
    size: Size,
    check_trace: bool,
) -> Result<Reference, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["ref", "--workload", name, "--seed", &seed.to_string()]);
    if size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if check_trace {
        cmd.arg("--check-trace");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let mut r = Reference::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut it = line.split_whitespace();
        let (Some(key), Some(_cell), Some(value)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        let value: u64 = value
            .parse()
            .map_err(|_| format!("reference child: bad line `{line}`"))?;
        match key {
            "baseline_ns" => r.baseline_ns.push(value),
            "ref_ns" => r.ref_ns.push(value),
            "violations" => *r.violations.get_or_insert(0) += value,
            _ => {}
        }
    }
    Ok(r)
}

/// Everything one set-up produces and the timed repetitions need.
pub struct Prepared {
    /// Inputs generated from the seed.
    pub inputs: Inputs,
    /// The reference child's report.
    pub reference: Reference,
    /// Resolved fault plan per cell.
    pub faults: Vec<FaultConfig>,
    /// The untimed warm-up repetition, one run per cell: the expected
    /// digest and task count of every timed cell.
    pub warm: Vec<CellRun>,
}

/// One set-up: generate inputs, run the reference child, run one
/// untimed warm-up repetition.
pub fn prepare(
    exe: &Path,
    name: &str,
    seed: u64,
    size: Size,
    check_trace: bool,
) -> Result<Prepared, String> {
    let inputs = build(name, seed, size).ok_or_else(|| format!("unknown workload {name}"))?;
    let reference = reference(exe, name, seed, size, check_trace)?;
    if reference.ref_ns.len() != inputs.cells.len()
        || reference.baseline_ns.len() != inputs.cells.len()
    {
        return Err("reference child reported another cell count".into());
    }
    let faults: Vec<FaultConfig> = reference
        .baseline_ns
        .iter()
        .map(|&b| resolve_faults(&inputs, b))
        .collect();
    let mut warm = Vec::new();
    for (cell, f) in inputs.cells.iter().zip(&faults) {
        warm.push(run_cell(&inputs, cell, Sched::DistWs, f, 0)?.0);
    }
    Ok(Prepared {
        inputs,
        reference,
        faults,
        warm,
    })
}

impl Prepared {
    /// Tasks one repetition executes.
    pub fn tasks_per_rep(&self) -> u64 {
        self.warm.iter().map(|c| c.report.tasks_executed).sum()
    }

    /// Simulated DistWS makespan, summed over cells, in ms.
    pub fn makespan_ms(&self) -> f64 {
        self.warm.iter().map(|c| c.report.makespan_ns).sum::<u64>() as f64 / 1e6
    }

    /// Reference makespan ÷ DistWS makespan, geometric mean over cells.
    pub fn distws_speedup(&self) -> f64 {
        let log_sum: f64 = self
            .warm
            .iter()
            .zip(&self.reference.ref_ns)
            .map(|(c, &r)| (r as f64 / c.report.makespan_ns.max(1) as f64).ln())
            .sum();
        (log_sum / self.warm.len() as f64).exp()
    }

    /// FNV-1a over the cells' digests: every simulated statistic of the
    /// workload in one number.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for c in &self.warm {
            h.update(&c.digest.to_le_bytes());
        }
        h.0
    }
}

/// Operations attempted and failed so far.
#[derive(Debug, Default)]
pub struct Ops {
    /// Timed cells run.
    pub attempted: u64,
    /// Timed cells that failed.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
}

/// Digest and wall seconds of one cell run, or why it failed.
pub type CellResult = Result<(u64, f64), String>;

/// Run one repetition of every cell through `run_one`, checking each
/// result against the warm-up's digest — the cell's whole `sim_digest`,
/// or with `full == false` (a run that changed what is traced) the
/// digest of its report alone. Returns the repetition's total cell wall
/// time, or `None` if a cell failed.
pub fn repetition(
    prep: &Prepared,
    ops: &mut Ops,
    full: bool,
    mut run_one: impl FnMut(usize) -> CellResult,
) -> Option<f64> {
    let mut wall = 0.0;
    let mut ok = true;
    for (i, warm) in prep.warm.iter().enumerate() {
        ops.attempted += 1;
        let want = if full {
            warm.digest
        } else {
            warm.report_digest
        };
        match run_one(i) {
            Ok((digest, secs)) if digest == want => wall += secs,
            Ok((digest, _)) => {
                eprintln!(
                    "FAILED cell {}: sim_digest {digest:016x} differs from the warm-up's {want:016x}",
                    prep.inputs.cells[i].label
                );
                ops.failed += 1;
                ok = false;
            }
            Err(e) => {
                eprintln!("FAILED {e}");
                ops.failed += 1;
                ok = false;
            }
        }
    }
    ok.then_some(wall)
}

/// A measured value with its unit, for the result line.
pub type Metric = (&'static str, f64, &'static str);

/// The plain run. Prints a human summary and returns the operations
/// count and the five end-to-end metrics.
pub fn plain(
    exe: &Path,
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
) -> Result<(Ops, Vec<Metric>), String> {
    let mut setup = Vec::new();
    let mut prepared = None;
    let mut violations = None;
    for k in 0..SETUPS {
        // The trace is checked once; it is output checking, not set-up,
        // and the median discards the longer first iteration.
        let start = Instant::now();
        let p = prepare(exe, name, seed, size, k == 0)?;
        setup.push(start.elapsed().as_secs_f64());
        violations = violations.or(p.reference.violations);
        prepared = Some(p);
    }
    let prep = prepared.expect("SETUPS > 0");
    let tasks = prep.tasks_per_rep();

    let mut ops = Ops::default();
    let mut rates = Vec::new();
    let start = Instant::now();
    loop {
        let wall = repetition(&prep, &mut ops, true, |i| {
            let cell = &prep.inputs.cells[i];
            run_cell(&prep.inputs, cell, Sched::DistWs, &prep.faults[i], 0)
                .map(|(run, _)| (run.digest, run.wall_s))
        });
        if let Some(wall) = wall {
            rates.push(tasks as f64 / wall);
        }
        let reps = (ops.attempted as usize) / prep.warm.len();
        let elapsed = start.elapsed().as_secs_f64();
        // Stop where the next repetition would overshoot `seconds` by
        // more than it undershoots now.
        if reps >= MIN_REPS && elapsed + elapsed / reps as f64 / 2.0 >= seconds {
            break;
        }
    }
    ops.correct = ops.failed == 0 && violations.unwrap_or(0) == 0;
    if rates.len() < 2 {
        return Err("fewer than two repetitions completed".into());
    }

    let rss_mb = peak_rss_kb().ok_or("VmHWM unavailable")? as f64 / 1024.0;
    // On the 2-core sandbox interference is one-sided: neighbours only
    // ever slow a repetition (README.md, "Bounds"). The upper quartile
    // of the rates — the median of the faster half — is the steadiest
    // figure that is still not a single sample.
    let (q1, q2, q3) = quartiles(&rates);
    println!(
        "workload {name} seed {seed} cells {} tasks/rep {tasks}",
        prep.warm.len()
    );
    println!("setup_s samples {setup:?}");
    println!(
        "tasks_per_s over {} repetitions: q1 {q1:.0} median {q2:.0} q3 {q3:.0}",
        rates.len()
    );
    if let Some(v) = violations {
        println!("analyze violations {v}");
    }
    println!(
        "operations attempted {} failed {}",
        ops.attempted, ops.failed
    );
    println!("sim_digest {:016x}", prep.sim_digest());
    let metrics = vec![
        ("setup_s", median(&setup), "s"),
        ("tasks_per_s", q3, "1/s"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("makespan_ms", prep.makespan_ms(), "ms"),
        ("distws_speedup", prep.distws_speedup(), "x"),
    ];
    Ok((ops, metrics))
}
