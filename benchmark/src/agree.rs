//! `set`: one full set of runs (every workload × N seeds, one process
//! per run). `agree`: compare two sets under the benchmark's bounds.

use crate::catalog::END_TO_END;
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use distws_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Run every workload `runs` times with seeds `0..runs` and write the
/// result lines to `<dir>/<workload>.jsonl`, each extended with the
/// run's seed and `sim_digest`.
pub fn run_set(exe: &Path, dir: &Path, runs: u64, seconds: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for workload in WORKLOADS {
        let mut lines = String::new();
        for seed in 0..runs {
            let out = Command::new(exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()
                .map_err(|e| format!("spawn run: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "{workload} seed {seed} failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = stdout.lines().last().ok_or("run printed nothing")?;
            let digest = stdout
                .lines()
                .find_map(|l| l.strip_prefix("sim_digest "))
                .ok_or("run printed no sim_digest")?;
            let mut v = Value::parse(result).map_err(|e| format!("result line: {e}"))?;
            v.set("seed", seed).set("sim_digest", digest);
            eprintln!("{workload} seed {seed}: {}", v.render());
            lines.push_str(&v.render());
            lines.push('\n');
        }
        let path = dir.join(format!("{workload}.jsonl"));
        std::fs::write(&path, lines).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// One set's runs of one workload: values per metric, digest per seed.
#[derive(Default)]
struct Runs {
    values: BTreeMap<String, Vec<f64>>,
    digests: BTreeMap<u64, String>,
    failed: u64,
}

fn load(dir: &Path, workload: &str) -> Result<Runs, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::default();
    for line in text.lines() {
        let v = Value::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{}: malformed result line", path.display());
        runs.failed += v.get("failed").and_then(Value::as_u64).ok_or_else(bad)?;
        if v.get("correct").and_then(Value::as_bool) != Some(true) {
            runs.failed += 1;
        }
        let seed = v.get("seed").and_then(Value::as_u64).ok_or_else(bad)?;
        let digest = v
            .get("sim_digest")
            .and_then(Value::as_str)
            .ok_or_else(bad)?;
        runs.digests.insert(seed, digest.to_string());
        for m in &END_TO_END {
            let value = v
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(bad)?;
            runs.values
                .entry(m.name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// How one `(metric, workload)` pair of two sets compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians differ by no more than the bound, in either direction.
    Within,
    /// One median is worse than the other by more than the bound.
    Outside,
    /// A set's own interquartile spread exceeds the bound, so the
    /// comparison cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Outside => "outside",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of one set and the verdict of comparing two.
pub fn judge(
    a: &[f64],
    b: &[f64],
    bound: f64,
    check_spread: bool,
) -> ((f64, f64, f64), (f64, f64, f64), Verdict) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs();
    let verdict = if check_spread && (spread(qa) > bound || spread(qb) > bound) {
        Verdict::Unresolved
    } else if (qa.1 - qb.1).abs() > bound * qa.1.abs().min(qb.1.abs()) {
        Verdict::Outside
    } else {
        Verdict::Within
    };
    (qa, qb, verdict)
}

/// Compare two sets pair by pair, print the table, and — if every pair
/// is `within` and asked to — write set A's quartiles as the noise
/// floor. Returns whether the sets agree.
pub fn agree(dir_a: &Path, dir_b: &Path, floor: Option<&Path>) -> Result<bool, String> {
    let mut all_within = true;
    let mut floor_doc = Value::object();
    println!(
        "{:<17} {:<15} {:>13} {:>13} {:>13} {:>13} {:>7} {:>7}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B median", "spreadA", "bound"
    );
    for workload in WORKLOADS {
        let (a, b) = (load(dir_a, workload)?, load(dir_b, workload)?);
        let mut w_doc = Value::object();
        for m in &END_TO_END {
            let (va, vb) = (&a.values[m.name], &b.values[m.name]);
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!("{workload}: a set needs at least two runs"));
            }
            // The driver exempts set-up time from the spread rule.
            let (qa, qb, verdict) = judge(va, vb, m.bound, m.name != "setup_s");
            all_within &= verdict == Verdict::Within;
            let spread_a = (qa.2 - qa.0) / qa.1.abs();
            println!(
                "{workload:<17} {:<15} {:>13.4} {:>13.4} {:>13.4} {:>13.4} {:>6.2}% {:>6.1}%  {}",
                m.name,
                qa.0,
                qa.1,
                qa.2,
                qb.1,
                spread_a * 100.0,
                m.bound * 100.0,
                verdict.name()
            );
            let mut e = Value::object();
            e.set("unit", m.unit)
                .set("runs", va.len())
                .set("q1", qa.0)
                .set("median", qa.1)
                .set("q3", qa.2)
                .set("spread", spread_a)
                .set("bound", m.bound);
            w_doc.set(m.name, e);
        }
        // Simulated results of one seed must repeat exactly.
        let same = a.digests == b.digests;
        all_within &= same && a.failed + b.failed == 0;
        println!(
            "{workload:<17} {:<15} {} over seeds {:?}; failed operations A {} B {}",
            "sim_digest",
            if same { "identical" } else { "DIFFERS" },
            a.digests.keys().collect::<Vec<_>>(),
            a.failed,
            b.failed
        );
        floor_doc.set(workload, w_doc);
    }
    println!(
        "{}",
        if all_within {
            "sets agree: every pair within its bound, no pair unresolved"
        } else {
            "sets DISAGREE"
        }
    );
    if let (true, Some(path)) = (all_within, floor) {
        distws_json::write_json_file(path, &floor_doc)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("noise floor written to {}", path.display());
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tight_a = [100.0, 100.5, 101.0, 100.2];
        let tight_b = [101.0, 101.5, 102.0, 101.2];
        let far = [120.0, 120.5, 121.0, 120.2];
        let noisy = [80.0, 100.0, 120.0, 100.0];
        assert_eq!(judge(&tight_a, &tight_b, 0.05, true).2, Verdict::Within);
        assert_eq!(judge(&tight_a, &far, 0.05, true).2, Verdict::Outside);
        assert_eq!(judge(&tight_a, &noisy, 0.05, true).2, Verdict::Unresolved);
        // Set-up time is exempt from the spread rule.
        assert_eq!(judge(&tight_a, &noisy, 0.05, false).2, Verdict::Within);
    }
}
