//! `distws-benchmark`: the repo benchmark's one binary. `run.sh` builds
//! it and passes its arguments through; see README.md.
//!
//! ```text
//! distws-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! distws-benchmark set DIR [--runs N] [--seconds S]
//! distws-benchmark agree DIR_A DIR_B [--write-floor FILE]
//! distws-benchmark manifest > BENCHMARK.json
//! distws-benchmark check-manifest BENCHMARK.json
//! distws-benchmark ref --workload W --seed N [--smoke] [--check-trace]   (internal)
//! ```

mod agree;
mod catalog;
mod cell;
mod micro;
mod replay;
mod run;
mod seams;
mod spans;
mod stats;
mod traced;
mod trees;
mod workloads;

use distws_json::Value;
use run::{Metric, Ops};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Size;

/// `--key value` and bare `--flag` arguments after the subcommand.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if flags.contains(&key) => out.options.push((key.into(), None)),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    out.options.push((key.into(), Some(value.clone())));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.value(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn number(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.value(key), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{key} {v}: not a whole number")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{key}")),
        }
    }

    fn size(&self) -> Size {
        if self.flag("smoke") {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with all the digits it was measured to.
fn result_line(ops: &Ops, metrics: &[Metric]) -> String {
    let mut ms = Value::object();
    for (name, value, unit) in metrics {
        let mut m = Value::object();
        m.set("value", *value).set("unit", *unit);
        ms.set(name, m);
    }
    let mut o = Value::object();
    o.set("correct", ops.correct)
        .set("attempted", ops.attempted)
        .set("failed", ops.failed)
        .set("metrics", ms);
    o.render()
}

fn measure(exe: &Path, args: &Args) -> Result<(), String> {
    let workload = args.required("workload")?;
    let seed = args.number("seed", None)?;
    let seconds = args.number("seconds", None)? as f64;
    let (ops, metrics) = match args.number("trace", Some(0))? {
        0 => run::plain(exe, workload, seed, seconds, args.size())?,
        1 => {
            let out = PathBuf::from(args.value("out").unwrap_or("benchmark/out"));
            traced::traced(exe, workload, seed, seconds, args.size(), &out)?
        }
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    for (name, value, unit) in &metrics {
        println!("{name:<42} {value:>18.6} {unit}");
    }
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err("a metric is not a finite number".into());
    }
    println!("{}", result_line(&ops, &metrics));
    Ok(())
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    match argv.first().map(String::as_str) {
        Some("ref") => {
            let a = Args::parse(&argv[1..], &["smoke", "check-trace"])?;
            run::reference_main(
                a.required("workload")?,
                a.number("seed", None)?,
                a.size(),
                a.flag("check-trace"),
            )?;
        }
        Some("set") => {
            let a = Args::parse(&argv[1..], &[])?;
            let dir = a.positional.first().ok_or("set needs a directory")?;
            agree::run_set(
                &exe,
                Path::new(dir),
                a.number("runs", Some(10))?,
                a.number("seconds", Some(8))?,
            )?;
        }
        Some("agree") => {
            let a = Args::parse(&argv[1..], &[])?;
            let [dir_a, dir_b] = a.positional.as_slice() else {
                return Err("agree needs two set directories".into());
            };
            return agree::agree(
                Path::new(dir_a),
                Path::new(dir_b),
                a.value("write-floor").map(Path::new),
            );
        }
        Some("manifest") => println!("{}", catalog::manifest().render_pretty()),
        Some("check-manifest") => {
            let path = argv.get(1).ok_or("check-manifest needs a file")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let errs = catalog::check_manifest(&text);
            for e in &errs {
                eprintln!("{e}");
            }
            return Ok(errs.is_empty());
        }
        _ => measure(&exe, &Args::parse(argv, &["smoke"])?)?,
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("distws-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
