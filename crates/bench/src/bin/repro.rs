//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale quick|default|paper] [--json DIR]
//! repro trace <app> [--scale ...] [--policy NAME] [--seed N] [--json DIR]
//! repro chaos <app> --faults SPEC [--scale ...] [--policy NAME] [--seed N] [--json DIR] [--validate]
//! repro cluster <app> --places N [--wpp N] [--policy NAME] [--seed N] [--transport unix|tcp]
//!               [--kill "place@ms[,restart@ms][;...]"] [--dir DIR]
//! repro bench [--suite quick|full] [--seed S] [--out FILE] [--baseline FILE] [--threshold PCT] [--no-gate]
//! repro bench --check FILE
//! repro lint [ROOT]
//! repro check [interleave | protocol | liveness | mutants | hb FILE.jsonl] [--scenario NAME] [--list]
//! repro check protocol [--scenario NAME] [--full] [--compare] [--json]
//! repro check liveness [--scenario NAME] [--full] [--compare] [--json]
//! repro check tla [--scenario NAME] [--out FILE]
//! repro conform FILE.jsonl [--policy NAME]
//!
//! experiments:
//!   fig3 fig4 fig5 fig6 fig7 table1 table2 table3
//!   granularity uts adaptive ablation all
//! ```
//!
//! `repro trace` runs one application once with full observability:
//! it streams the typed event log as JSONL, exports a Chrome
//! `trace_event` JSON (load it at <https://ui.perfetto.dev>), dumps the
//! utilization time series, and prints a terminal place timeline plus
//! the latency/granularity percentile summaries.
//!
//! `repro chaos` sweeps fault-injection intensities of a `--faults`
//! spec (grammar in `docs/faults.md`, e.g.
//! `drop=0.05,jitter=2us,kill=3@40%`) and prints a degradation table:
//! makespan inflation vs the fault-free baseline plus drop/timeout/
//! retry/recovery counters per level. Every run asserts exactly-once
//! task execution. With `--validate`, every level additionally runs
//! traced and its event stream is checked by the happens-before
//! validator (tracing does not perturb results — PR 1 invariant).
//!
//! `repro bench` runs the performance suite (`docs/metrics.md`): a
//! fixed matrix of apps × policies × cluster sizes with engine
//! self-metrics enabled, recording events/sec, sim-ns per wall-ms,
//! peak RSS and makespan per cell into the schema-versioned
//! `BENCH_quick.json` / `BENCH_full.json` at the repo root. The run is
//! compared cell-by-cell against the committed baseline and exits
//! nonzero when events/sec drops by more than `--threshold` percent
//! (default 10). `repro bench --check FILE` only schema-validates a
//! trajectory file.
//!
//! `repro lint` runs the determinism lint over the workspace (or a
//! given root) and exits nonzero with `file:line` diagnostics on any
//! violation. `repro check` runs the bounded Chase-Lev/FIFO
//! interleaving checker (`interleave`), the Algorithm 1 protocol
//! model checker (`protocol` — reduced by default, `--full` for the
//! unreduced exploration, `--full --compare` for the reduced/full
//! cross-validation), the protocol-mutation smoke test (`mutants`;
//! exit 3 when a mutant exploration crashes rather than catches), or
//! the TLA+ exporter (`tla [--out FILE]`, module named after the file
//! stem); `--scenario NAME` restricts a checker to one builtin
//! scenario and `--list` enumerates them. `repro check hb FILE`
//! validates a `*.trace.jsonl` file; `repro conform FILE` replays one
//! against the Algorithm 1 steal-order automaton (pass `--policy` to
//! apply that policy's chunk/re-probe contract). See
//! `docs/analysis.md`.

use distws_bench as bench;
use distws_bench::{checkjson, perf, Scale};
use std::io::Write;

/// Short git commit baked in at compile time (`build.rs`), so the
/// benched binary's provenance is always printed — a stale
/// `target/release/repro` from an older checkout is the classic way to
/// gate CI against the wrong code.
fn build_hash() -> &'static str {
    option_env!("DISTWS_BUILD_HASH").unwrap_or("unknown")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The cluster subcommands carry their own flag namespace
    // (--places, --kill, --place, ...) — dispatch before the main
    // flag loop so it doesn't reject them.
    match args.first().map(String::as_str) {
        Some("cluster") => {
            run_cluster_cmd(&args[1..]);
            return;
        }
        Some("cluster-place") => {
            run_cluster_place_cmd(&args[1..]);
            return;
        }
        _ => {}
    }
    let mut positional: Vec<String> = Vec::new();
    let mut scale = Scale::Default;
    let mut json_dir: Option<String> = None;
    let mut policy_name = "DistWS".to_string();
    let mut fault_spec: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut validate = false;
    let mut scenario: Option<String> = None;
    let mut list = false;
    let mut full = false;
    let mut compare = false;
    let mut suite = perf::BenchSuite::Quick;
    let mut bench_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut threshold = perf::DEFAULT_THRESHOLD_PCT;
    let mut gate = true;
    let mut check_path: Option<String> = None;
    let mut max_tasks: u64 = u64::MAX;
    let mut max_wall_s: Option<f64> = None;
    let mut max_rss_mb: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--validate" => validate = true,
            "--list" => list = true,
            "--full" => full = true,
            "--compare" => compare = true,
            "--scenario" => {
                i += 1;
                scenario = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--scenario needs a name (see repro check --list)");
                    std::process::exit(2);
                }));
            }
            "--faults" => {
                i += 1;
                fault_spec = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--faults needs a spec (e.g. drop=0.05,kill=3@40%)");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                i += 1;
                seed = Some(args.get(i).and_then(|s| parse_seed(s)).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer (decimal or 0x hex)");
                    std::process::exit(2);
                }));
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(|s| s.as_str()) {
                    Some("quick") => Scale::Quick,
                    Some("default") => Scale::Default,
                    Some("paper") => Scale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => {
                // Takes a directory for the experiment commands
                // (`repro trace ... --json DIR`); for the check
                // commands it is a bare flag (JSON to stdout), so
                // only consume a value that isn't another flag.
                if args.get(i + 1).is_some_and(|a| !a.starts_with("--")) {
                    i += 1;
                    json_dir = Some(args[i].clone());
                } else {
                    json_dir = Some(".".into());
                }
            }
            "--policy" => {
                i += 1;
                policy_name = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--policy needs a scheduler name");
                    std::process::exit(2);
                });
            }
            "--suite" => {
                i += 1;
                suite = args
                    .get(i)
                    .and_then(|s| perf::BenchSuite::by_name(s))
                    .unwrap_or_else(|| {
                        eprintln!("--suite needs 'quick' or 'full'");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                i += 1;
                bench_out = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--baseline needs a BENCH_*.json path");
                    std::process::exit(2);
                }));
            }
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--threshold needs a non-negative percentage (e.g. 10)");
                        std::process::exit(2);
                    });
            }
            "--no-gate" => gate = false,
            "--check" => {
                i += 1;
                check_path = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--check needs a BENCH_*.json path");
                    std::process::exit(2);
                }));
            }
            "--max-tasks" => {
                i += 1;
                max_tasks = args
                    .get(i)
                    .and_then(|s| s.replace('_', "").parse::<u64>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--max-tasks needs an integer task bound");
                        std::process::exit(2);
                    });
            }
            "--max-wall-s" => {
                i += 1;
                max_wall_s = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|t| t.is_finite() && *t > 0.0)
                        .unwrap_or_else(|| {
                            eprintln!("--max-wall-s needs a positive seconds budget");
                            std::process::exit(2);
                        }),
                );
            }
            "--max-rss-mb" => {
                i += 1;
                max_rss_mb = Some(
                    args.get(i)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| {
                            eprintln!("--max-rss-mb needs an integer MiB budget");
                            std::process::exit(2);
                        }),
                );
            }
            flag if flag.starts_with("--") => {
                eprintln!("unexpected argument {flag}");
                std::process::exit(2);
            }
            name => positional.push(name.to_string()),
        }
        i += 1;
    }

    if positional.first().map(String::as_str) == Some("lint") {
        run_lint(positional.get(1).map(String::as_str));
        return;
    }
    if positional.first().map(String::as_str) == Some("check") {
        if list {
            run_check_list();
            return;
        }
        let json = json_dir.is_some();
        match positional.get(1).map(String::as_str) {
            None | Some("interleave") => run_check_interleave(scenario.as_deref()),
            Some("protocol") => run_check_protocol(scenario.as_deref(), full, compare, json),
            Some("liveness") => run_check_liveness(scenario.as_deref(), full, compare, json),
            Some("mutants") => run_check_mutants(),
            Some("tla") => run_check_tla(scenario.as_deref(), bench_out.as_deref()),
            Some("hb") => {
                let Some(path) = positional.get(2) else {
                    eprintln!("usage: repro check hb FILE.jsonl");
                    std::process::exit(2);
                };
                run_check_hb(path);
            }
            Some(other) => {
                eprintln!(
                    "unknown check '{other}' (expected: interleave, protocol, liveness, mutants, tla, hb FILE.jsonl)"
                );
                std::process::exit(2);
            }
        }
        return;
    }
    if positional.first().map(String::as_str) == Some("conform") {
        let Some(path) = positional.get(1) else {
            eprintln!("usage: repro conform FILE.jsonl [--policy NAME]");
            std::process::exit(2);
        };
        run_conform(path, &policy_name, args.iter().any(|a| a == "--policy"));
        return;
    }
    if positional.first().map(String::as_str) == Some("trace") {
        let Some(app) = positional.get(1) else {
            eprintln!("usage: repro trace <app> [--scale S] [--policy P] [--seed N] [--json DIR]");
            std::process::exit(2);
        };
        run_trace(
            app,
            scale,
            &policy_name,
            seed,
            json_dir.as_deref().unwrap_or("trace-out"),
        );
        return;
    }
    if positional.first().map(String::as_str) == Some("chaos") {
        let Some(app) = positional.get(1) else {
            eprintln!(
                "usage: repro chaos <app> --faults SPEC [--scale S] [--policy P] [--seed N] [--json DIR] [--validate]"
            );
            std::process::exit(2);
        };
        let Some(spec) = fault_spec else {
            eprintln!("repro chaos needs --faults SPEC (e.g. drop=0.05,kill=3@40%)");
            std::process::exit(2);
        };
        run_chaos(
            app,
            scale,
            &policy_name,
            &spec,
            seed,
            json_dir.as_deref(),
            validate,
        );
        return;
    }
    if positional.first().map(String::as_str) == Some("bench") {
        if positional.len() > 1 {
            eprintln!("usage: repro bench [--suite quick|full] [--seed S] [--out FILE] [--baseline FILE] [--threshold PCT] [--no-gate] | repro bench --check FILE");
            std::process::exit(2);
        }
        if let Some(path) = check_path {
            run_bench_check(&path);
            return;
        }
        run_bench(
            suite,
            seed.unwrap_or(0),
            bench_out.as_deref(),
            baseline.as_deref(),
            threshold,
            gate,
        );
        return;
    }
    if positional.first().map(String::as_str) == Some("scale") {
        if positional.len() > 1 {
            eprintln!(
                "usage: repro scale [--seed S] [--out FILE] [--baseline FILE] [--threshold PCT] [--no-gate] [--max-tasks N] [--max-wall-s SEC] [--max-rss-mb MiB] | repro scale --check FILE"
            );
            std::process::exit(2);
        }
        if let Some(path) = check_path {
            run_scale_check(&path);
            return;
        }
        run_scale_sweep(
            seed.unwrap_or(0),
            bench_out.as_deref(),
            baseline.as_deref(),
            threshold,
            gate,
            max_tasks,
            max_wall_s,
            max_rss_mb,
        );
        return;
    }
    if positional.len() > 1 {
        eprintln!("unexpected argument {}", positional[1]);
        std::process::exit(2);
    }
    let experiment = positional.pop().unwrap_or_else(|| "all".into());

    let run = |name: &str| experiment == "all" || experiment == name;
    let mut ran_any = false;

    macro_rules! experiment {
        ($name:literal, $rows:expr, $printer:expr) => {
            if run($name) {
                ran_any = true;
                let rows = $rows;
                $printer(&rows);
                if let Some(dir) = &json_dir {
                    write_json(dir, $name, &rows);
                }
            }
        };
    }

    experiment!("fig3", bench::fig3_steal_ratio(scale), print_fig3);
    experiment!("fig4", bench::fig4_sequential(scale), print_fig4);
    experiment!("fig5", bench::fig5_speedups(scale), print_fig5);
    if run("fig6") || run("table2") || run("table3") {
        ran_any = true;
        let rows = bench::three_way(scale);
        print_fig6(&rows);
        print_table2(&rows);
        print_table3(&rows);
        if let Some(dir) = &json_dir {
            write_json(dir, "three_way", &rows);
        }
    }
    experiment!("fig7", bench::fig7_utilization(scale), print_fig7);
    experiment!("table1", bench::table1_granularity(scale), print_table1);
    experiment!(
        "granularity",
        bench::granularity_study(scale),
        print_granularity
    );
    experiment!("uts", bench::uts_study(scale), print_uts);
    experiment!("adaptive", bench::adaptive_study(scale), print_adaptive);
    if run("ablation") {
        ran_any = true;
        let chunk = bench::ablation_chunk(scale);
        let rule = bench::ablation_mapping_rule(scale);
        let order = bench::ablation_victim_order(scale);
        print_ablation("remote chunk size (paper §V.B.3: 2 is best)", &chunk);
        print_ablation("Algorithm 1 line 5 mapping rule", &rule);
        print_ablation("ring victim ordering (footnote 2)", &order);
        if let Some(dir) = &json_dir {
            write_json(dir, "ablation_chunk", &chunk);
            write_json(dir, "ablation_mapping_rule", &rule);
            write_json(dir, "ablation_victim_order", &order);
        }
    }

    if !ran_any {
        eprintln!("unknown experiment '{experiment}'");
        eprintln!(
            "experiments: fig3 fig4 fig5 fig6 fig7 table1 table2 table3 granularity uts adaptive ablation all"
        );
        eprintln!("or: repro trace <app> [--scale S] [--policy P] [--seed N] [--json DIR]");
        eprintln!(
            "or: repro chaos <app> --faults SPEC [--scale S] [--policy P] [--seed N] [--json DIR] [--validate]"
        );
        eprintln!(
            "or: repro bench [--suite quick|full] [--seed S] [--out FILE] [--baseline FILE] [--threshold PCT] [--no-gate] [--check FILE]"
        );
        eprintln!("or: repro lint [ROOT]");
        eprintln!(
            "or: repro check [interleave | protocol | liveness | mutants | tla | hb FILE.jsonl] [--scenario NAME] [--list] [--full] [--compare] [--json] [--out FILE]"
        );
        eprintln!("or: repro conform FILE.jsonl [--policy NAME]");
        std::process::exit(2);
    }
}

/// `--seed` accepts decimal or `0x` hex.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn run_chaos(
    app_name: &str,
    scale: Scale,
    policy_name: &str,
    spec_text: &str,
    seed: Option<u64>,
    json_dir: Option<&str>,
    validate: bool,
) {
    let spec = match distws_sim::FaultSpec::parse(spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        }
    };
    let seed = seed.unwrap_or(0x5EED);
    let (rows, validation) = if validate {
        match bench::chaos_sweep_validated(app_name, policy_name, &spec, scale, seed) {
            Some((rows, v)) => (rows, Some(v)),
            None => (Vec::new(), None),
        }
    } else {
        (
            bench::chaos_sweep(app_name, policy_name, &spec, scale, seed).unwrap_or_default(),
            None,
        )
    };
    if rows.is_empty() {
        let names: Vec<String> = bench::suite(scale).iter().map(|a| a.name()).collect();
        eprintln!(
            "unknown app '{app_name}' or policy '{policy_name}'; apps: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    print_chaos(spec_text, seed, &rows);
    if let Some(v) = validation {
        println!(
            "(happens-before validator: {} levels, {} events, {} task lifecycles — all causally ordered, exactly-once)",
            v.levels_validated, v.events_checked, v.tasks_checked
        );
        println!(
            "(steal-order conformance: {} attempts replayed, {} successes justified against Algorithm 1)",
            v.steal_attempts_checked, v.steals_justified
        );
    }
    if let Some(dir) = json_dir {
        let slug = rows[0].app.to_ascii_lowercase().replace(' ', "_");
        write_json(dir, &format!("chaos_{slug}"), &rows);
    }
}

/// `repro lint [ROOT]` — the determinism lint over the workspace.
fn run_lint(root: Option<&str>) {
    let root = std::path::PathBuf::from(root.unwrap_or("."));
    let violations = match distws_analyze::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("repro lint: cannot walk {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("repro lint: workspace clean (hash-iter, wall-clock, unseeded-rng, unwrap-hot-path, safety-comment, net-process, unbounded-spin)");
    } else {
        eprintln!("repro lint: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

/// `repro check --list` — enumerate every builtin checker scenario.
fn run_check_list() {
    println!("interleave scenarios (repro check interleave --scenario NAME):");
    for s in distws_analyze::builtin_scenarios() {
        println!("  {}", s.name);
    }
    println!("  shared_fifo");
    println!(
        "protocol scenarios (repro check protocol|liveness --scenario NAME; also repro check tla):"
    );
    for s in distws_analyze::protocol::builtin_scenarios() {
        let mut notes: Vec<&str> = Vec::new();
        if s.faults.kill_place.is_some() || s.faults.max_drops > 0 || s.faults.max_dups > 0 {
            notes.push("faults");
        }
        if !s.full_ok {
            notes.push("scale: reduced-only");
        }
        println!(
            "  {:<24} {:>7}  {} places x {} workers, {} tasks{}{}",
            s.name,
            distws_analyze::era_name(s.era),
            s.places,
            s.workers_per_place,
            s.tasks.len(),
            if notes.is_empty() { "" } else { " — " },
            notes.join(", ")
        );
    }
    println!("liveness properties (repro check liveness):");
    for p in distws_analyze::Property::ALL {
        println!("  {:<28} {}", p.name(), p.formula());
    }
    println!("protocol mutants (repro check mutants):");
    for m in distws_analyze::ProtocolMutant::ALL {
        println!(
            "  {:<28} {:<9} caught by {} on {}",
            m.name(),
            if m.is_livelock() {
                "livelock"
            } else {
                "safety"
            },
            m.catch_property(),
            m.catch_scenario()
        );
    }
}

/// Print one checker results table and exit nonzero on violations.
fn print_outcomes(results: &[(&str, distws_analyze::Outcome)], what: &str) {
    println!(
        "{:<22} {:>10} {:>10} {:>11}",
        "scenario", "states", "terminals", "violations"
    );
    let mut failed = false;
    for (name, out) in results {
        println!(
            "{:<22} {:>10} {:>10} {:>11}",
            name,
            out.states,
            out.terminals,
            out.violations.len()
        );
        for v in &out.violations {
            eprintln!("  {name}: {v}");
            failed = true;
        }
    }
    if failed {
        eprintln!("repro check: {what} violations found");
        std::process::exit(1);
    }
}

/// `repro check [interleave]` — bounded-DFS interleaving checker over
/// the Chase-Lev deque and shared-FIFO models.
fn run_check_interleave(scenario: Option<&str>) {
    hr("Bounded interleaving check — Chase-Lev deque + shared FIFO models");
    let mut results: Vec<(&str, distws_analyze::Outcome)> = Vec::new();
    match scenario {
        Some("shared_fifo") => results.push((
            "shared_fifo",
            distws_analyze::explore_fifo(&distws_analyze::fifo_scenario()),
        )),
        Some(name) => {
            let Some(sc) = distws_analyze::builtin_scenarios()
                .into_iter()
                .find(|s| s.name == name)
            else {
                eprintln!("unknown interleave scenario '{name}' (see repro check --list)");
                std::process::exit(2);
            };
            results.push((sc.name, distws_analyze::explore(&sc)));
        }
        None => {
            results = distws_analyze::check_all();
            results.push((
                "shared_fifo",
                distws_analyze::explore_fifo(&distws_analyze::fifo_scenario()),
            ));
        }
    }
    print_outcomes(&results, "interleaving");
    println!("(no lost task, no double-take, no use-after-grow on any explored schedule)");
}

/// State cap for `--full` runs of the scale scenarios (the ones whose
/// unreduced state space is the point of the reductions): exploration
/// truncates there and the row is marked, never reported as proof.
const FULL_EXPLORE_CAP: u64 = 2_000_000;

/// Resolve `--scenario` (or all builtin protocol scenarios).
fn protocol_scenario_set(scenario: Option<&str>) -> Vec<distws_analyze::ProtocolScenario> {
    match scenario {
        Some(name) => match distws_analyze::scenario_by_name(name) {
            Some(sc) => vec![sc],
            None => {
                eprintln!("unknown protocol scenario '{name}' (see repro check --list)");
                std::process::exit(2);
            }
        },
        None => distws_analyze::protocol_scenarios(),
    }
}

/// The `--scenario`/`REPRO_STATE_CAP` state-cap policy shared by the
/// protocol and liveness checks.
fn explore_cap(full: bool, sc: &distws_analyze::ProtocolScenario) -> Option<u64> {
    (full && !sc.full_ok)
        .then_some(FULL_EXPLORE_CAP)
        .or_else(|| {
            // Debugging knob: bound any run's stored states.
            std::env::var("REPRO_STATE_CAP")
                .ok()
                .and_then(|v| v.parse().ok())
        })
}

/// `repro check protocol [--scenario NAME] [--full] [--compare]
/// [--json]` — explicit-state model checking of Algorithm 1 (sim and
/// cluster eras). Default mode is reduced (POR + symmetry); `--full`
/// forces the unreduced exploration (capped on scale scenarios);
/// `--compare` runs both and cross-validates the verdicts; `--json`
/// prints the stats table as JSON instead of the human table.
fn run_check_protocol(scenario: Option<&str>, full: bool, compare: bool, json: bool) {
    use distws_analyze::Mode;
    if compare {
        run_check_protocol_compare(&protocol_scenario_set(scenario));
        return;
    }
    if !json {
        hr("Algorithm 1 protocol model check — mapping, steal order, chunks, latch, recovery");
    }
    let scs = protocol_scenario_set(scenario);
    let mode = if full { Mode::Full } else { Mode::Reduced };
    if !json {
        println!(
            "{:<24} {:>7} {:>9} {:>12} {:>7} {:>8} {:>8} {:>8}",
            "scenario", "era", "states", "transitions", "peakq", "ample", "proviso", "wall ms"
        );
    }
    let mut failed = false;
    let mut truncated = false;
    let mut rows = Vec::new();
    for sc in &scs {
        let cap = explore_cap(full, sc);
        let t0 = std::time::Instant::now();
        let (out, stats) = distws_analyze::explore_protocol_mode(sc, None, mode, cap);
        let wall = t0.elapsed().as_millis();
        if json {
            rows.push(checkjson::protocol_row(
                sc.name,
                distws_analyze::era_name(sc.era),
                &out,
                &stats,
                wall as u64,
            ));
        } else {
            println!(
                "{:<24} {:>7} {:>8}{} {:>12} {:>7} {:>8} {:>8} {:>8}",
                sc.name,
                distws_analyze::era_name(sc.era),
                out.states,
                if stats.truncated { "*" } else { " " },
                stats.transitions,
                stats.peak_queue,
                stats.ample_states,
                stats.proviso_fallbacks,
                wall
            );
        }
        truncated |= stats.truncated;
        for v in &out.violations {
            eprintln!("  {}: {v}", sc.name);
            failed = true;
        }
    }
    if json {
        let report =
            checkjson::check_report("protocol", if full { "full" } else { "reduced" }, rows);
        println!("{}", report.render_pretty());
    } else if truncated {
        println!(
            "(* capped at {FULL_EXPLORE_CAP} states: full exploration of a scale scenario is a \
             partial verdict — run reduced mode for the proof)"
        );
    }
    if failed {
        eprintln!("repro check: protocol violations found");
        std::process::exit(1);
    }
    if !json {
        println!(
            "(no sensitive migration, exactly-once, no lost latch decrement, \
             termination — on every explored schedule; mode: {})",
            if full { "full" } else { "reduced" }
        );
    }
}

/// `repro check liveness [--scenario NAME] [--full] [--compare]
/// [--json]` — temporal checking over the protocol scenarios: the
/// three weak-fairness properties (eventual-execution,
/// lifeline-wakeup, steal-progress) via the acyclicity certificate +
/// nested-DFS layer. `--full` runs the phase-1 scan unreduced;
/// `--compare` cross-validates reduced vs full verdicts per property.
fn run_check_liveness(scenario: Option<&str>, full: bool, compare: bool, json: bool) {
    use distws_analyze::liveness::check_liveness;
    use distws_analyze::Mode;
    let scs = protocol_scenario_set(scenario);
    if compare {
        run_check_liveness_compare(&scs);
        return;
    }
    if !json {
        hr("Protocol liveness check — eventual execution, lifeline wakeup, steal progress");
        println!(
            "{:<24} {:>7} {:>9} {:>12} {:>7} {:>22} {:>8}",
            "scenario", "era", "states", "transitions", "cyclic", "verdicts (P1/P2/P3)", "wall ms"
        );
    }
    let mut failed = false;
    let mut rows = Vec::new();
    for sc in &scs {
        let cap = explore_cap(full, sc);
        let mode = if full { Mode::Full } else { Mode::Reduced };
        let t0 = std::time::Instant::now();
        let reports = check_liveness(sc, None, mode, cap);
        let wall = t0.elapsed().as_millis();
        if json {
            rows.push(checkjson::liveness_row(
                sc.name,
                distws_analyze::era_name(sc.era),
                &reports,
                wall as u64,
            ));
        } else {
            let verdicts: Vec<&str> = reports
                .iter()
                .map(|r| {
                    if r.truncated {
                        "cap"
                    } else if r.holds {
                        "ok"
                    } else {
                        "FAIL"
                    }
                })
                .collect();
            let first = &reports[0];
            println!(
                "{:<24} {:>7} {:>8}{} {:>12} {:>7} {:>22} {:>8}",
                sc.name,
                distws_analyze::era_name(sc.era),
                first.graph_states,
                if reports.iter().any(|r| r.truncated) {
                    "*"
                } else {
                    " "
                },
                first.graph_transitions,
                if first.cyclic { "yes" } else { "no" },
                verdicts.join("/"),
                wall
            );
        }
        for r in &reports {
            if !r.holds {
                failed = true;
                eprintln!("  {}: {} violated", sc.name, r.property.name());
                if let Some(lasso) = &r.lasso {
                    print_lasso(sc.name, lasso);
                }
            }
        }
    }
    if json {
        let report =
            checkjson::check_report("liveness", if full { "full" } else { "reduced" }, rows);
        println!("{}", report.render_pretty());
    }
    if failed {
        eprintln!("repro check: liveness violations found");
        std::process::exit(1);
    }
    if !json {
        println!(
            "(every task eventually executes, every pending lifeline push wakes its \
             worker, no fair steal-retry livelock — under weak fairness on workers \
             and delivery; mode: {})",
            if full { "full" } else { "reduced" }
        );
    }
}

/// Print a lasso counterexample: stem then cycle, elided in the
/// middle when very long.
fn print_lasso(scenario: &str, lasso: &distws_analyze::Lasso) {
    let print_part = |label: &str, steps: &[String]| {
        eprintln!("  {scenario}: {label} ({} steps):", steps.len());
        const HEAD: usize = 12;
        const TAIL: usize = 6;
        if steps.len() <= HEAD + TAIL + 2 {
            for s in steps {
                eprintln!("    {s}");
            }
        } else {
            for s in &steps[..HEAD] {
                eprintln!("    {s}");
            }
            eprintln!("    ... ({} steps elided)", steps.len() - HEAD - TAIL);
            for s in &steps[steps.len() - TAIL..] {
                eprintln!("    {s}");
            }
        }
    };
    if !lasso.stem.is_empty() {
        print_part("stem", &lasso.stem);
    }
    print_part("cycle (repeats forever)", &lasso.cycle);
}

/// `repro check liveness --compare` — reduced and full phase-1 scans
/// must agree on every property verdict (the liveness counterpart of
/// the PR 8 `--full --compare` cross-check).
fn run_check_liveness_compare(scs: &[distws_analyze::ProtocolScenario]) {
    use distws_analyze::liveness::check_liveness;
    use distws_analyze::Mode;
    println!(
        "{:<24} {:>12} {:>12} {:>22} {:>9}",
        "scenario", "full states", "red. states", "verdicts (P1/P2/P3)", "agree"
    );
    let mut failed = false;
    for sc in scs {
        if !sc.full_ok {
            println!(
                "{:<24} {:>12} {:>12} {:>22} {:>9}",
                sc.name, "(skipped)", "-", "-", "-"
            );
            continue;
        }
        let full = check_liveness(sc, None, Mode::Full, None);
        let reduced = check_liveness(sc, None, Mode::Reduced, None);
        let agree = full
            .iter()
            .zip(&reduced)
            .all(|(f, r)| f.holds == r.holds && f.cyclic == r.cyclic);
        let verdicts: Vec<&str> = reduced
            .iter()
            .map(|r| if r.holds { "ok" } else { "FAIL" })
            .collect();
        println!(
            "{:<24} {:>12} {:>12} {:>22} {:>9}",
            sc.name,
            full[0].graph_states,
            reduced[0].graph_states,
            verdicts.join("/"),
            if agree { "agree" } else { "DIVERGED" }
        );
        if !agree {
            for (f, r) in full.iter().zip(&reduced) {
                if f.holds != r.holds || f.cyclic != r.cyclic {
                    eprintln!(
                        "  {}: {} diverged (full holds={} cyclic={}, reduced holds={} cyclic={})",
                        sc.name,
                        f.property.name(),
                        f.holds,
                        f.cyclic,
                        r.holds,
                        r.cyclic
                    );
                }
            }
            failed = true;
        }
        for r in &full {
            if !r.holds {
                eprintln!("  {}: {} violated (full mode)", sc.name, r.property.name());
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("repro check: liveness reduced/full cross-validation failed");
        std::process::exit(1);
    }
    println!(
        "(reduced and full liveness verdicts agree on every property; skipped rows are scale scenarios)"
    );
}

/// `repro check protocol --full --compare` — cross-validate the
/// reductions: on every full-explorable scenario, the reduced and full
/// explorations must return the same verdict with
/// states(reduced) ≤ states(full).
fn run_check_protocol_compare(scs: &[distws_analyze::ProtocolScenario]) {
    use distws_analyze::Mode;
    println!(
        "{:<24} {:>12} {:>12} {:>7} {:>9} {:>9}",
        "scenario", "full states", "red. states", "ratio", "wall ms", "verdict"
    );
    let mut failed = false;
    for sc in scs {
        if !sc.full_ok {
            println!(
                "{:<24} {:>12} {:>12} {:>7} {:>9} {:>9}",
                sc.name, "(skipped)", "-", "-", "-", "-"
            );
            continue;
        }
        let t0 = std::time::Instant::now();
        let (full, _) = distws_analyze::explore_protocol_mode(sc, None, Mode::Full, None);
        let (reduced, _) = distws_analyze::explore_protocol_mode(sc, None, Mode::Reduced, None);
        let wall = t0.elapsed().as_millis();
        let agree = full.violations.is_empty() == reduced.violations.is_empty();
        let shrank = reduced.states <= full.states;
        println!(
            "{:<24} {:>12} {:>12} {:>6.1}x {:>9} {:>9}",
            sc.name,
            full.states,
            reduced.states,
            full.states as f64 / reduced.states.max(1) as f64,
            wall,
            if agree && shrank { "agree" } else { "DIVERGED" }
        );
        if !agree {
            eprintln!(
                "  {}: verdicts diverged (full {:?}, reduced {:?})",
                sc.name, full.violations, reduced.violations
            );
            failed = true;
        }
        if !shrank {
            eprintln!(
                "  {}: reduction grew the state space ({} > {})",
                sc.name, reduced.states, full.states
            );
            failed = true;
        }
        for v in &full.violations {
            eprintln!("  {}: {v}", sc.name);
            failed = true;
        }
    }
    if failed {
        eprintln!("repro check: reduced/full cross-validation failed");
        std::process::exit(1);
    }
    println!(
        "(reduced and full explorations agree on every verdict; skipped rows are scale scenarios)"
    );
}

/// `repro check tla [--scenario NAME] [--out FILE]` — export a
/// scenario's transition relation as a TLC-checkable TLA+ module. The
/// module name is the output file stem (TLC requires them to match),
/// or the scenario name when printing to stdout.
fn run_check_tla(scenario: Option<&str>, out: Option<&str>) {
    let name = scenario.unwrap_or("sensitive_pinning");
    let Some(sc) = distws_analyze::scenario_by_name(name) else {
        eprintln!("unknown protocol scenario '{name}' (see repro check --list)");
        std::process::exit(2);
    };
    match out {
        Some(path) => {
            let module = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or(sc.name);
            let text = distws_analyze::export_tla(&sc, module);
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("repro check tla: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!(
                "repro check tla: wrote module {module} (scenario {}) to {path}",
                sc.name
            );
        }
        None => {
            print!("{}", distws_analyze::export_tla(&sc, sc.name));
        }
    }
}

/// `repro check mutants` — re-inject the seeded protocol bugs (safety
/// *and* livelock) and require each one caught by its designated
/// property, reporting what actually caught it. A mutant whose
/// exploration *panics* is an ERROR (exit 3), not a catch: a crash
/// proves nothing about the checker's detection power, and conflating
/// the two exit paths once let a crash masquerade as a catch.
fn run_check_mutants() {
    hr("Protocol mutation smoke — every seeded Algorithm 1 bug must be caught");
    println!(
        "{:<28} {:<20} {:>8} {:<19} caught by",
        "mutant", "scenario", "caught", "property"
    );
    let mut escaped = false;
    let mut errored = false;
    for check in distws_analyze::check_protocol_mutants() {
        let status = if check.error.is_some() {
            errored = true;
            "ERROR"
        } else if check.caught {
            "yes"
        } else {
            escaped = true;
            "NO"
        };
        println!(
            "{:<28} {:<20} {:>8} {:<19} {}",
            check.mutant,
            check.scenario,
            status,
            check.property,
            if check.caught_by.is_empty() {
                "-".to_string()
            } else {
                check.caught_by.join(", ")
            }
        );
        if let Some(e) = &check.error {
            eprintln!("  {}: exploration panicked: {e}", check.mutant);
        }
        // Livelock mutants must come with a concrete counterexample:
        // print the lasso so a regression is debuggable from CI logs.
        if let Some(lasso) = &check.lasso {
            print_lasso(check.scenario, lasso);
        }
    }
    if errored {
        eprintln!("repro check: mutant exploration errored (a crash is not a catch)");
        std::process::exit(3);
    }
    if escaped {
        eprintln!("repro check: a seeded protocol mutant escaped its designated property");
        std::process::exit(1);
    }
    println!(
        "(the checker has the detection power the protocol safety and liveness \
         properties require)"
    );
}

/// `repro conform FILE.jsonl [--policy NAME]` — replay a trace against
/// the Algorithm 1 steal-order automaton.
fn run_conform(path: &str, policy_name: &str, explicit_policy: bool) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("repro conform: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let cfg = if explicit_policy {
        match distws_analyze::ConformConfig::for_policy(policy_name) {
            Some(c) => c,
            None => {
                eprintln!(
                    "unknown policy '{policy_name}' (X10WS DistWS DistWS-NS RandomWS LifelineWS AdaptiveWS)"
                );
                std::process::exit(2);
            }
        }
    } else {
        distws_analyze::ConformConfig::generic()
    };
    let report = distws_analyze::conform_str(&text, &cfg);
    for v in &report.violations {
        println!("{path}: {v}");
    }
    println!(
        "{path}: {} events, {} workers, {} attempts, {} successes, {} probes{}, {} violation(s)",
        report.events,
        report.workers,
        report.attempts,
        report.successes,
        report.probes,
        if report.full_vocabulary {
            ""
        } else {
            " (legacy vocabulary: chunk checks only)"
        },
        report.violations.len()
    );
    if !report.ok() {
        std::process::exit(1);
    }
}

/// `repro check hb FILE.jsonl` — happens-before validation of a trace.
fn run_check_hb(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("repro check hb: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = distws_analyze::validate_str(&text);
    for v in &report.violations {
        println!("{path}: {v}");
    }
    println!(
        "{path}: {} events, {} tasks, {} workers, {} violation(s)",
        report.events,
        report.tasks,
        report.workers,
        report.violations.len()
    );
    if !report.ok() {
        std::process::exit(1);
    }
}

/// `repro cluster <app> --places N ...` — run a real multi-process
/// cluster over sockets, optionally SIGKILLing places on schedule,
/// then merge the per-place traces and validate them.
fn run_cluster_cmd(args: &[String]) {
    use distws_cluster::{parse_kill_spec, run_cluster, LaunchConfig, Transport};
    let usage = "usage: repro cluster <app> --places N [--wpp N] [--policy P] [--seed S] \
                 [--transport unix|tcp] [--kill \"place@ms[,restart@ms][;...]\"] [--dir DIR] \
                 [--round-timeout-ms MS] [--run-deadline-ms MS]";
    let mut app: Option<String> = None;
    let mut places: u32 = 4;
    let mut wpp: u32 = 2;
    let mut policy = "distws".to_string();
    let mut seed: u64 = 42;
    let mut transport = Transport::Unix;
    let mut kills = Vec::new();
    let mut dir: Option<String> = None;
    let mut round_timeout_ms: u64 = 60_000;
    let mut run_deadline_ms: u64 = 120_000;
    let mut i = 0;
    let take = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{usage}");
            std::process::exit(2);
        })
    };
    let parse_or_die = |what: &str, s: String| -> u64 {
        s.parse().unwrap_or_else(|_| {
            eprintln!("repro cluster: bad {what} `{s}`");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--places" => places = parse_or_die("--places", take(&mut i)) as u32,
            "--wpp" => wpp = parse_or_die("--wpp", take(&mut i)) as u32,
            "--policy" => policy = take(&mut i),
            "--seed" => seed = parse_or_die("--seed", take(&mut i)),
            "--transport" => {
                transport = match take(&mut i).as_str() {
                    "unix" => Transport::Unix,
                    "tcp" => Transport::Tcp,
                    other => {
                        eprintln!("repro cluster: unknown transport `{other}` (unix|tcp)");
                        std::process::exit(2);
                    }
                }
            }
            "--kill" => {
                kills = parse_kill_spec(&take(&mut i)).unwrap_or_else(|e| {
                    eprintln!("repro cluster: {e}");
                    std::process::exit(2);
                })
            }
            "--dir" => dir = Some(take(&mut i)),
            "--round-timeout-ms" => {
                round_timeout_ms = parse_or_die("--round-timeout-ms", take(&mut i))
            }
            "--run-deadline-ms" => {
                run_deadline_ms = parse_or_die("--run-deadline-ms", take(&mut i))
            }
            flag if flag.starts_with("--") => {
                eprintln!("repro cluster: unexpected argument {flag}\n{usage}");
                std::process::exit(2);
            }
            name if app.is_none() => app = Some(name.to_string()),
            other => {
                eprintln!("repro cluster: unexpected argument {other}\n{usage}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(app) = app else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    if places == 0 {
        eprintln!("repro cluster: --places must be at least 1");
        std::process::exit(2);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("repro cluster: cannot locate own executable: {e}");
        std::process::exit(2);
    });
    let dir = std::path::PathBuf::from(dir.unwrap_or_else(|| "cluster-out".to_string()));
    let cfg = LaunchConfig {
        app: app.clone(),
        policy: policy.clone(),
        places,
        wpp,
        seed,
        transport,
        dir: dir.clone(),
        kills,
        round_timeout_ms,
        run_deadline_ms,
        exe,
        place_args: vec!["cluster-place".to_string()],
    };
    hr(&format!(
        "Cluster — {app} / {policy}, {places} place processes x {wpp} workers"
    ));
    let outcome = match run_cluster(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro cluster: launch failed: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "coordinator exit {}; {} kill(s) delivered; places_failed at shutdown: {}",
        outcome.exit_code,
        outcome.kills_delivered,
        if outcome.places_failed == u64::MAX {
            "unknown".to_string()
        } else {
            outcome.places_failed.to_string()
        }
    );
    println!(
        "merged trace {} ({} lines kept, {} torn, {} superseded, {} dup spawns dropped)",
        outcome.merged_path.display(),
        outcome.merge_stats.lines_out,
        outcome.merge_stats.dropped_torn,
        outcome.merge_stats.dropped_superseded,
        outcome.merge_stats.dropped_dup_spawn,
    );
    for v in outcome.hb_violations.iter().take(20) {
        println!("hb: {v}");
    }
    for v in outcome.conform_violations.iter().take(20) {
        println!("conform: {v}");
    }
    println!(
        "happens-before: {} violation(s); conformance: {} violation(s)",
        outcome.hb_violations.len(),
        outcome.conform_violations.len()
    );
    if let Some(report) = &outcome.report {
        println!("report.json:\n{report}");
    }
    if !outcome.ok() {
        std::process::exit(1);
    }
}

/// Hidden per-place entry point: `repro cluster-place --place N ...`,
/// exec'd by the launcher for each place process.
fn run_cluster_place_cmd(args: &[String]) {
    use distws_cluster::{run_place, PlaceConfig, Transport};
    let mut cfg = PlaceConfig::new(0, 1, 2, std::path::PathBuf::from("."), "quicksort");
    let mut trace: Option<String> = None;
    let mut i = 0;
    let take = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("repro cluster-place: missing value for {}", args[*i - 1]);
            std::process::exit(2);
        })
    };
    let parse_or_die = |what: &str, s: String| -> u64 {
        s.parse().unwrap_or_else(|_| {
            eprintln!("repro cluster-place: bad {what} `{s}`");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--place" => cfg.place = parse_or_die("--place", take(&mut i)) as u32,
            "--places" => cfg.places = parse_or_die("--places", take(&mut i)) as u32,
            "--wpp" => cfg.wpp = parse_or_die("--wpp", take(&mut i)) as u32,
            "--epoch" => cfg.epoch = parse_or_die("--epoch", take(&mut i)) as u32,
            "--transport" => {
                cfg.transport = match take(&mut i).as_str() {
                    "tcp" => Transport::Tcp,
                    _ => Transport::Unix,
                }
            }
            "--dir" => cfg.dir = std::path::PathBuf::from(take(&mut i)),
            "--app" => cfg.app = take(&mut i),
            "--policy" => cfg.policy = take(&mut i),
            "--seed" => cfg.seed = parse_or_die("--seed", take(&mut i)),
            "--trace" => trace = Some(take(&mut i)),
            "--report" => cfg.report_path = Some(std::path::PathBuf::from(take(&mut i))),
            "--round-timeout-ms" => {
                cfg.round_timeout_ms = parse_or_die("--round-timeout-ms", take(&mut i))
            }
            "--run-deadline-ms" => {
                cfg.run_deadline_ms = parse_or_die("--run-deadline-ms", take(&mut i))
            }
            other => {
                eprintln!("repro cluster-place: unexpected argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    cfg.trace_path = match trace {
        Some(t) => std::path::PathBuf::from(t),
        None => cfg
            .dir
            .join(format!("trace-p{}-e{}.jsonl", cfg.place, cfg.epoch)),
    };
    match run_place(cfg) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("repro cluster-place: {e}");
            std::process::exit(2);
        }
    }
}

fn print_chaos(spec_text: &str, seed: u64, rows: &[bench::ChaosRow]) {
    hr(&format!(
        "Chaos — {} / {} under \"{}\" (seed {:#x})",
        rows[0].app, rows[0].scheduler, spec_text, seed
    ));
    println!(
        "{:>6} {:>13} {:>8} {:>7} {:>6} {:>9} {:>8} {:>8} {:>10} {:>7} {:>7}",
        "level",
        "makespan(ms)",
        "degr(%)",
        "drops",
        "dups",
        "timeouts",
        "retries",
        "retrans",
        "recovered",
        "leases",
        "failed"
    );
    for r in rows {
        println!(
            "{:>6.2} {:>13.3} {:>8.1} {:>7} {:>6} {:>9} {:>8} {:>8} {:>10} {:>7} {:>7}",
            r.level,
            r.makespan_ms,
            r.degradation_pct,
            r.msgs_dropped,
            r.msgs_duplicated,
            r.steal_timeouts,
            r.steal_retries,
            r.retransmissions,
            r.tasks_recovered,
            r.lease_reclaims,
            r.places_failed
        );
    }
    println!("(every level validated its application output and executed every spawned task exactly once)");
}

/// Streams JSONL straight to the trace file through a buffered sink
/// while keeping the events in memory for the Chrome exporter and the
/// conformance replay.
struct TeeSink {
    events: Vec<distws_trace::TraceEvent>,
    file: distws_trace::BufferedJsonlSink<std::fs::File>,
}

impl TeeSink {
    fn jsonl(&self) -> String {
        // Rebuilt from the retained events: byte-identical to the file
        // contents, since the buffered sink wrote exactly these lines.
        let mut s = String::new();
        for ev in &self.events {
            s.push_str(&ev.to_jsonl());
            s.push('\n');
        }
        s
    }
}

impl distws_trace::TraceSink for TeeSink {
    fn record(&mut self, ev: distws_trace::TraceEvent) {
        self.file.record(ev);
        self.events.push(ev);
    }

    fn flush(&mut self) {
        self.file.flush();
    }
}

fn run_trace(app_name: &str, scale: Scale, policy_name: &str, seed: Option<u64>, dir: &str) {
    use distws_sim::{SimConfig, Simulation};

    let Some(app) = bench::app_by_name(app_name, scale) else {
        let names: Vec<String> = bench::suite(scale).iter().map(|a| a.name()).collect();
        eprintln!("unknown app '{app_name}'; apps: {}", names.join(" "));
        std::process::exit(2);
    };
    let Some(policy) = bench::policy_by_name(policy_name) else {
        eprintln!("unknown policy '{policy_name}' (X10WS DistWS DistWS-NS RandomWS LifelineWS AdaptiveWS)");
        std::process::exit(2);
    };
    let cluster = bench::eval_cluster(scale);

    // Pass 1 (untraced) sizes the sampling grid: ~240 samples across
    // the run regardless of app or scale.
    let probe = bench::policy_by_name(policy_name).unwrap();
    let mut pre_cfg = SimConfig::new(cluster.clone());
    if let Some(s) = seed {
        pre_cfg.seed = s;
    }
    let effective_seed = pre_cfg.seed;
    let pre = Simulation::with_config(pre_cfg, probe).run_app(app.as_ref());
    let interval = (pre.makespan_ns / 240).max(1);

    let mut cfg = SimConfig::new(cluster.clone());
    cfg.seed = effective_seed;
    cfg.sample_interval_ns = Some(interval);
    // The JSONL stream goes straight to disk through the buffered sink
    // as the simulation runs, so a large trace never sits in memory
    // twice.
    std::fs::create_dir_all(dir).expect("create trace dir");
    let slug = app.name().to_ascii_lowercase().replace(' ', "_");
    let trace_path = format!("{dir}/{slug}.trace.jsonl");
    let mut sink = TeeSink {
        events: Vec::new(),
        file: distws_trace::BufferedJsonlSink::new(
            std::fs::File::create(&trace_path).expect("create trace file"),
        ),
    };
    let app = bench::app_by_name(app_name, scale).unwrap();
    let (report, series) =
        Simulation::with_config(cfg, policy).run_app_traced(app.as_ref(), &mut sink);
    let series = series.expect("sampling was configured");

    println!(
        "{} / {} on {} places x {} workers, seed {:#x} ({} events traced)",
        report.app,
        report.scheduler,
        cluster.places,
        cluster.workers_per_place,
        effective_seed,
        sink.events.len()
    );
    println!(
        "makespan {:.3} ms  tasks {}  steals priv/shared/remote {}/{}/{}  messages {}",
        report.makespan_ns as f64 / 1e6,
        report.tasks_executed,
        report.steals.local_private,
        report.steals.local_shared,
        report.steals.remote,
        report.messages.total(),
    );
    println!();
    print!("{}", distws_trace::render_timeline(&series, 100));
    println!();
    print_percentiles(&report);

    let jsonl = sink.jsonl();
    let TeeSink { events, file } = sink;
    file.into_inner().expect("flush trace file");
    eprintln!("wrote {trace_path}");
    let write = |suffix: &str, body: &str| {
        let path = format!("{dir}/{slug}.{suffix}");
        let mut f = std::fs::File::create(&path).expect("create trace file");
        f.write_all(body.as_bytes()).expect("write trace file");
        if !body.ends_with('\n') {
            f.write_all(b"\n").expect("write trace file");
        }
        eprintln!("wrote {path}");
    };
    write(
        "chrome.json",
        &distws_trace::chrome_trace(&events, &cluster).render(),
    );
    write("series.json", &series.to_json().render_pretty());
    write("report.json", &distws_json::to_string_pretty(&report));

    // The fresh stream must conform to the Algorithm 1 steal-order
    // automaton under this policy's chunk/re-probe contract.
    let cfg = distws_analyze::ConformConfig::for_policy(policy_name)
        .unwrap_or_else(distws_analyze::ConformConfig::generic);
    let conform = distws_analyze::conform_str(&jsonl, &cfg);
    for v in &conform.violations {
        eprintln!("conformance: {v}");
    }
    if !conform.ok() {
        eprintln!(
            "repro trace: {} steal-order conformance violation(s)",
            conform.violations.len()
        );
        std::process::exit(1);
    }
    println!(
        "(steal-order conformance: {} attempts, {} successes, {} probes — all justified by Algorithm 1)",
        conform.attempts, conform.successes, conform.probes
    );
}

fn print_percentiles(report: &distws_core::RunReport) {
    let p = &report.percentiles;
    println!(
        "{:<22} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "histogram (ns)", "count", "p50", "p95", "p99", "max"
    );
    for (name, s) in [
        ("steal local private", &p.steal_local_private_ns),
        ("steal local shared", &p.steal_local_shared_ns),
        ("steal remote", &p.steal_remote_ns),
        ("task granularity", &p.task_granularity_ns),
        ("dormancy", &p.dormancy_ns),
    ] {
        println!(
            "{:<22} {:>9} {:>12} {:>12} {:>12} {:>12}",
            name, s.count, s.p50, s.p95, s.p99, s.max
        );
    }
}

fn write_json<T: distws_json::ToJson>(dir: &str, name: &str, rows: &T) {
    std::fs::create_dir_all(dir).expect("create json dir");
    let path = format!("{dir}/{name}.json");
    // write_json_file guarantees exactly one trailing newline, so a
    // regenerated file is byte-identical to the committed one.
    distws_json::write_json_file(std::path::Path::new(&path), rows).expect("write json");
    eprintln!("wrote {path}");
}

/// `repro bench` — run a suite, print the table, write the trajectory
/// file, and gate on events/sec regressions against the committed
/// baseline.
fn run_bench(
    suite: perf::BenchSuite,
    seed: u64,
    out: Option<&str>,
    baseline: Option<&str>,
    threshold_pct: f64,
    gate: bool,
) {
    let points = perf::matrix(suite);
    hr(&format!(
        "repro bench — suite {} ({} cells, seed {seed}, build {})",
        suite.name(),
        points.len(),
        build_hash(),
    ));
    let report = perf::run_suite(suite, seed, |i, p| {
        eprintln!(
            "[{}/{}] {} / {} on {}x{} ...",
            i + 1,
            points.len(),
            p.app,
            p.policy,
            p.cluster.places,
            p.cluster.workers_per_place
        );
    });
    print!("{}", perf::render_bench_table(&report));

    // Load the baseline BEFORE overwriting the default output path —
    // with no --baseline / --out, both are the committed BENCH file.
    let out_path = out.unwrap_or_else(|| suite.default_out()).to_string();
    let baseline_path = baseline.unwrap_or(&out_path).to_string();
    let baseline_report = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match perf::parse_report(&text) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => {
            eprintln!("no baseline at {baseline_path}; skipping the regression gate");
            None
        }
    };

    distws_json::write_json_file(std::path::Path::new(&out_path), &report)
        .expect("write bench json");
    eprintln!("wrote {out_path}");

    if let Some(base) = baseline_report {
        let regressions = perf::compare(&report, &base, threshold_pct);
        if regressions.is_empty() {
            println!(
                "\nregression gate: ok ({} cells within {threshold_pct}% of baseline events/sec)",
                report.cells.len()
            );
        } else {
            println!(
                "\nregression gate: {} cell(s) slower than baseline by more than {threshold_pct}%:",
                regressions.len()
            );
            for r in &regressions {
                println!(
                    "  {} / {} on {}x{}: {:.0} -> {:.0} events/sec (-{:.1}%)",
                    r.app,
                    r.policy,
                    r.places,
                    r.workers_per_place,
                    r.baseline_eps,
                    r.current_eps,
                    r.drop_pct
                );
            }
            if gate {
                std::process::exit(1);
            }
            println!("(--no-gate: not failing)");
        }
    }
}

/// `repro scale` — the cluster-scale engine sweep (see
/// `distws_bench::scale`). Runs every grid cell with `tasks <=
/// max_tasks`, writes/updates `BENCH_scale.json`, gates events/sec and
/// (same seed) the schedule's `events`/`makespan_ms` against the
/// committed baseline, and optionally enforces wall/RSS budgets (the CI
/// smoke runs a bounded cell under both).
#[allow(clippy::too_many_arguments)]
fn run_scale_sweep(
    seed: u64,
    out: Option<&str>,
    baseline: Option<&str>,
    threshold_pct: f64,
    gate: bool,
    max_tasks: u64,
    max_wall_s: Option<f64>,
    max_rss_mb: Option<u64>,
) {
    use bench::scale;

    let points: Vec<scale::ScalePoint> = scale::scale_matrix()
        .into_iter()
        .filter(|p| p.tasks <= max_tasks)
        .collect();
    if points.is_empty() {
        eprintln!("repro scale: --max-tasks {max_tasks} excludes every grid cell");
        std::process::exit(2);
    }
    hr(&format!(
        "repro scale — engine sweep ({} of {} cells, seed {seed}, build {})",
        points.len(),
        scale::scale_matrix().len(),
        build_hash(),
    ));
    let total = points.len();
    let report = scale::run_scale(seed, max_tasks, |i, p| {
        eprintln!(
            "[{}/{total}] ScaleFanout / DistWS on {}x{}, {} tasks ...",
            i + 1,
            p.places,
            p.workers_per_place,
            p.tasks
        );
    });
    print!("{}", scale::render_scale_table(&report));

    // Load the baseline BEFORE overwriting the default output path —
    // with no --baseline / --out, both are the committed BENCH file.
    let out_path = out.unwrap_or(scale::SCALE_DEFAULT_OUT).to_string();
    let baseline_path = baseline.unwrap_or(&out_path).to_string();
    let baseline_report = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match scale::parse_scale_report(&text) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => {
            eprintln!("no baseline at {baseline_path}; skipping the regression gate");
            None
        }
    };

    distws_json::write_json_file(std::path::Path::new(&out_path), &report)
        .expect("write scale json");
    eprintln!("wrote {out_path}");

    let mut failed = false;
    if let Some(budget) = max_wall_s {
        for c in &report.cells {
            if c.wall_ms > budget * 1e3 {
                println!(
                    "wall budget: {}x{} x {} tasks took {:.1}s (budget {budget}s)",
                    c.places,
                    c.workers_per_place,
                    c.tasks,
                    c.wall_ms / 1e3
                );
                failed = true;
            }
        }
    }
    if let Some(budget) = max_rss_mb {
        for c in &report.cells {
            if c.peak_rss_kb > budget * 1024 {
                println!(
                    "rss budget: {}x{} x {} tasks peaked at {} MiB (budget {budget} MiB)",
                    c.places,
                    c.workers_per_place,
                    c.tasks,
                    c.peak_rss_kb / 1024
                );
                failed = true;
            }
        }
    }

    if let Some(base) = baseline_report {
        let found = scale::compare_scale(&report, &base, threshold_pct);
        if found.is_clean() {
            println!(
                "\nregression gate: ok ({} cells within {threshold_pct}% of baseline events/sec, no schedule drift)",
                report.cells.len()
            );
        } else {
            if !found.drifted.is_empty() {
                println!("\nregression gate: schedule differs from the baseline at the same seed:");
                for line in &found.drifted {
                    println!("  {line}");
                }
            }
            if !found.slower.is_empty() {
                println!(
                    "\nregression gate: {} cell(s) slower than baseline by more than {threshold_pct}%:",
                    found.slower.len()
                );
            }
            for r in &found.slower {
                println!(
                    "  {}x{} x {} tasks: {:.0} -> {:.0} events/sec (-{:.1}%)",
                    r.point.places,
                    r.point.workers_per_place,
                    r.point.tasks,
                    r.baseline_eps,
                    r.current_eps,
                    r.drop_pct
                );
            }
            if gate {
                failed = true;
            } else {
                println!("(--no-gate: not failing)");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// `repro scale --check FILE` — schema-validate a scale trajectory.
fn run_scale_check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    match bench::scale::parse_scale_report(&text) {
        Ok(r) => {
            println!(
                "{path}: ok (schema v{}, seed {}, {} cells)",
                r.schema_version,
                r.seed,
                r.cells.len()
            );
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro bench --check FILE` — schema-validate a trajectory file.
fn run_bench_check(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    match perf::parse_report(&text) {
        Ok(r) => {
            println!(
                "{path}: ok (schema v{}, suite {}, seed {}, {} cells)",
                r.schema_version,
                r.suite,
                r.seed,
                r.cells.len()
            );
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn hr(title: &str) {
    println!("\n=== {title} ===");
}

fn print_fig3(rows: &[bench::Fig3Row]) {
    hr("Fig. 3 — steals-to-task ratio (DistWS, 16 places x 8 workers)");
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "app", "steals", "tasks", "ratio"
    );
    for r in rows {
        println!(
            "{:<14} {:>10} {:>12} {:>12.3e}",
            r.app, r.steals, r.tasks, r.ratio
        );
    }
}

fn print_fig4(rows: &[bench::Fig4Row]) {
    hr("Fig. 4 — sequential execution time (X10WS, 1 worker)");
    println!("{:<14} {:>12} {:>12}", "app", "seq (ms)", "tasks");
    for r in rows {
        println!("{:<14} {:>12.2} {:>12}", r.app, r.seq_ms, r.tasks);
    }
}

fn print_fig5(rows: &[bench::Fig5Point]) {
    hr("Fig. 5 — speedup over sequential vs workers");
    let mut apps: Vec<&str> = rows.iter().map(|r| r.app.as_str()).collect();
    apps.dedup();
    let mut workers: Vec<u32> = rows.iter().map(|r| r.workers).collect();
    workers.sort_unstable();
    workers.dedup();
    for app in apps {
        println!("\n  {app}");
        print!("    {:<10}", "workers");
        for w in &workers {
            print!(" {:>8}", w);
        }
        println!();
        for sched in ["X10WS", "DistWS"] {
            print!("    {:<10}", sched);
            for w in &workers {
                let p = rows
                    .iter()
                    .find(|r| r.app == app && r.workers == *w && r.scheduler == sched);
                match p {
                    Some(p) => print!(" {:>8.2}", p.speedup),
                    None => print!(" {:>8}", "-"),
                }
            }
            println!();
        }
    }
}

fn print_fig6(rows: &[bench::ThreeWayRow]) {
    hr("Fig. 6 — speedups at full scale: X10WS vs DistWS-NS vs DistWS");
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "app", "X10WS", "DistWS-NS", "DistWS"
    );
    for app in dedup_apps(rows) {
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.app == app && r.scheduler == s)
                .map(|r| r.speedup)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<14} {:>10.2} {:>12.2} {:>10.2}",
            app,
            get("X10WS"),
            get("DistWS-NS"),
            get("DistWS")
        );
    }
}

fn print_table2(rows: &[bench::ThreeWayRow]) {
    hr("Table II — L1d miss rates (%) at full scale");
    println!(
        "{:<14} {:>10} {:>12} {:>10}",
        "app", "X10WS", "DistWS-NS", "DistWS"
    );
    for app in dedup_apps(rows) {
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.app == app && r.scheduler == s)
                .map(|r| r.l1d_miss_pct)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<14} {:>10.1} {:>12.1} {:>10.1}",
            app,
            get("X10WS"),
            get("DistWS-NS"),
            get("DistWS")
        );
    }
}

fn print_table3(rows: &[bench::ThreeWayRow]) {
    hr("Table III — messages transmitted across nodes at full scale");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "app", "X10WS", "DistWS-NS", "DistWS"
    );
    for app in dedup_apps(rows) {
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.app == app && r.scheduler == s)
                .map(|r| r.messages)
                .unwrap_or(0)
        };
        println!(
            "{:<14} {:>12} {:>12} {:>12}",
            app,
            get("X10WS"),
            get("DistWS-NS"),
            get("DistWS")
        );
    }
}

fn print_fig7(rows: &[bench::Fig7Row]) {
    hr("Fig. 7 — per-node CPU utilization (%)");
    for r in rows {
        let places: Vec<String> = r
            .per_place_pct
            .iter()
            .map(|u| format!("{u:>5.1}"))
            .collect();
        println!(
            "{:<14} {:<10} mean {:>5.1}  disparity {:>5.1}  [{}]",
            r.app,
            r.scheduler,
            r.mean_pct,
            r.disparity_pct,
            places.join(" ")
        );
    }
}

fn print_table1(rows: &[bench::Table1Row]) {
    hr("Table I — task granularities (ms)");
    println!("{:<14} {:>14} {:>12}", "app", "granularity", "tasks");
    for r in rows {
        println!("{:<14} {:>14.3} {:>12}", r.app, r.granularity_ms, r.tasks);
    }
}

fn print_granularity(rows: &[bench::GranularityRow]) {
    hr("§VIII.2 — fine-grained micro-apps (DistWS should NOT win here)");
    println!(
        "{:<16} {:<10} {:>16} {:>10}",
        "app", "scheduler", "granularity(ms)", "speedup"
    );
    for r in rows {
        println!(
            "{:<16} {:<10} {:>16.4} {:>10.2}",
            r.app, r.scheduler, r.granularity_ms, r.speedup
        );
    }
}

fn print_adaptive(rows: &[bench::AdaptiveRow]) {
    hr("Extension — annotation-free AdaptiveWS vs annotated DistWS");
    println!(
        "{:<14} {:<12} {:>10} {:>14}",
        "app", "scheduler", "speedup", "remote refs"
    );
    for r in rows {
        println!(
            "{:<14} {:<12} {:>10.2} {:>14}",
            r.app, r.scheduler, r.speedup, r.remote_refs
        );
    }
}

fn print_uts(rows: &[bench::UtsRow]) {
    hr("§X — UTS: random vs DistWS vs lifeline load balancing");
    println!(
        "{:<12} {:>10} {:>14}",
        "scheduler", "speedup", "remote steals"
    );
    for r in rows {
        println!(
            "{:<12} {:>10.2} {:>14}",
            r.scheduler, r.speedup, r.remote_steals
        );
    }
}

fn print_ablation(title: &str, rows: &[bench::AblationRow]) {
    hr(&format!("Ablation — {title}"));
    println!(
        "{:<24} {:<14} {:>14} {:>14}",
        "variant", "app", "makespan(ms)", "remote steals"
    );
    for r in rows {
        println!(
            "{:<24} {:<14} {:>14.2} {:>14}",
            r.variant, r.app, r.makespan_ms, r.remote_steals
        );
    }
}

fn dedup_apps(rows: &[bench::ThreeWayRow]) -> Vec<String> {
    let mut apps = Vec::new();
    for r in rows {
        if !apps.contains(&r.app) {
            apps.push(r.app.clone());
        }
    }
    apps
}
