//! `diag` — side-by-side X10WS vs DistWS report for one application at
//! full scale (a development aid; the `repro` binary generates the
//! paper's tables).
//!
//! ```text
//! diag <turing|nbody|dmr|qsort|dmg|kmeans|agglom>
//! diag metrics <app>
//! ```
//!
//! `diag metrics <app>` runs that app fresh (DistWS, paper cluster)
//! with metrics enabled and renders its counter/gauge/phase table.
fn main() {
    use distws_core::{ClusterConfig, Workload};
    use distws_sched::{DistWs, Policy, X10Ws};
    use distws_sim::Simulation;
    let name = std::env::args().nth(1).unwrap_or_else(|| "turing".into());
    if name == "metrics" {
        let arg = std::env::args().nth(2).unwrap_or_else(|| {
            eprintln!("usage: diag metrics <app>");
            std::process::exit(2);
        });
        run_metrics_view(&arg);
        return;
    }
    let app: Box<dyn Workload> = match name.as_str() {
        "turing" => Box::new(distws_apps::TuringRing::default()),
        "nbody" => Box::new(distws_apps::NBody::default()),
        "dmr" => Box::new(distws_apps::DelaunayRefine::default()),
        "qsort" => Box::new(distws_apps::Quicksort::default()),
        "dmg" => Box::new(distws_apps::DelaunayGen::default()),
        "kmeans" => Box::new(distws_apps::KMeans::default()),
        "agglom" => Box::new(distws_apps::Agglomerative::default()),
        other => {
            eprintln!("unknown app '{other}'");
            eprintln!(
                "usage: diag <turing|nbody|dmr|qsort|dmg|kmeans|agglom> | diag metrics <app>"
            );
            std::process::exit(2);
        }
    };
    for policy in [
        Box::new(X10Ws) as Box<dyn Policy>,
        Box::new(DistWs::default()),
    ] {
        use distws_sim::SimConfig;
        let pname = policy.name();
        // Pass 1 sizes the sampling grid; pass 2 collects the series.
        // Virtual time is deterministic, so the reports are identical.
        let pre = Simulation::new(ClusterConfig::paper(), policy.clone_box()).run_app(app.as_ref());
        let mut cfg = SimConfig::new(ClusterConfig::paper());
        cfg.sample_interval_ns = Some((pre.makespan_ns / 160).max(1));
        let (r, series) = Simulation::with_config(cfg, policy)
            .run_app_traced(app.as_ref(), &mut distws_trace::NullSink);
        eprintln!(
            "{pname:<8} makespan {:>9.2} ms  work {:>9.2} ms  tasks {}",
            r.makespan_ns as f64 / 1e6,
            r.total_work_ns as f64 / 1e6,
            r.tasks_executed
        );
        eprintln!(
            "  steals: priv {} shared {} remote {} failed {}",
            r.steals.local_private,
            r.steals.local_shared,
            r.steals.remote,
            r.steals.failed_attempts
        );
        eprintln!(
            "  msgs: req {} reply {} migrate {} dreq {} drep {} bytes {}",
            r.messages.steal_requests,
            r.messages.steal_replies,
            r.messages.task_migrations,
            r.messages.data_requests,
            r.messages.data_replies,
            r.messages.bytes
        );
        eprintln!(
            "  remote_refs {}  util mean {:.1}% disparity {:.1}%",
            r.remote_refs,
            r.utilization.mean() * 100.0,
            r.utilization.disparity() * 100.0
        );
        let g = &r.percentiles.task_granularity_ns;
        let s = &r.percentiles.steal_remote_ns;
        eprintln!(
            "  granularity p50/p99 {}/{} ns  remote-steal p50/p99 {}/{} ns",
            g.p50, g.p99, s.p50, s.p99
        );
        if let Some(series) = series {
            eprint!("{}", distws_trace::render_timeline(&series, 100));
        }
    }
}

/// `diag metrics <app>` — counter/gauge/phase table of a fresh metered
/// run of one app.
fn run_metrics_view(name: &str) {
    use distws_bench::{perf, Scale};
    use distws_core::ClusterConfig;
    let cell = perf::bench_app(name, Scale::Default)
        .ok_or_else(|| format!("unknown app '{name}' (try Quicksort, k-Means, UTS, DMG, ...)"))
        .and_then(|app| perf::run_workload(app.as_ref(), "DistWS", &ClusterConfig::paper(), 0))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    println!("## {} (seed 0)", cell.label());
    println!("{}", cell.metrics.render_table());
}
