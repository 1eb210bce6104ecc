//! The traced run: the same cells with seams in place, the replay
//! drivers, and every per-layer metric. End-to-end metrics never come
//! from here.

use crate::catalog::LAYERS;
use crate::cell::{report_digest, run_cell, run_with, sim_config, HashingWriter, Sched};
use crate::micro;
use crate::replay::{self, Timed};
use crate::run::{prepare, repetition, CellResult, Metric, Ops, Prepared, TRACE_KEEP};
use crate::seams::{AccessRec, RecordingWorkload, SpanMetrics, SpanPolicy, SpanSink, TeeSink};
use crate::spans::{Folded, Recorder};
use crate::stats::median;
use crate::workloads::{Size, HOT_STEAL_FAULTS, PAPER_APPS};
use distws_analyze::conform::{conform_str, ConformConfig};
use distws_analyze::hb;
use distws_core::{CacheSummary, FaultSummary, MessageCounts};
use distws_metrics::{Counter, EngineMetrics, MetricsSink, NullMetrics, Phase};
#[cfg(test)]
use distws_sim::FaultConfig;
use distws_sim::FaultSpec;
use distws_trace::{BufferedJsonlSink, NullSink, TraceSink};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Access records kept for the cache replay (32 B each).
const ACCESS_KEEP: usize = 4 << 20;

/// Trace events kept per cell for the `to_jsonl` replay.
const EVENT_KEEP: usize = 200_000;

/// Shares of `--seconds` spent on plain and on seamed repetitions; the
/// rest of the traced run (single extra repetitions, replay drivers) is
/// sized by the workload, not by the clock.
const PLAIN_SHARE: f64 = 0.3;
const SEAMED_SHARE: f64 = 0.4;

/// What the seamed repetitions saw. Times are summed over every seamed
/// repetition; counts are those of the first one (they repeat exactly).
#[derive(Default)]
struct Seamed {
    reps: u64,
    wall_s: f64,
    phase_ns: [u64; Phase::COUNT],
    steal_seq: Folded,
    map_task: Folded,
    sink_record: Folded,
    sink_flush_ns: u64,
    /// Self time of the dispatch phase spans: dispatch minus the policy
    /// and sink calls made from it.
    dispatch_self_ns: u64,
    /// Self time of the cell spans: `roots()`, `validate()`, the report.
    cell_self_ns: u64,
    cell_wall_s: BTreeMap<&'static str, Vec<f64>>,
    // First repetition only.
    tasks: u64,
    counters: [u64; Counter::COUNT],
    queue_mean_depth: u64,
    metrics_calls: u64,
    steal_steps: u64,
    mapped_private: u64,
    mapped_shared: u64,
    trace_bytes: u64,
    messages: MessageCounts,
    cache: CacheSummary,
    faults: FaultSummary,
    /// Per cell: worker count, recorded accesses, accesses past the cap.
    accesses: Vec<(u32, Vec<AccessRec>, u64)>,
}

impl Seamed {
    fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// `ns` summed over all seamed repetitions, as a share of their wall.
    fn share(&self, ns: u64) -> f64 {
        ns as f64 / 1e9 / self.wall_s
    }

    fn per_rep(&self, total: u64) -> f64 {
        total as f64 / self.reps as f64
    }
}

/// Run cell `i` with every seam in place; fold what the seams saw into
/// `acc` and the span store. Returns the cell's digest and wall time.
fn seamed_cell(
    prep: &Prepared,
    i: usize,
    rec: &mut Recorder,
    rep_span: usize,
    acc: &mut Seamed,
) -> CellResult {
    let first = acc.reps == 0;
    let cell = &prep.inputs.cells[i];
    let cfg = sim_config(&prep.inputs, cell, &prep.faults[i]);
    let (policy, pstats) = SpanPolicy::wrap(Sched::DistWs.policy());
    let mut metrics = SpanMetrics::default();
    let app = RecordingWorkload::new(cell.app.as_ref(), if first { ACCESS_KEEP } else { 0 });
    let span = rec.open("cell", Some(rep_span), cell.label);
    let (report, wall_s, record, flush_ns, trace) = if prep.inputs.observed {
        let mut sink = SpanSink::new(BufferedJsonlSink::new(HashingWriter::default()));
        let (report, wall_s) = run_with(cfg, cell, &app, policy, &mut sink, &mut metrics)?;
        let flush_ns = sink.flush.total_ns();
        let writer = sink
            .inner
            .into_inner()
            .map_err(|e| format!("trace writer: {e}"))?;
        (report, wall_s, sink.record, flush_ns, Some(writer))
    } else {
        let mut sink = SpanSink::new(NullSink);
        let (report, wall_s) = run_with(cfg, cell, &app, policy, &mut sink, &mut metrics)?;
        (report, wall_s, sink.record, sink.flush.total_ns(), None)
    };
    rec.close(span);

    // The engine's exclusive phases go under the cell, the per-call
    // seams under the phase they run in. What the cell keeps as self
    // time is `roots()`, `validate()` and building the report.
    let snap = metrics.inner.snapshot();
    let mut dispatch = span;
    for p in Phase::ALL {
        let id = rec.fold_raw(
            &format!("sim.engine.{}", p.name()),
            span,
            metrics.phase_entries[p.index()],
            snap.phase(p),
            Vec::new(),
        );
        if p == Phase::EventDispatch {
            dispatch = id;
        }
        acc.phase_ns[p.index()] += snap.phase(p);
    }
    rec.fold("sched.steal_sequence", dispatch, &pstats.steal_seq);
    rec.fold("sched.map_task", dispatch, &pstats.map_task);
    rec.fold("trace.sink.record", dispatch, &record);
    acc.dispatch_self_ns += rec.self_ns(dispatch);
    acc.cell_self_ns += rec.self_ns(span);

    acc.wall_s += wall_s;
    acc.steal_seq.absorb(&pstats.steal_seq);
    acc.map_task.absorb(&pstats.map_task);
    acc.sink_record.absorb(&record);
    acc.sink_flush_ns += flush_ns;
    acc.cell_wall_s.entry(cell.label).or_default().push(wall_s);
    if first {
        acc.tasks += report.tasks_executed;
        for c in Counter::ALL {
            acc.counters[c.index()] += snap.counter(c);
        }
        let pops = snap.counter(Counter::EventQueuePops).max(1);
        acc.queue_mean_depth = acc.queue_mean_depth.max(metrics.depth_at_pop_sum / pops);
        acc.metrics_calls += metrics.calls;
        acc.steal_steps += pstats.steal_steps.load(Relaxed);
        acc.mapped_private += pstats.mapped_private.load(Relaxed);
        acc.mapped_shared += pstats.mapped_shared.load(Relaxed);
        acc.trace_bytes += trace.as_ref().map_or(0, |w| w.bytes);
        acc.messages.merge(&report.messages);
        acc.cache.merge(&report.cache);
        acc.faults.merge(&report.faults);
        let log = app.take_log();
        acc.accesses
            .push((cell.cluster.total_workers(), log.recs, log.dropped));
    }
    let digest = report_digest(&report);
    Ok((trace.map_or(digest, |w| digest.with_trace(&w)).0, wall_s))
}

/// What the corpus drivers add up to over the cells of the trace-only
/// repetition.
#[derive(Default)]
struct Corpus {
    parse: Timed,
    render: Timed,
    to_jsonl: Timed,
    hb: Timed,
    conform: Timed,
    violations: u64,
}

/// Run cell `i` into a JSONL sink with metrics off, then run the
/// json / trace / analyze drivers on the trace it wrote.
fn trace_only_cell(
    prep: &Prepared,
    i: usize,
    rec: &mut Recorder,
    rep_span: usize,
    corpus: &mut Corpus,
) -> CellResult {
    let cell = &prep.inputs.cells[i];
    let cfg = sim_config(&prep.inputs, cell, &prep.faults[i]);
    let mut sink = TeeSink::new(
        BufferedJsonlSink::new(HashingWriter::keeping(TRACE_KEEP)),
        EVENT_KEEP,
    );
    let span = rec.open("cell", Some(rep_span), cell.label);
    let (report, wall_s) = run_with(
        cfg,
        cell,
        cell.app.as_ref(),
        Sched::DistWs.policy(),
        &mut sink,
        &mut NullMetrics,
    )?;
    rec.close(span);
    let writer = sink
        .inner
        .into_inner()
        .map_err(|e| format!("trace writer: {e}"))?;
    if !writer.kept_all() {
        // A cut trace cannot be validated.
        return Err(format!(
            "trace of {} bytes exceeds the analysers' cap",
            writer.bytes
        ));
    }
    let text = String::from_utf8(writer.kept).map_err(|e| e.to_string())?;

    // `to_jsonl` first: it is the one driver that re-runs code the sink
    // ran, and it should meet the allocator as the sink did.
    corpus.to_jsonl += rec.within("replay.trace.to_jsonl", cell.label, || {
        replay::to_jsonl(&sink.head)
    });
    let (parse, render) = rec.within("replay.json", cell.label, || replay::json(&text));
    corpus.parse += parse;
    corpus.render += render;
    let events = text.lines().count() as u64;
    let (hb_t, hb_v) = rec.within("replay.analyze.hb", cell.label, || {
        let start = Instant::now();
        let report = hb::validate_str(&text);
        (Timed::since(events, start), report.violations.len())
    });
    let (conform_t, conform_v) = rec.within("replay.analyze.conform", cell.label, || {
        let cfg = ConformConfig::for_policy("DistWS").expect("DistWS is a named policy");
        let start = Instant::now();
        let report = conform_str(&text, &cfg);
        (Timed::since(events, start), report.violations.len())
    });
    corpus.hb += hb_t;
    corpus.conform += conform_t;
    corpus.violations += (hb_v + conform_v) as u64;
    Ok((report_digest(&report).0, wall_s))
}

/// Run cell `i` bare (`metered == false`: null sink, null metrics) or
/// with engine metrics only. Neither traces, so the telemetry sampler
/// the observed workload switches on has nothing to feed and stays off.
fn untraced_cell(prep: &Prepared, i: usize, metered: bool) -> CellResult {
    let cell = &prep.inputs.cells[i];
    let mut cfg = sim_config(&prep.inputs, cell, &prep.faults[i]);
    cfg.sample_interval_ns = None;
    let mut metrics = EngineMetrics::new();
    let sink: &mut dyn TraceSink = &mut NullSink;
    let metrics: &mut dyn MetricsSink = if metered {
        &mut metrics
    } else {
        &mut NullMetrics
    };
    let (report, wall_s) = run_with(
        cfg,
        cell,
        cell.app.as_ref(),
        Sched::DistWs.policy(),
        sink,
        metrics,
    )?;
    Ok((report_digest(&report).0, wall_s))
}

fn pct_over(wall: f64, base: f64) -> f64 {
    (wall / base - 1.0) * 100.0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run. Prints a human summary, writes the span file under
/// `out_dir` and returns the operations count and every per-layer
/// metric, in catalog order.
pub fn traced(
    exe: &Path,
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    out_dir: &Path,
) -> Result<(Ops, Vec<Metric>), String> {
    let prep = prepare(exe, name, seed, size, false)?;
    let mut rec = Recorder::default();
    let mut ops = Ops::default();

    // Plain repetitions: the base every overhead and share refers to.
    let mut plain_walls = Vec::new();
    let start = Instant::now();
    while plain_walls.is_empty() || start.elapsed().as_secs_f64() < seconds * PLAIN_SHARE {
        let span = rec.open("rep.plain", None, "-");
        let wall = repetition(&prep, &mut ops, true, |i| {
            let cell = &prep.inputs.cells[i];
            run_cell(&prep.inputs, cell, Sched::DistWs, &prep.faults[i], 0)
                .map(|(run, _)| (run.digest, run.wall_s))
        });
        rec.close(span);
        plain_walls.push(wall.ok_or("a plain repetition failed")?);
    }
    let plain_wall = median(&plain_walls);

    // Seamed repetitions.
    let mut acc = Seamed::default();
    let mut seamed_walls = Vec::new();
    let start = Instant::now();
    while acc.reps == 0 || start.elapsed().as_secs_f64() < seconds * SEAMED_SHARE {
        let span = rec.open("rep.seamed", None, "-");
        let wall = repetition(&prep, &mut ops, true, |i| {
            seamed_cell(&prep, i, &mut rec, span, &mut acc)
        });
        rec.close(span);
        acc.reps += 1;
        seamed_walls.push(wall.ok_or("a seamed repetition failed")?);
    }

    // One repetition each: bare, trace only, metrics only. On every
    // workload but the observed one the plain repetitions are bare, and
    // tracing is not measured: a steal-heavy cell writes ~10 M events,
    // which would take longer than everything else in the run together.
    let single = |rec: &mut Recorder,
                  ops: &mut Ops,
                  name: &str,
                  f: &mut dyn FnMut(&mut Recorder, usize, usize) -> CellResult|
     -> Result<f64, String> {
        let span = rec.open(name, None, "-");
        let wall = repetition(&prep, ops, false, |i| f(rec, span, i));
        rec.close(span);
        wall.ok_or_else(|| format!("the {name} repetition failed"))
    };
    let bare_wall = if prep.inputs.observed {
        single(&mut rec, &mut ops, "rep.bare", &mut |_, _, i| {
            untraced_cell(&prep, i, false)
        })?
    } else {
        plain_wall
    };
    let mut corpus = Corpus::default();
    let trace_wall = if prep.inputs.observed {
        single(&mut rec, &mut ops, "rep.trace_only", &mut |rec, span, i| {
            trace_only_cell(&prep, i, rec, span, &mut corpus)
        })?
    } else {
        bare_wall
    };
    let metrics_wall = single(&mut rec, &mut ops, "rep.metrics_only", &mut |_, _, i| {
        untraced_cell(&prep, i, true)
    })?;

    // Replay drivers, on the first seamed repetition's own counts.
    let pushes = acc.counter(Counter::EventQueuePushes);
    let cal = rec.within("replay.sim.calendar", "-", || {
        replay::calendar(pushes, acc.queue_mean_depth)
    });
    let deques = rec.within("replay.deque.seq", "-", || {
        replay::seq_deques(acc.mapped_private, acc.mapped_shared, 8)
    });
    let specs = rec.within("replay.core.taskspec", "-", || {
        replay::taskspecs(acc.counter(Counter::TasksAllocated))
    });
    let places = prep
        .inputs
        .cells
        .iter()
        .map(|c| c.cluster.places)
        .max()
        .unwrap_or(2);
    // The faulty send path is replayed under the workload's own link
    // faults, or under `hot-steal-faulty`'s where the workload has none.
    let plan = match &prep.inputs.faults {
        Some(_) => prep.faults[0].net.clone(),
        None => {
            let spec = FaultSpec::parse(HOT_STEAL_FAULTS).expect("built-in fault spec parses");
            spec.resolve(0, 1.0, 0).net
        }
    };
    let net = rec.within("replay.netsim", "-", || {
        (
            replay::netsim(&acc.messages, places, None),
            replay::netsim(&acc.messages, places, Some(&plan)),
        )
    });
    let mut cache = Timed::default();
    let mut replay_misses = 0;
    let mut recorded = 0u64;
    rec.within("replay.cachesim", "-", || {
        for (workers, recs, dropped) in &acc.accesses {
            let (t, misses) = replay::cachesim(recs, *workers);
            cache += t;
            replay_misses += misses;
            recorded += recs.len() as u64 + dropped;
        }
    });
    let hist = rec.within("replay.trace.hist", "-", || replay::hist_record(acc.tasks));

    // Layers no workload reaches yet.
    let div = match size {
        Size::Full => 1,
        Size::Smoke => 20,
    };
    let (chase, fifo) = rec.within("micro.deque", "-", || {
        (
            micro::chase_lev_ops(1_000_000 / div),
            micro::shared_fifo_ops(1_000_000 / div),
        )
    });
    let runtime = rec.within("micro.runtime", "-", || {
        micro::runtime_probe(200_000 / div, 5)
    });
    let wire = rec
        .within("micro.cluster.wire", "-", || {
            micro::wire_probe(20_000 / div)
        })
        .map_err(|e| format!("wire probe: {e}"))?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let span_file = out_dir.join(format!("{name}.spans.jsonl"));
    std::fs::write(&span_file, rec.to_jsonl())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;

    // ---- derive the metrics ------------------------------------------------
    let events = acc.counter(Counter::EventsProcessed);
    let exec_ns = acc.phase_ns[Phase::TaskExecution.index()];
    let emission_ns = acc.phase_ns[Phase::TraceEmission.index()];
    let sched_ns = acc.steal_seq.total_ns() + acc.map_task.total_ns();
    let record_ns = acc.sink_record.total_ns();
    let roots_validate_ns = acc.cell_self_ns;
    let trace_ns = record_ns + emission_ns;
    let of_plain = |t: Timed| t.secs / plain_wall;
    let tier = |i| {
        ratio(
            acc.counter(Counter::steal_successes(i)),
            acc.counter(Counter::steal_attempts(i)),
        )
    };
    let accounted = acc.share(exec_ns)
        + acc.share(trace_ns)
        + acc.share(sched_ns)
        + acc.share(roots_validate_ns)
        + of_plain(cal.0)
        + of_plain(deques.0)
        + of_plain(deques.1)
        + of_plain(net.0)
        + of_plain(cache);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "sim.engine.dispatch_self_ns_per_event",
        acc.dispatch_self_ns as f64 / (events * acc.reps) as f64,
    );
    m.insert("sim.engine.events_per_task", ratio(events, acc.tasks));
    m.insert("sim.engine.task_exec_share", acc.share(exec_ns));
    m.insert("sim.engine.trace_emission_share", acc.share(emission_ns));
    m.insert("sim.engine.unattributed_share", (1.0 - accounted).max(0.0));
    m.insert("sched.steal_seq_calls", acc.per_rep(acc.steal_seq.calls()));
    m.insert("sched.steal_seq_ns_per_call", acc.steal_seq.ns_per_call());
    m.insert(
        "sched.steal_steps_per_call",
        ratio(acc.steal_steps, acc.steal_seq.calls() / acc.reps),
    );
    m.insert("sched.map_task_calls", acc.per_rep(acc.map_task.calls()));
    m.insert("sched.map_task_ns_per_call", acc.map_task.ns_per_call());
    m.insert("sched.share_of_wall", acc.share(sched_ns));
    m.insert("sched.steal_success_ratio.local_private", tier(0));
    m.insert("sched.steal_success_ratio.local_shared", tier(1));
    m.insert("sched.steal_success_ratio.remote", tier(2));
    let sink_events = acc.sink_record.calls() / acc.reps;
    m.insert("trace.sink_events", sink_events as f64);
    m.insert("trace.sink_ns_per_event", acc.sink_record.ns_per_call());
    m.insert("trace.bytes_per_event", ratio(acc.trace_bytes, sink_events));
    m.insert(
        "trace.mb_per_s",
        match record_ns + acc.sink_flush_ns {
            0 => 0.0,
            ns => (acc.trace_bytes * acc.reps) as f64 / 1e6 / (ns as f64 / 1e9),
        },
    );
    m.insert("trace.share_of_wall", acc.share(trace_ns));
    m.insert("trace.overhead_pct", pct_over(trace_wall, bare_wall));
    m.insert("metrics.sink_calls", acc.metrics_calls as f64);
    m.insert("metrics.overhead_pct", pct_over(metrics_wall, bare_wall));
    m.insert("sim.calendar.ops", cal.0.ops as f64);
    m.insert("sim.calendar.ns_per_op", cal.0.ns_per_op());
    m.insert(
        "sim.calendar.vs_binaryheap_ratio",
        if cal.1.secs == 0.0 {
            0.0
        } else {
            cal.0.secs / cal.1.secs
        },
    );
    m.insert("sim.calendar.share_of_wall", of_plain(cal.0));
    m.insert("deque.seq_private_ns_per_op", deques.0.ns_per_op());
    m.insert("deque.seq_shared_ns_per_op", deques.1.ns_per_op());
    m.insert("deque.grows", acc.counter(Counter::DequeGrows) as f64);
    m.insert("core.taskspec_ns_per_task", specs.ns_per_op());
    m.insert("netsim.msgs", acc.messages.total() as f64);
    m.insert("netsim.bytes", acc.messages.bytes as f64);
    m.insert("netsim.ns_per_send", net.0.ns_per_op());
    m.insert("netsim.ns_per_send_faulty", net.1.ns_per_op());
    m.insert("netsim.dropped", acc.messages.dropped.total() as f64);
    m.insert("netsim.share_of_wall", of_plain(net.0));
    m.insert("sched.retry.timeouts", acc.faults.steal_timeouts as f64);
    m.insert("sched.retry.retries", acc.faults.steal_retries as f64);
    m.insert(
        "sim.faults.lease_reclaims",
        acc.faults.lease_reclaims as f64,
    );
    m.insert(
        "sim.faults.tasks_recovered",
        acc.faults.tasks_recovered as f64,
    );
    m.insert("cachesim.accesses", acc.cache.accesses as f64);
    m.insert("cachesim.ns_per_access", cache.ns_per_op());
    m.insert("cachesim.miss_rate_pct", acc.cache.miss_rate_pct());
    // The replay covers the recorded share of the run's accesses; scale
    // its time up to the whole run.
    m.insert(
        "cachesim.share_of_wall",
        if cache.ops == 0 {
            0.0
        } else {
            of_plain(cache) * acc.cache.accesses as f64 / cache.ops as f64
        },
    );
    m.insert(
        "apps.body_ns_per_task",
        exec_ns as f64 / (acc.tasks * acc.reps) as f64,
    );
    m.insert("apps.roots_validate_share", acc.share(roots_validate_ns));
    for app in PAPER_APPS {
        let key = LAYERS
            .iter()
            .map(|l| l.name)
            .find(|n| n.strip_prefix("apps.cell_wall_s.") == Some(app))
            .expect("catalog lists every paper app");
        m.insert(key, acc.cell_wall_s.get(app).map_or(0.0, |v| median(v)));
    }
    m.insert("json.render_mb_per_s", corpus.render.per_s() / 1e6);
    m.insert("json.parse_mb_per_s", corpus.parse.per_s() / 1e6);
    m.insert("trace.to_jsonl_ns_per_event", corpus.to_jsonl.ns_per_op());
    m.insert("trace.hist_record_ns", hist.ns_per_op());
    m.insert("analyze.hb_events_per_s", corpus.hb.per_s());
    m.insert("analyze.conform_events_per_s", corpus.conform.per_s());
    m.insert("analyze.violations", corpus.violations as f64);
    m.insert("deque.chase_lev_ns_per_op", chase.ns_per_op());
    m.insert("deque.shared_fifo_ns_per_op", fifo.ns_per_op());
    m.insert("runtime.tasks_per_s", runtime.tasks_per_s);
    m.insert("runtime.remote_steal_share", runtime.remote_steal_share);
    m.insert("cluster.wire.encode_ns_per_frame", wire.encode.ns_per_op());
    m.insert("cluster.wire.decode_ns_per_frame", wire.decode.ns_per_op());
    m.insert("cluster.wire.bytes_per_task_migrate", wire.bytes_per_task);
    m.insert(
        "cluster.wire.stream_roundtrip_us",
        wire.roundtrip.ns_per_op() / 1e3,
    );
    m.insert(
        "spans.overhead_pct",
        pct_over(median(&seamed_walls), plain_wall),
    );

    ops.correct = ops.failed == 0 && corpus.violations == 0;
    println!(
        "workload {name} seed {seed} traced: {} plain, {} seamed repetitions, plain wall {plain_wall:.3} s",
        plain_walls.len(),
        acc.reps
    );
    println!(
        "accounted {:.1} % of wall: body, trace, sched, roots+validate measured, plus the calendar, \
         deque, netsim and cachesim replay estimates (over 100 %: the estimates overlap). The rest \
         is sim.engine.unattributed_share: steal-step interpretation, arenas, board, wake lists, report",
        accounted * 100.0
    );
    println!(
        "event queue: {pushes} pushes, mean depth at pop {}; deques: {} private, {} shared mappings",
        acc.queue_mean_depth, acc.mapped_private, acc.mapped_shared
    );
    println!(
        "cachesim replay covered {recorded} of the run's access calls ({} line accesses of {}), \
         {replay_misses} misses against the run's {}",
        cache.ops, acc.cache.accesses, acc.cache.misses
    );
    println!(
        "runtime probe 2x1 threads: tasks/s spread {:.1} % over 5 runs",
        runtime.spread * 100.0
    );
    println!(
        "operations attempted {} failed {}",
        ops.attempted, ops.failed
    );
    println!("sim_digest {:016x}", prep.sim_digest());
    println!("spans written to {}", span_file.display());

    let metrics = LAYERS
        .iter()
        .map(|l| {
            let v = m
                .remove(l.name)
                .ok_or_else(|| format!("layer metric {} was not measured", l.name))?;
            Ok((l.name, v, l.unit))
        })
        .collect::<Result<Vec<Metric>, String>>()?;
    if let Some(extra) = m.keys().next() {
        return Err(format!("measured {extra}, which the catalog does not list"));
    }
    Ok((ops, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Reference;
    use crate::workloads::build;
    use distws_core::{ClusterConfig, Locality, ObjectId, PlaceId, TaskScope, TaskSpec, Workload};

    /// A `Prepared` without the reference child: smoke inputs, no
    /// faults, the warm-up run in-process.
    fn prepared(workload: &str) -> Prepared {
        let inputs = build(workload, 1, Size::Smoke).expect("known workload");
        let faults = vec![FaultConfig::default(); inputs.cells.len()];
        let warm = inputs
            .cells
            .iter()
            .map(|c| {
                run_cell(&inputs, c, Sched::DistWs, &faults[0], 0)
                    .expect("cell runs")
                    .0
            })
            .collect();
        Prepared {
            inputs,
            reference: Reference::default(),
            faults,
            warm,
        }
    }

    fn seamed(prep: &Prepared) -> (Seamed, Vec<u64>) {
        let mut rec = Recorder::default();
        let mut acc = Seamed::default();
        let rep = rec.open("rep.seamed", None, "-");
        let digests = (0..prep.warm.len())
            .map(|i| {
                seamed_cell(prep, i, &mut rec, rep, &mut acc)
                    .expect("seamed cell runs")
                    .0
            })
            .collect();
        acc.reps = 1;
        (acc, digests)
    }

    #[test]
    fn seams_leave_sim_digest_unchanged() {
        for w in ["hot-steal", "fanout-observed", "paper-suite"] {
            let prep = prepared(w);
            let (_, digests) = seamed(&prep);
            let want: Vec<u64> = prep.warm.iter().map(|c| c.digest).collect();
            assert_eq!(digests, want, "{w}");
        }
    }

    #[test]
    fn replay_op_counts_equal_the_run_counters_they_come_from() {
        let prep = prepared("hot-steal");
        let (acc, _) = seamed(&prep);
        let report = &prep.warm[0].report;
        // Policy seam against engine counters.
        assert_eq!(acc.map_task.calls(), acc.mapped_private + acc.mapped_shared);
        assert!(acc.steal_steps >= acc.steal_seq.calls());
        assert_eq!(acc.counter(Counter::TasksAllocated), report.tasks_spawned);
        assert_eq!(
            acc.counter(Counter::EventQueuePushes),
            acc.counter(Counter::EventQueuePops)
        );
        // Each driver performs exactly the count it was handed.
        let pushes = acc.counter(Counter::EventQueuePushes);
        assert_eq!(
            replay::calendar(pushes, acc.queue_mean_depth).0.ops,
            2 * pushes
        );
        let (p, s) = replay::seq_deques(acc.mapped_private, acc.mapped_shared, 8);
        assert_eq!(p.ops + s.ops, 2 * acc.map_task.calls());
        assert_eq!(
            replay::taskspecs(report.tasks_spawned).ops,
            report.tasks_spawned
        );
        assert!(report.messages.total() > 0, "hot-steal must steal remotely");
        assert_eq!(acc.messages, report.messages);
        assert_eq!(
            replay::netsim(&acc.messages, 32, None).ops,
            report.messages.total()
        );
        assert_eq!(acc.counter(Counter::MsgsSent), report.messages.total());
    }

    /// Latch-free tasks that each sweep a private array and share one.
    struct Sweeps;

    impl Workload for Sweeps {
        fn name(&self) -> String {
            "sweeps".into()
        }
        fn roots(&self, _cfg: &ClusterConfig) -> Vec<TaskSpec> {
            (0..64u64)
                .map(|i| {
                    let home = PlaceId((i % 4) as u32);
                    TaskSpec::new(
                        home,
                        Locality::Flexible,
                        5_000,
                        "sweep",
                        move |s: &mut dyn TaskScope| {
                            s.read(ObjectId(100 + i), 0, 48 * 1024, home);
                            s.write(ObjectId(7), (i % 8) * 4096, 4096, PlaceId(0));
                            s.read(ObjectId(100 + i), 0, 16 * 1024, home);
                        },
                    )
                })
                .collect()
        }
    }

    #[test]
    fn cache_replay_reproduces_the_runs_accesses_and_misses() {
        let app = RecordingWorkload::new(&Sweeps, usize::MAX);
        let cluster = ClusterConfig::new(4, 2);
        let mut sim = distws_sim::Simulation::new(cluster.clone(), Sched::DistWs.policy());
        let report = sim.run_app(&app);
        let log = app.take_log();
        assert_eq!((log.recs.len(), log.dropped), (64 * 3, 0));
        let (t, misses) = replay::cachesim(&log.recs, cluster.total_workers());
        assert!(report.cache.accesses > 0);
        assert_eq!(t.ops, report.cache.accesses);
        assert_eq!(misses, report.cache.misses);
    }
}
