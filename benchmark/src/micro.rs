//! Fixed-size drivers for the layers no workload reaches yet: the
//! concurrent deques, the threaded runtime and the cluster wire codec.
//! Their metrics are ungated and move no end-to-end number (README.md,
//! "Not workloads"); they are recorded so the first PR that gives the
//! cluster an in-memory transport has a before.

use crate::replay::Timed;
use crate::stats::{median, spread};
use crate::trees::{Tree, TreeShape};
use distws_cluster::{Frame, WireTask};
use distws_core::ClusterConfig;
use distws_deque::{chase_lev, SharedFifo};
use distws_runtime::Runtime;
use distws_sched::DistWs;
use std::hint::black_box;
use std::io;
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// `deque::chase_lev`: owner pushes and pops in bursts of 8 with one
/// steal per burst, single-threaded (`tasks` × 2 ops).
pub fn chase_lev_ops(tasks: u64) -> Timed {
    let (w, s) = chase_lev::deque::<u32>();
    let start = Instant::now();
    let mut done = 0;
    while done < tasks {
        let n = 8.min(tasks - done);
        for i in 0..n {
            w.push(black_box((done + i) as u32));
        }
        black_box(s.steal().success());
        for _ in 1..n {
            black_box(w.pop());
        }
        done += n;
    }
    Timed::since(tasks * 2, start)
}

/// `deque::shared_fifo`: push and take in bursts of 8 (`tasks` × 2 ops).
pub fn shared_fifo_ops(tasks: u64) -> Timed {
    let q: SharedFifo<u32> = SharedFifo::new();
    let start = Instant::now();
    let mut done = 0;
    while done < tasks {
        let n = 8.min(tasks - done);
        for i in 0..n {
            q.push(black_box((done + i) as u32));
        }
        for _ in 0..n {
            black_box(q.take());
        }
        done += n;
    }
    Timed::since(tasks * 2, start)
}

/// What the threaded-runtime probe measured.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeProbe {
    /// Median tasks per host second over the runs.
    pub tasks_per_s: f64,
    /// Remote steals per task, median over the runs.
    pub remote_steal_share: f64,
    /// Interquartile spread of tasks/s over the runs, as a share of the
    /// median: why this is not an end-to-end metric.
    pub spread: f64,
}

/// `runtime`: a `tasks`-task 4-ary tree homed on place 0 of a 2 × 1
/// threaded runtime under DistWS, `runs` times.
pub fn runtime_probe(tasks: u64, runs: usize) -> RuntimeProbe {
    let shape = TreeShape {
        tasks,
        arity: 4,
        grain_ns: 0,
        jitter_ns: 0,
        home_places: 1,
        sensitive_one_in: 0,
    };
    let mut rates = Vec::new();
    let mut shares = Vec::new();
    for _ in 0..runs.max(2) {
        let app = Tree::new("runtime-probe", shape, 7);
        let mut rt = Runtime::new(ClusterConfig::new(2, 1), Box::new(DistWs::default()));
        let start = Instant::now();
        let report = rt.run_app(&app);
        let secs = start.elapsed().as_secs_f64();
        rates.push(report.tasks_executed as f64 / secs);
        shares.push(report.steals.remote as f64 / report.tasks_executed.max(1) as f64);
    }
    RuntimeProbe {
        tasks_per_s: median(&rates),
        remote_steal_share: median(&shares),
        spread: spread(&rates),
    }
}

/// What the wire-codec probe measured.
#[derive(Debug, Clone, Copy)]
pub struct WireProbe {
    /// `Frame::encode` of a two-task `TaskMigrate`.
    pub encode: Timed,
    /// `Frame::decode` of the same frame.
    pub decode: Timed,
    /// Encoded bytes per migrated task.
    pub bytes_per_task: f64,
    /// `write_to` + `read_from` over one `UnixStream::pair`.
    pub roundtrip: Timed,
}

fn migrate_frame() -> Frame {
    let task = |id: u64| WireTask {
        id,
        home: 3,
        locality: 1,
        flags: 0,
        kind: 2,
        est: 10_000,
        payload: vec![id, id + 1, id + 2, id + 3],
    };
    Frame::TaskMigrate {
        hlc: 0x1234_5678,
        from_place: 3,
        tasks: vec![task(41), task(42)],
    }
}

/// `cluster::wire`: encode, decode and stream a two-task `TaskMigrate`
/// (the remote steal chunk) `frames` times.
pub fn wire_probe(frames: u64) -> io::Result<WireProbe> {
    let frame = migrate_frame();
    let start = Instant::now();
    let mut bytes = 0;
    for _ in 0..frames {
        bytes = black_box(frame.encode()).len();
    }
    let encode = Timed::since(frames, start);
    let payload = frame.encode();
    let start = Instant::now();
    for _ in 0..frames {
        black_box(Frame::decode(black_box(&payload))?);
    }
    let decode = Timed::since(frames, start);
    let (mut a, mut b) = UnixStream::pair()?;
    let start = Instant::now();
    for _ in 0..frames {
        frame.write_to(&mut a)?;
        let back = Frame::read_from(&mut b)?;
        if back.as_ref() != Some(&frame) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame changed on the stream",
            ));
        }
    }
    let roundtrip = Timed::since(frames, start);
    Ok(WireProbe {
        encode,
        decode,
        bytes_per_task: bytes as f64 / 2.0,
        roundtrip,
    })
}
