//! One place of a real multi-process cluster.
//!
//! Each place is an OS process. Work-stealing follows the same
//! [`Policy`] step sequences as the threaded runtime, but the remote
//! tier goes over real sockets: a thief sends [`Frame::StealProbe`] to
//! the victim place, waits on a wall-clock timeout from
//! [`crate::clock::WallRetry`], and backs off exactly like the
//! simulator's virtual-time retry path.
//!
//! # The coordinator registry
//!
//! Place 0 is the coordinator; the launcher never kills it. It holds a
//! *task registry*: every task in the system has an entry with its
//! payload, its current location, and whether it finished. The entry
//! *is* the lease — when a place dies, the coordinator sweeps the
//! registry for pending tasks located there and re-injects their
//! payloads elsewhere.
//!
//! The registry is maintained by three frames, all flowing to place 0
//! over one ordered stream per place:
//!
//! - [`Frame::SpawnNote`]: a spawner registers its children (payloads
//!   included) *before* enqueueing them locally. Because the spawner's
//!   own [`Frame::FinishDec`] follows its spawn notes on the same
//!   stream, the parent is still outstanding when the children
//!   register, so the global count never touches zero early.
//! - [`Frame::TaskMoved`]: a thief reports where stolen tasks now
//!   live, so the lease tracks the holder.
//! - [`Frame::FinishDec`]: the executor reports completion with the
//!   task's fold contribution; duplicates are ignored (the entry is
//!   already done), which is what makes crash-recovery re-execution
//!   *effectively exactly-once* at the fold.
//!
//! Re-injected tasks carry [`TASK_RECOVERED`]: they may have executed
//! before, so their children are not enqueued locally but routed
//! through the registry, which drops any child that is already alive
//! or done elsewhere. Deterministic ids (child = `mix64(parent ^
//! (index+1))`) make the re-execution regenerate the same ids, so the
//! dedup is exact.
//!
//! # Write-ahead tracing
//!
//! Every trace line is written (unbuffered) *before* the socket write
//! it describes: `spawn` before the spawn note, `task_end` before the
//! finish notice. A SIGKILL can therefore truncate the tail of a trace
//! but never hide an event whose effects escaped to a live place —
//! which is what lets the merged trace prove exactly-once execution.
//!
//! # Accepted races
//!
//! Failure detection runs on connection EOF plus heartbeat silence
//! (`detect_ms`), and the registry sweep waits `reclaim_grace_ms` so
//! in-flight [`Frame::TaskMoved`] notices can land before payloads are
//! re-injected. A notice delayed beyond the grace window could still
//! lead to a duplicate execution; the happens-before validator flags
//! exactly this if it ever fires. See `docs/cluster.md`.

use crate::app::{
    app_by_name, locality_from_wire, locality_to_wire, mix64, ClusterApp, ClusterScope,
};
use crate::clock::{cluster_retry_defaults, reconnect_defaults, Reconnector, WallRetry};
use crate::hlc::Hlc;
use crate::wire::{Frame, WireTask, TASK_RECOVERED, WIRE_VERSION};
use distws_core::{ClusterConfig, GlobalWorkerId, Locality, PlaceId, SplitMix64, TaskId, WorkerId};
use distws_deque::{deque as chase_lev, SharedFifo, Stealer, Worker as PrivateDeque};
use distws_json::Value;
use distws_runtime::{IdleAction, IdleGate, SharedBoard};
use distws_sched::protocol::lease_is_stale;
use distws_sched::{ClusterView, DequeChoice, Policy, StealStep, TaskMeta};
use distws_trace::{StealTier, TraceEvent, TraceEventKind};
use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Construct a policy by (case-insensitive) CLI name.
pub fn policy_by_name(name: &str) -> Option<Box<dyn Policy>> {
    use distws_sched::{AdaptiveWs, DistWs, DistWsNs, LifelineWs, RandomWs, X10Ws};
    Some(match name.to_ascii_lowercase().as_str() {
        "x10ws" | "x10" => Box::new(X10Ws),
        "distws" | "dist" => Box::new(DistWs::default()),
        "distws-ns" | "distwsns" => Box::new(DistWsNs::default()),
        "randomws" | "random" => Box::new(RandomWs),
        "lifelinews" | "lifeline" => Box::new(LifelineWs::default()),
        "adaptivews" | "adaptive" => Box::new(AdaptiveWs::default()),
        _ => return None,
    })
}

/// Socket family the cluster rendezvouses over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Unix domain sockets at `dir/place-<p>.sock` (default).
    Unix,
    /// Loopback TCP; each place publishes its port in
    /// `dir/place-<p>.addr` (written atomically via rename).
    Tcp,
}

/// Everything one place process needs to run.
#[derive(Debug, Clone)]
pub struct PlaceConfig {
    /// This place's id (0 = coordinator).
    pub place: u32,
    /// Total places.
    pub places: u32,
    /// Worker threads per place.
    pub wpp: u32,
    /// Incarnation epoch (0 first boot, +1 per restart).
    pub epoch: u32,
    /// Socket family.
    pub transport: Transport,
    /// Rendezvous directory for sockets / addr files.
    pub dir: PathBuf,
    /// Application name (see [`app_by_name`]).
    pub app: String,
    /// Application + rng seed.
    pub seed: u64,
    /// Policy name (see [`policy_by_name`]).
    pub policy: String,
    /// Where this incarnation writes its JSONL trace.
    pub trace_path: PathBuf,
    /// Coordinator only: where to write `report.json`.
    pub report_path: Option<PathBuf>,
    /// Heartbeat period.
    pub hb_ms: u64,
    /// Silence window after which a peer is presumed dead.
    pub detect_ms: u64,
    /// Wait after a death before re-injecting its leased tasks, so
    /// in-flight `TaskMoved` notices can land.
    pub reclaim_grace_ms: u64,
    /// Coordinator: per-round completion deadline (watchdog).
    pub round_timeout_ms: u64,
    /// Follower: overall deadline waiting for `Shutdown`.
    pub run_deadline_ms: u64,
}

impl PlaceConfig {
    /// A config with the default timing parameters.
    pub fn new(place: u32, places: u32, wpp: u32, dir: PathBuf, app: &str) -> Self {
        PlaceConfig {
            place,
            places,
            wpp,
            epoch: 0,
            transport: Transport::Unix,
            dir: dir.clone(),
            app: app.to_string(),
            seed: 42,
            policy: "distws".to_string(),
            trace_path: dir.join(format!("trace-p{place}-e0.jsonl")),
            report_path: None,
            hb_ms: 50,
            detect_ms: 300,
            reclaim_grace_ms: 50,
            round_timeout_ms: 30_000,
            run_deadline_ms: 120_000,
        }
    }
}

/// Exit code: the coordinator's result failed validation.
pub const EXIT_BAD_RESULT: i32 = 2;
/// Exit code: a completion deadline expired (watchdog).
pub const EXIT_DEADLINE: i32 = 3;

// ---------------------------------------------------------------- transport

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

fn sock_path(dir: &std::path::Path, p: u32) -> PathBuf {
    dir.join(format!("place-{p}.sock"))
}

fn addr_path(dir: &std::path::Path, p: u32) -> PathBuf {
    dir.join(format!("place-{p}.addr"))
}

// ---------------------------------------------------------------- peer state

const EPOCH_UNSEEN: u32 = u32::MAX;

/// Outbound state for one peer. Sends are **queue-and-forget**: a
/// dedicated writer thread per peer drains `outbox` over the socket.
/// No caller ever performs a socket write while holding a lock — a
/// blocking `send(2)` under the registry lock would stall the reader
/// threads (which need that lock), stop inbound draining, fill the
/// peer's buffers in both directions, and deadlock the whole cluster.
struct Peer {
    outbox: Mutex<std::collections::VecDeque<Frame>>,
    outbox_cv: Condvar,
    alive: AtomicBool,
    epoch: AtomicU32,
    last_heard: Mutex<Instant>,
    /// Last busy-count heartbeat applied to the board (delta base).
    last_busy: AtomicU32,
}

// --------------------------------------------------------- coordinator state

struct Entry {
    loc: u32,
    /// Incarnation of `loc` the task was handed to. A lease is only
    /// reclaimable by a sweep of that same (or a later) incarnation:
    /// comparing epochs is what distinguishes "leased to the dead
    /// incarnation" (reclaim) from "leased to a freshly restarted one
    /// whose revival the registry has not processed yet" (keep).
    loc_epoch: u32,
    /// True when `loc` itself vouched for holding the task (it spawned
    /// it, confirmed a steal, or the coordinator pushed it there over
    /// a reliable outbox). False while the only evidence is a victim's
    /// lease: the payload was in flight from `lessor` to `loc` and may
    /// have died with the lessor.
    settled: bool,
    /// The place/incarnation that handed the task to `loc` when
    /// `settled` is false. Its death puts the hand-off in doubt, so
    /// the sweep must query `loc` before trusting the lease.
    lessor: Option<(u32, u32)>,
    done: bool,
    /// Payload, kept while pending so the lease can be reclaimed.
    task: Option<WireTask>,
}

/// An in-progress custody poll for one reclaim candidate: the sweep
/// asked every live place whether it holds the task; the task is
/// re-injected only once every answer is "no" (a place's death counts
/// as "no").
struct Reclaim {
    /// The dead place whose sweep started the poll (trace attribution).
    victim: u32,
    /// Places whose answer is still outstanding.
    awaiting: HashSet<u32>,
}

#[derive(Default)]
struct Registry {
    tasks: HashMap<u64, Entry>,
    outstanding: u64,
    fold: Vec<u64>,
    folded_any: bool,
    /// FinishDec that arrived before the task's SpawnNote.
    orphan_finish: HashMap<u64, Vec<u64>>,
    /// TaskMoved that arrived before the task's SpawnNote:
    /// `(holder, holder_epoch, sender, sender_epoch)`.
    orphan_moved: HashMap<u64, (u32, u32, u32, u32)>,
    /// Custody polls in flight (see [`Reclaim`]).
    reclaims: HashMap<u64, Reclaim>,
    dead: HashSet<u32>,
    /// Highest incarnation of each place for which a reclaim sweep has
    /// started. A lease stamped with an epoch `<= swept[p]` points at
    /// an incarnation whose tasks are gone; a higher epoch means the
    /// holder restarted and the copy is alive there.
    swept: HashMap<u32, u32>,
    ever_failed: HashSet<u32>,
    route_rr: u32,
}

struct Coord {
    reg: Mutex<Registry>,
    latch: Condvar,
}

// ---------------------------------------------------------------- the place

struct Node {
    cfg: PlaceConfig,
    cluster: ClusterConfig,
    hlc: Hlc,
    trace: Mutex<File>,
    board: SharedBoard,
    /// The place's shared FIFO deque (the pool remote thieves see).
    shared: SharedFifo<WireTask>,
    /// Tasks pushed here by `TaskMigrate`, drained on `ProbeNetwork`.
    inbox: SharedFifo<WireTask>,
    peers: Vec<Peer>,
    probes: ProbeTable,
    probe_seq: AtomicU64,
    app: Box<dyn ClusterApp>,
    /// Prototype policy, also consulted by reader threads
    /// (`may_migrate` filtering on the victim side).
    policy: Mutex<Box<dyn Policy>>,
    /// Task ids currently held by this place — enqueued or executing
    /// (dedup for doctored or raced `TaskMigrate` frames, and the
    /// ground truth behind `TaskAnswer`).
    resident: Mutex<HashSet<u64>>,
    /// Task ids this place finished (dedup backstop).
    done: Mutex<HashSet<u64>>,
    /// Tasks this place answered "no" for in a custody poll, keyed to
    /// the dead incarnation whose in-flight payload was in doubt:
    /// `id -> (victim, victim_epoch)`. A `StealReply` from that
    /// incarnation arriving *after* the answer is dropped, so the
    /// answer cannot be invalidated retroactively. Lock order:
    /// `resident` before `done` before `disowned`.
    disowned: Mutex<HashMap<u64, (u32, u32)>>,
    shutdown: AtomicBool,
    /// `places_failed` carried by the Shutdown frame (follower side).
    shutdown_failed: AtomicU32,
    /// Places whose death was noticed but not yet processed.
    death_queue: Mutex<Vec<(u32, u32)>>,
    coord: Option<Coord>,
}

struct ProbeTable {
    slots: Mutex<HashMap<u64, Option<Vec<WireTask>>>>,
    cv: Condvar,
}

impl ProbeTable {
    fn new() -> Self {
        ProbeTable {
            slots: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    fn register(&self, id: u64) {
        self.slots.lock().unwrap().insert(id, None);
    }

    /// Deliver a reply. Returns false if the probe was abandoned (late
    /// reply — the caller must salvage the tasks).
    fn fill(&self, id: u64, tasks: Vec<WireTask>) -> bool {
        let mut slots = self.slots.lock().unwrap();
        match slots.get_mut(&id) {
            Some(slot) => {
                *slot = Some(tasks);
                self.cv.notify_all();
                true
            }
            None => false,
        }
    }

    /// Wait for a reply until the timeout; the slot is removed either
    /// way.
    fn wait(&self, id: u64, timeout: Duration) -> Option<Vec<WireTask>> {
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(Some(_)) = slots.get(&id) {
                return slots.remove(&id).flatten();
            }
            let now = Instant::now();
            if now >= deadline {
                return slots.remove(&id).flatten();
            }
            let (guard, _) = self.cv.wait_timeout(slots, deadline - now).unwrap();
            slots = guard;
        }
    }
}

/// Collects children spawned by `ClusterApp::execute`.
struct Collect(Vec<(Locality, u16, u64, Vec<u64>)>);

impl ClusterScope for Collect {
    fn spawn(&mut self, locality: Locality, kind: u16, est: u64, payload: Vec<u64>) {
        self.0.push((locality, kind, est, payload));
    }
}

impl Node {
    fn own(&self) -> u32 {
        self.cfg.place
    }

    fn own_place(&self) -> PlaceId {
        PlaceId(self.cfg.place)
    }

    fn is_coord(&self) -> bool {
        self.cfg.place == 0
    }

    fn coord(&self) -> &Coord {
        self.coord.as_ref().expect("coordinator state")
    }

    // ------------------------------------------------------------- tracing

    /// Write one event at a fresh HLC tick. Unbuffered: the line is
    /// durable before any socket write that follows it.
    fn emit(&self, worker: GlobalWorkerId, place: PlaceId, kind: TraceEventKind) -> u64 {
        let t = self.hlc.tick();
        let ev = TraceEvent {
            t_ns: t,
            worker,
            place,
            kind,
        };
        let mut f = self.trace.lock().unwrap();
        let _ = writeln!(f, "{}", ev.to_jsonl());
        t
    }

    /// Write several events sharing one HLC tick (a remote steal's
    /// `steal_success` plus its `migration` lines, which the
    /// conformance checker groups by identical `t`).
    fn emit_batch(&self, worker: GlobalWorkerId, place: PlaceId, kinds: &[TraceEventKind]) {
        let t = self.hlc.tick();
        let mut f = self.trace.lock().unwrap();
        for kind in kinds {
            let ev = TraceEvent {
                t_ns: t,
                worker,
                place,
                kind: *kind,
            };
            let _ = writeln!(f, "{}", ev.to_jsonl());
        }
    }

    // ------------------------------------------------------------- sending

    fn dial(&self, to: u32) -> io::Result<Conn> {
        match self.cfg.transport {
            Transport::Unix => UnixStream::connect(sock_path(&self.cfg.dir, to)).map(Conn::Unix),
            Transport::Tcp => {
                let addr = fs::read_to_string(addr_path(&self.cfg.dir, to))?;
                TcpStream::connect(addr.trim()).map(Conn::Tcp)
            }
        }
    }

    fn hello(&self) -> Frame {
        Frame::Hello {
            hlc: self.hlc.tick(),
            version: WIRE_VERSION,
            place: self.cfg.place,
            places: self.cfg.places,
            wpp: self.cfg.wpp,
            epoch: self.cfg.epoch,
        }
    }

    /// Queue-and-forget send: push the frame onto the peer's outbox
    /// for its dedicated writer thread. Callers never perform socket
    /// IO, so no lock is ever held across a blocking write — that was
    /// the distributed buffer deadlock (a coordinator write stalling
    /// under the registry lock stops its readers, the peer's send then
    /// stalls in *its* reader, and both socket buffers fill).
    ///
    /// Frames to a peer already noted dead are dropped: every frame
    /// whose loss matters is covered by the coordinator's
    /// lease/registry recovery, and the coordinator (place 0) is never
    /// marked dead.
    fn send(&self, to: u32, frame: Frame) {
        let peer = &self.peers[to as usize];
        if to != 0 && !peer.alive.load(Ordering::Acquire) {
            return;
        }
        peer.outbox.lock().unwrap().push_back(frame);
        peer.outbox_cv.notify_one();
    }

    /// Length of a peer's pending outbox (used to avoid piling
    /// periodic beacons behind a stalled writer).
    fn outbox_len(&self, to: u32) -> usize {
        self.peers[to as usize].outbox.lock().unwrap().len()
    }

    // ---------------------------------------------------- failure handling

    /// Mark a peer dead (idempotent) and queue coordinator-side
    /// processing. Clears the peer's pending outbox: those frames
    /// were addressed to the incarnation that just died, and a
    /// writer whose reconnect budget happens to span the whole dead
    /// window would otherwise deliver them to the *next* incarnation
    /// (stale `TaskMigrate`s there duplicate execution, because the
    /// lease sweep re-injects the same tasks elsewhere meanwhile).
    fn note_possible_death(&self, p: u32) {
        if p == self.own() || p == 0 {
            // The coordinator is never declared dead: its silence
            // would mean the run is over anyway.
            return;
        }
        let peer = &self.peers[p as usize];
        if peer.alive.swap(false, Ordering::AcqRel) {
            let dying = peer.epoch.load(Ordering::Acquire);
            peer.outbox.lock().unwrap().clear();
            // Clear the dead peer's board contribution.
            let busy = peer.last_busy.swap(0, Ordering::AcqRel);
            for _ in 0..busy {
                self.board.worker_idle(PlaceId(p));
            }
            self.board.set_shared_len(PlaceId(p), 0);
            self.death_queue.lock().unwrap().push((p, dying));
        }
    }

    /// The incarnation of `p` as currently known to this node. An
    /// unseen peer maps to epoch 0: initial processes start at epoch 0
    /// and restarted incarnations always say Hello (with an epoch ≥ 1)
    /// before any work reaches them.
    fn place_epoch(&self, p: u32) -> u32 {
        if p == self.own() {
            return self.cfg.epoch;
        }
        let e = self.peers[p as usize].epoch.load(Ordering::Acquire);
        if e == EPOCH_UNSEEN {
            0
        } else {
            e
        }
    }

    /// Coordinator: sweep the death of incarnation `dying` of place
    /// `p`. Emit `place_fail`, count the dead place as "no" in every
    /// custody poll still waiting on it, wait the reclaim grace so
    /// in-flight `TaskMoved` can land, then open a custody poll for
    /// every task whose payload the dead incarnation was the last
    /// known carrier of: entries still located there
    /// (`loc == p` with `lease_is_stale(loc_epoch, dying)` — the
    /// shared fencing predicate from `distws_sched::protocol`, also
    /// used by the model's cluster-era transitions) *and* entries the
    /// incarnation leased away without the recipient confirming —
    /// either side of that hand-off may or may not have happened, and
    /// only the live peers know. Each candidate is re-injected only
    /// once every live place answers "doesn't have it". Leases
    /// stamped with a later epoch belong to a restarted incarnation
    /// and are left alone.
    fn coord_process_death(self: &Arc<Self>, p: u32, dying: u32) {
        let dying = if dying == EPOCH_UNSEEN { 0 } else { dying };
        let revived = {
            let mut reg = self.coord().reg.lock().unwrap();
            if reg.swept.get(&p).is_some_and(|&s| s >= dying) {
                return; // this incarnation's sweep already ran
            }
            reg.swept.insert(p, dying);
            reg.ever_failed.insert(p);
            // If a newer incarnation already said Hello, the place is
            // back: sweep the old incarnation's leases but do not mark
            // the place dead (nothing would ever un-mark it).
            let revived =
                self.peers[p as usize].alive.load(Ordering::Acquire) && self.place_epoch(p) > dying;
            if !revived {
                reg.dead.insert(p);
            }
            // The dead place will never answer pending polls; treat
            // its missing answers as "no".
            self.poll_drop_answerer(&mut reg, p);
            revived
        };
        let w = GlobalWorkerId(p * self.cfg.wpp);
        self.emit(w, PlaceId(p), TraceEventKind::PlaceFail);
        if revived {
            self.emit(w, PlaceId(p), TraceEventKind::PlaceRestart);
        }
        let node = Arc::clone(self);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(node.cfg.reclaim_grace_ms));
            let mut reg = node.coord().reg.lock().unwrap();
            // Full scan rather than a pre-grace snapshot: entries
            // registered *during* the grace window (late SpawnNotes
            // drained from the dead incarnation's buffers) must be
            // reclaimed too.
            let ids: Vec<u64> = reg
                .tasks
                .iter()
                .filter(|(_, e)| {
                    !e.done
                        && ((e.loc == p && lease_is_stale(e.loc_epoch, dying))
                            || (!e.settled
                                && e.lessor
                                    .is_some_and(|(lp, le)| lp == p && lease_is_stale(le, dying))))
                })
                .map(|(id, _)| *id)
                .collect();
            for id in ids {
                node.poll_custody_locked(&mut reg, id, p, dying);
            }
        });
    }

    /// Open (or immediately resolve) a custody poll for one reclaim
    /// candidate: ask every live place whether it holds the task. The
    /// coordinator answers for itself synchronously; remote answers
    /// arrive as `TaskAnswer` frames.
    fn poll_custody_locked(&self, reg: &mut Registry, id: u64, victim: u32, victim_epoch: u32) {
        if reg.reclaims.contains_key(&id) {
            return; // an earlier sweep is already polling
        }
        match reg.tasks.get(&id) {
            None | Some(Entry { done: true, .. }) => return,
            Some(_) => {}
        }
        // Self-answer: the coordinator's own custody sets are local.
        {
            let resident = self.resident.lock().unwrap();
            if resident.contains(&id) {
                if let Some(e) = reg.tasks.get_mut(&id) {
                    e.loc = 0;
                    e.loc_epoch = self.cfg.epoch;
                    e.settled = true;
                    e.lessor = None;
                }
                return;
            }
        }
        let mut awaiting = HashSet::new();
        for q in 1..self.cfg.places {
            if q == victim && self.place_epoch(q) <= victim_epoch {
                continue; // the incarnation under suspicion
            }
            if !self.peers[q as usize].alive.load(Ordering::Acquire) {
                continue;
            }
            awaiting.insert(q);
            self.send(
                q,
                Frame::TaskQuery {
                    hlc: self.hlc.tick(),
                    task: id,
                    victim,
                    victim_epoch,
                },
            );
        }
        if awaiting.is_empty() {
            self.reinject_locked(reg, id, victim);
        } else {
            reg.reclaims.insert(id, Reclaim { victim, awaiting });
        }
    }

    /// A custody poll answer arrived (or a queried place died, which
    /// counts as "no").
    fn coord_task_answer(&self, from: u32, from_epoch: u32, id: u64, have: bool) {
        let mut reg = self.coord().reg.lock().unwrap();
        if !reg.reclaims.contains_key(&id) {
            return; // poll already resolved (finish, confirm, or re-inject)
        }
        if have {
            reg.reclaims.remove(&id);
            if let Some(e) = reg.tasks.get_mut(&id) {
                if !e.done {
                    e.loc = from;
                    e.loc_epoch = from_epoch;
                    e.settled = true;
                    e.lessor = None;
                }
            }
            return;
        }
        let drained = {
            let rec = reg.reclaims.get_mut(&id).expect("checked above");
            rec.awaiting.remove(&from);
            if rec.awaiting.is_empty() {
                Some(rec.victim)
            } else {
                None
            }
        };
        if let Some(victim) = drained {
            reg.reclaims.remove(&id);
            self.reinject_locked(&mut reg, id, victim);
        }
    }

    /// Remove a dead place from every pending poll's awaiting set and
    /// re-inject the candidates whose polls that drains.
    fn poll_drop_answerer(&self, reg: &mut Registry, p: u32) {
        let mut drained = Vec::new();
        for (id, rec) in reg.reclaims.iter_mut() {
            rec.awaiting.remove(&p);
            if rec.awaiting.is_empty() {
                drained.push((*id, rec.victim));
            }
        }
        for (id, victim) in drained {
            reg.reclaims.remove(&id);
            self.reinject_locked(reg, id, victim);
        }
    }

    /// Every live place denied custody: the payload died with the
    /// victim, so deliver the registry's copy somewhere alive.
    fn reinject_locked(&self, reg: &mut Registry, id: u64, victim: u32) {
        let mut task = match reg.tasks.get(&id) {
            Some(e) if !e.done => e.task.clone().expect("pending entries keep payloads"),
            _ => return,
        };
        task.flags |= TASK_RECOVERED;
        let (to, to_epoch) = self.coord_deliver(reg, task, None);
        self.emit(
            GlobalWorkerId(victim * self.cfg.wpp),
            PlaceId(victim),
            TraceEventKind::TaskRecover {
                task: TaskId(id),
                from: PlaceId(victim),
                to: PlaceId(to),
            },
        );
        if let Some(e) = reg.tasks.get_mut(&id) {
            e.loc = to;
            e.loc_epoch = to_epoch;
            e.settled = true;
            e.lessor = None;
        }
    }

    /// A live (or revived) peer said Hello on an inbound connection.
    fn note_hello(self: &Arc<Self>, p: u32, epoch: u32) {
        if p == self.own() {
            return;
        }
        let peer = &self.peers[p as usize];
        *peer.last_heard.lock().unwrap() = Instant::now();
        let prev_epoch = peer.epoch.swap(epoch, Ordering::AcqRel);
        let was_alive = peer.alive.swap(true, Ordering::AcqRel);
        if was_alive && prev_epoch != EPOCH_UNSEEN && epoch > prev_epoch {
            // Restarted before we noticed the death: reclaim first.
            if self.is_coord() {
                self.coord_process_death(p, prev_epoch);
            }
        }
        if !was_alive || (prev_epoch != EPOCH_UNSEEN && epoch > prev_epoch) {
            // Fresh incarnation: the writer thread self-heals (its
            // next frame re-dials), so revival here is just registry
            // bookkeeping.
            if self.is_coord() {
                let removed = {
                    let mut reg = self.coord().reg.lock().unwrap();
                    reg.dead.remove(&p)
                };
                if removed {
                    let w = GlobalWorkerId(p * self.cfg.wpp);
                    self.emit(w, PlaceId(p), TraceEventKind::PlaceRestart);
                }
            }
        }
    }

    // ------------------------------------------------------ registry (coord)

    fn register_locked(&self, reg: &mut Registry, task: WireTask, loc: u32, loc_epoch: u32) {
        let id = task.id;
        reg.tasks.insert(
            id,
            Entry {
                loc,
                loc_epoch,
                settled: true,
                lessor: None,
                done: false,
                task: Some(task),
            },
        );
        reg.outstanding += 1;
        if let Some((to, to_epoch, from, from_epoch)) = reg.orphan_moved.remove(&id) {
            // Replay the early notice through the normal path so it
            // gets the same staleness checks (swept sender, swept
            // target → custody poll) as an on-time one.
            self.moved_locked(reg, id, to, to_epoch, from, from_epoch);
        }
        if let Some(result) = reg.orphan_finish.remove(&id) {
            self.finish_locked(reg, id, result);
        }
    }

    fn finish_locked(&self, reg: &mut Registry, id: u64, result: Vec<u64>) {
        match reg.tasks.get_mut(&id) {
            None => {
                reg.orphan_finish.insert(id, result);
            }
            Some(e) if e.done => {} // duplicate FinishDec: already folded
            Some(e) => {
                e.done = true;
                e.task = None;
                // A finish settles any custody doubt for good.
                reg.reclaims.remove(&id);
                if result.len() > reg.fold.len() {
                    reg.fold.resize(result.len(), 0);
                }
                for (a, b) in reg.fold.iter_mut().zip(&result) {
                    *a = a.wrapping_add(*b);
                }
                reg.folded_any = true;
                reg.outstanding -= 1;
                if reg.outstanding == 0 {
                    self.coord().latch.notify_all();
                }
            }
        }
    }

    /// Apply a `TaskMoved` sent by incarnation `(from, from_epoch)`.
    /// `from == to` is the holder *confirming* custody; `from != to`
    /// is a victim's lease — the payload is (or was) in flight from
    /// the victim to `to` and may still die with the victim.
    fn moved_locked(
        &self,
        reg: &mut Registry,
        id: u64,
        to: u32,
        to_epoch: u32,
        from: u32,
        from_epoch: u32,
    ) {
        let confirm = from == to;
        // A lease/confirm whose target incarnation was already swept
        // is stale: that incarnation's copy is gone and no future
        // sweep will reclaim it. A lease to a *later* incarnation of a
        // swept place is fine — the copy is alive at the restarted
        // process (whose revival the registry may not have processed
        // yet).
        let swept_at = reg.swept.get(&to).copied();
        let stale = to != 0 && swept_at.is_some_and(|s| lease_is_stale(to_epoch, s));
        let sender_swept = !confirm
            && reg
                .swept
                .get(&from)
                .is_some_and(|&s| lease_is_stale(from_epoch, s));
        let (cur_loc, cur_epoch, settled) = match reg.tasks.get(&id) {
            None => {
                // Orphans keep the old rule — a swept sender's lease
                // is not worth remembering, the spawn-note path polls
                // swept-spawner registrations anyway.
                if !sender_swept {
                    reg.orphan_moved
                        .insert(id, (to, to_epoch, from, from_epoch));
                }
                return;
            }
            Some(e) if e.done => return,
            Some(e) => (e.loc, e.loc_epoch, e.settled),
        };
        // A lease from an incarnation that was already swept is
        // usually moot — the sweep's custody poll took over. The
        // exception: the registry still points at the swept *sender*,
        // meaning the sweep scanned right past this entry (the lease
        // had not landed yet, so nothing pointed anywhere dead). The
        // lease is then the only record that the copy left the
        // sender; resolve by poll, fencing the dead sender (its
        // kernel-flushed payload may still reach the target).
        if sender_swept {
            if cur_loc == from && cur_epoch <= from_epoch {
                self.poll_custody_locked(reg, id, from, from_epoch);
            }
            return;
        }
        if !stale {
            // Never downgrade a holder's own confirmation to a lease:
            // the confirm can overtake the victim's lease (different
            // connections), and the settled bit is what exempts the
            // entry from custody polls.
            if !confirm && settled && cur_loc == to && cur_epoch == to_epoch {
                return;
            }
            if let Some(e) = reg.tasks.get_mut(&id) {
                e.loc = to;
                e.loc_epoch = to_epoch;
                e.settled = confirm;
                e.lessor = if confirm {
                    None
                } else {
                    Some((from, from_epoch))
                };
            }
            if confirm {
                // The holder spoke for itself: any custody poll for
                // this task is answered.
                reg.reclaims.remove(&id);
            }
            return;
        }
        // Stale target. Reclaim via a custody poll, not a blind
        // re-inject (the copy may have escaped to a live thief whose
        // own notice simply has not landed yet) — but only when this
        // lease is the freshest custody news we have:
        //
        // * the registry still points at the swept incarnation
        //   (`cur_loc == to`) — the death sweep raced this lease and
        //   already resolved it, unless the epochs say otherwise; or
        // * the registry still points at the lease *sender*
        //   (`cur_loc == from`) — the victim's lease outran the sweep
        //   of the dead thief entirely: the sweep scanned `loc == to`
        //   entries while this one still read `loc == from`, so
        //   nobody reclaimed it and the victim no longer has it. This
        //   is the late-lease stall: spawner's lease queued behind a
        //   busy connection arrives after the thief was swept.
        //
        // Any other `cur_loc` means a newer confirm/lease re-homed
        // the task already; re-polling would risk running it twice.
        let still_at_dead_target =
            cur_loc == to && swept_at.is_some_and(|s| lease_is_stale(cur_epoch, s));
        let still_at_lessor = !confirm && cur_loc == from && cur_epoch <= from_epoch;
        if !still_at_dead_target && !still_at_lessor {
            return;
        }
        self.poll_custody_locked(reg, id, to, to_epoch);
    }

    /// Deliver a task to a place: `preferred` first, else round-robin
    /// over alive places; place 0 (us) is the always-works fallback.
    /// Returns the place that actually took it and that place's
    /// current epoch (the lease stamp the caller must record).
    fn coord_deliver(
        &self,
        reg: &mut Registry,
        task: WireTask,
        preferred: Option<u32>,
    ) -> (u32, u32) {
        let mut candidates = Vec::new();
        if let Some(p) = preferred {
            candidates.push(p);
        }
        for i in 0..self.cfg.places {
            reg.route_rr = (reg.route_rr + 1) % self.cfg.places;
            let _ = i;
            candidates.push(reg.route_rr);
        }
        candidates.push(0);
        for to in candidates {
            if to != 0
                && (reg.dead.contains(&to)
                    || !self.peers[to as usize].alive.load(Ordering::Acquire))
            {
                continue;
            }
            if to == 0 {
                self.accept_migrated(vec![task]);
                return (0, self.cfg.epoch);
            }
            let frame = Frame::TaskMigrate {
                hlc: self.hlc.tick(),
                from_place: self.own(),
                tasks: vec![task],
            };
            // Queue-and-forget: if the peer dies before the writer
            // delivers this, the death sweep reclaims the lease
            // (loc is recorded by our caller under the same lock).
            self.send(to, frame);
            return (to, self.place_epoch(to));
        }
        // Unreachable: to == 0 always succeeds.
        (0, self.cfg.epoch)
    }

    /// Coordinator-side SpawnNote handling (also called locally by
    /// place-0 workers). `from` is the spawning place, `from_epoch`
    /// the incarnation the note came from (the reader's connection
    /// epoch — not the peer's current epoch, which may already belong
    /// to a restarted process while old frames drain).
    fn coord_spawn_note(&self, from: u32, from_epoch: u32, tasks: Vec<WireTask>) {
        let mut reg = self.coord().reg.lock().unwrap();
        for t in tasks {
            let routed = t.flags & TASK_RECOVERED != 0;
            let known = reg.tasks.get(&t.id).map(|e| (e.done, e.loc, e.loc_epoch));
            // `swept_of(p, e)` below: incarnation `e` of place `p` has
            // already been (or is being) reclaimed — copies there are
            // gone.
            let from_swept = reg
                .swept
                .get(&from)
                .is_some_and(|&s| lease_is_stale(from_epoch, s));
            match known {
                None => {
                    let id = t.id;
                    let mut fresh = t;
                    fresh.flags &= !TASK_RECOVERED;
                    if !routed {
                        if from_swept {
                            // The spawner's incarnation was already
                            // swept: its enqueued copy died with it —
                            // unless a thief got it first. Register
                            // (which replays any orphaned TaskMoved/
                            // FinishDec), then resolve what is still
                            // pending at the swept incarnation with a
                            // custody poll instead of blindly
                            // delivering a second copy.
                            self.register_locked(&mut reg, fresh, from, from_epoch);
                            let pending_at_swept = reg.tasks.get(&id).is_some_and(|e| {
                                !e.done
                                    && reg
                                        .swept
                                        .get(&e.loc)
                                        .is_some_and(|&s| lease_is_stale(e.loc_epoch, s))
                            });
                            if pending_at_swept {
                                self.poll_custody_locked(&mut reg, id, from, from_epoch);
                            }
                        } else {
                            // Normal spawn: already enqueued at `from`.
                            self.register_locked(&mut reg, fresh, from, from_epoch);
                        }
                    } else if reg.orphan_finish.contains_key(&id) {
                        // Child of a recovered task, but an orphaned
                        // FinishDec proves the first copy already ran
                        // somewhere live (its SpawnNote died in the
                        // crashed place's outbox). Register without
                        // delivering a second copy; `register_locked`
                        // folds the orphaned result.
                        self.register_locked(&mut reg, fresh, from, from_epoch);
                    } else if let Some(&(loc, le, _, _)) = reg.orphan_moved.get(&id) {
                        let holder_swept =
                            loc != 0 && reg.swept.get(&loc).is_some_and(|&s| lease_is_stale(le, s));
                        if holder_swept {
                            // A thief held the first copy but its
                            // incarnation was swept: deliver fresh.
                            reg.orphan_moved.remove(&id);
                            let (to, ep) = self.coord_deliver(&mut reg, fresh.clone(), None);
                            self.register_locked(&mut reg, fresh, to, ep);
                        } else {
                            // An orphaned TaskMoved shows a live (or
                            // not-yet-swept, in which case the sweep
                            // reclaims the lease) place already holds
                            // the stolen first copy — delivering
                            // another would execute twice.
                            self.register_locked(&mut reg, fresh, loc, le);
                        }
                    } else {
                        // Child of a recovered task: nothing is
                        // enqueued anywhere; route it (back to the
                        // spawner when possible).
                        let pref = if from_swept { None } else { Some(from) };
                        let (to, ep) = self.coord_deliver(&mut reg, fresh.clone(), pref);
                        self.register_locked(&mut reg, fresh, to, ep);
                    }
                }
                Some((true, _, _)) => {} // already done: drop
                Some((false, loc, le)) if reg.swept.get(&loc).is_none_or(|&s| le > s) => {} // copy alive
                Some((false, loc, le)) => {
                    // Known, pending, held by a swept incarnation:
                    // open a custody poll (same as the sweep would —
                    // this covers respawns that arrive after the
                    // grace scan ran).
                    self.poll_custody_locked(&mut reg, t.id, loc, le);
                }
            }
        }
    }

    // ---------------------------------------------------- frames to coord

    fn to_coord_spawn(&self, tasks: Vec<WireTask>) {
        if self.is_coord() {
            self.coord_spawn_note(0, self.cfg.epoch, tasks);
        } else {
            self.send(
                0,
                Frame::SpawnNote {
                    hlc: self.hlc.tick(),
                    tasks,
                },
            );
        }
    }

    fn to_coord_finish(&self, id: u64, result: Vec<u64>) {
        if self.is_coord() {
            let mut reg = self.coord().reg.lock().unwrap();
            self.finish_locked(&mut reg, id, result);
        } else {
            self.send(
                0,
                Frame::FinishDec {
                    hlc: self.hlc.tick(),
                    task: id,
                    result,
                },
            );
        }
    }

    fn to_coord_moved(&self, id: u64, to: u32, to_epoch: u32) {
        if self.is_coord() {
            let mut reg = self.coord().reg.lock().unwrap();
            self.moved_locked(&mut reg, id, to, to_epoch, self.own(), self.cfg.epoch);
        } else {
            self.send(
                0,
                Frame::TaskMoved {
                    hlc: self.hlc.tick(),
                    task: id,
                    to,
                    to_epoch,
                },
            );
        }
    }

    /// Answer a coordinator custody poll. "Have" means queued or
    /// executing here (`resident`), or finished here (the `FinishDec`
    /// left on this same connection earlier, so the coordinator
    /// learns of the finish before this answer either way). Answering
    /// "no" *disowns* the task against the victim incarnation: a
    /// `StealReply` from it that drains later is dropped, so the
    /// answer cannot be invalidated after the fact.
    fn answer_task_query(&self, id: u64, victim: u32, victim_epoch: u32) {
        let have = {
            let resident = self.resident.lock().unwrap();
            let done = self.done.lock().unwrap();
            if resident.contains(&id) || done.contains(&id) {
                true
            } else {
                self.disowned
                    .lock()
                    .unwrap()
                    .insert(id, (victim, victim_epoch));
                false
            }
        };
        self.send(
            0,
            Frame::TaskAnswer {
                hlc: self.hlc.tick(),
                task: id,
                have,
            },
        );
    }

    // ------------------------------------------------------- task intake

    /// Accept tasks pushed here by `TaskMigrate`: dedup against
    /// resident and finished ids (a doctored duplicate frame or a
    /// recovery race must not double-enqueue), then inbox them.
    fn accept_migrated(&self, tasks: Vec<WireTask>) {
        for t in tasks {
            {
                let resident = self.resident.lock().unwrap();
                let done = self.done.lock().unwrap();
                if resident.contains(&t.id) || done.contains(&t.id) {
                    continue;
                }
            }
            self.resident.lock().unwrap().insert(t.id);
            self.inbox.push(t);
        }
    }

    // --------------------------------------------------------- frame input

    /// `from_epoch` is the incarnation of `from` that the carrying
    /// connection belongs to (its Hello epoch) — frames buffered from
    /// a dead incarnation must not be attributed to its successor.
    fn handle_frame(self: &Arc<Self>, from: u32, from_epoch: u32, frame: Frame) {
        self.hlc.observe(frame.hlc());
        if from != self.own() {
            *self.peers[from as usize].last_heard.lock().unwrap() = Instant::now();
        }
        match frame {
            Frame::Hello { place, epoch, .. } => self.note_hello(place, epoch),
            Frame::StealProbe {
                probe_id,
                thief_place,
                chunk,
                ..
            } => self.handle_steal_probe(probe_id, thief_place, from_epoch, chunk as usize),
            Frame::StealReply {
                probe_id, tasks, ..
            } => self.handle_steal_reply(from, from_epoch, probe_id, tasks),
            Frame::TaskMigrate { tasks, .. } => self.accept_migrated(tasks),
            Frame::SpawnNote { tasks, .. } => {
                if self.is_coord() {
                    self.coord_spawn_note(from, from_epoch, tasks);
                }
            }
            Frame::FinishDec { task, result, .. } => {
                if self.is_coord() {
                    let mut reg = self.coord().reg.lock().unwrap();
                    self.finish_locked(&mut reg, task, result);
                }
            }
            Frame::TaskMoved {
                task, to, to_epoch, ..
            } => {
                if self.is_coord() {
                    let mut reg = self.coord().reg.lock().unwrap();
                    self.moved_locked(&mut reg, task, to, to_epoch, from, from_epoch);
                }
            }
            Frame::TaskQuery {
                task,
                victim,
                victim_epoch,
                ..
            } => self.answer_task_query(task, victim, victim_epoch),
            Frame::TaskAnswer { task, have, .. } => {
                if self.is_coord() {
                    self.coord_task_answer(from, from_epoch, task, have);
                }
            }
            Frame::Heartbeat {
                busy, shared_len, ..
            } => {
                if from != self.own() {
                    let peer = &self.peers[from as usize];
                    if peer.alive.load(Ordering::Acquire) {
                        let prev = peer.last_busy.swap(busy, Ordering::AcqRel);
                        for _ in prev..busy {
                            self.board.worker_busy(PlaceId(from));
                        }
                        for _ in busy..prev {
                            self.board.worker_idle(PlaceId(from));
                        }
                        self.board
                            .set_shared_len(PlaceId(from), shared_len as usize);
                    }
                }
            }
            Frame::Shutdown { places_failed, .. } => {
                self.shutdown_failed.store(places_failed, Ordering::Release);
                self.shutdown.store(true, Ordering::Release);
            }
        }
    }

    /// Victim side of a distributed steal: pop up to `chunk`
    /// migratable tasks from the shared deque and reply.
    /// `thief_epoch` is the probing connection's incarnation — it
    /// stamps the lease so the coordinator can tell whether the
    /// hand-off was to an incarnation it has since swept.
    fn handle_steal_probe(&self, probe_id: u64, thief_place: u32, thief_epoch: u32, chunk: usize) {
        let mut grabbed = self.shared.take_chunk(chunk.max(1));
        // Locality-sensitive tasks never migrate; put them back.
        let migratable = {
            let policy = self.policy.lock().unwrap();
            let (mig, stay): (Vec<_>, Vec<_>) = grabbed
                .drain(..)
                .partition(|t| policy.may_migrate(locality_from_wire(t.locality)));
            for t in stay {
                self.shared.push(t);
            }
            mig
        };
        {
            let mut resident = self.resident.lock().unwrap();
            for t in &migratable {
                resident.remove(&t.id);
            }
        }
        self.board
            .set_shared_len(self.own_place(), self.shared.len());
        // Lease the tasks to the thief *before* handing them over: if
        // the thief dies with the reply in flight, the registry sweep
        // still finds loc == thief and reclaims them. The thief's own
        // TaskMoved notice is an idempotent duplicate of this one.
        for t in &migratable {
            self.to_coord_moved(t.id, thief_place, thief_epoch);
        }
        // Queue-and-forget: if the thief dies before the reply lands,
        // the lease above (loc == thief) lets the death sweep reclaim
        // every task in it — no victim-side fallback needed.
        self.send(
            thief_place,
            Frame::StealReply {
                hlc: self.hlc.tick(),
                probe_id,
                tasks: migratable,
            },
        );
    }

    /// Thief side: vet a reply's tasks and take custody of the
    /// survivors *in the reader thread* — before any worker can see
    /// them — then route them to the waiting probe, or salvage them
    /// into the shared deque if the probe already timed out.
    ///
    /// Vetting drops tasks this place disowned in a custody poll
    /// against the sender's incarnation (the late payload the "no"
    /// answer promised to refuse) and tasks already resident or
    /// finished here. Taking custody means inserting into `resident`
    /// and queueing the confirming `TaskMoved` now: a custody poll
    /// arriving one instant later must see the task as held, not
    /// catch it in limbo between the reader and a worker.
    fn handle_steal_reply(
        &self,
        victim: u32,
        victim_epoch: u32,
        probe_id: u64,
        tasks: Vec<WireTask>,
    ) {
        let tasks = {
            let mut resident = self.resident.lock().unwrap();
            let done = self.done.lock().unwrap();
            let disowned = self.disowned.lock().unwrap();
            let kept: Vec<WireTask> = tasks
                .into_iter()
                .filter(|t| {
                    if resident.contains(&t.id) || done.contains(&t.id) {
                        return false;
                    }
                    !disowned
                        .get(&t.id)
                        .is_some_and(|&(v, ve)| v == victim && victim_epoch <= ve)
                })
                .collect();
            for t in &kept {
                resident.insert(t.id);
            }
            kept
        };
        for t in &tasks {
            self.to_coord_moved(t.id, self.own(), self.cfg.epoch);
        }
        if self.probes.fill(probe_id, tasks.clone()) {
            return;
        }
        if tasks.is_empty() {
            return;
        }
        let w = GlobalWorkerId(self.own() * self.cfg.wpp);
        let kinds: Vec<TraceEventKind> = tasks
            .iter()
            .map(|t| TraceEventKind::Migration {
                task: TaskId(t.id),
                from: PlaceId(victim),
                to: self.own_place(),
            })
            .collect();
        self.emit_batch(w, self.own_place(), &kinds);
        for t in tasks {
            self.shared.push(t);
        }
        self.board
            .set_shared_len(self.own_place(), self.shared.len());
    }
}

// ---------------------------------------------------------------- workers

struct WorkerCtx {
    node: Arc<Node>,
    gw: GlobalWorkerId,
    deque: PrivateDeque<WireTask>,
    /// Co-workers' private deques (index == local worker, own slot
    /// unused).
    stealers: Vec<Stealer<WireTask>>,
    wx: usize,
    policy: Box<dyn Policy>,
    rng: SplitMix64,
    retry: WallRetry,
    /// Reused across rounds: the policy's step sequence.
    steal_buf: Vec<StealStep>,
}

impl WorkerCtx {
    fn place(&self) -> PlaceId {
        self.node.own_place()
    }

    fn run(&mut self) {
        let mut gate = IdleGate::default();
        let mut idle_since = Instant::now();
        while !self.node.shutdown.load(Ordering::Acquire) {
            match self.acquire(idle_since) {
                Some(task) => {
                    if gate.note_work().is_some() {
                        self.node
                            .emit(self.gw, self.place(), TraceEventKind::Wakeup);
                    }
                    self.execute(task);
                    idle_since = Instant::now();
                }
                None => match gate.note_idle() {
                    IdleAction::Yield => thread::yield_now(),
                    IdleAction::Park { newly_dormant } => {
                        if newly_dormant {
                            self.node
                                .emit(self.gw, self.place(), TraceEventKind::Dormant);
                        }
                        gate.nap();
                    }
                },
            }
        }
    }

    /// One steal round: execute the policy's step sequence verbatim
    /// (the conformance checker replays it against Algorithm 1).
    fn acquire(&mut self, idle_since: Instant) -> Option<WireTask> {
        let node = Arc::clone(&self.node);
        let mut steps = std::mem::take(&mut self.steal_buf);
        self.policy
            .steal_sequence_into(self.gw, &node.board, &mut self.rng, &mut steps);
        let mut found = None;
        for &step in &steps {
            match step {
                StealStep::PollPrivate => {
                    if let Some(t) = self.deque.pop() {
                        found = Some(t);
                    }
                    node.board.set_private_len(self.gw, self.deque.len());
                }
                StealStep::ProbeNetwork => {
                    node.emit(self.gw, self.place(), TraceEventKind::NetProbe);
                    if let Some(t) = node.inbox.take() {
                        found = Some(t);
                    }
                }
                StealStep::StealCoWorker => {
                    node.emit(
                        self.gw,
                        self.place(),
                        TraceEventKind::StealAttempt {
                            tier: StealTier::LocalPrivate,
                        },
                    );
                    let n = self.stealers.len();
                    let start = self.rng.below_usize(n.max(1));
                    for k in 0..n {
                        let j = (start + k) % n;
                        if j == self.wx {
                            continue;
                        }
                        if let Some(t) = self.stealers[j].steal_with_retries(2) {
                            self.emit_success(
                                StealTier::LocalPrivate,
                                t.id,
                                self.node.own(),
                                idle_since,
                            );
                            found = Some(t);
                            break;
                        }
                    }
                }
                StealStep::StealLocalShared => {
                    node.emit(
                        self.gw,
                        self.place(),
                        TraceEventKind::StealAttempt {
                            tier: StealTier::LocalShared,
                        },
                    );
                    if let Some(t) = node.shared.take() {
                        node.board.set_shared_len(self.place(), node.shared.len());
                        self.emit_success(
                            StealTier::LocalShared,
                            t.id,
                            self.node.own(),
                            idle_since,
                        );
                        found = Some(t);
                    }
                }
                StealStep::StealRemoteShared(victim) => {
                    node.emit(
                        self.gw,
                        self.place(),
                        TraceEventKind::StealAttempt {
                            tier: StealTier::Remote,
                        },
                    );
                    if let Some(t) = self.remote_steal(victim, idle_since) {
                        found = Some(t);
                    }
                }
                StealStep::Quiesce => break,
            }
            if found.is_some() {
                break;
            }
        }
        self.steal_buf = steps;
        let got = found.is_some();
        self.policy.note_result(self.gw, got);
        found
    }

    fn emit_success(&self, tier: StealTier, task: u64, victim: u32, idle_since: Instant) {
        self.node.emit(
            self.gw,
            self.place(),
            TraceEventKind::StealSuccess {
                tier,
                task: TaskId(task),
                victim: PlaceId(victim),
                latency_ns: idle_since.elapsed().as_nanos() as u64,
            },
        );
    }

    /// The distributed steal protocol: probe, wait on the wall-clock
    /// timeout, back off and retry within the budget, emitting
    /// `steal_timeout` per expired attempt.
    fn remote_steal(&mut self, victim: PlaceId, idle_since: Instant) -> Option<WireTask> {
        let node = Arc::clone(&self.node);
        let v = victim.0;
        if v == node.own() || !node.peers[v as usize].alive.load(Ordering::Acquire) {
            return None;
        }
        let chunk = self.policy.remote_chunk() as u32;
        let mut attempt: u32 = 1;
        loop {
            let probe_id = node.probe_seq.fetch_add(1, Ordering::Relaxed);
            node.probes.register(probe_id);
            let frame = Frame::StealProbe {
                hlc: node.hlc.tick(),
                probe_id,
                thief_place: node.own(),
                thief_worker: self.wx as u32,
                chunk,
            };
            node.send(v, frame);
            let reply = node.probes.wait(probe_id, self.retry.timeout());
            match reply {
                Some(tasks) if !tasks.is_empty() => {
                    return Some(self.accept_stolen(v, tasks, idle_since))
                }
                Some(_) => return None, // victim answered empty-handed
                None => {
                    node.emit(
                        self.gw,
                        self.place(),
                        TraceEventKind::StealTimeout { victim, attempt },
                    );
                    if attempt > self.retry.budget() {
                        return None;
                    }
                    thread::sleep(self.retry.backoff(attempt, &mut self.rng));
                    attempt += 1;
                }
            }
        }
    }

    /// A remote steal landed: one shared HLC tick stamps the
    /// `steal_success` and every `migration` line (the conformance
    /// checker counts same-stamp migrations against the chunk bound),
    /// the first task executes here, the rest feed the private deque.
    fn accept_stolen(
        &mut self,
        victim: u32,
        tasks: Vec<WireTask>,
        idle_since: Instant,
    ) -> WireTask {
        let node = &self.node;
        let mut kinds = vec![TraceEventKind::StealSuccess {
            tier: StealTier::Remote,
            task: TaskId(tasks[0].id),
            victim: PlaceId(victim),
            latency_ns: idle_since.elapsed().as_nanos() as u64,
        }];
        for t in &tasks {
            kinds.push(TraceEventKind::Migration {
                task: TaskId(t.id),
                from: PlaceId(victim),
                to: self.place(),
            });
        }
        node.emit_batch(self.gw, self.place(), &kinds);
        // Residency and the confirming TaskMoved were handled by the
        // reader thread before the probe was filled.
        let mut iter = tasks.into_iter();
        let first = iter.next().expect("non-empty");
        for t in iter {
            self.deque.push(t);
        }
        node.board.set_private_len(self.gw, self.deque.len());
        first
    }

    /// Run one task: trace start, execute, register + enqueue
    /// children, trace end, then notify the coordinator. Trace lines
    /// are flushed before the socket writes they precede.
    fn execute(&mut self, task: WireTask) {
        let node = Arc::clone(&self.node);
        node.board.worker_busy(self.place());
        node.emit(
            self.gw,
            self.place(),
            TraceEventKind::TaskStart {
                task: TaskId(task.id),
            },
        );
        let mut scope = Collect(Vec::new());
        let contrib = node.app.execute(&task, &mut scope);
        let recovered = task.flags & TASK_RECOVERED != 0;
        if !scope.0.is_empty() {
            let children: Vec<WireTask> = scope
                .0
                .drain(..)
                .enumerate()
                .map(|(i, (loc, kind, est, payload))| WireTask {
                    id: mix64(task.id ^ (i as u64 + 1)),
                    home: node.own(),
                    locality: locality_to_wire(loc),
                    flags: if recovered { TASK_RECOVERED } else { 0 },
                    kind,
                    est,
                    payload,
                })
                .collect();
            for c in &children {
                node.emit(
                    self.gw,
                    self.place(),
                    TraceEventKind::Spawn { task: TaskId(c.id) },
                );
            }
            node.to_coord_spawn(children.clone());
            if !recovered {
                // Normal path: children run here unless stolen. A
                // recovered task's children are routed by the
                // registry instead (they may be alive or done
                // elsewhere from the pre-crash execution).
                for c in children {
                    self.enqueue_local(c);
                }
            }
        }
        node.emit(
            self.gw,
            self.place(),
            TraceEventKind::TaskEnd {
                task: TaskId(task.id),
            },
        );
        node.to_coord_finish(task.id, contrib);
        // A task stays resident while executing: a custody poll must
        // count it as held. It leaves residency only here, after the
        // FinishDec is queued, so a "no" answer always trails the
        // finish on the coordinator connection.
        {
            let mut resident = node.resident.lock().unwrap();
            let mut done = node.done.lock().unwrap();
            done.insert(task.id);
            resident.remove(&task.id);
        }
        node.board.worker_idle(self.place());
    }

    fn enqueue_local(&mut self, c: WireTask) {
        let node = Arc::clone(&self.node);
        let meta = TaskMeta {
            home: self.place(),
            locality: locality_from_wire(c.locality),
            spawned_at: self.place(),
            est_cost_ns: c.est,
            footprint_bytes: (c.payload.len() * 8) as u64,
        };
        let choice = self.policy.map_task(&meta, &node.board, &mut self.rng);
        node.resident.lock().unwrap().insert(c.id);
        match choice {
            DequeChoice::Private => {
                self.deque.push(c);
                node.board.set_private_len(self.gw, self.deque.len());
            }
            DequeChoice::Shared => {
                node.shared.push(c);
                node.board.set_shared_len(self.place(), node.shared.len());
            }
        }
    }
}

// ---------------------------------------------------------------- run loops

fn spawn_reader(node: Arc<Node>, mut conn: Conn) {
    thread::spawn(move || {
        let first = match Frame::read_from(&mut conn) {
            Ok(Some(f)) => f,
            _ => return,
        };
        if first.check_hello().is_err() {
            return;
        }
        let (peer, epoch) = match first {
            Frame::Hello { place, epoch, .. } => (place, epoch),
            _ => unreachable!("check_hello passed"),
        };
        node.hlc.observe(first.hlc());
        node.handle_frame(peer, epoch, first);
        while let Ok(Some(frame)) = Frame::read_from(&mut conn) {
            node.handle_frame(peer, epoch, frame);
        }
        // EOF after draining: the peer's process is gone (or it
        // re-dialed). Only treat it as a death if no newer
        // incarnation said Hello since.
        if node.peers[peer as usize].epoch.load(Ordering::Acquire) == epoch {
            node.note_possible_death(peer);
            if node.is_coord() {
                node.death_queue.lock().unwrap().retain(|&(x, _)| x != peer);
                node.coord_process_death(peer, epoch);
            }
        }
    });
}

fn spawn_accept_loop(node: Arc<Node>, listener: Listener) {
    thread::spawn(move || loop {
        match listener.accept() {
            Ok(conn) => spawn_reader(Arc::clone(&node), conn),
            Err(_) => {
                if node.shutdown.load(Ordering::Acquire) {
                    return;
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
    });
}

fn spawn_heartbeat(node: Arc<Node>) {
    thread::spawn(move || {
        let period = Duration::from_millis(node.cfg.hb_ms);
        let detect = Duration::from_millis(node.cfg.detect_ms);
        while !node.shutdown.load(Ordering::Acquire) {
            // Process queued deaths (coordinator reclaims leases).
            let dead: Vec<(u32, u32)> = std::mem::take(&mut *node.death_queue.lock().unwrap());
            for (p, dying) in dead {
                if node.is_coord() {
                    node.coord_process_death(p, dying);
                }
            }
            // Silence-based detection (backup to connection EOF).
            for p in 0..node.cfg.places {
                if p == node.own() || p == 0 {
                    continue;
                }
                let peer = &node.peers[p as usize];
                if peer.alive.load(Ordering::Acquire)
                    && peer.epoch.load(Ordering::Acquire) != EPOCH_UNSEEN
                    && peer.last_heard.lock().unwrap().elapsed() > detect
                {
                    node.note_possible_death(p);
                }
            }
            // Beacon our load to everyone alive.
            let hb = Frame::Heartbeat {
                hlc: node.hlc.tick(),
                busy: node.board.busy_workers(node.own_place()),
                shared_len: node.shared.len() as u32,
            };
            for p in 0..node.cfg.places {
                if p == node.own() || !node.peers[p as usize].alive.load(Ordering::Acquire) {
                    continue;
                }
                // Don't pile beacons up behind a stalled writer.
                if node.outbox_len(p) > 64 {
                    continue;
                }
                node.send(p, hb.clone());
            }
            thread::sleep(period);
        }
    });
}

/// Dedicated writer thread for one peer: drains the outbox over the
/// socket, dialing lazily (Hello first) and backing off through the
/// peer's [`Reconnector`] on failure. Coordinator-bound frames retry
/// until shutdown (place 0 is never killed); for anyone else an
/// exhausted budget degrades the peer to dead and drops its queue —
/// the coordinator's lease sweep recovers any task that mattered.
fn spawn_writer(node: Arc<Node>, p: u32) {
    thread::spawn(move || {
        let mut conn: Option<Conn> = None;
        let mut reconnect = Reconnector::new(
            reconnect_defaults(),
            node.cfg.seed ^ mix64(u64::from(node.cfg.place) << 32 | u64::from(p)),
        );
        'frames: loop {
            let frame = {
                let peer = &node.peers[p as usize];
                let mut q = peer.outbox.lock().unwrap();
                loop {
                    if let Some(f) = q.pop_front() {
                        break f;
                    }
                    if node.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let (guard, _) = peer
                        .outbox_cv
                        .wait_timeout(q, Duration::from_millis(50))
                        .unwrap();
                    q = guard;
                }
            };
            loop {
                // A frame addressed to a peer since declared dead must
                // not survive into its next incarnation.
                if p != 0 && !node.peers[p as usize].alive.load(Ordering::Acquire) {
                    conn = None;
                    reconnect.reset();
                    continue 'frames;
                }
                if conn.is_none() {
                    if let Ok(mut c) = node.dial(p) {
                        if node.hello().write_to(&mut c).is_ok() {
                            conn = Some(c);
                            reconnect.reset();
                        }
                    }
                }
                let sent = match conn.as_mut() {
                    Some(c) => frame.write_to(c).is_ok(),
                    None => false,
                };
                if sent {
                    continue 'frames;
                }
                conn = None;
                match reconnect.next_delay() {
                    Some(d) => {
                        if node.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        thread::sleep(d);
                    }
                    None if p == 0 => {
                        // The coordinator is never declared dead; its
                        // true silence means the run is over anyway.
                        reconnect.reset();
                        if node.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                    }
                    None => {
                        node.note_possible_death(p);
                        node.peers[p as usize].outbox.lock().unwrap().clear();
                        reconnect.reset();
                        continue 'frames; // this frame is dropped too
                    }
                }
            }
        }
    });
}

impl Node {
    fn new(cfg: PlaceConfig) -> io::Result<(Arc<Node>, Listener)> {
        fs::create_dir_all(&cfg.dir)?;
        if let Some(parent) = cfg.trace_path.parent() {
            fs::create_dir_all(parent)?;
        }
        let trace = File::create(&cfg.trace_path)?;
        let listener = match cfg.transport {
            Transport::Unix => {
                let path = sock_path(&cfg.dir, cfg.place);
                let _ = fs::remove_file(&path); // stale socket from a killed incarnation
                Listener::Unix(UnixListener::bind(&path)?)
            }
            Transport::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = l.local_addr()?;
                let tmp = addr_path(&cfg.dir, cfg.place).with_extension("tmp");
                fs::write(&tmp, addr.to_string())?;
                fs::rename(&tmp, addr_path(&cfg.dir, cfg.place))?;
                Listener::Tcp(l)
            }
        };
        let app = app_by_name(&cfg.app, cfg.seed)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown app"))?;
        let policy = policy_by_name(&cfg.policy)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unknown policy"))?;
        let cluster = ClusterConfig::new(cfg.places, cfg.wpp);
        let peers = (0..cfg.places)
            .map(|_| Peer {
                outbox: Mutex::new(std::collections::VecDeque::new()),
                outbox_cv: Condvar::new(),
                alive: AtomicBool::new(true),
                epoch: AtomicU32::new(EPOCH_UNSEEN),
                last_heard: Mutex::new(Instant::now()),
                last_busy: AtomicU32::new(0),
            })
            .collect();
        let coord = if cfg.place == 0 {
            Some(Coord {
                reg: Mutex::new(Registry::default()),
                latch: Condvar::new(),
            })
        } else {
            None
        };
        let node = Arc::new(Node {
            board: SharedBoard::new(cluster),
            cluster: ClusterConfig::new(cfg.places, cfg.wpp),
            cfg,
            hlc: Hlc::new(),
            trace: Mutex::new(trace),
            shared: SharedFifo::new(),
            inbox: SharedFifo::new(),
            peers,
            probes: ProbeTable::new(),
            probe_seq: AtomicU64::new(1),
            app,
            policy: Mutex::new(policy),
            resident: Mutex::new(HashSet::new()),
            done: Mutex::new(HashSet::new()),
            disowned: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            shutdown_failed: AtomicU32::new(0),
            death_queue: Mutex::new(Vec::new()),
            coord,
        });
        Ok((node, listener))
    }

    /// Coordinator: wait until every place has dialed in (or the
    /// deadline passes — the run then degrades to whoever showed up).
    fn wait_for_cluster(&self) {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let seen = (1..self.cfg.places)
                .filter(|&p| self.peers[p as usize].epoch.load(Ordering::Acquire) != EPOCH_UNSEEN)
                .count() as u32;
            if seen + 1 >= self.cfg.places || Instant::now() >= deadline {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn run_coordinator(self: &Arc<Self>) -> i32 {
        self.wait_for_cluster();
        let w0 = GlobalWorkerId(0);
        let mut prev: Option<Vec<u64>> = None;
        let mut round: u32 = 0;
        let mut error: Option<String> = None;
        while let Some(roots) = self.app.roots(round, prev.as_deref()) {
            {
                let mut reg = self.coord().reg.lock().unwrap();
                reg.fold = Vec::new();
                reg.folded_any = false;
                for (i, spec) in roots.into_iter().enumerate() {
                    let id = mix64((u64::from(round)) << 32 | i as u64);
                    let task = WireTask {
                        id,
                        home: 0,
                        locality: locality_to_wire(spec.locality),
                        flags: 0,
                        kind: spec.kind,
                        est: spec.est,
                        payload: spec.payload,
                    };
                    self.emit(w0, PlaceId(0), TraceEventKind::Spawn { task: TaskId(id) });
                    let (to, ep) = self.coord_deliver(&mut reg, task.clone(), None);
                    self.register_locked(&mut reg, task, to, ep);
                }
            }
            // Wait for the round to drain, with a watchdog.
            let deadline = Instant::now() + Duration::from_millis(self.cfg.round_timeout_ms);
            let mut reg = self.coord().reg.lock().unwrap();
            while reg.outstanding > 0 {
                let now = Instant::now();
                if now >= deadline {
                    error = Some(format!(
                        "round {round} stalled: {} tasks outstanding",
                        reg.outstanding
                    ));
                    break;
                }
                let (guard, _) = self
                    .coord()
                    .latch
                    .wait_timeout(reg, (deadline - now).min(Duration::from_millis(50)))
                    .unwrap();
                reg = guard;
            }
            if error.is_some() {
                drop(reg);
                break;
            }
            prev = Some(std::mem::take(&mut reg.fold));
            drop(reg);
            round += 1;
        }
        let validation = match (&error, &prev) {
            (Some(_), _) => Err("deadline".to_string()),
            (None, Some(result)) => self.app.validate(result),
            (None, None) => Err("no rounds ran".to_string()),
        };
        let (places_failed, ever_failed) = {
            let reg = self.coord().reg.lock().unwrap();
            let mut ever: Vec<u32> = reg.ever_failed.iter().copied().collect();
            ever.sort_unstable();
            (reg.dead.len() as u32, ever)
        };
        let bye = Frame::Shutdown {
            hlc: self.hlc.tick(),
            places_failed,
        };
        for p in 1..self.cfg.places {
            self.send(p, bye.clone());
        }
        self.shutdown.store(true, Ordering::Release);
        // Writers exit once shutdown is set and their queue is empty;
        // give them a bounded window to flush the Shutdown frames so
        // followers exit promptly rather than on their own watchdog.
        let flush_deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < flush_deadline {
            let pending = (1..self.cfg.places).any(|p| self.outbox_len(p) > 0);
            if !pending {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        thread::sleep(Duration::from_millis(20));
        let result_ok = error.is_none() && validation.is_ok();
        if let Some(path) = &self.cfg.report_path {
            let mut o = Value::object();
            o.set("app", self.app.name());
            o.set("policy", self.cfg.policy.as_str());
            o.set("places", u64::from(self.cfg.places));
            o.set("workers_per_place", u64::from(self.cfg.wpp));
            o.set("rounds", u64::from(round));
            o.set("places_failed", u64::from(places_failed));
            o.set(
                "ever_failed",
                ever_failed
                    .iter()
                    .map(|&p| u64::from(p))
                    .collect::<Vec<_>>(),
            );
            o.set("result_ok", result_ok);
            if let Some(e) = error
                .as_deref()
                .or(validation.as_ref().err().map(|s| s.as_str()))
            {
                o.set("error", e);
            }
            let _ = fs::write(path, o.render_pretty());
        }
        if error.is_some() {
            EXIT_DEADLINE
        } else if result_ok {
            0
        } else {
            EXIT_BAD_RESULT
        }
    }

    fn run_follower(&self) -> i32 {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.run_deadline_ms);
        while !self.shutdown.load(Ordering::Acquire) {
            if Instant::now() >= deadline {
                self.shutdown.store(true, Ordering::Release);
                return EXIT_DEADLINE;
            }
            thread::sleep(Duration::from_millis(5));
        }
        0
    }
}

/// Run one place to completion. Returns the process exit code: 0 on a
/// clean validated run, [`EXIT_BAD_RESULT`] if the coordinator's fold
/// failed validation, [`EXIT_DEADLINE`] if a watchdog fired.
pub fn run_place(cfg: PlaceConfig) -> io::Result<i32> {
    let (node, listener) = Node::new(cfg)?;
    spawn_accept_loop(Arc::clone(&node), listener);
    for p in 0..node.cfg.places {
        if p != node.own() {
            spawn_writer(Arc::clone(&node), p);
        }
    }
    spawn_heartbeat(Arc::clone(&node));
    // Announce ourselves to the coordinator so the startup barrier
    // (and, on restart, the revival path) sees us promptly.
    if !node.is_coord() {
        node.send(
            0,
            Frame::Heartbeat {
                hlc: node.hlc.tick(),
                busy: 0,
                shared_len: 0,
            },
        );
    }
    let mut workers = Vec::new();
    let deques: Vec<PrivateDeque<WireTask>> = (0..node.cfg.wpp).map(|_| chase_lev().0).collect();
    let mut handed: Vec<PrivateDeque<WireTask>> = Vec::new();
    let stealers: Vec<Stealer<WireTask>> = deques.iter().map(|d| d.stealer()).collect();
    for d in deques {
        handed.push(d);
    }
    for (wx, deque) in handed.into_iter().enumerate() {
        let node2 = Arc::clone(&node);
        let stealers = stealers.clone();
        let gw = node.cluster.global(node.own_place(), WorkerId(wx as u32));
        let policy = node.policy.lock().unwrap().clone_box();
        let rng = SplitMix64::new(node.cfg.seed ^ mix64(0x5EED ^ u64::from(gw.0)));
        workers.push(thread::spawn(move || {
            let mut ctx = WorkerCtx {
                node: node2,
                gw,
                deque,
                stealers,
                wx,
                policy,
                rng,
                retry: WallRetry::new(cluster_retry_defaults()),
                steal_buf: Vec::new(),
            };
            ctx.run();
        }));
    }
    let code = if node.is_coord() {
        node.run_coordinator()
    } else {
        node.run_follower()
    };
    node.shutdown.store(true, Ordering::Release);
    for h in workers {
        let _ = h.join();
    }
    let _ = node.trace.lock().unwrap().flush();
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn test_dir(tag: &str) -> PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("distws-place-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn place_cfg(dir: &std::path::Path, place: u32, places: u32, app: &str) -> PlaceConfig {
        let mut cfg = PlaceConfig::new(place, places, 2, dir.to_path_buf(), app);
        cfg.trace_path = dir.join(format!("trace-p{place}-e0.jsonl"));
        if place == 0 {
            cfg.report_path = Some(dir.join("report.json"));
        }
        cfg.round_timeout_ms = 20_000;
        cfg.run_deadline_ms = 30_000;
        cfg
    }

    /// Run an N-place cluster as in-process threads over real Unix
    /// sockets; return the coordinator's exit code.
    fn run_threaded_cluster(places: u32, app: &str, policy: &str) -> (i32, PathBuf) {
        let dir = test_dir(app);
        let mut handles = Vec::new();
        for p in (1..places).rev() {
            let mut cfg = place_cfg(&dir, p, places, app);
            cfg.policy = policy.to_string();
            handles.push(thread::spawn(move || run_place(cfg).unwrap()));
        }
        let mut cfg0 = place_cfg(&dir, 0, places, app);
        cfg0.policy = policy.to_string();
        let code = run_place(cfg0).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), 0, "follower exit");
        }
        (code, dir)
    }

    #[test]
    fn single_place_quicksort_validates() {
        let dir = test_dir("solo");
        let cfg = place_cfg(&dir, 0, 1, "quicksort");
        assert_eq!(run_place(cfg).unwrap(), 0);
        let report = fs::read_to_string(dir.join("report.json")).unwrap();
        let v = Value::parse(&report).unwrap();
        assert_eq!(v.get("result_ok").and_then(|x| x.as_u64()), None);
        assert_eq!(v.get("places_failed").and_then(|x| x.as_u64()), Some(0));
        let trace = fs::read_to_string(dir.join("trace-p0-e0.jsonl")).unwrap();
        assert!(trace.contains("task_start"), "trace has task activity");
    }

    #[test]
    fn two_place_quicksort_over_unix_sockets() {
        let (code, dir) = run_threaded_cluster(2, "quicksort", "distws");
        assert_eq!(code, 0);
        let report = fs::read_to_string(dir.join("report.json")).unwrap();
        assert!(report.contains("\"result_ok\": true"), "{report}");
    }

    #[test]
    fn three_place_kmeans_over_unix_sockets() {
        let (code, dir) = run_threaded_cluster(3, "kmeans", "distws");
        assert_eq!(code, 0);
        let report = fs::read_to_string(dir.join("report.json")).unwrap();
        assert!(report.contains("\"result_ok\": true"), "{report}");
    }

    #[test]
    fn duplicate_task_migrate_is_dropped() {
        let dir = test_dir("dup");
        let cfg = place_cfg(&dir, 0, 1, "quicksort");
        let (node, _listener) = Node::new(cfg).unwrap();
        let t = WireTask {
            id: 77,
            home: 0,
            locality: 1,
            flags: 0,
            kind: 0,
            est: 1,
            payload: vec![1, 2],
        };
        node.accept_migrated(vec![t.clone()]);
        node.accept_migrated(vec![t.clone()]); // doctored duplicate
        assert_eq!(node.inbox.len(), 1, "resident dedup");
        // Drain, execute-equivalent bookkeeping, then replay again:
        // the done-set must reject it too.
        let _ = node.inbox.take().unwrap();
        node.resident.lock().unwrap().remove(&t.id);
        node.done.lock().unwrap().insert(t.id);
        node.accept_migrated(vec![t]);
        assert_eq!(node.inbox.len(), 0, "done dedup");
    }

    #[test]
    fn unknown_app_or_policy_is_an_input_error() {
        let dir = test_dir("bad");
        let mut cfg = place_cfg(&dir, 0, 1, "nope");
        assert!(run_place(cfg.clone()).is_err());
        cfg.app = "quicksort".into();
        cfg.policy = "nope".into();
        assert!(run_place(cfg).is_err());
    }
}
