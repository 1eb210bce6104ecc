//! Length-prefixed binary frames between place processes.
//!
//! Every frame on the wire is `u32` little-endian payload length, then
//! the payload: one tag byte, the sender's HLC stamp (`u64` LE), and
//! tag-specific fields. The first frame on every connection must be
//! [`Frame::Hello`] — it carries the wire version (mismatch is a hard
//! error), the sender's place id (identifying the peer for failure
//! detection), the cluster shape, and the sender's incarnation epoch
//! (bumped on restart so stale state is discarded).
//!
//! All integers are little-endian and fixed-width; vectors are a `u32`
//! count followed by the elements. There is no compression and no
//! self-description — both ends are the same binary, version-checked
//! by the handshake.

use std::io::{self, Read, Write};

/// Bump on any incompatible frame-layout change.
pub const WIRE_VERSION: u16 = 1;

/// Refuse absurd frames before allocating (corrupt peer / wrong port).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// [`WireTask::flags`] bit: this task may have executed before (it
/// was re-injected after a place failure), so its children must be
/// spawned through the coordinator's registry instead of the local
/// fast path — the registry dedups children that are already alive or
/// done elsewhere.
pub const TASK_RECOVERED: u8 = 1;

/// A task in transit between places.
///
/// `id` is globally unique and deterministic (derived from the parent
/// id and child index, so a crash-recovery re-execution regenerates
/// identical ids), `home` is the place the task was spawned at, and
/// `payload` carries the application state needed to execute it
/// anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTask {
    /// Globally unique deterministic task id.
    pub id: u64,
    /// Place the task was spawned at.
    pub home: u32,
    /// Locality class (feeds `Policy::may_migrate`).
    pub locality: u8,
    /// Recovery flags ([`TASK_RECOVERED`]).
    pub flags: u8,
    /// Application-defined task kind discriminant.
    pub kind: u16,
    /// Estimated cost in arbitrary units (feeds chunk heuristics).
    pub est: u64,
    /// Application state; semantics are up to the `ClusterApp`.
    pub payload: Vec<u64>,
}

/// One protocol message. Every variant's first field is the sender's
/// HLC stamp at send time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection opener: version + identity + shape + incarnation.
    Hello {
        /// Sender HLC stamp.
        hlc: u64,
        /// Must equal [`WIRE_VERSION`].
        version: u16,
        /// Sender's place id.
        place: u32,
        /// Total places in the cluster.
        places: u32,
        /// Workers per place.
        wpp: u32,
        /// Sender's incarnation epoch (0 first boot, +1 per restart).
        epoch: u32,
    },
    /// Thief asks a victim for up to `chunk` tasks.
    StealProbe {
        /// Sender HLC stamp.
        hlc: u64,
        /// Correlates the eventual [`Frame::StealReply`].
        probe_id: u64,
        /// Thief's place id.
        thief_place: u32,
        /// Thief's local worker index.
        thief_worker: u32,
        /// Max tasks requested.
        chunk: u32,
    },
    /// Victim's answer: zero or more migrated tasks.
    StealReply {
        /// Sender HLC stamp.
        hlc: u64,
        /// Echo of the probe's id.
        probe_id: u64,
        /// The stolen tasks (empty = nothing to steal).
        tasks: Vec<WireTask>,
    },
    /// Push tasks to a peer outside the probe/reply path: the
    /// coordinator routing fresh roots and children, or re-injecting
    /// reclaimed payloads after a place failure.
    TaskMigrate {
        /// Sender HLC stamp.
        hlc: u64,
        /// Sending place.
        from_place: u32,
        /// The migrated tasks.
        tasks: Vec<WireTask>,
    },
    /// Registration of freshly spawned tasks with the coordinator's
    /// registry: the registry entry (payload included) is the lease
    /// the coordinator reclaims if the place holding the task dies.
    SpawnNote {
        /// Sender HLC stamp.
        hlc: u64,
        /// The new tasks, payloads included.
        tasks: Vec<WireTask>,
    },
    /// Completion notice to the coordinator: decrements the global
    /// finish counter and releases the task's lease.
    FinishDec {
        /// Sender HLC stamp.
        hlc: u64,
        /// The finished task.
        task: u64,
        /// The task's contribution to the round fold.
        result: Vec<u64>,
    },
    /// A thief tells the coordinator where a stolen task now lives,
    /// so the lease points at the task's current holder.
    TaskMoved {
        /// Sender HLC stamp.
        hlc: u64,
        /// The task whose lease moved.
        task: u64,
        /// The place now holding it.
        to: u32,
        /// The incarnation (epoch) of `to` the sender handed the task
        /// to. Lets the coordinator tell a lease to a dead incarnation
        /// (reclaim) from one to a freshly restarted incarnation whose
        /// revival it has not yet processed (do not reclaim).
        to_epoch: u32,
    },
    /// Coordinator asks a place whether it currently holds a task.
    ///
    /// Sent while reclaiming a dead place's work: a task the dead
    /// place leased away (or a `StealReply` it sent just before
    /// dying) may or may not have reached a live peer, and only that
    /// peer knows. `victim`/`victim_epoch` name the dead incarnation
    /// whose in-flight payload is in doubt; a place answering "no"
    /// records them and drops any late-arriving steal payload for the
    /// task from that incarnation, so the answer stays true.
    TaskQuery {
        /// Sender HLC stamp.
        hlc: u64,
        /// The task whose custody is in doubt.
        task: u64,
        /// The dead place being swept.
        victim: u32,
        /// The swept incarnation of `victim`.
        victim_epoch: u32,
    },
    /// A place's answer to [`Frame::TaskQuery`].
    TaskAnswer {
        /// Sender HLC stamp.
        hlc: u64,
        /// Echo of the queried task id.
        task: u64,
        /// True iff the sender holds the task (queued or executing).
        /// A finished task answers `false`; its `FinishDec` precedes
        /// the answer on the same ordered connection, so the
        /// coordinator always learns of the finish first.
        have: bool,
    },
    /// Liveness + load beacon (feeds the shared board's remote view).
    Heartbeat {
        /// Sender HLC stamp.
        hlc: u64,
        /// Busy workers at the sender.
        busy: u32,
        /// Sender's shared-queue length.
        shared_len: u32,
    },
    /// Coordinator ends the run.
    Shutdown {
        /// Sender HLC stamp.
        hlc: u64,
        /// Places still dead at shutdown.
        places_failed: u32,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_STEAL_PROBE: u8 = 2;
const TAG_STEAL_REPLY: u8 = 3;
const TAG_TASK_MIGRATE: u8 = 4;
const TAG_FINISH_DEC: u8 = 5;
const TAG_TASK_MOVED: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_SPAWN_NOTE: u8 = 9;
const TAG_TASK_QUERY: u8 = 10;
const TAG_TASK_ANSWER: u8 = 11;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Sequential reader over a frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated frame",
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in frame",
            ));
        }
        Ok(())
    }
}

fn put_task(buf: &mut Vec<u8>, t: &WireTask) {
    put_u64(buf, t.id);
    put_u32(buf, t.home);
    buf.push(t.locality);
    buf.push(t.flags);
    put_u16(buf, t.kind);
    put_u64(buf, t.est);
    put_u32(buf, t.payload.len() as u32);
    for &w in &t.payload {
        put_u64(buf, w);
    }
}

fn get_task(c: &mut Cursor<'_>) -> io::Result<WireTask> {
    let id = c.u64()?;
    let home = c.u32()?;
    let locality = c.u8()?;
    let flags = c.u8()?;
    let kind = c.u16()?;
    let est = c.u64()?;
    let n = c.u32()? as usize;
    // Bound by the remaining payload so a corrupt count can't OOM.
    if n > c.buf.len() - c.pos {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "task payload count exceeds frame",
        ));
    }
    let mut payload = Vec::with_capacity(n);
    for _ in 0..n {
        payload.push(c.u64()?);
    }
    Ok(WireTask {
        id,
        home,
        locality,
        flags,
        kind,
        est,
        payload,
    })
}

fn put_tasks(buf: &mut Vec<u8>, tasks: &[WireTask]) {
    put_u32(buf, tasks.len() as u32);
    for t in tasks {
        put_task(buf, t);
    }
}

fn get_tasks(c: &mut Cursor<'_>) -> io::Result<Vec<WireTask>> {
    let n = c.u32()? as usize;
    if n > c.buf.len() - c.pos {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "task count exceeds frame",
        ));
    }
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        tasks.push(get_task(c)?);
    }
    Ok(tasks)
}

impl Frame {
    /// The sender's HLC stamp carried by this frame.
    pub fn hlc(&self) -> u64 {
        match *self {
            Frame::Hello { hlc, .. }
            | Frame::StealProbe { hlc, .. }
            | Frame::StealReply { hlc, .. }
            | Frame::TaskMigrate { hlc, .. }
            | Frame::SpawnNote { hlc, .. }
            | Frame::FinishDec { hlc, .. }
            | Frame::TaskMoved { hlc, .. }
            | Frame::TaskQuery { hlc, .. }
            | Frame::TaskAnswer { hlc, .. }
            | Frame::Heartbeat { hlc, .. }
            | Frame::Shutdown { hlc, .. } => hlc,
        }
    }

    /// Serialize to a payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Frame::Hello {
                hlc,
                version,
                place,
                places,
                wpp,
                epoch,
            } => {
                buf.push(TAG_HELLO);
                put_u64(&mut buf, *hlc);
                put_u16(&mut buf, *version);
                put_u32(&mut buf, *place);
                put_u32(&mut buf, *places);
                put_u32(&mut buf, *wpp);
                put_u32(&mut buf, *epoch);
            }
            Frame::StealProbe {
                hlc,
                probe_id,
                thief_place,
                thief_worker,
                chunk,
            } => {
                buf.push(TAG_STEAL_PROBE);
                put_u64(&mut buf, *hlc);
                put_u64(&mut buf, *probe_id);
                put_u32(&mut buf, *thief_place);
                put_u32(&mut buf, *thief_worker);
                put_u32(&mut buf, *chunk);
            }
            Frame::StealReply {
                hlc,
                probe_id,
                tasks,
            } => {
                buf.push(TAG_STEAL_REPLY);
                put_u64(&mut buf, *hlc);
                put_u64(&mut buf, *probe_id);
                put_tasks(&mut buf, tasks);
            }
            Frame::TaskMigrate {
                hlc,
                from_place,
                tasks,
            } => {
                buf.push(TAG_TASK_MIGRATE);
                put_u64(&mut buf, *hlc);
                put_u32(&mut buf, *from_place);
                put_tasks(&mut buf, tasks);
            }
            Frame::SpawnNote { hlc, tasks } => {
                buf.push(TAG_SPAWN_NOTE);
                put_u64(&mut buf, *hlc);
                put_tasks(&mut buf, tasks);
            }
            Frame::FinishDec { hlc, task, result } => {
                buf.push(TAG_FINISH_DEC);
                put_u64(&mut buf, *hlc);
                put_u64(&mut buf, *task);
                put_u32(&mut buf, result.len() as u32);
                for &w in result {
                    put_u64(&mut buf, w);
                }
            }
            Frame::TaskMoved {
                hlc,
                task,
                to,
                to_epoch,
            } => {
                buf.push(TAG_TASK_MOVED);
                put_u64(&mut buf, *hlc);
                put_u64(&mut buf, *task);
                put_u32(&mut buf, *to);
                put_u32(&mut buf, *to_epoch);
            }
            Frame::TaskQuery {
                hlc,
                task,
                victim,
                victim_epoch,
            } => {
                buf.push(TAG_TASK_QUERY);
                put_u64(&mut buf, *hlc);
                put_u64(&mut buf, *task);
                put_u32(&mut buf, *victim);
                put_u32(&mut buf, *victim_epoch);
            }
            Frame::TaskAnswer { hlc, task, have } => {
                buf.push(TAG_TASK_ANSWER);
                put_u64(&mut buf, *hlc);
                put_u64(&mut buf, *task);
                buf.push(u8::from(*have));
            }
            Frame::Heartbeat {
                hlc,
                busy,
                shared_len,
            } => {
                buf.push(TAG_HEARTBEAT);
                put_u64(&mut buf, *hlc);
                put_u32(&mut buf, *busy);
                put_u32(&mut buf, *shared_len);
            }
            Frame::Shutdown { hlc, places_failed } => {
                buf.push(TAG_SHUTDOWN);
                put_u64(&mut buf, *hlc);
                put_u32(&mut buf, *places_failed);
            }
        }
        buf
    }

    /// Parse a payload produced by [`Frame::encode`].
    pub fn decode(payload: &[u8]) -> io::Result<Frame> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                hlc: c.u64()?,
                version: c.u16()?,
                place: c.u32()?,
                places: c.u32()?,
                wpp: c.u32()?,
                epoch: c.u32()?,
            },
            TAG_STEAL_PROBE => Frame::StealProbe {
                hlc: c.u64()?,
                probe_id: c.u64()?,
                thief_place: c.u32()?,
                thief_worker: c.u32()?,
                chunk: c.u32()?,
            },
            TAG_STEAL_REPLY => Frame::StealReply {
                hlc: c.u64()?,
                probe_id: c.u64()?,
                tasks: get_tasks(&mut c)?,
            },
            TAG_TASK_MIGRATE => Frame::TaskMigrate {
                hlc: c.u64()?,
                from_place: c.u32()?,
                tasks: get_tasks(&mut c)?,
            },
            TAG_SPAWN_NOTE => Frame::SpawnNote {
                hlc: c.u64()?,
                tasks: get_tasks(&mut c)?,
            },
            TAG_FINISH_DEC => {
                let hlc = c.u64()?;
                let task = c.u64()?;
                let n = c.u32()? as usize;
                if n > c.buf.len() - c.pos {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "result count exceeds frame",
                    ));
                }
                let mut result = Vec::with_capacity(n);
                for _ in 0..n {
                    result.push(c.u64()?);
                }
                Frame::FinishDec { hlc, task, result }
            }
            TAG_TASK_MOVED => Frame::TaskMoved {
                hlc: c.u64()?,
                task: c.u64()?,
                to: c.u32()?,
                to_epoch: c.u32()?,
            },
            TAG_TASK_QUERY => Frame::TaskQuery {
                hlc: c.u64()?,
                task: c.u64()?,
                victim: c.u32()?,
                victim_epoch: c.u32()?,
            },
            TAG_TASK_ANSWER => {
                let hlc = c.u64()?;
                let task = c.u64()?;
                let have = match c.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad bool byte {other}"),
                        ));
                    }
                };
                Frame::TaskAnswer { hlc, task, have }
            }
            TAG_HEARTBEAT => Frame::Heartbeat {
                hlc: c.u64()?,
                busy: c.u32()?,
                shared_len: c.u32()?,
            },
            TAG_SHUTDOWN => Frame::Shutdown {
                hlc: c.u64()?,
                places_failed: c.u32()?,
            },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame tag {other}"),
                ));
            }
        };
        c.done()?;
        Ok(frame)
    }

    /// Write this frame (length prefix + payload) to a stream.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let payload = self.encode();
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&payload)?;
        w.flush()
    }

    /// Read one frame from a stream. `Ok(None)` on clean EOF at a
    /// frame boundary (peer closed the connection).
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
        let mut len_buf = [0u8; 4];
        let mut filled = 0;
        while filled < 4 {
            let n = r.read(&mut len_buf[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside length prefix",
                ));
            }
            filled += n;
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap"),
            ));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        Frame::decode(&payload).map(Some)
    }

    /// Validate a received [`Frame::Hello`]: version must match.
    pub fn check_hello(&self) -> io::Result<()> {
        match self {
            Frame::Hello { version, .. } if *version == WIRE_VERSION => Ok(()),
            Frame::Hello { version, .. } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("wire version mismatch: peer {version}, ours {WIRE_VERSION}"),
            )),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "first frame was not Hello",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_task(id: u64) -> WireTask {
        WireTask {
            id,
            home: 2,
            locality: 1,
            flags: 0,
            kind: 7,
            est: 4096,
            payload: vec![id, id.wrapping_mul(31), u64::MAX],
        }
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                hlc: 10,
                version: WIRE_VERSION,
                place: 3,
                places: 4,
                wpp: 2,
                epoch: 1,
            },
            Frame::StealProbe {
                hlc: 11,
                probe_id: 99,
                thief_place: 1,
                thief_worker: 0,
                chunk: 8,
            },
            Frame::StealReply {
                hlc: 12,
                probe_id: 99,
                tasks: vec![sample_task(5), sample_task(6)],
            },
            Frame::StealReply {
                hlc: 13,
                probe_id: 100,
                tasks: vec![],
            },
            Frame::TaskMigrate {
                hlc: 14,
                from_place: 2,
                tasks: vec![sample_task(7)],
            },
            Frame::SpawnNote {
                hlc: 15,
                tasks: vec![sample_task(8), sample_task(9)],
            },
            Frame::FinishDec {
                hlc: 15,
                task: 7,
                result: vec![1, 2, 3],
            },
            Frame::TaskMoved {
                hlc: 16,
                task: 7,
                to: 1,
                to_epoch: 0,
            },
            Frame::TaskQuery {
                hlc: 16,
                task: 7,
                victim: 2,
                victim_epoch: 1,
            },
            Frame::TaskAnswer {
                hlc: 17,
                task: 7,
                have: true,
            },
            Frame::TaskAnswer {
                hlc: 17,
                task: 8,
                have: false,
            },
            Frame::Heartbeat {
                hlc: 17,
                busy: 2,
                shared_len: 40,
            },
            Frame::Shutdown {
                hlc: 18,
                places_failed: 0,
            },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for f in all_frames() {
            let enc = f.encode();
            let dec = Frame::decode(&enc).expect("decode");
            assert_eq!(dec, f);
        }
    }

    #[test]
    fn stream_roundtrip_preserves_order() {
        let frames = all_frames();
        let mut wire = Vec::new();
        for f in &frames {
            f.write_to(&mut wire).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            let got = Frame::read_from(&mut r).unwrap().expect("frame");
            assert_eq!(&got, f);
        }
        assert!(Frame::read_from(&mut r).unwrap().is_none(), "clean eof");
    }

    #[test]
    fn hlc_accessor_matches_encoded_stamp() {
        for f in all_frames() {
            assert!(f.hlc() >= 10);
            assert_eq!(Frame::decode(&f.encode()).unwrap().hlc(), f.hlc());
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let bad = Frame::Hello {
            hlc: 1,
            version: WIRE_VERSION + 1,
            place: 0,
            places: 2,
            wpp: 1,
            epoch: 0,
        };
        let err = bad.check_hello().unwrap_err();
        assert!(err.to_string().contains("version mismatch"), "{err}");
        // Non-Hello first frame is also rejected.
        let not_hello = Frame::Heartbeat {
            hlc: 1,
            busy: 0,
            shared_len: 0,
        };
        assert!(not_hello.check_hello().is_err());
    }

    #[test]
    fn truncated_and_trailing_bytes_are_errors() {
        let enc = Frame::StealProbe {
            hlc: 1,
            probe_id: 2,
            thief_place: 3,
            thief_worker: 0,
            chunk: 4,
        }
        .encode();
        assert!(Frame::decode(&enc[..enc.len() - 1]).is_err(), "truncated");
        let mut padded = enc.clone();
        padded.push(0);
        assert!(Frame::decode(&padded).is_err(), "trailing");
    }

    #[test]
    fn corrupt_task_count_is_rejected_without_allocating() {
        // StealReply claiming u32::MAX tasks in a tiny frame.
        let mut buf = Vec::new();
        buf.push(3); // TAG_STEAL_REPLY
        buf.extend_from_slice(&1u64.to_le_bytes()); // hlc
        buf.extend_from_slice(&9u64.to_le_bytes()); // probe_id
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // task count
        assert!(Frame::decode(&buf).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        let mut r = &wire[..];
        assert!(Frame::read_from(&mut r).is_err());
    }
}
