//! The typed event vocabulary.
//!
//! Every event carries the virtual time it happened at, the worker
//! that caused it and the place that worker belongs to; the payload
//! describes what happened. The wire encoding (JSONL) is produced by
//! [`TraceEvent::write_jsonl`], byte for byte the rendering of
//! [`TraceEvent::to_json`], and is deterministic: object keys are
//! emitted in declaration order and floats never appear.

use distws_core::{GlobalWorkerId, PlaceId, TaskId};
use distws_json::Value;

/// Which tier of Algorithm 1 a steal touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StealTier {
    /// A co-located worker's private (Chase–Lev) deque.
    LocalPrivate,
    /// The local place's shared FIFO deque.
    LocalShared,
    /// A remote place's shared FIFO deque (distributed steal).
    Remote,
}

impl StealTier {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            StealTier::LocalPrivate => "local_private",
            StealTier::LocalShared => "local_shared",
            StealTier::Remote => "remote",
        }
    }
}

/// Kind of a simulated network message (mirrors `distws_netsim::MsgKind`
/// without a crate dependency, so the trace vocabulary stays
/// engine-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A thief probing a remote shared deque.
    StealRequest,
    /// The victim's reply (may carry zero tasks).
    StealReply,
    /// Migration payload: closure + encapsulated footprint.
    TaskMigrate,
    /// Request for data homed at a remote place.
    DataRequest,
    /// Reply carrying remote data.
    DataReply,
    /// Termination detection / place-status control traffic.
    Control,
}

impl MessageKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            MessageKind::StealRequest => "steal_request",
            MessageKind::StealReply => "steal_reply",
            MessageKind::TaskMigrate => "task_migrate",
            MessageKind::DataRequest => "data_request",
            MessageKind::DataReply => "data_reply",
            MessageKind::Control => "control",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A task was created (inside `finish`/`async` or as a root).
    Spawn {
        /// The new task.
        task: TaskId,
    },
    /// A worker began executing a task body.
    TaskStart {
        /// The task.
        task: TaskId,
    },
    /// A worker finished executing a task body.
    TaskEnd {
        /// The task.
        task: TaskId,
    },
    /// A worker probed a deque tier for work (successful or not).
    StealAttempt {
        /// The tier probed.
        tier: StealTier,
    },
    /// A worker probed the network / its place inbox for arriving tasks
    /// (Algorithm 1 line 11, and the line 19 re-probe after a failed
    /// distributed steal). Emitted whether or not anything arrived, so
    /// the conformance checker can justify every remote steal attempt.
    NetProbe,
    /// A steal returned at least one task.
    StealSuccess {
        /// The tier stolen from.
        tier: StealTier,
        /// The (first) stolen task.
        task: TaskId,
        /// The victim place.
        victim: PlaceId,
        /// Virtual nanoseconds between first probing for work and this
        /// success (steal latency).
        latency_ns: u64,
    },
    /// A locality-flexible task moved to another place.
    Migration {
        /// The migrated task.
        task: TaskId,
        /// Origin place.
        from: PlaceId,
        /// Destination place.
        to: PlaceId,
    },
    /// A task touched data homed at a remote place.
    RemoteRef {
        /// The task doing the access.
        task: TaskId,
        /// Where the data lives.
        home: PlaceId,
        /// Bytes moved.
        bytes: u64,
    },
    /// A worker ran out of work and went dormant.
    Dormant,
    /// A dormant worker was woken by new local work.
    Wakeup,
    /// A network message left this worker's place.
    Message {
        /// Kind of message.
        kind: MessageKind,
        /// Destination place.
        to: PlaceId,
        /// Payload size.
        bytes: u64,
        /// Whether fault injection lost the message in flight. Emitted
        /// on the wire only when `true`, so fault-free traces are
        /// byte-identical to traces produced before fault injection
        /// existed.
        dropped: bool,
    },
    /// A remote steal probe went unanswered (request or reply lost, or
    /// the victim place is dead) and the thief's timeout expired.
    StealTimeout {
        /// The probed victim place.
        victim: PlaceId,
        /// 1-based attempt number against this victim (attempt 1 is
        /// the original probe, ≥2 are backoff retries).
        attempt: u32,
    },
    /// The event's place suffered a fail-stop: its queued tasks are
    /// recovered elsewhere and its workers halt at the next task
    /// boundary.
    PlaceFail,
    /// A previously failed place rejoined the cluster (empty-handed).
    PlaceRestart,
    /// A task stranded by a place failure was re-enqueued elsewhere.
    TaskRecover {
        /// The recovered task.
        task: TaskId,
        /// The failed place the task was queued at.
        from: PlaceId,
        /// Where it was re-enqueued.
        to: PlaceId,
    },
}

impl TraceEventKind {
    /// Stable wire name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Spawn { .. } => "spawn",
            TraceEventKind::TaskStart { .. } => "task_start",
            TraceEventKind::TaskEnd { .. } => "task_end",
            TraceEventKind::StealAttempt { .. } => "steal_attempt",
            TraceEventKind::NetProbe => "net_probe",
            TraceEventKind::StealSuccess { .. } => "steal_success",
            TraceEventKind::Migration { .. } => "migration",
            TraceEventKind::RemoteRef { .. } => "remote_ref",
            TraceEventKind::Dormant => "dormant",
            TraceEventKind::Wakeup => "wakeup",
            TraceEventKind::Message { .. } => "message",
            TraceEventKind::StealTimeout { .. } => "steal_timeout",
            TraceEventKind::PlaceFail => "place_fail",
            TraceEventKind::PlaceRestart => "place_restart",
            TraceEventKind::TaskRecover { .. } => "task_recover",
        }
    }
}

/// One timestamped, attributed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time (simulator) or wall-clock offset (runtime), ns.
    pub t_ns: u64,
    /// The worker the event is attributed to.
    pub worker: GlobalWorkerId,
    /// The place that worker belongs to.
    pub place: PlaceId,
    /// Payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Deterministic JSON encoding: `{"t":..,"w":..,"p":..,"ev":"..",...}`.
    /// Payload fields are flattened into the object, keys in fixed order.
    pub fn to_json(&self) -> Value {
        let mut o = Value::object();
        o.set("t", self.t_ns);
        o.set("w", self.worker.0);
        o.set("p", self.place.0);
        o.set("ev", self.kind.name());
        match self.kind {
            TraceEventKind::Spawn { task }
            | TraceEventKind::TaskStart { task }
            | TraceEventKind::TaskEnd { task } => {
                o.set("task", task.0);
            }
            TraceEventKind::StealAttempt { tier } => {
                o.set("tier", tier.name());
            }
            TraceEventKind::StealSuccess {
                tier,
                task,
                victim,
                latency_ns,
            } => {
                o.set("tier", tier.name());
                o.set("task", task.0);
                o.set("victim", victim.0);
                o.set("latency_ns", latency_ns);
            }
            TraceEventKind::Migration { task, from, to } => {
                o.set("task", task.0);
                o.set("from", from.0);
                o.set("to", to.0);
            }
            TraceEventKind::RemoteRef { task, home, bytes } => {
                o.set("task", task.0);
                o.set("home", home.0);
                o.set("bytes", bytes);
            }
            TraceEventKind::NetProbe
            | TraceEventKind::Dormant
            | TraceEventKind::Wakeup
            | TraceEventKind::PlaceFail
            | TraceEventKind::PlaceRestart => {}
            TraceEventKind::Message {
                kind,
                to,
                bytes,
                dropped,
            } => {
                o.set("kind", kind.name());
                o.set("to", to.0);
                o.set("bytes", bytes);
                if dropped {
                    o.set("dropped", true);
                }
            }
            TraceEventKind::StealTimeout { victim, attempt } => {
                o.set("victim", victim.0);
                o.set("attempt", attempt as u64);
            }
            TraceEventKind::TaskRecover { task, from, to } => {
                o.set("task", task.0);
                o.set("from", from.0);
                o.set("to", to.0);
            }
        }
        o
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut line = Vec::with_capacity(128);
        self.write_jsonl(&mut line);
        String::from_utf8(line).expect("JSONL lines are ASCII")
    }

    /// Append this event's JSONL line (no trailing newline) to `out`.
    /// The bytes are exactly `to_json().render()`'s, written without
    /// building a [`Value`]: fixed key literals, the static wire names
    /// (which need no escaping) and a decimal integer writer.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        put_uint(out, b"{\"t\":", self.t_ns);
        put_uint(out, b",\"w\":", self.worker.0 as u64);
        put_uint(out, b",\"p\":", self.place.0 as u64);
        put_str(out, b",\"ev\":", self.kind.name());
        match self.kind {
            TraceEventKind::Spawn { task }
            | TraceEventKind::TaskStart { task }
            | TraceEventKind::TaskEnd { task } => {
                put_uint(out, b",\"task\":", task.0);
            }
            TraceEventKind::StealAttempt { tier } => {
                put_str(out, b",\"tier\":", tier.name());
            }
            TraceEventKind::StealSuccess {
                tier,
                task,
                victim,
                latency_ns,
            } => {
                put_str(out, b",\"tier\":", tier.name());
                put_uint(out, b",\"task\":", task.0);
                put_uint(out, b",\"victim\":", victim.0 as u64);
                put_uint(out, b",\"latency_ns\":", latency_ns);
            }
            TraceEventKind::Migration { task, from, to }
            | TraceEventKind::TaskRecover { task, from, to } => {
                put_uint(out, b",\"task\":", task.0);
                put_uint(out, b",\"from\":", from.0 as u64);
                put_uint(out, b",\"to\":", to.0 as u64);
            }
            TraceEventKind::RemoteRef { task, home, bytes } => {
                put_uint(out, b",\"task\":", task.0);
                put_uint(out, b",\"home\":", home.0 as u64);
                put_uint(out, b",\"bytes\":", bytes);
            }
            TraceEventKind::NetProbe
            | TraceEventKind::Dormant
            | TraceEventKind::Wakeup
            | TraceEventKind::PlaceFail
            | TraceEventKind::PlaceRestart => {}
            TraceEventKind::Message {
                kind,
                to,
                bytes,
                dropped,
            } => {
                put_str(out, b",\"kind\":", kind.name());
                put_uint(out, b",\"to\":", to.0 as u64);
                put_uint(out, b",\"bytes\":", bytes);
                if dropped {
                    out.extend_from_slice(b",\"dropped\":true");
                }
            }
            TraceEventKind::StealTimeout { victim, attempt } => {
                put_uint(out, b",\"victim\":", victim.0 as u64);
                put_uint(out, b",\"attempt\":", attempt as u64);
            }
        }
        out.push(b'}');
    }
}

/// Append `key` (its separator, quotes and colon included) and `v` in
/// decimal.
fn put_uint(out: &mut Vec<u8>, key: &[u8], mut v: u64) {
    out.extend_from_slice(key);
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append `key` and the quoted wire name `v`. Wire names are plain
/// lowercase ASCII, so no character needs escaping.
fn put_str(out: &mut Vec<u8>, key: &[u8], v: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(v.as_bytes());
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_flat_and_stable() {
        let ev = TraceEvent {
            t_ns: 1234,
            worker: GlobalWorkerId(7),
            place: PlaceId(3),
            kind: TraceEventKind::StealSuccess {
                tier: StealTier::Remote,
                task: TaskId(42),
                victim: PlaceId(1),
                latency_ns: 900,
            },
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"t":1234,"w":7,"p":3,"ev":"steal_success","tier":"remote","task":42,"victim":1,"latency_ns":900}"#
        );
    }

    #[test]
    fn bare_events_have_no_payload_keys() {
        let ev = TraceEvent {
            t_ns: 5,
            worker: GlobalWorkerId(0),
            place: PlaceId(0),
            kind: TraceEventKind::Dormant,
        };
        assert_eq!(ev.to_jsonl(), r#"{"t":5,"w":0,"p":0,"ev":"dormant"}"#);
        let probe = TraceEvent {
            kind: TraceEventKind::NetProbe,
            ..ev
        };
        assert_eq!(probe.to_jsonl(), r#"{"t":5,"w":0,"p":0,"ev":"net_probe"}"#);
    }

    #[test]
    fn delivered_messages_omit_the_dropped_key() {
        let ev = TraceEvent {
            t_ns: 10,
            worker: GlobalWorkerId(1),
            place: PlaceId(0),
            kind: TraceEventKind::Message {
                kind: MessageKind::StealRequest,
                to: PlaceId(2),
                bytes: 64,
                dropped: false,
            },
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"t":10,"w":1,"p":0,"ev":"message","kind":"steal_request","to":2,"bytes":64}"#
        );
        let dropped = TraceEvent {
            kind: TraceEventKind::Message {
                kind: MessageKind::StealRequest,
                to: PlaceId(2),
                bytes: 64,
                dropped: true,
            },
            ..ev
        };
        assert_eq!(
            dropped.to_jsonl(),
            r#"{"t":10,"w":1,"p":0,"ev":"message","kind":"steal_request","to":2,"bytes":64,"dropped":true}"#
        );
    }

    #[test]
    fn fault_events_encode_stably() {
        let base = TraceEvent {
            t_ns: 99,
            worker: GlobalWorkerId(4),
            place: PlaceId(2),
            kind: TraceEventKind::PlaceFail,
        };
        assert_eq!(base.to_jsonl(), r#"{"t":99,"w":4,"p":2,"ev":"place_fail"}"#);
        let timeout = TraceEvent {
            kind: TraceEventKind::StealTimeout {
                victim: PlaceId(3),
                attempt: 2,
            },
            ..base
        };
        assert_eq!(
            timeout.to_jsonl(),
            r#"{"t":99,"w":4,"p":2,"ev":"steal_timeout","victim":3,"attempt":2}"#
        );
        let recover = TraceEvent {
            kind: TraceEventKind::TaskRecover {
                task: TaskId(8),
                from: PlaceId(2),
                to: PlaceId(0),
            },
            ..base
        };
        assert_eq!(
            recover.to_jsonl(),
            r#"{"t":99,"w":4,"p":2,"ev":"task_recover","task":8,"from":2,"to":0}"#
        );
    }

    /// Every variant, with every integer field set from `v` (u32 fields
    /// truncate, so `u64::MAX` also yields `u32::MAX` there).
    fn every_kind(v: u64, dropped: bool) -> Vec<TraceEventKind> {
        let task = TaskId(v);
        let place = PlaceId(v as u32);
        let mut kinds = vec![
            TraceEventKind::Spawn { task },
            TraceEventKind::TaskStart { task },
            TraceEventKind::TaskEnd { task },
            TraceEventKind::NetProbe,
            TraceEventKind::Migration {
                task,
                from: place,
                to: place,
            },
            TraceEventKind::RemoteRef {
                task,
                home: place,
                bytes: v,
            },
            TraceEventKind::Dormant,
            TraceEventKind::Wakeup,
            TraceEventKind::StealTimeout {
                victim: place,
                attempt: v as u32,
            },
            TraceEventKind::PlaceFail,
            TraceEventKind::PlaceRestart,
            TraceEventKind::TaskRecover {
                task,
                from: place,
                to: place,
            },
        ];
        for tier in [
            StealTier::LocalPrivate,
            StealTier::LocalShared,
            StealTier::Remote,
        ] {
            kinds.push(TraceEventKind::StealAttempt { tier });
            kinds.push(TraceEventKind::StealSuccess {
                tier,
                task,
                victim: place,
                latency_ns: v,
            });
        }
        for kind in [
            MessageKind::StealRequest,
            MessageKind::StealReply,
            MessageKind::TaskMigrate,
            MessageKind::DataRequest,
            MessageKind::DataReply,
            MessageKind::Control,
        ] {
            kinds.push(TraceEventKind::Message {
                kind,
                to: place,
                bytes: v,
                dropped,
            });
        }
        kinds
    }

    #[test]
    fn byte_encoder_matches_the_value_rendering() {
        let edges = [0, 9, 10, u32::MAX as u64, u64::MAX];
        let mut names = std::collections::BTreeSet::new();
        let mut line = Vec::new();
        for &v in &edges {
            for dropped in [false, true] {
                for kind in every_kind(v, dropped) {
                    names.insert(kind.name());
                    let ev = TraceEvent {
                        t_ns: v,
                        worker: GlobalWorkerId(v as u32),
                        place: PlaceId(v as u32),
                        kind,
                    };
                    line.clear();
                    ev.write_jsonl(&mut line);
                    let want = ev.to_json().render();
                    assert_eq!(std::str::from_utf8(&line).unwrap(), want);
                    assert_eq!(ev.to_jsonl(), want);
                }
            }
        }
        assert_eq!(names.len(), 15, "every TraceEventKind variant: {names:?}");
    }

    #[test]
    fn write_jsonl_appends() {
        let a = TraceEvent {
            t_ns: 1,
            worker: GlobalWorkerId(0),
            place: PlaceId(0),
            kind: TraceEventKind::Wakeup,
        };
        let b = TraceEvent {
            kind: TraceEventKind::Spawn { task: TaskId(10) },
            ..a
        };
        let mut out = Vec::new();
        a.write_jsonl(&mut out);
        b.write_jsonl(&mut out);
        assert_eq!(
            out,
            format!("{}{}", a.to_jsonl(), b.to_jsonl()).into_bytes()
        );
    }

    #[test]
    fn wire_names_are_unique() {
        let names = [
            StealTier::LocalPrivate.name(),
            StealTier::LocalShared.name(),
            StealTier::Remote.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
