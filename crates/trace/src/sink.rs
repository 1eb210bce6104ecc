//! Trace sinks: where events go.
//!
//! Instrumentation sites are written as
//!
//! ```ignore
//! if sink.enabled() {
//!     sink.record(TraceEvent { .. });
//! }
//! ```
//!
//! so a [`NullSink`] costs one predictable branch per site and no
//! event construction — the pay-for-what-you-use contract the
//! acceptance criteria check (< 1 % makespan delta with tracing off).

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receiver of trace events.
pub trait TraceSink {
    /// Whether callers should construct and submit events at all.
    /// Sites must check this before building a [`TraceEvent`].
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Events arrive in nondecreasing `t_ns` order
    /// per worker, but only the simulator guarantees a global order.
    fn record(&mut self, ev: TraceEvent);

    /// Flush any buffered output (streaming sinks).
    fn flush(&mut self) {}
}

/// Discards everything; `enabled()` is `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: TraceEvent) {}
}

/// Bounded in-memory ring buffer: keeps the **last** `capacity` events.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring keeping at most `capacity` events (the most recent win).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the sink, yielding the retained events oldest-first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Streams one deterministic JSON object per event to a writer.
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
    /// The line being encoded, reused for every event so recording
    /// allocates nothing once it has grown to the longest line.
    line: Vec<u8>,
}

impl<W: Write> JsonlSink<W> {
    /// Stream events to `out`, one JSONL line each.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            written: 0,
            line: Vec::with_capacity(128),
        }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and return the writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: TraceEvent) {
        // Panicking on a broken pipe mid-simulation would poison a
        // deterministic run; drop the line instead and keep counting.
        self.line.clear();
        ev.write_jsonl(&mut self.line);
        self.line.push(b'\n');
        if self.out.write_all(&self.line).is_ok() {
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// [`JsonlSink`] behind a [`std::io::BufWriter`]: the write-heavy
/// choice for file-backed traces, turning one syscall per event into
/// one per ~64 KiB. Byte-identical output to the unbuffered sink
/// (tested below) — only the write batching differs. Call
/// [`TraceSink::flush`] (or drop via [`Self::into_inner`]) before
/// reading the file; crash-durability call sites (the cluster place
/// log) should keep using the unbuffered sink.
pub struct BufferedJsonlSink<W: Write> {
    inner: JsonlSink<std::io::BufWriter<W>>,
}

impl<W: Write> BufferedJsonlSink<W> {
    /// Buffer writes to `out` with the default `BufWriter` capacity.
    pub fn new(out: W) -> Self {
        BufferedJsonlSink {
            inner: JsonlSink::new(std::io::BufWriter::new(out)),
        }
    }

    /// Buffer writes to `out` with an explicit buffer capacity.
    pub fn with_capacity(capacity: usize, out: W) -> Self {
        BufferedJsonlSink {
            inner: JsonlSink::new(std::io::BufWriter::with_capacity(capacity, out)),
        }
    }

    /// Lines written so far (buffered lines count as written).
    pub fn written(&self) -> u64 {
        self.inner.written()
    }

    /// Flush everything and return the underlying writer.
    pub fn into_inner(self) -> std::io::Result<W> {
        self.inner
            .into_inner()
            .into_inner()
            .map_err(std::io::IntoInnerError::into_error)
    }
}

impl<W: Write> TraceSink for BufferedJsonlSink<W> {
    fn record(&mut self, ev: TraceEvent) {
        self.inner.record(ev);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Clonable, thread-safe handle around any sink — the multithreaded
/// runtime's workers each hold one and serialize through the mutex.
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<dyn TraceSink + Send>>,
    enabled: bool,
}

impl SharedSink {
    /// Wrap `sink` for concurrent use. `enabled` is captured once so
    /// the hot-path check stays lock-free.
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Self {
        let enabled = sink.enabled();
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
            enabled,
        }
    }

    /// A disabled shared sink.
    pub fn null() -> Self {
        SharedSink::new(NullSink)
    }

    /// Run `f` against the wrapped sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn TraceSink) -> R) -> R {
        f(&mut *self.inner.lock().unwrap())
    }
}

impl TraceSink for SharedSink {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, ev: TraceEvent) {
        self.inner.lock().unwrap().record(ev);
    }

    fn flush(&mut self) {
        self.inner.lock().unwrap().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use distws_core::{GlobalWorkerId, PlaceId};

    fn ev(t: u64) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            worker: GlobalWorkerId(0),
            place: PlaceId(0),
            kind: TraceEventKind::Dormant,
        }
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = RingSink::new(3);
        for t in 0..5 {
            r.record(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.into_events().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_streams_lines() {
        let mut s = JsonlSink::new(Vec::new());
        s.record(ev(1));
        s.record(ev(2));
        assert_eq!(s.written(), 2);
        let out = String::from_utf8(s.into_inner()).unwrap();
        assert_eq!(out.lines().count(), 2);
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn buffered_jsonl_is_byte_identical_to_unbuffered() {
        // Same event stream through both sinks: identical bytes out.
        let mut plain = JsonlSink::new(Vec::new());
        let mut buffered = BufferedJsonlSink::with_capacity(64, Vec::new());
        let mut rng = distws_core::rng::SplitMix64::new(3);
        for _ in 0..1_000 {
            let e = ev(rng.below(1 << 40));
            plain.record(e);
            buffered.record(e);
        }
        assert_eq!(plain.written(), buffered.written());
        assert_eq!(plain.into_inner(), buffered.into_inner().unwrap());
    }

    #[test]
    fn buffered_jsonl_flush_makes_lines_visible() {
        // A tiny buffer forces mid-stream flushes; an explicit flush
        // then drains the remainder without consuming the sink.
        let mut s = BufferedJsonlSink::with_capacity(16, Vec::new());
        s.record(ev(1));
        s.record(ev(2));
        s.flush();
        assert_eq!(s.written(), 2);
        let out = String::from_utf8(s.into_inner().unwrap()).unwrap();
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn shared_sink_serializes_access() {
        let shared = SharedSink::new(JsonlSink::new(Vec::new()));
        assert!(shared.enabled());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(ev(1));
        b.record(ev(2));
        shared.with(|s| s.flush());
    }

    #[test]
    fn shared_null_is_disabled() {
        assert!(!SharedSink::null().enabled());
    }
}
