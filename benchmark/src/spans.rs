//! In-memory spans of the traced run.
//!
//! A span is `{name, start_ns, end_ns, parent, cell}`. One is recorded
//! per repetition, per engine phase within it and per replay driver.
//! Seams that are crossed millions of times (policy calls, sink
//! records, task bodies) are *folded*: one span under their parent
//! carrying call count, total time and a log₂ latency histogram instead
//! of one span per call. A span's self time is its own time minus the
//! time its children cover. Spans are written out once, at exit.

use distws_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-call statistics of a folded seam. Atomics (relaxed: these are
/// statistics that publish no other data) because the seam sits behind
/// `Box<dyn Policy>`, which must be `Send`, and is read back through a
/// shared handle after the simulator drops its side.
#[derive(Debug)]
pub struct Folded {
    calls: AtomicU64,
    total_ns: AtomicU64,
    /// Bucket `i` counts calls that took `[2^i, 2^(i+1))` ns (bucket 0
    /// also holds 0 ns).
    hist: [AtomicU64; 40],
}

impl Default for Folded {
    fn default() -> Self {
        Folded {
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Folded {
    /// Record one call that started at `start`.
    #[inline]
    pub fn record_since(&self, start: Instant) {
        self.record_ns(start.elapsed().as_nanos() as u64);
    }

    /// Record one call of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(self.hist.len() - 1);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Add everything `other` recorded to `self`.
    pub fn absorb(&self, other: &Folded) {
        self.calls.fetch_add(other.calls(), Ordering::Relaxed);
        self.total_ns.fetch_add(other.total_ns(), Ordering::Relaxed);
        for (mine, theirs) in self.hist.iter().zip(&other.hist) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Sum of the recorded call times.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call, 0 with no calls.
    pub fn ns_per_call(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.total_ns() as f64 / n as f64,
        }
    }

    fn hist(&self) -> Vec<u64> {
        let mut h: Vec<u64> = self
            .hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while h.last() == Some(&0) {
            h.pop();
        }
        h
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.steal_sequence`.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Cell the span belongs to (`-` for whole-run spans).
    pub cell: String,
    /// Folded seams only: `(calls, total_ns, log₂ histogram)`.
    pub folded: Option<(u64, u64, Vec<u64>)>,
}

impl Span {
    /// Host time the span covers: the summed call time of a folded
    /// seam, else end − start.
    pub fn covered_ns(&self) -> u64 {
        match &self.folded {
            Some((_, total, _)) => *total,
            None => self.end_ns - self.start_ns,
        }
    }

    fn to_json(&self) -> Value {
        let mut o = Value::object();
        o.set("name", self.name.as_str());
        o.set("start_ns", self.start_ns);
        o.set("end_ns", self.end_ns);
        o.set("parent", self.parent.map(|p| p as u64));
        o.set("cell", self.cell.as_str());
        if let Some((calls, total_ns, hist)) = &self.folded {
            o.set("calls", *calls);
            o.set("total_ns", *total_ns);
            o.set("log2_hist", hist.clone());
        }
        o
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, cell: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent,
            cell: cell.into(),
            folded: None,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a top-level span.
    pub fn within<T>(&mut self, name: &str, cell: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, None, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Record a folded seam under `parent`, spanning the parent's
    /// interval.
    pub fn fold(&mut self, name: &str, parent: usize, stats: &Folded) -> usize {
        self.fold_raw(name, parent, stats.calls(), stats.total_ns(), stats.hist())
    }

    /// [`Self::fold`] from plain numbers (engine phase totals).
    pub fn fold_raw(
        &mut self,
        name: &str,
        parent: usize,
        calls: u64,
        total_ns: u64,
        hist: Vec<u64>,
    ) -> usize {
        let p = &self.spans[parent];
        let span = Span {
            name: name.into(),
            start_ns: p.start_ns,
            end_ns: p.end_ns,
            parent: Some(parent),
            cell: p.cell.clone(),
            folded: Some((calls, total_ns, hist)),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of span `id`: its covered time minus its children's
    /// (saturating: per-call timer overhead can push folded children a
    /// little past their parent).
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::covered_ns)
            .sum();
        self.spans[id].covered_ns().saturating_sub(children)
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.to_json().render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rec: &mut Recorder, name: &str, parent: Option<usize>, start: u64, end: u64) -> usize {
        rec.spans.push(Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            cell: "c".into(),
            folded: None,
        });
        rec.spans.len() - 1
    }

    #[test]
    fn self_time_is_own_time_minus_children() {
        let mut rec = Recorder::default();
        let rep = span(&mut rec, "rep", None, 0, 1_000);
        let dispatch = span(&mut rec, "dispatch", Some(rep), 0, 700);
        let body = span(&mut rec, "body", Some(rep), 700, 900);
        let folded = Folded::default();
        folded.record_ns(100);
        folded.record_ns(150);
        let steal = rec.fold("steal", dispatch, &folded);
        // Grandchildren do not count against the grandparent twice.
        assert_eq!(rec.self_ns(rep), 1_000 - 700 - 200);
        assert_eq!(rec.self_ns(dispatch), 700 - 250);
        assert_eq!(rec.self_ns(body), 200);
        assert_eq!(rec.self_ns(steal), 250);
        assert_eq!(rec.spans[steal].start_ns, 0);
        assert_eq!(rec.spans[steal].end_ns, 700);
    }

    #[test]
    fn self_time_saturates_when_children_overshoot() {
        let mut rec = Recorder::default();
        let parent = span(&mut rec, "p", None, 0, 100);
        rec.fold_raw("c", parent, 3, 130, vec![]);
        assert_eq!(rec.self_ns(parent), 0);
    }

    #[test]
    fn folded_histogram_buckets_by_log2() {
        let f = Folded::default();
        for ns in [0, 1, 2, 3, 4, 1_000] {
            f.record_ns(ns);
        }
        assert_eq!(f.calls(), 6);
        assert_eq!(f.total_ns(), 1_010);
        let h = f.hist();
        assert_eq!(h[0], 2); // 0 and 1
        assert_eq!(h[1], 2); // 2 and 3
        assert_eq!(h[2], 1); // 4
        assert_eq!(h[9], 1); // 1000 in [512, 1024)
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_the_contract_keys() {
        let mut rec = Recorder::default();
        let rep = rec.open("rep", None, "fanout");
        rec.close(rep);
        rec.fold_raw("phase", rep, 2, 10, vec![0, 2]);
        let text = rec.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Value::parse(line).unwrap();
            for key in ["name", "start_ns", "end_ns", "parent", "cell"] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
