//! Property tests: [`CalendarQueue`] pops in exactly the `(time, push
//! order)` sequence of a single binary heap — including tie-breaks —
//! over seeded random event streams, so the engine's event schedule
//! cannot change under it.

use distws_core::rng::SplitMix64;
use distws_sim::calendar::CalendarQueue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a max-heap of `Reverse((time, seq))` with the same
/// pre-increment seq assignment, written independently of the queue.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    seq: u64,
}

impl RefQueue {
    fn push(&mut self, time: u64, item: u64) {
        self.seq += 1;
        self.heap.push(Reverse((time, self.seq, item)));
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((t, _, x))| (t, x))
    }
}

/// Drive both queues through an identical randomized push/pop script
/// and assert every pop matches. `monotone` restricts pushes to the
/// DES invariant (never below the last popped time); the free-form
/// variant also pushes below it.
fn equivalence_run(seed: u64, ops: usize, monotone: bool) {
    let mut rng = SplitMix64::new(seed);
    let mut cal = CalendarQueue::new();
    let mut reference = RefQueue::default();
    let mut last_pop = 0u64;
    let mut item = 0u64;
    for _ in 0..ops {
        // Bias towards pushes so the queues carry real depth, with
        // occasional drain bursts that pop long runs in a row.
        match rng.below(10) {
            0..=5 => {
                let spread = match rng.below(3) {
                    0 => 1_000,          // dense ties
                    1 => 1_000_000,      // typical event horizon
                    _ => 50_000_000_000, // far-future (fault-kill horizon)
                };
                let base = if monotone { last_pop } else { 0 };
                let t = base + rng.below(spread);
                item += 1;
                cal.push(t, item);
                reference.push(t, item);
            }
            6..=8 => {
                let got = cal.pop();
                let want = reference.pop();
                assert_eq!(got, want, "pop mismatch (seed {seed})");
                if let Some((t, _)) = got {
                    last_pop = t;
                }
            }
            _ => {
                // Drain burst: pop a chunk, checking order throughout.
                for _ in 0..rng.below(64) {
                    let got = cal.pop();
                    let want = reference.pop();
                    assert_eq!(got, want, "drain mismatch (seed {seed})");
                    if let Some((t, _)) = got {
                        last_pop = t;
                    }
                }
            }
        }
        assert_eq!(cal.len(), reference.heap.len());
    }
    // Final drain: every queued event must come out, in order.
    loop {
        let got = cal.pop();
        let want = reference.pop();
        assert_eq!(got, want, "final drain mismatch (seed {seed})");
        if got.is_none() {
            break;
        }
    }
    assert!(cal.is_empty());
}

#[test]
fn matches_binary_heap_on_des_style_streams() {
    for seed in 0..32 {
        equivalence_run(0xDE5_0000 + seed, 4_000, true);
    }
}

#[test]
fn matches_binary_heap_on_free_form_streams() {
    for seed in 0..32 {
        equivalence_run(0xF7EE_0000 + seed, 4_000, false);
    }
}

/// Directed regression: an event pushed far ahead of a long near-term
/// stream must still pop in its place once the stream reaches it: never
/// 10_001 before 10_000.
#[test]
fn window_advance_folds_back_overflow_parked_events() {
    let mut cal = CalendarQueue::new();
    // Two events 2 ns apart set a fine time scale before the stream.
    cal.push(0, 100);
    cal.push(2, 101);
    assert_eq!(cal.pop(), Some((0, 100)));
    assert_eq!(cal.pop(), Some((2, 101)));
    // Far ahead of every event queued so far.
    cal.push(10_000, 500);
    // Near-term stream up to 9_500, each event popped as it is pushed.
    let mut t = 500;
    while t <= 9_500 {
        cal.push(t, t);
        assert_eq!(cal.pop(), Some((t, t)), "near-term stream at {t}");
        t += 500;
    }
    assert_eq!(cal.len(), 1, "parked event still queued");
    // Straddle the parked time: 10_000 must pop between its
    // neighbours pushed last.
    cal.push(9_999, 600);
    cal.push(10_001, 601);
    assert_eq!(cal.pop(), Some((9_999, 600)));
    assert_eq!(
        cal.pop(),
        Some((10_000, 500)),
        "parked event must not be skipped"
    );
    assert_eq!(cal.pop(), Some((10_001, 601)));
    assert_eq!(cal.pop(), None);
    assert!(cal.is_empty());
}

#[test]
fn tie_storms_pop_in_push_order() {
    // Many events on few distinct times: the tie-break must
    // reproduce push order exactly.
    let mut rng = SplitMix64::new(7);
    let mut cal = CalendarQueue::new();
    let mut reference = RefQueue::default();
    for i in 0..10_000u64 {
        let t = rng.below(8) * 100;
        cal.push(t, i);
        reference.push(t, i);
    }
    loop {
        let got = cal.pop();
        assert_eq!(got, reference.pop());
        if got.is_none() {
            break;
        }
    }
}
