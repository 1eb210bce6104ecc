//! The DES event queue.
//!
//! [`CalendarQueue`] pops events in `(time, push order)` order: `seq`
//! is a monotone push counter, so ties on virtual time break in push
//! order and the event schedule is reproducible byte for byte
//! (property-tested against a reference heap in `tests/calendar.rs`).
//!
//! It is one `BinaryHeap` keyed by reversed `(time, seq)`; the newtype
//! owns the `seq` counter so no caller can break the tie-break rule.
//! The name is kept because the benchmark harness spells it.

use std::collections::BinaryHeap;

struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Priority queue popping `(time, push order)` minima.
pub struct CalendarQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Queued event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue `item` at `time`. Ties on `time` pop in push order.
    pub fn push(&mut self, time: u64, item: T) {
        self.seq += 1;
        self.heap.push(Entry {
            time,
            seq: self.seq,
            item,
        });
    }

    /// Pop the earliest event (`(time, push order)` minimum).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.push(30, "c");
        q.push(10, "a1");
        q.push(10, "a2");
        q.push(20, "b");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((10, "a1")));
        assert_eq!(q.pop(), Some((10, "a2")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_monotone() {
        let mut q = CalendarQueue::new();
        q.push(0, 0u64);
        let mut last = 0;
        let mut popped = 0;
        let mut n = 0u64;
        while let Some((t, x)) = q.pop() {
            assert!(t >= last, "pop went backwards");
            last = t;
            popped += 1;
            // Each event schedules a couple more, DES style.
            if n < 200 {
                n += 1;
                q.push(t + (x * 7919) % 513, n);
                if n < 100 {
                    n += 1;
                    q.push(t + 100_000 + (x % 7) * 1_000_000, n);
                }
            }
        }
        assert_eq!(popped, n + 1);
    }

    #[test]
    fn far_future_events_survive_in_overflow() {
        let mut q = CalendarQueue::new();
        q.push(5, "near");
        q.push(10_000_000_000, "far"); // fault-kill style horizon
        q.push(6, "near2");
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((6, "near2")));
        assert_eq!(q.pop(), Some((10_000_000_000, "far")));
        assert_eq!(q.pop(), None);
    }
}
