//! The per-place **shared deque** for locality-flexible tasks.
//!
//! Paper §V.A: "The shared deque … is manipulated in a first-in-first-
//! out (FIFO) manner to ensure that any steal operation, whether local
//! or remote, receives the oldest task in the deque." Remote thieves
//! additionally steal in *chunks of two* (§V.B.3) so the second task
//! feeds the thief's co-located peers and suppresses their own remote
//! steals.
//!
//! Locking is confined to this structure by design: workers touch it
//! only after their private deque, the network probe, and co-located
//! private steals all came up empty (Algorithm 1 lines 9–21).

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;

/// Thread-safe FIFO deque shared by all workers of a place and exposed
/// to remote thieves.
pub struct SharedFifo<T> {
    queue: Mutex<VecDeque<T>>,
    /// Cached length so idleness probes don't take the lock.
    len: AtomicUsize,
    /// Total push operations (metrics).
    pushes: AtomicU64,
    /// Total successful take/steal operations, in tasks (metrics).
    takes: AtomicU64,
}

impl<T> Default for SharedFifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedFifo<T> {
    /// New empty shared deque.
    pub fn new() -> Self {
        SharedFifo {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            pushes: AtomicU64::new(0),
            takes: AtomicU64::new(0),
        }
    }

    /// Enqueue a task at the tail.
    pub fn push(&self, value: T) {
        let mut q = self.queue.lock().unwrap();
        q.push_back(value);
        self.len.store(q.len(), Ordering::Release);
        self.pushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Dequeue the oldest task (local workers and remote thieves use
    /// the same end — strict FIFO).
    pub fn take(&self) -> Option<T> {
        let mut q = self.queue.lock().unwrap();
        let v = q.pop_front();
        self.len.store(q.len(), Ordering::Release);
        if v.is_some() {
            self.takes.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Dequeue up to `chunk` oldest tasks at once (distributed steal,
    /// chunk = 2 in the paper). Returns an empty vector when the deque
    /// is empty.
    pub fn take_chunk(&self, chunk: usize) -> Vec<T> {
        let mut q = self.queue.lock().unwrap();
        let n = chunk.min(q.len());
        let out: Vec<T> = q.drain(..n).collect();
        self.len.store(q.len(), Ordering::Release);
        self.takes.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Lock-free length snapshot (may lag the true length by one op).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the deque looks empty (lock-free probe).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime push count.
    pub fn pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Lifetime successful take count (in tasks).
    pub fn takes(&self) -> u64 {
        self.takes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Body};
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = SharedFifo::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.take(), Some(1));
        assert_eq!(q.take(), Some(2));
        assert_eq!(q.take(), Some(3));
        assert_eq!(q.take(), None);
    }

    #[test]
    fn chunked_steal_takes_oldest_first() {
        let q = SharedFifo::new();
        for i in 0..5 {
            q.push(i);
        }
        assert_eq!(q.take_chunk(2), vec![0, 1]);
        assert_eq!(q.take_chunk(10), vec![2, 3, 4]);
        assert!(q.take_chunk(2).is_empty());
    }

    #[test]
    fn length_probe_tracks_ops() {
        let q = SharedFifo::new();
        assert!(q.is_empty());
        q.push(7);
        q.push(8);
        assert_eq!(q.len(), 2);
        q.take();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pushes(), 2);
        assert_eq!(q.takes(), 1);
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        let q = Arc::new(SharedFifo::new());
        const PER: usize = 5_000;
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push(p * PER + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 1_000 {
                        match q.take() {
                            Some(v) => {
                                got.push(v);
                                dry = 0;
                            }
                            None => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        // Drain leftovers the consumers gave up on.
        while let Some(v) = q.take() {
            all.push(v);
        }
        all.sort_unstable();
        assert_eq!(all, (0..2 * PER).collect::<Vec<_>>());
    }

    /// One producer, a local `take` consumer and a remote chunk-of-two
    /// thief. Each take is logged before the next yield point, so the
    /// log is in linearization order: FIFO and exactly-once together
    /// say it is the push order.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn fifo_is_clean_and_ordered_on_every_schedule() {
        let schedules = explore(|| {
            let q = Arc::new(SharedFifo::new());
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let consumer = |take: fn(&SharedFifo<u32>) -> Vec<u32>| {
                let (q, log) = (Arc::clone(&q), Arc::clone(&log));
                Box::new(move || {
                    for _ in 0..2 {
                        let got = take(&q);
                        log.lock().unwrap().extend(got);
                    }
                }) as Body<()>
            };
            let producer = Arc::clone(&q);
            let bodies = vec![
                Box::new(move || (1..=4).for_each(|v| producer.push(v))),
                consumer(|q| q.take().into_iter().collect()),
                consumer(|q| q.take_chunk(2)),
            ];
            (bodies, move |_| {
                let mut log = log.lock().unwrap().clone();
                let (taken, len, takes) = (log.len(), q.len(), q.takes());
                log.extend(std::iter::from_fn(|| q.take()));
                let counts = (len, takes, q.pushes()) == (4 - taken, taken as u64, 4);
                (log == [1, 2, 3, 4] && counts)
                    .then_some(())
                    .ok_or(format!("took {log:?}; len {len}, takes {takes}"))
            })
        })
        .unwrap_or_else(|e| panic!("shared_fifo: {e}"));
        println!("shared_fifo: {schedules} schedules");
    }
}
