//! A lock-free Chase–Lev work-stealing deque.
//!
//! Single owner ([`Worker`]) pushes and pops at the *bottom*; any
//! number of thieves ([`Stealer`]) compete with a compare-and-swap on
//! the *top*. Memory orderings follow the C11 formulation of Lê,
//! Pop, Cohen & Zappa Nardelli, *"Correct and Efficient Work-Stealing
//! for Weak Memory Models"* (PPoPP 2013) — the same deque X10's XRX
//! runtime and Cilk use for per-worker task queues.
//!
//! ## Memory reclamation
//!
//! When the circular buffer grows, thieves may still be reading the
//! old buffer. Instead of hazard pointers or epochs we *retire* old
//! buffers into a list owned by the deque itself; they are freed only
//! when the last handle drops. Work-stealing deques grow a handful of
//! times per run (capacity doubles), so the retired list stays tiny —
//! this trades a few kilobytes for zero read-side synchronization.

use crate::sync::{fence, yield_point, AtomicIsize, AtomicPtr, Mutex, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// A task was stolen.
    Success(T),
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; retrying may work.
    Retry,
}

impl<T> Steal<T> {
    /// Convert to `Option`, treating `Retry` as `None`.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(t) => Some(t),
            _ => None,
        }
    }

    /// Whether this is `Steal::Empty`.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }
}

struct Buffer<T> {
    cap: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn new(cap: usize) -> Box<Self> {
        assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Buffer { cap, slots })
    }

    #[inline]
    unsafe fn read(&self, index: isize) -> T {
        yield_point();
        let slot = &self.slots[(index as usize) & (self.cap - 1)];
        (*slot.get()).assume_init_read()
    }

    #[inline]
    unsafe fn write(&self, index: isize, value: T) {
        yield_point();
        let slot = &self.slots[(index as usize) & (self.cap - 1)];
        (*slot.get()).write(value);
    }
}

struct Inner<T> {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buffer: AtomicPtr<Buffer<T>>,
    /// Retired buffers, freed when the deque drops.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: `Inner` is shared by exactly one owner and many thieves.
// Every slot is published to thieves only via the release store of
// `bottom` (push) and claimed only via the CAS on `top` (steal/pop),
// so a `T` crosses threads at most once and is never aliased after a
// successful claim; `T: Send` is therefore sufficient for both
// auto-traits. Retired buffers are only freed in `Drop`, when no other
// handle exists.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: see the `Send` justification above — all shared mutation
// goes through atomics or the `retired` mutex.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole owner now: drain remaining elements, then free buffers.
        let top = self.top.load(Ordering::Relaxed);
        let bottom = self.bottom.load(Ordering::Relaxed);
        let buf_ptr = self.buffer.load(Ordering::Relaxed);
        // SAFETY: `&mut self` in `Drop` proves no other handle exists,
        // so indices `top..bottom` hold initialized, unaliased values;
        // the current and retired buffer pointers all came from
        // `Box::into_raw` and are freed exactly once each.
        unsafe {
            let buf = &*buf_ptr;
            let mut i = top;
            while i < bottom {
                drop(buf.read(i));
                i += 1;
            }
            drop(Box::from_raw(buf_ptr));
            for p in self.retired.lock().unwrap().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

/// Owner handle: push/pop at the bottom. Not `Clone` — exactly one
/// owner per deque.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
}

/// Thief handle: steal from the top. Cheap to clone.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Create a new deque, returning the unique owner handle and a
/// cloneable stealer handle.
pub fn deque<T: Send>() -> (Worker<T>, Stealer<T>) {
    with_capacity(64)
}

/// A deque whose buffer starts at `cap` slots (a power of two); the
/// tests start small to reach the grow path.
fn with_capacity<T: Send>(cap: usize) -> (Worker<T>, Stealer<T>) {
    let inner = Arc::new(Inner {
        top: AtomicIsize::new(0),
        bottom: AtomicIsize::new(0),
        buffer: AtomicPtr::new(Box::into_raw(Buffer::new(cap))),
        retired: Mutex::new(Vec::new()),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
        },
        Stealer { inner },
    )
}

impl<T: Send> Worker<T> {
    /// Push a task at the bottom (owner end). Never blocks; grows the
    /// buffer when full.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf_ptr = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: only the single owner writes the buffer pointer, so
        // our relaxed load sees the current buffer. Slot `b` is outside
        // every thief's reachable window (they stop at the `bottom`
        // they observed, which is ≤ b until the release store below
        // publishes the write), so the plain write cannot race a read.
        unsafe {
            if b - t >= (*buf_ptr).cap as isize {
                buf_ptr = self.grow(buf_ptr, t, b);
            }
            (*buf_ptr).write(b, value);
        }
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pop the most recently pushed task (LIFO). Only the owner calls
    /// this.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf_ptr = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            // Non-empty.
            // SAFETY: slot `b` was initialized by our own earlier push
            // and cannot be freed (buffers are only retired, never
            // freed, while handles live). If a thief claims the same
            // index, exactly one of us wins the CAS on `top` below and
            // the loser forgets its bitwise copy — no double drop.
            let value = unsafe { (*buf_ptr).read(b) };
            if t == b {
                // Last element: race with thieves for it.
                if inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    // Lost: a thief took it. Forget our bitwise copy.
                    std::mem::forget(value);
                    inner.bottom.store(b + 1, Ordering::Relaxed);
                    return None;
                }
                inner.bottom.store(b + 1, Ordering::Relaxed);
            }
            Some(value)
        } else {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Number of elements visible to the owner (approximate under
    /// concurrent steals).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque looks empty to the owner.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stealer handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }

    #[cold]
    unsafe fn grow(&self, old_ptr: *mut Buffer<T>, t: isize, b: isize) -> *mut Buffer<T> {
        let old = &*old_ptr;
        let new = Buffer::new(old.cap * 2);
        let mut i = t;
        while i < b {
            // Bitwise move: ownership transfers to the new buffer; the
            // old slots are never read again by the owner (thieves that
            // raced will CAS-fail on `top`).
            new.write(i, old.read(i));
            i += 1;
        }
        let new_ptr = Box::into_raw(new);
        self.inner.buffer.store(new_ptr, Ordering::Release);
        self.inner.retired.lock().unwrap().push(old_ptr);
        new_ptr
    }
}

impl<T: Send> Stealer<T> {
    /// Attempt to steal the oldest task (top end).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t < b {
            let buf_ptr = inner.buffer.load(Ordering::Acquire);
            // SAFETY: the acquire loads of `bottom` and `buffer` make
            // the owner's write of slot `t` visible (t < b). The
            // pointer stays valid because old buffers are retired, not
            // freed. The bitwise copy is only kept if the CAS below
            // claims index `t`; on failure it is forgotten, so the
            // value is never duplicated or dropped twice.
            let value = unsafe { (*buf_ptr).read(t) };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                // Lost the race; the bitwise copy must not be dropped.
                std::mem::forget(value);
                return Steal::Retry;
            }
            Steal::Success(value)
        } else {
            Steal::Empty
        }
    }

    /// Steal with bounded retries, turning `Retry` storms into a
    /// single `Option`.
    pub fn steal_with_retries(&self, max_retries: usize) -> Option<T> {
        for _ in 0..=max_retries {
            match self.steal() {
                Steal::Success(v) => return Some(v),
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        }
        None
    }

    /// Approximate number of elements.
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Body};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn lifo_for_owner() {
        let (w, _s) = deque::<u32>();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn fifo_for_thief() {
        let (w, s) = deque::<u32>();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal().success(), Some(1));
        assert_eq!(s.steal().success(), Some(2));
        assert_eq!(w.pop(), Some(3));
        assert!(s.steal().is_empty());
    }

    #[test]
    fn growth_preserves_elements() {
        let (w, s) = deque::<usize>();
        for i in 0..1_000 {
            w.push(i);
        }
        assert_eq!(w.len(), 1_000);
        // Steal the first half, pop the second half.
        for i in 0..500 {
            assert_eq!(s.steal().success(), Some(i));
        }
        for i in (500..1_000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn drop_releases_remaining_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (w, _s) = deque::<D>();
            for _ in 0..10 {
                w.push(D);
            }
            drop(w.pop()); // one dropped here
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_thieves_see_each_item_once() {
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 3;
        let (w, s) = deque::<usize>();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = s.clone();
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match s.steal() {
                            Steal::Success(v) => got.push(v),
                            Steal::Empty => {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                std::thread::yield_now();
                            }
                            Steal::Retry => std::hint::spin_loop(),
                        }
                    }
                    got
                })
            })
            .collect();

        let mut popped = Vec::new();
        for i in 0..ITEMS {
            w.push(i);
            if i % 3 == 0 {
                if let Some(v) = w.pop() {
                    popped.push(v);
                }
            }
        }
        while let Some(v) = w.pop() {
            popped.push(v);
        }
        done.store(true, Ordering::Release);

        let mut seen: HashSet<usize> = popped.into_iter().collect();
        let mut total = seen.len();
        for h in handles {
            let got = h.join().unwrap();
            total += got.len();
            for v in got {
                assert!(seen.insert(v), "item {v} observed twice");
            }
        }
        assert_eq!(total, ITEMS, "items lost: saw {total} of {ITEMS}");
    }

    #[derive(Clone, Copy)]
    enum Op {
        Push,
        Pop,
    }
    use Op::{Pop, Push};

    /// A seeded bug, run from a test-only copy of the code it breaks.
    #[derive(Clone, Copy, PartialEq)]
    enum Mutant {
        None,
        StealStoresTop,
        PopStoresTop,
        GrowSkipsOldest,
    }

    /// `Stealer::steal`, but claiming index `t` with a plain store of
    /// `top`: two thieves can both take it.
    fn steal_storing_top(s: &Stealer<u64>) -> Steal<u64> {
        let inner = &*s.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let buf_ptr = inner.buffer.load(Ordering::Acquire);
        // SAFETY: as in `Stealer::steal`. A `u64` taken twice is a
        // copy, never a double drop.
        let value = unsafe { (*buf_ptr).read(t) };
        inner.top.store(t + 1, Ordering::SeqCst);
        Steal::Success(value)
    }

    /// `Worker::pop`, but taking the last item with a plain store of
    /// `top` instead of racing the thieves for it.
    fn pop_storing_top(w: &Worker<u64>) -> Option<u64> {
        let inner = &*w.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf_ptr = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t > b {
            inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: as in `Worker::pop`. A `u64` taken twice is a copy,
        // never a double drop.
        let value = unsafe { (*buf_ptr).read(b) };
        if t == b {
            inner.top.store(t + 1, Ordering::SeqCst);
            inner.bottom.store(b + 1, Ordering::Relaxed);
        }
        Some(value)
    }

    /// `Worker::push`, but growing by copying `t+1..b`: the oldest item
    /// is lost and its slot in the new buffer is never written.
    fn push_growing_from_t_plus_1(w: &Worker<u64>, value: u64) {
        let inner = &*w.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf_ptr = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: none, on purpose: slot `t` of the grown buffer stays
        // uninitialized and a later `read` of it is undefined behaviour.
        // This copy exists only to be caught; its tests are not run
        // under miri.
        unsafe {
            if b - t >= (*buf_ptr).cap as isize {
                buf_ptr = w.grow(buf_ptr, t + 1, b);
            }
            (*buf_ptr).write(b, value);
        }
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// The number of schedules explored, or the first failure.
    type Explored = Result<usize, String>;

    /// Values are fresh per schedule, so a stale slot left by an earlier
    /// schedule cannot pass for a value pushed in this one.
    static NEXT_VALUE: AtomicU64 = AtomicU64::new(1);

    /// Explore an owner running `owner` on a deque of capacity `cap`
    /// that already holds `pre` items, against one thief per entry of
    /// `thieves`, each making that many steal attempts. Every value
    /// pushed must be taken exactly once: by the owner, by a thief or
    /// by the final drain.
    fn scenario(
        cap: usize,
        pre: usize,
        owner: &'static [Op],
        thieves: &'static [usize],
        m: Mutant,
    ) -> Explored {
        let push = move |w: &Worker<u64>, v| match m {
            Mutant::GrowSkipsOldest => push_growing_from_t_plus_1(w, v),
            _ => w.push(v),
        };
        let pushes = pre + owner.iter().filter(|op| matches!(op, Push)).count();
        explore(|| {
            let (w, s) = with_capacity::<u64>(cap);
            let base = NEXT_VALUE.fetch_add(pushes as u64, Ordering::Relaxed);
            let mut values = base..;
            values.by_ref().take(pre).for_each(|v| push(&w, v));
            let mut bodies: Vec<Body<Vec<u64>>> = vec![Box::new(move || {
                let mut got = Vec::new();
                for op in owner {
                    match (op, m) {
                        (Push, _) => push(&w, values.next().unwrap()),
                        (Pop, Mutant::PopStoresTop) => got.extend(pop_storing_top(&w)),
                        (Pop, _) => got.extend(w.pop()),
                    }
                }
                got
            })];
            for &attempts in thieves {
                let s = s.clone();
                bodies.push(Box::new(move || {
                    (0..attempts)
                        .filter_map(|_| match m {
                            Mutant::StealStoresTop => steal_storing_top(&s).success(),
                            _ => s.steal().success(),
                        })
                        .collect()
                }));
            }
            (bodies, move |got: Vec<Vec<u64>>| {
                let mut got = got.concat();
                got.extend(std::iter::from_fn(|| s.steal().success()));
                got.sort_unstable();
                let want: Vec<u64> = (base..base + pushes as u64).collect();
                if got == want {
                    Ok(())
                } else {
                    Err(format!("took {got:?}, pushed {want:?}"))
                }
            })
        })
    }

    /// Explore the named scenario with mutant `m`.
    fn explore_named(name: &str, m: Mutant) -> Explored {
        match name {
            // The owner pops the one item a thief is stealing.
            "last_item_race" => scenario(2, 1, &[Pop], &[1], m),
            // The owner and two thieves chase one item.
            "two_thieves_one_item" => scenario(2, 0, &[Push, Pop], &[1, 1], m),
            // LIFO pops against FIFO steals over two items.
            "lifo_vs_fifo" => scenario(2, 0, &[Push, Push, Pop, Pop], &[2], m),
            // Growth (capacity 1 → 2 → 4) while a thief reads the old buffer.
            "grow_under_steal" => scenario(1, 0, &[Push, Push, Push], &[2], m),
            // Growth, then the owner and two thieves drain.
            "grow_then_drain" => scenario(1, 0, &[Push, Push, Pop, Pop], &[1, 1], m),
            // Three thieves compete for two items.
            "cas_storm" => scenario(2, 0, &[Push, Push], &[1, 1, 1], m),
            _ => unreachable!("no scenario {name}"),
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn real_deque_is_clean_in_every_scenario() {
        for name in [
            "last_item_race",
            "two_thieves_one_item",
            "lifo_vs_fifo",
            "grow_under_steal",
            "grow_then_drain",
            "cas_storm",
        ] {
            let schedules =
                explore_named(name, Mutant::None).unwrap_or_else(|e| panic!("{name}: {e}"));
            println!("{name}: {schedules} schedules");
            assert!(schedules > 10, "{name}: only {schedules} schedules");
        }
    }

    /// The mutant must fail the named scenario; the failing schedule is
    /// printed.
    fn assert_caught(name: &str, m: Mutant) {
        let err = explore_named(name, m).expect_err(name);
        println!("{name}: {err}");
        assert!(
            err.contains("took") && err.contains("thread order"),
            "{err}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn steal_without_cas_is_caught() {
        assert_caught("two_thieves_one_item", Mutant::StealStoresTop);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn pop_skipping_last_item_race_is_caught() {
        assert_caught("last_item_race", Mutant::PopStoresTop);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn grow_dropping_oldest_is_caught() {
        assert_caught("grow_under_steal", Mutant::GrowSkipsOldest);
    }
}
