//! A preemption-bounded schedule explorer for the deques' own code.
//!
//! [`explore`] runs each scenario body on its own OS thread, but only
//! one at a time. Every access through `crate::sync` is a yield point
//! where the running thread chooses who runs next and hands over with
//! `unpark`. Schedules are enumerated depth-first: each run replays a
//! recorded prefix of choices, takes the next untried one and then
//! lets the running thread continue. At most [`PREEMPTIONS`] switches
//! per schedule leave a thread that could have gone on (CHESS,
//! Musuvathi et al., OSDI 2008); a switch because a thread finished or
//! blocked on a lock is free.
//!
//! One thread runs at a time, so the memory model is sequentially
//! consistent: the explorer checks the algorithm (CAS protocol, index
//! arithmetic, grow window), not fence placement. Weak memory is left
//! to miri. A deadlock, a panicking body or a failed final check ends
//! the search with an error naming the thread order that caused it.
//!
//! Bodies may block only on `crate::sync` primitives: a thread parked
//! anywhere else (a `std` lock held across a yield point, say) stalls
//! the whole schedule.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{self, AtomicBool, Ordering};
use std::sync::{Arc, LockResult, PoisonError, TryLockError};
use std::thread::{self, Thread};

/// Switches away from a runnable thread allowed per schedule.
pub(crate) const PREEMPTIONS: usize = 2;

/// One thread of a scenario; its result is handed to the final check.
pub(crate) type Body<R> = Box<dyn FnOnce() -> R + Send>;

#[derive(Clone, Copy, PartialEq)]
enum Status {
    Runnable,
    /// Waiting for the lock at this address.
    Blocked(usize),
    Done,
}

/// One scheduling choice. Option 0 continues the running thread when
/// it can (`!free`), and every other option then costs a preemption.
struct Choice {
    thread: usize,
    index: usize,
    options: usize,
    free: bool,
    preemptions: usize,
}

/// The state of one schedule.
struct Run {
    status: Vec<Status>,
    threads: Vec<Thread>,
    replay: Vec<usize>,
    choices: Vec<Choice>,
    preemptions: usize,
    failure: Option<String>,
}

impl Run {
    /// Choose the thread to run after `running` (`None`: at the start),
    /// or `None` when no thread can run.
    fn pick(&mut self, running: Option<usize>) -> Option<usize> {
        let runnable = |t: &usize| self.status[*t] == Status::Runnable;
        let current = running.filter(runnable);
        let others = (0..self.status.len()).filter(|t| Some(*t) != current && runnable(t));
        let options: Vec<usize> = current.into_iter().chain(others).collect();
        let index = self.replay.get(self.choices.len()).copied().unwrap_or(0);
        let thread = *options.get(index)?;
        self.choices.push(Choice {
            thread,
            index,
            options: options.len(),
            free: current.is_none(),
            preemptions: self.preemptions,
        });
        if current.is_some() && index > 0 {
            self.preemptions += 1;
        }
        Some(thread)
    }
}

/// The deepest choice with an untried option inside the bound, as the
/// prefix to replay next.
fn next_prefix(choices: &[Choice]) -> Option<Vec<usize>> {
    let i = choices
        .iter()
        .rposition(|c| c.index + 1 < c.options && (c.free || c.preemptions < PREEMPTIONS))?;
    let mut prefix: Vec<usize> = choices[..i].iter().map(|c| c.index).collect();
    prefix.push(choices[i].index + 1);
    Some(prefix)
}

struct Shared {
    run: std::sync::Mutex<Run>,
    /// The one thread allowed to run.
    current: atomic::AtomicUsize,
    aborted: AtomicBool,
}

impl Shared {
    /// Choose the next thread after `me` and wake it. With no thread
    /// runnable but some unfinished, the schedule is a deadlock.
    fn pass(&self, run: &mut Run, me: Option<usize>) {
        match run.pick(me) {
            Some(next) if Some(next) != me => {
                self.current.store(next, Ordering::SeqCst);
                run.threads[next].unpark();
            }
            Some(_) => {}
            None if run.status.iter().all(|s| *s == Status::Done) => {}
            None => self.fail(run, "deadlock: every unfinished thread is blocked".into()),
        }
    }

    /// Record the first failure and stop every thread of the schedule.
    fn fail(&self, run: &mut Run, why: String) {
        run.failure.get_or_insert(why);
        self.aborted.store(true, Ordering::SeqCst);
        for t in &run.threads {
            t.unpark();
        }
    }

    /// Park until `me` is chosen; unwind out of the body if the
    /// schedule was aborted meanwhile.
    fn wait(&self, me: usize) {
        loop {
            if self.aborted.load(Ordering::SeqCst) {
                panic::resume_unwind(Box::new(Abort));
            }
            if self.current.load(Ordering::SeqCst) == me {
                return;
            }
            thread::park();
        }
    }
}

/// Unwind payload that stops a thread of an aborted schedule.
struct Abort;

/// A controlled thread's handle on its schedule.
struct Ctx {
    shared: Arc<Shared>,
    me: usize,
    /// Not yet past its first yield point, which the choice that
    /// started the thread already covered.
    fresh: Cell<bool>,
}

impl Ctx {
    /// Enter `status`, let the scheduler choose, and park until this
    /// thread is chosen again.
    fn switch(&self, status: Status) {
        {
            let mut run = self.shared.run.lock().unwrap();
            run.status[self.me] = status;
            self.shared.pass(&mut run, Some(self.me));
        }
        self.shared.wait(self.me);
    }
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's context, if the explorer controls it. An
/// unwinding thread is left alone: its drops run outside the schedule.
fn with_ctx<T>(f: impl FnOnce(&Ctx) -> T) -> Option<T> {
    if thread::panicking() {
        return None;
    }
    CTX.with(|c| c.borrow().as_ref().map(f))
}

/// A point where the explorer may switch threads. Outside an explored
/// schedule it does nothing.
pub(crate) fn yield_point() {
    with_ctx(|c| {
        if !c.fresh.replace(false) {
            c.switch(Status::Runnable);
        }
    });
}

/// Explore every schedule of the bodies `setup` returns, within the
/// preemption bound. Each schedule calls `setup` afresh, runs the
/// bodies to completion and hands their results to the check. Returns
/// the number of schedules, or the first failure with its thread order
/// (one digit per step: the thread that ran it).
pub(crate) fn explore<R, C>(mut setup: impl FnMut() -> (Vec<Body<R>>, C)) -> Result<usize, String>
where
    R: Send + 'static,
    C: FnOnce(Vec<R>) -> Result<(), String>,
{
    let mut prefix = Vec::new();
    for schedules in 1.. {
        let (bodies, check) = setup();
        let (choices, results) = run_once(bodies, prefix);
        if let Err(why) = results.and_then(check) {
            let order: String = choices.iter().map(|c| c.thread.to_string()).collect();
            return Err(format!(
                "{why} (schedule {schedules}, thread order {order})"
            ));
        }
        match next_prefix(&choices) {
            Some(p) => prefix = p,
            None => return Ok(schedules),
        }
    }
    unreachable!("schedules are counted in usize")
}

/// Run one schedule: `replay` first, then the default choices.
fn run_once<R: Send + 'static>(
    bodies: Vec<Body<R>>,
    replay: Vec<usize>,
) -> (Vec<Choice>, Result<Vec<R>, String>) {
    let shared = Arc::new(Shared {
        run: std::sync::Mutex::new(Run {
            status: vec![Status::Runnable; bodies.len()],
            threads: Vec::new(),
            replay,
            choices: Vec::new(),
            preemptions: 0,
            failure: None,
        }),
        current: atomic::AtomicUsize::new(usize::MAX),
        aborted: AtomicBool::new(false),
    });
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(me, body)| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let ctx = Ctx {
                    shared: Arc::clone(&shared),
                    me,
                    fresh: Cell::new(true),
                };
                CTX.with(|c| *c.borrow_mut() = Some(ctx));
                let out = panic::catch_unwind(AssertUnwindSafe(|| {
                    shared.wait(me);
                    body()
                }));
                let mut run = shared.run.lock().unwrap();
                match out {
                    Ok(r) => {
                        run.status[me] = Status::Done;
                        shared.pass(&mut run, Some(me));
                        Some(r)
                    }
                    Err(e) if e.is::<Abort>() => None,
                    Err(_) => {
                        shared.fail(&mut run, format!("thread {me} panicked"));
                        None
                    }
                }
            })
        })
        .collect();
    {
        let mut run = shared.run.lock().unwrap();
        run.threads = handles.iter().map(|h| h.thread().clone()).collect();
        shared.pass(&mut run, None);
    }
    let results: Vec<Option<R>> = handles
        .into_iter()
        .map(|h| h.join().expect("explorer thread"))
        .collect();
    let mut run = shared.run.lock().unwrap();
    let choices = std::mem::take(&mut run.choices);
    match run.failure.take() {
        Some(why) => (choices, Err(why)),
        None => (choices, Ok(results.into_iter().flatten().collect())),
    }
}

/// `std` atomics that yield before every access.
macro_rules! atomic {
    ($name:ident $(<$g:ident>)?, $t:ty, $(fn $f:ident($($a:ident: $at:ty),*) $(-> $r:ty)?;)*) => {
        pub(crate) struct $name$(<$g>)?(atomic::$name$(<$g>)?);

        impl$(<$g>)? $name$(<$g>)? {
            pub(crate) const fn new(v: $t) -> Self {
                $name(atomic::$name::new(v))
            }
            $(pub(crate) fn $f(&self, $($a: $at),*) $(-> $r)? {
                yield_point();
                self.0.$f($($a),*)
            })*
        }
    };
}

atomic! {
    AtomicIsize, isize,
    fn load(o: Ordering) -> isize;
    fn store(v: isize, o: Ordering);
    fn compare_exchange(c: isize, n: isize, s: Ordering, f: Ordering) -> Result<isize, isize>;
}
atomic! {
    AtomicUsize, usize,
    fn load(o: Ordering) -> usize;
    fn store(v: usize, o: Ordering);
}
atomic! {
    AtomicU64, u64,
    fn load(o: Ordering) -> u64;
    fn fetch_add(v: u64, o: Ordering) -> u64;
}
atomic! {
    AtomicPtr<T>, *mut T,
    fn load(o: Ordering) -> *mut T;
    fn store(p: *mut T, o: Ordering);
}

/// `std::sync::Mutex`, yielding before `lock`. A thread that would
/// block is not runnable until the holder unlocks.
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

/// The guard of [`Mutex`]; dropping it makes the lock's waiters
/// runnable again.
pub(crate) struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    pub(crate) const fn new(v: T) -> Self {
        Mutex(std::sync::Mutex::new(v))
    }

    fn key(&self) -> usize {
        self as *const Self as usize
    }

    pub(crate) fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        yield_point();
        let locked = loop {
            match self.0.try_lock() {
                Ok(g) => break Ok(g),
                Err(TryLockError::Poisoned(e)) => break Err(e),
                Err(TryLockError::WouldBlock) => {
                    let key = self.key();
                    if with_ctx(|c| c.switch(Status::Blocked(key))).is_none() {
                        break self.0.lock();
                    }
                }
            }
        };
        let wrap = |guard| MutexGuard { lock: self, guard };
        locked
            .map(wrap)
            .map_err(|e| PoisonError::new(wrap(e.into_inner())))
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Only one thread runs, so waking the waiters before the field
        // guard unlocks is not observable.
        with_ctx(|c| {
            let key = self.lock.key();
            for s in &mut c.shared.run.lock().unwrap().status {
                if *s == Status::Blocked(key) {
                    *s = Status::Runnable;
                }
            }
        });
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Two threads of three steps each have C(6,3) = 20 interleavings.
    /// One made of k runs of a thread needs k - 2 preemptions, and the
    /// six with five or six runs exceed the bound, leaving 14.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn bound_two_visits_each_short_interleaving_once() {
        let orders = Arc::new(std::sync::Mutex::new(BTreeSet::new()));
        let schedules = explore(|| {
            let log = Arc::new(std::sync::Mutex::new(String::new()));
            let x = Arc::new(AtomicUsize::new(0));
            let bodies = ["a", "b"].map(|name| {
                let (log, x) = (Arc::clone(&log), Arc::clone(&x));
                Box::new(move || {
                    for _ in 0..3 {
                        x.store(0, Ordering::Relaxed);
                        log.lock().unwrap().push_str(name);
                    }
                }) as Body<()>
            });
            let orders = Arc::clone(&orders);
            (bodies.into(), move |_| {
                orders.lock().unwrap().insert(log.lock().unwrap().clone());
                Ok(())
            })
        });
        let orders = orders.lock().unwrap();
        assert_eq!((schedules, orders.len()), (Ok(14), 14));
        let runs = |o: &String| 1 + o.as_bytes().windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            orders.iter().all(|o| runs(o) <= PREEMPTIONS + 2),
            "{orders:?}"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn lock_order_inversion_is_a_deadlock() {
        let err = explore(|| {
            let locks = Arc::new([Mutex::new(()), Mutex::new(())]);
            let bodies = [0, 1].map(|first| {
                let locks = Arc::clone(&locks);
                Box::new(move || {
                    let _a = locks[first].lock().unwrap();
                    let _b = locks[1 - first].lock().unwrap();
                }) as Body<()>
            });
            (bodies.into(), |_| Ok(()))
        });
        let err = err.unwrap_err();
        assert!(
            err.contains("deadlock") && err.contains("thread order"),
            "{err}"
        );
    }
}
