//! # distws-deque
//!
//! The deque substrate of DistWS (paper §V.A "Multiple Deques").
//!
//! Each worker owns a **private deque**: the owner pushes and pops at
//! the bottom (LIFO, maximizing cache reuse of the most recently
//! spawned task), co-located thieves steal from the top (FIFO end,
//! oldest task). Each *place* additionally owns one **shared deque**
//! holding locality-flexible tasks; it is manipulated strictly FIFO so
//! that any steal — local or remote — receives the *oldest* task, which
//! potentially roots the largest remaining subgraph and keeps a remote
//! thief busy longest.
//!
//! Three implementations:
//!
//! * [`chase_lev`] — a lock-free Chase–Lev deque (owner wait-free in
//!   the common case, thieves CAS on the top index), built directly on
//!   `std::sync::atomic` following Lê et al.'s C11 formulation. Used by
//!   the real threaded runtime for private deques.
//! * [`shared_fifo`] — a lock-based FIFO deque with chunked steal
//!   (paper: remote steals take chunks of 2), used per place.
//! * [`seq`] — single-threaded deques with identical semantics for the
//!   deterministic discrete-event simulator.
//!
//! [`chase_lev`] and [`shared_fifo`] take their atomics and `Mutex`
//! from a private `sync` module. Normal builds re-export `std`; test
//! builds swap in a schedule explorer's wrappers (`explore`, test-only),
//! so the unit tests run the shipped code through every schedule of
//! small push/pop/steal scenarios with at most two preemptions, and
//! catch seeded mutants of it.

pub mod chase_lev;
#[cfg(test)]
mod explore;
pub mod seq;
pub mod shared_fifo;
mod sync;

pub use chase_lev::{deque, Steal, Stealer, Worker};
pub use seq::{SeqPrivateDeque, SeqSharedFifo};
pub use shared_fifo::SharedFifo;
