//! The deques' synchronization primitives, named in one place.
//!
//! Normal builds re-export `std`. Test builds re-export the schedule
//! explorer's wrappers instead (see `explore`): every atomic access,
//! lock and buffer slot access becomes a point where the explorer may
//! switch threads. Fences stay `std` in both: the explorer runs one
//! thread at a time, so its memory model is sequentially consistent and
//! a fence orders nothing further.

pub(crate) use std::sync::atomic::{fence, Ordering};

#[cfg(not(test))]
pub(crate) use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize};
#[cfg(not(test))]
pub(crate) use std::sync::Mutex;

#[cfg(test)]
pub(crate) use crate::explore::{
    yield_point, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Mutex,
};

/// A plain (non-atomic) shared access: free outside the explorer.
#[cfg(not(test))]
#[inline(always)]
pub(crate) fn yield_point() {}
