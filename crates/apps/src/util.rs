//! Shared utilities for the application suite.

use std::sync::Arc;

/// A heap array that multiple tasks may mutate through **disjoint
/// ranges**.
///
/// The work-stealing applications (quicksort, merge sort, Turing ring)
/// partition an array into segments and hand each segment to exactly
/// one task. Rust cannot prove that property across `Arc`-captured
/// closures, so this wrapper provides unchecked range access with the
/// invariant documented here:
///
/// > **Safety contract**: at any instant, no two live references
/// > obtained from [`SharedSlice::slice_mut`] may overlap. The
/// > applications guarantee this structurally — each task's range is
/// > carved out by its parent and never aliased (the same discipline
/// > X10/Cilk array programs rely on).
#[derive(Debug)]
pub struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: access discipline per the documented contract; T: Send
// suffices because disjoint ranges are touched by at most one thread.
unsafe impl<T: Send> Send for SharedSlice<T> {}
// SAFETY: same contract — `&SharedSlice` only yields aliased data when
// callers break the documented range discipline.
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wrap a vector.
    pub fn new(data: Vec<T>) -> Arc<Self> {
        let boxed = data.into_boxed_slice();
        let len = boxed.len();
        let ptr = Box::into_raw(boxed) as *mut T;
        Arc::new(SharedSlice { ptr, len })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to a range.
    ///
    /// # Safety
    /// The caller must guarantee the range does not overlap any other
    /// live reference obtained from this array (see type docs).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, end: usize) -> &mut [T] {
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds {}",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }

    /// Shared access to a range.
    ///
    /// # Safety
    /// The caller must guarantee no overlapping mutable reference is
    /// live (see type docs).
    pub unsafe fn slice(&self, start: usize, end: usize) -> &[T] {
        assert!(
            start <= end && end <= self.len,
            "range {start}..{end} out of bounds {}",
            self.len
        );
        std::slice::from_raw_parts(self.ptr.add(start), end - start)
    }

    /// Snapshot of the full contents (requires exclusive logical
    /// access, e.g. after a run completed).
    ///
    /// # Safety
    /// No task may be mutating the array concurrently.
    pub unsafe fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.slice(0, self.len).to_vec()
    }
}

impl<T> Drop for SharedSlice<T> {
    fn drop(&mut self) {
        // SAFETY: constructed from Box::into_raw in `new`.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.len,
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_ranges_mutate_independently() {
        let s = SharedSlice::new(vec![0u32; 10]);
        // SAFETY: the two ranges are disjoint and nothing else holds
        // a reference.
        unsafe {
            let a = s.slice_mut(0, 5);
            let b = s.slice_mut(5, 10);
            a.fill(1);
            b.fill(2);
        }
        // SAFETY: the slices above were dropped; sole access again.
        let v = unsafe { s.snapshot() };
        assert_eq!(&v[..5], &[1; 5]);
        assert_eq!(&v[5..], &[2; 5]);
    }
}
