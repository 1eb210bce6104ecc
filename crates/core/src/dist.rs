//! Logical data distribution: the X10 `DistArray` analogue.
//!
//! In the reproduction all places live in one address space, so the
//! *distribution is logical but fully accounted*: every element has a
//! home place, and engines charge remote-reference costs whenever a
//! task touches data homed elsewhere (unless the task's footprint
//! carried that data along on migration).

use crate::ids::{ObjectId, PlaceId};
use crate::task::Access;
use std::ops::Range;

/// Allocates unique [`ObjectId`]s within one run. Apps create one and
/// hand out ids to their distributed structures so cache lines of
/// different structures never alias.
#[derive(Debug, Default)]
pub struct ObjectAllocator {
    next: u64,
}

impl ObjectAllocator {
    /// New allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate one fresh object id.
    pub fn alloc(&mut self) -> ObjectId {
        let id = ObjectId(self.next);
        self.next += 1;
        id
    }

    /// Allocate `n` consecutive ids, returning the first.
    pub fn alloc_n(&mut self, n: u64) -> ObjectId {
        let id = ObjectId(self.next);
        self.next += n;
        id
    }
}

/// Block distribution of the index range `[0, len)` over `places`
/// places (X10's `Dist.makeBlock`). The first `len % places` places
/// receive one extra element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDist {
    len: usize,
    places: u32,
}

impl BlockDist {
    /// Distribution of `len` elements over `places` places.
    pub fn new(len: usize, places: u32) -> Self {
        assert!(places > 0);
        BlockDist { len, places }
    }

    /// Number of distributed elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of places.
    pub fn places(&self) -> u32 {
        self.places
    }

    /// Home place of element `i`.
    pub fn place_of(&self, i: usize) -> PlaceId {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let p = self.places as usize;
        let base = self.len / p;
        let extra = self.len % p;
        // The first `extra` places hold `base+1` elements each.
        let boundary = extra * (base + 1);
        if i < boundary {
            PlaceId((i / (base + 1)) as u32)
        } else {
            PlaceId((extra + (i - boundary) / base.max(1)) as u32)
        }
    }

    /// Index range homed at place `p`.
    pub fn range_of(&self, p: PlaceId) -> Range<usize> {
        let places = self.places as usize;
        let idx = p.index();
        assert!(idx < places);
        let base = self.len / places;
        let extra = self.len % places;
        let start = if idx <= extra {
            idx * (base + 1)
        } else {
            extra * (base + 1) + (idx - extra) * base
        };
        let size = if idx < extra { base + 1 } else { base };
        start..(start + size).min(self.len)
    }
}

/// A block-distributed array: contiguous storage plus a [`BlockDist`]
/// and one [`ObjectId`] per place-block for access accounting.
#[derive(Debug, Clone)]
pub struct DistArray<T> {
    data: Vec<T>,
    dist: BlockDist,
    /// Object id of place 0's block; block of place p is `base + p`.
    base_obj: ObjectId,
    elem_bytes: u64,
}

impl<T> DistArray<T> {
    /// Wrap `data` in a block distribution over `places` places.
    /// `elem_bytes` is the accounted size of one element; `alloc`
    /// provides this array's object-id range.
    pub fn new(data: Vec<T>, places: u32, elem_bytes: u64, alloc: &mut ObjectAllocator) -> Self {
        let dist = BlockDist::new(data.len(), places);
        let base_obj = alloc.alloc_n(places as u64);
        DistArray {
            data,
            dist,
            base_obj,
            elem_bytes,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying distribution.
    pub fn dist(&self) -> BlockDist {
        self.dist
    }

    /// Home place of element `i`.
    pub fn place_of(&self, i: usize) -> PlaceId {
        self.dist.place_of(i)
    }

    /// Object id of the block homed at place `p`.
    pub fn block_obj(&self, p: PlaceId) -> ObjectId {
        ObjectId(self.base_obj.0 + p.0 as u64)
    }

    /// Accounted byte size of one element.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Immutable element access (no accounting — pair with
    /// [`DistArray::access_read`] inside task bodies).
    pub fn get(&self, i: usize) -> &T {
        &self.data[i]
    }

    /// Mutable element access.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }

    /// Immutable view of all elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume the array, returning its storage.
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }

    /// The [`Access`] describing a read of element `i`, to feed a
    /// [`crate::task::TaskScope`].
    pub fn access_read(&self, i: usize) -> Access {
        let home = self.place_of(i);
        let block = self.dist.range_of(home);
        Access::read(
            self.block_obj(home),
            (i - block.start) as u64 * self.elem_bytes,
            self.elem_bytes,
            home,
        )
    }

    /// The [`Access`] describing a write of element `i`.
    pub fn access_write(&self, i: usize) -> Access {
        let mut a = self.access_read(i);
        a.kind = crate::task::AccessKind::Write;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_dist_partitions_exactly() {
        for len in [0usize, 1, 7, 16, 100, 101, 1023] {
            for places in [1u32, 2, 3, 8, 16] {
                let d = BlockDist::new(len, places);
                let mut covered = 0;
                for p in 0..places {
                    let r = d.range_of(PlaceId(p));
                    covered += r.len();
                    for i in r.clone() {
                        assert_eq!(d.place_of(i), PlaceId(p), "len={len} places={places} i={i}");
                    }
                }
                assert_eq!(covered, len, "len={len} places={places}");
            }
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let d = BlockDist::new(10, 4);
        let sizes: Vec<_> = (0..4).map(|p| d.range_of(PlaceId(p)).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn dist_array_accounting() {
        let mut alloc = ObjectAllocator::new();
        let arr = DistArray::new((0..100u32).collect(), 4, 4, &mut alloc);
        assert_eq!(arr.len(), 100);
        let a = arr.access_read(30);
        assert_eq!(a.home, PlaceId(1));
        assert_eq!(a.obj, arr.block_obj(PlaceId(1)));
        // element 30 is the 5th of place 1's block [25,50)
        assert_eq!(a.offset, 5 * 4);
        let w = arr.access_write(30);
        assert_eq!(w.kind, crate::task::AccessKind::Write);
    }

    #[test]
    fn object_allocator_is_disjoint() {
        let mut alloc = ObjectAllocator::new();
        let a = DistArray::new(vec![0u8; 10], 2, 1, &mut alloc);
        let b = DistArray::new(vec![0u8; 10], 2, 1, &mut alloc);
        assert_ne!(a.block_obj(PlaceId(0)), b.block_obj(PlaceId(0)));
        assert_ne!(a.block_obj(PlaceId(1)), b.block_obj(PlaceId(0)));
    }
}
