//! Cache-line-padded per-thread slots: the sharded-counter primitive the
//! always-on metrics registry builds on.
//!
//! One slot per pool thread, each aligned and padded to 128 bytes (two
//! 64-byte lines — the adjacent-line prefetcher pairs lines, so padding to
//! a single line still false-shares under it). A thread takes its own slot
//! for the duration of an SPMD region and bumps plain (non-atomic) fields
//! through it; the pool's wait for every lane at the end of `run` is the
//! happens-before edge that publishes the writes to whoever aggregates
//! afterwards. This is the same
//! single-writer phase discipline as `bfs-core`'s `ThreadOwned`, packaged
//! at the platform layer so crates below `core` (the metrics registry) can
//! use it without a dependency cycle.
//!
//! Aggregation goes through `&mut self` ([`get_mut`](PerThreadSlots::get_mut)
//! / [`iter_mut`](PerThreadSlots::iter_mut)): exclusive access proves no
//! region is live, so reads need no synchronization at all.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, Ordering};

/// Pads and aligns `T` to 128 bytes so neighboring slots never share a
/// cache-line pair.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

/// A fixed array of [`CachePadded`] single-writer cells, one per thread.
#[derive(Debug)]
pub struct PerThreadSlots<T> {
    slots: Box<[CachePadded<UnsafeCell<T>>]>,
    /// Debug-only taken flags: a second simultaneous [`take`](Self::take) of
    /// one slot is a protocol violation and panics instead of racing.
    #[cfg(debug_assertions)]
    taken: Box<[AtomicBool]>,
}

// SAFETY: each cell is written only through its `SlotGuard` (one live guard
// per slot, enforced in debug builds) and read only under `&mut self`;
// cross-thread hand-off of the values happens across the pool's barriers.
unsafe impl<T: Send> Sync for PerThreadSlots<T> {}

impl<T> PerThreadSlots<T> {
    /// `n` slots initialized by `f(slot_index)`.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> Self {
        let mut f = f;
        Self {
            slots: (0..n).map(|i| CachePadded(UnsafeCell::new(f(i)))).collect(),
            #[cfg(debug_assertions)]
            taken: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Takes slot `i` for exclusive writing until the guard drops. The
    /// caller must be the slot's unique writer for that window (thread `i`
    /// of an SPMD region taking slot `i` satisfies this by construction);
    /// debug builds panic on a double-take, release builds do not check.
    ///
    /// # Panics
    /// Panics if `i` is out of range, or (debug only) if slot `i` already
    /// has a live guard.
    pub fn take(&self, i: usize) -> SlotGuard<'_, T> {
        #[cfg(debug_assertions)]
        assert!(
            !self.taken[i].swap(true, Ordering::Acquire),
            "slot {i} already has a live writer"
        );
        SlotGuard {
            ptr: self.slots[i].0.get(),
            #[cfg(debug_assertions)]
            flag: &self.taken[i],
            _owner: std::marker::PhantomData,
        }
    }

    /// Direct access to slot `i`; `&mut self` proves no guard is live.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        self.slots[i].0.get_mut()
    }

    /// Iterates over all slots mutably (aggregation and reset).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|c| c.0.get_mut())
    }
}

/// Exclusive write handle to one slot; derefs to `&mut T`.
pub struct SlotGuard<'a, T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    flag: &'a AtomicBool,
    _owner: std::marker::PhantomData<&'a PerThreadSlots<T>>,
}

impl<T> Deref for SlotGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard is the slot's unique writer (see `take`).
        unsafe { &*self.ptr }
    }
}

impl<T> DerefMut for SlotGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.ptr }
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for SlotGuard<'_, T> {
    fn drop(&mut self) {
        self.flag.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_padded_and_independent() {
        assert!(std::mem::align_of::<CachePadded<u64>>() >= 128);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        let mut slots = PerThreadSlots::from_fn(4, |i| i as u64);
        for i in 0..4 {
            *slots.take(i) += 10;
        }
        let vals: Vec<u64> = slots.iter_mut().map(|v| *v).collect();
        assert_eq!(vals, vec![10, 11, 12, 13]);
    }

    #[test]
    fn concurrent_writers_on_distinct_slots() {
        let slots = PerThreadSlots::from_fn(8, |_| 0u64);
        std::thread::scope(|s| {
            for t in 0..8 {
                let slots = &slots;
                s.spawn(move || {
                    let mut g = slots.take(t);
                    for _ in 0..1000 {
                        *g += 1;
                    }
                });
            }
        });
        let mut slots = slots;
        assert!(slots.iter_mut().all(|v| *v == 1000));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a live writer")]
    fn double_take_panics_in_debug() {
        let slots = PerThreadSlots::from_fn(2, |_| 0u64);
        let _a = slots.take(0);
        let _b = slots.take(0);
    }

    #[test]
    fn guard_release_allows_retake() {
        let slots = PerThreadSlots::from_fn(1, |_| 0u64);
        *slots.take(0) = 5;
        *slots.take(0) += 1;
        let mut slots = slots;
        assert_eq!(*slots.get_mut(0), 6);
    }
}
