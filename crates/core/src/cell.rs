//! Phase-separated single-writer cells.
//!
//! The SPMD region of Figure 3 follows a strict ownership discipline that
//! Rust's borrow checker cannot see across threads:
//!
//! * within a phase, per-thread buffers (`BV_t`, `PBV_t`, bin cursors) are
//!   written **only by their owning thread**;
//! * after the phase barrier, the buffers are **read-only** and every thread
//!   may read every other thread's buffers (Phase II walks all threads'
//!   bins; the division plan reads all lengths).
//!
//! `ThreadOwned<T>` encodes that protocol: `with_mut(owner, ..)` grants the
//! owner exclusive access during a write epoch, `read(i)` grants anyone
//! shared access during a read epoch. The barrier between epochs provides
//! the happens-before edge (its AcqRel hand-off publishes the writes).
//!
//! Each cell is padded to its own 128-byte line pair
//! ([`bfs_platform::CachePadded`]). The lanes write their own cells on
//! almost every claim (`next.push(v)` stores a `Vec`'s `len`), so unpadded
//! neighbouring cells would put two lanes' hot headers in one cache line and
//! turn every push into a cross-core line transfer. Two lines, not one,
//! because the adjacent-line prefetcher pulls lines in pairs.
//!
//! Debug builds verify the protocol dynamically with per-cell borrow flags:
//! concurrent `with_mut`/`with_mut` or `with_mut`/`read` on the same cell
//! panics instead of racing. Release builds compile the checks away.

use std::cell::UnsafeCell;

use bfs_platform::CachePadded;

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicI32, Ordering};

/// A fixed array of cells, each logically owned by one thread and padded
/// to its own 128-byte line pair.
pub struct ThreadOwned<T> {
    cells: Box<[CachePadded<UnsafeCell<T>>]>,
    /// Debug-only borrow state per cell: 0 free, -1 mutably borrowed,
    /// > 0 shared-borrow count.
    #[cfg(debug_assertions)]
    borrows: Box<[AtomicI32]>,
}

// SAFETY: access is mediated by `with_mut`/`read`, whose contract (single
// writer per cell within an epoch, no concurrent writer+reader) makes the
// shared `UnsafeCell`s race-free. `T: Send` suffices because a cell's value
// only ever moves between threads across a barrier.
unsafe impl<T: Send> Sync for ThreadOwned<T> {}

impl<T> ThreadOwned<T> {
    /// Builds `n` cells from a constructor.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> T) -> Self {
        Self {
            cells: (0..n).map(|i| CachePadded(UnsafeCell::new(f(i)))).collect(),
            #[cfg(debug_assertions)]
            borrows: (0..n).map(|_| AtomicI32::new(0)).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Mutable access to cell `owner` for the duration of `f`.
    ///
    /// # Contract
    /// During a write epoch, only the owning thread calls this for its own
    /// cell, and nobody calls [`read`](Self::read) on that cell. Violations
    /// panic in debug builds.
    #[inline]
    pub fn with_mut<R>(&self, owner: usize, f: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(debug_assertions)]
        let _guard = BorrowGuard::exclusive(&self.borrows[owner]);
        // SAFETY: the epoch contract guarantees no concurrent access to this
        // cell; debug builds enforce it dynamically.

        unsafe { f(&mut *self.cells[owner].0.get()) }
    }

    /// Shared access to cell `i` for the duration of `f`.
    ///
    /// # Contract
    /// During a read epoch no thread mutates cell `i`. Violations panic in
    /// debug builds.
    #[inline]
    pub fn read<R>(&self, i: usize, f: impl FnOnce(&T) -> R) -> R {
        #[cfg(debug_assertions)]
        let _guard = BorrowGuard::shared(&self.borrows[i]);
        // SAFETY: see contract.

        unsafe { f(&*self.cells[i].0.get()) }
    }

    /// Exclusive access to every cell — requires `&mut self`, so the borrow
    /// checker proves no concurrent access (used between runs).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.cells.iter_mut().map(|c| c.0.get_mut())
    }
}

#[cfg(debug_assertions)]
struct BorrowGuard<'a> {
    flag: &'a AtomicI32,
    exclusive: bool,
}

#[cfg(debug_assertions)]
impl<'a> BorrowGuard<'a> {
    fn exclusive(flag: &'a AtomicI32) -> Self {
        let prev = flag.compare_exchange(0, -1, Ordering::Acquire, Ordering::Relaxed);
        assert!(
            prev.is_ok(),
            "ThreadOwned protocol violation: exclusive access while cell is borrowed ({:?})",
            prev
        );
        Self {
            flag,
            exclusive: true,
        }
    }

    fn shared(flag: &'a AtomicI32) -> Self {
        let prev = flag.fetch_add(1, Ordering::Acquire);
        assert!(
            prev >= 0,
            "ThreadOwned protocol violation: shared access while cell is mutably borrowed"
        );
        Self {
            flag,
            exclusive: false,
        }
    }
}

#[cfg(debug_assertions)]
impl Drop for BorrowGuard<'_> {
    fn drop(&mut self) {
        if self.exclusive {
            self.flag.store(0, Ordering::Release);
        } else {
            self.flag.fetch_sub(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_write_then_read() {
        let t = ThreadOwned::from_fn(3, |i| i * 10);
        t.with_mut(1, |v| *v += 5);
        assert_eq!(t.read(1, |v| *v), 15);
        assert_eq!(t.read(0, |v| *v), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn concurrent_distinct_cells_are_fine() {
        let t = ThreadOwned::from_fn(4, |_| 0u64);
        std::thread::scope(|s| {
            for i in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.with_mut(i, |v| *v += 1);
                    }
                });
            }
        });
        for i in 0..4 {
            assert_eq!(t.read(i, |v| *v), 1000);
        }
    }

    #[test]
    fn concurrent_shared_reads_are_fine() {
        let t = ThreadOwned::from_fn(1, |_| 7u32);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..1000 {
                        assert_eq!(t.read(0, |v| *v), 7);
                    }
                });
            }
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "protocol violation")]
    fn nested_mut_and_read_panics_in_debug() {
        let t = ThreadOwned::from_fn(1, |_| 0u32);
        t.with_mut(0, |_| {
            t.read(0, |v| *v);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "protocol violation")]
    fn nested_double_mut_panics_in_debug() {
        let t = ThreadOwned::from_fn(1, |_| 0u32);
        t.with_mut(0, |_| {
            t.with_mut(0, |v| *v += 1);
        });
    }

    #[test]
    fn adjacent_cells_do_not_share_a_line_pair() {
        let t = ThreadOwned::from_fn(4, |_| Vec::<u32>::new());
        let addr = |i: usize| t.with_mut(i, |v| v as *mut Vec<u32> as usize);
        for i in 0..t.len() - 1 {
            let gap = addr(i + 1) - addr(i);
            assert!(gap >= 128, "cells {i} and {} are {gap} bytes apart", i + 1);
        }
        for i in 0..t.len() {
            assert_eq!(addr(i) % 128, 0, "cell {i} is not 128-byte aligned");
        }
    }

    #[test]
    fn iter_mut_resets_everything() {
        let mut t = ThreadOwned::from_fn(3, |_| 9u8);
        for v in t.iter_mut() {
            *v = 0;
        }
        assert!((0..3).all(|i| t.read(i, |v| *v) == 0));
    }
}
