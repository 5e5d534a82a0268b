//! The `VIS` visited-filter schemes of §III-A / Figure 4.
//!
//! `VIS` exists purely to *filter* expensive `DP` accesses: bit value 1 means
//! "depth definitely assigned" (skip), bit value 0 means "possibly
//! unassigned" (fall through to the `DP` check). The paper's invariant:
//!
//! > "a bit value of 0 in our VIS array implies that the depth of the
//! > corresponding vertex may possibly have been updated, while bit value of
//! > 1 implies that the depth of the corresponding vertex has definitely been
//! > updated."
//!
//! Four schemes are compared in Figure 4, all provided here behind one
//! interface:
//!
//! * [`VisScheme::None`] — no filter; every edge checks `DP` directly.
//! * [`VisScheme::AtomicBit`] — bit array updated with LOCK-prefixed
//!   `fetch_or` (Agarwal et al.; Figure 2(a)).
//! * [`VisScheme::Byte`] — one byte per vertex, plain relaxed load/store.
//!   No races lose updates (each byte has one flag), but 8× the footprint.
//! * [`VisScheme::Bit`] — one *bit* per vertex updated with a plain
//!   load-then-store of the whole byte (Figure 2(b)). Two threads updating
//!   different bits of one byte can lose a bit — the benign race that the
//!   mandatory `DP` re-check absorbs. This is the paper's scheme; with
//!   `N_VIS` partitions it is the *partitioned* series of Figure 4.

use std::sync::atomic::{AtomicU8, Ordering};

use bfs_platform::MaybeHuge;
use serde::{Deserialize, Serialize};

use crate::VertexId;

/// Which VIS representation to use (the Figure 4 series).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VisScheme {
    /// No auxiliary structure: check `DP` per edge.
    None,
    /// Atomic (LOCK `fetch_or`) bit array, one RMW per edge — the literal
    /// Figure 2(a) protocol, used for the Figure 4 comparison.
    AtomicBit,
    /// Test-first atomic bit array ("test-and-test-and-set"): a plain read
    /// per edge, a LOCK `fetch_or` only for apparently-unvisited vertices.
    /// This is how tuned atomic-bitmap BFS codes (the Agarwal et al.
    /// baseline of Figure 6) amortize the LOCK cost to once per vertex.
    AtomicBitTest,
    /// Atomic-free byte array.
    Byte,
    /// Atomic-free bit array (the paper's scheme).
    #[default]
    Bit,
}

impl VisScheme {
    /// Storage bytes needed for `n` vertices.
    pub fn storage_bytes(&self, n: usize) -> usize {
        match self {
            VisScheme::None => 0,
            VisScheme::AtomicBit | VisScheme::AtomicBitTest | VisScheme::Bit => n.div_ceil(8),
            VisScheme::Byte => n,
        }
    }

    /// All schemes in the order Figure 4 plots them (plus the tuned
    /// test-first atomic variant used by the Figure 6 baseline).
    pub const ALL: [VisScheme; 5] = [
        VisScheme::None,
        VisScheme::AtomicBit,
        VisScheme::AtomicBitTest,
        VisScheme::Byte,
        VisScheme::Bit,
    ];
}

/// A VIS instance: shared, concurrently updated visited filter.
pub struct Vis {
    scheme: VisScheme,
    bytes: MaybeHuge<AtomicU8>,
    n: usize,
}

impl Vis {
    /// Zeroed filter for `n` vertices under `scheme`, heap-backed.
    pub fn new(scheme: VisScheme, n: usize) -> Self {
        Self::new_backed(scheme, n, false)
    }

    /// [`Vis::new`] with an explicit backing request: when `huge`, the
    /// filter is placed in a 2 MiB-aligned hugepage arena if the host
    /// supports it (silent heap fallback otherwise).
    pub fn new_backed(scheme: VisScheme, n: usize, huge: bool) -> Self {
        Self {
            scheme,
            bytes: MaybeHuge::zeroed(scheme.storage_bytes(n), huge),
            n,
        }
    }

    /// Whether the filter landed in a hugepage arena.
    pub fn is_hugepage_backed(&self) -> bool {
        self.bytes.is_huge()
    }

    /// The scheme in use.
    pub fn scheme(&self) -> VisScheme {
        self.scheme
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a zero-vertex filter.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Zeroes the filter in one sequential pass (single-threaded, between
    /// runs): `n/8` bytes for the bit schemes, `n` for [`VisScheme::Byte`].
    pub fn reset(&mut self) {
        for b in self.bytes.iter_mut() {
            *b.get_mut() = 0;
        }
    }

    /// Filter probe + mark: returns `true` iff the vertex is **definitely
    /// visited** (caller may skip it without touching `DP`). Returns
    /// `false` otherwise, after marking the vertex visited per the scheme —
    /// the caller must then consult `DP` before claiming the vertex.
    #[inline]
    pub fn definitely_visited_or_mark(&self, v: VertexId) -> bool {
        let i = v as usize;
        debug_assert!(i < self.n);
        match self.scheme {
            VisScheme::None => false,
            VisScheme::AtomicBit => {
                let mask = 1u8 << (i & 7);
                // LOCK OR; returns the previous byte, so the previous bit
                // tells us whether some thread already claimed the vertex.
                let prev = self.bytes[i >> 3].fetch_or(mask, Ordering::Relaxed);
                prev & mask != 0
            }
            VisScheme::AtomicBitTest => {
                let mask = 1u8 << (i & 7);
                let b = &self.bytes[i >> 3];
                // Plain read filters visited vertices without a LOCK...
                if b.load(Ordering::Relaxed) & mask != 0 {
                    return true;
                }
                // ...and the claim itself is still exactly-once.
                let prev = b.fetch_or(mask, Ordering::Relaxed);
                prev & mask != 0
            }
            VisScheme::Byte => {
                let b = &self.bytes[i];
                if b.load(Ordering::Relaxed) != 0 {
                    true
                } else {
                    b.store(1, Ordering::Relaxed);
                    false
                }
            }
            VisScheme::Bit => {
                let mask = 1u8 << (i & 7);
                let b = &self.bytes[i >> 3];
                let cur = b.load(Ordering::Relaxed);
                if cur & mask != 0 {
                    true
                } else {
                    // Plain read-modify-write of the byte: concurrent updates
                    // to *other* bits of this byte may be lost (Figure 2(b)).
                    b.store(cur | mask, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Read-only probe (no marking). With `VisScheme::None` this is always
    /// `false`.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        let i = v as usize;
        match self.scheme {
            VisScheme::None => false,
            VisScheme::Byte => self.bytes[i].load(Ordering::Relaxed) != 0,
            VisScheme::AtomicBit | VisScheme::AtomicBitTest | VisScheme::Bit => {
                self.bytes[i >> 3].load(Ordering::Relaxed) & (1 << (i & 7)) != 0
            }
        }
    }

    /// Marks without probing (used to seed the source vertex).
    #[inline]
    pub fn mark(&self, v: VertexId) {
        let _ = self.definitely_visited_or_mark(v);
    }

    /// Storage footprint in bytes.
    pub fn footprint(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_sizes() {
        assert_eq!(VisScheme::None.storage_bytes(1000), 0);
        assert_eq!(VisScheme::Bit.storage_bytes(1000), 125);
        assert_eq!(VisScheme::AtomicBit.storage_bytes(9), 2);
        assert_eq!(VisScheme::Byte.storage_bytes(1000), 1000);
    }

    #[test]
    fn none_scheme_never_filters() {
        let v = Vis::new(VisScheme::None, 8);
        assert!(!v.definitely_visited_or_mark(3));
        assert!(!v.definitely_visited_or_mark(3));
        assert!(!v.is_marked(3));
        assert_eq!(v.footprint(), 0);
    }

    #[test]
    fn marking_schemes_filter_second_probe() {
        for scheme in [
            VisScheme::AtomicBit,
            VisScheme::AtomicBitTest,
            VisScheme::Byte,
            VisScheme::Bit,
        ] {
            let v = Vis::new(scheme, 64);
            assert!(!v.definitely_visited_or_mark(17), "{scheme:?}");
            assert!(v.definitely_visited_or_mark(17), "{scheme:?}");
            assert!(v.is_marked(17), "{scheme:?}");
            assert!(!v.is_marked(18), "{scheme:?}");
        }
    }

    #[test]
    fn bit_scheme_can_lose_a_neighbor_bit_but_byte_cannot() {
        // Deterministic demonstration of the §III-A scenario (2): simulate
        // two "threads" interleaved at the load/store boundary on bits 0 and
        // 1 of one byte. The Bit scheme loses one of the bits; the DP
        // re-check (modeled by the caller) is what restores correctness.
        let v = Vis::new(VisScheme::Bit, 8);
        let b = &v.bytes[0];
        // t1 loads (0), t2 loads (0), t1 stores bit0, t2 stores bit1 — t2's
        // store overwrites t1's.
        let t1 = b.load(Ordering::Relaxed);
        let t2 = b.load(Ordering::Relaxed);
        b.store(t1 | 0b01, Ordering::Relaxed);
        b.store(t2 | 0b10, Ordering::Relaxed);
        assert!(
            !v.is_marked(0),
            "bit 0 was lost — the documented benign race"
        );
        assert!(v.is_marked(1));
    }

    #[test]
    fn atomic_scheme_never_loses_bits_under_concurrency() {
        use std::sync::Arc;
        let v = Arc::new(Vis::new(VisScheme::AtomicBit, 1024));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    // Each thread sets a distinct bit of every byte.
                    for i in 0..128u32 {
                        v.definitely_visited_or_mark(i * 8 + t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..1024u32 {
            assert!(v.is_marked(i), "bit {i} lost under atomic scheme");
        }
    }

    #[test]
    fn exactly_one_thread_wins_first_probe_atomic() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let v = Arc::new(Vis::new(VisScheme::AtomicBit, 8));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let v = Arc::clone(&v);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    if !v.definitely_visited_or_mark(5) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reset_clears_everything() {
        for scheme in [VisScheme::AtomicBit, VisScheme::Byte, VisScheme::Bit] {
            let mut v = Vis::new(scheme, 32);
            v.mark(9);
            v.reset();
            assert!(!v.is_marked(9));
        }
    }

    #[test]
    fn zero_vertex_filter() {
        let v = Vis::new(VisScheme::Bit, 0);
        assert!(v.is_empty());
        assert_eq!(v.footprint(), 0);
    }
}
