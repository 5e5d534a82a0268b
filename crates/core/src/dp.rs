//! The packed depth+parent (`DP`) array, with epoch-stamped O(touched) reset.
//!
//! §III-B: "Our algorithm stores the *depth* and *parent* of each vertex
//! together in an array, denoted by DP — initialized to INF." §III-A:
//! "Using 8/16/32/64-bits to represent the depth and parent values ensures
//! that the updates to DP are always consistent."
//!
//! Each entry is one 64-bit word — written with a single `Relaxed` atomic
//! store. A plain aligned 8-byte `mov` is exactly what the paper relies on
//! ("the underlying architecture guarantees atomic reads/writes"); Rust
//! expresses that legal racy access as a relaxed atomic, which compiles to
//! the same instruction on x86-64. No read-modify-write (LOCK-prefixed)
//! operation ever touches this array in the atomic-free schemes.
//!
//! # Epoch stamps (query-session fast path)
//!
//! The word layout is `[stamp : E | depth : 32-E | parent : 32]`. A vertex
//! is *assigned* iff its stamp equals the array's current run epoch;
//! anything else — including all the stale words a previous run left behind
//! — reads as INF. [`DepthParent::advance_epoch`] therefore resets the whole
//! array in O(1): it just bumps the epoch. When the epoch counter would wrap
//! (after `2^E − 1` runs), the array is re-zeroed once — the documented
//! periodic O(|V|) cost that keeps stale stamps from aliasing a live epoch.
//!
//! This preserves the §III-A atomic-free argument unchanged: a claim is
//! still one relaxed load (stamp comparison) plus one relaxed aligned store
//! of the whole word. Two same-step racers write identical `(stamp, depth)`
//! bits and possibly different parents — the same benign race as before,
//! with the same "any claimant's parent is a valid BFS parent" resolution.
//!
//! `E` defaults to as many bits as fit above the depth field for the given
//! `|V|` (capped at [`MAX_EPOCH_BITS`]); depths can never exceed `|V| − 1`,
//! so the depth field only needs `ceil(log2(|V|))` bits.

use std::sync::atomic::{AtomicU64, Ordering};

use bfs_platform::MaybeHuge;

use crate::VertexId;

/// Depth value meaning "not yet assigned" (the paper's INF).
pub const INF_DEPTH: u32 = u32::MAX;

/// Most epoch bits an array will take by default: 2^16 − 1 warm runs between
/// full re-zeroes, leaving ≥ 16 bits of depth headroom.
pub const MAX_EPOCH_BITS: u32 = 16;

/// The `DP` array: one atomic word per vertex plus the current run epoch.
pub struct DepthParent {
    words: MaybeHuge<AtomicU64>,
    /// Stamp field width in bits (1..=31). The depth field gets `32 − E`.
    epoch_bits: u32,
    /// Current run epoch, in `1..=2^E − 1` (stamp 0 is "zeroed, never
    /// written").
    epoch: u64,
}

/// Epoch bits for an `n`-vertex array: everything the depth field does not
/// need, capped at [`MAX_EPOCH_BITS`], floor 1.
fn default_epoch_bits(n: usize) -> u32 {
    // Depths reach at most n − 1; bits_for(n - 1) = 64 - leading_zeros.
    let max_depth = n.saturating_sub(1) as u64;
    let depth_bits = (u64::BITS - max_depth.leading_zeros()).max(1);
    32u32.saturating_sub(depth_bits).clamp(1, MAX_EPOCH_BITS)
}

impl DepthParent {
    /// All-unassigned array for `n` vertices with the default stamp width,
    /// heap-backed.
    pub fn new(n: usize) -> Self {
        Self::new_backed(n, false)
    }

    /// [`DepthParent::new`] with an explicit backing request: when `huge`,
    /// the array is placed in a 2 MiB-aligned hugepage arena if the host
    /// supports it (silent heap fallback otherwise — see
    /// [`bfs_platform::MaybeHuge::zeroed`]).
    pub fn new_backed(n: usize, huge: bool) -> Self {
        Self::with_epoch_bits_backed(n, default_epoch_bits(n), huge)
    }

    /// All-unassigned array with an explicit stamp width (tests use tiny
    /// widths to exercise wraparound), heap-backed.
    ///
    /// # Panics
    /// Panics unless `1 <= epoch_bits <= 31` and depths up to `n − 1` fit in
    /// the remaining `32 − epoch_bits` bits.
    pub fn with_epoch_bits(n: usize, epoch_bits: u32) -> Self {
        Self::with_epoch_bits_backed(n, epoch_bits, false)
    }

    /// [`DepthParent::with_epoch_bits`] with an explicit backing request.
    ///
    /// # Panics
    /// Same contract as [`DepthParent::with_epoch_bits`].
    pub fn with_epoch_bits_backed(n: usize, epoch_bits: u32, huge: bool) -> Self {
        assert!(
            (1..=31).contains(&epoch_bits),
            "epoch_bits must be in 1..=31"
        );
        let depth_bits = 32 - epoch_bits;
        assert!(
            n.saturating_sub(1) < (1usize << depth_bits),
            "{n} vertices need deeper depth field than {depth_bits} bits"
        );
        Self {
            words: MaybeHuge::zeroed(n, huge),
            epoch_bits,
            epoch: 1,
        }
    }

    /// Whether the array landed in a hugepage arena.
    pub fn is_hugepage_backed(&self) -> bool {
        self.words.is_huge()
    }

    /// Stamp width in bits.
    pub fn epoch_bits(&self) -> u32 {
        self.epoch_bits
    }

    /// The current run epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when sized for zero vertices.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    #[inline]
    fn stamp_shift(&self) -> u32 {
        64 - self.epoch_bits
    }

    #[inline]
    fn pack(&self, depth: u32, parent: VertexId) -> u64 {
        debug_assert!(
            (depth as u64) < (1u64 << (32 - self.epoch_bits)),
            "depth {depth} overflows the {}-bit depth field",
            32 - self.epoch_bits
        );
        (self.epoch << self.stamp_shift()) | ((depth as u64) << 32) | parent as u64
    }

    #[inline]
    fn unpack(&self, word: u64) -> (u32, VertexId) {
        let depth_mask = (1u64 << (32 - self.epoch_bits)) - 1;
        (((word >> 32) & depth_mask) as u32, word as u32)
    }

    #[inline]
    fn is_current(&self, word: u64) -> bool {
        (word >> self.stamp_shift()) == self.epoch
    }

    /// O(1) between-runs reset: advances the run epoch so every stale entry
    /// reads as INF. Returns `true` when the stamp space wrapped and the
    /// array had to be fully re-zeroed (the periodic O(|V|) fallback).
    pub fn advance_epoch(&mut self) -> bool {
        let max_epoch = (1u64 << self.epoch_bits) - 1;
        if self.epoch == max_epoch {
            for w in self.words.iter_mut() {
                *w.get_mut() = 0;
            }
            self.epoch = 1;
            true
        } else {
            self.epoch += 1;
            false
        }
    }

    /// Full O(|V|) reset to the fresh state (single-threaded, between runs).
    pub fn reset(&mut self) {
        for w in self.words.iter_mut() {
            *w.get_mut() = 0;
        }
        self.epoch = 1;
    }

    /// True if `v` has been assigned a depth this run (racy snapshot; stable
    /// within a step for vertices assigned in earlier steps).
    #[inline]
    pub fn is_assigned(&self, v: VertexId) -> bool {
        self.is_current(self.words[v as usize].load(Ordering::Relaxed))
    }

    /// Atomic-free claim: if `v` is unassigned this run, store
    /// `(epoch, depth, parent)` with a single relaxed store and return
    /// `true`.
    ///
    /// Two threads can both observe a stale stamp and both store — the
    /// benign race of §III-A: both run the same step, so both write the same
    /// depth (possibly different parents), and the BFS tree stays valid. The
    /// caller may therefore enqueue `v` twice; the paper measured ≤ 0.2%
    /// such duplicates.
    #[inline]
    pub fn claim_relaxed(&self, v: VertexId, depth: u32, parent: VertexId) -> bool {
        debug_assert_ne!(depth, INF_DEPTH);
        let w = &self.words[v as usize];
        if self.is_current(w.load(Ordering::Relaxed)) {
            return false;
        }
        w.store(self.pack(depth, parent), Ordering::Relaxed);
        true
    }

    /// Exactly-once claim via compare-exchange — the LOCK-prefixed update
    /// used by the atomic baseline (Figure 2(a)).
    #[inline]
    pub fn claim_atomic(&self, v: VertexId, depth: u32, parent: VertexId) -> bool {
        debug_assert_ne!(depth, INF_DEPTH);
        let w = &self.words[v as usize];
        let mut cur = w.load(Ordering::Relaxed);
        loop {
            if self.is_current(cur) {
                return false;
            }
            match w.compare_exchange_weak(
                cur,
                self.pack(depth, parent),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Unconditional store (used to seed the source vertex).
    #[inline]
    pub fn set(&self, v: VertexId, depth: u32, parent: VertexId) {
        self.words[v as usize].store(self.pack(depth, parent), Ordering::Relaxed);
    }

    /// `(depth, parent)` of `v`, or `None` if unassigned this run.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<(u32, VertexId)> {
        let w = self.words[v as usize].load(Ordering::Relaxed);
        self.is_current(w).then(|| self.unpack(w))
    }

    /// Depth of `v` (INF_DEPTH if unassigned this run).
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        match self.get(v) {
            Some((d, _)) => d,
            None => INF_DEPTH,
        }
    }

    /// Extracts plain `(depths, parents)` vectors (end of traversal);
    /// entries unassigned this run read `(INF_DEPTH, VertexId::MAX)`.
    pub fn into_arrays(self) -> (Vec<u32>, Vec<VertexId>) {
        (0..self.len() as VertexId)
            .map(|v| self.get(v).unwrap_or((INF_DEPTH, VertexId::MAX)))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_inf() {
        let dp = DepthParent::new(4);
        assert_eq!(dp.len(), 4);
        assert!((0..4u32).all(|v| dp.get(v).is_none()));
        assert_eq!(dp.depth(2), INF_DEPTH);
    }

    #[test]
    fn claim_relaxed_first_wins_then_blocks() {
        let dp = DepthParent::new(2);
        assert!(dp.claim_relaxed(1, 3, 0));
        assert!(!dp.claim_relaxed(1, 4, 0));
        assert_eq!(dp.get(1), Some((3, 0)));
    }

    #[test]
    fn claim_atomic_is_exactly_once() {
        let dp = DepthParent::new(1);
        assert!(dp.claim_atomic(0, 1, 0));
        assert!(!dp.claim_atomic(0, 1, 0));
    }

    #[test]
    fn pack_unpack_roundtrip_extremes() {
        let dp = DepthParent::new(1);
        dp.set(0, 0, u32::MAX - 1);
        assert_eq!(dp.get(0), Some((0, u32::MAX - 1)));
        // Largest depth the default field for a 1-vertex array allows is 0;
        // exercise a big array's depth range instead.
        let big = DepthParent::new(1 << 20);
        let max_depth = (1u32 << (32 - big.epoch_bits())) - 1;
        big.set(7, max_depth, 3);
        assert_eq!(big.get(7), Some((max_depth, 3)));
    }

    #[test]
    fn reset_restores_inf() {
        let mut dp = DepthParent::new(3);
        dp.set(1, 5, 2);
        dp.reset();
        assert!(dp.get(1).is_none());
    }

    #[test]
    fn into_arrays_matches_state() {
        let dp = DepthParent::new(3);
        dp.set(0, 0, 0);
        dp.set(2, 1, 0);
        let (d, p) = dp.into_arrays();
        assert_eq!(d, vec![0, INF_DEPTH, 1]);
        assert_eq!(p, vec![0, VertexId::MAX, 0]);
    }

    #[test]
    fn advance_epoch_resets_in_o1() {
        let mut dp = DepthParent::new(8);
        dp.set(3, 2, 1);
        assert!(dp.is_assigned(3));
        assert!(!dp.advance_epoch(), "no wrap on the second epoch");
        assert!(!dp.is_assigned(3), "stale stamp must read as INF");
        assert_eq!(dp.depth(3), INF_DEPTH);
        // The vertex is claimable again in the new epoch.
        assert!(dp.claim_relaxed(3, 7, 0));
        assert_eq!(dp.get(3), Some((7, 0)));
    }

    #[test]
    fn tiny_stamp_width_wraps_with_full_rezero() {
        // E = 2 → epochs {1, 2, 3}; the third advance must wrap and re-zero.
        let mut dp = DepthParent::with_epoch_bits(4, 2);
        assert_eq!(dp.epoch(), 1);
        dp.set(0, 1, 0);
        assert!(!dp.advance_epoch()); // epoch 2
        assert!(!dp.advance_epoch()); // epoch 3
        dp.set(1, 2, 0);
        let wrapped = dp.advance_epoch(); // would be 4 == 2^2 → wrap
        assert!(wrapped, "stamp space exhausted, full re-zero expected");
        assert_eq!(dp.epoch(), 1);
        // Neither the epoch-1 write nor the epoch-3 write may leak through.
        assert!(dp.get(0).is_none());
        assert!(dp.get(1).is_none());
    }

    #[test]
    fn claims_stay_correct_across_many_epochs() {
        let mut dp = DepthParent::with_epoch_bits(4, 2);
        for run in 0..20u32 {
            assert!(dp.claim_relaxed(2, run % 3, 1), "run {run}");
            assert!(!dp.claim_relaxed(2, run % 3, 1));
            assert!(dp.claim_atomic(3, run % 3, 2));
            assert!(!dp.claim_atomic(3, run % 3, 2));
            dp.advance_epoch();
        }
    }

    #[test]
    fn default_epoch_bits_scale_with_size() {
        // The sizing rule is pure arithmetic: test it without allocating
        // the multi-GiB arrays it sizes.
        assert_eq!(default_epoch_bits(1), MAX_EPOCH_BITS);
        assert_eq!(default_epoch_bits(1 << 20), 12);
        // Near the marker-encoding ceiling the stamp narrows but survives.
        assert_eq!(default_epoch_bits(1 << 30), 2);
        assert_eq!(default_epoch_bits((1 << 31) - 1), 1);
        // `new` delegates to the rule.
        assert_eq!(DepthParent::new(1 << 20).epoch_bits(), 12);
    }

    #[test]
    #[should_panic(expected = "epoch_bits")]
    fn rejects_zero_epoch_bits() {
        DepthParent::with_epoch_bits(4, 0);
    }

    #[test]
    #[should_panic(expected = "depth field")]
    fn rejects_depth_field_too_narrow() {
        DepthParent::with_epoch_bits(1 << 20, 16);
    }

    #[test]
    fn into_arrays_reads_only_the_current_epoch() {
        let mut dp = DepthParent::new(100);
        dp.set(5, 1, 4);
        dp.advance_epoch();
        dp.set(7, 2, 6);
        let (d, p) = dp.into_arrays();
        assert_eq!(d.len(), 100);
        assert_eq!((d[7], p[7]), (2, 6));
        // Written in an earlier epoch: stale, so unassigned.
        assert_eq!((d[5], p[5]), (INF_DEPTH, VertexId::MAX));
        assert_eq!(d.iter().filter(|&&x| x != INF_DEPTH).count(), 1);
    }

    #[test]
    fn concurrent_same_step_claims_agree_on_depth() {
        // The benign race: many threads claim the same vertex with the same
        // depth but different parents. Afterwards the depth must be that
        // step's depth and the parent one of the claimants'.
        use std::sync::Arc;
        let dp = Arc::new(DepthParent::new(1));
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let dp = Arc::clone(&dp);
                std::thread::spawn(move || dp.claim_relaxed(0, 0, t))
            })
            .collect();
        let wins = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&won| won)
            .count();
        assert!(wins >= 1, "at least one claim must succeed");
        let (d, p) = dp.get(0).unwrap();
        assert_eq!(d, 0);
        assert!(p < 8);
    }
}
