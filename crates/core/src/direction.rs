//! Direction-optimizing traversal: the per-level top-down / bottom-up
//! decision and the dense frontier bitmap the bottom-up kernel scans.
//!
//! The paper's engine always expands the frontier *top-down*: every frontier
//! vertex pushes its neighbors through the PBV/VIS/DP pipeline. On
//! low-diameter scale-free graphs the middle levels touch most edges
//! redundantly — nearly every neighbor is already visited. Direction-
//! optimizing BFS (Beamer, Asanović, Patterson, SC'12) flips those levels
//! *bottom-up*: scan the still-unvisited vertices and probe their neighbor
//! lists for any parent in the current frontier, stopping at the first hit.
//! A vertex with `k` frontier parents costs one edge check instead of `k`
//! claim attempts.
//!
//! The switch heuristic is the classic α/β rule:
//!
//! * top-down → bottom-up when `m_f > m_u / α` (the frontier's out-edges
//!   outgrow the unexplored edges by factor α);
//! * bottom-up → top-down when `n_f < n / β` (the frontier shrinks back
//!   below a 1/β fraction of all vertices).
//!
//! The defaults α = 15, β = 18 are the empirically tuned values from the
//! Beamer SC'12 paper, also used by the GAP benchmark suite reference
//! implementation.
//!
//! Bottom-up steps keep the substrate's §III-A story intact: the scan walks
//! vertex ranges in bin order (one `VIS`/`DP` partition at a time, the same
//! residency argument as Phase II), each vertex is claimed by exactly one
//! thread (ranges are disjoint), so `DP` writes stay single aligned stores
//! with no race at all — stronger than the benign claim race of the
//! top-down path.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::VertexId;

/// Default α (top-down → bottom-up trigger): Beamer SC'12 / GAP value.
pub const DEFAULT_ALPHA: f64 = 15.0;
/// Default β (bottom-up → top-down trigger): Beamer SC'12 / GAP value.
pub const DEFAULT_BETA: f64 = 18.0;

/// The kernel a BFS level ran (or is about to run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Expand the frontier through the two-phase PBV pipeline (Figure 3).
    #[default]
    TopDown,
    /// Scan unvisited vertex ranges, probing neighbors against the frontier
    /// bitmap.
    BottomUp,
}

impl Direction {
    /// Stable lowercase name used in traces and JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::TopDown => "top-down",
            Direction::BottomUp => "bottom-up",
        }
    }
}

/// Number of per-level direction changes in a run's step-direction log
/// (the `direction_switches` metric; 0 for forced policies and for runs
/// the adaptive policy kept in one kernel).
pub fn count_switches(dirs: &[Direction]) -> u64 {
    dirs.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

/// Per-level direction selection.
///
/// The engine default is [`ForcedTopDown`](DirectionPolicy::ForcedTopDown):
/// the paper's figure experiments measure the top-down pipeline, and the
/// bottom-up kernel requires the graph's doubled-edge symmetric convention
/// (out-neighbors = in-neighbors), which the engine cannot afford to verify
/// per build. Opt into [`auto`](DirectionPolicy::auto) for hybrid traversal
/// of undirected graphs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum DirectionPolicy {
    /// Beamer-style switching on the α/β thresholds above.
    Auto {
        /// Top-down → bottom-up when `frontier_edges > unexplored_edges / α`.
        alpha: f64,
        /// Bottom-up → top-down when `frontier_vertices < n / β`.
        beta: f64,
    },
    /// Every level top-down (the paper's engine, bit-for-bit).
    #[default]
    ForcedTopDown,
    /// Every level bottom-up (crossover measurement; pays the full
    /// unvisited scan even on tiny frontiers).
    ForcedBottomUp,
}

/// The per-level quantities the α/β rule consumes. All of them are computed
/// once per step from the accumulators every thread already maintains, so a
/// decision costs four relaxed loads and two float compares.
#[derive(Clone, Copy, Debug)]
pub struct DecisionInputs {
    /// `n_f`: vertices enqueued into the current frontier.
    pub frontier_vertices: u64,
    /// `m_f`: sum of out-degrees of the current frontier.
    pub frontier_edges: u64,
    /// `m_u`: directed edges incident to not-yet-claimed vertices
    /// (approximated as total minus explored; exact enough for a heuristic).
    pub unexplored_edges: u64,
    /// `n`: vertices in the graph.
    pub total_vertices: u64,
}

impl DirectionPolicy {
    /// [`DirectionPolicy::Auto`] with the Beamer/GAP default thresholds.
    pub fn auto() -> Self {
        DirectionPolicy::Auto {
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
        }
    }

    /// Whether any level could run bottom-up (sizes the frontier bitmap:
    /// zero words for a forced-top-down engine).
    pub fn may_go_bottom_up(&self) -> bool {
        !matches!(self, DirectionPolicy::ForcedTopDown)
    }

    /// The direction for the level about to run, given the direction the
    /// previous level ran. Pure and deterministic: every thread evaluates it
    /// on the same inputs and reaches the same answer without communication.
    pub fn decide(&self, prev: Direction, i: DecisionInputs) -> Direction {
        match *self {
            DirectionPolicy::ForcedTopDown => Direction::TopDown,
            DirectionPolicy::ForcedBottomUp => Direction::BottomUp,
            DirectionPolicy::Auto { alpha, beta } => match prev {
                Direction::TopDown => {
                    if (i.frontier_edges as f64) * alpha.max(f64::MIN_POSITIVE)
                        > i.unexplored_edges as f64
                    {
                        Direction::BottomUp
                    } else {
                        Direction::TopDown
                    }
                }
                Direction::BottomUp => {
                    if (i.frontier_vertices as f64) * beta.max(f64::MIN_POSITIVE)
                        < i.total_vertices as f64
                    {
                        Direction::TopDown
                    } else {
                        Direction::BottomUp
                    }
                }
            },
        }
    }
}

/// Dense frontier bitmaps for bottom-up steps: two halves of one bit per
/// vertex each, shared across threads, in one arena.
///
/// A bottom-up level reads the current frontier from one half and records
/// each vertex it claims in the other, so the next bottom-up level finds
/// its frontier already dense (the hand-off). The scan is ascending, so a
/// lane builds each 64-bit word in a register (`BitmapWriter`) and ORs it
/// in once, with a relaxed `fetch_or`: at most one read-modify-write per
/// word a lane touches instead of one per claimed vertex. The OR stays
/// atomic because lanes' scan ranges can split a word. Only the first
/// bottom-up level of a run of them converts the sparse per-thread
/// frontier lists (sparse → dense, [`set_list`](Self::set_list)); the lists
/// stay the engine's source of truth for top-down levels.
///
/// Each half is zeroed once its readers are done: after a bottom-up
/// level's read barrier every lane clears its contiguous stripe of the
/// half the level consumed ([`clear_stripe`](Self::clear_stripe), O(n/64/T)
/// words), and a top-down level that follows a bottom-up one clears the
/// handed-off half the same way. Both halves are therefore all-zero at
/// every run end, which is what makes session reuse free.
///
/// Bit layout follows vertex order, so a bin's bits are contiguous: scanning
/// vertex ranges in bin order keeps the probed window of the bitmap
/// cache-resident alongside the bin's `VIS`/`DP` stripe (§III-A).
pub struct FrontierBitmap {
    /// Half `h` is `words[h * half_words..(h + 1) * half_words]`.
    words: bfs_platform::MaybeHuge<AtomicU64>,
    half_words: usize,
}

impl FrontierBitmap {
    /// Two halves covering `n` vertices each (all bits clear), heap-backed.
    /// `n = 0` is valid and allocates nothing — the forced-top-down engine's
    /// case.
    pub fn new(n: usize) -> Self {
        Self::new_backed(n, false)
    }

    /// [`FrontierBitmap::new`] with an explicit backing request: when
    /// `huge`, both halves are placed in one 2 MiB-aligned hugepage arena if
    /// the host supports it (silent heap fallback otherwise).
    pub fn new_backed(n: usize, huge: bool) -> Self {
        let half_words = n.div_ceil(64);
        Self {
            words: bfs_platform::MaybeHuge::zeroed(2 * half_words, huge),
            half_words,
        }
    }

    /// Whether the bitmap landed in a hugepage arena.
    pub fn is_hugepage_backed(&self) -> bool {
        self.words.is_huge()
    }

    /// Heap bytes held (both halves).
    pub fn footprint(&self) -> usize {
        self.words.len() * 8
    }

    fn half(&self, half: usize) -> &[AtomicU64] {
        &self.words[half * self.half_words..(half + 1) * self.half_words]
    }

    /// Reads `v`'s bit in `half` (relaxed; callers sequence the read after
    /// the publishing barrier).
    #[inline]
    pub fn contains(&self, half: usize, v: VertexId) -> bool {
        self.words[half * self.half_words + (v >> 6) as usize].load(Ordering::Relaxed)
            & (1 << (v & 63))
            != 0
    }

    /// A word-coalescing writer into `half`.
    pub(crate) fn writer(&self, half: usize) -> BitmapWriter<'_> {
        BitmapWriter {
            words: self.half(half),
            word: 0,
            bits: 0,
        }
    }

    /// ORs every vertex of `list` into `half` (the sparse → dense
    /// conversion; each thread converts its own frontier list). Runs of
    /// ids sharing a word cost one `fetch_or`.
    pub fn set_list(&self, half: usize, list: &[VertexId]) {
        let mut w = self.writer(half);
        for &v in list {
            w.insert(v);
        }
        w.flush();
    }

    /// Zeroes lane `lane`'s contiguous stripe `[W·lane/L, W·(lane+1)/L)`
    /// of the `W` words of `half`, `L` being `lanes`. Plain relaxed stores:
    /// callers run it only after every reader of `half` is past a barrier,
    /// and before the barrier that lets anyone write it.
    pub fn clear_stripe(&self, half: usize, lane: usize, lanes: usize) {
        for w in &self.half(half)[stripe(self.half_words, lane, lanes)] {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// True when no bit is set in either half (test hook for the clear
    /// protocol).
    pub fn is_clear(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Relaxed) == 0)
    }
}

/// Lane `lane`'s contiguous stripe `[W·lane/L, W·(lane+1)/L)` of `words`
/// words; the stripes of lanes `0..lanes` partition `0..words` (some are
/// empty when `words < lanes`).
pub(crate) fn stripe(words: usize, lane: usize, lanes: usize) -> std::ops::Range<usize> {
    words * lane / lanes..words * (lane + 1) / lanes
}

/// Builds one bitmap word at a time in a register and ORs it into the half
/// when the next id falls in another word, or on [`flush`](Self::flush).
/// Any id order is correct; ascending order gives one `fetch_or` per word.
pub(crate) struct BitmapWriter<'a> {
    words: &'a [AtomicU64],
    word: usize,
    bits: u64,
}

impl BitmapWriter<'_> {
    /// Adds `v`'s bit.
    #[inline]
    pub(crate) fn insert(&mut self, v: VertexId) {
        let w = (v >> 6) as usize;
        if w != self.word {
            self.flush();
            self.word = w;
        }
        self.bits |= 1 << (v & 63);
    }

    /// ORs the pending word in (a no-op when nothing is pending). Call it
    /// before the barrier that publishes the half.
    #[inline]
    pub(crate) fn flush(&mut self) {
        if self.bits != 0 {
            self.words[self.word].fetch_or(self.bits, Ordering::Relaxed);
            self.bits = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n_f: u64, m_f: u64, m_u: u64, n: u64) -> DecisionInputs {
        DecisionInputs {
            frontier_vertices: n_f,
            frontier_edges: m_f,
            unexplored_edges: m_u,
            total_vertices: n,
        }
    }

    #[test]
    fn forced_policies_ignore_inputs() {
        let i = inputs(1, 1, 1_000_000, 1_000_000);
        for prev in [Direction::TopDown, Direction::BottomUp] {
            assert_eq!(
                DirectionPolicy::ForcedTopDown.decide(prev, i),
                Direction::TopDown
            );
            assert_eq!(
                DirectionPolicy::ForcedBottomUp.decide(prev, i),
                Direction::BottomUp
            );
        }
    }

    #[test]
    fn auto_switches_down_on_heavy_frontier_and_back_on_light() {
        let p = DirectionPolicy::auto();
        // Frontier edges dwarf the unexplored remainder → go bottom-up.
        assert_eq!(
            p.decide(Direction::TopDown, inputs(100, 900, 1_000, 1_000)),
            Direction::BottomUp
        );
        // Tiny frontier early in the traversal → stay top-down.
        assert_eq!(
            p.decide(Direction::TopDown, inputs(1, 8, 1_000_000, 100_000)),
            Direction::TopDown
        );
        // Frontier shrinks below n/β → return to top-down.
        assert_eq!(
            p.decide(Direction::BottomUp, inputs(10, 80, 500, 100_000)),
            Direction::TopDown
        );
        // Frontier still covers most vertices → stay bottom-up.
        assert_eq!(
            p.decide(Direction::BottomUp, inputs(90_000, 100, 500, 100_000)),
            Direction::BottomUp
        );
    }

    #[test]
    fn default_policy_is_forced_top_down() {
        assert_eq!(DirectionPolicy::default(), DirectionPolicy::ForcedTopDown);
        assert!(!DirectionPolicy::default().may_go_bottom_up());
        assert!(DirectionPolicy::auto().may_go_bottom_up());
        assert!(DirectionPolicy::ForcedBottomUp.may_go_bottom_up());
    }

    #[test]
    fn bitmap_set_contains_clear_roundtrip() {
        let bm = FrontierBitmap::new(200);
        assert_eq!(bm.footprint(), 2 * 4 * 8);
        assert!(bm.is_clear());
        let ids = [0u32, 63, 64, 127, 199];
        bm.set_list(0, &ids);
        for v in ids {
            assert!(bm.contains(0, v));
            assert!(!bm.contains(1, v), "halves must not alias");
        }
        assert!(!bm.contains(0, 1));
        assert!(!bm.contains(0, 128));
        // The other half fills independently; unsorted input still lands.
        bm.set_list(1, &[199, 5, 64, 6]);
        for v in [5u32, 6, 64, 199] {
            assert!(bm.contains(1, v));
        }
        assert!(!bm.contains(0, 5));
        // One lane's stripe of one half leaves the rest set.
        bm.clear_stripe(0, 0, 2);
        assert!(!bm.contains(0, 0) && !bm.contains(0, 127));
        assert!(bm.contains(0, 199) && bm.contains(1, 5));
        assert!(!bm.is_clear());
        bm.clear_stripe(0, 1, 2);
        assert!(!bm.is_clear(), "is_clear must see the second half");
        for lane in 0..3 {
            bm.clear_stripe(1, lane, 3);
        }
        assert!(bm.is_clear());
    }

    #[test]
    fn stripes_partition_the_words() {
        for words in [0usize, 1, 2, 3, 6, 7, 64, 1000] {
            for lanes in 1..=7 {
                let mut next = 0;
                for lane in 0..lanes {
                    let r = stripe(words, lane, lanes);
                    assert_eq!(r.start, next, "{words} words, {lanes} lanes");
                    assert!(r.end >= r.start);
                    next = r.end;
                }
                assert_eq!(next, words, "{words} words, {lanes} lanes");
            }
        }
        // Every stripe cleared by its own lane zeroes the whole half.
        for n in [1usize, 63, 64, 65, 127, 1000] {
            for lanes in 1..=7 {
                let bm = FrontierBitmap::new(n);
                let all: Vec<VertexId> = (0..n as VertexId).collect();
                bm.set_list(1, &all);
                for lane in 0..lanes {
                    bm.clear_stripe(1, lane, lanes);
                }
                assert!(bm.is_clear(), "n = {n}, {lanes} lanes");
            }
        }
    }

    #[test]
    fn writers_sharing_a_word_both_land() {
        let bm = FrontierBitmap::new(130);
        // Two lanes whose ascending ranges split word 1 (ids 64..128).
        let mut a = bm.writer(1);
        let mut b = bm.writer(1);
        for v in [3u32, 60, 70, 90] {
            a.insert(v);
        }
        for v in [91u32, 100, 129] {
            b.insert(v);
        }
        a.flush();
        b.flush();
        for v in [3u32, 60, 70, 90, 91, 100, 129] {
            assert!(bm.contains(1, v), "bit {v} lost");
        }
        assert!(!bm.contains(1, 92));
        assert!(!bm.contains(0, 70));
        // Concurrent writers into one word from two threads.
        let bm = FrontierBitmap::new(64);
        std::thread::scope(|s| {
            for lane in 0..2u32 {
                let bm = &bm;
                s.spawn(move || {
                    let mut w = bm.writer(0);
                    for v in (lane * 32)..(lane * 32 + 32) {
                        w.insert(v);
                    }
                    w.flush();
                });
            }
        });
        assert!((0..64).all(|v| bm.contains(0, v)));
    }

    #[test]
    fn empty_bitmap_is_free() {
        let bm = FrontierBitmap::new(0);
        assert_eq!(bm.footprint(), 0);
        assert!(bm.is_clear());
    }

    #[test]
    fn direction_serializes_stably() {
        assert_eq!(Direction::TopDown.as_str(), "top-down");
        assert_eq!(Direction::BottomUp.as_str(), "bottom-up");
        let json = serde_json::to_string(&vec![Direction::TopDown, Direction::BottomUp]).unwrap();
        let back: Vec<Direction> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, vec![Direction::TopDown, Direction::BottomUp]);
    }
}
