//! Frontier buffers and the TLB-aware rearrangement (§III-B3(b), §III-C(7)).
//!
//! Spatially incoherent frontier order makes every `Adj` access a potential
//! TLB miss once the adjacency array outgrows the TLB's reach. Rather than
//! multi-pass processing (which would re-read `BV_t^N` several times), the
//! paper performs a **one-pass histogram reorder** of each thread's next
//! frontier at the end of every step, following the partitioning scheme of
//! Kim et al. \[20\]: histogram → scatter into a temporary array → copy back.
//! The number of histogram bins is the total pages of `Adj` divided by the
//! pages the TLB can hold, so consecutive frontier entries land within one
//! TLB window of adjacency pages.

use bfs_graph::CsrGraph;

use crate::VertexId;

/// Result of a rearrangement pass (for stats and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RearrangeInfo {
    /// Histogram bins used.
    pub bins: usize,
    /// Entries reordered.
    pub entries: usize,
}

/// Computes the histogram key of a vertex: which TLB-window of `Adj` pages
/// its adjacency list starts in.
#[inline]
pub fn page_window_key(
    graph: &CsrGraph,
    v: VertexId,
    page_bytes: u64,
    pages_per_window: u64,
) -> usize {
    (graph.adjacency_byte_offset(v) / page_bytes / pages_per_window) as usize
}

/// Number of histogram bins for a graph: `ceil(total Adj pages /
/// tlb_entries)`, at least 1.
pub fn histogram_bins(graph: &CsrGraph, page_bytes: u64, tlb_entries: u64) -> usize {
    let pages = graph.adjacency_bytes().div_ceil(page_bytes).max(1);
    pages.div_ceil(tlb_entries.max(1)).max(1) as usize
}

/// The retained buffers of [`rearrange_frontier`]: the temporary array
/// (the paper's extra 8 bytes per vertex of rearrangement traffic) and the
/// page-window histogram. Both keep their capacity across calls, so a warm
/// rearrangement allocates nothing.
#[derive(Debug, Default)]
pub struct RearrangeScratch {
    entries: Vec<VertexId>,
    hist: Vec<usize>,
}

impl RearrangeScratch {
    /// Retained capacity in `u32` words (a histogram count is a `usize`).
    pub fn capacity_words(&self) -> usize {
        self.entries.capacity()
            + self.hist.capacity() * (std::mem::size_of::<usize>() / std::mem::size_of::<u32>())
    }
}

/// Stable one-pass counting-sort of `frontier` by adjacency page window,
/// through `scratch`, whose buffers are resized as needed.
pub fn rearrange_frontier(
    frontier: &mut [VertexId],
    graph: &CsrGraph,
    page_bytes: u64,
    tlb_entries: u64,
    scratch: &mut RearrangeScratch,
) -> RearrangeInfo {
    let bins = histogram_bins(graph, page_bytes, tlb_entries);
    let info = RearrangeInfo {
        bins,
        entries: frontier.len(),
    };
    if bins <= 1 || frontier.len() <= 1 {
        return info; // already within one TLB window
    }
    let pages = graph.adjacency_bytes().div_ceil(page_bytes).max(1);
    let pages_per_window = pages.div_ceil(bins as u64).max(1);

    let RearrangeScratch { entries, hist } = scratch;
    // Pass 1: histogram, turned into each window's first slot.
    hist.clear();
    hist.resize(bins + 1, 0);
    for &v in frontier.iter() {
        hist[page_window_key(graph, v, page_bytes, pages_per_window) + 1] += 1;
    }
    for i in 0..bins {
        hist[i + 1] += hist[i];
    }
    // Pass 2: stable scatter into the temporary array.
    entries.clear();
    entries.resize(frontier.len(), 0);
    for &v in frontier.iter() {
        let k = page_window_key(graph, v, page_bytes, pages_per_window);
        entries[hist[k]] = v;
        hist[k] += 1;
    }
    // Pass 3: copy back.
    frontier.copy_from_slice(entries);
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfs_graph::gen::uniform::uniform_random_directed;
    use bfs_graph::rng::rng_from_seed;

    fn keys(g: &CsrGraph, f: &[u32], page: u64, tlb: u64) -> Vec<usize> {
        let pages = g.adjacency_bytes().div_ceil(page).max(1);
        let bins = histogram_bins(g, page, tlb) as u64;
        let ppw = pages.div_ceil(bins).max(1);
        f.iter()
            .map(|&v| page_window_key(g, v, page, ppw))
            .collect()
    }

    #[test]
    fn rearrangement_sorts_by_page_window_and_permutes() {
        let g = uniform_random_directed(4096, 8, &mut rng_from_seed(1));
        // 4096 * 8 * 4 B = 128 KB of Adj = 32 pages; 4-entry TLB → 8 bins.
        let mut f: Vec<u32> = (0..4096u32).rev().collect();
        let mut sorted_copy = f.clone();
        sorted_copy.sort_unstable();
        let mut scratch = RearrangeScratch::default();
        let info = rearrange_frontier(&mut f, &g, 4096, 4, &mut scratch);
        assert_eq!(info.entries, 4096);
        assert!(info.bins >= 8);
        let ks = keys(&g, &f, 4096, 4);
        assert!(ks.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
        let mut perm_check = f.clone();
        perm_check.sort_unstable();
        assert_eq!(perm_check, sorted_copy, "must be a permutation");
    }

    #[test]
    fn rearrangement_is_stable_within_a_window() {
        let g = uniform_random_directed(1024, 4, &mut rng_from_seed(2));
        let mut f: Vec<u32> = vec![800, 3, 801, 5, 802, 4];
        let mut scratch = RearrangeScratch::default();
        rearrange_frontier(&mut f, &g, 4096, 1, &mut scratch);
        // Entries with equal keys keep input order: 3 appears before 5,
        // 5 before 4 iff they share a window.
        let ks = keys(&g, &f, 4096, 1);
        for w in ks.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // stability: find positions of 3 and 5 (same low window for a small
        // contiguous-degree graph) — 3 must precede 5 which must precede 4
        // whenever keys are equal.
        let pos = |x: u32| f.iter().position(|&v| v == x).unwrap();
        let same_key = |a: u32, b: u32| {
            let ka = keys(&g, &[a], 4096, 1)[0];
            let kb = keys(&g, &[b], 4096, 1)[0];
            ka == kb
        };
        if same_key(3, 5) {
            assert!(pos(3) < pos(5));
        }
        if same_key(5, 4) {
            assert!(pos(5) < pos(4));
        }
    }

    #[test]
    fn small_adj_needs_one_bin_and_skips_work() {
        let g = uniform_random_directed(64, 2, &mut rng_from_seed(3));
        assert_eq!(histogram_bins(&g, 4096, 512), 1);
        let mut f = vec![5u32, 1, 9];
        let orig = f.clone();
        let mut scratch = RearrangeScratch::default();
        let info = rearrange_frontier(&mut f, &g, 4096, 512, &mut scratch);
        assert_eq!(info.bins, 1);
        assert_eq!(f, orig, "single window: order untouched");
    }

    #[test]
    fn empty_and_singleton_frontiers() {
        let g = uniform_random_directed(64, 2, &mut rng_from_seed(4));
        let mut scratch = RearrangeScratch::default();
        let mut empty: Vec<u32> = vec![];
        rearrange_frontier(&mut empty, &g, 4096, 1, &mut scratch);
        let mut one = vec![7u32];
        rearrange_frontier(&mut one, &g, 4096, 1, &mut scratch);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let g = uniform_random_directed(256, 8, &mut rng_from_seed(5));
        let mut scratch = RearrangeScratch::default();
        let mut f: Vec<u32> = (0..256).rev().collect();
        rearrange_frontier(&mut f, &g, 512, 1, &mut scratch);
        let cap = scratch.capacity_words();
        let mut f2: Vec<u32> = (0..200).rev().collect();
        rearrange_frontier(&mut f2, &g, 512, 1, &mut scratch);
        assert_eq!(
            scratch.capacity_words(),
            cap,
            "no reallocation for smaller runs"
        );
    }
}
