//! Property-based tests of the substrate invariants: binning geometry,
//! load-balanced division, frontier rearrangement, PBV encodings, graph
//! construction, the memory simulator's conservation laws, and the
//! analytical model's monotonicity.

use bfs_core::balance::{alpha, divide_even, divide_static, socket_shares, Stream};
use bfs_core::frontier::{histogram_bins, rearrange_frontier, RearrangeScratch};
use bfs_core::pbv::{decode_window, BinGeometry, BinSet, ResolvedEncoding};
use bfs_graph::builder::{BuildOptions, GraphBuilder};
use bfs_graph::gen::uniform::uniform_random_directed;
use bfs_graph::rng::rng_from_seed;
use bfs_memsim::{MachineConfig, Placement, SimMachine};
use bfs_model::{predict, GraphParams, MachineSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Bin geometry is a partition: every vertex belongs to exactly one bin,
    /// bins are contiguous, and each bin lies within one socket stripe.
    #[test]
    fn bin_geometry_partitions_vertices(
        n in 1usize..100_000,
        sockets in 1usize..=4,
        n_vis in 1usize..=16,
    ) {
        let g = BinGeometry::with_n_vis(n, sockets, n_vis);
        let mut covered = 0usize;
        for b in 0..g.n_bins {
            let r = g.bin_vertex_range(b);
            covered += r.len();
            if let Some(first) = r.clone().next() {
                let sock = g.socket_of_bin(b);
                prop_assert!(sock < sockets);
                prop_assert_eq!(g.bin_of(first), b);
                prop_assert_eq!(g.bin_of(r.end - 1), b);
            }
        }
        prop_assert_eq!(covered, n);
    }

    /// The even division covers every stream word exactly once, parts differ
    /// by at most `align`, and each part's segments appear in stream order.
    #[test]
    fn divide_even_is_exact_and_balanced(
        lens in proptest::collection::vec(0usize..200, 1..24),
        parts in 1usize..=8,
        pair_mode in any::<bool>(),
    ) {
        let align = if pair_mode { 2 } else { 1 };
        let streams: Vec<Stream> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Stream { bin: i, owner: i % 3, len: l * align })
            .collect();
        let division = divide_even(&streams, parts, align);
        prop_assert_eq!(division.len(), parts);
        let total: usize = streams.iter().map(|s| s.len).sum();
        let sizes: Vec<usize> = division
            .iter()
            .map(|p| p.iter().map(|s| s.len()).sum())
            .collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), total);
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= align, "sizes {:?}", sizes);
        // Exact coverage per stream.
        for (i, s) in streams.iter().enumerate() {
            let mut covered = vec![false; s.len];
            for p in &division {
                for seg in p.iter().filter(|seg| seg.bin == i) {
                    for k in seg.range.clone() {
                        prop_assert!(!covered[k]);
                        covered[k] = true;
                    }
                }
            }
            prop_assert!(covered.into_iter().all(|c| c));
        }
    }

    /// Static division sends every segment to its bin's socket, and the
    /// balanced division's per-part spread is never worse than static's.
    #[test]
    fn static_respects_sockets_balanced_is_no_worse(
        lens in proptest::collection::vec(0usize..200, 2..16),
        sockets in 1usize..=3,
        lanes in 1usize..=3,
    ) {
        let streams: Vec<Stream> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Stream { bin: i, owner: 0, len: l })
            .collect();
        let bin_socket = |b: usize| b % sockets;
        let stat = divide_static(&streams, bin_socket, sockets, lanes, 1);
        for (t, part) in stat.iter().enumerate() {
            for seg in part {
                prop_assert_eq!(bin_socket(seg.bin), t / lanes);
            }
        }
        let spread = |parts: &Vec<Vec<bfs_core::balance::Segment>>| {
            let sizes: Vec<usize> = parts.iter().map(|p| p.iter().map(|s| s.len()).sum()).collect();
            sizes.iter().max().unwrap() - sizes.iter().min().unwrap()
        };
        let bal = divide_even(&streams, sockets * lanes, 1);
        prop_assert!(spread(&bal) <= spread(&stat).max(1));
    }

    /// socket_shares + alpha: shares sum to the total and alpha lies in
    /// [1/sockets, 1].
    #[test]
    fn alpha_is_well_formed(
        lens in proptest::collection::vec(0usize..500, 1..20),
        sockets in 1usize..=4,
    ) {
        let streams: Vec<Stream> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Stream { bin: i, owner: 0, len: l })
            .collect();
        let shares = socket_shares(&streams, |b| b % sockets, sockets);
        prop_assert_eq!(shares.iter().sum::<usize>(), lens.iter().sum::<usize>());
        let a = alpha(&shares);
        prop_assert!(a >= 1.0 / sockets as f64 - 1e-12);
        prop_assert!(a <= 1.0 + 1e-12);
    }

    /// Rearrangement is a key-sorted stable permutation for any frontier,
    /// for any page-size/TLB-entry configuration — including pages so large
    /// (or frontiers so narrow) that the whole frontier lands in a single
    /// page window and the pass must degenerate to the identity ordering.
    #[test]
    fn rearrangement_is_a_sorted_permutation(
        ids in proptest::collection::vec(0u32..4096, 0..600),
        page_exp in 6u32..=16,   // 64 B .. 64 KB pages
        tlb in 1u64..64,
        narrow in any::<bool>(),
    ) {
        let page = 1u64 << page_exp;
        let g = uniform_random_directed(4096, 4, &mut rng_from_seed(9));
        // The narrow variant confines the frontier to a handful of adjacent
        // vertices, so for most page sizes it spans less than one window.
        let ids: Vec<u32> = if narrow {
            ids.into_iter().map(|v| v % 16).collect()
        } else {
            ids
        };
        let mut f = ids.clone();
        let mut scratch = RearrangeScratch::default();
        rearrange_frontier(&mut f, &g, page, tlb, &mut scratch);
        let mut a = ids;
        let mut b = f.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "must be a permutation");
        let bins = histogram_bins(&g, page, tlb) as u64;
        let pages = g.adjacency_bytes().div_ceil(page).max(1);
        let ppw = pages.div_ceil(bins).max(1);
        let keys: Vec<u64> = f
            .iter()
            .map(|&v| g.adjacency_byte_offset(v) / page / ppw)
            .collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Both PBV encodings round-trip arbitrary (parent, neighbors) batches
    /// through arbitrary window splits.
    #[test]
    fn pbv_encodings_roundtrip_under_splits(
        batches in proptest::collection::vec(
            (0u32..1000, proptest::collection::vec(0u32..1000, 0..12)),
            1..20
        ),
        pairs in any::<bool>(),
        cut_seed in any::<u64>(),
    ) {
        let enc = if pairs { ResolvedEncoding::Pairs } else { ResolvedEncoding::Markers };
        let mut bs = BinSet::new(1, enc);
        let mut expected = Vec::new();
        for (parent, neighbors) in &batches {
            bs.begin_vertex(*parent);
            for &v in neighbors {
                bs.push_neighbor(0, v);
                expected.push((*parent, v));
            }
        }
        let len = bs.bin_len(0);
        let align = enc.alignment();
        let cut = ((cut_seed as usize) % (len / align + 1)) * align;
        let mut got = Vec::new();
        decode_window(bs.bin(0), 0, cut, enc, |p, v| got.push((p, v)));
        decode_window(bs.bin(0), cut, len, enc, |p, v| got.push((p, v)));
        prop_assert_eq!(got, expected);
    }

    /// Graph builder: symmetrize + dedup + no-self-loops always yields a
    /// simple symmetric graph with even edge count.
    #[test]
    fn builder_simple_graphs_are_simple(
        n in 1usize..80,
        edges in proptest::collection::vec((0u32..80, 0u32..80), 0..300),
    ) {
        let edges: Vec<_> = edges
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .collect();
        let mut b = GraphBuilder::new(n, BuildOptions::undirected_simple());
        b.add_edges(edges);
        let g = b.build();
        prop_assert!(g.is_symmetric());
        prop_assert_eq!(g.num_edges() % 2, 0);
        for v in 0..n as u32 {
            let nb = g.neighbors(v);
            prop_assert!(!nb.contains(&v), "self loop survived");
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "duplicate survived");
        }
    }

    /// Memory simulator conservation: warm rereads are free; total traffic
    /// is monotone in accesses; ledger filters decompose totals.
    #[test]
    fn memsim_conservation(
        offsets in proptest::collection::vec(0u64..8192, 1..60),
    ) {
        let mut m = SimMachine::new(MachineConfig::single_socket(1));
        let r = m.alloc("x", 8192, Placement::Fixed(0));
        for &o in &offsets {
            m.read(0, r, o.min(8188), 4);
        }
        let after_reads = m.ledger().total(None, None, None, None);
        // Re-read everything: footprint (≤ 8 KB) fits in L2 (256 KB), so no
        // new traffic appears.
        for &o in &offsets {
            m.read(0, r, o.min(8188), 4);
        }
        prop_assert_eq!(m.ledger().total(None, None, None, None), after_reads);
        // Channel decomposition sums to the total.
        let by_channel: u64 = bfs_memsim::Channel::ALL
            .iter()
            .map(|&c| m.ledger().total(None, None, Some(c), None))
            .sum();
        prop_assert_eq!(by_channel, after_reads);
    }

    /// Model monotonicity: cycles/edge decreases with degree, increases with
    /// depth, and MTEPS never decreases when adding a socket at fixed alpha.
    #[test]
    fn model_monotonicity(
        v_exp in 18u32..27,
        deg in 2u32..64,
        depth in 1u32..1000,
    ) {
        let m = MachineSpec::xeon_x5570_2s();
        let g = GraphParams::uniform_ideal(1u64 << v_exp, deg, depth);
        let p = predict(&m, &g, 0.5);
        prop_assert!(p.multi_socket.total > 0.0);
        let deeper = predict(&m, &GraphParams::uniform_ideal(1u64 << v_exp, deg, depth + 100), 0.5);
        prop_assert!(deeper.multi_socket.total >= p.multi_socket.total - 1e-9);
        let denser = predict(&m, &GraphParams::uniform_ideal(1u64 << v_exp, deg * 2, depth), 0.5);
        prop_assert!(denser.multi_socket.total <= p.multi_socket.total + 1e-9);
        let m1 = MachineSpec::xeon_x5570_1s();
        let single = predict(&m1, &g, 1.0);
        prop_assert!(p.mteps_multi >= single.mteps_multi * 0.99);
    }
}

/// LRU reference model: a fully-associative cache of capacity `cap` as a
/// plain recency list. `SetAssocCache` with one set and assoc = capacity
/// must behave identically on any trace.
mod lru_reference {
    use bfs_memsim::cache::{Access, SetAssocCache};
    use proptest::prelude::*;

    #[derive(Default)]
    struct RefLru {
        cap: usize,
        lines: Vec<(u64, bool)>, // MRU first
    }

    impl RefLru {
        fn access(&mut self, line: u64, write: bool) -> (bool, Option<u64>) {
            if let Some(pos) = self.lines.iter().position(|&(l, _)| l == line) {
                let (l, d) = self.lines.remove(pos);
                self.lines.insert(0, (l, d || write));
                return (true, None);
            }
            let mut victim = None;
            if self.lines.len() == self.cap {
                let (l, d) = self.lines.pop().unwrap();
                if d {
                    victim = Some(l);
                }
            }
            self.lines.insert(0, (line, write));
            (false, victim)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn set_assoc_with_one_set_matches_reference_lru(
            trace in proptest::collection::vec((0u64..32, any::<bool>()), 1..300),
            cap in 1usize..12,
        ) {
            let mut sut = SetAssocCache::new(cap, cap); // one set
            prop_assert_eq!(sut.num_sets(), 1);
            let mut reference = RefLru { cap, lines: Vec::new() };
            for (line, write) in trace {
                let (ref_hit, ref_victim) = reference.access(line, write);
                match sut.access(line, write) {
                    Access::Hit => prop_assert!(ref_hit, "SUT hit, reference missed"),
                    Access::Miss { dirty_victim } => {
                        prop_assert!(!ref_hit, "SUT missed, reference hit");
                        prop_assert_eq!(dirty_victim, ref_victim, "victim mismatch");
                    }
                }
            }
        }
    }
}
