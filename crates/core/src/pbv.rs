//! Potential Boundary Vertex (`PBV`) bins: geometry and encodings.
//!
//! Phase I partitions the neighbors of frontier vertices into `N_PBV =
//! N_S · N_VIS` bins keyed by destination-vertex range (§III-B3). Bins are
//! aligned to two structures at once:
//!
//! * **socket homes** — a bin's vertex range lies inside one socket's
//!   `|V_NS|` stripe, so Phase II work on that bin touches only that
//!   socket's `DP`/`VIS` memory;
//! * **VIS partitions** — each socket's stripe is cut into `N_VIS` pieces so
//!   the VIS slice a bin touches fits in half the LLC (§III-A).
//!
//! Two stream encodings carry the (parent, neighbor) information
//! (§III-C(4) and footnote 4):
//!
//! * **Markers** — the frontier vertex id is written once to *every* bin
//!   with its sign bit set ("negating the id"); subsequent plain entries are
//!   neighbors whose parent is the latest marker. Costs `N_PBV + ρ` words
//!   per vertex.
//! * **Pairs** — explicit `(parent, neighbor)` word pairs. Costs `2ρ` words
//!   per vertex — cheaper when `N_PBV ≥ ρ`, which is how `Auto` chooses.

use bfs_platform::CachePadded;
use serde::{Deserialize, Serialize};

use crate::VertexId;

/// Sign bit used to mark parent entries in the Markers encoding.
pub const MARKER_FLAG: u32 = 0x8000_0000;

/// Marks `v` as a parent entry.
#[inline]
pub fn encode_marker(v: VertexId) -> u32 {
    debug_assert_eq!(v & MARKER_FLAG, 0, "vertex id uses the sign bit");
    v | MARKER_FLAG
}

/// True if `x` is a parent marker.
#[inline]
pub fn is_marker(x: u32) -> bool {
    x & MARKER_FLAG != 0
}

/// Strips the marker flag.
#[inline]
pub fn decode_marker(x: u32) -> VertexId {
    x & !MARKER_FLAG
}

/// How (parent, neighbor) information is laid out in bins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PbvEncoding {
    /// Choose per run: Pairs when `N_PBV ≥ ρ` (average frontier degree),
    /// Markers otherwise — the paper's policy ("We switch between the two
    /// representations based on the actual graph parameters").
    #[default]
    Auto,
    /// Negated-id parent markers broadcast to every bin.
    Markers,
    /// Explicit (parent, neighbor) pairs.
    Pairs,
}

impl PbvEncoding {
    /// Resolves `Auto` for a graph with `n_pbv` bins and average visited
    /// degree `rho`.
    pub fn resolve(self, n_pbv: usize, rho: f64) -> ResolvedEncoding {
        match self {
            PbvEncoding::Markers => ResolvedEncoding::Markers,
            PbvEncoding::Pairs => ResolvedEncoding::Pairs,
            PbvEncoding::Auto => {
                if n_pbv as f64 >= rho {
                    ResolvedEncoding::Pairs
                } else {
                    ResolvedEncoding::Markers
                }
            }
        }
    }
}

/// A concrete encoding (no `Auto`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolvedEncoding {
    /// See [`PbvEncoding::Markers`].
    Markers,
    /// See [`PbvEncoding::Pairs`].
    Pairs,
}

impl ResolvedEncoding {
    /// Stream words that form one indivisible unit (segment boundaries must
    /// align to this).
    pub fn alignment(&self) -> usize {
        match self {
            ResolvedEncoding::Markers => 1,
            ResolvedEncoding::Pairs => 2,
        }
    }
}

/// Bin geometry: how vertex ids map to bins and bins to sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinGeometry {
    /// Total vertices `|V|`.
    pub num_vertices: usize,
    /// Sockets `N_S`.
    pub sockets: usize,
    /// VIS partitions per socket, rounded up to a power of two so the bin
    /// index is a single shift (§III-C(4)).
    pub n_vis: usize,
    /// `|V_NS|`: vertices per socket stripe (power of two).
    pub vertices_per_socket: usize,
    /// `bin(v) = v >> bin_shift`.
    pub bin_shift: u32,
    /// Number of bins that can actually be non-empty
    /// (`ceil(|V| / bin_width)`, at most `N_S · N_VIS`).
    pub n_bins: usize,
}

impl BinGeometry {
    /// Geometry from the §III-A sizing rule: `N_VIS = ceil(|V| / (4·|C|))`
    /// rounded up to a power of two, `N_PBV = N_S · N_VIS`.
    pub fn from_llc(num_vertices: usize, sockets: usize, llc_bytes: u64) -> Self {
        let n_vis = (num_vertices as u64)
            .div_ceil(4 * llc_bytes)
            .max(1)
            .next_power_of_two() as usize;
        Self::with_n_vis(num_vertices, sockets, n_vis)
    }

    /// Geometry with an explicit VIS partition count (rounded to a power of
    /// two).
    pub fn with_n_vis(num_vertices: usize, sockets: usize, n_vis: usize) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(n_vis > 0, "need at least one VIS partition");
        let n_vis = n_vis.next_power_of_two();
        let vns = bfs_platform::topology::vertices_per_socket(num_vertices, sockets);
        let bin_width = (vns / n_vis).max(1);
        let bin_shift = bin_width.trailing_zeros();
        let n_bins = num_vertices.div_ceil(bin_width).max(1);
        Self {
            num_vertices,
            sockets,
            n_vis,
            vertices_per_socket: vns,
            bin_shift,
            n_bins,
        }
    }

    /// Bin of vertex `v`.
    #[inline]
    pub fn bin_of(&self, v: VertexId) -> usize {
        (v >> self.bin_shift) as usize
    }

    /// Socket owning bin `b` (the socket whose `DP`/`VIS` stripe the bin's
    /// vertices live on).
    #[inline]
    pub fn socket_of_bin(&self, b: usize) -> usize {
        let first_vertex = b << self.bin_shift;
        (first_vertex / self.vertices_per_socket).min(self.sockets - 1)
    }

    /// Vertex-id range covered by bin `b` (clamped to `|V|`).
    pub fn bin_vertex_range(&self, b: usize) -> std::ops::Range<u32> {
        let w = 1usize << self.bin_shift;
        let lo = (b * w).min(self.num_vertices);
        let hi = ((b + 1) * w).min(self.num_vertices);
        lo as u32..hi as u32
    }

    /// Vertex-id range of socket `s`'s `DP`/`VIS` stripe (clamped to
    /// `|V|`): exactly the union of the bins [`socket_of_bin`] maps to `s`
    /// (`|V_NS| · N_S ≥ |V|`, so that clamp never moves a bin).
    ///
    /// [`socket_of_bin`]: Self::socket_of_bin
    pub fn socket_vertex_range(&self, s: usize) -> std::ops::Range<usize> {
        let stripe = |s: usize| (s * self.vertices_per_socket).min(self.num_vertices);
        stripe(s)..stripe(s + 1)
    }

    /// Bin width in vertices.
    pub fn bin_width(&self) -> usize {
        1 << self.bin_shift
    }
}

/// One thread's set of `N_PBV` bins for the current step.
///
/// Each bin header sits on its own 128-byte line pair: lanes build their
/// `BinSet`s one after the other, so unpadded header blocks would land in
/// neighbouring heap slots and every push would write a line that another
/// lane is writing too.
#[derive(Debug)]
pub struct BinSet {
    bins: Box<[CachePadded<Vec<u32>>]>,
    encoding: ResolvedEncoding,
    current_parent: VertexId,
}

impl BinSet {
    /// Empty bins.
    pub fn new(n_bins: usize, encoding: ResolvedEncoding) -> Self {
        Self {
            bins: (0..n_bins).map(|_| CachePadded(Vec::new())).collect(),
            encoding,
            current_parent: 0,
        }
    }

    /// Number of bins.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// The encoding in use.
    pub fn encoding(&self) -> ResolvedEncoding {
        self.encoding
    }

    /// Clears all bins, keeping their capacity.
    pub fn clear(&mut self) {
        for b in &mut self.bins {
            b.0.clear();
        }
    }

    /// Starts binning the neighbors of frontier vertex `parent`:
    /// Markers broadcast the negated id to every bin (§III-C(4)); Pairs just
    /// remember it.
    #[inline]
    pub fn begin_vertex(&mut self, parent: VertexId) {
        self.current_parent = parent;
        if self.encoding == ResolvedEncoding::Markers {
            let m = encode_marker(parent);
            for b in &mut self.bins {
                b.0.push(m);
            }
        }
    }

    /// Appends neighbor `v` to bin `bin`.
    #[inline]
    pub fn push_neighbor(&mut self, bin: usize, v: VertexId) {
        debug_assert_eq!(v & MARKER_FLAG, 0);
        match self.encoding {
            ResolvedEncoding::Markers => self.bins[bin].0.push(v),
            ResolvedEncoding::Pairs => {
                let b = &mut self.bins[bin].0;
                b.push(self.current_parent);
                b.push(v);
            }
        }
    }

    /// Word length of bin `b`.
    pub fn bin_len(&self, b: usize) -> usize {
        self.bins[b].0.len()
    }

    /// Raw words of bin `b`.
    pub fn bin(&self, b: usize) -> &[u32] {
        &self.bins[b].0
    }

    /// Total words across bins.
    pub fn total_len(&self) -> usize {
        self.bins.iter().map(|b| b.0.len()).sum()
    }

    /// Total capacity across bins in `u32` words — the high-water storage a
    /// reused `BinSet` retains between runs.
    pub fn capacity_words(&self) -> usize {
        self.bins.iter().map(|b| b.0.capacity()).sum()
    }

    /// Releases all retained bin capacity (the bins stay, emptied).
    pub fn shrink(&mut self) {
        for b in &mut self.bins {
            b.0 = Vec::new();
        }
    }
}

/// Decodes `(parent, neighbor)` units from a window `[start, end)` of a bin
/// stream (§III-C(6) `Access_Parent`). For the Markers encoding, a window
/// that starts mid-stream finds its initial parent by scanning backwards to
/// the latest marker — this is what makes the "at most two partial bins" of
/// the load-balanced division decodable by the stealing socket.
pub fn decode_window(
    data: &[u32],
    start: usize,
    end: usize,
    encoding: ResolvedEncoding,
    mut emit: impl FnMut(VertexId, VertexId),
) {
    debug_assert!(start <= end && end <= data.len());
    match encoding {
        ResolvedEncoding::Pairs => {
            debug_assert_eq!(start % 2, 0, "pair window must be aligned");
            debug_assert_eq!(end % 2, 0, "pair window must be aligned");
            for pair in data[start..end].chunks_exact(2) {
                emit(pair[0], pair[1]);
            }
        }
        ResolvedEncoding::Markers => {
            // Initial parent: latest marker at or before `start`.
            let mut parent = data[..start]
                .iter()
                .rev()
                .find(|&&x| is_marker(x))
                .map(|&x| decode_marker(x));
            for &x in &data[start..end] {
                if is_marker(x) {
                    parent = Some(decode_marker(x));
                } else {
                    emit(
                        parent.expect("marker stream must start with a parent marker"),
                        x,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_encoding_roundtrip() {
        let m = encode_marker(12345);
        assert!(is_marker(m));
        assert!(!is_marker(12345));
        assert_eq!(decode_marker(m), 12345);
    }

    #[test]
    fn geometry_paper_example() {
        // §III-A example scaled: |V| = 256M, |C| = 16MB → N_VIS = 4; on
        // 2 sockets N_PBV = 8 bins.
        let g = BinGeometry::from_llc(256 << 20, 2, 16 << 20);
        assert_eq!(g.n_vis, 4);
        assert_eq!(g.n_bins, 8);
        assert_eq!(g.vertices_per_socket, 128 << 20);
        assert_eq!(g.bin_width(), 32 << 20);
        assert_eq!(g.socket_of_bin(0), 0);
        assert_eq!(g.socket_of_bin(3), 0);
        assert_eq!(g.socket_of_bin(4), 1);
        assert_eq!(g.socket_of_bin(7), 1);
    }

    #[test]
    fn geometry_small_graph_single_bin_per_socket() {
        let g = BinGeometry::from_llc(1 << 20, 2, 8 << 20);
        assert_eq!(g.n_vis, 1);
        assert_eq!(g.n_bins, 2);
        assert_eq!(g.bin_of(0), 0);
        assert_eq!(g.bin_of((1 << 19) as u32), 1);
    }

    #[test]
    fn geometry_bins_partition_the_vertex_space() {
        for (n, s, nv) in [(100usize, 2usize, 2usize), (1 << 16, 3, 4), (7, 2, 8)] {
            let g = BinGeometry::with_n_vis(n, s, nv);
            let mut seen = 0usize;
            for b in 0..g.n_bins {
                let r = g.bin_vertex_range(b);
                for v in r.clone() {
                    assert_eq!(g.bin_of(v), b);
                }
                seen += r.len();
            }
            assert_eq!(seen, n, "bins must cover all vertices exactly once");
        }
    }

    #[test]
    fn geometry_socket_of_bin_matches_vertex_homes() {
        let g = BinGeometry::with_n_vis(1000, 3, 2);
        for b in 0..g.n_bins {
            let r = g.bin_vertex_range(b);
            if r.is_empty() {
                continue;
            }
            let home = (r.start as usize) / g.vertices_per_socket;
            assert_eq!(g.socket_of_bin(b), home.min(2));
            let stripe = g.socket_vertex_range(g.socket_of_bin(b));
            assert!(stripe.start <= r.start as usize && r.end as usize <= stripe.end);
        }
        // The socket stripes tile the vertex space.
        let ends: Vec<_> = (0..3).map(|s| g.socket_vertex_range(s)).collect();
        assert_eq!(ends, vec![0..512, 512..1000, 1000..1000]);
    }

    #[test]
    fn auto_encoding_switches_on_rho() {
        assert_eq!(
            PbvEncoding::Auto.resolve(8, 16.0),
            ResolvedEncoding::Markers
        );
        assert_eq!(PbvEncoding::Auto.resolve(16, 8.0), ResolvedEncoding::Pairs);
        assert_eq!(
            PbvEncoding::Markers.resolve(16, 8.0),
            ResolvedEncoding::Markers
        );
    }

    #[test]
    fn markers_binset_stream_shape() {
        let mut bs = BinSet::new(2, ResolvedEncoding::Markers);
        bs.begin_vertex(5);
        bs.push_neighbor(0, 10);
        bs.push_neighbor(1, 20);
        bs.begin_vertex(6);
        bs.push_neighbor(0, 11);
        // bin 0: [M5, 10, M6, 11]; bin 1: [M5, 20, M6]
        assert_eq!(bs.bin(0), &[encode_marker(5), 10, encode_marker(6), 11]);
        assert_eq!(bs.bin(1), &[encode_marker(5), 20, encode_marker(6)]);
        assert_eq!(bs.total_len(), 7);
    }

    #[test]
    fn pairs_binset_stream_shape() {
        let mut bs = BinSet::new(2, ResolvedEncoding::Pairs);
        bs.begin_vertex(5);
        bs.push_neighbor(0, 10);
        bs.push_neighbor(1, 20);
        assert_eq!(bs.bin(0), &[5, 10]);
        assert_eq!(bs.bin(1), &[5, 20]);
    }

    #[test]
    fn decode_full_marker_stream() {
        let mut bs = BinSet::new(1, ResolvedEncoding::Markers);
        bs.begin_vertex(1);
        bs.push_neighbor(0, 100);
        bs.push_neighbor(0, 101);
        bs.begin_vertex(2);
        bs.push_neighbor(0, 102);
        let mut out = Vec::new();
        decode_window(
            bs.bin(0),
            0,
            bs.bin_len(0),
            ResolvedEncoding::Markers,
            |p, v| out.push((p, v)),
        );
        assert_eq!(out, vec![(1, 100), (1, 101), (2, 102)]);
    }

    #[test]
    fn decode_partial_marker_window_recovers_parent() {
        let mut bs = BinSet::new(1, ResolvedEncoding::Markers);
        bs.begin_vertex(1);
        bs.push_neighbor(0, 100);
        bs.push_neighbor(0, 101);
        bs.push_neighbor(0, 102);
        // Window starting at index 2 (inside vertex 1's neighbors) must
        // back-scan to marker M1.
        let mut out = Vec::new();
        decode_window(bs.bin(0), 2, 4, ResolvedEncoding::Markers, |p, v| {
            out.push((p, v))
        });
        assert_eq!(out, vec![(1, 101), (1, 102)]);
    }

    #[test]
    fn decode_pairs_window() {
        let data = [1u32, 10, 2, 20, 3, 30];
        let mut out = Vec::new();
        decode_window(&data, 2, 6, ResolvedEncoding::Pairs, |p, v| {
            out.push((p, v))
        });
        assert_eq!(out, vec![(2, 20), (3, 30)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut bs = BinSet::new(1, ResolvedEncoding::Markers);
        bs.begin_vertex(0);
        for i in 0..100 {
            bs.push_neighbor(0, i);
        }
        let cap = bs.bins[0].0.capacity();
        bs.clear();
        assert_eq!(bs.total_len(), 0);
        assert_eq!(bs.bins[0].0.capacity(), cap);
    }

    #[test]
    fn two_binsets_first_headers_do_not_share_a_line_pair() {
        // Lanes build their `BinSet`s one after the other, so their header
        // blocks come from neighbouring heap slots.
        let a = BinSet::new(1, ResolvedEncoding::Pairs);
        let b = BinSet::new(1, ResolvedEncoding::Pairs);
        let (pa, pb) = (
            &a.bins[0] as *const _ as usize,
            &b.bins[0] as *const _ as usize,
        );
        let gap = pa.abs_diff(pb);
        assert!(gap >= 128, "first bin headers are {gap} bytes apart");
        assert_eq!(pa % 128, 0, "first bin header is not 128-byte aligned");
        assert_eq!(pb % 128, 0, "first bin header is not 128-byte aligned");
    }

    #[test]
    fn window_on_marker_boundary_assigns_to_next_segment() {
        // If a split lands exactly on a marker, the first segment emits
        // nothing for it and the second segment starts with it.
        let data = [encode_marker(1), 10, encode_marker(2), 20];
        let mut a = Vec::new();
        decode_window(&data, 0, 2, ResolvedEncoding::Markers, |p, v| {
            a.push((p, v))
        });
        let mut b = Vec::new();
        decode_window(&data, 2, 4, ResolvedEncoding::Markers, |p, v| {
            b.push((p, v))
        });
        assert_eq!(a, vec![(1, 10)]);
        assert_eq!(b, vec![(2, 20)]);
    }
}
