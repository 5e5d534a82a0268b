//! Compressed-sparse-row graph storage.
//!
//! `CsrGraph` is the runtime equivalent of the paper's 2-D adjacency array:
//! the `offsets` array plays the role of the per-vertex pointer
//! (`Adj[i]`), and `offsets[i+1] - offsets[i]` the inline neighbor count
//! (`Adj[i][0]`). Keeping offsets as `u64` allows edge counts beyond 4G while
//! neighbor ids stay 4 bytes, matching the traffic constants of §IV.

use serde::{Deserialize, Serialize};

use bfs_platform::hugepage::{MaybeHuge, Zeroable};

use crate::relabel::VertexPermutation;
use crate::VertexId;

/// An immutable directed graph in CSR form. For undirected inputs, both
/// orientations of each edge are stored (the convention used by the paper and
/// by Graph500).
///
/// A graph produced by [`crate::relabel::degree_order`] additionally carries
/// the [`VertexPermutation`] mapping client-facing external ids to the
/// relabeled internal layout; everything above the engine translates through
/// it. Storage may be migrated onto transparent hugepages with
/// [`CsrGraph::migrate_to_hugepages`] — both are layout concerns invisible
/// to the traversal kernels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: MaybeHuge<u64>,
    neighbors: MaybeHuge<VertexId>,
    /// External↔internal id mapping when the graph was relabeled.
    permutation: Option<VertexPermutation>,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (see [`CsrGraph::try_from_parts`]
    /// for the fallible version and the exact invariants).
    pub fn from_parts(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Self {
        Self::try_from_parts(offsets, neighbors).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a graph from CSR arrays, validating every structural
    /// invariant: `offsets` must be non-empty, non-decreasing, start at 0
    /// and end at `neighbors.len()`, and every neighbor id must be
    /// `< offsets.len() - 1`. This is the single checkpoint all untrusted
    /// inputs (deserialization included) route through, so a corrupt
    /// payload is rejected here instead of panicking deep in a kernel.
    pub fn try_from_parts(offsets: Vec<u64>, neighbors: Vec<VertexId>) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets must contain at least one entry".to_string());
        }
        if offsets[0] != 0 {
            return Err(format!("offsets must start at 0, got {}", offsets[0]));
        }
        let last = *offsets.last().unwrap();
        if last != neighbors.len() as u64 {
            return Err(format!(
                "offsets must end at neighbors.len(): {} vs {}",
                last,
                neighbors.len()
            ));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets must be non-decreasing".to_string());
        }
        let n = (offsets.len() - 1) as u64;
        if !neighbors.iter().all(|&v| (v as u64) < n) {
            return Err(format!("neighbor id out of range (|V| = {n})"));
        }
        Ok(Self {
            offsets: MaybeHuge::heap(offsets.into_boxed_slice()),
            neighbors: MaybeHuge::heap(neighbors.into_boxed_slice()),
            permutation: None,
        })
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: MaybeHuge::heap(vec![0u64; n + 1].into_boxed_slice()),
            neighbors: MaybeHuge::heap(Box::new([])),
            permutation: None,
        }
    }

    /// Number of vertices, `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored directed edges, `|E|` (an undirected edge counts
    /// twice).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Byte offset of vertex `v`'s adjacency list within the neighbor array.
    /// Used by the TLB-rearrangement histogram (§III-B3(b)) and by the memory
    /// simulator to attribute `Adj` traffic to pages and sockets.
    #[inline]
    pub fn adjacency_byte_offset(&self, v: VertexId) -> u64 {
        self.offsets[v as usize] * std::mem::size_of::<VertexId>() as u64
    }

    /// Total size of the neighbor array in bytes — the paper's `|Adj|`.
    #[inline]
    pub fn adjacency_bytes(&self) -> u64 {
        self.neighbors.len() as u64 * std::mem::size_of::<VertexId>() as u64
    }

    /// Raw offsets array (`|V| + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw concatenated neighbor array.
    #[inline]
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// The external↔internal permutation retained by a relabeling pass,
    /// `None` for graphs in their loaded (external) layout.
    #[inline]
    pub fn permutation(&self) -> Option<&VertexPermutation> {
        self.permutation.as_ref()
    }

    /// Attaches (or clears) the retained permutation. Crate-internal: only
    /// the relabeling pass and deserialization may set it, keeping the
    /// invariant that the permutation length always matches `|V|`.
    pub(crate) fn set_permutation(&mut self, perm: Option<VertexPermutation>) {
        if let Some(p) = &perm {
            assert_eq!(p.len(), self.num_vertices(), "permutation length != |V|");
        }
        self.permutation = perm;
    }

    /// Re-backs the offsets and neighbor arrays with 2 MiB transparent
    /// hugepages where the host allows and the arrays are large enough
    /// (§III-C: the scatter's dTLB misses concentrate in `Adj`). A heap
    /// array moves into [`MaybeHuge::from_vec`], which copies it once into
    /// the hugepage mapping and frees the heap buffer, or keeps that buffer
    /// as it is when the array is below
    /// [`bfs_platform::hugepage::HUGE_MIN_BYTES`] or the host refuses. An
    /// array that is already hugepage-backed stays where it is. Returns
    /// whether at least one array ended up hugepage-backed. The typed
    /// host-level reason is available from
    /// [`bfs_platform::hugepage::availability`].
    pub fn migrate_to_hugepages(&mut self) -> bool {
        migrate(&mut self.offsets);
        migrate(&mut self.neighbors);
        self.is_hugepage_backed()
    }

    /// Whether any CSR array is currently hugepage-backed.
    pub fn is_hugepage_backed(&self) -> bool {
        self.offsets.is_huge() || self.neighbors.is_huge()
    }

    /// Average out-degree over all vertices (the paper's ρ when restricted to
    /// the reachable set; see [`crate::stats`] for ρ′).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Iterates over all `(source, destination)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// True if each edge `(u, v)` has a reverse edge `(v, u)` with equal
    /// multiplicity — i.e. the graph is a valid undirected graph in the
    /// doubled-edge convention.
    pub fn is_symmetric(&self) -> bool {
        let mut fwd: Vec<(VertexId, VertexId)> = self.edges().collect();
        let mut rev: Vec<(VertexId, VertexId)> = self.edges().map(|(u, v)| (v, u)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        fwd == rev
    }

    /// Heap footprint in bytes (offsets + neighbors).
    pub fn memory_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()) as u64 + self.adjacency_bytes()
    }
}

/// Moves a heap array into hugepage backing (see
/// [`CsrGraph::migrate_to_hugepages`]).
fn migrate<T: Zeroable + Copy>(array: &mut MaybeHuge<T>) {
    if let MaybeHuge::Heap(heap) = array {
        let data = std::mem::take(heap).into_vec();
        *array = MaybeHuge::from_vec(data, true);
    }
}

impl Serialize for CsrGraph {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("offsets".to_string(), self.offsets[..].to_value()),
            ("neighbors".to_string(), self.neighbors[..].to_value()),
            ("permutation".to_string(), self.permutation.to_value()),
        ])
    }
}

impl Deserialize for CsrGraph {
    /// Deserialization routes through [`CsrGraph::try_from_parts`], so a
    /// corrupt serialized graph is rejected with a message instead of
    /// violating CSR invariants (pre-PR7 payloads without the
    /// `permutation` field load with `permutation = None`).
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let offsets: Vec<u64> = Deserialize::from_value(serde::de_field(v, "offsets")?)?;
        let neighbors: Vec<VertexId> = Deserialize::from_value(serde::de_field(v, "neighbors")?)?;
        let mut graph =
            CsrGraph::try_from_parts(offsets, neighbors).map_err(serde::Error::custom)?;
        let permutation: Option<VertexPermutation> =
            Deserialize::from_value(serde::de_field(v, "permutation")?)?;
        if let Some(p) = &permutation {
            if p.len() != graph.num_vertices() {
                return Err(serde::Error::custom(format!(
                    "permutation covers {} vertices, graph has {}",
                    p.len(),
                    graph.num_vertices()
                )));
            }
        }
        graph.permutation = permutation;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfs_platform::hugepage::HUGE_MIN_BYTES;

    fn diamond() -> CsrGraph {
        // 0 - 1, 0 - 2, 1 - 3, 2 - 3 (undirected, doubled)
        CsrGraph::from_parts(vec![0, 2, 4, 6, 8], vec![1, 2, 0, 3, 0, 3, 1, 2])
    }

    #[test]
    fn basic_accessors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert!(g.permutation().is_none());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
        assert!(g.is_symmetric());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn symmetry_detection() {
        let g = diamond();
        assert!(g.is_symmetric());
        let d = CsrGraph::from_parts(vec![0, 1, 1], vec![1]); // 0 -> 1 only
        assert!(!d.is_symmetric());
    }

    #[test]
    fn edge_iterator_matches_csr() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 3),
                (2, 0),
                (2, 3),
                (3, 1),
                (3, 2)
            ]
        );
    }

    #[test]
    fn byte_offsets() {
        let g = diamond();
        assert_eq!(g.adjacency_byte_offset(0), 0);
        assert_eq!(g.adjacency_byte_offset(1), 8);
        assert_eq!(g.adjacency_bytes(), 32);
        assert_eq!(g.memory_bytes(), 5 * 8 + 32);
    }

    #[test]
    #[should_panic(expected = "neighbor id out of range")]
    fn rejects_out_of_range_neighbor() {
        CsrGraph::from_parts(vec![0, 1], vec![7]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_offsets() {
        CsrGraph::from_parts(vec![0, 2, 1, 2], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn rejects_bad_tail() {
        CsrGraph::from_parts(vec![0, 1], vec![0, 0]);
    }

    #[test]
    fn try_from_parts_reports_instead_of_panicking() {
        assert!(CsrGraph::try_from_parts(vec![], vec![]).is_err());
        assert!(CsrGraph::try_from_parts(vec![1, 2], vec![0, 0]).is_err());
        assert!(CsrGraph::try_from_parts(vec![0, 1], vec![7]).is_err());
        assert!(CsrGraph::try_from_parts(vec![0, 2, 1, 2], vec![0, 1]).is_err());
        assert!(CsrGraph::try_from_parts(vec![0, 1], vec![0, 0]).is_err());
        assert!(CsrGraph::try_from_parts(vec![0, 1, 2], vec![1, 0]).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let g = diamond();
        let s = serde_json::to_string(&g).unwrap();
        let g2: CsrGraph = serde_json::from_str(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn serde_roundtrip_preserves_permutation() {
        let (rg, perm) = crate::relabel::degree_order(&diamond());
        let s = serde_json::to_string(&rg).unwrap();
        let back: CsrGraph = serde_json::from_str(&s).unwrap();
        assert_eq!(back.permutation(), Some(&perm));
        assert_eq!(rg, back);
    }

    #[test]
    fn deserialize_validates_invariants() {
        // Neighbor id out of range: must be an error, not a panic (and not
        // a silently corrupt graph). Pre-PR7 payload shape (no permutation
        // field) must still load.
        let ok: CsrGraph = serde_json::from_str(r#"{"offsets":[0,1],"neighbors":[0]}"#).unwrap();
        assert!(ok.permutation().is_none());
        assert_eq!(ok.num_edges(), 1);
        for bad in [
            r#"{"offsets":[0,1],"neighbors":[7]}"#,
            r#"{"offsets":[0,2,1],"neighbors":[0,0]}"#,
            r#"{"offsets":[1,1],"neighbors":[]}"#,
            r#"{"offsets":[],"neighbors":[]}"#,
            r#"{"offsets":[0,1],"neighbors":[0],"permutation":{"forward":[0,1],"inverse":[0,1]}}"#,
        ] {
            assert!(
                serde_json::from_str::<CsrGraph>(bad).is_err(),
                "accepted corrupt payload: {bad}"
            );
        }
    }

    #[test]
    fn hugepage_migration_preserves_contents() {
        let g = diamond();
        let mut h = g.clone();
        let ptr = h.raw_neighbors().as_ptr();
        assert!(!h.migrate_to_hugepages());
        // Arrays below HUGE_MIN_BYTES stay in the heap buffer they were
        // moved out of, not in a copy.
        assert!(!h.offsets.is_huge() && !h.neighbors.is_huge());
        assert_eq!(h.raw_neighbors().as_ptr(), ptr);
        assert_eq!(g, h);
        assert_eq!(h.neighbors(0), &[1, 2]);
    }

    #[test]
    fn hugepage_migration_moves_large_arrays_once() {
        // A 40 000-cycle: both arrays exceed HUGE_MIN_BYTES.
        let n = 40_000u32;
        let neighbors: Vec<VertexId> = (0..n)
            .flat_map(|v| [(v + n - 1) % n, (v + 1) % n])
            .collect();
        let offsets: Vec<u64> = (0..=n as u64).map(|v| 2 * v).collect();
        let (g, perm) = crate::relabel::degree_order(&CsrGraph::from_parts(offsets, neighbors));
        assert!(g.adjacency_bytes() as usize >= HUGE_MIN_BYTES);
        let mut h = g.clone();
        let huge = h.migrate_to_hugepages();
        assert_eq!(huge, h.is_hugepage_backed());
        assert_eq!(h.offsets(), g.offsets());
        assert_eq!(h.raw_neighbors(), g.raw_neighbors());
        assert_eq!(h.permutation(), Some(&perm));
        // Whether the host grants hugepages decides the backing; a second
        // call leaves every hugepage-backed array where it is.
        let before = [
            (h.offsets.is_huge(), h.offsets().as_ptr() as usize),
            (h.neighbors.is_huge(), h.raw_neighbors().as_ptr() as usize),
        ];
        assert_eq!(h.migrate_to_hugepages(), huge);
        let after = [
            h.offsets().as_ptr() as usize,
            h.raw_neighbors().as_ptr() as usize,
        ];
        for ((was_huge, ptr), now) in before.into_iter().zip(after) {
            if was_huge {
                assert_eq!(now, ptr);
            }
        }
        assert_eq!(h, g);
    }

    #[test]
    fn self_loops_and_multi_edges_are_representable() {
        let g = CsrGraph::from_parts(vec![0, 3, 3], vec![0, 1, 1]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors(0), &[0, 1, 1]);
    }
}
