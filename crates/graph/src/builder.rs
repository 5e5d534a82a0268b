//! Edge-list → CSR construction.
//!
//! Generators and file loaders produce flat edge lists; `GraphBuilder` turns
//! them into [`CsrGraph`]s with the policies the paper's evaluation needs:
//! optional symmetrization (undirected graphs are stored with both edge
//! orientations, the Graph500 convention), optional removal of duplicate
//! edges and self-loops, and optional random relabeling of vertex ids
//! ("we take in the input graphs as given, and do not reorder the vertices" —
//! relabeling lets benchmarks *destroy* incidental locality deliberately).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::CsrGraph;
use crate::{Edge, VertexId};

/// Construction policies for [`GraphBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Store both orientations of every input edge.
    pub symmetrize: bool,
    /// Drop duplicate directed edges after (optional) symmetrization.
    pub dedup: bool,
    /// Drop self-loops.
    pub drop_self_loops: bool,
    /// Sort each adjacency list by neighbor id. (CSR construction via
    /// counting sort already groups by source; this additionally orders
    /// within a list, giving deterministic traversal order.)
    pub sort_neighbors: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            symmetrize: true,
            dedup: false,
            drop_self_loops: false,
            sort_neighbors: true,
        }
    }
}

impl BuildOptions {
    /// Directed graph, keep everything as given.
    pub fn directed_raw() -> Self {
        Self {
            symmetrize: false,
            dedup: false,
            drop_self_loops: false,
            sort_neighbors: false,
        }
    }

    /// Undirected simple graph: symmetrized, deduplicated, no self-loops.
    pub fn undirected_simple() -> Self {
        Self {
            symmetrize: true,
            dedup: true,
            drop_self_loops: true,
            sort_neighbors: true,
        }
    }
}

/// Builds [`CsrGraph`]s from edge lists.
///
/// ```
/// use bfs_graph::{BuildOptions, GraphBuilder};
///
/// let mut b = GraphBuilder::new(3, BuildOptions::undirected_simple());
/// b.add_edge(0, 1).add_edge(1, 2).add_edge(1, 2); // duplicate dropped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 4); // two undirected edges, doubled
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<Edge>,
    options: BuildOptions,
}

impl GraphBuilder {
    /// New builder for a graph with `num_vertices` vertices.
    ///
    /// # Panics
    /// Panics if `num_vertices > MAX_VERTICES` (the sign bit of vertex ids is
    /// reserved for the PBV parent-marker protocol).
    pub fn new(num_vertices: usize, options: BuildOptions) -> Self {
        assert!(
            num_vertices <= crate::MAX_VERTICES,
            "vertex count {} exceeds MAX_VERTICES {}",
            num_vertices,
            crate::MAX_VERTICES
        );
        Self {
            num_vertices,
            edges: Vec::new(),
            options,
        }
    }

    /// Appends one edge. Ids are validated at [`build`](Self::build) time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Appends many edges.
    pub fn add_edges<I: IntoIterator<Item = Edge>>(&mut self, it: I) -> &mut Self {
        self.edges.extend(it);
        self
    }

    /// Applies a uniformly random permutation to the vertex ids of all edges
    /// accumulated so far. Used by benchmarks to remove incidental locality
    /// from structured generators (grids, small-world).
    pub fn permute_vertices<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &mut Self {
        let mut perm: Vec<VertexId> = (0..self.num_vertices as VertexId).collect();
        perm.shuffle(rng);
        for e in &mut self.edges {
            *e = (perm[e.0 as usize], perm[e.1 as usize]);
        }
        self
    }

    /// Consumes the builder and produces the CSR graph.
    ///
    /// Construction is a two-pass counting sort over sources — `O(|V| + |E|)`
    /// time, no per-vertex allocation — followed by optional per-list sort
    /// and dedup.
    ///
    /// # Panics
    /// Panics if any edge endpoint is out of range.
    pub fn build(self) -> CsrGraph {
        let n = self.num_vertices;
        let opts = self.options;
        let mut edges = self.edges;
        for &(u, v) in &edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
        }
        if opts.drop_self_loops {
            edges.retain(|&(u, v)| u != v);
        }
        let doubled = opts.symmetrize;
        let m = edges.len() * if doubled { 2 } else { 1 };

        // Pass 1: count out-degrees.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            if doubled {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        debug_assert_eq!(offsets[n], m as u64);

        // Pass 2: scatter.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; m];
        for &(u, v) in &edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            if doubled {
                neighbors[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }

        if opts.sort_neighbors || opts.dedup {
            for i in 0..n {
                let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
                neighbors[s..e].sort_unstable();
            }
        }
        if opts.dedup {
            let mut new_offsets = vec![0u64; n + 1];
            let mut w = 0usize;
            let mut deduped = vec![0 as VertexId; m];
            for i in 0..n {
                let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
                let mut prev: Option<VertexId> = None;
                for &x in &neighbors[s..e] {
                    if prev != Some(x) {
                        deduped[w] = x;
                        w += 1;
                        prev = Some(x);
                    }
                }
                new_offsets[i + 1] = w as u64;
            }
            deduped.truncate(w);
            return CsrGraph::from_parts(new_offsets, deduped);
        }

        CsrGraph::from_parts(offsets, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn directed_build_preserves_order_and_counts() {
        let mut b = GraphBuilder::new(3, BuildOptions::directed_raw());
        b.add_edge(0, 1).add_edge(0, 2).add_edge(2, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let mut b = GraphBuilder::new(3, BuildOptions::default());
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_symmetric());
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn dedup_removes_parallel_edges() {
        let mut b = GraphBuilder::new(2, BuildOptions::undirected_simple());
        b.add_edges([(0, 1), (0, 1), (1, 0)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn self_loops_dropped_when_requested() {
        let mut b = GraphBuilder::new(2, BuildOptions::undirected_simple());
        b.add_edges([(0, 0), (0, 1), (1, 1)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn self_loops_kept_by_default_directed() {
        let mut b = GraphBuilder::new(2, BuildOptions::directed_raw());
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    fn permutation_preserves_structure() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut b = GraphBuilder::new(16, BuildOptions::undirected_simple());
        for i in 0..15u32 {
            b.add_edge(i, i + 1); // a path
        }
        b.permute_vertices(&mut rng);
        let g = b.build();
        assert_eq!(g.num_edges(), 30);
        // A path still has exactly 2 vertices of degree 1 and 14 of degree 2.
        let deg1 = (0..16).filter(|&v| g.degree(v) == 1).count();
        let deg2 = (0..16).filter(|&v| g.degree(v) == 2).count();
        assert_eq!((deg1, deg2), (2, 14));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2, BuildOptions::directed_raw());
        b.add_edge(0, 5);
        b.build();
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(4, BuildOptions::default()).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_survive() {
        let mut b = GraphBuilder::new(10, BuildOptions::default());
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }
}
