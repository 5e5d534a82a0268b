//! Graph statistics used by the Table II reproduction and by experiment
//! harnesses: degree summary, reachable-set size, BFS depth ("Depth" in
//! Table II is the eccentricity of the chosen source), and the paper's
//! model inputs |V′|, |E′| and ρ′.

use serde::{Deserialize, Serialize};

use crate::csr::CsrGraph;
use crate::VertexId;

/// Serial BFS from `source`; returns `(histogram, reached)` where
/// `histogram[d]` is the number of vertices at depth `d` and `reached` is the
/// total number of visited vertices. Used as a pure-Rust oracle everywhere.
pub fn bfs_depth_histogram(g: &CsrGraph, source: VertexId) -> (Vec<u64>, u64) {
    let n = g.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut depth = vec![u32::MAX; n];
    depth[source as usize] = 0;
    let mut hist = vec![1u64];
    let mut reached = 1u64;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if depth[v as usize] == u32::MAX {
                    depth[v as usize] = d + 1;
                    next.push(v);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        hist.push(next.len() as u64);
        reached += next.len() as u64;
        std::mem::swap(&mut frontier, &mut next);
        d += 1;
    }
    (hist, reached)
}

/// The model inputs of §IV for a traversal from `source`:
/// number of vertices assigned a depth (|V′|), traversed edges (|E′| — the sum
/// of degrees over visited vertices, the Graph500 counting convention the
/// paper uses for edges/second), their ratio ρ′, and the BFS depth D.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraversalShape {
    /// |V′|: vertices assigned a depth.
    pub visited_vertices: u64,
    /// |E′|: edges traversed (sum of degrees of visited vertices).
    pub traversed_edges: u64,
    /// ρ′ = |E′| / |V′|.
    pub rho_prime: f64,
    /// D: number of BFS levels below the root (max depth).
    pub depth: u32,
}

/// Computes [`TraversalShape`] with a serial BFS.
pub fn traversal_shape(g: &CsrGraph, source: VertexId) -> TraversalShape {
    let n = g.num_vertices();
    let mut depth = vec![u32::MAX; n];
    depth[source as usize] = 0;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut visited = 1u64;
    let mut traversed = g.degree(source) as u64;
    let mut max_depth = 0u32;
    let mut d = 0u32;
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            for &v in g.neighbors(u) {
                if depth[v as usize] == u32::MAX {
                    depth[v as usize] = d + 1;
                    next.push(v);
                    visited += 1;
                    traversed += g.degree(v) as u64;
                    max_depth = d + 1;
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        d += 1;
    }
    TraversalShape {
        visited_vertices: visited,
        traversed_edges: traversed,
        rho_prime: traversed as f64 / visited as f64,
        depth: max_depth,
    }
}

/// Summary statistics for one graph — the columns of Table II.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphSummary {
    pub num_vertices: u64,
    pub num_edges: u64,
    pub avg_degree: f64,
    pub max_degree: u32,
    pub isolated_vertices: u64,
    /// BFS depth from the given source (Table II's "Depth" column).
    pub bfs_depth: u32,
    /// Fraction of edges covered by the traversal from the source (the paper
    /// reports >98% for its runs).
    pub edge_coverage: f64,
}

/// Computes [`GraphSummary`] using a BFS from `source`.
pub fn summarize(g: &CsrGraph, source: VertexId) -> GraphSummary {
    let shape = traversal_shape(g, source);
    let mut max_degree = 0u32;
    let mut isolated = 0u64;
    for v in 0..g.num_vertices() as VertexId {
        let d = g.degree(v);
        max_degree = max_degree.max(d);
        if d == 0 {
            isolated += 1;
        }
    }
    GraphSummary {
        num_vertices: g.num_vertices() as u64,
        num_edges: g.num_edges(),
        avg_degree: g.average_degree(),
        max_degree,
        isolated_vertices: isolated,
        bfs_depth: shape.depth,
        edge_coverage: if g.num_edges() == 0 {
            1.0
        } else {
            shape.traversed_edges as f64 / g.num_edges() as f64
        },
    }
}

/// Picks a source vertex of non-zero degree deterministically: the smallest
/// id with degree > 0 after `skip` such vertices. Mirrors Graph500's "sample
/// roots with degree ≥ 1" requirement without randomness.
pub fn nth_non_isolated(g: &CsrGraph, skip: usize) -> Option<VertexId> {
    (0..g.num_vertices() as VertexId)
        .filter(|&v| g.degree(v) > 0)
        .nth(skip)
}

/// Samples `count` Graph500-style search keys: uniformly random vertices of
/// non-zero degree, deterministic for a given seed. Keys are distinct while
/// the graph has enough non-isolated vertices; after that, repeats are
/// allowed (so small graphs can still serve large batches). Returns an
/// empty vector when the graph has no edges.
pub fn random_roots(g: &CsrGraph, count: usize, seed: u64) -> Vec<VertexId> {
    use rand::Rng;
    let n = g.num_vertices();
    let non_isolated = (0..n as VertexId).filter(|&v| g.degree(v) > 0).count();
    if non_isolated == 0 {
        return Vec::new();
    }
    let mut rng = crate::rng::rng_from_seed(seed);
    let mut roots = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    while roots.len() < count {
        let v = rng.random_range(0..n) as VertexId;
        if g.degree(v) == 0 {
            continue;
        }
        if seen.len() < non_isolated && !seen.insert(v) {
            continue;
        }
        roots.push(v);
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::classic::{path, star, two_cliques};
    use crate::gen::rmat::{rmat, RmatConfig};
    use crate::rng::rng_from_seed;

    #[test]
    fn shape_of_path() {
        let g = path(5);
        let s = traversal_shape(&g, 0);
        assert_eq!(s.visited_vertices, 5);
        assert_eq!(s.traversed_edges, 8);
        assert_eq!(s.depth, 4);
    }

    #[test]
    fn shape_of_star_center_vs_leaf() {
        let g = star(5);
        let c = traversal_shape(&g, 0);
        assert_eq!((c.visited_vertices, c.depth), (5, 1));
        let l = traversal_shape(&g, 1);
        assert_eq!((l.visited_vertices, l.depth), (5, 2));
    }

    #[test]
    fn disconnected_components_limit_coverage() {
        let g = two_cliques(3, 3);
        let s = traversal_shape(&g, 0);
        assert_eq!(s.visited_vertices, 3);
        let summary = summarize(&g, 0);
        assert!((summary.edge_coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rmat_shape_matches_paper_regime() {
        // §V-C: for RMAT |V|=8M deg 8, |V'| ≈ |V|/2 and ρ' ≈ 2·deg — the
        // same regime must appear at small scale.
        let cfg = RmatConfig::paper(14, 8);
        let g = rmat(&cfg, &mut rng_from_seed(11));
        let src = nth_non_isolated(&g, 0).unwrap();
        let s = traversal_shape(&g, src);
        let v_ratio = s.visited_vertices as f64 / g.num_vertices() as f64;
        assert!(
            (0.3..0.95).contains(&v_ratio),
            "visited fraction {v_ratio} outside RMAT regime"
        );
        assert!(
            s.rho_prime > g.average_degree(),
            "visited vertices should be better-connected than average"
        );
    }

    #[test]
    fn nth_non_isolated_skips() {
        let g = two_cliques(2, 2);
        assert_eq!(nth_non_isolated(&g, 0), Some(0));
        assert_eq!(nth_non_isolated(&g, 2), Some(2));
        assert_eq!(nth_non_isolated(&g, 4), None);
    }

    #[test]
    fn histogram_and_shape_agree() {
        let g = path(9);
        let (hist, reached) = bfs_depth_histogram(&g, 4);
        let s = traversal_shape(&g, 4);
        assert_eq!(reached, s.visited_vertices);
        assert_eq!(hist.len() as u32 - 1, s.depth);
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::CsrGraph::empty(0);
        assert_eq!(bfs_depth_histogram(&g, 0).1, 0);
    }

    #[test]
    fn random_roots_are_reachable_deterministic_and_distinct() {
        let g = two_cliques(4, 4);
        // 8 vertices, all non-isolated: 8 distinct roots exist.
        let roots = random_roots(&g, 8, 7);
        let mut sorted = roots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
        assert_eq!(roots, random_roots(&g, 8, 7), "same seed, same keys");
        assert_ne!(roots, random_roots(&g, 8, 8), "seed changes the sample");
        // Asking for more roots than non-isolated vertices allows repeats.
        assert_eq!(random_roots(&g, 20, 1).len(), 20);
        // Isolated vertices are never sampled.
        let g = star(5); // center 0 plus 5 leaves, all degree >= 1
        assert!(random_roots(&g, 12, 3).iter().all(|&v| g.degree(v) > 0));
        // Edgeless graphs yield no roots.
        assert!(random_roots(&crate::CsrGraph::empty(4), 3, 0).is_empty());
    }
}
