//! Degree-ordered vertex relabeling (§III-C read-locality layout pass).
//!
//! The Phase I scatter and the bottom-up probes read `Adj` in frontier
//! order, so the DDR bytes actually moved per edge depend on how adjacency
//! lists share cache lines and pages. Power-law graphs concentrate most
//! edges on few vertices; sorting vertices by descending out-degree packs
//! those hot adjacency lists — and the hot ends of the DP/VIS arrays — into
//! a dense prefix of every per-vertex buffer. The same idea appears in
//! HyGraph's per-block degree-sorted layout (SNIPPETS.md snippet 1); here it
//! is applied globally at build time.
//!
//! Relabeling changes internal vertex ids, so the pass returns a
//! [`VertexPermutation`] and retains it on the relabeled [`CsrGraph`].
//! Sessions translate sources through it on the way in, and the engine's
//! answer epilogue writes depths and parents through it on the way out, so
//! the query layer and the serve endpoints only ever see external ids:
//! relabeling is invisible to clients.

use std::ops::Range;

use bfs_platform::topology::host_cores;
use serde::{Deserialize, Serialize};

use crate::csr::CsrGraph;
use crate::VertexId;

/// A bijection between *external* vertex ids (the ids clients use — the
/// graph as loaded) and *internal* ids (the relabeled layout the kernels
/// traverse). Both directions are materialized so per-query translation is
/// a single indexed load each way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexPermutation {
    /// `forward[external] = internal`.
    forward: Box<[VertexId]>,
    /// `inverse[internal] = external`.
    inverse: Box<[VertexId]>,
}

impl VertexPermutation {
    /// The identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Box<[VertexId]> = (0..n as VertexId).collect();
        VertexPermutation {
            forward: ids.clone(),
            inverse: ids,
        }
    }

    /// Builds a permutation from its two directions, verifying they are the
    /// same length and mutually inverse (which also proves each is a
    /// bijection on `0..n`).
    pub fn try_from_parts(forward: Vec<VertexId>, inverse: Vec<VertexId>) -> Result<Self, String> {
        if forward.len() != inverse.len() {
            return Err(format!(
                "permutation directions disagree on length: forward {} vs inverse {}",
                forward.len(),
                inverse.len()
            ));
        }
        let n = forward.len();
        for (ext, &int) in forward.iter().enumerate() {
            if (int as usize) >= n || inverse[int as usize] as usize != ext {
                return Err(format!(
                    "permutation is not a bijection: forward[{ext}] = {int}"
                ));
            }
        }
        Ok(VertexPermutation {
            forward: forward.into_boxed_slice(),
            inverse: inverse.into_boxed_slice(),
        })
    }

    /// Number of vertices the permutation covers.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Maps an external (client-facing) id to the internal layout id.
    #[inline]
    pub fn to_internal(&self, external: VertexId) -> VertexId {
        self.forward[external as usize]
    }

    /// Maps an internal layout id back to the external id.
    #[inline]
    pub fn to_external(&self, internal: VertexId) -> VertexId {
        self.inverse[internal as usize]
    }

    /// The full `external → internal` direction.
    pub fn forward(&self) -> &[VertexId] {
        &self.forward
    }

    /// The full `internal → external` direction.
    pub fn inverse(&self) -> &[VertexId] {
        &self.inverse
    }
}

impl Serialize for VertexPermutation {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("forward".to_string(), self.forward.to_value()),
            ("inverse".to_string(), self.inverse.to_value()),
        ])
    }
}

impl Deserialize for VertexPermutation {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let forward: Vec<VertexId> = Deserialize::from_value(serde::de_field(v, "forward")?)?;
        let inverse: Vec<VertexId> = Deserialize::from_value(serde::de_field(v, "inverse")?)?;
        VertexPermutation::try_from_parts(forward, inverse).map_err(serde::Error::custom)
    }
}

/// Relabels `graph` so internal ids run in descending out-degree order
/// (ties broken by original id, so the pass is deterministic), returning
/// the rewritten CSR with the permutation retained on it.
///
/// Each adjacency list is re-sorted ascending in the new id space, which
/// puts every list's highest-degree (hottest) neighbors first — the same
/// bytes the bottom-up first-hit probe wants early.
///
/// The order comes from a stable counting sort on degree and the new
/// offsets from a prefix sum of the degrees in that order. The gather and
/// per-list sort then run on one lane per host core
/// ([`bfs_platform::topology::host_cores`]), cut at whole lists by edge
/// count so each lane writes its own disjoint slice of the neighbor array.
/// The result does not depend on the number of lanes.
///
/// An empty or edgeless graph has nothing to reorder: the pass returns an
/// identical graph under the identity permutation (never panics — the
/// degenerate guard covers [`CsrGraph::empty`] explicitly).
///
/// Relabeling an already-relabeled graph composes the permutations, so
/// external ids always refer to the originally loaded graph.
pub fn degree_order(graph: &CsrGraph) -> (CsrGraph, VertexPermutation) {
    degree_order_on(graph, host_cores())
}

/// [`degree_order`] with the gather and per-list sort split over `lanes`
/// threads (the caller runs the first lane).
fn degree_order_on(graph: &CsrGraph, lanes: usize) -> (CsrGraph, VertexPermutation) {
    let n = graph.num_vertices();
    if n == 0 || graph.num_edges() == 0 {
        let perm = compose(graph.permutation(), &VertexPermutation::identity(n));
        let mut out = graph.clone();
        out.set_permutation(Some(perm.clone()));
        return (out, perm);
    }

    // order[new] = old: vertex ids by descending out-degree, ascending id
    // within a degree.
    let order = by_descending_degree(graph);
    let mut forward = vec![0 as VertexId; n];
    for (new_id, &old) in order.iter().enumerate() {
        forward[old as usize] = new_id as VertexId;
    }

    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut end = 0u64;
    for &old in &order {
        end += graph.neighbors(old).len() as u64;
        offsets.push(end);
    }

    let mut neighbors = vec![0 as VertexId; end as usize];
    let fill = |ids: Range<usize>, dst: &mut [VertexId]| {
        let base = offsets[ids.start];
        for new_id in ids {
            let list =
                &mut dst[(offsets[new_id] - base) as usize..(offsets[new_id + 1] - base) as usize];
            let old = graph.neighbors(order[new_id]);
            for (slot, &nb) in list.iter_mut().zip(old) {
                *slot = forward[nb as usize];
            }
            list.sort_unstable();
        }
    };
    let lanes = lanes.max(1);
    let mut parts = Vec::with_capacity(lanes);
    let mut rest = &mut neighbors[..];
    let mut lo = 0;
    for lane in 1..=lanes {
        // A lane takes the lists that start before its share of the edges
        // ends; the last lane also takes the degree-0 tail.
        let hi = if lane == lanes {
            n
        } else {
            let share = end * lane as u64 / lanes as u64;
            offsets.partition_point(|&o| o < share)
        };
        let (mine, tail) = rest.split_at_mut((offsets[hi] - offsets[lo]) as usize);
        parts.push((lo..hi, mine));
        rest = tail;
        lo = hi;
    }
    std::thread::scope(|s| {
        let mut parts = parts.into_iter();
        let first = parts.next();
        for (ids, dst) in parts {
            s.spawn(move || fill(ids, dst));
        }
        if let Some((ids, dst)) = first {
            fill(ids, dst);
        }
    });

    let step = VertexPermutation {
        forward: forward.into_boxed_slice(),
        inverse: order.into_boxed_slice(),
    };
    let perm = compose(graph.permutation(), &step);
    let mut out = CsrGraph::from_parts(offsets, neighbors);
    out.set_permutation(Some(perm.clone()));
    (out, perm)
}

/// All vertex ids ordered by descending out-degree, ascending id within a
/// degree: a stable counting sort keyed on degree.
fn by_descending_degree(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let max_degree = (0..n as VertexId)
        .map(|v| graph.degree(v))
        .max()
        .unwrap_or(0);
    // next[d] = first slot of degree d: the count of vertices of higher
    // degree.
    let mut next = vec![0usize; max_degree as usize + 1];
    for v in 0..n as VertexId {
        next[graph.degree(v) as usize] += 1;
    }
    let mut start = 0;
    for slot in next.iter_mut().rev() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![0 as VertexId; n];
    for v in 0..n as VertexId {
        let slot = &mut next[graph.degree(v) as usize];
        order[*slot] = v;
        *slot += 1;
    }
    order
}

/// Composes an optional pre-existing permutation (external → `graph`'s
/// internal space) with a relabeling step applied on top of it.
fn compose(existing: Option<&VertexPermutation>, step: &VertexPermutation) -> VertexPermutation {
    match existing {
        None => step.clone(),
        Some(base) => {
            let forward: Box<[VertexId]> = base
                .forward
                .iter()
                .map(|&mid| step.forward[mid as usize])
                .collect();
            let inverse: Box<[VertexId]> = step
                .inverse
                .iter()
                .map(|&mid| base.inverse[mid as usize])
                .collect();
            VertexPermutation { forward, inverse }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rmat::{rmat, RmatConfig};
    use crate::rng::rng_from_seed;
    use rand::Rng;

    fn star_plus_chain() -> CsrGraph {
        // 0-1, 2-{3,4,5}: vertex 2 has the highest degree, then 3-way ties.
        CsrGraph::from_parts(vec![0, 1, 2, 5, 6, 7, 8], vec![1, 0, 3, 4, 5, 2, 2, 2])
    }

    /// The construction `degree_order` replaced, kept as the oracle: a
    /// comparison sort on `(descending degree, id)`, then one serial
    /// gather and per-list sort.
    fn reference_degree_order(graph: &CsrGraph) -> (CsrGraph, VertexPermutation) {
        let n = graph.num_vertices();
        if n == 0 || graph.num_edges() == 0 {
            let perm = compose(graph.permutation(), &VertexPermutation::identity(n));
            let mut out = graph.clone();
            out.set_permutation(Some(perm.clone()));
            return (out, perm);
        }
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        let mut forward = vec![0 as VertexId; n];
        for (new_id, &old) in order.iter().enumerate() {
            forward[old as usize] = new_id as VertexId;
        }
        let mut offsets = vec![0u64];
        let mut neighbors = Vec::new();
        for &old in &order {
            let start = neighbors.len();
            neighbors.extend(graph.neighbors(old).iter().map(|&nb| forward[nb as usize]));
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len() as u64);
        }
        let step = VertexPermutation {
            forward: forward.into_boxed_slice(),
            inverse: order.into_boxed_slice(),
        };
        let perm = compose(graph.permutation(), &step);
        let mut out = CsrGraph::from_parts(offsets, neighbors);
        out.set_permutation(Some(perm.clone()));
        (out, perm)
    }

    /// A CSR graph from per-vertex neighbor lists, kept as given (unsorted,
    /// repeated, self loops).
    fn from_lists(lists: &[Vec<VertexId>]) -> CsrGraph {
        let mut offsets = vec![0u64];
        for list in lists {
            offsets.push(offsets.last().unwrap() + list.len() as u64);
        }
        CsrGraph::from_parts(offsets, lists.concat())
    }

    /// Graphs that stress the lane split: skewed, one list holding most
    /// edges, a degree-0 tail, fewer vertices than lanes, an asymmetric
    /// multigraph, and the degenerate empty and edgeless graphs.
    fn lane_split_graphs() -> Vec<(&'static str, CsrGraph)> {
        let mut rng = rng_from_seed(9);
        let multigraph: Vec<Vec<VertexId>> = (0..60)
            .map(|_| {
                let degree = rng.random_range(0..12u32);
                (0..degree).map(|_| rng.random_range(0..60u32)).collect()
            })
            .collect();
        // Hub 0 points at every leaf twice; each leaf points back once.
        let mut star = vec![(1..40).chain(1..40).rev().collect::<Vec<VertexId>>()];
        star.extend((1..40).map(|_| vec![0]));
        // Vertices 30.. have no edges in either direction.
        let mut tail: Vec<Vec<VertexId>> =
            (0..30).map(|v| vec![(v + 1) % 30, (v + 7) % 30]).collect();
        tail.extend((0..25).map(|_| Vec::new()));
        vec![
            (
                "rmat",
                rmat(&RmatConfig::paper(10, 8), &mut rng_from_seed(21)),
            ),
            ("star", from_lists(&star)),
            ("degree-0 tail", from_lists(&tail)),
            ("n < lanes", from_lists(&[vec![2, 1], vec![], vec![0]])),
            ("one vertex", from_lists(&[vec![0, 0, 0]])),
            ("multigraph", from_lists(&multigraph)),
            ("empty", CsrGraph::empty(0)),
            ("edgeless", CsrGraph::empty(64)),
        ]
    }

    #[test]
    fn lane_split_matches_the_serial_construction() {
        for (name, g) in lane_split_graphs() {
            let (want, want_perm) = reference_degree_order(&g);
            let (want2, want_perm2) = reference_degree_order(&want);
            for lanes in 1..=5 {
                let (got, got_perm) = degree_order_on(&g, lanes);
                assert_eq!(got, want, "{name}, {lanes} lanes: graph differs");
                assert_eq!(
                    got_perm, want_perm,
                    "{name}, {lanes} lanes: permutation differs"
                );
                // Relabeling the relabeled graph composes the permutations.
                let (got2, got_perm2) = degree_order_on(&got, 6 - lanes);
                assert_eq!(got2, want2, "{name}, {lanes} lanes: second pass differs");
                assert_eq!(
                    got_perm2, want_perm2,
                    "{name}, {lanes} lanes: composition differs"
                );
            }
        }
    }

    #[test]
    fn degree_order_sorts_descending() {
        let g = star_plus_chain();
        let (rg, perm) = degree_order(&g);
        assert_eq!(rg.num_vertices(), g.num_vertices());
        assert_eq!(rg.num_edges(), g.num_edges());
        // Internal degrees must be non-increasing.
        let degs: Vec<u32> = (0..rg.num_vertices() as VertexId)
            .map(|v| rg.degree(v))
            .collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "{degs:?}");
        // The old hub (external 2, degree 3) must be internal 0.
        assert_eq!(perm.to_internal(2), 0);
        assert_eq!(perm.to_external(0), 2);
        // Edges survive as a set under translation.
        let mut orig: Vec<_> = g.edges().collect();
        let mut back: Vec<_> = rg
            .edges()
            .map(|(u, v)| (perm.to_external(u), perm.to_external(v)))
            .collect();
        orig.sort_unstable();
        back.sort_unstable();
        assert_eq!(orig, back);
        // The relabeled graph retains the permutation.
        assert_eq!(rg.permutation(), Some(&perm));
    }

    #[test]
    fn roundtrip_is_identity() {
        let g = rmat(&RmatConfig::paper(8, 4), &mut rng_from_seed(11));
        let (_, perm) = degree_order(&g);
        for ext in 0..g.num_vertices() as VertexId {
            assert_eq!(perm.to_external(perm.to_internal(ext)), ext);
        }
        for int in 0..g.num_vertices() as VertexId {
            assert_eq!(perm.to_internal(perm.to_external(int)), int);
        }
    }

    #[test]
    fn empty_and_edgeless_graphs_are_noops() {
        for g in [CsrGraph::empty(0), CsrGraph::empty(64)] {
            let (rg, perm) = degree_order(&g);
            assert_eq!(rg.num_vertices(), g.num_vertices());
            assert_eq!(rg.num_edges(), 0);
            assert_eq!(perm.len(), g.num_vertices());
            for v in 0..g.num_vertices() as VertexId {
                assert_eq!(perm.to_internal(v), v, "identity expected");
            }
        }
    }

    #[test]
    fn relabeling_twice_composes_to_original_external_ids() {
        let g = rmat(&RmatConfig::paper(7, 6), &mut rng_from_seed(3));
        let (r1, _) = degree_order(&g);
        let (r2, perm2) = degree_order(&r1);
        // A second pass over an already-degree-sorted graph is the identity
        // step, so the composed permutation equals the first one.
        let mut back: Vec<_> = r2
            .edges()
            .map(|(u, v)| (perm2.to_external(u), perm2.to_external(v)))
            .collect();
        let mut orig: Vec<_> = g.edges().collect();
        back.sort_unstable();
        orig.sort_unstable();
        assert_eq!(orig, back, "external ids must survive double relabeling");
    }

    #[test]
    fn determinism() {
        let g = rmat(&RmatConfig::paper(8, 4), &mut rng_from_seed(5));
        let (a, pa) = degree_order(&g);
        let (b, pb) = degree_order(&g);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
    }

    #[test]
    fn permutation_validation_rejects_corruption() {
        assert!(VertexPermutation::try_from_parts(vec![0, 1], vec![0]).is_err());
        assert!(VertexPermutation::try_from_parts(vec![0, 0], vec![0, 1]).is_err());
        assert!(VertexPermutation::try_from_parts(vec![0, 7], vec![0, 1]).is_err());
        assert!(VertexPermutation::try_from_parts(vec![1, 0], vec![1, 0]).is_ok());
    }

    #[test]
    fn permutation_serde_roundtrip_and_validation() {
        let p = VertexPermutation::try_from_parts(vec![2, 0, 1], vec![1, 2, 0]).unwrap();
        let v = p.to_value();
        let back = VertexPermutation::from_value(&v).unwrap();
        assert_eq!(p, back);
        // A tampered payload must be rejected, not constructed.
        let bad = serde::Value::Object(vec![
            ("forward".into(), vec![0u32, 0u32].to_value()),
            ("inverse".into(), vec![0u32, 1u32].to_value()),
        ]);
        assert!(VertexPermutation::from_value(&bad).is_err());
    }
}
