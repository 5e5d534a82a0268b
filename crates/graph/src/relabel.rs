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
/// An empty or edgeless graph has nothing to reorder: the pass returns an
/// identical graph under the identity permutation (never panics — the
/// degenerate guard covers [`CsrGraph::empty`] explicitly).
///
/// Relabeling an already-relabeled graph composes the permutations, so
/// external ids always refer to the originally loaded graph.
pub fn degree_order(graph: &CsrGraph) -> (CsrGraph, VertexPermutation) {
    let n = graph.num_vertices();
    if n == 0 || graph.num_edges() == 0 {
        let perm = compose(graph.permutation(), &VertexPermutation::identity(n));
        let mut out = graph.clone();
        out.set_permutation(Some(perm.clone()));
        return (out, perm);
    }

    // order[new] = old: vertex ids sorted by descending out-degree.
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut forward = vec![0 as VertexId; n];
    for (new_id, &old) in order.iter().enumerate() {
        forward[old as usize] = new_id as VertexId;
    }

    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let mut neighbors = Vec::with_capacity(graph.num_edges() as usize);
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

    fn star_plus_chain() -> CsrGraph {
        // 0-1, 2-{3,4,5}: vertex 2 has the highest degree, then 3-way ties.
        CsrGraph::from_parts(vec![0, 1, 2, 5, 6, 7, 8], vec![1, 0, 3, 4, 5, 2, 2, 2])
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
