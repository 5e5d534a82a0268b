//! Graph representations and synthetic workload generators.
//!
//! This crate is the data substrate of the reproduction of Chhugani et al.,
//! *"Fast and Efficient Graph Traversal Algorithm for CPUs: Maximizing
//! Single-Node Efficiency"* (IPDPS 2012). It provides:
//!
//! * [`CsrGraph`] — a compressed-sparse-row adjacency structure, the in-memory
//!   equivalent of the paper's "2D Adjacency Array" (`Adj[i][0]` holds the
//!   neighbor count, `Adj[i][j]` the `j`-th neighbor).
//! * [`builder::GraphBuilder`] — edge-list ingestion with optional
//!   symmetrization, deduplication and vertex-id permutation.
//! * [`gen`] — deterministic generators for every graph family the paper
//!   evaluates: uniformly random fixed-degree graphs, R-MAT / Graph500
//!   Kronecker-style graphs, the bipartite *stress-case* graph of §V-A,
//!   lattice/stencil grids and small-world graphs standing in for the
//!   real-world inputs of Table II, plus classic shapes for testing.
//! * [`stats`] — degree and eccentricity statistics used to reproduce
//!   Table II.
//! * [`io`] — text and binary edge-list serialization.
//! * [`relabel`] — the degree-ordered layout pass (§III-C read locality):
//!   rewrites the CSR under descending-out-degree ids and retains the
//!   external↔internal [`VertexPermutation`] on the graph.
//!
//! Vertex ids are `u32` throughout, as in the paper (4-byte frontier and bin
//! entries are load-bearing constants in the §IV traffic model).

pub mod builder;
pub mod csr;
pub mod gen;
pub mod io;
pub mod relabel;
pub mod rng;
pub mod stats;

pub use builder::{BuildOptions, GraphBuilder};
pub use csr::CsrGraph;
pub use relabel::{degree_order, VertexPermutation};

/// Vertex identifier. The paper's model charges 4 bytes per frontier / bin
/// entry, so 32-bit ids are part of the reproduced design, not an arbitrary
/// choice. Graphs are limited to `2^31` vertices because the `PBV` parent
/// marker protocol (§III-C(4)) reserves the sign bit.
pub type VertexId = u32;

/// Maximum supported vertex count (`2^31`): the sign bit of a vertex id is
/// reserved for the parent-marker encoding in `PBV` bins.
pub const MAX_VERTICES: usize = 1 << 31;

/// An undirected or directed edge as produced by generators and I/O.
pub type Edge = (VertexId, VertexId);
