//! The paper's contribution: lock- and atomic-free, cache-friendly,
//! load-balanced BFS traversal for multi-socket CPUs.
//!
//! Module map (paper section in parentheses):
//!
//! * [`dp`] — the packed depth+parent array `DP` written with single aligned
//!   stores, the linchpin of the atomic-free correctness argument (§III-A).
//! * [`vis`] — the `VIS` visited-filter schemes compared in Figure 4: no
//!   filter, atomic bitmap (Agarwal-style), and the paper's atomic-free byte
//!   and bit arrays (§III-A). The Agarwal et al. baseline of Figure 6 is
//!   the [`engine`] under the atomic bitmap with binning, rearrangement and
//!   prefetch switched off (`bfs_bench::runs::agarwal_options`).
//! * [`cell`] — `ThreadOwned<T>`: the phase-separated single-writer cells
//!   that let the SPMD region publish per-thread `BV`/`PBV` buffers across
//!   barriers without locks.
//! * [`direction`] — the direction-optimizing extension (beyond the paper):
//!   per-level top-down/bottom-up selection via Beamer-style α/β thresholds
//!   and the dense frontier bitmap the bottom-up kernel probes.
//! * [`pbv`] — Potential Boundary Vertex bins: geometry (`N_VIS`, `N_PBV`,
//!   bin↔socket alignment, a neighbor's bin as one shift of its id),
//!   parent-marker and (parent, vertex) encodings (§III-B3, §III-C(4),
//!   §III-C(6)).
//! * [`balance`] — the load-balanced, locality-aware division of binned work
//!   across sockets and threads: every socket gets an even share of vertices
//!   as a few whole bins plus at most two partial bins (§III-B3(a)).
//! * [`frontier`] — per-thread boundary-vertex arrays and the one-pass
//!   TLB-aware rearrangement (§III-B3(b), §III-C(7)).
//! * [`prefetch`] — software prefetch of adjacency lists (§III-C(3)).
//! * [`engine`] — the complete two-phase traversal of Figure 3.
//! * [`session`] — persistent query sessions: an O(1) epoch-stamped `DP`
//!   reset, a one-pass `VIS` reset, and batched multi-source BFS over one
//!   engine.
//! * [`query`] — the dispatch seam servers build on: typed query kinds
//!   (reach, path, multi-source batch) with validation separated from
//!   execution, and tree-path reconstruction from the parent array.
//! * [`serial`] — the textbook BFS of Figure 1, the correctness oracle.
//! * [`validate`] — Graph500-style BFS-tree validation.
//! * [`stats`] — traversal statistics (traversed edges, steps, phase times).
//! * [`sim`] — replay of the algorithm on the simulated machine of
//!   `bfs-memsim`, producing the traffic measurements behind Figures 4/5/8.
//!
//! # Example
//!
//! ```
//! use bfs_core::{BfsEngine, BfsOptions};
//! use bfs_graph::gen::uniform::uniform_random;
//! use bfs_graph::rng::rng_from_seed;
//! use bfs_platform::Topology;
//!
//! let graph = uniform_random(1000, 6, &mut rng_from_seed(1));
//! let engine = BfsEngine::new(&graph, Topology::synthetic(2, 2), BfsOptions::default());
//! let out = engine.run(0);
//! assert_eq!(out.depths[0], 0);
//! assert!(out.stats.visited_vertices > 900);
//! bfs_core::validate::validate_bfs_tree(&graph, 0, &out.depths, &out.parents).unwrap();
//! ```

pub mod balance;
pub mod cell;
pub mod direction;
pub mod dp;
pub mod engine;
pub mod frontier;
pub mod pbv;
pub mod prefetch;
pub mod query;
pub mod serial;
pub mod session;
pub mod sim;
pub mod stats;
pub mod validate;
pub mod vis;

pub use direction::{count_switches, Direction, DirectionPolicy, FrontierBitmap};
pub use dp::{DepthParent, INF_DEPTH};
pub use engine::{BfsEngine, BfsOptions, BfsOutput, HugepageStatus, HwCounterStatus, Scheduling};
pub use pbv::PbvEncoding;
pub use query::{QueryError, QueryKind, QueryOutcome};
pub use session::BfsSession;
pub use stats::TraversalStats;
pub use vis::VisScheme;

/// Vertex id, re-exported from the graph crate.
pub type VertexId = bfs_graph::VertexId;
