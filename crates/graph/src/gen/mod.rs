//! Synthetic graph generators covering every workload family in the paper's
//! evaluation (§V):
//!
//! * [`uniform`] — Uniformly Random (UR) graphs with fixed degree, and plain
//!   random-endpoint graphs (footnote 5).
//! * [`rmat`] — R-MAT power-law graphs with the Graph500 parameterization
//!   (`a=0.57, b=c=0.19, d=0.05`), including the `scale`/`edgefactor`
//!   convention used for the Toy++ instance.
//! * [`stress`] — the bipartite *stress-case* graph of §V-A, designed so the
//!   frontier alternates between vertex ranges owned by different sockets.
//! * [`grid`] — 2-D lattices (road-network proxies: average degree ≈ 2–4,
//!   diameter in the thousands) and 3-D stencil grids (sparse-matrix mesh
//!   proxies such as Cage15 / Nlpkkt160).
//! * [`smallworld`] — Watts–Strogatz graphs with tunable diameter (proxies
//!   for FreeScale1 / Wikipedia-like inputs).
//! * [`classic`] — paths, cycles, stars, complete graphs, binary trees and
//!   other deterministic shapes used by the test suites.
//! * [`proxy`] — pre-sized configurations reproducing the rows of Table II.
//!
//! All generators are deterministic given a seed; see [`crate::rng`].

pub mod classic;
pub mod grid;
pub mod proxy;
pub mod rmat;
pub mod smallworld;
pub mod stress;
pub mod uniform;
