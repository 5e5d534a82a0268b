//! Socket topology and the vertex→socket mapping rule.

use serde::{Deserialize, Serialize};

/// Index of a socket (NUMA node).
pub type SocketId = usize;

/// Logical description of a multi-socket machine: how many sockets, how many
/// worker threads ("lanes") per socket, and the cache geometry the algorithm
/// sizes its structures against. Defaults mirror the paper's dual-socket
/// Xeon X5570 (§V, Table I): 2 sockets × 4 cores, 256 KB L2 per core, 8 MB
/// shared LLC per socket, 64 B lines, 4 KB pages, 512-entry second-level TLB.
///
/// ```
/// use bfs_platform::Topology;
///
/// let t = Topology::xeon_x5570_2s();
/// assert_eq!(t.total_threads(), 8);
/// // §III-C(1): vertex → socket by power-of-two stripes.
/// assert_eq!(t.socket_of_vertex(0, 12), 0);
/// assert_eq!(t.socket_of_vertex(9, 12), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of sockets, the paper's `N_S`.
    pub sockets: usize,
    /// Worker threads per socket (= cores per socket in the paper's runs).
    pub lanes_per_socket: usize,
    /// Per-core private L2 size in bytes (`|L2|`).
    pub l2_bytes: u64,
    /// Per-socket shared last-level cache size in bytes (`|C|`).
    pub llc_bytes: u64,
    /// Cache line size in bytes (`L`).
    pub cache_line: u64,
    /// Virtual-memory page size in bytes (for the TLB rearrangement).
    pub page_bytes: u64,
    /// Number of simultaneously mapped pages the TLB holds.
    pub tlb_entries: u64,
}

impl Topology {
    /// The paper's dual-socket Nehalem-EP topology.
    pub fn xeon_x5570_2s() -> Self {
        Self {
            sockets: 2,
            lanes_per_socket: 4,
            l2_bytes: 256 << 10,
            llc_bytes: 8 << 20,
            cache_line: 64,
            page_bytes: 4096,
            tlb_entries: 512,
        }
    }

    /// A synthetic topology with the paper's cache geometry but arbitrary
    /// socket/lane counts.
    pub fn synthetic(sockets: usize, lanes_per_socket: usize) -> Self {
        Self {
            sockets,
            lanes_per_socket,
            ..Self::xeon_x5570_2s()
        }
    }

    /// Single-socket topology sized to the current host's parallelism.
    pub fn host() -> Self {
        Self::synthetic(1, host_cores())
    }

    /// Total worker threads, `sockets × lanes_per_socket`.
    pub fn total_threads(&self) -> usize {
        self.sockets * self.lanes_per_socket
    }

    /// Validates invariants; call before handing to a pool.
    pub fn validate(&self) {
        assert!(self.sockets > 0, "need at least one socket");
        assert!(
            self.lanes_per_socket > 0,
            "need at least one lane per socket"
        );
        assert!(self.cache_line.is_power_of_two(), "cache line must be 2^k");
        assert!(self.page_bytes.is_power_of_two(), "page size must be 2^k");
        assert!(self.llc_bytes > 0 && self.l2_bytes > 0);
    }

    /// `|V_NS|` of §III-C(1): vertices per socket rounded up to the nearest
    /// power of two, so `Socket_Id(v)` is a shift.
    pub fn vertices_per_socket(&self, num_vertices: usize) -> usize {
        vertices_per_socket(num_vertices, self.sockets)
    }

    /// `Socket_Id(v) = v >> log2(|V_NS|)`, clamped to the last socket (the
    /// power-of-two round-up can leave the last socket's range short).
    pub fn socket_of_vertex(&self, v: u32, num_vertices: usize) -> SocketId {
        let vns = self.vertices_per_socket(num_vertices);
        ((v as usize) >> vns.trailing_zeros()).min(self.sockets - 1)
    }

    /// Global thread id for (socket, lane).
    pub fn thread_id(&self, socket: SocketId, lane: usize) -> usize {
        socket * self.lanes_per_socket + lane
    }

    /// (socket, lane) for a global thread id.
    pub fn socket_lane(&self, thread_id: usize) -> (SocketId, usize) {
        (
            thread_id / self.lanes_per_socket,
            thread_id % self.lanes_per_socket,
        )
    }
}

/// Number of cores the host exposes to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1)
}

/// Free-function form of [`Topology::vertices_per_socket`]:
/// `pow(2, ceil(log2(|V| / N_S)))`, minimum 1.
pub fn vertices_per_socket(num_vertices: usize, sockets: usize) -> usize {
    assert!(sockets > 0);
    let per = num_vertices.div_ceil(sockets).max(1);
    per.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_constants() {
        let t = Topology::xeon_x5570_2s();
        t.validate();
        assert_eq!(t.total_threads(), 8);
        assert_eq!(t.llc_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn vns_power_of_two_rule() {
        // |V| = 12, N_S = 2 → ceil(12/2)=6 → 8.
        assert_eq!(vertices_per_socket(12, 2), 8);
        // exact power of two stays.
        assert_eq!(vertices_per_socket(16, 2), 8);
        assert_eq!(vertices_per_socket(16, 4), 4);
        // tiny graphs
        assert_eq!(vertices_per_socket(1, 4), 1);
        assert_eq!(vertices_per_socket(0, 2), 1);
    }

    #[test]
    fn socket_of_vertex_partitions_contiguously() {
        let t = Topology::synthetic(2, 2);
        let n = 12; // V_NS = 8
        let sockets: Vec<_> = (0..12u32).map(|v| t.socket_of_vertex(v, n)).collect();
        assert_eq!(sockets, [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn socket_of_vertex_clamps_on_many_sockets() {
        // |V| = 4, N_S = 4 → V_NS = 1; ids map 1:1, clamped at 3.
        let t = Topology::synthetic(4, 1);
        assert_eq!(t.socket_of_vertex(3, 4), 3);
        // |V| = 3, N_S = 4 → V_NS = 1; vertex 2 → socket 2.
        assert_eq!(t.socket_of_vertex(2, 3), 2);
    }

    #[test]
    fn thread_id_roundtrip() {
        let t = Topology::synthetic(3, 4);
        for tid in 0..12 {
            let (s, l) = t.socket_lane(tid);
            assert_eq!(t.thread_id(s, l), tid);
            assert!(s < 3 && l < 4);
        }
    }

    #[test]
    fn host_reports_at_least_one_core() {
        assert!(host_cores() >= 1);
    }

    #[test]
    fn host_topology_is_single_socket() {
        let t = Topology::host();
        t.validate();
        assert_eq!(t.sockets, 1);
        assert!(t.lanes_per_socket >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn validate_rejects_zero_sockets() {
        let mut t = Topology::host();
        t.sockets = 0;
        t.validate();
    }
}
