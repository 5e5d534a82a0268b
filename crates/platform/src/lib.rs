//! Software multi-socket platform substrate.
//!
//! The paper runs on a dual-socket Intel Xeon X5570 with libnuma for
//! locality-aware allocation and per-socket thread placement. This crate
//! reproduces the *interfaces* that the BFS algorithm consumes from such a
//! machine, as plain Rust:
//!
//! * [`Topology`] — socket count, cores per socket, cache geometry and the
//!   `|V_NS|` vertex→socket mapping rule of §III-C(1):
//!   `Socket_Id(v) = v >> log2(|V_NS|)` with `|V_NS|` rounded up to a power
//!   of two.
//! * [`barrier::SenseBarrier`] — the synchronization point between BFS steps
//!   and between Phase I / Phase II: a sense-reversing spin barrier with
//!   yield fallback (the host here has fewer cores than the paper's machine,
//!   so pure spinning would deadlock the oversubscribed schedule).
//! * [`pool::SocketPool`] — a persistent SPMD region runner: the caller of
//!   `run` is lane 0, long-lived workers parked between runs are the other
//!   (socket, lane) pairs, and each thread gets a [`pool::ThreadCtx`]
//!   describing its place in the topology. A run costs one wake, not N
//!   thread spawns — the fast path for query serving.
//! * [`padded::PerThreadSlots`] — cache-line-padded single-writer cells,
//!   one per pool thread: the sharding primitive behind always-on metrics
//!   (plain unsynchronized stores on the hot path, merged after `run`
//!   returns).

pub mod barrier;
pub mod hugepage;
pub mod padded;
pub mod pool;
pub mod topology;

pub use barrier::SenseBarrier;
pub use hugepage::{HugepageUnavailable, MaybeHuge};
pub use padded::{CachePadded, PerThreadSlots};
pub use pool::{SocketPool, ThreadCtx};
pub use topology::{SocketId, Topology};

/// Splits `n` items into `parts` contiguous chunks as evenly as possible and
/// returns the half-open range of chunk `i`. The first `n % parts` chunks get
/// one extra item. This is the "evenly divide the vertices ... between the
/// various threads" primitive used throughout the algorithm.
pub fn even_chunk(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    assert!(parts > 0, "parts must be > 0");
    assert!(i < parts, "chunk index {i} out of {parts}");
    let base = n / parts;
    let extra = n % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_chunk_covers_exactly() {
        for n in [0usize, 1, 7, 64, 65, 1000] {
            for parts in [1usize, 2, 3, 8, 13] {
                let mut total = 0;
                let mut prev_end = 0;
                for i in 0..parts {
                    let r = even_chunk(n, parts, i);
                    assert_eq!(r.start, prev_end, "chunks must be contiguous");
                    prev_end = r.end;
                    total += r.len();
                }
                assert_eq!(total, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn even_chunk_is_balanced() {
        for i in 0..8 {
            let len = even_chunk(100, 8, i).len();
            assert!(len == 12 || len == 13);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn even_chunk_rejects_bad_index() {
        even_chunk(10, 2, 2);
    }
}
