//! Traversal statistics gathered by the parallel engines.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::direction::Direction;

/// Per-run statistics: the measurement side of §V.
///
/// # Frontier counting convention
///
/// `frontier_sizes` is indexed by depth: `frontier_sizes[0]` is always the
/// source frontier (size 1), and `frontier_sizes[d]` for `d ≥ 1` is the
/// number of vertices *enqueued* at depth `d` — duplicates from the benign
/// §III-A claim race included. Consequently:
///
/// * `steps == frontier_sizes.len() - 1` (the number of depth levels past
///   the source);
/// * `frontier_sizes[1..].sum() == visited_vertices - 1 + duplicate_enqueues`.
///
/// Engines stop logging at the first empty level, so every entry is > 0.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraversalStats {
    /// BFS steps executed (= depth of the traversal).
    pub steps: u32,
    /// Vertices assigned a depth, |V′|.
    pub visited_vertices: u64,
    /// Traversed edges, |E′| (sum of degrees of visited vertices — the
    /// Graph500 counting convention behind "edges per second").
    pub traversed_edges: u64,
    /// Enqueues per depth level, source included (see the type-level
    /// convention notes).
    pub frontier_sizes: Vec<u64>,
    /// Duplicate enqueues caused by the benign claim race (§III-A measured
    /// "an increase of up to 0.2% for small graphs").
    pub duplicate_enqueues: u64,
    /// Direction each level ran, aligned with `frontier_sizes[1..]`
    /// (`step_directions[i]` is the level that enqueued
    /// `frontier_sizes[i + 1]`).
    pub step_directions: Vec<Direction>,
    /// Neighbor probes performed by bottom-up levels (the bottom-up
    /// analogue of traversed edges; 0 for all-top-down runs).
    pub bottom_up_edge_checks: u64,
    /// Wall time in Phase I across steps.
    pub phase1_time: Duration,
    /// Wall time in Phase II across steps.
    pub phase2_time: Duration,
    /// Wall time rearranging frontiers.
    pub rearrange_time: Duration,
    /// Total wall time of the traversal.
    pub total_time: Duration,
}

impl TraversalStats {
    /// Million traversed edges per second (the paper's headline metric).
    ///
    /// Convention: a zero-duration run reports `0.0`, not infinity — a
    /// clock too coarse to see the traversal measured *nothing*, and 0.0
    /// stays finite through downstream aggregation (JSON reports, harmonic
    /// means) where an infinity would poison every sum it touches.
    pub fn mteps(&self) -> f64 {
        let secs = self.total_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.traversed_edges as f64 / secs / 1e6
    }

    /// Number of levels that ran bottom-up.
    pub fn bottom_up_steps(&self) -> u32 {
        self.step_directions
            .iter()
            .filter(|&&d| d == Direction::BottomUp)
            .count() as u32
    }

    /// ρ′ = |E′| / |V′|.
    pub fn rho_prime(&self) -> f64 {
        if self.visited_vertices == 0 {
            0.0
        } else {
            self.traversed_edges as f64 / self.visited_vertices as f64
        }
    }

    /// Fraction of enqueues that were duplicates.
    pub fn duplicate_rate(&self) -> f64 {
        if self.visited_vertices == 0 {
            0.0
        } else {
            self.duplicate_enqueues as f64 / self.visited_vertices as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mteps_math() {
        let s = TraversalStats {
            traversed_edges: 10_000_000,
            total_time: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((s.mteps() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_is_zero_rate() {
        // The documented convention: un-measurable runs report 0.0 MTEPS so
        // aggregates (means, JSON artifacts) stay finite.
        let s = TraversalStats {
            traversed_edges: 12345,
            ..Default::default()
        };
        assert_eq!(s.total_time, Duration::ZERO);
        assert_eq!(s.mteps(), 0.0);
        assert_eq!(s.rho_prime(), 0.0);
        assert_eq!(s.duplicate_rate(), 0.0);
    }

    #[test]
    fn bottom_up_step_counting() {
        let s = TraversalStats {
            step_directions: vec![
                Direction::TopDown,
                Direction::BottomUp,
                Direction::BottomUp,
                Direction::TopDown,
            ],
            ..Default::default()
        };
        assert_eq!(s.bottom_up_steps(), 2);
        assert_eq!(TraversalStats::default().bottom_up_steps(), 0);
    }

    #[test]
    fn rho_and_duplicates() {
        let s = TraversalStats {
            visited_vertices: 100,
            traversed_edges: 1600,
            duplicate_enqueues: 2,
            ..Default::default()
        };
        assert!((s.rho_prime() - 16.0).abs() < 1e-12);
        assert!((s.duplicate_rate() - 0.02).abs() < 1e-12);
    }
}
