//! Execution-time composition: eqn IV.2 (single socket), eqn IV.3 (effective
//! multi-socket bandwidth for `Adj`-like structures), eqn IV.4 (VIS), and the
//! Appendix C/D multi-socket assembly.

use crate::machine::MachineSpec;
use crate::params::GraphParams;
use crate::traffic;

/// Eqn IV.3: effective bandwidth (GB/s) for a striped structure when the
/// bottleneck socket serves fraction `alpha` of the accesses and the
/// load-balancing scheme redistributes the excess over the other sockets.
///
/// `α′ = (α − 1/N_S) / (N_S − 1)` is the per-remote-socket share of the
/// excess; the reciprocal sums LLC-interface time and QPI-or-remote-DRAM
/// time. The result is clamped to `[B_M, N_S·B_M]`: with α = 1/N_S there is
/// no excess and the full `N_S·B_M` is achievable.
pub fn effective_bandwidth_balanced(machine: &MachineSpec, alpha: f64) -> f64 {
    let ns = machine.sockets as f64;
    assert!(
        (1.0 / ns - 1e-9..=1.0 + 1e-9).contains(&alpha),
        "alpha must lie in [1/N_S, 1], got {alpha}"
    );
    let cap = ns * machine.bw_dram;
    if machine.sockets == 1 || alpha <= 1.0 / ns + 1e-12 {
        return cap;
    }
    let alpha_p = (alpha - 1.0 / ns) / (ns - 1.0);
    let qpi_or_dram = machine
        .bw_qpi
        .min(alpha_p * machine.bw_dram_peak / (1.0 / ns + alpha_p));
    let bw = 1.0 / (1.0 / (ns * machine.bw_llc_to_l2) + alpha_p / qpi_or_dram);
    bw.clamp(machine.bw_dram, cap)
}

/// Appendix C: without load balancing all accesses to the hot socket are
/// local and serialize on its controller: `B = B_M / α`.
pub fn effective_bandwidth_static(machine: &MachineSpec, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0);
    (machine.bw_dram / alpha).min(machine.sockets as f64 * machine.bw_dram)
}

/// Eqn IV.4: effective bandwidth for the VIS array on `N_S` sockets — the
/// per-vertex write (`1/B_{L2→LLC}`) plus per-edge reads (`ρ′/B_{LLC→L2}`)
/// on each socket, overlapped with the QPI migration of updated lines.
pub fn vis_bandwidth(machine: &MachineSpec, rho_prime: f64) -> f64 {
    let ns = machine.sockets as f64;
    let per_socket =
        (rho_prime / machine.bw_llc_to_l2 + 1.0 / machine.bw_l2_to_llc).max(1.0 / machine.bw_qpi);
    rho_prime * ns / per_socket
}

/// Per-phase cycles/edge plus the total.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseCycles {
    /// Phase I (frontier expansion + binning) cycles/edge.
    pub phase1: f64,
    /// Phase II (VIS/DP updates) cycles/edge, DDR and LLC parts combined.
    pub phase2: f64,
    /// Rearrangement cycles/edge.
    pub rearrange: f64,
}

impl PhaseCycles {
    /// Total cycles per traversed edge.
    pub fn total(&self) -> f64 {
        self.phase1 + self.phase2 + self.rearrange
    }
}

/// Eqn IV.2: single-socket execution time in cycles per traversed edge,
/// split per phase (Appendix D quotes the same split: Phase I 2.88,
/// Phase II 1.8 + (1 − 1/4)·2.67, rearrangement from IV.1d).
pub fn single_socket_cycles(machine: &MachineSpec, g: &GraphParams) -> PhaseCycles {
    let t = traffic::phase_traffic(machine, g);
    let rho = g.rho_prime();
    let l = machine.cache_line as f64;
    let miss = traffic::vis_l2_miss_factor(machine, g);
    let phase1 = machine.cycles_per_edge(t.phase1_ddr, machine.bw_dram);
    let phase2_ddr = machine.cycles_per_edge(t.phase2_ddr, machine.bw_dram);
    let phase2_llc = miss
        * (machine.cycles_per_edge(l / rho, machine.bw_l2_to_llc)
            + machine.cycles_per_edge(l, machine.bw_llc_to_l2));
    let rearrange = machine.cycles_per_edge(t.rearrange_ddr, machine.bw_dram);
    PhaseCycles {
        phase1,
        phase2: phase2_ddr + phase2_llc,
        rearrange,
    }
}

/// Multi-socket execution time (Appendix C/D assembly):
///
/// * DDR-bound terms scale by the effective-bandwidth gain of eqn IV.3 at
///   the measured access skew `alpha` (`α_Adj` for Phase I, `α_DP` for
///   Phase II — callers usually pass the same skew for both, as the paper
///   does for its R-MAT example);
/// * the VIS LLC term scales by `N_S` (both sockets' internal LLC interfaces
///   work in parallel) and its L2-hit factor improves because the combined
///   private-cache capacity doubles: `(1 − N_S·|L2| / (|VIS|/N_VIS))`;
/// * rearrangement is thread-local and scales linearly.
pub fn multi_socket_cycles(machine: &MachineSpec, g: &GraphParams, alpha: f64) -> PhaseCycles {
    if machine.sockets == 1 {
        return single_socket_cycles(machine, g);
    }
    let single = {
        let one = MachineSpec {
            sockets: 1,
            ..*machine
        };
        // Keep N_PBV at the multi-socket value: the algorithm on N_S sockets
        // uses N_S·N_VIS bins, and the single-socket *baseline terms* here
        // are only an intermediate quantity.
        single_socket_cycles_with_npbv(&one, g, machine.n_pbv(g.num_vertices))
    };
    let ns = machine.sockets as f64;
    let gain = effective_bandwidth_balanced(machine, alpha) / machine.bw_dram;
    let rho = g.rho_prime();
    let l = machine.cache_line as f64;

    // Recompute the Phase-II LLC term with the widened factor and N_S-scaled
    // interfaces.
    let vis = MachineSpec::vis_bytes(g.num_vertices) as f64;
    let n_vis = machine.n_vis(g.num_vertices) as f64;
    let partition = vis / n_vis;
    let miss_multi = (1.0 - ns * machine.l2_bytes as f64 / partition).clamp(0.0, 1.0);
    let phase2_llc_multi = miss_multi
        * (machine.cycles_per_edge(l / rho, ns * machine.bw_l2_to_llc)
            + machine.cycles_per_edge(l, ns * machine.bw_llc_to_l2));

    let phase2_ddr_single =
        machine.cycles_per_edge(traffic::phase2_ddr(machine, g), machine.bw_dram);
    PhaseCycles {
        phase1: single.phase1 / gain,
        phase2: phase2_ddr_single / gain + phase2_llc_multi,
        rearrange: single.rearrange / ns,
    }
}

/// `single_socket_cycles` with an explicit bin count (internal helper for
/// the multi-socket path, where N_PBV is set by the full machine).
fn single_socket_cycles_with_npbv(
    machine: &MachineSpec,
    g: &GraphParams,
    n_pbv: u64,
) -> PhaseCycles {
    let rho = g.rho_prime();
    let l = machine.cache_line as f64;
    let phase1_bytes = 12.0 + (4.0 + 2.0 * l + 8.0 * n_pbv as f64) / rho;
    let v_ratio = g.num_vertices as f64 / g.visited_vertices as f64;
    let phase2_bytes =
        4.0 + (8.0 + 2.0 * l + 4.0 * n_pbv as f64 + v_ratio * g.depth as f64 / 8.0) / rho;
    let miss = traffic::vis_l2_miss_factor(machine, g);
    PhaseCycles {
        phase1: machine.cycles_per_edge(phase1_bytes, machine.bw_dram),
        phase2: machine.cycles_per_edge(phase2_bytes, machine.bw_dram)
            + miss
                * (machine.cycles_per_edge(l / rho, machine.bw_l2_to_llc)
                    + machine.cycles_per_edge(l, machine.bw_llc_to_l2)),
        rearrange: machine.cycles_per_edge(24.0 / rho, machine.bw_dram),
    }
}

/// Millions of traversed edges per second implied by `cycles` per edge.
pub fn mteps(machine: &MachineSpec, cycles_per_edge: f64) -> f64 {
    assert!(cycles_per_edge > 0.0);
    machine.freq_ghz * 1e9 / cycles_per_edge / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineSpec {
        MachineSpec::xeon_x5570_2s()
    }

    fn example() -> GraphParams {
        GraphParams::paper_rmat_8m_deg8()
    }

    /// Appendix D: "Eqn. IV.2 predicts that the single-socket time for
    /// Phase-I is 2.88 cycles/edge".
    #[test]
    fn single_socket_phase1_matches_appendix_d() {
        let c = single_socket_cycles(&machine(), &example());
        assert!((c.phase1 - 2.88).abs() < 0.02, "got {}", c.phase1);
    }

    /// Appendix D: "Phase-II takes a total of 1.8 + (1 − 1/4)·2.67 = 3.80
    /// cycles/edge".
    #[test]
    fn single_socket_phase2_matches_appendix_d() {
        let c = single_socket_cycles(&machine(), &example());
        assert!((c.phase2 - 3.80).abs() < 0.05, "got {}", c.phase2);
    }

    /// The appendix terms sum to 2.88 + 3.80 + 0.21 ≈ 6.89 cycles/edge
    /// (§V-C rounds the same computation to "6.48"; we match the appendix
    /// arithmetic and record the discrepancy in EXPERIMENTS.md).
    #[test]
    fn single_socket_total_matches_appendix_arithmetic() {
        let c = single_socket_cycles(&machine(), &example());
        assert!((6.7..7.0).contains(&c.total()), "got {}", c.total());
    }

    /// Appendix D: with α_Adj = 0.6 on 2 sockets the overall time is 3.47
    /// cycles/edge → 844 M edges/s.
    #[test]
    fn dual_socket_total_matches_appendix_d() {
        let c = multi_socket_cycles(&machine(), &example(), 0.6);
        assert!(
            (3.2..3.8).contains(&c.total()),
            "expected ≈3.47 cycles/edge, got {}",
            c.total()
        );
        let rate = mteps(&machine(), c.total());
        assert!(
            (770.0..920.0).contains(&rate),
            "expected ≈844 MTEPS, got {rate}"
        );
    }

    /// Appendix C example: N_S = 4, α = 0.7 → effective bandwidth 2.7·B_M
    /// balanced vs 1.42·B_M static — "a speedup of 1.9X due to
    /// load-balancing".
    #[test]
    fn four_socket_bandwidth_example_matches_appendix_c() {
        let m = MachineSpec::nehalem_ex_4s();
        let balanced = effective_bandwidth_balanced(&m, 0.7) / m.bw_dram;
        let static_bw = effective_bandwidth_static(&m, 0.7) / m.bw_dram;
        assert!((balanced - 2.7).abs() < 0.1, "balanced gain {balanced}");
        assert!((static_bw - 1.42).abs() < 0.03, "static gain {static_bw}");
        assert!((balanced / static_bw - 1.9).abs() < 0.1);
    }

    #[test]
    fn perfectly_uniform_access_reaches_full_bandwidth() {
        let m = machine();
        let bw = effective_bandwidth_balanced(&m, 0.5);
        assert!((bw - 2.0 * m.bw_dram).abs() < 1e-9);
    }

    #[test]
    fn fully_skewed_ddr_bandwidth_is_floored_at_one_socket() {
        // At α = 1 every access targets one socket's memory: redistributing
        // the *computation* cannot create DDR bandwidth (eqn IV.3 even dips
        // below B_M before our clamp — QPI becomes the constraint), so both
        // schemes bottom out at B_M. The stress-case win of §V-A comes from
        // the LLC-side term (eqn IV.4), which does scale with N_S.
        let m = machine();
        let bal = effective_bandwidth_balanced(&m, 1.0);
        let st = effective_bandwidth_static(&m, 1.0);
        assert!((bal - m.bw_dram).abs() < 1e-9);
        assert!((st - m.bw_dram).abs() < 1e-9);
        // The LLC-side effect: 2-socket VIS bandwidth doubles.
        let m1 = MachineSpec::xeon_x5570_1s();
        let gain = vis_bandwidth(&m, 16.0) / vis_bandwidth(&m1, 16.0);
        assert!((gain - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_socket_machine_multi_equals_single() {
        let m = MachineSpec::xeon_x5570_1s();
        let g = example();
        assert_eq!(
            multi_socket_cycles(&m, &g, 1.0).total(),
            single_socket_cycles(&m, &g).total()
        );
    }

    #[test]
    fn dual_socket_speedup_is_near_linear_for_uniform_graphs() {
        // §V-B: "near-linear socket scaling (around 1.98X for UR)". For a UR
        // graph α = 1/N_S.
        let m2 = machine();
        let m1 = MachineSpec::xeon_x5570_1s();
        let g = GraphParams::uniform_ideal(16 << 20, 8, 10);
        let t1 = single_socket_cycles(&m1, &g).total();
        let t2 = multi_socket_cycles(&m2, &g, 0.5).total();
        let speedup = t1 / t2;
        // Slightly super-linear is possible in the model: the combined
        // private-cache capacity doubles, shrinking the VIS L2-miss factor.
        assert!(
            (1.7..2.2).contains(&speedup),
            "expected near-linear scaling, got {speedup}"
        );
    }

    #[test]
    fn model_predicts_4s_scaling_of_about_1_8x() {
        // §V-B: "Our model further predicts that we will scale by another
        // 1.8X on a 4-socket Nehalem-EX system."
        let m2 = machine();
        let m4 = MachineSpec::nehalem_ex_4s();
        let g = example();
        let t2 = multi_socket_cycles(&m2, &g, 0.6).total();
        // On 4 sockets the same 60%-to-one-socket skew: α stays 0.6.
        let t4 = multi_socket_cycles(&m4, &g, 0.6).total();
        let scaling = t2 / t4;
        assert!(
            (1.5..2.1).contains(&scaling),
            "expected ≈1.8X additional scaling, got {scaling}"
        );
    }

    #[test]
    fn vis_bandwidth_scales_with_sockets_and_degree() {
        let m = machine();
        let b8 = vis_bandwidth(&m, 8.0);
        let b32 = vis_bandwidth(&m, 32.0);
        assert!(b32 > b8, "more reads per line amortize the write");
        let m1 = MachineSpec::xeon_x5570_1s();
        assert!(vis_bandwidth(&m, 8.0) > vis_bandwidth(&m1, 8.0));
    }

    #[test]
    fn mteps_inverts_cycles() {
        let m = machine();
        // 2.93 cycles/edge at 2.93 GHz = 1e9 edges/s = 1000 MTEPS.
        assert!((mteps(&m, 2.93) - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha must lie")]
    fn rejects_alpha_below_uniform() {
        effective_bandwidth_balanced(&machine(), 0.2);
    }
}
