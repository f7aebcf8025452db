//! Post-solve diagnostics: the global neutron balance.
//!
//! For a converged eigenpair the transport equation enforces
//! `production / k = absorption + leakage`; the *balance eigenvalue*
//! `k_bal = production / (absorption + leakage)` measured from an extra
//! sweep is an independent check on the power-iteration `k_eff` — a useful
//! run-log indicator (the paper's artifact appendix reads correctness off
//! the run log the same way).

use crate::problem::Problem;
use crate::schedule::SweepSchedule;
use crate::source::{absorption, compute_reduced_source, fission_production};
use crate::sweep::{transport_sweep_with, FluxBanks, SegmentSource};
use crate::tally::{KernelConfig, SweepArena};

/// The components of the global neutron balance.
#[derive(Debug, Clone, Copy)]
pub struct BalanceReport {
    /// Volume-integrated `nu Sigma_f phi`.
    pub production: f64,
    /// Volume-integrated `Sigma_a phi`.
    pub absorption: f64,
    /// Net outflow through vacuum boundaries (from an equilibrated
    /// sweep of the converged flux).
    pub leakage: f64,
    /// `production / (absorption + leakage)`.
    pub k_balance: f64,
    /// The power-iteration eigenvalue the balance is checked against.
    pub k_power: f64,
}

impl BalanceReport {
    /// Relative disagreement between the two eigenvalue estimates.
    pub fn relative_imbalance(&self) -> f64 {
        (self.k_balance - self.k_power).abs() / self.k_power.abs().max(1e-30)
    }
}

/// Measures the balance of a converged solution. `equilibration_sweeps`
/// re-runs the frozen-source sweep so the boundary flux banks settle
/// (fresh banks start from zero); 100–300 suffices for problems whose
/// chains bounce tens of times.
pub fn neutron_balance(
    problem: &Problem,
    segsrc: &SegmentSource,
    phi: &[f64],
    k_power: f64,
    equilibration_sweeps: usize,
) -> BalanceReport {
    let _span = antmoc_telemetry::Telemetry::current().span("neutron_balance");
    let n = problem.num_fsrs() * problem.num_groups();
    assert_eq!(phi.len(), n);
    let mut q = vec![0.0; n];
    compute_reduced_source(problem, phi, k_power, &mut q);
    let mut banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
    let mut arena = SweepArena::new(KernelConfig::default());
    let schedule = SweepSchedule::natural();
    let mut leakage = 0.0;
    for _ in 0..equilibration_sweeps.max(1) {
        let out = transport_sweep_with(problem, segsrc, &q, &banks, &schedule, &mut arena);
        leakage = out.leakage;
        arena.recycle(out);
        banks.swap();
    }
    let (_, production) = fission_production(problem, phi);
    let absorbed = absorption(problem, phi);
    BalanceReport {
        production,
        absorption: absorbed,
        leakage,
        k_balance: production / (absorbed + leakage),
        k_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::{solve_eigenvalue, CpuSweeper, EigenOptions};
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, Bc, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    #[test]
    fn balance_matches_power_iteration_k() {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 4.0), bcs);
        let axial = AxialModel::uniform(0.0, 4.0, 2.0);
        let params =
            TrackParams { num_azim: 8, radial_spacing: 0.4, num_polar: 4, axial_spacing: 0.8 };
        let p = crate::problem::Problem::build(g, axial, &lib, params);
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::new(&segsrc);
        let opts = EigenOptions { tolerance: 3e-5, max_iterations: 2500, ..Default::default() };
        let r = solve_eigenvalue(&p, &mut sweeper, &opts);
        assert!(r.converged);

        let report = neutron_balance(&p, &segsrc, &r.phi, r.keff, 200);
        assert!(report.production > 0.0);
        assert!(report.absorption > 0.0);
        assert!(report.leakage > 0.0, "vacuum top must leak");
        assert!(
            report.relative_imbalance() < 0.02,
            "k_bal {} vs k_power {}",
            report.k_balance,
            report.k_power
        );
    }
}
