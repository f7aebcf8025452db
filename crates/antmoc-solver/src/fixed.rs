//! Fixed-source (source-driven) transport: solve for the flux produced by
//! a prescribed external neutron source instead of a fission eigenpair.
//!
//! Shielding and detector-response problems — the other half of what
//! "neutral particle transport" software is used for — run in this mode:
//! iterate scattering (and optionally fission) to convergence around the
//! fixed source. The loop is `crate::driver`'s with the external source
//! hook: no eigenvalue, no normalisation, and a residual on the flux
//! itself.

use crate::driver::{drive, Controls, Hosted};
use crate::eigen::{EigenOptions, Sweeper};
use crate::problem::Problem;
use crate::source::Source;

/// Options for a fixed-source solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedSourceOptions {
    /// RMS relative flux-change threshold.
    pub tolerance: f64,
    pub max_iterations: usize,
    /// Whether fission multiplies the source (subcritical multiplication);
    /// the medium must be subcritical for the iteration to converge.
    pub with_fission: bool,
}

impl Default for FixedSourceOptions {
    fn default() -> Self {
        Self { tolerance: 1e-5, max_iterations: 1000, with_fission: true }
    }
}

/// Result of a fixed-source solve.
#[derive(Debug, Clone)]
pub struct FixedSourceResult {
    /// Scalar flux per `(fsr, group)`.
    pub phi: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    pub residuals: Vec<f64>,
}

/// Solves the fixed-source problem. `external` is the isotropic volumetric
/// source density per `(fsr, group)` (neutrons / cm^3 / s).
pub fn solve_fixed_source(
    problem: &Problem,
    sweeper: &mut dyn Sweeper,
    external: &[f64],
    opts: &FixedSourceOptions,
) -> FixedSourceResult {
    let n = problem.num_fsrs() * problem.num_groups();
    assert_eq!(external.len(), n, "external source must be (fsr, group) shaped");
    assert!(external.iter().any(|&s| s > 0.0), "external source must be non-trivial");

    let controls = Controls {
        opts: &EigenOptions {
            tolerance: opts.tolerance,
            max_iterations: opts.max_iterations,
            ..Default::default()
        },
        source: Source::External { external, with_fission: opts.with_fission },
    };
    let s = drive(Hosted::new(problem, sweeper), &controls, None).result;
    FixedSourceResult {
        phi: s.phi,
        iterations: s.iterations,
        converged: s.converged,
        residuals: s.residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::CpuSweeper;
    use crate::sweep::SegmentSource;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn problem(mat: &str, bcs: BoundaryConds) -> Problem {
        let lib = c5g7::library();
        let (m, _) = lib.by_name(mat).unwrap();
        let geom = homogeneous_box(m, 4.0, 4.0, (0.0, 4.0), bcs);
        let axial = AxialModel::uniform(0.0, 4.0, 2.0);
        Problem::build(
            geom,
            axial,
            &lib,
            TrackParams { num_azim: 8, radial_spacing: 0.4, num_polar: 4, axial_spacing: 0.8 },
        )
    }

    #[test]
    fn infinite_medium_fixed_source_matches_analytic() {
        // Pure moderator (no fission), all-reflective: the converged flux
        // satisfies the zero-dimensional balance
        // sigma_t phi_g = S_g + sum_h s_{h->g} phi_h
        // exactly -- solvable by the same matrix iteration.
        let p = problem("moderator", BoundaryConds::reflective());
        let g = p.num_groups();
        let n = p.num_fsrs() * g;
        let mut external = vec![0.0; n];
        for f in 0..p.num_fsrs() {
            external[f * g] = 1.0; // unit fast source everywhere
        }
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::new(&segsrc);
        let r = solve_fixed_source(
            &p,
            &mut sweeper,
            &external,
            &FixedSourceOptions { tolerance: 1e-8, max_iterations: 3000, with_fission: false },
        );
        assert!(r.converged);

        // Analytic infinite-medium solution.
        let m = c5g7::moderator();
        let mut phi = vec![0.0f64; g];
        for _ in 0..20_000 {
            let mut next = vec![0.0f64; g];
            for gi in 0..g {
                let mut inscatter = 0.0;
                for h in 0..g {
                    if h != gi {
                        inscatter += m.scatter[h][gi] * phi[h];
                    }
                }
                let src = if gi == 0 { 1.0 } else { 0.0 };
                next[gi] = (src + inscatter) / (m.total[gi] - m.scatter[gi][gi]);
            }
            phi = next;
        }
        for gi in 0..g {
            let moc = r.phi[gi];
            assert!(
                (moc - phi[gi]).abs() < 6e-3 * phi[gi].abs().max(1e-6),
                "group {gi}: MOC {moc} vs analytic {}",
                phi[gi]
            );
        }
    }

    #[test]
    fn subcritical_multiplication_raises_the_flux() {
        // A leaky fuel box is subcritical (k ~ 0.1); fission multiplies the
        // source-driven flux by roughly 1/(1-k).
        let p = problem("UO2", BoundaryConds::vacuum());
        let g = p.num_groups();
        let n = p.num_fsrs() * g;
        let mut external = vec![0.0; n];
        for f in 0..p.num_fsrs() {
            external[f * g] = 1.0;
        }
        let segsrc = SegmentSource::otf();
        let opts =
            FixedSourceOptions { tolerance: 1e-7, max_iterations: 3000, with_fission: false };
        let mut s1 = CpuSweeper::new(&segsrc);
        let bare = solve_fixed_source(&p, &mut s1, &external, &opts);
        let mut s2 = CpuSweeper::new(&segsrc);
        let mult = solve_fixed_source(
            &p,
            &mut s2,
            &external,
            &FixedSourceOptions { with_fission: true, ..opts },
        );
        assert!(bare.converged && mult.converged);
        let total = |phi: &[f64]| phi.iter().sum::<f64>();
        let ratio = total(&mult.phi) / total(&bare.phi);
        assert!(ratio > 1.01 && ratio < 3.0, "subcritical multiplication ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "non-trivial")]
    fn zero_source_is_rejected() {
        let p = problem("moderator", BoundaryConds::vacuum());
        let external = vec![0.0; p.num_fsrs() * p.num_groups()];
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::new(&segsrc);
        let _ = solve_fixed_source(&p, &mut sweeper, &external, &Default::default());
    }
}
