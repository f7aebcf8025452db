//! Source computation: reduced sources, scalar-flux update, fission
//! tallies and convergence residuals.

use std::f64::consts::PI;

use rayon::prelude::*;

use crate::problem::Problem;

const FOUR_PI: f64 = 4.0 * PI;

/// Computes the *reduced* source `q = Q / sigma_t` per `(fsr, group)`:
/// `Q = (chi * F / k + inscatter) / (4 pi)` with
/// `F = sum_h nu_sigma_f[h] * phi[h]` and
/// `inscatter = sum_h sigma_s[h -> g] * phi[h]` (self-scatter included —
/// the sweep uses the un-corrected total cross section).
pub fn compute_reduced_source(problem: &Problem, phi: &[f64], k: f64, q: &mut [f64]) {
    let g = problem.num_groups();
    let xs = &problem.xs;
    q.par_chunks_mut(g).enumerate().for_each(|(f, qf)| {
        let mat = xs.fsr_mat[f] as usize;
        let phif = &phi[f * g..(f + 1) * g];
        let mut fission = 0.0;
        for h in 0..g {
            fission += xs.nusf[mat * g + h] * phif[h];
        }
        for gi in 0..g {
            let mut inscatter = 0.0;
            for h in 0..g {
                inscatter += xs.scatter[(mat * g + h) * g + gi] * phif[h];
            }
            let total = (xs.chi[mat * g + gi] * fission / k + inscatter) / FOUR_PI;
            qf[gi] = total / xs.sigma_t[mat * g + gi];
        }
    });
}

/// The fixed-source counterpart of [`compute_reduced_source`]: `Q =
/// (external + chi * F + inscatter) / (4 pi)` for an isotropic external
/// source per `(fsr, group)`, the fission term `F` only `with_fission`
/// (and not divided by any eigenvalue).
pub(crate) fn compute_fixed_source(
    problem: &Problem,
    phi: &[f64],
    external: &[f64],
    with_fission: bool,
    q: &mut [f64],
) {
    let g = problem.num_groups();
    let xs = &problem.xs;
    q.par_chunks_mut(g).enumerate().for_each(|(f, qf)| {
        let mat = xs.fsr_mat[f] as usize;
        let phif = &phi[f * g..(f + 1) * g];
        let mut fission = 0.0;
        if with_fission {
            for h in 0..g {
                fission += xs.nusf[mat * g + h] * phif[h];
            }
        }
        for gi in 0..g {
            let mut inscatter = 0.0;
            for h in 0..g {
                inscatter += xs.scatter[(mat * g + h) * g + gi] * phif[h];
            }
            let total =
                (external[f * g + gi] + xs.chi[mat * g + gi] * fission + inscatter) / FOUR_PI;
            qf[gi] = total / xs.sigma_t[mat * g + gi];
        }
    });
}

/// Closes the sweep: `phi = 4 pi q + phi_acc / (sigma_t * V)` per
/// `(fsr, group)`. FSRs never crossed by a track keep the pure-source
/// value.
pub fn update_scalar_flux(problem: &Problem, q: &[f64], phi_acc: &[f64], phi: &mut [f64]) {
    let g = problem.num_groups();
    let xs = &problem.xs;
    phi.par_chunks_mut(g).enumerate().for_each(|(f, pf)| {
        let mat = xs.fsr_mat[f] as usize;
        let v = problem.volumes[f];
        for gi in 0..g {
            let base = FOUR_PI * q[f * g + gi];
            pf[gi] = if v > 0.0 {
                base + phi_acc[f * g + gi] / (xs.sigma_t[mat * g + gi] * v)
            } else {
                base
            };
        }
    });
}

/// Volume-integrated fission production per FSR (`sum_g nu_sigma_f phi V`)
/// and its total.
pub fn fission_production(problem: &Problem, phi: &[f64]) -> (Vec<f64>, f64) {
    let g = problem.num_groups();
    let xs = &problem.xs;
    let per: Vec<f64> = (0..problem.num_fsrs())
        .into_par_iter()
        .map(|f| {
            let mat = xs.fsr_mat[f] as usize;
            let mut s = 0.0;
            for gi in 0..g {
                s += xs.nusf[mat * g + gi] * phi[f * g + gi];
            }
            s * problem.volumes[f]
        })
        .collect();
    let total = per.iter().sum();
    (per, total)
}

/// Volume-integrated absorption (`sum_g sigma_a phi V`); `sigma_a` is
/// reconstructed as `sigma_t - sum_out scatter`, the benchmark's own
/// absorption data being consistent with that difference.
pub fn absorption(problem: &Problem, phi: &[f64]) -> f64 {
    let g = problem.num_groups();
    let xs = &problem.xs;
    (0..problem.num_fsrs())
        .into_par_iter()
        .map(|f| {
            let mat = xs.fsr_mat[f] as usize;
            let mut s = 0.0;
            for gi in 0..g {
                let mut out = 0.0;
                for h in 0..g {
                    out += xs.scatter[(mat * g + gi) * g + h];
                }
                let sig_a = (xs.sigma_t[mat * g + gi] - out).max(0.0);
                s += sig_a * phi[f * g + gi];
            }
            s * problem.volumes[f]
        })
        .sum()
}

/// Volume-integrated fission *rate* per FSR (`sum_g sigma_f phi V`, no
/// `nu`), the quantity the paper's §5.1 fission-rate maps report.
pub fn fission_rates(problem: &Problem, phi: &[f64]) -> Vec<f64> {
    let g = problem.num_groups();
    let xs = &problem.xs;
    (0..problem.num_fsrs())
        .into_par_iter()
        .map(|f| {
            let mat = xs.fsr_mat[f] as usize;
            let mut s = 0.0;
            for gi in 0..g {
                s += xs.sigma_f[mat * g + gi] * phi[f * g + gi];
            }
            s * problem.volumes[f]
        })
        .collect()
}

/// The terms of a root-mean-square relative change between iterations
/// (the convergence criterion of Fig. 2's "residuals < threshold" check):
/// `(sum of squared relative changes, count)` over entries whose new
/// magnitude exceeds `floor`. Kept as sums so decomposed solves can add
/// them across subdomains before taking the root.
pub(crate) fn residual_terms(old: &[f64], new: &[f64], floor: f64) -> (f64, f64) {
    let (mut ss, mut n) = (0.0, 0.0);
    for (&o, &v) in old.iter().zip(new) {
        if v.abs() > floor {
            let r = (v - o) / v;
            ss += r * r;
            n += 1.0;
        }
    }
    (ss, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn problem() -> Problem {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, 2.0, 2.0, (0.0, 2.0), BoundaryConds::reflective());
        let axial = AxialModel::uniform(0.0, 2.0, 2.0);
        let params = TrackParams {
            num_azim: 4,
            radial_spacing: 0.5,
            num_polar: 2,
            axial_spacing: 1.0,
            ..Default::default()
        };
        Problem::build(g, axial, &lib, params)
    }

    #[test]
    fn reduced_source_is_positive_for_positive_flux() {
        let p = problem();
        let n = p.num_fsrs() * p.num_groups();
        let phi = vec![1.0f64; n];
        let mut q = vec![0.0f64; n];
        compute_reduced_source(&p, &phi, 1.0, &mut q);
        assert!(q.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn source_scales_inversely_with_k() {
        let p = problem();
        let n = p.num_fsrs() * p.num_groups();
        let phi = vec![1.0f64; n];
        let mut q1 = vec![0.0f64; n];
        let mut q2 = vec![0.0f64; n];
        compute_reduced_source(&p, &phi, 1.0, &mut q1);
        compute_reduced_source(&p, &phi, 2.0, &mut q2);
        // Fission part halves; scattering part unchanged => q2 < q1 in
        // chi-bearing groups, equal where chi = 0 and nusf contributions
        // vanish.
        assert!(q2[0] < q1[0]);
        assert!(q2.iter().zip(&q1).all(|(a, b)| a <= b));
    }

    #[test]
    fn flux_update_without_tracks_is_pure_source() {
        let p = problem();
        let n = p.num_fsrs() * p.num_groups();
        let q = vec![0.5f64; n];
        let acc = vec![0.0f64; n];
        let mut phi = vec![0.0f64; n];
        update_scalar_flux(&p, &q, &acc, &mut phi);
        for &x in &phi {
            assert!((x - FOUR_PI * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn fission_tallies_scale_linearly_with_flux() {
        let p = problem();
        let n = p.num_fsrs() * p.num_groups();
        let phi1 = vec![1.0f64; n];
        let phi2 = vec![2.0f64; n];
        let (_, f1) = fission_production(&p, &phi1);
        let (_, f2) = fission_production(&p, &phi2);
        assert!((f2 / f1 - 2.0).abs() < 1e-12);
        let a1 = absorption(&p, &phi1);
        assert!(a1 > 0.0);
        let r = fission_rates(&p, &phi1);
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn rms_residual_behaviour() {
        assert_eq!(residual_terms(&[1.0, 1.0], &[1.0, 1.0], 1e-14), (0.0, 2.0));
        let (ss, n) = residual_terms(&[1.0, 1.0], &[2.0, 2.0], 1e-14);
        assert!(((ss / n).sqrt() - 0.5).abs() < 1e-12);
        // Entries at or below the floor are skipped.
        assert_eq!(residual_terms(&[1.0], &[0.0], 1e-14), (0.0, 0.0));
    }
}
