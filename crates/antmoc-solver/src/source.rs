//! Source computation: reduced sources, scalar-flux update, fission
//! tallies and convergence residuals.
//!
//! The per-FSR bodies (`source_fsr`, `flux_fsr`) take a compile-time
//! group count (`with_groups!`), so their group loops vectorize while each
//! `(fsr, group)` slot keeps the IEEE op sequence of a plain loop. The
//! driver runs them in two fused passes per iteration (`close_flux`,
//! `next_source`), one never-inlined loop per block of `BLOCK` FSRs.

use std::f64::consts::PI;

use rayon::prelude::*;

use crate::problem::{Problem, XsData};
use crate::sweep::with_groups;

const FOUR_PI: f64 = 4.0 * PI;

/// FSRs per parallel work item: a block's rows (a few KB) stay in L1
/// between the two loops of [`next_source`].
const BLOCK: usize = 64;

/// What drives the iteration.
pub(crate) enum Source<'a> {
    /// The k-eigenvalue problem: fission over `k`, renormalised to unit
    /// production every iteration.
    Fission,
    /// An isotropic external source per `(fsr, group)` of the one hosted
    /// subdomain (neutrons / cm^3 / s), plus fission when `with_fission`
    /// (not divided by any eigenvalue).
    External { external: &'a [f64], with_fission: bool },
}

/// Row `i` of a table with `G` entries per row.
#[inline(always)]
fn row<const G: usize>(table: &[f64], i: usize) -> &[f64; G] {
    table[i * G..(i + 1) * G].try_into().unwrap()
}

/// `sum_g nu_sigma_f[g] * phi[g]`, in group order.
#[inline(always)]
fn fission_fsr<const G: usize>(nusf: &[f64; G], phi: &[f64; G]) -> f64 {
    let mut s = 0.0;
    for g in 0..G {
        s += nusf[g] * phi[g];
    }
    s
}

/// The *reduced* source `q = Q / sigma_t` of FSR `f` with flux `phi`:
/// `Q = (chi * F / k + inscatter) / (4 pi)` for fission, `Q = (external +
/// chi * F + inscatter) / (4 pi)` for an external source, with `F = sum_h
/// nu_sigma_f[h] * phi[h]` (0 without fission) and `inscatter = sum_h
/// sigma_s[h -> g] * phi[h]` (self-scatter included — the sweep uses the
/// un-corrected total cross section).
#[inline(always)]
fn source_fsr<const G: usize>(
    xs: &XsData,
    f: usize,
    phi: &[f64; G],
    source: &Source<'_>,
    k: f64,
    q: &mut [f64; G],
) {
    let m = xs.fsr_mat[f] as usize;
    let (chi, sigma_t) = (row::<G>(&xs.chi, m), row::<G>(&xs.sigma_t, m));
    // `h` outermost so the `g` loop vectorizes; each slot still adds its
    // `h` terms in ascending order, from 0.
    let mut inscatter = [0.0f64; G];
    for h in 0..G {
        let to = row::<G>(&xs.scatter, m * G + h);
        for g in 0..G {
            inscatter[g] += to[g] * phi[h];
        }
    }
    let (fission, external) = match *source {
        Source::Fission => (fission_fsr(row::<G>(&xs.nusf, m), phi), None),
        Source::External { external, with_fission } => {
            let fission = if with_fission { fission_fsr(row::<G>(&xs.nusf, m), phi) } else { 0.0 };
            (fission, Some(row::<G>(external, f)))
        }
    };
    for g in 0..G {
        let total = match external {
            None => (chi[g] * fission / k + inscatter[g]) / FOUR_PI,
            Some(ext) => (ext[g] + chi[g] * fission + inscatter[g]) / FOUR_PI,
        };
        q[g] = total / sigma_t[g];
    }
}

/// Closes the sweep for FSR `f`: `phi = 4 pi q + phi_acc / (sigma_t * V)`,
/// the pure-source value when no track crossed it (`V = 0`). Returns the
/// FSR's fission production `sum_g nu_sigma_f phi V`.
#[inline(always)]
fn flux_fsr<const G: usize>(
    problem: &Problem,
    f: usize,
    q: &[f64; G],
    phi_acc: &[f64; G],
    phi: &mut [f64; G],
) -> f64 {
    let xs = &problem.xs;
    let m = xs.fsr_mat[f] as usize;
    let (sigma_t, v) = (row::<G>(&xs.sigma_t, m), problem.volumes[f]);
    for g in 0..G {
        let base = FOUR_PI * q[g];
        phi[g] = if v > 0.0 { base + phi_acc[g] / (sigma_t[g] * v) } else { base };
    }
    fission_fsr(row::<G>(&xs.nusf, m), phi) * v
}

/// [`source_fsr`] over the `(fsr, group)` rows of FSRs `f0..`. Never
/// inlined, so every instantiation stays a symbol
/// `scripts/check_simd_asm.sh` can scan.
#[inline(never)]
fn source_rows<const G: usize>(
    xs: &XsData,
    f0: usize,
    phi: &[f64],
    source: &Source<'_>,
    k: f64,
    q: &mut [f64],
) {
    for (i, (pf, qf)) in phi.as_chunks().0.iter().zip(q.as_chunks_mut().0).enumerate() {
        source_fsr::<G>(xs, f0 + i, pf, source, k, qf);
    }
}

/// [`flux_fsr`] over the rows of FSRs `f0..`, writing each one's fission
/// production into `density` when given. Never inlined, likewise.
#[inline(never)]
fn flux_rows<const G: usize>(
    problem: &Problem,
    f0: usize,
    q: &[f64],
    phi_acc: &[f64],
    phi: &mut [f64],
    mut density: Option<&mut [f64]>,
) {
    let (q, phi_acc) = (q.as_chunks().0, phi_acc.as_chunks().0);
    for (i, pf) in phi.as_chunks_mut().0.iter_mut().enumerate() {
        let production = flux_fsr::<G>(problem, f0 + i, &q[i], &phi_acc[i], pf);
        if let Some(d) = density.as_deref_mut() {
            d[i] = production;
        }
    }
}

/// The reduced source of every FSR from `phi` (see [`source_fsr`]).
pub(crate) fn compute_source(
    problem: &Problem,
    source: &Source<'_>,
    phi: &[f64],
    k: f64,
    q: &mut [f64],
) {
    let g = problem.num_groups();
    q.par_chunks_mut(BLOCK * g).enumerate().for_each(|(b, qb)| {
        let phib = &phi[b * BLOCK * g..][..qb.len()];
        with_groups!(g, G => source_rows::<G>(&problem.xs, b * BLOCK, phib, source, k, qb))
    });
}

/// Computes the *reduced* source `q = Q / sigma_t` per `(fsr, group)` of
/// the k-eigenvalue problem: `Q = (chi * F / k + inscatter) / (4 pi)`
/// with `F = sum_h nu_sigma_f[h] * phi[h]` and `inscatter = sum_h
/// sigma_s[h -> g] * phi[h]`.
pub fn compute_reduced_source(problem: &Problem, phi: &[f64], k: f64, q: &mut [f64]) {
    compute_source(problem, &Source::Fission, phi, k, q);
}

/// Closes the sweep: `phi = 4 pi q + phi_acc / (sigma_t * V)` per
/// `(fsr, group)`. FSRs never crossed by a track keep the pure-source
/// value.
pub fn update_scalar_flux(problem: &Problem, q: &[f64], phi_acc: &[f64], phi: &mut [f64]) {
    close_flux(problem, q, phi_acc, phi, None);
}

/// Pass A of an iteration: closes the sweep into `phi` (as
/// [`update_scalar_flux`]) and, given a `density` buffer, writes every
/// FSR's fission production into it in the same pass.
pub(crate) fn close_flux(
    problem: &Problem,
    q: &[f64],
    phi_acc: &[f64],
    phi: &mut [f64],
    density: Option<&mut [f64]>,
) {
    let g = problem.num_groups();
    let block = |b: usize, pb: &mut [f64], db: Option<&mut [f64]>| {
        let at = b * BLOCK * g..b * BLOCK * g + pb.len();
        let (qb, ab) = (&q[at.clone()], &phi_acc[at]);
        with_groups!(g, G => flux_rows::<G>(problem, b * BLOCK, qb, ab, pb, db))
    };
    let blocks = phi.par_chunks_mut(BLOCK * g);
    match density {
        Some(d) => blocks
            .zip(d.par_chunks_mut(BLOCK))
            .enumerate()
            .for_each(|(b, (pb, db))| block(b, pb, Some(db))),
        None => blocks.enumerate().for_each(|(b, pb)| block(b, pb, None)),
    }
}

/// Pass B of an iteration, after the reduction: for fission, scales
/// `phi` by `inv` and writes `old = density * inv` (the residual
/// reference, unit production); for an external source, `old` ← `phi`.
/// Then forms the next reduced source from the new `phi`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn next_source(
    problem: &Problem,
    source: &Source<'_>,
    k: f64,
    inv: f64,
    density: &[f64],
    phi: &mut [f64],
    old: &mut [f64],
    q: &mut [f64],
) {
    let (g, fission) = (problem.num_groups(), matches!(source, Source::Fission));
    // The residual reference is a density per FSR, or a copy of the flux.
    let old_block = BLOCK * if fission { 1 } else { g };
    let blocks = phi.par_chunks_mut(BLOCK * g).zip(old.par_chunks_mut(old_block));
    blocks.zip(q.par_chunks_mut(BLOCK * g)).enumerate().for_each(|(b, ((pb, ob), qb))| {
        let f0 = b * BLOCK;
        if fission {
            pb.iter_mut().for_each(|p| *p *= inv);
            ob.iter_mut().zip(&density[f0..]).for_each(|(o, d)| *o = d * inv);
        } else {
            ob.copy_from_slice(pb);
        }
        with_groups!(g, G => source_rows::<G>(&problem.xs, f0, pb, source, k, qb))
    });
}

/// Volume-integrated fission production per FSR (`sum_g nu_sigma_f phi V`)
/// and its total.
pub fn fission_production(problem: &Problem, phi: &[f64]) -> (Vec<f64>, f64) {
    let (g, xs) = (problem.num_groups(), &problem.xs);
    let per: Vec<f64> = (0..problem.num_fsrs())
        .into_par_iter()
        .map(|f| {
            let m = xs.fsr_mat[f] as usize;
            with_groups!(g, G => fission_fsr::<G>(row(&xs.nusf, m), row(phi, f)))
                * problem.volumes[f]
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
/// (the convergence measure of Fig. 2's "residuals < threshold" check):
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
        let params =
            TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 1.0 };
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
