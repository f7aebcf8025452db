//! A classic 2D MOC solver.
//!
//! The paper's Table 1 situates ANT-MOC against 2D codes (OpenMOC-2D,
//! nTRACER), and its challenge (1) quantifies direct 3D transport at
//! roughly a thousand times the 2D computation. This module provides the
//! 2D side of that comparison: the same radial geometry and track laydown,
//! swept with polar angles folded analytically (tracks carry one angular
//! flux per polar level; segment optical paths are `l / sin(theta)`).
//!
//! The 2D solver also serves as an independent physics check — the classic
//! 2D C5G7 benchmark eigenvalue is known (k ≈ 1.18655), and this solver
//! approaches it as the laydown refines.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use rayon::prelude::*;

use antmoc_geom::Geometry;
use antmoc_quadrature::PolarQuadrature;
use antmoc_track::{Link, SegmentStore2d, TrackSet2d};
use antmoc_xs::MaterialLibrary;

use crate::eigen::EigenOptions;
use crate::exp::one_minus_exp;
use crate::sweep::{assert_supported_groups, atomic_add_f64, MAX_GROUPS};

const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;
const MAX_POLAR: usize = 4;

/// The assembled 2D problem.
pub struct Problem2d {
    pub tracks: TrackSet2d,
    pub segments: SegmentStore2d,
    pub polar: PolarQuadrature,
    /// Track-estimated radial areas per FSR.
    pub areas: Vec<f64>,
    /// Material index per radial FSR.
    pub fsr_mat: Vec<u32>,
    /// Flattened per-material tables (as in [`crate::problem::XsData`]).
    pub num_groups: usize,
    pub sigma_t: Vec<f64>,
    pub nusf: Vec<f64>,
    pub chi: Vec<f64>,
    pub scatter: Vec<f64>,
    /// Per-track weight basis: `w_azim * spacing` (polar folded in during
    /// the sweep).
    track_w: Vec<f64>,
}

impl Problem2d {
    /// Builds the 2D problem from a geometry's radial plane.
    pub fn build(
        geometry: &Geometry,
        library: &MaterialLibrary,
        num_azim: usize,
        spacing: f64,
        polar: PolarQuadrature,
    ) -> Self {
        assert!(polar.num_polar_half() <= MAX_POLAR);
        let tracks = antmoc_track::track2d::generate(geometry, num_azim, spacing);
        let segments = SegmentStore2d::trace(geometry, &tracks);
        let areas = segments.estimate_areas(&tracks, geometry.num_fsrs());

        let g = library.num_groups();
        assert_supported_groups(g);
        let nmat = library.len();
        let mut sigma_t = Vec::with_capacity(nmat * g);
        let mut nusf = Vec::with_capacity(nmat * g);
        let mut chi = Vec::with_capacity(nmat * g);
        let mut scatter = Vec::with_capacity(nmat * g * g);
        for (_, m) in library.iter() {
            for gi in 0..g {
                sigma_t.push(m.total[gi]);
                nusf.push(m.nu_sigma_f(gi));
                chi.push(m.chi[gi]);
            }
            for from in 0..g {
                for to in 0..g {
                    scatter.push(m.scatter[from][to]);
                }
            }
        }
        let fsr_mat: Vec<u32> = geometry.fsrs().map(|f| geometry.fsr_material(f).0).collect();
        let track_w: Vec<f64> = tracks
            .tracks
            .iter()
            .map(|t| tracks.quadrature.weight(t.azim) * tracks.spacings[t.azim])
            .collect();
        Self {
            tracks,
            segments,
            polar,
            areas,
            fsr_mat,
            num_groups: g,
            sigma_t,
            nusf,
            chi,
            scatter,
            track_w,
        }
    }

    pub fn num_fsrs(&self) -> usize {
        self.areas.len()
    }

    /// 2D segments per transport sweep (both directions, all polar
    /// levels) — the 2D side of the paper's 3D-vs-2D computation ratio.
    pub fn segment_sweeps_per_iteration(&self) -> u64 {
        self.segments.num_segments() as u64 * 2 * self.polar.num_polar_half() as u64
    }
}

/// Result of the 2D eigenvalue solve.
#[derive(Debug, Clone)]
pub struct EigenResult2d {
    pub keff: f64,
    pub iterations: usize,
    pub converged: bool,
    pub phi: Vec<f64>,
    pub residuals: Vec<f64>,
}

/// Runs the 2D power iteration.
pub fn solve_eigenvalue_2d(p: &Problem2d, opts: &EigenOptions) -> EigenResult2d {
    let g = p.num_groups;
    let ph = p.polar.num_polar_half();
    let nf = p.num_fsrs();
    let n = nf * g;
    let ntracks = p.tracks.num_tracks();

    let mut phi = vec![1.0f64; n];
    let mut q = vec![0.0f64; n];
    // Boundary flux per (track, dir, polar, group), f32, double-buffered.
    let bank_len = ntracks * 2 * ph * g;
    let mut incoming: Vec<AtomicU32> = (0..bank_len).map(|_| AtomicU32::new(0)).collect();
    let mut outgoing: Vec<AtomicU32> = (0..bank_len).map(|_| AtomicU32::new(0)).collect();
    let slot = |t: usize, dir: usize, pol: usize| ((t * 2 + dir) * ph + pol) * g;

    let mut k = opts.k_guess;
    // Normalise initial flux to unit production.
    let production = |phi: &[f64]| -> (Vec<f64>, f64) {
        let per: Vec<f64> = (0..nf)
            .map(|f| {
                let mat = p.fsr_mat[f] as usize;
                let mut s = 0.0;
                for gi in 0..g {
                    s += p.nusf[mat * g + gi] * phi[f * g + gi];
                }
                s * p.areas[f]
            })
            .collect();
        let total = per.iter().sum();
        (per, total)
    };
    let (_, f0) = production(&phi);
    if f0 > 0.0 {
        for v in phi.iter_mut() {
            *v /= f0;
        }
    }
    let (mut old_density, _) = production(&phi);

    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    // Precompute per-polar constants.
    let inv_sin: Vec<f64> = (0..ph).map(|pl| 1.0 / p.polar.sin_theta(pl)).collect();
    let sin_t: Vec<f64> = (0..ph).map(|pl| p.polar.sin_theta(pl)).collect();
    let w_polar: Vec<f64> = (0..ph).map(|pl| 2.0 * p.polar.weight(pl)).collect();

    for it in 1..=opts.max_iterations {
        iterations = it;
        // Reduced source.
        for f in 0..nf {
            let mat = p.fsr_mat[f] as usize;
            let mut fission = 0.0;
            for h in 0..g {
                fission += p.nusf[mat * g + h] * phi[f * g + h];
            }
            for gi in 0..g {
                let mut inscatter = 0.0;
                for h in 0..g {
                    inscatter += p.scatter[(mat * g + h) * g + gi] * phi[f * g + h];
                }
                q[f * g + gi] = (p.chi[mat * g + gi] * fission / k + inscatter)
                    / (FOUR_PI * p.sigma_t[mat * g + gi]);
            }
        }

        // Sweep.
        let phi_acc: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let incoming_ref = &incoming;
        let outgoing_ref = &outgoing;
        let q_ref = &q;
        let acc_ref = &phi_acc;
        (0..ntracks).into_par_iter().for_each(|t| {
            let segs = p.segments.of(antmoc_track::TrackId(t as u32));
            let w_base = p.track_w[t];
            for dir in 0..2usize {
                let mut psi = [[0.0f64; MAX_GROUPS]; MAX_POLAR];
                let base = slot(t, dir, 0);
                for pl in 0..ph {
                    for gi in 0..g {
                        psi[pl][gi] = f32::from_bits(
                            incoming_ref[base + pl * g + gi].load(Ordering::Relaxed),
                        ) as f64;
                    }
                }
                let run = |psi: &mut [[f64; MAX_GROUPS]; MAX_POLAR], fsr: usize, len: f64| {
                    let mat = p.fsr_mat[fsr] as usize * g;
                    let qb = fsr * g;
                    for pl in 0..ph {
                        let w = w_base * w_polar[pl] * sin_t[pl];
                        for gi in 0..g {
                            let tau = p.sigma_t[mat + gi] * len * inv_sin[pl];
                            let e = one_minus_exp(tau);
                            let dpsi = (psi[pl][gi] - q_ref[qb + gi]) * e;
                            atomic_add_f64(&acc_ref[qb + gi], w * dpsi);
                            psi[pl][gi] -= dpsi;
                        }
                    }
                };
                if dir == 0 {
                    for s in segs {
                        run(&mut psi, s.fsr.0 as usize, s.length);
                    }
                } else {
                    for s in segs.iter().rev() {
                        run(&mut psi, s.fsr.0 as usize, s.length);
                    }
                }
                // Pass to the linked track (next iteration's incoming).
                let link = if dir == 0 { p.tracks.tracks[t].fwd } else { p.tracks.tracks[t].bwd };
                if let Link::Next { track, forward } = link {
                    let dir2 = if forward { 0 } else { 1 };
                    let tbase = slot(track.0 as usize, dir2, 0);
                    for pl in 0..ph {
                        for gi in 0..g {
                            outgoing_ref[tbase + pl * g + gi]
                                .store((psi[pl][gi] as f32).to_bits(), Ordering::Relaxed);
                        }
                    }
                }
            }
        });

        // Close the flux.
        for f in 0..nf {
            let mat = p.fsr_mat[f] as usize;
            for gi in 0..g {
                let acc = f64::from_bits(phi_acc[f * g + gi].load(Ordering::Relaxed));
                phi[f * g + gi] = FOUR_PI * q[f * g + gi]
                    + if p.areas[f] > 0.0 {
                        acc / (p.sigma_t[mat * g + gi] * p.areas[f])
                    } else {
                        0.0
                    };
            }
        }

        // k update, residual, normalisation.
        let (density, f_new) = production(&phi);
        k *= f_new;
        let mut ss = 0.0;
        let mut cnt = 0usize;
        for (&o, &v) in old_density.iter().zip(&density) {
            if v.abs() > 1e-14 {
                let r = (v - o) / v;
                ss += r * r;
                cnt += 1;
            }
        }
        let res = if cnt > 0 { (ss / cnt as f64).sqrt() } else { 0.0 };
        residuals.push(res);
        let inv = if f_new > 0.0 { 1.0 / f_new } else { 1.0 };
        for v in phi.iter_mut() {
            *v *= inv;
        }
        for bank in [&incoming, &outgoing] {
            for vslot in bank.iter() {
                let x = f32::from_bits(vslot.load(Ordering::Relaxed));
                vslot.store(((x as f64 * inv) as f32).to_bits(), Ordering::Relaxed);
            }
        }
        old_density = density.iter().map(|d| d * inv).collect();

        // Swap banks; clear the new outgoing. Vacuum entries stay zero
        // because nothing deposits into them.
        std::mem::swap(&mut incoming, &mut outgoing);
        for vslot in outgoing.iter() {
            vslot.store(0, Ordering::Relaxed);
        }

        if it >= 3 && res < opts.tolerance {
            converged = true;
            break;
        }
    }

    EigenResult2d { keff: k, iterations, converged, phi, residuals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::BoundaryConds;
    use antmoc_quadrature::PolarType;
    use antmoc_xs::c5g7;

    fn k_inf_uo2() -> f64 {
        // Matrix k-infinity (same routine as the 3D tests).
        let m = c5g7::uo2();
        let g = m.num_groups();
        let mut phi = vec![1.0f64; g];
        let mut k = 1.0f64;
        for _ in 0..5000 {
            let fsrc: f64 = (0..g).map(|h| m.nu_sigma_f(h) * phi[h]).sum();
            let mut next = vec![0.0f64; g];
            for gi in 0..g {
                let mut inscatter = 0.0;
                for h in 0..g {
                    if h != gi {
                        inscatter += m.scatter[h][gi] * phi[h];
                    }
                }
                next[gi] = (m.chi[gi] * fsrc / k + inscatter) / (m.total[gi] - m.scatter[gi][gi]);
            }
            let f2: f64 = (0..g).map(|h| m.nu_sigma_f(h) * next[h]).sum();
            k *= f2 / fsrc;
            let norm: f64 = next.iter().sum();
            for v in next.iter_mut() {
                *v /= norm;
            }
            phi = next;
        }
        k
    }

    #[test]
    fn reflective_2d_box_reproduces_k_infinity() {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let geom = homogeneous_box(uo2, 4.0, 4.0, (0.0, 1.0), BoundaryConds::reflective());
        let p = Problem2d::build(
            &geom,
            &lib,
            8,
            0.4,
            PolarQuadrature::new(PolarType::TabuchiYamamoto, 4),
        );
        let r = solve_eigenvalue_2d(
            &p,
            &EigenOptions { tolerance: 1e-6, max_iterations: 2000, ..Default::default() },
        );
        assert!(r.converged);
        let expect = k_inf_uo2();
        assert!(
            (r.keff - expect).abs() < 2e-3,
            "2D MOC k {} vs matrix k-infinity {expect}",
            r.keff
        );
        // Flat flux in an infinite medium.
        assert!(r.phi.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn vacuum_2d_box_is_subcritical() {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let geom = homogeneous_box(uo2, 4.0, 4.0, (0.0, 1.0), BoundaryConds::vacuum());
        let p = Problem2d::build(
            &geom,
            &lib,
            8,
            0.4,
            PolarQuadrature::new(PolarType::TabuchiYamamoto, 4),
        );
        let r = solve_eigenvalue_2d(
            &p,
            &EigenOptions { tolerance: 1e-5, max_iterations: 2000, ..Default::default() },
        );
        assert!(r.converged);
        // 2D vacuum box leaks radially only (infinite in z): k below
        // k-infinity but above the fully bare 3D cube.
        assert!(r.keff < 0.7 && r.keff > 0.01, "k {}", r.keff);
    }

    #[test]
    fn c5g7_2d_coarse_is_physical() {
        // The classic 2D C5G7 k_eff is 1.18655; a coarse laydown lands in
        // the right neighbourhood.
        let m = antmoc_geom::c5g7::C5g7::default_model();
        let p = Problem2d::build(
            &m.geometry,
            &m.library,
            4,
            0.5,
            PolarQuadrature::new(PolarType::TabuchiYamamoto, 6),
        );
        let r = solve_eigenvalue_2d(
            &p,
            &EigenOptions { tolerance: 1e-4, max_iterations: 800, ..Default::default() },
        );
        assert!(r.converged);
        assert!(r.keff > 1.10 && r.keff < 1.30, "2D C5G7 k {} (reference 1.18655)", r.keff);
    }

    #[test]
    fn segment_sweeps_counter_counts_both_dirs_and_polar() {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let geom = homogeneous_box(uo2, 4.0, 4.0, (0.0, 1.0), BoundaryConds::vacuum());
        let p = Problem2d::build(
            &geom,
            &lib,
            4,
            0.5,
            PolarQuadrature::new(PolarType::TabuchiYamamoto, 4),
        );
        assert_eq!(p.segment_sweeps_per_iteration(), p.segments.num_segments() as u64 * 2 * 2);
    }
}
