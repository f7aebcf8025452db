//! The single-domain eigenvalue (power) iteration.
//!
//! The loop itself is `crate::driver`'s, run over one subdomain with no
//! exchange: update sources from the current flux and `k_eff`, sweep,
//! close the scalar flux, update `k_eff` from the fission-production
//! ratio, normalise, repeat until the fission-source RMS residual drops
//! below tolerance (Fig. 2's transport-solving stage).

use crate::checkpoint::{CheckpointStore, SolverCheckpoint};
use crate::driver::{drive, Controls, Hosted, Source};
use crate::problem::Problem;
pub use crate::sweeper::{CpuSweeper, Sweeper};

/// Iteration controls.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenOptions {
    /// Fission-source RMS residual threshold.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Initial `k` guess.
    pub k_guess: f64,
}

impl Default for EigenOptions {
    fn default() -> Self {
        Self { tolerance: 1e-5, max_iterations: 600, k_guess: 1.0 }
    }
}

/// Converged (or capped) solution.
#[derive(Debug, Clone)]
pub struct EigenResult {
    pub keff: f64,
    pub iterations: usize,
    pub converged: bool,
    /// Final scalar flux per `(fsr, group)` (fission source normalised to
    /// 1 neutron).
    pub phi: Vec<f64>,
    /// Residual history.
    pub residuals: Vec<f64>,
    /// `k` history.
    pub k_history: Vec<f64>,
    /// Total 3D segments processed across all sweeps.
    pub total_segments: u64,
}

/// Runs the power iteration with a given sweeper.
pub fn solve_eigenvalue(
    problem: &Problem,
    sweeper: &mut dyn Sweeper,
    opts: &EigenOptions,
) -> EigenResult {
    solve_eigenvalue_resumable(problem, sweeper, opts, None, None)
}

/// Runs the power iteration, optionally resuming from a checkpoint and
/// optionally writing checkpoints as it goes.
///
/// * `resume` — a [`SolverCheckpoint`] to restore flux, fission source,
///   `k`, and banks from; the loop continues at `resume.iteration + 1`.
/// * `checkpoint` — `(store, key, every)`: every `every` iterations the
///   loop state is serialized into `store` under `key`.
///
/// With both `None` this is exactly [`solve_eigenvalue`].
pub fn solve_eigenvalue_resumable(
    problem: &Problem,
    sweeper: &mut dyn Sweeper,
    opts: &EigenOptions,
    resume: Option<&SolverCheckpoint>,
    checkpoint: Option<(&CheckpointStore, usize, usize)>,
) -> EigenResult {
    let load = resume.map(|ck| move |_| ck.clone());
    let controls = Controls {
        opts,
        source: Source::Fission,
        checkpoint: checkpoint.map(|(store, _, every)| (store, every)),
        resume: load.as_ref().map(|f| f as &dyn Fn(usize) -> SolverCheckpoint),
    };
    let key = checkpoint.map_or(0, |(_, key, _)| key);
    let mut hosted = [Hosted::new(key, problem, sweeper)];
    let mut result = drive(&mut hosted, &controls, None)
        .expect("a single-domain solve has no comm to fail")
        .result;
    let [h] = hosted;
    result.phi = h.phi;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SweepSchedule;
    use crate::sweep::SegmentSource;
    use crate::tally::{ExpMode, KernelConfig};
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::{c5g7, Material, MaterialLibrary};

    fn solve_box(lib: &MaterialLibrary, mat: &str, bcs: BoundaryConds) -> EigenResult {
        solve_box_with(lib, mat, bcs, KernelConfig::default())
    }

    fn solve_box_with(
        lib: &MaterialLibrary,
        mat: &str,
        bcs: BoundaryConds,
        kernel: KernelConfig,
    ) -> EigenResult {
        let (mid, _) = lib.by_name(mat).unwrap();
        let g = homogeneous_box(mid, 4.0, 4.0, (0.0, 4.0), bcs);
        let axial = AxialModel::uniform(0.0, 4.0, 2.0);
        let params = TrackParams {
            num_azim: 8,
            radial_spacing: 0.4,
            num_polar: 4,
            axial_spacing: 0.8,
            ..Default::default()
        };
        let p = Problem::build(g, axial, lib, params);
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::with_kernel(&segsrc, SweepSchedule::natural(), kernel);
        solve_eigenvalue(
            &p,
            &mut sweeper,
            &EigenOptions { tolerance: 5e-5, max_iterations: 2500, ..Default::default() },
        )
    }

    /// Matrix k-infinity directly from the group data (independent of the
    /// transport machinery).
    fn k_inf(m: &Material) -> f64 {
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
    fn reflective_uo2_box_reproduces_k_infinity() {
        // An all-reflective homogeneous box is an infinite medium: the MOC
        // eigenvalue must match the zero-dimensional matrix k-infinity.
        let lib = c5g7::library();
        let r = solve_box(&lib, "UO2", BoundaryConds::reflective());
        let expect = k_inf(lib.by_name("UO2").unwrap().1);
        assert!(
            r.converged,
            "did not converge: residuals {:?}",
            &r.residuals[r.residuals.len().saturating_sub(3)..]
        );
        // The all-reflective top uses the nearest-line mirror (documented
        // approximation), which leaks a little; allow a small bias.
        assert!((r.keff - expect).abs() < 8e-3, "MOC k {} vs matrix k-infinity {expect}", r.keff);
    }

    #[test]
    fn vacuum_leakage_reduces_k() {
        let lib = c5g7::library();
        let refl = solve_box(&lib, "UO2", BoundaryConds::reflective());
        let vac = solve_box(&lib, "UO2", BoundaryConds::vacuum());
        assert!(vac.converged);
        assert!(
            vac.keff < refl.keff - 0.05,
            "vacuum k {} not clearly below reflective k {}",
            vac.keff,
            refl.keff
        );
        // A bare 4 cm fuel cube is leakage-dominated; k is tiny but positive.
        assert!(vac.keff > 0.005, "k {} unphysically small", vac.keff);
        // The 1e-7 exp table must not move the eigenvalue past 1e-6.
        let table = solve_box_with(
            &lib,
            "UO2",
            BoundaryConds::vacuum(),
            KernelConfig { exp: ExpMode::Table, ..Default::default() },
        );
        assert!(table.converged);
        let dk = (table.keff - vac.keff).abs();
        assert!(dk <= 1e-6, "table k {} vs intrinsic k {} (|dk| {dk:.2e})", table.keff, vac.keff);
    }

    #[test]
    fn mox_box_matches_its_own_k_infinity() {
        let lib = c5g7::library();
        let r = solve_box(&lib, "MOX-4.3", BoundaryConds::reflective());
        let expect = k_inf(lib.by_name("MOX-4.3").unwrap().1);
        assert!(r.converged);
        assert!((r.keff - expect).abs() < 8e-3, "k {} vs {expect}", r.keff);
    }

    #[test]
    fn flux_is_positive_and_flat_in_infinite_medium() {
        let lib = c5g7::library();
        let r = solve_box(&lib, "UO2", BoundaryConds::reflective());
        assert!(r.phi.iter().all(|&x| x > 0.0));
        // All FSRs see the same spectrum in an infinite medium.
        let g = 7;
        let nf = r.phi.len() / g;
        for f in 1..nf {
            for gi in 0..g {
                let a = r.phi[gi];
                let b = r.phi[f * g + gi];
                assert!((a - b).abs() / a < 1e-2, "fsr {f} group {gi}: {b} vs {a}");
            }
        }
    }

    #[test]
    fn k_history_settles() {
        let lib = c5g7::library();
        let r = solve_box(&lib, "UO2", BoundaryConds::reflective());
        let n = r.k_history.len();
        assert!(n >= 3);
        let last = r.k_history[n - 1];
        let prev = r.k_history[n - 2];
        assert!((last - prev).abs() < 1e-4);
    }
}
