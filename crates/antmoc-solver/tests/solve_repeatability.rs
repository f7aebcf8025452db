//! Run-to-run repeatability: for a fixed worker count, a solve with
//! privatized tallies repeats bit for bit — k_eff, iteration count and
//! every flux slot — on the CPU backend and on the simulated device under
//! either CU mapping.
//!
//! Each worker tallies into its own buffer and the buffers are reduced in
//! worker order, so the bits depend only on which worker sweeps which
//! track. The pool's static partition fixes that map for a given worker
//! count; a scheduler that hands tracks (or CUs) to whichever worker asks
//! first would regroup the sums from run to run.

use std::sync::Arc;

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, Bc, BoundaryConds};
use antmoc_gpusim::{Device, DeviceSpec};
use antmoc_solver::device::{CuMapping, DeviceSolver};
use antmoc_solver::{
    solve_eigenvalue, CpuSweeper, EigenOptions, EigenResult, Problem, SegmentSource, StorageMode,
};
use antmoc_track::TrackParams;
use antmoc_xs::c5g7;

const RUNS: usize = 5;

/// A UO2 box, reflective except for a vacuum top, so the flux has shape.
fn problem() -> Problem {
    let lib = c5g7::library();
    let (uo2, _) = lib.by_name("UO2").unwrap();
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    let g = homogeneous_box(uo2, 3.0, 3.0, (0.0, 4.0), bcs);
    let axial = AxialModel::uniform(0.0, 4.0, 1.0);
    let params = TrackParams {
        num_azim: 4,
        radial_spacing: 0.4,
        num_polar: 2,
        axial_spacing: 0.4,
        ..Default::default()
    };
    Problem::build(g, axial, &lib, params)
}

/// A reachable tolerance, so the iteration count is part of the check.
fn opts() -> EigenOptions {
    EigenOptions { tolerance: 1e-5, max_iterations: 400, ..Default::default() }
}

fn bits(r: &EigenResult) -> (u64, usize, Vec<u64>) {
    (r.keff.to_bits(), r.iterations, r.phi.iter().map(|x| x.to_bits()).collect())
}

/// Solves `RUNS` times on `workers` workers and asserts every run
/// reproduces the first.
fn assert_repeats(workers: usize, what: &str, solve: impl Fn() -> EigenResult) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
    let first = pool.install(&solve);
    assert!(first.converged, "{what} at {workers} workers did not converge");
    let first = bits(&first);
    for run in 1..RUNS {
        let again = bits(&pool.install(&solve));
        assert_eq!(first.0, again.0, "{what}, {workers} workers, run {run}: k_eff bits");
        assert_eq!(first.1, again.1, "{what}, {workers} workers, run {run}: iterations");
        assert!(first.2 == again.2, "{what}, {workers} workers, run {run}: flux bits");
    }
}

#[test]
fn cpu_solves_repeat_bitwise_at_two_and_four_workers() {
    let p = problem();
    let segsrc = SegmentSource::otf();
    for workers in [2, 4] {
        assert_repeats(workers, "cpu", || {
            solve_eigenvalue(&p, &mut CpuSweeper::new(&segsrc), &opts())
        });
    }
}

#[test]
fn device_solves_repeat_bitwise_at_two_and_four_workers() {
    let p = problem();
    for mapping in [CuMapping::GridStride, CuMapping::SegmentSorted] {
        for workers in [2, 4] {
            assert_repeats(workers, &format!("device {mapping:?}"), || {
                let device = Arc::new(Device::new(DeviceSpec::scaled(64 << 20)));
                let mut solver = DeviceSolver::new(device, &p, StorageMode::Otf, mapping).unwrap();
                solve_eigenvalue(&p, &mut solver, &opts())
            });
        }
    }
}
