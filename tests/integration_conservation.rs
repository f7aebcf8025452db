//! Physics-level integration checks: neutron balance and quadrature
//! convergence on problems with known structure.

use antmoc::geom::geometry::homogeneous_box;
use antmoc::geom::{AxialModel, Bc, BoundaryConds};
use antmoc::solver::source::{absorption, compute_reduced_source, fission_production};
use antmoc::solver::{
    solve_eigenvalue, CpuSweeper, EigenOptions, FluxBanks, KernelConfig, Problem, SegmentSource,
    SweepArena, SweepSchedule,
};
use antmoc::track::TrackParams;
use antmoc::xs::c5g7;

fn fuel_box(bcs: BoundaryConds, params: TrackParams) -> Problem {
    let lib = c5g7::library();
    let (uo2, _) = lib.by_name("UO2").unwrap();
    let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 4.0), bcs);
    let axial = AxialModel::uniform(0.0, 4.0, 2.0);
    Problem::build(g, axial, &lib, params)
}

fn params() -> TrackParams {
    TrackParams { num_azim: 8, radial_spacing: 0.4, num_polar: 4, axial_spacing: 0.8 }
}

#[test]
fn neutron_balance_holds_in_a_leaky_box() {
    // For the converged eigenpair, production / (absorption + leakage)
    // equals k_eff.
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    bcs.x_max = Bc::Vacuum;
    let p = fuel_box(bcs, params());
    let segsrc = SegmentSource::otf();
    let mut sweeper = CpuSweeper::new(&segsrc);
    let opts = EigenOptions { tolerance: 3e-5, max_iterations: 2500, ..Default::default() };
    let r = solve_eigenvalue(&p, &mut sweeper, &opts);
    assert!(r.converged);

    // One extra sweep at the converged state to measure leakage.
    let n = p.num_fsrs() * p.num_groups();
    let mut q = vec![0.0; n];
    compute_reduced_source(&p, &r.phi, r.keff, &mut q);
    let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
    // Run a few sweeps so boundary fluxes re-equilibrate in the fresh
    // banks.
    let mut banks = banks;
    let mut arena = SweepArena::new(KernelConfig::default());
    let mut leak = 0.0;
    for _ in 0..200 {
        let out = antmoc::solver::sweep::transport_sweep_with(
            &p,
            &segsrc,
            &q,
            &banks,
            &SweepSchedule::natural(),
            &mut arena,
        );
        leak = out.leakage;
        arena.recycle(out);
        banks.swap();
    }

    let (_, production) = fission_production(&p, &r.phi);
    let absorbed = absorption(&p, &r.phi);
    let k_balance = production / (absorbed + leak);
    assert!(
        (k_balance - r.keff).abs() / r.keff < 0.02,
        "balance k {k_balance} vs power-iteration k {}",
        r.keff
    );
}

#[test]
fn angular_refinement_converges_keff() {
    // k_eff differences shrink as the quadrature refines.
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    let opts = EigenOptions { tolerance: 3e-5, max_iterations: 2500, ..Default::default() };

    let mut ks = Vec::new();
    for (na, np) in [(4usize, 2usize), (8, 4), (16, 6)] {
        let p = fuel_box(
            bcs,
            TrackParams { num_azim: na, radial_spacing: 0.4, num_polar: np, axial_spacing: 0.8 },
        );
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::new(&segsrc);
        let r = solve_eigenvalue(&p, &mut sweeper, &opts);
        assert!(r.converged, "na={na} np={np} failed to converge");
        ks.push(r.keff);
    }
    let d1 = (ks[1] - ks[0]).abs();
    let d2 = (ks[2] - ks[1]).abs();
    assert!(d2 < d1 + 5e-4, "refinement did not tighten: ks {ks:?} (d1 {d1}, d2 {d2})");
    // And all values in a sane band (a 4 cm half-height fuel slab leaks
    // heavily; k sits around 0.1).
    for k in &ks {
        assert!(*k > 0.05 && *k < 0.3, "k {k} out of band: {ks:?}");
    }
}

#[test]
fn symmetric_problem_produces_symmetric_flux() {
    // An x/y-symmetric box must give an x/y-symmetric scalar flux.
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    let lib = c5g7::library();
    let (uo2, _) = lib.by_name("UO2").unwrap();
    let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 4.0), bcs);
    let axial = AxialModel::uniform(0.0, 4.0, 1.0);
    let p = Problem::build(g, axial, &lib, params());
    let segsrc = SegmentSource::otf();
    let mut sweeper = CpuSweeper::new(&segsrc);
    let opts = EigenOptions { tolerance: 3e-5, max_iterations: 2500, ..Default::default() };
    let r = solve_eigenvalue(&p, &mut sweeper, &opts);
    assert!(r.converged);

    // Axial profile must peak at the reflective bottom (z_min) and decay
    // towards the vacuum top: the group-summed flux per axial cell is
    // monotone non-increasing.
    let groups = p.num_groups();
    let axials = p.layout.fsr3d.num_axial();
    let radials = p.layout.fsr3d.num_radial();
    let mut profile = vec![0.0f64; axials];
    for a in 0..axials {
        for rad in 0..radials {
            let f = a * radials + rad;
            for gi in 0..groups {
                profile[a] += r.phi[f * groups + gi];
            }
        }
    }
    for w in profile.windows(2) {
        assert!(w[1] <= w[0] * 1.01, "axial profile should decay towards vacuum: {profile:?}");
    }
}
