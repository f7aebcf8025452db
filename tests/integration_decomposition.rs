//! Integration tests for spatial decomposition: exchange-plan coverage,
//! traffic against the Eq. 7 model, and agreement across decomposition
//! grids.

use antmoc::cluster::Cluster;
use antmoc::geom::c5g7::{C5g7, C5g7Options};
use antmoc::perfmodel::predict_communication_bytes;
use antmoc::solver::cluster::{solve_cluster, Backend};
use antmoc::solver::decomp::{DecompSpec, Decomposition};
use antmoc::solver::EigenOptions;
use antmoc::track::TrackParams;

fn model() -> C5g7 {
    C5g7::build(C5g7Options { axial_dz: 21.42, ..Default::default() })
}

fn params() -> TrackParams {
    TrackParams { num_azim: 4, radial_spacing: 1.2, num_polar: 2, axial_spacing: 20.0 }
}

#[test]
fn different_grids_agree_on_keff() {
    let m = model();
    let opts = EigenOptions { tolerance: 2e-4, max_iterations: 600, ..Default::default() };
    let mut ks = Vec::new();
    for spec in [
        DecompSpec { nx: 2, ny: 1, nz: 1 },
        DecompSpec { nx: 2, ny: 2, nz: 1 },
        DecompSpec { nx: 2, ny: 2, nz: 2 },
    ] {
        let d = Decomposition::build(&m.geometry, &m.axial, &m.library, params(), spec);
        let r = solve_cluster(&d, &Backend::Cpu, &opts);
        assert!(r.converged, "{spec:?} did not converge");
        ks.push(r.keff);
    }
    let max = ks.iter().cloned().fold(f64::MIN, f64::max);
    let min = ks.iter().cloned().fold(f64::MAX, f64::min);
    // Each grid re-lays tracks per window, so at this deliberately coarse
    // CI resolution the spread is discretisation, not divergence; the
    // paper itself notes raw rates shift under decomposition (§2.1).
    assert!(max - min < 8e-2, "k spread too wide across grids: {ks:?}");
    for k in &ks {
        assert!(*k > 0.95 && *k < 1.25, "k {k} unphysical: {ks:?}");
    }
}

#[test]
fn exchange_traffic_is_bounded_by_eq7() {
    // Eq. 7 with the *total* 3D track count is the paper's upper-bound
    // communication model; actual per-iteration traffic (boundary tracks
    // only) must sit below it but be non-trivial.
    let m = model();
    let d = Decomposition::build(
        &m.geometry,
        &m.axial,
        &m.library,
        params(),
        DecompSpec { nx: 2, ny: 2, nz: 1 },
    );
    let opts = EigenOptions { tolerance: 1e-30, max_iterations: 4, ..Default::default() };
    let r = solve_cluster(&d, &Backend::Cpu, &opts);

    let n3d: u64 = d.problems.iter().map(|p| p.num_tracks() as u64).sum();
    let eq7_bound = predict_communication_bytes(n3d, 7) * r.iterations as u64;
    let flux_sent: u64 = r.traffic.iter().map(|t| t.sent_bytes).sum();
    assert!(flux_sent > 0);
    assert!(flux_sent < eq7_bound, "sent {flux_sent} exceeds the Eq. 7 bound {eq7_bound}");
    // Planned sends * groups * 4 bytes * iterations accounts for almost
    // all traffic (collectives add only scalars).
    let planned: u64 = d.exchanges.iter().map(|e| e.sends.len() as u64).sum();
    let planned_bytes = planned * 7 * 4 * r.iterations as u64;
    assert!(flux_sent >= planned_bytes, "sent {flux_sent} < planned {planned_bytes}");
}

#[test]
fn subdomain_problems_partition_the_core() {
    let m = model();
    let d = Decomposition::build(
        &m.geometry,
        &m.axial,
        &m.library,
        params(),
        DecompSpec { nx: 2, ny: 2, nz: 2 },
    );
    // Volumes of all subdomains sum to the core volume.
    let total: f64 = d.problems.iter().flat_map(|p| p.volumes.iter()).sum();
    let w = antmoc::geom::c5g7::CORE_WIDTH;
    let h = antmoc::geom::c5g7::CORE_HEIGHT;
    let exact = w * w * h;
    assert!(
        (total - exact).abs() / exact < 0.03,
        "tracked subdomain volumes {total} vs exact {exact}"
    );
    // Sub-geometry windows tile the radial plane.
    for p in &d.problems {
        let (x0, x1, y0, y1) = p.geometry.bounds();
        assert!(((x1 - x0) - w / 2.0).abs() < 1e-9);
        assert!(((y1 - y0) - w / 2.0).abs() < 1e-9);
    }
}

#[test]
fn cluster_substrate_scales_to_many_ranks() {
    // Pure substrate check: 32 thread-ranks doing a halo exchange plus
    // reductions (the communication skeleton of a big run).
    let n = 32;
    let out = Cluster::run(n, |mut comm| {
        let me = comm.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        comm.send_vec(right, 1, vec![me as f32; 128]);
        let got: Vec<f32> = comm.recv_vec(left, 1);
        assert_eq!(got[0] as usize, left);
        let sum = comm.allreduce_sum(1.0);
        assert_eq!(sum as usize, n);
        comm.barrier();
        me
    });
    assert_eq!(out.results.len(), n);
    assert!(out.traffic.iter().all(|t| t.sent_bytes >= 128 * 4));
}
