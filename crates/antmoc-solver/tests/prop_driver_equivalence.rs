//! Property: every solve is an instance of the one iteration driver, so
//! the instances agree bit for bit where their configurations coincide.
//!
//! * A 1x1x1 decomposition solved by the cluster solver on the serial
//!   backend reproduces the single-domain eigenvalue solve of its one
//!   subdomain bitwise (keff, iterations, flux): single-domain is the
//!   one-rank instance, and a rank with no neighbours sweeps in natural
//!   order.
//! * A zero-fault `solve_cluster_recovering` reproduces
//!   `solve_cluster_with` bitwise on every backend (one worker per rank,
//!   so the parallel backends are deterministic) in both exchange modes.
//! * The fault path builds its rank sweepers like the plain path, so it
//!   honours the `[solver]` kernel configuration on the device backend.

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, Bc, BoundaryConds};
use antmoc_gpusim::DeviceSpec;
use antmoc_solver::cluster::{
    solve_cluster, solve_cluster_with, Backend, BufferedSerialSweeper, ClusterOptions, ExchangeMode,
};
use antmoc_solver::decomp::{DecompSpec, Decomposition};
use antmoc_solver::device::CuMapping;
use antmoc_solver::{
    solve_cluster_recovering, solve_eigenvalue, EigenOptions, KernelConfig, RecoveryOptions,
    SegmentSource, StorageMode, SweepKernel,
};
use antmoc_telemetry::{Json, Telemetry};
use antmoc_track::TrackParams;
use antmoc_xs::c5g7;
use proptest::prelude::*;

fn params(spacing: f64) -> TrackParams {
    TrackParams {
        num_azim: 4,
        radial_spacing: spacing,
        num_polar: 2,
        axial_spacing: spacing / 2.0,
        ..Default::default()
    }
}

/// A UO2 box, reflective except for a vacuum top, decomposed by `spec`.
fn decompose(width: f64, depth: f64, spacing: f64, spec: DecompSpec) -> Decomposition {
    let lib = c5g7::library();
    let (uo2, _) = lib.by_name("UO2").unwrap();
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    let g = homogeneous_box(uo2, width, width, (0.0, depth), bcs);
    let axial = AxialModel::uniform(0.0, depth, depth / 4.0);
    Decomposition::build(&g, &axial, &lib, params(spacing), spec)
}

fn device() -> Backend {
    Backend::Device {
        spec: DeviceSpec::scaled(64 << 20),
        mode: StorageMode::Manager { budget_bytes: 1 << 20 },
        mapping: CuMapping::SegmentSorted,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn one_rank_cluster_is_the_single_domain_solve(
        width in 2.0f64..4.0,
        depth in 2.0f64..6.0,
        spacing in 0.4f64..0.8,
    ) {
        let d = decompose(width, depth, spacing, DecompSpec { nx: 1, ny: 1, nz: 1 });
        // A reachable tolerance, so the iteration count is part of the check.
        let opts = EigenOptions { tolerance: 1e-4, max_iterations: 300, ..Default::default() };
        let cluster = solve_cluster(&d, &Backend::CpuSerial, &opts);
        let segsrc = SegmentSource::otf();
        let single =
            solve_eigenvalue(&d.problems[0], &mut BufferedSerialSweeper::new(&segsrc), &opts);
        prop_assert_eq!(cluster.keff.to_bits(), single.keff.to_bits());
        prop_assert_eq!(cluster.iterations, single.iterations);
        prop_assert_eq!(cluster.converged, single.converged);
        prop_assert!(cluster.phi[0] == single.phi, "flux differs");
    }
}

#[test]
fn zero_fault_recovery_is_the_plain_cluster_solve_on_every_backend() {
    let opts = EigenOptions { tolerance: 1e-30, max_iterations: 8, ..Default::default() };
    for spec in [DecompSpec { nx: 2, ny: 1, nz: 1 }, DecompSpec { nx: 2, ny: 2, nz: 1 }] {
        let d = decompose(4.0, 6.0, 0.5, spec);
        for backend in [Backend::Cpu, Backend::CpuSerial, device()] {
            for exchange in [ExchangeMode::Sync, ExchangeMode::Pipelined] {
                let cluster = ClusterOptions { exchange, workers: Some(1), ..Default::default() };
                let plain = solve_cluster_with(&d, &backend, &opts, &cluster);
                let rec = RecoveryOptions { cluster, ..Default::default() };
                let recovering = solve_cluster_recovering(&d, &backend, &opts, &rec);
                let what = format!("{backend:?} {exchange:?} {spec:?}");
                assert_eq!(plain.keff.to_bits(), recovering.keff.to_bits(), "{what}");
                assert_eq!(plain.iterations, recovering.iterations, "{what}");
                assert_eq!(plain.phi, recovering.phi, "{what}");
                assert_eq!(recovering.restarts, 0, "{what}");
            }
        }
    }
}

#[test]
fn fault_path_device_ranks_honour_the_kernel_config() {
    let d = decompose(4.0, 6.0, 0.5, DecompSpec { nx: 2, ny: 1, nz: 1 });
    let opts = EigenOptions { tolerance: 1e-30, max_iterations: 3, ..Default::default() };
    let kernel = KernelConfig { kernel: SweepKernel::Scalar, ..Default::default() };
    let rec = RecoveryOptions {
        cluster: ClusterOptions { kernel, ..Default::default() },
        ..Default::default()
    };
    let sink = Telemetry::new();
    let _scope = sink.install();
    let _ = solve_cluster_recovering(&d, &device(), &opts, &rec);
    let report = sink.report();
    let section = report.sections.get("sweep_kernel").expect("the rank sweeps record a section");
    assert_eq!(section.get("kernel").and_then(Json::as_str), Some("scalar"), "{section:?}");
}
