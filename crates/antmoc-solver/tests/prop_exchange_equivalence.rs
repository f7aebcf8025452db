//! Property: the pipelined boundary exchange is a pure scheduling
//! change — it never alters the transported physics.
//!
//! For random small geometries and every practical decomposition axis,
//! the pipelined cluster solve must reproduce the synchronous one
//! **bitwise** on the serial backend (both modes sweep serial ranks in
//! the same boundary-first order, pipelined ships each payload from
//! inside that one sweep, and the receiver applies the exact sync
//! scaling `((x as f64 * inv) as f32) * weight`, so the arithmetic
//! sequence is identical), and to 1e-12 relative on the parallel CPU
//! backend across worker counts {1, 2, 8}, which ships right after its
//! sweep.

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, BoundaryConds};
use antmoc_solver::cluster::{solve_cluster_with, Backend, ClusterOptions, ExchangeMode};
use antmoc_solver::decomp::{DecompSpec, Decomposition};
use antmoc_solver::EigenOptions;
use antmoc_track::TrackParams;
use antmoc_xs::c5g7;
use proptest::prelude::*;

fn opts(exchange: ExchangeMode, workers: Option<usize>) -> ClusterOptions {
    ClusterOptions { exchange, workers, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn pipelined_exchange_matches_sync_for_random_decompositions(
        width in 2.0f64..3.2,
        height in 2.0f64..3.2,
        depth in 2.0f64..3.6,
        spacing in 0.55f64..0.85,
    ) {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let params = TrackParams {
            num_azim: 4,
            radial_spacing: spacing,
            num_polar: 2,
            axial_spacing: spacing,
        };
        // A fixed iteration budget keeps every run on the same arithmetic.
        let eopts = EigenOptions { tolerance: 1e-30, max_iterations: 6, ..Default::default() };

        for spec in [
            DecompSpec { nx: 2, ny: 1, nz: 1 },
            DecompSpec { nx: 1, ny: 2, nz: 1 },
            DecompSpec { nx: 2, ny: 2, nz: 1 },
            DecompSpec { nx: 1, ny: 1, nz: 2 },
        ] {
            let g = homogeneous_box(uo2, width, height, (0.0, depth), BoundaryConds::vacuum());
            let axial = AxialModel::uniform(0.0, depth, (depth / 2.0).max(0.5));
            let d = Decomposition::build(&g, &axial, &lib, params.clone(), spec);

            // Serial backend: bitwise identity, per rank, per FSR.
            let sync = solve_cluster_with(
                &d, &Backend::CpuSerial, &eopts, &opts(ExchangeMode::Sync, None),
            );
            let pipe = solve_cluster_with(
                &d, &Backend::CpuSerial, &eopts, &opts(ExchangeMode::Pipelined, None),
            );
            prop_assert_eq!(
                sync.keff.to_bits(), pipe.keff.to_bits(),
                "serial keff not bitwise: sync {} vs pipelined {} (spec {:?})",
                sync.keff, pipe.keff, spec
            );
            prop_assert_eq!(sync.iterations, pipe.iterations);
            for (rank, (sp, pp)) in sync.phi.iter().zip(&pipe.phi).enumerate() {
                prop_assert!(
                    sp == pp,
                    "serial flux differs on rank {} (spec {:?})", rank, spec
                );
            }

            // Parallel CPU backend: atomic tally order may shift rounding,
            // so the modes agree to 1e-12 relative across worker counts.
            for workers in [1usize, 2, 8] {
                let sync = solve_cluster_with(
                    &d, &Backend::Cpu, &eopts, &opts(ExchangeMode::Sync, Some(workers)),
                );
                let pipe = solve_cluster_with(
                    &d, &Backend::Cpu, &eopts, &opts(ExchangeMode::Pipelined, Some(workers)),
                );
                prop_assert!(
                    (sync.keff - pipe.keff).abs() <= 1e-12 * sync.keff.abs().max(1.0),
                    "parallel keff: sync {} vs pipelined {} (spec {:?}, workers {})",
                    sync.keff, pipe.keff, spec, workers
                );
                prop_assert_eq!(sync.iterations, pipe.iterations);
                for (rank, (sp, pp)) in sync.phi.iter().zip(&pipe.phi).enumerate() {
                    for (i, (x, y)) in sp.iter().zip(pp).enumerate() {
                        prop_assert!(
                            (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1e-30),
                            "rank {} slot {}: {} vs {} (spec {:?}, workers {})",
                            rank, i, x, y, spec, workers
                        );
                    }
                }
            }
        }
    }
}
