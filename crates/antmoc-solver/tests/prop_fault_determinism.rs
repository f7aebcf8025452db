//! Property: fault injection is a pure function of the seed.
//!
//! Two pins:
//!
//! * the [`FaultPlan`] schedule table — which `(rank, op, attempt)` cells
//!   drop or flip — is byte-identical across plan constructions for the
//!   same config;
//! * a fault-injected recovery solve (drops, flips, and a scheduled rank
//!   death) produces the same k_eff, flux, and injection counters across
//!   worker counts {1, 4} and both sweep dispatch schedules. Injection
//!   decisions are keyed on `(seed, rank, op-index, attempt)` — never on
//!   wall-clock or thread timing — so only floating-point reassociation
//!   inside the parallel sweep can move the numbers.

use antmoc_cluster::fault::{FaultConfig, FaultPlan, RankDeath};
use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, Bc, BoundaryConds};
use antmoc_solver::cluster::{Backend, ClusterOptions};
use antmoc_solver::decomp::{DecompSpec, Decomposition};
use antmoc_solver::{solve_cluster_recovering, EigenOptions, RecoveryOptions, ScheduleKind};
use antmoc_track::TrackParams;
use antmoc_xs::c5g7;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn schedule_tables_are_byte_identical_per_seed(
        seed in 0u64..u64::MAX,
        drop_p in 0.0f64..0.5,
        flip_p in 0.0f64..0.5,
    ) {
        let cfg = FaultConfig { seed, drop_p, flip_p, ..FaultConfig::default() };
        let a = FaultPlan::new(cfg.clone()).schedule_table(4, 64, 3);
        let b = FaultPlan::new(cfg).schedule_table(4, 64, 3);
        prop_assert_eq!(a, b);
    }
}

fn decomp_2x1() -> Decomposition {
    let lib = c5g7::library();
    let (uo2, _) = lib.by_name("UO2").unwrap();
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 8.0), bcs);
    let axial = AxialModel::uniform(0.0, 8.0, 1.0);
    let params = TrackParams {
        num_azim: 4,
        radial_spacing: 0.4,
        num_polar: 2,
        axial_spacing: 0.2,
        ..Default::default()
    };
    Decomposition::build(&g, &axial, &lib, params, DecompSpec { nx: 2, ny: 1, nz: 1 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn recovery_solve_is_invariant_under_workers_and_schedule(
        seed in 0u64..u64::MAX,
        drop_p in 0.0f64..0.15,
        death_it in 4usize..8,
    ) {
        let d = decomp_2x1();
        let opts =
            EigenOptions { tolerance: 1e-30, max_iterations: 10, ..Default::default() };
        let fault = FaultConfig {
            seed,
            drop_p,
            flip_p: drop_p / 2.0,
            max_retries: 24,
            deaths: vec![RankDeath { rank: 1, iteration: death_it }],
            ..FaultConfig::default()
        };

        let mut reference: Option<(f64, Vec<Vec<f64>>, [u64; 3])> = None;
        for schedule in [ScheduleKind::Natural, ScheduleKind::L3Sorted] {
            for workers in [1usize, 4] {
                let tel = antmoc_telemetry::Telemetry::global();
                tel.reset();
                let rec = RecoveryOptions {
                    fault: fault.clone(),
                    checkpoint_interval: 3,
                    cluster: ClusterOptions {
                        schedule,
                        workers: Some(workers),
                        ..ClusterOptions::default()
                    },
                    ..RecoveryOptions::default()
                };
                let r = solve_cluster_recovering(&d, &Backend::Cpu, &opts, &rec);
                prop_assert_eq!(r.restarts, 1);
                let report = tel.report();
                let counters = [
                    report.counter("comm.retries"),
                    report.counter("comm.dropped"),
                    report.counter("comm.flipped"),
                ];
                match &reference {
                    None => reference = Some((r.keff, r.phi, counters)),
                    Some((k0, phi0, c0)) => {
                        // Injection decisions are timing-free, so the
                        // counters must match exactly; the numbers may
                        // move only by parallel-sum rounding.
                        prop_assert_eq!(&counters, c0);
                        let rel = (r.keff - k0) / k0;
                        prop_assert!(
                            rel.abs() < 1e-9,
                            "k {} vs reference {} (workers {}, {:?})",
                            r.keff, k0, workers, schedule
                        );
                        for (a, b) in r.phi.iter().zip(phi0) {
                            for (x, y) in a.iter().zip(b) {
                                prop_assert!(
                                    (x - y).abs() <= 1e-8 * y.abs().max(1.0),
                                    "flux {} vs {}", x, y
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
