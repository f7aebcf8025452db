//! Property: the transport sweep's scalar flux and leakage are invariant
//! (to 1e-10 relative) under worker count and dispatch schedule.
//!
//! The sweep accumulates `f64` tallies per FSR slot — shared atomic slots
//! or per-worker buffers reduced in worker order — so scheduling only
//! changes the *order* of same-sign additions; with zero inflow and a
//! positive constant source every contribution to a slot has the same
//! sign, so reordering can move the result by rounding only. This pins
//! that argument down across worker counts {1, 2, 8}, the `natural` vs
//! `l3_sorted` schedules and both tally modes for random small geometries.

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, BoundaryConds};
use antmoc_solver::sweep::transport_sweep_with;
use antmoc_solver::{
    FluxBanks, KernelConfig, Problem, ScheduleKind, SegmentSource, SweepArena, SweepSchedule,
    TallyMode,
};
use antmoc_track::TrackParams;
use antmoc_xs::c5g7;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn sweep_agrees_across_workers_and_schedules(
        width in 1.5f64..3.0,
        height in 1.5f64..3.0,
        depth in 1.0f64..2.5,
        spacing in 0.45f64..0.8,
        source in 0.2f64..1.5,
    ) {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, width, height, (0.0, depth), BoundaryConds::vacuum());
        let axial = AxialModel::uniform(0.0, depth, (depth / 2.0).max(0.5));
        let params = TrackParams {
            num_azim: 4,
            radial_spacing: spacing,
            num_polar: 2,
            axial_spacing: spacing,
            ..Default::default()
        };
        let p = Problem::build(g, axial, &lib, params);
        let segsrc = SegmentSource::otf();
        let q = vec![source; p.num_fsrs() * p.num_groups()];

        let reference = {
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let mut arena = SweepArena::new(KernelConfig::default());
            transport_sweep_with(&p, &segsrc, &q, &banks, &SweepSchedule::natural(), &mut arena)
        };

        for workers in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            for kind in [ScheduleKind::Natural, ScheduleKind::L3Sorted] {
                let sched = SweepSchedule::with_workers(kind, &p, workers);
                for tallies in [TallyMode::Atomic, TallyMode::Privatized] {
                    let mut arena =
                        SweepArena::new(KernelConfig { tallies, ..Default::default() });
                    let out = pool.install(|| {
                        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
                        transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut arena)
                    });
                    prop_assert_eq!(out.segments, reference.segments);
                    prop_assert!(
                        (out.leakage - reference.leakage).abs()
                            <= 1e-10 * reference.leakage.abs().max(1.0),
                        "leakage {} vs {} (workers={}, kind={:?}, tallies={:?})",
                        out.leakage, reference.leakage, workers, kind, tallies
                    );
                    for (i, (x, y)) in out.phi_acc.iter().zip(&reference.phi_acc).enumerate() {
                        prop_assert!(
                            (x - y).abs() <= 1e-10 * x.abs().max(y.abs()).max(1e-30),
                            "slot {}: {} vs {} (workers={}, kind={:?}, tallies={:?})",
                            i, x, y, workers, kind, tallies
                        );
                    }
                }
            }
        }
    }
}
