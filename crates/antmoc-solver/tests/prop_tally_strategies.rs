//! Property: the privatized tally strategy agrees with the atomic one to
//! 1e-12 relative, and is *bitwise deterministic* — the same
//! `(workers, schedule)` pair reproduces identical `f64` bits run after
//! run, even when the arena is reused across sweeps.
//!
//! Atomic tallies are order-dependent at rounding level (CAS additions
//! land in whatever order workers race), so the atomic reference is only
//! a tolerance anchor. Privatized tallies ride the pool's static
//! partition (a fixed track-to-worker map) and a fixed worker-order
//! reduction, so they admit the stronger bit-identity claim.

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, BoundaryConds};
use antmoc_solver::sweep::transport_sweep_with;
use antmoc_solver::{
    FluxBanks, KernelConfig, Problem, ScheduleKind, SegmentSource, SweepArena, SweepOutcome,
    SweepSchedule, TallyMode,
};
use antmoc_track::TrackParams;
use antmoc_xs::c5g7;
use proptest::prelude::*;

fn arena(tallies: TallyMode) -> SweepArena {
    SweepArena::new(KernelConfig { tallies, ..Default::default() })
}

fn bits(out: &SweepOutcome) -> (u64, Vec<u64>) {
    (out.leakage.to_bits(), out.phi_acc.iter().map(|x| x.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_tally_strategies(
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

        // Atomic reference on the natural schedule.
        let reference = {
            let mut a = arena(TallyMode::Atomic);
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            transport_sweep_with(&p, &segsrc, &q, &banks, &SweepSchedule::natural(), &mut a)
        };

        for workers in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            for kind in [ScheduleKind::Natural, ScheduleKind::L3Sorted] {
                let sched = SweepSchedule::with_workers(kind, &p, workers);

                // One arena reused for both runs: the second sweep also
                // checks that `prepare` re-zeroes the privatized buffers.
                let mut priv_arena = arena(TallyMode::Privatized);
                let run = |a: &mut SweepArena| {
                    pool.install(|| {
                        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
                        transport_sweep_with(&p, &segsrc, &q, &banks, &sched, a)
                    })
                };
                let first = run(&mut priv_arena);
                let second = run(&mut priv_arena);

                // Bitwise deterministic across repeated runs.
                prop_assert_eq!(
                    bits(&first),
                    bits(&second),
                    "privatized sweep not bitwise reproducible (workers={}, kind={:?})",
                    workers,
                    kind
                );

                // Within 1e-12 relative of the atomic reference.
                prop_assert_eq!(first.segments, reference.segments);
                prop_assert!(
                    (first.leakage - reference.leakage).abs()
                        <= 1e-12 * reference.leakage.abs().max(1.0),
                    "leakage {} vs {} (workers={}, kind={:?})",
                    first.leakage, reference.leakage, workers, kind
                );
                for (i, (x, y)) in first.phi_acc.iter().zip(&reference.phi_acc).enumerate() {
                    prop_assert!(
                        (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1e-30),
                        "slot {}: {} vs {} (workers={}, kind={:?})",
                        i, x, y, workers, kind
                    );
                }
            }
        }

        // Single-worker privatized bits match across schedules trivially;
        // the cross-worker claim is the interesting one: a fixed schedule
        // gives identical bits for every worker count only when the
        // partition map matches, which we do NOT claim. What we do claim —
        // and check here — is that worker count never changes the result
        // beyond rounding relative to the 1-worker run.
        for kind in [ScheduleKind::Natural, ScheduleKind::L3Sorted] {
            let one = {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
                let sched = SweepSchedule::with_workers(kind, &p, 1);
                let mut a = arena(TallyMode::Privatized);
                pool.install(|| {
                    let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
                    transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut a)
                })
            };
            for workers in [2usize, 8] {
                let pool =
                    rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
                let sched = SweepSchedule::with_workers(kind, &p, workers);
                let mut a = arena(TallyMode::Privatized);
                let out = pool.install(|| {
                    let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
                    transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut a)
                });
                for (i, (x, y)) in out.phi_acc.iter().zip(&one.phi_acc).enumerate() {
                    prop_assert!(
                        (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1e-30),
                        "slot {}: {} vs {} (workers={}, kind={:?})",
                        i, x, y, workers, kind
                    );
                }
            }
        }
    }
}
