//! Kernel-conformance harness: the group-vectorized sweep kernel
//! (`kernel = vector`) against the scalar kernel it replaces.
//!
//! Two claims, with different strengths:
//!
//! * **Bitwise on the serial backend.** One worker, privatized tallies:
//!   the vector kernel's lanes perform the same IEEE 754 op sequence per
//!   group as the scalar loop and the staged `1 - exp(-tau)` spans carry
//!   the exact bits the scalar kernel computes, so leakage and every flux
//!   slot must match bit for bit — for every group count 1..=8 (covering
//!   all masked-remainder shapes), every schedule, and both exp modes.
//! * **<= 1e-12 relative across workers {1, 2, 8}.** With atomic tallies
//!   the CAS additions land in race order, so scalar and vector runs may
//!   differ by reassociation rounding — but never more.
//!
//! * **Every backend runs that kernel.** The `cpu-serial` rank sweeper
//!   must match a one-worker natural-order CPU sweep bit for bit, and the
//!   simulated device — either CU mapping, any storage mode — must repeat
//!   itself bit for bit on one worker and stay within 1e-12 relative of
//!   the CPU sweep over the same segment source at workers {1, 2, 8}.
//!
//! The synthetic cross sections drive tau = sigma_t * length through its
//! extremes inside one sweep: a void group (tau = 0), subnormal and
//! near-underflow taus, and an optically black group (tau > 700, where
//! exp(-tau) underflows) — the edges where a vector path that "optimizes"
//! the arithmetic would first diverge.

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, BoundaryConds};
use antmoc_gpusim::{Device, DeviceSpec};
use antmoc_solver::cluster::SerialSweeper;
use antmoc_solver::device::{CuMapping, DeviceSolver};
use antmoc_solver::manager::stored_bytes_for;
use antmoc_solver::sweep::transport_sweep_with;
use antmoc_solver::{
    CpuSweeper, ExpMode, FluxBanks, KernelConfig, Problem, ScheduleKind, SegmentSource,
    StorageMode, SweepArena, SweepKernel, SweepOutcome, SweepSchedule, Sweeper, TallyMode,
};
use antmoc_track::TrackParams;
use antmoc_xs::{Material, MaterialLibrary};
use proptest::prelude::*;

/// sigma_t values cycled across groups: zero (tau = 0), a subnormal, a
/// near-underflow normal, ordinary magnitudes, and 1e4 (tau > 700 for
/// every segment longer than 0.07 cm).
const SIGMA_EXTREMES: [f64; 8] = [0.0, 1e-310, 1e-30, 0.5, 2.0, 1e4, 1.0, 3.5e-3];

/// A one-material library whose `g`-group sigma_t sweeps the extremes.
fn extreme_library(g: usize) -> MaterialLibrary {
    let total: Vec<f64> = (0..g).map(|gi| SIGMA_EXTREMES[gi % SIGMA_EXTREMES.len()]).collect();
    let absorption: Vec<f64> = total.iter().map(|t| t * 0.5).collect();
    let mut lib = MaterialLibrary::new();
    lib.add(Material {
        name: "EXTREME".into(),
        total,
        absorption,
        fission: vec![0.0; g],
        nu: vec![0.0; g],
        chi: vec![0.0; g],
        scatter: vec![vec![0.0; g]; g],
    });
    lib
}

fn extreme_problem(g: usize, spacing: f64) -> Problem {
    let lib = extreme_library(g);
    let (mat, _) = lib.by_name("EXTREME").unwrap();
    let geom = homogeneous_box(mat, 2.0, 2.0, (0.0, 2.0), BoundaryConds::vacuum());
    let axial = AxialModel::uniform(0.0, 2.0, 1.0);
    let params = TrackParams {
        num_azim: 4,
        radial_spacing: spacing,
        num_polar: 2,
        axial_spacing: spacing,
        ..Default::default()
    };
    Problem::build(geom, axial, &lib, params)
}

/// Fresh banks with nonzero inflow on a few tracks, so attenuation,
/// tallies, and boundary stores all carry non-trivial values in every
/// group.
fn inflow_banks(p: &Problem) -> FluxBanks {
    let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
    let inflow: Vec<f32> = (0..p.num_groups()).map(|gi| 0.4 + gi as f32 * 0.11).collect();
    for t in 0..p.num_tracks().min(5) as u32 {
        banks.set_incoming(t, 0, &inflow);
        banks.set_incoming(t, 1, &inflow);
    }
    banks
}

/// A structured, group-dependent source.
fn structured_source(p: &Problem) -> Vec<f64> {
    (0..p.num_fsrs() * p.num_groups()).map(|i| 0.1 + (i % 13) as f64 * 0.045).collect()
}

fn pool(workers: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap()
}

fn sweep(
    p: &Problem,
    q: &[f64],
    workers: usize,
    kind: ScheduleKind,
    exp: ExpMode,
    tallies: TallyMode,
    kernel: SweepKernel,
) -> SweepOutcome {
    let sched = SweepSchedule::with_workers(kind, p, workers);
    let mut arena = SweepArena::new(KernelConfig { tallies, exp, kernel, ..Default::default() });
    let segsrc = SegmentSource::otf();
    pool(workers)
        .install(|| transport_sweep_with(p, &segsrc, q, &inflow_banks(p), &sched, &mut arena))
}

fn bits(out: &SweepOutcome) -> (u64, Vec<u64>) {
    (out.leakage.to_bits(), out.phi_acc.iter().map(|x| x.to_bits()).collect())
}

fn assert_within_1e12(a: &SweepOutcome, b: &SweepOutcome, what: &str) {
    assert_eq!(a.segments, b.segments, "{what}");
    assert!(
        (a.leakage - b.leakage).abs() <= 1e-12 * a.leakage.abs().max(1.0),
        "leakage {} vs {} ({what})",
        a.leakage,
        b.leakage
    );
    for (i, (x, y)) in a.phi_acc.iter().zip(&b.phi_acc).enumerate() {
        assert!(
            (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1e-30),
            "slot {i}: {x} vs {y} ({what})"
        );
    }
}

const SCHEDULES: [ScheduleKind; 3] =
    [ScheduleKind::Natural, ScheduleKind::L3Sorted, ScheduleKind::BoundaryFirst];

#[test]
fn vector_kernel_is_bitwise_identical_on_the_serial_backend() {
    // Every group count 1..=8: full-lane shapes (4, 8) and every masked
    // remainder (1..3, 5..7); every schedule; both exp modes.
    for g in 1..=8usize {
        let p = extreme_problem(g, 0.6);
        let q = structured_source(&p);
        for kind in SCHEDULES {
            for exp in [ExpMode::Intrinsic, ExpMode::Table] {
                let scalar =
                    sweep(&p, &q, 1, kind, exp, TallyMode::Privatized, SweepKernel::Scalar);
                let vector =
                    sweep(&p, &q, 1, kind, exp, TallyMode::Privatized, SweepKernel::Vector);
                assert_eq!(scalar.segments, vector.segments);
                assert_eq!(
                    bits(&scalar),
                    bits(&vector),
                    "serial bitwise mismatch (g={g}, kind={kind:?}, exp={exp:?})"
                );
            }
        }
    }
}

#[test]
fn vector_kernel_matches_scalar_across_workers_within_1e12() {
    // Atomic tallies race the CAS additions, so across workers the claim
    // weakens to 1e-12 relative — still far tighter than any physical
    // tolerance. Every group count; both exp modes ride the worker axis
    // on the remainder-lane group counts to bound runtime.
    for g in 1..=8usize {
        let p = extreme_problem(g, 0.6);
        let q = structured_source(&p);
        let exp_modes: &[ExpMode] =
            if g % 4 == 0 { &[ExpMode::Intrinsic] } else { &[ExpMode::Intrinsic, ExpMode::Table] };
        for &exp in exp_modes {
            for workers in [1usize, 2, 8] {
                for kind in SCHEDULES {
                    let scalar =
                        sweep(&p, &q, workers, kind, exp, TallyMode::Atomic, SweepKernel::Scalar);
                    let vector =
                        sweep(&p, &q, workers, kind, exp, TallyMode::Atomic, SweepKernel::Vector);
                    let what = format!("g={g}, workers={workers}, kind={kind:?}, exp={exp:?}");
                    assert_within_1e12(&scalar, &vector, &what);
                }
            }
        }
    }
}

#[test]
fn serial_sweeper_is_bitwise_a_one_worker_natural_cpu_sweep() {
    // The cpu-serial rank backend tallies straight into one plain buffer;
    // a one-worker CPU sweep tallies into one private buffer and reduces
    // it into a zeroed accumulator. Same adds, same order, same bits.
    for g in 1..=8usize {
        let p = extreme_problem(g, 0.6);
        let q = structured_source(&p);
        let segsrc = SegmentSource::otf();
        let serial = SerialSweeper { segsrc: &segsrc }.sweep(&p, &q, &inflow_banks(&p));
        let mut cpu = CpuSweeper::new(&segsrc);
        let parallel = pool(1).install(|| cpu.sweep(&p, &q, &inflow_banks(&p)));
        assert_eq!(serial.segments, parallel.segments);
        assert_eq!(bits(&serial), bits(&parallel), "serial vs one-worker cpu (g={g})");
    }
}

#[test]
fn device_sweeps_repeat_bitwise_and_track_the_cpu_sweep_within_1e12() {
    for g in 1..=8usize {
        let p = extreme_problem(g, 0.6);
        let q = structured_source(&p);
        let store: u64 = p.sweep_tracks.iter().map(|t| stored_bytes_for(t.num_segments)).sum();
        for mapping in [CuMapping::GridStride, CuMapping::SegmentSorted] {
            for mode in [
                StorageMode::Explicit,
                StorageMode::Otf,
                StorageMode::Manager { budget_bytes: store / 2 },
            ] {
                let device = || std::sync::Arc::new(Device::new(DeviceSpec::scaled(1 << 30)));
                let mut solver = DeviceSolver::new(device(), &p, mode, mapping).unwrap();
                let what = format!("g={g}, {mapping:?}, {mode:?}");

                // One worker: CUs run one after another in a fixed order.
                let first = pool(1).install(|| solver.sweep(&p, &q, &inflow_banks(&p)));
                let again = pool(1).install(|| solver.sweep(&p, &q, &inflow_banks(&p)));
                assert_eq!(bits(&first), bits(&again), "device run-to-run ({what})");
                assert_eq!(first.segments, p.num_3d_segments() * 2, "{what}");

                // Any worker count: the CPU sweep over the same segments
                // differs by tally order only.
                let mut arena = SweepArena::new(KernelConfig::default());
                let cpu = pool(1).install(|| {
                    transport_sweep_with(
                        &p,
                        solver.segment_source(),
                        &q,
                        &inflow_banks(&p),
                        &SweepSchedule::natural(),
                        &mut arena,
                    )
                });
                for workers in [1usize, 2, 8] {
                    let dev = pool(workers).install(|| solver.sweep(&p, &q, &inflow_banks(&p)));
                    assert_within_1e12(&cpu, &dev, &format!("{what}, workers={workers}"));
                }
            }
        }
    }
}

#[test]
fn extreme_taus_actually_occur_and_stay_finite() {
    // Sanity-pin the harness itself: the synthetic library must actually
    // drive tau through zero, subnormal, and >700 territory, and the
    // vector sweep must keep every output finite through all of it.
    let g = 8;
    let p = extreme_problem(g, 0.6);
    let mut seen_zero = false;
    let mut seen_subnormal = false;
    let mut seen_black = false;
    // Reconstruct representative taus from the problem's own flattened
    // cross sections.
    for f in 0..p.num_fsrs() {
        let mat = p.xs.fsr_mat[f] as usize * g;
        for gi in 0..g {
            // Representative lengths bracketing the box's segment range.
            for len in [0.07f64, 0.5, 2.8] {
                let tau = p.xs.sigma_t[mat + gi] * len;
                if tau == 0.0 {
                    seen_zero = true;
                } else if tau < f64::MIN_POSITIVE {
                    seen_subnormal = true;
                } else if tau > 700.0 {
                    seen_black = true;
                }
            }
        }
    }
    assert!(seen_zero && seen_subnormal && seen_black);

    let q = structured_source(&p);
    for exp in [ExpMode::Intrinsic, ExpMode::Table] {
        let out = sweep(
            &p,
            &q,
            1,
            ScheduleKind::Natural,
            exp,
            TallyMode::Privatized,
            SweepKernel::Vector,
        );
        assert!(out.leakage.is_finite(), "exp={exp:?}");
        assert!(out.phi_acc.iter().all(|x| x.is_finite()), "exp={exp:?}");
    }
}

// Randomized leg: jittered geometry and source fields must preserve both
// conformance claims for an arbitrary group count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn prop_kernel_equivalence(
        spacing in 0.45f64..0.8,
        source in 0.2f64..1.5,
        g in 1usize..9,
    ) {
        let p = extreme_problem(g, spacing);
        let q: Vec<f64> =
            (0..p.num_fsrs() * g).map(|i| source + (i % 7) as f64 * 0.03).collect();
        // Serial bitwise.
        let scalar = sweep(
            &p, &q, 1, ScheduleKind::Natural, ExpMode::Intrinsic,
            TallyMode::Privatized, SweepKernel::Scalar,
        );
        let vector = sweep(
            &p, &q, 1, ScheduleKind::Natural, ExpMode::Intrinsic,
            TallyMode::Privatized, SweepKernel::Vector,
        );
        prop_assert_eq!(bits(&scalar), bits(&vector), "serial bitwise (g={})", g);
        // Parallel tolerance.
        let scalar8 = sweep(
            &p, &q, 8, ScheduleKind::L3Sorted, ExpMode::Intrinsic,
            TallyMode::Atomic, SweepKernel::Scalar,
        );
        let vector8 = sweep(
            &p, &q, 8, ScheduleKind::L3Sorted, ExpMode::Intrinsic,
            TallyMode::Atomic, SweepKernel::Vector,
        );
        for (i, (x, y)) in scalar8.phi_acc.iter().zip(&vector8.phi_acc).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1e-30),
                "slot {}: {} vs {} (g={})", i, x, y, g
            );
        }
    }
}
