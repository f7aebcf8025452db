//! The domain-decomposed solver: one executor thread per rank on the
//! simulated cluster, each running the shared power-iteration driver
//! (`crate::driver`) over its own subdomain, with a Jacobi-style
//! boundary-flux exchange each outer iteration (§3.1 step 4 of the paper)
//! and canonical global reductions for `k_eff` and residuals.
//!
//! Two exchange modes ship the boundary fluxes
//! ([`ExchangeMode`], the `[decomposition] exchange` config knob):
//!
//! * **Sync** — the strictly phased order: sweep, reduce, normalise,
//!   gather the scaled boundary exits, ship, swap, blocking receive.
//! * **Pipelined** — boundary exits ship *unnormalised* as soon as they
//!   are final, in flight while interior tracks sweep and the collectives
//!   run: ranks sweeping on one worker (every serial rank) ship each
//!   neighbour's payload from inside their sweep, others right after it.
//!   Receives poll first ([`Comm::try_recv`]) and fold the deferred
//!   normalisation into the delivery weights, which keeps the modes
//!   bitwise identical on the serial backend (both sweep it in the same
//!   order).

use std::sync::Arc;

use antmoc_cluster::{Cluster, Comm, LinkModel, Traffic};
use antmoc_gpusim::{Device, DeviceSpec};
use antmoc_telemetry::Telemetry;

use crate::decomp::{Decomposition, RankExchange};
use crate::device::{CuMapping, DeviceSolver};
use crate::driver::{drive, Controls, Hosted, Link, Solved};
use crate::eigen::EigenOptions;
use crate::problem::Problem;
use crate::schedule::{ScheduleKind, SweepSchedule};
use crate::source::Source;
use crate::sweep::{SegmentSource, StorageMode};
pub use crate::sweeper::SerialSweeper;
use crate::sweeper::{CpuSweeper, Sweeper};
use crate::tally::{KernelConfig, SweepArena};

/// Per-rank execution backend.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Plain CPU sweeps (each rank sweeps on the shared rayon pool).
    Cpu,
    /// CPU sweeps on one worker per rank. The honest configuration for
    /// measured scaling studies, since thread-ranks then map 1:1 onto
    /// host cores instead of contending for the shared pool.
    CpuSerial,
    /// One simulated GPU per rank with the given spec, storage mode and
    /// CU mapping.
    Device { spec: DeviceSpec, mode: StorageMode, mapping: CuMapping },
}

/// Result of a cluster solve.
#[derive(Debug)]
pub struct ClusterResult {
    pub keff: f64,
    pub iterations: usize,
    pub converged: bool,
    /// Per-rank final scalar flux.
    pub phi: Vec<Vec<f64>>,
    /// Per-rank communication totals.
    pub traffic: Vec<Traffic>,
    /// Wall-clock seconds spent inside transport sweeps, per rank.
    pub sweep_seconds: Vec<f64>,
    /// Residual history (global RMS).
    pub residuals: Vec<f64>,
}

/// How ranks ship boundary fluxes each outer iteration (see the module
/// docs for the two pipelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Strictly phased gather → ship → swap → blocking receive.
    #[default]
    Sync,
    /// Early raw sends overlapped with the interior sweep and the
    /// collectives; polling receives.
    Pipelined,
}

/// Cluster-level execution options beyond the eigenvalue controls.
#[derive(Debug, Clone, Default)]
pub struct ClusterOptions {
    /// Boundary-exchange pipeline.
    pub exchange: ExchangeMode,
    /// Simulated interconnect for point-to-point flux traffic.
    pub link: LinkModel,
    /// Dispatch order for the `Cpu` backend's sweeps. The serial backend
    /// always sweeps its boundary-exit tracks, then the interior, each in
    /// ascending order — the one order both exchange modes share, which
    /// makes them bitwise comparable — and the device backend orders via
    /// its CU mapping.
    pub schedule: ScheduleKind,
    /// Worker threads per rank (`None` shares the global pool; the serial
    /// backend always sweeps on one).
    pub workers: Option<usize>,
    /// Sweep-kernel configuration for every backend.
    pub kernel: KernelConfig,
}

/// Runs the decomposed eigenvalue problem, one thread-rank per subdomain.
pub fn solve_cluster(
    decomp: &Decomposition,
    backend: &Backend,
    opts: &EigenOptions,
) -> ClusterResult {
    solve_cluster_with(decomp, backend, opts, &ClusterOptions::default())
}

/// [`solve_cluster`] with explicit exchange/link/schedule options.
pub fn solve_cluster_with(
    decomp: &Decomposition,
    backend: &Backend,
    opts: &EigenOptions,
    copts: &ClusterOptions,
) -> ClusterResult {
    let n = decomp.problems.len();
    let tel = Telemetry::current();
    // Executor threads record into the caller's telemetry sink.
    let outcome = Cluster::run_linked(n, copts.link, |mut comm: Comm| {
        let _sink = tel.install();
        let mut solve = || rank_solve(&mut comm, decomp, backend, opts, copts);
        match copts.workers {
            Some(w) => rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .expect("executor worker pool")
                .install(solve),
            None => solve(),
        }
    });
    let mut ranks = outcome.results;
    let sweep_seconds = ranks.iter().map(|s| s.sweep_s).collect();
    let phi = ranks.iter_mut().map(|s| std::mem::take(&mut s.result.phi)).collect();
    let r = ranks.pop().expect("a cluster has at least one rank").result;
    let traffic = outcome.traffic;
    let (keff, iterations, converged, residuals) = (r.keff, r.iterations, r.converged, r.residuals);
    ClusterResult { keff, iterations, converged, phi, traffic, sweep_seconds, residuals }
}

/// One rank's solve: the driver over the rank's own subdomain, exchanging
/// boundary fluxes with its neighbours over `comm`.
fn rank_solve(
    comm: &mut Comm,
    decomp: &Decomposition,
    backend: &Backend,
    opts: &EigenOptions,
    copts: &ClusterOptions,
) -> Solved {
    let rank = comm.rank();
    let problem = &decomp.problems[rank];
    let segsrc = SegmentSource::otf();
    let mut sweeper = rank_sweeper(backend, problem, &decomp.exchanges[rank], copts, &segsrc);
    let controls = Controls { opts, source: Source::Fission };
    let pipelined = copts.exchange == ExchangeMode::Pipelined;
    let mut link = Link::new(comm, decomp, pipelined);
    drive(Hosted::new(problem, sweeper.as_mut()), &controls, Some(&mut link))
}

/// The sweeper one rank runs for its subdomain on `backend`.
/// `plan` is the subdomain's exchange plan: the serial backend's fixed
/// order sweeps the tracks whose exits it ships first. The serial backend
/// is the CPU sweeper pinned to one worker.
fn rank_sweeper<'a>(
    backend: &Backend,
    problem: &Problem,
    plan: &RankExchange,
    copts: &ClusterOptions,
    segsrc: &'a SegmentSource,
) -> Box<dyn Sweeper + 'a> {
    let cpu = |schedule| CpuSweeper::with_kernel(segsrc, schedule, copts.kernel.clone());
    match backend {
        Backend::Cpu => Box::new(cpu(SweepSchedule::for_problem(copts.schedule, problem))),
        Backend::CpuSerial => {
            let mut boundary: Vec<u32> = plan.sends.iter().map(|s| s.local_traversal.0).collect();
            boundary.sort_unstable();
            boundary.dedup();
            Box::new(
                cpu(SweepSchedule::serial_boundary_first(problem.num_tracks(), &boundary)).serial(),
            )
        }
        Backend::Device { spec, mode, mapping } => Box::new(
            DeviceSolver::new(Arc::new(Device::new(spec.clone())), problem, *mode, *mapping)
                .expect("device solver setup failed (OOM?)")
                .with_arena(SweepArena::new(copts.kernel.clone())),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::DecompSpec;
    use crate::eigen::{solve_eigenvalue, EigenOptions};
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, Bc, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn global() -> (antmoc_geom::Geometry, AxialModel, antmoc_xs::MaterialLibrary) {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 8.0), bcs);
        let axial = AxialModel::uniform(0.0, 8.0, 1.0);
        (g, axial, lib)
    }

    fn params() -> TrackParams {
        TrackParams { num_azim: 4, radial_spacing: 0.4, num_polar: 2, axial_spacing: 0.2 }
    }

    #[test]
    fn decomposed_keff_matches_single_domain() {
        let (g, axial, lib) = global();
        let opts = EigenOptions { tolerance: 5e-5, max_iterations: 2500, ..Default::default() };

        // Single-domain reference.
        let p = Problem::build(g.clone(), axial.clone(), &lib, params());
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::new(&segsrc);
        let reference = solve_eigenvalue(&p, &mut sweeper, &opts);
        assert!(reference.converged);

        // 2x1x1 decomposition.
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 1, nz: 1 });
        let r = solve_cluster(&d, &Backend::Cpu, &opts);
        assert!(
            r.converged,
            "cluster did not converge: {:?}",
            &r.residuals[r.residuals.len().saturating_sub(3)..]
        );
        // The decomposed tracking is not identical to the global one
        // (per-window laydown and nearest-z interface pairing), so allow a
        // modest eigenvalue difference.
        assert!(
            (r.keff - reference.keff).abs() < 5e-3,
            "cluster k {} vs single-domain {}",
            r.keff,
            reference.keff
        );
    }

    #[test]
    fn axial_decomposition_also_agrees() {
        let (g, axial, lib) = global();
        let opts = EigenOptions { tolerance: 5e-5, max_iterations: 2500, ..Default::default() };
        let p = Problem::build(g.clone(), axial.clone(), &lib, params());
        let segsrc = SegmentSource::otf();
        let mut sweeper = CpuSweeper::new(&segsrc);
        let reference = solve_eigenvalue(&p, &mut sweeper, &opts);

        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 1, ny: 1, nz: 2 });
        let r = solve_cluster(&d, &Backend::Cpu, &opts);
        assert!(r.converged);
        assert!(
            (r.keff - reference.keff).abs() < 1.5e-2,
            "axial cluster k {} vs single-domain {}",
            r.keff,
            reference.keff
        );
    }

    #[test]
    fn serial_backend_matches_parallel_backend() {
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 1, nz: 1 });
        let opts = EigenOptions { tolerance: 1e-30, max_iterations: 15, ..Default::default() };
        let a = solve_cluster(&d, &Backend::Cpu, &opts);
        let b = solve_cluster(&d, &Backend::CpuSerial, &opts);
        // Identical algorithm, different track order and tally grouping:
        // results agree to the f32-bank rounding floor.
        assert!((a.keff - b.keff).abs() < 1e-6, "parallel {} vs serial {}", a.keff, b.keff);
    }

    #[test]
    fn pipelined_exchange_is_bitwise_identical_on_serial_backend() {
        let (g, axial, lib) = global();
        let opts = EigenOptions { tolerance: 1e-30, max_iterations: 12, ..Default::default() };
        for spec in [DecompSpec { nx: 2, ny: 1, nz: 1 }, DecompSpec { nx: 1, ny: 1, nz: 2 }] {
            let d = Decomposition::build(&g, &axial, &lib, params(), spec);
            let sync = solve_cluster(&d, &Backend::CpuSerial, &opts);
            let pipe = solve_cluster_with(
                &d,
                &Backend::CpuSerial,
                &opts,
                &ClusterOptions { exchange: ExchangeMode::Pipelined, ..Default::default() },
            );
            assert_eq!(
                sync.keff.to_bits(),
                pipe.keff.to_bits(),
                "k diverged: sync {} vs pipelined {}",
                sync.keff,
                pipe.keff
            );
            assert_eq!(sync.iterations, pipe.iterations);
            for (rank, (a, b)) in sync.phi.iter().zip(&pipe.phi).enumerate() {
                assert_eq!(a, b, "rank {rank} flux diverged");
            }
            // Re-sweeping the boundary tracks must not change the wire
            // volume: the same payloads ship exactly once per iteration.
            for (rank, (a, b)) in sync.traffic.iter().zip(&pipe.traffic).enumerate() {
                assert_eq!(a.sent_bytes, b.sent_bytes, "rank {rank} traffic diverged");
            }
        }
    }

    #[test]
    fn cluster_traffic_matches_plan_volume() {
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 1, nz: 1 });
        let opts = EigenOptions { tolerance: 1e-30, max_iterations: 5, ..Default::default() };
        let r = solve_cluster(&d, &Backend::Cpu, &opts);
        // Each iteration ships every planned send once: 4 bytes per group
        // per item (plus the collectives' scalar traffic).
        let g7 = 7u64;
        for (rank, ex) in d.exchanges.iter().enumerate() {
            let flux_bytes = ex.sends.len() as u64 * g7 * 4 * r.iterations as u64;
            let sent = r.traffic[rank].sent_bytes;
            assert!(sent >= flux_bytes, "rank {rank} sent {sent} < planned flux {flux_bytes}");
            // Collectives add only small scalar messages.
            assert!(
                sent < flux_bytes + 16 * 64 * r.iterations as u64 + 4096,
                "rank {rank} sent {sent} far above planned {flux_bytes}"
            );
        }
    }

    #[test]
    fn device_backend_runs_decomposed() {
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 1, nz: 1 });
        let opts = EigenOptions { tolerance: 1e-4, max_iterations: 2500, ..Default::default() };
        let backend = Backend::Device {
            spec: DeviceSpec::scaled(64 << 20),
            mode: StorageMode::Manager { budget_bytes: 8 << 20 },
            mapping: CuMapping::SegmentSorted,
        };
        let r = solve_cluster(&d, &backend, &opts);
        assert!(r.converged);
        assert!(r.keff > 0.1 && r.keff < 1.5, "k {}", r.keff);
        assert!(r.sweep_seconds.iter().all(|&s| s > 0.0));
    }
}
