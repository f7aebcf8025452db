//! The domain-decomposed solver: one rank per subdomain on the simulated
//! cluster, Jacobi-style boundary-flux exchange each outer iteration
//! (§3.1 step 4 of the paper), global reductions for `k_eff` and
//! residuals.
//!
//! Two exchange modes ship the boundary fluxes
//! ([`ExchangeMode`], the `[decomposition] exchange` config knob):
//!
//! * **Sync** — the original strictly phased order: sweep, reduce,
//!   normalise, gather the scaled boundary exits, ship, swap, blocking
//!   receive. Every receive eats the full wire time of its payload.
//! * **Pipelined** — boundary exits ship *unnormalised* as soon as they
//!   are final (mid-sweep on the serial backend via a boundary-track
//!   prepass; right after the sweep elsewhere), so transfers are in
//!   flight while interior tracks sweep and the `k_eff`/residual
//!   collectives run. Receives poll first ([`Comm::try_recv`]) and only
//!   block on payloads still in flight; the receiver folds the deferred
//!   normalisation into its delivery weights (`(x as f64 * inv) as f32 *
//!   w` — the same op sequence the sync path applies, just split across
//!   the wire), which keeps the two modes bitwise identical on the
//!   serial backend.

use std::sync::Arc;
use std::time::Instant;

use antmoc_cluster::{Cluster, Comm, LinkModel, Traffic};
use antmoc_gpusim::{Device, DeviceSpec};
use antmoc_telemetry::{Json, Telemetry};

use crate::decomp::Decomposition;
use crate::device::{CuMapping, DeviceSolver};
use crate::eigen::CpuSweeper;
use crate::eigen::{EigenOptions, Sweeper};
use crate::problem::Problem;
use crate::schedule::{ScheduleKind, SweepSchedule};
use crate::source::{compute_reduced_source, fission_production, update_scalar_flux};
use crate::sweep::{
    sweep_serial, sweep_track_serial, FluxBanks, SegmentSource, StorageMode, SweepOutcome,
    TrackBufs,
};
use crate::tally::{KernelConfig, SweepArena};

/// Per-rank execution backend.
#[derive(Debug, Clone)]
pub enum Backend {
    /// Plain CPU sweeps (each rank sweeps on the shared rayon pool).
    Cpu,
    /// Serial CPU sweeps: one core per rank. The honest configuration for
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

const TAG_FLUX: u32 = 100;

/// A traversal slot `(track, dir)` paired with its delivery weight.
type WeightedSlot = ((u32, u8), f32);

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
    /// Dispatch order for the `Cpu` backend's sweeps
    /// ([`ScheduleKind::BoundaryFirst`] resolves against the rank's
    /// exchange plan). The serial backend always sweeps in natural order
    /// — that fixed order is what makes sync and pipelined bitwise
    /// comparable — and the device backend orders via its CU mapping.
    pub schedule: ScheduleKind,
    /// Worker threads per rank for the `Cpu` backend (`None` shares the
    /// global pool).
    pub workers: Option<usize>,
    /// Sweep-kernel configuration for the `Cpu` and `Device` backends (the
    /// serial backend always runs the default configuration).
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

    let outcome = Cluster::run_linked(n, copts.link, |mut comm: Comm| {
        let rank = comm.rank();
        let problem = &decomp.problems[rank];
        let plan = &decomp.exchanges[rank];
        run_rank(problem, plan, decomp, &mut comm, backend, opts, copts)
    });

    let mut phi = Vec::with_capacity(n);
    let mut sweep_seconds = Vec::with_capacity(n);
    let mut keff = 0.0;
    let mut iterations = 0;
    let mut converged = false;
    let mut residuals = Vec::new();
    for r in outcome.results {
        keff = r.keff;
        iterations = r.iterations;
        converged = r.converged;
        residuals = r.residuals;
        phi.push(r.phi);
        sweep_seconds.push(r.sweep_seconds);
    }
    ClusterResult {
        keff,
        iterations,
        converged,
        phi,
        traffic: outcome.traffic,
        sweep_seconds,
        residuals,
    }
}

/// A single-threaded sweeper: the whole sweep runs on the calling rank's
/// thread (used for honest measured-scaling studies). A one-field literal
/// with nowhere to keep buffers, so every sweep allocates its scratch and
/// accumulator afresh; iteration loops use [`BufferedSerialSweeper`].
pub struct SerialSweeper<'a> {
    pub segsrc: &'a SegmentSource,
}

impl Sweeper for SerialSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        BufferedSerialSweeper::new(self.segsrc).sweep(problem, q, banks)
    }
}

/// [`SerialSweeper`] for a whole solve: it owns the per-track scratch
/// and takes the flux accumulator back through [`Sweeper::recycle`] (as
/// [`CpuSweeper`] does through its arena), so nothing is re-grown between
/// sweeps. Same sweep, same bits.
pub struct BufferedSerialSweeper<'a> {
    segsrc: &'a SegmentSource,
    bufs: TrackBufs,
    phi: Vec<f64>,
}

impl<'a> BufferedSerialSweeper<'a> {
    pub fn new(segsrc: &'a SegmentSource) -> Self {
        Self { segsrc, bufs: TrackBufs::default(), phi: Vec::new() }
    }
}

impl Sweeper for BufferedSerialSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        let phi = std::mem::take(&mut self.phi);
        sweep_serial(problem, self.segsrc, q, banks, &mut self.bufs, phi)
    }

    fn recycle(&mut self, outcome: SweepOutcome) {
        self.phi = outcome.phi_acc;
    }
}

struct RankResult {
    keff: f64,
    iterations: usize,
    converged: bool,
    phi: Vec<f64>,
    sweep_seconds: f64,
    residuals: Vec<f64>,
}

/// Gathers the captured boundary exits for one neighbour's send group
/// into a wire payload, in plan order.
pub(crate) fn gather_boundary(banks: &FluxBanks, items: &[(u32, u8)], g: usize) -> Vec<f32> {
    let mut payload = Vec::with_capacity(items.len() * g);
    let mut buf = vec![0.0f32; g];
    for &(t, dir) in items {
        banks.get_boundary(t, dir as usize, &mut buf);
        payload.extend_from_slice(&buf);
    }
    payload
}

/// The serial backend's pipelined sweep. Identical arithmetic — and
/// bitwise-identical tallies, leakage and banks — to [`SerialSweeper`]:
/// the full natural-order pass at the end IS that sweep. Before it, a
/// prepass sweeps just the boundary-touching tracks and ships each
/// neighbour's payload the moment its last contributing track completes,
/// so the transfers ride under the whole interior sweep. The prepass is
/// safe to discard: boundary/outgoing bank writes are idempotent stores
/// recomputed identically by the main pass (they read only the incoming
/// bank, which no sweep mutates), and its flux tallies go to a discard
/// sink. Re-sweeping the boundary tracks is the price of the overlap
/// window — a few percent of serial work for a wire-time-sized saving.
/// The prepass runs on `sweeper`'s own scratch, so nothing on a per-track
/// or per-sweep path allocates.
#[allow(clippy::too_many_arguments)]
fn sweep_serial_pipelined(
    problem: &Problem,
    sweeper: &mut BufferedSerialSweeper<'_>,
    q: &[f64],
    banks: &FluxBanks,
    sends_per_rank: &[(usize, Vec<(u32, u8)>)],
    boundary_tracks: &[u32],
    ready_point: &[u32],
    comm: &mut Comm,
) -> SweepOutcome {
    let tel = Telemetry::current();
    let g = problem.num_groups();
    let mut shipped = vec![false; sends_per_rank.len()];
    for &t in boundary_tracks {
        let _ =
            sweep_track_serial(problem, sweeper.segsrc, q, banks, t, &mut sweeper.bufs, |_, _| {});
        for (gi, (nb, items)) in sends_per_rank.iter().enumerate() {
            if !shipped[gi] && ready_point[gi] <= t {
                shipped[gi] = true;
                let t_send = Instant::now();
                let payload = gather_boundary(banks, items, g);
                comm.send_vec(*nb, TAG_FLUX, payload);
                if tel.trace_enabled() {
                    tel.trace_complete_since(
                        "comm.exchange_send",
                        t_send,
                        &[("to", Json::Uint(*nb as u64))],
                    );
                }
            }
        }
    }
    sweeper.sweep(problem, q, banks)
}

#[allow(clippy::too_many_arguments)]
fn run_rank(
    problem: &Problem,
    plan: &crate::decomp::RankExchange,
    decomp: &Decomposition,
    comm: &mut Comm,
    backend: &Backend,
    opts: &EigenOptions,
    copts: &ClusterOptions,
) -> RankResult {
    let g = problem.num_groups();
    let n = problem.num_fsrs() * g;
    let mut phi = vec![1.0f64; n];
    let mut q = vec![0.0f64; n];
    let mut banks = FluxBanks::new(problem.num_tracks(), g);
    let mut k = opts.k_guess;

    // Which open entries are fed by the exchange (everything else is true
    // vacuum and stays zero after each swap).
    let mut receives_per_rank: Vec<(usize, Vec<WeightedSlot>)> = Vec::new();
    {
        // Gather the list of traversals each neighbour will send us (with
        // the conservation weights), in the neighbour's deterministic
        // send order.
        for (from_rank, ex) in decomp.exchanges.iter().enumerate() {
            let mine: Vec<WeightedSlot> = ex
                .sends
                .iter()
                .filter(|s| s.neighbor_rank as usize == comm.rank())
                .map(|s| (s.neighbor_traversal, s.weight))
                .collect();
            if !mine.is_empty() {
                receives_per_rank.push((from_rank, mine));
            }
        }
    }
    // Sends grouped by neighbour, preserving plan order.
    let mut sends_per_rank: Vec<(usize, Vec<(u32, u8)>)> = Vec::new();
    for s in &plan.sends {
        let nb = s.neighbor_rank as usize;
        match sends_per_rank.last_mut() {
            Some((r, v)) if *r == nb => v.push(s.local_traversal),
            _ => sends_per_rank.push((nb, vec![s.local_traversal])),
        }
    }
    let pipelined = copts.exchange == ExchangeMode::Pipelined;
    // Boundary-touching tracks (union of all send groups), ascending, and
    // each group's "ready point" — its highest track index. A
    // track-ordered sweep that has passed the ready point has finalised
    // every exit in the group, so the payload can ship.
    let boundary_tracks: Vec<u32> = {
        let mut v: Vec<u32> = plan.sends.iter().map(|s| s.local_traversal.0).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let ready_point: Vec<u32> = sends_per_rank
        .iter()
        .map(|(_, items)| items.iter().map(|&(t, _)| t).max().unwrap_or(0))
        .collect();

    // Backend sweeper.
    let workers = copts.workers.unwrap_or_else(rayon::current_num_threads);
    let pool = copts.workers.map(|w| {
        rayon::ThreadPoolBuilder::new().num_threads(w).build().expect("cluster worker pool")
    });
    let segsrc_otf = SegmentSource::otf();
    let mut cpu_sweeper;
    let mut serial_sweeper;
    let mut device_solver;
    let serial_pipelined = pipelined && matches!(backend, Backend::CpuSerial);
    // The serial pipelined sweep drives the kernel itself instead of going
    // through `sweeper`, on a serial sweeper of its own.
    let mut pipelined_sweeper = BufferedSerialSweeper::new(&segsrc_otf);
    let sweeper: &mut dyn Sweeper = match backend {
        Backend::Cpu => {
            let schedule = match copts.schedule {
                ScheduleKind::BoundaryFirst => {
                    SweepSchedule::boundary_first(problem, &boundary_tracks, workers)
                }
                kind => SweepSchedule::with_workers(kind, problem, workers),
            };
            cpu_sweeper = CpuSweeper::with_kernel(&segsrc_otf, schedule, copts.kernel.clone());
            &mut cpu_sweeper
        }
        Backend::CpuSerial => {
            serial_sweeper = BufferedSerialSweeper::new(&segsrc_otf);
            &mut serial_sweeper
        }
        Backend::Device { spec, mode, mapping } => {
            let device = Arc::new(Device::new(spec.clone()));
            device_solver = DeviceSolver::new(device, problem, *mode, *mapping)
                .expect("device solver setup failed (OOM?)")
                .with_arena(SweepArena::new(copts.kernel.clone()));
            &mut device_solver
        }
    };

    // Normalise the initial guess globally.
    let (_, f_local) = fission_production(problem, &phi);
    let f_global = comm.allreduce_sum(f_local);
    if f_global > 0.0 {
        for p in phi.iter_mut() {
            *p /= f_global;
        }
    }
    let (mut old_density, _) = fission_production(problem, &phi);

    let tel = Telemetry::current();
    let mut sweep_seconds = 0.0f64;
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    let mut scratch32: Vec<f32> = Vec::new();
    let (mut recv_ready, mut recv_blocked) = (0u64, 0u64);

    for it in 1..=opts.max_iterations {
        iterations = it;
        compute_reduced_source(problem, &phi, k, &mut q);
        let t0 = Instant::now();
        let out = if serial_pipelined {
            sweep_serial_pipelined(
                problem,
                &mut pipelined_sweeper,
                &q,
                &banks,
                &sends_per_rank,
                &boundary_tracks,
                &ready_point,
                comm,
            )
        } else {
            let mut do_sweep = || sweeper.sweep(problem, &q, &banks);
            match &pool {
                Some(p) => p.install(&mut do_sweep),
                None => do_sweep(),
            }
        };
        sweep_seconds += t0.elapsed().as_secs_f64();
        // On the parallel backends the pipelined sends go out right after
        // the sweep (still ahead of the collectives, so the transfers ride
        // under the global reductions and the slowest rank's sweep).
        if pipelined && !serial_pipelined {
            for (nb, items) in &sends_per_rank {
                let t_send = Instant::now();
                let payload = gather_boundary(&banks, items, g);
                comm.send_vec(*nb, TAG_FLUX, payload);
                if tel.trace_enabled() {
                    tel.trace_complete_since(
                        "comm.exchange_send",
                        t_send,
                        &[("to", Json::Uint(*nb as u64))],
                    );
                }
            }
        }
        if tel.trace_enabled() {
            tel.trace_complete_since(
                "cluster.sweep",
                t0,
                &[("rank", Json::Uint(comm.rank() as u64)), ("it", Json::Uint(it as u64))],
            );
        }
        update_scalar_flux(problem, &q, &out.phi_acc, &mut phi);
        if serial_pipelined {
            pipelined_sweeper.recycle(out);
        } else {
            sweeper.recycle(out);
        }

        // Global production and k update.
        let (density, f_local) = fission_production(problem, &phi);
        let f_global = comm.allreduce_sum(f_local);
        k *= f_global;

        // Global residual: RMS over all FSRs with production.
        let (mut ss, mut cnt) = (0.0f64, 0.0f64);
        for (&o, &v) in old_density.iter().zip(&density) {
            if v.abs() > 1e-14 {
                let r = (v - o) / v;
                ss += r * r;
                cnt += 1.0;
            }
        }
        let ss_g = comm.allreduce_sum(ss);
        let cnt_g = comm.allreduce_sum(cnt);
        let res = if cnt_g > 0.0 { (ss_g / cnt_g).sqrt() } else { 0.0 };
        residuals.push(res);

        // Normalise globally.
        let inv = if f_global > 0.0 { 1.0 / f_global } else { 1.0 };
        for p in phi.iter_mut() {
            *p *= inv;
        }
        banks.scale(inv);
        old_density = density.iter().map(|d| d * inv).collect();

        if pipelined {
            // The payloads went out raw before the collectives; apply the
            // deferred normalisation at delivery. `(x as f64 * inv) as
            // f32` is exactly the per-slot op `banks.scale(inv)` performs
            // on the sync path before gathering, so the incoming slots
            // land bit-for-bit identical — the normalisation just crossed
            // the wire on the other side of the multiply.
            banks.swap();
            let t_recv = Instant::now();
            for (from, items) in &receives_per_rank {
                let payload: Vec<f32> = match comm.try_recv::<Vec<f32>>(*from, TAG_FLUX) {
                    Some(p) => {
                        recv_ready += 1;
                        p
                    }
                    None => {
                        recv_blocked += 1;
                        comm.recv_vec(*from, TAG_FLUX)
                    }
                };
                assert_eq!(payload.len(), items.len() * g);
                for (i, &((t, dir), weight)) in items.iter().enumerate() {
                    scratch32.clear();
                    scratch32.extend(
                        payload[i * g..(i + 1) * g]
                            .iter()
                            .map(|&x| ((x as f64 * inv) as f32) * weight),
                    );
                    banks.set_incoming(t, dir as usize, &scratch32);
                }
            }
            if tel.trace_enabled() && !receives_per_rank.is_empty() {
                tel.trace_complete_since(
                    "comm.exchange_recv",
                    t_recv,
                    &[("rank", Json::Uint(comm.rank() as u64)), ("it", Json::Uint(it as u64))],
                );
            }
        } else {
            // Exchange boundary fluxes: gather sends from the outgoing
            // bank (which holds the captured boundary exits), ship, swap,
            // zero vacuum entries, scatter receives.
            for (nb, items) in &sends_per_rank {
                let t_send = Instant::now();
                let payload = gather_boundary(&banks, items, g);
                comm.send_vec(*nb, TAG_FLUX, payload);
                if tel.trace_enabled() {
                    tel.trace_complete_since(
                        "comm.exchange_send",
                        t_send,
                        &[("to", Json::Uint(*nb as u64))],
                    );
                }
            }
            banks.swap();
            let t_recv = Instant::now();
            for (from, items) in &receives_per_rank {
                let payload: Vec<f32> = comm.recv_vec(*from, TAG_FLUX);
                assert_eq!(payload.len(), items.len() * g);
                for (i, &((t, dir), weight)) in items.iter().enumerate() {
                    scratch32.clear();
                    scratch32.extend(payload[i * g..(i + 1) * g].iter().map(|&x| x * weight));
                    banks.set_incoming(t, dir as usize, &scratch32);
                }
            }
            if tel.trace_enabled() && !receives_per_rank.is_empty() {
                tel.trace_complete_since(
                    "comm.exchange_recv",
                    t_recv,
                    &[("rank", Json::Uint(comm.rank() as u64)), ("it", Json::Uint(it as u64))],
                );
            }
        }

        if it >= 3 && res < opts.tolerance {
            converged = true;
            break;
        }
    }

    if pipelined {
        // How much of the exchange the overlap actually hid: the fraction
        // of receives whose payload had already landed when polled.
        let total = recv_ready + recv_blocked;
        if total > 0 {
            tel.gauge_set("comm.overlap_ratio", recv_ready as f64 / total as f64);
        }
        tel.counter_add("comm.recv_ready", recv_ready);
        tel.counter_add("comm.recv_blocked", recv_blocked);
    }

    RankResult { keff: k, iterations, converged, phi, sweep_seconds, residuals }
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
        TrackParams {
            num_azim: 4,
            radial_spacing: 0.4,
            num_polar: 2,
            axial_spacing: 0.2,
            ..Default::default()
        }
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
        // Identical algorithm, different execution order: results agree
        // to the f32-bank / atomic-order noise floor.
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
