//! The five-stage execution flow of the paper's Fig. 2: read
//! configuration → geometry construction → track generation & ray tracing
//! → transport solving → output generation.

use std::sync::Arc;
use std::time::Instant;

use antmoc_geom::c5g7::{C5g7, PinAddress};
use antmoc_geom::{AxialModel, FsrId, Geometry};
use antmoc_gpusim::{Device, DeviceSpec};
use antmoc_input::{CaseKind, LoweredModel};
use antmoc_solver::cluster::{
    solve_cluster_with, Backend, BufferedSerialSweeper, ClusterOptions, ExchangeMode,
};
use antmoc_solver::decomp::{DecompSpec, Decomposition};
use antmoc_solver::device::DeviceSolver;
use antmoc_solver::fixed::{solve_fixed_source, FixedSourceOptions};
use antmoc_solver::{
    fission_rates, solve_cluster_recovering, solve_eigenvalue, CpuSweeper, ExpMode, Problem,
    RecoveryOptions, ScheduleKind, SegmentSource, StorageMode, SweepArena, SweepSchedule,
};
use antmoc_xs::MaterialLibrary;

use crate::config::{BackendConfig, ModelSpec, RunConfig};
use crate::output::PinRates;

/// The geometry model a run solves: the hardcoded C5G7 builder or a
/// lowered declarative case. Both expose the same pieces the tracker,
/// solver, and tally stages consume.
pub enum BuiltModel {
    C5g7(C5g7),
    Lattice(LoweredModel),
}

impl BuiltModel {
    pub fn geometry(&self) -> &Geometry {
        match self {
            BuiltModel::C5g7(m) => &m.geometry,
            BuiltModel::Lattice(m) => &m.geometry,
        }
    }

    pub fn axial(&self) -> &AxialModel {
        match self {
            BuiltModel::C5g7(m) => &m.axial,
            BuiltModel::Lattice(m) => &m.axial,
        }
    }

    pub fn library(&self) -> &MaterialLibrary {
        match self {
            BuiltModel::C5g7(m) => &m.library,
            BuiltModel::Lattice(m) => &m.library,
        }
    }

    pub fn pin_of_fsr(&self, radial: FsrId) -> Option<PinAddress> {
        match self {
            BuiltModel::C5g7(m) => m.pin_of_fsr(radial),
            BuiltModel::Lattice(m) => m.pin_of_fsr(radial),
        }
    }
}

/// The immutable products of the setup stages (geometry construction,
/// track laydown + segmentation, exp-table build): everything a solve
/// consumes read-only. One `SolveSetup` can be shared — e.g. behind an
/// `Arc` in `antmoc-serve`'s artifact cache — by any number of solves of
/// configurations that agree on the cache-key-relevant fields (model,
/// track quadrature, storage mode, exp config); all mutable solver state
/// lives per job in the [`antmoc_solver::SweepArena`] and the eigen
/// loop's own vectors.
pub struct SolveSetup {
    pub model: BuiltModel,
    pub problem: Problem,
    /// Segment access per the configured storage mode (the serial
    /// backend ignores it and always traces on the fly).
    pub segsrc: SegmentSource,
    /// Pre-built exp table for `exp = table` CPU runs; solvers preload it
    /// into their arena instead of rebuilding per job.
    pub exp_table: Option<antmoc_solver::ExpTable>,
    /// Wall-clock seconds the geometry stage took when this setup was
    /// built (reported verbatim by solves reusing the setup).
    pub geometry_s: f64,
    /// Wall-clock seconds of track generation + ray tracing at build time.
    pub tracking_s: f64,
}

/// Wall-clock seconds per pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageTimings {
    pub geometry: f64,
    pub tracking: f64,
    pub transport: f64,
    pub output: f64,
}

/// The result of a full run.
#[derive(Debug)]
pub struct RunReport {
    /// Eigenvalue for eigenvalue runs; 0 for fixed-source runs, where no
    /// eigenvalue is computed.
    pub keff: f64,
    pub iterations: usize,
    pub converged: bool,
    /// Normalised assembly pin-wise fission rates (mean 1 over fuel pins).
    pub pin_rates: PinRates,
    /// Volume-weighted mean scalar flux per material and group, in
    /// library order (single-domain runs; empty for decomposed runs).
    pub material_flux: Vec<(String, Vec<f64>)>,
    pub timings: StageTimings,
    /// Counters for the run log.
    pub num_2d_tracks: usize,
    pub num_3d_tracks: usize,
    pub num_3d_segments: u64,
    pub num_fsrs: usize,
    /// Total bytes shipped between ranks (decomposed runs).
    pub comm_bytes: u64,
}

/// Stamps run identification (case, backend, mode, schedule, kernel,
/// decomposition, exchange) and the tracing switch onto the calling
/// thread's [`Telemetry::current`] sink. [`run`] calls this first;
/// multi-tenant drivers that compose [`build_setup`] +
/// [`run_with_setup`] directly under a scoped sink (see `antmoc-serve`)
/// call it themselves so a job's report carries exactly the meta a
/// one-shot run would.
pub fn record_run_meta(config: &RunConfig) {
    let tel = antmoc_telemetry::Telemetry::current();
    // Event-timeline tracing: the config switch or ANTMOC_TRACE=1 turns
    // it on; ANTMOC_TRACE=0 forces it off regardless of the config.
    let trace_on = match std::env::var("ANTMOC_TRACE") {
        Ok(v) if v == "0" => false,
        Ok(v) if !v.is_empty() => true,
        _ => config.telemetry.trace,
    };
    tel.set_tracing(trace_on, config.telemetry.trace_cap);
    let (nx, ny, nz) = config.decomposition;
    tel.set_meta("case", &config.case_name);
    tel.set_meta(
        "backend",
        match &config.backend {
            BackendConfig::Cpu => "cpu",
            BackendConfig::CpuSerial => "cpu-serial",
            BackendConfig::Device { .. } => "device",
        },
    );
    tel.set_meta(
        "mode",
        match config.mode {
            StorageMode::Otf => "otf",
            StorageMode::Explicit => "explicit",
            StorageMode::Manager { .. } => "manager",
        },
    );
    tel.set_meta(
        "schedule",
        match config.schedule {
            ScheduleKind::Natural => "natural",
            ScheduleKind::L3Sorted => "l3_sorted",
            ScheduleKind::BoundaryFirst => "boundary_first",
        },
    );
    tel.set_meta("tallies", config.kernel.tallies.name());
    tel.set_meta("exp", config.kernel.exp.name());
    tel.set_meta("kernel", config.kernel.kernel.name());
    tel.set_meta_num("decomposition_domains", (nx * ny * nz) as f64);
    tel.set_meta(
        "exchange",
        match config.exchange {
            ExchangeMode::Sync => "sync",
            ExchangeMode::Pipelined => "pipelined",
        },
    );
}

/// Runs the full pipeline for a configuration.
pub fn run(config: &RunConfig) -> RunReport {
    record_run_meta(config);
    let tel = antmoc_telemetry::Telemetry::current();
    let (nx, ny, nz) = config.decomposition;

    if nx * ny * nz == 1 {
        let setup = build_setup(config);
        run_with_setup(config, &setup)
    } else {
        // Stage 2: geometry construction (decomposed runs keep the
        // inline path; the setup/solve split is a single-domain concern).
        let t0 = Instant::now();
        let model = {
            let _s = tel.span("geometry");
            match &config.model {
                ModelSpec::C5g7(opts) => C5g7::build(opts.clone()),
                ModelSpec::Lattice(_) => {
                    unreachable!("RunConfig::from_case rejects decomposed declarative cases")
                }
            }
        };
        let geometry_s = t0.elapsed().as_secs_f64();
        run_decomposed(config, model, geometry_s)
    }
}

/// Runs the setup stages (2-3) for a single-domain configuration and
/// returns their immutable products: geometry construction, track
/// generation + ray tracing, the segment store per the storage mode, and
/// the exp table for `exp = table` CPU runs.
///
/// This is the expensive, reusable half of [`run`]: everything here
/// depends only on the cache-key-relevant configuration fields (model,
/// tracks, storage mode, exp config), never on solver state, so
/// `antmoc-serve` memoizes the result by content hash and shares it
/// across concurrent jobs.
///
/// Panics if the configuration is decomposed — setup sharing is a
/// single-domain concern (decomposed runs go through [`run`]).
pub fn build_setup(config: &RunConfig) -> SolveSetup {
    assert_eq!(config.decomposition, (1, 1, 1), "build_setup is single-domain only");
    let tel = antmoc_telemetry::Telemetry::current();

    // Stage 2: geometry construction.
    let t0 = Instant::now();
    let model = {
        let _s = tel.span("geometry");
        match &config.model {
            ModelSpec::C5g7(opts) => BuiltModel::C5g7(C5g7::build(opts.clone())),
            ModelSpec::Lattice(spec) => BuiltModel::Lattice(
                antmoc_input::lower(spec).expect("case validated by RunConfig::from_case"),
            ),
        }
    };
    let geometry_s = t0.elapsed().as_secs_f64();

    // Stage 3: track generation and ray tracing, plus the other
    // immutable solve inputs (segment store, exp table).
    let t = Instant::now();
    let _s = tel.span("tracking");
    let problem = Problem::build(
        model.geometry().clone(),
        model.axial().clone(),
        model.library(),
        config.tracks.clone(),
    );
    let segsrc = match &config.backend {
        BackendConfig::Cpu => segment_source(config, &problem),
        // The serial backend always traces on the fly (storage modes are
        // a parallel/device concern) and the device solver builds its own
        // resident store from the problem.
        BackendConfig::CpuSerial | BackendConfig::Device { .. } => SegmentSource::otf(),
    };
    let exp_table = (config.kernel.exp == ExpMode::Table
        && matches!(config.backend, BackendConfig::Cpu))
    .then(|| {
        antmoc_solver::ExpTable::with_tolerance(
            antmoc_solver::exptable::DEFAULT_TAU_MAX,
            config.kernel.exp_tolerance,
        )
    });
    let tracking_s = t.elapsed().as_secs_f64();

    SolveSetup { model, problem, segsrc, exp_table, geometry_s, tracking_s }
}

/// Runs the solve stages (4-5) against a prepared [`SolveSetup`] with a
/// fresh arena. `run` composes [`build_setup`] and this; `antmoc-serve`
/// calls them separately so warm jobs skip straight here.
pub fn run_with_setup(config: &RunConfig, setup: &SolveSetup) -> RunReport {
    let (report, _arena) =
        run_with_setup_arena(config, setup, SweepArena::new(config.kernel.clone()));
    report
}

/// [`run_with_setup`] with an explicit (possibly pooled) [`SweepArena`].
/// The arena is reconfigured to this run's kernel settings and handed
/// back after the solve so callers can recycle its allocations across
/// jobs; the serial backend, which sweeps over plain per-sweep buffers,
/// returns it untouched.
pub fn run_with_setup_arena(
    config: &RunConfig,
    setup: &SolveSetup,
    arena: SweepArena,
) -> (RunReport, SweepArena) {
    let tel = antmoc_telemetry::Telemetry::current();
    let problem = &setup.problem;
    let model = &setup.model;

    let fixed_source =
        matches!(&config.model, ModelSpec::Lattice(s) if s.kind == CaseKind::FixedSource);

    // Assemble a CPU sweeper over the shared setup and the per-job arena.
    let make_sweeper = |arena: SweepArena| {
        let schedule = SweepSchedule::for_problem(config.schedule, problem);
        let mut sweeper =
            CpuSweeper::with_arena(&setup.segsrc, schedule, config.kernel.clone(), arena);
        if let Some(table) = &setup.exp_table {
            sweeper.arena_mut().preload_exp_table(table.clone());
        }
        sweeper
    };

    // Stage 4: transport solving.
    let t = Instant::now();
    let transport_span = tel.span("transport");
    let (keff, iterations, converged, phi, arena) = if fixed_source {
        let BuiltModel::Lattice(lowered) = model else {
            unreachable!("fixed-source runs come from declarative cases")
        };
        let external = external_source(problem, lowered);
        let opts = FixedSourceOptions {
            tolerance: config.eigen.tolerance,
            max_iterations: config.eigen.max_iterations,
            with_fission: config.fixed_fission,
        };
        // Fixed-source cases run single-domain on CPU backends (enforced
        // by `RunConfig::from_case`); the serial backend traces on the
        // fly, the parallel one honours the storage mode like the
        // eigenvalue path.
        let (result, arena) = match &config.backend {
            BackendConfig::Cpu => {
                let mut sweeper = make_sweeper(arena);
                let r = solve_fixed_source(problem, &mut sweeper, &external, &opts);
                (r, sweeper.into_arena())
            }
            BackendConfig::CpuSerial => {
                let segsrc = SegmentSource::otf();
                let mut sweeper = BufferedSerialSweeper::new(&segsrc);
                (solve_fixed_source(problem, &mut sweeper, &external, &opts), arena)
            }
            BackendConfig::Device { .. } => {
                unreachable!("RunConfig::from_case rejects fixed-source device runs")
            }
        };
        (0.0, result.iterations, result.converged, result.phi, arena)
    } else {
        let (result, arena) = match &config.backend {
            BackendConfig::Cpu => {
                let mut sweeper = make_sweeper(arena);
                let r = solve_eigenvalue(problem, &mut sweeper, &config.eigen);
                (r, sweeper.into_arena())
            }
            BackendConfig::CpuSerial => {
                // The serial backend always traces on the fly; storage
                // modes are a parallel/device concern.
                let segsrc = SegmentSource::otf();
                let mut sweeper = BufferedSerialSweeper::new(&segsrc);
                (solve_eigenvalue(problem, &mut sweeper, &config.eigen), arena)
            }
            BackendConfig::Device { memory_bytes, cu_mapping } => {
                let device = Arc::new(Device::new(DeviceSpec::scaled(*memory_bytes)));
                let mut arena = arena;
                arena.reconfigure(config.kernel.clone());
                let mut solver = DeviceSolver::new(device, problem, config.mode, *cu_mapping)
                    .expect("device memory too small for the selected mode")
                    .with_arena(arena);
                let r = solve_eigenvalue(problem, &mut solver, &config.eigen);
                (r, solver.into_arena())
            }
        };
        (result.keff, result.iterations, result.converged, result.phi, arena)
    };
    drop(transport_span);
    let transport_s = t.elapsed().as_secs_f64();

    if config.balance_sweeps > 0 && !fixed_source {
        // Independent eigenvalue check; lands in the artifact's `balance`
        // section (OTF segments keep the check backend-agnostic).
        let balance = antmoc_solver::diagnostics::neutron_balance(
            problem,
            &SegmentSource::otf(),
            &phi,
            keff,
            config.balance_sweeps,
        );
        balance.attach_to_telemetry();
    }

    // Stage 5: output generation.
    let t = Instant::now();
    let output_span = tel.span("output");
    let rates = fission_rates(problem, &phi);
    let pin_rates = PinRates::aggregate_with(
        |radial| model.pin_of_fsr(radial),
        std::iter::once((problem, rates.as_slice())),
    );
    let material_flux = material_flux(problem, model.library(), &phi);
    drop(output_span);
    let output_s = t.elapsed().as_secs_f64();

    let report = RunReport {
        keff,
        iterations,
        converged,
        pin_rates,
        material_flux,
        timings: StageTimings {
            geometry: setup.geometry_s,
            tracking: setup.tracking_s,
            transport: transport_s,
            output: output_s,
        },
        num_2d_tracks: problem.layout.num_2d_tracks(),
        num_3d_tracks: problem.num_tracks(),
        num_3d_segments: problem.num_3d_segments(),
        num_fsrs: problem.num_fsrs(),
        comm_bytes: 0,
    };
    (report, arena)
}

/// Builds the segment source for the parallel CPU backend per the
/// configured storage mode.
fn segment_source(config: &RunConfig, problem: &Problem) -> SegmentSource {
    match config.mode {
        StorageMode::Otf => SegmentSource::otf(),
        StorageMode::Explicit => {
            let all: Vec<_> = problem.layout.tracks3d.ids().collect();
            SegmentSource::stored(problem, &all)
        }
        StorageMode::Manager { budget_bytes } => {
            let plan = antmoc_solver::manager::select_resident(
                problem,
                budget_bytes,
                antmoc_solver::manager::RankPolicy::BySegments,
            );
            SegmentSource::stored(problem, &plan.resident)
        }
    }
}

/// Expands a case's `[[source]]` entries into the `(fsr, group)` external
/// source density the fixed-source solver consumes: every FSR filled with
/// a source material emits `strength` into each listed group.
fn external_source(problem: &Problem, lowered: &LoweredModel) -> Vec<f64> {
    let g = problem.num_groups();
    let mut external = vec![0.0; problem.num_fsrs() * g];
    for src in &lowered.sources {
        for (f, &mat) in problem.xs.fsr_mat.iter().enumerate() {
            if mat == src.material.0 {
                for &gi in &src.groups {
                    external[f * g + gi] += src.strength;
                }
            }
        }
    }
    external
}

/// Volume-weighted mean scalar flux per material and group, in library
/// order. FSRs are summed in enumeration order so the result is bitwise
/// reproducible; materials never reached by an FSR report zero flux.
fn material_flux(
    problem: &Problem,
    library: &MaterialLibrary,
    phi: &[f64],
) -> Vec<(String, Vec<f64>)> {
    let g = problem.num_groups();
    let nmat = library.len();
    let mut vol = vec![0.0f64; nmat];
    let mut acc = vec![0.0f64; nmat * g];
    for f in 0..problem.num_fsrs() {
        let v = problem.volumes[f];
        if v <= 0.0 {
            continue;
        }
        let m = problem.xs.fsr_mat[f] as usize;
        vol[m] += v;
        for gi in 0..g {
            acc[m * g + gi] += phi[f * g + gi] * v;
        }
    }
    library
        .iter()
        .map(|(id, mat)| {
            let m = id.0 as usize;
            let flux: Vec<f64> = if vol[m] > 0.0 {
                (0..g).map(|gi| acc[m * g + gi] / vol[m]).collect()
            } else {
                vec![0.0; g]
            };
            (mat.name.clone(), flux)
        })
        .collect()
}

fn run_decomposed(config: &RunConfig, model: C5g7, geometry_s: f64) -> RunReport {
    let tel = antmoc_telemetry::Telemetry::current();
    let (nx, ny, nz) = config.decomposition;
    let t = Instant::now();
    let decomp = {
        let _s = tel.span("tracking");
        Decomposition::build(
            &model.geometry,
            &model.axial,
            &model.library,
            config.tracks.clone(),
            DecompSpec { nx, ny, nz },
        )
    };
    let tracking_s = t.elapsed().as_secs_f64();

    let backend = match &config.backend {
        BackendConfig::Cpu => Backend::Cpu,
        BackendConfig::CpuSerial => Backend::CpuSerial,
        BackendConfig::Device { memory_bytes, cu_mapping } => Backend::Device {
            spec: DeviceSpec::scaled(*memory_bytes),
            mode: config.mode,
            mapping: *cu_mapping,
        },
    };

    // With fault injection enabled the solve goes through the recovery
    // supervisor (checkpoint/restart + L1 rebalancing on rank loss);
    // otherwise one plain generation of the same executors runs.
    let cluster = ClusterOptions {
        exchange: config.exchange,
        link: config.link,
        schedule: config.schedule,
        workers: None,
        kernel: config.kernel.clone(),
    };
    let t = Instant::now();
    let (keff, iterations, converged, phi, comm_bytes) = if config.fault.enabled {
        let rec = RecoveryOptions {
            fault: config.fault.comm.clone(),
            checkpoint_interval: config.fault.checkpoint_interval,
            max_restarts: config.fault.max_restarts,
            cluster,
        };
        let r = {
            let _s = tel.span("transport");
            solve_cluster_recovering(&decomp, &backend, &config.eigen, &rec)
        };
        (r.keff, r.iterations, r.converged, r.phi, r.comm_bytes)
    } else {
        let r = {
            let _s = tel.span("transport");
            solve_cluster_with(&decomp, &backend, &config.eigen, &cluster)
        };
        let bytes = r.traffic.iter().map(|t| t.sent_bytes).sum();
        (r.keff, r.iterations, r.converged, r.phi, bytes)
    };
    let transport_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let _output_span = tel.span("output");
    let per_rank: Vec<Vec<f64>> =
        decomp.problems.iter().zip(&phi).map(|(p, phi)| fission_rates(p, phi)).collect();
    let pin_rates = PinRates::aggregate(
        &model,
        decomp.problems.iter().zip(per_rank.iter().map(|r| r.as_slice())),
    );
    let output_s = t.elapsed().as_secs_f64();

    RunReport {
        keff,
        iterations,
        converged,
        pin_rates,
        material_flux: Vec::new(),
        timings: StageTimings {
            geometry: geometry_s,
            tracking: tracking_s,
            transport: transport_s,
            output: output_s,
        },
        num_2d_tracks: decomp.problems.iter().map(|p| p.layout.num_2d_tracks()).sum(),
        num_3d_tracks: decomp.problems.iter().map(|p| p.num_tracks()).sum(),
        num_3d_segments: decomp.problems.iter().map(|p| p.num_3d_segments()).sum(),
        num_fsrs: decomp.problems.iter().map(|p| p.num_fsrs()).sum(),
        comm_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    /// A deliberately coarse configuration that solves in seconds.
    pub fn coarse_config() -> RunConfig {
        RunConfig::parse(
            r#"
[model]
axial_dz = 21.42
[tracks]
num_azim = 4
radial_spacing = 1.2
num_polar = 2
axial_spacing = 20.0
[solver]
tolerance = 2e-4
max_iterations = 400
mode = otf
backend = cpu
"#,
        )
        .unwrap()
    }

    #[test]
    fn single_domain_c5g7_runs_and_is_physical() {
        let report = run(&coarse_config());
        assert!(report.converged, "did not converge in {} iters", report.iterations);
        // C5G7's reference k is ~1.18; at this extremely coarse resolution
        // we only require a physically sensible eigenvalue.
        assert!(
            report.keff > 0.9 && report.keff < 1.45,
            "k_eff {} out of the physical window",
            report.keff
        );
        // Pin rates: the central (fission-chamber-adjacent) region beats
        // the MOX periphery; normalised mean is 1.
        let mean = report.pin_rates.mean();
        assert!((mean - 1.0).abs() < 1e-9, "normalised mean {mean}");
        assert!(report.num_3d_segments > 0);
    }

    #[test]
    fn decomposed_run_matches_single_domain_keff() {
        // Denser axial tracks than the quick config: interface matching
        // quality scales with lines-per-stack, and the CI default (20 cm
        // axial spacing, 1-2 lines per window stack) is too coarse for a
        // meaningful decomposition comparison.
        let tweak = |mut cfg: RunConfig| {
            cfg.tracks.axial_spacing = 6.0;
            cfg
        };
        let single = run(&tweak(coarse_config()));
        let mut cfg = tweak(coarse_config());
        cfg.decomposition = (2, 2, 1);
        let decomposed = run(&cfg);
        assert!(decomposed.converged);
        assert!(decomposed.comm_bytes > 0, "decomposed run must communicate");
        assert!(
            (decomposed.keff - single.keff).abs() < 3e-2,
            "decomposed k {} vs single {}",
            decomposed.keff,
            single.keff
        );
        // Normalised pin rates agree to a few percent RMS (the paper's
        // §2.1 observation: raw rates shift, normalised rates agree).
        let rms = decomposed.pin_rates.rms_relative_error(&single.pin_rates);
        assert!(rms < 0.12, "pin-rate RMS {rms}");
    }
}
