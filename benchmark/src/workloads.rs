//! The six workloads and the staged pass each one times.
//!
//! A pass goes from input text to written report bytes through the same
//! public stage functions `antmoc::run` composes (`build_setup` →
//! `run_with_setup_arena`, or `Decomposition::build` →
//! `solve_cluster_with`), with the harness's own clock reads between the
//! stages. [`guard`] proves once per run that this composition is
//! bitwise the path a plain `antmoc::run(&config)` takes.

use std::path::Path;
use std::time::Instant;

use antmoc::geom::c5g7::C5g7;
use antmoc::input::CaseSpec;
use antmoc::solver::cluster::{solve_cluster_with, Backend, ClusterOptions};
use antmoc::solver::decomp::{DecompSpec, Decomposition};
use antmoc::solver::manager::stored_bytes_for;
use antmoc::solver::{fission_rates, StorageMode, SweepArena};
use antmoc::telemetry::Telemetry;
use antmoc::{
    build_setup, record_run_meta, run_artifact, run_with_setup_arena, PinRates, RunConfig,
    RunReport, StageTimings,
};
use antmoc_serve::report_signature;

use crate::inputs::Inputs;
use crate::spans::{Recorder, SpanId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Otf,
    Explicit,
    DeviceManager,
    DecompSync,
    DecompPipelined,
    ServeCampaign,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Otf,
        Workload::Explicit,
        Workload::DeviceManager,
        Workload::DecompSync,
        Workload::DecompPipelined,
        Workload::ServeCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Otf => "c5g7_otf",
            Workload::Explicit => "c5g7_explicit",
            Workload::DeviceManager => "c5g7_device_manager",
            Workload::DecompSync => "c5g7_decomp_sync",
            Workload::DecompPipelined => "c5g7_decomp_pipelined",
            Workload::ServeCampaign => "serve_campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_decomposed(self) -> bool {
        matches!(self, Workload::DecompSync | Workload::DecompPipelined)
    }

    /// The generated input text of a solver workload.
    pub fn text(self, inputs: &Inputs) -> &str {
        match self {
            Workload::Otf => &inputs.otf,
            Workload::Explicit => &inputs.explicit,
            Workload::DeviceManager => &inputs.device_manager,
            Workload::DecompSync => &inputs.decomp_sync,
            Workload::DecompPipelined => &inputs.decomp_pipelined,
            Workload::ServeCampaign => panic!("the serve campaign has one text per job"),
        }
    }
}

/// Share of the explicit segment store the device track manager may keep
/// resident. The text surface (`manager_budget_mb`) only takes whole
/// megabytes and this laydown's whole store is smaller than one, so the
/// harness narrows the parsed budget to this share of the store — the
/// partial residency the paper's Fig. 9 is about.
pub const MANAGER_RESIDENT_SHARE: f64 = 0.4;

/// The physics one solve produced, for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutput {
    pub label: String,
    pub keff: f64,
    pub iterations: u64,
    pub converged: bool,
    /// `antmoc_serve::report_signature`: equal iff keff, iterations, pin
    /// rates and material fluxes are bitwise equal.
    pub signature: String,
    /// Shield attenuation factor, for cases that gate on one.
    pub flux_ratio: Option<f64>,
}

/// What one timed pass measured, from the harness's own clock.
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// Input text in → report JSON bytes written.
    pub wall_s: f64,
    /// The transport stage call (`run_with_setup_arena`, which also
    /// aggregates pin rates, or `solve_cluster_with`); summed over jobs
    /// for the serve campaign.
    pub solve_s: f64,
    pub iterations: u64,
    /// `iterations x segments per sweep`, both directions, exact counts.
    pub segment_visits: u64,
    pub jobs: u64,
    pub solves: Vec<SolveOutput>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Mean group flux of a named material from the per-material tally.
fn material_group_flux(report: &RunReport, material: &str, group_1based: usize) -> Option<f64> {
    report
        .material_flux
        .iter()
        .find(|(name, _)| name == material)
        .and_then(|(_, groups)| groups.get(group_1based - 1))
        .copied()
}

pub fn solve_output(label: &str, spec: Option<&CaseSpec>, report: &RunReport) -> SolveOutput {
    let flux_ratio = spec.and_then(|s| s.gates.flux_ratio.as_ref()).and_then(|gate| {
        let from = material_group_flux(report, &gate.from, gate.group)?;
        let to = material_group_flux(report, &gate.to, gate.group)?;
        (to > 0.0).then(|| from / to)
    });
    SolveOutput {
        label: label.to_owned(),
        keff: report.keff,
        iterations: report.iterations as u64,
        converged: report.converged,
        signature: report_signature(report),
        flux_ratio,
    }
}

/// Parses a single-domain workload's TOML into its run configuration.
pub fn parse_single(text: &str) -> Result<(CaseSpec, RunConfig), String> {
    let spec = CaseSpec::parse(text).map_err(|e| format!("case line {}: {}", e.line, e.message))?;
    let config = RunConfig::from_case(&spec).map_err(|e| e.to_string())?;
    Ok((spec, config))
}

/// Narrows a device-manager configuration's budget to
/// [`MANAGER_RESIDENT_SHARE`] of the problem's explicit store.
pub fn narrow_manager_budget(config: &mut RunConfig, problem: &antmoc::solver::Problem) {
    if let StorageMode::Manager { .. } = config.mode {
        let store: u64 =
            problem.sweep_tracks.iter().map(|t| stored_bytes_for(t.num_segments)).sum();
        config.mode =
            StorageMode::Manager { budget_bytes: (store as f64 * MANAGER_RESIDENT_SHARE) as u64 };
    }
}

/// Builds, serialises and writes the run artifact.
fn write_report(
    rec: &Recorder,
    root: Option<SpanId>,
    report: &RunReport,
    path: &Path,
) -> Result<(), String> {
    let json = rec.scoped("report.build", root, |_| run_artifact(report).to_json_string());
    rec.scoped("report.write", root, |_| std::fs::write(path, &json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn finish(
    label: &str,
    spec: Option<&CaseSpec>,
    report: &RunReport,
    wall_s: f64,
    solve_s: f64,
) -> PassOutput {
    let iterations = report.iterations as u64;
    PassOutput {
        wall_s,
        solve_s,
        iterations,
        segment_visits: iterations * report.num_3d_segments * 2,
        jobs: 1,
        solves: vec![solve_output(label, spec, report)],
    }
}

/// One single-domain pass: TOML text → `CaseSpec` → `RunConfig` →
/// `build_setup` → `run_with_setup_arena` → artifact JSON on disk.
/// `cap` limits the iteration count (the guard's short comparison run).
fn single_pass(
    w: Workload,
    text: &str,
    cap: Option<usize>,
    rec: &Recorder,
    report_path: &Path,
) -> Result<(PassOutput, RunConfig), String> {
    // A private sink per pass, as the solve service gives each job, so
    // one pass's artifact never carries another's counters.
    let sink = Telemetry::new();
    let _scope = sink.install();
    let t0 = Instant::now();
    rec.scoped("pass", None, |root| {
        let spec = rec
            .scoped("input.parse", root, |_| CaseSpec::parse(text))
            .map_err(|e| format!("case line {}: {}", e.line, e.message))?;
        let mut config = rec
            .scoped("input.lower", root, |_| RunConfig::from_case(&spec))
            .map_err(|e| e.to_string())?;
        if let Some(cap) = cap {
            config.eigen.max_iterations = cap;
        }
        record_run_meta(&config);
        let setup = rec.scoped("setup.build", root, |_| build_setup(&config));
        narrow_manager_budget(&mut config, &setup.problem);
        let t_solve = Instant::now();
        let (report, _arena) = rec.scoped("solve", root, |_| {
            run_with_setup_arena(&config, &setup, SweepArena::new(config.kernel.clone()))
        });
        let solve_s = secs(t_solve);
        write_report(rec, root, &report, report_path)?;
        Ok((finish(w.name(), Some(&spec), &report, secs(t0), solve_s), config))
    })
}

/// The immutable products of a decomposed set-up.
pub struct DecompSetup {
    pub config: RunConfig,
    pub model: C5g7,
    pub decomp: Decomposition,
}

/// INI text → `RunConfig` → C5G7 model → `Decomposition`, as
/// `antmoc::run` does for a decomposed configuration.
pub fn build_decomp_setup(
    text: &str,
    rec: &Recorder,
    root: Option<SpanId>,
) -> Result<DecompSetup, String> {
    let config =
        rec.scoped("input.parse", root, |_| RunConfig::parse(text)).map_err(|e| e.to_string())?;
    let model = rec.scoped("geom.build", root, |_| C5g7::build(config.model.c5g7().clone()));
    let (nx, ny, nz) = config.decomposition;
    let decomp = rec.scoped("decomp.build", root, |_| {
        Decomposition::build(
            &model.geometry,
            &model.axial,
            &model.library,
            config.tracks.clone(),
            DecompSpec { nx, ny, nz },
        )
    });
    Ok(DecompSetup { config, model, decomp })
}

pub fn cluster_options(config: &RunConfig) -> ClusterOptions {
    ClusterOptions {
        exchange: config.exchange,
        link: config.link,
        schedule: config.schedule,
        workers: None,
        kernel: config.kernel.clone(),
    }
}

/// One decomposed pass: INI text → `RunConfig` → `Decomposition::build`
/// → `solve_cluster_with` → pin rates → artifact JSON on disk.
fn decomp_pass(
    w: Workload,
    text: &str,
    cap: Option<usize>,
    rec: &Recorder,
    report_path: &Path,
) -> Result<(PassOutput, RunConfig), String> {
    let sink = Telemetry::new();
    let _scope = sink.install();
    let t0 = Instant::now();
    rec.scoped("pass", None, |root| {
        let DecompSetup { mut config, model, decomp } = build_decomp_setup(text, rec, root)?;
        let setup_s = secs(t0);
        if let Some(cap) = cap {
            config.eigen.max_iterations = cap;
        }
        record_run_meta(&config);
        let t_solve = Instant::now();
        let result = rec.scoped("solve", root, |_| {
            solve_cluster_with(
                &decomp,
                &Backend::CpuSerial,
                &config.eigen,
                &cluster_options(&config),
            )
        });
        let solve_s = secs(t_solve);
        let t_out = Instant::now();
        let pin_rates = rec.scoped("output.rates", root, |_| {
            let per_rank: Vec<Vec<f64>> = decomp
                .problems
                .iter()
                .zip(&result.phi)
                .map(|(p, phi)| fission_rates(p, phi))
                .collect();
            PinRates::aggregate(
                &model,
                decomp.problems.iter().zip(per_rank.iter().map(|r| r.as_slice())),
            )
        });
        let report = RunReport {
            keff: result.keff,
            iterations: result.iterations,
            converged: result.converged,
            pin_rates,
            material_flux: Vec::new(),
            // The harness times set-up as one stage; nothing here reads
            // these back.
            timings: StageTimings {
                geometry: 0.0,
                tracking: setup_s,
                transport: solve_s,
                output: secs(t_out),
            },
            num_2d_tracks: decomp.problems.iter().map(|p| p.layout.num_2d_tracks()).sum(),
            num_3d_tracks: decomp.problems.iter().map(|p| p.num_tracks()).sum(),
            num_3d_segments: decomp.problems.iter().map(|p| p.num_3d_segments()).sum(),
            num_fsrs: decomp.problems.iter().map(|p| p.num_fsrs()).sum(),
            comm_bytes: result.traffic.iter().map(|t| t.sent_bytes).sum(),
        };
        write_report(rec, root, &report, report_path)?;
        Ok((finish(w.name(), None, &report, secs(t0), solve_s), config))
    })
}

/// One staged pass of a solver workload.
pub fn solver_pass(
    w: Workload,
    inputs: &Inputs,
    rec: &Recorder,
    report_path: &Path,
) -> Result<PassOutput, String> {
    let pass = if w.is_decomposed() { decomp_pass } else { single_pass };
    pass(w, w.text(inputs), None, rec, report_path).map(|(out, _)| out)
}

/// Iterations the guard's comparison runs take: enough for every layer
/// (exchange, manager, tallies) to have run repeatedly, short enough to
/// cost a small share of one pass.
pub const GUARD_ITERATIONS: usize = 25;

/// The staged-path guard: the composition the passes time must produce a
/// report bitwise equal (keff bits, iterations, pin-rate bits, material
/// flux bits) to a plain `antmoc::run` of the same configuration, so the
/// harness can never time a path users do not run. Both sides stop at
/// [`GUARD_ITERATIONS`].
pub fn guard(w: Workload, inputs: &Inputs, scratch: &Path) -> Result<(), String> {
    let pass = if w.is_decomposed() { decomp_pass } else { single_pass };
    let (staged, config) =
        pass(w, w.text(inputs), Some(GUARD_ITERATIONS), &Recorder::disabled(), scratch)?;
    let sink = Telemetry::new();
    let _scope = sink.install();
    let plain = antmoc::run(&config);
    if staged.solves[0].signature != report_signature(&plain) {
        return Err(format!(
            "{}: staged path diverges from antmoc::run (keff {} vs {}, iterations {} vs {})",
            w.name(),
            staged.solves[0].keff,
            plain.keff,
            staged.solves[0].iterations,
            plain.iterations
        ));
    }
    Ok(())
}

/// Cold set-up of a solver workload: input text → `SolveSetup` /
/// `Decomposition` ready. Returns the seconds it took.
pub fn cold_setup(w: Workload, inputs: &Inputs) -> Result<f64, String> {
    let sink = Telemetry::new();
    let _scope = sink.install();
    let t0 = Instant::now();
    if w.is_decomposed() {
        std::hint::black_box(build_decomp_setup(w.text(inputs), &Recorder::disabled(), None)?);
    } else {
        std::hint::black_box(cold_single_setup(w.text(inputs))?);
    }
    Ok(secs(t0))
}

/// TOML text → `SolveSetup` ready.
pub fn cold_single_setup(text: &str) -> Result<antmoc::SolveSetup, String> {
    let (_, config) = parse_single(text)?;
    Ok(build_setup(&config))
}
