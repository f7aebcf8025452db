//! §5.1 correctness validation (Table 4 / Fig. 7): ANT-MOC pipeline vs
//! the reference solver on the C5G7 3D extension; also the GPU-vs-CPU
//! runtime datum.
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin validate_correctness [-- --fine]
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Instant;

use antmoc::gpusim::{Device, DeviceSpec};
use antmoc::solver::device::{CuMapping, DeviceSolver};
use antmoc::solver::{
    solve_eigenvalue, CpuSweeper, EigenOptions, Problem, SegmentSource, StorageMode,
};
use antmoc::{run, BackendConfig, RunConfig};

fn main() {
    let fine = std::env::args().any(|a| a == "--fine");
    // Table 4 uses 4 azim x 4 polar, radial 0.5, axial 0.1 on 2x2x2
    // domains. The default here is a scaled-down mesh for quick runs;
    // --fine moves toward the paper's parameters.
    let (radial, axial, np) = if fine { (0.5, 1.0, 4) } else { (1.0, 8.0, 2) };
    let text = format!(
        r#"
[model]
case = c5g7
rodded = unrodded
axial_dz = 14.28
[tracks]
num_azim = 4
radial_spacing = {radial}
num_polar = {np}
axial_spacing = {axial}
[solver]
tolerance = 1e-4
max_iterations = 800
mode = manager
manager_budget_mb = 256
backend = device
device_memory_mb = 2048
cu_mapping = sorted
[decomposition]
nx = 2
ny = 2
nz = 2
"#
    );
    let decomposed_cfg = RunConfig::parse(&text).unwrap();
    let mut antmoc_cfg = decomposed_cfg.clone();
    antmoc_cfg.decomposition = (1, 1, 1);
    let mut reference_cfg = antmoc_cfg.clone();
    reference_cfg.backend = BackendConfig::Cpu;
    reference_cfg.mode = StorageMode::Explicit;

    println!("# §5.1 correctness validation (C5G7 3D extension)\n");
    println!(
        "Experimental parameters (Table 4, {} mesh):",
        if fine { "near-paper" } else { "scaled" }
    );
    println!("  geometry 64.26^3 cm^3, 3x3 assemblies");
    println!(
        "  azimuthal angles 4, polar angles {np}, radial spacing {radial}, axial spacing {axial}\n"
    );

    // ---- primary comparison: same discretisation, different engines ----
    // This is the paper's §5.1 claim: ANT-MOC vs OpenMOC on the same
    // track laydown produce identical k_eff and pin rates. Our analogue:
    // the ANT-MOC device solver (manager storage, L3 mapping) vs the
    // independent reference CPU sweep on the same single-domain problem.
    let t0 = Instant::now();
    let reference = run(&reference_cfg);
    let t_ref = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let antmoc_run = run(&antmoc_cfg);
    let t_ant = t0.elapsed().as_secs_f64();

    println!("## same discretisation, different engines (the paper's comparison)\n");
    println!("| solver | k_eff | iterations | converged | wall s |");
    println!("|---|---|---|---|---|");
    println!(
        "| reference (CPU, explicit segments) | {:.5} | {} | {} | {t_ref:.1} |",
        reference.keff, reference.iterations, reference.converged
    );
    println!(
        "| ANT-MOC (device, manager, L3)      | {:.5} | {} | {} | {t_ant:.1} |",
        antmoc_run.keff, antmoc_run.iterations, antmoc_run.converged
    );
    let dk_pcm = (antmoc_run.keff - reference.keff).abs() * 1e5;
    println!("\n  |delta k|   = {dk_pcm:.2} pcm   (paper: k_eff 'always consistent')");
    println!(
        "  max rel err = {:.4} %   (paper: 'relative error ... all zero';",
        antmoc_run.pin_rates.max_relative_error(&reference.pin_rates) * 100.0
    );
    println!("                           ours differ only via f32 stored segment lengths)");
    println!(
        "  rms rel err = {:.4} %",
        antmoc_run.pin_rates.rms_relative_error(&reference.pin_rates) * 100.0
    );

    // ---- secondary: spatial decomposition sensitivity ----
    let t0 = Instant::now();
    let decomposed = run(&decomposed_cfg);
    let t_dec = t0.elapsed().as_secs_f64();
    println!("\n## decomposition sensitivity (2x2x2 domains, per-window laydown)\n");
    println!(
        "  decomposed k_eff {:.5} ({} iters, {t_dec:.1} s), |delta k| = {:.1} pcm",
        decomposed.keff,
        decomposed.iterations,
        (decomposed.keff - reference.keff).abs() * 1e5
    );
    println!(
        "  pin rates vs single domain: max {:.2} %, rms {:.2} %",
        decomposed.pin_rates.max_relative_error(&reference.pin_rates) * 100.0,
        decomposed.pin_rates.rms_relative_error(&reference.pin_rates) * 100.0
    );
    println!("  (the paper notes decomposition may shift raw fission rates while");
    println!("   normalised rates agree; each window lays its own tracks here.)");

    // ---- the literal §5.1 configuration: same 2x2x2 decomposition on
    // both engines (the paper ran ANT-MOC on 8 GPUs and OpenMOC on 8 CPU
    // cores over the same eight sub-geometries). ----
    let mut dec_cpu_cfg = decomposed_cfg.clone();
    dec_cpu_cfg.backend = BackendConfig::Cpu;
    dec_cpu_cfg.mode = StorageMode::Explicit;
    let dec_cpu = run(&dec_cpu_cfg);
    println!("\n## same 2x2x2 decomposition, device vs CPU engines (the paper's exact setup)\n");
    println!(
        "  device k {:.5} vs CPU k {:.5}: |delta k| = {:.2} pcm",
        decomposed.keff,
        dec_cpu.keff,
        (decomposed.keff - dec_cpu.keff).abs() * 1e5
    );
    println!(
        "  pin rate max rel err = {:.4} %, rms = {:.4} %",
        decomposed.pin_rates.max_relative_error(&dec_cpu.pin_rates) * 100.0,
        decomposed.pin_rates.rms_relative_error(&dec_cpu.pin_rates) * 100.0
    );
    let antmoc_run = decomposed;

    // GPU-vs-CPU datum: the paper reports ANT-MOC(1 GPU) up to 428x over
    // OpenMOC-3D on 8 CPU cores. Our analogue: the device sweep (full
    // thread pool) vs a single-threaded CPU sweep, same single-domain
    // problem.
    println!("\n## single-device vs serial-CPU sweep time (the paper's 428x datum analogue)");
    let m = antmoc_bench::model();
    let problem =
        Problem::build(m.geometry.clone(), m.axial.clone(), &m.library, antmoc_cfg.tracks.clone());
    let opts = EigenOptions { tolerance: 1e-30, max_iterations: 5, ..Default::default() };
    let device = Arc::new(Device::new(DeviceSpec::scaled(4 << 30)));
    let mut dev_solver =
        DeviceSolver::new(device, &problem, StorageMode::Explicit, CuMapping::SegmentSorted)
            .expect("device fits");
    let t0 = Instant::now();
    let _ = solve_eigenvalue(&problem, &mut dev_solver, &opts);
    let t_dev = t0.elapsed().as_secs_f64();

    let segsrc = SegmentSource::otf();
    let t0 = Instant::now();
    let _ = solve_eigenvalue(&problem, &mut CpuSweeper::new(&segsrc).serial(), &opts);
    let t_cpu = t0.elapsed().as_secs_f64();
    println!("  device (parallel, EXP): {t_dev:.2} s for 5 iterations");
    println!("  serial CPU (OTF)      : {t_cpu:.2} s for 5 iterations");
    println!("  speedup               : {:.1}x", t_cpu / t_dev);
    println!(
        "  (absolute ratios depend on host cores; the paper's 428x is real-GPU vs 8 CPU cores)"
    );

    let csv = File::create("fission_rates.csv").unwrap();
    antmoc_run.pin_rates.write_csv(BufWriter::new(csv)).unwrap();
    let vtk = File::create("fission_rates.vtk").unwrap();
    antmoc_run.pin_rates.write_vtk(BufWriter::new(vtk)).unwrap();
    println!("\nFig. 7 outputs written: fission_rates.csv, fission_rates.vtk");

    antmoc_bench::write_telemetry_artifact("validate_correctness");
}
