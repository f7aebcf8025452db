//! Cross-crate integration: the full five-stage pipeline on the C5G7
//! model, across backends and storage modes.

use antmoc::solver::StorageMode;
use antmoc::telemetry::Telemetry;
use antmoc::{run, BackendConfig, RunConfig};

fn coarse(extra: &str) -> RunConfig {
    RunConfig::parse(&format!(
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
max_iterations = 500
{extra}
"#
    ))
    .unwrap()
}

#[test]
fn cpu_and_device_backends_agree() {
    let cpu = run(&coarse("backend = cpu\nmode = otf\n"));
    assert!(cpu.converged);
    let dev = run(&coarse(
        "backend = device\ndevice_memory_mb = 1024\nmode = explicit\ncu_mapping = sorted\n",
    ));
    assert!(dev.converged);
    assert!((cpu.keff - dev.keff).abs() < 5e-4, "cpu k {} vs device k {}", cpu.keff, dev.keff);
    // Same tracks, same physics: pin rates nearly identical (f32 segment
    // storage is the only difference).
    let err = cpu.pin_rates.max_relative_error(&dev.pin_rates);
    assert!(err < 5e-3, "pin max rel err {err}");
}

#[test]
fn every_backend_reports_the_sweep_kernel_telemetry() {
    // One kernel on every backend means one set of sweep telemetry: the
    // device and serial sweeps open the `transport_sweep` span and record
    // the throughput inputs (`run_case`'s ns/segment column) like the CPU
    // path does.
    for backend in [
        "backend = cpu\nmode = otf\n",
        "backend = cpu-serial\n",
        "backend = device\ndevice_memory_mb = 1024\nmode = manager\nmanager_budget_mb = 1\n",
    ] {
        let mut cfg = coarse(backend);
        cfg.eigen.max_iterations = 3;
        let tel = Telemetry::new();
        let (out, report) = {
            let _scope = tel.install();
            (run(&cfg), tel.report())
        };
        assert!(
            report.spans.keys().any(|path| path.ends_with("transport_sweep")),
            "{backend}: spans {:?}",
            report.spans.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            report.counter("sweep.segments"),
            out.iterations as u64 * 2 * out.num_3d_segments,
            "{backend}"
        );
        assert!(report.counter("sweep.tracks") > 0, "{backend}");
        // Every backend resolves these problems to privatized tallies,
        // which never retry a CAS, and each sweep counts only its own
        // retries.
        assert_eq!(report.counters.get("sweep.cas_retries"), Some(&0), "{backend}");
        for gauge in ["sweep.tally_bytes", "sweep.bytes_per_segment"] {
            assert!(report.gauges.contains_key(gauge), "{backend}: no {gauge} gauge");
        }
        let kernel = format!("{:?}", report.sections.get("sweep_kernel"));
        assert!(kernel.contains("vector") && kernel.contains("tally_mode"), "{backend}: {kernel}");
    }
}

#[test]
fn decomposed_runs_record_the_iteration_series() {
    // Every rank walks the one driver loop and rank 0 narrates it, so a
    // decomposed run reports the rows a single-domain solve does.
    for exchange in ["sync", "pipelined"] {
        let mut cfg = coarse(&format!(
            "backend = cpu-serial\n[decomposition]\nnx = 2\nny = 1\nnz = 1\nexchange = {exchange}\n"
        ));
        cfg.eigen.max_iterations = 6;
        let tel = Telemetry::new();
        let (out, report) = {
            let _scope = tel.install();
            (run(&cfg), tel.report())
        };
        assert_eq!(report.iterations.len(), out.iterations, "{exchange}");
        assert_eq!(report.counter("eigen.iterations"), out.iterations as u64, "{exchange}");
        assert!(report.iterations.iter().all(|row| row.get("k").is_some()), "{exchange}");
    }
}

#[test]
fn storage_modes_do_not_change_the_answer() {
    let otf = run(&coarse("backend = cpu\nmode = otf\n"));
    let exp = run(&coarse("backend = cpu\nmode = explicit\n"));
    let mgr = run(&coarse("backend = cpu\nmode = manager\nmanager_budget_mb = 1\n"));
    for (label, r) in [("explicit", &exp), ("manager", &mgr)] {
        assert!((r.keff - otf.keff).abs() < 5e-4, "{label} k {} vs otf {}", r.keff, otf.keff);
    }
}

#[test]
fn fission_rate_map_shape_matches_the_benchmark() {
    // Fig. 7: highest rates near the core centre (the reflective corner),
    // decaying towards the reflector.
    let r = run(&coarse("backend = cpu\nmode = otf\n"));
    let inner = r.pin_rates.get((0, 0), (2, 2));
    let outer_uo2_far = r.pin_rates.get((1, 1), (15, 15));
    assert!(inner > 0.0 && outer_uo2_far > 0.0);
    assert!(
        inner > outer_uo2_far,
        "inner pin {inner} should out-produce the far outer-UO2 pin {outer_uo2_far}"
    );
    // Reflector assemblies have no pins at all.
    assert_eq!(r.pin_rates.get((2, 2), (8, 8)), 0.0);
    // All four fuel assemblies produced power.
    for (ax, ay) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        assert!(r.pin_rates.get((ax, ay), (8, 7)) > 0.0, "assembly ({ax},{ay}) silent");
    }
}

#[test]
fn rodded_configuration_lowers_keff() {
    let unrodded = run(&coarse("backend = cpu\nmode = otf\n"));
    let mut cfg = coarse("backend = cpu\nmode = otf\n");
    cfg.model.c5g7_mut().config = antmoc::geom::c5g7::RoddedConfig::RoddedB;
    let rodded = run(&cfg);
    assert!(rodded.converged);
    assert!(
        rodded.keff < unrodded.keff - 0.002,
        "rodded k {} should sit clearly below unrodded {}",
        rodded.keff,
        unrodded.keff
    );
}

#[test]
fn axial_power_profile_peaks_at_the_reflective_bottom() {
    use antmoc::geom::c5g7::C5g7;
    use antmoc::output::AxialPowerProfile;
    use antmoc::solver::{fission_rates, solve_eigenvalue, CpuSweeper, Problem, SegmentSource};

    let cfg = coarse("backend = cpu\nmode = otf\n");
    let model = C5g7::build(cfg.model.c5g7().clone());
    let problem = Problem::build(
        model.geometry.clone(),
        model.axial.clone(),
        &model.library,
        cfg.tracks.clone(),
    );
    let segsrc = SegmentSource::otf();
    let mut sweeper = CpuSweeper::new(&segsrc);
    let r = solve_eigenvalue(&problem, &mut sweeper, &cfg.eigen);
    assert!(r.converged);
    let rates = fission_rates(&problem, &r.phi);
    // Three slabs matching the coarse model's three axial cells.
    let profile =
        AxialPowerProfile::aggregate(&model, std::iter::once((&problem, rates.as_slice())), 3);
    assert_eq!(profile.slabs.len(), 3);
    // The top third is the water reflector: no fission there.
    assert!(profile.slabs[2] < 1e-9, "reflector slab has power: {:?}", profile.slabs);
    // Power decays from the reflective midplane (bottom) toward the
    // vacuum top within the fuel.
    assert!(profile.slabs[0] > profile.slabs[1], "profile not decaying: {:?}", profile.slabs);
    let mut csv = Vec::new();
    profile.write_csv(&mut csv).unwrap();
    assert_eq!(String::from_utf8(csv).unwrap().lines().count(), 4);
}

#[test]
fn group_spectra_show_reflector_thermalisation() {
    use antmoc::geom::c5g7::{AssemblyKind, C5g7};
    use antmoc::output::GroupSpectra;
    use antmoc::solver::{solve_eigenvalue, CpuSweeper, Problem, SegmentSource};

    let cfg = coarse("backend = cpu\nmode = otf\n");
    let model = C5g7::build(cfg.model.c5g7().clone());
    let problem = Problem::build(
        model.geometry.clone(),
        model.axial.clone(),
        &model.library,
        cfg.tracks.clone(),
    );
    let segsrc = SegmentSource::otf();
    let mut sweeper = CpuSweeper::new(&segsrc);
    let r = solve_eigenvalue(&problem, &mut sweeper, &cfg.eigen);
    assert!(r.converged);
    let spectra = GroupSpectra::aggregate(&model, std::iter::once((&problem, r.phi.as_slice())));
    assert_eq!(spectra.num_groups, 7);
    // Every spectrum is a distribution.
    for kind in
        [AssemblyKind::InnerUo2, AssemblyKind::OuterUo2, AssemblyKind::Mox, AssemblyKind::Reflector]
    {
        let s = spectra.of(kind);
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{kind:?}: {total}");
        assert!(s.iter().all(|&x| x >= 0.0));
    }
    // The water reflector is more thermal than the fuels; MOX is the
    // hardest (thermal neutrons eaten by the plutonium-like absorption).
    let refl = spectra.thermal_fraction(AssemblyKind::Reflector);
    let uo2 = spectra.thermal_fraction(AssemblyKind::InnerUo2);
    let mox = spectra.thermal_fraction(AssemblyKind::Mox);
    assert!(refl > uo2, "reflector {refl} vs UO2 {uo2}");
    assert!(uo2 > mox, "UO2 {uo2} vs MOX {mox}");
    let mut csv = Vec::new();
    spectra.write_csv(&mut csv).unwrap();
    assert_eq!(String::from_utf8(csv).unwrap().lines().count(), 1 + 4 * 7);
}

#[test]
fn shipped_run_configs_parse() {
    // The artifact-style configs under run/ must stay valid.
    for name in ["run/c5g7-validation.ini", "run/quick.ini"] {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + name;
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let cfg = RunConfig::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(cfg.tracks.num_azim >= 4);
        assert!(cfg.eigen.max_iterations > 0);
    }
}

#[test]
fn config_mode_wiring_reaches_the_solver() {
    let cfg = coarse("backend = cpu\nmode = manager\nmanager_budget_mb = 3\n");
    assert_eq!(cfg.mode, StorageMode::Manager { budget_bytes: 3 << 20 });
    assert_eq!(cfg.backend, BackendConfig::Cpu);
}
