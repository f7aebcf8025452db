//! The declarative C5G7 case (`cases/c5g7.toml`) must reproduce the
//! hardcoded `antmoc_geom::c5g7` builder exactly: same flat-source
//! regions, same axial mesh, and — on the deterministic serial backend
//! — a bitwise-identical run report, single-domain and decomposed
//! (`cases/c5g7_pipelined.toml`). Any drift between the DSL lowering and
//! the reference builder shows up here as a bit diff, not as a physics
//! tolerance.

use antmoc::geom::c5g7::{C5g7, C5g7Options};
use antmoc::geom::AxialModel;
use antmoc::input::{lower, CaseSpec};
use antmoc::{run, BackendConfig, ModelSpec, PinRates, RunConfig};

fn case_text(name: &str) -> String {
    let path = format!("{}/../../cases/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The hardcoded builder configured the way the case file declares the
/// model: default resolution, unrodded, 21.42 cm axial cells.
fn hardcoded_options() -> C5g7Options {
    C5g7Options { axial_dz: 21.42, ..Default::default() }
}

fn assert_axial_identical(a: &AxialModel, b: &AxialModel) {
    assert_eq!(a.num_cells(), b.num_cells(), "axial cell count");
    let (pa, pb) = (a.planes(), b.planes());
    assert_eq!(pa.len(), pb.len(), "axial plane count");
    for (i, (x, y)) in pa.iter().zip(pb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "axial plane {i}: {x} vs {y}");
    }
    assert_eq!(a.zones().len(), b.zones().len(), "axial zone count");
}

fn assert_pin_rates_identical(a: &PinRates, b: &PinRates) {
    let (ra, rb) = (a.entries(), b.entries());
    assert_eq!(ra.len(), rb.len(), "pin-rate entry count");
    for ((addr_a, rate_a), (addr_b, rate_b)) in ra.iter().zip(&rb) {
        assert_eq!(addr_a, addr_b);
        assert_eq!(rate_a.to_bits(), rate_b.to_bits(), "pin {addr_a:?}: {rate_a} vs {rate_b}");
    }
}

#[test]
fn dsl_lowering_matches_the_hardcoded_builder_structurally() {
    let spec = CaseSpec::parse(&case_text("c5g7.toml")).unwrap();
    let lowered = lower(&spec).unwrap();
    let hard = C5g7::build(hardcoded_options());

    // Material library: same names in the same id order.
    assert_eq!(lowered.library.len(), hard.library.len());
    for ((ida, ma), (idb, mb)) in lowered.library.iter().zip(hard.library.iter()) {
        assert_eq!(ida, idb);
        assert_eq!(ma.name, mb.name);
    }

    // Geometry: the DSL inserts universes in a different arena order,
    // but FSR enumeration is a structural DFS, so every flat-source
    // region must line up: material, area hint, and the lattice path
    // the pin decoder consumes.
    let (g1, g2) = (&lowered.geometry, &hard.geometry);
    assert_eq!(g1.num_fsrs(), g2.num_fsrs(), "FSR count");
    assert_eq!(g1.bcs(), g2.bcs(), "boundary conditions");
    let (b1, b2) = (g1.bounds(), g2.bounds());
    for (x, y) in [(b1.0, b2.0), (b1.1, b2.1), (b1.2, b2.2), (b1.3, b2.3)] {
        assert_eq!(x.to_bits(), y.to_bits(), "radial bounds {b1:?} vs {b2:?}");
    }
    assert_eq!(g1.z_range().0.to_bits(), g2.z_range().0.to_bits());
    assert_eq!(g1.z_range().1.to_bits(), g2.z_range().1.to_bits());
    for f in g1.fsrs() {
        assert_eq!(g1.fsr_material(f), g2.fsr_material(f), "material of {f:?}");
        assert_eq!(g1.fsr_path(f), g2.fsr_path(f), "path of {f:?}");
        let (h1, h2) = (g1.fsr_area_hint(f), g2.fsr_area_hint(f));
        assert_eq!(
            h1.map(f64::to_bits),
            h2.map(f64::to_bits),
            "area hint of {f:?}: {h1:?} vs {h2:?}"
        );
        assert_eq!(lowered.pin_of_fsr(f), hard.pin_of_fsr(f), "pin address of {f:?}");
    }

    assert_axial_identical(&lowered.axial, &hard.axial);
}

#[test]
fn dsl_case_run_report_is_bitwise_identical_to_the_hardcoded_model() {
    let spec = CaseSpec::parse(&case_text("c5g7.toml")).unwrap();
    // One worker: the bits then do not depend on the pool size the test
    // binary runs under.
    let mut dsl_cfg = RunConfig::from_case(&spec).unwrap();
    dsl_cfg.backend = BackendConfig::CpuSerial;
    let mut hard_cfg = dsl_cfg.clone();
    hard_cfg.model = ModelSpec::C5g7(hardcoded_options());
    hard_cfg.case_name = "c5g7-hardcoded".into();

    let a = run(&dsl_cfg);
    let b = run(&hard_cfg);

    assert_eq!(a.converged, b.converged);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.keff.to_bits(), b.keff.to_bits(), "keff {} vs {}", a.keff, b.keff);
    assert_eq!(a.num_fsrs, b.num_fsrs);
    assert_eq!(a.num_2d_tracks, b.num_2d_tracks);
    assert_eq!(a.num_3d_tracks, b.num_3d_tracks);
    assert_eq!(a.num_3d_segments, b.num_3d_segments);

    assert_pin_rates_identical(&a.pin_rates, &b.pin_rates);

    assert_eq!(a.material_flux.len(), b.material_flux.len());
    for ((na, fa), (nb, fb)) in a.material_flux.iter().zip(&b.material_flux) {
        assert_eq!(na, nb);
        assert_eq!(fa.len(), fb.len());
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.to_bits(), y.to_bits(), "material {na} flux {x} vs {y}");
        }
    }
}

#[test]
fn decomposed_dsl_case_run_is_bitwise_identical_to_the_hardcoded_model() {
    // The pipelined case decomposes 2x2x1 over cpu-serial ranks, so its
    // bits do not depend on the pool size either.
    let spec = CaseSpec::parse(&case_text("c5g7_pipelined.toml")).unwrap();
    let mut dsl_cfg = RunConfig::from_case(&spec).unwrap();
    assert_eq!(dsl_cfg.decomposition, (2, 2, 1));
    dsl_cfg.eigen.max_iterations = 20;
    let mut hard_cfg = dsl_cfg.clone();
    hard_cfg.model = ModelSpec::C5g7(hardcoded_options());
    hard_cfg.case_name = "c5g7-hardcoded".into();

    let a = run(&dsl_cfg);
    let b = run(&hard_cfg);

    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.keff.to_bits(), b.keff.to_bits(), "keff {} vs {}", a.keff, b.keff);
    assert_eq!(a.num_3d_segments, b.num_3d_segments);
    assert!(a.comm_bytes > 0);
    assert_eq!(a.comm_bytes, b.comm_bytes);
    assert_pin_rates_identical(&a.pin_rates, &b.pin_rates);
}
