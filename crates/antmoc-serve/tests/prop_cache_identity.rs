//! Properties of the artifact cache.
//!
//! 1. **Rehydration identity** — across the shipped case suite, a setup
//!    served out of the content cache is bitwise identical to one built
//!    fresh from the same configuration: track laydown (all float fields
//!    compared as exact bit patterns), FSR volumes, cross sections, segment
//!    keys, the attenuation table and stored segments. This is the
//!    load-bearing fact behind the service's bitwise-identity guarantee: a
//!    warm job sweeps exactly the geometry a cold job would have built.
//! 2. **Key separation** — two configurations differing in *any*
//!    cache-key-relevant field (geometry, quadrature, spacings, storage
//!    mode, backend class) never share a key, down to last-ulp float
//!    perturbations; configurations differing only in per-job solver
//!    state (tolerances, iteration caps) always do share one.

use antmoc::pipeline::SolveSetup;
use antmoc_input::CaseSpec;
use antmoc_serve::cache::{cache_key, cache_key_string, SetupCache};
use proptest::prelude::*;
use std::sync::Arc;

fn shipped_case(name: &str) -> antmoc::RunConfig {
    let path = format!("{}/../../cases/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let spec = CaseSpec::parse(&text).unwrap();
    antmoc::RunConfig::from_case(&spec).unwrap()
}

/// Field-by-field bitwise comparison of the immutable intermediates.
fn assert_setups_bitwise_identical(cached: &SolveSetup, fresh: &SolveSetup, label: &str) {
    let (a, b) = (&cached.problem, &fresh.problem);
    assert_eq!(a.num_fsrs(), b.num_fsrs(), "{label}: FSR count");
    assert_eq!(a.num_tracks(), b.num_tracks(), "{label}: 3D track count");
    assert_eq!(a.num_3d_segments(), b.num_3d_segments(), "{label}: segment count");

    // Track laydown: every float field as exact bits.
    for (i, (ta, tb)) in a.sweep_tracks.iter().zip(&b.sweep_tracks).enumerate() {
        assert_eq!(ta.ascending, tb.ascending, "{label}: track {i} ascending");
        assert_eq!(ta.num_segments, tb.num_segments, "{label}: track {i} segments");
        for (f, va, vb) in [
            ("u_lo", ta.u_lo, tb.u_lo),
            ("u_hi", ta.u_hi, tb.u_hi),
            ("z_lo", ta.z_lo, tb.z_lo),
            ("cot", ta.cot, tb.cot),
            ("inv_sin", ta.inv_sin, tb.inv_sin),
            ("weight", ta.weight, tb.weight),
        ] {
            assert_eq!(va.to_bits(), vb.to_bits(), "{label}: track {i} field {f}");
        }
    }

    // FSR volumes and cross sections.
    assert_eq!(a.volumes.len(), b.volumes.len(), "{label}: volume count");
    for (i, (va, vb)) in a.volumes.iter().zip(&b.volumes).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{label}: volume {i}");
    }
    assert_eq!(a.xs.fsr_mat, b.xs.fsr_mat, "{label}: FSR materials");
    for (name, xa, xb) in [
        ("sigma_t", &a.xs.sigma_t, &b.xs.sigma_t),
        ("nusf", &a.xs.nusf, &b.xs.nusf),
        ("chi", &a.xs.chi, &b.xs.chi),
        ("scatter", &a.xs.scatter, &b.xs.scatter),
    ] {
        assert_eq!(xa.len(), xb.len(), "{label}: {name} length");
        for (i, (va, vb)) in xa.iter().zip(xb.iter()).enumerate() {
            assert_eq!(va.to_bits(), vb.to_bits(), "{label}: {name}[{i}]");
        }
    }

    // Segment keys and the attenuation table every segment reads.
    assert_eq!(a.keys.as_slice(), b.keys.as_slice(), "{label}: segment keys");
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (ta, tb) = (&a.attenuation, &b.attenuation);
    assert_eq!(bits(ta), bits(tb), "{label}: attenuation table");

    // Stored segments (when the mode keeps any resident).
    assert_eq!(cached.segsrc.num_resident(), fresh.segsrc.num_resident(), "{label}: residency");
    match (cached.segsrc.store(), fresh.segsrc.store()) {
        (None, None) => {}
        (Some(sa), Some(sb)) => {
            assert_eq!(sa.num_segments(), sb.num_segments(), "{label}: stored segment count");
            for t in 0..a.num_tracks() {
                let id = antmoc_track::Track3dId(t as u32);
                let (ra, rb) = (sa.of(id), sb.of(id));
                assert_eq!(ra.is_some(), rb.is_some(), "{label}: track {t} residency");
                if let (Some(ra), Some(rb)) = (ra, rb) {
                    assert_eq!(ra.len(), rb.len(), "{label}: track {t} segment count");
                    for (i, (ea, eb)) in ra.iter().zip(rb.iter()).enumerate() {
                        assert_eq!(ea.fsr3d, eb.fsr3d, "{label}: track {t} seg {i} fsr");
                        // Length and material through each problem's keys.
                        let (ka, kb) = (
                            a.keys.as_slice()[ea.key as usize],
                            b.keys.as_slice()[eb.key as usize],
                        );
                        assert_eq!(
                            ka.length.to_bits(),
                            kb.length.to_bits(),
                            "{label}: track {t} seg {i} length"
                        );
                        assert_eq!(ka.material, kb.material, "{label}: track {t} seg {i} material");
                    }
                }
            }
        }
        _ => panic!("{label}: one setup has a segment store, the other does not"),
    }
}

#[test]
fn cached_setups_are_bitwise_identical_across_the_shipped_suite() {
    for name in ["pin_cell.toml", "shield_slab.toml", "assembly_17x17.toml", "c5g7.toml"] {
        let config = shipped_case(name);
        let cache = SetupCache::new(4);
        let key = cache_key(&config);
        let (first, hit1) = cache.get_or_build(key, || antmoc::build_setup(&config));
        assert!(!hit1, "{name}: first build must miss");
        let (cached, hit2) = cache.get_or_build(key, || panic!("hit must not rebuild"));
        assert!(hit2, "{name}: second lookup must hit");
        assert!(Arc::ptr_eq(&first, &cached), "{name}: hit must return the same setup");
        let fresh = antmoc::build_setup(&config);
        assert_setups_bitwise_identical(&cached, &fresh, name);
    }
}

#[test]
fn explicit_storage_and_exp_tables_survive_rehydration_bitwise() {
    // The shipped suite runs OTF + intrinsic; force the resident segment
    // store on the smallest case so its rehydration path is exercised
    // too. A table job's exp table lives in its arena, not in the setup.
    let mut config = shipped_case("pin_cell.toml");
    config.mode = antmoc_solver::StorageMode::Explicit;
    config.kernel.exp = antmoc_solver::ExpMode::Table;
    let cache = SetupCache::new(4);
    let (cached, _) = cache.get_or_build(cache_key(&config), || antmoc::build_setup(&config));
    assert!(cached.segsrc.num_resident() > 0, "explicit mode must store segments");
    let fresh = antmoc::build_setup(&config);
    assert_setups_bitwise_identical(&cached, &fresh, "pin_cell+explicit+table");
}

/// A small valid lattice case parameterized on every key-relevant field
/// the declarative format reaches, plus solver knobs that must NOT be
/// key-relevant.
fn case_text(pitch: f64, radius_frac: f64, n: usize, dz: f64, num_azim: usize, tol: f64) -> String {
    let row: String = "P".repeat(n);
    let rows: Vec<String> = (0..n).map(|_| format!("  {row:?},")).collect();
    format!(
        r#"[case]
name = "prop-key"
kind = "eigenvalue"

[materials]
library = "c5g7"

[[pin]]
name = "p"
fuel = "UO2"
moderator = "moderator"
pitch = {pitch:?}
radius = {radius:?}

[[lattice]]
name = "lat"
pitch = [{pitch:?}, {pitch:?}]
key = {{ P = "p" }}
rows = [
{rows}
]

[core]
root = "lat"

[[zone]]
from = 0.0
to = 2.0

[axial]
dz = {dz:?}

[tracks]
num_azim = {num_azim}

[solver]
backend = "cpu-serial"
tolerance = {tol:?}
"#,
        radius = pitch * radius_frac,
        rows = rows.join("\n"),
    )
}

fn key_of(text: &str) -> u64 {
    let spec = CaseSpec::parse(text).unwrap();
    cache_key(&antmoc::RunConfig::from_case(&spec).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Any key-relevant perturbation — including a last-ulp float nudge —
    // separates the keys; a solver-only perturbation never does.
    #[test]
    fn key_relevant_fields_never_collide_and_solver_state_always_shares(
        pitch in 0.8f64..2.0,
        radius_frac in 0.25f64..0.45,
        n in 1usize..4,
        dz in 0.5f64..2.0,
        which in 0usize..4,
    ) {
        let base = case_text(pitch, radius_frac, n, dz, 4, 1e-4);
        let base_key = key_of(&base);

        let perturbed = match which {
            // Geometry: one-ulp pitch change.
            0 => case_text(f64::from_bits(pitch.to_bits() + 1), radius_frac, n, dz, 4, 1e-4),
            // Geometry: lattice dimension.
            1 => case_text(pitch, radius_frac, n + 1, dz, 4, 1e-4),
            // Axial discretization.
            2 => case_text(pitch, radius_frac, n, f64::from_bits(dz.to_bits() + 1), 4, 1e-4),
            // Quadrature.
            _ => case_text(pitch, radius_frac, n, dz, 8, 1e-4),
        };
        prop_assert!(
            key_of(&perturbed) != base_key,
            "key-relevant perturbation {} must separate keys\nbase key string: {}",
            which, cache_key_string(
                &antmoc::RunConfig::from_case(&CaseSpec::parse(&base).unwrap()).unwrap())
        );

        // Per-job solver state shares the setup.
        let solver_only = case_text(pitch, radius_frac, n, dz, 4, 1e-7);
        prop_assert_eq!(key_of(&solver_only), base_key, "solver knobs must not enter the key");
    }
}
