//! The OECD/NEA C5G7-MOX seven-group benchmark cross sections.
//!
//! Data transcribed from NEA/NSC/DOC(2001)4 ("Benchmark on deterministic
//! transport calculations without spatial homogenisation"), the problem the
//! ANT-MOC paper validates against (§5, Fig. 6). Group 1 is the fastest.
//! The `total` entries are the benchmark transport-corrected cross sections.
//!
//! Seven materials: UO2 fuel, three MOX enrichments (4.3 %, 7.0 %, 8.7 %),
//! the fission chamber, the guide tube, and the moderator.

use crate::material::{Material, MaterialLibrary};

/// Fission spectrum shared by the fissile C5G7 materials.
const CHI: [f64; 7] = [5.87910e-01, 4.11760e-01, 3.39060e-04, 1.17610e-07, 0.0, 0.0, 0.0];

fn mat(
    name: &str,
    total: [f64; 7],
    absorption: [f64; 7],
    fission: [f64; 7],
    nu: [f64; 7],
    chi: [f64; 7],
    scatter: [[f64; 7]; 7],
) -> Material {
    Material {
        name: name.into(),
        total: total.to_vec(),
        absorption: absorption.to_vec(),
        fission: fission.to_vec(),
        nu: nu.to_vec(),
        chi: chi.to_vec(),
        scatter: scatter.iter().map(|r| r.to_vec()).collect(),
    }
}

/// UO2 fuel.
pub fn uo2() -> Material {
    mat(
        "UO2",
        [1.77949e-01, 3.29805e-01, 4.80388e-01, 5.54367e-01, 3.11801e-01, 3.95168e-01, 5.64406e-01],
        [8.02480e-03, 3.71740e-03, 2.67690e-02, 9.62360e-02, 3.00200e-02, 1.11260e-01, 2.82780e-01],
        [7.21206e-03, 8.19301e-04, 6.45320e-03, 1.85648e-02, 1.78084e-02, 8.30348e-02, 2.16004e-01],
        [2.78145, 2.47443, 2.43383, 2.43380, 2.43380, 2.43380, 2.43380],
        CHI,
        [
            [1.27537e-01, 4.23780e-02, 9.43740e-06, 5.51630e-09, 0.0, 0.0, 0.0],
            [0.0, 3.24456e-01, 1.63140e-03, 3.14270e-09, 0.0, 0.0, 0.0],
            [0.0, 0.0, 4.50940e-01, 2.67920e-03, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 4.52565e-01, 5.56640e-03, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.25250e-04, 2.71401e-01, 1.02550e-02, 1.00210e-08],
            [0.0, 0.0, 0.0, 0.0, 1.29680e-03, 2.65802e-01, 1.68090e-02],
            [0.0, 0.0, 0.0, 0.0, 0.0, 8.54580e-03, 2.73080e-01],
        ],
    )
}

/// MOX fuel at 4.3 % enrichment.
pub fn mox43() -> Material {
    mat(
        "MOX-4.3",
        [1.78731e-01, 3.30849e-01, 4.83772e-01, 5.66922e-01, 4.26227e-01, 6.78997e-01, 6.82852e-01],
        [8.43390e-03, 3.75770e-03, 2.79700e-02, 1.04210e-01, 1.39940e-01, 4.09180e-01, 4.09350e-01],
        [7.62704e-03, 8.76898e-04, 5.69835e-03, 2.28872e-02, 1.07635e-02, 2.32757e-01, 2.48968e-01],
        [2.85209, 2.89099, 2.85486, 2.86073, 2.85447, 2.86415, 2.86780],
        CHI,
        [
            [1.28876e-01, 4.14130e-02, 8.22900e-06, 5.04050e-09, 0.0, 0.0, 0.0],
            [0.0, 3.25452e-01, 1.63950e-03, 1.59820e-09, 0.0, 0.0, 0.0],
            [0.0, 0.0, 4.53188e-01, 2.61420e-03, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 4.57173e-01, 5.53940e-03, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.60460e-04, 2.76814e-01, 9.31270e-03, 9.16560e-09],
            [0.0, 0.0, 0.0, 0.0, 2.00510e-03, 2.52962e-01, 1.48500e-02],
            [0.0, 0.0, 0.0, 0.0, 0.0, 8.49480e-03, 2.65007e-01],
        ],
    )
}

/// MOX fuel at 7.0 % enrichment.
pub fn mox70() -> Material {
    mat(
        "MOX-7.0",
        [1.81323e-01, 3.34368e-01, 4.93785e-01, 5.91216e-01, 4.74198e-01, 8.33601e-01, 8.53603e-01],
        [9.06570e-03, 4.29670e-03, 3.28810e-02, 1.22030e-01, 1.82980e-01, 5.68460e-01, 5.85210e-01],
        [8.25446e-03, 1.32565e-03, 8.42156e-03, 3.28730e-02, 1.59636e-02, 3.23794e-01, 3.62803e-01],
        [2.88498, 2.91079, 2.86574, 2.87063, 2.86714, 2.86658, 2.87539],
        CHI,
        [
            [1.30457e-01, 4.17920e-02, 8.51050e-06, 5.13290e-09, 0.0, 0.0, 0.0],
            [0.0, 3.28428e-01, 1.64360e-03, 2.20170e-09, 0.0, 0.0, 0.0],
            [0.0, 0.0, 4.58371e-01, 2.53310e-03, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 4.63709e-01, 5.47660e-03, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.76190e-04, 2.82313e-01, 8.72890e-03, 9.00160e-09],
            [0.0, 0.0, 0.0, 0.0, 2.27600e-03, 2.49751e-01, 1.31140e-02],
            [0.0, 0.0, 0.0, 0.0, 0.0, 8.86450e-03, 2.59529e-01],
        ],
    )
}

/// MOX fuel at 8.7 % enrichment.
pub fn mox87() -> Material {
    mat(
        "MOX-8.7",
        [1.83045e-01, 3.36705e-01, 5.00507e-01, 6.06174e-01, 5.02754e-01, 9.21028e-01, 9.55231e-01],
        [9.48620e-03, 4.65560e-03, 3.62400e-02, 1.32720e-01, 2.08400e-01, 6.58700e-01, 6.90170e-01],
        [8.67209e-03, 1.62426e-03, 1.02716e-02, 3.90447e-02, 1.92576e-02, 3.74888e-01, 4.30599e-01],
        [2.90426, 2.91795, 2.86986, 2.87491, 2.87175, 2.86752, 2.87808],
        CHI,
        [
            [1.31504e-01, 4.20460e-02, 8.69720e-06, 5.19380e-09, 0.0, 0.0, 0.0],
            [0.0, 3.30403e-01, 1.64630e-03, 2.60060e-09, 0.0, 0.0, 0.0],
            [0.0, 0.0, 4.61792e-01, 2.47490e-03, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 4.68021e-01, 5.43300e-03, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.85970e-04, 2.85771e-01, 8.39730e-03, 8.92800e-09],
            [0.0, 0.0, 0.0, 0.0, 2.39160e-03, 2.47614e-01, 1.32220e-02],
            [0.0, 0.0, 0.0, 0.0, 0.0, 8.96810e-03, 2.56093e-01],
        ],
    )
}

/// The fission chamber at the assembly centre.
fn fission_chamber() -> Material {
    mat(
        "fission-chamber",
        [1.26032e-01, 2.93160e-01, 2.84250e-01, 2.81020e-01, 3.34460e-01, 5.65640e-01, 1.17214e+00],
        [5.11320e-04, 7.58130e-05, 3.16430e-04, 1.16750e-03, 3.39770e-03, 9.18860e-03, 2.32440e-02],
        [4.79002e-09, 5.82564e-09, 4.63719e-07, 5.24406e-06, 1.45390e-07, 7.14972e-07, 2.08041e-06],
        [2.76283, 2.46239, 2.43380, 2.43380, 2.43380, 2.43380, 2.43380],
        CHI,
        [
            [6.61659e-02, 5.90700e-02, 2.83340e-04, 1.46220e-06, 2.06420e-08, 0.0, 0.0],
            [0.0, 2.40377e-01, 5.24350e-02, 2.49900e-04, 1.92390e-05, 2.98750e-06, 4.21400e-07],
            [0.0, 0.0, 1.83425e-01, 9.22880e-02, 6.93650e-03, 1.07900e-03, 2.05430e-04],
            [0.0, 0.0, 0.0, 7.90769e-02, 1.69990e-01, 2.58600e-02, 4.92560e-03],
            [0.0, 0.0, 0.0, 3.73400e-05, 9.97570e-02, 2.06790e-01, 2.44780e-02],
            [0.0, 0.0, 0.0, 0.0, 9.17420e-04, 3.16774e-01, 2.38760e-01],
            [0.0, 0.0, 0.0, 0.0, 0.0, 4.97930e-02, 1.09910e+00],
        ],
    )
}

/// The empty guide tube.
pub fn guide_tube() -> Material {
    mat(
        "guide-tube",
        [1.26032e-01, 2.93160e-01, 2.84240e-01, 2.80960e-01, 3.34440e-01, 5.65640e-01, 1.17215e+00],
        [5.11320e-04, 7.58010e-05, 3.15720e-04, 1.15820e-03, 3.39750e-03, 9.18780e-03, 2.32420e-02],
        [0.0; 7],
        [0.0; 7],
        [0.0; 7],
        [
            [6.61659e-02, 5.90700e-02, 2.83340e-04, 1.46220e-06, 2.06420e-08, 0.0, 0.0],
            [0.0, 2.40377e-01, 5.24350e-02, 2.49900e-04, 1.92390e-05, 2.98750e-06, 4.21400e-07],
            [0.0, 0.0, 1.83297e-01, 9.23970e-02, 6.94460e-03, 1.08030e-03, 2.05670e-04],
            [0.0, 0.0, 0.0, 7.88511e-02, 1.70140e-01, 2.58810e-02, 4.92970e-03],
            [0.0, 0.0, 0.0, 3.73330e-05, 9.97372e-02, 2.06790e-01, 2.44780e-02],
            [0.0, 0.0, 0.0, 0.0, 9.17260e-04, 3.16765e-01, 2.38770e-01],
            [0.0, 0.0, 0.0, 0.0, 0.0, 4.97920e-02, 1.09912e+00],
        ],
    )
}

/// The water moderator / reflector.
pub fn moderator() -> Material {
    mat(
        "moderator",
        [1.59206e-01, 4.12970e-01, 5.90310e-01, 5.84350e-01, 7.18000e-01, 1.25445e+00, 2.65038e+00],
        [6.01050e-04, 1.57930e-05, 3.37160e-04, 1.94060e-03, 5.74160e-03, 1.50010e-02, 3.72390e-02],
        [0.0; 7],
        [0.0; 7],
        [0.0; 7],
        [
            [4.44777e-02, 1.13400e-01, 7.23470e-04, 3.74990e-06, 5.31840e-08, 0.0, 0.0],
            [0.0, 2.82334e-01, 1.29940e-01, 6.23400e-04, 4.80020e-05, 7.44860e-06, 1.04550e-06],
            [0.0, 0.0, 3.45256e-01, 2.24570e-01, 1.69990e-02, 2.64430e-03, 5.03440e-04],
            [0.0, 0.0, 0.0, 9.10284e-02, 4.15510e-01, 6.37320e-02, 1.21390e-02],
            [0.0, 0.0, 0.0, 7.14370e-05, 1.39138e-01, 5.11820e-01, 6.12290e-02],
            [0.0, 0.0, 0.0, 0.0, 2.21570e-03, 6.99913e-01, 5.37320e-01],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.32440e-01, 2.48070e+00],
        ],
    )
}

/// Control-rod material for the rodded 3D-extension configurations
/// (strong thermal absorber; simplified homogenised rod data).
fn control_rod() -> Material {
    // The official 3D extension supplies a separate rod table; we use the
    // guide-tube scattering skeleton with strongly increased absorption,
    // which preserves the qualitative rodded-core behaviour the extension
    // exercises (documented substitution; see DESIGN.md).
    let gt = guide_tube();
    let absorption =
        [1.70490e-03, 8.36224e-03, 8.37901e-02, 3.97797e-01, 6.98763e-01, 9.29508e-01, 1.17836e+00];
    let mut total = [0.0f64; 7];
    for g in 0..7 {
        total[g] = absorption[g] + gt.scatter_out(g);
    }
    Material {
        name: "control-rod".into(),
        total: total.to_vec(),
        absorption: absorption.to_vec(),
        fission: vec![0.0; 7],
        nu: vec![0.0; 7],
        chi: vec![0.0; 7],
        scatter: gt.scatter,
    }
}

/// The full seven-material C5G7 library (rod material excluded; add it
/// with [`library_with_rod`] for rodded configurations).
pub fn library() -> MaterialLibrary {
    let mut lib = MaterialLibrary::new();
    lib.add(uo2());
    lib.add(mox43());
    lib.add(mox70());
    lib.add(mox87());
    lib.add(fission_chamber());
    lib.add(guide_tube());
    lib.add(moderator());
    lib
}

/// The C5G7 library extended with the control-rod material.
pub fn library_with_rod() -> MaterialLibrary {
    let mut lib = library();
    lib.add(control_rod());
    lib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_materials_validate() {
        for m in [
            uo2(),
            mox43(),
            mox70(),
            mox87(),
            fission_chamber(),
            guide_tube(),
            moderator(),
            control_rod(),
        ] {
            let problems = m.validate();
            assert!(problems.is_empty(), "{}: {problems:?}", m.name);
        }
    }

    #[test]
    fn fissile_set_is_exactly_fuel_and_chamber() {
        assert!(uo2().is_fissile());
        assert!(mox43().is_fissile());
        assert!(mox70().is_fissile());
        assert!(mox87().is_fissile());
        assert!(fission_chamber().is_fissile());
        assert!(!guide_tube().is_fissile());
        assert!(!moderator().is_fissile());
        assert!(!control_rod().is_fissile());
    }

    #[test]
    fn scattering_is_almost_lower_triangular() {
        // C5G7 fuels have no up-scatter into the first four groups; the
        // only up-scatter entries live in the thermal block (groups 5-7
        // into group 4+, 1-based).
        for m in [uo2(), mox43(), mox70(), mox87()] {
            for from in 0..7 {
                for to in 0..from.min(3) {
                    assert_eq!(m.scatter[from][to], 0.0, "{}: {from}->{to}", m.name);
                }
            }
        }
    }

    /// Infinite-medium k from the group data by power iteration on
    /// `total_g phi_g = chi_g F / k + sum_h s_{h->g} phi_h`.
    fn k_infinity(total: &[f64], scatter: &[Vec<f64>], nusf: &[f64], chi: &[f64]) -> f64 {
        let g = total.len();
        let mut phi = vec![1.0f64; g];
        let mut k = 1.0f64;
        for _ in 0..5000 {
            let fsrc: f64 = (0..g).map(|h| nusf[h] * phi[h]).sum();
            let mut next = vec![0.0f64; g];
            for gi in 0..g {
                let mut inscatter = 0.0;
                for h in 0..g {
                    if h != gi {
                        inscatter += scatter[h][gi] * phi[h];
                    }
                }
                next[gi] = (chi[gi] * fsrc / k + inscatter) / (total[gi] - scatter[gi][gi]);
            }
            let new_f: f64 = (0..g).map(|h| nusf[h] * next[h]).sum();
            k *= new_f / fsrc;
            let norm: f64 = next.iter().sum();
            for v in next.iter_mut() {
                *v /= norm;
            }
            phi = next;
        }
        k
    }

    #[test]
    fn infinite_medium_k_of_pure_uo2_is_undermoderated() {
        // Pure fuel with no moderator stays fast-spectrum and subcritical
        // for this data (~0.74).
        let m = uo2();
        let nusf: Vec<f64> = (0..7).map(|g| m.nu_sigma_f(g)).collect();
        let k = k_infinity(&m.total, &m.scatter, &nusf, &m.chi);
        assert!(k > 0.6 && k < 0.9, "pure-UO2 k-infinity {k}");
    }

    #[test]
    fn infinite_medium_k_of_moderated_uo2_is_supercritical() {
        // Volume-homogenised pin cell: fuel radius 0.54 cm in a 1.26 cm
        // pitch => fuel fraction ~0.577. The moderated mixture must be
        // comfortably supercritical (full C5G7 pin-cell k-inf ~1.33).
        let fuel = uo2();
        let water = moderator();
        let f = std::f64::consts::PI * 0.54 * 0.54 / (1.26 * 1.26);
        let g = 7;
        let total: Vec<f64> =
            (0..g).map(|i| f * fuel.total[i] + (1.0 - f) * water.total[i]).collect();
        let scatter: Vec<Vec<f64>> = (0..g)
            .map(|i| {
                (0..g).map(|j| f * fuel.scatter[i][j] + (1.0 - f) * water.scatter[i][j]).collect()
            })
            .collect();
        let nusf: Vec<f64> = (0..g).map(|i| f * fuel.nu_sigma_f(i)).collect();
        let k = k_infinity(&total, &scatter, &nusf, &fuel.chi);
        assert!(k > 1.15 && k < 1.55, "moderated k-infinity {k}");
    }

    #[test]
    fn control_rod_absorbs_far_more_than_guide_tube() {
        let rod = control_rod();
        let gt = guide_tube();
        for g in 2..7 {
            assert!(
                rod.absorption[g] > 10.0 * gt.absorption[g],
                "group {g}: rod {} vs tube {}",
                rod.absorption[g],
                gt.absorption[g]
            );
        }
        // Rod total stays consistent with absorption + scatter.
        for g in 0..7 {
            let bal = rod.absorption[g] + rod.scatter_out(g);
            assert!((bal - rod.total[g]).abs() < 1e-9);
        }
    }

    #[test]
    fn library_with_rod_extends_base_library() {
        let base = library();
        let ext = library_with_rod();
        assert_eq!(ext.len(), base.len() + 1);
        assert!(ext.by_name("control-rod").is_some());
        // Base ids are stable across the extension.
        for name in ["UO2", "moderator"] {
            assert_eq!(base.by_name(name).unwrap().0, ext.by_name(name).unwrap().0);
        }
    }

    #[test]
    fn all_c5g7_totals_are_positive_and_bounded() {
        for m in library_with_rod().iter().map(|(_, m)| m) {
            for g in 0..7 {
                assert!(m.total[g] > 0.05 && m.total[g] < 3.0, "{}: {}", m.name, m.total[g]);
            }
        }
    }

    #[test]
    fn moderator_is_strongly_downscattering() {
        let m = moderator();
        // Fast groups scatter mostly downward.
        assert!(m.scatter[0][1] > m.scatter[0][0] * 2.0);
        // Thermal group is dominated by self-scatter.
        assert!(m.scatter[6][6] > 2.0);
    }
}
