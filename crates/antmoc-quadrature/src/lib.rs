//! Angular quadrature sets for the Method of Characteristics.
//!
//! MOC discretises the angular variable of the neutron transport equation
//! into a finite set of directions (the `S_N`-style treatment referenced in
//! §2.1 of the ANT-MOC paper). A direction is the pair of an *azimuthal*
//! angle `phi` in `[0, 2*pi)` (measured in the x-y plane from the +x axis)
//! and a *polar* angle `theta` in `(0, pi)` (measured from the +z axis).
//!
//! The crate provides:
//!
//! * [`AzimuthalQuadrature`] — equally-spaced azimuthal angles with
//!   arc-length weights, plus support for *cyclic-corrected* angles (the
//!   track generator snaps angles so tracks tile the rectangular domain;
//!   the weights then follow the corrected angles).
//! * [`PolarQuadrature`] — Gauss–Legendre (the 3D track laydown's set)
//!   and Tabuchi–Yamamoto (the classic 2D MOC optimised set) over the
//!   polar half-space.
//! * [`Quadrature`] — the product set, exposing per-direction weights that
//!   integrate the unit sphere to `4*pi`.
//!
//! # Normalisation
//!
//! Azimuthal weights sum to `2*pi` over the full circle; polar weights sum
//! to `2` over `(0, pi)` (i.e. they are weights in `d(cos theta)`). The
//! product therefore integrates to `4*pi`, which is the convention used by
//! the flat-source solver in `antmoc-solver`.

pub mod azimuthal;
pub mod polar;

pub use azimuthal::AzimuthalQuadrature;
pub use polar::{PolarQuadrature, PolarType};

/// A full product quadrature over the unit sphere.
///
/// Directions are indexed by `(azim, polar)` where `azim` ranges over
/// `0..num_azim()` (covering `[0, 2*pi)`) and `polar` over
/// `0..num_polar()` (covering `(0, pi)`, upward angles first).
#[derive(Debug, Clone)]
pub struct Quadrature {
    azim: AzimuthalQuadrature,
    polar: PolarQuadrature,
}

impl Quadrature {
    /// Builds the product quadrature from its two factors.
    pub fn new(azim: AzimuthalQuadrature, polar: PolarQuadrature) -> Self {
        Self { azim, polar }
    }

    /// The azimuthal factor.
    pub fn azimuthal(&self) -> &AzimuthalQuadrature {
        &self.azim
    }

    /// The polar factor.
    pub fn polar(&self) -> &PolarQuadrature {
        &self.polar
    }

    /// Number of azimuthal angles over the full `[0, 2*pi)` circle.
    pub fn num_azim(&self) -> usize {
        self.azim.num_azim()
    }

    /// Number of polar angles over `(0, pi)`.
    pub fn num_polar(&self) -> usize {
        self.polar.num_polar()
    }

    /// Combined direction weight; the sum over all `(a, p)` is `4*pi`.
    pub fn weight(&self, azim: usize, polar: usize) -> f64 {
        self.azim.weight(azim) * self.polar.weight(polar)
    }

    /// Unit direction vector `(x, y, z)` for direction `(azim, polar)`.
    pub fn direction(&self, azim: usize, polar: usize) -> [f64; 3] {
        let phi = self.azim.phi(azim);
        let theta = self.polar.theta(polar);
        let st = theta.sin();
        [st * phi.cos(), st * phi.sin(), theta.cos()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// `num_azim` equally spaced azimuthal angles times `num_polar` polar
    /// angles of the given family.
    fn product(num_azim: usize, num_polar: usize, ty: PolarType) -> Quadrature {
        Quadrature::new(
            AzimuthalQuadrature::equal_angle(num_azim),
            PolarQuadrature::new(ty, num_polar),
        )
    }

    #[test]
    fn product_weights_integrate_to_4pi() {
        for &(na, np) in &[(4usize, 2usize), (8, 4), (16, 6), (32, 2)] {
            for ty in [PolarType::GaussLegendre, PolarType::TabuchiYamamoto] {
                let q = product(na, np, ty);
                let total: f64 = (0..na)
                    .flat_map(|a| (0..np).map(move |p| (a, p)))
                    .map(|(a, p)| q.weight(a, p))
                    .sum();
                assert!(
                    (total - 4.0 * PI).abs() < 1e-9,
                    "total weight {total} for na={na} np={np} {ty:?}"
                );
            }
        }
    }

    #[test]
    fn directions_are_unit_vectors() {
        let q = product(8, 4, PolarType::GaussLegendre);
        for a in 0..q.num_azim() {
            for p in 0..q.num_polar() {
                let d = q.direction(a, p);
                let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                assert!((n - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn first_moment_vanishes_by_symmetry() {
        // An even quadrature set must integrate odd functions (each
        // direction component) to zero.
        let q = product(16, 4, PolarType::GaussLegendre);
        let mut m = [0.0f64; 3];
        for a in 0..q.num_azim() {
            for p in 0..q.num_polar() {
                let w = q.weight(a, p);
                let d = q.direction(a, p);
                for i in 0..3 {
                    m[i] += w * d[i];
                }
            }
        }
        for v in m {
            assert!(v.abs() < 1e-9, "first moment {m:?}");
        }
    }

    #[test]
    fn second_moment_is_isotropic() {
        // integral over sphere of omega_i^2 = 4*pi/3 for each i.
        let q = product(32, 6, PolarType::GaussLegendre);
        for i in 0..3 {
            let mut m = 0.0;
            for a in 0..q.num_azim() {
                for p in 0..q.num_polar() {
                    let w = q.weight(a, p);
                    let d = q.direction(a, p);
                    m += w * d[i] * d[i];
                }
            }
            assert!((m - 4.0 * PI / 3.0).abs() < 1e-6, "second moment component {i}: {m}");
        }
    }
}
