//! Azimuthal quadrature: angles in the x-y plane and their arc weights.
//!
//! Cyclic (modular) track laydown cannot use arbitrary azimuthal angles: the
//! track generator snaps each desired angle to the nearest angle for which an
//! integer number of equally spaced tracks tiles the rectangular domain.
//! [`AzimuthalQuadrature::with_corrected_angles`] accepts those snapped
//! angles and recomputes weights from the actual angular spacing, which is
//! the standard MOC treatment (tracks at angle `phi_a` represent the arc
//! reaching halfway to each neighbouring angle).

use std::f64::consts::PI;

/// Azimuthal angles over `[0, 2*pi)` with quadrature weights summing to
/// `2*pi`.
///
/// Angles are stored for the first half `[0, pi)`; the second half is the
/// mirror set `phi + pi` (a 2D MOC track traversed backwards). Indexing is
/// over the full circle: `a in 0..num_azim`, where `a >= num_azim/2` maps to
/// `phi(a - num_azim/2) + pi` with the same weight.
#[derive(Debug, Clone)]
pub struct AzimuthalQuadrature {
    /// Angles in `[0, pi)`, strictly increasing. Length `num_azim / 2`.
    half_angles: Vec<f64>,
    /// Weight per angle in the half set; the full-circle weight of index
    /// `a` equals `half_weights[a % half]`. Sums to `pi` over the half set.
    half_weights: Vec<f64>,
}

impl AzimuthalQuadrature {
    /// Equally spaced angles: `phi_a = (a + 0.5) * 2*pi / num_azim` for the
    /// first half. `num_azim` must be a positive multiple of 4 so that every
    /// angle has a complement mirrored about `pi/2` (required for reflective
    /// track linking) and no angle is axis-aligned.
    pub fn equal_angle(num_azim: usize) -> Self {
        assert!(
            num_azim >= 4 && num_azim.is_multiple_of(4),
            "num_azim must be a positive multiple of 4, got {num_azim}"
        );
        let half = num_azim / 2;
        let d = 2.0 * PI / num_azim as f64;
        let half_angles: Vec<f64> = (0..half).map(|a| (a as f64 + 0.5) * d).collect();
        let half_weights = vec![d; half];
        Self { half_angles, half_weights }
    }

    /// Builds the quadrature from cyclic-corrected angles for the first
    /// half `[0, pi)`. Angles must be strictly increasing, in `(0, pi)`,
    /// and symmetric about `pi/2` (complementary pairs), which the modular
    /// track generator guarantees. Weights are recomputed from the spacing
    /// between adjacent corrected angles.
    pub fn with_corrected_angles(angles: Vec<f64>) -> Self {
        let half = angles.len();
        assert!(
            half >= 2 && half.is_multiple_of(2),
            "need an even number >= 2 of half-plane angles"
        );
        for w in angles.windows(2) {
            assert!(w[0] < w[1], "angles must be strictly increasing");
        }
        assert!(angles[0] > 0.0 && angles[half - 1] < PI, "angles must lie in (0, pi)");

        // Arc represented by angle a: from the midpoint with its lower
        // neighbour to the midpoint with its upper neighbour. The virtual
        // neighbours below the first and above the last angle are the
        // mirror images at -phi_0 and 2*pi - ... -- equivalently the arc
        // boundaries at 0 and pi extend by the angle itself.
        let mut half_weights = Vec::with_capacity(half);
        for a in 0..half {
            let lo = if a == 0 { 0.0 } else { 0.5 * (angles[a - 1] + angles[a]) };
            let hi = if a == half - 1 { PI } else { 0.5 * (angles[a] + angles[a + 1]) };
            half_weights.push(hi - lo);
        }
        Self { half_angles: angles, half_weights }
    }

    /// Number of azimuthal angles over the full circle.
    pub fn num_azim(&self) -> usize {
        self.half_angles.len() * 2
    }

    /// The azimuthal angle for full-circle index `a`.
    pub fn phi(&self, a: usize) -> f64 {
        let half = self.half_angles.len();
        if a < half {
            self.half_angles[a]
        } else {
            self.half_angles[a - half] + PI
        }
    }

    /// Weight (arc length in radians) for full-circle index `a`; the sum
    /// over all indices is `2*pi`.
    pub fn weight(&self, a: usize) -> f64 {
        self.half_weights[a % self.half_angles.len()]
    }

    /// Index of the angle mirrored about the y-axis (`phi -> pi - phi`)
    /// within the half set — the *complementary* angle used by reflective
    /// track linking on x-normal boundaries.
    pub fn complement(&self, a: usize) -> usize {
        let half = self.half_angles.len();
        let base = a % half;
        half - 1 - base
    }

    /// All half-set angles.
    pub fn half_angles(&self) -> &[f64] {
        &self.half_angles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_angle_weights_sum_to_2pi() {
        for na in [4usize, 8, 16, 64, 128] {
            let q = AzimuthalQuadrature::equal_angle(na);
            let total: f64 = (0..q.num_azim()).map(|a| q.weight(a)).sum();
            assert!((total - 2.0 * PI).abs() < 1e-10);
        }
    }

    #[test]
    fn equal_angle_is_symmetric_about_half_pi() {
        let q = AzimuthalQuadrature::equal_angle(16);
        let h = q.num_azim() / 2;
        for a in 0..h / 2 {
            let c = q.complement(a);
            assert!((q.phi(a) + q.phi(c) - PI).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn rejects_non_multiple_of_4() {
        AzimuthalQuadrature::equal_angle(6);
    }

    #[test]
    fn corrected_angles_weights_sum_to_2pi() {
        // A plausibly snapped set for num_azim = 8 on a square.
        let angles = vec![0.32175, 1.24905, PI - 1.24905, PI - 0.32175];
        let q = AzimuthalQuadrature::with_corrected_angles(angles);
        let total: f64 = (0..q.num_azim()).map(|a| q.weight(a)).sum();
        assert!((total - 2.0 * PI).abs() < 1e-10);
    }

    #[test]
    fn second_half_is_first_half_plus_pi() {
        let q = AzimuthalQuadrature::equal_angle(8);
        for a in 0..4 {
            assert!((q.phi(a + 4) - q.phi(a) - PI).abs() < 1e-12);
            assert_eq!(q.weight(a + 4), q.weight(a));
        }
    }

    proptest! {
        #[test]
        fn corrected_weights_always_total_2pi(n in 1usize..8, seed in 0u64..1000) {
            // Build a random strictly increasing symmetric angle set.
            let half = 2 * n;
            let mut angles = Vec::with_capacity(half);
            let mut x = 0.0f64;
            let mut s = seed;
            for _ in 0..n {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((s >> 33) as f64) / ((1u64 << 31) as f64); // [0, 2)
                x += 0.01 + u * (PI / 2.0 - x - 0.02) / (n as f64 + 1.0);
                angles.push(x);
            }
            let lower: Vec<f64> = angles.clone();
            for &a in lower.iter().rev() {
                angles.push(PI - a);
            }
            let q = AzimuthalQuadrature::with_corrected_angles(angles);
            let total: f64 = (0..q.num_azim()).map(|a| q.weight(a)).sum();
            prop_assert!((total - 2.0 * PI).abs() < 1e-9);
        }
    }
}
