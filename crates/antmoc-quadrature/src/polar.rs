//! Polar quadrature: angles measured from the +z axis and weights in
//! `d(cos theta)`.
//!
//! All families store `num_polar` angles over `(0, pi)` with the upward
//! half `(0, pi/2)` first; the downward half mirrors it (`theta -> pi -
//! theta`, same weight). Weights sum to `2` (the measure of `cos theta`
//! over `(-1, 1)`).

/// The supported polar quadrature families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolarType {
    /// Gauss–Legendre nodes in `cos theta`; exact for polynomials in
    /// `cos theta` and the recommended choice for true 3D MOC sweeps.
    GaussLegendre,
    /// The Tabuchi–Yamamoto optimised set (1–3 angles per half-space),
    /// standard in 2D MOC; weights are already `d(cos theta)` weights.
    TabuchiYamamoto,
}

/// Tabuchi–Yamamoto `sin theta` values and weights per half-space.
/// Weights sum to 1 over the half-space (measure `sin theta d theta`).
const TY_SIN: [&[f64]; 3] = [&[0.798184], &[0.363900, 0.899900], &[0.166648, 0.537707, 0.932954]];
const TY_WEIGHT: [&[f64]; 3] = [&[1.0], &[0.212854, 0.787146], &[0.046233, 0.283619, 0.670148]];

/// A polar quadrature over `(0, pi)`.
#[derive(Debug, Clone)]
pub struct PolarQuadrature {
    /// Upward-half angles in `(0, pi/2)`, sorted ascending. Length
    /// `num_polar / 2`.
    half_thetas: Vec<f64>,
    /// Matching weights; sum to 1 per half-space.
    half_weights: Vec<f64>,
}

impl PolarQuadrature {
    /// Builds a polar quadrature with `num_polar` total angles (must be a
    /// positive even number; Tabuchi–Yamamoto supports 2, 4 or 6).
    pub fn new(ty: PolarType, num_polar: usize) -> Self {
        assert!(
            num_polar >= 2 && num_polar.is_multiple_of(2),
            "num_polar must be a positive even number, got {num_polar}"
        );
        let half = num_polar / 2;
        let (half_thetas, half_weights) = match ty {
            PolarType::GaussLegendre => gauss_legendre_half(half),
            PolarType::TabuchiYamamoto => {
                assert!(
                    half <= 3,
                    "Tabuchi–Yamamoto supports at most 6 polar angles, got {num_polar}"
                );
                let thetas: Vec<f64> = TY_SIN[half - 1].iter().map(|s| s.asin()).collect();
                (thetas, TY_WEIGHT[half - 1].to_vec())
            }
        };
        Self { half_thetas, half_weights }
    }

    /// Total number of polar angles over `(0, pi)`.
    pub fn num_polar(&self) -> usize {
        self.half_thetas.len() * 2
    }

    /// Number of upward angles.
    pub fn num_polar_half(&self) -> usize {
        self.half_thetas.len()
    }

    /// The polar angle for index `p`; indices past the half count are the
    /// downward mirrors.
    pub fn theta(&self, p: usize) -> f64 {
        let half = self.half_thetas.len();
        if p < half {
            self.half_thetas[p]
        } else {
            std::f64::consts::PI - self.half_thetas[p - half]
        }
    }

    /// `sin theta` for index `p` (equal for a mirror pair).
    pub fn sin_theta(&self, p: usize) -> f64 {
        self.theta(p).sin()
    }

    /// Weight in `d(cos theta)`; sums to 2 over all indices.
    pub fn weight(&self, p: usize) -> f64 {
        self.half_weights[p % self.half_thetas.len()]
    }

    /// Index of the downward mirror of upward index `p` (or vice versa).
    pub fn mirror(&self, p: usize) -> usize {
        let half = self.half_thetas.len();
        if p < half {
            p + half
        } else {
            p - half
        }
    }
}

/// Gauss–Legendre nodes on `(0, 1)` in `cos theta` (the upward half of the
/// symmetric `(-1, 1)` rule with `2 * half` points), returned as
/// `(thetas ascending, weights)` with weights summing to 1.
fn gauss_legendre_half(half: usize) -> (Vec<f64>, Vec<f64>) {
    let n = half * 2;
    let (nodes, weights) = gauss_legendre(n);
    // Positive-cosine nodes (upward angles). Nodes are symmetric, so take
    // the positive half; theta = acos(node). Larger node => smaller theta;
    // sort thetas ascending.
    let mut pairs: Vec<(f64, f64)> = nodes
        .iter()
        .zip(weights.iter())
        .filter(|(x, _)| **x > 0.0)
        .map(|(x, w)| (x.acos(), *w))
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    (pairs.iter().map(|p| p.0).collect(), pairs.iter().map(|p| p.1).collect())
}

/// Gauss–Legendre nodes and weights on `(-1, 1)` via Newton iteration on
/// the Legendre polynomial `P_n`.
fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let mut nodes = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev-based initial guess.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            let (p, d) = legendre_and_derivative(n, x);
            dp = d;
            let dx = p / d;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    (nodes, weights)
}

/// Evaluates `(P_n(x), P_n'(x))` by the three-term recurrence.
fn legendre_and_derivative(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0;
    let mut p1 = x;
    if n == 0 {
        return (1.0, 0.0);
    }
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    let d = n as f64 * (x * p1 - p0) / (x * x - 1.0);
    (p1, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn gauss_legendre_integrates_polynomials_exactly() {
        // n-point GL is exact through degree 2n-1.
        let (x, w) = gauss_legendre(4);
        for deg in 0..8 {
            let num: f64 = x.iter().zip(&w).map(|(xi, wi)| wi * xi.powi(deg)).sum();
            let exact = if deg % 2 == 1 { 0.0 } else { 2.0 / (deg as f64 + 1.0) };
            assert!((num - exact).abs() < 1e-12, "degree {deg}: {num} vs {exact}");
        }
    }

    #[test]
    fn gauss_legendre_known_2point() {
        let (x, w) = gauss_legendre(2);
        assert!((x[0] + 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert!((x[1] - 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert!((w[0] - 1.0).abs() < 1e-12 && (w[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_families_weights_sum_to_2() {
        for ty in [PolarType::GaussLegendre, PolarType::TabuchiYamamoto] {
            for np in [2usize, 4, 6] {
                let q = PolarQuadrature::new(ty, np);
                let total: f64 = (0..q.num_polar()).map(|p| q.weight(p)).sum();
                assert!((total - 2.0).abs() < 1e-6, "{ty:?} np={np}: {total}");
            }
        }
    }

    #[test]
    fn gl_large_sets_supported() {
        let q = PolarQuadrature::new(PolarType::GaussLegendre, 32);
        let total: f64 = (0..q.num_polar()).map(|p| q.weight(p)).sum();
        assert!((total - 2.0).abs() < 1e-10);
    }

    #[test]
    fn mirror_pairs_are_supplementary() {
        let q = PolarQuadrature::new(PolarType::GaussLegendre, 6);
        for p in 0..3 {
            let m = q.mirror(p);
            assert_eq!(q.mirror(m), p);
            assert!((q.theta(p) + q.theta(m) - PI).abs() < 1e-12);
            assert_eq!(q.weight(p), q.weight(m));
        }
    }

    #[test]
    fn upward_thetas_ascending_and_in_range() {
        for ty in [PolarType::GaussLegendre, PolarType::TabuchiYamamoto] {
            let q = PolarQuadrature::new(ty, 6);
            for p in 0..3 {
                let t = q.theta(p);
                assert!(t > 0.0 && t < PI / 2.0);
                if p > 0 {
                    assert!(q.theta(p) > q.theta(p - 1));
                }
            }
        }
    }

    #[test]
    fn ty_matches_published_values() {
        let q = PolarQuadrature::new(PolarType::TabuchiYamamoto, 4);
        assert!((q.sin_theta(0) - 0.363900).abs() < 1e-6);
        assert!((q.sin_theta(1) - 0.899900).abs() < 1e-6);
        assert!((q.weight(0) - 0.212854).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at most 6")]
    fn ty_rejects_too_many_angles() {
        PolarQuadrature::new(PolarType::TabuchiYamamoto, 8);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_num_polar() {
        PolarQuadrature::new(PolarType::GaussLegendre, 3);
    }
}
