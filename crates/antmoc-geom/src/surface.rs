//! Radial (x-y plane) surfaces for the extruded CSG geometry.
//!
//! ANT-MOC geometries are *axially extruded*: the radial cross section is
//! described by 2D CSG surfaces and the axial direction by a stack of zones
//! (see [`crate::axial`]). A surface here is therefore a curve in the x-y
//! plane (a line or a circle), which corresponds to an axis-aligned plane or
//! a z-cylinder in 3D.

/// Index of a surface within a [`crate::geometry::Geometry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SurfaceId(pub u32);

/// Which side of a surface a point is on; `Negative` is "inside" for
/// circles (the disk) and the lower half-space for lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    Negative,
    Positive,
}

impl Sense {
    /// The opposite sense.
    pub fn flip(self) -> Self {
        match self {
            Sense::Negative => Sense::Positive,
            Sense::Positive => Sense::Negative,
        }
    }
}

/// A 2D surface: the zero set of a signed function `f(x, y)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Surface {
    /// `x = x0`: `f = x - x0`.
    XPlane { x0: f64 },
    /// `y = y0`: `f = y - y0`.
    YPlane { y0: f64 },
    /// General line `a*x + b*y - c = 0` with `(a, b)` normalised.
    Plane { a: f64, b: f64, c: f64 },
    /// Circle (z-cylinder) centred at `(x0, y0)` with radius `r`:
    /// `f = (x-x0)^2 + (y-y0)^2 - r^2`.
    Circle { x0: f64, y0: f64, r: f64 },
}

/// Tolerance used to decide that a point sits *on* a surface; intersection
/// distances smaller than this are ignored so rays can escape the surface
/// they were just placed on.
pub const SURFACE_EPS: f64 = 1e-10;

impl Surface {
    /// A general line through `(x0, y0)` at angle `phi` (its normal points
    /// to the left of the direction of travel).
    pub fn line_through(x0: f64, y0: f64, phi: f64) -> Self {
        let (s, c) = phi.sin_cos();
        // Direction (c, s); normal (-s, c).
        let a = -s;
        let b = c;
        Surface::Plane { a, b, c: a * x0 + b * y0 }
    }

    /// Signed evaluation: negative inside / below, positive outside / above.
    #[inline]
    fn evaluate(&self, x: f64, y: f64) -> f64 {
        match *self {
            Surface::XPlane { x0 } => x - x0,
            Surface::YPlane { y0 } => y - y0,
            Surface::Plane { a, b, c } => a * x + b * y - c,
            Surface::Circle { x0, y0, r } => {
                let dx = x - x0;
                let dy = y - y0;
                dx * dx + dy * dy - r * r
            }
        }
    }

    /// The [`Sense`] of a point relative to this surface.
    #[inline]
    pub fn sense_of(&self, x: f64, y: f64) -> Sense {
        if self.evaluate(x, y) < 0.0 {
            Sense::Negative
        } else {
            Sense::Positive
        }
    }

    /// Smallest distance `t > SURFACE_EPS` at which the ray
    /// `(x, y) + t * (ux, uy)` crosses the surface, if any.
    pub fn distance(&self, x: f64, y: f64, ux: f64, uy: f64) -> Option<f64> {
        match *self {
            Surface::XPlane { x0 } => ray_plane(x0 - x, ux),
            Surface::YPlane { y0 } => ray_plane(y0 - y, uy),
            Surface::Plane { a, b, c } => {
                let denom = a * ux + b * uy;
                if denom.abs() < 1e-14 {
                    return None;
                }
                let t = (c - a * x - b * y) / denom;
                (t > SURFACE_EPS).then_some(t)
            }
            Surface::Circle { x0, y0, r } => {
                // |p + t u - c|^2 = r^2 with |u| = 1.
                let px = x - x0;
                let py = y - y0;
                let b = px * ux + py * uy;
                let c2 = px * px + py * py - r * r;
                let disc = b * b - c2;
                if disc < 0.0 {
                    return None;
                }
                let sq = disc.sqrt();
                let t1 = -b - sq;
                if t1 > SURFACE_EPS {
                    return Some(t1);
                }
                let t2 = -b + sq;
                (t2 > SURFACE_EPS).then_some(t2)
            }
        }
    }
}

#[inline]
fn ray_plane(delta: f64, u: f64) -> Option<f64> {
    if u.abs() < 1e-14 {
        return None;
    }
    let t = delta / u;
    (t > SURFACE_EPS).then_some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn xplane_senses_and_distance() {
        let s = Surface::XPlane { x0: 1.0 };
        assert_eq!(s.sense_of(0.0, 5.0), Sense::Negative);
        assert_eq!(s.sense_of(2.0, -5.0), Sense::Positive);
        let t = s.distance(0.0, 0.0, 1.0, 0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        assert!(s.distance(0.0, 0.0, -1.0, 0.0).is_none());
        assert!(s.distance(0.0, 0.0, 0.0, 1.0).is_none());
    }

    #[test]
    fn circle_ray_hits_near_side_first() {
        let s = Surface::Circle { x0: 0.0, y0: 0.0, r: 1.0 };
        let t = s.distance(-2.0, 0.0, 1.0, 0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        // From inside: exits at the far side.
        let t = s.distance(0.0, 0.0, 1.0, 0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        // Miss entirely.
        assert!(s.distance(-2.0, 1.5, 1.0, 0.0).is_none());
    }

    #[test]
    fn circle_tangent_ray() {
        let s = Surface::Circle { x0: 0.0, y0: 0.0, r: 1.0 };
        // Grazing ray at y = 1: tangent point counts as a single root.
        let t = s.distance(-2.0, 1.0, 1.0, 0.0);
        // Either a near-tangent hit at t=2 or a clean miss is acceptable
        // numerically, but never a panic.
        if let Some(t) = t {
            assert!((t - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn line_through_respects_direction() {
        let s = Surface::line_through(0.0, 0.0, std::f64::consts::FRAC_PI_4);
        // Point to the left of direction (1,1)/sqrt2 e.g. (-1, 1) => positive.
        assert_eq!(s.sense_of(-1.0, 1.0), Sense::Positive);
        assert_eq!(s.sense_of(1.0, -1.0), Sense::Negative);
        // Points on the line evaluate to ~0.
        assert!(s.evaluate(2.0, 2.0).abs() < 1e-12);
    }

    #[test]
    fn sense_flip_is_involutive() {
        assert_eq!(Sense::Negative.flip(), Sense::Positive);
        assert_eq!(Sense::Positive.flip().flip(), Sense::Positive);
    }

    proptest! {
        #[test]
        fn circle_distance_lands_on_circle(
            px in -3.0f64..3.0, py in -3.0f64..3.0, phi in 0.0f64..6.2
        ) {
            let s = Surface::Circle { x0: 0.5, y0: -0.25, r: 1.0 };
            let (uy, ux) = phi.sin_cos();
            if let Some(t) = s.distance(px, py, ux, uy) {
                let hit = s.evaluate(px + t * ux, py + t * uy);
                prop_assert!(hit.abs() < 1e-7, "residual {hit}");
            }
        }

        #[test]
        fn plane_distance_lands_on_plane(
            px in -3.0f64..3.0, py in -3.0f64..3.0, phi in 0.0f64..6.2,
            lphi in 0.01f64..3.13
        ) {
            let s = Surface::line_through(0.1, 0.2, lphi);
            let (uy, ux) = phi.sin_cos();
            if let Some(t) = s.distance(px, py, ux, uy) {
                prop_assert!(s.evaluate(px + t * ux, py + t * uy).abs() < 1e-8);
            }
        }
    }
}
