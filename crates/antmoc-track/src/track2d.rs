//! Cyclic (modular) 2D track generation and boundary linking.
//!
//! Tracks are laid down so that the set is *cyclic*: a track leaving the
//! rectangular domain through any face, reflected (or translated, for
//! periodic boundaries), lands exactly on the start or end point of
//! another track of the complementary angle. This is what lets MOC pass
//! outgoing angular flux directly to the next track without interpolation,
//! and it is the property the ANT-MOC spatial decomposition leans on to
//! align tracks at subdomain interfaces (§2.1, §3.2).
//!
//! The laydown follows the standard modular scheme: for each desired
//! azimuthal angle the generator snaps the angle so that an integer number
//! of equally spaced tracks crosses the bottom and left edges
//! (`tan(phi') = (H * nx) / (W * ny)`), then places `nx` starts on the
//! bottom (or top) edge and `ny` on the left (or right) edge.

use std::collections::HashMap;
use std::f64::consts::PI;

use antmoc_geom::{Bc, Face, Geometry};
use antmoc_quadrature::AzimuthalQuadrature;

/// Index of a 2D track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub u32);

/// What continues a track beyond a domain face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// The boundary is vacuum: incoming flux is zero.
    Vacuum,
    /// Flux continues on `track`; `forward` tells whether it enters at
    /// that track's start (traversing forward) or at its end (backward).
    Next { track: TrackId, forward: bool },
}

/// A single 2D track.
#[derive(Debug, Clone)]
pub struct Track2d {
    /// Azimuthal half-set index (angle in `(0, pi)`).
    pub azim: usize,
    /// Start point (on a domain face).
    pub start: (f64, f64),
    /// End point (on a domain face).
    pub end: (f64, f64),
    /// Corrected azimuthal angle in `(0, pi)`.
    pub phi: f64,
    /// Track length.
    pub length: f64,
    /// Continuation when leaving through the end point.
    pub fwd: Link,
    /// Continuation when leaving through the start point (traversing the
    /// track backwards).
    pub bwd: Link,
}

/// The generated 2D track set.
#[derive(Debug, Clone)]
pub struct TrackSet2d {
    pub tracks: Vec<Track2d>,
    /// Corrected azimuthal quadrature (angles snapped by the laydown).
    pub quadrature: AzimuthalQuadrature,
    /// Effective track spacing per half-set angle index.
    pub spacings: Vec<f64>,
    /// Tracks-per-angle (`nx + ny`) per half-set angle index.
    pub counts: Vec<usize>,
}

impl TrackSet2d {
    /// Total number of 2D tracks (the paper's `N_2D`, Eq. 2).
    pub fn num_tracks(&self) -> usize {
        self.tracks.len()
    }
}

/// Laydown parameters for one corrected angle.
#[derive(Debug, Clone, Copy)]
struct Laydown {
    phi: f64,
    nx: usize,
    ny: usize,
    spacing: f64,
}

/// Computes the corrected laydown for desired angle `phi` (in `(0, pi/2)`)
/// and desired spacing on a `w x h` rectangle.
fn correct_angle(w: f64, h: f64, phi: f64, spacing: f64) -> Laydown {
    assert!(phi > 0.0 && phi < PI / 2.0);
    let nx = ((w / spacing * phi.sin()).abs() as usize) + 1;
    let ny = ((h / spacing * phi.cos()).abs() as usize) + 1;
    let phi_eff = ((h * nx as f64) / (w * ny as f64)).atan();
    let spacing_eff = (w / nx as f64) * phi_eff.sin();
    Laydown { phi: phi_eff, nx, ny, spacing: spacing_eff }
}

/// Generates the cyclic 2D track set for a geometry.
///
/// `num_azim` is the number of azimuthal angles over `[0, 2*pi)` (a
/// positive multiple of 4); `spacing` the desired perpendicular distance
/// between parallel tracks. Linking honours the geometry's radial
/// boundary conditions.
pub fn generate(geometry: &Geometry, num_azim: usize, spacing: f64) -> TrackSet2d {
    assert!(
        num_azim >= 4 && num_azim.is_multiple_of(4),
        "num_azim must be a positive multiple of 4"
    );
    assert!(spacing > 0.0, "spacing must be positive");
    let (w, h) = geometry.widths();
    let (x0, _x1, y0, _y1) = geometry.bounds();
    let half = num_azim / 2;
    let quarter = num_azim / 4;

    // Corrected laydowns for the first quadrant; complementary angles
    // share nx/ny mirrored.
    let mut laydowns: Vec<Laydown> = Vec::with_capacity(half);
    for a in 0..quarter {
        let desired = 2.0 * PI / num_azim as f64 * (a as f64 + 0.5);
        laydowns.push(correct_angle(w, h, desired, spacing));
    }
    // Obtuse angles mirror the acute set: phi_c = pi - phi_a, reversed
    // order so angles stay ascending.
    for a in 0..quarter {
        let base = laydowns[quarter - 1 - a];
        laydowns.push(Laydown { phi: PI - base.phi, ..base });
    }

    let angles: Vec<f64> = laydowns.iter().map(|l| l.phi).collect();
    let quadrature = AzimuthalQuadrature::with_corrected_angles(angles);
    let spacings: Vec<f64> = laydowns.iter().map(|l| l.spacing).collect();
    let counts: Vec<usize> = laydowns.iter().map(|l| l.nx + l.ny).collect();

    // Lay tracks. For acute angles (phi < pi/2): starts on the bottom
    // edge (nx of them, moving up-right) and the left edge (ny). For
    // obtuse: starts on the bottom edge (moving up-left) and the right
    // edge.
    let mut tracks: Vec<Track2d> = Vec::new();
    for (a, l) in laydowns.iter().enumerate() {
        let acute = l.phi < PI / 2.0;
        let dxs = w / l.nx as f64;
        let dys = h / l.ny as f64;
        let dir = (l.phi.cos(), l.phi.sin());
        for i in 0..l.nx {
            let sx = if acute {
                x0 + (l.nx as f64 - i as f64 - 0.5) * dxs
            } else {
                x0 + (i as f64 + 0.5) * dxs
            };
            let start = (sx, y0);
            tracks.push(make_track(geometry, a, start, dir, l.phi));
        }
        for j in 0..l.ny {
            let sy = y0 + (j as f64 + 0.5) * dys;
            let start = if acute { (x0, sy) } else { (x0 + w, sy) };
            tracks.push(make_track(geometry, a, start, dir, l.phi));
        }
    }

    link_tracks(geometry, &mut tracks, &quadrature);

    TrackSet2d { tracks, quadrature, spacings, counts }
}

/// Builds one track from a boundary start point and a direction by
/// intersecting with the domain box.
fn make_track(
    geometry: &Geometry,
    azim: usize,
    start: (f64, f64),
    dir: (f64, f64),
    phi: f64,
) -> Track2d {
    let (x0, x1, y0, y1) = geometry.bounds();
    // Distance to each face along dir; the nearest positive is the end.
    let mut t_end = f64::INFINITY;
    if dir.0 > 1e-14 {
        t_end = t_end.min((x1 - start.0) / dir.0);
    } else if dir.0 < -1e-14 {
        t_end = t_end.min((x0 - start.0) / dir.0);
    }
    if dir.1 > 1e-14 {
        t_end = t_end.min((y1 - start.1) / dir.1);
    } else if dir.1 < -1e-14 {
        t_end = t_end.min((y0 - start.1) / dir.1);
    }
    assert!(t_end.is_finite() && t_end > 0.0, "degenerate track at {start:?} dir {dir:?}");
    let end = (start.0 + dir.0 * t_end, start.1 + dir.1 * t_end);
    Track2d { azim, start, end, phi, length: t_end, fwd: Link::Vacuum, bwd: Link::Vacuum }
}

/// Quantisation for endpoint matching (cm). Laydown coordinates are exact
/// rationals of the box size, so float error is ~1e-12; 1e-7 is safely
/// coarse for cm-scale reactors yet far below any spacing.
const KEY_QUANTUM: f64 = 1e-7;

fn key_of(x: f64, y: f64, azim: usize, forward: bool) -> (i64, i64, usize, bool) {
    ((x / KEY_QUANTUM).round() as i64, (y / KEY_QUANTUM).round() as i64, azim, forward)
}

/// Which face a boundary point belongs to (ties broken arbitrarily; track
/// endpoints always lie on exactly one face for non-corner exits).
fn face_of(geometry: &Geometry, p: (f64, f64)) -> Option<Face> {
    let (x0, x1, y0, y1) = geometry.bounds();
    let eps = 1e-9 * (x1 - x0).max(y1 - y0);
    if (p.0 - x0).abs() < eps {
        Some(Face::XMin)
    } else if (p.0 - x1).abs() < eps {
        Some(Face::XMax)
    } else if (p.1 - y0).abs() < eps {
        Some(Face::YMin)
    } else if (p.1 - y1).abs() < eps {
        Some(Face::YMax)
    } else {
        None
    }
}

/// Fills in `fwd`/`bwd` links for all tracks from the geometry's boundary
/// conditions by exact endpoint matching.
fn link_tracks(geometry: &Geometry, tracks: &mut [Track2d], quad: &AzimuthalQuadrature) {
    // Entry map: where can flux enter a track? Key is the entry point and
    // the direction of travel, expressed as (azim half index, forward).
    let mut entries: HashMap<(i64, i64, usize, bool), TrackId> = HashMap::new();
    for (i, t) in tracks.iter().enumerate() {
        entries.insert(key_of(t.start.0, t.start.1, t.azim, true), TrackId(i as u32));
        entries.insert(key_of(t.end.0, t.end.1, t.azim, false), TrackId(i as u32));
    }

    let (x0, x1, y0, y1) = geometry.bounds();
    let bcs = geometry.bcs();

    let link_for = |exit: (f64, f64), azim: usize, forward: bool| -> Link {
        let Some(face) = face_of(geometry, exit) else {
            panic!("track endpoint {exit:?} is not on a domain face");
        };
        let bc = bcs.radial(face);
        if bc == Bc::Vacuum {
            return Link::Vacuum;
        }
        // Reflected/translated entry state.
        let (p2, azim2, forward2) = match (bc, face) {
            (Bc::Reflective, Face::XMin | Face::XMax) => (exit, quad.complement(azim), forward),
            (Bc::Reflective, Face::YMin | Face::YMax) => (exit, quad.complement(azim), !forward),
            (Bc::Periodic, Face::XMin) => ((x1, exit.1), azim, forward),
            (Bc::Periodic, Face::XMax) => ((x0, exit.1), azim, forward),
            (Bc::Periodic, Face::YMin) => ((exit.0, y1), azim, forward),
            (Bc::Periodic, Face::YMax) => ((exit.0, y0), azim, forward),
            (Bc::Vacuum, _) => unreachable!(),
        };
        let base = key_of(p2.0, p2.1, azim2, forward2);
        // Tolerate one quantum of rounding skew in each coordinate.
        for dx in [0i64, -1, 1] {
            for dy in [0i64, -1, 1] {
                let k = (base.0 + dx, base.1 + dy, base.2, base.3);
                if let Some(&t) = entries.get(&k) {
                    return Link::Next { track: t, forward: forward2 };
                }
            }
        }
        panic!(
            "no cyclic continuation at {exit:?} (face {face:?}, azim {azim} -> {azim2}, forward {forward2}); laydown is not cyclic"
        );
    };

    for i in 0..tracks.len() {
        let (end, start, azim) = (tracks[i].end, tracks[i].start, tracks[i].azim);
        // Forward exit: direction of travel is "forward" along angle azim.
        tracks[i].fwd = link_for(end, azim, true);
        // Backward exit at the start point: direction is "backward".
        tracks[i].bwd = link_for(start, azim, false);
    }
}

/// Reflection sanity for y-face reflections used in `link_for`:
/// reflecting direction `phi` (forward) about a y-normal face gives
/// `2*pi - phi`, which travels *backward* along the complementary angle
/// `pi - phi`; about an x-normal face gives `pi - phi` itself (forward).
#[cfg(test)]
mod tests {
    use super::*;
    use antmoc_geom::{geometry::homogeneous_box, BoundaryConds};
    use antmoc_xs::MaterialId;

    fn boxed(bcs: BoundaryConds) -> Geometry {
        homogeneous_box(MaterialId(0), 4.0, 3.0, (0.0, 1.0), bcs)
    }

    #[test]
    fn corrected_angle_is_cyclic() {
        let l = correct_angle(4.0, 3.0, 0.6, 0.1);
        // tan(phi) = (h*nx)/(w*ny) exactly.
        let expect = ((3.0 * l.nx as f64) / (4.0 * l.ny as f64)).atan();
        assert_eq!(l.phi, expect);
        assert!(l.spacing <= 0.1 + 1e-12);
    }

    #[test]
    fn generates_expected_track_count() {
        let g = boxed(BoundaryConds::reflective());
        let set = generate(&g, 8, 0.3);
        let total: usize = set.counts.iter().sum();
        assert_eq!(set.num_tracks(), total);
        assert_eq!(set.counts.len(), 4);
        // Complementary pairs share counts.
        assert_eq!(set.counts[0], set.counts[3]);
        assert_eq!(set.counts[1], set.counts[2]);
    }

    #[test]
    fn tracks_start_and_end_on_faces() {
        let g = boxed(BoundaryConds::reflective());
        let set = generate(&g, 16, 0.25);
        for t in &set.tracks {
            assert!(face_of(&g, t.start).is_some(), "start {:?}", t.start);
            assert!(face_of(&g, t.end).is_some(), "end {:?}", t.end);
            assert!(t.length > 0.0);
            // Direction matches phi.
            let d = ((t.end.0 - t.start.0), (t.end.1 - t.start.1));
            let phi = d.1.atan2(d.0);
            assert!((phi - t.phi).abs() < 1e-9, "{phi} vs {}", t.phi);
        }
    }

    #[test]
    fn reflective_links_are_total_and_reciprocal() {
        let g = boxed(BoundaryConds::reflective());
        let set = generate(&g, 8, 0.4);
        for (i, t) in set.tracks.iter().enumerate() {
            for (link, leaving_forward) in [(t.fwd, true), (t.bwd, false)] {
                let Link::Next { track, forward } = link else {
                    panic!("vacuum link on a reflective box");
                };
                // Reciprocity: the linked track, traversed against its
                // entry direction, must link straight back to us.
                let other = &set.tracks[track.0 as usize];
                let back = if forward { other.bwd } else { other.fwd };
                assert_eq!(
                    back,
                    Link::Next { track: TrackId(i as u32), forward: !leaving_forward },
                    "track {i} link {link:?} not reciprocal"
                );
            }
        }
    }

    #[test]
    fn vacuum_box_has_only_vacuum_links() {
        let g = boxed(BoundaryConds::vacuum());
        let set = generate(&g, 8, 0.4);
        for t in &set.tracks {
            assert_eq!(t.fwd, Link::Vacuum);
            assert_eq!(t.bwd, Link::Vacuum);
        }
    }

    #[test]
    fn periodic_links_preserve_angle() {
        let mut bcs = BoundaryConds::reflective();
        bcs.x_min = Bc::Periodic;
        bcs.x_max = Bc::Periodic;
        bcs.y_min = Bc::Periodic;
        bcs.y_max = Bc::Periodic;
        let g = boxed(bcs);
        let set = generate(&g, 8, 0.4);
        for t in &set.tracks {
            let Link::Next { track, forward } = t.fwd else {
                panic!("periodic box must link");
            };
            assert!(forward, "periodic continuation keeps the direction");
            assert_eq!(set.tracks[track.0 as usize].azim, t.azim);
        }
    }

    #[test]
    fn cyclic_walk_returns_to_start() {
        // Following forward links on a reflective box must cycle (the
        // defining property of cyclic tracking).
        let g = boxed(BoundaryConds::reflective());
        let set = generate(&g, 8, 0.5);
        let start = TrackId(0);
        let mut cur = start;
        let mut fwd = true;
        for step in 1..=10_000 {
            let t = &set.tracks[cur.0 as usize];
            let link = if fwd { t.fwd } else { t.bwd };
            let Link::Next { track, forward } = link else { panic!("vacuum in reflective box") };
            cur = track;
            fwd = forward;
            if cur == start && fwd {
                assert!(step > 1);
                return;
            }
        }
        panic!("did not cycle within 10k steps");
    }

    #[test]
    fn spacing_never_exceeds_requested() {
        let g = boxed(BoundaryConds::reflective());
        for req in [0.5, 0.2, 0.05] {
            let set = generate(&g, 32, req);
            for s in &set.spacings {
                assert!(*s <= req + 1e-12, "spacing {s} > requested {req}");
            }
        }
    }

    #[test]
    fn finer_spacing_means_more_tracks() {
        let g = boxed(BoundaryConds::reflective());
        let coarse = generate(&g, 8, 0.5).num_tracks();
        let fine = generate(&g, 8, 0.05).num_tracks();
        assert!(fine > coarse * 5, "coarse {coarse} fine {fine}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn cyclic_linking_holds_on_random_boxes(
            w in 1.0f64..10.0,
            h in 1.0f64..10.0,
            na_pow in 1u32..4,
            spacing in 0.05f64..0.9,
        ) {
            let na = 4usize << na_pow; // 8..32
            let g = homogeneous_box(MaterialId(0), w, h, (0.0, 1.0), BoundaryConds::reflective());
            let set = generate(&g, na, spacing);
            // Every link resolves and is reciprocal (the panic inside
            // link_tracks would already fail the test if the laydown were
            // not cyclic).
            for (i, t) in set.tracks.iter().enumerate() {
                for (link, leaving_forward) in [(t.fwd, true), (t.bwd, false)] {
                    let Link::Next { track, forward } = link else {
                        proptest::prop_assert!(false, "vacuum link on reflective box");
                        unreachable!();
                    };
                    let other = &set.tracks[track.0 as usize];
                    let back = if forward { other.bwd } else { other.fwd };
                    proptest::prop_assert_eq!(
                        back,
                        Link::Next { track: TrackId(i as u32), forward: !leaving_forward }
                    );
                }
            }
            // Spacing promise kept for every angle.
            for s in &set.spacings {
                proptest::prop_assert!(*s <= spacing + 1e-12);
            }
        }

        #[test]
        fn track_lengths_match_endpoints(
            w in 1.0f64..10.0,
            h in 1.0f64..10.0,
            spacing in 0.1f64..0.9,
        ) {
            let g = homogeneous_box(MaterialId(0), w, h, (0.0, 1.0), BoundaryConds::vacuum());
            let set = generate(&g, 8, spacing);
            for t in &set.tracks {
                let dx = t.end.0 - t.start.0;
                let dy = t.end.1 - t.start.1;
                let len = (dx * dx + dy * dy).sqrt();
                proptest::prop_assert!((len - t.length).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn angular_coverage_spans_half_circle() {
        let g = boxed(BoundaryConds::reflective());
        let set = generate(&g, 16, 0.3);
        let angles = set.quadrature.half_angles();
        assert_eq!(angles.len(), 8);
        assert!(angles[0] > 0.0 && angles[7] < PI);
        for w in angles.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
