//! The assembled radial geometry: surface/universe/lattice arena, point
//! location, boundary distances, and deterministic FSR enumeration.

use std::collections::HashMap;

use antmoc_xs::MaterialId;

use crate::csg::{Cell, Fill, Lattice, LatticeId, Universe, UniverseId};
use crate::surface::{Surface, SurfaceId, SURFACE_EPS};

/// Identifier of a radial flat source region (a leaf material cell reached
/// through a unique universe/lattice path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FsrId(pub u32);

/// A boundary condition on one face of the domain box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bc {
    /// Incoming angular flux is zero.
    Vacuum,
    /// Specular reflection.
    Reflective,
    /// Translation to the opposite face.
    Periodic,
}

/// The four radial faces of the domain box.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    XMin,
    XMax,
    YMin,
    YMax,
}

/// Boundary conditions for all six faces of the extruded domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryConds {
    pub x_min: Bc,
    pub x_max: Bc,
    pub y_min: Bc,
    pub y_max: Bc,
    pub z_min: Bc,
    pub z_max: Bc,
}

impl BoundaryConds {
    /// All-reflective box.
    pub fn reflective() -> Self {
        Self {
            x_min: Bc::Reflective,
            x_max: Bc::Reflective,
            y_min: Bc::Reflective,
            y_max: Bc::Reflective,
            z_min: Bc::Reflective,
            z_max: Bc::Reflective,
        }
    }

    /// All-vacuum box.
    pub fn vacuum() -> Self {
        Self {
            x_min: Bc::Vacuum,
            x_max: Bc::Vacuum,
            y_min: Bc::Vacuum,
            y_max: Bc::Vacuum,
            z_min: Bc::Vacuum,
            z_max: Bc::Vacuum,
        }
    }

    /// The condition on a radial face.
    pub fn radial(&self, face: Face) -> Bc {
        match face {
            Face::XMin => self.x_min,
            Face::XMax => self.x_max,
            Face::YMin => self.y_min,
            Face::YMax => self.y_max,
        }
    }
}

/// Result of locating a point: the FSR, its material, and the nesting path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Located {
    pub fsr: FsrId,
    pub material: MaterialId,
    /// Canonical path tokens (cell indices and lattice `(ix, iy)` pairs).
    pub path: Vec<u32>,
}

/// The radial geometry arena plus the domain box and boundary conditions.
///
/// The radial domain is the axis-aligned rectangle
/// `[x_min, x_max] x [y_min, y_max]`; the root universe's local origin sits
/// at the rectangle's centre. The axial extent `[z_min, z_max]` is carried
/// here too (the axial structure itself lives in [`crate::axial`]).
#[derive(Debug, Clone)]
pub struct Geometry {
    surfaces: Vec<Surface>,
    universes: Vec<Universe>,
    lattices: Vec<Lattice>,
    root: UniverseId,
    /// Global coordinates of the root universe's local origin.
    origin: (f64, f64),
    /// Domain box `(x_min, x_max, y_min, y_max)` in global coordinates.
    /// For a full geometry this is centred on `origin`; a window produced
    /// by [`Geometry::restrict`] can sit anywhere inside the model.
    bounds_box: (f64, f64, f64, f64),
    z_range: (f64, f64),
    bcs: BoundaryConds,
    /// Canonical path -> FSR id (filled by `finalize`).
    fsr_by_path: HashMap<Vec<u32>, FsrId>,
    /// FSR id -> material.
    fsr_material: Vec<MaterialId>,
    /// FSR id -> analytic radial area when known (builder-provided hints).
    fsr_area: Vec<Option<f64>>,
    /// FSR id -> path (inverse of `fsr_by_path`).
    fsr_path: Vec<Vec<u32>>,
}

/// Builder-side arena handles. `GeometryBuilder` keeps construction away
/// from the immutable query API of [`Geometry`].
#[derive(Debug, Default)]
pub struct GeometryBuilder {
    surfaces: Vec<Surface>,
    universes: Vec<Universe>,
    lattices: Vec<Lattice>,
    /// Analytic area hints: (universe, cell index) -> radial area.
    area_hints: HashMap<(u32, u32), f64>,
}

impl GeometryBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a surface, returning its id.
    pub fn add_surface(&mut self, s: Surface) -> SurfaceId {
        self.surfaces.push(s);
        SurfaceId(self.surfaces.len() as u32 - 1)
    }

    /// Adds a universe, returning its id.
    pub fn add_universe(&mut self, u: Universe) -> UniverseId {
        self.universes.push(u);
        UniverseId(self.universes.len() as u32 - 1)
    }

    /// Adds a lattice, returning its id.
    pub fn add_lattice(&mut self, l: Lattice) -> LatticeId {
        self.lattices.push(l);
        LatticeId(self.lattices.len() as u32 - 1)
    }

    /// Records the analytic radial area of a leaf cell (used to validate
    /// track-based volume estimation).
    pub fn set_area_hint(&mut self, u: UniverseId, cell_index: usize, area: f64) {
        self.area_hints.insert((u.0, cell_index as u32), area);
    }

    /// Finalises the geometry: enumerates every FSR (leaf material cell
    /// reachable from the root) in deterministic depth-first order.
    ///
    /// `width`/`height` give the radial box size centred at `origin`;
    /// `z_range` the axial extent.
    pub fn finalize(
        self,
        root: UniverseId,
        width: f64,
        height: f64,
        origin: (f64, f64),
        z_range: (f64, f64),
        bcs: BoundaryConds,
    ) -> Geometry {
        assert!(width > 0.0 && height > 0.0 && z_range.1 > z_range.0);
        let mut g = Geometry {
            surfaces: self.surfaces,
            universes: self.universes,
            lattices: self.lattices,
            root,
            origin,
            bounds_box: (
                origin.0 - width / 2.0,
                origin.0 + width / 2.0,
                origin.1 - height / 2.0,
                origin.1 + height / 2.0,
            ),
            z_range,
            bcs,
            fsr_by_path: HashMap::new(),
            fsr_material: Vec::new(),
            fsr_area: Vec::new(),
            fsr_path: Vec::new(),
        };
        let mut path = Vec::new();
        g.enumerate_universe(root, &mut path, &self.area_hints, 1.0);
        g
    }
}

impl Geometry {
    fn enumerate_universe(
        &mut self,
        u: UniverseId,
        path: &mut Vec<u32>,
        hints: &HashMap<(u32, u32), f64>,
        _scale: f64,
    ) {
        for ci in 0..self.universes[u.0 as usize].cells.len() {
            path.push(ci as u32);
            let fill = self.universes[u.0 as usize].cells[ci].fill;
            match fill {
                Fill::Material(m) => {
                    let id = FsrId(self.fsr_material.len() as u32);
                    self.fsr_by_path.insert(path.clone(), id);
                    self.fsr_material.push(m);
                    self.fsr_area.push(hints.get(&(u.0, ci as u32)).copied());
                    self.fsr_path.push(path.clone());
                }
                Fill::Universe(child) => {
                    self.enumerate_universe(child, path, hints, _scale);
                }
                Fill::Lattice(lid) => {
                    let (nx, ny) = {
                        let l = &self.lattices[lid.0 as usize];
                        (l.nx, l.ny)
                    };
                    for iy in 0..ny {
                        for ix in 0..nx {
                            path.push(ix as u32);
                            path.push(iy as u32);
                            let child = self.lattices[lid.0 as usize].universe_at(ix, iy);
                            self.enumerate_universe(child, path, hints, _scale);
                            path.pop();
                            path.pop();
                        }
                    }
                }
            }
            path.pop();
        }
    }

    /// Number of radial FSRs.
    pub fn num_fsrs(&self) -> usize {
        self.fsr_material.len()
    }

    /// The material filling an FSR.
    pub fn fsr_material(&self, f: FsrId) -> MaterialId {
        self.fsr_material[f.0 as usize]
    }

    /// Analytic radial area of an FSR when the builder provided one.
    pub fn fsr_area_hint(&self, f: FsrId) -> Option<f64> {
        self.fsr_area[f.0 as usize]
    }

    /// The canonical path of an FSR.
    pub fn fsr_path(&self, f: FsrId) -> &[u32] {
        &self.fsr_path[f.0 as usize]
    }

    /// Domain boundary conditions.
    pub fn bcs(&self) -> BoundaryConds {
        self.bcs
    }

    /// Radial box `(x_min, x_max, y_min, y_max)` in global coordinates.
    pub fn bounds(&self) -> (f64, f64, f64, f64) {
        self.bounds_box
    }

    /// Radial widths `(width_x, width_y)`.
    pub fn widths(&self) -> (f64, f64) {
        (self.bounds_box.1 - self.bounds_box.0, self.bounds_box.3 - self.bounds_box.2)
    }

    /// A window view of this geometry: the same CSG model and FSR
    /// enumeration restricted to the radial box `bounds` and axial range
    /// `z_range`, with the window's own boundary conditions. This is how
    /// spatial-decomposition subdomains are made (§3.2 of the paper):
    /// internal faces typically get `Bc::Vacuum` for tracking, with the
    /// flux exchange handled by the domain-decomposed solver.
    pub fn restrict(
        &self,
        bounds: (f64, f64, f64, f64),
        z_range: (f64, f64),
        bcs: BoundaryConds,
    ) -> Geometry {
        let (x0, x1, y0, y1) = bounds;
        let full = self.bounds_box;
        assert!(
            x0 >= full.0 - 1e-9
                && x1 <= full.1 + 1e-9
                && y0 >= full.2 - 1e-9
                && y1 <= full.3 + 1e-9,
            "window {bounds:?} outside model {full:?}"
        );
        assert!(x1 > x0 && y1 > y0 && z_range.1 > z_range.0);
        let mut g = self.clone();
        g.bounds_box = bounds;
        g.z_range = z_range;
        g.bcs = bcs;
        g
    }

    /// Axial extent `(z_min, z_max)`.
    pub fn z_range(&self) -> (f64, f64) {
        self.z_range
    }

    /// Whether a global point is inside the radial box.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let (x0, x1, y0, y1) = self.bounds();
        x >= x0 - SURFACE_EPS
            && x <= x1 + SURFACE_EPS
            && y >= y0 - SURFACE_EPS
            && y <= y1 + SURFACE_EPS
    }

    /// Locates the FSR containing a global point. Returns `None` when the
    /// point is outside the domain box or falls through a gap in the CSG
    /// model (which indicates a malformed geometry).
    pub fn find(&self, x: f64, y: f64) -> Option<Located> {
        if !self.contains(x, y) {
            return None;
        }
        let mut lx = x - self.origin.0;
        let mut ly = y - self.origin.1;
        let mut u = self.root;
        let mut path = Vec::with_capacity(8);
        loop {
            let uni = &self.universes[u.0 as usize];
            let ci = self.match_cell(uni, lx, ly)?;
            path.push(ci as u32);
            match uni.cells[ci].fill {
                Fill::Material(m) => {
                    let fsr = *self.fsr_by_path.get(&path)?;
                    return Some(Located { fsr, material: m, path });
                }
                Fill::Universe(child) => {
                    u = child;
                }
                Fill::Lattice(lid) => {
                    let l = &self.lattices[lid.0 as usize];
                    let (ix, iy) = l.find_cell(lx, ly);
                    path.push(ix as u32);
                    path.push(iy as u32);
                    let (cx, cy) = l.cell_center(ix, iy);
                    lx -= cx;
                    ly -= cy;
                    u = l.universe_at(ix, iy);
                }
            }
        }
    }

    fn match_cell(&self, uni: &Universe, lx: f64, ly: f64) -> Option<usize> {
        uni.cells.iter().position(|cell| {
            cell.region
                .iter()
                .all(|&(sid, sense)| self.surfaces[sid.0 as usize].sense_of(lx, ly) == sense)
        })
    }

    /// Distance from a global point along the unit direction `(ux, uy)` to
    /// the next radial cell boundary or domain face, together with the face
    /// when the domain box is what is hit.
    ///
    /// The returned distance is positive; callers advance by it (plus a
    /// small nudge) and re-locate. The implementation descends the universe
    /// hierarchy once, collecting candidate crossings from every surface of
    /// each visited universe, lattice cell walls, and the domain box.
    pub fn distance_to_boundary(&self, x: f64, y: f64, ux: f64, uy: f64) -> (f64, Option<Face>) {
        let (x0, x1, y0, y1) = self.bounds();
        let mut best = f64::INFINITY;
        let mut face = None;
        // Domain box.
        if ux > 1e-14 {
            let t = (x1 - x) / ux;
            if t > SURFACE_EPS && t < best {
                best = t;
                face = Some(Face::XMax);
            }
        } else if ux < -1e-14 {
            let t = (x0 - x) / ux;
            if t > SURFACE_EPS && t < best {
                best = t;
                face = Some(Face::XMin);
            }
        }
        if uy > 1e-14 {
            let t = (y1 - y) / uy;
            if t > SURFACE_EPS && t < best {
                best = t;
                face = Some(Face::YMax);
            }
        } else if uy < -1e-14 {
            let t = (y0 - y) / uy;
            if t > SURFACE_EPS && t < best {
                best = t;
                face = Some(Face::YMin);
            }
        }

        // Hierarchy descent.
        let mut lx = x - self.origin.0;
        let mut ly = y - self.origin.1;
        let mut u = self.root;
        loop {
            let uni = &self.universes[u.0 as usize];
            // Candidate crossings from every surface referenced by this
            // universe's cells (a crossing of any of them can change the
            // region).
            for cell in &uni.cells {
                for &(sid, _) in &cell.region {
                    if let Some(t) = self.surfaces[sid.0 as usize].distance(lx, ly, ux, uy) {
                        if t < best {
                            best = t;
                            face = None;
                        }
                    }
                }
            }
            let Some(ci) = self.match_cell(uni, lx, ly) else {
                break;
            };
            match uni.cells[ci].fill {
                Fill::Material(_) => break,
                Fill::Universe(child) => {
                    u = child;
                }
                Fill::Lattice(lid) => {
                    let l = &self.lattices[lid.0 as usize];
                    let t = l.distance_to_cell_wall(lx, ly, ux, uy);
                    if t > SURFACE_EPS && t < best {
                        best = t;
                        face = None;
                    }
                    let (ix, iy) = l.find_cell(lx, ly);
                    let (cx, cy) = l.cell_center(ix, iy);
                    lx -= cx;
                    ly -= cy;
                    u = l.universe_at(ix, iy);
                }
            }
        }
        (best, face)
    }

    /// Traces a radial ray from `start` along `phi` through the geometry
    /// until it leaves the domain, returning `(fsr, length)` segments.
    /// Mainly a convenience for tests and volume estimation; the production
    /// tracer lives in `antmoc-track`.
    pub fn trace(&self, start: (f64, f64), phi: f64) -> Vec<(FsrId, f64)> {
        let (uy, ux) = phi.sin_cos();
        let mut segs = Vec::new();
        let mut x = start.0;
        let mut y = start.1;
        // Nudge inside.
        let nudge = 1e-9;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 1_000_000 {
                panic!("trace did not terminate; geometry may have a gap");
            }
            let Some(loc) = self.find(x + ux * nudge, y + uy * nudge) else {
                break;
            };
            let (t, face) = self.distance_to_boundary(x + ux * nudge, y + uy * nudge, ux, uy);
            if !t.is_finite() {
                break;
            }
            let len = t + nudge;
            segs.push((loc.fsr, len));
            x += ux * len;
            y += uy * len;
            if face.is_some() {
                break;
            }
        }
        segs
    }

    /// Iterator over all FSR ids.
    pub fn fsrs(&self) -> impl Iterator<Item = FsrId> {
        (0..self.num_fsrs() as u32).map(FsrId)
    }
}

/// Convenience: build a one-cell homogeneous box geometry (used by tests
/// and micro-benchmarks).
pub fn homogeneous_box(
    material: MaterialId,
    width: f64,
    height: f64,
    z_range: (f64, f64),
    bcs: BoundaryConds,
) -> Geometry {
    let mut b = GeometryBuilder::new();
    let u = b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Material(material) }],
        name: "box".into(),
    });
    b.set_area_hint(u, 0, width * height);
    b.finalize(u, width, height, (0.0, 0.0), z_range, bcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::Sense;

    fn pin_geometry() -> Geometry {
        // A 2x2 lattice of 1cm pin cells, fuel radius 0.4.
        let mut b = GeometryBuilder::new();
        let fuel = MaterialId(0);
        let water = MaterialId(1);
        let circ = b.add_surface(Surface::Circle { x0: 0.0, y0: 0.0, r: 0.4 });
        let pin = b.add_universe(Universe {
            cells: vec![
                Cell { region: vec![(circ, Sense::Negative)], fill: Fill::Material(fuel) },
                Cell { region: vec![(circ, Sense::Positive)], fill: Fill::Material(water) },
            ],
            name: "pin".into(),
        });
        b.set_area_hint(pin, 0, std::f64::consts::PI * 0.16);
        b.set_area_hint(pin, 1, 1.0 - std::f64::consts::PI * 0.16);
        let lat = b.add_lattice(Lattice {
            nx: 2,
            ny: 2,
            pitch_x: 1.0,
            pitch_y: 1.0,
            universes: vec![pin; 4],
            name: "lat".into(),
        });
        let root = b.add_universe(Universe {
            cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
            name: "root".into(),
        });
        b.finalize(root, 2.0, 2.0, (0.0, 0.0), (0.0, 1.0), BoundaryConds::reflective())
    }

    #[test]
    fn enumerates_one_fsr_per_leaf() {
        let g = pin_geometry();
        // 4 lattice positions x 2 cells each.
        assert_eq!(g.num_fsrs(), 8);
    }

    #[test]
    fn find_distinguishes_fuel_and_water() {
        let g = pin_geometry();
        // Centre of cell (0,0) is fuel.
        let f = g.find(-0.5, -0.5).unwrap();
        assert_eq!(f.material, MaterialId(0));
        // Corner of the same cell is water.
        let w = g.find(-0.95, -0.95).unwrap();
        assert_eq!(w.material, MaterialId(1));
        assert_ne!(f.fsr, w.fsr);
    }

    #[test]
    fn same_leaf_in_different_lattice_cells_gets_distinct_fsrs() {
        let g = pin_geometry();
        let a = g.find(-0.5, -0.5).unwrap();
        let b = g.find(0.5, 0.5).unwrap();
        assert_eq!(a.material, b.material);
        assert_ne!(a.fsr, b.fsr);
    }

    #[test]
    fn find_outside_returns_none() {
        let g = pin_geometry();
        assert!(g.find(2.5, 0.0).is_none());
    }

    #[test]
    fn distance_to_boundary_hits_circle() {
        let g = pin_geometry();
        // From the centre of pin (0,0) going +x: circle at 0.4.
        let (t, face) = g.distance_to_boundary(-0.5, -0.5, 1.0, 0.0);
        assert!(face.is_none());
        assert!((t - 0.4).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn distance_to_boundary_reports_domain_face() {
        let g = pin_geometry();
        // From just inside the east edge moving +x, between pins (y on the
        // horizontal wall between cells is fine -- pick mid-pin height).
        let (t, face) = g.distance_to_boundary(0.97, -0.5, 1.0, 0.0);
        assert_eq!(face, Some(Face::XMax));
        assert!((t - 0.03).abs() < 1e-9);
    }

    #[test]
    fn trace_crosses_full_width() {
        let g = pin_geometry();
        let segs = g.trace((-1.0, -0.5), 0.0);
        let total: f64 = segs.iter().map(|s| s.1).sum();
        assert!((total - 2.0).abs() < 1e-6, "total {total}");
        // fuel-water alternation: water, fuel, water, water, fuel, water.
        assert!(segs.len() >= 5);
        let fuel_len: f64 =
            segs.iter().filter(|(f, _)| g.fsr_material(*f) == MaterialId(0)).map(|s| s.1).sum();
        assert!((fuel_len - 1.6).abs() < 1e-6, "fuel length {fuel_len}");
    }

    #[test]
    fn trace_diagonal_has_correct_total_length() {
        let g = pin_geometry();
        let segs = g.trace((-1.0, -1.0), std::f64::consts::FRAC_PI_4);
        let total: f64 = segs.iter().map(|s| s.1).sum();
        assert!((total - 2.0 * 2.0f64.sqrt()).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn homogeneous_box_has_one_fsr() {
        let g = homogeneous_box(MaterialId(0), 3.0, 4.0, (0.0, 2.0), BoundaryConds::vacuum());
        assert_eq!(g.num_fsrs(), 1);
        assert_eq!(g.fsr_area_hint(FsrId(0)), Some(12.0));
        let segs = g.trace((-1.5, 0.0), 0.0);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn restrict_window_keeps_model_but_shrinks_box() {
        let g = pin_geometry();
        let w = g.restrict((0.0, 1.0, -1.0, 1.0), (0.0, 0.5), BoundaryConds::vacuum());
        assert_eq!(w.bounds(), (0.0, 1.0, -1.0, 1.0));
        assert_eq!(w.widths(), (1.0, 2.0));
        assert_eq!(w.z_range(), (0.0, 0.5));
        // Same FSR enumeration as the parent.
        assert_eq!(w.num_fsrs(), g.num_fsrs());
        let a = g.find(0.5, 0.5).unwrap();
        let b = w.find(0.5, 0.5).unwrap();
        assert_eq!(a.fsr, b.fsr);
        // Outside the window is outside, even though the model continues.
        assert!(w.find(-0.5, -0.5).is_none());
        assert!(g.find(-0.5, -0.5).is_some());
        // Domain faces move with the window.
        let (t, face) = w.distance_to_boundary(0.97, 0.5, 1.0, 0.0);
        assert_eq!(face, Some(Face::XMax));
        assert!((t - 0.03).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside model")]
    fn restrict_rejects_outside_window() {
        let g = pin_geometry();
        let _ = g.restrict((0.0, 3.0, -1.0, 1.0), (0.0, 0.5), BoundaryConds::vacuum());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn random_rays_cover_their_chords(
            sx in -0.95f64..0.95,
            sy in -0.95f64..0.95,
            phi in 0.02f64..6.26,
        ) {
            // Trace from an interior point; the summed segment length must
            // equal the chord from the point to the domain exit.
            let g = pin_geometry();
            let (uy, ux) = phi.sin_cos();
            let mut chord = f64::INFINITY;
            if ux > 1e-9 { chord = chord.min((1.0 - sx) / ux); }
            if ux < -1e-9 { chord = chord.min((-1.0 - sx) / ux); }
            if uy > 1e-9 { chord = chord.min((1.0 - sy) / uy); }
            if uy < -1e-9 { chord = chord.min((-1.0 - sy) / uy); }
            proptest::prop_assume!(chord.is_finite() && chord > 1e-3);
            let segs = g.trace((sx, sy), phi);
            let total: f64 = segs.iter().map(|s| s.1).sum();
            proptest::prop_assert!(
                (total - chord).abs() < 1e-5 * chord.max(1.0),
                "total {} vs chord {}", total, chord
            );
        }

        #[test]
        fn find_is_deterministic_and_material_consistent(
            x in -0.999f64..0.999,
            y in -0.999f64..0.999,
        ) {
            let g = pin_geometry();
            let a = g.find(x, y);
            let b = g.find(x, y);
            proptest::prop_assert_eq!(a.clone(), b);
            if let Some(loc) = a {
                proptest::prop_assert_eq!(g.fsr_material(loc.fsr), loc.material);
                // Inside-circle points are fuel; far-corner points water.
                let (ix, iy) = ((x + 1.0).floor() as i32, (y + 1.0).floor() as i32);
                let cx = -1.0 + ix as f64 + 0.5;
                let cy = -1.0 + iy as f64 + 0.5;
                let r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                if r2 < 0.4 * 0.4 - 1e-6 {
                    proptest::prop_assert_eq!(loc.material, MaterialId(0));
                } else if r2 > 0.4 * 0.4 + 1e-6 {
                    proptest::prop_assert_eq!(loc.material, MaterialId(1));
                }
            }
        }
    }

    #[test]
    fn area_hints_survive_enumeration() {
        let g = pin_geometry();
        let total: f64 = g.fsrs().filter_map(|f| g.fsr_area_hint(f)).sum();
        assert!((total - 4.0).abs() < 1e-9);
    }
}
