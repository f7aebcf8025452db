//! The assembled radial geometry: surface/universe/lattice arena, point
//! location, boundary distances, and deterministic FSR enumeration.
//!
//! Ray tracing asks one question per step: which FSR holds this point, and
//! how far along the ray is the next radial boundary? [`Geometry::step`]
//! answers both in a single descent root → lattice → universe. At each
//! universe it intersects the universe's distinct surfaces once; at each
//! lattice it measures the wall of the cell it descends into. The domain
//! box is the first candidate, so a tie with a surface keeps the face.
//!
//! FSR ids need no path lookup. [`GeometryBuilder::finalize`] numbers the
//! FSRs depth-first, and the FSRs under one universe are numbered the same
//! way wherever that universe sits. So each cell of a universe and each
//! element of a lattice carries the offset of its first FSR, and the
//! descent sums the offsets of the cells and elements it enters.

use std::collections::HashMap;
use std::sync::Arc;

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
    /// The CSG model and its FSR numbering, shared by clones and by every
    /// window [`Geometry::restrict`] cuts from it.
    model: Arc<Model>,
    /// Domain box `(x_min, x_max, y_min, y_max)` in global coordinates.
    /// For a full geometry this is centred on the model's origin; a window
    /// can sit anywhere inside the model.
    bounds_box: (f64, f64, f64, f64),
    z_range: (f64, f64),
    bcs: BoundaryConds,
}

/// The arena and the FSR tables `finalize` derives from it.
#[derive(Debug)]
struct Model {
    surfaces: Vec<Surface>,
    universes: Vec<Universe>,
    lattices: Vec<Lattice>,
    root: UniverseId,
    /// Global coordinates of the root universe's local origin.
    origin: (f64, f64),
    /// Per universe: its distinct surfaces and its cells' FSR offsets.
    universe_index: Vec<UniverseIndex>,
    /// Per lattice: the FSR offset of each element, row-major like
    /// [`Lattice::universes`], relative to the lattice's first FSR, then
    /// the lattice's FSR count (empty until counted).
    lattice_first: Vec<Vec<u32>>,
    /// FSR id -> material.
    fsr_material: Vec<MaterialId>,
    /// FSR id -> analytic radial area when known (builder-provided hints).
    fsr_area: Vec<Option<f64>>,
    /// Every FSR's canonical path, concatenated in FSR order; FSR `f`'s
    /// path is `fsr_paths[fsr_path_ends[f - 1]..fsr_path_ends[f]]`.
    fsr_paths: Vec<u32>,
    fsr_path_ends: Vec<u32>,
}

/// What the descent reads of a universe besides its cells.
#[derive(Debug, Clone, Default)]
struct UniverseIndex {
    /// The distinct surfaces the cells' regions reference, in order of
    /// first reference: every one a ray can cross to change cell.
    surfaces: Vec<Surface>,
    /// Per cell: the id of its first FSR relative to the universe's first.
    cell_first: Vec<u32>,
    /// FSRs under the universe (`None` until counted).
    fsrs: Option<u32>,
}

/// One tracing step from a point: the FSR that holds it and the distance
/// along the direction to the next radial boundary, with the domain face
/// when that is what ends the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub fsr: FsrId,
    /// Positive distance to the nearest boundary crossing.
    pub distance: f64,
    /// The domain face hit, when no cell boundary comes strictly first.
    pub face: Option<Face>,
}

/// A level the descent passes through, in local coordinates.
enum Level<'a> {
    /// A universe; the point is at `(lx, ly)` in its frame.
    Universe(&'a UniverseIndex, f64, f64),
    /// A lattice and the element `(ix, iy)` the point is in.
    Lattice(&'a Lattice, (usize, usize), f64, f64),
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
        let universe_index = self
            .universes
            .iter()
            .map(|uni| {
                let mut surfaces: Vec<SurfaceId> = Vec::new();
                for &(sid, _) in uni.cells.iter().flat_map(|c| &c.region) {
                    if !surfaces.contains(&sid) {
                        surfaces.push(sid);
                    }
                }
                UniverseIndex {
                    surfaces: surfaces
                        .iter()
                        .map(|s| self.surfaces[s.0 as usize].clone())
                        .collect(),
                    ..Default::default()
                }
            })
            .collect();
        let mut m = Model {
            lattice_first: vec![Vec::new(); self.lattices.len()],
            surfaces: self.surfaces,
            universes: self.universes,
            lattices: self.lattices,
            root,
            origin,
            universe_index,
            fsr_material: Vec::new(),
            fsr_area: Vec::new(),
            fsr_paths: Vec::new(),
            fsr_path_ends: Vec::new(),
        };
        m.count_fsrs(root);
        m.enumerate_universe(root, &mut Vec::new(), &self.area_hints);
        Geometry {
            model: Arc::new(m),
            bounds_box: (
                origin.0 - width / 2.0,
                origin.0 + width / 2.0,
                origin.1 - height / 2.0,
                origin.1 + height / 2.0,
            ),
            z_range,
            bcs,
        }
    }
}

impl Model {
    /// Counts the FSRs under universe `u` and fills the offsets of its
    /// cells and of the lattice elements below it; memoized, so a universe
    /// repeated across a lattice is counted once.
    fn count_fsrs(&mut self, u: UniverseId) -> u32 {
        if let Some(n) = self.universe_index[u.0 as usize].fsrs {
            return n;
        }
        let mut first = Vec::with_capacity(self.universes[u.0 as usize].cells.len());
        let mut total = 0u32;
        for ci in 0..self.universes[u.0 as usize].cells.len() {
            first.push(total);
            total += match self.universes[u.0 as usize].cells[ci].fill {
                Fill::Material(_) => 1,
                Fill::Universe(child) => self.count_fsrs(child),
                Fill::Lattice(lid) => self.count_lattice_fsrs(lid),
            };
        }
        let index = &mut self.universe_index[u.0 as usize];
        index.cell_first = first;
        index.fsrs = Some(total);
        total
    }

    /// [`Self::count_fsrs`] for a lattice: the sum over its elements.
    fn count_lattice_fsrs(&mut self, lid: LatticeId) -> u32 {
        let l = lid.0 as usize;
        if let Some(&n) = self.lattice_first[l].last() {
            return n;
        }
        let mut first = Vec::with_capacity(self.lattices[l].universes.len() + 1);
        let mut total = 0u32;
        for k in 0..self.lattices[l].universes.len() {
            first.push(total);
            total += self.count_fsrs(self.lattices[l].universes[k]);
        }
        first.push(total);
        self.lattice_first[l] = first;
        total
    }

    /// Numbers the leaves under `u` depth-first: material, area hint and
    /// path per FSR, in the order the offsets of [`Self::count_fsrs`]
    /// assume.
    fn enumerate_universe(
        &mut self,
        u: UniverseId,
        path: &mut Vec<u32>,
        hints: &HashMap<(u32, u32), f64>,
    ) {
        let base = self.fsr_material.len() as u32;
        for ci in 0..self.universes[u.0 as usize].cells.len() {
            debug_assert_eq!(
                base + self.universe_index[u.0 as usize].cell_first[ci],
                self.fsr_material.len() as u32
            );
            path.push(ci as u32);
            let fill = self.universes[u.0 as usize].cells[ci].fill;
            match fill {
                Fill::Material(m) => {
                    self.fsr_material.push(m);
                    self.fsr_area.push(hints.get(&(u.0, ci as u32)).copied());
                    self.fsr_paths.extend_from_slice(path);
                    self.fsr_path_ends.push(self.fsr_paths.len() as u32);
                }
                Fill::Universe(child) => {
                    self.enumerate_universe(child, path, hints);
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
                            self.enumerate_universe(child, path, hints);
                            path.pop();
                            path.pop();
                        }
                    }
                }
            }
            path.pop();
        }
    }

    /// The first cell of `uni` whose region holds the local point.
    fn match_cell(&self, uni: &Universe, lx: f64, ly: f64) -> Option<usize> {
        uni.cells.iter().position(|cell| {
            cell.region
                .iter()
                .all(|&(sid, sense)| self.surfaces[sid.0 as usize].sense_of(lx, ly) == sense)
        })
    }
}

impl Geometry {
    /// Number of radial FSRs.
    pub fn num_fsrs(&self) -> usize {
        self.model.fsr_material.len()
    }

    /// The material filling an FSR.
    pub fn fsr_material(&self, f: FsrId) -> MaterialId {
        self.model.fsr_material[f.0 as usize]
    }

    /// Analytic radial area of an FSR when the builder provided one.
    pub fn fsr_area_hint(&self, f: FsrId) -> Option<f64> {
        self.model.fsr_area[f.0 as usize]
    }

    /// The canonical path of an FSR: the cell index at each universe and
    /// the `(ix, iy)` element at each lattice, root first.
    pub fn fsr_path(&self, f: FsrId) -> &[u32] {
        let f = f.0 as usize;
        let lo = if f == 0 { 0 } else { self.model.fsr_path_ends[f - 1] as usize };
        &self.model.fsr_paths[lo..self.model.fsr_path_ends[f] as usize]
    }

    /// The surface arena.
    pub fn surfaces(&self) -> &[Surface] {
        &self.model.surfaces
    }

    /// The universe arena.
    pub fn universes(&self) -> &[Universe] {
        &self.model.universes
    }

    /// The lattice arena.
    pub fn lattices(&self) -> &[Lattice] {
        &self.model.lattices
    }

    /// The root universe.
    pub fn root(&self) -> UniverseId {
        self.model.root
    }

    /// Global coordinates of the root universe's local origin.
    pub fn origin(&self) -> (f64, f64) {
        self.model.origin
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
    /// enumeration (shared, not copied) restricted to the radial box
    /// `bounds` and axial range `z_range`, with the window's own boundary
    /// conditions. This is how
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
        Geometry { model: Arc::clone(&self.model), bounds_box: bounds, z_range, bcs }
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
        let (fsr, material) = self.descend(x, y, |_| {})?;
        Some(Located { fsr, material, path: self.fsr_path(fsr).to_vec() })
    }

    /// One ray-tracing step: locates the FSR holding the global point
    /// `(x, y)` and measures the distance along the unit direction
    /// `(ux, uy)` to the next radial cell boundary or domain face, in one
    /// descent of the hierarchy. `None` where [`Self::find`] gives `None`.
    ///
    /// The candidates are the domain box, then at every universe passed
    /// each distinct surface its cells reference, and at every lattice
    /// the wall of the element entered. The nearest wins; the domain face
    /// is reported when no later candidate is strictly nearer.
    pub fn step(&self, x: f64, y: f64, ux: f64, uy: f64) -> Option<Step> {
        if !self.contains(x, y) {
            return None;
        }
        let (mut best, mut face) = self.distance_to_box(x, y, ux, uy);
        let (fsr, _) = self.descend(x, y, |level| match level {
            Level::Universe(index, lx, ly) => {
                for surface in &index.surfaces {
                    if let Some(t) = surface.distance(lx, ly, ux, uy) {
                        if t < best {
                            best = t;
                            face = None;
                        }
                    }
                }
            }
            Level::Lattice(l, cell, lx, ly) => {
                let t = l.distance_to_cell_wall(cell, lx, ly, ux, uy);
                if t > SURFACE_EPS && t < best {
                    best = t;
                    face = None;
                }
            }
        })?;
        Some(Step { fsr, distance: best, face })
    }

    /// Distance along `(ux, uy)` to the domain box, x faces before y.
    fn distance_to_box(&self, x: f64, y: f64, ux: f64, uy: f64) -> (f64, Option<Face>) {
        let (x0, x1, y0, y1) = self.bounds();
        let mut best = f64::INFINITY;
        let mut face = None;
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
        (best, face)
    }

    /// Walks root → leaf through the cells holding the global point,
    /// showing `visit` each universe and lattice element on the way, and
    /// returns the leaf's FSR (the sum of the offsets entered) and
    /// material. `None` when some universe has no cell for the point.
    #[inline(always)]
    fn descend(
        &self,
        x: f64,
        y: f64,
        mut visit: impl FnMut(Level<'_>),
    ) -> Option<(FsrId, MaterialId)> {
        let m = &*self.model;
        let mut lx = x - m.origin.0;
        let mut ly = y - m.origin.1;
        let mut u = m.root.0 as usize;
        let mut fsr = 0u32;
        loop {
            let index = &m.universe_index[u];
            visit(Level::Universe(index, lx, ly));
            let uni = &m.universes[u];
            let ci = m.match_cell(uni, lx, ly)?;
            fsr += index.cell_first[ci];
            match uni.cells[ci].fill {
                Fill::Material(mat) => return Some((FsrId(fsr), mat)),
                Fill::Universe(child) => u = child.0 as usize,
                Fill::Lattice(lid) => {
                    let l = &m.lattices[lid.0 as usize];
                    let (ix, iy) = l.find_cell(lx, ly);
                    visit(Level::Lattice(l, (ix, iy), lx, ly));
                    fsr += m.lattice_first[lid.0 as usize][iy * l.nx + ix];
                    let (cx, cy) = l.cell_center(ix, iy);
                    lx -= cx;
                    ly -= cy;
                    u = l.universe_at(ix, iy).0 as usize;
                }
            }
        }
    }

    /// Traces a radial ray from `start` along `phi` until it leaves the
    /// domain, returning `(fsr, length)` segments: [`Self::step`] in a
    /// loop, for tests. The production tracer, which stops at a track's
    /// length and merges grazes, is `antmoc-track`'s `trace_track`.
    pub fn trace(&self, start: (f64, f64), phi: f64) -> Vec<(FsrId, f64)> {
        let (uy, ux) = phi.sin_cos();
        let nudge = 1e-9;
        let (mut x, mut y) = start;
        let mut segs = Vec::new();
        while let Some(s) = self.step(x + ux * nudge, y + uy * nudge, ux, uy) {
            let len = s.distance + nudge;
            segs.push((s.fsr, len));
            x += ux * len;
            y += uy * len;
            if s.face.is_some() {
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
        let s = g.step(-0.5, -0.5, 1.0, 0.0).unwrap();
        assert_eq!(s.fsr, g.find(-0.5, -0.5).unwrap().fsr);
        assert!(s.face.is_none());
        assert!((s.distance - 0.4).abs() < 1e-9, "t = {}", s.distance);
    }

    #[test]
    fn distance_to_boundary_reports_domain_face() {
        let g = pin_geometry();
        // From just inside the east edge moving +x, between pins (y on the
        // horizontal wall between cells is fine -- pick mid-pin height).
        let s = g.step(0.97, -0.5, 1.0, 0.0).unwrap();
        assert_eq!(s.face, Some(Face::XMax));
        assert!((s.distance - 0.03).abs() < 1e-9);
    }

    #[test]
    fn step_keeps_the_face_on_a_tie_with_the_lattice_edge() {
        // The lattice's outer edge lies on the domain box: the box comes
        // first, so the tie reports the face.
        let g = pin_geometry();
        let s = g.step(0.95, 0.5, 1.0, 0.0).unwrap();
        assert_eq!(s.face, Some(Face::XMax));
        assert_eq!(s.distance, 1.0 - 0.95);
    }

    #[test]
    fn step_outside_the_box_is_none() {
        let g = pin_geometry();
        assert!(g.step(1.5, 0.0, -1.0, 0.0).is_none());
    }

    #[test]
    fn fsr_offsets_follow_the_enumeration() {
        // A 2x1 lattice of a one-cell and a two-cell universe, the second
        // reached through a universe fill: the descent's offset sums must
        // name the FSR whose enumerated path leads to the point.
        let mut b = GeometryBuilder::new();
        let circ = b.add_surface(Surface::Circle { x0: 0.0, y0: 0.0, r: 0.3 });
        let plain = b.add_universe(Universe {
            cells: vec![Cell { region: vec![], fill: Fill::Material(MaterialId(0)) }],
            name: "plain".into(),
        });
        let pin = b.add_universe(Universe {
            cells: vec![
                Cell { region: vec![(circ, Sense::Negative)], fill: Fill::Material(MaterialId(1)) },
                Cell { region: vec![(circ, Sense::Positive)], fill: Fill::Material(MaterialId(2)) },
            ],
            name: "pin".into(),
        });
        let wrapped = b.add_universe(Universe {
            cells: vec![Cell { region: vec![], fill: Fill::Universe(pin) }],
            name: "wrapped".into(),
        });
        let lat = b.add_lattice(Lattice {
            nx: 3,
            ny: 1,
            pitch_x: 1.0,
            pitch_y: 1.0,
            universes: vec![wrapped, plain, wrapped],
            name: "lat".into(),
        });
        let root = b.add_universe(Universe {
            cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
            name: "root".into(),
        });
        let g = b.finalize(root, 3.0, 1.0, (0.0, 0.0), (0.0, 1.0), BoundaryConds::vacuum());
        assert_eq!(g.num_fsrs(), 5);
        let cases: [((f64, f64), &[u32]); 5] = [
            ((-1.0, 0.0), &[0, 0, 0, 0, 0]),
            ((-1.4, 0.4), &[0, 0, 0, 0, 1]),
            ((0.0, 0.0), &[0, 1, 0, 0]),
            ((1.0, 0.0), &[0, 2, 0, 0, 0]),
            ((1.4, -0.4), &[0, 2, 0, 0, 1]),
        ];
        for (i, ((x, y), path)) in cases.into_iter().enumerate() {
            let loc = g.find(x, y).unwrap();
            assert_eq!(loc.fsr, FsrId(i as u32), "point ({x}, {y})");
            assert_eq!(g.fsr_path(loc.fsr), path);
            assert_eq!(g.step(x, y, 0.0, 1.0).unwrap().fsr, loc.fsr);
        }
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
        // Same FSR enumeration as the parent: the same model, shared.
        assert!(Arc::ptr_eq(&w.model, &g.model));
        assert_eq!(w.num_fsrs(), g.num_fsrs());
        let a = g.find(0.5, 0.5).unwrap();
        let b = w.find(0.5, 0.5).unwrap();
        assert_eq!(a.fsr, b.fsr);
        // Outside the window is outside, even though the model continues.
        assert!(w.find(-0.5, -0.5).is_none());
        assert!(g.find(-0.5, -0.5).is_some());
        // Domain faces move with the window.
        let s = w.step(0.97, 0.5, 1.0, 0.0).unwrap();
        assert_eq!(s.face, Some(Face::XMax));
        assert!((s.distance - 0.03).abs() < 1e-9);
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
