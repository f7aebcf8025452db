//! Axial structure of the extruded geometry.
//!
//! The 3D model is the radial geometry swept along z through a stack of
//! *zones*. Each zone can override materials (e.g. the C5G7 3D extension's
//! top reflector replaces everything with moderator; rodded configurations
//! replace guide tubes with control rod). Within zones, a uniform *axial
//! mesh* subdivides space into flat axial cells so that 3D flat source
//! regions are `(radial FSR, axial cell)` pairs.

use antmoc_xs::MaterialId;

use crate::geometry::FsrId;

/// How a zone transforms the radial material of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneKind {
    /// Materials pass through unchanged (a fuel zone).
    AsIs,
    /// Every material is replaced (e.g. an axial water reflector).
    AllTo(MaterialId),
    /// Selected materials are replaced, pairwise `(from, to)` (e.g. guide
    /// tube -> control rod in a rodded zone).
    Map(Vec<(MaterialId, MaterialId)>),
}

/// One axial zone: `[z_lo, z_hi)` with a material transform.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    pub z_lo: f64,
    pub z_hi: f64,
    pub kind: ZoneKind,
}

/// The axial model: contiguous zones plus a conforming uniform-per-zone
/// mesh of flat axial cells.
#[derive(Debug, Clone)]
pub struct AxialModel {
    zones: Vec<Zone>,
    /// Ascending plane coordinates including both ends;
    /// `planes.len() == num_cells() + 1`. Zone boundaries always appear.
    planes: Vec<f64>,
    /// Axial cell index -> zone index.
    cell_zone: Vec<usize>,
}

impl AxialModel {
    /// Builds the model from contiguous zones and a target axial cell
    /// height; each zone is split into `ceil(zone_height / target)` equal
    /// cells so the mesh conforms to zone boundaries.
    pub fn new(zones: Vec<Zone>, target_dz: f64) -> Self {
        assert!(!zones.is_empty(), "need at least one axial zone");
        assert!(target_dz > 0.0, "target_dz must be positive");
        for w in zones.windows(2) {
            assert!(
                (w[0].z_hi - w[1].z_lo).abs() < 1e-12,
                "zones must be contiguous: {} vs {}",
                w[0].z_hi,
                w[1].z_lo
            );
        }
        let mut planes = vec![zones[0].z_lo];
        let mut cell_zone = Vec::new();
        for (zi, z) in zones.iter().enumerate() {
            let h = z.z_hi - z.z_lo;
            assert!(h > 0.0, "zone {zi} has non-positive height");
            let n = (h / target_dz).ceil().max(1.0) as usize;
            let dz = h / n as f64;
            for k in 1..=n {
                planes.push(z.z_lo + dz * k as f64);
                cell_zone.push(zi);
            }
            // Snap the zone's top plane exactly.
            *planes.last_mut().unwrap() = z.z_hi;
        }
        Self { zones, planes, cell_zone }
    }

    /// A single-zone, pass-through model (pure extrusion).
    pub fn uniform(z_lo: f64, z_hi: f64, target_dz: f64) -> Self {
        Self::new(vec![Zone { z_lo, z_hi, kind: ZoneKind::AsIs }], target_dz)
    }

    /// A window of this model over `[z_lo, z_hi]`: zones clipped to the
    /// range, remeshed with the given target cell height. Used when
    /// cutting spatial-decomposition subdomains axially.
    pub fn restrict(&self, z_lo: f64, z_hi: f64, target_dz: f64) -> Self {
        let (full_lo, full_hi) = self.z_range();
        assert!(z_lo >= full_lo - 1e-9 && z_hi <= full_hi + 1e-9 && z_hi > z_lo);
        let mut zones = Vec::new();
        for z in &self.zones {
            let lo = z.z_lo.max(z_lo);
            let hi = z.z_hi.min(z_hi);
            if hi - lo > 1e-12 {
                zones.push(Zone { z_lo: lo, z_hi: hi, kind: z.kind.clone() });
            }
        }
        assert!(!zones.is_empty(), "window [{z_lo}, {z_hi}] misses every zone");
        Self::new(zones, target_dz)
    }

    /// Total axial extent `(z_min, z_max)`.
    pub fn z_range(&self) -> (f64, f64) {
        (self.planes[0], *self.planes.last().unwrap())
    }

    /// Number of flat axial cells.
    pub fn num_cells(&self) -> usize {
        self.cell_zone.len()
    }

    /// The mesh planes (ascending, including both domain ends).
    pub fn planes(&self) -> &[f64] {
        &self.planes
    }

    /// The zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The axial cell containing `z` (clamped to the valid range; points
    /// exactly on an interior plane belong to the upper cell).
    pub fn find_cell(&self, z: f64) -> usize {
        let n = self.num_cells();
        match self.planes.binary_search_by(|p| p.partial_cmp(&z).unwrap()) {
            Ok(i) => i.min(n - 1),
            Err(i) => i.saturating_sub(1).min(n - 1),
        }
    }

    /// The material seen at axial cell `k` by a column whose radial
    /// material is `radial`.
    pub fn material_at(&self, radial: MaterialId, k: usize) -> MaterialId {
        match &self.zones[self.cell_zone[k]].kind {
            ZoneKind::AsIs => radial,
            ZoneKind::AllTo(m) => *m,
            ZoneKind::Map(map) => {
                map.iter().find(|(from, _)| *from == radial).map(|(_, to)| *to).unwrap_or(radial)
            }
        }
    }
}

/// Index of a 3D flat source region: `(radial FSR, axial cell)` flattened
/// as `axial * num_radial + radial`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fsr3dId(pub u32);

/// Mapping between radial FSRs x axial cells and 3D FSR ids, with the
/// per-3D-FSR material resolved through the axial zones.
#[derive(Debug, Clone)]
pub struct Fsr3dMap {
    num_radial: usize,
    num_axial: usize,
    materials: Vec<MaterialId>,
}

impl Fsr3dMap {
    /// Builds the map from a radial geometry's FSR materials and an axial
    /// model.
    pub fn new(radial_materials: &[MaterialId], axial: &AxialModel) -> Self {
        let num_radial = radial_materials.len();
        let num_axial = axial.num_cells();
        let mut materials = Vec::with_capacity(num_radial * num_axial);
        for k in 0..num_axial {
            for &rm in radial_materials {
                materials.push(axial.material_at(rm, k));
            }
        }
        Self { num_radial, num_axial, materials }
    }

    pub fn num_radial(&self) -> usize {
        self.num_radial
    }

    pub fn num_axial(&self) -> usize {
        self.num_axial
    }

    /// Total number of 3D FSRs.
    pub fn len(&self) -> usize {
        self.materials.len()
    }

    pub fn is_empty(&self) -> bool {
        self.materials.is_empty()
    }

    /// Flattens `(radial, axial)` into a 3D FSR id.
    #[inline]
    pub fn id(&self, radial: FsrId, axial: usize) -> Fsr3dId {
        debug_assert!((radial.0 as usize) < self.num_radial && axial < self.num_axial);
        Fsr3dId((axial * self.num_radial + radial.0 as usize) as u32)
    }

    /// Splits a 3D FSR id back into `(radial, axial)`.
    #[inline]
    pub fn split(&self, id: Fsr3dId) -> (FsrId, usize) {
        let i = id.0 as usize;
        (FsrId((i % self.num_radial) as u32), i / self.num_radial)
    }

    /// The material of a 3D FSR.
    #[inline]
    pub fn material(&self, id: Fsr3dId) -> MaterialId {
        self.materials[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUEL: MaterialId = MaterialId(0);
    const WATER: MaterialId = MaterialId(1);
    const TUBE: MaterialId = MaterialId(2);
    const ROD: MaterialId = MaterialId(3);

    fn model() -> AxialModel {
        AxialModel::new(
            vec![
                Zone { z_lo: 0.0, z_hi: 4.0, kind: ZoneKind::AsIs },
                Zone { z_lo: 4.0, z_hi: 6.0, kind: ZoneKind::Map(vec![(TUBE, ROD)]) },
                Zone { z_lo: 6.0, z_hi: 8.0, kind: ZoneKind::AllTo(WATER) },
            ],
            1.0,
        )
    }

    #[test]
    fn mesh_conforms_to_zone_boundaries() {
        let m = model();
        assert_eq!(m.num_cells(), 8);
        assert!(m.planes().contains(&4.0));
        assert!(m.planes().contains(&6.0));
        assert_eq!(m.z_range(), (0.0, 8.0));
    }

    #[test]
    fn coarse_target_still_splits_zones() {
        let m = AxialModel::new(
            vec![
                Zone { z_lo: 0.0, z_hi: 4.0, kind: ZoneKind::AsIs },
                Zone { z_lo: 4.0, z_hi: 6.0, kind: ZoneKind::AllTo(WATER) },
            ],
            100.0,
        );
        assert_eq!(m.num_cells(), 2);
        assert_eq!(m.planes(), [0.0, 4.0, 6.0]);
    }

    #[test]
    fn find_cell_brackets_planes() {
        let m = model();
        assert_eq!(m.find_cell(0.0), 0);
        assert_eq!(m.find_cell(0.999), 0);
        assert_eq!(m.find_cell(1.0), 1);
        assert_eq!(m.find_cell(7.999), 7);
        assert_eq!(m.find_cell(8.0), 7); // clamped at the top
    }

    #[test]
    fn material_overrides_apply_per_zone() {
        let m = model();
        // Fuel zone: pass-through.
        assert_eq!(m.material_at(FUEL, 0), FUEL);
        assert_eq!(m.material_at(TUBE, 3), TUBE);
        // Rodded zone: only the tube is replaced.
        assert_eq!(m.material_at(TUBE, 4), ROD);
        assert_eq!(m.material_at(FUEL, 5), FUEL);
        // Reflector: everything becomes water.
        assert_eq!(m.material_at(FUEL, 6), WATER);
        assert_eq!(m.material_at(TUBE, 7), WATER);
    }

    #[test]
    fn fsr3d_map_round_trips_and_resolves_materials() {
        let m = model();
        let radial = vec![FUEL, TUBE, WATER];
        let map = Fsr3dMap::new(&radial, &m);
        assert_eq!(map.len(), 24);
        for k in 0..m.num_cells() {
            for r in 0..3u32 {
                let id = map.id(FsrId(r), k);
                assert_eq!(map.split(id), (FsrId(r), k));
            }
        }
        // Rodded zone transforms the tube column only.
        assert_eq!(map.material(map.id(FsrId(1), 4)), ROD);
        assert_eq!(map.material(map.id(FsrId(0), 4)), FUEL);
        // Reflector transforms everything.
        assert_eq!(map.material(map.id(FsrId(0), 7)), WATER);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn rejects_gapped_zones() {
        AxialModel::new(
            vec![
                Zone { z_lo: 0.0, z_hi: 4.0, kind: ZoneKind::AsIs },
                Zone { z_lo: 5.0, z_hi: 6.0, kind: ZoneKind::AsIs },
            ],
            1.0,
        );
    }

    #[test]
    fn restrict_clips_zones_and_keeps_overrides() {
        let m = model();
        let w = m.restrict(3.0, 7.0, 1.0);
        assert_eq!(w.z_range(), (3.0, 7.0));
        assert_eq!(w.zones().len(), 3);
        // Cell containing z=4.5 is in the rodded zone.
        let c = w.find_cell(4.5);
        assert_eq!(w.material_at(TUBE, c), ROD);
        // Cell containing z=6.5 is in the reflector.
        let c = w.find_cell(6.5);
        assert_eq!(w.material_at(FUEL, c), WATER);
    }

    #[test]
    #[should_panic(expected = "misses every zone")]
    fn restrict_rejects_empty_window() {
        // Construct a degenerate request by windowing outside the range;
        // the assert on bounds fires first for truly-outside windows, so
        // use a sliver between machine epsilons.
        let m = model();
        let _ = m.restrict(8.0 - 1e-13, 8.0, 1.0);
    }

    #[test]
    fn uniform_model_is_single_zone() {
        let m = AxialModel::uniform(0.0, 10.0, 2.5);
        assert_eq!(m.num_cells(), 4);
        assert_eq!(m.zones().len(), 1);
        assert_eq!(m.material_at(FUEL, 2), FUEL);
    }
}
