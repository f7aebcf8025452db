//! The C5G7 3D extension benchmark model (the paper's validation problem,
//! §5 / Fig. 6 / Table 4).
//!
//! Quarter core, 3x3 assemblies of 21.42 cm pitch (17x17 pin cells of
//! 1.26 cm, fuel radius 0.54 cm): two UO2 assemblies on the diagonal, two
//! MOX assemblies off-diagonal, five homogeneous water reflector
//! assemblies. Radial boundary conditions: reflective on the core-centre
//! faces (x-min, y-min), vacuum on the outer faces. Axially the fuel spans
//! 42.84 cm (three 14.28 cm banks for rodded configurations) below a
//! 21.42 cm water reflector; reflective at the midplane (z-min), vacuum on
//! top — a 64.26 cm cube, matching Table 4 of the paper.

use antmoc_xs::{c5g7 as xs7, MaterialId, MaterialLibrary};

use crate::axial::{AxialModel, Zone, ZoneKind};
use crate::csg::{Cell, Fill, Lattice, Universe, UniverseId};
use crate::geometry::{Bc, BoundaryConds, FsrId, Geometry, GeometryBuilder};
use crate::pin::PinBuilder;

/// Pin pitch (cm).
pub const PIN_PITCH: f64 = 1.26;
/// Fuel pin radius (cm).
pub const PIN_RADIUS: f64 = 0.54;
/// Pins per assembly side.
pub const PINS: usize = 17;
/// Assembly pitch (cm).
pub const ASSEMBLY_PITCH: f64 = PIN_PITCH * PINS as f64;
/// Core width (cm): 3 assemblies.
pub const CORE_WIDTH: f64 = 3.0 * ASSEMBLY_PITCH;
/// Height of one axial fuel bank (cm).
pub const BANK_HEIGHT: f64 = 14.28;
/// Total fuel height (cm).
pub const FUEL_HEIGHT: f64 = 3.0 * BANK_HEIGHT;
/// Height of the axial water reflector (cm).
pub const AXIAL_REFLECTOR: f64 = 21.42;
/// Total model height (cm).
pub const CORE_HEIGHT: f64 = FUEL_HEIGHT + AXIAL_REFLECTOR;

/// The guide-tube positions of the 17x17 skeleton, `(row, col)`.
pub const GUIDE_TUBES: [(usize, usize); 24] = [
    (2, 5),
    (2, 8),
    (2, 11),
    (3, 3),
    (3, 13),
    (5, 2),
    (5, 5),
    (5, 8),
    (5, 11),
    (5, 14),
    (8, 2),
    (8, 5),
    (8, 11),
    (8, 14),
    (11, 2),
    (11, 5),
    (11, 8),
    (11, 11),
    (11, 14),
    (13, 3),
    (13, 13),
    (14, 5),
    (14, 8),
    (14, 11),
];

/// Fission chamber position.
pub const FISSION_CHAMBER: (usize, usize) = (8, 8);

/// The MOX enrichment-zone map (A = 4.3 %, B = 7.0 %, C = 8.7 %,
/// G = guide tube, F = fission chamber), row 0 at the bottom of the map.
const MOX_MAP: [&str; 17] = [
    "AAAAAAAAAAAAAAAAA",
    "ABBBBBBBBBBBBBBBA",
    "ABBBBGBBGBBGBBBBA",
    "ABBGBCCCCCCCBGBBA",
    "ABBBCCCCCCCCCBBBA",
    "ABGCCGCCGCCGCCGBA",
    "ABBCCCCCCCCCCCBBA",
    "ABBCCCCCCCCCCCBBA",
    "ABGCCGCCFCCGCCGBA",
    "ABBCCCCCCCCCCCBBA",
    "ABBCCCCCCCCCCCBBA",
    "ABGCCGCCGCCGCCGBA",
    "ABBBCCCCCCCCCBBBA",
    "ABBGBCCCCCCCBGBBA",
    "ABBBBGBBGBBGBBBBA",
    "ABBBBBBBBBBBBBBBA",
    "AAAAAAAAAAAAAAAAA",
];

/// Control-rod insertion pattern of the 3D extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoddedConfig {
    /// No rods in the fuel region.
    #[default]
    Unrodded,
    /// Rods one bank deep into the inner UO2 assembly.
    RoddedA,
    /// Rods two banks into the inner UO2 assembly and one bank into both
    /// MOX assemblies.
    RoddedB,
}

/// Model-resolution options.
#[derive(Debug, Clone, PartialEq)]
pub struct C5g7Options {
    /// Equal-area fuel rings per pin (>= 1).
    pub fuel_rings: usize,
    /// Angular sectors per pin, applied to fuel and moderator alike
    /// (1, 2, or any even count >= 4).
    pub sectors: usize,
    /// Reflector assembly refinement: 0 keeps the assembly homogeneous
    /// (the benchmark definition); `n > 0` meshes it into `n x n` water
    /// cells, the fine-reflector meshing the paper's load-balance study
    /// relies on (§5.4).
    pub reflector_refine: usize,
    /// Target axial cell height (cm).
    pub axial_dz: f64,
    /// Rod insertion pattern.
    pub config: RoddedConfig,
}

impl Default for C5g7Options {
    fn default() -> Self {
        Self {
            fuel_rings: 1,
            sectors: 1,
            reflector_refine: 0,
            axial_dz: BANK_HEIGHT,
            config: RoddedConfig::Unrodded,
        }
    }
}

/// Which kind of assembly occupies a core position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssemblyKind {
    InnerUo2,
    OuterUo2,
    Mox,
    Reflector,
}

/// Quarter-core layout: `(ix, iy)` with the reflective corner at (0, 0).
pub fn assembly_at(ix: usize, iy: usize) -> AssemblyKind {
    match (ix, iy) {
        (0, 0) => AssemblyKind::InnerUo2,
        (1, 1) => AssemblyKind::OuterUo2,
        (1, 0) | (0, 1) => AssemblyKind::Mox,
        _ => AssemblyKind::Reflector,
    }
}

/// A pin's location: assembly indices and pin indices within the assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PinAddress {
    pub assembly: (usize, usize),
    pub pin: (usize, usize),
}

/// The constructed model: radial geometry, axial structure, materials.
#[derive(Debug)]
pub struct C5g7 {
    pub geometry: Geometry,
    pub axial: AxialModel,
    pub library: MaterialLibrary,
    pub opts: C5g7Options,
    mat_ids: MatIds,
}

#[derive(Debug, Clone, Copy)]
struct MatIds {
    uo2: MaterialId,
    mox43: MaterialId,
    mox70: MaterialId,
    mox87: MaterialId,
    chamber: MaterialId,
    tube: MaterialId,
    water: MaterialId,
    rod: MaterialId,
    tube_inner_uo2: MaterialId,
    tube_mox: MaterialId,
}

impl C5g7 {
    /// Builds the model with the given options.
    pub fn build(opts: C5g7Options) -> Self {
        let mut library = xs7::library_with_rod();
        // Bank-specific guide-tube aliases so rodded zones can target
        // individual assemblies through the material-map mechanism.
        let mut gt1 = xs7::guide_tube();
        gt1.name = "guide-tube-inner-uo2".into();
        let tube_inner_uo2 = library.add(gt1);
        let mut gt2 = xs7::guide_tube();
        gt2.name = "guide-tube-mox".into();
        let tube_mox = library.add(gt2);

        let m = MatIds {
            uo2: library.by_name("UO2").unwrap().0,
            mox43: library.by_name("MOX-4.3").unwrap().0,
            mox70: library.by_name("MOX-7.0").unwrap().0,
            mox87: library.by_name("MOX-8.7").unwrap().0,
            chamber: library.by_name("fission-chamber").unwrap().0,
            tube: library.by_name("guide-tube").unwrap().0,
            water: library.by_name("moderator").unwrap().0,
            rod: library.by_name("control-rod").unwrap().0,
            tube_inner_uo2,
            tube_mox,
        };

        let mut b = GeometryBuilder::new();

        // Pin universes (shared across assemblies where the bank alias
        // allows).
        let pins = pin_builder(&opts);
        let uo2_pin = pins.build(&mut b, m.uo2, m.water);
        let mox43_pin = pins.build(&mut b, m.mox43, m.water);
        let mox70_pin = pins.build(&mut b, m.mox70, m.water);
        let mox87_pin = pins.build(&mut b, m.mox87, m.water);
        let chamber_pin = pins.build(&mut b, m.chamber, m.water);
        let tube_pin = pins.build(&mut b, m.tube, m.water);
        let tube_pin_inner = pins.build(&mut b, m.tube_inner_uo2, m.water);
        let tube_pin_mox = pins.build(&mut b, m.tube_mox, m.water);

        // Assemblies.
        let inner_uo2 =
            build_uo2_assembly(&mut b, uo2_pin, tube_pin_inner, chamber_pin, "inner-UO2");
        let outer_uo2 = build_uo2_assembly(&mut b, uo2_pin, tube_pin, chamber_pin, "outer-UO2");
        let mox =
            build_mox_assembly(&mut b, mox43_pin, mox70_pin, mox87_pin, tube_pin_mox, chamber_pin);
        let reflector = build_reflector_assembly(&mut b, m.water, opts.reflector_refine);

        // Core lattice: (0,0) is the reflective corner.
        let mut core_unis = Vec::with_capacity(9);
        for iy in 0..3 {
            for ix in 0..3 {
                core_unis.push(match assembly_at(ix, iy) {
                    AssemblyKind::InnerUo2 => inner_uo2,
                    AssemblyKind::OuterUo2 => outer_uo2,
                    AssemblyKind::Mox => mox,
                    AssemblyKind::Reflector => reflector,
                });
            }
        }
        let core = b.add_lattice(Lattice {
            nx: 3,
            ny: 3,
            pitch_x: ASSEMBLY_PITCH,
            pitch_y: ASSEMBLY_PITCH,
            universes: core_unis,
            name: "core".into(),
        });
        let root = b.add_universe(Universe {
            cells: vec![Cell { region: vec![], fill: Fill::Lattice(core) }],
            name: "root".into(),
        });

        let bcs = BoundaryConds {
            x_min: Bc::Reflective,
            x_max: Bc::Vacuum,
            y_min: Bc::Reflective,
            y_max: Bc::Vacuum,
            z_min: Bc::Reflective,
            z_max: Bc::Vacuum,
        };
        let geometry = b.finalize(
            root,
            CORE_WIDTH,
            CORE_WIDTH,
            (CORE_WIDTH / 2.0, CORE_WIDTH / 2.0),
            (0.0, CORE_HEIGHT),
            bcs,
        );

        let axial = build_axial(&opts, &m);
        Self { geometry, axial, library, opts, mat_ids: m }
    }

    /// Builds the benchmark model at default resolution.
    pub fn default_model() -> Self {
        Self::build(C5g7Options::default())
    }

    /// The moderator material id (useful for callers constructing related
    /// geometries).
    pub fn moderator(&self) -> MaterialId {
        self.mat_ids.water
    }

    /// Decodes the pin address of a radial FSR inside a fuel assembly
    /// (`None` for reflector FSRs).
    pub fn pin_of_fsr(&self, f: FsrId) -> Option<PinAddress> {
        let path = self.geometry.fsr_path(f);
        // Path layout: [root cell 0, core ix, core iy, assembly cell 0,
        // pin ix, pin iy, ...leaf]. The reflector assembly is shallower
        // (homogeneous) or made of water cells; detect fuel assemblies by
        // the core position.
        if path.len() < 6 {
            return None;
        }
        let (ax, ay) = (path[1] as usize, path[2] as usize);
        if assembly_at(ax, ay) == AssemblyKind::Reflector {
            return None;
        }
        Some(PinAddress { assembly: (ax, ay), pin: (path[4] as usize, path[5] as usize) })
    }
}

/// Builds the axial zones for a rodded configuration.
fn build_axial(opts: &C5g7Options, m: &MatIds) -> AxialModel {
    let rod_map = |banks: &[(MaterialId, MaterialId)]| ZoneKind::Map(banks.to_vec());
    let mut zones = Vec::new();
    let bank = |i: usize| (BANK_HEIGHT * i as f64, BANK_HEIGHT * (i + 1) as f64);
    match opts.config {
        RoddedConfig::Unrodded => {
            zones.push(Zone { z_lo: 0.0, z_hi: FUEL_HEIGHT, kind: ZoneKind::AsIs });
        }
        RoddedConfig::RoddedA => {
            let (z0, _) = bank(0);
            let (_, z1) = bank(1);
            zones.push(Zone { z_lo: z0, z_hi: z1, kind: ZoneKind::AsIs });
            let (z2, z3) = bank(2);
            zones.push(Zone { z_lo: z2, z_hi: z3, kind: rod_map(&[(m.tube_inner_uo2, m.rod)]) });
        }
        RoddedConfig::RoddedB => {
            let (z0, z1) = bank(0);
            zones.push(Zone { z_lo: z0, z_hi: z1, kind: ZoneKind::AsIs });
            let (z2, z3) = bank(1);
            zones.push(Zone { z_lo: z2, z_hi: z3, kind: rod_map(&[(m.tube_inner_uo2, m.rod)]) });
            let (z4, z5) = bank(2);
            zones.push(Zone {
                z_lo: z4,
                z_hi: z5,
                kind: rod_map(&[(m.tube_inner_uo2, m.rod), (m.tube_mox, m.rod)]),
            });
        }
    }
    zones.push(Zone { z_lo: FUEL_HEIGHT, z_hi: CORE_HEIGHT, kind: ZoneKind::AllTo(m.water) });
    AxialModel::new(zones, opts.axial_dz)
}

/// The benchmark's pin parameters at the requested resolution (the shared
/// [`PinBuilder`] does the construction, so the declarative problem
/// format produces byte-identical pins).
fn pin_builder(opts: &C5g7Options) -> PinBuilder {
    let pins = PinBuilder {
        pitch: PIN_PITCH,
        radius: PIN_RADIUS,
        rings: opts.fuel_rings,
        sectors: opts.sectors,
    };
    if let Err(e) = pins.validate() {
        panic!("bad C5G7 resolution options: {e}");
    }
    pins
}

fn build_uo2_assembly(
    b: &mut GeometryBuilder,
    fuel_pin: UniverseId,
    tube_pin: UniverseId,
    chamber_pin: UniverseId,
    name: &str,
) -> UniverseId {
    let mut unis = Vec::with_capacity(PINS * PINS);
    for row in 0..PINS {
        for col in 0..PINS {
            let u = if (row, col) == FISSION_CHAMBER {
                chamber_pin
            } else if GUIDE_TUBES.contains(&(row, col)) {
                tube_pin
            } else {
                fuel_pin
            };
            unis.push(u);
        }
    }
    let lat = b.add_lattice(Lattice {
        nx: PINS,
        ny: PINS,
        pitch_x: PIN_PITCH,
        pitch_y: PIN_PITCH,
        universes: unis,
        name: name.into(),
    });
    b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
        name: name.into(),
    })
}

fn build_mox_assembly(
    b: &mut GeometryBuilder,
    mox43_pin: UniverseId,
    mox70_pin: UniverseId,
    mox87_pin: UniverseId,
    tube_pin: UniverseId,
    chamber_pin: UniverseId,
) -> UniverseId {
    let mut unis = Vec::with_capacity(PINS * PINS);
    for row in 0..PINS {
        let line = MOX_MAP[row].as_bytes();
        for col in 0..PINS {
            let u = match line[col] {
                b'A' => mox43_pin,
                b'B' => mox70_pin,
                b'C' => mox87_pin,
                b'G' => tube_pin,
                b'F' => chamber_pin,
                other => panic!("bad MOX map char {}", other as char),
            };
            unis.push(u);
        }
    }
    let lat = b.add_lattice(Lattice {
        nx: PINS,
        ny: PINS,
        pitch_x: PIN_PITCH,
        pitch_y: PIN_PITCH,
        universes: unis,
        name: "MOX".into(),
    });
    b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
        name: "MOX".into(),
    })
}

fn build_reflector_assembly(
    b: &mut GeometryBuilder,
    water: MaterialId,
    refine: usize,
) -> UniverseId {
    if refine == 0 {
        let u = b.add_universe(Universe {
            cells: vec![Cell { region: vec![], fill: Fill::Material(water) }],
            name: "reflector".into(),
        });
        b.set_area_hint(u, 0, ASSEMBLY_PITCH * ASSEMBLY_PITCH);
        return u;
    }
    let cell_u = b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Material(water) }],
        name: "reflector-cell".into(),
    });
    let pitch = ASSEMBLY_PITCH / refine as f64;
    b.set_area_hint(cell_u, 0, pitch * pitch);
    let lat = b.add_lattice(Lattice {
        nx: refine,
        ny: refine,
        pitch_x: pitch,
        pitch_y: pitch,
        universes: vec![cell_u; refine * refine],
        name: "reflector-lattice".into(),
    });
    b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
        name: "reflector".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mox_map_is_consistent_with_guide_tubes() {
        for (row, line) in MOX_MAP.iter().enumerate() {
            assert_eq!(line.len(), PINS, "row {row}");
            for (col, ch) in line.bytes().enumerate() {
                let is_gt = GUIDE_TUBES.contains(&(row, col));
                let is_fc = (row, col) == FISSION_CHAMBER;
                match ch {
                    b'G' => assert!(is_gt, "unexpected G at ({row},{col})"),
                    b'F' => assert!(is_fc, "unexpected F at ({row},{col})"),
                    _ => assert!(!is_gt && !is_fc, "missing G/F at ({row},{col})"),
                }
            }
        }
    }

    #[test]
    fn default_model_fsr_count() {
        let m = C5g7::default_model();
        // 4 fuel assemblies x 289 pins x 2 leaves + 5 reflector leaves.
        assert_eq!(m.geometry.num_fsrs(), 4 * 289 * 2 + 5);
    }

    #[test]
    fn sectors_and_rings_multiply_fsrs() {
        let m = C5g7::build(C5g7Options { fuel_rings: 2, sectors: 4, ..Default::default() });
        // Per pin: 2 rings x 4 sectors fuel + 4 moderator sectors = 12.
        assert_eq!(m.geometry.num_fsrs(), 4 * 289 * 12 + 5);
    }

    #[test]
    fn reflector_refinement_adds_water_cells() {
        let m = C5g7::build(C5g7Options { reflector_refine: 17, ..Default::default() });
        assert_eq!(m.geometry.num_fsrs(), 4 * 289 * 2 + 5 * 289);
    }

    #[test]
    fn materials_found_at_expected_points() {
        let m = C5g7::default_model();
        let (uo2, _) = m.library.by_name("UO2").unwrap();
        let (mox87, _) = m.library.by_name("MOX-8.7").unwrap();
        let (water, _) = m.library.by_name("moderator").unwrap();
        let (chamber, _) = m.library.by_name("fission-chamber").unwrap();

        // Centre of the first pin of the inner UO2 assembly.
        let p0 = PIN_PITCH / 2.0;
        assert_eq!(m.geometry.find(p0, p0).unwrap().material, uo2);
        // Fission chamber at the centre of the inner assembly.
        let fc = PIN_PITCH * (FISSION_CHAMBER.0 as f64 + 0.5);
        assert_eq!(m.geometry.find(fc, fc).unwrap().material, chamber);
        // Reflector corner.
        let rx = CORE_WIDTH - 1.0;
        assert_eq!(m.geometry.find(rx, rx).unwrap().material, water);
        // Centre pin of the MOX assembly east of the inner UO2:
        // assembly (1, 0), pin (8, 8) is the chamber; pin (8, 7) is 8.7 %.
        let mx = ASSEMBLY_PITCH + PIN_PITCH * (7.0 + 0.5);
        let my = PIN_PITCH * (8.0 + 0.5);
        assert_eq!(m.geometry.find(mx, my).unwrap().material, mox87);
        // MOX corner pin is 4.3 %.
        let (mox43, _) = m.library.by_name("MOX-4.3").unwrap();
        let cx = ASSEMBLY_PITCH + PIN_PITCH * 0.5;
        let cy = PIN_PITCH * 0.5;
        assert_eq!(m.geometry.find(cx, cy).unwrap().material, mox43);
    }

    #[test]
    fn pin_addresses_decode() {
        let m = C5g7::default_model();
        let p0 = PIN_PITCH / 2.0;
        let loc = m.geometry.find(p0, p0).unwrap();
        let addr = m.pin_of_fsr(loc.fsr).unwrap();
        assert_eq!(addr, PinAddress { assembly: (0, 0), pin: (0, 0) });

        let rx = CORE_WIDTH - 1.0;
        let refl = m.geometry.find(rx, rx).unwrap();
        assert!(m.pin_of_fsr(refl.fsr).is_none());
    }

    #[test]
    fn axial_unrodded_has_fuel_then_reflector() {
        let m = C5g7::default_model();
        assert_eq!(m.axial.z_range(), (0.0, CORE_HEIGHT));
        let (uo2, _) = m.library.by_name("UO2").unwrap();
        let (water, _) = m.library.by_name("moderator").unwrap();
        let fuel_cell = m.axial.find_cell(1.0);
        let refl_cell = m.axial.find_cell(FUEL_HEIGHT + 1.0);
        assert_eq!(m.axial.material_at(uo2, fuel_cell), uo2);
        assert_eq!(m.axial.material_at(uo2, refl_cell), water);
    }

    #[test]
    fn rodded_a_rods_only_inner_uo2_top_bank() {
        let m = C5g7::build(C5g7Options { config: RoddedConfig::RoddedA, ..Default::default() });
        let (rod, _) = m.library.by_name("control-rod").unwrap();
        let (gt_inner, _) = m.library.by_name("guide-tube-inner-uo2").unwrap();
        let (gt_mox, _) = m.library.by_name("guide-tube-mox").unwrap();
        let top_bank = m.axial.find_cell(BANK_HEIGHT * 2.0 + 1.0);
        let bottom = m.axial.find_cell(1.0);
        assert_eq!(m.axial.material_at(gt_inner, top_bank), rod);
        assert_eq!(m.axial.material_at(gt_inner, bottom), gt_inner);
        assert_eq!(m.axial.material_at(gt_mox, top_bank), gt_mox);
    }

    #[test]
    fn rodded_b_rods_mox_top_bank_too() {
        let m = C5g7::build(C5g7Options { config: RoddedConfig::RoddedB, ..Default::default() });
        let (rod, _) = m.library.by_name("control-rod").unwrap();
        let (gt_inner, _) = m.library.by_name("guide-tube-inner-uo2").unwrap();
        let (gt_mox, _) = m.library.by_name("guide-tube-mox").unwrap();
        let mid_bank = m.axial.find_cell(BANK_HEIGHT * 1.0 + 1.0);
        let top_bank = m.axial.find_cell(BANK_HEIGHT * 2.0 + 1.0);
        assert_eq!(m.axial.material_at(gt_inner, mid_bank), rod);
        assert_eq!(m.axial.material_at(gt_mox, mid_bank), gt_mox);
        assert_eq!(m.axial.material_at(gt_mox, top_bank), rod);
    }

    #[test]
    fn area_hints_cover_full_core() {
        let m = C5g7::default_model();
        let total: f64 = m.geometry.fsrs().filter_map(|f| m.geometry.fsr_area_hint(f)).sum();
        assert!(
            (total - CORE_WIDTH * CORE_WIDTH).abs() < 1e-6,
            "hinted area {total} vs {}",
            CORE_WIDTH * CORE_WIDTH
        );
    }

    #[test]
    fn trace_across_core_covers_width() {
        let m = C5g7::default_model();
        // Pin row 7 centre line: crosses every fuel circle in the row.
        let segs = m.geometry.trace((0.0, PIN_PITCH * 7.5), 0.0);
        let total: f64 = segs.iter().map(|s| s.1).sum();
        assert!((total - CORE_WIDTH).abs() < 1e-5, "total {total}");
        // A mid-fuel horizontal line must cross many pins.
        assert!(segs.len() > 40, "only {} segments", segs.len());
    }

    #[test]
    fn sectors_trace_is_consistent() {
        let m = C5g7::build(C5g7Options { fuel_rings: 2, sectors: 4, ..Default::default() });
        let segs = m.geometry.trace((0.0, 7.3), 0.1);
        let total: f64 = segs.iter().map(|s| s.1).sum();
        let expect = CORE_WIDTH / 0.1f64.cos();
        assert!((total - expect).abs() < 1e-4, "total {total} vs {expect}");
    }
}
