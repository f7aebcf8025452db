//! The 2D ray trace against a reference copy of the step it replaced.
//! Each step once located the point from the root (`find`, keying the FSR
//! by its path in a hash map) and then walked the same hierarchy again
//! for the boundary distance (`distance_to_boundary`, which intersected
//! every cell's surfaces, shared ones twice, and re-found the lattice
//! element). `Geometry::step` now does both in one descent. Every step
//! must give the same `(fsr, distance, face)` bit for bit, and every
//! track the same `(fsr, length)` stream: on every shipped case's laydown,
//! every serve workload's, the C5G7 builder's, both windows of a 2x1x1
//! decomposition, and on adversarial rays (starts on a lattice wall or a
//! surface, pin-circle tangents, rays along lattice lines, corner hits).

use std::collections::HashMap;
use std::path::Path;

use antmoc::geom::c5g7::{C5g7, C5g7Options, PIN_PITCH, PIN_RADIUS};
use antmoc::geom::{
    BoundaryConds, Cell, Face, Fill, FsrId, Geometry, GeometryBuilder, Lattice, Sense, Surface,
    Universe,
};
use antmoc::input::CaseSpec;
use antmoc::solver::decomp::{DecompSpec, Decomposition};
use antmoc::track::track2d::generate;
use antmoc::track::{trace_track, SegmentStore2d, TrackId, TrackParams, TrackSet2d};
use antmoc::xs::MaterialId;
use antmoc::{build_setup, RunConfig};

const SURFACE_EPS: f64 = 1e-10;

/// The step as it was: `find` from the root with a path-keyed FSR map,
/// then a second descent for the distance.
struct Reference<'g> {
    g: &'g Geometry,
    fsr_by_path: HashMap<Vec<u32>, FsrId>,
}

impl<'g> Reference<'g> {
    fn new(g: &'g Geometry) -> Self {
        let fsr_by_path = g.fsrs().map(|f| (g.fsr_path(f).to_vec(), f)).collect();
        Self { g, fsr_by_path }
    }

    fn match_cell(&self, uni: &Universe, lx: f64, ly: f64) -> Option<usize> {
        uni.cells.iter().position(|cell| {
            cell.region
                .iter()
                .all(|&(sid, sense)| self.g.surfaces()[sid.0 as usize].sense_of(lx, ly) == sense)
        })
    }

    fn find(&self, x: f64, y: f64) -> Option<FsrId> {
        if !self.g.contains(x, y) {
            return None;
        }
        let (ox, oy) = self.g.origin();
        let mut lx = x - ox;
        let mut ly = y - oy;
        let mut u = self.g.root();
        let mut path = Vec::with_capacity(8);
        loop {
            let uni = &self.g.universes()[u.0 as usize];
            let ci = self.match_cell(uni, lx, ly)?;
            path.push(ci as u32);
            match uni.cells[ci].fill {
                Fill::Material(_) => return self.fsr_by_path.get(&path).copied(),
                Fill::Universe(child) => u = child,
                Fill::Lattice(lid) => {
                    let l = &self.g.lattices()[lid.0 as usize];
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

    /// The lattice wall as `Lattice::distance_to_cell_wall` measured it
    /// before it took the element: `find_cell` again.
    fn wall(l: &Lattice, x: f64, y: f64, ux: f64, uy: f64) -> f64 {
        let (ix, iy) = l.find_cell(x, y);
        let (cx, cy) = l.cell_center(ix, iy);
        let mut t = f64::INFINITY;
        if ux.abs() > 1e-14 {
            let wall = if ux > 0.0 { cx + 0.5 * l.pitch_x } else { cx - 0.5 * l.pitch_x };
            let cand = (wall - x) / ux;
            if cand > 0.0 {
                t = t.min(cand);
            }
        }
        if uy.abs() > 1e-14 {
            let wall = if uy > 0.0 { cy + 0.5 * l.pitch_y } else { cy - 0.5 * l.pitch_y };
            let cand = (wall - y) / uy;
            if cand > 0.0 {
                t = t.min(cand);
            }
        }
        t
    }

    fn distance_to_boundary(&self, x: f64, y: f64, ux: f64, uy: f64) -> (f64, Option<Face>) {
        let (x0, x1, y0, y1) = self.g.bounds();
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
        let (ox, oy) = self.g.origin();
        let mut lx = x - ox;
        let mut ly = y - oy;
        let mut u = self.g.root();
        loop {
            let uni = &self.g.universes()[u.0 as usize];
            for cell in &uni.cells {
                for &(sid, _) in &cell.region {
                    if let Some(t) = self.g.surfaces()[sid.0 as usize].distance(lx, ly, ux, uy) {
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
                Fill::Universe(child) => u = child,
                Fill::Lattice(lid) => {
                    let l = &self.g.lattices()[lid.0 as usize];
                    let t = Self::wall(l, lx, ly, ux, uy);
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

    /// The tracing loop as it was, checking the fused step at every point
    /// the reference steps from; returns the `(fsr, length bits)` stream.
    fn trace(&self, start: (f64, f64), phi: f64, length: f64, what: &str) -> Vec<(u32, u64)> {
        let (uy, ux) = phi.sin_cos();
        let mut out: Vec<(FsrId, f64)> = Vec::new();
        let nudge = 1e-9;
        let (mut x, mut y) = start;
        let mut remaining = length;
        while remaining > nudge {
            let px = x + ux * nudge;
            let py = y + uy * nudge;
            let fsr = self.find(px, py);
            let fused = self.g.step(px, py, ux, uy);
            let Some(fsr) = fsr else {
                assert_eq!(fused, None, "{what}: step at ({px}, {py}) found a cell");
                break;
            };
            let (t, face) = self.distance_to_boundary(px, py, ux, uy);
            let fused = fused.unwrap_or_else(|| panic!("{what}: step at ({px}, {py}) lost"));
            assert_eq!(
                (fused.fsr, fused.distance.to_bits(), fused.face),
                (fsr, t.to_bits(), face),
                "{what}: step at ({px}, {py}) along phi {phi}"
            );
            let step = (t + nudge).min(remaining);
            match out.last_mut() {
                Some((f, len)) if *f == fsr => *len += step,
                _ => out.push((fsr, step)),
            }
            x += ux * step;
            y += uy * step;
            remaining -= step;
            if face.is_some() && remaining <= nudge * 10.0 {
                break;
            }
        }
        out.into_iter().map(|(f, len)| (f.0, len.to_bits())).collect()
    }
}

/// Compares every track of a laydown, stored segments included; returns
/// the segments compared.
fn assert_laydown(what: &str, g: &Geometry, tracks: &TrackSet2d, store: &SegmentStore2d) -> usize {
    let reference = Reference::new(g);
    let mut segments = 0;
    for (i, t) in tracks.tracks.iter().enumerate() {
        let what = format!("{what}: track {i}");
        let expect = reference.trace(t.start, t.phi, t.length, &what);
        let stored: Vec<_> =
            store.of(TrackId(i as u32)).iter().map(|s| (s.fsr.0, s.length.to_bits())).collect();
        assert_eq!(stored, expect, "{what} traces differently");
        segments += expect.len();
    }
    segments
}

fn toml_files(dir: &Path, prefix: &str) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(prefix))
        .collect();
    files.sort();
    files
}

#[test]
fn every_shipped_and_serve_case_traces_like_the_reference_step() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cases = toml_files(&root.join("cases"), "");
    let serve = toml_files(&root.join("benchmark/workloads"), "serve_");
    assert!(cases.len() >= 5 && serve.len() >= 4, "expected the shipped and serve cases");
    for path in cases.iter().chain(&serve) {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let spec = CaseSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut config = RunConfig::from_case(&spec).unwrap();
        let decomposition = config.decomposition;
        config.decomposition = (1, 1, 1);
        let setup = build_setup(&config);
        let layout = &setup.problem.layout;
        let g = setup.model.geometry();
        let segments = assert_laydown(&name, g, &layout.tracks2d, &layout.segments2d);
        assert!(segments > 0, "{name}: no segments traced");
        if decomposition != (1, 1, 1) {
            let (nx, ny, nz) = decomposition;
            let m = &setup.model;
            let decomp = Decomposition::build(
                g,
                m.axial(),
                m.library(),
                config.tracks.clone(),
                DecompSpec { nx, ny, nz },
            );
            for (rank, p) in decomp.problems.iter().enumerate() {
                let (tracks, store) = (&p.layout.tracks2d, &p.layout.segments2d);
                assert_laydown(&format!("{name} rank {rank}"), &p.geometry, tracks, store);
            }
        }
    }
}

#[test]
fn c5g7_builder_laydowns_and_2x1x1_windows_trace_like_the_reference_step() {
    let m = C5g7::build(C5g7Options::default());
    for (num_azim, spacing) in [(4, 0.5), (8, 0.2)] {
        let tracks = generate(&m.geometry, num_azim, spacing);
        let store = SegmentStore2d::trace(&m.geometry, &tracks);
        assert_laydown(&format!("c5g7 {num_azim}/{spacing}"), &m.geometry, &tracks, &store);
    }
    let params = TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 8.0 };
    let decomp = Decomposition::build(
        &m.geometry,
        &m.axial,
        &m.library,
        params,
        DecompSpec { nx: 2, ny: 1, nz: 1 },
    );
    assert_eq!(decomp.problems.len(), 2);
    for (rank, p) in decomp.problems.iter().enumerate() {
        let (tracks, store) = (&p.layout.tracks2d, &p.layout.segments2d);
        let segments =
            assert_laydown(&format!("c5g7 2x1x1 rank {rank}"), &p.geometry, tracks, store);
        assert!(segments > 0);
    }
}

/// SplitMix64, so the adversarial rays are the same on every run.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Distance from `p` along `phi` to where the ray leaves the box.
fn chord(g: &Geometry, p: (f64, f64), phi: f64) -> f64 {
    let (x0, x1, y0, y1) = g.bounds();
    let (uy, ux) = phi.sin_cos();
    let mut t = f64::INFINITY;
    if ux > 1e-12 {
        t = t.min((x1 - p.0) / ux);
    } else if ux < -1e-12 {
        t = t.min((x0 - p.0) / ux);
    }
    if uy > 1e-12 {
        t = t.min((y1 - p.1) / uy);
    } else if uy < -1e-12 {
        t = t.min((y0 - p.1) / uy);
    }
    t
}

/// A 3x3 lattice of 1 cm pins (fuel radius 0.4, a 0.45 clad ring) around
/// the origin, with the lattice edge on the domain box, so lattice walls,
/// circles and domain faces tie exactly.
fn pin_lattice() -> Geometry {
    let mut b = GeometryBuilder::new();
    let fuel = b.add_surface(Surface::Circle { x0: 0.0, y0: 0.0, r: 0.4 });
    let clad = b.add_surface(Surface::Circle { x0: 0.0, y0: 0.0, r: 0.45 });
    let pin = b.add_universe(Universe {
        cells: vec![
            Cell { region: vec![(fuel, Sense::Negative)], fill: Fill::Material(MaterialId(0)) },
            Cell {
                region: vec![(fuel, Sense::Positive), (clad, Sense::Negative)],
                fill: Fill::Material(MaterialId(1)),
            },
            Cell { region: vec![(clad, Sense::Positive)], fill: Fill::Material(MaterialId(2)) },
        ],
        name: "pin".into(),
    });
    let lat = b.add_lattice(Lattice {
        nx: 3,
        ny: 3,
        pitch_x: 1.0,
        pitch_y: 1.0,
        universes: vec![pin; 9],
        name: "lat".into(),
    });
    let root = b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
        name: "root".into(),
    });
    b.finalize(root, 3.0, 3.0, (0.0, 0.0), (0.0, 1.0), BoundaryConds::reflective())
}

/// Adversarial rays through a geometry whose pin lattice has pitch
/// `pitch` and circles of radius `radius`, aligned with the box corner.
fn adversarial(what: &str, g: &Geometry, pitch: f64, radius: f64, rng: &mut Rng) -> usize {
    let reference = Reference::new(g);
    let (x0, x1, y0, y1) = g.bounds();
    let (nx, ny) = (((x1 - x0) / pitch).round() as usize, ((y1 - y0) / pitch).round() as usize);
    let line_x = |k: usize| x0 + k as f64 * pitch;
    let line_y = |k: usize| y0 + k as f64 * pitch;
    let any_phi = |rng: &mut Rng| rng.range(0.0, std::f64::consts::TAU);
    let mut segments = 0;
    for family in 0..6 {
        for i in 0..150 {
            let (start, phi) = match family {
                // On a vertical lattice wall.
                0 => ((line_x(rng.below(nx + 1)), rng.range(y0, y1)), any_phi(rng)),
                // On a pin circle (as near as f64 puts it).
                1 => {
                    let a = any_phi(rng);
                    let c =
                        (line_x(rng.below(nx)) + 0.5 * pitch, line_y(rng.below(ny)) + 0.5 * pitch);
                    ((c.0 + radius * a.cos(), c.1 + radius * a.sin()), any_phi(rng))
                }
                // Tangent to a pin circle, starting before the tangent point.
                2 => {
                    let phi = any_phi(rng);
                    let side = if rng.below(2) == 0 { radius } else { -radius };
                    let c =
                        (line_x(rng.below(nx)) + 0.5 * pitch, line_y(rng.below(ny)) + 0.5 * pitch);
                    let touch = (c.0 - side * phi.sin(), c.1 + side * phi.cos());
                    let back = rng.range(0.0, 1.0) * chord(g, touch, phi + std::f64::consts::PI);
                    ((touch.0 - back * phi.cos(), touch.1 - back * phi.sin()), phi)
                }
                // Along a lattice line (domain edges included), either way.
                3 => {
                    let (dir, along_x) =
                        (rng.below(2) as f64 * std::f64::consts::PI, rng.below(2) == 0);
                    if along_x {
                        let x = if dir == 0.0 { x0 } else { x1 };
                        ((x, line_y(rng.below(ny + 1))), dir)
                    } else {
                        let y = if dir == 0.0 { y0 } else { y1 };
                        ((line_x(rng.below(nx + 1)), y), dir + std::f64::consts::FRAC_PI_2)
                    }
                }
                // Through lattice corners: from a corner on the bottom or
                // left edge at 45 degrees, or any corner at 135.
                4 => {
                    if i % 2 == 0 {
                        let k = rng.below(nx);
                        let start =
                            if rng.below(2) == 0 { (line_x(k), y0) } else { (x0, line_y(k)) };
                        (start, std::f64::consts::FRAC_PI_4)
                    } else {
                        (
                            (line_x(rng.below(nx + 1)), line_y(rng.below(ny + 1))),
                            0.75 * std::f64::consts::PI,
                        )
                    }
                }
                // Anywhere, any way.
                _ => ((rng.range(x0, x1), rng.range(y0, y1)), any_phi(rng)),
            };
            let length = chord(g, start, phi);
            if !(length.is_finite() && g.contains(start.0, start.1)) {
                continue;
            }
            let what = format!("{what}: family {family} ray {i} from {start:?} along {phi}");
            let expect = reference.trace(start, phi, length, &what);
            let shipped: Vec<_> = trace_track(g, start, phi, length)
                .iter()
                .map(|s| (s.fsr.0, s.length.to_bits()))
                .collect();
            assert_eq!(shipped, expect, "{what} traces differently");
            segments += expect.len();
        }
    }
    segments
}

#[test]
fn adversarial_rays_trace_like_the_reference_step() {
    let mut rng = Rng(0x2d_0ac1e);
    let pins = pin_lattice();
    let segments = adversarial("pin lattice", &pins, 1.0, 0.4, &mut rng);
    assert!(segments > 2000, "{segments} segments");
    let c5g7 = C5g7::build(C5g7Options::default());
    let segments = adversarial("c5g7", &c5g7.geometry, PIN_PITCH, PIN_RADIUS, &mut rng);
    assert!(segments > 2000, "{segments} segments");
}

#[test]
fn ties_between_the_lattice_edge_and_the_domain_face_keep_the_face() {
    // The pin lattice's outer edge is the domain box and its walls and
    // faces share their arithmetic: a ray leaving through the edge hits
    // both at the same distance, and the box, evaluated first, must win.
    let g = pin_lattice();
    let reference = Reference::new(&g);
    let mut ties = 0;
    // Heights in the corner between pins, where no circle is ahead.
    for y in [-1.49, -1.48, -0.52, -0.48, 0.48, 0.52, 1.48, 1.49] {
        let (px, py) = (1.25, y);
        let step = g.step(px, py, 1.0, 0.0).unwrap();
        let (t, face) = reference.distance_to_boundary(px, py, 1.0, 0.0);
        assert_eq!((step.distance.to_bits(), step.face), (t.to_bits(), face));
        ties += usize::from(step.face == Some(Face::XMax));
    }
    assert_eq!(ties, 8, "every ray ends on the domain face");
}
