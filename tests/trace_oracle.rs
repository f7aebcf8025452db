//! The on-the-fly 3D trace against a reference copy of the walk it
//! replaced: `trace_3d` once re-found the axial cell with `find_cell` at
//! every live 2D segment and stepped through the leading 2D segments one
//! by one; it now finds the cell once per track, carries it, and sums past
//! the segments before `u_lo`. Both must emit the same `(fsr, cell, len)`
//! stream bit for bit — on every shipped case's laydown (the decomposed
//! one per subdomain too) and on adversarial tracks: random axial meshes
//! with many thin planes, tracks that start exactly on a plane,
//! descending tracks and near-horizontal polar angles.

use antmoc::geom::{AxialModel, FsrId, Zone, ZoneKind};
use antmoc::input::CaseSpec;
use antmoc::solver::decomp::{DecompSpec, Decomposition};
use antmoc::track::{trace_3d, Segment2d, Track3dInfo, TrackId, TrackLayout};
use antmoc::{build_setup, RunConfig};

/// The walk as it was before the axial cell was carried: `find_cell` per
/// live 2D segment, every leading 2D segment visited.
fn reference_trace_3d<F: FnMut(FsrId, u32, f64)>(
    info: &Track3dInfo,
    base_segments: &[Segment2d],
    axial: &AxialModel,
    mut emit: F,
) {
    let planes = axial.planes();
    let n_cells = axial.num_cells();
    let slope = if info.ascending { info.cot } else { -info.cot };
    let inv_sin = 1.0 / info.sin_theta;
    let zbias = 1e-12 * (planes[n_cells] - planes[0]).max(1.0);

    let mut u = 0.0f64;
    let n = base_segments.len();
    for k in 0..n {
        let seg = &base_segments[if info.forward2d { k } else { n - 1 - k }];
        let a = u.max(info.u_lo);
        let b = (u + seg.length).min(info.u_hi);
        u += seg.length;
        if b - a <= 1e-12 {
            if u >= info.u_hi {
                break;
            }
            continue;
        }
        let z_a = info.z_lo + (a - info.u_lo) * slope;
        let mut cursor = a;
        let mut cell = axial.find_cell(z_a + if slope > 0.0 { zbias } else { -zbias });
        loop {
            let (z_next, next_cell_exists) = if slope > 0.0 {
                (planes[cell + 1], cell + 1 < n_cells)
            } else {
                (planes[cell], cell > 0)
            };
            let u_cross = a + (z_next - z_a) / slope;
            if u_cross >= b - 1e-12 || !next_cell_exists {
                let du = b - cursor;
                if du > 1e-12 {
                    emit(seg.fsr, cell as u32, du * inv_sin);
                }
                break;
            }
            let du = u_cross - cursor;
            if du > 1e-12 {
                emit(seg.fsr, cell as u32, du * inv_sin);
            }
            cursor = u_cross;
            cell = if slope > 0.0 { cell + 1 } else { cell - 1 };
        }
        if u >= info.u_hi {
            break;
        }
    }
}

type Stream = Vec<(u32, u32, u64)>;

/// Both walks' streams for one track; the second is the shipped one.
fn streams(info: &Track3dInfo, base: &[Segment2d], axial: &AxialModel) -> (Stream, Stream) {
    let mut reference = Vec::new();
    reference_trace_3d(info, base, axial, |fsr, cell, len| {
        reference.push((fsr.0, cell, len.to_bits()));
    });
    let mut shipped = Vec::new();
    trace_3d(info, base, axial, |fsr, cell, len| shipped.push((fsr.0, cell, len.to_bits())));
    (reference, shipped)
}

/// Compares every 3D track of a laydown; returns the segments compared.
fn assert_laydown(name: &str, layout: &TrackLayout, axial: &AxialModel) -> usize {
    let mut segments = 0;
    for id in layout.tracks3d.ids() {
        let info = layout.tracks3d.info(id, &layout.tracks2d, &layout.chains);
        let (reference, shipped) = streams(&info, layout.segments2d.of(info.track2d), axial);
        assert_eq!(shipped, reference, "{name}: track {id:?} traces differently");
        segments += shipped.len();
    }
    segments
}

#[test]
fn every_shipped_case_traces_like_the_reference_walk() {
    let dir = format!("{}/../../cases", env!("CARGO_MANIFEST_DIR"));
    let mut cases: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    cases.sort();
    assert!(cases.len() >= 5, "expected the shipped cases under {dir}");
    for path in cases {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let spec = CaseSpec::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let mut config = RunConfig::from_case(&spec).unwrap();
        let (nx, ny, nz) = config.decomposition;
        config.decomposition = (1, 1, 1);
        let setup = build_setup(&config);
        let segments = assert_laydown(&name, &setup.problem.layout, &setup.problem.axial);
        assert!(segments > 0, "{name}: no segments traced");
        if (nx, ny, nz) != (1, 1, 1) {
            let m = &setup.model;
            let spec = DecompSpec { nx, ny, nz };
            let decomp = Decomposition::build(
                m.geometry(),
                m.axial(),
                m.library(),
                config.tracks.clone(),
                spec,
            );
            for (rank, p) in decomp.problems.iter().enumerate() {
                assert_laydown(&format!("{name} rank {rank}"), &p.layout, &p.axial);
            }
        }
    }
}

/// SplitMix64, so the adversarial inputs are the same on every run.
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

/// A mesh of 2..=12 zones of random heights (some a thousandth of a cm),
/// each cut into cells of up to a random target height: tens to hundreds
/// of planes, many of them thin.
fn thin_plane_mesh(rng: &mut Rng) -> AxialModel {
    let mut z = rng.range(-5.0, 5.0);
    let zones = (0..2 + rng.below(11))
        .map(|_| {
            let h = if rng.below(3) == 0 { rng.range(1e-3, 1e-2) } else { rng.range(0.05, 2.0) };
            let zone = Zone { z_lo: z, z_hi: z + h, kind: ZoneKind::AsIs };
            z += h;
            zone
        })
        .collect();
    AxialModel::new(zones, rng.range(0.01, 0.3))
}

/// Random 2D segments: mostly ordinary lengths, some shorter than the
/// walk's 1e-12 tolerance, some exactly zero.
fn base_segments(rng: &mut Rng) -> Vec<Segment2d> {
    (0..1 + rng.below(60))
        .map(|i| {
            let length = match rng.below(10) {
                0 => 0.0,
                1 => rng.range(0.0, 2e-12),
                2 => rng.range(1e-6, 1e-3),
                _ => rng.range(0.01, 1.5),
            };
            Segment2d { fsr: FsrId(i as u32), length }
        })
        .collect()
}

/// A track over `base` from `z_lo` to `z_hi` (either order); the `u`
/// window is random within the base track.
fn track(rng: &mut Rng, base: &[Segment2d], z_lo: f64, z_hi: f64) -> Track3dInfo {
    let total: f64 = base.iter().map(|s| s.length).sum();
    let (mut u_lo, mut u_hi) = (rng.range(0.0, total), rng.range(0.0, total));
    if u_hi < u_lo {
        std::mem::swap(&mut u_lo, &mut u_hi);
    }
    if rng.below(4) == 0 {
        u_lo = 0.0;
    }
    if rng.below(4) == 0 {
        u_hi = total;
    }
    let du = (u_hi - u_lo).max(1e-9);
    let cot = ((z_hi - z_lo).abs() / du).max(1e-15);
    let sin_theta = 1.0 / (1.0 + cot * cot).sqrt();
    Track3dInfo {
        track2d: TrackId(0),
        forward2d: rng.below(2) == 0,
        azim: 0,
        polar: 0,
        ascending: z_hi >= z_lo,
        u_lo,
        u_hi,
        z_lo,
        cot,
        sin_theta,
        length: du / sin_theta,
    }
}

#[test]
fn adversarial_tracks_trace_like_the_reference_walk() {
    let mut rng = Rng(0x0123_4567_89ab_cdef);
    let (mut tracks, mut segments, mut on_plane, mut down, mut flat) = (0, 0, 0, 0, 0);
    for _ in 0..300 {
        let axial = thin_plane_mesh(&mut rng);
        let planes = axial.planes().to_vec();
        let (z0, z1) = axial.z_range();
        for _ in 0..40 {
            let base = base_segments(&mut rng);
            // Start on a plane a third of the time (interior or either
            // end), otherwise anywhere in the mesh.
            let z_lo = if rng.below(3) == 0 {
                on_plane += 1;
                planes[rng.below(planes.len())]
            } else {
                rng.range(z0, z1)
            };
            let z_hi = match rng.below(4) {
                // Near-horizontal: the track climbs or falls by at most
                // a micrometre over its whole length.
                0 => {
                    flat += 1;
                    (z_lo + rng.range(-1e-4, 1e-4)).clamp(z0, z1)
                }
                // Ends exactly on a plane.
                1 => planes[rng.below(planes.len())],
                _ => rng.range(z0, z1),
            };
            let info = track(&mut rng, &base, z_lo, z_hi);
            down += usize::from(!info.ascending);
            let (reference, shipped) = streams(&info, &base, &axial);
            assert_eq!(shipped, reference, "mesh {planes:?}, track {info:?}, base {base:?}");
            tracks += 1;
            segments += shipped.len();
        }
    }
    // The draw covered every adversarial family with real crossings.
    assert!(on_plane > 1000 && down > 1000 && flat > 1000, "{on_plane} {down} {flat}");
    assert!(segments > 5 * tracks, "{segments} segments over {tracks} tracks");
}

/// The biased z at which the walk starts each live 2D segment of `info`
/// (the point whose cell `find_cell` names), by the walk's own arithmetic
/// for a mesh no taller than 1 cm, whose z bias is exactly 1e-12.
fn segment_starts(info: &Track3dInfo, base: &[Segment2d]) -> Vec<f64> {
    let slope = if info.ascending { info.cot } else { -info.cot };
    let bias = if slope > 0.0 { 1e-12 } else { -1e-12 };
    let n = base.len();
    let mut u = 0.0f64;
    let mut starts = Vec::new();
    for k in 0..n {
        let seg = &base[if info.forward2d { k } else { n - 1 - k }];
        let a = u.max(info.u_lo);
        let b = (u + seg.length).min(info.u_hi);
        u += seg.length;
        if b - a > 1e-12 {
            starts.push(info.z_lo + (a - info.u_lo) * slope + bias);
        }
        if u >= info.u_hi {
            break;
        }
    }
    starts
}

#[test]
fn segment_starts_exactly_on_a_plane_trace_like_the_reference_walk() {
    // The carried cell must step onto a plane the biased start lands on
    // exactly, as `find_cell` does (a point on a plane is in the upper
    // cell); a random mesh almost never puts a plane there, so put one.
    let mut rng = Rng(0xfeed_beef);
    let mut hits = 0;
    for _ in 0..4000 {
        let base = base_segments(&mut rng);
        let (z_lo, z_hi) = (rng.range(0.05, 0.9), rng.range(0.05, 0.9));
        let info = track(&mut rng, &base, z_lo, z_hi);
        let starts = segment_starts(&info, &base);
        let Some(&plane) = starts.get(1 + rng.below(starts.len().max(2) - 1)) else {
            continue;
        };
        if !(plane > 0.01 && plane < 0.94) {
            continue;
        }
        let zones = vec![
            Zone { z_lo: 0.0, z_hi: plane, kind: ZoneKind::AsIs },
            Zone { z_lo: plane, z_hi: 0.95, kind: ZoneKind::AsIs },
        ];
        let axial = AxialModel::new(zones, rng.range(0.02, 0.3));
        assert!(axial.planes().contains(&plane));
        let (reference, shipped) = streams(&info, &base, &axial);
        assert_eq!(shipped, reference, "plane {plane}, track {info:?}, base {base:?}");
        hits += 1;
    }
    assert!(hits > 1000, "only {hits} tracks had a later segment start to put a plane on");
}
