//! On-the-fly (OTF) 3D segment generation and explicit 3D segment storage.
//!
//! The OTF method (§4.1 of the paper, after Gunow et al.) never stores 3D
//! segments: each 3D track regenerates them during the sweep by walking
//! its base 2D track's stored segments and splitting at axial mesh planes.
//! A 2D sub-length `du` at polar angle `theta` corresponds to a 3D length
//! `du / sin(theta)`.
//!
//! [`SegmentStore3d`] is the EXPlicit alternative: every 3D segment
//! precomputed and stored (fastest sweeps, enormous memory — 93 % of the
//! footprint in the paper's Table 3). The track-management strategy mixes
//! both per track. A stored segment names its distinct (material, f32
//! length) pair, whose attenuation a sweep reads from a per-store table.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use antmoc_geom::{AxialModel, Fsr3dId, Fsr3dMap, FsrId};

use crate::chain::ChainSet;
use crate::segment2d::{Segment2d, SegmentStore2d};
use crate::track2d::TrackSet2d;
use crate::track3d::{Track3dId, Track3dInfo, TrackSet3d};

/// A generated 3D segment: radial FSR, axial cell, 3D length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment3d {
    pub radial_fsr: FsrId,
    pub axial: u32,
    pub length: f64,
}

/// Walks the 3D segments of one track in forward (`u` increasing) order,
/// invoking `emit` per segment. This is the OTF kernel body (the paper's
/// Fig. 3(b) flow): allocation-free, ready to run inside a device kernel.
///
/// `base_segments` are the 2D segments of the track's base 2D track in
/// that track's own forward order; the walker reverses them internally
/// when the chain traverses the 2D track backwards.
pub fn trace_3d<F: FnMut(FsrId, u32, f64)>(
    info: &Track3dInfo,
    base_segments: &[Segment2d],
    axial: &AxialModel,
    mut emit: F,
) {
    let planes = axial.planes();
    let n_cells = axial.num_cells();
    let slope = if info.ascending { info.cot } else { -info.cot };
    let inv_sin = 1.0 / info.sin_theta;
    // Tiny z bias so starting exactly on a plane picks the cell we are
    // moving into.
    let zbias = 1e-12 * (planes[n_cells] - planes[0]).max(1.0);

    let mut u = 0.0f64; // cumulative traversal coordinate over the member
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
        // z runs from z_a to z_b monotonic with sign `slope`.
        let z_a = info.z_lo + (a - info.u_lo) * slope;
        let mut cursor = a;
        let mut cell = axial.find_cell(z_a + if slope > 0.0 { zbias } else { -zbias });
        loop {
            // Next plane in the direction of travel.
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

/// Compact 3D segment (8 bytes): flattened 3D FSR id and the index of its
/// attenuation span; in a store, of its [`SegmentStore3d::keys`] entry,
/// which holds the paper's single-precision length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment3dCompact {
    pub fsr3d: u32,
    pub key: u32,
}

/// One distinct (material, f32 length) pair of a store: everything a
/// segment's attenuation `1 - exp(-sigma_t * length)` depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentKey {
    pub material: u32,
    pub length: f32,
}

/// The store's dedupe hash of a `(material, length bits)` word, a folded
/// 128-bit multiply (std's SipHash costs several times more per lookup;
/// the words come from the program's own trace, so collision resistance
/// buys nothing).
#[derive(Default)]
struct FoldHash(u64);

impl std::hash::Hasher for FoldHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the store hashes u64 words only")
    }

    fn write_u64(&mut self, word: u64) {
        let m = (word as u128) * 0x9e37_79b9_7f4a_7c15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
}

/// Explicitly stored 3D segments for a set of tracks, CSR-indexed.
#[derive(Debug, Clone)]
pub struct SegmentStore3d {
    segments: Vec<Segment3dCompact>,
    /// Distinct (material, length) pairs, numbered by first use in CSR
    /// order (so a sweep walks them mostly forward).
    keys: Vec<SegmentKey>,
    offsets: Vec<u64>,
    /// Which 3D tracks are stored (parallel to `offsets`; when storing all
    /// tracks this is just the identity).
    tracks: Vec<Track3dId>,
    /// Inverse: position of a track in `tracks`, or `u32::MAX`.
    position: Vec<u32>,
}

impl SegmentStore3d {
    /// Traces and stores the 3D segments of `selected` tracks (pass
    /// `t3.ids().collect()` for the EXP mode), deduplicating their
    /// (material, length) pairs into [`SegmentStore3d::keys`].
    pub fn trace(
        selected: &[Track3dId],
        t3: &TrackSet3d,
        t2: &TrackSet2d,
        chains: &ChainSet,
        store2d: &SegmentStore2d,
        axial: &AxialModel,
        fsr3d: &Fsr3dMap,
    ) -> Self {
        use rayon::prelude::*;
        let _trace_span = antmoc_telemetry::Telemetry::current().span("segments_3d_store");
        let per_track: Vec<Vec<(Fsr3dId, f32)>> = selected
            .par_iter()
            .map(|&id| {
                let info = t3.info(id, t2, chains);
                let base = store2d.of(info.track2d);
                let mut v = Vec::with_capacity(16);
                trace_3d(&info, base, axial, |fsr, cell, len| {
                    v.push((fsr3d.id(fsr, cell as usize), len as f32));
                });
                v
            })
            .collect();
        let mut segments = Vec::with_capacity(per_track.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(per_track.len() + 1);
        offsets.push(0u64);
        let mut keys = Vec::new();
        let mut index: HashMap<u64, u32, BuildHasherDefault<FoldHash>> = HashMap::default();
        for v in per_track {
            for (id, length) in v {
                let material = fsr3d.material(id).0;
                let word = (material as u64) << 32 | length.to_bits() as u64;
                let key = *index.entry(word).or_insert_with(|| {
                    keys.push(SegmentKey { material, length });
                    keys.len() as u32 - 1
                });
                segments.push(Segment3dCompact { fsr3d: id.0, key });
            }
            offsets.push(segments.len() as u64);
        }
        let mut position = vec![u32::MAX; t3.num_tracks()];
        for (i, id) in selected.iter().enumerate() {
            position[id.0 as usize] = i as u32;
        }
        Self { segments, keys, offsets, tracks: selected.to_vec(), position }
    }

    /// Stored segments of a track, or `None` when the track was not
    /// selected (the caller falls back to OTF).
    pub fn of(&self, id: Track3dId) -> Option<&[Segment3dCompact]> {
        let pos = self.position[id.0 as usize];
        if pos == u32::MAX {
            return None;
        }
        let lo = self.offsets[pos as usize] as usize;
        let hi = self.offsets[pos as usize + 1] as usize;
        Some(&self.segments[lo..hi])
    }

    /// The store's distinct (material, length) pairs; a segment's `key`
    /// indexes this list.
    pub fn keys(&self) -> &[SegmentKey] {
        &self.keys
    }

    /// Total stored segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of stored tracks.
    pub fn num_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Bytes of storage.
    pub fn bytes(&self) -> u64 {
        (self.segments.len() * std::mem::size_of::<Segment3dCompact>()
            + self.keys.len() * std::mem::size_of::<SegmentKey>()
            + self.offsets.len() * 8
            + self.position.len() * 4
            + self.tracks.len() * 4) as u64
    }
}

/// Counts 3D segments per track without storing them (used by the track
/// manager's ranking and the performance model's measured values).
pub fn count_segments_per_track(
    t3: &TrackSet3d,
    t2: &TrackSet2d,
    chains: &ChainSet,
    store2d: &SegmentStore2d,
    axial: &AxialModel,
) -> Vec<u32> {
    use rayon::prelude::*;
    let _span = antmoc_telemetry::Telemetry::current().span("otf_count_segments");
    (0..t3.num_tracks() as u32)
        .into_par_iter()
        .map(|i| {
            let id = Track3dId(i);
            let info = t3.info(id, t2, chains);
            let base = store2d.of(info.track2d);
            let mut n = 0u32;
            trace_3d(&info, base, axial, |_, _, _| n += 1);
            n
        })
        .collect()
}

/// Track-estimated 3D FSR volumes:
/// `V_i = sum_tracks (w_a * w_p / 2*pi) * A_perp * l_i`
/// (each 3D track is swept in both directions with equal weight, hence the
/// `2/(4*pi)`). The solver must use these volumes for exact neutron
/// balance.
pub fn estimate_volumes(
    t3: &TrackSet3d,
    t2: &TrackSet2d,
    chains: &ChainSet,
    store2d: &SegmentStore2d,
    axial: &AxialModel,
    fsr3d: &Fsr3dMap,
) -> Vec<f64> {
    let _span = antmoc_telemetry::Telemetry::current().span("otf_estimate_volumes");
    // One accumulator, filled in track order on the calling thread: the
    // volume bits (and everything downstream — keff, pin rates) are then a
    // function of the laydown alone, whatever the pool size.
    let mut out = vec![0.0f64; fsr3d.len()];
    for i in 0..t3.num_tracks() {
        let id = Track3dId(i as u32);
        let info = t3.info(id, t2, chains);
        let w_a = t2.quadrature.weight(info.azim);
        let w_p = t3.polar.weight(info.polar);
        let area = t3.tube_area(id, t2, chains);
        let coeff = w_a * w_p * area / (2.0 * std::f64::consts::PI);
        let base = store2d.of(info.track2d);
        trace_3d(&info, base, axial, |fsr, cell, len| {
            out[fsr3d.id(fsr, cell as usize).0 as usize] += coeff * len;
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainSet;
    use crate::track2d::generate;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, Bc, BoundaryConds, Fsr3dMap};
    use antmoc_quadrature::{PolarQuadrature, PolarType};
    use antmoc_xs::MaterialId;

    struct Fixture {
        t2: TrackSet2d,
        chains: ChainSet,
        t3: TrackSet3d,
        store2d: SegmentStore2d,
        axial: AxialModel,
        fsr3d: Fsr3dMap,
    }

    fn fixture() -> Fixture {
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(MaterialId(0), 4.0, 3.0, (0.0, 2.0), bcs);
        let t2 = generate(&g, 8, 0.5);
        let chains = ChainSet::build(&t2);
        let polar = PolarQuadrature::new(PolarType::GaussLegendre, 4);
        let t3 = TrackSet3d::build(&t2, &chains, polar, g.z_range(), 0.4);
        let store2d = SegmentStore2d::trace(&g, &t2);
        let axial = AxialModel::uniform(0.0, 2.0, 0.5);
        let materials: Vec<_> = g.fsrs().map(|f| g.fsr_material(f)).collect();
        let fsr3d = Fsr3dMap::new(&materials, &axial);
        Fixture { t2, chains, t3, store2d, axial, fsr3d }
    }

    #[test]
    fn otf_lengths_sum_to_track_length() {
        let f = fixture();
        for id in f.t3.ids() {
            let info = f.t3.info(id, &f.t2, &f.chains);
            let mut total = 0.0;
            trace_3d(&info, f.store2d.of(info.track2d), &f.axial, |_, _, l| total += l);
            assert!((total - info.length).abs() < 1e-7, "track {id:?}: {total} vs {}", info.length);
        }
    }

    #[test]
    fn otf_segments_respect_axial_cells() {
        let f = fixture();
        for id in f.t3.ids().take(200) {
            let info = f.t3.info(id, &f.t2, &f.chains);
            let mut z = info.z_lo;
            let mut prev_cell: Option<u32> = None;
            trace_3d(&info, f.store2d.of(info.track2d), &f.axial, |_, cell, l| {
                // z midpoint of this segment must lie in the named cell.
                let dz = l * info.sin_theta * info.cot * if info.ascending { 1.0 } else { -1.0 };
                let z_mid = z + dz / 2.0;
                let expect = f.axial.find_cell(z_mid);
                assert_eq!(expect as u32, cell, "z_mid {z_mid}");
                z += dz;
                // Axial cells change by at most 1 between segments of the
                // same 2D FSR.
                if let Some(p) = prev_cell {
                    assert!((cell as i64 - p as i64).abs() <= 1 || cell == p);
                }
                prev_cell = Some(cell);
            });
        }
    }

    #[test]
    fn explicit_store_matches_otf() {
        let f = fixture();
        let all: Vec<Track3dId> = f.t3.ids().collect();
        let store =
            SegmentStore3d::trace(&all, &f.t3, &f.t2, &f.chains, &f.store2d, &f.axial, &f.fsr3d);
        assert_eq!(store.num_tracks(), f.t3.num_tracks());
        for id in f.t3.ids() {
            let stored = store.of(id).unwrap();
            let info = f.t3.info(id, &f.t2, &f.chains);
            let mut otf = Vec::new();
            trace_3d(&info, f.store2d.of(info.track2d), &f.axial, |fsr, cell, l| {
                otf.push((f.fsr3d.id(fsr, cell as usize).0, l as f32));
            });
            assert_eq!(stored.len(), otf.len(), "track {id:?}");
            for (s, (fsr3d, l)) in stored.iter().zip(otf) {
                assert_eq!(s.fsr3d, fsr3d);
                let key = store.keys()[s.key as usize];
                assert_eq!(key.length.to_bits(), l.to_bits());
                assert_eq!(key.material, f.fsr3d.material(Fsr3dId(fsr3d)).0);
            }
        }
        // One key per distinct pair.
        let mut words: Vec<_> =
            store.keys().iter().map(|k| (k.material, k.length.to_bits())).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), store.keys().len());
    }

    #[test]
    fn partial_store_returns_none_for_unselected() {
        let f = fixture();
        let some: Vec<Track3dId> = f.t3.ids().step_by(3).collect();
        let store =
            SegmentStore3d::trace(&some, &f.t3, &f.t2, &f.chains, &f.store2d, &f.axial, &f.fsr3d);
        for (i, id) in f.t3.ids().enumerate() {
            assert_eq!(store.of(id).is_some(), i % 3 == 0);
        }
    }

    #[test]
    fn segment_counts_match_store() {
        let f = fixture();
        let counts = count_segments_per_track(&f.t3, &f.t2, &f.chains, &f.store2d, &f.axial);
        let all: Vec<Track3dId> = f.t3.ids().collect();
        let store =
            SegmentStore3d::trace(&all, &f.t3, &f.t2, &f.chains, &f.store2d, &f.axial, &f.fsr3d);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, store.num_segments());
        for id in f.t3.ids() {
            assert_eq!(store.of(id).unwrap().len(), counts[id.0 as usize] as usize);
        }
    }

    #[test]
    fn estimated_volumes_sum_to_box_volume() {
        let f = fixture();
        let vols = estimate_volumes(&f.t3, &f.t2, &f.chains, &f.store2d, &f.axial, &f.fsr3d);
        let total: f64 = vols.iter().sum();
        let exact = 4.0 * 3.0 * 2.0;
        assert!((total - exact).abs() / exact < 0.02, "estimated {total} vs exact {exact}");
        // Homogeneous box, uniform axial mesh: all cells of equal height
        // should have nearly equal volumes.
        let per_cell = exact / vols.len() as f64;
        for v in &vols {
            assert!((v - per_cell).abs() / per_cell < 0.05, "{v} vs {per_cell}");
        }
    }
}
