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
//! both per track.
//!
//! Either way a segment is `(fsr3d, key)`: the key numbers its distinct
//! (material, f32 length) pair in the laydown's one [`SegmentKeys`], which
//! set-up fills in the same walk that estimates the volumes
//! ([`SetupWalk`]). A store looks its segments' keys up once; an OTF
//! traversal looks them up as it traces ([`trace_keyed`]). Both then read
//! the pair's attenuation span from one per-problem table, so the sweep
//! evaluates no exponential.
//!
//! The pair-to-key index is one open-addressed table of 16-byte `(word,
//! key)` slots, the word being `material << 32 | length bits`. Its length
//! is a power of two and it is never more than half full; a lookup starts
//! at the word's folded 128-bit multiply and probes linearly to the slot
//! holding the word or to an empty one (`key == u32::MAX`, so no word is
//! reserved). Keys are numbered by first use and the index only finds
//! them, so its layout moves no bit.

use antmoc_geom::{AxialModel, Fsr3dMap, FsrId};

use crate::chain::ChainSet;
use crate::segment2d::{Segment2d, SegmentStore2d};
use crate::track2d::TrackSet2d;
use crate::track3d::{Track3dId, Track3dInfo, TrackSet3d};
use crate::TrackLayout;

/// Walks the 3D segments of one track in forward (`u` increasing) order,
/// invoking `emit` per segment. This is the OTF kernel body (the paper's
/// Fig. 3(b) flow): allocation-free, ready to run inside a device kernel.
///
/// `base_segments` are the 2D segments of the track's base 2D track in
/// that track's own forward order; the walker reverses them internally
/// when the chain traverses the 2D track backwards.
///
/// The walk finds nothing twice. The 2D segments that end at or before
/// `u_lo` are summed past without being split. z is monotone along the
/// track, so the axial cell is found once (`find_cell` at `z_lo`) and then
/// carried: at each live 2D segment it steps in the direction of travel
/// while the next plane lies at or before the segment's start, which is
/// `find_cell`'s answer for that start.
pub fn trace_3d<F: FnMut(FsrId, u32, f64)>(
    info: &Track3dInfo,
    base_segments: &[Segment2d],
    axial: &AxialModel,
    mut emit: F,
) {
    let planes = axial.planes();
    let n_cells = axial.num_cells();
    let slope = if info.ascending { info.cot } else { -info.cot };
    let up = slope > 0.0;
    let inv_sin = 1.0 / info.sin_theta;
    // Tiny z bias so starting exactly on a plane picks the cell we are
    // moving into.
    let zbias = 1e-12 * (planes[n_cells] - planes[0]).max(1.0);
    let bias = if up { zbias } else { -zbias };
    let n = base_segments.len();
    let seg_at = |k: usize| &base_segments[if info.forward2d { k } else { n - 1 - k }];

    // Skip the 2D segments that end at or before `u_lo`: they emit
    // nothing, and `u` takes the same additions in the same order.
    let mut u = 0.0f64; // cumulative traversal coordinate over the member
    let mut k = 0;
    while k < n {
        let end = u + seg_at(k).length;
        if end > info.u_lo {
            break;
        }
        u = end;
        k += 1;
    }
    // Every later segment start lies at or beyond `z_lo` in the direction
    // of travel, so the cell is only ever stepped forward from here.
    let mut cell = axial.find_cell(info.z_lo + bias);
    for k in k..n {
        let seg = seg_at(k);
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
        let z_start = z_a + bias;
        if up {
            while cell + 1 < n_cells && planes[cell + 1] <= z_start {
                cell += 1;
            }
        } else {
            while cell > 0 && planes[cell] > z_start {
                cell -= 1;
            }
        }
        debug_assert_eq!(cell, axial.find_cell(z_start), "carried axial cell at z {z_start}");
        let mut cursor = a;
        let mut c = cell;
        loop {
            // Next plane in the direction of travel.
            let (z_next, next_cell_exists) =
                if up { (planes[c + 1], c + 1 < n_cells) } else { (planes[c], c > 0) };
            let u_cross = a + (z_next - z_a) / slope;
            if u_cross >= b - 1e-12 || !next_cell_exists {
                let du = b - cursor;
                if du > 1e-12 {
                    emit(seg.fsr, c as u32, du * inv_sin);
                }
                break;
            }
            let du = u_cross - cursor;
            if du > 1e-12 {
                emit(seg.fsr, c as u32, du * inv_sin);
            }
            cursor = u_cross;
            c = if up { c + 1 } else { c - 1 };
        }
        if u >= info.u_hi {
            break;
        }
    }
}

/// Compact 3D segment (8 bytes): flattened 3D FSR id and the index of its
/// attenuation span, its [`SegmentKeys`] entry, which holds the paper's
/// single-precision length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment3dCompact {
    pub fsr3d: u32,
    pub key: u32,
}

/// One distinct (material, f32 length) pair of a laydown: everything a
/// segment's attenuation `1 - exp(-sigma_t * length)` depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentKey {
    pub material: u32,
    pub length: f32,
}

/// One slot of the key index: a pair's word and its key, or [`EMPTY`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    word: u64,
    key: u32,
}

const EMPTY: Slot = Slot { word: 0, key: u32::MAX };

/// Slots of an index that has numbered nothing yet.
const MIN_SLOTS: usize = 16;

/// The distinct (material, f32 length) pairs of a laydown's 3D segments,
/// numbered by first use in track-id order, and the index from a pair to
/// its key. One per problem: stored and on-the-fly segments share its key
/// space, and a sweep reads a key's attenuation span from one table.
///
/// The index is the open-addressed slot table the module docs describe.
/// std's SipHash costs several times more per lookup; the words come from
/// the program's own trace, so collision resistance buys nothing.
#[derive(Debug, Clone)]
pub struct SegmentKeys {
    slots: Vec<Slot>,
    keys: Vec<SegmentKey>,
}

/// The slot of `slots` holding `word`, or the empty slot where it goes.
#[inline]
fn probe(slots: &[Slot], word: u64) -> usize {
    let mask = slots.len() - 1;
    let m = (word as u128) * 0x9e37_79b9_7f4a_7c15;
    let mut i = (m as u64 ^ (m >> 64) as u64) as usize & mask;
    // Terminates: the table is never more than half full.
    loop {
        let slot = slots[i];
        if slot.key == u32::MAX || slot.word == word {
            return i;
        }
        i = (i + 1) & mask;
    }
}

/// The key of `word` in `slots`, or `None` when it has none.
#[inline]
fn lookup(slots: &[Slot], word: u64) -> Option<u32> {
    let slot = slots[probe(slots, word)];
    (slot.key != u32::MAX).then_some(slot.key)
}

impl Default for SegmentKeys {
    fn default() -> Self {
        Self { slots: vec![EMPTY; MIN_SLOTS], keys: Vec::new() }
    }
}

impl SegmentKeys {
    #[inline]
    fn word(material: u32, length: f32) -> u64 {
        (material as u64) << 32 | length.to_bits() as u64
    }

    /// Numbers a pair next unless it already has a key.
    fn insert(&mut self, material: u32, length: f32) {
        let word = Self::word(material, length);
        let i = probe(&self.slots, word);
        if self.slots[i].key != u32::MAX {
            return;
        }
        assert!(self.keys.len() < u32::MAX as usize, "more distinct segment pairs than keys");
        self.slots[i] = Slot { word, key: self.keys.len() as u32 };
        self.keys.push(SegmentKey { material, length });
        if 2 * self.keys.len() > self.slots.len() {
            self.slots = vec![EMPTY; 2 * self.slots.len()];
            for (key, k) in self.keys.iter().enumerate() {
                let word = Self::word(k.material, k.length);
                let i = probe(&self.slots, word);
                self.slots[i] = Slot { word, key: key as u32 };
            }
        }
    }

    /// The key of a pair, or `None` when the laydown never produced it.
    #[inline]
    pub fn find(&self, material: u32, length: f32) -> Option<u32> {
        lookup(&self.slots, Self::word(material, length))
    }

    /// The pairs in key order; a segment's `key` indexes this list.
    pub fn as_slice(&self) -> &[SegmentKey] {
        &self.keys
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the laydown has no segments at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// [`trace_3d`] with every segment resolved to its compact form: pushes
/// `(fsr3d, key)` per segment onto `out`, the key looked up in `keys`.
/// Panics if a segment's pair is missing, which cannot happen when `keys`
/// came from a [`SetupWalk`] of the same laydown: it traced the same
/// track through the same `trace_3d` with the same f32 cast.
#[inline]
pub fn trace_keyed(
    info: &Track3dInfo,
    base_segments: &[Segment2d],
    axial: &AxialModel,
    fsr3d: &Fsr3dMap,
    keys: &SegmentKeys,
    out: &mut Vec<Segment3dCompact>,
) {
    // The slots as a local slice: the pushes onto `out` then cannot make
    // the compiler reload the table's address for every segment.
    let slots = keys.slots.as_slice();
    trace_3d(info, base_segments, axial, |fsr, cell, len| {
        let id = fsr3d.id(fsr, cell as usize);
        let word = SegmentKeys::word(fsr3d.material(id).0, len as f32);
        // invariant: the set-up walk numbered every pair this trace can
        // emit (same inputs, same arithmetic, same f32 rounding).
        let key = lookup(slots, word).expect("segment pair not in the laydown's keys");
        out.push(Segment3dCompact { fsr3d: id.0, key });
    });
}

/// Explicitly stored 3D segments for a set of tracks, CSR-indexed.
#[derive(Debug, Clone)]
pub struct SegmentStore3d {
    segments: Vec<Segment3dCompact>,
    offsets: Vec<u64>,
    /// Which 3D tracks are stored (parallel to `offsets`; when storing all
    /// tracks this is just the identity).
    tracks: Vec<Track3dId>,
    /// Inverse: position of a track in `tracks`, or `u32::MAX`.
    position: Vec<u32>,
}

impl SegmentStore3d {
    /// Traces and stores the 3D segments of `selected` tracks (pass
    /// `layout.tracks3d.ids().collect()` for the EXP mode), each segment
    /// keyed in the laydown's `keys`.
    pub fn trace(
        selected: &[Track3dId],
        layout: &TrackLayout,
        axial: &AxialModel,
        keys: &SegmentKeys,
    ) -> Self {
        use rayon::prelude::*;
        let _trace_span = antmoc_telemetry::Telemetry::current().span("segments_3d_store");
        let (t3, t2, chains) = (&layout.tracks3d, &layout.tracks2d, &layout.chains);
        let per_track: Vec<Vec<Segment3dCompact>> = selected
            .par_iter()
            .map(|&id| {
                let info = t3.info(id, t2, chains);
                let base = layout.segments2d.of(info.track2d);
                let mut v = Vec::with_capacity(16);
                trace_keyed(&info, base, axial, &layout.fsr3d, keys, &mut v);
                v
            })
            .collect();
        let mut segments = Vec::with_capacity(per_track.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(per_track.len() + 1);
        offsets.push(0u64);
        for v in per_track {
            segments.extend(v);
            offsets.push(segments.len() as u64);
        }
        let mut position = vec![u32::MAX; t3.num_tracks()];
        for (i, id) in selected.iter().enumerate() {
            position[id.0 as usize] = i as u32;
        }
        Self { segments, offsets, tracks: selected.to_vec(), position }
    }

    /// Bytes a store of any selection over `num_tracks` tracks holds
    /// besides its per-track records: the track-position index and the
    /// closing CSR offset.
    pub fn fixed_bytes(num_tracks: usize) -> u64 {
        num_tracks as u64 * 4 + 8
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

/// What set-up learns from one walk over every 3D track in track-id
/// order: the track-estimated 3D FSR volumes, each track's segment count
/// and the laydown's [`SegmentKeys`]. A problem walks its laydown once,
/// here; [`estimate_volumes`] and [`count_segments_per_track`] give the
/// first two parts alone.
///
/// The volumes are `V_i = sum_tracks (w_a * w_p / 2*pi) * A_perp * l_i`
/// (each 3D track is swept in both directions with equal weight, hence the
/// `2/(4*pi)`). The solver must use these volumes for exact neutron
/// balance.
#[derive(Debug)]
pub struct SetupWalk {
    pub volumes: Vec<f64>,
    pub counts: Vec<u32>,
    pub keys: SegmentKeys,
}

impl SetupWalk {
    /// Walks every track of the laydown once, in track-id order.
    pub fn run(
        t3: &TrackSet3d,
        t2: &TrackSet2d,
        chains: &ChainSet,
        store2d: &SegmentStore2d,
        axial: &AxialModel,
        fsr3d: &Fsr3dMap,
    ) -> Self {
        let _span = antmoc_telemetry::Telemetry::current().span("otf_setup_walk");
        // One accumulator, filled in track order on the calling thread: the
        // volume bits (and everything downstream — keff, pin rates) are then
        // a function of the laydown alone, whatever the pool size. The keys
        // are numbered in the same order, so they are too.
        let mut volumes = vec![0.0f64; fsr3d.len()];
        let mut counts = Vec::with_capacity(t3.num_tracks());
        let mut keys = SegmentKeys::default();
        for i in 0..t3.num_tracks() {
            let id = Track3dId(i as u32);
            let info = t3.info(id, t2, chains);
            let w_a = t2.quadrature.weight(info.azim);
            let w_p = t3.polar.weight(info.polar);
            let area = t3.tube_area(id, t2, chains);
            let coeff = w_a * w_p * area / (2.0 * std::f64::consts::PI);
            let base = store2d.of(info.track2d);
            let mut n = 0u32;
            trace_3d(&info, base, axial, |fsr, cell, len| {
                let id = fsr3d.id(fsr, cell as usize);
                volumes[id.0 as usize] += coeff * len;
                keys.insert(fsr3d.material(id).0, len as f32);
                n += 1;
            });
            counts.push(n);
        }
        Self { volumes, counts, keys }
    }
}

/// Track-estimated 3D FSR volumes, the [`SetupWalk`]'s first part.
pub fn estimate_volumes(
    t3: &TrackSet3d,
    t2: &TrackSet2d,
    chains: &ChainSet,
    store2d: &SegmentStore2d,
    axial: &AxialModel,
    fsr3d: &Fsr3dMap,
) -> Vec<f64> {
    SetupWalk::run(t3, t2, chains, store2d, axial, fsr3d).volumes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrackParams;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, Bc, BoundaryConds, Fsr3dId};
    use antmoc_xs::MaterialId;
    use std::collections::HashMap;

    struct Fixture {
        l: TrackLayout,
        axial: AxialModel,
    }

    impl Fixture {
        fn walk(&self) -> SetupWalk {
            let l = &self.l;
            SetupWalk::run(
                &l.tracks3d,
                &l.tracks2d,
                &l.chains,
                &l.segments2d,
                &self.axial,
                &l.fsr3d,
            )
        }

        fn store(&self, selected: &[Track3dId], keys: &SegmentKeys) -> SegmentStore3d {
            SegmentStore3d::trace(selected, &self.l, &self.axial, keys)
        }
    }

    fn fixture() -> Fixture {
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(MaterialId(0), 4.0, 3.0, (0.0, 2.0), bcs);
        let axial = AxialModel::uniform(0.0, 2.0, 0.5);
        let params =
            TrackParams { num_azim: 8, radial_spacing: 0.5, num_polar: 4, axial_spacing: 0.4 };
        let l = TrackLayout::generate(&g, &axial, params);
        Fixture { l, axial }
    }

    #[test]
    fn otf_lengths_sum_to_track_length() {
        let f = fixture();
        for id in f.l.tracks3d.ids() {
            let info = f.l.tracks3d.info(id, &f.l.tracks2d, &f.l.chains);
            let mut total = 0.0;
            trace_3d(&info, f.l.segments2d.of(info.track2d), &f.axial, |_, _, l| total += l);
            assert!((total - info.length).abs() < 1e-7, "track {id:?}: {total} vs {}", info.length);
        }
    }

    #[test]
    fn otf_segments_respect_axial_cells() {
        let f = fixture();
        for id in f.l.tracks3d.ids().take(200) {
            let info = f.l.tracks3d.info(id, &f.l.tracks2d, &f.l.chains);
            let mut z = info.z_lo;
            let mut prev_cell: Option<u32> = None;
            trace_3d(&info, f.l.segments2d.of(info.track2d), &f.axial, |_, cell, l| {
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
        let all: Vec<Track3dId> = f.l.tracks3d.ids().collect();
        let keys = f.walk().keys;
        let store = f.store(&all, &keys);
        assert_eq!(store.num_tracks(), f.l.tracks3d.num_tracks());
        for id in f.l.tracks3d.ids() {
            let stored = store.of(id).unwrap();
            let info = f.l.tracks3d.info(id, &f.l.tracks2d, &f.l.chains);
            let mut otf = Vec::new();
            trace_3d(&info, f.l.segments2d.of(info.track2d), &f.axial, |fsr, cell, l| {
                otf.push((f.l.fsr3d.id(fsr, cell as usize).0, l as f32));
            });
            assert_eq!(stored.len(), otf.len(), "track {id:?}");
            for (s, (fsr3d, l)) in stored.iter().zip(otf) {
                assert_eq!(s.fsr3d, fsr3d);
                let key = keys.as_slice()[s.key as usize];
                assert_eq!(key.length.to_bits(), l.to_bits());
                assert_eq!(key.material, f.l.fsr3d.material(Fsr3dId(fsr3d)).0);
            }
        }
        // One key per distinct pair.
        let mut words: Vec<_> =
            keys.as_slice().iter().map(|k| (k.material, k.length.to_bits())).collect();
        words.sort_unstable();
        words.dedup();
        assert_eq!(words.len(), keys.len());
    }

    #[test]
    fn partial_store_returns_none_for_unselected() {
        let f = fixture();
        let some: Vec<Track3dId> = f.l.tracks3d.ids().step_by(3).collect();
        let store = f.store(&some, &f.walk().keys);
        for (i, id) in f.l.tracks3d.ids().enumerate() {
            assert_eq!(store.of(id).is_some(), i % 3 == 0);
        }
    }

    #[test]
    fn segment_counts_match_store() {
        let f = fixture();
        let counts = count_segments_per_track(
            &f.l.tracks3d,
            &f.l.tracks2d,
            &f.l.chains,
            &f.l.segments2d,
            &f.axial,
        );
        let all: Vec<Track3dId> = f.l.tracks3d.ids().collect();
        let store = f.store(&all, &f.walk().keys);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, store.num_segments());
        for id in f.l.tracks3d.ids() {
            assert_eq!(store.of(id).unwrap().len(), counts[id.0 as usize] as usize);
        }
    }

    #[test]
    fn estimated_volumes_sum_to_box_volume() {
        let f = fixture();
        let vols = estimate_volumes(
            &f.l.tracks3d,
            &f.l.tracks2d,
            &f.l.chains,
            &f.l.segments2d,
            &f.axial,
            &f.l.fsr3d,
        );
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

    #[test]
    fn setup_walk_fuses_volumes_counts_and_store_keys() {
        let f = fixture();
        let walk = f.walk();
        // Volumes: bitwise those of the separate volume pass this walk
        // replaced (kept here as the reference), same order, same adds.
        let mut volumes = vec![0.0f64; f.l.fsr3d.len()];
        for id in f.l.tracks3d.ids() {
            let info = f.l.tracks3d.info(id, &f.l.tracks2d, &f.l.chains);
            let w_a = f.l.tracks2d.quadrature.weight(info.azim);
            let w_p = f.l.tracks3d.polar.weight(info.polar);
            let area = f.l.tracks3d.tube_area(id, &f.l.tracks2d, &f.l.chains);
            let coeff = w_a * w_p * area / (2.0 * std::f64::consts::PI);
            trace_3d(&info, f.l.segments2d.of(info.track2d), &f.axial, |fsr, cell, len| {
                volumes[f.l.fsr3d.id(fsr, cell as usize).0 as usize] += coeff * len;
            });
        }
        assert_eq!(walk.volumes.len(), volumes.len());
        for (i, (a, b)) in walk.volumes.iter().zip(&volumes).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "volume {i}: {a} vs {b}");
        }
        // Counts: those of the parallel counting pass.
        let counts = count_segments_per_track(
            &f.l.tracks3d,
            &f.l.tracks2d,
            &f.l.chains,
            &f.l.segments2d,
            &f.axial,
        );
        assert_eq!(walk.counts, counts);
        // Keys: a full store's pairs numbered by first use in CSR order.
        let all: Vec<Track3dId> = f.l.tracks3d.ids().collect();
        let store = f.store(&all, &walk.keys);
        let mut first_use: HashMap<(u32, u32), u32> = HashMap::new();
        let mut expect = Vec::new();
        for id in f.l.tracks3d.ids() {
            for s in store.of(id).unwrap() {
                let pair = walk.keys.as_slice()[s.key as usize];
                let word = (pair.material, pair.length.to_bits());
                let next = first_use.len() as u32;
                let key = *first_use.entry(word).or_insert_with(|| {
                    expect.push(pair);
                    next
                });
                assert_eq!(s.key, key, "track {id:?}: keys are not numbered by first use");
            }
        }
        assert_eq!(walk.keys.as_slice(), expect.as_slice());
        assert!(walk.keys.len() > 1);
    }

    #[test]
    fn key_index_numbers_pairs_by_first_use_through_growths() {
        // SplitMix64 over a universe small enough that pairs repeat.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let lengths: Vec<f32> = (0..30_000).map(|_| (next() >> 40) as f32 * 1e-6).collect();
        let mut keys = SegmentKeys::default();
        assert_eq!(keys.find(0, 0.0), None, "an empty index finds nothing");
        assert_eq!(keys.find(7, 1.5), None);
        let mut reference: HashMap<(u32, u32), u32> = HashMap::new();
        let mut order = Vec::new();
        // Word 0 is (material 0, length +0.0), the word an empty slot
        // holds; -0.0 is a different pair.
        let edge = [(0, 0.0), (0, -0.0), (u32::MAX, f32::from_bits(u32::MAX)), (3, f32::MAX)];
        let draws = edge.into_iter().chain((0..200_000).map(|_| {
            let r = next();
            ((r % 6) as u32, lengths[(r >> 32) as usize % lengths.len()])
        }));
        let mut growths = 0;
        for (material, length) in draws {
            let slots = keys.slots.len();
            keys.insert(material, length);
            growths += usize::from(keys.slots.len() > slots);
            assert!(2 * keys.len() <= keys.slots.len(), "the index is more than half full");
            let next_key = reference.len() as u32;
            reference.entry((material, length.to_bits())).or_insert_with(|| {
                order.push(SegmentKey { material, length });
                next_key
            });
        }
        assert!(growths >= 8, "only {growths} growths");
        assert!(keys.len() > 100_000, "only {} distinct pairs", keys.len());
        // By bits: one edge pair's length is a NaN.
        let bits = |k: &[SegmentKey]| -> Vec<_> {
            k.iter().map(|k| (k.material, k.length.to_bits())).collect()
        };
        assert!(bits(keys.as_slice()) == bits(&order), "keys are not numbered by first use");
        for (&(material, bits), &key) in &reference {
            assert_eq!(keys.find(material, f32::from_bits(bits)), Some(key));
        }
        // Absent: a material never drawn, and lengths outside the pool.
        for &length in lengths.iter().take(1000) {
            assert_eq!(keys.find(6, length), None);
            assert_eq!(keys.find(1, -length - 1.0), None);
        }
        assert_eq!(keys.find(1, 0.0), None);
    }
}
