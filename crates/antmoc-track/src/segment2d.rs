//! 2D ray tracing: cutting tracks into flat-source-region segments.
//!
//! This is the "2D segments" store of the paper's Table 3 — the data the
//! OTF method keeps resident so 3D segments can be regenerated on the fly
//! (§4.1). Segments are stored in CSR layout: one flat segment array plus
//! per-track offsets.
//!
//! [`trace_track`] is the production ray-stepping loop. Each step nudges
//! the point 1 nm along the ray and asks [`Geometry::step`] for the FSR
//! there and the distance to the next boundary; the geometry answers both
//! in a single descent and keys the FSR by per-level offsets, so a step
//! neither allocates nor hashes.

use rayon::prelude::*;

use antmoc_geom::{FsrId, Geometry};

use crate::track2d::{TrackId, TrackSet2d};

/// One radial segment: an FSR crossing with its 2D length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment2d {
    pub fsr: FsrId,
    pub length: f64,
}

/// All 2D segments for a track set, CSR-indexed by track.
#[derive(Debug, Clone)]
pub struct SegmentStore2d {
    segments: Vec<Segment2d>,
    offsets: Vec<u32>,
}

impl SegmentStore2d {
    /// Ray-traces every track of the set through the geometry (parallel
    /// over tracks).
    pub fn trace(geometry: &Geometry, tracks: &TrackSet2d) -> Self {
        let per_track: Vec<Vec<Segment2d>> = tracks
            .tracks
            .par_iter()
            .map(|t| trace_track(geometry, t.start, t.phi, t.length))
            .collect();
        let mut segments = Vec::with_capacity(per_track.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(per_track.len() + 1);
        offsets.push(0u32);
        for mut v in per_track {
            segments.append(&mut v);
            offsets.push(segments.len() as u32);
        }
        Self { segments, offsets }
    }

    /// Segments of one track, in forward order.
    pub fn of(&self, t: TrackId) -> &[Segment2d] {
        let lo = self.offsets[t.0 as usize] as usize;
        let hi = self.offsets[t.0 as usize + 1] as usize;
        &self.segments[lo..hi]
    }

    /// Total number of 2D segments (the paper's `N_2Dseg`, Eq. 4).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of tracks indexed.
    pub fn num_tracks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Bytes of storage (segment payload + offsets), for the memory model.
    pub fn bytes(&self) -> u64 {
        (self.segments.len() * std::mem::size_of::<Segment2d>()
            + self.offsets.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Track-estimated radial FSR areas:
    /// `area_i = sum_a (w_a / pi) * s_a * sum(lengths in i at angle a)`,
    /// the standard MOC volume estimate. These are the volumes the solver
    /// must use for flux conservation.
    pub fn estimate_areas(&self, tracks: &TrackSet2d, num_fsrs: usize) -> Vec<f64> {
        let mut areas = vec![0.0f64; num_fsrs];
        for (ti, t) in tracks.tracks.iter().enumerate() {
            let w = tracks.quadrature.weight(t.azim) / std::f64::consts::PI;
            let s = tracks.spacings[t.azim];
            for seg in self.of(TrackId(ti as u32)) {
                areas[seg.fsr.0 as usize] += w * s * seg.length;
            }
        }
        areas
    }
}

/// Traces a single ray of known length through the geometry: the FSR
/// segments from `start` along azimuth `phi` for `length`, or until the
/// ray leaves the domain.
pub fn trace_track(
    geometry: &Geometry,
    start: (f64, f64),
    phi: f64,
    length: f64,
) -> Vec<Segment2d> {
    let (uy, ux) = phi.sin_cos();
    let mut out = Vec::with_capacity(16);
    let nudge = 1e-9;
    let mut x = start.0;
    let mut y = start.1;
    let mut remaining = length;
    let mut guard = 0usize;
    while remaining > nudge {
        guard += 1;
        assert!(guard < 10_000_000, "segmentation did not terminate");
        let px = x + ux * nudge;
        let py = y + uy * nudge;
        let Some(hit) = geometry.step(px, py, ux, uy) else {
            break;
        };
        let step = (hit.distance + nudge).min(remaining);
        // Merge with the previous segment when the ray only grazed a
        // surface without changing FSR (keeps segment counts clean).
        match out.last_mut() {
            Some(Segment2d { fsr, length }) if *fsr == hit.fsr => *length += step,
            _ => out.push(Segment2d { fsr: hit.fsr, length: step }),
        }
        x += ux * step;
        y += uy * step;
        remaining -= step;
        if hit.face.is_some() && remaining <= nudge * 10.0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track2d::generate;
    use antmoc_geom::c5g7::{C5g7, C5g7Options};
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::BoundaryConds;
    use antmoc_xs::MaterialId;

    #[test]
    fn homogeneous_box_one_segment_per_track() {
        let g = homogeneous_box(MaterialId(0), 4.0, 3.0, (0.0, 1.0), BoundaryConds::reflective());
        let ts = generate(&g, 8, 0.3);
        let store = SegmentStore2d::trace(&g, &ts);
        assert_eq!(store.num_tracks(), ts.num_tracks());
        for i in 0..ts.num_tracks() {
            let segs = store.of(TrackId(i as u32));
            assert_eq!(segs.len(), 1, "track {i} has {} segments", segs.len());
            assert!((segs[0].length - ts.tracks[i].length).abs() < 1e-6);
        }
    }

    #[test]
    fn segment_lengths_sum_to_track_length() {
        let m = C5g7::build(C5g7Options::default());
        let ts = generate(&m.geometry, 4, 0.8);
        let store = SegmentStore2d::trace(&m.geometry, &ts);
        for i in 0..ts.num_tracks() {
            let total: f64 = store.of(TrackId(i as u32)).iter().map(|s| s.length).sum();
            assert!(
                (total - ts.tracks[i].length).abs() < 1e-5,
                "track {i}: {total} vs {}",
                ts.tracks[i].length
            );
        }
    }

    #[test]
    fn area_estimate_matches_analytic_for_box() {
        let g = homogeneous_box(MaterialId(0), 4.0, 3.0, (0.0, 1.0), BoundaryConds::reflective());
        let ts = generate(&g, 16, 0.1);
        let store = SegmentStore2d::trace(&g, &ts);
        let areas = store.estimate_areas(&ts, g.num_fsrs());
        assert!((areas[0] - 12.0).abs() / 12.0 < 1e-6, "area {}", areas[0]);
    }

    #[test]
    fn area_estimates_converge_to_c5g7_hints() {
        let m = C5g7::build(C5g7Options::default());
        let ts = generate(&m.geometry, 8, 0.1);
        let store = SegmentStore2d::trace(&m.geometry, &ts);
        let areas = store.estimate_areas(&ts, m.geometry.num_fsrs());
        let total: f64 = areas.iter().sum();
        let expect = antmoc_geom::c5g7::CORE_WIDTH * antmoc_geom::c5g7::CORE_WIDTH;
        assert!((total - expect).abs() / expect < 1e-6, "total {total} vs {expect}");
        // Per-FSR agreement with analytic hints within a few percent at
        // this spacing for regions large enough to be well sampled.
        let mut checked = 0;
        for f in m.geometry.fsrs() {
            let hint = m.geometry.fsr_area_hint(f).unwrap();
            if hint > 0.5 {
                let rel = (areas[f.0 as usize] - hint).abs() / hint;
                assert!(rel < 0.05, "fsr {f:?}: {} vs {hint}", areas[f.0 as usize]);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn every_fsr_is_hit_at_fine_spacing() {
        let m = C5g7::build(C5g7Options::default());
        let ts = generate(&m.geometry, 8, 0.1);
        let store = SegmentStore2d::trace(&m.geometry, &ts);
        let areas = store.estimate_areas(&ts, m.geometry.num_fsrs());
        let misses = areas.iter().filter(|a| **a == 0.0).count();
        assert_eq!(misses, 0, "{misses} FSRs never crossed");
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let m = C5g7::build(C5g7Options::default());
        let ts = generate(&m.geometry, 4, 0.5);
        let store = SegmentStore2d::trace(&m.geometry, &ts);
        let total: usize = (0..ts.num_tracks()).map(|i| store.of(TrackId(i as u32)).len()).sum();
        assert_eq!(total, store.num_segments());
        assert!(store.bytes() > 0);
    }
}
