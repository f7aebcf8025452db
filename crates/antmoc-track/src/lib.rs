//! Track generation and ray tracing for 3D MOC.
//!
//! This crate implements the paper's track pipeline (§3.2, Fig. 3):
//!
//! 1. [`track2d`] — cyclic (modular) 2D track laydown with exact
//!    reflective/periodic boundary linking;
//! 2. [`segment2d`] — 2D ray tracing of tracks into flat-source-region
//!    segments (the data kept resident for on-the-fly 3D generation);
//! 3. [`chain`] — decomposition of the linked 2D tracks into chains;
//! 4. [`track3d`] — 3D z-stack construction along chains with exact
//!    radial continuation and bottom reflection;
//! 5. [`otf`] — on-the-fly 3D segment generation, explicit 3D segment
//!    storage, per-track segment counting and track-based volume
//!    estimation.
//!
//! [`TrackLayout`] bundles the full product for one geometry.

pub mod chain;
pub mod otf;
pub mod segment2d;
pub mod track2d;
pub mod track3d;

pub use chain::{Chain, ChainMember, ChainSet};
pub use otf::{
    count_segments_per_track, estimate_volumes, trace_3d, trace_keyed, Segment3dCompact,
    SegmentKey, SegmentKeys, SegmentStore3d, SetupWalk,
};
pub use segment2d::{trace_track, Segment2d, SegmentStore2d};
pub use track2d::{Link, Track2d, TrackId, TrackSet2d};
pub use track3d::{Link3d, StackInfo, Track3d, Track3dId, Track3dInfo, TrackSet3d};

use antmoc_geom::{AxialModel, Fsr3dMap, Geometry};
use antmoc_quadrature::{PolarQuadrature, PolarType};

/// Track-generation parameters (the paper's Table 2 inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackParams {
    /// Azimuthal angles over `[0, 2*pi)` (positive multiple of 4).
    pub num_azim: usize,
    /// Desired radial track spacing (cm).
    pub radial_spacing: f64,
    /// Gauss–Legendre polar angles over `(0, pi)` (positive even number).
    pub num_polar: usize,
    /// Desired axial (vertical) spacing between z intercepts (cm).
    pub axial_spacing: f64,
}

impl TrackParams {
    /// A canonical text rendering of every field for content-addressed
    /// cache keys: floats are written as exact bit patterns, so the
    /// fragment is stable across runs and platforms and two parameter
    /// sets produce the same fragment iff they generate the same track
    /// laydown.
    pub fn cache_key_fragment(&self) -> String {
        format!(
            "azim={},rs={:016x},polar={},as={:016x}",
            self.num_azim,
            self.radial_spacing.to_bits(),
            self.num_polar,
            self.axial_spacing.to_bits(),
        )
    }
}

impl Default for TrackParams {
    fn default() -> Self {
        Self { num_azim: 4, radial_spacing: 0.5, num_polar: 4, axial_spacing: 0.5 }
    }
}

/// The full tracking product for one geometry: 2D tracks and segments,
/// chains, 3D tracks, and the 3D FSR map.
#[derive(Debug)]
pub struct TrackLayout {
    pub params: TrackParams,
    pub tracks2d: TrackSet2d,
    pub segments2d: SegmentStore2d,
    pub chains: ChainSet,
    pub tracks3d: TrackSet3d,
    pub fsr3d: Fsr3dMap,
}

impl TrackLayout {
    /// Generates everything for a geometry and its axial model.
    pub fn generate(geometry: &Geometry, axial: &AxialModel, params: TrackParams) -> Self {
        let tel = antmoc_telemetry::Telemetry::current();
        let _gen_span = tel.span("track_generation");
        let tracks2d = {
            let _s = tel.span("tracks_2d");
            track2d::generate(geometry, params.num_azim, params.radial_spacing)
        };
        let segments2d = {
            let _s = tel.span("segments_2d");
            SegmentStore2d::trace(geometry, &tracks2d)
        };
        let chains = ChainSet::build(&tracks2d);
        let polar = PolarQuadrature::new(PolarType::GaussLegendre, params.num_polar);
        let tracks3d = {
            let _s = tel.span("tracks_3d");
            TrackSet3d::build(&tracks2d, &chains, polar, geometry.z_range(), params.axial_spacing)
        };
        let materials: Vec<_> = geometry.fsrs().map(|f| geometry.fsr_material(f)).collect();
        let fsr3d = Fsr3dMap::new(&materials, axial);
        tel.counter_add("track.tracks_2d", tracks2d.num_tracks() as u64);
        tel.counter_add("track.segments_2d", segments2d.num_segments() as u64);
        tel.counter_add("track.tracks_3d", tracks3d.num_tracks() as u64);
        Self { params, tracks2d, segments2d, chains, tracks3d, fsr3d }
    }

    /// The paper's `N_2D`.
    pub fn num_2d_tracks(&self) -> usize {
        self.tracks2d.num_tracks()
    }

    /// The paper's `N_2Dseg`.
    pub fn num_2d_segments(&self) -> usize {
        self.segments2d.num_segments()
    }

    /// The paper's `N_3D`.
    pub fn num_3d_tracks(&self) -> usize {
        self.tracks3d.num_tracks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antmoc_geom::c5g7::{C5g7, C5g7Options};

    #[test]
    fn layout_generates_for_c5g7() {
        let m = C5g7::build(C5g7Options { axial_dz: 21.42, ..Default::default() });
        let params =
            TrackParams { num_azim: 4, radial_spacing: 1.0, num_polar: 2, axial_spacing: 20.0 };
        let layout = TrackLayout::generate(&m.geometry, &m.axial, params);
        assert!(layout.num_2d_tracks() > 100);
        assert!(layout.num_2d_segments() > layout.num_2d_tracks());
        assert!(layout.num_3d_tracks() > layout.num_2d_tracks());
        assert_eq!(layout.fsr3d.num_radial(), m.geometry.num_fsrs());
        assert_eq!(layout.fsr3d.num_axial(), m.axial.num_cells());
    }

    #[test]
    fn cache_key_fragment_is_exact_and_field_sensitive() {
        let base = TrackParams::default();
        assert_eq!(base.cache_key_fragment(), TrackParams::default().cache_key_fragment());
        // Each field flips the fragment — including float changes far
        // below any formatting precision.
        let variants = [
            TrackParams { num_azim: 8, ..base.clone() },
            TrackParams { radial_spacing: base.radial_spacing + 1e-15, ..base.clone() },
            TrackParams { num_polar: 2, ..base.clone() },
            TrackParams { axial_spacing: base.axial_spacing * (1.0 + 1e-15), ..base.clone() },
        ];
        for v in &variants {
            assert_ne!(v.cache_key_fragment(), base.cache_key_fragment(), "{v:?}");
        }
    }
}
