//! Property: the explicit (resident) segment store and on-the-fly tracing
//! yield *identical* segment sequences per track — same 3D FSR ids, same
//! f32 lengths and materials (read back through each stored segment's
//! key), and a keyed on-the-fly trace names the same `(fsr3d, key)` the
//! store holds — for random `TrackParams` (the §4.1 invariant that lets
//! the track manager mix both paths in one sweep, reading one attenuation
//! table).

use antmoc_geom::geometry::homogeneous_box;
use antmoc_geom::{AxialModel, Bc, BoundaryConds, Fsr3dId};
use antmoc_track::{
    trace_3d, trace_keyed, SegmentStore3d, SetupWalk, Track3dId, TrackLayout, TrackParams,
};
use antmoc_xs::MaterialId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn explicit_store_equals_otf_sequences(
        azim_quads in 1usize..3,     // num_azim = 4 or 8
        polar_pairs in 1usize..3,    // num_polar = 2 or 4
        radial_spacing in 0.3f64..0.9,
        axial_spacing in 0.3f64..0.9,
        width in 2.0f64..4.5,
        depth in 1.0f64..3.0,
    ) {
        let params = TrackParams {
            num_azim: 4 * azim_quads,
            radial_spacing,
            num_polar: 2 * polar_pairs,
            axial_spacing,
        };
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(MaterialId(0), width, 3.0, (0.0, depth), bcs);
        let axial = AxialModel::uniform(0.0, depth, (depth / 3.0).max(0.4));
        let layout = TrackLayout::generate(&g, &axial, params);

        let keys = SetupWalk::run(
            &layout.tracks3d,
            &layout.tracks2d,
            &layout.chains,
            &layout.segments2d,
            &axial,
            &layout.fsr3d,
        )
        .keys;
        let all: Vec<Track3dId> = layout.tracks3d.ids().collect();
        let store = SegmentStore3d::trace(&all, &layout, &axial, &keys);
        prop_assert_eq!(store.num_tracks(), layout.tracks3d.num_tracks());

        for id in layout.tracks3d.ids() {
            let stored = store.of(id).unwrap();
            let info = layout.tracks3d.info(id, &layout.tracks2d, &layout.chains);
            let base = layout.segments2d.of(info.track2d);
            let mut otf: Vec<(Fsr3dId, f32)> = Vec::new();
            trace_3d(&info, base, &axial, |fsr, cell, len| {
                otf.push((layout.fsr3d.id(fsr, cell as usize), len as f32));
            });
            let mut keyed = Vec::new();
            trace_keyed(&info, base, &axial, &layout.fsr3d, &keys, &mut keyed);
            prop_assert_eq!(keyed.as_slice(), stored, "track {:?}: keyed OTF trace differs", id);
            prop_assert_eq!(stored.len(), otf.len(), "track {:?}: segment count differs", id);
            for (k, (s, (fsr3d, len))) in stored.iter().zip(otf).enumerate() {
                prop_assert_eq!(s.fsr3d, fsr3d.0, "track {:?} segment {}: fsr differs", id, k);
                // Length and material come back through the segment's key.
                let key = keys.as_slice()[s.key as usize];
                prop_assert_eq!(
                    key.length.to_bits(), len.to_bits(),
                    "track {:?} segment {}: length {} vs {}", id, k, key.length, len
                );
                prop_assert_eq!(
                    key.material, layout.fsr3d.material(fsr3d).0,
                    "track {:?} segment {}: material differs", id, k
                );
            }
        }
    }
}
