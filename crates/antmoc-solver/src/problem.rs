//! Assembled per-domain solver inputs: geometry, tracks, flattened cross
//! sections, tracked volumes, per-track sweep metadata, and the
//! attenuation table every 3D segment reads its span from.

use antmoc_geom::{AxialModel, BoundaryConds, Fsr3dId, Geometry};
use antmoc_track::{Link3d, SegmentKeys, SetupWalk, Track3dId, TrackLayout, TrackParams};
use antmoc_xs::MaterialLibrary;

use crate::exp::one_minus_exp_slab;
use crate::simd::padded_groups;
use crate::sweep::assert_supported_groups;

/// Cross sections flattened for the sweep: per-material tables plus the
/// 3D-FSR -> material map.
#[derive(Debug, Clone)]
pub struct XsData {
    pub num_groups: usize,
    /// Material index per 3D FSR.
    pub fsr_mat: Vec<u32>,
    /// `sigma_t[mat * G + g]`.
    pub sigma_t: Vec<f64>,
    /// `nu_sigma_f[mat * G + g]`.
    pub nusf: Vec<f64>,
    /// `sigma_f[mat * G + g]` (without `nu`; used for fission-rate
    /// output).
    pub sigma_f: Vec<f64>,
    /// `chi[mat * G + g]`.
    pub chi: Vec<f64>,
    /// `scatter[(mat * G + from) * G + to]`.
    pub scatter: Vec<f64>,
}

impl XsData {
    /// Flattens a material library against a 3D FSR map. Panics when the
    /// library's group count is outside `1..=MAX_GROUPS`.
    pub fn build(layout: &TrackLayout, library: &MaterialLibrary) -> Self {
        let g = library.num_groups();
        assert_supported_groups(g);
        let nmat = library.len();
        let mut sigma_t = Vec::with_capacity(nmat * g);
        let mut nusf = Vec::with_capacity(nmat * g);
        let mut sigma_f = Vec::with_capacity(nmat * g);
        let mut chi = Vec::with_capacity(nmat * g);
        let mut scatter = Vec::with_capacity(nmat * g * g);
        for (_, m) in library.iter() {
            assert_eq!(m.num_groups(), g);
            for gi in 0..g {
                sigma_t.push(m.total[gi]);
                nusf.push(m.nu_sigma_f(gi));
                sigma_f.push(m.fission[gi]);
                chi.push(m.chi[gi]);
            }
            for from in 0..g {
                for to in 0..g {
                    scatter.push(m.scatter[from][to]);
                }
            }
        }
        let nf = layout.fsr3d.len();
        let mut fsr_mat = Vec::with_capacity(nf);
        for i in 0..nf {
            fsr_mat.push(layout.fsr3d.material(Fsr3dId(i as u32)).0);
        }
        Self { num_groups: g, fsr_mat, sigma_t, nusf, sigma_f, chi, scatter }
    }
}

/// Precomputed per-track sweep metadata (resolved once so the hot loop
/// never touches the chain structures).
#[derive(Debug, Clone, Copy)]
pub struct SweepTrack {
    /// Base 2D track.
    pub track2d: u32,
    /// Whether `u` grows along the 2D track's forward sense.
    pub forward2d: bool,
    pub ascending: bool,
    pub u_lo: f64,
    pub u_hi: f64,
    pub z_lo: f64,
    pub cot: f64,
    pub inv_sin: f64,
    /// Quadrature x tube-area weight applied to `delta psi` terms.
    pub weight: f64,
    /// 3D segment count (for load balancing and the track manager).
    pub num_segments: u32,
    /// Continuations: `[forward, backward]`.
    pub links: [Link3d; 2],
}

/// One spatial domain's full solver input.
#[derive(Debug)]
pub struct Problem {
    pub geometry: Geometry,
    pub axial: AxialModel,
    pub layout: TrackLayout,
    pub xs: XsData,
    /// Track-estimated 3D FSR volumes.
    pub volumes: Vec<f64>,
    /// Per-3D-track sweep metadata.
    pub sweep_tracks: Vec<SweepTrack>,
    /// The laydown's distinct (material, f32 length) segment pairs: every
    /// 3D segment, stored or traced on the fly, names its pair by key.
    pub keys: SegmentKeys,
    /// `attenuation[key * gp + gi] = 1 - exp(-sigma_t[material * G + gi]
    /// * length)` for every key, lane-padded like the sweep's staged slab
    /// (`gp = padded_groups(G)`, zero padding lanes).
    pub attenuation: Vec<f64>,
}

impl Problem {
    /// Builds the problem for one (sub)geometry.
    pub fn build(
        geometry: Geometry,
        axial: AxialModel,
        library: &MaterialLibrary,
        params: TrackParams,
    ) -> Self {
        let layout = TrackLayout::generate(&geometry, &axial, params);
        Self::from_layout(geometry, axial, library, layout)
    }

    /// Builds the problem from a pre-generated layout.
    fn from_layout(
        geometry: Geometry,
        axial: AxialModel,
        library: &MaterialLibrary,
        layout: TrackLayout,
    ) -> Self {
        let xs = XsData::build(&layout, library);
        // One walk over every track gives the volumes, the per-track
        // segment counts and the segment keys.
        let SetupWalk { volumes, counts, keys } = SetupWalk::run(
            &layout.tracks3d,
            &layout.tracks2d,
            &layout.chains,
            &layout.segments2d,
            &axial,
            &layout.fsr3d,
        );
        let attenuation = attenuation_table(&keys, &xs);
        let bcs = geometry.bcs();
        let sweep_tracks = build_sweep_tracks(&layout, bcs, &counts);
        Self { geometry, axial, layout, xs, volumes, sweep_tracks, keys, attenuation }
    }

    /// Number of 3D FSRs.
    pub fn num_fsrs(&self) -> usize {
        self.layout.fsr3d.len()
    }

    /// Number of energy groups.
    pub fn num_groups(&self) -> usize {
        self.xs.num_groups
    }

    /// Number of 3D tracks.
    pub fn num_tracks(&self) -> usize {
        self.sweep_tracks.len()
    }

    /// Total 3D segments across all tracks.
    pub fn num_3d_segments(&self) -> u64 {
        self.sweep_tracks.iter().map(|t| t.num_segments as u64).sum()
    }

    /// Bytes of the attenuation table, a cost of the problem in every
    /// storage mode.
    pub fn attenuation_bytes(&self) -> u64 {
        (self.attenuation.len() * std::mem::size_of::<f64>()) as u64
    }
}

/// The attenuation table of a laydown's keys: each key's span is its
/// `sig * (len as f64)` products through the slab evaluator, which gives
/// per element the bits `one_minus_exp` gives the scalar kernel for the
/// same segment (a padding lane's tau of 0 stays 0).
fn attenuation_table(keys: &SegmentKeys, xs: &XsData) -> Vec<f64> {
    let g = xs.num_groups;
    let gp = padded_groups(g);
    let mut table = vec![0.0f64; keys.len() * gp];
    for (key, span) in keys.as_slice().iter().zip(table.chunks_exact_mut(gp)) {
        let mat = key.material as usize * g;
        let lenf = key.length as f64;
        for (e, sig) in span[..g].iter_mut().zip(&xs.sigma_t[mat..mat + g]) {
            *e = sig * lenf;
        }
    }
    one_minus_exp_slab(&mut table);
    table
}

fn build_sweep_tracks(layout: &TrackLayout, bcs: BoundaryConds, counts: &[u32]) -> Vec<SweepTrack> {
    let t3 = &layout.tracks3d;
    let t2 = &layout.tracks2d;
    let chains = &layout.chains;
    (0..t3.num_tracks())
        .map(|i| {
            let id = Track3dId(i as u32);
            let info = t3.info(id, t2, chains);
            let w_a = t2.quadrature.weight(info.azim);
            let w_p = t3.polar.weight(info.polar);
            let area = t3.tube_area(id, t2, chains);
            SweepTrack {
                track2d: info.track2d.0,
                forward2d: info.forward2d,
                ascending: info.ascending,
                u_lo: info.u_lo,
                u_hi: info.u_hi,
                z_lo: info.z_lo,
                cot: info.cot,
                inv_sin: 1.0 / info.sin_theta,
                weight: w_a * w_p * area,
                num_segments: counts[i],
                links: [t3.link(id, true, chains, bcs), t3.link(id, false, chains, bcs)],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{Bc, BoundaryConds};
    use antmoc_xs::{c5g7, MaterialId};

    fn tiny_problem() -> Problem {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(uo2, 2.0, 2.0, (0.0, 2.0), bcs);
        let axial = AxialModel::uniform(0.0, 2.0, 1.0);
        let params =
            TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 0.5 };
        let _ = MaterialId(0);
        Problem::build(g, axial, &lib, params)
    }

    #[test]
    fn problem_dimensions_are_consistent() {
        let p = tiny_problem();
        assert_eq!(p.num_groups(), 7);
        assert_eq!(p.num_fsrs(), 2); // 1 radial FSR x 2 axial cells
        assert_eq!(p.volumes.len(), p.num_fsrs());
        assert_eq!(p.sweep_tracks.len(), p.layout.num_3d_tracks());
        assert!(p.num_3d_segments() > 0);
    }

    #[test]
    #[should_panic(expected = "9 energy groups; this solver supports 1..=8")]
    fn unsupported_group_count_fails_when_the_problem_is_built() {
        // Before any bank, arena or sweep exists: the kernel's group
        // dispatch and `FluxBanks::new` never see the bad count.
        let g = 9;
        let mut lib = antmoc_xs::MaterialLibrary::new();
        let mat = lib.add(antmoc_xs::Material {
            name: "NINE".into(),
            total: vec![1.0; g],
            absorption: vec![1.0; g],
            fission: vec![0.0; g],
            nu: vec![0.0; g],
            chi: vec![0.0; g],
            scatter: vec![vec![0.0; g]; g],
        });
        let geom = homogeneous_box(mat, 2.0, 2.0, (0.0, 2.0), BoundaryConds::vacuum());
        let axial = AxialModel::uniform(0.0, 2.0, 1.0);
        let params = TrackParams { num_azim: 4, radial_spacing: 1.0, ..Default::default() };
        let _ = Problem::build(geom, axial, &lib, params);
    }

    #[test]
    fn xs_flattening_matches_library() {
        let p = tiny_problem();
        let lib = c5g7::library();
        let (_, uo2) = lib.by_name("UO2").unwrap();
        let mat = p.xs.fsr_mat[0] as usize;
        for g in 0..7 {
            assert_eq!(p.xs.sigma_t[mat * p.xs.num_groups + g], uo2.total[g]);
        }
    }

    #[test]
    fn volumes_cover_the_box() {
        let p = tiny_problem();
        let total: f64 = p.volumes.iter().sum();
        assert!((total - 8.0).abs() / 8.0 < 0.02, "total volume {total}");
    }

    #[test]
    fn sweep_tracks_have_positive_weights_and_segments() {
        let p = tiny_problem();
        for t in &p.sweep_tracks {
            assert!(t.weight > 0.0);
            assert!(t.num_segments >= 1);
            assert!(t.u_hi > t.u_lo);
        }
    }
}
