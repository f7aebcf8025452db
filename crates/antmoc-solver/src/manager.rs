//! The track-management strategy (§4.1, Fig. 4 of the paper).
//!
//! Under the EXPlicit mode all 3D segments live in device memory; under
//! OTF none do. The manager ranks tracks and stores segments for as many
//! as fit a byte budget (*resident* tracks); the rest (*temporary*) are
//! regenerated on the fly each sweep. The paper ranks by segment count,
//! "with preference given to those with more segments in order to reduce
//! the number of load operations during ray tracing"; alternative
//! rankings are provided for the ablation bench.
//!
//! The budget pays for stored segments only: the attenuation table every
//! segment reads, resident or not, belongs to the problem, whatever the
//! selection.

use antmoc_track::{SegmentStore3d, Track3dId};

use crate::problem::Problem;
use crate::sweep::SegmentSource;

/// Ranking policy for resident-track selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPolicy {
    /// Most segments first (the paper's choice).
    BySegments,
    /// Longest 3D length first.
    ByLength,
    /// Pseudo-random order (ablation baseline).
    Random(u64),
}

/// Outcome of the selection.
#[derive(Debug, Clone)]
pub struct ResidencyPlan {
    /// Tracks whose segments will be stored, in selection order.
    pub resident: Vec<Track3dId>,
    /// Bytes the traced store occupies.
    pub resident_bytes: u64,
    /// Segments stored vs regenerated per sweep.
    pub resident_segments: u64,
    pub temporary_segments: u64,
}

/// Stored bytes for one track's segments: its 8-byte segment records,
/// CSR offset and track id, the per-track cost selection ranks against.
/// With [`SegmentStore3d::fixed_bytes`] they sum to the traced store's
/// bytes.
pub fn stored_bytes_for(num_segments: u32) -> u64 {
    num_segments as u64 * 8 + 12
}

/// Selects resident tracks under `budget_bytes` with the given policy:
/// the traced store, its fixed bookkeeping included, fits the budget.
pub fn select_resident(problem: &Problem, budget_bytes: u64, policy: RankPolicy) -> ResidencyPlan {
    select_and_store(problem, budget_bytes, policy).1
}

/// [`select_resident`] with the segment source of its selection.
pub(crate) fn select_and_store(
    problem: &Problem,
    budget_bytes: u64,
    policy: RankPolicy,
) -> (SegmentSource, ResidencyPlan) {
    let n = problem.num_tracks();
    let mut order: Vec<u32> = (0..n as u32).collect();
    match policy {
        RankPolicy::BySegments => {
            order
                .sort_by_key(|&i| std::cmp::Reverse(problem.sweep_tracks[i as usize].num_segments));
        }
        RankPolicy::ByLength => {
            order.sort_by(|&a, &b| {
                let la = problem.sweep_tracks[a as usize];
                let lb = problem.sweep_tracks[b as usize];
                let xa = (la.u_hi - la.u_lo) * la.inv_sin;
                let xb = (lb.u_hi - lb.u_lo) * lb.inv_sin;
                xb.partial_cmp(&xa).unwrap()
            });
        }
        RankPolicy::Random(seed) => {
            // Deterministic xorshift shuffle.
            let mut s = seed.wrapping_mul(2685821657736338717).max(1);
            for i in (1..order.len()).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let j = (s % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
    }
    // The store's track-position index is paid whatever the selection.
    let budget = budget_bytes.saturating_sub(SegmentStore3d::fixed_bytes(n));
    let mut resident = Vec::new();
    let mut bytes = 0u64;
    for &i in &order {
        let b = stored_bytes_for(problem.sweep_tracks[i as usize].num_segments);
        if bytes + b > budget {
            continue;
        }
        bytes += b;
        resident.push(Track3dId(i));
    }
    let src = if resident.is_empty() {
        SegmentSource::otf()
    } else {
        SegmentSource::stored(problem, &resident)
    };
    let (bytes, res_segs) =
        (src.stored_bytes(), src.store().map_or(0, |s| s.num_segments() as u64));
    let total_segs = problem.num_3d_segments();
    antmoc_telemetry::Telemetry::current().gauge_set("manager.resident_bytes", bytes as f64);
    let plan = ResidencyPlan {
        resident,
        resident_bytes: bytes,
        resident_segments: res_segs,
        temporary_segments: total_segs - res_segs,
    };
    (src, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SegmentSource;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn problem() -> Problem {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, 4.0, 3.0, (0.0, 2.0), BoundaryConds::vacuum());
        let axial = AxialModel::uniform(0.0, 2.0, 0.5);
        let params =
            TrackParams { num_azim: 8, radial_spacing: 0.4, num_polar: 4, axial_spacing: 0.4 };
        Problem::build(g, axial, &lib, params)
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let p = problem();
        let plan = select_resident(&p, 0, RankPolicy::BySegments);
        assert!(plan.resident.is_empty());
        assert_eq!(plan.resident_segments, 0);
        assert_eq!(plan.temporary_segments, p.num_3d_segments());
    }

    #[test]
    fn huge_budget_selects_everything() {
        let p = problem();
        let plan = select_resident(&p, u64::MAX, RankPolicy::BySegments);
        assert_eq!(plan.resident.len(), p.num_tracks());
        assert_eq!(plan.temporary_segments, 0);
    }

    #[test]
    fn budget_is_respected() {
        let p = problem();
        let full = select_resident(&p, u64::MAX, RankPolicy::BySegments).resident_bytes;
        let budget = full / 3;
        let plan = select_resident(&p, budget, RankPolicy::BySegments);
        assert!(plan.resident_bytes <= budget);
        assert!(!plan.resident.is_empty());
        assert!(plan.resident.len() < p.num_tracks());
    }

    #[test]
    fn by_segments_prefers_heavier_tracks_than_random() {
        let p = problem();
        let full = select_resident(&p, u64::MAX, RankPolicy::BySegments).resident_bytes;
        let budget = full / 3;
        let smart = select_resident(&p, budget, RankPolicy::BySegments);
        let rand = select_resident(&p, budget, RankPolicy::Random(7));
        // Same budget, the segment-ranked plan must cover at least as many
        // segments (that is its whole point — fewer OTF regenerations).
        assert!(
            smart.resident_segments >= rand.resident_segments,
            "smart {} < random {}",
            smart.resident_segments,
            rand.resident_segments
        );
    }

    #[test]
    fn traced_store_fits_the_budget() {
        let p = problem();
        let all: Vec<Track3dId> = p.layout.tracks3d.ids().collect();
        let full = SegmentSource::stored(&p, &all).stored_bytes();
        for budget in [full / 4, full / 2, full] {
            let (src, plan) = SegmentSource::managed(&p, budget, RankPolicy::BySegments);
            assert!(!plan.resident.is_empty(), "budget {budget}");
            assert!(plan.resident_bytes <= budget, "{} > {budget}", plan.resident_bytes);
            assert_eq!(plan.resident_bytes, src.stored_bytes());
            let records: u64 = plan
                .resident
                .iter()
                .map(|t| stored_bytes_for(p.sweep_tracks[t.0 as usize].num_segments))
                .sum();
            let fixed = SegmentStore3d::fixed_bytes(p.num_tracks());
            assert_eq!(plan.resident_bytes, records + fixed, "the cost model is exact");
            assert_eq!(plan.resident_segments, src.store().unwrap().num_segments() as u64);
        }
        let plan = select_resident(&p, full, RankPolicy::BySegments);
        assert_eq!(plan.resident.len(), p.num_tracks());
    }

    #[test]
    fn segment_accounting_is_exact() {
        let p = problem();
        for policy in [RankPolicy::BySegments, RankPolicy::ByLength, RankPolicy::Random(3)] {
            let plan = select_resident(&p, 4096, policy);
            let direct: u64 = plan
                .resident
                .iter()
                .map(|t| p.sweep_tracks[t.0 as usize].num_segments as u64)
                .sum();
            assert_eq!(plan.resident_segments, direct);
            assert_eq!(plan.resident_segments + plan.temporary_segments, p.num_3d_segments());
        }
    }
}
