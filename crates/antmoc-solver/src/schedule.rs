//! Sweep dispatch schedules: the order track indices are handed to the
//! pool, whose static partition gives worker `w` of `W` the `w`-th
//! contiguous slice of that order.
//!
//! The paper's L3 mapping (§4.2.3) assigns 3D tracks to CUs by descending
//! segment count because per-track work is wildly non-uniform. The same
//! argument applies to CPU workers: [`ScheduleKind::L3Sorted`] reuses
//! `antmoc_balance::l3::sorted_round_robin` over the per-track segment
//! counts and lays the bins out so the partition hands worker `w` exactly
//! bin `w` — with two or more workers it *is* the paper's L3 deal.
//! [`ScheduleKind::Natural`] is the identity order (Algorithm 1's natural
//! mapping).

use antmoc_balance::l3::sorted_round_robin;

use crate::problem::Problem;

/// Which dispatch order a sweep uses (the `[solver] schedule` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleKind {
    /// Track index order as generated.
    #[default]
    Natural,
    /// Descending-segment-count sort dealt round-robin across workers
    /// (the paper's L3 mapping applied to the CPU pool).
    L3Sorted,
    /// The pipelined-exchange variant of L3: boundary-touching tracks
    /// (those whose exits feed a neighbour domain) dispatch first, so
    /// outgoing boundary fluxes are final — and can ship — while the
    /// interior tracks are still sweeping. Boundary and interior halves
    /// each keep the L3 descending-weight deal.
    BoundaryFirst,
}

/// A resolved dispatch order for one problem: position `i` in the sweep's
/// parallel iteration executes track `track_at(i)`.
#[derive(Debug, Clone)]
pub struct SweepSchedule {
    kind: ScheduleKind,
    /// `None` is the identity (natural) order.
    order: Option<Vec<u32>>,
}

impl Default for SweepSchedule {
    fn default() -> Self {
        Self::natural()
    }
}

impl SweepSchedule {
    /// The identity order.
    pub fn natural() -> Self {
        Self { kind: ScheduleKind::Natural, order: None }
    }

    /// Builds the order for a problem using the current worker count of
    /// the calling thread's pool.
    pub fn for_problem(kind: ScheduleKind, problem: &Problem) -> Self {
        Self::with_workers(kind, problem, rayon::current_num_threads())
    }

    /// Builds the order for an explicit worker count.
    pub fn with_workers(kind: ScheduleKind, problem: &Problem, workers: usize) -> Self {
        match kind {
            ScheduleKind::Natural => Self::natural(),
            ScheduleKind::L3Sorted => {
                let weights: Vec<u64> =
                    problem.sweep_tracks.iter().map(|t| t.num_segments as u64).collect();
                let bins = sorted_round_robin(&weights, workers.max(1));
                // Concatenating the bins aligns them with the pool's
                // contiguous per-worker slices (bin sizes differ by at
                // most one, the first ones larger, matching its split).
                Self { kind, order: Some(bins.concat()) }
            }
            // Without an exchange plan there are no boundary tracks to
            // prioritise; the order degenerates to plain L3.
            ScheduleKind::BoundaryFirst => {
                let mut s = Self::with_workers(ScheduleKind::L3Sorted, problem, workers);
                s.kind = kind;
                s
            }
        }
    }

    /// Builds the boundary-first order: `boundary_tracks` (the tracks
    /// whose exits ship to neighbour domains, deduplicated) dispatch
    /// before every interior track. Each half is dealt with the L3
    /// descending-weight round-robin so the load stays balanced; the
    /// boundary half simply jumps the queue.
    pub fn boundary_first(problem: &Problem, boundary_tracks: &[u32], workers: usize) -> Self {
        let deal = |tracks: Vec<u32>| -> Vec<u32> {
            let weights: Vec<u64> = tracks
                .iter()
                .map(|&t| problem.sweep_tracks[t as usize].num_segments as u64)
                .collect();
            let bins = sorted_round_robin(&weights, workers.max(1));
            bins.concat().into_iter().map(|i| tracks[i as usize]).collect()
        };
        let (boundary, interior) = split_boundary(problem.num_tracks(), boundary_tracks);
        let mut order = deal(boundary);
        order.extend(deal(interior));
        Self { kind: ScheduleKind::BoundaryFirst, order: Some(order) }
    }

    /// The serial backend's order: `boundary_tracks` ascending, then the
    /// interior ascending — a stable order both exchange modes share, so
    /// a pipelined sweep can ship each payload from inside itself. With
    /// no boundary tracks it is the natural order.
    pub(crate) fn serial_boundary_first(num_tracks: usize, boundary_tracks: &[u32]) -> Self {
        if boundary_tracks.is_empty() {
            return Self::natural();
        }
        let (mut order, interior) = split_boundary(num_tracks, boundary_tracks);
        order.extend(interior);
        Self { kind: ScheduleKind::BoundaryFirst, order: Some(order) }
    }

    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The track executed at dispatch position `i`.
    #[inline]
    pub fn track_at(&self, i: usize) -> u32 {
        match &self.order {
            None => i as u32,
            Some(order) => order[i],
        }
    }

    /// Tracks covered by an explicit order (`None` for the identity,
    /// which covers any count).
    pub fn explicit_len(&self) -> Option<usize> {
        self.order.as_ref().map(Vec::len)
    }
}

/// Partitions `0..num_tracks` into `(boundary, interior)`, each ascending.
fn split_boundary(num_tracks: usize, boundary_tracks: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut is_boundary = vec![false; num_tracks];
    for &t in boundary_tracks {
        is_boundary[t as usize] = true;
    }
    (0..num_tracks as u32).partition(|&t| is_boundary[t as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn problem() -> Problem {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, 3.0, 2.0, (0.0, 2.0), BoundaryConds::vacuum());
        let axial = AxialModel::uniform(0.0, 2.0, 0.5);
        let params = TrackParams {
            num_azim: 4,
            radial_spacing: 0.5,
            num_polar: 2,
            axial_spacing: 0.5,
            ..Default::default()
        };
        Problem::build(g, axial, &lib, params)
    }

    #[test]
    fn natural_is_identity() {
        let s = SweepSchedule::natural();
        assert_eq!(s.kind(), ScheduleKind::Natural);
        assert_eq!(s.explicit_len(), None);
        for i in 0..100 {
            assert_eq!(s.track_at(i), i as u32);
        }
    }

    #[test]
    fn l3_sorted_is_a_permutation() {
        let p = problem();
        for workers in [1, 2, 8] {
            let s = SweepSchedule::with_workers(ScheduleKind::L3Sorted, &p, workers);
            assert_eq!(s.explicit_len(), Some(p.num_tracks()));
            let mut seen = vec![false; p.num_tracks()];
            for i in 0..p.num_tracks() {
                let t = s.track_at(i) as usize;
                assert!(!seen[t], "track {t} dispatched twice (workers={workers})");
                seen[t] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn boundary_first_is_a_permutation_with_boundary_tracks_leading() {
        let p = problem();
        let n = p.num_tracks();
        // An arbitrary but deterministic "boundary" subset.
        let boundary: Vec<u32> = (0..n as u32).filter(|t| t % 3 == 0).collect();
        for workers in [1, 2, 8] {
            let s = SweepSchedule::boundary_first(&p, &boundary, workers);
            assert_eq!(s.kind(), ScheduleKind::BoundaryFirst);
            assert_eq!(s.explicit_len(), Some(n));
            let mut seen = vec![false; n];
            for i in 0..n {
                let t = s.track_at(i) as usize;
                assert!(!seen[t], "track {t} dispatched twice (workers={workers})");
                seen[t] = true;
            }
            assert!(seen.iter().all(|&b| b));
            // Every boundary track occupies one of the first |boundary|
            // dispatch positions.
            for i in 0..boundary.len() {
                assert!(
                    s.track_at(i).is_multiple_of(3),
                    "position {i} holds interior track {} ahead of the boundary set",
                    s.track_at(i)
                );
            }
        }
    }

    #[test]
    fn boundary_first_without_a_plan_degenerates_to_l3() {
        let p = problem();
        let bf = SweepSchedule::with_workers(ScheduleKind::BoundaryFirst, &p, 2);
        let l3 = SweepSchedule::with_workers(ScheduleKind::L3Sorted, &p, 2);
        assert_eq!(bf.kind(), ScheduleKind::BoundaryFirst);
        let order: Vec<u32> = (0..p.num_tracks()).map(|i| bf.track_at(i)).collect();
        let expect: Vec<u32> = (0..p.num_tracks()).map(|i| l3.track_at(i)).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn l3_sorted_leads_each_worker_slice_with_heavy_tracks() {
        let p = problem();
        let workers = 2;
        let s = SweepSchedule::with_workers(ScheduleKind::L3Sorted, &p, workers);
        let heaviest =
            (0..p.num_tracks()).max_by_key(|&i| p.sweep_tracks[i].num_segments).unwrap() as u32;
        let max_segs = p.sweep_tracks[heaviest as usize].num_segments;
        // The first dispatch position of the first bin carries the single
        // heaviest track (descending sort, round-robin deal).
        assert_eq!(
            p.sweep_tracks[s.track_at(0) as usize].num_segments,
            max_segs,
            "first dispatched track must be (one of) the heaviest"
        );
        // Within each bin the segment counts are non-increasing.
        let n = p.num_tracks();
        let bin0 = n.div_ceil(workers);
        let counts: Vec<u32> =
            (0..bin0).map(|i| p.sweep_tracks[s.track_at(i) as usize].num_segments).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "bin 0 not descending: {counts:?}");
    }
}
