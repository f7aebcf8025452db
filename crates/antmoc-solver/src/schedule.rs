//! Sweep schedules. A schedule is a list of bins of tracks; a sweep deals
//! the bins to the pool's workers in contiguous runs and each worker
//! sweeps its bins' tracks in order — the one dispatch every backend
//! shares (Algorithm 1 and §4.2.3: tracks dealt into bins, bins run in
//! parallel). Empty bins are dropped.
//!
//! * [`ScheduleKind::Natural`] — one contiguous range of track indices
//!   per worker, resolved at sweep time (allocates nothing).
//! * [`ScheduleKind::L3Sorted`] — the paper's L3 deal applied to the CPU
//!   pool: `antmoc_balance::l3::sorted_round_robin` over the per-track
//!   segment counts, one bin per worker, so worker `w` sweeps bin `w`.
//! * [`SweepSchedule::for_device`] — one bin per simulated CU,
//!   grid-stride or L3.
//! * `serial_boundary_first` — the serial rank's one bin: the tracks
//!   whose exits ship to neighbour domains, then the interior.

use std::ops::Range;

use antmoc_balance::l3::{grid_stride, sorted_round_robin};

use crate::device::CuMapping;
use crate::problem::Problem;

/// Which dispatch order a CPU sweep uses. No config key selects it: every
/// run sweeps in natural order, and L3 is the dispatch tests and the
/// benchmark select programmatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleKind {
    /// Track index order as generated.
    #[default]
    Natural,
    /// Descending-segment-count sort dealt round-robin across workers
    /// (the paper's L3 mapping applied to the CPU pool).
    L3Sorted,
}

/// A resolved schedule for one problem: its bins, each swept in order by
/// one worker.
#[derive(Debug, Clone)]
pub struct SweepSchedule {
    /// The non-empty bins; `None` is the natural order, whose contiguous
    /// ranges are resolved at sweep time.
    bins: Option<Vec<Vec<u32>>>,
}

impl SweepSchedule {
    /// The natural order: one contiguous range of track indices per
    /// worker.
    pub fn natural() -> Self {
        Self { bins: None }
    }

    fn from_bins(mut bins: Vec<Vec<u32>>) -> Self {
        bins.retain(|b| !b.is_empty());
        Self { bins: Some(bins) }
    }

    /// Builds the bins for a problem using the current worker count of
    /// the calling thread's pool.
    pub fn for_problem(kind: ScheduleKind, problem: &Problem) -> Self {
        Self::with_workers(kind, problem, rayon::current_num_threads())
    }

    /// Builds the bins for an explicit worker count.
    pub fn with_workers(kind: ScheduleKind, problem: &Problem, workers: usize) -> Self {
        match kind {
            ScheduleKind::Natural => Self::natural(),
            ScheduleKind::L3Sorted => {
                Self::from_bins(sorted_round_robin(&segment_counts(problem), workers.max(1)))
            }
        }
    }

    /// The simulated device's schedule: one bin per CU, dealt grid-stride
    /// (Algorithm 1's `tid += blockDim * gridDim` loop, the no-L3
    /// baseline) or by the L3 descending-segment-count round-robin.
    pub(crate) fn for_device(problem: &Problem, num_cus: usize, mapping: CuMapping) -> Self {
        match mapping {
            CuMapping::GridStride => Self::from_bins(grid_stride(problem.num_tracks(), num_cus)),
            CuMapping::SegmentSorted => {
                Self::from_bins(sorted_round_robin(&segment_counts(problem), num_cus))
            }
        }
    }

    /// The serial backend's one bin: `boundary_tracks` ascending, then the
    /// interior ascending — a stable order both exchange modes share, so
    /// a pipelined sweep can ship each payload from inside itself. With
    /// no boundary tracks it is the natural order.
    pub(crate) fn serial_boundary_first(num_tracks: usize, boundary_tracks: &[u32]) -> Self {
        if boundary_tracks.is_empty() {
            return Self::natural();
        }
        let (mut order, interior) = split_boundary(num_tracks, boundary_tracks);
        order.extend(interior);
        Self::from_bins(vec![order])
    }

    /// How many bins one sweep of `num_tracks` tracks deals on `workers`
    /// workers.
    pub(crate) fn num_bins(&self, num_tracks: usize, workers: usize) -> usize {
        match &self.bins {
            None => workers.max(1).min(num_tracks),
            Some(bins) => {
                let covered: usize = bins.iter().map(Vec::len).sum();
                assert_eq!(covered, num_tracks, "schedule built for a different problem");
                bins.len()
            }
        }
    }

    /// The tracks of bin `b` of [`Self::num_bins`], in sweep order.
    pub(crate) fn bin(
        &self,
        b: usize,
        num_tracks: usize,
        num_bins: usize,
    ) -> impl Iterator<Item = u32> + '_ {
        let (range, list) = match &self.bins {
            None => (range_of(num_tracks, num_bins, b), &[][..]),
            Some(bins) => (0..0, &bins[b][..]),
        };
        range.map(|t| t as u32).chain(list.iter().copied())
    }
}

/// Range `b` of `0..n` split into `parts` near-equal contiguous ranges,
/// the first `n % parts` one item longer — the split by which the pool
/// deals items to workers.
fn range_of(n: usize, parts: usize, b: usize) -> Range<usize> {
    let (base, extra) = (n / parts, n % parts);
    let start = b * base + b.min(extra);
    start..start + base + usize::from(b < extra)
}

/// Per-track segment counts, the L3 deal's weights.
fn segment_counts(problem: &Problem) -> Vec<u64> {
    problem.sweep_tracks.iter().map(|t| t.num_segments as u64).collect()
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

    /// Each bin's tracks, in sweep order.
    fn bins(s: &SweepSchedule, n: usize, workers: usize) -> Vec<Vec<u32>> {
        let num_bins = s.num_bins(n, workers);
        (0..num_bins).map(|b| s.bin(b, n, num_bins).collect()).collect()
    }

    #[test]
    fn natural_is_identity() {
        let s = SweepSchedule::natural();
        // One contiguous range per worker, the first `n % W` one longer;
        // fewer tracks than workers leave no empty bin.
        assert_eq!(bins(&s, 7, 3), vec![vec![0, 1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(bins(&s, 2, 4), vec![vec![0], vec![1]]);
        assert_eq!(bins(&s, 100, 1).concat(), (0..100).collect::<Vec<u32>>());
        assert_eq!(s.num_bins(0, 4), 0);
    }

    #[test]
    fn l3_sorted_is_a_permutation() {
        let p = problem();
        for workers in [1, 2, 8] {
            let s = SweepSchedule::with_workers(ScheduleKind::L3Sorted, &p, workers);
            let b = bins(&s, p.num_tracks(), workers);
            assert_eq!(b.len(), workers.min(p.num_tracks()));
            let mut seen = vec![false; p.num_tracks()];
            for t in b.concat() {
                assert!(!seen[t as usize], "track {t} dispatched twice (workers={workers})");
                seen[t as usize] = true;
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn l3_sorted_leads_each_worker_slice_with_heavy_tracks() {
        let p = problem();
        let workers = 2;
        let s = SweepSchedule::with_workers(ScheduleKind::L3Sorted, &p, workers);
        let b = bins(&s, p.num_tracks(), workers);
        let segs = |t: u32| p.sweep_tracks[t as usize].num_segments;
        let max_segs = (0..p.num_tracks() as u32).map(segs).max().unwrap();
        // The first track of the first bin is the single heaviest track
        // (descending sort, round-robin deal).
        assert_eq!(segs(b[0][0]), max_segs, "first dispatched track must be (one of) the heaviest");
        // Within each bin the segment counts are non-increasing.
        for bin in &b {
            let counts: Vec<u32> = bin.iter().map(|&t| segs(t)).collect();
            assert!(counts.windows(2).all(|w| w[0] >= w[1]), "bin not descending: {counts:?}");
        }
    }
}
