//! The memory-feasibility advisor: the paper's stated application of the
//! performance model — "give reasonable memory estimation and avoid
//! memory overflow" (§3.3) — turned into an API.
//!
//! Given a device's memory capacity and the predicted entity counts of a
//! planned run (Eqs. 2–5), the advisor recommends a storage mode before
//! any track is generated: EXPlicit when everything fits, the Manager
//! with a computed budget when only part of the segment store fits, OTF
//! when even that margin is too thin — or reports the run as infeasible
//! when the irreducible working set exceeds the device.

use crate::memory::{MemoryModel, MEM_PER_3D_SEGMENT};

/// The advisor's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Advice {
    /// Everything fits: run EXPlicit.
    Explicit { headroom_bytes: u64 },
    /// Store as much as the budget allows; the rest regenerates on the
    /// fly.
    Manager { budget_bytes: u64, resident_fraction: f64 },
    /// Not even a useful resident margin: run pure OTF.
    Otf { headroom_bytes: u64 },
    /// The irreducible working set (tracks, 2D segments, fluxes) does not
    /// fit at all; the run must be decomposed onto more devices.
    Infeasible { deficit_bytes: u64 },
}

/// Fraction of the post-fixed-cost headroom the advisor leaves free for
/// transients (kernel scratch, exchange buffers).
const SAFETY_MARGIN: f64 = 0.10;
/// Below this resident fraction the manager's bookkeeping is not worth
/// it; recommend plain OTF.
const MIN_USEFUL_RESIDENT: f64 = 0.02;

/// Recommends a storage mode for a planned run.
///
/// `model.n_3d_segments_stored` is interpreted as the *total* 3D segment
/// count of the run (the advisor decides how much of it to store).
pub fn advise(model: &MemoryModel, device_capacity: u64) -> Advice {
    // Irreducible footprint: everything except the 3D segment store.
    let mut fixed = *model;
    fixed.n_3d_segments_stored = 0;
    let fixed_bytes = fixed.total_bytes();
    if fixed_bytes > device_capacity {
        return Advice::Infeasible { deficit_bytes: fixed_bytes - device_capacity };
    }
    let headroom = device_capacity - fixed_bytes;
    let budget = (headroom as f64 * (1.0 - SAFETY_MARGIN)) as u64;
    let segment_bytes = model.n_3d_segments_stored * MEM_PER_3D_SEGMENT;
    if segment_bytes == 0 || segment_bytes <= budget {
        return Advice::Explicit { headroom_bytes: headroom - segment_bytes.min(headroom) };
    }
    let resident_fraction = budget as f64 / segment_bytes as f64;
    if resident_fraction < MIN_USEFUL_RESIDENT {
        return Advice::Otf { headroom_bytes: headroom };
    }
    Advice::Manager { budget_bytes: budget, resident_fraction }
}

/// Convenience: the smallest device count (uniform split) at which the
/// per-device working set becomes feasible — the planning question behind
/// the paper's 2x2x2-and-up decompositions.
pub fn min_feasible_devices(
    model: &MemoryModel,
    device_capacity: u64,
    max_devices: usize,
) -> Option<usize> {
    for n in 1..=max_devices {
        let nf = n as u64;
        let per_device = MemoryModel {
            n_2d_tracks: model.n_2d_tracks.div_ceil(nf),
            n_3d_tracks: model.n_3d_tracks.div_ceil(nf),
            n_2d_segments: model.n_2d_segments.div_ceil(nf),
            n_3d_segments_stored: model.n_3d_segments_stored.div_ceil(nf),
            n_fsrs: model.n_fsrs.div_ceil(nf),
            num_groups: model.num_groups,
            fixed: model.fixed,
        };
        if !matches!(advise(&per_device, device_capacity), Advice::Infeasible { .. }) {
            return Some(n);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(segments: u64) -> MemoryModel {
        MemoryModel {
            n_2d_tracks: 1_000,
            n_3d_tracks: 100_000,
            n_2d_segments: 50_000,
            n_3d_segments_stored: segments,
            n_fsrs: 10_000,
            num_groups: 7,
            fixed: 1 << 20,
        }
    }

    fn fixed_bytes(segments: u64) -> u64 {
        let mut m = model(segments);
        m.n_3d_segments_stored = 0;
        m.total_bytes()
    }

    #[test]
    fn plenty_of_memory_means_explicit() {
        let m = model(1_000_000);
        let advice = advise(&m, 1 << 30);
        assert!(matches!(advice, Advice::Explicit { .. }), "{advice:?}");
    }

    #[test]
    fn tight_memory_means_manager_with_sane_budget() {
        let m = model(10_000_000); // 80 MB of segments
        let capacity = fixed_bytes(0) + (20 << 20);
        match advise(&m, capacity) {
            Advice::Manager { budget_bytes, resident_fraction } => {
                assert!(budget_bytes < 20 << 20);
                assert!(
                    resident_fraction > 0.15 && resident_fraction < 0.30,
                    "fraction {resident_fraction}"
                );
            }
            other => panic!("expected Manager, got {other:?}"),
        }
    }

    #[test]
    fn negligible_headroom_means_otf() {
        let m = model(1_000_000_000); // 8 GB of segments
        let capacity = fixed_bytes(0) + (10 << 20);
        assert!(matches!(advise(&m, capacity), Advice::Otf { .. }));
    }

    #[test]
    fn too_small_device_is_infeasible() {
        let m = model(1_000_000);
        match advise(&m, 1 << 20) {
            Advice::Infeasible { deficit_bytes } => assert!(deficit_bytes > 0),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn decomposition_restores_feasibility() {
        let m = model(1_000_000);
        let capacity = 4 << 20; // too small for one device
        assert!(matches!(advise(&m, capacity), Advice::Infeasible { .. }));
        let n = min_feasible_devices(&m, capacity, 64).expect("some split works");
        assert!(n > 1 && n <= 64, "n = {n}");
        // And one fewer is still infeasible.
        if n > 1 {
            let nf = (n - 1) as u64;
            let per = MemoryModel {
                n_2d_tracks: m.n_2d_tracks.div_ceil(nf),
                n_3d_tracks: m.n_3d_tracks.div_ceil(nf),
                n_2d_segments: m.n_2d_segments.div_ceil(nf),
                n_3d_segments_stored: m.n_3d_segments_stored.div_ceil(nf),
                n_fsrs: m.n_fsrs.div_ceil(nf),
                num_groups: m.num_groups,
                fixed: m.fixed,
            };
            assert!(matches!(advise(&per, capacity), Advice::Infeasible { .. }));
        }
    }

    #[test]
    fn advice_is_monotone_in_capacity() {
        // As capacity grows the advice strictly "improves":
        // Infeasible -> Otf -> Manager -> Explicit (no regressions).
        let m = model(10_000_000);
        let rank = |a: &Advice| match a {
            Advice::Infeasible { .. } => 0,
            Advice::Otf { .. } => 1,
            Advice::Manager { .. } => 2,
            Advice::Explicit { .. } => 3,
        };
        let mut last = 0;
        for mb in [1u64, 4, 8, 16, 24, 40, 80, 160, 500] {
            let a = advise(&m, mb << 20);
            let r = rank(&a);
            assert!(r >= last, "advice regressed at {mb} MiB: {a:?}");
            last = r;
        }
        assert_eq!(last, 3, "largest capacity should be Explicit");
    }
}
