//! Calibrated scaling projection for the §5.5 experiments.
//!
//! The paper measures strong/weak scaling on 1 000–16 000 physical GPUs.
//! This repository *measures* the same quantities on 1–64 simulated
//! devices and uses this projector — the performance model of §3.3 turned
//! into a time model — to extend the curves to the paper's scale
//! (documented substitution, DESIGN.md §1). All coefficients are
//! calibrated from measured sweeps, not invented.

/// Calibrated per-iteration time model.
#[derive(Debug, Clone)]
pub struct ScalingProjector {
    /// Seconds per *stored* 3D segment swept (calibrated on a device
    /// sweep in EXP mode).
    pub sec_per_stored_segment: f64,
    /// Extra seconds per *regenerated* segment (OTF ray-tracing overhead;
    /// calibrated from an OTF sweep; the paper cites a generation kernel
    /// several times the source kernel).
    pub sec_per_otf_segment_extra: f64,
    /// Seconds per byte of neighbour flux exchange.
    pub sec_per_byte: f64,
    /// Fixed per-iteration latency per rank (collectives and message
    /// setup).
    pub latency: f64,
    /// Device memory budget for resident 3D segments, bytes/GPU.
    pub resident_budget_bytes: u64,
    /// Global 3D segment count at the strong-scaling baseline.
    pub total_segments: f64,
    /// 3D tracks per segment (to derive Eq. 7 traffic), i.e.
    /// `N_3D / N_3Dseg`.
    pub tracks_per_segment: f64,
    /// Energy groups.
    pub num_groups: u32,
    /// Fraction of a domain's tracks on subdomain boundaries at the
    /// baseline GPU count (grows with n^(1/3) under strong scaling).
    pub boundary_fraction_base: f64,
    /// Baseline GPU count the calibration refers to.
    pub base_gpus: usize,
    /// Load-uniformity index (max/avg) as a function of GPU count —
    /// measured by the Fig. 10 experiment; identity (1.0) for perfectly
    /// balanced runs.
    pub load_index: fn(usize) -> f64,
}

/// One projected point.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    pub gpus: usize,
    /// Seconds per transport iteration (max over ranks).
    pub seconds: f64,
    /// Parallel efficiency relative to the baseline point.
    pub efficiency: f64,
    /// Fraction of segments resident in device memory.
    pub resident_fraction: f64,
}

impl ScalingProjector {
    /// Per-iteration projected time at `gpus` devices with
    /// `segments_per_gpu` work each.
    fn iteration_seconds(&self, gpus: usize, segments_per_gpu: f64) -> (f64, f64) {
        // Resident fraction under the per-device byte budget.
        let seg_bytes = segments_per_gpu * crate::memory::MEM_PER_3D_SEGMENT as f64;
        let resident = (self.resident_budget_bytes as f64 / seg_bytes).min(1.0);
        let stored = segments_per_gpu * resident;
        let otf = segments_per_gpu - stored;
        let sweep = stored * self.sec_per_stored_segment
            + otf * (self.sec_per_stored_segment + self.sec_per_otf_segment_extra);

        // Communication: boundary tracks shrink with domain surface /
        // volume; under strong scaling the per-domain boundary fraction
        // grows like n^(1/3).
        let frac =
            self.boundary_fraction_base * (gpus as f64 / self.base_gpus as f64).powf(1.0 / 3.0);
        let boundary_tracks = segments_per_gpu * self.tracks_per_segment * frac.min(1.0);
        let bytes = boundary_tracks * 2.0 * self.num_groups as f64 * 4.0;
        let comm = bytes * self.sec_per_byte + self.latency;

        let lb = (self.load_index)(gpus);
        (sweep * lb + comm, resident)
    }

    /// Strong-scaling curve: fixed global work divided over `gpus`.
    pub fn strong(&self, gpu_counts: &[usize]) -> Vec<ScalingPoint> {
        let base_segs = self.total_segments / self.base_gpus as f64;
        let (t0, _) = self.iteration_seconds(self.base_gpus, base_segs);
        gpu_counts
            .iter()
            .map(|&n| {
                let per_gpu = self.total_segments / n as f64;
                let (t, resident) = self.iteration_seconds(n, per_gpu);
                let efficiency = (t0 * self.base_gpus as f64) / (t * n as f64);
                ScalingPoint { gpus: n, seconds: t, efficiency, resident_fraction: resident }
            })
            .collect()
    }

    /// Weak-scaling curve: fixed per-GPU work. `grid_overhead` adds the
    /// paper's decomposition-grid cost: extra segments per GPU growing
    /// with the domain count (`(n / base)^overhead_exponent - 1` scaled).
    pub fn weak(
        &self,
        gpu_counts: &[usize],
        per_gpu_segments: f64,
        grid_overhead: f64,
    ) -> Vec<ScalingPoint> {
        let (t0, _) = self.iteration_seconds(self.base_gpus, per_gpu_segments);
        gpu_counts
            .iter()
            .map(|&n| {
                let extra =
                    1.0 + grid_overhead * ((n as f64 / self.base_gpus as f64).ln()).max(0.0);
                let (t, resident) = self.iteration_seconds(n, per_gpu_segments * extra);
                ScalingPoint {
                    gpus: n,
                    seconds: t,
                    efficiency: t0 / t,
                    resident_fraction: resident,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn projector(load_index: fn(usize) -> f64) -> ScalingProjector {
        ScalingProjector {
            sec_per_stored_segment: 1e-9,
            sec_per_otf_segment_extra: 4e-9,
            sec_per_byte: 5e-10,
            latency: 1e-4,
            resident_budget_bytes: 6 << 30,
            total_segments: 1.0e12,
            tracks_per_segment: 0.05,
            num_groups: 7,
            boundary_fraction_base: 0.1,
            base_gpus: 1000,
            load_index,
        }
    }

    #[test]
    fn strong_efficiency_is_one_at_baseline_and_decays() {
        let p = projector(|_| 1.0);
        let pts = p.strong(&[1000, 2000, 4000, 8000, 16000]);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-12);
        // Strong scaling with memory relief is superlinear until the
        // working set goes all-resident (the paper's 8000-GPU bump);
        // beyond that point efficiency must decay monotonically.
        let first_resident = pts
            .iter()
            .position(|p| p.resident_fraction >= 1.0 - 1e-12)
            .expect("some point should be all-resident");
        for w in pts[first_resident..].windows(2) {
            assert!(
                w[1].efficiency <= w[0].efficiency + 1e-9,
                "eff must decay once all-resident: {:?}",
                pts.iter().map(|p| p.efficiency).collect::<Vec<_>>()
            );
        }
        // Time per iteration keeps dropping with more GPUs.
        assert!(pts.last().unwrap().seconds < pts[0].seconds);
    }

    #[test]
    fn all_resident_inflection_appears() {
        // Once per-GPU segments fit the budget entirely, the OTF overhead
        // vanishes — the Fig. 11 "8000 GPUs all-resident" effect.
        let p = projector(|_| 1.0);
        let pts = p.strong(&[1000, 2000, 4000, 8000, 16000]);
        let resident: Vec<f64> = pts.iter().map(|p| p.resident_fraction).collect();
        assert!(resident[0] < 1.0, "baseline should be memory-starved: {resident:?}");
        assert!(
            *resident.last().unwrap() >= 1.0 - 1e-12,
            "largest run should be all-resident: {resident:?}"
        );
        // Efficiency can exceed 1 (superlinear) when crossing into
        // all-resident territory, as the paper observes at 8000 GPUs.
        let max_eff = pts.iter().map(|p| p.efficiency).fold(0.0, f64::max);
        assert!(max_eff > 1.0, "expected a superlinear bump: {max_eff}");
    }

    #[test]
    fn load_balancing_improves_projected_time() {
        fn imbalanced(_: usize) -> f64 {
            1.5
        }
        let balanced = projector(|_| 1.0).strong(&[16000]);
        let skewed = projector(imbalanced).strong(&[16000]);
        assert!(balanced[0].seconds < skewed[0].seconds);
    }

    #[test]
    fn weak_efficiency_decays_with_grid_overhead() {
        let p = projector(|_| 1.0);
        let pts = p.weak(&[1000, 4000, 16000], 1.0e9, 0.02);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-12);
        assert!(pts[2].efficiency < pts[0].efficiency);
        assert!(pts[2].efficiency > 0.5, "decay too steep: {}", pts[2].efficiency);
    }
}
