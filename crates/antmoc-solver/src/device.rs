//! The simulated-GPU solver: Algorithm 1 kernels on a device with hard
//! memory accounting and optional L3 track-to-CU load mapping. Its sweep
//! is the CPU sweep's one dispatch over one bin per CU
//! ([`SweepSchedule::for_device`]); the device adds the memory pool, the
//! spec and the per-CU work metrics.
//!
//! Memory tags mirror the paper's Table 3 rows (`2D_tracks`, `3D_tracks`,
//! `2D_segments`, `3D_segments`, `Track_fluxs`, `Others`) so the memory
//! breakdown experiment reads straight from the device pool. Explicit
//! storage that exceeds device capacity fails with `OutOfMemory` — the
//! condition that forces OTF or the track manager (§4.1, Fig. 9).

use std::sync::Arc;
use std::time::Instant;

use crate::manager::ResidencyPlan;
use crate::problem::Problem;
use crate::schedule::SweepSchedule;
use crate::sweep::{sweep_region, FluxBanks, SegmentSource, StorageMode, SweepOutcome};
use crate::sweeper::Sweeper;
use crate::tally::{KernelConfig, SweepArena};
use antmoc_gpusim::{Device, OutOfMemory, Reservation};

/// How 3D tracks are mapped to CUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CuMapping {
    /// Grid-stride (Algorithm 1's `tid += blockDim * gridDim` loop) —
    /// the no-L3 baseline.
    GridStride,
    /// The L3 strategy (§4.2.3): tracks sorted by descending segment
    /// count, dealt round-robin to CUs.
    SegmentSorted,
}

/// A solver bound to one simulated device.
pub struct DeviceSolver {
    pub device: Arc<Device>,
    pub mode: StorageMode,
    pub mapping: CuMapping,
    segsrc: SegmentSource,
    /// The residency plan when running in Manager mode.
    pub plan: Option<ResidencyPlan>,
    /// One bin per CU, dealt by `mapping`.
    schedule: SweepSchedule,
    /// Kernel configuration and per-worker tally/track buffers, reused
    /// across sweeps like the CPU sweeper's.
    arena: SweepArena,
    /// Live memory reservations (released when the solver drops).
    _reservations: Vec<Reservation>,
}

impl DeviceSolver {
    /// Prepares the solver: selects segment storage per `mode`, reserves
    /// device memory (failing if it cannot fit), and builds the CU
    /// mapping.
    pub fn new(
        device: Arc<Device>,
        problem: &Problem,
        mode: StorageMode,
        mapping: CuMapping,
    ) -> Result<Self, OutOfMemory> {
        let pool = device.memory().clone();
        let mut reservations = Vec::new();

        // Fixed inputs every mode ships to the device.
        let n2d = problem.layout.num_2d_tracks() as u64;
        let n3d = problem.num_tracks() as u64;
        let g = problem.num_groups() as u64;
        reservations.push(Reservation::new(&pool, "2D_tracks", n2d * 64)?);
        reservations.push(Reservation::new(
            &pool,
            "3D_tracks",
            n3d * std::mem::size_of::<crate::problem::SweepTrack>() as u64,
        )?);
        reservations.push(Reservation::new(
            &pool,
            "2D_segments",
            problem.layout.segments2d.bytes(),
        )?);
        reservations.push(Reservation::new(&pool, "Track_fluxs", n3d * 2 * g * 4 * 2)?);
        let nf = problem.num_fsrs() as u64;
        reservations.push(Reservation::new(&pool, "Others", nf * g * (8 + 8) + nf * 8)?);
        // Every segment, stored or traced on the fly, reads its span here.
        reservations.push(Reservation::new(
            &pool,
            "Attenuation_table",
            problem.attenuation_bytes(),
        )?);

        // Mode-dependent 3D segment storage, reserved at its traced size;
        // the manager fits it into what the pool has left.
        let budgeted = match mode {
            StorageMode::Manager { budget_bytes } => {
                StorageMode::Manager { budget_bytes: budget_bytes.min(pool.available()) }
            }
            other => other,
        };
        let (segsrc, plan) = SegmentSource::new(problem, budgeted);
        if let Some(store) = segsrc.store() {
            reservations.push(Reservation::new(&pool, "3D_segments", store.bytes())?);
        }

        let schedule = SweepSchedule::for_device(problem, device.spec().num_cus, mapping);
        Ok(Self {
            device,
            mode,
            mapping,
            segsrc,
            plan,
            schedule,
            arena: SweepArena::new(KernelConfig::default()),
            _reservations: reservations,
        })
    }

    /// Sweeps on a caller-owned arena instead of the default one: the
    /// arena's `KernelConfig` governs the device kernel, and a pooled
    /// arena's buffers are reused.
    pub fn with_arena(mut self, arena: SweepArena) -> Self {
        self.arena = arena;
        self
    }

    /// Releases the arena for return to a pool once the solve is done.
    pub fn into_arena(self) -> SweepArena {
        self.arena
    }

    /// The live segment source (for inspection in tests/benches).
    pub fn segment_source(&self) -> &SegmentSource {
        &self.segsrc
    }
}

impl Sweeper for DeviceSolver {
    /// Runs the CPU sweep's dispatch over one bin per CU, then records
    /// the sweep as one kernel launch: per-CU work, launch count and
    /// kernel seconds come from the simulator while the kernel, tallies
    /// and telemetry are the CPU sweep's.
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        let start = Instant::now();
        let (out, per_cu) =
            sweep_region(problem, &self.segsrc, q, banks, &self.schedule, &mut self.arena, None);
        let kernel = match self.mapping {
            CuMapping::GridStride => "fused_sweep",
            CuMapping::SegmentSorted => "fused_sweep_l3",
        };
        self.device.record_launch(kernel, &per_cu, start.elapsed().as_secs_f64());
        debug_assert_eq!(out.segments, problem.num_3d_segments() * 2);
        out
    }

    fn recycle(&mut self, outcome: SweepOutcome) {
        self.arena.recycle(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::{solve_eigenvalue, CpuSweeper, EigenOptions};
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_gpusim::DeviceSpec;
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn problem() -> Problem {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 4.0), BoundaryConds::reflective());
        let axial = AxialModel::uniform(0.0, 4.0, 2.0);
        let params =
            TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 1.0 };
        Problem::build(g, axial, &lib, params)
    }

    fn big_device() -> Arc<Device> {
        Arc::new(Device::new(DeviceSpec::scaled(1 << 30)))
    }

    #[test]
    fn device_and_cpu_solvers_agree_on_keff() {
        let p = problem();
        let opts = EigenOptions { tolerance: 5e-5, max_iterations: 2500, ..Default::default() };

        let segsrc = SegmentSource::otf();
        let mut cpu = CpuSweeper::new(&segsrc);
        let r_cpu = solve_eigenvalue(&p, &mut cpu, &opts);

        for (mode, mapping) in [
            (StorageMode::Explicit, CuMapping::GridStride),
            (StorageMode::Otf, CuMapping::SegmentSorted),
            (StorageMode::Manager { budget_bytes: 10_000 }, CuMapping::SegmentSorted),
        ] {
            let mut dev = DeviceSolver::new(big_device(), &p, mode, mapping).unwrap();
            let r_dev = solve_eigenvalue(&p, &mut dev, &opts);
            assert!(r_dev.converged);
            assert!(
                (r_dev.keff - r_cpu.keff).abs() < 5e-5,
                "{mode:?}/{mapping:?}: {} vs {}",
                r_dev.keff,
                r_cpu.keff
            );
        }
    }

    #[test]
    fn explicit_mode_oom_on_tiny_device() {
        let p = problem();
        // Size the device between the fixed-input footprint and the full
        // explicit footprint so EXP must overflow while OTF fits.
        let big = big_device();
        {
            let _probe =
                DeviceSolver::new(big.clone(), &p, StorageMode::Explicit, CuMapping::GridStride)
                    .unwrap();
            let total = big.memory().used();
            let segs = big
                .memory()
                .breakdown()
                .into_iter()
                .find(|(t, _)| t == "3D_segments")
                .map(|(_, b)| b)
                .unwrap();
            let capacity = total - segs / 2;
            let dev = Arc::new(Device::new(DeviceSpec::scaled(capacity)));
            let r =
                DeviceSolver::new(dev.clone(), &p, StorageMode::Explicit, CuMapping::GridStride);
            assert!(r.is_err(), "explicit segments must not fit {capacity} bytes");
            // OTF fits the same device.
            let otf = DeviceSolver::new(dev, &p, StorageMode::Otf, CuMapping::GridStride);
            assert!(otf.is_ok());
        }
    }

    #[test]
    fn manager_mode_fits_where_explicit_cannot() {
        let p = problem();
        // Size the device so fixed inputs fit but full 3D segments do not.
        let fixed: u64 = 300_000;
        let dev = Arc::new(Device::new(DeviceSpec::scaled(fixed)));
        let explicit =
            DeviceSolver::new(dev.clone(), &p, StorageMode::Explicit, CuMapping::GridStride);
        if explicit.is_ok() {
            // Problem too small on this config; nothing to assert.
            return;
        }
        let dev2 = Arc::new(Device::new(DeviceSpec::scaled(fixed)));
        let mgr = DeviceSolver::new(
            dev2,
            &p,
            StorageMode::Manager { budget_bytes: u64::MAX },
            CuMapping::GridStride,
        )
        .expect("manager must degrade gracefully");
        let plan = mgr.plan.as_ref().unwrap();
        assert!(plan.resident.len() < p.num_tracks());
    }

    #[test]
    fn memory_breakdown_has_expected_tags() {
        // Use a finer axial mesh so tracks carry many segments — the
        // regime where the paper's Table 3 shape (3D segments dominant)
        // appears.
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 4.0), BoundaryConds::reflective());
        let axial = AxialModel::uniform(0.0, 4.0, 0.1);
        let params =
            TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 1.0 };
        let p = Problem::build(g, axial, &lib, params);
        let dev = big_device();
        let solver =
            DeviceSolver::new(dev.clone(), &p, StorageMode::Explicit, CuMapping::GridStride)
                .unwrap();
        let tags: Vec<String> = dev.memory().breakdown().into_iter().map(|(t, _)| t).collect();
        for expect in [
            "2D_tracks",
            "3D_tracks",
            "2D_segments",
            "3D_segments",
            "Attenuation_table",
            "Track_fluxs",
            "Others",
        ] {
            assert!(tags.contains(&expect.to_string()), "missing {expect}: {tags:?}");
        }
        // 3D segments dominate (the Table 3 shape), reserved at their
        // traced size; the problem's attenuation table is its own line.
        let b = dev.memory().breakdown();
        assert_eq!(b[0].0, "3D_segments", "breakdown {b:?}");
        let src = solver.segment_source();
        let bytes = |tag: &str| b.iter().find(|(t, _)| t == tag).unwrap().1;
        assert_eq!(bytes("3D_segments"), src.stored_bytes());
        assert_eq!(bytes("Attenuation_table"), p.attenuation_bytes());
    }

    #[test]
    fn l3_mapping_balances_cu_work() {
        let p = problem();
        let cus = 8;
        let schedule = SweepSchedule::for_device(&p, cus, CuMapping::SegmentSorted);
        assert_eq!(schedule.num_bins(p.num_tracks(), 1), cus);
        let sums: Vec<u64> = (0..cus)
            .map(|b| {
                let bin = schedule.bin(b, p.num_tracks(), cus);
                bin.map(|t| p.sweep_tracks[t as usize].num_segments as u64).sum()
            })
            .collect();
        let max = *sums.iter().max().unwrap() as f64;
        let avg = sums.iter().sum::<u64>() as f64 / cus as f64;
        assert!(max / avg < 1.2, "L3 uniformity {}", max / avg);
    }

    #[test]
    fn cu_mappings_produce_identical_physics() {
        // Grid-stride and segment-sorted L3 assignments execute the same
        // sweep bodies; only the CU grouping differs. The accumulated
        // scalar flux must agree to the atomic-ordering noise floor.
        let p = problem();
        let q = vec![0.2f64; p.num_fsrs() * p.num_groups()];
        let run = |mapping: CuMapping| {
            let dev = big_device();
            let mut s = DeviceSolver::new(dev, &p, StorageMode::Explicit, mapping).unwrap();
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            s.sweep(&p, &q, &banks).phi_acc
        };
        let a = run(CuMapping::GridStride);
        let b = run(CuMapping::SegmentSorted);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn l3_uniformity_beats_grid_stride_on_device_counters() {
        // Run both mappings on real sweeps and compare the device's own
        // per-CU work counters (the Fig. 10 L3 effect, measured from the
        // simulator's accounting rather than from the assignment).
        let p = problem();
        let q = vec![0.2f64; p.num_fsrs() * p.num_groups()];
        let measure = |mapping: CuMapping| {
            let dev = big_device();
            let mut s = DeviceSolver::new(dev.clone(), &p, StorageMode::Explicit, mapping).unwrap();
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let _ = s.sweep(&p, &q, &banks);
            dev.metrics().cu_load_uniformity().unwrap()
        };
        let stride = measure(CuMapping::GridStride);
        let sorted = measure(CuMapping::SegmentSorted);
        assert!(sorted <= stride + 1e-9, "L3 uniformity {sorted} vs grid-stride {stride}");
    }

    #[test]
    fn solver_drop_releases_device_memory() {
        let p = problem();
        let dev = big_device();
        {
            let _s =
                DeviceSolver::new(dev.clone(), &p, StorageMode::Explicit, CuMapping::GridStride)
                    .unwrap();
            assert!(dev.memory().used() > 0);
        }
        assert_eq!(dev.memory().used(), 0);
    }
}
