//! Fig. 9: memory and time comparison of the EXP / OTF / Manager track
//! storage strategies across five track scales.
//!
//! Times are the average of 10 transport iterations (the paper's §5.3
//! protocol); memory is the device utilisation before transport starts.
//! The device capacity and manager threshold scale the paper's 16 GB /
//! 6.144 GB down to laptop-size so the EXP-overflow regime appears at the
//! dense scales.
//!
//! `--ablation` additionally compares resident-ranking policies
//! (by-segments vs by-length vs random) for the manager.
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin fig9_track_strategies [-- --ablation]
//! ```

use std::sync::Arc;
use std::time::Instant;

use antmoc::gpusim::{Device, DeviceSpec};
use antmoc::perfmodel::{advise, Advice, MemoryModel};
use antmoc::solver::device::{CuMapping, DeviceSolver};
use antmoc::solver::manager::{select_resident, RankPolicy};
use antmoc::solver::sweep::transport_sweep_with;
use antmoc::solver::{
    EigenOptions, FluxBanks, KernelConfig, SegmentSource, StorageMode, SweepArena, SweepSchedule,
    Sweeper,
};
use antmoc_bench::{human_bytes, problem_for, track_scales};

const ITERS: usize = 10;

fn time_iterations(solver: &mut DeviceSolver, problem: &antmoc::solver::Problem) -> f64 {
    let q = vec![0.1f64; problem.num_fsrs() * problem.num_groups()];
    let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let out = solver.sweep(problem, &q, &banks);
        solver.recycle(out);
    }
    t0.elapsed().as_secs_f64() / ITERS as f64
}

fn main() {
    let ablation = std::env::args().any(|a| a == "--ablation");
    let _ = EigenOptions::default();

    // Scaled device: 24 MiB capacity, 6 MiB resident threshold (the
    // paper: 16 GiB / 6.144 GiB).
    let capacity: u64 = 24 << 20;
    let threshold: u64 = 6 << 20;

    println!(
        "# Fig. 9: EXP vs OTF vs Manager (device {} capacity, manager threshold {})\n",
        human_bytes(capacity),
        human_bytes(threshold)
    );
    println!("| scale | 3D segments | advisor says | M_EXP | T_EXP s | M_OTF | T_OTF s | M_Mgr | T_Mgr s | resident % | Mgr vs OTF |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");

    for (label, params) in track_scales() {
        let problem = problem_for(params);
        // The §3.3 application: predict the feasible mode from the model
        // before running anything.
        let mm = MemoryModel {
            n_2d_tracks: problem.layout.num_2d_tracks() as u64,
            n_3d_tracks: problem.num_tracks() as u64,
            n_2d_segments: problem.layout.num_2d_segments() as u64,
            n_3d_segments_stored: problem.num_3d_segments(),
            n_fsrs: problem.num_fsrs() as u64,
            num_groups: problem.num_groups() as u64,
            fixed: 0,
        };
        let advice = match advise(&mm, capacity) {
            Advice::Explicit { .. } => "EXP".to_string(),
            Advice::Manager { resident_fraction, .. } => {
                format!("Manager ({:.0} %)", resident_fraction * 100.0)
            }
            Advice::Otf { .. } => "OTF".to_string(),
            Advice::Infeasible { .. } => "decompose!".to_string(),
        };
        let mut cells: Vec<String> =
            vec![label.into(), problem.num_3d_segments().to_string(), advice];

        // EXP.
        let dev = Arc::new(Device::new(DeviceSpec::scaled(capacity)));
        match DeviceSolver::new(
            dev.clone(),
            &problem,
            StorageMode::Explicit,
            CuMapping::SegmentSorted,
        ) {
            Ok(mut s) => {
                let mem = dev.memory().used();
                let t = time_iterations(&mut s, &problem);
                cells.push(human_bytes(mem));
                cells.push(format!("{t:.3}"));
            }
            Err(_) => {
                cells.push("OOM".into());
                cells.push("-".into());
            }
        }

        // OTF.
        let dev = Arc::new(Device::new(DeviceSpec::scaled(capacity)));
        let mut otf =
            DeviceSolver::new(dev.clone(), &problem, StorageMode::Otf, CuMapping::SegmentSorted)
                .expect("OTF always fits");
        let t_otf = time_iterations(&mut otf, &problem);
        cells.push(human_bytes(dev.memory().used()));
        cells.push(format!("{t_otf:.3}"));

        // Manager.
        let dev = Arc::new(Device::new(DeviceSpec::scaled(capacity)));
        let mut mgr = DeviceSolver::new(
            dev.clone(),
            &problem,
            StorageMode::Manager { budget_bytes: threshold },
            CuMapping::SegmentSorted,
        )
        .expect("manager fits by construction");
        let resident_pct = mgr
            .plan
            .as_ref()
            .map(|p| {
                100.0 * p.resident_segments as f64
                    / (p.resident_segments + p.temporary_segments).max(1) as f64
            })
            .unwrap_or(100.0);
        let t_mgr = time_iterations(&mut mgr, &problem);
        cells.push(human_bytes(dev.memory().used()));
        cells.push(format!("{t_mgr:.3}"));
        cells.push(format!("{resident_pct:.0}"));
        cells.push(format!("{:+.0} %", 100.0 * (t_mgr - t_otf) / t_otf));

        antmoc_bench::row(&cells);
    }
    println!("\npaper shape: EXP fastest until it overflows device memory; OTF always");
    println!("fits but pays regeneration; Manager recovers ~30 % of the OTF penalty.");

    if ablation {
        println!("\n## Ablation: resident-ranking policy (densest scale, fixed budget)\n");
        let problem = problem_for(track_scales().pop().unwrap().1);
        let full: u64 = problem
            .sweep_tracks
            .iter()
            .map(|t| antmoc::solver::manager::stored_bytes_for(t.num_segments))
            .sum();
        let budget = full / 3;
        println!("| policy | resident tracks | resident segments | time / iter s |");
        println!("|---|---|---|---|");
        for (name, policy) in [
            ("by-segments (paper)", RankPolicy::BySegments),
            ("by-length", RankPolicy::ByLength),
            ("random", RankPolicy::Random(42)),
        ] {
            let plan = select_resident(&problem, budget, policy);
            let segsrc = SegmentSource::stored(&problem, &plan.resident);
            let q = vec![0.1f64; problem.num_fsrs() * problem.num_groups()];
            let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
            let mut arena = SweepArena::new(KernelConfig::default());
            let t0 = Instant::now();
            for _ in 0..ITERS {
                let out = transport_sweep_with(
                    &problem,
                    &segsrc,
                    &q,
                    &banks,
                    &SweepSchedule::natural(),
                    &mut arena,
                );
                arena.recycle(out);
            }
            let t = t0.elapsed().as_secs_f64() / ITERS as f64;
            println!("| {name} | {} | {} | {t:.3} |", plan.resident.len(), plan.resident_segments);
        }
        println!("\nby-segments maximises stored segments per byte, minimising regeneration.");
    }

    antmoc_bench::write_telemetry_artifact("fig9_track_strategies");
}
