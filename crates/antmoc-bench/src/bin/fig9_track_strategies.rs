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
//! (by-segments vs by-length vs random) for the manager, and the paper's
//! fused OTF kernel against a split trace-then-sweep pair (§4.1): the legs
//! alternate over several rounds, and the bin prints each leg's median
//! and how many rounds each side won.
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin fig9_track_strategies [-- --ablation]
//! ```

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

use antmoc::gpusim::{Device, DeviceSpec};
use antmoc::perfmodel::{advise, Advice, MemoryModel};
use antmoc::solver::device::{CuMapping, DeviceSolver};
use antmoc::solver::manager::RankPolicy;
use antmoc::solver::sweep::transport_sweep_with;
use antmoc::solver::{
    EigenOptions, FluxBanks, KernelConfig, Problem, SegmentSource, StorageMode, SweepArena,
    SweepSchedule, Sweeper,
};
use antmoc::track::Track3dId;
use antmoc_bench::{human_bytes, problem_for, track_scales};

const ITERS: usize = 10;
/// Rounds of the `--ablation` legs.
const ROUNDS: usize = 5;

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

/// Mean seconds per natural-order CPU sweep (default kernel) over
/// `ITERS` sweeps, each drawing its segments from `segments()` — built
/// inside the timed loop, so a source made per sweep is paid per sweep.
fn time_cpu_sweeps<S: Borrow<SegmentSource>>(
    problem: &Problem,
    mut segments: impl FnMut() -> S,
) -> f64 {
    let q = vec![0.1f64; problem.num_fsrs() * problem.num_groups()];
    let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
    let mut arena = SweepArena::new(KernelConfig::default());
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let segsrc = segments();
        let out = transport_sweep_with(
            problem,
            segsrc.borrow(),
            &q,
            &banks,
            &SweepSchedule::natural(),
            &mut arena,
        );
        arena.recycle(out);
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
        let policies = [
            ("by-segments (paper)", RankPolicy::BySegments),
            ("by-length", RankPolicy::ByLength),
            ("random", RankPolicy::Random(42)),
        ];
        let managed: Vec<_> =
            policies.iter().map(|&(_, p)| SegmentSource::managed(&problem, budget, p)).collect();
        // The paper fuses ray tracing into the sweep kernel to avoid the
        // kernel switch and the copy (§4.1). The split alternative: a
        // generation pass materialises every 3D segment into a store, then
        // the sweep reads the store — every sweep, as OTF regenerates.
        let all: Vec<Track3dId> = problem.layout.tracks3d.ids().collect();
        let otf = SegmentSource::otf();
        // Legs 0-2 are the policies, then fused OTF, then split OTF. One
        // timing each drifts with the host, so every round times every leg
        // and the next round starts one leg later.
        let (fused, split) = (policies.len(), policies.len() + 1);
        let leg = |i: usize| match i {
            i if i < fused => time_cpu_sweeps(&problem, || &managed[i].0),
            i if i == fused => time_cpu_sweeps(&problem, || &otf),
            _ => time_cpu_sweeps(&problem, || SegmentSource::stored(&problem, &all)),
        };
        let legs = split + 1;
        let mut times = vec![Vec::with_capacity(ROUNDS); legs];
        for round in 0..ROUNDS {
            for k in 0..legs {
                let i = (round + k) % legs;
                times[i].push(leg(i));
            }
        }
        let median = |i: usize| {
            let mut t = times[i].clone();
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let wins = |a: usize, b: usize| (0..ROUNDS).filter(|&r| times[a][r] < times[b][r]).count();

        println!("| policy | resident tracks | resident segments | median time / iter s |");
        println!("|---|---|---|---|");
        for (i, ((name, _), (_, plan))) in policies.iter().zip(&managed).enumerate() {
            let (tracks, segments) = (plan.resident.len(), plan.resident_segments);
            println!("| {name} | {tracks} | {segments} | {:.3} |", median(i));
        }
        let (t_fused, t_split) = (median(fused), median(split));
        println!(
            "| split OTF: trace all, then sweep | 0 | 0 | {t_split:.3} ({:.2}x fused OTF's {t_fused:.3}) |",
            t_split / t_fused
        );

        println!("\nmedians of {ROUNDS} rounds, each starting one leg later than the last:");
        let mut order: Vec<usize> = (0..policies.len()).collect();
        order.sort_by(|&a, &b| median(a).total_cmp(&median(b)));
        let ranked: Vec<String> =
            order.iter().map(|&i| format!("{} {:.3} s", policies[i].0, median(i))).collect();
        println!("policies by median time: {}", ranked.join(" < "));
        for (i, (name, _)) in policies.iter().enumerate().skip(1) {
            println!("by-segments beat {name} in {} of {ROUNDS} rounds", wins(0, i));
        }
        println!("split OTF beat fused OTF in {} of {ROUNDS} rounds", wins(split, fused));
    }

    antmoc_bench::write_telemetry_artifact("fig9_track_strategies");
}
