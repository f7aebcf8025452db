//! L3 sweep-schedule figure: per-worker load balance of the CPU transport
//! sweep on the heterogeneous-track geometry (§4.2.3 applied to the CPU
//! pool), comparing
//!
//! * **static chunking** (the old scheduler: contiguous `0..n` chunks, no
//!   stealing) — computed analytically from per-track segment counts;
//! * **work stealing** with the `natural` and `l3_sorted` dispatch
//!   schedules — measured from the scheduler's per-worker busy times over
//!   several repetitions (minimum ratio kept, to damp OS scheduling
//!   noise on shared CI machines).
//!
//! Gates: static chunking must show the imbalance the paper motivates L3
//! with (max/mean > 1.5), and stealing + `l3_sorted` must land at
//! max/mean <= 1.25.
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin fig_l3_schedule
//! ```

use std::process::ExitCode;

use antmoc::balance::l3::sorted_round_robin;
use antmoc::geom::c5g7::{C5g7, C5g7Options};
use antmoc::solver::sweep::transport_sweep_with;
use antmoc::solver::{
    FluxBanks, KernelConfig, Problem, ScheduleKind, SegmentSource, SweepArena, SweepSchedule,
    TallyMode,
};
use antmoc::telemetry::Telemetry;
use antmoc::track::TrackParams;

const WORKERS: usize = 8;
const REPS: usize = 5;
const MAX_STEALING_RATIO: f64 = 1.25;
const MIN_STATIC_RATIO: f64 = 1.5;

/// max/mean of per-worker loads (1.0 = perfectly level).
fn load_ratio(loads: &[f64]) -> f64 {
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    let max = loads.iter().cloned().fold(0.0f64, f64::max);
    if mean > 0.0 {
        (max / mean).max(1.0)
    } else {
        1.0
    }
}

/// Per-worker segment loads under the old scheduler: contiguous chunks of
/// the dispatch order, one per worker, no stealing.
fn static_chunk_ratio(weights: &[u64], order: Option<&[u32]>) -> f64 {
    let n = weights.len();
    let chunk = n.div_ceil(WORKERS);
    let mut loads = vec![0.0f64; WORKERS];
    for i in 0..n {
        let t = order.map_or(i, |o| o[i] as usize);
        loads[(i / chunk).min(WORKERS - 1)] += weights[t] as f64;
    }
    load_ratio(&loads)
}

/// One full sweep under an explicit pool; returns the measured per-worker
/// busy-time load ratio from the scheduler's region stats. Atomic tallies,
/// because those dispatch through the work-stealing scheduler this figure
/// measures (privatized tallies take a static partition).
fn measured_ratio(
    pool: &rayon::ThreadPool,
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    schedule: &SweepSchedule,
) -> f64 {
    let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
    let mut arena =
        SweepArena::new(KernelConfig { tallies: TallyMode::Atomic, ..Default::default() });
    pool.install(|| {
        let _ = transport_sweep_with(problem, segsrc, q, &banks, schedule, &mut arena);
    });
    let report = Telemetry::global().report();
    report.gauges.get("sweep.load_ratio").map(|g| g.last).unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    println!("# L3 sweep schedule: per-worker load ratio (max/mean), {WORKERS} workers\n");
    Telemetry::global().reset();

    // A finer refinement of the §5.4 imbalanced model: 101x101 water cells
    // per reflector assembly makes reflector-crossing tracks carry ~3x the
    // mean segment count, and at num_azim = 4 those heavy tracks cluster
    // within contiguous chunks of the natural dispatch order.
    let m =
        C5g7::build(C5g7Options { reflector_refine: 101, axial_dz: 21.42, ..Default::default() });
    let params = TrackParams {
        num_azim: 4,
        radial_spacing: 1.2,
        num_polar: 2,
        axial_spacing: 12.0,
        ..Default::default()
    };
    let problem = Problem::build(m.geometry.clone(), m.axial.clone(), &m.library, params);
    let weights: Vec<u64> = problem.sweep_tracks.iter().map(|t| t.num_segments as u64).collect();
    println!(
        "geometry: {} tracks, {} segments (refined reflector, coarse core)\n",
        problem.num_tracks(),
        problem.num_3d_segments()
    );

    // Analytic rows: the old static-chunk scheduler on each dispatch order.
    let static_natural = static_chunk_ratio(&weights, None);
    let l3_order = sorted_round_robin(&weights, WORKERS).concat();
    let static_l3 = static_chunk_ratio(&weights, Some(&l3_order));

    // Measured rows: the work-stealing scheduler, min over repetitions.
    let segsrc = SegmentSource::otf();
    let q = vec![0.5f64; problem.num_fsrs() * problem.num_groups()];
    let pool = rayon::ThreadPoolBuilder::new().num_threads(WORKERS).build().unwrap();
    let mut best = [f64::INFINITY; 2];
    for (k, kind) in [ScheduleKind::Natural, ScheduleKind::L3Sorted].into_iter().enumerate() {
        let schedule = SweepSchedule::with_workers(kind, &problem, WORKERS);
        for _ in 0..REPS {
            let r = measured_ratio(&pool, &problem, &segsrc, &q, &schedule);
            if r.is_finite() {
                best[k] = best[k].min(r);
            }
        }
    }
    let [stealing_natural, stealing_l3] = best;

    println!("| scheduler | dispatch order | load ratio |");
    println!("|---|---|---|");
    println!("| static chunks (analytic) | natural | {static_natural:.3} |");
    println!("| static chunks (analytic) | l3_sorted | {static_l3:.3} |");
    println!("| work stealing (measured, min of {REPS}) | natural | {stealing_natural:.3} |");
    println!("| work stealing (measured, min of {REPS}) | l3_sorted | {stealing_l3:.3} |");

    let report = Telemetry::global().report();
    println!(
        "\nscheduler totals: {} steal attempts, {} successful steals",
        report.counter("sweep.steal_attempts"),
        report.counter("sweep.steals"),
    );
    antmoc_bench::write_telemetry_artifact("fig_l3_schedule");

    let mut ok = true;
    if static_natural <= MIN_STATIC_RATIO {
        eprintln!(
            "fig_l3_schedule: FAIL — static chunking ratio {static_natural:.3} <= \
             {MIN_STATIC_RATIO} (geometry no longer exercises the imbalance)"
        );
        ok = false;
    }
    if stealing_l3 > MAX_STEALING_RATIO {
        eprintln!(
            "fig_l3_schedule: FAIL — stealing + l3_sorted ratio {stealing_l3:.3} > \
             {MAX_STEALING_RATIO}"
        );
        ok = false;
    }
    if ok {
        println!(
            "\nfig_l3_schedule: PASS (static natural {static_natural:.3} > {MIN_STATIC_RATIO}, \
             stealing l3_sorted {stealing_l3:.3} <= {MAX_STEALING_RATIO})"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
