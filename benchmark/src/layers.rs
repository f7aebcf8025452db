//! Per-layer probes: each calls one public function (or one short solve)
//! of a layer in a loop on this run's laydown and reports its cost. The
//! probes are the same for every workload, so every per-layer metric is
//! measured in every traced run; what differs per workload is the traced
//! pass in `main.rs`.
//!
//! Solves here run a fixed iteration count (a tolerance out of reach),
//! so their costs are reported per iteration or per segment and compare
//! across runs whatever the converged count is.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use antmoc::cluster::Cluster;
use antmoc::geom::c5g7::C5g7;
use antmoc::gpusim::{Device, DeviceSpec};
use antmoc::input::CaseSpec;
use antmoc::perfmodel::tracks::predict_sweep_seconds;
use antmoc::perfmodel::{sweep_bytes_per_segment, SegmentModel};
use antmoc::solver::cluster::{solve_cluster_with, Backend, ExchangeMode, SerialSweeper};
use antmoc::solver::decomp::{DecompSpec, Decomposition};
use antmoc::solver::device::DeviceSolver;
use antmoc::solver::exptable::DEFAULT_TAU_MAX;
use antmoc::solver::manager::{select_resident, RankPolicy};
use antmoc::solver::source::{compute_reduced_source, update_scalar_flux};
use antmoc::solver::sweep::transport_sweep_with;
use antmoc::solver::{
    fission_production, fission_rates, solve_eigenvalue, CpuSweeper, EigenOptions, ExpEval,
    ExpMode, ExpTable, FluxBanks, KernelConfig, Problem, ScheduleKind, SegmentSource, StorageMode,
    SweepArena, SweepKernel, SweepOutcome, SweepSchedule, Sweeper, TallyMode,
};
use antmoc::telemetry::Telemetry;
use antmoc::track::{
    count_segments_per_track, estimate_volumes, trace_3d, Track3dId, TrackLayout, TrackParams,
};
use antmoc::{build_setup, run_artifact, run_with_setup_arena, PinRates, RunConfig};

use crate::inputs::Inputs;
use crate::metrics::Metrics;
use crate::serve;
use crate::spans::Recorder;
use crate::stats::{median, tail_percentile};
use crate::workloads::{
    cluster_options, narrow_manager_budget, parse_single, MANAGER_RESIDENT_SHARE,
};

/// Iterations of the sweep/driver split solve: 100 sweep samples are the
/// fewest that support a p90 (ten samples beyond it).
const SPLIT_ITERATIONS: usize = 100;
/// Iterations of the device and cluster probe solves.
const PROBE_ITERATIONS: usize = 30;

fn pool(workers: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(workers).build().expect("the shim pool cannot fail")
}

/// Median seconds of `reps` calls of `f`.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn fixed_iterations(n: usize) -> EigenOptions {
    EigenOptions { tolerance: 1e-30, max_iterations: n, ..Default::default() }
}

/// A `Sweeper` decorator that times every sweep from outside.
struct TimedSweeper<'a> {
    inner: &'a mut dyn Sweeper,
    samples_s: Vec<f64>,
}

impl Sweeper for TimedSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        let t = Instant::now();
        let out = self.inner.sweep(problem, q, banks);
        self.samples_s.push(t.elapsed().as_secs_f64());
        out
    }

    fn recycle(&mut self, outcome: SweepOutcome) {
        self.inner.recycle(outcome);
    }
}

/// Median ns per segment of `reps` sweeps through `sweep`, which returns
/// the segments it visited (one warm-up sweep first, so arenas and
/// scratch are sized).
fn sweep_leg(reps: usize, mut sweep: impl FnMut() -> u64) -> f64 {
    let segments = sweep();
    let per_sweep = time_median(reps, || {
        assert_eq!(sweep(), segments, "segments per sweep are an exact count");
    });
    per_sweep * 1e9 / segments as f64
}

/// One CPU kernel leg: `transport_sweep_with` on a fixed source, the
/// outcome handed back to the arena as the iteration drivers do.
fn cpu_leg(
    reps: usize,
    workers: usize,
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    kernel: KernelConfig,
) -> f64 {
    pool(workers).install(|| {
        let schedule = SweepSchedule::with_workers(ScheduleKind::Natural, problem, workers);
        let mut arena = SweepArena::new(kernel);
        let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
        sweep_leg(reps, || {
            let out = transport_sweep_with(problem, segsrc, q, &banks, &schedule, &mut arena);
            let segments = out.segments;
            arena.recycle(out);
            segments
        })
    })
}

fn kernel(tallies: TallyMode, exp: ExpMode, kernel: SweepKernel) -> KernelConfig {
    KernelConfig { tallies, exp, kernel, ..Default::default() }
}

/// Runs every probe and records every per-layer metric except the
/// `harness.*` / `pass.*` ones, which come from the workload's own
/// traced pass. `scale` stretches the repetition counts with the run
/// length (1.0 at the declared `run_seconds`).
pub fn measure(inputs: &Inputs, scale: f64, out_dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let reps = |base: usize| ((base as f64 * scale).round() as usize).max(3);
    let sink = Telemetry::new();
    let _scope = sink.install();

    // input
    m.set("input.bytes", inputs.otf.len() as f64);
    m.set("input.parse_us", time_median(reps(9), || parse_single(&inputs.otf)) * 1e6);
    let spec = CaseSpec::parse(&inputs.otf).map_err(|e| e.message)?;
    m.set("input.lower_us", time_median(reps(9), || antmoc::input::lower(&spec)) * 1e6);
    m.set(
        "input.ini_parse_us",
        time_median(reps(9), || RunConfig::parse(&inputs.decomp_sync)) * 1e6,
    );
    let (_, otf_config) = parse_single(&inputs.otf)?;
    let ini_config = RunConfig::parse(&inputs.decomp_sync).map_err(|e| e.to_string())?;

    // geom
    let opts = ini_config.model.c5g7().clone();
    m.set("geom.build_us", time_median(reps(5), || C5g7::build(opts.clone())) * 1e6);
    let model = C5g7::build(opts);

    // track / problem
    let params: TrackParams = otf_config.tracks.clone();
    m.set(
        "track.laydown_us",
        time_median(reps(5), || {
            TrackLayout::generate(&model.geometry, &model.axial, params.clone())
        }) * 1e6,
    );
    m.set(
        "problem.build_us",
        time_median(reps(5), || {
            Problem::build(
                model.geometry.clone(),
                model.axial.clone(),
                &model.library,
                params.clone(),
            )
        }) * 1e6,
    );
    let problem =
        Problem::build(model.geometry.clone(), model.axial.clone(), &model.library, params.clone());
    let l = &problem.layout;
    m.set("geom.fsrs", problem.num_fsrs() as f64);
    m.set("track.tracks_2d", l.num_2d_tracks() as f64);
    m.set("track.segments_2d", l.num_2d_segments() as f64);
    m.set("track.tracks_3d", l.num_3d_tracks() as f64);
    let segments_per_sweep = problem.num_3d_segments() * 2;
    m.set("track.segments_per_sweep", segments_per_sweep as f64);
    m.set(
        "track.count_segments_us",
        time_median(reps(5), || {
            count_segments_per_track(
                &l.tracks3d,
                &l.tracks2d,
                &l.chains,
                &l.segments2d,
                &problem.axial,
            )
        }) * 1e6,
    );
    m.set(
        "track.volumes_us",
        time_median(reps(5), || {
            estimate_volumes(
                &l.tracks3d,
                &l.tracks2d,
                &l.chains,
                &l.segments2d,
                &problem.axial,
                &l.fsr3d,
            )
        }) * 1e6,
    );
    let all: Vec<Track3dId> = l.tracks3d.ids().collect();
    m.set(
        "track.store_trace_us",
        time_median(reps(5), || SegmentSource::stored(&problem, &all)) * 1e6,
    );
    let stored = SegmentSource::stored(&problem, &all);
    m.set("track.store_bytes", stored.stored_bytes() as f64);
    let otf = SegmentSource::otf();
    let trace_s = time_median(reps(5), || {
        let mut length = 0.0f64;
        for &id in &all {
            let info = l.tracks3d.info(id, &l.tracks2d, &l.chains);
            trace_3d(&info, l.segments2d.of(info.track2d), &problem.axial, |_, _, len| {
                length += len
            });
        }
        length
    });
    m.set("track.otf_trace_ns_per_segment", trace_s * 1e9 / problem.num_3d_segments() as f64);

    // exp
    let taus: Vec<f64> = (0..4096).map(|i| 8.0 * i as f64 / 4096.0).collect();
    let exp_ns = |eval: ExpEval| {
        const LOOPS: usize = 50;
        let s = time_median(reps(9), || {
            let mut acc = 0.0f64;
            for _ in 0..LOOPS {
                for &tau in black_box(&taus) {
                    acc += eval.one_minus_exp(tau);
                }
            }
            acc
        });
        s * 1e9 / (LOOPS * taus.len()) as f64
    };
    let tol = KernelConfig::default().exp_tolerance;
    m.set(
        "exp.table_build_us",
        time_median(reps(5), || ExpTable::with_tolerance(DEFAULT_TAU_MAX, tol)) * 1e6,
    );
    let table = ExpTable::with_tolerance(DEFAULT_TAU_MAX, tol);
    m.set("exp.table_bytes", table.bytes() as f64);
    m.set("exp.intrinsic_ns_per_eval", exp_ns(ExpEval::Intrinsic));
    m.set("exp.table_ns_per_eval", exp_ns(ExpEval::Table(&table)));

    // source
    let nf = problem.num_fsrs() * problem.num_groups();
    let phi0 = vec![1.0f64; nf];
    let mut q = vec![0.0f64; nf];
    let mut phi1 = vec![0.0f64; nf];
    let zeros = vec![0.0f64; nf];
    let source_s = time_median(reps(20), || {
        compute_reduced_source(&problem, &phi0, 1.0, &mut q);
        update_scalar_flux(&problem, &q, &zeros, &mut phi1);
        fission_production(&problem, &phi1).1
    });
    m.set("source.update_ns_per_slot", source_s * 1e9 / nf as f64);

    // sweep kernel legs, one worker, privatized tallies, fixed source
    let q = vec![0.5f64; nf];
    let r = reps(7);
    for (name, exp, k, segsrc) in [
        (
            "sweep.scalar_intrinsic_otf.ns_per_segment",
            ExpMode::Intrinsic,
            SweepKernel::Scalar,
            &otf,
        ),
        (
            "sweep.scalar_intrinsic_explicit.ns_per_segment",
            ExpMode::Intrinsic,
            SweepKernel::Scalar,
            &stored,
        ),
        ("sweep.scalar_table_otf.ns_per_segment", ExpMode::Table, SweepKernel::Scalar, &otf),
        (
            "sweep.scalar_table_explicit.ns_per_segment",
            ExpMode::Table,
            SweepKernel::Scalar,
            &stored,
        ),
        (
            "sweep.vector_intrinsic_otf.ns_per_segment",
            ExpMode::Intrinsic,
            SweepKernel::Vector,
            &otf,
        ),
        (
            "sweep.vector_intrinsic_explicit.ns_per_segment",
            ExpMode::Intrinsic,
            SweepKernel::Vector,
            &stored,
        ),
        ("sweep.vector_table_otf.ns_per_segment", ExpMode::Table, SweepKernel::Vector, &otf),
        (
            "sweep.vector_table_explicit.ns_per_segment",
            ExpMode::Table,
            SweepKernel::Vector,
            &stored,
        ),
    ] {
        m.set(name, cpu_leg(r, 1, &problem, segsrc, &q, kernel(TallyMode::Privatized, exp, k)));
    }
    m.set(
        "sweep.atomic_scalar_intrinsic_otf.ns_per_segment",
        cpu_leg(
            r,
            1,
            &problem,
            &otf,
            &q,
            kernel(TallyMode::Atomic, ExpMode::Intrinsic, SweepKernel::Scalar),
        ),
    );
    let vector = kernel(TallyMode::Privatized, ExpMode::Intrinsic, SweepKernel::Vector);
    let w1 = m.0["sweep.vector_intrinsic_otf.ns_per_segment"];
    let w2 = cpu_leg(r, 2, &problem, &otf, &q, vector);
    m.set("sweep.vector_intrinsic_otf.w2.ns_per_segment", w2);
    m.set("sweep.w2_efficiency", w1 / (2.0 * w2));
    m.set("sweep.bytes_per_segment_computed", sweep_bytes_per_segment(problem.num_groups(), false));
    {
        let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
        let mut serial = SerialSweeper { segsrc: &otf };
        m.set(
            "sweep.legacy_serial_otf.ns_per_segment",
            sweep_leg(r, || serial.sweep(&problem, &q, &banks).segments),
        );
    }

    // telemetry on the hot path: the shipped-default leg with event
    // tracing off and on, interleaved so drift hits both alike
    {
        let traced = Telemetry::new();
        traced.set_tracing(true, antmoc::telemetry::DEFAULT_TRACE_CAPACITY);
        let plain = Telemetry::new();
        let cfg = kernel(TallyMode::Privatized, ExpMode::Intrinsic, SweepKernel::Scalar);
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..reps(3) {
            for (tel, samples) in [(&plain, &mut off), (&traced, &mut on)] {
                let _scope = tel.install();
                samples.push(cpu_leg(3, 1, &problem, &otf, &q, cfg.clone()));
            }
        }
        m.set("sweep.trace_on.ns_per_segment", median(&on));
        m.set("telemetry.trace_overhead_ratio", median(&on) / median(&off));
    }

    // sweep / driver split of a solve, through the public Sweeper trait
    let split_sweep_p50_s;
    {
        let mut cpu =
            CpuSweeper::with_kernel(&otf, SweepSchedule::natural(), otf_config.kernel.clone());
        let mut timed = TimedSweeper { inner: &mut cpu, samples_s: Vec::new() };
        let t = Instant::now();
        let result = pool(1).install(|| {
            solve_eigenvalue(&problem, &mut timed, &fixed_iterations(SPLIT_ITERATIONS))
        });
        let solve_s = t.elapsed().as_secs_f64();
        let total_s: f64 = timed.samples_s.iter().sum();
        split_sweep_p50_s = median(&timed.samples_s);
        m.set("sweep.count", timed.samples_s.len() as f64);
        m.set("sweep.p50_ms", split_sweep_p50_s * 1e3);
        let p90 = tail_percentile(&timed.samples_s, 90)
            .ok_or("the sweep/driver split took too few sweep samples for a p90")?;
        m.set("sweep.p90_ms", p90 * 1e3);
        m.set("sweep.total_s", total_s);
        m.set("sweep.share", total_s / solve_s);
        m.set("driver.self_s", solve_s - total_s);
        m.set("driver.self_us_per_iter", (solve_s - total_s) * 1e6 / result.iterations as f64);
    }

    // tally / manager
    let tallies = SweepArena::new(KernelConfig::default()).resolve(
        1,
        problem.num_fsrs(),
        problem.num_groups(),
    );
    m.set("tally.bytes", tallies.bytes(nf) as f64);
    let (_, mut device_config) = parse_single(&inputs.device_manager)?;
    narrow_manager_budget(&mut device_config, &problem);
    let StorageMode::Manager { budget_bytes } = device_config.mode else {
        return Err("the device workload must run in manager mode".into());
    };
    m.set(
        "manager.select_us",
        time_median(reps(9), || select_resident(&problem, budget_bytes, RankPolicy::BySegments))
            * 1e6,
    );
    let plan = select_resident(&problem, budget_bytes, RankPolicy::BySegments);
    let resident =
        plan.resident_segments as f64 / (plan.resident_segments + plan.temporary_segments) as f64;
    if (resident - MANAGER_RESIDENT_SHARE).abs() > 0.1 {
        return Err(format!("track manager keeps {resident:.2} of the segments resident"));
    }
    m.set("manager.resident_fraction", resident);
    m.set("manager.resident_bytes", plan.resident_bytes as f64);

    // device
    {
        let antmoc::BackendConfig::Device { memory_bytes, cu_mapping } = device_config.backend
        else {
            return Err("the device workload must run on the device backend".into());
        };
        let new_solver = |device: Arc<Device>| -> Result<DeviceSolver, String> {
            DeviceSolver::new(device, &problem, device_config.mode, cu_mapping)
                .map_err(|e| format!("device solver: {e:?}"))
        };
        let mut new_s = Vec::new();
        for _ in 0..reps(3) {
            let device = Arc::new(Device::new(DeviceSpec::scaled(memory_bytes)));
            let t = Instant::now();
            black_box(new_solver(device)?);
            new_s.push(t.elapsed().as_secs_f64());
        }
        m.set("device.solver_new_us", median(&new_s) * 1e6);

        let device = Arc::new(Device::new(DeviceSpec::scaled(memory_bytes)));
        let mut solver = new_solver(device.clone())?;
        let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
        m.set(
            "sweep.device_manager.ns_per_segment",
            sweep_leg(r, || solver.sweep(&problem, &q, &banks).segments),
        );
        let before = device.metrics();
        let result = solve_eigenvalue(&problem, &mut solver, &fixed_iterations(PROBE_ITERATIONS));
        let after = device.metrics();
        let launches = |dm: &antmoc::gpusim::DeviceMetrics| -> u64 {
            dm.kernels().iter().map(|(_, k)| k.launches).sum()
        };
        m.set(
            "device.launches",
            (launches(&after) - launches(&before)) as f64 / result.iterations as f64,
        );
        m.set(
            "device.kernel_s",
            (after.total_kernel_seconds() - before.total_kernel_seconds())
                / result.iterations as f64,
        );
        m.set("device.cu_load_uniformity", after.cu_load_uniformity().ok_or("device did no work")?);
        m.set("device.pool_peak_bytes", device.memory().peak() as f64);
    }

    // decomp / exchange / cluster
    {
        let (nx, ny, nz) = ini_config.decomposition;
        let build = || {
            Decomposition::build(
                &model.geometry,
                &model.axial,
                &model.library,
                ini_config.tracks.clone(),
                DecompSpec { nx, ny, nz },
            )
        };
        m.set("decomp.build_us", time_median(reps(3), build) * 1e6);
        let decomp = build();
        m.set(
            "decomp.exchange_items",
            decomp.exchanges.iter().map(|e| e.sends.len()).sum::<usize>() as f64,
        );
        for (mode, exchange) in
            [("sync", ExchangeMode::Sync), ("pipelined", ExchangeMode::Pipelined)]
        {
            let mut copts = cluster_options(&ini_config);
            copts.exchange = exchange;
            let t = Instant::now();
            let result = solve_cluster_with(
                &decomp,
                &Backend::CpuSerial,
                &fixed_iterations(PROBE_ITERATIONS),
                &copts,
            );
            let wall_s = t.elapsed().as_secs_f64();
            let n = result.iterations as f64;
            let sweep_max = result.sweep_seconds.iter().cloned().fold(0.0, f64::max);
            let sweep_mean =
                result.sweep_seconds.iter().sum::<f64>() / result.sweep_seconds.len() as f64;
            let bytes: u64 = result.traffic.iter().map(|t| t.sent_bytes).sum();
            let messages: u64 = result.traffic.iter().map(|t| t.sent_messages).sum();
            let mut set =
                |suffix: &str, value: f64| m.set(&format!("cluster.{mode}.{suffix}"), value);
            set("bytes_per_iter", bytes as f64 / n);
            set("messages_per_iter", messages as f64 / n);
            set("rank_sweep_ms_per_iter_max", sweep_max * 1e3 / n);
            set("rank_sweep_ms_per_iter_mean", sweep_mean * 1e3 / n);
            set("sweep_imbalance", sweep_max / sweep_mean);
            set("nonsweep_ms_per_iter", (wall_s - sweep_max) * 1e3 / n);
        }

        // comm: ping-pong and allreduce over the workloads' link
        const ROUNDS: usize = 20;
        const LARGE: usize = 16 * 1024; // f32 elements
        let pingpong = |len: usize| -> f64 {
            let out = Cluster::run_linked(2, ini_config.link, |mut comm| {
                let peer = 1 - comm.rank();
                let t = Instant::now();
                for _ in 0..ROUNDS {
                    if comm.rank() == 0 {
                        comm.send_vec(peer, 7, vec![0f32; len]);
                        black_box(comm.recv_vec::<f32>(peer, 7));
                    } else {
                        let v = comm.recv_vec::<f32>(peer, 7);
                        comm.send_vec(peer, 7, v);
                    }
                }
                t.elapsed().as_secs_f64()
            });
            // One-way seconds per message.
            out.results[0] / (2 * ROUNDS) as f64
        };
        let small_s = pingpong(1);
        let large_s = pingpong(LARGE);
        m.set("comm.p2p_latency_us", small_s * 1e6);
        m.set("comm.p2p_ns_per_byte", (large_s - small_s) * 1e9 / ((LARGE - 1) * 4) as f64);
        let allreduce = Cluster::run_linked(2, ini_config.link, |mut comm| {
            const LOOPS: usize = 200;
            let t = Instant::now();
            let mut x = comm.rank() as f64;
            for _ in 0..LOOPS {
                x = comm.allreduce_sum(x) * 0.5;
            }
            black_box(x);
            t.elapsed().as_secs_f64() / LOOPS as f64
        });
        m.set("comm.allreduce_us", allreduce.results[0] * 1e6);
    }

    // output / report, on a short staged solve
    {
        let mut config = otf_config.clone();
        config.eigen.max_iterations = PROBE_ITERATIONS;
        let setup = build_setup(&config);
        let (report, _) =
            run_with_setup_arena(&config, &setup, SweepArena::new(config.kernel.clone()));
        let phi = vec![1.0f64; nf];
        m.set(
            "output.rates_us",
            time_median(reps(9), || {
                let rates = fission_rates(&setup.problem, &phi);
                PinRates::aggregate_with(
                    |radial| setup.model.pin_of_fsr(radial),
                    std::iter::once((&setup.problem, rates.as_slice())),
                )
            }) * 1e6,
        );
        m.set(
            "report.build_us",
            time_median(reps(9), || run_artifact(&report).to_json_string()) * 1e6,
        );
        let json = run_artifact(&report).to_json_string();
        let path = out_dir.join("probe_report.json");
        let write_s = time_median(reps(9), || std::fs::write(&path, &json));
        std::fs::write(&path, &json)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        m.set("report.write_us", write_s * 1e6);
        m.set("report.bytes", json.len() as f64);
    }

    // serve: one campaign (four cold jobs, four warm)
    {
        let cases = serve::parse_cases()?;
        let campaign = serve::run_campaign(
            inputs,
            &cases,
            &Recorder::disabled(),
            &out_dir.join("probe_campaign.json"),
        )?;
        let jobs = &campaign.jobs;
        let of = |f: &dyn Fn(&serve::JobRecord) -> f64, hit: Option<bool>| -> Vec<f64> {
            jobs.iter().filter(|j| hit.is_none_or(|h| j.stats.cache_hit == h)).map(f).collect()
        };
        m.set("serve.submit_us_p50", median(&of(&|j| j.submit_s, None)) * 1e6);
        m.set("serve.queue_wait_ms_p50", median(&of(&|j| j.stats.queue_wait_s, None)) * 1e3);
        m.set(
            "serve.cold_setup_ms",
            of(&|j| j.stats.setup_s, Some(false)).iter().sum::<f64>() * 1e3,
        );
        m.set("serve.warm_setup_us_p50", median(&of(&|j| j.stats.setup_s, Some(true))) * 1e6);
        m.set(
            "serve.warm_tax_ms_p50",
            median(&of(&|j| j.latency_s - j.stats.queue_wait_s - j.stats.solve_s, Some(true)))
                * 1e3,
        );
        m.set("serve.cache_hits", jobs.iter().filter(|j| j.stats.cache_hit).count() as f64);
        m.set("serve.cache_misses", jobs.iter().filter(|j| !j.stats.cache_hit).count() as f64);
        m.set("serve.peak_inflight_bytes", campaign.peak_inflight_bytes as f64);
        m.set("serve.snapshot_us", campaign.snapshot_s * 1e6);
    }

    // model: the paper's Fig. 8 segment model and Eq. 6 sweep model
    {
        let sample = TrackParams {
            num_azim: 4,
            radial_spacing: params.radial_spacing * 2.0,
            ..params.clone()
        };
        let segmodel = SegmentModel::calibrate(&model.geometry, &sample);
        let planes = problem.axial.planes();
        let mean_dz = (planes[planes.len() - 1] - planes[0]) / (planes.len() - 1) as f64;
        let (mut proj_len, mut crossings) = (0.0f64, 0.0f64);
        for &id in &all {
            let info = l.tracks3d.info(id, &l.tracks2d, &l.chains);
            let du = info.u_hi - info.u_lo;
            proj_len += du;
            crossings += du * info.cot / mean_dz;
        }
        let predicted = segmodel.predict_3d(proj_len, crossings);
        let measured = problem.num_3d_segments() as f64;
        m.set("model.seg3d_rel_err", (predicted - measured).abs() / measured);
        let leg_s_per_segment = m.0["sweep.scalar_intrinsic_otf.ns_per_segment"] * 1e-9;
        let predicted_s = predict_sweep_seconds(segments_per_sweep, leg_s_per_segment);
        m.set("model.sweep_s_rel_err", (predicted_s - split_sweep_p50_s).abs() / split_sweep_p50_s);
    }
    Ok(())
}
