//! Criterion micro-benchmarks of the transport sweep under the three
//! storage strategies (the kernel-level view of Fig. 9), plus the
//! fused-kernel ablation: OTF regeneration+sweep in one pass vs a split
//! regenerate-then-sweep (the paper fuses ray tracing and source
//! computation to avoid kernel-switch and copy overhead, §4.1).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use antmoc::solver::manager::{select_resident, RankPolicy};
use antmoc::solver::sweep::transport_sweep_with;
use antmoc::solver::{FluxBanks, KernelConfig, Problem, SegmentSource, SweepArena, SweepSchedule};
use antmoc::track::{trace_3d, Track3dId, TrackParams};
use antmoc_bench::problem_for;

fn bench_problem() -> Problem {
    problem_for(TrackParams {
        num_azim: 4,
        radial_spacing: 1.2,
        num_polar: 2,
        axial_spacing: 8.0,
        ..Default::default()
    })
}

/// A natural-order sweep with the default kernel configuration over one
/// arena and bank set, so iterations reuse their buffers as a solve does.
fn sweeper<'a>(problem: &'a Problem, q: &'a [f64]) -> impl FnMut(&SegmentSource) -> u64 + 'a {
    let banks = FluxBanks::new(problem.num_tracks(), problem.num_groups());
    let mut arena = SweepArena::new(KernelConfig::default());
    let schedule = SweepSchedule::natural();
    move |segsrc| {
        let out = transport_sweep_with(problem, segsrc, q, &banks, &schedule, &mut arena);
        let segments = out.segments;
        arena.recycle(out);
        segments
    }
}

fn sweep_modes(c: &mut Criterion) {
    let problem = bench_problem();
    let q = vec![0.1f64; problem.num_fsrs() * problem.num_groups()];

    let mut group = c.benchmark_group("transport_sweep");
    group.sample_size(10);

    let all: Vec<Track3dId> = problem.layout.tracks3d.ids().collect();
    let exp = SegmentSource::stored(&problem, &all);
    group.bench_function("explicit", |b| {
        let mut sweep = sweeper(&problem, &q);
        b.iter(|| sweep(&exp))
    });

    let otf = SegmentSource::otf();
    group.bench_function("otf_fused", |b| {
        let mut sweep = sweeper(&problem, &q);
        b.iter(|| sweep(&otf))
    });

    let full: u64 = problem
        .sweep_tracks
        .iter()
        .map(|t| antmoc::solver::manager::stored_bytes_for(t.num_segments))
        .sum();
    let plan = select_resident(&problem, full / 2, RankPolicy::BySegments);
    let mgr = SegmentSource::stored(&problem, &plan.resident);
    group.bench_function("manager_half", |b| {
        let mut sweep = sweeper(&problem, &q);
        b.iter(|| sweep(&mgr))
    });

    // Split-kernel ablation: per iteration, a generation kernel
    // materialises all 3D segments into a store, then a separate source
    // kernel sweeps the store — the kernel switch + materialisation the
    // paper's fused kernel avoids (§4.1).
    group.bench_function("otf_split_kernels", |b| {
        let mut sweep = sweeper(&problem, &q);
        b.iter_batched(
            || (),
            |_| {
                let src = SegmentSource::stored(&problem, &all);
                sweep(&src)
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

fn otf_kernel(c: &mut Criterion) {
    // The inner OTF walker on a single long track (the paper's Fig. 3(b)
    // loop).
    let problem = bench_problem();
    let l = &problem.layout;
    // Longest track by segment count.
    let (idx, _) =
        problem.sweep_tracks.iter().enumerate().max_by_key(|(_, t)| t.num_segments).unwrap();
    let id = Track3dId(idx as u32);
    let info = l.tracks3d.info(id, &l.tracks2d, &l.chains);
    let base = l.segments2d.of(info.track2d);

    c.bench_function("otf_single_track", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            trace_3d(&info, base, &problem.axial, |_, _, len| acc += len);
            acc
        })
    });
}

fn exp_eval(c: &mut Criterion) {
    // The design-choice ablation for `1 - exp(-tau)` (DESIGN.md): libm's
    // exp_m1, the in-tree evaluator over a slab (what the sweep runs), and
    // the table lookup GPU codes use.
    use antmoc::solver::exp::one_minus_exp_slab;
    use antmoc::solver::exptable::ExpTable;
    let taus: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.003) % 12.0).collect();
    let table = ExpTable::with_tolerance(12.0, 1e-7);
    let mut group = c.benchmark_group("exp_eval");
    group
        .bench_function("exp_m1", |b| b.iter(|| taus.iter().map(|&t| -(-t).exp_m1()).sum::<f64>()));
    let mut slab = taus.clone();
    group.bench_function("in_tree_slab", |b| {
        b.iter(|| {
            slab.copy_from_slice(&taus);
            one_minus_exp_slab(&mut slab);
            slab.iter().sum::<f64>()
        })
    });
    group.bench_function("table_1e-7", |b| {
        b.iter(|| taus.iter().map(|&t| table.eval(t)).sum::<f64>())
    });
    group.finish();
}

criterion_group!(benches, sweep_modes, otf_kernel, exp_eval);
criterion_main!(benches);
