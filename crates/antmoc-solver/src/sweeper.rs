//! The [`Sweeper`] interface the iteration driver sweeps through, and its
//! CPU implementation, the arena-backed [`CpuSweeper`] — on the calling
//! thread's pool, or pinned to one worker for the `cpu-serial` backend.
//! The simulated GPU implements the same trait in [`crate::device`]; both
//! run the one dispatch, [`crate::sweep::sweep_region`], over a
//! [`SweepSchedule`]'s bins.

use crate::problem::Problem;
use crate::schedule::SweepSchedule;
use crate::sweep::{sweep_region, FluxBanks, SegmentSource, SweepOutcome};
use crate::tally::{KernelConfig, SweepArena};

/// Anything that can execute a transport sweep for a problem. The CPU
/// sweeper deals one bin per worker, the device solver one bin per
/// simulated CU, and serial ranks sweep on their own thread.
pub trait Sweeper {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome;

    /// [`Sweeper::sweep`] that calls `swept(t)` the moment track `t` is
    /// final, for sweepers that finish tracks one at a time; the pipelined
    /// exchange ships boundary exits from it. The default calls nothing,
    /// and the exchange ships after the sweep.
    fn sweep_observed(
        &mut self,
        problem: &Problem,
        q: &[f64],
        banks: &FluxBanks,
        _swept: &mut dyn FnMut(u32),
    ) -> SweepOutcome {
        self.sweep(problem, q, banks)
    }

    /// Hands a consumed outcome back so the sweeper can reuse its
    /// allocations; sweepers without an arena ignore it.
    fn recycle(&mut self, _outcome: SweepOutcome) {}
}

/// The CPU sweeper: arena-backed, so flux accumulators and per-worker
/// scratch persist across iterations, and the tally/exp strategy follows
/// its [`KernelConfig`]. Tracks go to the workers of the calling thread's
/// pool, or of a one-worker pool for the `cpu-serial` backend
/// ([`CpuSweeper::serial`]).
pub struct CpuSweeper<'a> {
    segsrc: &'a SegmentSource,
    schedule: SweepSchedule,
    arena: SweepArena,
    /// The pool every sweep runs on; `None` is the calling thread's.
    pool: Option<rayon::ThreadPool>,
}

impl<'a> CpuSweeper<'a> {
    /// A sweeper dispatching tracks in natural order with the default
    /// kernel configuration (auto tallies, intrinsic exp).
    pub fn new(segsrc: &'a SegmentSource) -> Self {
        Self::with_kernel(segsrc, SweepSchedule::natural(), KernelConfig::default())
    }

    /// Full control: dispatch order plus tally/exp kernel configuration.
    pub fn with_kernel(
        segsrc: &'a SegmentSource,
        schedule: SweepSchedule,
        kernel: KernelConfig,
    ) -> Self {
        Self { segsrc, schedule, arena: SweepArena::new(kernel), pool: None }
    }

    /// A sweeper running on a pooled arena (cross-job buffer reuse). The
    /// arena is [`SweepArena::reconfigure`]d to `kernel` first, so a pool
    /// may hand over an arena that last served a different problem shape
    /// or kernel configuration; `prepare` re-sizes and re-zeroes per
    /// sweep.
    pub fn with_arena(
        segsrc: &'a SegmentSource,
        schedule: SweepSchedule,
        kernel: KernelConfig,
        mut arena: SweepArena,
    ) -> Self {
        arena.reconfigure(kernel);
        Self { segsrc, schedule, arena, pool: None }
    }

    /// Pins every sweep to one worker, whatever the calling thread's pool:
    /// the `cpu-serial` backend. The calling thread then sweeps the whole
    /// schedule in order and [`Sweeper::sweep_observed`] reports each
    /// track as it finishes.
    pub fn serial(mut self) -> Self {
        self.pool = Some(
            rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("the pool shim cannot fail to build"),
        );
        self
    }

    /// Releases the arena for return to a pool once the solve is done.
    pub fn into_arena(self) -> SweepArena {
        self.arena
    }

    fn run(
        &mut self,
        problem: &Problem,
        q: &[f64],
        banks: &FluxBanks,
        swept: Option<&mut dyn FnMut(u32)>,
    ) -> SweepOutcome {
        let (segsrc, schedule, arena) = (self.segsrc, &self.schedule, &mut self.arena);
        let sweep = || sweep_region(problem, segsrc, q, banks, schedule, arena, swept).0;
        match &self.pool {
            Some(pool) => pool.install(sweep),
            None => sweep(),
        }
    }
}

impl Sweeper for CpuSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        self.run(problem, q, banks, None)
    }

    /// Reports each finished track when the sweep runs on one worker; a
    /// multi-worker sweep finishes tracks out of order and reports none.
    fn sweep_observed(
        &mut self,
        problem: &Problem,
        q: &[f64],
        banks: &FluxBanks,
        swept: &mut dyn FnMut(u32),
    ) -> SweepOutcome {
        self.run(problem, q, banks, Some(swept))
    }

    fn recycle(&mut self, outcome: SweepOutcome) {
        self.arena.recycle(outcome);
    }
}

/// The `cpu-serial` sweeper as a one-field literal: a one-worker
/// [`CpuSweeper`] built afresh for every sweep, so nothing is reused
/// between sweeps. Iteration loops use [`CpuSweeper::serial`] instead.
pub struct SerialSweeper<'a> {
    pub segsrc: &'a SegmentSource,
}

impl Sweeper for SerialSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        CpuSweeper::new(self.segsrc).serial().sweep(problem, q, banks)
    }
}
