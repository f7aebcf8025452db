//! The [`Sweeper`] interface the iteration driver sweeps through, and its
//! CPU implementations: the arena-backed parallel [`CpuSweeper`] and the
//! one-thread serial sweepers of the `cpu-serial` backend. The simulated
//! GPU implements the same trait in [`crate::device`].

use crate::problem::Problem;
use crate::schedule::SweepSchedule;
use crate::sweep::TrackBufs;
use crate::sweep::{sweep_serial, transport_sweep_with, FluxBanks, SegmentSource, SweepOutcome};
use crate::tally::{KernelConfig, SweepArena};

/// Anything that can execute a transport sweep for a problem. The
/// reference solver uses the plain rayon sweep, the device solver
/// launches through the simulated GPU, and serial ranks sweep on their
/// own thread.
pub trait Sweeper {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome;

    /// [`Sweeper::sweep`] that calls `swept(t)` the moment track `t` is
    /// final, for sweepers that finish tracks one at a time in a fixed
    /// order; the pipelined exchange ships boundary exits from it. The
    /// default calls nothing, and the exchange ships after the sweep.
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

/// The plain CPU sweeper: arena-backed, so flux accumulators and
/// per-worker scratch persist across iterations, and the tally/exp
/// strategy follows its [`KernelConfig`].
pub struct CpuSweeper<'a> {
    segsrc: &'a SegmentSource,
    schedule: SweepSchedule,
    arena: SweepArena,
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
        Self { segsrc, schedule, arena: SweepArena::new(kernel) }
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
        Self { segsrc, schedule, arena }
    }

    /// Releases the arena for return to a pool once the solve is done.
    pub fn into_arena(self) -> SweepArena {
        self.arena
    }

    /// The arena, e.g. to preload a cached exp table before solving.
    pub fn arena_mut(&mut self) -> &mut SweepArena {
        &mut self.arena
    }
}

impl Sweeper for CpuSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        transport_sweep_with(problem, self.segsrc, q, banks, &self.schedule, &mut self.arena)
    }

    fn recycle(&mut self, outcome: SweepOutcome) {
        self.arena.recycle(outcome);
    }
}

/// A single-threaded sweeper: the whole sweep runs on the calling rank's
/// thread (used for honest measured-scaling studies). A one-field literal
/// with nowhere to keep buffers, so every sweep allocates its scratch and
/// accumulator afresh; iteration loops use [`BufferedSerialSweeper`].
pub struct SerialSweeper<'a> {
    pub segsrc: &'a SegmentSource,
}

impl Sweeper for SerialSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        BufferedSerialSweeper::new(self.segsrc).sweep(problem, q, banks)
    }
}

/// [`SerialSweeper`] for a whole solve: it owns the per-track scratch
/// and takes the flux accumulator back through [`Sweeper::recycle`] (as
/// [`CpuSweeper`] does through its arena), so nothing is re-grown between
/// sweeps. Same sweep, same bits. Tracks go in natural order unless a
/// cluster rank sets its boundary-first order, and each finished track is
/// reported through [`Sweeper::sweep_observed`].
pub struct BufferedSerialSweeper<'a> {
    segsrc: &'a SegmentSource,
    pub(crate) order: SweepSchedule,
    bufs: TrackBufs,
    phi: Vec<f64>,
}

impl<'a> BufferedSerialSweeper<'a> {
    pub fn new(segsrc: &'a SegmentSource) -> Self {
        let order = SweepSchedule::natural();
        Self { segsrc, order, bufs: TrackBufs::default(), phi: Vec::new() }
    }
}

impl Sweeper for BufferedSerialSweeper<'_> {
    fn sweep(&mut self, problem: &Problem, q: &[f64], banks: &FluxBanks) -> SweepOutcome {
        self.sweep_observed(problem, q, banks, &mut |_| {})
    }

    fn sweep_observed(
        &mut self,
        problem: &Problem,
        q: &[f64],
        banks: &FluxBanks,
        swept: &mut dyn FnMut(u32),
    ) -> SweepOutcome {
        let phi = std::mem::take(&mut self.phi);
        sweep_serial(problem, self.segsrc, q, banks, &self.order, &mut self.bufs, phi, swept)
    }

    fn recycle(&mut self, outcome: SweepOutcome) {
        self.phi = outcome.phi_acc;
    }
}
