//! Tally accumulation strategies and the reusable sweep arena.
//!
//! The paper's sweep (Algorithm 1, §4.2) tallies `w * delta psi` into
//! flat-source regions with device `atomicAdd`; the CPU reproduction's
//! CAS-loop equivalent is the hottest instruction of the whole repo.
//! This module provides the alternative: **privatized** tallies, where
//! each pool worker owns a dense `f64` copy of the flux array, the
//! segment loop does plain stores, and the copies are reduced **in fixed
//! worker order** after the region — no atomics in the hot path and a
//! deterministic summation order (run-to-run bitwise reproducible for a
//! fixed worker count and schedule).
//!
//! The cost is memory: `workers * fsrs * groups * 8` bytes. Strategy
//! selection mirrors the paper's §4.1 memory-vs-speed interpolation —
//! [`antmoc_perfmodel::advise_tallies`] picks privatized buffers whenever
//! they fit the configured budget and falls back to the shared atomic
//! array otherwise; `[solver] tallies = atomic | privatized | auto`
//! overrides it.
//!
//! [`SweepArena`] owns every allocation the sweep would otherwise make
//! per call (flux accumulator, per-worker tally buffers, track scratch,
//! the optional exp table) so the CPU and device sweepers reuse them
//! across iterations.

use std::sync::atomic::{AtomicU64, Ordering};

use antmoc_perfmodel::{CacheModel, TallyAdvice};

use crate::exptable::{ExpEval, ExpTable, DEFAULT_TAU_MAX};
use crate::sweep::{SweepOutcome, TrackBufs};

/// How `w * delta psi` contributions are accumulated into FSR flux slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TallyMode {
    /// CAS-loop atomic `f64` adds into one shared array (what `Auto`
    /// falls back to when private buffers exceed the budget).
    Atomic,
    /// One dense `f64` buffer per pool worker, reduced in worker order.
    Privatized,
    /// Let the perfmodel advisor decide from the memory budget.
    #[default]
    Auto,
}

impl TallyMode {
    pub fn name(&self) -> &'static str {
        match self {
            TallyMode::Atomic => "atomic",
            TallyMode::Privatized => "privatized",
            TallyMode::Auto => "auto",
        }
    }
}

/// How the segment loop evaluates `1 - exp(-tau)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpMode {
    /// The in-tree evaluator ([`crate::exp`]); the name and the
    /// `"intrinsic"` config string predate it.
    #[default]
    Intrinsic,
    /// Linear-interpolated [`ExpTable`] lookup.
    Table,
}

impl ExpMode {
    pub fn name(&self) -> &'static str {
        match self {
            ExpMode::Intrinsic => "intrinsic",
            ExpMode::Table => "table",
        }
    }
}

/// Which inner group loop the per-track segment kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepKernel {
    /// The scalar group loop (one exp per group per traversal): the
    /// conformance reference the vector kernel is checked against, not a
    /// tuning choice.
    Scalar,
    /// [`crate::simd::F64x4`] lanes over the group axis, reading
    /// group-major attenuation spans staged once per track and reused by
    /// both directions; remainder groups take a masked tail. Bitwise
    /// identical to `Scalar` per lane (see DESIGN.md).
    #[default]
    Vector,
}

impl SweepKernel {
    pub fn name(&self) -> &'static str {
        match self {
            SweepKernel::Scalar => "scalar",
            SweepKernel::Vector => "vector",
        }
    }

    /// Lane count the mode processes per group-loop step.
    pub fn lanes(&self) -> usize {
        match self {
            SweepKernel::Scalar => 1,
            SweepKernel::Vector => crate::simd::LANES,
        }
    }
}

/// Sweep-kernel configuration, parsed from the `[solver]` config section
/// (`tallies`, `tally_budget_mb`, `exp`, `exp_tolerance`, `kernel`,
/// `block_kb`).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    pub tallies: TallyMode,
    /// Memory budget the `Auto` strategy may spend on privatized buffers.
    pub tally_budget_bytes: u64,
    pub exp: ExpMode,
    /// Worst-case absolute error of the exp table (`exp = table`).
    pub exp_tolerance: f64,
    /// Scalar vs group-vectorized segment kernel (`[solver] kernel`).
    pub kernel: SweepKernel,
    /// Slot-block bytes for the cache-blocked privatized reduction
    /// (`[solver] block_kb`); `None` asks the perfmodel cache model.
    pub block_bytes: Option<u64>,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            tallies: TallyMode::Auto,
            tally_budget_bytes: 256 << 20,
            exp: ExpMode::Intrinsic,
            exp_tolerance: 1e-7,
            kernel: SweepKernel::Vector,
            block_bytes: None,
        }
    }
}

/// The tally strategy resolved for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTallies {
    /// Shared atomic array.
    Atomic,
    /// Private per-worker buffers, reduced in worker order.
    Privatized { workers: usize },
}

impl SweepTallies {
    pub fn name(&self) -> &'static str {
        match self {
            SweepTallies::Atomic => "atomic",
            SweepTallies::Privatized { .. } => "privatized",
        }
    }

    /// Tally-buffer bytes this strategy holds for an `nf`-slot flux array.
    pub fn bytes(&self, nf: usize) -> u64 {
        match self {
            SweepTallies::Atomic => nf as u64 * 8,
            SweepTallies::Privatized { workers } => *workers as u64 * nf as u64 * 8,
        }
    }
}

/// Reusable sweep state owned by a solver driver: the kernel
/// configuration plus every allocation the sweep needs, recycled across
/// iterations instead of reallocated per call.
///
/// One arena belongs to one solver instance; do not share an arena
/// between sweeps running concurrently on different threads (the
/// per-worker storage contract of [`rayon::WorkerLocal`]).
pub struct SweepArena {
    pub kernel: KernelConfig,
    /// Recycled `SweepOutcome::phi_acc` vectors handed back by `recycle`.
    phi_pool: Vec<Vec<f64>>,
    /// The shared atomic accumulator (atomic mode), zeroed per sweep.
    atomic_buf: Vec<AtomicU64>,
    /// Private per-worker tally buffers (privatized mode).
    worker_phi: rayon::WorkerLocal<Vec<f64>>,
    /// Per-worker OTF segment scratch and staged attenuation spans.
    track_bufs: rayon::WorkerLocal<TrackBufs>,
    /// Lazily built exp table (`exp = table`).
    exp_table: Option<ExpTable>,
    /// The `exp_tolerance` the resident table was built for; `prepare`
    /// rebuilds the table whenever the configured tolerance drifts from
    /// this (arena reuse across jobs with different kernel configs).
    exp_built_tol: Option<f64>,
}

impl SweepArena {
    pub fn new(kernel: KernelConfig) -> Self {
        Self {
            kernel,
            phi_pool: Vec::new(),
            atomic_buf: Vec::new(),
            worker_phi: rayon::WorkerLocal::new(1, |_| Vec::new()),
            track_bufs: rayon::WorkerLocal::new(1, |_| TrackBufs::default()),
            exp_table: None,
            exp_built_tol: None,
        }
    }

    /// Re-points a pooled arena at a new kernel configuration before it
    /// serves another job. Every per-sweep buffer is already re-sized and
    /// re-zeroed by [`Self::prepare`] (problem shapes may differ between
    /// jobs); the exp table is the one piece of cross-sweep state a config
    /// change can invalidate, and `prepare` rebuilds it whenever the
    /// configured tolerance no longer matches the resident table.
    pub fn reconfigure(&mut self, kernel: KernelConfig) {
        self.kernel = kernel;
    }

    /// Installs a pre-built exp table (e.g. a cached one shared across
    /// jobs) so the first `prepare` does not have to build it. The table
    /// must have been built with [`ExpTable::with_tolerance`] at this
    /// arena's configured `exp_tolerance`; a mismatched tolerance is
    /// rebuilt on the next `prepare` instead of trusted.
    pub fn preload_exp_table(&mut self, table: ExpTable) {
        self.exp_table = Some(table);
        self.exp_built_tol = Some(self.kernel.exp_tolerance);
    }

    /// Slot-block bytes the blocked privatized reduction uses: the
    /// explicit `block_kb` override when configured, else the perfmodel
    /// cache model's advice (half of L1, whole cache lines).
    pub fn block_bytes(&self) -> u64 {
        self.kernel.block_bytes.unwrap_or_else(|| CacheModel::default().advise_block_bytes()).max(8)
    }

    /// Resolves the tally strategy for a sweep of `fsrs x groups` slots on
    /// `workers` pool workers.
    pub fn resolve(&self, workers: usize, fsrs: usize, groups: usize) -> SweepTallies {
        match self.kernel.tallies {
            TallyMode::Atomic => SweepTallies::Atomic,
            TallyMode::Privatized => SweepTallies::Privatized { workers },
            TallyMode::Auto => {
                match antmoc_perfmodel::advise_tallies(
                    workers,
                    fsrs,
                    groups,
                    self.kernel.tally_budget_bytes,
                ) {
                    TallyAdvice::Privatized { .. } => SweepTallies::Privatized { workers },
                    TallyAdvice::Atomic { .. } => SweepTallies::Atomic,
                }
            }
        }
    }

    /// A zeroed flux accumulator of length `nf`, reusing a recycled
    /// vector when one is available.
    pub(crate) fn take_phi(&mut self, nf: usize) -> Vec<f64> {
        let mut v = self.phi_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(nf, 0.0);
        v
    }

    /// Hands a finished sweep's flux vector back for reuse. Drivers call
    /// this once `phi_acc` has been folded into the scalar flux.
    pub fn recycle(&mut self, outcome: SweepOutcome) {
        // A couple of spares covers every driver pattern (sweep + residual
        // double-buffering); beyond that, freeing is cheaper than hoarding.
        if self.phi_pool.len() < 2 {
            self.phi_pool.push(outcome.phi_acc);
        }
    }

    /// Sizes and zeroes the per-sweep storage for `workers` workers and an
    /// `nf`-slot flux array under the given strategy. Must be called
    /// before the parallel region each sweep.
    pub(crate) fn prepare(&mut self, workers: usize, nf: usize, strategy: SweepTallies) {
        if self.track_bufs.len() < workers {
            self.track_bufs = rayon::WorkerLocal::new(workers, |_| TrackBufs::default());
        }
        match strategy {
            SweepTallies::Atomic => {
                if self.atomic_buf.len() != nf {
                    self.atomic_buf = (0..nf).map(|_| AtomicU64::new(0)).collect();
                } else {
                    for slot in &self.atomic_buf {
                        slot.store(0, Ordering::Relaxed);
                    }
                }
            }
            SweepTallies::Privatized { workers: w } => {
                if self.worker_phi.len() < w {
                    self.worker_phi = rayon::WorkerLocal::new(w, |_| Vec::new());
                }
                for k in 0..w {
                    let buf = self.worker_phi.get_mut(k);
                    buf.clear();
                    buf.resize(nf, 0.0);
                }
            }
        }
        if self.kernel.exp == ExpMode::Table
            && (self.exp_table.is_none() || self.exp_built_tol != Some(self.kernel.exp_tolerance))
        {
            self.exp_table =
                Some(ExpTable::with_tolerance(DEFAULT_TAU_MAX, self.kernel.exp_tolerance));
            self.exp_built_tol = Some(self.kernel.exp_tolerance);
        }
    }

    /// The exp evaluator for this arena's configuration. `prepare` must
    /// have run (it builds the table lazily).
    pub(crate) fn exp_eval(&self) -> ExpEval<'_> {
        match self.kernel.exp {
            ExpMode::Intrinsic => ExpEval::Intrinsic,
            ExpMode::Table => {
                ExpEval::Table(self.exp_table.as_ref().expect("prepare builds the table"))
            }
        }
    }

    pub(crate) fn atomic_slots(&self) -> &[AtomicU64] {
        &self.atomic_buf
    }

    pub(crate) fn worker_bufs(&self) -> &rayon::WorkerLocal<Vec<f64>> {
        &self.worker_phi
    }

    pub(crate) fn track_bufs(&self) -> &rayon::WorkerLocal<TrackBufs> {
        &self.track_bufs
    }

    /// Sums the first `workers` private buffers into `phi` in ascending
    /// worker order — the deterministic reduction that replaces the
    /// atomics. Cache-blocked: slot blocks (sized by [`Self::block_bytes`])
    /// iterate outermost and workers innermost, so the destination block
    /// — the only array revisited, once per worker — stays L1-resident
    /// across the whole worker pass instead of being streamed `workers`
    /// times from L2/DRAM. Each slot still receives its adds in ascending
    /// worker order, so the result is bitwise identical to the unblocked
    /// reduction.
    pub(crate) fn reduce_privatized(&mut self, phi: &mut [f64], workers: usize) {
        let block = (self.block_bytes() as usize / 8).max(1);
        let nf = phi.len();
        let mut start = 0usize;
        while start < nf {
            let end = (start + block).min(nf);
            let dst = &mut phi[start..end];
            for w in 0..workers {
                for (acc, &v) in dst.iter_mut().zip(&self.worker_phi.get_mut(w)[start..end]) {
                    *acc += v;
                }
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_auto_intrinsic_vector_with_a_256mib_budget() {
        let k = KernelConfig::default();
        assert_eq!(k.tallies, TallyMode::Auto);
        assert_eq!(k.exp, ExpMode::Intrinsic);
        assert_eq!(k.tally_budget_bytes, 256 << 20);
        assert_eq!(k.exp_tolerance, 1e-7);
        assert_eq!(k.kernel, SweepKernel::Vector);
        assert_eq!(k.block_bytes, None);
    }

    #[test]
    fn kernel_modes_report_names_and_lanes() {
        assert_eq!(SweepKernel::Scalar.name(), "scalar");
        assert_eq!(SweepKernel::Scalar.lanes(), 1);
        assert_eq!(SweepKernel::Vector.name(), "vector");
        assert_eq!(SweepKernel::Vector.lanes(), crate::simd::LANES);
    }

    #[test]
    fn block_bytes_honours_the_override_and_the_cache_model() {
        let arena = SweepArena::new(KernelConfig::default());
        assert_eq!(
            arena.block_bytes(),
            antmoc_perfmodel::CacheModel::default().advise_block_bytes()
        );
        let arena =
            SweepArena::new(KernelConfig { block_bytes: Some(4 << 10), ..Default::default() });
        assert_eq!(arena.block_bytes(), 4 << 10);
        // Degenerate overrides are clamped to one slot.
        let arena = SweepArena::new(KernelConfig { block_bytes: Some(1), ..Default::default() });
        assert_eq!(arena.block_bytes(), 8);
    }

    #[test]
    fn blocked_reduction_is_bitwise_identical_to_unblocked() {
        // Per slot the add order is still ascending worker order, so any
        // block size must give exactly the bits of the one-block
        // reduction — including awkward blocks that straddle the end.
        let nf = 37;
        let workers = 3;
        let fill = |arena: &mut SweepArena| {
            arena.prepare(workers, nf, SweepTallies::Privatized { workers });
            for w in 0..workers {
                for (i, v) in arena.worker_phi.get_mut(w).iter_mut().enumerate() {
                    // Values chosen so addition order matters in the bits.
                    *v = (1.0 + i as f64) * 10f64.powi((w as i32 - 1) * 13) + 1e-13;
                }
            }
        };
        let mut reference = SweepArena::new(KernelConfig {
            block_bytes: Some((nf * 8) as u64),
            ..Default::default()
        });
        fill(&mut reference);
        let mut phi_ref = vec![0.0f64; nf];
        reference.reduce_privatized(&mut phi_ref, workers);
        for block in [8u64, 16, 24, 56, 1 << 20] {
            let mut arena =
                SweepArena::new(KernelConfig { block_bytes: Some(block), ..Default::default() });
            fill(&mut arena);
            let mut phi = vec![0.0f64; nf];
            arena.reduce_privatized(&mut phi, workers);
            for (i, (a, b)) in phi.iter().zip(&phi_ref).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "block {block}, slot {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn resolve_honours_explicit_modes_and_the_budget() {
        let mut arena =
            SweepArena::new(KernelConfig { tallies: TallyMode::Atomic, ..KernelConfig::default() });
        assert_eq!(arena.resolve(8, 1000, 7), SweepTallies::Atomic);
        arena.kernel.tallies = TallyMode::Privatized;
        assert_eq!(arena.resolve(8, 1000, 7), SweepTallies::Privatized { workers: 8 });
        // Auto: fits the default budget.
        arena.kernel.tallies = TallyMode::Auto;
        assert_eq!(arena.resolve(8, 1000, 7), SweepTallies::Privatized { workers: 8 });
        // Auto with zero budget: always atomic.
        arena.kernel.tally_budget_bytes = 0;
        assert_eq!(arena.resolve(1, 1, 1), SweepTallies::Atomic);
    }

    #[test]
    fn strategy_bytes_count_buffer_footprint() {
        assert_eq!(SweepTallies::Atomic.bytes(100), 800);
        assert_eq!(SweepTallies::Privatized { workers: 4 }.bytes(100), 3200);
    }

    #[test]
    fn prepare_zeroes_and_reduce_sums_in_worker_order() {
        let mut arena = SweepArena::new(KernelConfig::default());
        arena.prepare(3, 4, SweepTallies::Privatized { workers: 3 });
        for w in 0..3 {
            assert!(arena.worker_phi.get_mut(w).iter().all(|&x| x == 0.0));
            arena.worker_phi.get_mut(w)[w] = (w + 1) as f64;
        }
        let mut phi = vec![0.0f64; 4];
        arena.reduce_privatized(&mut phi, 3);
        assert_eq!(phi, vec![1.0, 2.0, 3.0, 0.0]);
        // The next prepare re-zeroes the buffers.
        arena.prepare(3, 4, SweepTallies::Privatized { workers: 3 });
        for w in 0..3 {
            assert!(arena.worker_phi.get_mut(w).iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn phi_pool_recycles_allocations() {
        let mut arena = SweepArena::new(KernelConfig::default());
        let phi = arena.take_phi(16);
        let cap = phi.capacity();
        arena.recycle(SweepOutcome { phi_acc: phi, leakage: 0.0, segments: 0 });
        let phi2 = arena.take_phi(8);
        assert!(phi2.capacity() >= cap, "recycled vector should be reused");
        assert_eq!(phi2.len(), 8);
        assert!(phi2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn arena_reuse_across_shapes_resizes_and_rezeros() {
        // Cross-job pooling reuses one arena for problems of different
        // sizes and tally strategies; every prepare must leave exactly the
        // requested shape, zeroed, regardless of what the previous job did.
        let mut arena = SweepArena::new(KernelConfig::default());

        // Job 1: 4 workers, 64 slots, privatized — then dirty the buffers.
        arena.prepare(4, 64, SweepTallies::Privatized { workers: 4 });
        for w in 0..4 {
            for v in arena.worker_phi.get_mut(w).iter_mut() {
                *v = f64::NAN;
            }
        }

        // Job 2: smaller shape. Buffers must shrink to 16 slots and be
        // zeroed — stale NaNs from the larger job must not leak through.
        arena.prepare(2, 16, SweepTallies::Privatized { workers: 2 });
        for w in 0..2 {
            let buf = arena.worker_phi.get_mut(w);
            assert_eq!(buf.len(), 16);
            assert!(buf.iter().all(|&x| x == 0.0), "stale data survived reuse");
        }
        let mut phi = vec![0.0f64; 16];
        arena.worker_phi.get_mut(0)[3] = 1.5;
        arena.worker_phi.get_mut(1)[3] = 2.5;
        arena.reduce_privatized(&mut phi, 2);
        assert_eq!(phi[3], 4.0);

        // Job 3: switch to the atomic strategy at yet another shape.
        arena.prepare(1, 5, SweepTallies::Atomic);
        assert_eq!(arena.atomic_slots().len(), 5);
        assert!(arena.atomic_slots().iter().all(|s| s.load(Ordering::Relaxed) == 0));

        // Job 4: atomic again at a different size, after dirtying.
        arena.atomic_slots()[0].store(f64::to_bits(7.0), Ordering::Relaxed);
        arena.prepare(1, 9, SweepTallies::Atomic);
        assert_eq!(arena.atomic_slots().len(), 9);
        assert!(arena.atomic_slots().iter().all(|s| s.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn reconfigure_rebuilds_the_exp_table_when_tolerance_changes() {
        let mut arena = SweepArena::new(KernelConfig {
            exp: ExpMode::Table,
            exp_tolerance: 1e-4,
            ..KernelConfig::default()
        });
        arena.prepare(1, 4, SweepTallies::Atomic);
        let coarse_len = arena.exp_table.as_ref().expect("table built").len();

        // Same tolerance: the resident table is kept.
        arena.reconfigure(KernelConfig {
            exp: ExpMode::Table,
            exp_tolerance: 1e-4,
            ..KernelConfig::default()
        });
        arena.prepare(1, 4, SweepTallies::Atomic);
        assert_eq!(arena.exp_table.as_ref().unwrap().len(), coarse_len);

        // Tighter tolerance: the stale table would silently degrade
        // accuracy; prepare must rebuild it (more nodes).
        arena.reconfigure(KernelConfig {
            exp: ExpMode::Table,
            exp_tolerance: 1e-8,
            ..KernelConfig::default()
        });
        arena.prepare(1, 4, SweepTallies::Atomic);
        let fine_len = arena.exp_table.as_ref().unwrap().len();
        assert!(fine_len > coarse_len, "table not rebuilt: {fine_len} vs {coarse_len}");
    }

    #[test]
    fn preloaded_exp_table_is_used_and_mismatches_are_rebuilt() {
        use crate::exptable::DEFAULT_TAU_MAX;
        let mut arena = SweepArena::new(KernelConfig {
            exp: ExpMode::Table,
            exp_tolerance: 1e-6,
            ..KernelConfig::default()
        });
        let table = ExpTable::with_tolerance(DEFAULT_TAU_MAX, 1e-6);
        let len = table.len();
        arena.preload_exp_table(table);
        arena.prepare(1, 4, SweepTallies::Atomic);
        assert_eq!(arena.exp_table.as_ref().unwrap().len(), len, "preloaded table replaced");

        // A preload at the wrong tolerance is not trusted across a
        // reconfigure: prepare rebuilds.
        arena.reconfigure(KernelConfig {
            exp: ExpMode::Table,
            exp_tolerance: 1e-9,
            ..KernelConfig::default()
        });
        arena.prepare(1, 4, SweepTallies::Atomic);
        assert!(arena.exp_table.as_ref().unwrap().len() > len);
    }

    #[test]
    fn table_mode_builds_the_table_once() {
        let mut arena = SweepArena::new(KernelConfig {
            exp: ExpMode::Table,
            exp_tolerance: 1e-6,
            ..KernelConfig::default()
        });
        arena.prepare(1, 4, SweepTallies::Atomic);
        let len = arena.exp_table.as_ref().expect("table built").len();
        assert!(matches!(arena.exp_eval(), ExpEval::Table(_)));
        arena.prepare(1, 4, SweepTallies::Atomic);
        assert_eq!(arena.exp_table.as_ref().unwrap().len(), len);
    }
}
