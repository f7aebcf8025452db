//! Offline stand-in for the `rayon` API subset this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace routes
//! its `rayon = { ... }` dependency here. The shim executes data-parallel
//! chains on `std::thread::scope` with one scheduler, a static partition:
//! worker `w` of `W` runs the `w`-th of `W` near-equal contiguous slices of
//! the iteration space, in ascending order. The item-to-worker map is a
//! pure function of `(n, W)` — a fixed thread-to-item map, as in the
//! paper's Algorithm 1 — so anything accumulated per worker repeats bit for
//! bit from run to run. Balancing non-uniform items is the caller's job: the
//! solver's sweep deals tracks into balanced bins and maps over the bins.
//!
//! Each multi-worker region records [`RegionStats`] (per-worker busy time
//! and item counts), retrievable once via [`take_last_region_stats`] on
//! the calling thread — the solver turns these into telemetry.
//! Single-worker regions run inline on the calling thread and record
//! nothing.
//!
//! Worker count: `ThreadPool::install` override, else the
//! `ANTMOC_NUM_THREADS` environment variable, else
//! `available_parallelism`. Only the adapters the workspace actually calls
//! are provided; grow it as call sites grow.

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread worker-count override installed by `ThreadPool::install`.
    static NUM_THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };

    /// Stats of the last multi-worker parallel region driven from this
    /// thread; `None` after a serial region or a `take`.
    static LAST_REGION: RefCell<Option<RegionStats>> = const { RefCell::new(None) };

    /// Index of the pool worker currently executing on this thread;
    /// `None` outside any parallel region.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The index of the pool worker executing on the current thread, or
/// `None` outside a parallel region. Inside a region with `W` workers the
/// index is in `0..W`, each index held by exactly one thread (worker 0 is
/// the calling thread). This is what lets [`WorkerLocal`] hand out
/// unaliased `&mut` slots without atomics.
pub fn current_worker_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Sets the worker index for the duration of the returned guard.
fn enter_worker(me: usize) -> WorkerIndexGuard {
    WorkerIndexGuard { prev: WORKER_INDEX.with(|w| w.replace(Some(me))) }
}

struct WorkerIndexGuard {
    prev: Option<usize>,
}

impl Drop for WorkerIndexGuard {
    fn drop(&mut self) {
        WORKER_INDEX.with(|w| w.set(self.prev));
    }
}

/// Fixed-size per-worker storage shared across a parallel region without
/// atomics: slot `w` belongs to the pool worker whose
/// [`current_worker_index`] is `w` (slot 0 doubles as the serial /
/// outside-region slot).
///
/// # Safety contract
///
/// [`WorkerLocal::with`] hands out `&mut T` to the calling worker's slot.
/// That is sound because the scheduler runs each worker index on exactly
/// one thread within a region, and distinct workers get distinct slots.
/// The holder must not share one `WorkerLocal` across concurrently running
/// regions driven from different threads (e.g. two cluster ranks): give
/// each solver instance its own.
pub struct WorkerLocal<T> {
    slots: Vec<Slot<T>>,
}

/// One worker's slot on cache lines of its own (128 bytes also covers the
/// adjacent-line prefetch). Slots are written per item — the sweep's
/// scratch vectors grow per segment — so a line shared with another
/// worker's slot, or with another thread's heap block, would bounce
/// between cores on every write.
#[repr(align(128))]
struct Slot<T>(UnsafeCell<T>);

// SAFETY: `with` only ever derives `&mut` to the slot owned by the
// current worker index, and the scheduler guarantees each index is live
// on one thread at a time (see the type-level contract above).
unsafe impl<T: Send> Sync for WorkerLocal<T> {}

impl<T> WorkerLocal<T> {
    /// One slot per worker, each built by `init(worker_index)`.
    pub fn new(workers: usize, mut init: impl FnMut(usize) -> T) -> Self {
        Self { slots: (0..workers.max(1)).map(|w| Slot(UnsafeCell::new(init(w)))).collect() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs `f` with exclusive access to the calling worker's slot.
    /// Panics if the current worker index exceeds the slot count — size
    /// the storage for the pool before entering the region.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let w = current_worker_index().unwrap_or(0);
        assert!(w < self.slots.len(), "worker {w} has no slot (len {})", self.slots.len());
        // SAFETY: per the type's contract, worker index w is executing on
        // exactly this thread right now, so the borrow is exclusive.
        f(unsafe { &mut *self.slots[w].0.get() })
    }

    /// Direct access to slot `w` (requires `&mut self`, so no region is
    /// running over this storage).
    pub fn get_mut(&mut self, w: usize) -> &mut T {
        self.slots[w].0.get_mut()
    }

    /// Iterates all slots mutably, in worker order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| s.0.get_mut())
    }
}

/// Captures a thread-bound context on the calling thread, to be
/// re-installed on every worker thread a parallel region spawns.
pub type ContextCaptureFn = fn() -> Option<Box<dyn Any + Send + Sync>>;

/// Installs a captured context on a worker thread. The returned guard is
/// held for the worker's lifetime and dropped (uninstalling the context)
/// when the worker finishes its share of the region.
pub type ContextInstallFn = fn(&(dyn Any + Send + Sync)) -> Box<dyn Any>;

static CONTEXT_HOOKS: OnceLock<(ContextCaptureFn, ContextInstallFn)> = OnceLock::new();

/// Registers process-wide context-propagation hooks.
///
/// The shim spawns fresh scoped threads for every multi-worker region, so
/// thread-local state on the calling thread (e.g. a scoped telemetry
/// sink) is invisible to workers unless explicitly carried across. Before
/// spawning, the scheduler calls `capture` once on the calling thread;
/// if it returns a context, `install` runs on every *spawned* worker
/// (worker 0 is the calling thread and already has the context) before
/// its slice executes, and the guard it returns drops when the worker is
/// done.
///
/// First registration wins; returns `false` if hooks were already set.
/// Hooks are deliberately plain `fn` pointers: registration is about
/// wiring a subsystem in once, not about per-region closures.
pub fn set_region_context_hooks(capture: ContextCaptureFn, install: ContextInstallFn) -> bool {
    CONTEXT_HOOKS.set((capture, install)).is_ok()
}

/// Snapshot of the calling thread's context for one region, paired with
/// the installer to run on each spawned worker. `None` when no hooks are
/// registered or the capture hook reports nothing to propagate.
fn capture_region_context() -> Option<(ContextInstallFn, Box<dyn Any + Send + Sync>)> {
    let (capture, install) = CONTEXT_HOOKS.get()?;
    Some((*install, capture()?))
}

/// Workers the current thread's parallel calls will use.
pub fn current_num_threads() -> usize {
    if let Some(n) = NUM_THREADS_OVERRIDE.with(|o| o.get()) {
        return n;
    }
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    let from_env = *ENV.get_or_init(|| {
        std::env::var("ANTMOC_NUM_THREADS").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
    });
    from_env.unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Scheduler observability for one parallel region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// Workers that participated (> 1; serial regions record nothing).
    pub workers: usize,
    /// Wall seconds each worker spent executing its slice, indexed by
    /// worker.
    pub busy_s: Vec<f64>,
    /// Items in each worker's slice, indexed by worker.
    pub items: Vec<u64>,
}

impl RegionStats {
    /// Max-over-mean of per-worker busy time — 1.0 is a perfectly level
    /// schedule; the paper's load-uniformity index at the worker level.
    pub fn load_ratio(&self) -> f64 {
        let mean = self.busy_s.iter().sum::<f64>() / self.busy_s.len().max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        self.busy_s.iter().cloned().fold(0.0f64, f64::max) / mean
    }
}

/// Takes (and clears) the stats of the last multi-worker region driven
/// from this thread. Serial regions leave `None`, so a caller that runs a
/// parallel region and then takes sees exactly that region's stats or
/// nothing — never a stale snapshot.
pub fn take_last_region_stats() -> Option<RegionStats> {
    LAST_REGION.with(|s| s.borrow_mut().take())
}

/// Splits `0..n` into at most `parts` non-empty contiguous ranges of
/// near-equal length (the first `n % parts` one item longer), in
/// ascending order.
fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            continue;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The scheduler: worker `w` runs `work(w, slice_w)` over its contiguous
/// slice of `0..n`, and the results come back in worker order (worker 0
/// is the calling thread). With one worker the whole range runs inline.
/// Stats of a multi-worker region land in the calling thread's
/// [`take_last_region_stats`] slot; serial regions clear it.
fn run_partitioned<R, F>(n: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let workers = current_num_threads().clamp(1, n.max(1));
    if workers <= 1 {
        LAST_REGION.with(|s| *s.borrow_mut() = None);
        let _wi = enter_worker(0);
        return vec![work(0, 0..n)];
    }

    let slices = split_ranges(n, workers);
    let run_one = |me: usize, range: Range<usize>| -> (Duration, R) {
        let _wi = enter_worker(me);
        let t0 = Instant::now();
        let out = work(me, range);
        (t0.elapsed(), out)
    };
    let run_one = &run_one;
    let ctx = capture_region_context();
    let ctx = &ctx;
    let results: Vec<(Duration, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = slices[1..]
            .iter()
            .cloned()
            .enumerate()
            .map(|(k, r)| {
                std::thread::Builder::new()
                    .name(format!("worker-{}", k + 1))
                    .spawn_scoped(s, move || {
                        let _ctx = ctx.as_ref().map(|(install, c)| install(c.as_ref()));
                        run_one(k + 1, r)
                    })
                    .expect("spawn worker")
            })
            .collect();
        let mine = run_one(0, slices[0].clone());
        let mut all = vec![mine];
        all.extend(handles.into_iter().map(|h| h.join().expect("worker panicked")));
        all
    });

    let stats = RegionStats {
        workers,
        busy_s: results.iter().map(|(busy, _)| busy.as_secs_f64()).collect(),
        items: slices.iter().map(|r| r.len() as u64).collect(),
    };
    LAST_REGION.with(|s| *s.borrow_mut() = Some(stats));
    results.into_iter().map(|(_, r)| r).collect()
}

/// Folds `0..n` on the static partition: worker `w`'s accumulator starts
/// as `init(w)` and folds its contiguous slice in ascending order, and
/// the accumulators come back in worker order. For a fixed worker count
/// every run executes every index on the same worker in the same order —
/// the determinism the privatized tally reduction relies on.
/// [`current_worker_index`] is set inside `fold`.
pub fn static_partition_fold<Acc, Init, F>(n: usize, init: Init, fold: F) -> Vec<Acc>
where
    Acc: Send,
    Init: Fn(usize) -> Acc + Sync,
    F: Fn(Acc, usize) -> Acc + Sync,
{
    run_partitioned(n, |w, range| range.fold(init(w), &fold))
}

/// Indices a parallel range can iterate over.
pub trait ParIndex: Copy + Send + Sync {
    fn from_usize(i: usize) -> Self;
    fn to_usize(self) -> usize;
}

macro_rules! par_index {
    ($($t:ty),*) => {$(
        impl ParIndex for $t {
            fn from_usize(i: usize) -> Self {
                i as $t
            }
            fn to_usize(self) -> usize {
                self as usize
            }
        }
    )*};
}
par_index!(u32, u64, usize, i32, i64);

/// Entry point mirroring `rayon::iter::IntoParallelIterator` for ranges.
pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: ParIndex> IntoParallelIterator for Range<T> {
    type Iter = RangeParIter<T>;
    fn into_par_iter(self) -> RangeParIter<T> {
        RangeParIter {
            start: self.start.to_usize(),
            end: self.end.to_usize().max(self.start.to_usize()),
            _idx: std::marker::PhantomData,
        }
    }
}

/// A parallel iterator over an index range.
pub struct RangeParIter<T> {
    start: usize,
    end: usize,
    _idx: std::marker::PhantomData<T>,
}

impl<T: ParIndex> RangeParIter<T> {
    fn len(&self) -> usize {
        self.end - self.start
    }

    fn idx(&self, offset: usize) -> T {
        T::from_usize(self.start + offset)
    }

    pub fn map<R, F>(self, f: F) -> RangeMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        RangeMap { range: self, f }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_partitioned(self.len(), |_, r| r.for_each(|i| f(self.idx(i))));
    }
}

/// A mapped parallel range, ready for a terminal operation.
pub struct RangeMap<T, F> {
    range: RangeParIter<T>,
    f: F,
}

impl<T, R, F> RangeMap<T, F>
where
    T: ParIndex,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let parts = run_partitioned(self.range.len(), |_, r| {
            r.map(|i| (self.f)(self.range.idx(i))).collect::<Vec<R>>()
        });
        C::from(parts.into_iter().flatten().collect::<Vec<R>>())
    }

    /// Sums each worker's slice in index order, then the per-worker
    /// partial sums in worker order.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R> + std::iter::Sum<S> + Send,
    {
        let parts = run_partitioned(self.range.len(), |_, r| {
            r.map(|i| (self.f)(self.range.idx(i))).sum::<S>()
        });
        parts.into_iter().sum()
    }
}

/// Entry point mirroring `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    type Item: 'a;
    fn par_iter(&'a self) -> SliceParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

/// A borrowing parallel iterator over a slice.
pub struct SliceParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> SliceParIter<'a, T> {
    pub fn map<R, F>(self, f: F) -> SliceMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        SliceMap { slice: self.slice, f }
    }
}

/// A mapped slice iterator.
pub struct SliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T, R, F> SliceMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let parts = run_partitioned(self.slice.len(), |_, r| {
            self.slice[r].iter().map(&self.f).collect::<Vec<R>>()
        });
        C::from(parts.into_iter().flatten().collect::<Vec<R>>())
    }
}

/// Entry point mirroring `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ChunksMutParIter { slice: self, chunk_size }
    }
}

/// A parallel iterator over disjoint mutable chunks of a slice.
pub struct ChunksMutParIter<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ChunksMutParIter<'a, T> {
    pub fn enumerate(self) -> ChunksMutEnumerate<'a, T> {
        ChunksMutEnumerate { slice: self.slice, chunk_size: self.chunk_size }
    }
}

/// An enumerated parallel chunk iterator.
pub struct ChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

/// A `*mut T` the scheduler may share across workers; every chunk index
/// is executed exactly once, so the mutable windows never alias.
struct SlicePtr<T>(*mut T);
unsafe impl<T: Send> Sync for SlicePtr<T> {}

impl<T: Send> ChunksMutEnumerate<'_, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let size = self.chunk_size;
        let len = self.slice.len();
        let num_chunks = len.div_ceil(size);
        let ptr = SlicePtr(self.slice.as_mut_ptr());
        let ptr = &ptr;
        run_partitioned(num_chunks, |_, r| {
            for k in r {
                let lo = k * size;
                let hi = (lo + size).min(len);
                // SAFETY: the partition hands each chunk index k to
                // exactly one worker, and [lo, hi) windows are disjoint
                // across distinct k; the borrow of `self.slice` lives for
                // the whole region.
                let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(lo), hi - lo) };
                f((k, chunk));
            }
        });
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the worker-count knob.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// Build error kept for signature compatibility; the shim cannot fail.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A "pool" that scopes a worker-count override around a closure.
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `op` with this pool's worker count governing nested parallel
    /// calls on the current thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        NUM_THREADS_OVERRIDE.with(|o| {
            let prev = o.replace(self.num_threads.or(o.get()));
            let out = op();
            o.set(prev);
            out
        })
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn range_map_collect_preserves_order_under_skewed_work() {
        // Skewed work so the workers' slices finish wildly out of order.
        pool(8).install(|| {
            let v: Vec<usize> = (0..5000usize)
                .into_par_iter()
                .map(|i| {
                    if i % 640 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    i * 2
                })
                .collect();
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
        });
    }

    #[test]
    fn region_context_hooks_reach_every_worker() {
        use std::any::Any;
        use std::cell::Cell;
        use std::sync::atomic::{AtomicU64, Ordering};

        thread_local! {
            static MARKER: Cell<u64> = const { Cell::new(0) };
        }
        struct Uninstall;
        impl Drop for Uninstall {
            fn drop(&mut self) {
                MARKER.with(|m| m.set(0));
            }
        }
        fn capture() -> Option<Box<dyn Any + Send + Sync>> {
            let v = MARKER.with(|m| m.get());
            (v != 0).then(|| Box::new(v) as Box<dyn Any + Send + Sync>)
        }
        fn install(ctx: &(dyn Any + Send + Sync)) -> Box<dyn Any> {
            let v = *ctx.downcast_ref::<u64>().expect("u64 context");
            MARKER.with(|m| m.set(v));
            Box::new(Uninstall)
        }
        // First registration wins process-wide; within this test binary
        // nothing else registers hooks.
        assert!(crate::set_region_context_hooks(capture, install));
        assert!(!crate::set_region_context_hooks(capture, install));

        MARKER.with(|m| m.set(42));
        let with_ctx = AtomicU64::new(0);
        pool(4).install(|| {
            (0..1000u32).into_par_iter().for_each(|_| {
                if MARKER.with(|m| m.get()) == 42 {
                    with_ctx.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        // Every item — on whichever worker — saw the caller's context.
        assert_eq!(with_ctx.load(Ordering::Relaxed), 1000);

        // The fold entry point propagates too.
        let accs = pool(4).install(|| {
            crate::static_partition_fold(
                257,
                |_| 0u64,
                |acc, _| acc + u64::from(MARKER.with(|m| m.get()) == 42),
            )
        });
        assert_eq!(accs.iter().sum::<u64>(), 257);
        MARKER.with(|m| m.set(0));
    }

    #[test]
    fn fold_map_reduce_matches_serial() {
        let (count, total) = crate::static_partition_fold(
            10_000,
            |_| (0u64, 0.0f64),
            |(c, s), i| (c + 1, s + i as f64),
        )
        .into_iter()
        .reduce(|a, b| (a.0 + b.0, a.1 + b.1))
        .unwrap();
        assert_eq!(count, 10_000);
        assert!((total - (9999.0 * 10_000.0 / 2.0)).abs() < 1e-6);
    }

    #[test]
    fn fold_covers_every_index_once_across_workers() {
        for workers in [1, 2, 8] {
            pool(workers).install(|| {
                let n = 4321usize;
                let (count, sum) = crate::static_partition_fold(
                    n,
                    |_| (0u64, 0u64),
                    |(c, s), i| (c + 1, s + i as u64),
                )
                .into_iter()
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
                assert_eq!(count, n as u64, "workers={workers}");
                assert_eq!(sum, (n as u64 - 1) * n as u64 / 2, "workers={workers}");
            });
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut v = vec![0u32; 1003];
        v.par_chunks_mut(10).enumerate().for_each(|(k, chunk)| {
            for x in chunk {
                *x += k as u32 + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[1000], 101);
    }

    #[test]
    fn par_chunks_mut_is_exact_on_many_workers() {
        pool(4).install(|| {
            let mut v = vec![0u64; 10_000];
            v.par_chunks_mut(7).enumerate().for_each(|(k, chunk)| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x += (k * 7 + j) as u64;
                }
            });
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
        });
    }

    #[test]
    fn install_overrides_worker_count() {
        let p = pool(1);
        let inside = p.install(crate::current_num_threads);
        assert_eq!(inside, 1);
    }

    #[test]
    fn multi_worker_region_records_stats() {
        pool(4).install(|| {
            (0..10_000u32).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
        });
        let stats = crate::take_last_region_stats().expect("4-worker region records stats");
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.busy_s.len(), 4);
        assert_eq!(stats.items, vec![2500; 4]);
        assert!(stats.load_ratio() >= 1.0);
        // The take cleared the slot.
        assert!(crate::take_last_region_stats().is_none());
    }

    #[test]
    fn serial_region_records_no_stats() {
        // Prime the slot with a parallel region, then run serial: the
        // serial region must clear it, not leave a stale snapshot.
        pool(2).install(|| (0..100u32).into_par_iter().for_each(|_| {}));
        assert!(crate::LAST_REGION.with(|s| s.borrow().is_some()));
        pool(1).install(|| (0..100u32).into_par_iter().for_each(|_| {}));
        assert!(crate::take_last_region_stats().is_none());
    }

    #[test]
    fn skewed_work_stays_on_its_static_slice() {
        // One slice holds nearly all the work; the partition still runs
        // every index on the worker that owns its slice, so item counts
        // are the even split and the slow slice shows as busy time.
        pool(4).install(|| {
            (0..1024u32).into_par_iter().for_each(|i| {
                let w = crate::current_worker_index().unwrap();
                assert_eq!(w, i as usize / 256, "index {i} ran off its slice");
                if i < 256 {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            });
        });
        let stats = crate::take_last_region_stats().unwrap();
        assert_eq!(stats.items, vec![256; 4]);
        assert!(stats.load_ratio() > 1.0, "{stats:?}");
    }

    #[test]
    fn worker_index_is_set_inside_regions_and_cleared_outside() {
        assert_eq!(crate::current_worker_index(), None);
        pool(4).install(|| {
            (0..256u32).into_par_iter().for_each(|_| {
                let w = crate::current_worker_index().expect("index set in region");
                assert!(w < 4);
            });
        });
        let _ = crate::take_last_region_stats();
        assert_eq!(crate::current_worker_index(), None);
    }

    #[test]
    fn static_partition_fold_covers_every_index_in_worker_order() {
        for workers in [1, 2, 8] {
            pool(workers).install(|| {
                let n = 4321usize;
                let accs = crate::static_partition_fold(
                    n,
                    |_w| Vec::new(),
                    |mut acc: Vec<usize>, i| {
                        acc.push(i);
                        acc
                    },
                );
                assert_eq!(accs.len(), workers.min(n));
                // Accumulators are contiguous ascending slices that
                // concatenate to 0..n exactly.
                let flat: Vec<usize> = accs.concat();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "workers={workers}");
            });
        }
    }

    #[test]
    fn static_partition_fold_assignment_is_deterministic() {
        // Same (n, workers) must map every index to the same worker on
        // every run — the contract the privatized tallies rely on.
        let run = || {
            pool(4).install(|| {
                crate::static_partition_fold(
                    1003,
                    |w| (w, Vec::new()),
                    |(w, mut acc): (usize, Vec<usize>), i| {
                        acc.push(i);
                        (w, acc)
                    },
                )
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn static_partition_fold_records_per_worker_stats() {
        pool(4).install(|| {
            let _ = crate::static_partition_fold(1002, |_| 0u64, |acc, i| acc + i as u64);
        });
        let stats = crate::take_last_region_stats().expect("multi-worker stats");
        assert_eq!(stats.workers, 4);
        // The near-even split: the first 1002 % 4 slices take one extra.
        assert_eq!(stats.items, vec![251, 251, 250, 250]);
        // Serial regions clear the slot.
        pool(1).install(|| {
            let _ = crate::static_partition_fold(10, |_| (), |(), _| ());
        });
        assert!(crate::take_last_region_stats().is_none());
    }

    #[test]
    fn worker_local_slots_are_private_per_worker() {
        for workers in [1, 2, 8] {
            pool(workers).install(|| {
                let n = 2000usize;
                let counts = crate::WorkerLocal::new(workers, |_| 0u64);
                let accs = crate::static_partition_fold(
                    n,
                    |_| 0u64,
                    |acc, _| {
                        counts.with(|c| *c += 1);
                        acc + 1
                    },
                );
                assert_eq!(accs.iter().sum::<u64>(), n as u64);
                let mut counts = counts;
                let total: u64 = counts.iter_mut().map(|c| *c).sum();
                assert_eq!(total, n as u64, "workers={workers}");
            });
        }
    }

    #[test]
    fn worker_local_works_under_for_each() {
        pool(4).install(|| {
            let n = 5000u32;
            let hits = crate::WorkerLocal::new(4, |_| 0u64);
            (0..n).into_par_iter().for_each(|_| {
                hits.with(|h| *h += 1);
            });
            let _ = crate::take_last_region_stats();
            let mut hits = hits;
            // Each worker counted exactly its own slice.
            assert_eq!(hits.iter_mut().map(|h| *h).collect::<Vec<_>>(), vec![1250; 4]);
        });
    }
}
