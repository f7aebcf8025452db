//! The multi-tenant solve service: many concurrent solve requests against
//! one shared machine, amortizing the expensive immutable setup across
//! jobs.
//!
//! A [`SolveService`] owns a pool of worker threads draining a job
//! queue. Each job carries a full run configuration (submitted parsed,
//! or as declarative case TOML) and flows through:
//!
//! 1. **Setup, content-addressed** — the immutable products of the
//!    geometry/tracking stages ([`antmoc::SolveSetup`]: built model,
//!    track laydown + segmentation, segment store) are
//!    memoized in an [`cache`] keyed by a stable hash of exactly the
//!    setup-relevant configuration fields. A warm job skips straight to
//!    the sweep; concurrent cold jobs of the same key single-flight the
//!    build. Counters: `cache.hit`, `cache.miss`, `cache.bytes`.
//! 2. **Admission** — before the sweep, the job's device-pool footprint
//!    (the perfmodel memory model for its problem plus its attenuation
//!    table, stored segments, privatized tally buffers and any exp table)
//!    must fit
//!    the configured budget alongside the jobs already in flight;
//!    otherwise the job queues. Wait time (queue + admission) lands in
//!    the `serve.queue_wait_ns` histogram; the high-water mark of
//!    admitted bytes in the `serve.inflight_peak_bytes` gauge proves the
//!    pool was never overcommitted.
//! 3. **Solve, on a pooled arena** — per-job solver state lives in a
//!    [`SweepArena`] checked out of a shared pool and returned after the
//!    solve; [`SweepArena::reconfigure`] + per-sweep `prepare` make reuse
//!    safe across different problem shapes and kernel configs.
//!
//! Determinism: a job's report is **bitwise identical** to a one-shot
//! [`antmoc::run`] of the same configuration at the same worker count.
//! The sweep's parallel regions are scoped thread teams with static
//! partitioning (see the rayon shim), so concurrent jobs never share
//! scheduler state; each service worker either inherits the environment
//! worker count (like one-shot runs) or pins one via
//! [`ServeConfig::solve_threads`].
//!
//! Observability: each job records into a **job-scoped telemetry sink**
//! (installed on the worker thread and inherited by the sweep's thread
//! team), so [`JobResult::telemetry`] is the same report a one-shot run
//! would have produced. Completed sinks merge into one service-wide
//! [`Telemetry`] that is never installed (see [`Telemetry::merge_into`]),
//! which is also the only sink of the service's own `serve.*` /
//! `cache.*` series; [`SolveService::snapshot`] renders it as
//! Prometheus-style text. A failed job reaches its submitter through
//! [`JobResult`] (the panic message and [`JobStats`]) and the aggregate
//! through `serve.jobs_failed`; its sink is not merged.

pub mod cache;

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use antmoc::pipeline::SolveSetup;
use antmoc::{RunConfig, RunReport};
use antmoc_input::CaseSpec;
use antmoc_perfmodel::MemoryModel;
use antmoc_solver::exptable::DEFAULT_TAU_MAX;
use antmoc_solver::{ExpMode, ExpTable, SweepArena, SweepTallies};
use antmoc_telemetry::{RunReport as TelemetryReport, Telemetry};

use cache::SetupCache;

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the job queue — the number of jobs that
    /// can be *running* (setup/solve) at once, admission permitting.
    pub workers: usize,
    /// The simulated device pool the admission controller guards: the
    /// summed footprint of in-flight jobs never exceeds this. A job
    /// larger than the whole pool runs exclusively (alone) rather than
    /// being rejected.
    pub device_pool_bytes: u64,
    /// Setups retained in the content-addressed cache (FIFO eviction);
    /// 0 disables caching entirely.
    pub max_cached_setups: usize,
    /// Worker count each job's sweep regions use. `None` inherits the
    /// environment (`ANTMOC_NUM_THREADS` / available cores) exactly like
    /// a one-shot run — the setting that keeps service reports bitwise
    /// identical to serial runs.
    pub solve_threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { workers: 2, device_pool_bytes: 4 << 30, max_cached_setups: 8, solve_threads: None }
    }
}

/// A solve request in either accepted input format.
pub enum SolveRequest {
    /// An already-parsed configuration.
    Config(Box<RunConfig>),
    /// Declarative case TOML ([`CaseSpec::parse`] +
    /// [`RunConfig::from_case`]).
    CaseToml(String),
}

impl SolveRequest {
    fn into_config(self) -> Result<RunConfig, SubmitError> {
        match self {
            SolveRequest::Config(c) => Ok(*c),
            SolveRequest::CaseToml(text) => {
                let spec = CaseSpec::parse(&text)
                    .map_err(|e| SubmitError(format!("case line {}: {}", e.line, e.message)))?;
                RunConfig::from_case(&spec).map_err(|e| SubmitError(e.to_string()))
            }
        }
    }
}

/// A request the service refused to enqueue (parse failure or an
/// unsupported configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitError(pub String);

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SubmitError {}

/// Why a job failed after admission.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The solve panicked; the payload is the panic message. Other jobs
    /// are unaffected (the worker survives).
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "solve panicked: {msg}"),
        }
    }
}

/// Per-job measurements, for gates and dashboards.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Whether the setup came out of the content cache.
    pub cache_hit: bool,
    /// Submit-to-pickup plus admission wait, seconds (what
    /// `serve.queue_wait_ns` records).
    pub queue_wait_s: f64,
    /// Time in the setup stage (cache lookup + build on a miss).
    pub setup_s: f64,
    /// Time in transport + output.
    pub solve_s: f64,
    /// The admission footprint charged against the device pool.
    pub footprint_bytes: u64,
}

/// The terminal state of one job.
pub struct JobResult {
    pub job_id: u64,
    pub outcome: Result<RunReport, JobError>,
    pub stats: JobStats,
    /// The job's own telemetry report: everything the pipeline recorded
    /// while this job ran (meta, spans, counters, gauges, histograms,
    /// iteration rows) in a sink scoped to the job — the same report a
    /// one-shot [`antmoc::run`] of this configuration produces. On a
    /// failed job this holds whatever the stages recorded before the
    /// panic.
    pub telemetry: TelemetryReport,
}

/// A claim ticket for a submitted job.
#[derive(Debug)]
pub struct JobHandle {
    pub job_id: u64,
    rx: mpsc::Receiver<JobResult>,
}

impl JobHandle {
    /// Blocks until the job completes.
    pub fn wait(self) -> JobResult {
        self.rx.recv().expect("service dropped the job without replying")
    }
}

struct Job {
    id: u64,
    config: RunConfig,
    enqueued: Instant,
    tx: mpsc::Sender<JobResult>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The admission controller: a byte-budget semaphore over the simulated
/// device pool.
struct Admission {
    budget: u64,
    in_use: Mutex<u64>,
    cv: Condvar,
    peak: AtomicU64,
}

struct AdmissionPermit<'a> {
    admission: &'a Admission,
    bytes: u64,
}

impl Admission {
    fn new(budget: u64) -> Self {
        Self { budget, in_use: Mutex::new(0), cv: Condvar::new(), peak: AtomicU64::new(0) }
    }

    /// Blocks until `bytes` fit alongside the in-flight jobs, then
    /// charges them. A job bigger than the whole pool is admitted only
    /// when the pool is empty (exclusive run), never rejected — but its
    /// overshoot is visible in `serve.inflight_peak_bytes`.
    fn admit(&self, bytes: u64) -> (AdmissionPermit<'_>, std::time::Duration) {
        let t = Instant::now();
        let mut used = self.in_use.lock().unwrap();
        while !(*used + bytes <= self.budget || (*used == 0 && bytes > self.budget)) {
            used = self.cv.wait(used).unwrap();
        }
        *used += bytes;
        self.peak.fetch_max(*used, Ordering::Relaxed);
        drop(used);
        (AdmissionPermit { admission: self, bytes }, t.elapsed())
    }

    fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        *self.admission.in_use.lock().unwrap() -= self.bytes;
        self.admission.cv.notify_all();
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    cache: SetupCache,
    arenas: Mutex<Vec<SweepArena>>,
    admission: Admission,
    solve_threads: Option<usize>,
    next_id: AtomicU64,
    /// Service-wide aggregation, never installed: completed job sinks
    /// merge here, and the service's own counters/gauges/histograms
    /// (`serve.*`, `cache.*`) are recorded here and nowhere else.
    metrics: Telemetry,
}

/// The long-running solve service. Dropping it (or calling
/// [`SolveService::shutdown`]) drains the queue and joins the workers.
pub struct SolveService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SolveService {
    pub fn new(config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            cache: SetupCache::new(config.max_cached_setups),
            arenas: Mutex::new(Vec::new()),
            admission: Admission::new(config.device_pool_bytes.max(1)),
            solve_threads: config.solve_threads,
            next_id: AtomicU64::new(1),
            metrics: Telemetry::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("antmoc-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Validates and enqueues a request; returns a handle to wait on.
    /// Decomposed configurations are refused — setup sharing (and with it
    /// the whole service model) is single-domain.
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, SubmitError> {
        let config = request.into_config()?;
        if config.decomposition != (1, 1, 1) {
            return Err(SubmitError(
                "the solve service runs single-domain jobs; submit decomposed runs as one-shot \
                 `antmoc::run` calls"
                    .into(),
            ));
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let job = Job { id, config, enqueued: Instant::now(), tx };
        let mut q = self.shared.queue.lock().unwrap();
        if q.shutdown {
            return Err(SubmitError("service is shutting down".into()));
        }
        q.jobs.push_back(job);
        drop(q);
        self.shared.cv.notify_one();
        Ok(JobHandle { job_id: id, rx })
    }

    /// The high-water mark of concurrently admitted footprint bytes —
    /// the "never overcommitted" witness (compare against the configured
    /// pool).
    pub fn peak_inflight_bytes(&self) -> u64 {
        self.shared.admission.peak_bytes()
    }

    /// The service-wide aggregate: the service's own `serve.*` /
    /// `cache.*` series plus the merged sinks of every completed job.
    pub fn metrics(&self) -> &Telemetry {
        &self.shared.metrics
    }

    /// A point-in-time view of the whole service: the aggregate's text
    /// exposition.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot { metrics_text: self.shared.metrics.render_text() }
    }

    /// Finishes queued jobs, then stops the workers and joins them.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.cv.notify_all();
    }
}

/// A point-in-time view of the service, taken by
/// [`SolveService::snapshot`].
pub struct ServiceSnapshot {
    metrics_text: String,
}

impl ServiceSnapshot {
    /// The Prometheus-style text exposition of the service aggregate.
    pub fn render_text(&self) -> &str {
        &self.metrics_text
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.begin_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        let tx = job.tx.clone();
        let id = job.id;
        let result = run_job(shared, job);
        let _ = tx.send(JobResult { job_id: id, ..result });
    }
}

/// The per-job footprint charged against the device pool: the memory
/// model's working set for the problem (tracks, 2D segments, boundary
/// and scalar flux), the problem's attenuation table, the resident 3D
/// segment store, the exp table the arena builds for an `ExpMode::Table`
/// job, and the privatized per-worker tally buffers the sweep allocates.
fn job_footprint(config: &RunConfig, setup: &SolveSetup, workers: usize) -> u64 {
    let p = &setup.problem;
    let mm = MemoryModel {
        n_2d_tracks: p.layout.num_2d_tracks() as u64,
        n_3d_tracks: p.num_tracks() as u64,
        n_2d_segments: p.layout.num_2d_segments() as u64,
        n_3d_segments_stored: 0, // counted via stored_bytes below
        n_fsrs: p.num_fsrs() as u64,
        num_groups: p.num_groups() as u64,
        fixed: 0,
    };
    let tally_bytes = SweepTallies::Privatized { workers }.bytes(p.num_fsrs() * p.num_groups());
    let exp_bytes = match config.kernel.exp {
        ExpMode::Intrinsic => 0,
        ExpMode::Table => {
            ExpTable::bytes_for_tolerance(DEFAULT_TAU_MAX, config.kernel.exp_tolerance)
        }
    };
    mm.total_bytes() + p.attenuation_bytes() + setup.segsrc.stored_bytes() + exp_bytes + tally_bytes
}

/// Rough resident size of a cached setup, for the `cache.bytes` counter.
fn setup_bytes(setup: &SolveSetup) -> u64 {
    let p = &setup.problem;
    let mm = MemoryModel {
        n_2d_tracks: p.layout.num_2d_tracks() as u64,
        n_3d_tracks: p.num_tracks() as u64,
        n_2d_segments: p.layout.num_2d_segments() as u64,
        n_3d_segments_stored: 0,
        n_fsrs: p.num_fsrs() as u64,
        num_groups: p.num_groups() as u64,
        fixed: 0,
    };
    mm.total_bytes() + p.attenuation_bytes() + setup.segsrc.stored_bytes()
}

fn run_job(shared: &Shared, job: Job) -> JobResult {
    // Service-level series go to the service aggregate only, so `serve.*`
    // / `cache.*` never leak into the job's own report.
    let Job { id, config, enqueued, .. } = job;
    let pickup_wait = enqueued.elapsed();
    shared.metrics.counter_add("serve.jobs", 1);

    // Everything the pipeline records while this job runs lands in a
    // job-scoped sink, installed on this worker thread and inherited by
    // the sweep's thread team — exactly what a one-shot run records
    // into the global instance.
    let sink = Telemetry::new();
    let sink_guard = sink.install();
    antmoc::record_run_meta(&config);

    // Stage 1: content-addressed setup.
    let key = cache::cache_key(&config);
    let t_setup = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        shared.cache.get_or_build(key, || antmoc::build_setup(&config))
    }));
    let (setup, cache_hit) = match built {
        Ok(pair) => pair,
        Err(panic) => {
            // Honest stats even on the panic path: the queue wait and
            // the time burned in setup before it blew up.
            let stats = JobStats {
                queue_wait_s: pickup_wait.as_secs_f64(),
                setup_s: t_setup.elapsed().as_secs_f64(),
                ..Default::default()
            };
            return fail_job(shared, id, panic_message(panic), stats, sink.report());
        }
    };
    let setup_s = t_setup.elapsed().as_secs_f64();
    if cache_hit {
        shared.metrics.counter_add("cache.hit", 1);
    } else {
        shared.metrics.counter_add("cache.miss", 1);
        shared.metrics.counter_add("cache.bytes", setup_bytes(&setup));
    }

    // Stage 2: admission against the device pool.
    let solve_workers = shared.solve_threads.unwrap_or_else(rayon::current_num_threads);
    let footprint = job_footprint(&config, &setup, solve_workers);
    let (permit, admission_wait) = shared.admission.admit(footprint);
    let queue_wait = pickup_wait + admission_wait;
    shared.metrics.histogram_record("serve.queue_wait_ns", queue_wait.as_nanos() as u64);
    shared.metrics.gauge_set("serve.inflight_peak_bytes", shared.admission.peak_bytes() as f64);

    // Stage 3: solve on a pooled arena.
    let arena = shared
        .arenas
        .lock()
        .unwrap()
        .pop()
        .unwrap_or_else(|| SweepArena::new(config.kernel.clone()));
    let t_solve = Instant::now();
    let solved = catch_unwind(AssertUnwindSafe(|| match shared.solve_threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(|| antmoc::run_with_setup_arena(&config, &setup, arena)),
        None => antmoc::run_with_setup_arena(&config, &setup, arena),
    }));
    let solve_s = t_solve.elapsed().as_secs_f64();
    drop(permit);

    let stats = JobStats {
        cache_hit,
        queue_wait_s: queue_wait.as_secs_f64(),
        setup_s,
        solve_s,
        footprint_bytes: footprint,
    };
    match solved {
        Ok((report, arena)) => {
            {
                let mut pool = shared.arenas.lock().unwrap();
                // A few spare arenas cover the worker pool; beyond that,
                // freeing beats hoarding (mirrors the phi pool's policy).
                if pool.len() < 4 {
                    pool.push(arena);
                }
            }
            // The job is done recording: close the scope, take the
            // report, and fold the sink into the service aggregate.
            drop(sink_guard);
            let telemetry = sink.report();
            sink.merge_into(&shared.metrics);
            JobResult { job_id: id, outcome: Ok(report), stats, telemetry }
        }
        // The arena checked out by a panicked solve is dropped with the
        // panic payload; the pool refills lazily.
        Err(panic) => fail_job(shared, id, panic_message(panic), stats, sink.report()),
    }
}

/// The failure tail of [`run_job`]: count the failure and hand back the
/// panic message, the partial stats and the partial job telemetry. A
/// failed sink is *not* merged into the aggregate — only completed jobs
/// contribute there.
fn fail_job(
    shared: &Shared,
    id: u64,
    message: String,
    stats: JobStats,
    telemetry: TelemetryReport,
) -> JobResult {
    shared.metrics.counter_add("serve.jobs_failed", 1);
    JobResult { job_id: id, outcome: Err(JobError::Panicked(message)), stats, telemetry }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A canonical, bit-exact rendering of the physics outputs of a report —
/// the identity the service guarantees against one-shot runs. Floats are
/// rendered as exact bit patterns: two reports have equal signatures iff
/// keff, iteration count, convergence, pin rates, and per-material fluxes
/// are bitwise identical. Timings and other wall-clock fields are
/// excluded by construction.
pub fn report_signature(report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "keff={:016x};it={};conv={};fsrs={};t2={};t3={};seg3={};",
        report.keff.to_bits(),
        report.iterations,
        report.converged,
        report.num_fsrs,
        report.num_2d_tracks,
        report.num_3d_tracks,
        report.num_3d_segments
    );
    let _ = write!(s, "pins=");
    for (addr, rate) in report.pin_rates.entries() {
        let _ = write!(
            s,
            "{}.{}/{}.{}:{:016x},",
            addr.assembly.0,
            addr.assembly.1,
            addr.pin.0,
            addr.pin.1,
            rate.to_bits()
        );
    }
    let _ = write!(s, ";flux=");
    for (mat, flux) in &report.material_flux {
        let _ = write!(s, "{mat}:");
        for v in flux {
            let _ = write!(s, "{:016x},", v.to_bits());
        }
        let _ = write!(s, "|");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> RunConfig {
        RunConfig::parse(
            "[model]\naxial_dz = 64.26\n[tracks]\nnum_azim = 4\nradial_spacing = 2.5\n\
             num_polar = 2\naxial_spacing = 60.0\n[solver]\ntolerance = 1e-3\n\
             max_iterations = 60\nmode = otf\nbackend = cpu\n",
        )
        .unwrap()
    }

    fn tiny_request() -> SolveRequest {
        SolveRequest::Config(Box::new(tiny_config()))
    }

    #[test]
    fn submit_rejects_malformed_and_decomposed_requests() {
        let service = SolveService::new(ServeConfig { workers: 1, ..Default::default() });
        assert!(service
            .submit(SolveRequest::CaseToml("[tracks]\nnum_azim = banana\n".into()))
            .is_err());
        let cfg = RunConfig { decomposition: (2, 1, 1), ..Default::default() };
        let err = service.submit(SolveRequest::Config(Box::new(cfg))).unwrap_err();
        assert!(err.0.contains("single-domain"), "{err}");
        // A case file may declare a decomposition; the service still
        // refuses it.
        let case = include_str!("../../../cases/c5g7_pipelined.toml");
        let err = service.submit(SolveRequest::CaseToml(case.into())).unwrap_err();
        assert!(err.0.contains("single-domain"), "{err}");
        service.shutdown();
    }

    #[test]
    fn service_report_is_bitwise_identical_to_one_shot_run() {
        let config = tiny_config();
        let serial = antmoc::run(&config);
        let service = SolveService::new(ServeConfig { workers: 2, ..Default::default() });
        let handles: Vec<_> = (0..3).map(|_| service.submit(tiny_request()).unwrap()).collect();
        for h in handles {
            let result = h.wait();
            let report = result.outcome.expect("job solved");
            assert_eq!(
                report_signature(&report),
                report_signature(&serial),
                "service job diverged from the one-shot run"
            );
        }
        service.shutdown();
    }

    #[test]
    fn warm_jobs_hit_the_cache() {
        let service = SolveService::new(ServeConfig { workers: 1, ..Default::default() });
        let cold = service.submit(tiny_request()).unwrap().wait();
        assert!(!cold.stats.cache_hit);
        let warm = service.submit(tiny_request()).unwrap().wait();
        assert!(warm.stats.cache_hit, "identical config must reuse the setup");
        assert!(warm.stats.setup_s <= cold.stats.setup_s);
        assert_eq!(service.metrics().counter_value("cache.miss"), 1);
        assert_eq!(service.metrics().counter_value("cache.hit"), 1);
        service.shutdown();
    }

    #[test]
    fn admission_serializes_over_budget_job_mixes() {
        // A pool sized for ~1.5 jobs: two concurrent jobs must never be
        // in flight together, and the peak proves it.
        let config = tiny_config();
        let setup = antmoc::build_setup(&config);
        let one = job_footprint(&config, &setup, rayon::current_num_threads());
        let service = SolveService::new(ServeConfig {
            workers: 4,
            device_pool_bytes: one + one / 2,
            ..Default::default()
        });
        let handles: Vec<_> = (0..4).map(|_| service.submit(tiny_request()).unwrap()).collect();
        for h in handles {
            assert!(h.wait().outcome.is_ok());
        }
        let peak = service.peak_inflight_bytes();
        assert!(peak <= one + one / 2, "pool overcommitted: peak {peak} budget {}", one + one / 2);
        assert!(peak >= one, "at least one job must have been admitted");
        service.shutdown();
    }

    #[test]
    fn zero_byte_pool_admits_each_job_alone() {
        // Every job overshoots a zero-byte pool (its budget clamps to one
        // byte), so each is admitted only into an empty pool: both jobs
        // complete, one at a time, and the peak is the larger footprint,
        // never the sum. Each footprint includes the problem's table.
        let otf = tiny_config();
        let explicit = RunConfig { mode: antmoc_solver::StorageMode::Explicit, ..tiny_config() };
        let workers = rayon::current_num_threads();
        let footprints: Vec<u64> = [&otf, &explicit]
            .into_iter()
            .map(|config| {
                let setup = antmoc::build_setup(config);
                let table = setup.problem.attenuation_bytes();
                let footprint = job_footprint(config, &setup, workers);
                assert!(table > 0 && footprint > table + setup.segsrc.stored_bytes());
                footprint
            })
            .collect();
        assert!(footprints[1] > footprints[0], "the stored job must be the larger one");
        let service = SolveService::new(ServeConfig {
            workers: 2,
            device_pool_bytes: 0,
            ..Default::default()
        });
        let handles: Vec<_> = [otf, explicit]
            .into_iter()
            .map(|config| service.submit(SolveRequest::Config(Box::new(config))).unwrap())
            .collect();
        for (h, &footprint) in handles.into_iter().zip(&footprints) {
            let r = h.wait();
            assert!(r.outcome.is_ok(), "a job over the pool must run alone, not fail");
            assert_eq!(r.stats.footprint_bytes, footprint);
        }
        assert_eq!(service.peak_inflight_bytes(), footprints[1]);
        let gauge = service.metrics().report().gauges["serve.inflight_peak_bytes"].high_water;
        assert_eq!(gauge, footprints[1] as f64);
        service.shutdown();
    }

    #[test]
    fn panicked_jobs_fail_cleanly_and_the_worker_survives() {
        let service = SolveService::new(ServeConfig { workers: 1, ..Default::default() });
        // The parser rejects a zero azimuthal count, so only a config
        // built in code reaches the tracker with one — and it panics there.
        let mut cfg = tiny_config();
        cfg.tracks.num_azim = 0;
        let r = service.submit(SolveRequest::Config(Box::new(cfg))).unwrap().wait();
        match &r.outcome {
            Err(JobError::Panicked(message)) => assert!(!message.is_empty()),
            Ok(_) => panic!("a zero azimuthal count must fail the job"),
        }
        // Honest stats on the panic path: the setup stage ran (and blew
        // up), so its elapsed time must be reported, not zeroed.
        assert!(r.stats.setup_s > 0.0, "setup_s dropped on the panic path");
        // The worker is still alive and solves the next job.
        let ok = service.submit(tiny_request()).unwrap().wait();
        assert!(ok.outcome.is_ok());
        // The aggregate counts both jobs and the one failure.
        assert_eq!(service.metrics().counter_value("serve.jobs"), 2);
        assert_eq!(service.metrics().counter_value("serve.jobs_failed"), 1);
        service.shutdown();
    }

    #[test]
    fn snapshot_exposes_the_metrics_registry() {
        let service = SolveService::new(ServeConfig { workers: 2, ..Default::default() });
        let handles: Vec<_> = (0..3).map(|_| service.submit(tiny_request()).unwrap()).collect();
        for h in handles {
            assert!(h.wait().outcome.is_ok());
        }
        let snap = service.snapshot();
        let text = snap.render_text();
        antmoc_telemetry::metrics::validate_exposition(text).expect("exposition parses");
        assert!(text.contains("serve_jobs_total 3"), "missing serve_jobs_total:\n{text}");
        assert!(text.contains("serve_queue_wait_ns_bucket{le="), "missing queue-wait buckets");
        assert!(text.contains("serve_queue_wait_ns_count 3"));
        service.shutdown();
    }

    #[test]
    fn shutdown_finishes_every_queued_job() {
        // One worker, several jobs queued behind the first: shutdown must
        // drain the queue, so every handle gets its report.
        let service = SolveService::new(ServeConfig { workers: 1, ..Default::default() });
        let handles: Vec<_> = (0..4).map(|_| service.submit(tiny_request()).unwrap()).collect();
        service.shutdown();
        for h in handles {
            assert!(h.wait().outcome.is_ok(), "a queued job was dropped by shutdown");
        }
    }

    #[test]
    fn job_telemetry_matches_one_shot_and_registry_sums_the_sinks() {
        let config = tiny_config();
        // One-shot baseline recorded into a scoped sink of its own, so
        // the comparison is sink-report against sink-report.
        let baseline = {
            let sink = Telemetry::new();
            let guard = sink.install();
            let _ = antmoc::run(&config);
            drop(guard);
            sink.report()
        };
        let service = SolveService::new(ServeConfig { workers: 1, ..Default::default() });
        let r = service.submit(tiny_request()).unwrap().wait();
        assert!(r.outcome.is_ok());
        assert_eq!(
            r.telemetry.deterministic_digest(),
            baseline.deterministic_digest(),
            "job-scoped report diverged from the one-shot run"
        );
        // With a single completed job, the aggregate's job-sourced series
        // must equal the sink exactly (counters bit-for-bit, histograms
        // sample-for-sample).
        let aggregate = service.metrics().report();
        for (name, &value) in &r.telemetry.counters {
            assert_eq!(aggregate.counter(name), value, "counter {name}");
        }
        for (name, summary) in &r.telemetry.histograms {
            assert_eq!(aggregate.histograms.get(name), Some(summary), "histogram {name}");
        }
        service.shutdown();
    }
}
