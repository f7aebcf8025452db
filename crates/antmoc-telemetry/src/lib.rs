//! Run telemetry: scoped spans, counters, and gauges feeding a
//! machine-readable [`RunReport`].
//!
//! The paper's entire results section (§5, Figs. 8–12) is read off run
//! logs — per-phase wall time, sweep throughput, memory footprint, and
//! communication traffic. This crate is the measurement substrate those
//! numbers flow through:
//!
//! * [`Telemetry::span`] — RAII wall timers; nested spans produce
//!   `/`-joined paths (`eigen/transport_sweep`) and aggregate count,
//!   total, min, and max per path, thread-safely.
//! * [`Telemetry::counter_add`] — saturating event totals (segments
//!   swept, tracks traced, comm bytes, atomic-add contention).
//! * [`Telemetry::gauge_set`] — level samples retaining a high-water
//!   mark (resident-segment bytes, flux-bank memory, pool usage).
//! * [`Telemetry::report`] — snapshots everything into a [`RunReport`]
//!   that serializes to pretty JSON (see `report.rs` for the schema).
//!
//! Handles are cheap clones of an `Arc`. Library hot paths record into
//! [`Telemetry::current`]: the innermost instance installed on the
//! calling thread via [`Telemetry::install`], falling back to the
//! process-wide [`Telemetry::global`] when nothing is installed. One-shot
//! binaries record into the global instance and call `report()` at the
//! end, with no handle threading; multi-tenant drivers like
//! `antmoc-serve` install a private sink per job so concurrent runs never
//! entangle their reports. Installed contexts follow work onto the rayon
//! shim's spawned workers via its region-context hooks, so parallel
//! regions record into the job that drove them.
//!
//! A service aggregates completed sinks into one more, never-installed
//! `Telemetry` with [`Telemetry::merge_into`] (saturating counters, gauge
//! high-waters, bucket-exact histogram merges), records its own series
//! there, and renders it as Prometheus-style text with
//! [`Telemetry::render_text`] (see [`metrics`]). It keeps totals, not
//! rates.

pub mod hist;
pub mod json;
pub mod metrics;
mod report;
pub mod trace;

pub use hist::{Histogram, HistogramSummary};
pub use json::Json;
pub use report::{is_noisy, GaugeStats, RunReport, SpanStats};
pub use trace::{TraceEvent, DEFAULT_TRACE_CAPACITY};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use trace::TraceCollector;

/// One registry's span-name stack on one thread.
struct ThreadSpanStack {
    registry: u64,
    stack: Vec<&'static str>,
}

thread_local! {
    /// Active span-name stacks on this thread, one per registry; drives
    /// path nesting. Keyed by registry id so private test instances and
    /// the global instance never interleave paths.
    static SPAN_STACKS: RefCell<Vec<ThreadSpanStack>> = const { RefCell::new(Vec::new()) };

    /// Stack of telemetry instances installed on this thread; the top is
    /// what [`Telemetry::current`] resolves to. A stack (not a slot) so
    /// nested installs — a job sink installed inside a test that already
    /// installed one — restore correctly.
    static CURRENT: RefCell<Vec<Telemetry>> = const { RefCell::new(Vec::new()) };
}

/// Registers the rayon-shim region-context hooks that carry the
/// installed telemetry context onto spawned worker threads. Runs once,
/// lazily, on the first `install()`: processes that never scope their
/// telemetry never pay for (or interfere with) propagation.
fn register_worker_propagation() {
    use std::any::Any;
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        rayon::set_region_context_hooks(
            || Telemetry::try_current().map(|t| Box::new(t) as Box<dyn Any + Send + Sync>),
            |ctx| {
                let t = ctx.downcast_ref::<Telemetry>().expect("telemetry region context");
                Box::new(t.install())
            },
        );
    });
}

/// RAII guard from [`Telemetry::install`]; uninstalls the scoped context
/// (restoring the previous one) on drop. Deliberately `!Send`: the
/// context is a property of the installing thread, and dropping the
/// guard elsewhere would unbalance that thread's stack.
pub struct ScopeGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Runs `f` on this thread's span-name stack for `registry`.
fn with_span_stack<R>(registry: u64, f: impl FnOnce(&mut Vec<&'static str>) -> R) -> R {
    SPAN_STACKS.with(|cell| {
        let mut stacks = cell.borrow_mut();
        // Drop finished stacks of other registries so long-lived threads
        // touching many short-lived instances stay bounded.
        stacks.retain(|s| s.registry == registry || !s.stack.is_empty());
        let idx = match stacks.iter().position(|s| s.registry == registry) {
            Some(i) => i,
            None => {
                stacks.push(ThreadSpanStack { registry, stack: Vec::new() });
                stacks.len() - 1
            }
        };
        f(&mut stacks[idx].stack)
    })
}

struct Registry {
    /// Process-unique id; keys the per-thread span stacks and trace
    /// buffers so distinct instances stay isolated.
    id: u64,
    spans: Mutex<BTreeMap<String, SpanStats>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, GaugeStats>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
    iterations: Mutex<Vec<Json>>,
    meta: Mutex<BTreeMap<String, Json>>,
    sections: Mutex<BTreeMap<String, Json>>,
    trace: Arc<TraceCollector>,
}

impl Default for Registry {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            spans: Mutex::default(),
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
            iterations: Mutex::default(),
            meta: Mutex::default(),
            sections: Mutex::default(),
            trace: Arc::new(TraceCollector::new()),
        }
    }
}

/// A cloneable handle to a telemetry registry.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Arc<Registry>,
}

impl Telemetry {
    /// A fresh, private registry (used by tests and tools that must not
    /// share state with the global instance).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry — the fallback sink when no scoped
    /// instance is installed.
    pub fn global() -> &'static Telemetry {
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        GLOBAL.get_or_init(Telemetry::new)
    }

    /// Installs this instance as the calling thread's telemetry context
    /// for the lifetime of the returned guard: [`Telemetry::current`]
    /// resolves to it, on this thread and on every rayon-shim worker a
    /// parallel region driven from this thread spawns. Installs nest;
    /// dropping the guard restores the previous context.
    pub fn install(&self) -> ScopeGuard {
        register_worker_propagation();
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        ScopeGuard { _not_send: std::marker::PhantomData }
    }

    /// The innermost instance installed on this thread, if any.
    fn try_current() -> Option<Telemetry> {
        CURRENT.with(|c| c.borrow().last().cloned())
    }

    /// The telemetry instance library code should record into: the
    /// innermost installed context, else a handle to the global
    /// instance. One-shot binaries that never `install()` see exactly
    /// the old global behavior.
    pub fn current() -> Telemetry {
        Self::try_current().unwrap_or_else(|| Telemetry::global().clone())
    }

    /// Opens a RAII span. While the guard lives, spans opened on the
    /// same thread nest under it; dropping the guard records the elapsed
    /// wall time against the `/`-joined path.
    ///
    /// Names are `&'static str` on purpose: hot paths must not allocate
    /// to be observable.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let path = with_span_stack(self.registry.id, |stack| {
            stack.push(name);
            stack.join("/")
        });
        SpanGuard { telemetry: self.clone(), path: Some(path), start: Instant::now() }
    }

    /// Adds to a counter, saturating at `u64::MAX` (a tripped counter
    /// must pin at the ceiling, not wrap to a tiny value and fake a
    /// quiet run).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut counters = self.registry.counters.lock();
        let slot = counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Current value of a counter (0 if it has never been touched).
    /// Drivers snapshot this around a sweep to attribute deltas (e.g.
    /// CAS retries per iteration) in their iteration rows.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.registry.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge's current level and folds it into the high-water
    /// mark.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let mut gauges = self.registry.gauges.lock();
        let slot = gauges.entry(name).or_default();
        slot.last = value;
        slot.high_water = slot.high_water.max(value);
    }

    /// Records one sample into a named log-bucketed histogram (typically
    /// nanoseconds; see [`Histogram`]). Takes the registry lock — on hot
    /// paths, record into a private per-worker [`Histogram`] shard and
    /// fold it in once via [`Telemetry::histogram_merge`].
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        self.registry.histograms.lock().entry(name).or_default().record(value);
    }

    /// Folds a privately recorded shard into a named histogram; merging
    /// is exact (see [`Histogram::merge`]). Empty shards are a no-op.
    pub fn histogram_merge(&self, name: &'static str, shard: &Histogram) {
        if shard.is_empty() {
            return;
        }
        self.registry.histograms.lock().entry(name).or_default().merge(shard);
    }

    /// Appends one row to the per-iteration convergence series (the
    /// report's `iterations` array). Rows are free-form JSON objects —
    /// solvers record what they have (k-eff, residual, sweep seconds,
    /// segments) in execution order.
    pub fn append_iteration(&self, row: Json) {
        self.registry.iterations.lock().push(row);
    }

    /// Turns event-timeline tracing on or off and sets the global event
    /// budget (hard memory cap; see [`trace`]). Enabling pins the trace
    /// time origin. Off by default: with tracing off every recording
    /// call is a single relaxed atomic load.
    pub fn set_tracing(&self, enabled: bool, capacity_events: usize) {
        self.registry.trace.set_enabled(enabled, capacity_events);
    }

    /// Whether event-timeline tracing is currently enabled.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.registry.trace.enabled()
    }

    /// Records an instant event (a tick mark on this thread's timeline).
    /// No-op (one atomic load) when tracing is off.
    pub fn trace_instant(&self, name: &str, args: &[(&str, Json)]) {
        if !self.trace_enabled() {
            return;
        }
        self.registry.trace.record(
            self.registry.id,
            TraceEvent {
                name: name.to_string(),
                ph: 'i',
                ts_us: trace::now_us(),
                dur_us: 0,
                args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            },
        );
    }

    /// Records a complete (`ph: "X"`) slice from an existing caller-side
    /// timer — hot paths that already hold an `Instant` for histogram
    /// timing can reuse it instead of opening a [`Telemetry::trace_scope`]
    /// (one fewer clock read). No-op when tracing is off.
    pub fn trace_complete_since(&self, name: &str, start: Instant, args: &[(&str, Json)]) {
        if !self.trace_enabled() {
            return;
        }
        self.registry.trace.record(
            self.registry.id,
            TraceEvent {
                name: name.to_string(),
                ph: 'X',
                ts_us: trace::instant_us(start),
                dur_us: start.elapsed().as_micros() as u64,
                args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            },
        );
    }

    /// Opens a RAII timeline slice; dropping the guard records one
    /// complete (`ph: "X"`) event covering the scope. Unlike
    /// [`Telemetry::span`] this leaves the span aggregates untouched —
    /// use it where a timeline entry is wanted without a new span path.
    /// Inert (one atomic load, no allocation) when tracing is off.
    pub fn trace_scope(&self, name: &str, args: &[(&str, Json)]) -> TraceScope {
        if !self.trace_enabled() {
            return TraceScope {
                telemetry: None,
                name: String::new(),
                args: Vec::new(),
                start: None,
            };
        }
        TraceScope {
            telemetry: Some(self.clone()),
            name: name.to_string(),
            args: args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            start: Some(Instant::now()),
        }
    }

    /// The Chrome `trace_event` document for everything traced so far.
    pub fn trace_json(&self) -> Json {
        self.registry.trace.to_chrome_json()
    }

    /// Writes the Chrome trace JSON artifact, creating parent
    /// directories (open the file in `chrome://tracing` or Perfetto).
    pub fn write_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.trace_json().to_pretty_string())
    }

    /// Attaches run identification carried into the report.
    pub fn set_meta(&self, key: &str, value: &str) {
        self.registry.meta.lock().insert(key.to_string(), Json::Str(value.to_string()));
    }

    /// Attaches a numeric metadata entry.
    pub fn set_meta_num(&self, key: &str, value: f64) {
        self.registry.meta.lock().insert(key.to_string(), Json::Num(value));
    }

    /// Attaches a free-form JSON section (e.g. a neutron-balance
    /// report) carried into the report.
    pub fn set_section(&self, name: &str, value: Json) {
        self.registry.sections.lock().insert(name.to_string(), value);
    }

    /// Snapshots all aggregates into a serializable report.
    pub fn report(&self) -> RunReport {
        let mut counters: BTreeMap<String, u64> =
            self.registry.counters.lock().iter().map(|(&k, &v)| (k.to_string(), v)).collect();
        // Trace health surfaces as counters so report-diff can gate on
        // event loss without parsing the trace file itself.
        let stored = self.registry.trace.stored() as u64;
        let dropped = self.registry.trace.dropped();
        if stored > 0 || dropped > 0 {
            counters.insert("trace.events".to_string(), stored);
            counters.insert("trace.dropped".to_string(), dropped);
        }
        RunReport {
            meta: self.registry.meta.lock().clone(),
            spans: self.registry.spans.lock().clone(),
            counters,
            gauges: self.registry.gauges.lock().iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
            histograms: self
                .registry
                .histograms
                .lock()
                .iter()
                .map(|(&k, h)| (k.to_string(), h.summary()))
                .collect(),
            iterations: self.registry.iterations.lock().clone(),
            sections: self.registry.sections.lock().clone(),
        }
    }

    fn record_span(&self, path: &str, seconds: f64) {
        self.registry.spans.lock().entry(path.to_string()).or_default().record(seconds);
    }
}

/// RAII guard created by [`Telemetry::span`]; records on drop. Owns a
/// handle (an `Arc` clone) so spans can be opened on temporaries like
/// `Telemetry::current().span("phase")`.
pub struct SpanGuard {
    telemetry: Telemetry,
    /// `Some` until the guard fires; `take`n in drop.
    path: Option<String>,
    start: Instant,
}

impl SpanGuard {
    /// The `/`-joined path this guard will record under.
    pub fn path(&self) -> &str {
        self.path.as_deref().unwrap_or("")
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else { return };
        let registry = &self.telemetry.registry;
        with_span_stack(registry.id, |stack| {
            stack.pop();
        });
        let elapsed = self.start.elapsed();
        self.telemetry.record_span(&path, elapsed.as_secs_f64());
        if self.telemetry.trace_enabled() {
            // Spans double as timeline slices, so enabling tracing lights
            // up every already-instrumented phase for free.
            registry.trace.record(
                registry.id,
                TraceEvent {
                    name: path,
                    ph: 'X',
                    ts_us: trace::instant_us(self.start),
                    dur_us: elapsed.as_micros() as u64,
                    args: Vec::new(),
                },
            );
        }
    }
}

/// RAII guard created by [`Telemetry::trace_scope`]; emits one complete
/// timeline event on drop (and nothing when tracing was off at open).
pub struct TraceScope {
    telemetry: Option<Telemetry>,
    name: String,
    args: Vec<(String, Json)>,
    start: Option<Instant>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let (Some(telemetry), Some(start)) = (self.telemetry.take(), self.start) else { return };
        let registry = &telemetry.registry;
        registry.trace.record(
            registry.id,
            TraceEvent {
                name: std::mem::take(&mut self.name),
                ph: 'X',
                ts_us: trace::instant_us(start),
                dur_us: start.elapsed().as_micros() as u64,
                args: std::mem::take(&mut self.args),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_slash_paths() {
        let t = Telemetry::new();
        {
            let _outer = t.span("eigen");
            {
                let _inner = t.span("transport_sweep");
            }
            {
                let _inner = t.span("transport_sweep");
            }
        }
        let r = t.report();
        assert_eq!(r.spans["eigen"].count, 1);
        assert_eq!(r.spans["eigen/transport_sweep"].count, 2);
        assert!(r.spans["eigen"].total_s >= r.spans["eigen/transport_sweep"].total_s);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let t = Telemetry::new();
        {
            let _a = t.span("a");
        }
        {
            let _b = t.span("b");
        }
        let r = t.report();
        assert!(r.spans.contains_key("a"));
        assert!(r.spans.contains_key("b"));
        assert!(!r.spans.contains_key("a/b"));
    }

    #[test]
    fn spans_aggregate_across_rayon_worker_threads() {
        use rayon::prelude::*;
        let t = Telemetry::new();
        let _outer = t.span("launch");
        // Spawned workers have fresh span stacks, so their spans are
        // roots ("kernel"); the calling thread also executes tasks and
        // its stack still holds "launch", so its spans nest
        // ("launch/kernel"). How the 64 items split between the two is
        // scheduling-dependent — what must hold is that every completion
        // lands in the shared aggregate, none lost.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                let _s = t.span("kernel");
            });
        });
        drop(_outer);
        let r = t.report();
        let count = |path: &str| r.spans.get(path).map_or(0, |s| s.count);
        assert_eq!(count("kernel") + count("launch/kernel"), 64);
        assert_eq!(r.spans["launch"].count, 1);
        for s in ["kernel", "launch/kernel"] {
            if let Some(s) = r.spans.get(s) {
                assert!(s.min_s <= s.max_s);
            }
        }
    }

    #[test]
    fn install_scopes_current_and_restores_on_drop() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        // Nothing installed: current() falls back to the global instance.
        assert!(Telemetry::try_current().is_none());
        assert!(Arc::ptr_eq(&Telemetry::current().registry, &Telemetry::global().registry));
        {
            let _ga = a.install();
            assert!(Arc::ptr_eq(&Telemetry::current().registry, &a.registry));
            {
                let _gb = b.install();
                assert!(Arc::ptr_eq(&Telemetry::current().registry, &b.registry));
            }
            // Nested install popped; the outer context is back.
            assert!(Arc::ptr_eq(&Telemetry::current().registry, &a.registry));
        }
        assert!(Telemetry::try_current().is_none());
    }

    #[test]
    fn installed_context_reaches_rayon_workers() {
        use rayon::prelude::*;
        let sink = Telemetry::new();
        let _g = sink.install();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            (0..1000usize).into_par_iter().for_each(|_| {
                Telemetry::current().counter_add("ctx.items", 1);
            });
        });
        // Every item — including those executed on spawned workers —
        // recorded into the installed sink, none into the global.
        assert_eq!(sink.report().counter("ctx.items"), 1000);
        assert_eq!(Telemetry::global().counter_value("ctx.items"), 0);
    }

    #[test]
    fn concurrent_installs_stay_thread_isolated() {
        std::thread::scope(|s| {
            for tag in 0..4u64 {
                s.spawn(move || {
                    let sink = Telemetry::new();
                    let _g = sink.install();
                    for _ in 0..100 {
                        Telemetry::current().counter_add("ctx.tagged", tag + 1);
                    }
                    assert_eq!(sink.report().counter("ctx.tagged"), 100 * (tag + 1));
                });
            }
        });
        assert_eq!(Telemetry::global().counter_value("ctx.tagged"), 0);
    }

    #[test]
    fn span_guard_outlives_its_temporary_handle() {
        let sink = Telemetry::new();
        let _g = sink.install();
        {
            // The handle `current()` returns is a temporary; the guard
            // must own its clone to record on drop.
            let _s = Telemetry::current().span("owned");
        }
        assert_eq!(sink.report().spans["owned"].count, 1);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let t = Telemetry::new();
        t.counter_add("big", u64::MAX - 1);
        t.counter_add("big", 10);
        t.counter_add("big", 10);
        assert_eq!(t.report().counter("big"), u64::MAX);
    }

    #[test]
    fn counters_accumulate_from_many_threads() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(t.report().counter("hits"), 8000);
    }

    #[test]
    fn gauges_keep_high_water() {
        let t = Telemetry::new();
        t.gauge_set("pool", 100.0);
        t.gauge_set("pool", 400.0);
        t.gauge_set("pool", 50.0);
        let g = t.report().gauges["pool"];
        assert_eq!(g.last, 50.0);
        assert_eq!(g.high_water, 400.0);
    }

    #[test]
    fn instances_do_not_share_span_nesting() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        let _outer = a.span("outer");
        {
            let _inner = b.span("inner");
        }
        assert!(b.report().spans.contains_key("inner"), "instance b sees its own root span");
        assert!(!b.report().spans.contains_key("outer/inner"));
    }

    #[test]
    fn histogram_shards_merge_into_the_registry() {
        let t = Telemetry::new();
        let mut shard_a = Histogram::new();
        let mut shard_b = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                shard_a.record(v)
            } else {
                shard_b.record(v)
            }
        }
        t.histogram_merge("lat", &shard_a);
        t.histogram_merge("lat", &shard_b);
        t.histogram_record("lat", 1_000_000);
        let h = t.report().histograms["lat"];
        assert_eq!(h.count, 101);
        assert!(h.max >= 1_000_000);
        // Empty shards merge as a no-op (no entry created).
        t.histogram_merge("untouched", &Histogram::new());
        assert!(!t.report().histograms.contains_key("untouched"));
    }

    #[test]
    fn iteration_rows_keep_execution_order() {
        let t = Telemetry::new();
        for it in 1..=3u64 {
            t.append_iteration(Json::Obj(vec![("it".into(), Json::Uint(it))]));
        }
        let rows = t.report().iterations;
        let its: Vec<_> =
            rows.iter().map(|r| r.get("it").and_then(Json::as_u64).unwrap()).collect();
        assert_eq!(its, vec![1, 2, 3]);
    }

    #[test]
    fn tracing_feeds_spans_scopes_and_counters() {
        let t = Telemetry::new();
        t.set_tracing(true, 1024);
        {
            let _s = t.span("sweep");
        }
        {
            let _ts = t.trace_scope("exchange", &[("bytes", Json::Uint(4096))]);
        }
        t.trace_instant("checkpoint", &[("it", Json::Uint(7))]);
        let doc = t.trace_json();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("no traceEvents") };
        let names: Vec<_> =
            events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"sweep"), "span slice missing: {names:?}");
        assert!(names.contains(&"exchange"));
        assert!(names.contains(&"checkpoint"));
        let r = t.report();
        assert_eq!(r.counter("trace.events"), 3);
        assert_eq!(r.counter("trace.dropped"), 0);
        // Spans still aggregate normally alongside the timeline.
        assert_eq!(r.spans["sweep"].count, 1);
    }

    #[test]
    fn tracing_off_records_no_events_or_counters() {
        let t = Telemetry::new();
        {
            let _s = t.span("sweep");
        }
        t.trace_instant("tick", &[]);
        let _ = t.trace_scope("scope", &[]);
        let r = t.report();
        assert_eq!(r.counter("trace.events"), 0);
        assert!(!r.counters.contains_key("trace.events"));
        let Some(Json::Arr(events)) = t.trace_json().get("traceEvents").cloned() else {
            panic!("no traceEvents")
        };
        assert!(events.is_empty());
    }

    #[test]
    fn full_report_round_trips_through_json() {
        let t = Telemetry::new();
        t.set_meta("case", "unit");
        {
            let _s = t.span("phase");
            t.counter_add("segments", 12345);
            t.gauge_set("bytes", 9.5e6);
        }
        let r = t.report();
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.counter("segments"), 12345);
        assert_eq!(back.spans["phase"].count, 1);
        assert_eq!(back.gauges["bytes"].high_water, 9.5e6);
        assert_eq!(back.meta["case"], Json::Str("unit".into()));
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_counter_sets_round_trip(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..20)
        ) {
            let t = Telemetry::new();
            // Distinct static names are limited; fold values into one
            // counter and compare the saturating sum.
            let mut expected: u64 = 0;
            for v in &values {
                t.counter_add("acc", *v);
                expected = expected.saturating_add(*v);
            }
            let r = t.report();
            let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
            proptest::prop_assert_eq!(back.counter("acc"), expected);
        }
    }
}
