//! Bounded per-thread event timelines exported as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! Aggregate spans answer "how long did sweeps take overall"; a timeline
//! answers "what was worker 3 doing while worker 0 finished its slice" —
//! the view the paper's load-balance analysis (§5.4) is really about.
//! Design constraints, in order:
//!
//! 1. **The hot path must never block or allocate when tracing is off.**
//!    Every recording call starts with one relaxed atomic load; disabled
//!    tracing costs nothing else.
//! 2. **Memory is hard-capped.** A global event budget is reserved with a
//!    compare-exchange before any event is stored; once the budget is
//!    spent, new events are counted in `trace.dropped` and discarded —
//!    deterministically, oldest events win.
//! 3. **Threads do not contend.** Each thread appends to its own buffer
//!    behind its own (uncontended) mutex; the only shared write is the
//!    budget reservation.
//!
//! Events are `ph: "X"` complete slices (begin + duration in one record,
//! so a dropped end cannot orphan a begin) and `ph: "i"` instants. The
//! exporter emits the standard object form with a `traceEvents` array.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Json;

/// Default event budget when tracing is enabled without an explicit cap
/// (~65k events; at roughly 100 bytes/event a few MiB resident).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The process-wide time origin all trace timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch.
pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Microseconds from the epoch to `t` (0 if `t` predates the epoch).
pub(crate) fn instant_us(t: Instant) -> u64 {
    t.checked_duration_since(epoch()).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// One timeline event, already timestamped.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    /// `'X'` (complete slice) or `'i'` (instant).
    pub ph: char,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
    /// Slice duration in microseconds (0 for instants).
    pub dur_us: u64,
    pub args: Vec<(String, Json)>,
}

/// A thread's private event buffer; `tid` is its registration index.
struct ThreadBuf {
    tid: u64,
    /// Human label for the lane (`thread_name` metadata in the export):
    /// the OS thread name at registration.
    label: String,
    events: Mutex<Vec<TraceEvent>>,
}

/// The per-registry timeline collector.
pub(crate) struct TraceCollector {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    /// Events stored so far, bounded by `capacity`.
    stored: AtomicUsize,
    dropped: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
}

impl TraceCollector {
    pub(crate) fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(DEFAULT_TRACE_CAPACITY),
            stored: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn set_enabled(&self, enabled: bool, capacity: usize) {
        if enabled {
            // Pin the time origin before the first event so timestamps
            // and span starts share a base.
            let _ = epoch();
        }
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The one-load hot-path gate.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn stored(&self) -> usize {
        self.stored.load(Ordering::Relaxed)
    }

    /// Reserves one slot of the event budget; on exhaustion the event is
    /// dropped (counted, never blocking).
    fn try_reserve(&self) -> bool {
        let cap = self.capacity.load(Ordering::Relaxed);
        let mut cur = self.stored.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.stored.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records an event into the calling thread's buffer. `registry_id`
    /// keys the thread-local buffer cache, so distinct registries on one
    /// thread stay isolated.
    pub(crate) fn record(self: &Arc<Self>, registry_id: u64, event: TraceEvent) {
        if !self.enabled() || !self.try_reserve() {
            return;
        }
        let buf = self.thread_buf(registry_id);
        buf.events.lock().push(event);
    }

    /// This thread's buffer for this collector, registering on first use.
    fn thread_buf(self: &Arc<Self>, registry_id: u64) -> Arc<ThreadBuf> {
        thread_local! {
            static BUFS: std::cell::RefCell<Vec<(u64, Arc<ThreadBuf>)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        BUFS.with(|cell| {
            let mut cache = cell.borrow_mut();
            if let Some((_, buf)) = cache.iter().find(|(id, _)| *id == registry_id) {
                return buf.clone();
            }
            let mut threads = self.threads.lock();
            let tid = threads.len() as u64;
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf { tid, label, events: Mutex::new(Vec::new()) });
            threads.push(buf.clone());
            drop(threads);
            // Bound the cache: stale registries (dropped test instances)
            // would otherwise accumulate forever on long-lived threads.
            if cache.len() >= 16 {
                cache.clear();
            }
            cache.push((registry_id, buf.clone()));
            buf
        })
    }

    /// All events so far as `(tid, event)`, sorted by timestamp then tid
    /// for a deterministic export order.
    fn snapshot(&self) -> Vec<(u64, TraceEvent)> {
        let threads = self.threads.lock();
        let mut out: Vec<(u64, TraceEvent)> = Vec::with_capacity(self.stored());
        for t in threads.iter() {
            let events = t.events.lock();
            out.extend(events.iter().map(|e| (t.tid, e.clone())));
        }
        drop(threads);
        out.sort_by_key(|a| (a.1.ts_us, a.0));
        out
    }

    /// The Chrome `trace_event` document (object form). Leads with
    /// `process_name`/`thread_name` metadata events (`ph: "M"`) so the
    /// viewer labels each lane with its thread's name instead of a bare
    /// thread id.
    pub(crate) fn to_chrome_json(&self) -> Json {
        let mut metadata: Vec<Json> = Vec::new();
        {
            let threads = self.threads.lock();
            if !threads.is_empty() {
                metadata.push(Json::Obj(vec![
                    ("name".to_string(), Json::Str("process_name".to_string())),
                    ("ph".to_string(), Json::Str("M".to_string())),
                    ("ts".to_string(), Json::Uint(0)),
                    ("pid".to_string(), Json::Uint(0)),
                    ("tid".to_string(), Json::Uint(0)),
                    (
                        "args".to_string(),
                        Json::Obj(vec![("name".to_string(), Json::Str("antmoc".to_string()))]),
                    ),
                ]));
            }
            for t in threads.iter() {
                metadata.push(Json::Obj(vec![
                    ("name".to_string(), Json::Str("thread_name".to_string())),
                    ("ph".to_string(), Json::Str("M".to_string())),
                    ("ts".to_string(), Json::Uint(0)),
                    ("pid".to_string(), Json::Uint(0)),
                    ("tid".to_string(), Json::Uint(t.tid)),
                    (
                        "args".to_string(),
                        Json::Obj(vec![("name".to_string(), Json::Str(t.label.clone()))]),
                    ),
                ]));
            }
        }
        let recorded = self.snapshot().into_iter().map(|(tid, e)| {
            let mut obj = vec![
                ("name".to_string(), Json::Str(e.name)),
                ("ph".to_string(), Json::Str(e.ph.to_string())),
                ("ts".to_string(), Json::Uint(e.ts_us)),
            ];
            if e.ph == 'X' {
                obj.push(("dur".to_string(), Json::Uint(e.dur_us)));
            }
            obj.push(("pid".to_string(), Json::Uint(0)));
            obj.push(("tid".to_string(), Json::Uint(tid)));
            if e.ph == 'i' {
                // Instant scope: thread-local tick mark.
                obj.push(("s".to_string(), Json::Str("t".to_string())));
            }
            if !e.args.is_empty() {
                obj.push(("args".to_string(), Json::Obj(e.args)));
            }
            Json::Obj(obj)
        });
        let events: Vec<Json> = metadata.into_iter().chain(recorded).collect();
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Json::Obj(vec![
                    ("events".to_string(), Json::Uint(self.stored() as u64)),
                    ("dropped".to_string(), Json::Uint(self.dropped())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(name: &str) -> TraceEvent {
        TraceEvent { name: name.to_string(), ph: 'i', ts_us: now_us(), dur_us: 0, args: Vec::new() }
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Arc::new(TraceCollector::new());
        c.record(0, instant("e"));
        assert_eq!(c.stored(), 0);
        assert_eq!(c.dropped(), 0);
    }

    /// The satellite property: overflowing the ring budget increments
    /// `trace.dropped` by exactly the overflow, deterministically.
    #[test]
    fn overflow_drops_deterministically() {
        let c = Arc::new(TraceCollector::new());
        c.set_enabled(true, 8);
        for i in 0..11 {
            c.record(1, instant(if i % 2 == 0 { "even" } else { "odd" }));
        }
        assert_eq!(c.stored(), 8, "budget must cap stored events");
        assert_eq!(c.dropped(), 3, "every event past the cap counts as dropped");
        // The survivors are the oldest 8, in order.
        let events = c.snapshot();
        assert_eq!(events.len(), 8);
    }

    #[test]
    fn budget_is_global_across_threads() {
        let c = Arc::new(TraceCollector::new());
        c.set_enabled(true, 100);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        c.record(2, instant("t"));
                    }
                });
            }
        });
        assert_eq!(c.stored(), 100);
        assert_eq!(c.dropped(), 100);
    }

    #[test]
    fn chrome_export_is_well_formed() {
        let c = Arc::new(TraceCollector::new());
        c.set_enabled(true, 100);
        c.record(
            3,
            TraceEvent {
                name: "sweep".to_string(),
                ph: 'X',
                ts_us: 10,
                dur_us: 5,
                args: vec![("tracks".to_string(), Json::Uint(7))],
            },
        );
        c.record(3, instant("checkpoint"));
        let doc = c.to_chrome_json();
        let all = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("traceEvents missing: {other:?}"),
        };
        // Metadata lanes lead: one process_name plus one thread_name per
        // registered thread (a single thread recorded here).
        let (meta, events): (Vec<&Json>, Vec<&Json>) =
            all.iter().partition(|e| e.get("ph").and_then(Json::as_str) == Some("M"));
        let meta_names: Vec<_> =
            meta.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert_eq!(meta_names, ["process_name", "thread_name"]);
        let lane = meta[1].get("args").and_then(|a| a.get("name")).and_then(Json::as_str);
        assert!(lane.is_some_and(|l| !l.is_empty()), "thread lane must be labeled: {lane:?}");
        assert_eq!(events.len(), 2);
        let slice = &events[0];
        assert_eq!(slice.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(slice.get("dur").and_then(Json::as_u64), Some(5));
        assert_eq!(slice.get("pid").and_then(Json::as_u64), Some(0));
        assert!(slice.get("tid").and_then(Json::as_u64).is_some());
        assert_eq!(slice.get("args").and_then(|a| a.get("tracks")).and_then(Json::as_u64), Some(7));
        // Round-trips through our own parser (the validator report-diff uses).
        let text = doc.to_pretty_string();
        assert!(crate::json::parse(&text).is_ok());
    }
}
