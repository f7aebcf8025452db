//! The harness's own span recorder. Spans are opened around calls into
//! the workspace's public functions (never inside them), kept in memory,
//! and written out as `trace_<workload>.json` when the run ends. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::sync::Mutex;
use std::time::Instant;

use antmoc::telemetry::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<usize>,
    /// Shared by every span of one pass.
    pub run_id: u64,
}

/// Index of an open or closed span in its recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Collects spans when enabled; every call is a no-op otherwise, so the
/// untraced passes that produce the end-to-end metrics pay nothing.
pub struct Recorder {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn enabled(run_id: u64) -> Self {
        Self { enabled: true, run_id, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn disabled() -> Self {
        Self { enabled: false, run_id: 0, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent further spans (also from other
    /// threads). With the recorder disabled `f` just runs.
    pub fn scoped<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let start_ns = self.now_ns();
            let mut spans = self.spans.lock().expect("no span is recorded while panicking");
            spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
                parent: parent.map(|p| p.0),
                run_id: self.run_id,
            });
            spans.len() - 1
        };
        let out = f(Some(SpanId(id)));
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span is recorded while panicking")[id].end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span is recorded while panicking").clone()
    }
}

/// Self time per span, in nanoseconds: the span's duration minus the
/// union of its children's intervals (clipped to the span, so children
/// running in parallel on other threads are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Summed self time in seconds of every span whose name starts with
/// `prefix`.
pub fn self_seconds(spans: &[Span], self_ns: &[u64], prefix: &str) -> f64 {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name.starts_with(prefix))
        .map(|(_, &ns)| ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// The trace file: one object per span with its self time attached.
pub fn trace_json(spans: &[Span]) -> Json {
    let self_ns = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::Obj(vec![
                    ("id".into(), Json::Uint(id as u64)),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("run_id".into(), Json::Uint(s.run_id)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Uint(p as u64))),
                    ("start_ns".into(), Json::Uint(s.start_ns)),
                    ("end_ns".into(), Json::Uint(s.end_ns)),
                    ("self_ns".into(), Json::Uint(self_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, run_id: 1 }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_sum_and_overlapping_siblings_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 70, Some(0)),
            // Overlaps `b` (another thread): the union covers 0..90.
            span("c", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn zero_length_and_out_of_range_children_cost_nothing() {
        let spans = [
            span("root", 10, 50, None),
            span("empty", 20, 20, Some(0)),
            // Clipped to the parent's interval: covers 40..50 only.
            span("late", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 0, 40]);
    }

    #[test]
    fn recorder_links_parents_and_disabled_records_nothing() {
        let rec = Recorder::enabled(7);
        rec.scoped("outer", None, |outer| {
            rec.scoped("inner", outer, |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.run_id == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Recorder::disabled();
        assert_eq!(off.scoped("x", None, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
