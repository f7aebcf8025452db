//! Service-level metrics registry with Prometheus-style text exposition.
//!
//! Per-job telemetry sinks (see [`Telemetry::install`]) answer "what did
//! *this* run do"; a long-lived service also needs the aggregate view —
//! total jobs, cache traffic, queue-wait distribution — that operators
//! scrape. [`MetricsRegistry`] is that aggregate:
//!
//! * **counters** fold in monotonically (saturating adds; a registry
//!   total is the exact sum over every merged sink);
//! * **gauges** keep the latest level plus an all-time high-water mark;
//! * **histograms** merge **bucket-exact** (see [`Histogram::merge`]):
//!   a registry histogram equals the one recording every sample into it
//!   serially would have built.
//!
//! The registry keeps no rates: a scraper derives them from two reads of
//! a `_total` counter.
//!
//! [`MetricsRegistry::render_text`] renders the Prometheus text
//! exposition format: `# HELP`/`# TYPE` comment lines, counters with the
//! conventional `_total` suffix, and histograms as cumulative `_bucket`
//! series with `le` labels plus `_sum`/`_count`. The format is plain
//! enough to hand to any scraper; [`validate_exposition`] is the parser
//! the tests use to keep it that way.

use std::collections::BTreeMap;

use parking_lot::Mutex;

use crate::hist::Histogram;
use crate::report::GaugeStats;
use crate::Telemetry;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeStats>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe aggregate of completed telemetry sinks plus directly
/// recorded service metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a monotonic counter (saturating).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock();
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets a gauge's level, folding the all-time high-water mark.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        let slot = inner.gauges.entry(name.to_string()).or_default();
        slot.last = value;
        slot.high_water = slot.high_water.max(value);
    }

    /// Records one sample into a registry histogram.
    pub fn histogram_record(&self, name: &str, value: u64) {
        self.inner.lock().histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Folds a full histogram in, bucket-exact.
    pub fn histogram_merge(&self, name: &str, shard: &Histogram) {
        if shard.is_empty() {
            return;
        }
        self.inner.lock().histograms.entry(name.to_string()).or_default().merge(shard);
    }

    /// Folds a gauge snapshot in: the incoming `last` becomes current,
    /// high-waters take the max (the registry never forgets a peak).
    fn gauge_merge(&self, name: &str, stats: GaugeStats) {
        let mut inner = self.inner.lock();
        let slot = inner.gauges.entry(name.to_string()).or_default();
        slot.last = stats.last;
        slot.high_water = slot.high_water.max(stats.high_water);
    }

    /// Current counter total (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge snapshot.
    pub fn gauge(&self, name: &str) -> Option<GaugeStats> {
        self.inner.lock().gauges.get(name).copied()
    }

    /// Clone of a registry histogram (bucket-exact), if present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().histograms.get(name).cloned()
    }

    /// Renders the Prometheus text exposition of everything in the
    /// registry. Metric names are sanitized (`.` and other non-alphanumerics
    /// become `_`); counters get the conventional `_total` suffix; gauges
    /// emit the level plus a `_peak` high-water series; histograms emit
    /// cumulative `_bucket{le=...}` series with `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let inner = self.inner.lock();
        let mut out = String::new();

        for (name, value) in &inner.counters {
            let prom = counter_exposition_name(name);
            let _ = writeln!(out, "# HELP {prom} Monotonic total of counter '{name}'.");
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(out, "{prom} {value}");
        }

        for (name, stats) in &inner.gauges {
            let prom = sanitize_name(name);
            let _ = writeln!(out, "# HELP {prom} Last level of gauge '{name}'.");
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(out, "{prom} {}", format_f64(stats.last));
            let _ = writeln!(out, "# HELP {prom}_peak High-water mark of gauge '{name}'.");
            let _ = writeln!(out, "# TYPE {prom}_peak gauge");
            let _ = writeln!(out, "{prom}_peak {}", format_f64(stats.high_water));
        }

        for (name, hist) in &inner.histograms {
            let prom = sanitize_name(name);
            let _ = writeln!(out, "# HELP {prom} Distribution of '{name}'.");
            let _ = writeln!(out, "# TYPE {prom} histogram");
            let mut cumulative = 0u64;
            for (edge, count) in hist.buckets() {
                cumulative += count;
                let _ = writeln!(out, "{prom}_bucket{{le=\"{edge}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{prom}_sum {}", hist.sum());
            let _ = writeln!(out, "{prom}_count {}", hist.count());
        }

        out
    }
}

impl Telemetry {
    /// Folds this sink's counters, gauges, and histograms into a
    /// service-level registry. Counter adds are saturating, gauge
    /// high-waters take the max, and histograms merge **bucket-exact** —
    /// merging N job sinks leaves the registry equal to recording every
    /// sample serially. Spans, iterations, meta, and trace events stay in
    /// the sink: they are per-run shapes, not service aggregates.
    pub fn merge_into_registry(&self, registry: &MetricsRegistry) {
        for (name, value) in self.registry.counters.lock().iter() {
            registry.counter_add(name, *value);
        }
        for (name, stats) in self.registry.gauges.lock().iter() {
            registry.gauge_merge(name, *stats);
        }
        for (name, hist) in self.registry.histograms.lock().iter() {
            registry.histogram_merge(name, hist);
        }
    }
}

/// Maps a dotted metric name onto the Prometheus charset: alphanumerics
/// and underscores survive, everything else becomes `_`, and a leading
/// digit gets an underscore prefix.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// The exposition name of a counter: sanitized, with the conventional
/// `_total` suffix (not doubled if already present).
fn counter_exposition_name(name: &str) -> String {
    let base = sanitize_name(name);
    if base.ends_with("_total") {
        base
    } else {
        format!("{base}_total")
    }
}

/// Renders an `f64` the exposition way: integral values without a
/// fractional part, everything else via shortest-roundtrip formatting.
fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Parses a text exposition, enforcing the subset this module emits:
/// every non-comment line is `name[{label="value",...}] number`, every
/// series is preceded by a `# TYPE` for its family, and histogram
/// `_bucket` series carry an `le` label. Returns the number of sample
/// lines. Tests run `render_text` through this to catch format drift.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed: std::collections::BTreeSet<String> = Default::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().ok_or_else(|| format!("line {lineno}: bare TYPE"))?;
            match parts.next() {
                Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                other => return Err(format!("line {lineno}: bad TYPE {other:?}")),
            }
            typed.insert(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: no value separator: {line:?}"))?;
        value.parse::<f64>().map_err(|e| format!("line {lineno}: bad value {value:?}: {e}"))?;
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated labels"))?;
                (n, Some(body))
            }
            None => (series, None),
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        if let Some(body) = labels {
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: bad label {pair:?}"))?;
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {lineno}: bad label {pair:?}"));
                }
            }
        }
        // A `_bucket`/`_sum`/`_count` series belongs to its histogram
        // family; everything else must carry its own TYPE line.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s))
            .filter(|f| typed.contains(*f))
            .unwrap_or(name);
        if !typed.contains(family) {
            return Err(format!("line {lineno}: series {name:?} has no TYPE"));
        }
        if name.ends_with("_bucket") && !labels.unwrap_or("").contains("le=") {
            return Err(format!("line {lineno}: bucket series without le label"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_monotonically_and_saturate() {
        let r = MetricsRegistry::new();
        r.counter_add("serve.jobs", 3);
        r.counter_add("serve.jobs", 4);
        assert_eq!(r.counter("serve.jobs"), 7);
        r.counter_add("serve.jobs", u64::MAX);
        assert_eq!(r.counter("serve.jobs"), u64::MAX);
    }

    #[test]
    fn gauges_keep_high_water_across_merges() {
        let r = MetricsRegistry::new();
        r.gauge_set("pool.bytes", 100.0);
        r.gauge_merge("pool.bytes", GaugeStats { last: 10.0, high_water: 400.0 });
        r.gauge_merge("pool.bytes", GaugeStats { last: 50.0, high_water: 30.0 });
        let g = r.gauge("pool.bytes").unwrap();
        assert_eq!(g.last, 50.0);
        assert_eq!(g.high_water, 400.0);
    }

    #[test]
    fn sink_merges_are_bucket_exact() {
        // Two sinks splitting one sample stream must merge into exactly
        // the histogram of serial recording — buckets, not quantile
        // approximations.
        let (a, b) = (Telemetry::new(), Telemetry::new());
        let mut serial = Histogram::new();
        for v in 0..5000u64 {
            let sink = if v % 3 == 0 { &a } else { &b };
            sink.histogram_record("lat_ns", v * 17);
            serial.record(v * 17);
            sink.counter_add("items", 1);
        }
        let r = MetricsRegistry::new();
        a.merge_into_registry(&r);
        b.merge_into_registry(&r);
        assert_eq!(r.histogram("lat_ns").unwrap(), serial);
        assert_eq!(r.counter("items"), 5000);
    }

    #[test]
    fn exposition_names_follow_conventions() {
        assert_eq!(sanitize_name("serve.queue_wait_ns"), "serve_queue_wait_ns");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(counter_exposition_name("serve.jobs"), "serve_jobs_total");
        assert_eq!(counter_exposition_name("already_total"), "already_total");
    }

    #[test]
    fn render_text_passes_the_validator_and_names_series() {
        let r = MetricsRegistry::new();
        r.counter_add("serve.jobs", 12);
        r.gauge_set("admission.inflight_bytes", 1.5e6);
        for v in [100u64, 2000, 2000, 70000] {
            r.histogram_record("serve.queue_wait_ns", v);
        }
        let text = r.render_text();
        let samples = validate_exposition(&text).expect("exposition parses");
        // One counter, gauge level + peak, and the histogram's three
        // occupied buckets + `+Inf` + `_sum` + `_count`.
        assert_eq!(samples, 1 + 2 + 6, "unexpected series count:\n{text}");
        assert!(text.contains("serve_jobs_total 12"));
        assert!(text.contains("serve_queue_wait_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("serve_queue_wait_ns_count 4"));
        assert!(text.contains("serve_queue_wait_ns_sum 74100"));
        assert!(text.contains("# TYPE serve_queue_wait_ns histogram"));
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let r = MetricsRegistry::new();
        for v in (0..1000u64).map(|v| v * v) {
            r.histogram_record("h", v);
        }
        let text = r.render_text();
        let mut prev = 0u64;
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("h_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "cumulative counts must be monotone: {line}");
            prev = v;
            last = v;
        }
        assert_eq!(last, 1000, "the +Inf bucket must equal the count");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_exposition("no_type_line 1").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{le=\"3} 1").is_err());
        assert!(validate_exposition("# TYPE x counter\nx not_a_number").is_err());
        assert!(validate_exposition("# TYPE h histogram\nh_bucket 3").is_err());
        assert!(validate_exposition("# TYPE 9bad counter\n9bad 1").is_err());
        assert_eq!(validate_exposition("# just a comment\n").unwrap(), 0);
    }
}
