//! Service-level aggregation and its Prometheus-style text exposition.
//!
//! Per-job telemetry sinks (see [`Telemetry::install`]) answer "what did
//! *this* run do"; a long-lived service also needs the aggregate view —
//! total jobs, cache traffic, queue-wait distribution — that operators
//! scrape. That aggregate is one more [`Telemetry`], never installed: the
//! service records its own series into it and folds every completed job
//! sink in with [`Telemetry::merge_into`], which applies three rules:
//!
//! * **counters** add, saturating (the aggregate is the exact sum over
//!   every merged sink);
//! * **gauges** take the incoming `last` and keep the larger high-water
//!   mark;
//! * **histograms** merge **bucket-exact** (see [`crate::Histogram::merge`]):
//!   the aggregate equals the histogram recording every sample into it
//!   serially would have built.
//!
//! It keeps no rates: a scraper derives them from two reads of a
//! `_total` counter.
//!
//! [`Telemetry::render_text`] renders the Prometheus text exposition
//! format: `# HELP`/`# TYPE` comment lines, counters with the
//! conventional `_total` suffix, and histograms as cumulative `_bucket`
//! series with `le` labels plus `_sum`/`_count`. The format is plain
//! enough to hand to any scraper; [`validate_exposition`] is the parser
//! the tests use to keep it that way.

use crate::Telemetry;

impl Telemetry {
    /// Folds this sink's counters, gauges, and histograms into `into`
    /// under the three rules of the module docs, so merging N job sinks
    /// leaves `into` equal to recording every sample serially. Spans,
    /// iterations, meta, and trace events stay in the sink: they are
    /// per-run shapes, not service aggregates. The source maps are
    /// copied out before `into` is locked, so no two registries' locks
    /// are ever held at once.
    pub fn merge_into(&self, into: &Telemetry) {
        let counters = self.registry.counters.lock().clone();
        let gauges = self.registry.gauges.lock().clone();
        let histograms = self.registry.histograms.lock().clone();
        for (name, value) in counters {
            into.counter_add(name, value);
        }
        let mut into_gauges = into.registry.gauges.lock();
        for (name, stats) in gauges {
            let slot = into_gauges.entry(name).or_default();
            slot.last = stats.last;
            slot.high_water = slot.high_water.max(stats.high_water);
        }
        drop(into_gauges);
        for (name, hist) in &histograms {
            into.histogram_merge(name, hist);
        }
    }

    /// Renders the Prometheus text exposition of this instance's
    /// counters, gauges, and histograms. Metric names are sanitized (`.`
    /// and other non-alphanumerics become `_`); counters get the
    /// conventional `_total` suffix; gauges emit the level plus a `_peak`
    /// high-water series; histograms emit cumulative `_bucket{le=...}`
    /// series with `_sum` and `_count`.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        for (name, value) in self.registry.counters.lock().iter() {
            let prom = counter_exposition_name(name);
            let _ = writeln!(out, "# HELP {prom} Monotonic total of counter '{name}'.");
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(out, "{prom} {value}");
        }

        for (name, stats) in self.registry.gauges.lock().iter() {
            let prom = sanitize_name(name);
            let _ = writeln!(out, "# HELP {prom} Last level of gauge '{name}'.");
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(out, "{prom} {}", format_f64(stats.last));
            let _ = writeln!(out, "# HELP {prom}_peak High-water mark of gauge '{name}'.");
            let _ = writeln!(out, "# TYPE {prom}_peak gauge");
            let _ = writeln!(out, "{prom}_peak {}", format_f64(stats.high_water));
        }

        for (name, hist) in self.registry.histograms.lock().iter() {
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

    /// The exposition of a fixed script, captured from the dedicated
    /// registry type this aggregate replaced: the text must stay
    /// byte-identical.
    #[test]
    fn exposition_of_a_fixed_script_is_pinned() {
        let service = Telemetry::new();
        service.counter_add("serve.jobs", 3);
        service.counter_add("serve.jobs", u64::MAX);
        service.counter_add("cache.hit", 2);
        service.gauge_set("serve.inflight_peak_bytes", 1.5e6);
        let sink = Telemetry::new();
        sink.gauge_set("serve.inflight_peak_bytes", 4.0e6);
        sink.gauge_set("serve.inflight_peak_bytes", 2.5);
        sink.counter_add("sweep.segments", 12345);
        sink.counter_add("cache.hit", 5);
        sink.histogram_record("serve.queue_wait_ns", 70000);
        sink.merge_into(&service);
        for v in [100u64, 2000, 2000, 70000] {
            service.histogram_record("serve.queue_wait_ns", v);
        }
        let expected = "\
# HELP cache_hit_total Monotonic total of counter 'cache.hit'.
# TYPE cache_hit_total counter
cache_hit_total 7
# HELP serve_jobs_total Monotonic total of counter 'serve.jobs'.
# TYPE serve_jobs_total counter
serve_jobs_total 18446744073709551615
# HELP sweep_segments_total Monotonic total of counter 'sweep.segments'.
# TYPE sweep_segments_total counter
sweep_segments_total 12345
# HELP serve_inflight_peak_bytes Last level of gauge 'serve.inflight_peak_bytes'.
# TYPE serve_inflight_peak_bytes gauge
serve_inflight_peak_bytes 2.5
# HELP serve_inflight_peak_bytes_peak High-water mark of gauge 'serve.inflight_peak_bytes'.
# TYPE serve_inflight_peak_bytes_peak gauge
serve_inflight_peak_bytes_peak 4000000
# HELP serve_queue_wait_ns Distribution of 'serve.queue_wait_ns'.
# TYPE serve_queue_wait_ns histogram
serve_queue_wait_ns_bucket{le=\"103\"} 1
serve_queue_wait_ns_bucket{le=\"2047\"} 3
serve_queue_wait_ns_bucket{le=\"73727\"} 5
serve_queue_wait_ns_bucket{le=\"+Inf\"} 5
serve_queue_wait_ns_sum 144100
serve_queue_wait_ns_count 5
";
        assert_eq!(service.render_text(), expected);
    }

    #[test]
    fn gauges_keep_high_water_across_merges() {
        let service = Telemetry::new();
        service.gauge_set("pool.bytes", 100.0);
        let (peaked, settled) = (Telemetry::new(), Telemetry::new());
        peaked.gauge_set("pool.bytes", 400.0);
        peaked.gauge_set("pool.bytes", 10.0);
        settled.gauge_set("pool.bytes", 50.0);
        peaked.merge_into(&service);
        settled.merge_into(&service);
        let g = service.report().gauges["pool.bytes"];
        assert_eq!(g.last, 50.0);
        assert_eq!(g.high_water, 400.0);
    }

    #[test]
    fn sink_merges_are_bucket_exact() {
        // Two sinks splitting one sample stream must merge into exactly
        // the histogram of serial recording — buckets, not quantile
        // approximations.
        let (a, b, serial) = (Telemetry::new(), Telemetry::new(), Telemetry::new());
        for v in 0..5000u64 {
            let sink = if v % 3 == 0 { &a } else { &b };
            sink.histogram_record("lat_ns", v * 17);
            sink.counter_add("items", 1);
            serial.histogram_record("lat_ns", v * 17);
            serial.counter_add("items", 1);
        }
        let merged = Telemetry::new();
        a.merge_into(&merged);
        b.merge_into(&merged);
        // Every bucket's cumulative count, the sum and the count.
        assert_eq!(merged.render_text(), serial.render_text());
        assert_eq!(merged.counter_value("items"), 5000);
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
        let t = Telemetry::new();
        t.counter_add("serve.jobs", 12);
        t.gauge_set("admission.inflight_bytes", 1.5e6);
        for v in [100u64, 2000, 2000, 70000] {
            t.histogram_record("serve.queue_wait_ns", v);
        }
        let text = t.render_text();
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
        let t = Telemetry::new();
        for v in (0..1000u64).map(|v| v * v) {
            t.histogram_record("h", v);
        }
        let text = t.render_text();
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
