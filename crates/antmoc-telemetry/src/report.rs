//! The machine-readable run artifact: every figure in the paper is read
//! off per-phase wall times, throughput counters, and memory/traffic
//! gauges, and `RunReport` is the one place they all land.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::hist::HistogramSummary;
use crate::json::{parse, Json, ParseError};

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    /// Number of completed span guards.
    pub count: u64,
    /// Total wall seconds across all completions.
    pub total_s: f64,
    /// Shortest single completion.
    pub min_s: f64,
    /// Longest single completion.
    pub max_s: f64,
}

impl SpanStats {
    pub(crate) fn record(&mut self, seconds: f64) {
        if self.count == 0 {
            self.min_s = seconds;
            self.max_s = seconds;
        } else {
            self.min_s = self.min_s.min(seconds);
            self.max_s = self.max_s.max(seconds);
        }
        self.count += 1;
        self.total_s += seconds;
    }
}

/// Last-written and high-water values for one gauge.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GaugeStats {
    pub last: f64,
    pub high_water: f64,
}

/// The serializable snapshot of a run's telemetry.
///
/// JSON schema (all sections optional-but-present, keys sorted):
/// ```json
/// {
///   "meta":       { "<key>": <string|number>, ... },
///   "spans":      { "<path>": {"count": N, "total_s": S, "min_s": S,
///                              "max_s": S}, ... },
///   "counters":   { "<name>": N, ... },
///   "gauges":     { "<name>": {"last": V, "high_water": V}, ... },
///   "histograms": { "<name>": {"count": N, "p50": V, "p90": V,
///                              "p99": V, "max": V}, ... },
///   "iterations": [ { "it": N, ... }, ... ],
///   "sections":   { "<name>": <free-form JSON>, ... }
/// }
/// ```
/// Span paths are `/`-separated nesting chains (e.g.
/// `eigen/transport_sweep`). Counters are event totals (segments swept,
/// bytes sent); gauges are level samples with a retained high-water mark
/// (resident bytes, pool usage). `histograms` carries quantile summaries
/// of log-bucketed distributions (per-track sweep nanoseconds, CAS retry
/// bursts, comm receive wait — always integer-valued, typically ns).
/// `iterations` is the per-iteration convergence series: one free-form
/// row per solver iteration (k-eff, residual, sweep seconds, segments),
/// in execution order. `sections` carries adjacent artifacts —
/// the solver's neutron-balance report, the run summary — so one file
/// describes the whole run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Free-form identification: case name, configuration, hostname.
    pub meta: BTreeMap<String, Json>,
    pub spans: BTreeMap<String, SpanStats>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Quantile summaries of the log-bucketed histograms.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Per-iteration convergence rows, in execution order.
    pub iterations: Vec<Json>,
    /// Adjacent machine-readable artifacts merged into this report.
    pub sections: BTreeMap<String, Json>,
}

impl RunReport {
    /// Sets a metadata string.
    pub fn set_meta(&mut self, key: &str, value: &str) {
        self.meta.insert(key.to_string(), Json::Str(value.to_string()));
    }

    /// Sets a metadata number.
    pub fn set_meta_num(&mut self, key: &str, value: f64) {
        self.meta.insert(key.to_string(), Json::Num(value));
    }

    /// Attaches a free-form JSON section (e.g. the neutron-balance
    /// report) to the artifact.
    pub fn set_section(&mut self, name: &str, value: Json) {
        self.sections.insert(name.to_string(), value);
    }

    /// Counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn to_json(&self) -> Json {
        let meta = self.meta.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Uint(s.count)),
                        ("total_s".into(), Json::Num(s.total_s)),
                        ("min_s".into(), Json::Num(s.min_s)),
                        ("max_s".into(), Json::Num(s.max_s)),
                    ]),
                )
            })
            .collect();
        let counters = self.counters.iter().map(|(k, &v)| (k.clone(), Json::Uint(v))).collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, g)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("last".into(), Json::Num(g.last)),
                        ("high_water".into(), Json::Num(g.high_water)),
                    ]),
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Uint(h.count)),
                        ("p50".into(), Json::Uint(h.p50)),
                        ("p90".into(), Json::Uint(h.p90)),
                        ("p99".into(), Json::Uint(h.p99)),
                        ("max".into(), Json::Uint(h.max)),
                    ]),
                )
            })
            .collect();
        let iterations = self.iterations.to_vec();
        let sections = self.sections.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        Json::Obj(vec![
            ("meta".into(), Json::Obj(meta)),
            ("spans".into(), Json::Obj(spans)),
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
            ("iterations".into(), Json::Arr(iterations)),
            ("sections".into(), Json::Obj(sections)),
        ])
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a report previously produced by [`Self::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Self, ParseError> {
        let doc = parse(text)?;
        let bad = |message: &str| ParseError { offset: 0, message: message.to_string() };
        let mut report = RunReport::default();
        if let Some(Json::Obj(pairs)) = doc.get("meta") {
            for (k, v) in pairs {
                report.meta.insert(k.clone(), v.clone());
            }
        }
        if let Some(Json::Obj(pairs)) = doc.get("spans") {
            for (k, v) in pairs {
                let field = |name: &str| {
                    v.get(name)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad(&format!("span {k} missing {name}")))
                };
                report.spans.insert(
                    k.clone(),
                    SpanStats {
                        count: v
                            .get("count")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| bad(&format!("span {k} missing count")))?,
                        total_s: field("total_s")?,
                        min_s: field("min_s")?,
                        max_s: field("max_s")?,
                    },
                );
            }
        }
        if let Some(Json::Obj(pairs)) = doc.get("counters") {
            for (k, v) in pairs {
                let value = v.as_u64().ok_or_else(|| bad(&format!("counter {k} not unsigned")))?;
                report.counters.insert(k.clone(), value);
            }
        }
        if let Some(Json::Obj(pairs)) = doc.get("gauges") {
            for (k, v) in pairs {
                // Non-finite gauge values serialize as `null` (see
                // `json::write_f64`); round-trip those back to a skipped
                // gauge instead of rejecting the whole report.
                if matches!(v.get("last"), Some(Json::Null))
                    || matches!(v.get("high_water"), Some(Json::Null))
                {
                    continue;
                }
                let field = |name: &str| {
                    v.get(name)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad(&format!("gauge {k} missing {name}")))
                };
                report.gauges.insert(
                    k.clone(),
                    GaugeStats { last: field("last")?, high_water: field("high_water")? },
                );
            }
        }
        if let Some(Json::Obj(pairs)) = doc.get("histograms") {
            for (k, v) in pairs {
                let field = |name: &str| {
                    v.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad(&format!("histogram {k} missing {name}")))
                };
                report.histograms.insert(
                    k.clone(),
                    HistogramSummary {
                        count: field("count")?,
                        p50: field("p50")?,
                        p90: field("p90")?,
                        p99: field("p99")?,
                        max: field("max")?,
                    },
                );
            }
        }
        if let Some(Json::Arr(rows)) = doc.get("iterations") {
            report.iterations = rows.clone();
        }
        if let Some(Json::Obj(pairs)) = doc.get("sections") {
            for (k, v) in pairs {
                report.sections.insert(k.clone(), v.clone());
            }
        }
        Ok(report)
    }

    /// A canonical rendering of the report's **deterministic** content —
    /// the bitwise-identity contract between a one-shot run and the same
    /// case run as a scoped service job.
    ///
    /// Wall-clock measurements can never match across runs, and contention
    /// tallies (CAS retries, receive waits) depend on load even at fixed
    /// inputs. Everything else must be bit-identical, so the digest
    /// covers:
    ///
    /// * **meta** — every entry, floats as exact bit patterns;
    /// * **spans** — path and completion count (no seconds);
    /// * **counters/gauges/histogram summaries** — exact values (gauge
    ///   floats as bit patterns), excluding time-valued keys (suffixes
    ///   `_ns`/`_us`/`_ms`/`_s`/`_seconds`) and scheduling-noise keys
    ///   (see [`is_noisy`]);
    /// * **iterations** — every row in order, with time-valued and
    ///   contention fields scrubbed;
    /// * **sections** — full content with time-valued object fields
    ///   scrubbed recursively; the per-worker `sweep_workers` section is
    ///   dropped wholesale (its item split is scheduling-dependent).
    ///
    /// Two reports with equal digests agree on every deterministic
    /// metric bit-for-bit. The rendering is line-oriented so a failed
    /// comparison diffs readably.
    pub fn deterministic_digest(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = write!(out, "meta {k}=");
            write_canonical_json(v, &mut out);
            out.push('\n');
        }
        for (path, s) in &self.spans {
            let _ = writeln!(out, "span {path} count={}", s.count);
        }
        for (k, v) in self.counters.iter().filter(|(k, _)| !is_noisy(k)) {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, g) in self.gauges.iter().filter(|(k, _)| !is_noisy(k)) {
            let _ = writeln!(
                out,
                "gauge {k} last={:016x} high={:016x}",
                g.last.to_bits(),
                g.high_water.to_bits()
            );
        }
        for (k, h) in self.histograms.iter().filter(|(k, _)| !is_noisy(k)) {
            let _ = writeln!(
                out,
                "hist {k} count={} p50={} p90={} p99={} max={}",
                h.count, h.p50, h.p90, h.p99, h.max
            );
        }
        for (i, row) in self.iterations.iter().enumerate() {
            let _ = write!(out, "iter {i} ");
            write_canonical_json(&scrub_json(row), &mut out);
            out.push('\n');
        }
        for (k, v) in self.sections.iter().filter(|(k, _)| k.as_str() != "sweep_workers") {
            let _ = write!(out, "section {k} ");
            write_canonical_json(&scrub_json(v), &mut out);
            out.push('\n');
        }
        out
    }

    /// Writes the pretty JSON artifact, creating parent directories.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json_string().as_bytes())
    }
}

/// Whether a metric key's magnitude depends on load, scheduling or
/// hardware rather than on the case being solved: wall-clock keys (time
/// suffixes) and the contention, worker-balance, receive-readiness and
/// trace-bookkeeping keys. The one rule for both
/// [`RunReport::deterministic_digest`] (which leaves such keys out) and
/// `report_diff` (which checks their presence but not their values).
pub fn is_noisy(key: &str) -> bool {
    const TIME_SUFFIXES: &[&str] = &["_ns", "_us", "_ms", "_s", "_seconds"];
    const LOAD_DEPENDENT: &[&str] = &[
        "sweep.cas_retries",
        "sweep.cas_burst",
        "sweep.load_ratio",
        "sweep.tally_bytes",
        "comm.recv_ready",
        "comm.recv_blocked",
        "comm.overlap_ratio",
    ];
    TIME_SUFFIXES.iter().any(|s| key.ends_with(s))
        || LOAD_DEPENDENT.contains(&key)
        || key.starts_with("trace.")
}

/// Iteration-row fields scrubbed from the digest: per-iteration timings
/// and contention tallies.
fn is_row_field_excluded(key: &str) -> bool {
    is_noisy(key) || matches!(key, "cas_retries" | "load_ratio")
}

/// Recursively drops excluded object fields from free-form JSON (rows,
/// sections) so only deterministic content reaches the digest.
fn scrub_json(value: &Json) -> Json {
    match value {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !is_row_field_excluded(k))
                .map(|(k, v)| (k.clone(), scrub_json(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(scrub_json).collect()),
        other => other.clone(),
    }
}

/// Canonical, bit-exact JSON rendering for digests: floats print as hex
/// bit patterns (the pretty printer's shortest-roundtrip form is also
/// exact, but bits make mismatches unambiguous in a diff).
fn write_canonical_json(value: &Json, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Uint(u) => {
            let _ = write!(out, "{u}");
        }
        Json::Num(n) => {
            let _ = write!(out, "f64:{:016x}", n.to_bits());
        }
        Json::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k:?}:");
                write_canonical_json(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut r = RunReport::default();
        r.set_meta("case", "c5g7-quickstart");
        r.set_meta_num("tolerance", 1e-4);
        r.spans.insert(
            "eigen/transport_sweep".into(),
            SpanStats { count: 12, total_s: 3.25, min_s: 0.2, max_s: 0.4 },
        );
        r.counters.insert("sweep.segments".into(), 123_456_789_012);
        r.gauges
            .insert("device.pool_bytes".into(), GaugeStats { last: 1024.0, high_water: 4096.0 });
        r.histograms.insert(
            "sweep.track_ns".into(),
            HistogramSummary { count: 4200, p50: 1500, p90: 3100, p99: 8200, max: 12345 },
        );
        r.iterations.push(Json::Obj(vec![
            // Int, not Uint: free-form rows compare structurally after a
            // round trip, and the parser canonicalizes small integers.
            ("it".into(), Json::Int(1)),
            ("k".into(), Json::Num(1.05)),
            ("residual".into(), Json::Num(3.2e-3)),
        ]));
        r.set_section("balance", Json::Obj(vec![("k_balance".into(), Json::Num(1.18))]));
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample_report();
        let text = r.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn accessors_default_to_zero() {
        let r = RunReport::default();
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn span_stats_track_min_max_mean() {
        let mut s = SpanStats::default();
        s.record(2.0);
        s.record(4.0);
        s.record(3.0);
        assert_eq!(s.count, 3);
        assert_eq!(s.min_s, 2.0);
        assert_eq!(s.max_s, 4.0);
        assert_eq!(s.total_s, 9.0);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(RunReport::from_json_str("{").is_err());
        let text = r#"{"counters": {"neg": -5}}"#;
        assert!(RunReport::from_json_str(text).is_err());
        // Histogram summaries must be complete unsigned integers.
        let text = r#"{"histograms": {"h": {"count": 1, "p50": 2}}}"#;
        assert!(RunReport::from_json_str(text).is_err());
    }

    #[test]
    fn null_gauge_round_trips_to_a_skipped_gauge() {
        // Non-finite gauge values serialize as null; parsing must skip
        // the gauge, not reject the report.
        let mut r = sample_report();
        r.gauges.insert("bad.ratio".into(), GaugeStats { last: f64::NAN, high_water: f64::NAN });
        let text = r.to_json_string();
        assert!(text.contains("null"), "non-finite gauges serialize as null");
        let back = RunReport::from_json_str(&text).unwrap();
        assert!(!back.gauges.contains_key("bad.ratio"), "null gauge must be skipped");
        // Everything else survives the trip.
        assert!(back.gauges.contains_key("device.pool_bytes"));
        let mut expect = r.clone();
        expect.gauges.remove("bad.ratio");
        assert_eq!(back, expect);
    }

    #[test]
    fn digest_ignores_wall_clock_but_keeps_content() {
        let mut a = sample_report();
        let mut b = sample_report();
        // Divergent wall time, identical work.
        b.spans.get_mut("eigen/transport_sweep").unwrap().total_s *= 7.5;
        b.spans.get_mut("eigen/transport_sweep").unwrap().max_s += 1.0;
        a.counters.insert("sweep.cas_retries".into(), 17);
        b.counters.insert("sweep.cas_retries".into(), 3);
        a.histograms.insert(
            "sweep.track_ns".into(),
            HistogramSummary { count: 10, p50: 1, p90: 2, p99: 3, max: 4 },
        );
        b.histograms.remove("sweep.track_ns");
        a.iterations[0] = Json::Obj(vec![
            ("it".into(), Json::Int(1)),
            ("k".into(), Json::Num(1.05)),
            ("residual".into(), Json::Num(3.2e-3)),
            ("sweep_s".into(), Json::Num(0.123)),
            ("cas_retries".into(), Json::Uint(42)),
        ]);
        b.iterations[0] = Json::Obj(vec![
            ("it".into(), Json::Int(1)),
            ("k".into(), Json::Num(1.05)),
            ("residual".into(), Json::Num(3.2e-3)),
            ("sweep_s".into(), Json::Num(9.9)),
            ("cas_retries".into(), Json::Uint(7)),
        ]);
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());

        // Deterministic content differences must show.
        b.counters.insert("sweep.segments".into(), 1);
        assert_ne!(a.deterministic_digest(), b.deterministic_digest());
    }

    #[test]
    fn digest_is_exact_on_float_bits() {
        let mut a = sample_report();
        let mut b = sample_report();
        a.set_meta_num("tolerance", 1e-4);
        b.set_meta_num("tolerance", 1e-4 + f64::EPSILON * 1e-4);
        assert_ne!(
            a.deterministic_digest(),
            b.deterministic_digest(),
            "a one-ulp meta difference must change the digest"
        );
    }

    #[test]
    fn digest_drops_the_per_worker_section() {
        let mut a = sample_report();
        let mut b = sample_report();
        a.set_section("sweep_workers", Json::Obj(vec![("items".into(), Json::Uint(10))]));
        b.set_section("sweep_workers", Json::Obj(vec![("items".into(), Json::Uint(99))]));
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        // Deterministic sections still count.
        b.set_section("balance", Json::Obj(vec![("k_balance".into(), Json::Num(2.0))]));
        assert_ne!(a.deterministic_digest(), b.deterministic_digest());
    }

    #[test]
    fn histograms_and_iterations_round_trip() {
        let r = sample_report();
        let back = RunReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(back.histograms["sweep.track_ns"].p99, 8200);
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.iterations[0].get("it").and_then(Json::as_u64), Some(1));
        assert_eq!(back, r);
    }
}
