//! report-diff: the run-report regression gate.
//!
//! Compares two telemetry run-report JSONs schema-aware — counters by
//! relative delta, gauges by high-water mark, histograms by count and
//! percentile shift, convergence series by iteration count — and exits
//! nonzero when any comparison exceeds its threshold. CI diffs the fresh
//! case-matrix reports against the committed goldens under
//! `ci/baselines/` and validates each leg's Chrome trace.
//!
//! ```text
//! report-diff <baseline.json> <fresh.json> [flags]
//! report-diff --self <report.json>           # diff a report against itself
//! report-diff --validate-trace <trace.json>  # structural Chrome-trace check
//! ```
//!
//! Flags: `--counter-tol R` (relative delta, default 0.5),
//! `--gauge-tol R` (default 0.5), `--hist-ratio R` (max percentile ratio,
//! default 16), `--iter-tol R` (relative iteration-count delta, default
//! 0.5). Thresholds are loose on purpose: this catches
//! order-of-magnitude breakage across CI machines, not
//! single-digit-percent drift (speed is the repo benchmark's job).
//!
//! `--allow-new-sections` is the bootstrap mode for newly added cases:
//! counters, gauges, histograms, and iteration series present only in the
//! *fresh* report pass instead of reading as structural breakage, so a
//! case can gain telemetry (or exist at all) before its committed
//! baseline is regenerated. Baseline-only metrics still fail.
//!
//! `--require-gauge NAME` (repeatable) demands that the fresh report
//! carries gauge NAME with a positive high-water mark — CI uses it to
//! insist a pipelined-exchange run actually overlapped
//! (`comm.overlap_ratio` present and > 0) rather than silently falling
//! back to synchronous behaviour.

use std::process::ExitCode;

use antmoc::telemetry::{is_noisy, json, Json, RunReport};

struct Thresholds {
    counter_tol: f64,
    gauge_tol: f64,
    hist_ratio: f64,
    iter_tol: f64,
    /// Bootstrap mode (`--allow-new-sections`): metrics present only in
    /// the fresh report are not violations, so a new case (or a case
    /// gaining telemetry) can land before its baseline is regenerated.
    /// Baseline-only metrics still fail — those are regressions.
    allow_new: bool,
    /// Gauges that must exist in the *fresh* report with a positive
    /// high-water mark (`--require-gauge`, repeatable). Lets CI insist a
    /// feature actually engaged — e.g. that a pipelined-exchange run
    /// recorded a nonzero `comm.overlap_ratio` — even when the gauge is
    /// noisy-exempt from magnitude comparison.
    require_gauges: Vec<String>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            counter_tol: 0.5,
            gauge_tol: 0.5,
            hist_ratio: 16.0,
            iter_tol: 0.5,
            allow_new: false,
            require_gauges: Vec::new(),
        }
    }
}

/// Relative delta with an absolute floor: tiny metrics (a handful of
/// collective calls, a few retries) would otherwise trip the relative
/// gate on single-event jitter.
fn rel_delta(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs()).max(16.0);
    (a - b).abs() / scale
}

/// Ratio of two positive quantities, >= 1; tiny values are floored so a
/// 3 ns vs 40 ns p50 (both "instant") does not read as a 13x shift.
fn ratio(a: f64, b: f64) -> f64 {
    let (a, b) = (a.max(1000.0), b.max(1000.0));
    if a > b {
        a / b
    } else {
        b / a
    }
}

fn diff_reports(baseline: &RunReport, fresh: &RunReport, t: &Thresholds) -> Vec<String> {
    let mut violations = Vec::new();

    // Counters: same key set (modulo noisy keys), values within the
    // relative tolerance.
    for key in baseline.counters.keys().chain(fresh.counters.keys()) {
        if is_noisy(key) {
            continue;
        }
        if t.allow_new && !baseline.counters.contains_key(key) {
            continue;
        }
        let a = baseline.counter(key) as f64;
        let b = fresh.counter(key) as f64;
        let d = rel_delta(a, b);
        if d > t.counter_tol {
            violations.push(format!(
                "counter {key}: baseline {a} vs fresh {b} (rel delta {d:.2} > {:.2})",
                t.counter_tol
            ));
        }
    }

    // Gauges: compared by high-water mark (the stable summary of a
    // level that moves during the run).
    for key in baseline.gauges.keys().chain(fresh.gauges.keys()) {
        if is_noisy(key) {
            continue;
        }
        if t.allow_new && !baseline.gauges.contains_key(key) {
            continue;
        }
        let a = baseline.gauges.get(key).map(|g| g.high_water).unwrap_or(0.0);
        let b = fresh.gauges.get(key).map(|g| g.high_water).unwrap_or(0.0);
        let d = rel_delta(a, b);
        if d > t.gauge_tol {
            violations.push(format!(
                "gauge {key}: high-water {a} vs {b} (rel delta {d:.2} > {:.2})",
                t.gauge_tol
            ));
        }
    }

    // Histograms: a distribution present on one side only is structural
    // breakage; for shared keys, sample counts obey the counter
    // tolerance and p50/p99 may shift at most `hist_ratio`.
    for key in baseline.histograms.keys().chain(fresh.histograms.keys()) {
        // The noisy exemption covers existence too: a load-dependent
        // histogram (CAS bursts, traced-only track times) appears only on
        // some runs, so one-sidedness there is not breakage.
        if is_noisy(key) {
            continue;
        }
        if t.allow_new && !baseline.histograms.contains_key(key) {
            continue;
        }
        let (Some(a), Some(b)) = (baseline.histograms.get(key), fresh.histograms.get(key)) else {
            violations.push(format!("histogram {key}: present in only one report"));
            continue;
        };
        let d = rel_delta(a.count as f64, b.count as f64);
        if d > t.counter_tol {
            violations.push(format!(
                "histogram {key}: count {} vs {} (rel delta {d:.2} > {:.2})",
                a.count, b.count, t.counter_tol
            ));
        }
        for (name, pa, pb) in [("p50", a.p50, b.p50), ("p99", a.p99, b.p99)] {
            let r = ratio(pa as f64, pb as f64);
            if r > t.hist_ratio {
                violations.push(format!(
                    "histogram {key}: {name} {pa} vs {pb} (ratio {r:.1} > {:.1})",
                    t.hist_ratio
                ));
            }
        }
    }

    // Required gauges: presence-and-positivity check on the fresh
    // report, independent of the noisy exemption (which only waives
    // magnitude comparison, not existence demands made explicitly).
    for name in &t.require_gauges {
        match fresh.gauges.get(name) {
            None => violations.push(format!("required gauge {name}: missing from fresh report")),
            Some(g) if g.high_water <= 0.0 => violations.push(format!(
                "required gauge {name}: high-water {} is not positive",
                g.high_water
            )),
            Some(_) => {}
        }
    }

    // Convergence series: iteration counts within tolerance (an empty
    // series on one side only is structural breakage).
    let (na, nb) = (baseline.iterations.len(), fresh.iterations.len());
    if t.allow_new && na == 0 && nb > 0 {
        // Bootstrap: a fresh report growing an iteration series is fine.
    } else if (na == 0) != (nb == 0) {
        violations.push(format!("iterations: baseline has {na} rows, fresh has {nb}"));
    } else if rel_delta(na as f64, nb as f64) > t.iter_tol {
        violations.push(format!(
            "iterations: {na} vs {nb} rows (rel delta {:.2} > {:.2})",
            rel_delta(na as f64, nb as f64),
            t.iter_tol
        ));
    }

    violations
}

/// Structural validation of a Chrome `trace_event` JSON file: object
/// form with a `traceEvents` array of well-formed events.
fn validate_trace(text: &str) -> Result<usize, String> {
    let root = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .ok_or("missing `traceEvents` key")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let name = ev.get("name").and_then(Json::as_str).ok_or(format!("event {i}: no name"))?;
        let ph = ev.get("ph").and_then(Json::as_str).ok_or(format!("event {i}: no ph"))?;
        if !matches!(ph, "X" | "i" | "B" | "E" | "M") {
            return Err(format!("event {i} ({name}): unknown phase {ph:?}"));
        }
        ev.get("ts").and_then(Json::as_f64).ok_or(format!("event {i} ({name}): no ts"))?;
        ev.get("tid").and_then(Json::as_f64).ok_or(format!("event {i} ({name}): no tid"))?;
        if ph == "X" {
            ev.get("dur")
                .and_then(Json::as_f64)
                .ok_or(format!("event {i} ({name}): X without dur"))?;
        }
    }
    Ok(events.len())
}

fn load_report(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RunReport::from_json_str(&text).map_err(|e| format!("{path} is not a run report: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: report-diff <baseline.json> <fresh.json> \
         [--counter-tol R] [--gauge-tol R] [--hist-ratio R] [--iter-tol R] \
         [--allow-new-sections] [--require-gauge NAME]...\n\
         \x20      report-diff --self <report.json>\n\
         \x20      report-diff --validate-trace <trace.json>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut t = Thresholds::default();
    let mut self_check = false;
    let mut trace_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--self" => self_check = true,
            "--allow-new-sections" => t.allow_new = true,
            "--validate-trace" => match take(&mut i) {
                Some(p) => trace_path = Some(p),
                None => return usage(),
            },
            "--require-gauge" => match take(&mut i) {
                Some(name) => t.require_gauges.push(name),
                None => {
                    eprintln!("report-diff: --require-gauge needs a gauge name");
                    return usage();
                }
            },
            "--counter-tol" | "--gauge-tol" | "--hist-ratio" | "--iter-tol" => {
                let flag = args[i].clone();
                let Some(v) = take(&mut i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("report-diff: {flag} needs a number");
                    return usage();
                };
                match flag.as_str() {
                    "--counter-tol" => t.counter_tol = v,
                    "--gauge-tol" => t.gauge_tol = v,
                    "--hist-ratio" => t.hist_ratio = v,
                    _ => t.iter_tol = v,
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!("report-diff: unknown flag {flag}");
                return usage();
            }
            p => positional.push(p.to_string()),
        }
        i += 1;
    }

    if let Some(path) = trace_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("report-diff: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match validate_trace(&text) {
            Ok(n) => {
                println!("report-diff: {path} is a valid Chrome trace ({n} events)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("report-diff: {path} is not a valid Chrome trace: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (baseline_path, fresh_path) = if self_check {
        let [p] = positional.as_slice() else { return usage() };
        (p.clone(), p.clone())
    } else {
        let [a, b] = positional.as_slice() else { return usage() };
        (a.clone(), b.clone())
    };

    let (baseline, fresh) = match (load_report(&baseline_path), load_report(&fresh_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("report-diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    let violations = diff_reports(&baseline, &fresh, &t);
    println!(
        "report-diff: {} vs {}: {} counters, {} gauges, {} histograms, {} iteration rows checked",
        baseline_path,
        fresh_path,
        baseline.counters.len().max(fresh.counters.len()),
        baseline.gauges.len().max(fresh.gauges.len()),
        baseline.histograms.len().max(fresh.histograms.len()),
        baseline.iterations.len().max(fresh.iterations.len()),
    );
    if violations.is_empty() {
        println!("report-diff: PASS");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("report-diff: FAIL {v}");
        }
        eprintln!("report-diff: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(counter: u64, iters: usize) -> RunReport {
        let mut r = RunReport::default();
        r.counters.insert("sweep.segments".into(), counter);
        for i in 0..iters {
            r.iterations.push(Json::Obj(vec![("it".into(), Json::Int(i as i64 + 1))]));
        }
        r
    }

    #[test]
    fn identical_reports_pass() {
        let r = report_with(1_000_000, 30);
        assert!(diff_reports(&r, &r, &Thresholds::default()).is_empty());
    }

    #[test]
    fn counter_regression_is_caught() {
        let a = report_with(1_000_000, 30);
        let b = report_with(100, 30);
        let v = diff_reports(&a, &b, &Thresholds::default());
        assert!(v.iter().any(|m| m.contains("sweep.segments")), "{v:?}");
    }

    #[test]
    fn missing_iteration_series_is_caught() {
        let a = report_with(1_000_000, 30);
        let b = report_with(1_000_000, 0);
        let v = diff_reports(&a, &b, &Thresholds::default());
        assert!(v.iter().any(|m| m.contains("iterations")), "{v:?}");
    }

    #[test]
    fn noisy_keys_are_not_gated() {
        let mut a = report_with(1_000_000, 30);
        let mut b = report_with(1_000_000, 30);
        a.counters.insert("sweep.cas_retries".into(), 0);
        b.counters.insert("sweep.cas_retries".into(), 1_000_000);
        assert!(diff_reports(&a, &b, &Thresholds::default()).is_empty());
    }

    #[test]
    fn one_sided_histogram_is_structural_breakage() {
        let mut a = report_with(1_000_000, 30);
        let b = report_with(1_000_000, 30);
        a.histograms.insert(
            "sweep.segments_per_track".into(),
            antmoc::telemetry::HistogramSummary { count: 5, p50: 1, p90: 2, p99: 3, max: 4 },
        );
        let v = diff_reports(&a, &b, &Thresholds::default());
        assert!(v.iter().any(|m| m.contains("only one report")), "{v:?}");
    }

    #[test]
    fn one_sided_noisy_histogram_is_exempt() {
        // Load-dependent histograms appear only on contended runs; their
        // absence in one report is not structural breakage.
        let mut a = report_with(1_000_000, 30);
        let b = report_with(1_000_000, 30);
        a.histograms.insert(
            "sweep.track_ns".into(),
            antmoc::telemetry::HistogramSummary { count: 5, p50: 1, p90: 2, p99: 3, max: 4 },
        );
        assert!(diff_reports(&a, &b, &Thresholds::default()).is_empty());
    }

    #[test]
    fn allow_new_sections_accepts_fresh_only_metrics() {
        let a = report_with(1_000_000, 30);
        let mut b = report_with(1_000_000, 30);
        b.counters.insert("fixed.iterations".into(), 120);
        b.gauges.insert(
            "solver.flux_bank_bytes".into(),
            antmoc::telemetry::GaugeStats { last: 4096.0, high_water: 4096.0 },
        );
        b.histograms.insert(
            "sweep.segments_per_track".into(),
            antmoc::telemetry::HistogramSummary { count: 5, p50: 1, p90: 2, p99: 3, max: 4 },
        );
        let strict = diff_reports(&a, &b, &Thresholds::default());
        assert!(!strict.is_empty(), "strict mode should flag fresh-only metrics");
        let bootstrap = Thresholds { allow_new: true, ..Default::default() };
        assert!(diff_reports(&a, &b, &bootstrap).is_empty());
        // The other direction stays a failure: a metric vanishing from
        // the fresh report is a regression even in bootstrap mode.
        let v = diff_reports(&b, &a, &bootstrap);
        assert!(v.iter().any(|m| m.contains("only one report")), "{v:?}");
    }

    #[test]
    fn required_gauge_missing_or_zero_is_a_violation() {
        let a = report_with(1_000_000, 30);
        let mut b = report_with(1_000_000, 30);
        let t =
            Thresholds { require_gauges: vec!["comm.overlap_ratio".into()], ..Default::default() };
        // Missing entirely: violation (even though the gauge is in the
        // noisy list — the exemption waives magnitude gating only).
        let v = diff_reports(&a, &b, &t);
        assert!(v.iter().any(|m| m.contains("missing from fresh report")), "{v:?}");
        // Present but never positive: still a violation.
        b.gauges.insert(
            "comm.overlap_ratio".into(),
            antmoc::telemetry::GaugeStats { last: 0.0, high_water: 0.0 },
        );
        let v = diff_reports(&a, &b, &t);
        assert!(v.iter().any(|m| m.contains("not positive")), "{v:?}");
        // Positive high-water: satisfied.
        b.gauges.insert(
            "comm.overlap_ratio".into(),
            antmoc::telemetry::GaugeStats { last: 0.5, high_water: 1.0 },
        );
        assert!(diff_reports(&a, &b, &t).is_empty());
    }

    #[test]
    fn required_gauge_checks_the_fresh_side_only() {
        // A baseline that carries the gauge does not satisfy the
        // requirement on behalf of a fresh report that lost it.
        let mut a = report_with(1_000_000, 30);
        let b = report_with(1_000_000, 30);
        a.gauges.insert(
            "comm.overlap_ratio".into(),
            antmoc::telemetry::GaugeStats { last: 1.0, high_water: 1.0 },
        );
        let t =
            Thresholds { require_gauges: vec!["comm.overlap_ratio".into()], ..Default::default() };
        let v = diff_reports(&a, &b, &t);
        assert!(v.iter().any(|m| m.contains("missing from fresh report")), "{v:?}");
    }

    #[test]
    fn trace_validation_accepts_the_emitted_shape() {
        let text = r#"{
            "traceEvents": [
                {"name": "track", "ph": "X", "ts": 10, "dur": 5, "pid": 0, "tid": 1},
                {"name": "sweep.summary", "ph": "i", "ts": 20, "pid": 0, "tid": 1, "s": "t"}
            ],
            "displayTimeUnit": "ms"
        }"#;
        assert_eq!(validate_trace(text), Ok(2));
        assert!(validate_trace("{}").is_err());
        assert!(validate_trace(r#"{"traceEvents": [{"name": "x"}]}"#).is_err());
    }
}
