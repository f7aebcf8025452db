//! The metric declarations (name, unit, direction, bound) — the Rust
//! mirror of `BENCHMARK.json`, kept equal to it by the schema test — and
//! the result line a run prints.

use std::collections::BTreeMap;

/// A declared metric: what a run must print under this name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median the
    /// metric may worsen by.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: None }
}

// The four timing bounds sit at the contract's ceiling because one bound
// serves all six workloads and the noisiest sets it: on the reference
// host (a 2-vCPU VM with noisy neighbours) the two decomposed workloads
// keep both vCPUs busy, so a neighbour taking one of them for a whole run
// stretches even the run's fastest pass (README, "Steadiness").
pub const END_TO_END: &[Metric] = &[
    e2e("wall_s", "s", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("solve_s", "s", "lower", 0.25),
    e2e("ns_per_segment", "ns", "lower", 0.25),
    e2e("iterations", "count", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("jobs_per_s", "1/s", "higher", 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // harness: this workload's traced pass
    layer("harness.unattributed_share", "ratio", "lower"),
    layer("harness.trace_overhead_ratio", "ratio", "lower"),
    layer("pass.input_s", "s", "lower"),
    layer("pass.setup_s", "s", "lower"),
    layer("pass.solve_s", "s", "lower"),
    layer("pass.report_s", "s", "lower"),
    // input
    layer("input.parse_us", "us", "lower"),
    layer("input.lower_us", "us", "lower"),
    layer("input.ini_parse_us", "us", "lower"),
    layer("input.bytes", "B", "lower"),
    // geom
    layer("geom.build_us", "us", "lower"),
    layer("geom.fsrs", "count", "lower"),
    // track / problem
    layer("track.laydown_us", "us", "lower"),
    layer("track.tracks_2d", "count", "lower"),
    layer("track.segments_2d", "count", "lower"),
    layer("track.tracks_3d", "count", "lower"),
    layer("track.count_segments_us", "us", "lower"),
    layer("track.volumes_us", "us", "lower"),
    layer("track.segments_per_sweep", "count", "lower"),
    layer("problem.build_us", "us", "lower"),
    layer("track.store_trace_us", "us", "lower"),
    layer("track.store_bytes", "B", "lower"),
    layer("track.otf_trace_ns_per_segment", "ns", "lower"),
    // exp
    layer("exp.intrinsic_ns_per_eval", "ns", "lower"),
    layer("exp.table_ns_per_eval", "ns", "lower"),
    layer("exp.table_build_us", "us", "lower"),
    layer("exp.table_bytes", "B", "lower"),
    // source
    layer("source.update_ns_per_slot", "ns", "lower"),
    // sweep kernel legs
    layer("sweep.scalar_intrinsic_otf.ns_per_segment", "ns", "lower"),
    layer("sweep.scalar_intrinsic_explicit.ns_per_segment", "ns", "lower"),
    layer("sweep.scalar_table_otf.ns_per_segment", "ns", "lower"),
    layer("sweep.scalar_table_explicit.ns_per_segment", "ns", "lower"),
    layer("sweep.vector_intrinsic_otf.ns_per_segment", "ns", "lower"),
    layer("sweep.vector_intrinsic_explicit.ns_per_segment", "ns", "lower"),
    layer("sweep.vector_table_otf.ns_per_segment", "ns", "lower"),
    layer("sweep.vector_table_explicit.ns_per_segment", "ns", "lower"),
    layer("sweep.atomic_scalar_intrinsic_otf.ns_per_segment", "ns", "lower"),
    layer("sweep.legacy_serial_otf.ns_per_segment", "ns", "lower"),
    layer("sweep.device_manager.ns_per_segment", "ns", "lower"),
    layer("sweep.vector_intrinsic_otf.w2.ns_per_segment", "ns", "lower"),
    layer("sweep.w2_efficiency", "ratio", "higher"),
    layer("sweep.bytes_per_segment_computed", "B", "lower"),
    // sweep / driver split of a solve
    layer("sweep.count", "count", "lower"),
    layer("sweep.p50_ms", "ms", "lower"),
    layer("sweep.p90_ms", "ms", "lower"),
    layer("sweep.total_s", "s", "lower"),
    layer("sweep.share", "ratio", "higher"),
    layer("driver.self_s", "s", "lower"),
    layer("driver.self_us_per_iter", "us", "lower"),
    // telemetry on the hot path
    layer("sweep.trace_on.ns_per_segment", "ns", "lower"),
    layer("telemetry.trace_overhead_ratio", "ratio", "lower"),
    // tally / manager
    layer("tally.bytes", "B", "lower"),
    layer("manager.select_us", "us", "lower"),
    layer("manager.resident_fraction", "ratio", "higher"),
    layer("manager.resident_bytes", "B", "lower"),
    // device
    layer("device.solver_new_us", "us", "lower"),
    layer("device.launches", "count", "lower"),
    layer("device.kernel_s", "s", "lower"),
    layer("device.cu_load_uniformity", "ratio", "higher"),
    layer("device.pool_peak_bytes", "B", "lower"),
    // decomp / exchange / cluster
    layer("decomp.build_us", "us", "lower"),
    layer("decomp.exchange_items", "count", "lower"),
    layer("cluster.sync.bytes_per_iter", "B", "lower"),
    layer("cluster.sync.messages_per_iter", "count", "lower"),
    layer("cluster.sync.rank_sweep_ms_per_iter_max", "ms", "lower"),
    layer("cluster.sync.rank_sweep_ms_per_iter_mean", "ms", "lower"),
    layer("cluster.sync.sweep_imbalance", "ratio", "lower"),
    layer("cluster.sync.nonsweep_ms_per_iter", "ms", "lower"),
    layer("cluster.pipelined.bytes_per_iter", "B", "lower"),
    layer("cluster.pipelined.messages_per_iter", "count", "lower"),
    layer("cluster.pipelined.rank_sweep_ms_per_iter_max", "ms", "lower"),
    layer("cluster.pipelined.rank_sweep_ms_per_iter_mean", "ms", "lower"),
    layer("cluster.pipelined.sweep_imbalance", "ratio", "lower"),
    layer("cluster.pipelined.nonsweep_ms_per_iter", "ms", "lower"),
    // comm
    layer("comm.p2p_ns_per_byte", "ns", "lower"),
    layer("comm.p2p_latency_us", "us", "lower"),
    layer("comm.allreduce_us", "us", "lower"),
    // output / report
    layer("output.rates_us", "us", "lower"),
    layer("report.build_us", "us", "lower"),
    layer("report.write_us", "us", "lower"),
    layer("report.bytes", "B", "lower"),
    // serve
    layer("serve.submit_us_p50", "us", "lower"),
    layer("serve.queue_wait_ms_p50", "ms", "lower"),
    layer("serve.cold_setup_ms", "ms", "lower"),
    layer("serve.warm_setup_us_p50", "us", "lower"),
    layer("serve.warm_tax_ms_p50", "ms", "lower"),
    layer("serve.cache_hits", "count", "higher"),
    layer("serve.cache_misses", "count", "lower"),
    layer("serve.peak_inflight_bytes", "B", "lower"),
    layer("serve.snapshot_us", "us", "lower"),
    // model
    layer("model.seg3d_rel_err", "ratio", "lower"),
    layer("model.sweep_s_rel_err", "ratio", "lower"),
];

/// Metric values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let previous = self.0.insert(name.to_owned(), value);
        assert!(previous.is_none(), "metric {name} set twice");
    }
}

/// The metrics a run must print: the end-to-end ones untraced, the
/// per-layer ones traced.
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Checks that `metrics` holds exactly the declared names with finite
/// values: a run may neither drop a declared metric nor invent one.
pub fn check_complete(metrics: &Metrics, trace: bool) -> Result<(), String> {
    let declared = declared(trace);
    for d in declared {
        let name = d.name;
        match metrics.0.get(name) {
            None => return Err(format!("declared metric {name} was not measured")),
            Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    for name in metrics.0.keys() {
        if !declared.iter().any(|d| d.name == name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    Ok(())
}

/// The one-line JSON object a run prints last: `correct`, `attempted`,
/// `failed` and every declared metric with its unit. Values keep all
/// their digits (Rust prints the shortest text that round-trips).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    trace: bool,
) -> String {
    let body: Vec<String> = declared(trace)
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, metrics.0[d.name], d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use antmoc::telemetry::{json, Json};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key} must be an array"))
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} must be a string"))
    }

    #[test]
    fn benchmark_json_meets_the_schema_limits() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &doc else { panic!("BENCHMARK.json must be an object") };
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        let workloads = entries(&doc, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        assert!(entries(&doc, "end_to_end").len() <= 16);
        assert!((1..=128).contains(&entries(&doc, "per_layer").len()));
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
        assert!((1..=60).contains(&seconds));

        let mut names = std::collections::BTreeSet::new();
        for w in workloads {
            assert!(name_ok(field(w, "name")), "workload name {:?}", field(w, "name"));
            let why = field(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {}", field(w, "name"));
            assert!(names.insert(field(w, "name").to_owned()), "duplicate name");
        }
        for key in ["end_to_end", "per_layer"] {
            for m in entries(&doc, key) {
                assert!(name_ok(field(m, "name")), "metric name {:?}", field(m, "name"));
                assert!(unit_ok(field(m, "unit")), "unit {:?}", field(m, "unit"));
                assert!(["lower", "higher"].contains(&field(m, "better")));
                assert!(names.insert(field(m, "name").to_owned()), "duplicate name");
            }
        }
        for m in entries(&doc, "end_to_end") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound));
        }
        let setup = entries(&doc, "end_to_end")
            .iter()
            .find(|m| field(m, "name") == "setup_s")
            .expect("setup_s is required");
        assert_eq!((field(setup, "unit"), field(setup, "better")), ("s", "lower"));
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_prints() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> =
            entries(&doc, "workloads").iter().map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (field(m, "name"), field(m, "unit"), field(m, "better"), bound)
            })
            .collect();
        let ours: Vec<_> =
            END_TO_END.iter().map(|m| (m.name, m.unit, m.better, m.bound.unwrap())).collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn a_run_may_neither_drop_nor_invent_a_metric() {
        let mut m = Metrics::default();
        for e in END_TO_END {
            m.set(e.name, 1.5);
        }
        assert!(check_complete(&m, false).is_ok());
        let line = result_line(true, 3, 0, &m, false);
        let doc = json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let printed = doc.get("metrics").unwrap();
        for e in END_TO_END {
            assert_eq!(
                printed.get(e.name).and_then(|v| v.get("unit")).and_then(Json::as_str),
                Some(e.unit)
            );
        }

        m.0.remove("wall_s");
        assert!(check_complete(&m, false).unwrap_err().contains("wall_s"));
        m.set("wall_s", f64::NAN);
        assert!(check_complete(&m, false).is_err());
        m.0.insert("wall_s".into(), 1.0);
        m.0.insert("made_up".into(), 1.0);
        assert!(check_complete(&m, false).unwrap_err().contains("made_up"));
    }
}
