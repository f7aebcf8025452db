//! Golden-file regression test for the `RunReport` JSON schema.
//!
//! A fixed, fully deterministic report — covering every schema feature and
//! the scheduler telemetry keys (`sweep.load_ratio`, per-worker busy
//! time) — must serialize byte-for-byte to
//! `tests/golden/run_report.json`. Renaming or retyping an existing key
//! changes the output and fails this test; adding a key means
//! regenerating the golden with `ANTMOC_UPDATE_GOLDEN=1 cargo test -p
//! antmoc --test report_schema` and reviewing the diff.

use antmoc_telemetry::{GaugeStats, HistogramSummary, Json, RunReport, SpanStats};

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/run_report.json")
}

/// A report exercising every schema feature with fixed values.
fn representative_report() -> RunReport {
    let mut r = RunReport::default();
    r.set_meta("case", "c5g7");
    r.set_meta("backend", "cpu");
    r.set_meta("mode", "otf");
    r.set_meta("schedule", "l3_sorted");
    r.set_meta("tallies", "auto");
    r.set_meta("exp", "intrinsic");
    r.set_meta("kernel", "vector");
    r.set_meta_num("decomposition_domains", 1.0);

    r.spans.insert("eigen".into(), SpanStats { count: 1, total_s: 2.5, min_s: 2.5, max_s: 2.5 });
    r.spans.insert(
        "eigen/transport_sweep".into(),
        SpanStats { count: 8, total_s: 2.0, min_s: 0.125, max_s: 0.5 },
    );
    r.spans.insert(
        "track_generation".into(),
        SpanStats { count: 1, total_s: 0.25, min_s: 0.25, max_s: 0.25 },
    );

    r.counters.insert("comm.dropped".into(), 3);
    r.counters.insert("comm.flipped".into(), 1);
    r.counters.insert("comm.rank_failures".into(), 1);
    r.counters.insert("comm.retries".into(), 5);
    r.counters.insert("eigen.iterations".into(), 8);
    r.counters.insert("sweep.cas_retries".into(), 3);
    r.counters.insert("sweep.segments".into(), 1_234_567);
    r.counters.insert("sweep.tracks".into(), 4096);

    r.gauges
        .insert("solver.flux_bank_bytes".into(), GaugeStats { last: 65536.0, high_water: 65536.0 });
    r.gauges
        .insert("sweep.bytes_per_segment".into(), GaugeStats { last: 288.0, high_water: 288.0 });
    r.gauges.insert("sweep.load_ratio".into(), GaugeStats { last: 1.125, high_water: 1.25 });
    r.gauges
        .insert("sweep.tally_bytes".into(), GaugeStats { last: 389256.0, high_water: 1557024.0 });
    r.gauges.insert("sweep.worker_busy_max_s".into(), GaugeStats { last: 0.5, high_water: 0.5 });
    r.gauges.insert("sweep.worker_busy_mean_s".into(), GaugeStats { last: 0.4, high_water: 0.45 });

    // Histogram quantile snapshots, in the shapes the sweep and comm
    // layers record (nanosecond latencies and per-track retry bursts).
    r.histograms.insert(
        "comm.recv_wait_ns".into(),
        HistogramSummary { count: 96, p50: 18_432, p90: 61_440, p99: 126_976, max: 131_071 },
    );
    r.histograms.insert(
        "sweep.track_ns".into(),
        HistogramSummary { count: 4096, p50: 12_288, p90: 28_672, p99: 49_152, max: 50_000 },
    );

    // Per-iteration convergence rows, in the shape the eigen driver
    // appends (parser-canonical Int for non-negative integers).
    for (it, k, res) in [(1i64, 1.05, 0.2), (2, 1.12, 0.04)] {
        r.iterations.push(Json::Obj(vec![
            ("it".into(), Json::Int(it)),
            ("k".into(), Json::Num(k)),
            ("residual".into(), Json::Num(res)),
            ("sweep_s".into(), Json::Num(0.25)),
            ("segments".into(), Json::Int(154_320)),
            ("cas_retries".into(), Json::Int(0)),
            ("checkpoint".into(), Json::Bool(it == 2)),
        ]));
    }

    r.set_section(
        "sweep_workers",
        Json::Obj(vec![
            ("workers".into(), Json::Uint(4)),
            (
                "busy_s".into(),
                Json::Arr(vec![
                    Json::Num(0.5),
                    Json::Num(0.375),
                    Json::Num(0.375),
                    Json::Num(0.35),
                ]),
            ),
            (
                "items".into(),
                Json::Arr(vec![
                    Json::Uint(1100),
                    Json::Uint(1000),
                    Json::Uint(1000),
                    Json::Uint(996),
                ]),
            ),
        ]),
    );
    // The tally/exp kernel resolution, in the exact shape the arena sweep
    // emits.
    r.set_section(
        "sweep_kernel",
        Json::Obj(vec![
            ("tally_mode".into(), Json::Str("privatized".into())),
            ("exp_mode".into(), Json::Str("intrinsic".into())),
            ("workers".into(), Json::Uint(4)),
            ("kernel".into(), Json::Str("vector".into())),
            ("lanes".into(), Json::Uint(4)),
            ("block_kb".into(), Json::Uint(16)),
        ]),
    );
    r.set_section("balance", Json::Obj(vec![("k_balance".into(), Json::Num(1.18))]));
    // The fault-injection summary and the degradation-response log, in the
    // exact shapes `solve_cluster_recovering` emits.
    r.set_section(
        "fault",
        Json::Obj(vec![
            ("seed".into(), Json::Uint(42)),
            ("drop_p".into(), Json::Num(0.05)),
            ("flip_p".into(), Json::Num(0.01)),
            ("max_retries".into(), Json::Uint(24)),
            (
                "deaths".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("rank".into(), Json::Uint(1)),
                    ("iteration".into(), Json::Uint(18)),
                ])]),
            ),
            ("restarts".into(), Json::Uint(1)),
        ]),
    );
    r.set_section(
        "rebalance",
        Json::Obj(vec![(
            "events".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("died_rank".into(), Json::Uint(1)),
                ("at_iteration".into(), Json::Uint(18)),
                ("restart_iteration".into(), Json::Uint(16)),
                ("survivors".into(), Json::Uint(3)),
                ("migrated".into(), Json::Uint(1)),
                ("cut".into(), Json::Num(12.5)),
                (
                    "node_loads".into(),
                    Json::Arr(vec![Json::Num(1.25), Json::Num(1.375), Json::Num(1.5)]),
                ),
            ])]),
        )]),
    );
    r
}

#[test]
fn run_report_schema_matches_golden_file() {
    let produced = representative_report().to_json_string();
    let path = golden_path();
    if std::env::var_os("ANTMOC_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        produced, golden,
        "RunReport JSON schema drifted from tests/golden/run_report.json; \
         if the change is intentional, regenerate with ANTMOC_UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

#[test]
fn golden_file_round_trips_losslessly() {
    let golden = std::fs::read_to_string(golden_path()).unwrap();
    let parsed = RunReport::from_json_str(&golden).unwrap();
    // Textual round-trip: re-serializing the parsed report reproduces the
    // golden bytes (the parser reads non-negative ints as Int where the
    // writer used Uint, so struct equality is too strict for sections).
    assert_eq!(parsed.to_json_string(), golden);
    // And the scheduler keys are present by name.
    assert!(parsed.gauges.contains_key("sweep.load_ratio"));
    assert!(parsed.gauges.contains_key("sweep.worker_busy_max_s"));
    assert!(parsed.gauges.contains_key("sweep.worker_busy_mean_s"));
    assert!(parsed.sections.contains_key("sweep_workers"));
    // The tally-kernel keys from the privatized-tallies PR.
    assert_eq!(parsed.counter("sweep.cas_retries"), 3);
    assert!(parsed.gauges.contains_key("sweep.tally_bytes"));
    let kernel = parsed.sections.get("sweep_kernel").expect("sweep_kernel section");
    assert_eq!(kernel.get("tally_mode").and_then(Json::as_str), Some("privatized"));
    assert_eq!(kernel.get("exp_mode").and_then(Json::as_str), Some("intrinsic"));
    assert_eq!(kernel.get("workers").and_then(Json::as_u64), Some(4));
    // The vectorized-kernel keys: which sweep kernel ran, its group-lane
    // width, and the cache-block size the tally reduction used.
    assert_eq!(kernel.get("kernel").and_then(Json::as_str), Some("vector"));
    assert_eq!(kernel.get("lanes").and_then(Json::as_u64), Some(4));
    assert_eq!(kernel.get("block_kb").and_then(Json::as_u64), Some(16));
    assert!(parsed.gauges.contains_key("sweep.bytes_per_segment"));
    // The fault-injection keys: counters plus the `fault` and `rebalance`
    // sections with their event structure.
    assert_eq!(parsed.counter("comm.retries"), 5);
    assert_eq!(parsed.counter("comm.dropped"), 3);
    assert_eq!(parsed.counter("comm.flipped"), 1);
    assert_eq!(parsed.counter("comm.rank_failures"), 1);
    let fault = parsed.sections.get("fault").expect("fault section");
    assert_eq!(fault.get("restarts").and_then(Json::as_u64), Some(1));
    assert_eq!(fault.get("drop_p").and_then(Json::as_f64), Some(0.05));
    let rebalance = parsed.sections.get("rebalance").expect("rebalance section");
    let events = match rebalance.get("events") {
        Some(Json::Arr(events)) => events,
        other => panic!("rebalance.events missing: {other:?}"),
    };
    assert_eq!(events[0].get("survivors").and_then(Json::as_u64), Some(3));
    assert_eq!(events[0].get("migrated").and_then(Json::as_u64), Some(1));
    // The observability keys: histogram quantiles and the per-iteration
    // convergence series.
    assert_eq!(parsed.histograms.len(), 2);
    let track = parsed.histograms.get("sweep.track_ns").expect("sweep.track_ns histogram");
    assert_eq!(track.count, 4096);
    assert_eq!(track.p99, 49_152);
    assert!(parsed.histograms.contains_key("comm.recv_wait_ns"));
    assert_eq!(parsed.iterations.len(), 2);
    assert_eq!(parsed.iterations[0].get("it").and_then(Json::as_u64), Some(1));
    assert_eq!(parsed.iterations[1].get("k").and_then(Json::as_f64), Some(1.12));
    assert_eq!(parsed.iterations[1].get("checkpoint"), Some(&Json::Bool(true)));
}
