//! End-to-end overlap evidence for the pipelined boundary exchange, via
//! the full config-driven pipeline on a 4-rank decomposition under a
//! simulated interconnect (500 us latency, 20 MB/s):
//!
//! * the pipelined run's blocking point-to-point wait tail
//!   (`comm.recv_wait_ns` p99) is strictly below the synchronous run's —
//!   payloads ship during the interior sweep, so the drain mostly polls
//!   them out ready;
//! * the `comm.overlap_ratio` gauge lands positive;
//! * the Chrome trace shows the overlap structurally: a
//!   `comm.exchange_send` slice fully contained inside a `cluster.sweep`
//!   slice on the same thread;
//! * timing never changes physics: sync and pipelined k_eff are bitwise
//!   equal on the serial backend.
//!
//! Each run records into a private sink of its own, installed for the
//! run (the cluster's rank threads inherit it).

use antmoc::config::RunConfig;
use antmoc::pipeline::run;
use antmoc::telemetry::{Json, Telemetry};

const BASE: &str = r#"
[model]
axial_dz = 21.42
[tracks]
num_azim = 4
radial_spacing = 1.2
num_polar = 2
axial_spacing = 20.0
[decomposition]
nx = 2
ny = 2
nz = 1
link_latency_us = 500
link_mb_per_s = 20
[solver]
tolerance = 1e-30
max_iterations = 12
mode = otf
backend = cpu-serial
[telemetry]
trace = true
"#;

fn p99(report: &antmoc::telemetry::RunReport) -> u64 {
    report.histograms.get("comm.recv_wait_ns").map_or(0, |h| h.p99)
}

#[test]
fn pipelined_exchange_overlaps_the_interior_sweep() {
    let sync_tel = Telemetry::new();
    let sync_cfg = RunConfig::parse(BASE).unwrap();
    let sync = {
        let _sink = sync_tel.install();
        run(&sync_cfg)
    };
    let sync_report = sync_tel.report();

    let pipe_tel = Telemetry::new();
    let pipe_cfg =
        RunConfig::parse(&format!("{BASE}[decomposition]\nexchange = pipelined\n")).unwrap();
    let pipe = {
        let _sink = pipe_tel.install();
        run(&pipe_cfg)
    };
    let pipe_report = pipe_tel.report();
    let trace = pipe_tel.trace_json();

    // Link timing never changes physics: bitwise-equal answers.
    assert_eq!(
        sync.keff.to_bits(),
        pipe.keff.to_bits(),
        "sync k {} vs pipelined k {}",
        sync.keff,
        pipe.keff
    );

    // The wait tail shrinks: synchronous receives pay the link latency
    // and per-destination serialization; pipelined receives mostly find
    // the payload already landed.
    let (sp99, pp99) = (p99(&sync_report), p99(&pipe_report));
    assert!(sp99 > 0, "sync run under a 500 us link recorded no blocking waits");
    assert!(pp99 < sp99, "recv_wait_ns p99: pipelined {pp99} not below sync {sp99}");

    // The drain classified its receives and the overlap gauge is live.
    let ready = pipe_report.counter("comm.recv_ready");
    let blocked = pipe_report.counter("comm.recv_blocked");
    assert!(ready > 0, "no exchange receive found its payload already landed");
    let overlap = pipe_report.gauges.get("comm.overlap_ratio").map_or(0.0, |g| g.high_water);
    assert!(
        overlap > 0.0 && overlap <= 1.0,
        "comm.overlap_ratio {overlap} (ready {ready}, blocked {blocked})"
    );

    // Structural overlap in the timeline: some exchange send completes
    // inside a sweep slice on the same thread.
    let Some(Json::Arr(events)) = trace.get("traceEvents").cloned() else {
        panic!("trace document has no traceEvents array");
    };
    let slices = |name: &str| -> Vec<(f64, f64, f64)> {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .map(|e| {
                let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                let dur = e.get("dur").and_then(Json::as_f64).unwrap();
                let tid = e.get("tid").and_then(Json::as_f64).unwrap();
                (ts, dur, tid)
            })
            .collect()
    };
    let sweeps = slices("cluster.sweep");
    let sends = slices("comm.exchange_send");
    assert!(!sweeps.is_empty(), "no cluster.sweep slices in the trace");
    assert!(!sends.is_empty(), "no comm.exchange_send slices in the trace");
    let nested = sends.iter().any(|&(sts, sdur, stid)| {
        sweeps
            .iter()
            .any(|&(wts, wdur, wtid)| stid == wtid && sts >= wts && sts + sdur <= wts + wdur)
    });
    assert!(nested, "no exchange send is nested inside a sweep slice on the same thread");
}
