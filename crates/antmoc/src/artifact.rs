//! Turning a finished run into the machine-readable `results/*.json`
//! artifact: the global telemetry snapshot (per-phase spans, counters,
//! gauges) plus a `run` section summarising the pipeline outcome, in one
//! file a perf gate or a plotting script can parse.

use antmoc_telemetry::{Json, RunReport as TelemetryReport, Telemetry};

use crate::pipeline::RunReport;

/// Embeds the pipeline outcome as the `run` section of the global
/// telemetry and returns the combined snapshot.
pub fn run_artifact(report: &RunReport) -> TelemetryReport {
    let tel = Telemetry::current();
    tel.set_section("run", run_section(report));
    let mut artifact = tel.report();
    // Comm volume is part of the artifact contract; single-domain runs
    // never touch that path, so pin the counters to explicit zeros.
    for name in ["comm.sent_bytes", "comm.recv_bytes"] {
        artifact.counters.entry(name.to_string()).or_insert(0);
    }
    artifact
}

/// Snapshots the artifact and writes it to `path` (parent directories are
/// created). Returns the combined report for further inspection.
pub fn write_run_artifact(
    report: &RunReport,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<TelemetryReport> {
    let artifact = run_artifact(report);
    artifact.write_json(path)?;
    Ok(artifact)
}

/// Writes the Chrome `trace_event` timeline next to the run report when
/// tracing was enabled for the run; returns the path written, or `None`
/// when tracing was off (no file is touched, so artifact directories
/// stay clean for untraced runs).
pub fn write_trace_artifact(
    dir: impl AsRef<std::path::Path>,
    case: &str,
) -> std::io::Result<Option<std::path::PathBuf>> {
    let tel = Telemetry::current();
    if !tel.trace_enabled() {
        return Ok(None);
    }
    let path = dir.as_ref().join(format!("{case}.trace.json"));
    tel.write_trace(&path)?;
    Ok(Some(path))
}

fn run_section(report: &RunReport) -> Json {
    Json::Obj(vec![
        ("keff".into(), Json::Num(report.keff)),
        ("iterations".into(), Json::Uint(report.iterations as u64)),
        ("converged".into(), Json::Bool(report.converged)),
        ("geometry_s".into(), Json::Num(report.timings.geometry)),
        ("tracking_s".into(), Json::Num(report.timings.tracking)),
        ("transport_s".into(), Json::Num(report.timings.transport)),
        ("output_s".into(), Json::Num(report.timings.output)),
        ("num_2d_tracks".into(), Json::Uint(report.num_2d_tracks as u64)),
        ("num_3d_tracks".into(), Json::Uint(report.num_3d_tracks as u64)),
        ("num_3d_segments".into(), Json::Uint(report.num_3d_segments)),
        ("num_fsrs".into(), Json::Uint(report.num_fsrs as u64)),
        ("comm_bytes".into(), Json::Uint(report.comm_bytes)),
        (
            "material_flux".into(),
            Json::Obj(
                report
                    .material_flux
                    .iter()
                    .map(|(name, flux)| {
                        (name.clone(), Json::Arr(flux.iter().map(|&x| Json::Num(x)).collect()))
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::PinRates;
    use crate::pipeline::StageTimings;

    fn fake_report() -> RunReport {
        RunReport {
            keff: 1.18,
            iterations: 42,
            converged: true,
            pin_rates: PinRates::default(),
            material_flux: vec![("uo2".into(), vec![1.0, 0.5])],
            timings: StageTimings { geometry: 0.1, tracking: 0.2, transport: 3.0, output: 0.05 },
            num_2d_tracks: 100,
            num_3d_tracks: 1000,
            num_3d_segments: 50_000,
            num_fsrs: 1700,
            comm_bytes: 4096,
        }
    }

    #[test]
    fn run_section_round_trips_through_json() {
        let artifact = run_artifact(&fake_report());
        let back = TelemetryReport::from_json_str(&artifact.to_json_string()).unwrap();
        let run = back.sections.get("run").unwrap();
        assert_eq!(run.get("iterations").and_then(Json::as_u64), Some(42));
        assert_eq!(run.get("num_3d_segments").and_then(Json::as_u64), Some(50_000));
        assert_eq!(run.get("keff").and_then(Json::as_f64), Some(1.18));
    }
}
