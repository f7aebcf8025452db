//! CI case runner: solve one declarative case file end-to-end and gate
//! the outcome on the physics bands the case declares.
//!
//! ```text
//! cargo run --release --bin run_case -- cases/pin_cell.toml
//! cargo run --release --bin run_case -- cases/c5g7_pipelined.ini
//! ANTMOC_UPDATE_GOLDEN=1 cargo run --release --bin run_case -- cases/pin_cell.toml
//! ```
//!
//! A `.toml` file is a declarative [`CaseSpec`] with physics gates; any
//! other extension is parsed as a raw pipeline INI ([`RunConfig`]),
//! which reaches the solver knobs the case format deliberately hides
//! (spatial decomposition, exchange mode, fault plans). INI cases take
//! their name from the file stem, have no declarative gate bands, and
//! gate on convergence alone — CI layers `report-diff` on the emitted
//! artifact for the rest.
//!
//! The run writes `results/<case>_report.json` (the combined telemetry
//! artifact) and, when tracing is on, `results/<case>.trace.json`. With
//! `--write-baseline` or `ANTMOC_UPDATE_GOLDEN=1` the artifact is also
//! copied to `ci/baselines/<case>.json`, the golden the CI case matrix
//! diffs fresh runs against. When `GITHUB_STEP_SUMMARY` is set, a
//! one-row markdown table with the headline numbers is appended to it.
//!
//! Gates:
//! - `[gates] keff = [lo, hi]` — the eigenvalue must converge and land
//!   inside the band.
//! - `[gates] flux_ratio = { from, to, group, min, max }` — the
//!   attenuation factor `mean flux(from, group) / mean flux(to, group)`
//!   from the per-material flux tally must land inside `[min, max]`.

use std::process::ExitCode;

use antmoc::telemetry::{Json, RunReport as TelemetryReport, Telemetry};
use antmoc::{run, run_artifact, RunConfig};
use antmoc_input::CaseSpec;

/// Sweep throughput from the artifact: segments per second spent inside
/// `transport_sweep` spans.
fn sweep_throughput(report: &TelemetryReport) -> Option<f64> {
    let segments = report.counter("sweep.segments");
    let seconds: f64 = report
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("transport_sweep"))
        .map(|(_, s)| s.total_s)
        .sum();
    if segments == 0 || seconds <= 0.0 {
        return None;
    }
    Some(segments as f64 / seconds)
}

/// Mean group flux for a named material from the pipeline's
/// volume-weighted per-material tally.
fn material_group_flux(
    flux: &[(String, Vec<f64>)],
    material: &str,
    group_1based: usize,
) -> Option<f64> {
    flux.iter()
        .find(|(name, _)| name == material)
        .and_then(|(_, groups)| groups.get(group_1based - 1))
        .copied()
}

fn append_step_summary(row: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else { return };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    let file = std::fs::OpenOptions::new().create(true).append(true).open(&path);
    match file {
        Ok(mut f) => {
            let _ = writeln!(f, "{row}");
        }
        Err(e) => eprintln!("run-case: cannot append to step summary {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let mut case_path = None;
    let mut write_baseline = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            other if other.starts_with('-') => {
                eprintln!("run-case: unknown flag {other:?}");
                eprintln!("usage: run_case [--write-baseline] <case.toml>");
                return ExitCode::FAILURE;
            }
            other => case_path = Some(other.to_owned()),
        }
    }
    if std::env::var("ANTMOC_UPDATE_GOLDEN").map(|v| v == "1").unwrap_or(false) {
        write_baseline = true;
    }
    let Some(case_path) = case_path else {
        eprintln!("usage: run_case [--write-baseline] <case.toml>");
        return ExitCode::FAILURE;
    };

    let text = match std::fs::read_to_string(&case_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("run-case: cannot read {case_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (spec, config, name) = if case_path.ends_with(".toml") {
        let spec = match CaseSpec::parse(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("run-case: {case_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let config = match RunConfig::from_case(&spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("run-case: {case_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let name = spec.name.clone();
        println!("run-case: solving {} ({:?})...", name, spec.kind);
        (Some(spec), config, name)
    } else {
        let config = match RunConfig::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("run-case: {case_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let name = std::path::Path::new(&case_path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("case")
            .to_owned();
        println!("run-case: solving {name} (pipeline ini)...");
        (None, config, name)
    };
    Telemetry::global().reset();
    let outcome = run(&config);

    let report = run_artifact(&outcome);
    let report_path = format!("results/{name}_report.json");
    report.write_json(&report_path).expect("write case report");
    println!("run-case: wrote {report_path}");
    if let Some(path) =
        antmoc::write_trace_artifact("results", &name).expect("write trace artifact")
    {
        println!("run-case: wrote {}", path.display());
    }
    if write_baseline {
        let baseline_path = format!("ci/baselines/{name}.json");
        std::fs::create_dir_all("ci/baselines").expect("create baselines dir");
        report.write_json(&baseline_path).expect("write case baseline");
        println!("run-case: wrote {baseline_path}");
    }

    let throughput = sweep_throughput(&report);
    // The pipeline records which sweep kernel and tally mode the run
    // resolved to as report meta; surface both in the case matrix.
    let meta_str = |key: &str| {
        report.meta.get(key).and_then(Json::as_str).map_or_else(|| "?".into(), str::to_owned)
    };
    let kernel = meta_str("kernel");
    let tallies = meta_str("tallies");
    println!(
        "run-case: {}: k_eff {:.6}, {} iterations, converged: {}, {} segments, \
         kernel {kernel}, tallies {tallies}, {}",
        name,
        outcome.keff,
        outcome.iterations,
        outcome.converged,
        report.counter("sweep.segments"),
        throughput
            .map_or("no sweep-throughput telemetry".into(), |t| format!("{t:.3e} segments/s")),
    );
    append_step_summary(&format!(
        "| {} | {:.6} | {} | {} | {kernel} | {tallies} | {} |",
        name,
        outcome.keff,
        outcome.iterations,
        outcome.converged,
        throughput.map_or("n/a".into(), |t| format!("{t:.3e} seg/s")),
    ));

    let mut failures = Vec::new();
    if !outcome.converged {
        failures.push(format!("solve did not converge in {} iterations", outcome.iterations));
    }
    let gates = spec.as_ref().map(|s| &s.gates);
    if let Some((lo, hi)) = gates.and_then(|g| g.keff) {
        if outcome.keff < lo || outcome.keff > hi {
            failures.push(format!("k_eff {:.6} outside the gate band [{lo}, {hi}]", outcome.keff));
        } else {
            println!("run-case: keff gate: {:.6} within [{lo}, {hi}]", outcome.keff);
        }
    }
    if let Some(gate) = gates.and_then(|g| g.flux_ratio.as_ref()) {
        let from = material_group_flux(&outcome.material_flux, &gate.from, gate.group);
        let to = material_group_flux(&outcome.material_flux, &gate.to, gate.group);
        match (from, to) {
            (Some(f), Some(t)) if t > 0.0 => {
                let ratio = f / t;
                if ratio < gate.min || ratio > gate.max {
                    failures.push(format!(
                        "flux ratio {}/{} group {} = {ratio:.4} outside [{}, {}]",
                        gate.from, gate.to, gate.group, gate.min, gate.max
                    ));
                } else {
                    println!(
                        "run-case: flux-ratio gate: {}/{} group {} = {ratio:.4} within [{}, {}]",
                        gate.from, gate.to, gate.group, gate.min, gate.max
                    );
                }
            }
            _ => failures.push(format!(
                "flux-ratio gate needs non-zero tallies for {:?} and {:?} (group {})",
                gate.from, gate.to, gate.group
            )),
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("run-case: FAIL — {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("run-case: PASS");
    ExitCode::SUCCESS
}
