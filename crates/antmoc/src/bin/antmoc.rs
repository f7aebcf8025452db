//! The `antmoc` command-line runner — the reproduction's analogue of the
//! paper's `newmoc -config=config.yaml` artifact binary, and the runner
//! the CI case matrix drives.
//!
//! ```text
//! antmoc <case.toml> [--csv rates.csv] [--vtk rates.vtk] [--heatmap]
//! cargo run --release --bin antmoc -- cases/c5g7.toml --heatmap
//! ANTMOC_UPDATE_GOLDEN=1 cargo run --release --bin antmoc -- cases/pin_cell.toml
//! ```
//!
//! The input is a declarative case file ([`CaseSpec`]): its geometry,
//! its solver, track, decomposition and telemetry settings, and its
//! physics gates. The run takes its name from `[case] name`. Any file
//! the case parser rejects, an INI-style config included, fails at its
//! first bad line.
//!
//! The run log mirrors the stages of the paper's Fig. 2 and ends with the
//! timing/storage indicators its artifact appendix describes. The run
//! writes `results/<name>_report.json` (the combined telemetry artifact)
//! and, when tracing is on, `results/<name>.trace.json`. With
//! `ANTMOC_UPDATE_GOLDEN=1` the artifact is also copied to
//! `ci/baselines/<name>.json`, the golden the CI case matrix diffs fresh
//! runs against. When `GITHUB_STEP_SUMMARY` is set, a one-row markdown
//! table with the headline numbers is appended to it.
//!
//! Gates (any failure exits 1, as does an unreadable input or an
//! unwritable output):
//! - the solve must converge;
//! - `[gates] keff = [lo, hi]` — the eigenvalue must land inside the band;
//! - `[gates] flux_ratio = { from, to, group, min, max }` — the
//!   attenuation factor `mean flux(from, group) / mean flux(to, group)`
//!   from the per-material flux tally must land inside `[min, max]`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use antmoc::input::CaseSpec;
use antmoc::telemetry::RunReport as TelemetryReport;
use antmoc::{run, write_run_artifact, write_trace_artifact, RunConfig, RunReport};

const USAGE: &str = "usage: antmoc <case.toml> [--csv out.csv] [--vtk out.vtk] [--heatmap]";

struct Args {
    input: String,
    csv: Option<String>,
    vtk: Option<String>,
    heatmap: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let (mut csv, mut vtk, mut heatmap) = (None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = Some(it.next().ok_or("--csv needs a path")?),
            "--vtk" => vtk = Some(it.next().ok_or("--vtk needs a path")?),
            "--heatmap" => heatmap = true,
            "--help" | "-h" => {
                println!("antmoc — 3D MOC neutron transport (ANT-MOC reproduction)\n\n{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            other if input.is_some() => return Err(format!("unexpected second input {other:?}")),
            other => input = Some(other.to_owned()),
        }
    }
    let input = input.ok_or("no input file given")?;
    Ok(Args { input, csv, vtk, heatmap })
}

/// Reads the case file and the run configuration it declares.
fn load(path: &str) -> Result<(CaseSpec, RunConfig), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = CaseSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let config = RunConfig::from_case(&spec).map_err(|e| format!("{path}: {e}"))?;
    Ok((spec, config))
}

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
    let file = std::fs::OpenOptions::new().create(true).append(true).open(&path);
    match file.and_then(|mut f| writeln!(f, "{row}")) {
        Ok(()) => {}
        Err(e) => eprintln!("antmoc: cannot append to step summary {path}: {e}"),
    }
}

fn print_config(name: &str, config: &RunConfig) {
    println!("[ antmoc ] {name}");
    println!("[ stage 1 ] configuration read");
    println!(
        "            tracks: {} azim x {} polar, radial {} cm, axial {} cm",
        config.tracks.num_azim,
        config.tracks.num_polar,
        config.tracks.radial_spacing,
        config.tracks.axial_spacing
    );
    println!(
        "            decomposition {}x{}x{}, mode {:?}",
        config.decomposition.0, config.decomposition.1, config.decomposition.2, config.mode
    );
}

fn print_stages(report: &RunReport) {
    println!("[ stage 2 ] geometry constructed          {:8.2} s", report.timings.geometry);
    println!(
        "[ stage 3 ] tracks generated & ray traced {:8.2} s   ({} 2D tracks, {} 3D tracks, {} 3D segments)",
        report.timings.tracking, report.num_2d_tracks, report.num_3d_tracks, report.num_3d_segments
    );
    println!(
        "[ stage 4 ] transport solved              {:8.2} s   ({} iterations, converged: {})",
        report.timings.transport, report.iterations, report.converged
    );
    println!("[ stage 5 ] output generated              {:8.2} s", report.timings.output);
    println!();
    println!("  k_eff       = {:.6}", report.keff);
    println!("  FSRs        = {}", report.num_fsrs);
    if report.comm_bytes > 0 {
        println!("  comm bytes  = {}", report.comm_bytes);
    }
}

/// Writes the artifact, trace, baseline and the requested pin-rate
/// outputs; returns the artifact for the summary line.
fn write_outputs(args: &Args, name: &str, outcome: &RunReport) -> Result<TelemetryReport, String> {
    let report_path = format!("results/{name}_report.json");
    let report = write_run_artifact(outcome, &report_path)
        .map_err(|e| format!("cannot write {report_path}: {e}"))?;
    println!("antmoc: wrote {report_path}");
    match write_trace_artifact("results", name) {
        Ok(Some(path)) => println!("antmoc: wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => return Err(format!("cannot write the trace of {name}: {e}")),
    }
    if std::env::var("ANTMOC_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let baseline_path = format!("ci/baselines/{name}.json");
        report
            .write_json(&baseline_path)
            .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
        println!("antmoc: wrote {baseline_path}");
    }
    if let Some(path) = &args.csv {
        write_file(path, |f| outcome.pin_rates.write_csv(f))?;
    }
    if let Some(path) = &args.vtk {
        write_file(path, |f| outcome.pin_rates.write_vtk(f))?;
    }
    Ok(report)
}

fn write_file(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    File::create(path)
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            write(&mut w)?;
            // Flush here: a failure on drop would be lost.
            w.flush()
        })
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("antmoc: wrote {path}");
    Ok(())
}

/// The case's gate failures: convergence, then the declared bands.
fn gate_failures(spec: &CaseSpec, outcome: &RunReport) -> Vec<String> {
    let mut failures = Vec::new();
    if !outcome.converged {
        failures.push(format!("solve did not converge in {} iterations", outcome.iterations));
    }
    let gates = &spec.gates;
    if let Some((lo, hi)) = gates.keff {
        if outcome.keff < lo || outcome.keff > hi {
            failures.push(format!("k_eff {:.6} outside the gate band [{lo}, {hi}]", outcome.keff));
        } else {
            println!("antmoc: keff gate: {:.6} within [{lo}, {hi}]", outcome.keff);
        }
    }
    if let Some(gate) = &gates.flux_ratio {
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
                        "antmoc: flux-ratio gate: {}/{} group {} = {ratio:.4} within [{}, {}]",
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
    failures
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("antmoc: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (spec, config) = match load(&args.input) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("antmoc: {e}");
            return ExitCode::FAILURE;
        }
    };

    let name = &spec.name;
    print_config(name, &config);
    let outcome = run(&config);
    print_stages(&outcome);

    let report = match write_outputs(&args, name, &outcome) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("antmoc: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.heatmap {
        println!("\n{}", outcome.pin_rates.ascii_heatmap());
    }

    let throughput = sweep_throughput(&report);
    println!(
        "antmoc: {}: k_eff {:.6}, {} iterations, converged: {}, {} segments, {}",
        name,
        outcome.keff,
        outcome.iterations,
        outcome.converged,
        report.counter("sweep.segments"),
        throughput
            .map_or("no sweep-throughput telemetry".into(), |t| format!("{t:.3e} segments/s")),
    );
    append_step_summary(&format!(
        "| {} | {:.6} | {} | {} | {} |",
        name,
        outcome.keff,
        outcome.iterations,
        outcome.converged,
        throughput.map_or("n/a".into(), |t| format!("{t:.3e} seg/s")),
    ));

    let failures = gate_failures(&spec, &outcome);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("antmoc: FAIL — {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("antmoc: PASS");
    ExitCode::SUCCESS
}
