//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (§5). See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for recorded results.

use antmoc_geom::c5g7::{C5g7, C5g7Options};
use antmoc_solver::Problem;
use antmoc_track::TrackParams;

/// The five track scales used by the Fig. 8 / Fig. 9 sweeps: the same
/// C5G7 model with progressively denser laydowns (the paper varies its
/// track count the same way). Returns `(label, params)`.
pub fn track_scales() -> Vec<(&'static str, TrackParams)> {
    let base = |radial: f64, axial: f64| TrackParams {
        num_azim: 8,
        radial_spacing: radial,
        num_polar: 2,
        axial_spacing: axial,
    };
    vec![
        ("scale-1", base(1.6, 8.0)),
        ("scale-2", base(1.2, 6.0)),
        ("scale-3", base(0.9, 4.0)),
        ("scale-4", base(0.7, 3.0)),
        ("scale-5", base(0.5, 2.0)),
    ]
}

/// The standard coarse C5G7 model for experiments (axial cells per fuel
/// bank, homogeneous reflector).
pub fn model() -> C5g7 {
    C5g7::build(C5g7Options { axial_dz: 14.28, ..Default::default() })
}

/// The §5.4 model variant: finely meshed reflector assemblies, the source
/// of spatial load imbalance.
pub fn imbalanced_model() -> C5g7 {
    C5g7::build(C5g7Options { reflector_refine: 51, axial_dz: 21.42, ..Default::default() })
}

/// Builds a full problem for a parameter set on the standard model.
pub fn problem_for(params: TrackParams) -> Problem {
    let m = model();
    Problem::build(m.geometry.clone(), m.axial.clone(), &m.library, params)
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats bytes human-readably.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Writes the global telemetry snapshot to
/// `results/<name>_telemetry.json`, so every experiment binary leaves a
/// machine-readable artifact next to its printed table.
pub fn write_telemetry_artifact(name: &str) {
    let report = antmoc_telemetry::Telemetry::global().report();
    let path = format!("results/{name}_telemetry.json");
    match report.write_json(&path) {
        Ok(()) => println!("\n[telemetry] wrote {path}"),
        Err(e) => eprintln!("\n[telemetry] failed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_strictly_increasing_in_density() {
        let scales = track_scales();
        assert_eq!(scales.len(), 5);
        for w in scales.windows(2) {
            assert!(w[1].1.radial_spacing < w[0].1.radial_spacing);
            assert!(w[1].1.axial_spacing < w[0].1.axial_spacing);
        }
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512.00 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
    }
}
