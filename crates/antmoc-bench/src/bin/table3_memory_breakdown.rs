//! Table 3: percentage of memory footprint for the main variables.
//!
//! Builds a dense C5G7 problem, loads it onto a simulated device in
//! EXPlicit mode, and prints the live allocation breakdown next to the
//! Eq. 5 model prediction and the paper's reported shares.
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin table3_memory_breakdown
//! ```

use std::sync::Arc;

use antmoc::geom::c5g7::{C5g7, C5g7Options};
use antmoc::gpusim::{Device, DeviceSpec};
use antmoc::perfmodel::MemoryModel;
use antmoc::solver::device::{CuMapping, DeviceSolver};
use antmoc::solver::{Problem, StorageMode};
use antmoc::track::TrackParams;
use antmoc_bench::human_bytes;

fn main() {
    // Dense axial mesh so 3D segments dominate, as in any realistic 3D
    // run (the paper's case reports 93.31 %): 1 cm axial cells give each
    // 3D track tens of axial crossings.
    let m = C5g7::build(C5g7Options { axial_dz: 1.0, ..Default::default() });
    let params =
        TrackParams { num_azim: 4, radial_spacing: 0.3, num_polar: 2, axial_spacing: 0.25 };
    println!("# Table 3: memory footprint breakdown (EXP storage)\n");
    println!("building problem...");
    let problem = Problem::build(m.geometry.clone(), m.axial.clone(), &m.library, params);
    println!(
        "  2D tracks {}   3D tracks {}   2D segments {}   3D segments {}\n",
        problem.layout.num_2d_tracks(),
        problem.num_tracks(),
        problem.layout.num_2d_segments(),
        problem.num_3d_segments()
    );

    let device = Arc::new(Device::new(DeviceSpec::scaled(8 << 30)));
    let _solver =
        DeviceSolver::new(device.clone(), &problem, StorageMode::Explicit, CuMapping::GridStride)
            .expect("fits");

    let total = device.memory().used();
    // The paper's Table 3 for its (much larger) case.
    let paper: &[(&str, f64)] = &[
        ("3D_segments", 93.31),
        ("2D_segments", 3.41),
        ("Track_fluxs", 1.85),
        ("3D_tracks", 0.71),
        ("2D_tracks", 0.02),
        ("Others", 0.69),
    ];

    println!("| item | measured bytes | measured % | paper % |");
    println!("|---|---|---|---|");
    for (tag, bytes) in device.memory().breakdown() {
        let pct = 100.0 * bytes as f64 / total as f64;
        let paper_pct = paper
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| format!("{p:.2}"))
            .unwrap_or_else(|| "-".into());
        println!("| {tag} | {} | {pct:.2} | {paper_pct} |", human_bytes(bytes));
    }
    println!("| total | {} | 100.00 | 100 |", human_bytes(total));

    // Eq. 5 model prediction against the measurement.
    let mm = MemoryModel {
        n_2d_tracks: problem.layout.num_2d_tracks() as u64,
        n_3d_tracks: problem.num_tracks() as u64,
        n_2d_segments: problem.layout.num_2d_segments() as u64,
        n_3d_segments_stored: problem.num_3d_segments(),
        n_fsrs: problem.num_fsrs() as u64,
        num_groups: problem.num_groups() as u64,
        fixed: 0,
    };
    let predicted = mm.total_bytes();
    println!(
        "\nEq. 5 model total: {} (measured {}, rel err {:.1} %)",
        human_bytes(predicted),
        human_bytes(total),
        100.0 * (predicted as f64 - total as f64).abs() / total as f64
    );
    println!("\nShape check: 3D segments dominate and grow with track density, while");
    println!("the paper's exact shares depend on its far larger track counts.");

    antmoc_bench::write_telemetry_artifact("table3_memory_breakdown");
}
