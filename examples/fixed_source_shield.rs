//! Fixed-source mode: a water shield driven by a fast neutron source —
//! the "other" transport problem class neutral-particle codes serve.
//!
//! A slab of moderator 4 cm thick (reflective sides, vacuum far face) is
//! driven by a uniform fast source in its first centimetre; the solver
//! computes the thermalising, attenuating flux. The printout shows the
//! group spectrum softening with depth.
//!
//! ```text
//! cargo run --release --example fixed_source_shield
//! ```

use antmoc::geom::geometry::GeometryBuilder;
use antmoc::geom::{AxialModel, Bc, BoundaryConds, Cell, Fill, Lattice, Universe};
use antmoc::solver::fixed::{solve_fixed_source, FixedSourceOptions};
use antmoc::solver::{CpuSweeper, Problem, SegmentSource};
use antmoc::track::TrackParams;
use antmoc::xs::c5g7;

fn main() {
    let lib = c5g7::library();
    let (water, _) = lib.by_name("moderator").unwrap();

    // A 1x4 strip of water cells so the flux can vary with depth x.
    let mut b = GeometryBuilder::new();
    let cell_u = b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Material(water) }],
        name: "water".into(),
    });
    let lat = b.add_lattice(Lattice {
        nx: 8,
        ny: 1,
        pitch_x: 0.5,
        pitch_y: 4.0,
        universes: vec![cell_u; 8],
        name: "strip".into(),
    });
    let root = b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
        name: "root".into(),
    });
    let bcs = BoundaryConds {
        x_min: Bc::Reflective,
        x_max: Bc::Vacuum,
        y_min: Bc::Reflective,
        y_max: Bc::Reflective,
        z_min: Bc::Reflective,
        z_max: Bc::Reflective,
    };
    let geometry = b.finalize(root, 4.0, 4.0, (2.0, 2.0), (0.0, 2.0), bcs);
    let axial = AxialModel::uniform(0.0, 2.0, 2.0);
    let problem = Problem::build(
        geometry,
        axial,
        &lib,
        TrackParams { num_azim: 8, radial_spacing: 0.2, num_polar: 4, axial_spacing: 1.0 },
    );

    // Unit fast source in the first two depth cells (x < 1 cm).
    let g = problem.num_groups();
    let mut external = vec![0.0f64; problem.num_fsrs() * g];
    for f in 0..problem.num_fsrs() {
        // FSR enumeration follows the lattice: cells 0..7 left to right,
        // one radial FSR each; axial cell 0 only (single axial cell).
        let radial = f % 8;
        if radial < 2 {
            external[f * g] = 1.0;
        }
    }

    println!("Water shield, uniform fast source in the first 1 cm:\n");
    let segsrc = SegmentSource::otf();
    let mut sweeper = CpuSweeper::new(&segsrc);
    let r = solve_fixed_source(
        &problem,
        &mut sweeper,
        &external,
        &FixedSourceOptions { tolerance: 1e-6, max_iterations: 2000, with_fission: false },
    );
    println!("converged: {} in {} iterations\n", r.converged, r.iterations);

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "depth cm", "fast (g1)", "epithermal", "thermal (g7)", "thermal/fast"
    );
    for cell in 0..8 {
        let f = cell; // axial cell 0
        let fast = r.phi[f * g];
        let epi: f64 = (2..5).map(|gi| r.phi[f * g + gi]).sum();
        let thermal = r.phi[f * g + 6];
        println!(
            "{:>8.2} {:>12.4e} {:>12.4e} {:>12.4e} {:>14.3}",
            (cell as f64 + 0.5) * 0.5,
            fast,
            epi,
            thermal,
            thermal / fast
        );
    }
    println!("\nThe fast flux falls away from the source while the thermal/fast");
    println!("ratio rises with depth (spectrum softening) until the vacuum face,");
    println!("where thermal neutrons leak preferentially and the ratio drops.");
}
