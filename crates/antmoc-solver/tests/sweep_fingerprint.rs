//! Bit-fingerprint pin for the sweep kernel: a hash of one sweep's
//! `phi_acc` and `leakage` bits on a small two-material pin lattice, for
//! group counts covering every lane shape (1: remainder only, 4: one full
//! block, 7: block + remainder, 8: two blocks), both kernels, and stored
//! vs on-the-fly segments.
//!
//! `prop_kernel_equivalence` proves scalar ≡ vector at one commit; this
//! file proves a commit ≡ its parent: a restructuring that changes any
//! IEEE op, its order, or the tally order fails here even if it changes
//! both kernels alike. Regenerate (the failure message prints the new
//! hash) only for a change that means to move bits. That has happened
//! once: the values were first captured before the kernel became an
//! indexed, const-`G` loop, and re-captured when `1 - exp(-tau)` moved
//! from libm's `exp_m1` to the in-tree evaluator (`antmoc_solver::exp`,
//! ≤ 1 ulp apart — the `G = 1` row did not move at all; CHANGES.md, PR 16,
//! lists old → new).

use antmoc_geom::{
    AxialModel, Bc, BoundaryConds, Cell, Fill, GeometryBuilder, Lattice, Sense, Surface, Universe,
};
use antmoc_solver::sweep::transport_sweep_with;
use antmoc_solver::{
    FluxBanks, KernelConfig, Problem, SegmentSource, SweepArena, SweepKernel, SweepSchedule,
    TallyMode,
};
use antmoc_track::{Track3dId, TrackParams};
use antmoc_xs::{Material, MaterialLibrary};

/// A fuel/moderator library with `g` groups of ordinary optical
/// thicknesses (the extremes live in `prop_kernel_equivalence`).
fn library(g: usize) -> MaterialLibrary {
    let mut lib = MaterialLibrary::new();
    for (name, base) in [("FUEL", 0.35f64), ("MOD", 1.1)] {
        let total: Vec<f64> = (0..g).map(|gi| base + 0.17 * gi as f64).collect();
        lib.add(Material {
            name: name.into(),
            absorption: total.iter().map(|t| t * 0.5).collect(),
            total,
            fission: vec![0.0; g],
            nu: vec![0.0; g],
            chi: vec![0.0; g],
            scatter: vec![vec![0.0; g]; g],
        });
    }
    lib
}

/// A 2x2 lattice of 1 cm pin cells, two axial cells, vacuum on top.
fn lattice_problem(g: usize) -> Problem {
    let lib = library(g);
    let (fuel, _) = lib.by_name("FUEL").unwrap();
    let (water, _) = lib.by_name("MOD").unwrap();
    let mut b = GeometryBuilder::new();
    let circ = b.add_surface(Surface::Circle { x0: 0.0, y0: 0.0, r: 0.4 });
    let pin = b.add_universe(Universe {
        cells: vec![
            Cell { region: vec![(circ, Sense::Negative)], fill: Fill::Material(fuel) },
            Cell { region: vec![(circ, Sense::Positive)], fill: Fill::Material(water) },
        ],
        name: "pin".into(),
    });
    let lat = b.add_lattice(Lattice {
        nx: 2,
        ny: 2,
        pitch_x: 1.0,
        pitch_y: 1.0,
        universes: vec![pin; 4],
        name: "lat".into(),
    });
    let root = b.add_universe(Universe {
        cells: vec![Cell { region: vec![], fill: Fill::Lattice(lat) }],
        name: "root".into(),
    });
    let mut bcs = BoundaryConds::reflective();
    bcs.z_max = Bc::Vacuum;
    let geom = b.finalize(root, 2.0, 2.0, (0.0, 0.0), (0.0, 2.0), bcs);
    let axial = AxialModel::uniform(0.0, 2.0, 1.0);
    let params = TrackParams {
        num_azim: 4,
        radial_spacing: 0.3,
        num_polar: 2,
        axial_spacing: 0.4,
        ..Default::default()
    };
    Problem::build(geom, axial, &lib, params)
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(p: &Problem, kernel: SweepKernel, stored: bool) -> u64 {
    let g = p.num_groups();
    let q: Vec<f64> = (0..p.num_fsrs() * g).map(|i| 0.1 + (i % 13) as f64 * 0.045).collect();
    let banks = FluxBanks::new(p.num_tracks(), g);
    let inflow: Vec<f32> = (0..g).map(|gi| 0.4 + gi as f32 * 0.11).collect();
    for t in (0..p.num_tracks() as u32).step_by(3) {
        banks.set_incoming(t, 0, &inflow);
        banks.set_incoming(t, 1, &inflow);
    }
    let segsrc = if stored {
        let all: Vec<Track3dId> = p.layout.tracks3d.ids().collect();
        SegmentSource::stored(p, &all)
    } else {
        SegmentSource::otf()
    };
    let mut arena = SweepArena::new(KernelConfig {
        tallies: TallyMode::Privatized,
        kernel,
        ..Default::default()
    });
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let out = pool.install(|| {
        transport_sweep_with(p, &segsrc, &q, &banks, &SweepSchedule::natural(), &mut arena)
    });
    assert!(out.leakage > 0.0 && out.phi_acc.iter().any(|&x| x != 0.0), "degenerate sweep");
    fnv1a(out.phi_acc.iter().map(|x| x.to_bits()).chain([out.leakage.to_bits(), out.segments]))
}

/// `(G, hash)`. One value per group count: scalar and vector are bitwise
/// equal by contract, and a stored segment carries the same `f32` length
/// the on-the-fly tracer regenerates.
const EXPECTED: [(usize, u64); 4] = [
    (1, 0x4ea6_bd33_adbc_0102),
    (4, 0xcfe1_ae9a_4d4d_9dd2),
    (7, 0x0374_49b1_dafc_0c40),
    (8, 0xd7ec_fb82_35ca_6403),
];

#[test]
fn sweep_bits_are_those_of_the_parent_commit() {
    for (g, want) in EXPECTED {
        let p = lattice_problem(g);
        for stored in [true, false] {
            for kernel in [SweepKernel::Scalar, SweepKernel::Vector] {
                let got = fingerprint(&p, kernel, stored);
                assert_eq!(
                    got, want,
                    "g={g} stored={stored} {kernel:?}: got {got:#018x}, pinned {want:#018x}"
                );
            }
        }
    }
}
