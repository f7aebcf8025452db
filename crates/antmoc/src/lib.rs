//! ANT-MOC-RS: scalable 3D Method-of-Characteristics neutron transport.
//!
//! This is the top-level crate of the Rust reproduction of *"ANT-MOC:
//! Scalable Neutral Particle Transport Using 3D Method of Characteristics
//! on Multi-GPU Systems"* (SC '23). It wires the substrate crates into the
//! paper's five-stage pipeline (Fig. 2):
//!
//! 1. **Read configuration** — a declarative case file
//!    ([`input::CaseSpec`]) into a [`config::RunConfig`];
//! 2. **Geometry construction** — the case's lattice, lowered by
//!    `antmoc-input`, or the built-in C5G7 3D extension benchmark from
//!    `antmoc-geom`;
//! 3. **Track generation & ray tracing** — `antmoc-track`;
//! 4. **Transport solving** — `antmoc-solver` (CPU reference, simulated
//!    GPU, or domain-decomposed cluster backends);
//! 5. **Output generation** — [`output::PinRates`] with CSV/VTK writers.
//!
//! ```no_run
//! use antmoc::input::CaseSpec;
//! use antmoc::{run, RunConfig};
//!
//! let text = std::fs::read_to_string("cases/c5g7.toml").unwrap();
//! let config = RunConfig::from_case(&CaseSpec::parse(&text).unwrap()).unwrap();
//! let report = run(&config);
//! println!("k_eff = {:.5}", report.keff);
//! ```

pub mod artifact;
pub mod config;
pub mod output;
pub mod pipeline;

pub use artifact::{run_artifact, write_run_artifact, write_trace_artifact};
pub use config::{BackendConfig, LoweredCase, ModelSpec, RunConfig};
pub use output::PinRates;
pub use pipeline::{
    build_setup, record_run_meta, run, run_with_setup, run_with_setup_arena, BuiltModel, RunReport,
    SolveSetup, StageTimings,
};

// Re-export the building blocks for example/bench authors.
pub use antmoc_balance as balance;
pub use antmoc_cluster as cluster;
pub use antmoc_geom as geom;
pub use antmoc_gpusim as gpusim;
pub use antmoc_input as input;
pub use antmoc_perfmodel as perfmodel;
pub use antmoc_quadrature as quadrature;
pub use antmoc_solver as solver;
pub use antmoc_telemetry as telemetry;
pub use antmoc_track as track;
pub use antmoc_xs as xs;
