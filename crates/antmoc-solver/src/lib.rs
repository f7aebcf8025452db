//! MOC transport solvers: reference CPU, simulated-GPU device, and
//! domain-decomposed cluster flavours.
//!
//! * [`problem`] — per-domain solver inputs (geometry, tracks, flattened
//!   cross sections, tracked volumes, per-track sweep metadata);
//! * [`sweeper`] — the [`Sweeper`] interface and its CPU implementations
//!   (parallel and serial);
//! * [`sweep`] — flux banks and the segment sweep kernel with EXP / OTF /
//!   Manager storage modes (§4.1 of the paper);
//! * [`exp`] — the one in-tree `1 - exp(-tau)` evaluator, per lane and
//!   per track slab;
//! * [`simd`] — the in-tree `f64x4` lane type behind the group-vectorized
//!   sweep kernel (`[solver] kernel = vector`);
//! * [`tally`] — atomic vs privatized flux-tally strategies and the
//!   reusable [`SweepArena`] behind the arena-driven sweep;
//! * [`source`] — reduced-source and scalar-flux updates, fission
//!   tallies;
//! * `driver` — the one power-iteration loop every solve runs (eigen,
//!   fixed source, every cluster rank), set up by source and exchange
//!   hooks;
//! * [`eigen`] — the single-domain eigenvalue solve;
//! * [`manager`] — the track-management strategy (resident/temporary
//!   ranking under a device memory budget);
//! * [`device`] — the simulated-GPU solver (Algorithm 1 kernels, L3
//!   track-to-CU mapping, Table 3 memory accounting);
//! * [`decomp`] — uniform spatial decomposition with a global
//!   angular-flux exchange plan (§3.2);
//! * [`cluster`] — the multi-rank solver over `antmoc-cluster` (§5.5);
//! * [`solver2d`] — a classic 2D MOC solver (the paper's Table 1
//!   comparison plane and its 3D-vs-2D cost ratio).

pub mod cluster;
pub mod decomp;
pub mod device;
pub mod diagnostics;
mod driver;
pub mod eigen;
pub mod exp;
pub mod exptable;
pub mod fixed;
pub mod manager;
pub mod problem;
pub mod schedule;
pub mod simd;
pub mod solver2d;
pub mod source;
pub mod sweep;
pub mod sweeper;
pub mod tally;

pub use cluster::{
    solve_cluster, solve_cluster_with, Backend, ClusterOptions, ClusterResult, ExchangeMode,
};
pub use eigen::{solve_eigenvalue, CpuSweeper, EigenOptions, EigenResult, Sweeper};
pub use exptable::{ExpEval, ExpTable};
pub use problem::{Problem, SweepTrack, XsData};
pub use schedule::{ScheduleKind, SweepSchedule};
pub use source::{fission_production, fission_rates};
pub use sweep::{FluxBanks, SegmentSource, StorageMode, SweepOutcome};
pub use tally::{ExpMode, KernelConfig, SweepArena, SweepKernel, SweepTallies, TallyMode};
