//! The three-level load-mapping strategy (§4.2 of the paper).
//!
//! * **L1** ([`l1`]) — sub-geometries, weighted by their predicted
//!   computational load (segment counts, Eq. 4), are grouped onto nodes by
//!   a balanced k-way graph partitioner ([`graph`], the ParMETIS stand-in;
//!   DESIGN.md documents the substitution).
//! * **L2** ([`l2`]) — a node's fused sub-geometry group is split across
//!   its GPUs by azimuthal angle, balancing per-angle segment loads.
//! * **L3** ([`l3`]) — 3D tracks inside one GPU are sorted by segment
//!   count and dealt round-robin to CUs. The solver's sweep schedules
//!   deal their bins with it: one bin per CU on the simulated device, one
//!   per worker on the CPU (`antmoc_solver::schedule`).
//!
//! [`metrics`] provides the paper's §5.4 *load uniformity index*
//! (`max / avg`, 1.0 = perfect balance).

pub mod graph;
pub mod l1;
pub mod l2;
pub mod l3;
pub mod metrics;
pub mod rcb;

pub use graph::{Graph, Partition};
pub use l1::{map_subdomains_to_nodes, rebalance_on_loss, L1Mapping, RebalancePlan};
pub use l2::{map_angles_to_gpus, L2Mapping};
pub use l3::sorted_round_robin;
pub use metrics::load_uniformity;
pub use rcb::rcb_partition;
