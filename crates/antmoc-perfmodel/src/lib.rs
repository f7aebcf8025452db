//! The ANT-MOC performance model (§3.3 of the paper, Equations 2–7).
//!
//! Predicts, from the input quadrature and geometry alone (plus a small
//! calibration sample for segment densities):
//!
//! * the number of 2D tracks (Eq. 2) and 3D tracks (Eq. 3);
//! * the number of 2D/3D segments via small-sample ratios (Eq. 4);
//! * the memory footprint (Eq. 5 / Table 3);
//! * the computation (∝ 3D segments, Eq. 6);
//! * the communication traffic (Eq. 7).
//!
//! [`projector`] builds on these to extrapolate strong/weak scaling to
//! thousands of simulated GPUs (the documented substitution for the
//! paper's 16 000-GPU testbed; DESIGN.md §1).

pub mod advisor;
pub mod cache;
pub mod memory;
pub mod projector;
pub mod tracks;

pub use advisor::{advise, min_feasible_devices, Advice};
pub use cache::{sweep_bytes_per_resident_segment, sweep_bytes_per_segment, CacheModel};
pub use memory::{MemoryModel, MEM_PER_2D_SEGMENT, MEM_PER_3D_SEGMENT};
pub use projector::{ScalingPoint, ScalingProjector};
pub use tracks::{
    predict_communication_bytes, predict_num_2d_tracks, predict_num_3d_tracks, SegmentModel,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communication_model_is_eq7_verbatim() {
        // communication = N_3D * 2 * num_group * 4 bytes.
        assert_eq!(predict_communication_bytes(1000, 7), 1000 * 2 * 7 * 4);
    }
}
