//! A software-simulated GPU device.
//!
//! The ANT-MOC strategies this repository reproduces are driven by two
//! device-level realities (§3.2, §4 of the paper):
//!
//! 1. **Finite device memory.** The explicit 3D-segment storage mode
//!    overflows GPU memory as the track count grows, which is what makes
//!    the OTF and Manager strategies necessary (Fig. 9). The simulator
//!    enforces a hard, byte-accounted capacity: a [`Reservation`] that
//!    does not fit fails with [`OutOfMemory`].
//! 2. **Per-CU work imbalance.** 3D tracks have wildly varying segment
//!    counts, so mapping tracks to compute units naively idles CUs
//!    (Fig. 10, L3). The simulator keeps per-CU work-unit counters.
//!
//! A [`Device`] is only its spec, memory pool and metrics. Kernels are
//! the solver's own sweep: `antmoc_solver` deals one bin of tracks per CU
//! to the process-wide thread pool, so measured kernel times reflect
//! genuine sweep work, and hands each launch's per-CU work to
//! [`Device::record_launch`].

pub mod device;
pub mod memory;
pub mod metrics;

pub use device::{Device, DeviceSpec};
pub use memory::{MemoryPool, OutOfMemory, Reservation};
pub use metrics::{DeviceMetrics, KernelStats};
