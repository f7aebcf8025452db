//! The simulated device: spec, memory pool and launch accounting.

use parking_lot::Mutex;

use crate::memory::MemoryPool;
use crate::metrics::DeviceMetrics;

/// Static description of a device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: String,
    /// Number of compute units (the paper's CUs; 64 on the MI60).
    pub num_cus: usize,
    /// Global memory capacity in bytes.
    pub memory_bytes: u64,
}

impl DeviceSpec {
    /// A laptop-scale stand-in used by tests and measured experiments:
    /// same CU count, scaled-down memory so memory-pressure effects appear
    /// at laptop-sized track counts.
    pub fn scaled(memory_bytes: u64) -> Self {
        Self { name: "scaled-sim".into(), num_cus: 64, memory_bytes }
    }
}

/// A simulated GPU: its spec, its byte-accounted memory pool and its
/// kernel metrics. Kernels run on the caller's thread pool, which deals
/// the CUs' track bins to workers in contiguous runs (the paper's
/// track-to-CU mapping, Fig. 5); the device records each launch's per-CU
/// work through [`Device::record_launch`].
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    memory: MemoryPool,
    metrics: Mutex<DeviceMetrics>,
}

impl Device {
    /// Creates a device from its spec.
    pub fn new(spec: DeviceSpec) -> Self {
        let memory = MemoryPool::new(spec.memory_bytes);
        let metrics = Mutex::new(DeviceMetrics::new(spec.num_cus));
        Self { spec, memory, metrics }
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The memory pool, where solvers reserve their footprint.
    pub fn memory(&self) -> &MemoryPool {
        &self.memory
    }

    /// A snapshot of the metrics.
    pub fn metrics(&self) -> DeviceMetrics {
        self.metrics.lock().clone()
    }

    /// Records one launch of kernel `name` that ran for `seconds`:
    /// `per_cu[cu]` is the work (e.g. segments swept) CU `cu` performed;
    /// CUs past the end of `per_cu` did none.
    pub fn record_launch(&self, name: &str, per_cu: &[u64], seconds: f64) {
        let cus = self.spec.num_cus;
        assert!(per_cu.len() <= cus, "{} CU bins for a {cus}-CU device", per_cu.len());
        let total: u64 = per_cu.iter().sum();
        antmoc_telemetry::Telemetry::current()
            .gauge_set("device.pool_used_bytes", self.memory.used() as f64);
        let mut m = self.metrics.lock();
        for (cu, w) in per_cu.iter().enumerate() {
            m.cu_work[cu] += w;
        }
        m.record_kernel(name, total, seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Reservation;

    /// A tiny device: 8 CUs, 1 MiB.
    fn small() -> Device {
        Device::new(DeviceSpec { num_cus: 8, ..DeviceSpec::scaled(1 << 20) })
    }

    #[test]
    fn record_launch_accounts_cu_work_launches_and_work_units() {
        let dev = small();
        dev.record_launch("k", &[6, 4, 0, 11], 0.5);
        dev.record_launch("k", &[1; 8], 0.25);
        let m = dev.metrics();
        assert_eq!(m.cu_work, vec![7, 5, 1, 12, 1, 1, 1, 1]);
        let k = m.kernel("k").unwrap();
        assert_eq!((k.launches, k.work_units), (2, 29));
        assert!((m.total_kernel_seconds() - 0.75).abs() < 1e-12);
        assert!((m.cu_load_uniformity().unwrap() - 12.0 / (29.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn alloc_over_capacity_errors() {
        let dev = small();
        let err = Reservation::new(dev.memory(), "big", 2 << 20).unwrap_err();
        assert_eq!(err.capacity, 1 << 20);
    }
}
