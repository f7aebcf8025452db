//! Per-device execution metrics: kernel timings and per-CU work
//! distribution.

use std::collections::HashMap;

/// Aggregated statistics for one kernel name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Number of launches.
    pub launches: u64,
    /// Total work units reported by kernel bodies (e.g. segments swept).
    pub work_units: u64,
    /// Total wall-clock seconds across launches.
    pub seconds: f64,
}

/// Snapshot of a device's metrics.
#[derive(Debug, Clone, Default)]
pub struct DeviceMetrics {
    kernels: HashMap<String, KernelStats>,
    /// Work units executed per CU since the device was created.
    pub cu_work: Vec<u64>,
}

impl DeviceMetrics {
    pub(crate) fn new(num_cus: usize) -> Self {
        Self { cu_work: vec![0; num_cus], ..Default::default() }
    }

    pub(crate) fn record_kernel(&mut self, name: &str, work: u64, seconds: f64) {
        let k = self.kernels.entry(name.to_string()).or_default();
        k.launches += 1;
        k.work_units += work;
        k.seconds += seconds;
    }

    /// Statistics for a kernel name, if it ever launched.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.get(name)
    }

    /// All kernel statistics, sorted by name.
    pub fn kernels(&self) -> Vec<(&str, &KernelStats)> {
        let mut v: Vec<(&str, &KernelStats)> =
            self.kernels.iter().map(|(k, s)| (k.as_str(), s)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Total kernel seconds across all names.
    pub fn total_kernel_seconds(&self) -> f64 {
        self.kernels.values().map(|k| k.seconds).sum()
    }

    /// The load-uniformity index of the per-CU work distribution:
    /// `max / avg`, the paper's §5.4 metric (1.0 = perfectly balanced).
    /// Returns `None` when no CU did any work.
    pub fn cu_load_uniformity(&self) -> Option<f64> {
        let total: u64 = self.cu_work.iter().sum();
        if total == 0 {
            return None;
        }
        let max = *self.cu_work.iter().max().unwrap() as f64;
        let avg = total as f64 / self.cu_work.len() as f64;
        Some(max / avg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_stats_accumulate() {
        let mut m = DeviceMetrics::new(4);
        m.record_kernel("sweep", 100, 0.5);
        m.record_kernel("sweep", 50, 0.25);
        m.record_kernel("trace", 10, 0.1);
        let s = m.kernel("sweep").unwrap();
        assert_eq!(s.launches, 2);
        assert_eq!(s.work_units, 150);
        assert!((s.seconds - 0.75).abs() < 1e-12);
        assert!((m.total_kernel_seconds() - 0.85).abs() < 1e-12);
        assert_eq!(m.kernels().len(), 2);
    }

    #[test]
    fn uniformity_of_balanced_load_is_one() {
        let mut m = DeviceMetrics::new(4);
        m.cu_work = vec![10, 10, 10, 10];
        assert!((m.cu_load_uniformity().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniformity_reflects_hot_cu() {
        let mut m = DeviceMetrics::new(4);
        m.cu_work = vec![40, 0, 0, 0];
        assert!((m.cu_load_uniformity().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uniformity_of_idle_device_is_none() {
        let m = DeviceMetrics::new(4);
        assert!(m.cu_load_uniformity().is_none());
    }
}
