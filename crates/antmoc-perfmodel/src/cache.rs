//! A small cache model for the CPU sweep kernels: sizes the slot blocks
//! of the cache-blocked privatized-tally reduction and provides the
//! roofline numerator behind the `sweep.bytes_per_segment` gauge.
//!
//! The GPU MOC literature (ANT-MOC §4.2, NuDEAL) reports the transport
//! sweep as memory-bandwidth-bound; on the CPU substrate the same
//! question becomes "does the working set of each loop stay cache
//! resident". This module answers it from declared cache capacities the
//! same way [`crate::memory::MemoryModel`] answers the device-feasibility
//! question from declared device capacity — a model, not a probe, so
//! results are deterministic across hosts and CI.

/// Declared cache capacities of the host the sweep runs on. The defaults
/// are deliberately conservative (smallest common data caches of the
/// x86-64 / AArch64 server parts the repo targets), so blocks sized from
/// them stay resident on anything larger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheModel {
    /// Per-core L1 data-cache bytes.
    pub l1_bytes: u64,
    /// Per-core (or per-CCX-share) L2 bytes.
    pub l2_bytes: u64,
    /// Cache-line bytes.
    pub line_bytes: u64,
}

impl Default for CacheModel {
    fn default() -> Self {
        Self { l1_bytes: 32 << 10, l2_bytes: 512 << 10, line_bytes: 64 }
    }
}

impl CacheModel {
    /// Slot-block bytes for the blocked privatized-tally reduction.
    ///
    /// The reduction streams `workers + 1` arrays (the destination flux
    /// block, read-write, plus each worker's private block, read-once).
    /// Only the destination block is revisited — once per worker — so it
    /// is the block that must stay resident while the worker loop runs
    /// over it. Half of L1 leaves the other half to the streaming source
    /// block and incidental fills; the result is clamped to a whole
    /// number of cache lines and at least one line.
    pub fn advise_block_bytes(&self) -> u64 {
        let half = self.l1_bytes / 2;
        (half / self.line_bytes).max(1) * self.line_bytes
    }
}

/// Modelled main-memory traffic per segment *traversal* of the sweep
/// kernel's reference legs, the scalar kernel and the staged vector kernel
/// with the table exp (the `sweep.segments` counter counts both
/// directions, so this is directly comparable to measured bytes / that
/// counter). The shipped kernel reads every span from the problem's
/// attenuation table: [`sweep_bytes_per_resident_segment`].
///
/// Per group a traversal reads `sigma_t` (8 B) and `q` (8 B) and
/// read-modify-writes one tally slot (16 B); the segment record itself
/// (`(u32 fsr, u32 key)`) adds 8 B. The staged vector kernel replaces
/// the per-traversal `sigma_t` read with a read of the staged
/// `1 - exp(-tau)` span (8 B/group) and pays the staging itself —
/// `sigma_t` read + span write, 16 B/group — once per *track*, i.e.
/// amortized over both traversals: 8 B/group extra. Staging trades those
/// bytes for half the transcendental work, which is the profitable
/// direction on a compute-starved core.
pub fn sweep_bytes_per_segment(groups: usize, staged: bool) -> f64 {
    let per_group = if staged { 32 + 8 } else { 32 };
    (groups * per_group + 8) as f64
}

/// Modelled traffic per segment traversal of the shipped kernel (vector,
/// intrinsic exp), stored or traced on the fly: its record (`(u32 fsr,
/// u32 key)`, 8 B) names a span of the problem's attenuation table, read
/// in place of `sigma_t` (8 B/group), and no staging is paid. Per
/// traversal that is the unstaged kernel's traffic.
pub fn sweep_bytes_per_resident_segment(groups: usize) -> f64 {
    (groups * 32 + 8) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_block_is_half_l1_in_whole_lines() {
        let m = CacheModel::default();
        assert_eq!(m.advise_block_bytes(), 16 << 10);
        assert_eq!(m.advise_block_bytes() % m.line_bytes, 0);
    }

    #[test]
    fn tiny_l1_still_yields_at_least_one_line() {
        let m = CacheModel { l1_bytes: 16, l2_bytes: 1 << 10, line_bytes: 64 };
        assert_eq!(m.advise_block_bytes(), 64);
    }

    #[test]
    fn block_never_exceeds_half_l1_by_more_than_a_line() {
        for l1 in [8 << 10, 32 << 10, 48 << 10, 1 << 20] {
            let m = CacheModel { l1_bytes: l1, ..CacheModel::default() };
            let b = m.advise_block_bytes();
            assert!(b <= l1 / 2 + m.line_bytes, "l1 {l1}: block {b}");
        }
    }

    #[test]
    fn bytes_per_segment_model_values() {
        // Scalar, 7 groups: 7 * 32 + 8.
        assert_eq!(sweep_bytes_per_segment(7, false), 232.0);
        // Staged vector pays the amortized staging traffic on top.
        assert_eq!(sweep_bytes_per_segment(7, true), 288.0);
        assert!(sweep_bytes_per_segment(4, true) > sweep_bytes_per_segment(4, false));
        // A resident segment reads its span where the scalar kernel reads
        // sigma_t, and stages nothing.
        assert_eq!(sweep_bytes_per_resident_segment(7), 232.0);
    }
}
