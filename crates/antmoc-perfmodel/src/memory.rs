//! The memory model (Eq. 5) and the Table 3 breakdown.

/// Bytes per stored 2D segment (compact `(fsr: u32, length: f64)` plus
/// CSR share).
pub const MEM_PER_2D_SEGMENT: u64 = 16;
/// Bytes per stored 3D segment (`(fsr3d: u32, length: f32)`).
pub const MEM_PER_3D_SEGMENT: u64 = 8;
/// Bytes per 2D track record.
pub const MEM_PER_2D_TRACK: u64 = 64;
/// Bytes per 3D track record (sweep metadata).
pub const MEM_PER_3D_TRACK: u64 = 96;
/// Bytes of boundary flux per 3D track: 2 directions x groups x f32,
/// double-buffered.
fn mem_flux_per_3d_track(num_groups: u64) -> u64 {
    2 * num_groups * 4 * 2
}

/// Eq. 5 inputs: the counted entities of a problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryModel {
    pub n_2d_tracks: u64,
    pub n_3d_tracks: u64,
    pub n_2d_segments: u64,
    /// 3D segments *stored* (0 for pure OTF; all for EXP; the resident
    /// subset for Manager).
    pub n_3d_segments_stored: u64,
    pub n_fsrs: u64,
    pub num_groups: u64,
    /// Fixed overhead `F` (geometry, materials, code constants).
    pub fixed: u64,
}

/// One row of the Table 3 style breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRow {
    pub item: &'static str,
    pub bytes: u64,
    pub percent: f64,
}

impl MemoryModel {
    /// Total predicted footprint (Eq. 5).
    pub fn total_bytes(&self) -> u64 {
        self.fixed
            + self.n_2d_tracks * MEM_PER_2D_TRACK
            + self.n_3d_tracks * MEM_PER_3D_TRACK
            + self.n_2d_segments * MEM_PER_2D_SEGMENT
            + self.n_3d_segments_stored * MEM_PER_3D_SEGMENT
            + self.n_3d_tracks * mem_flux_per_3d_track(self.num_groups)
            + self.n_fsrs * self.num_groups * 16
    }

    /// The Table 3 breakdown, largest first.
    pub fn breakdown(&self) -> Vec<MemoryRow> {
        let rows = [
            ("2D_tracks", self.n_2d_tracks * MEM_PER_2D_TRACK),
            ("3D_tracks", self.n_3d_tracks * MEM_PER_3D_TRACK),
            ("2D_segments", self.n_2d_segments * MEM_PER_2D_SEGMENT),
            ("3D_segments", self.n_3d_segments_stored * MEM_PER_3D_SEGMENT),
            ("Track_fluxs", self.n_3d_tracks * mem_flux_per_3d_track(self.num_groups)),
            ("Others", self.fixed + self.n_fsrs * self.num_groups * 16),
        ];
        let total = self.total_bytes().max(1);
        let mut v: Vec<MemoryRow> = rows
            .into_iter()
            .map(|(item, bytes)| MemoryRow {
                item,
                bytes,
                percent: 100.0 * bytes as f64 / total as f64,
            })
            .collect();
        v.sort_by_key(|r| std::cmp::Reverse(r.bytes));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_scale_model() -> MemoryModel {
        // Ratios chosen like a realistic dense 3D case: hundreds of 3D
        // segments per 2D track.
        MemoryModel {
            n_2d_tracks: 100_000,
            n_3d_tracks: 10_000_000,
            n_2d_segments: 3_000_000,
            n_3d_segments_stored: 3_000_000_000,
            n_fsrs: 500_000,
            num_groups: 7,
            fixed: 50 << 20,
        }
    }

    #[test]
    fn total_is_sum_of_breakdown() {
        let m = paper_scale_model();
        let sum: u64 = m.breakdown().iter().map(|r| r.bytes).sum();
        assert_eq!(sum, m.total_bytes());
    }

    #[test]
    fn table3_shape_3d_segments_dominate() {
        // The paper's Table 3: 3D segments ~93 %, 2D segments ~3.4 %.
        let m = paper_scale_model();
        let b = m.breakdown();
        assert_eq!(b[0].item, "3D_segments");
        assert!(b[0].percent > 85.0, "3D share {}", b[0].percent);
        let seg2d = b.iter().find(|r| r.item == "2D_segments").unwrap();
        assert!(seg2d.percent < 10.0);
    }

    #[test]
    fn otf_removes_the_dominant_row() {
        let mut m = paper_scale_model();
        let exp_total = m.total_bytes();
        m.n_3d_segments_stored = 0;
        let otf_total = m.total_bytes();
        assert!(otf_total * 5 < exp_total, "OTF {otf_total} vs EXP {exp_total}");
    }

    #[test]
    fn percentages_sum_to_100() {
        let m = paper_scale_model();
        let total: f64 = m.breakdown().iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }
}
