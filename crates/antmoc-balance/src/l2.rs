//! L2: fused sub-geometry group → GPU mapping by azimuthal angle
//! (§4.2.2, Fig. 5(2)).
//!
//! A node's sub-geometries are fused; the fused track work is split
//! across the node's GPUs by azimuthal angle. Because complementary
//! angles carry equal track counts and the angle count is a multiple of
//! 4, groups of angles can be dealt to an (even) GPU count evenly — and
//! better still, balanced by per-angle segment load with an LPT bin
//! packer.

/// The L2 product.
#[derive(Debug, Clone)]
pub struct L2Mapping {
    /// `gpu_of[azim_half_index] = gpu`.
    pub gpu_of: Vec<u32>,
    pub num_gpus: usize,
    /// Per-GPU summed load.
    pub gpu_loads: Vec<f64>,
}

/// Maps azimuthal half-set angles to GPUs, balancing the given per-angle
/// loads (e.g. segment counts at each angle) with longest-processing-time
/// first packing.
pub fn map_angles_to_gpus(angle_loads: &[f64], num_gpus: usize) -> L2Mapping {
    assert!(num_gpus >= 1);
    assert!(
        angle_loads.len() >= num_gpus,
        "{} angles cannot feed {} GPUs",
        angle_loads.len(),
        num_gpus
    );
    let mut order: Vec<usize> = (0..angle_loads.len()).collect();
    order.sort_by(|&a, &b| angle_loads[b].partial_cmp(&angle_loads[a]).unwrap());
    let mut gpu_of = vec![0u32; angle_loads.len()];
    let mut gpu_loads = vec![0.0f64; num_gpus];
    for &a in &order {
        let (g, _) = gpu_loads
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap())
            .unwrap();
        gpu_of[a] = g as u32;
        gpu_loads[g] += angle_loads[a];
    }
    L2Mapping { gpu_of, num_gpus, gpu_loads }
}

/// The no-L2 baseline: contiguous angle blocks per GPU, the reference
/// the LPT test beats.
#[cfg(test)]
fn block_angles(angle_loads: &[f64], num_gpus: usize) -> L2Mapping {
    let per = angle_loads.len().div_ceil(num_gpus);
    let gpu_of: Vec<u32> = (0..angle_loads.len()).map(|i| (i / per) as u32).collect();
    let mut gpu_loads = vec![0.0f64; num_gpus];
    for (a, &g) in gpu_of.iter().enumerate() {
        gpu_loads[g as usize] += angle_loads[a];
    }
    L2Mapping { gpu_of, num_gpus, gpu_loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::load_uniformity;

    #[test]
    fn uniform_angles_split_perfectly() {
        let loads = vec![5.0; 8];
        let m = map_angles_to_gpus(&loads, 4);
        assert!((load_uniformity(&m.gpu_loads) - 1.0).abs() < 1e-12);
        // Two angles per GPU.
        for g in 0..4u32 {
            assert_eq!(m.gpu_of.iter().filter(|&&x| x == g).count(), 2);
        }
    }

    #[test]
    fn lpt_beats_block_on_skewed_angles() {
        // Steep angles cross more pins: loads vary strongly by angle.
        let loads: Vec<f64> = (0..16).map(|a| 1.0 + (a as f64 / 3.0).sin().abs() * 4.0).collect();
        let lpt = map_angles_to_gpus(&loads, 4);
        let block = block_angles(&loads, 4);
        let u_lpt = load_uniformity(&lpt.gpu_loads);
        let u_block = load_uniformity(&block.gpu_loads);
        assert!(u_lpt <= u_block + 1e-12, "LPT {u_lpt} vs block {u_block}");
        assert!(u_lpt < 1.1, "LPT should be near-balanced: {u_lpt}");
    }

    #[test]
    fn every_gpu_gets_work() {
        let loads: Vec<f64> = (1..=8).map(|x| x as f64).collect();
        let m = map_angles_to_gpus(&loads, 4);
        assert!(m.gpu_loads.iter().all(|&l| l > 0.0));
        let total: f64 = m.gpu_loads.iter().sum();
        assert!((total - 36.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot feed")]
    fn too_few_angles_panics() {
        map_angles_to_gpus(&[1.0, 2.0], 4);
    }
}
