//! L3: track → CU mapping (§4.2.3, Fig. 5(3)): sort by descending work,
//! deal round-robin.

/// Sorts items by descending weight and deals them round-robin into
/// `bins`. Returns the per-bin item index lists: the device solver's
/// segment-sorted CU bins and the CPU's `l3_sorted` worker bins.
pub fn sorted_round_robin(weights: &[u64], bins: usize) -> Vec<Vec<u32>> {
    assert!(bins >= 1);
    let mut order: Vec<u32> = (0..weights.len() as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i as usize]));
    let mut out = vec![Vec::with_capacity(weights.len() / bins + 1); bins];
    for (pos, i) in order.into_iter().enumerate() {
        out[pos % bins].push(i);
    }
    out
}

/// The no-L3 baseline: grid-stride assignment (item `i` to bin
/// `i % bins`), i.e. Algorithm 1's natural mapping.
pub fn grid_stride(num_items: usize, bins: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::with_capacity(num_items / bins + 1); bins];
    for i in 0..num_items as u32 {
        out[i as usize % bins].push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::load_uniformity;
    use proptest::prelude::*;

    fn bin_loads(assign: &[Vec<u32>], weights: &[u64]) -> Vec<f64> {
        assign.iter().map(|b| b.iter().map(|&i| weights[i as usize] as f64).sum()).collect()
    }

    #[test]
    fn sorted_round_robin_balances_heavy_tail() {
        // Track segment counts have a heavy tail (long tracks through the
        // core); round-robin on the sorted order nearly equalises bins.
        let weights: Vec<u64> = (0..1000).map(|i| 1 + (i * i) % 97).collect();
        let smart = sorted_round_robin(&weights, 8);
        let naive = grid_stride(weights.len(), 8);
        let u_smart = load_uniformity(&bin_loads(&smart, &weights));
        let u_naive = load_uniformity(&bin_loads(&naive, &weights));
        assert!(u_smart <= u_naive + 1e-12);
        assert!(u_smart < 1.02, "sorted dealing should be near-perfect: {u_smart}");
    }

    proptest! {
        #[test]
        fn every_item_lands_in_exactly_one_bin(
            n in 1usize..200, bins in 1usize..16, seed in 0u64..50
        ) {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let weights: Vec<u64> = (0..n).map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                s % 1000
            }).collect();
            let assign = sorted_round_robin(&weights, bins);
            let mut seen = vec![0u8; n];
            for b in &assign {
                for &i in b {
                    seen[i as usize] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1));
            // Bin sizes differ by at most one item.
            let sizes: Vec<usize> = assign.iter().map(Vec::len).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
