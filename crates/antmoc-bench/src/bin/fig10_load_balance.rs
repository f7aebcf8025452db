//! Fig. 10: load-uniformity index (max/avg) of the no-balance baseline vs
//! the cumulative three-level mapping, across GPU counts.
//!
//! The imbalance source is the paper's own: fine meshes in the reflector
//! assemblies, coarse in the core, split by uniform spatial decomposition.
//! Levels compose as in §4.2: L1 assigns sub-geometries to nodes; L2
//! splits each node's fused group across its 4 GPUs by azimuthal angle;
//! L3 spreads tracks over CUs within a GPU. The per-GPU *effective* load
//! at each level is what the uniformity index measures (for L3, the
//! bottleneck CU x CU-count of each GPU).
//!
//! `--ablation` compares the graph partitioner with and without boundary
//! refinement.
//!
//! ```text
//! cargo run --release -p antmoc-bench --bin fig10_load_balance [-- --ablation]
//! ```

use antmoc::balance::{l1, l2, l3, load_uniformity};
use antmoc::solver::decomp::{DecompSpec, Decomposition};
use antmoc::track::TrackParams;
use antmoc_bench::imbalanced_model;

const GPUS_PER_NODE: usize = 4;
const CUS: usize = 64;

struct Setup {
    /// Per-subdomain segment loads.
    loads: Vec<f64>,
    /// Per-subdomain, per-azimuthal-half-angle segment loads.
    angle_loads: Vec<Vec<f64>>,
    /// Per-subdomain per-track segment counts (for L3).
    track_segments: Vec<Vec<u64>>,
    dims: (usize, usize, usize),
}

fn build_setup(dims: (usize, usize, usize)) -> Setup {
    let m = imbalanced_model();
    let params =
        TrackParams { num_azim: 16, radial_spacing: 1.2, num_polar: 2, axial_spacing: 12.0 };
    let decomp = Decomposition::build(
        &m.geometry,
        &m.axial,
        &m.library,
        params,
        DecompSpec { nx: dims.0, ny: dims.1, nz: dims.2 },
    );
    let loads: Vec<f64> = decomp.problems.iter().map(|p| p.num_3d_segments() as f64).collect();
    let angle_loads: Vec<Vec<f64>> = decomp
        .problems
        .iter()
        .map(|p| {
            let mut v = vec![0.0f64; 8];
            for st in &p.sweep_tracks {
                let azim = p.layout.tracks2d.tracks[st.track2d as usize].azim;
                v[azim] += st.num_segments as f64;
            }
            v
        })
        .collect();
    let track_segments: Vec<Vec<u64>> = decomp
        .problems
        .iter()
        .map(|p| p.sweep_tracks.iter().map(|t| t.num_segments as u64).collect())
        .collect();
    Setup { loads, angle_loads, track_segments, dims }
}

/// Effective per-GPU loads under a strategy stack, mirroring §4.2:
///
/// * without L2, a node's sub-geometry group is divided *spatially* among
///   its GPUs (contiguous sub-blocks — the OpenMOC-style baseline);
/// * with L2, every GPU sees the node's whole fused group but only a
///   balanced slice of the azimuthal angles;
/// * L3 multiplies each GPU's load by its CU-level uniformity (bottleneck
///   CU x CU count), with grid-stride as the no-L3 mapping.
fn gpu_loads(setup: &Setup, num_gpus: usize, use_l1: bool, use_l2: bool, use_l3: bool) -> Vec<f64> {
    let nodes = num_gpus / GPUS_PER_NODE;
    let mapping = if use_l1 {
        l1::map_subdomains_to_nodes(setup.dims, &setup.loads, (1.0, 1.0, 1.0), nodes)
    } else {
        l1::block_baseline(setup.loads.len(), nodes, &setup.loads)
    };

    let mut gpu = vec![0.0f64; num_gpus];
    for node in 0..nodes {
        let members: Vec<usize> = mapping
            .node_of
            .iter()
            .enumerate()
            .filter(|(_, &owner)| owner as usize == node)
            .map(|(sd, _)| sd)
            .collect();

        // Per-GPU track lists (for the L3 term) and base loads.
        let mut gpu_tracks: Vec<Vec<u64>> = vec![Vec::new(); GPUS_PER_NODE];
        let mut base_loads = [0.0f64; GPUS_PER_NODE];
        if use_l2 {
            // Angle split over the fused group.
            let mut angles = vec![0.0f64; 8];
            for &sd in &members {
                for (a, &l) in setup.angle_loads[sd].iter().enumerate() {
                    angles[a] += l;
                }
            }
            let split = l2::map_angles_to_gpus(&angles, GPUS_PER_NODE);
            base_loads.copy_from_slice(&split.gpu_loads);
            // Tracks of the whole group, dealt to GPUs (approximation of
            // the per-angle ownership, good enough for the L3 term).
            for &sd in &members {
                for (i, &t) in setup.track_segments[sd].iter().enumerate() {
                    gpu_tracks[i % GPUS_PER_NODE].push(t);
                }
            }
        } else {
            // Spatial sub-blocks: contiguous quarters of the member list.
            let per = members.len().div_ceil(GPUS_PER_NODE).max(1);
            for (pos, &sd) in members.iter().enumerate() {
                let g = (pos / per).min(GPUS_PER_NODE - 1);
                base_loads[g] += setup.loads[sd];
                gpu_tracks[g].extend(&setup.track_segments[sd]);
            }
        }

        for g in 0..GPUS_PER_NODE {
            let mut effective = base_loads[g];
            let share = &gpu_tracks[g];
            if !share.is_empty() {
                let bins = if use_l3 {
                    l3::sorted_round_robin(share, CUS)
                } else {
                    l3::grid_stride(share.len(), CUS)
                };
                let cu_loads: Vec<f64> = bins
                    .iter()
                    .map(|b| b.iter().map(|&i| share[i as usize] as f64).sum())
                    .collect();
                effective *= load_uniformity(&cu_loads);
            }
            gpu[node * GPUS_PER_NODE + g] = effective;
        }
    }
    gpu
}

fn main() {
    let ablation = std::env::args().any(|a| a == "--ablation");
    println!("# Fig. 10: load uniformity index (max/avg) vs GPU count\n");
    println!("| GPUs | sub-geoms | no balance | +L1 | +L1+L2 | +L1+L2+L3 |");
    println!("|---|---|---|---|---|---|");

    for gpus in [8usize, 16, 32, 64] {
        let nodes = gpus / GPUS_PER_NODE;
        // ~10 sub-geometries per node, as the paper recommends (§4.2.1).
        let dims = match nodes {
            2 => (4, 3, 2),
            4 => (5, 4, 2),
            8 => (5, 4, 4),
            16 => (7, 5, 4),
            _ => unreachable!(),
        };
        let setup = build_setup(dims);
        // The baseline carries grid-stride L3 imbalance too; strategies
        // stack cumulatively as in the paper's figure.
        let base = load_uniformity(&gpu_loads(&setup, gpus, false, false, false));
        let with_l1 = load_uniformity(&gpu_loads(&setup, gpus, true, false, false));
        let with_l12 = load_uniformity(&gpu_loads(&setup, gpus, true, true, false));
        let with_l123 = load_uniformity(&gpu_loads(&setup, gpus, true, true, true));
        println!(
            "| {gpus} | {}x{}x{} | {base:.3} | {with_l1:.3} | {with_l12:.3} | {with_l123:.3} |",
            dims.0, dims.1, dims.2
        );
    }
    println!("\npaper: L1 ~5 %, L2 ~53 %, L3 ~8 % reductions; L2 dominates because");
    println!("angle-splitting smooths whatever spatial grouping leaves behind.");

    if ablation {
        println!("\n## Ablation: partitioner quality (64 GPUs case)\n");
        let setup = build_setup((7, 5, 4));
        let nodes = 16;
        let greedy_only = {
            // Round-robin over sorted loads approximates greedy-without-
            // refinement; compare against the full partitioner and the
            // block baseline.
            let mut order: Vec<usize> = (0..setup.loads.len()).collect();
            order.sort_by(|&a, &b| setup.loads[b].partial_cmp(&setup.loads[a]).unwrap());
            let mut loads = vec![0.0f64; nodes];
            for (i, &sd) in order.iter().enumerate() {
                loads[i % nodes] += setup.loads[sd];
            }
            load_uniformity(&loads)
        };
        let block =
            load_uniformity(&l1::block_baseline(setup.loads.len(), nodes, &setup.loads).node_loads);
        let full = load_uniformity(
            &l1::map_subdomains_to_nodes(setup.dims, &setup.loads, (1.0, 1.0, 1.0), nodes)
                .node_loads,
        );
        let rcb = {
            let a = antmoc::balance::rcb_partition(setup.dims, &setup.loads, nodes);
            let mut loads = vec![0.0f64; nodes];
            for (sd, &p) in a.iter().enumerate() {
                loads[p as usize] += setup.loads[sd];
            }
            load_uniformity(&loads)
        };
        println!("| strategy | uniformity |");
        println!("|---|---|");
        println!("| block (no balance) | {block:.3} |");
        println!("| recursive coordinate bisection | {rcb:.3} |");
        println!("| sorted round-robin (greedy, no refinement) | {greedy_only:.3} |");
        println!("| graph partition + refinement (ours) | {full:.3} |");
    }

    antmoc_bench::write_telemetry_artifact("fig10_load_balance");
}
