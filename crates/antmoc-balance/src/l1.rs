//! L1: sub-geometry → node mapping by balanced graph partitioning
//! (§4.2.1, Fig. 5(1)).

use crate::graph::{partition_kway, Graph, Partition};

/// The L1 product: which node owns each sub-geometry.
#[derive(Debug, Clone)]
pub struct L1Mapping {
    /// `node_of[subdomain] = node`.
    pub node_of: Vec<u32>,
    pub num_nodes: usize,
    /// Per-node summed load.
    pub node_loads: Vec<f64>,
    /// Cut weight (proxy for inter-node communication volume).
    pub cut: f64,
}

/// Builds the sub-geometry graph of a uniform `nx x ny x nz` decomposition
/// (nodes weighted by predicted load, edges by shared-face area) and
/// partitions it onto `num_nodes` nodes.
///
/// `loads[subdomain]` uses the decomposition's rank ordering
/// (`(iz * ny + iy) * nx + ix`).
pub fn map_subdomains_to_nodes(
    dims: (usize, usize, usize),
    loads: &[f64],
    face_areas: (f64, f64, f64),
    num_nodes: usize,
) -> L1Mapping {
    let (nx, ny, nz) = dims;
    assert_eq!(loads.len(), nx * ny * nz);
    let rank = |ix: usize, iy: usize, iz: usize| (iz * ny + iy) * nx + ix;

    let mut graph = Graph::with_nodes(loads.to_vec());
    let (ax, ay, az) = face_areas;
    for iz in 0..nz {
        for iy in 0..ny {
            for ix in 0..nx {
                let me = rank(ix, iy, iz);
                if ix + 1 < nx {
                    graph.add_edge(me, rank(ix + 1, iy, iz), ax);
                }
                if iy + 1 < ny {
                    graph.add_edge(me, rank(ix, iy + 1, iz), ay);
                }
                if iz + 1 < nz {
                    graph.add_edge(me, rank(ix, iy, iz + 1), az);
                }
            }
        }
    }
    let part: Partition = partition_kway(&graph, num_nodes);
    let node_loads = part.part_loads(&graph);
    let cut = part.cut_weight(&graph);
    L1Mapping { node_of: part.assignment, num_nodes, node_loads, cut }
}

/// The no-balance baseline: subdomains dealt to nodes in rank order
/// (contiguous blocks), the OpenMOC-style assignment the paper compares
/// against.
pub fn block_baseline(num_subdomains: usize, num_nodes: usize, loads: &[f64]) -> L1Mapping {
    assert_eq!(loads.len(), num_subdomains);
    let per = num_subdomains.div_ceil(num_nodes);
    let node_of: Vec<u32> = (0..num_subdomains).map(|i| (i / per) as u32).collect();
    let mut node_loads = vec![0.0; num_nodes];
    for (i, &n) in node_of.iter().enumerate() {
        node_loads[n as usize] += loads[i];
    }
    L1Mapping { node_of, num_nodes, node_loads, cut: 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::load_uniformity;

    /// C5G7-like load pattern: fine-meshed reflector subdomains are much
    /// heavier than core subdomains (the §5.4 setup).
    fn skewed_loads(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
        let mut v = Vec::new();
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let reflector = ix + 1 == nx || iy + 1 == ny || iz + 1 == nz;
                    v.push(if reflector { 3.0 } else { 1.0 });
                }
            }
        }
        v
    }

    #[test]
    fn l1_covers_all_subdomains() {
        let loads = skewed_loads(4, 4, 2);
        let m = map_subdomains_to_nodes((4, 4, 2), &loads, (1.0, 1.0, 1.0), 4);
        assert_eq!(m.node_of.len(), 32);
        assert!(m.node_of.iter().all(|&n| (n as usize) < 4));
        assert!((m.node_loads.iter().sum::<f64>() - loads.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn l1_beats_block_baseline_on_skewed_loads() {
        let loads = skewed_loads(4, 4, 4);
        let nodes = 8;
        let l1 = map_subdomains_to_nodes((4, 4, 4), &loads, (1.0, 1.0, 1.0), nodes);
        let base = block_baseline(64, nodes, &loads);
        let u1 = load_uniformity(&l1.node_loads);
        let u0 = load_uniformity(&base.node_loads);
        assert!(u1 <= u0 + 1e-12, "L1 uniformity {u1} vs baseline {u0}");
        assert!(u1 < 1.15, "L1 should be near-balanced, got {u1}");
    }

    #[test]
    fn l1_keeps_neighbours_together_reasonably() {
        // The cut should be far below the total edge weight (a random
        // assignment cuts ~ (k-1)/k of the edges).
        let loads = skewed_loads(4, 4, 2);
        let m = map_subdomains_to_nodes((4, 4, 2), &loads, (1.0, 1.0, 1.0), 4);
        // Total edge weight of the 4x4x2 grid graph:
        let total_edges = (3 * 4 * 2 + 4 * 3 * 2 + 4 * 4) as f64;
        assert!(m.cut < 0.8 * total_edges, "cut {} of {total_edges}", m.cut);
    }
}
