//! A weighted graph and a balanced k-way partitioner (ParMETIS stand-in).
//!
//! L1 only needs a decent balanced partition of a small graph (the paper
//! uses ~10 sub-geometries per node), so a greedy balanced growth followed
//! by Kernighan–Lin style boundary refinement is entirely adequate — the
//! same ~5 % L1 gain regime the paper reports.

/// An undirected graph with node and edge weights.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// Node weights (computational load of each sub-geometry).
    pub node_weights: Vec<f64>,
    /// Edges `(a, b, weight)` with `a != b`; weight models communication
    /// volume across the shared face.
    pub edges: Vec<(u32, u32, f64)>,
}

impl Graph {
    /// Creates a graph with the given node weights and no edges.
    pub fn with_nodes(node_weights: Vec<f64>) -> Self {
        Self { node_weights, edges: Vec::new() }
    }

    /// Adds an undirected edge.
    pub fn add_edge(&mut self, a: usize, b: usize, weight: f64) {
        assert!(a != b && a < self.node_weights.len() && b < self.node_weights.len());
        self.edges.push((a as u32, b as u32, weight));
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.node_weights.len()
    }

    /// Adjacency lists `(neighbor, weight)`.
    fn adjacency(&self) -> Vec<Vec<(u32, f64)>> {
        let mut adj = vec![Vec::new(); self.len()];
        for &(a, b, w) in &self.edges {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        adj
    }
}

/// A k-way assignment of graph nodes to parts.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// `assignment[node] = part`.
    pub assignment: Vec<u32>,
    pub num_parts: usize,
}

impl Partition {
    /// Total node weight per part.
    pub fn part_loads(&self, graph: &Graph) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_parts];
        for (n, &p) in self.assignment.iter().enumerate() {
            loads[p as usize] += graph.node_weights[n];
        }
        loads
    }

    /// Summed weight of edges crossing part boundaries.
    pub fn cut_weight(&self, graph: &Graph) -> f64 {
        graph
            .edges
            .iter()
            .filter(|(a, b, _)| self.assignment[*a as usize] != self.assignment[*b as usize])
            .map(|(_, _, w)| w)
            .sum()
    }
}

/// Balanced k-way partitioning: greedy growth from the heaviest nodes,
/// then boundary-move refinement minimising the maximum part load with the
/// cut weight as tie-breaker.
pub fn partition_kway(graph: &Graph, k: usize) -> Partition {
    assert!(k >= 1);
    let n = graph.len();
    assert!(n >= k, "cannot split {n} nodes into {k} parts");
    let adj = graph.adjacency();

    // Greedy: sort nodes by descending weight, place each on the part
    // that stays lightest, preferring parts it already has edges to when
    // loads tie closely (LPT with affinity).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| graph.node_weights[b].partial_cmp(&graph.node_weights[a]).unwrap());
    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![0.0f64; k];
    for &node in &order {
        // Affinity bonus: edge weight to each part.
        let mut affinity = vec![0.0f64; k];
        for &(nb, w) in &adj[node] {
            let p = assignment[nb as usize];
            if p != u32::MAX {
                affinity[p as usize] += w;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for p in 0..k {
            // Lower is better: projected load, slightly discounted by
            // affinity to keep neighbours together.
            let score = loads[p] + graph.node_weights[node] - 1e-3 * affinity[p];
            if score < best_score {
                best_score = score;
                best = p;
            }
        }
        assignment[node] = best as u32;
        loads[best] += graph.node_weights[node];
    }

    // Refinement: single-node moves that reduce (max load, cut).
    let mut part = Partition { assignment, num_parts: k };
    refine(&mut part, graph, &adj, 4 * n);
    part
}

fn refine(part: &mut Partition, graph: &Graph, adj: &[Vec<(u32, f64)>], max_moves: usize) {
    let k = part.num_parts;
    let mut loads = part.part_loads(graph);
    let mut counts = vec![0usize; k];
    for &p in &part.assignment {
        counts[p as usize] += 1;
    }
    let mut moves = 0usize;
    loop {
        let mut improved = false;
        for node in 0..graph.len() {
            let from = part.assignment[node] as usize;
            // Never empty a part: an empty node is wasted hardware even
            // when the max load is unaffected.
            if counts[from] <= 1 {
                continue;
            }
            let w = graph.node_weights[node];
            // Current objective.
            let cur_max = loads.iter().cloned().fold(0.0, f64::max);
            let mut best: Option<(usize, f64, f64)> = None; // (part, new_max, cut_delta)
            let mut cut_to = vec![0.0f64; k];
            for &(nb, ew) in &adj[node] {
                cut_to[part.assignment[nb as usize] as usize] += ew;
            }
            for to in 0..k {
                if to == from {
                    continue;
                }
                let mut l = loads.clone();
                l[from] -= w;
                l[to] += w;
                let new_max = l.iter().cloned().fold(0.0, f64::max);
                let cut_delta = cut_to[from] - cut_to[to];
                let better =
                    new_max < cur_max - 1e-12 || (new_max < cur_max + 1e-12 && cut_delta < -1e-12);
                if better {
                    match best {
                        Some((_, bm, bc)) if (new_max, cut_delta) >= (bm, bc) => {}
                        _ => best = Some((to, new_max, cut_delta)),
                    }
                }
            }
            if let Some((to, _, _)) = best {
                loads[from] -= w;
                loads[to] += w;
                counts[from] -= 1;
                counts[to] += 1;
                part.assignment[node] = to as u32;
                improved = true;
                moves += 1;
                if moves >= max_moves {
                    return;
                }
            }
        }
        if !improved {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_graph(nx: usize, ny: usize, mut weights: impl FnMut(usize, usize) -> f64) -> Graph {
        let mut w = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                w.push(weights(x, y));
            }
        }
        let mut g = Graph::with_nodes(w);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    g.add_edge(i, i + 1, 1.0);
                }
                if y + 1 < ny {
                    g.add_edge(i, i + nx, 1.0);
                }
            }
        }
        g
    }

    #[test]
    fn uniform_grid_partitions_evenly() {
        let g = grid_graph(4, 4, |_, _| 1.0);
        let p = partition_kway(&g, 4);
        let loads = p.part_loads(&g);
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let avg: f64 = loads.iter().sum::<f64>() / 4.0;
        assert!((max / avg - 1.0).abs() < 1e-9, "loads {loads:?}");
    }

    #[test]
    fn skewed_weights_stay_balanced() {
        // Reflector-like: one heavy corner region.
        let g = grid_graph(6, 6, |x, y| if x < 2 && y < 2 { 10.0 } else { 1.0 });
        let p = partition_kway(&g, 4);
        let loads = p.part_loads(&g);
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let avg: f64 = loads.iter().sum::<f64>() / 4.0;
        assert!(max / avg < 1.25, "uniformity {} loads {loads:?}", max / avg);
    }

    #[test]
    fn refinement_beats_round_robin_on_skew() {
        let g = grid_graph(8, 8, |x, _| (x + 1) as f64);
        let k = 4;
        // Round-robin baseline (the "no balance" strategy).
        let rr =
            Partition { assignment: (0..g.len()).map(|i| (i % k) as u32).collect(), num_parts: k };
        let smart = partition_kway(&g, k);
        let uni = |p: &Partition| {
            let l = p.part_loads(&g);
            l.iter().cloned().fold(0.0, f64::max) / (l.iter().sum::<f64>() / k as f64)
        };
        assert!(uni(&smart) <= uni(&rr) + 1e-12);
    }

    #[test]
    fn single_part_assigns_everything_to_zero() {
        let g = grid_graph(3, 3, |_, _| 1.0);
        let p = partition_kway(&g, 1);
        assert!(p.assignment.iter().all(|&a| a == 0));
        assert_eq!(p.cut_weight(&g), 0.0);
    }

    #[test]
    fn cut_weight_counts_cross_edges() {
        let mut g = Graph::with_nodes(vec![1.0, 1.0]);
        g.add_edge(0, 1, 3.5);
        let p = Partition { assignment: vec![0, 1], num_parts: 2 };
        assert_eq!(p.cut_weight(&g), 3.5);
        let p2 = Partition { assignment: vec![0, 0], num_parts: 2 };
        assert_eq!(p2.cut_weight(&g), 0.0);
    }

    proptest! {
        #[test]
        fn partition_is_total_and_in_range(
            nx in 2usize..7, ny in 2usize..7, k in 1usize..5, seed in 0u64..100
        ) {
            prop_assume!(nx * ny >= k);
            let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let g = grid_graph(nx, ny, |_, _| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                1.0 + ((s >> 33) % 100) as f64 / 10.0
            });
            let p = partition_kway(&g, k);
            prop_assert_eq!(p.assignment.len(), g.len());
            prop_assert!(p.assignment.iter().all(|&a| (a as usize) < k));
            // Every part non-empty when k <= n.
            let loads = p.part_loads(&g);
            prop_assert!(loads.iter().all(|&l| l > 0.0), "empty part: {:?}", loads);
        }
    }
}
