//! Uniform spatial decomposition and the inter-domain angular-flux
//! exchange plan (§3.2 of the paper).
//!
//! The global geometry is cut into `nx * ny * nz` equal cuboid
//! sub-geometries. Every subdomain window has identical radial dimensions,
//! so the modular 2D laydown is the same in each — tracks of adjacent
//! subdomains meet face to face at identical lateral positions. The
//! vertical z-stack lattices are chain-local, so 3D tracks at an interface
//! are paired with the geometrically nearest counterpart (the Point-Jacobi
//! interface update of §2.1; the paper notes decomposition may perturb raw
//! fission rates while normalised rates agree).

use std::collections::HashMap;

use antmoc_geom::{AxialModel, Bc, BoundaryConds, Geometry};
use antmoc_track::{Link3d, TrackParams};
use antmoc_xs::MaterialLibrary;

use crate::problem::Problem;

/// Decomposition grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompSpec {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl DecompSpec {
    pub fn num_domains(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Rank of subdomain `(ix, iy, iz)`.
    fn rank_of(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (iz * self.ny + iy) * self.nx + ix
    }

    /// Inverse of [`DecompSpec::rank_of`].
    fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        let ix = rank % self.nx;
        let iy = (rank / self.nx) % self.ny;
        let iz = rank / (self.nx * self.ny);
        (ix, iy, iz)
    }
}

/// One entry of a rank's send list: ship the outgoing flux of
/// `local_traversal` to `neighbor_rank`, where it becomes the incoming
/// flux of `neighbor_traversal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeItem {
    pub local_traversal: (u32, u8),
    pub neighbor_rank: u32,
    pub neighbor_traversal: (u32, u8),
    /// Stability/conservation weight applied to the delivered flux:
    /// `min(1, exits / entries)` of this item's (direction, line) group.
    /// Per-chain lattice snapping makes the two sides' 3D track counts
    /// differ slightly; every entry is fed (no spurious vacuum drain),
    /// the sub-unity factor cancels the duplication gain (keeping every
    /// interface loop's gain <= 1, hence stable), and any surplus exits
    /// are dropped as mild leakage.
    pub weight: f32,
}

/// A rank's full exchange schedule, sorted by neighbour for batched
/// messages.
#[derive(Debug, Clone, Default)]
pub struct RankExchange {
    pub sends: Vec<ExchangeItem>,
}

/// The decomposed problem set plus the exchange plan.
pub struct Decomposition {
    pub spec: DecompSpec,
    pub problems: Vec<Problem>,
    pub exchanges: Vec<RankExchange>,
    /// Interface traversals that found no partner (stay vacuum); counted
    /// for diagnostics.
    pub unmatched: usize,
}

/// A boundary crossing (exit or entry) of one traversal.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    traversal: (u32, u8),
    /// Quantised direction key.
    dir_key: (i64, i64, i64),
    /// Quantised perpendicular 2D line offset.
    rho_key: i64,
    /// Sort coordinate along the line (z works for every face because z
    /// and the in-plane coordinate are affinely related on a 3D line; for
    /// horizontal crossings of z faces the in-plane coordinate is used).
    sort_coord: f64,
    /// Global position (for diagnostics).
    pos: [f64; 3],
}

const DIR_QUANTUM: f64 = 1e-6;
const RHO_QUANTUM: f64 = 1e-6;

impl Decomposition {
    /// Builds the decomposition of a global model.
    pub fn build(
        geometry: &Geometry,
        axial: &AxialModel,
        library: &MaterialLibrary,
        params: TrackParams,
        spec: DecompSpec,
    ) -> Self {
        let (x0, x1, y0, y1) = geometry.bounds();
        let (z0, z1) = geometry.z_range();
        let dx = (x1 - x0) / spec.nx as f64;
        let dy = (y1 - y0) / spec.ny as f64;
        let dz = (z1 - z0) / spec.nz as f64;
        let gbcs = geometry.bcs();

        // Axial mesh target: preserve the global model's finest cell
        // height so windows conform.
        let target_dz =
            axial.planes().windows(2).map(|w| w[1] - w[0]).fold(f64::INFINITY, f64::min);

        use rayon::prelude::*;
        let problems: Vec<Problem> = (0..spec.num_domains())
            .into_par_iter()
            .map(|rank| {
                let (ix, iy, iz) = spec.coords_of(rank);
                let bounds = (
                    x0 + ix as f64 * dx,
                    x0 + (ix + 1) as f64 * dx,
                    y0 + iy as f64 * dy,
                    y0 + (iy + 1) as f64 * dy,
                );
                let zr = (z0 + iz as f64 * dz, z0 + (iz + 1) as f64 * dz);
                let bcs = BoundaryConds {
                    x_min: if ix == 0 { gbcs.x_min } else { Bc::Vacuum },
                    x_max: if ix == spec.nx - 1 { gbcs.x_max } else { Bc::Vacuum },
                    y_min: if iy == 0 { gbcs.y_min } else { Bc::Vacuum },
                    y_max: if iy == spec.ny - 1 { gbcs.y_max } else { Bc::Vacuum },
                    z_min: if iz == 0 { gbcs.z_min } else { Bc::Vacuum },
                    z_max: if iz == spec.nz - 1 { gbcs.z_max } else { Bc::Vacuum },
                };
                let sub_geom = geometry.restrict(bounds, zr, bcs);
                let sub_axial = axial.restrict(zr.0, zr.1, target_dz);
                Problem::build(sub_geom, sub_axial, library, params.clone())
            })
            .collect();

        let (exchanges, unmatched) = build_exchange_plan(&problems, spec);
        Self { spec, problems, exchanges, unmatched }
    }
}

/// Position and direction of a traversal's boundary crossing.
fn crossing_of(problem: &Problem, track: u32, dir: u8, exit: bool) -> Crossing {
    let st = &problem.sweep_tracks[track as usize];
    let t2 = &problem.layout.tracks2d.tracks[st.track2d as usize];
    // Traversal dir 0 moves with +u; its exit is at u_hi, entry at u_lo.
    let at_u_hi = (dir == 0) == exit;
    let u = if at_u_hi { st.u_hi } else { st.u_lo };
    let (sphi, cphi) = t2.phi.sin_cos();
    let (px, py) = if st.forward2d {
        (t2.start.0 + u * cphi, t2.start.1 + u * sphi)
    } else {
        (t2.end.0 - u * cphi, t2.end.1 - u * sphi)
    };
    let slope = if st.ascending { st.cot } else { -st.cot };
    let z = st.z_lo + (u - st.u_lo) * slope;

    // Motion direction. Traversal dir 0 moves with +u, which in global
    // 2D coordinates is +/- the track's direction vector depending on the
    // chain's traversal sense; dir 1 negates everything. Vertically,
    // dir 0 of an ascending track climbs.
    let sign2d = if (dir == 0) == st.forward2d { 1.0 } else { -1.0 };
    let sin_t = 1.0 / st.inv_sin;
    let cos_t = st.cot * sin_t * if st.ascending { 1.0 } else { -1.0 };
    let flip = if dir == 0 { 1.0 } else { -1.0 };
    let ux = sign2d * cphi * sin_t;
    let uy = sign2d * sphi * sin_t;
    let uz = flip * cos_t;

    // Perpendicular 2D line offset (independent of position along the
    // line): rho = x * sin(phi) - y * cos(phi).
    let rho = px * sphi - py * cphi;

    Crossing {
        traversal: (track, dir),
        dir_key: (
            (ux / DIR_QUANTUM).round() as i64,
            (uy / DIR_QUANTUM).round() as i64,
            (uz / DIR_QUANTUM).round() as i64,
        ),
        rho_key: (rho / RHO_QUANTUM).round() as i64,
        // z and the in-plane line coordinate are affinely related; use
        // z plus the along-line 2D coordinate for a strictly monotone
        // sort coordinate even on z faces.
        sort_coord: z + (px * cphi + py * sphi) * 1e-3,
        pos: [px, py, z],
    }
}

/// Which neighbour (if any) a crossing position touches for a subdomain at
/// `(ix, iy, iz)`.
#[allow(clippy::too_many_arguments)]
fn neighbor_of(
    pos: [f64; 3],
    bounds: (f64, f64, f64, f64),
    zr: (f64, f64),
    spec: DecompSpec,
    ix: usize,
    iy: usize,
    iz: usize,
    eps: f64,
) -> Option<(usize, usize, usize)> {
    let (x0, x1, y0, y1) = bounds;
    let (z0, z1) = zr;
    if (pos[0] - x0).abs() < eps && ix > 0 {
        return Some((ix - 1, iy, iz));
    }
    if (pos[0] - x1).abs() < eps && ix + 1 < spec.nx {
        return Some((ix + 1, iy, iz));
    }
    if (pos[1] - y0).abs() < eps && iy > 0 {
        return Some((ix, iy - 1, iz));
    }
    if (pos[1] - y1).abs() < eps && iy + 1 < spec.ny {
        return Some((ix, iy + 1, iz));
    }
    if (pos[2] - z0).abs() < eps && iz > 0 {
        return Some((ix, iy, iz - 1));
    }
    if (pos[2] - z1).abs() < eps && iz + 1 < spec.nz {
        return Some((ix, iy, iz + 1));
    }
    None
}

type GroupKey = ((i64, i64, i64), i64);

fn build_exchange_plan(problems: &[Problem], spec: DecompSpec) -> (Vec<RankExchange>, usize) {
    // Collect exits and entries per (rank pair) bucket.
    // exits[(from, to)] and entries[(to, from)] are matched below.
    let mut exits: HashMap<(usize, usize), Vec<Crossing>> = HashMap::new();
    let mut entries: HashMap<(usize, usize), Vec<Crossing>> = HashMap::new();

    for (rank, problem) in problems.iter().enumerate() {
        let (ix, iy, iz) = spec.coords_of(rank);
        let bounds = problem.geometry.bounds();
        let zr = problem.geometry.z_range();
        let eps = 1e-6 * (bounds.1 - bounds.0).max(bounds.3 - bounds.2).max(zr.1 - zr.0);
        for (t, st) in problem.sweep_tracks.iter().enumerate() {
            for dir in 0..2u8 {
                // Open exit: this traversal leaves through vacuum.
                if st.links[dir as usize] == Link3d::Vacuum {
                    let c = crossing_of(problem, t as u32, dir, true);
                    if let Some(nb) = neighbor_of(c.pos, bounds, zr, spec, ix, iy, iz, eps) {
                        let to = spec.rank_of(nb.0, nb.1, nb.2);
                        exits.entry((rank, to)).or_default().push(c);
                    }
                }
                // Open entry: the reverse traversal exits through vacuum.
                if st.links[1 - dir as usize] == Link3d::Vacuum {
                    let c = crossing_of(problem, t as u32, dir, false);
                    if let Some(nb) = neighbor_of(c.pos, bounds, zr, spec, ix, iy, iz, eps) {
                        let from = spec.rank_of(nb.0, nb.1, nb.2);
                        entries.entry((rank, from)).or_default().push(c);
                    }
                }
            }
        }
    }

    let mut plans: Vec<RankExchange> =
        (0..problems.len()).map(|_| RankExchange::default()).collect();
    let mut unmatched = 0usize;

    // The matching is *entry-driven*: every open entry of the receiving
    // rank is paired with the geometrically nearest exit of the sending
    // rank (within the same direction and 2D line). Per-chain lattice
    // snapping makes the two sides' track counts differ by a line or two,
    // so an exit may feed more than one entry; entry-driven pairing
    // guarantees no interface traversal is left flux-starved (an unfed
    // entry acts as a spurious vacuum and drains the receiving domain).
    for ((to, from), entry_list) in entries {
        let Some(exit_list) = exits.get(&(from, to)) else {
            unmatched += entry_list.len();
            continue;
        };
        let mut exit_groups: HashMap<GroupKey, Vec<&Crossing>> = HashMap::new();
        for c in exit_list {
            exit_groups.entry((c.dir_key, c.rho_key)).or_default().push(c);
        }
        let mut entry_groups: HashMap<GroupKey, Vec<&Crossing>> = HashMap::new();
        for c in &entry_list {
            entry_groups.entry((c.dir_key, c.rho_key)).or_default().push(c);
        }
        for (key, mut en) in entry_groups {
            let Some(ex) = exit_groups.get_mut(&key) else {
                unmatched += en.len();
                continue;
            };
            en.sort_by(|a, b| a.sort_coord.partial_cmp(&b.sort_coord).unwrap());
            ex.sort_by(|a, b| a.sort_coord.partial_cmp(&b.sort_coord).unwrap());
            let m = ex.len();
            if m == 0 {
                unmatched += en.len();
                continue;
            }
            // Nearest-coordinate monotone pairing (two-pointer merge over
            // the sorted lists).
            // Cap at 1: sub-unity weights cancel the duplication gain
            // when entries outnumber exits (which would otherwise make
            // reflective loops through the interface amplify, i.e.
            // diverge); surplus exits are simply dropped (mild leakage).
            let weight = ((m as f64 / en.len() as f64).min(1.0)) as f32;
            let mut j = 0usize;
            for c in en.iter() {
                while j + 1 < m
                    && (ex[j + 1].sort_coord - c.sort_coord).abs()
                        < (ex[j].sort_coord - c.sort_coord).abs()
                {
                    j += 1;
                }
                plans[from].sends.push(ExchangeItem {
                    local_traversal: ex[j].traversal,
                    neighbor_rank: to as u32,
                    neighbor_traversal: c.traversal,
                    weight,
                });
            }
        }
    }

    // Deterministic order for batched messaging.
    for p in &mut plans {
        p.sends.sort_by(|a, b| {
            (a.neighbor_rank, a.neighbor_traversal, a.local_traversal).cmp(&(
                b.neighbor_rank,
                b.neighbor_traversal,
                b.local_traversal,
            ))
        });
    }
    (plans, unmatched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_xs::c5g7;

    fn global() -> (Geometry, AxialModel, MaterialLibrary) {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 4.0), bcs);
        let axial = AxialModel::uniform(0.0, 4.0, 1.0);
        (g, axial, lib)
    }

    fn params() -> TrackParams {
        TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 1.0 }
    }

    #[test]
    fn spec_rank_round_trips() {
        let s = DecompSpec { nx: 2, ny: 3, nz: 4 };
        for r in 0..s.num_domains() {
            let (ix, iy, iz) = s.coords_of(r);
            assert_eq!(s.rank_of(ix, iy, iz), r);
        }
    }

    #[test]
    fn decomposition_builds_expected_domains() {
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 2, nz: 2 });
        assert_eq!(d.problems.len(), 8);
        for (rank, p) in d.problems.iter().enumerate() {
            let (ix, iy, iz) = d.spec.coords_of(rank);
            let b = p.geometry.bounds();
            assert!((b.1 - b.0 - 2.0).abs() < 1e-12);
            let bcs = p.geometry.bcs();
            // Internal faces are vacuum for tracking.
            if ix == 0 {
                assert_eq!(bcs.x_min, Bc::Reflective);
                assert_eq!(bcs.x_max, Bc::Vacuum);
            } else {
                assert_eq!(bcs.x_min, Bc::Vacuum);
            }
            let _ = (iy, iz);
        }
    }

    #[test]
    fn exchange_plan_pairs_most_interface_traversals() {
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 1, nz: 1 });
        let total_sends: usize = d.exchanges.iter().map(|e| e.sends.len()).sum();
        assert!(total_sends > 0, "no interface exchange at all");
        // The unmatched fraction must be small.
        assert!(
            d.unmatched * 10 <= total_sends,
            "unmatched {} vs sends {total_sends}",
            d.unmatched
        );
    }

    #[test]
    fn exchange_items_reference_valid_traversals() {
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 2, nz: 1 });
        for (rank, ex) in d.exchanges.iter().enumerate() {
            for item in &ex.sends {
                assert!(item.local_traversal.0 < d.problems[rank].num_tracks() as u32);
                let nb = item.neighbor_rank as usize;
                assert!(nb < d.problems.len());
                assert!(item.neighbor_traversal.0 < d.problems[nb].num_tracks() as u32);
                // The target traversal must be an open entry on the
                // neighbour.
                let st = &d.problems[nb].sweep_tracks[item.neighbor_traversal.0 as usize];
                assert_eq!(st.links[1 - item.neighbor_traversal.1 as usize], Link3d::Vacuum);
            }
        }
    }

    #[test]
    fn radial_exchange_positions_align() {
        // For radial neighbours the lateral positions coincide exactly by
        // modular laydown; verify sends land on geometrically close
        // entries.
        let (g, axial, lib) = global();
        let d =
            Decomposition::build(&g, &axial, &lib, params(), DecompSpec { nx: 2, ny: 1, nz: 1 });
        for (rank, ex) in d.exchanges.iter().enumerate() {
            for item in &ex.sends {
                let c_exit = crossing_of(
                    &d.problems[rank],
                    item.local_traversal.0,
                    item.local_traversal.1,
                    true,
                );
                let c_entry = crossing_of(
                    &d.problems[item.neighbor_rank as usize],
                    item.neighbor_traversal.0,
                    item.neighbor_traversal.1,
                    false,
                );
                let dx = c_exit.pos[0] - c_entry.pos[0];
                let dy = c_exit.pos[1] - c_entry.pos[1];
                let dz = c_exit.pos[2] - c_entry.pos[2];
                let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                // Lateral exact; z within one lattice spacing.
                assert!(dist < 1.5, "exchange pair {dist} apart");
                assert!((dx).abs() < 1e-6 && (dy).abs() < 1e-6, "lateral offset {dx},{dy}");
            }
        }
    }
}
