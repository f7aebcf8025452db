//! Constructive-solid-geometry building blocks: cells, universes, lattices.
//!
//! The hierarchy mirrors mainstream reactor modelling codes (§2.1 of the
//! paper): a *cell* is an intersection of surface half-spaces filled either
//! with a material or with another *universe*; a *universe* is a set of
//! cells tiling the local plane; a *lattice* is a rectangular array of
//! universes. The root of a [`crate::geometry::Geometry`] is a universe.

use antmoc_xs::MaterialId;

use crate::surface::{Sense, SurfaceId};

/// Index of a universe within a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UniverseId(pub u32);

/// Index of a lattice within a geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatticeId(pub u32);

/// What fills a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// A homogeneous material; cells with material fills are the leaves
    /// that become flat source regions.
    Material(MaterialId),
    /// Another universe, translated so its origin sits at the cell's
    /// local origin.
    Universe(UniverseId),
    /// A rectangular lattice of universes.
    Lattice(LatticeId),
}

/// A CSG cell: the intersection of half-spaces, with a fill.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `(surface, sense)` pairs; a point is in the cell when it has the
    /// given sense w.r.t. every listed surface. An empty region means
    /// "everywhere in the universe" (useful as a background cell --
    /// put it last, matching is first-wins).
    pub region: Vec<(SurfaceId, Sense)>,
    /// The cell contents.
    pub fill: Fill,
}

/// A set of cells tiling the local plane. Matching is first-wins, so
/// more specific cells must precede background cells.
#[derive(Debug, Clone, Default)]
pub struct Universe {
    /// The cells in priority order.
    pub cells: Vec<Cell>,
    /// Optional human-readable name for debugging / reporting.
    pub name: String,
}

/// A rectangular lattice of `nx * ny` universes, centred on the local
/// origin. Element `(ix, iy)` spans
/// `x in [x_min + ix*px, x_min + (ix+1)*px)` with `x_min = -nx*px/2`,
/// and likewise in y; `iy` increases towards +y. Universes are stored
/// row-major: `universes[iy * nx + ix]`.
#[derive(Debug, Clone)]
pub struct Lattice {
    pub nx: usize,
    pub ny: usize,
    pub pitch_x: f64,
    pub pitch_y: f64,
    pub universes: Vec<UniverseId>,
    pub name: String,
}

impl Lattice {
    /// Width of the lattice in x.
    pub fn width_x(&self) -> f64 {
        self.nx as f64 * self.pitch_x
    }

    /// Width of the lattice in y.
    pub fn width_y(&self) -> f64 {
        self.ny as f64 * self.pitch_y
    }

    /// The `(ix, iy)` cell containing a local point, clamped into range
    /// (points exactly on the outer edge belong to the nearest cell).
    pub fn find_cell(&self, x: f64, y: f64) -> (usize, usize) {
        let fx = (x + 0.5 * self.width_x()) / self.pitch_x;
        let fy = (y + 0.5 * self.width_y()) / self.pitch_y;
        let ix = (fx.floor() as isize).clamp(0, self.nx as isize - 1) as usize;
        let iy = (fy.floor() as isize).clamp(0, self.ny as isize - 1) as usize;
        (ix, iy)
    }

    /// Centre of cell `(ix, iy)` in lattice-local coordinates.
    pub fn cell_center(&self, ix: usize, iy: usize) -> (f64, f64) {
        (
            -0.5 * self.width_x() + (ix as f64 + 0.5) * self.pitch_x,
            -0.5 * self.width_y() + (iy as f64 + 0.5) * self.pitch_y,
        )
    }

    /// The universe in cell `(ix, iy)`.
    pub fn universe_at(&self, ix: usize, iy: usize) -> UniverseId {
        self.universes[iy * self.nx + ix]
    }

    /// Distance from a local point along `(ux, uy)` to the boundary of
    /// cell `(ix, iy)` (the next interior wall or outer edge), where the
    /// cell is [`Self::find_cell`] of the point.
    pub fn distance_to_cell_wall(
        &self,
        (ix, iy): (usize, usize),
        x: f64,
        y: f64,
        ux: f64,
        uy: f64,
    ) -> f64 {
        let (cx, cy) = self.cell_center(ix, iy);
        let mut t = f64::INFINITY;
        if ux.abs() > 1e-14 {
            let wall = if ux > 0.0 { cx + 0.5 * self.pitch_x } else { cx - 0.5 * self.pitch_x };
            let cand = (wall - x) / ux;
            if cand > 0.0 {
                t = t.min(cand);
            }
        }
        if uy.abs() > 1e-14 {
            let wall = if uy > 0.0 { cy + 0.5 * self.pitch_y } else { cy - 0.5 * self.pitch_y };
            let cand = (wall - y) / uy;
            if cand > 0.0 {
                t = t.min(cand);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat() -> Lattice {
        Lattice {
            nx: 3,
            ny: 2,
            pitch_x: 1.0,
            pitch_y: 2.0,
            universes: (0..6).map(UniverseId).collect(),
            name: "t".into(),
        }
    }

    #[test]
    fn lattice_find_cell_covers_plane() {
        let l = lat();
        assert_eq!(l.find_cell(-1.4, -1.9), (0, 0));
        assert_eq!(l.find_cell(1.4, 1.9), (2, 1));
        assert_eq!(l.find_cell(0.0, 0.0), (1, 1)); // on wall: upper cell
                                                   // Clamped outside.
        assert_eq!(l.find_cell(-99.0, 99.0), (0, 1));
    }

    #[test]
    fn lattice_cell_center_round_trips() {
        let l = lat();
        for iy in 0..2 {
            for ix in 0..3 {
                let (cx, cy) = l.cell_center(ix, iy);
                assert_eq!(l.find_cell(cx, cy), (ix, iy));
            }
        }
    }

    #[test]
    fn lattice_wall_distance_is_exact_on_axis() {
        let l = lat();
        let (cx, cy) = l.cell_center(1, 0);
        let t = l.distance_to_cell_wall((1, 0), cx, cy, 1.0, 0.0);
        assert!((t - 0.5).abs() < 1e-12);
        let t = l.distance_to_cell_wall((1, 0), cx, cy, 0.0, -1.0);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lattice_wall_distance_diagonal() {
        let l = lat();
        let (cx, cy) = l.cell_center(0, 0);
        let inv = 1.0 / 2.0f64.sqrt();
        let t = l.distance_to_cell_wall((0, 0), cx, cy, inv, inv);
        // Hits the x wall at 0.5/inv ≈ 0.7071 before the y wall at 1/inv.
        assert!((t - 0.5 / inv).abs() < 1e-12);
    }

    #[test]
    fn universe_at_is_row_major() {
        let l = lat();
        assert_eq!(l.universe_at(2, 0), UniverseId(2));
        assert_eq!(l.universe_at(0, 1), UniverseId(3));
    }
}
