//! 2D track chains: maximal sequences of tracks connected by boundary
//! links.
//!
//! A *chain* is the path a neutron's radial projection follows through the
//! cyclic track set: it enters at a vacuum face (or cycles forever on a
//! closed problem), hopping from track to track through reflective or
//! periodic links. ANT-MOC's 3D track indexing is built "by leveraging
//! both 2D track chain and 2D track stack indexes" (§3.2.1) — the z-stack
//! lattices in [`crate::track3d`] are laid along whole chains so that 3D
//! continuation across 2D track boundaries is exact.

use crate::track2d::{Link, TrackId, TrackSet2d};

/// One 2D track's appearance in a chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainMember {
    pub track: TrackId,
    /// Whether the chain traverses the track in its forward sense.
    pub forward: bool,
    /// Chain coordinate of the member's entry point.
    pub s_start: f64,
    /// The track's length (duplicated here for locality).
    pub length: f64,
}

/// A maximal linked sequence of 2D tracks.
#[derive(Debug, Clone)]
pub struct Chain {
    pub members: Vec<ChainMember>,
    /// Total chain length.
    pub total_len: f64,
    /// Whether the chain is a closed cycle (no vacuum at either end).
    pub closed: bool,
}

/// All chains of a track set.
#[derive(Debug, Clone)]
pub struct ChainSet {
    pub chains: Vec<Chain>,
}

impl ChainSet {
    /// Decomposes the track set into chains.
    pub fn build(tracks: &TrackSet2d) -> Self {
        let n = tracks.tracks.len();
        let mut visited = vec![false; 2 * n];
        let mut chains = Vec::new();

        let state_idx = |t: TrackId, fwd: bool| t.0 as usize * 2 + fwd as usize;

        let walk = |start: (TrackId, bool),
                    closed: bool,
                    visited: &mut Vec<bool>,
                    chains: &mut Vec<Chain>| {
            let mut members = Vec::new();
            let mut s = 0.0f64;
            let (mut t, mut fwd) = start;
            loop {
                let tr = &tracks.tracks[t.0 as usize];
                members.push(ChainMember { track: t, forward: fwd, s_start: s, length: tr.length });
                s += tr.length;
                // Mark both orientations of this member as consumed.
                visited[state_idx(t, fwd)] = true;
                visited[state_idx(t, !fwd)] = true;
                let link = if fwd { tr.fwd } else { tr.bwd };
                match link {
                    Link::Vacuum => break,
                    Link::Next { track, forward } => {
                        if closed && (track, forward) == start {
                            break;
                        }
                        t = track;
                        fwd = forward;
                    }
                }
            }
            chains.push(Chain { members, total_len: s, closed });
        };

        // Path chains start where the backward continuation is vacuum.
        for i in 0..n {
            let tr = &tracks.tracks[i];
            if tr.bwd == Link::Vacuum && !visited[state_idx(TrackId(i as u32), true)] {
                walk((TrackId(i as u32), true), false, &mut visited, &mut chains);
            }
            if tr.fwd == Link::Vacuum && !visited[state_idx(TrackId(i as u32), false)] {
                walk((TrackId(i as u32), false), false, &mut visited, &mut chains);
            }
        }
        // Remaining states belong to closed cycles.
        for i in 0..n {
            for fwd in [true, false] {
                if !visited[state_idx(TrackId(i as u32), fwd)] {
                    walk((TrackId(i as u32), fwd), true, &mut visited, &mut chains);
                }
            }
        }

        Self { chains }
    }

    /// Total number of chains.
    pub fn len(&self) -> usize {
        self.chains.len()
    }

    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::track2d::generate;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{Bc, BoundaryConds};
    use antmoc_xs::MaterialId;

    fn boxed(bcs: BoundaryConds) -> antmoc_geom::Geometry {
        homogeneous_box(MaterialId(0), 4.0, 3.0, (0.0, 1.0), bcs)
    }

    #[test]
    fn every_track_is_in_exactly_one_chain() {
        for bcs in [
            BoundaryConds::reflective(),
            BoundaryConds::vacuum(),
            BoundaryConds {
                x_min: Bc::Reflective,
                x_max: Bc::Vacuum,
                y_min: Bc::Reflective,
                y_max: Bc::Vacuum,
                z_min: Bc::Reflective,
                z_max: Bc::Vacuum,
            },
        ] {
            let g = boxed(bcs);
            let ts = generate(&g, 8, 0.4);
            let cs = ChainSet::build(&ts);
            let mut seen = vec![0usize; ts.num_tracks()];
            for c in &cs.chains {
                for m in &c.members {
                    seen[m.track.0 as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "membership counts {seen:?}");
        }
    }

    #[test]
    fn vacuum_box_chains_are_single_tracks() {
        let g = boxed(BoundaryConds::vacuum());
        let ts = generate(&g, 8, 0.4);
        let cs = ChainSet::build(&ts);
        assert_eq!(cs.len(), ts.num_tracks());
        for c in &cs.chains {
            assert_eq!(c.members.len(), 1);
            assert!(!c.closed);
        }
    }

    #[test]
    fn reflective_box_chains_are_closed() {
        let g = boxed(BoundaryConds::reflective());
        let ts = generate(&g, 8, 0.4);
        let cs = ChainSet::build(&ts);
        for c in &cs.chains {
            assert!(c.closed);
            assert!(c.members.len() > 1);
        }
    }

    #[test]
    fn half_open_box_chains_start_and_end_at_vacuum() {
        let bcs = BoundaryConds {
            x_min: Bc::Reflective,
            x_max: Bc::Vacuum,
            y_min: Bc::Reflective,
            y_max: Bc::Vacuum,
            z_min: Bc::Reflective,
            z_max: Bc::Vacuum,
        };
        let g = boxed(bcs);
        let ts = generate(&g, 8, 0.4);
        let cs = ChainSet::build(&ts);
        for c in &cs.chains {
            assert!(!c.closed);
            let first = &c.members[0];
            let last = c.members.last().unwrap();
            let entry_link = if first.forward {
                ts.tracks[first.track.0 as usize].bwd
            } else {
                ts.tracks[first.track.0 as usize].fwd
            };
            let exit_link = if last.forward {
                ts.tracks[last.track.0 as usize].fwd
            } else {
                ts.tracks[last.track.0 as usize].bwd
            };
            assert_eq!(entry_link, Link::Vacuum);
            assert_eq!(exit_link, Link::Vacuum);
        }
    }

    #[test]
    fn chain_coordinates_are_cumulative() {
        let g = boxed(BoundaryConds::reflective());
        let ts = generate(&g, 8, 0.4);
        let cs = ChainSet::build(&ts);
        for c in &cs.chains {
            let mut s = 0.0;
            for m in &c.members {
                assert!((m.s_start - s).abs() < 1e-9);
                s += m.length;
            }
            assert!((c.total_len - s).abs() < 1e-9);
        }
    }
}
