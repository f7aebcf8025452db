//! Extruded CSG geometry for 3D MOC neutron transport.
//!
//! ANT-MOC models reactors as *axially extruded* geometries (§2.1, §3.2 of
//! the paper): the radial cross section is a hierarchy of CSG cells,
//! universes and rectangular lattices; the axial direction is a stack of
//! zones over a flat axial mesh. A 3D flat source region (FSR) is the pair
//! of a radial FSR and an axial cell.
//!
//! The crate provides:
//!
//! * [`surface`] — 2D surfaces (planes and circles/z-cylinders) with
//!   signed evaluation and ray-distance queries;
//! * [`csg`] — cells, universes and lattices;
//! * [`geometry`] — the assembled arena with point location
//!   ([`geometry::Geometry::find`]), the ray-tracing step that locates and
//!   measures in one descent ([`geometry::Geometry::step`]) and
//!   deterministic FSR enumeration;
//! * [`axial`] — axial zones, the conforming axial mesh and the 3D FSR
//!   map ([`axial::Fsr3dMap`]);
//! * [`c5g7`] — the OECD/NEA C5G7 3D extension benchmark model used for
//!   all the paper's experiments.

pub mod axial;
pub mod c5g7;
pub mod csg;
pub mod geometry;
pub mod pin;
pub mod surface;

pub use axial::{AxialModel, Fsr3dId, Fsr3dMap, Zone, ZoneKind};
pub use csg::{Cell, Fill, Lattice, LatticeId, Universe, UniverseId};
pub use geometry::{Bc, BoundaryConds, Face, FsrId, Geometry, GeometryBuilder, Located, Step};
pub use surface::{Sense, Surface, SurfaceId};
