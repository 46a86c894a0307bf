//! Morton (z-order) space-filling-curve utilities for ThresholDB.
//!
//! The JHTDB partitions every simulation time-step into 8³ *database atoms*
//! and indexes each atom by the Morton code of its lower-left corner
//! (Kanov et al., EDBT 2015, §2). This crate provides:
//!
//! * 3-D Morton encoding/decoding ([`morton`]),
//! * atom-lattice addressing ([`atom`]),
//! * axis-aligned integer boxes with periodic-domain helpers ([`boxes`]),
//! * exact decomposition of a box into contiguous z-order ranges
//!   ([`range`]), used for partition pruning during clustered index scans.

pub mod atom;
pub mod boxes;
pub mod morton;
pub mod range;

pub use atom::{AtomCoord, ATOM_POINTS, ATOM_WIDTH};
pub use boxes::Box3;
pub use morton::{decode3, encode3, MortonBlockDecoder, MortonRow, MAX_COORD3};
pub use range::{decompose_box, ZRange};
